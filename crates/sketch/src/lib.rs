//! Linear sketches used by the distributed samplers.
//!
//! Everything here is a *linear* function of the input vector, so a sketch of
//! `v = Σₜ vᵗ` is obtained by having each server sketch its local `vᵗ` with
//! the **same seeds** (broadcast by the coordinator) and summing the sketch
//! tables — which is exactly how the paper turns the streaming
//! CountSketch-based `HeavyHitters` of Charikar–Chen–Farach-Colton \[21\] into
//! a distributed protocol (§V-B).
//!
//! * [`hashing`] — k-wise independent polynomial hashing over the Mersenne
//!   prime `2⁶¹ − 1`;
//! * [`countsketch`] — CountSketch with median point queries and the built-in
//!   AMS-style `F₂` estimate;
//! * [`ams`] — a standalone tug-of-war `F₂` (second moment) estimator;
//! * [`heavy_hitters`] — recovery of all coordinates with
//!   `v_j² ≥ ‖v‖²/B` from a CountSketch.

#![forbid(unsafe_code)]
pub mod ams;
pub mod countmin;
pub mod countsketch;
pub mod hashing;
pub mod heavy_hitters;

pub use ams::AmsF2;
pub use countmin::CountMin;
pub use countsketch::CountSketch;
pub use hashing::{KWiseHash, PairwiseHash};
pub use heavy_hitters::{HeavyHitter, HeavyHittersSketch};
