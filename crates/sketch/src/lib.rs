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
//!   prime `2⁶¹ − 1`, with precomputed bucket moduli and forward-difference
//!   walks over consecutive inputs;
//! * [`countsketch`] — CountSketch with median point queries and the built-in
//!   AMS-style `F₂` estimate;
//! * [`heavy_hitters`] — recovery of all coordinates with
//!   `v_j² ≥ ‖v‖²/B` from a CountSketch.

#![forbid(unsafe_code)]
pub mod countsketch;
pub mod hashing;
pub mod heavy_hitters;

pub use countsketch::CountSketch;
pub use hashing::{KWiseHash, Modulus};
pub use heavy_hitters::{HeavyHitter, HeavyHittersSketch};
