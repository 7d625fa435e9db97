//! The paper's distributed sampling machinery (§V, Algorithms 2–4).
//!
//! Given per-server local vectors `aᵗ ∈ ℝˡ` whose (implicit) aggregate is
//! `a = Σₜ aᵗ`, and a function `z(·)` satisfying *property P* (`x²/z(x)`
//! and `z(x)` nondecreasing in `|x|`, `z(0) = 0`), the [`ZSampler`] outputs a
//! coordinate `i` with probability `≈ z(aᵢ)/Z(a)` where `Z(a) = Σᵢ z(aᵢ)`,
//! together with an estimate of `Z(a)` and of the coordinate's sampling
//! probability — which is exactly what Algorithm 1's row sampling needs.
//!
//! Module map (paper → code):
//!
//! | Paper | Module |
//! |---|---|
//! | property-P functions `z` (softmax powers, M-estimator ψ²) | [`zfn`] |
//! | `Z-HeavyHitters` (Alg. 2: bucketed CountSketch heavy hitters) | [`bundle`] |
//! | `Z-estimator` (Alg. 3: level sets `Sᵢ(a)`, subsample hierarchy, `Ẑ`, `ŝᵢ`) | [`estimator`] |
//! | `Z-sampler` (Alg. 4: coordinate injection + draw) | [`zsampler`] |
//! | uniform sampler and exact weights (baselines, RFF application) | [`baseline`] |
//!
//! ## Faithfulness vs practicality
//!
//! The paper's constants (`B = 40ε⁻⁴T³ log l`, `⌈4B²⌉` buckets, `W =
//! (5120C²T²ε⁻³ log l)²`…) are astronomically large; its own experiments
//! "adjust parameters … to guarantee the ratio of total communication to the
//! sum of local data sizes is limited". We implement the same structure with
//! the knobs exposed in [`ZSamplerParams`]: per-level grouped heavy-hitter
//! sketches (Alg. 2's `hashₜ` buckets = our groups), a nested subsampling
//! hierarchy driven by one high-independence hash (Alg. 3's `g` and `Sⱼ`),
//! window-gated level-set size estimation (Alg. 3 line 12), and coordinate
//! injection for sparse small classes (Alg. 4 / §V-D). Two deliberate
//! engineering deviations, both documented in `DESIGN.md`:
//!
//! 1. `Ẑ` uses the empirical mean of the *exactly known* recovered values in
//!    each class instead of the class floor `(1+ε)ⁱ` — strictly more accurate
//!    at identical communication (the exact values are already fetched by
//!    Alg. 3 lines 6/11).
//! 2. Repeated draws reuse one prepared estimator pass, replacing the
//!    min-wise hash selection with a uniform draw from the recovered members
//!    of the chosen class (a fresh min-wise hash over a fixed set *is* a
//!    uniform draw). This is what makes `r = Θ(k²/ε²)` samples affordable,
//!    mirroring the batching the paper's experiments must also do.

#![forbid(unsafe_code)]
pub mod baseline;
pub mod bundle;
pub mod estimator;
pub mod params;
pub mod vector;
pub mod zfn;
pub mod zsampler;

pub use baseline::{exact_weights, UniformSampler};
pub use bundle::SketchBundle;
pub use estimator::{run_z_estimator, ClassEstimate, EstimatorOutput};
pub use params::ZSamplerParams;
pub use vector::{DenseServerVec, SampleVector};
pub use zfn::{check_property_p, FairSq, HuberSq, L1L2Sq, PowerAbs, Square, ZFn};
pub use zsampler::{Draw, PreparedSampler, SamplerStats, SharedPrepared, ZSampler};
