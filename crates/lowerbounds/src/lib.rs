//! Executable constructions of the paper's relative-error lower bounds
//! (§VII, Theorems 4, 6, 8).
//!
//! The theorems are reductions: *if* a cheap relative-error distributed PCA
//! protocol existed, it would solve a communication problem with a known
//! lower bound (L∞ \[23\], 2-DISJ \[24\], Gap-Hamming-Distance \[25\]). These
//! modules build the gadget instances and run the reduction protocols
//! against a PCA oracle, verifying end to end that a valid `(1+ε)`
//! relative-error projection *does* decide each promise problem — which is
//! the entire combinatorial content of the proofs, and the reason the
//! paper's upper bounds settle for additive error.
//!
//! * [`problems`] — instance generators for the three promise problems;
//! * [`thm4`] — `f(x) = |x|ᵖ, p > 1` needs `Ω̃((1+ε)^{−2/p} n^{1−1/p} d^{1−4/p})` bits (from L∞);
//! * [`thm6`] — `f = max` or Huber ψ needs `Ω̃(nd)` bits (from 2-DISJ);
//! * [`thm8`] — `f(x) = xᵖ` needs `Ω(1/ε²)` bits (from Gap-Hamming).

#![forbid(unsafe_code)]
pub mod problems;
pub mod thm4;
pub mod thm6;
pub mod thm8;

pub use problems::{GapHammingInstance, LinftyInstance, TwoDisjInstance};
pub use thm4::solve_linfty_via_pca;
pub use thm6::solve_disj_via_pca;
pub use thm8::solve_ghd_via_pca;

/// Statistics of one reduction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Number of PCA-oracle invocations (the quantity the theorem charges).
    pub oracle_calls: u64,
    /// Bookkeeping words exchanged by the reduction itself (column indices,
    /// final checks) — negligible next to the oracle, as the proofs require.
    pub side_words: u64,
    /// Number of recursion rounds.
    pub rounds: u64,
}
