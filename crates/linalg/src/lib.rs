//! Dense linear algebra kernels for the `dlra` workspace.
//!
//! Everything is implemented from scratch on a row-major [`Matrix`] of `f64`:
//!
//! * [`matrix`] — the matrix type and elementwise / multiplicative kernels;
//! * [`kernels`] — the cache-blocked, register-tiled, panel-parallel
//!   implementations behind `matmul` / `transpose_matmul` / `gram` /
//!   `transpose`, plus the retained naive [`kernels::reference`] baselines;
//! * [`threads`](mod@threads) — the kernel thread-count knob ([`set_threads`],
//!   default = available parallelism), the scoped
//!   [`with_threads`] override outer parallelism layers use to pin
//!   kernels, and the row-panel fan-out the kernels run on: inline under
//!   a one-thread budget or the work floor, otherwise on
//!   `std::thread::scope` threads joined before each call returns;
//! * [`mersenne`] — batched polynomial evaluation mod 2⁶¹ − 1, the
//!   arithmetic of the sketches' k-wise hashes, vectorized through the
//!   same ISA dispatch as the dense kernels;
//! * [`projector`] — factored orthogonal projectors `P = V·Vᵀ` applied as
//!   `(A·V)·Vᵀ`, never materializing the `d × d` matrix;
//! * [`qr`] — Householder thin QR, `Q` kept as its reflectors, and
//!   orthonormalization;
//! * [`svd`](mod@svd) — one-sided Jacobi (Hestenes) singular value
//!   decomposition, its pivoted sweep compiled through the same ISA
//!   dispatch, and [`top_right_svd`], the coordinator's top-k form that
//!   runs the sweep on a Householder-reduced triangle;
//! * [`lowrank`] — best rank-k approximations, projection matrices, and the
//!   Frobenius-error helpers used by the paper's definitions of additive and
//!   relative error.
//!
//! The multiplicative kernels keep a **fixed summation order** (ascending
//! contraction index per output element), so every result is bit-identical
//! across block sizes, thread counts and ISA bodies — the
//! substrate-equivalence guarantees of the protocol layers survive
//! parallel kernels unchanged. Vector lanes only ever hold distinct output
//! elements, never pieces of one sum. The SVD's Jacobi sweep follows the
//! same rule: a pair's three column dots run in one pass as three
//! sequential chains side by side, since splitting any one of them across
//! lanes would regroup its sum and move the output bits, and its de Rijk
//! pivot picks the leading row from scalar norms every body computes
//! alike. The SVD is
//! accurate to ~1e-12 on the reproduced sizes and is property-tested
//! against reconstruction and orthogonality invariants.

#![deny(unsafe_op_in_unsafe_fn)]
pub mod kernels;
pub mod lowrank;
pub mod matrix;
pub mod mersenne;
pub mod projector;
pub mod qr;
pub mod svd;
pub mod threads;

pub use lowrank::{
    best_rank_k, best_rank_k_error_sq, projection_from_basis, residual_sq, RankKApprox,
};
pub use matrix::Matrix;
pub use projector::Projector;
pub use qr::{householder_qr, orthonormalize_columns, HouseholderQr};
pub use svd::{svd, top_right_svd, Svd};
pub use threads::{
    parallelism_watermark, pool_profile, pool_profiling, reset_parallelism_watermark,
    reset_pool_profile, set_pool_profiling, set_threads, threads, with_threads, PoolProfile,
};

/// Errors surfaced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible (message names the operation).
    ShapeMismatch(String),
    /// An iterative kernel failed to converge within its sweep budget.
    NoConvergence(&'static str),
    /// A rank / dimension argument is out of range.
    InvalidArgument(String),
    /// The input holds a NaN or an infinity, or its squared norm
    /// overflows (message names the operation).
    NonFinite(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            LinalgError::NoConvergence(op) => write!(f, "{op} failed to converge"),
            LinalgError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            LinalgError::NonFinite(op) => write!(f, "{op}: input is not finite"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Workspace-wide `Result` alias for linear algebra.
pub type Result<T> = std::result::Result<T, LinalgError>;
