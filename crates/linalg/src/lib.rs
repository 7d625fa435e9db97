//! Dense linear algebra kernels for the `dlra` workspace.
//!
//! Everything is implemented from scratch on a row-major [`Matrix`] of `f64`:
//!
//! * [`matrix`] — the matrix type and elementwise / multiplicative kernels;
//! * [`kernels`] — the cache-blocked, register-tiled, panel-parallel
//!   implementations behind `matmul` / `transpose_matmul` / `gram` /
//!   `transpose`, plus the retained naive [`kernels::reference`] baselines;
//! * [`threads`](mod@threads) — the kernel thread-count knob ([`set_threads`] /
//!   `DLRA_THREADS`, default = available parallelism), the scoped
//!   [`with_threads`] override outer parallelism layers use to pin
//!   kernels, and the persistent panel-worker pool the kernels run on;
//! * [`projector`] — factored orthogonal projectors `P = V·Vᵀ` applied as
//!   `(A·V)·Vᵀ`, never materializing the `d × d` matrix;
//! * [`qr`] — Householder thin QR and orthonormalization;
//! * [`eigen`] — cyclic Jacobi eigensolver for symmetric matrices;
//! * [`svd`](mod@svd) — one-sided Jacobi (Hestenes) singular value decomposition;
//! * [`lowrank`] — best rank-k approximations, projection matrices, and the
//!   Frobenius-error helpers used by the paper's definitions of additive and
//!   relative error.
//!
//! The multiplicative kernels keep a **fixed summation order** (ascending
//! contraction index per output element), so every result is bit-identical
//! across block sizes and thread counts — the substrate-equivalence
//! guarantees of the protocol layers survive parallel kernels unchanged.
//! The SVD is accurate to ~1e-12 on the reproduced sizes and is
//! property-tested against reconstruction and orthogonality invariants.

#![deny(unsafe_op_in_unsafe_fn)]
pub mod eigen;
pub mod kernels;
pub mod lowrank;
pub mod matrix;
pub mod projector;
pub mod qr;
pub mod randomized;
pub mod svd;
pub mod threads;

pub use eigen::{sym_eigen, SymEigen};
pub use lowrank::{
    best_rank_k, best_rank_k_error_sq, projection_from_basis, residual_sq, RankKApprox,
};
pub use matrix::Matrix;
pub use projector::Projector;
pub use qr::{householder_qr, orthonormalize_columns};
pub use randomized::{randomized_svd, RandomizedSvdConfig};
pub use svd::{svd, Svd};
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
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            LinalgError::NoConvergence(op) => write!(f, "{op} failed to converge"),
            LinalgError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Workspace-wide `Result` alias for linear algebra.
pub type Result<T> = std::result::Result<T, LinalgError>;
