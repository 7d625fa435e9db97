//! # dlra — Distributed Low Rank Approximation of Implicit Functions of a Matrix
//!
//! A from-scratch Rust reproduction of Woodruff & Zhong, ICDE 2016
//! (arXiv:1601.07721). This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] (`dlra-core`) | the generalized partition model, Algorithm 1, applications (RFF / GM pooling / robust PCA) |
//! | [`sampler`] (`dlra-sampler`) | the generalized Z-sampler (Algorithms 2–4), baselines |
//! | [`sketch`] (`dlra-sketch`) | CountSketch, k-wise hashing |
//! | [`comm`] (`dlra-comm`) | star-topology simulation with word-exact accounting, the substrate-generic `Collectives` trait, the `Wire` trait (word size and bit-exact codec of every payload) |
//! | [`net`] (`dlra-net`) | networked substrate: the servers behind real TCP sockets, with bytes-on-the-wire auditing against the ledger |
//! | [`runtime`] (`dlra-runtime`) | threaded message-passing substrate + the multi-dataset `Service` façade (typed query builder, tickets with cancellation/deadlines) |
//! | [`obs`] (`dlra-obs`) | structured tracing (chrome://tracing export via `DLRA_TRACE`) and the per-dataset metrics registry |
//! | [`linalg`] (`dlra-linalg`) | matrices, QR, symmetric eigen, Jacobi SVD, rank-k tools |
//! | [`data`] (`dlra-data`) | synthetic stand-ins for the paper's datasets |
//! | [`lowerbounds`] (`dlra-lowerbounds`) | executable Theorem 4 / 6 / 8 reductions |
//! | [`util`] (`dlra-util`) | deterministic RNG and numeric helpers |
//!
//! ## Quickstart
//!
//! ```
//! use dlra::prelude::*;
//! use dlra::util::Rng;
//!
//! // Three servers hold additive shares of a 300×24 matrix.
//! let mut rng = Rng::new(1);
//! let global = dlra::data::noisy_low_rank(300, 24, 4, 0.05, &mut rng);
//! let parts = dlra::data::split_additively(&global, 3, &mut rng);
//! let mut model = PartitionModel::new(parts, EntryFunction::Identity).unwrap();
//!
//! // Rank-4 approximation from 80 sampled rows.
//! let cfg = Algorithm1Config { k: 4, r: 80, ..Algorithm1Config::default() };
//! let out = run_algorithm1(&mut model, &cfg).unwrap();
//!
//! let report = evaluate_projection(&model.global_matrix(), &out.projection, 4).unwrap();
//! assert!(report.additive_error < 0.2);
//! println!("words used: {}", out.comm.total_words());
//! ```

#![forbid(unsafe_code)]
pub use dlra_comm as comm;
pub use dlra_core as core;
pub use dlra_data as data;
pub use dlra_linalg as linalg;
pub use dlra_lowerbounds as lowerbounds;
pub use dlra_net as net;
pub use dlra_obs as obs;
pub use dlra_runtime as runtime;
pub use dlra_sampler as sampler;
pub use dlra_sketch as sketch;
pub use dlra_util as util;

/// One-stop imports for typical use.
pub mod prelude {
    pub use dlra_core::prelude::*;
    pub use dlra_obs::metrics::{
        DatasetMetricsSnapshot, HistogramSnapshot, KernelPoolSnapshot, MetricsSnapshot,
        PlanCacheSnapshot, PressureSnapshot,
    };
    pub use dlra_runtime::{
        DatasetHandle, PlanCacheStats, PlanUse, Query, QueryError, QueryOutcome, Service,
        ServiceConfig, ServiceError, Ticket,
    };
    pub use dlra_sampler::{ZSampler, ZSamplerParams};
}
