//! The figure machinery behind the `fig1` / `fig2` binaries and the
//! Criterion benches, and one module per sweep that writes a committed
//! `BENCH_*.json` document. A sweep module holds a spec (`default()` is
//! the committed run, `quick()` the CI run), a `run` function and a
//! [`cli::Report`]; its binary is one call to [`cli::sweep`].

#![forbid(unsafe_code)]
pub mod cli;
pub mod kernels;
pub mod net;
pub mod obs;
pub mod planner;
pub mod pressure;
pub mod repro;
pub mod topology;

pub use repro::{
    isolet_panel, pooling_panel, rff_panel, PanelResult, PanelRow, PanelSpec, PoolingSource,
    RffSource,
};
