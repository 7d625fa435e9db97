//! # dlra-obs — observability for the `dlra` workspace
//!
//! Two independent facilities, both built to vanish when unused:
//!
//! * [`trace`] — chrome://tracing span recording for the query lifecycle
//!   (`submit → queue → plan → execute → complete`), enabled by
//!   `DLRA_TRACE=<path>` or [`trace::enable`]. The disabled fast path is a
//!   single relaxed atomic load; no clocks, no allocation.
//! * [`metrics`] — a lock-free registry of counters, gauges, fixed-bucket
//!   latency histograms, and word-exact communication accumulators, with
//!   snapshots exportable as JSON and Prometheus text exposition format.
//!
//! Neither facility may perturb results: instrumentation only observes.
//! The service equivalence suites run bit- and ledger-identical with
//! tracing on and off, and the determinism tests assert that ledger-derived
//! communication metrics are identical across repeated runs, kernel thread
//! counts, and plan-cache configurations.

#![forbid(unsafe_code)]
pub mod metrics;
pub mod trace;

pub use metrics::{
    CommCounters, DatasetMetrics, DatasetMetricsSnapshot, Histogram, HistogramSnapshot,
    KernelPoolSnapshot, MetricsSnapshot, PlanCacheStats, PressureSnapshot, ServicePressure,
    LATENCY_BUCKETS, LATENCY_BUCKET_BOUNDS_MICROS,
};
pub use trace::Span;
