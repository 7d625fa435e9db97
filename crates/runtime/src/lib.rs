//! # dlra-runtime — the multi-dataset service façade over the substrates
//!
//! The sequential simulator in `dlra-comm` executes every "distributed"
//! protocol single-threaded on one core; `dlra-net` runs the same
//! [`dlra_comm::Collectives`] surface on real concurrent servers. This
//! crate picks a substrate per query and provides the serving layers on
//! top of it:
//!
//! * [`ThreadedCluster`] (re-exported from `dlra-net`) — each of the `s`
//!   servers is a dedicated thread owning its local state and running the
//!   `dlra-net` server loop; the coordinator exchanges frames with it over
//!   in-process pipes. `dlra_net::SocketCluster` runs the same coordinator
//!   and loop over loopback TCP. Protocol outputs are bit-identical to the
//!   sequential [`dlra_comm::Cluster`] and the word-exact
//!   [`dlra_comm::Ledger`] totals match exactly (see
//!   `tests/runtime_equivalence.rs` at the workspace root).
//! * [`Service`] — the **multi-dataset front door**: many named resident
//!   datasets share one executor pool, each with its own residency epoch
//!   and private plan-cache partition ([`Service::load`] /
//!   [`Service::reload`] / [`Service::evict`] — one tenant's reload never
//!   invalidates another's plans). Queries are built with the typed
//!   [`Query`] builder (validated at construction, [`QueryError`]) and
//!   submitted to a [`DatasetHandle`]; the returned [`Ticket`] supports
//!   [`Ticket::cancel`] (drop-before-execute), [`Ticket::deadline`]
//!   (expired queries resolve to [`ServiceError::Deadline`] without
//!   running), and [`Ticket::wait_timeout`]. Failures are unified in the
//!   [`ServiceError`] taxonomy ([`ServiceError::is_retryable`] /
//!   [`ServiceError::is_caller_error`] classify it for backoff loops).
//!   Every query follows one lifecycle: it resolves at submission or is
//!   queued, and one executor function runs it through the gates, the
//!   kernel budget, the substrate and one execute envelope, planned or
//!   not; one match counts and traces every resolution.
//!   Residency is copy-on-write (loading and dispatch clone `Matrix`
//!   handles, never entry data), and a dead or shut-down executor pool
//!   resolves every ticket to [`ServiceError::RuntimeUnavailable`]
//!   instead of panicking. The service self-regulates under pressure: a configurable admission
//!   bound sheds over-limit submissions with a typed
//!   [`ServiceError::Overloaded`] in O(µs), and a resident-byte budget
//!   LRU-evicts idle tenants (never one with queries in flight) — see
//!   [`ServiceConfig::max_queue_depth`], [`ServiceConfig::memory_budget`],
//!   and [`Service::pressure`]. Executors budget kernel threads at
//!   `max(1, total/executors)` so the coordinator's parallel kernels
//!   never oversubscribe at high executor counts.
//! * [`PlanCache`] — the query planner: unboosted Z-sampled queries
//!   sharing a [`PlanKey`] (dataset id, `f`, sampler parameters, seed,
//!   residency epoch) run the expensive, `k`-independent
//!   `ZSampler::prepare` **once** and draw from the shared `Arc`-backed
//!   structure concurrently. Servers split the kernel thread budget
//!   among themselves (`dlra_linalg::with_threads`), so the substrate's
//!   parallelism and the kernels' panel threads never compose
//!   multiplicatively.
//! * [`threaded_model`] / [`socket_model`] — one-line constructors for a
//!   `PartitionModel` on the threaded or socket substrate.
//!
//! ```
//! use dlra_core::prelude::*;
//! use dlra_runtime::{Query, Service, ServiceConfig};
//! use dlra_linalg::Matrix;
//! use dlra_util::Rng;
//!
//! let mut rng = Rng::new(7);
//! let parts: Vec<Matrix> = (0..4).map(|_| Matrix::gaussian(120, 16, &mut rng)).collect();
//!
//! let service = Service::new(ServiceConfig::default());
//! let dataset = service.load("demo", parts).unwrap();
//! let query = Query::rank(3)
//!     .samples(40)
//!     .sampler(SamplerKind::Uniform)
//!     .build()
//!     .unwrap();
//! let out = dataset.submit(&query).wait().unwrap();
//! assert_eq!(out.output.projection.dim(), 16);
//! ```

#![forbid(unsafe_code)]
pub mod planner;
pub mod query;
pub mod service;

use dlra_core::functions::EntryFunction;
use dlra_core::model::{MatrixServer, PartitionModel};
use dlra_core::Result;
use dlra_linalg::Matrix;

pub use dlra_comm::Topology;
pub use dlra_net::ThreadedCluster;
pub use dlra_obs::metrics::PlanCacheStats;
pub use planner::{PlanCache, PlanKey};
pub use query::{Query, QueryBuilder, QueryError, QueryRequest};
pub use service::{
    DatasetHandle, PlanUse, QueryOutcome, Service, ServiceConfig, ServiceError, Substrate, Ticket,
};

/// A partition model on the threaded substrate (the parallel counterpart
/// of `PartitionModel::new`).
pub fn threaded_model(
    locals: Vec<Matrix>,
    f: EntryFunction,
) -> Result<PartitionModel<ThreadedCluster<MatrixServer>>> {
    PartitionModel::with_substrate(locals, f, ThreadedCluster::new)
}

/// A partition model on the networked substrate: the servers behind real
/// loopback TCP sockets (`dlra-net::SocketCluster`), bit- and
/// ledger-identical to [`threaded_model`] and `PartitionModel::new`.
pub fn socket_model(
    locals: Vec<Matrix>,
    f: EntryFunction,
) -> Result<PartitionModel<dlra_net::SocketCluster<MatrixServer>>> {
    PartitionModel::with_substrate(locals, f, dlra_net::SocketCluster::new)
}

#[cfg(test)]
#[path = "runtime_tests.rs"]
mod runtime;
