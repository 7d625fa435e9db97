//! The service façade: **many named resident datasets** behind one
//! executor pool, typed queries, and tickets with cancellation and
//! deadlines.
//!
//! A [`Service`] is the front door of the serving system: the coordinator
//! that answers Algorithm 1 queries over the `s` servers' resident shares.
//! It hosts any number of datasets by name: [`Service::load`] makes a
//! dataset resident and returns a
//! [`DatasetHandle`], [`Service::reload`] swaps one tenant's data in place
//! (bumping only **that** dataset's residency epoch), and
//! [`Service::evict`] removes it. Every dataset owns a private plan-cache
//! partition, so one tenant's reload or eviction can never invalidate
//! another tenant's prepared plans or in-flight queries — the isolation is
//! stats-assertable per dataset through [`DatasetHandle::plan_stats`].
//!
//! Queries are built through the typed [`Query`]
//! builder (validated at construction, see [`crate::query`]) and submitted
//! to a handle; [`DatasetHandle::submit`] returns a [`Ticket`]:
//!
//! * [`Ticket::cancel`] — drop-before-execute: executors check the
//!   cancellation flag when they pop the query **and again between the
//!   (possibly shared) sampler preparation and the draw/fetch execution**;
//!   a cancelled query resolves to [`ServiceError::Cancelled`].
//! * [`Ticket::deadline`] — an expired deadline resolves the ticket to
//!   [`ServiceError::Deadline`] without running the protocol at all.
//! * [`Ticket::wait_timeout`] — bounded blocking; on timeout the caller
//!   gets the ticket back (typically to `cancel` it).
//!
//! Failures are unified into the [`ServiceError`] taxonomy: an invalid
//! query ([`ServiceError::InvalidQuery`]) is distinct from an evicted
//! dataset ([`ServiceError::DatasetEvicted`]), an expired deadline
//! ([`ServiceError::Deadline`]), a shed submission
//! ([`ServiceError::Overloaded`]), and a dead executor pool
//! ([`ServiceError::RuntimeUnavailable`]). [`ServiceError::is_retryable`]
//! and [`ServiceError::is_caller_error`] classify the variants for
//! retry/backoff loops.
//!
//! ## One query lifecycle
//!
//! A submission resolves at once when `k` exceeds the dataset's width,
//! the dataset was evicted, admission sheds it or the pool is gone;
//! otherwise it is admitted and queued. An executor runs a popped query
//! through one function: the deadline, eviction and cancel gates, the
//! kernel budget, the substrate, and one execute envelope — one
//! `query.execute` span and one execute record, planned or not. A ticket
//! that never runs is settled in one place, where a cancel that claimed it
//! first wins; a dataset leaves residency through one function, for
//! [`Service::evict`] and the quota sweep alike; and one match maps every
//! resolution, at submission or in an executor, to its metrics counter and
//! its trace instant.
//!
//! ## Self-regulation under pressure
//!
//! The service protects itself from overload with two mechanisms, both
//! off by default (the legacy unbounded behavior):
//!
//! * **Bounded admission** — [`ServiceConfig::max_queue_depth`] caps the
//!   number of admitted-but-unresolved queries (queued + executing) across
//!   all tenants. A submission over the cap resolves immediately to
//!   [`ServiceError::Overloaded`] in O(µs), without touching an executor;
//!   [`Ticket::shed`] reports it without consuming the result.
//! * **Memory quotas** — [`ServiceConfig::memory_budget`] bounds the total
//!   bytes of resident payload. `load`/`reload` that push the total over
//!   the budget evict the least-recently-dispatched *unpinned* dataset
//!   (LRU over a logical tick, never a clock) until the budget holds;
//!   datasets with queries admitted or executing are pinned and never
//!   evicted mid-query. Quota-evicted handles resolve to
//!   [`ServiceError::DatasetEvicted`], exactly like an explicit evict.
//!
//! Both decisions are deterministic given the operation interleaving:
//! admission reads one atomic gauge, the LRU victim is the minimum of a
//! strictly monotonic logical tick. [`Service::pressure`] exposes the
//! live state (always, even with metrics off).
//!
//! ## Executor-layer kernel budgeting
//!
//! Each executor wraps query execution in
//! `dlra_linalg::with_threads(max(1, total / executors))`, so the
//! coordinator's parallel kernels (the transposes around the reduction of
//! `B`, matrix products) share the process kernel-thread budget across
//! concurrent queries instead of each claiming all of it — at high
//! executor counts the two layers previously oversubscribed
//! multiplicatively (`tests/thread_composition.rs` bounds the live-thread
//! watermark). Thread counts never change results: kernels are
//! bit-identical across thread counts.
//!
//! ## Query planning
//!
//! The expensive distributed phase of a Z-sampled query — two estimator
//! passes plus coordinate injection — is `k`-independent and deterministic
//! in `(resident data, f, sampler parameters, prepare seed)`. Each dataset
//! therefore keeps a bounded LRU [`PlanCache`]: unboosted Z queries whose
//! [`PlanKey`]s collide share one `Arc`-backed prepared sampler, prepared
//! **exactly once** (concurrent executors block on the in-flight
//! preparation instead of redoing it). B such queries submitted back to
//! back pay one preparation plus B draw/fetch phases.
//!
//! Per-query accounting stays exact: a planned query's reported
//! `Algorithm1Output::comm` is the preparation delta plus its own
//! draw/fetch delta — bit-identical to what an unplanned run would have
//! charged — while [`QueryOutcome::plan`] reports the shared preparation
//! cost and whether this query was the one that physically paid it. Per
//! distinct key, at most one delivered outcome carries
//! `cache_hit == false`; a warm cache may serve a whole batch as hits, so
//! total a batch's physical cost from the payers actually observed.
//!
//! ## Copy-on-write residency
//!
//! Resident matrices are loaded **once**, sharing the caller's storage;
//! query dispatch copies no entry data. Each per-query model is built from
//! O(1) handle clones of the shared copy-on-write [`Matrix`] storage (per
//! server: one `Arc` bump), and the query-local state — the
//! injected-coordinate scratch and residual sampling views — lives in the
//! model's `MatrixServer` scratch half, so concurrent queries cannot
//! interfere. Submit cost is O(s), flat in the dataset size `n·d`.
//!
//! ## Failure paths
//!
//! [`DatasetHandle::submit`] never panics: if the executor pool has died
//! (every executor panicked) or the service was [`Service::shutdown`],
//! every ticket resolves to [`ServiceError::RuntimeUnavailable`], which is
//! distinct from per-query errors like [`ServiceError::InvalidQuery`] —
//! callers can tell "my query was bad" apart from "the pool is gone, retry
//! elsewhere".

use crate::planner::{PlanCache, PlanKey};
use crate::query::{Query, QueryError, QueryRequest};
use dlra_comm::{Collectives, LedgerSnapshot, Topology};
use dlra_core::algorithm1::{
    prepare_z_plan, run_algorithm1_interruptible, run_algorithm1_with_plan_interruptible,
    Algorithm1Output, SamplerKind,
};
use dlra_core::model::{MatrixServer, PartitionModel};
use dlra_core::{CoreError, InterruptReason};
use dlra_linalg::Matrix;
use dlra_obs::metrics::{
    DatasetMetrics, KernelPoolSnapshot, MetricsSnapshot, PlanCacheStats, PressureSnapshot,
    ServicePressure,
};
use dlra_obs::trace;
use dlra_util::sync::{MutexExt, RwLockExt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which execution substrate the pooled executors build per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Substrate {
    /// The sequential in-process simulator (`dlra-comm::Cluster`).
    Sequential,
    /// The threaded message-passing cluster (`dlra-net::ThreadedCluster`):
    /// one server thread per share, frames over in-process pipes.
    #[default]
    Threaded,
    /// The networked cluster (`dlra-net::SocketCluster`): servers behind
    /// real loopback TCP sockets, every payload crossing the bit-exact
    /// wire codec. Bit- and ledger-identical to the other substrates.
    Socket,
}

/// Configuration of a [`Service`]. The service reads no environment
/// variables: every setting arrives through these fields.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of executor threads, i.e. queries in flight concurrently
    /// (shared across every resident dataset).
    pub executors: usize,
    /// Substrate each query runs on.
    pub substrate: Substrate,
    /// Per-dataset plan-cache capacity (distinct prepared samplers held);
    /// `0` disables planning entirely. The default is 16. The planned and
    /// unplanned paths are bit- and ledger-identical.
    pub plan_cache: usize,
    /// Whether the per-dataset metrics registry is maintained (default
    /// `true`; the cost per query is a handful of relaxed atomic adds).
    /// When `false`, [`Service::metrics`] returns `None` and the query
    /// path records nothing. Never affects results either way.
    pub metrics: bool,
    /// How reduction collectives route partial results to the coordinator
    /// (star, or a combining tree that shrinks the coordinator's inbox to
    /// one message per tree level). Never affects results: the combining
    /// order is fixed by the server count alone. Defaults to
    /// [`Topology::Star`].
    pub topology: Topology,
    /// Admission bound: the maximum number of queries admitted and not yet
    /// resolved (queued + executing) across every dataset. A submission
    /// over the bound is shed — its ticket resolves immediately to
    /// [`ServiceError::Overloaded`] without reaching an executor. `None`
    /// (the default) keeps the legacy unbounded queue.
    pub max_queue_depth: Option<usize>,
    /// Service-wide budget (bytes) for resident dataset payloads. When a
    /// `load`/`reload` pushes the total over the budget, the
    /// least-recently-dispatched dataset with no admitted queries is
    /// quota-evicted (its stale handles resolve to
    /// [`ServiceError::DatasetEvicted`]) until the budget holds — or until
    /// only pinned datasets remain, in which case the service stays over
    /// budget rather than evict under a live query. `None` (the default)
    /// disables quotas.
    pub memory_budget: Option<u64>,
}

/// One executor per available core (at most 8), the threaded substrate,
/// the star topology, plan cache 16, metrics on, unbounded admission and
/// no memory budget.
impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            executors: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
                .clamp(1, 8),
            substrate: Substrate::Threaded,
            plan_cache: 16,
            metrics: true,
            topology: Topology::Star,
            max_queue_depth: None,
            memory_budget: None,
        }
    }
}

/// How a delivered query interacted with its dataset's plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanUse {
    /// The preparation's one-time ledger cost. It is already folded into
    /// the output's `comm` (keeping per-query accounting identical to an
    /// unplanned run); subtract it to get the query's own draw/fetch
    /// delta, and charge it once per distinct plan when totalling a batch.
    pub prepare_comm: LedgerSnapshot,
    /// `true` when the preparation was served from the cache; `false` for
    /// the one query per plan that physically ran it.
    pub cache_hit: bool,
}

/// A delivered query result plus its planner provenance.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The protocol output (projection, per-query ledger delta, rows).
    pub output: Algorithm1Output,
    /// `Some` when the query executed from a shared plan; `None` on the
    /// unplanned path (cache disabled, non-Z sampler, or boosted query).
    pub plan: Option<PlanUse>,
}

/// Operator-friendly one-liner: cache interaction plus the preparation's
/// word cost.
impl std::fmt::Display for PlanUse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}, prepare cost {}",
            if self.cache_hit {
                "plan cache hit"
            } else {
                "plan prepared"
            },
            self.prepare_comm
        )
    }
}

/// Operator-friendly one-liner: projection shape, sample count, charged
/// communication, and planner provenance.
impl std::fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "projection dim={} rows={} captured={:.4} comm[{}]",
            self.output.projection.dim(),
            self.output.rows.len(),
            self.output.captured,
            self.output.comm
        )?;
        match &self.plan {
            Some(plan) => write!(f, " ({plan})"),
            None => write!(f, " (unplanned)"),
        }
    }
}

/// The unified error taxonomy of the service layer. Callers can tell "my
/// query was bad" ([`ServiceError::InvalidQuery`]) apart from "the data is
/// gone" ([`ServiceError::DatasetEvicted`]), "I ran out of time"
/// ([`ServiceError::Deadline`]), and "the pool is gone, retry elsewhere"
/// ([`ServiceError::RuntimeUnavailable`]).
#[derive(Debug)]
pub enum ServiceError {
    /// The query is invalid — rejected by the builder-equivalent checks,
    /// by the shape of the addressed dataset, or by the protocol itself.
    InvalidQuery(QueryError),
    /// The addressed dataset was evicted (the handle outlived its data).
    DatasetEvicted {
        /// Name the dataset was resident under.
        dataset: String,
    },
    /// No dataset with this name is resident ([`Service::reload`] /
    /// [`Service::evict`] addressing).
    UnknownDataset(String),
    /// [`Service::load`] would overwrite a resident dataset; use
    /// [`Service::reload`] to swap data under an existing name.
    DatasetExists(String),
    /// The dataset payload is malformed (no servers, mismatched shapes,
    /// a NaN or infinite entry).
    InvalidDataset(String),
    /// The ticket's deadline expired before the query executed.
    Deadline,
    /// The ticket was cancelled before the query executed.
    Cancelled,
    /// Admission control shed the query: the service already has
    /// `queue_depth` queries admitted against a bound of `limit`. The shed
    /// is decided at submission in O(µs) — the query never touches an
    /// executor — so retrying after a backoff is cheap and safe.
    Overloaded {
        /// Admitted-but-unresolved queries observed at the shed decision.
        queue_depth: u64,
        /// The configured admission bound ([`ServiceConfig::max_queue_depth`]).
        limit: u64,
    },
    /// The executor pool is gone (shut down or every executor died). The
    /// query itself may be fine and can be retried against a live service.
    RuntimeUnavailable(String),
    /// The protocol failed mid-execution (sampler exhausted, numerical
    /// failure).
    Execution(CoreError),
}

impl ServiceError {
    /// Whether resubmitting the same query, unchanged, can reasonably
    /// succeed later: the service was too busy ([`ServiceError::Overloaded`]
    /// — back off and retry), the pool is gone
    /// ([`ServiceError::RuntimeUnavailable`] — retry against a live
    /// service), or time ran out ([`ServiceError::Deadline`] — retry with a
    /// looser deadline). Disjoint from [`ServiceError::is_caller_error`];
    /// [`ServiceError::Execution`] is neither (a mid-protocol failure may
    /// or may not be data-dependent — callers must look at the inner
    /// error).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServiceError::Overloaded { .. }
                | ServiceError::RuntimeUnavailable(_)
                | ServiceError::Deadline
        )
    }

    /// Whether the failure is the caller's to fix — a malformed query, a
    /// wrong dataset name, a handle outliving its data, or the caller's
    /// own cancellation. Retrying without changing the request (or the
    /// addressed dataset) cannot succeed. Disjoint from
    /// [`ServiceError::is_retryable`].
    pub fn is_caller_error(&self) -> bool {
        matches!(
            self,
            ServiceError::InvalidQuery(_)
                | ServiceError::DatasetEvicted { .. }
                | ServiceError::UnknownDataset(_)
                | ServiceError::DatasetExists(_)
                | ServiceError::InvalidDataset(_)
                | ServiceError::Cancelled
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            ServiceError::DatasetEvicted { dataset } => {
                write!(f, "dataset '{dataset}' was evicted")
            }
            ServiceError::UnknownDataset(name) => {
                write!(f, "no dataset named '{name}' is resident")
            }
            ServiceError::DatasetExists(name) => {
                write!(f, "dataset '{name}' is already resident (use reload)")
            }
            ServiceError::InvalidDataset(m) => write!(f, "invalid dataset: {m}"),
            ServiceError::Deadline => write!(f, "deadline expired before the query executed"),
            ServiceError::Cancelled => write!(f, "query cancelled before execution"),
            ServiceError::Overloaded { queue_depth, limit } => write!(
                f,
                "service overloaded: {queue_depth} queries admitted against a bound of {limit}"
            ),
            ServiceError::RuntimeUnavailable(m) => write!(f, "runtime unavailable: {m}"),
            ServiceError::Execution(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::InvalidQuery(e)
    }
}

/// Maps a protocol-layer failure into the service taxonomy.
fn map_execution(err: CoreError) -> ServiceError {
    match err {
        CoreError::InvalidConfig(m) => ServiceError::InvalidQuery(QueryError::Rejected(m)),
        CoreError::RuntimeUnavailable(m) => ServiceError::RuntimeUnavailable(m),
        CoreError::Interrupted(InterruptReason::Deadline) => ServiceError::Deadline,
        CoreError::Interrupted(InterruptReason::Cancelled) => ServiceError::Cancelled,
        other => ServiceError::Execution(other),
    }
}

/// The error a ticket resolves to when the pool cannot (or can no longer)
/// run its query.
pub(crate) fn runtime_unavailable() -> ServiceError {
    ServiceError::RuntimeUnavailable(
        "executor pool is not running (all executors exited or the runtime shut down)".into(),
    )
}

/// The resident payload of one dataset plus its epoch (bumped on every
/// reload; part of every [`PlanKey`], so plans are pinned to the data they
/// were prepared against).
struct Resident {
    locals: Arc<Vec<Matrix>>,
    epoch: u64,
    shape: (usize, usize),
}

/// One named resident dataset: payload, residency epoch, and a private
/// plan-cache partition. Queries hold an `Arc` to the dataset they were
/// addressed to, so eviction never invalidates what is already executing.
struct Dataset {
    /// Service-unique id; part of every [`PlanKey`] this dataset mints, so
    /// plans can never cross datasets even if caches were ever shared.
    id: u64,
    name: String,
    // dlra-lock-order: dataset.resident
    resident: RwLock<Resident>,
    /// `Some` when planning is enabled (`ServiceConfig::plan_cache > 0`).
    /// Private to this dataset: another tenant's reload/evict cannot touch
    /// it.
    planner: Option<Arc<PlanCache>>,
    /// `Some` when the service maintains metrics
    /// (`ServiceConfig::metrics`). Private per dataset, like the planner.
    metrics: Option<Arc<DatasetMetrics>>,
    evicted: AtomicBool,
    /// Bytes of resident payload (Σ rows·cols·8 over servers); updated
    /// under the `datasets` write lock at load, reload and retirement,
    /// read by the quota sweep and by [`Service::metrics`].
    bytes: AtomicU64,
    /// Logical LRU tick of the last admission (or load/reload) touching
    /// this dataset — from the service's monotonic mint, never a clock, so
    /// quota-eviction victims are deterministic given the interleaving.
    last_used: AtomicU64,
    /// Queries admitted against this dataset and not yet resolved. A
    /// dataset with `pending > 0` is pinned: the quota sweep never evicts
    /// it, so plans being prepared and payloads being queried stay live.
    pending: AtomicU64,
}

/// Lifecycle of a submitted query, kept in **one** atomic word so that
/// [`Ticket::cancel`] and the executor's claim cannot race each other into
/// contradictory answers (two separate flags would allow "cancel returned
/// true" and "the query ran anyway" simultaneously).
mod ticket_state {
    /// Queued; nobody has claimed it.
    pub const PENDING: u8 = 0;
    /// An executor won the claim and is executing (or has delivered).
    pub const STARTED: u8 = 1;
    /// A cancel won the claim; the query will never execute.
    pub const CANCELLED: u8 = 2;
    /// Resolved without executing (submission-time failure, deadline,
    /// eviction) — cancellation can no longer change the outcome.
    pub const RESOLVED: u8 = 3;
}

/// Process-wide query id mint: every submitted query gets a unique id so
/// trace spans from different lifecycle stages (and threads) correlate.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Cancellation/deadline state shared between a [`Ticket`] and the
/// executor that will run (or skip) its query.
struct TicketShared {
    /// One of [`ticket_state`]'s values; every transition out of `PENDING`
    /// is a compare-exchange, so exactly one party claims the query.
    state: AtomicU8,
    /// Set by every `cancel` call, even too-late ones: the
    /// prepare→execute checkpoint honors it best-effort after execution
    /// has started.
    cancel_requested: AtomicBool,
    /// Set (before resolution) when admission control shed this query, so
    /// callers can detect shedding without consuming the one-shot result.
    shed: AtomicBool,
    submitted: Instant,
    /// The deadline in nanoseconds after `submitted`, `u64::MAX` for none.
    /// Only ever lowered (`fetch_min`): a later, looser deadline never
    /// relaxes an earlier one.
    deadline: AtomicU64,
    /// Process-unique id correlating this query's trace events.
    query_id: u64,
}

/// `after` in nanoseconds, saturating at `u64::MAX` (about 584 years),
/// which stands for "no deadline".
fn nanos(after: Duration) -> u64 {
    u64::try_from(after.as_nanos()).unwrap_or(u64::MAX)
}

impl TicketShared {
    fn new(deadline: Option<Duration>) -> Self {
        TicketShared {
            state: AtomicU8::new(ticket_state::PENDING),
            cancel_requested: AtomicBool::new(false),
            shed: AtomicBool::new(false),
            submitted: Instant::now(),
            deadline: AtomicU64::new(deadline.map_or(u64::MAX, nanos)),
            query_id: NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Tries to move `PENDING → to`; on failure returns the state that won
    /// instead.
    fn claim(&self, to: u8) -> Result<(), u8> {
        // The ticket state machine lives in this one atomic, and a CAS
        // already totally orders its transitions. AcqRel/Acquire makes a
        // successful claim publish (and a failed claim observe) everything
        // the transitioning thread wrote first; nothing here needs the
        // cross-variable total order SeqCst would add.
        self.state
            .compare_exchange(
                ticket_state::PENDING,
                to,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
    }

    /// Settles a ticket that never runs: claims it `RESOLVED` and returns
    /// `err`, unless a cancel claimed it first — then the cancel's
    /// drop-before-execute guarantee wins and the ticket resolves to
    /// [`ServiceError::Cancelled`], so `cancel() == true` always implies
    /// exactly that one terminal state.
    fn settle(&self, err: ServiceError) -> ServiceError {
        match self.claim(ticket_state::RESOLVED) {
            Err(ticket_state::CANCELLED) => ServiceError::Cancelled,
            _ => err,
        }
    }

    fn deadline_expired(&self) -> bool {
        // A single tighten-only word that publishes no other data; Relaxed
        // suffices.
        let at = self.deadline.load(Ordering::Relaxed);
        at != u64::MAX && nanos(self.submitted.elapsed()) >= at
    }
}

/// Pending result of a submitted query: resolves exactly once, to a
/// [`QueryOutcome`] or a [`ServiceError`].
pub struct Ticket {
    rx: Receiver<Result<QueryOutcome, ServiceError>>,
    shared: Arc<TicketShared>,
}

impl Ticket {
    /// Requests cancellation. Returns `true` exactly when the query will
    /// never execute: it was still pending and this call claimed it, so
    /// the ticket resolves to [`ServiceError::Cancelled`] (a repeated
    /// cancel of an already-cancelled ticket also reports `true`). Returns
    /// `false` when it is too late for that guarantee — execution has
    /// started (the request flag is still set, and an executor that has
    /// not yet passed the prepare→execute checkpoint may still honor it),
    /// or the ticket already resolved another way (submission-time
    /// failure, expired deadline, delivered result).
    pub fn cancel(&self) -> bool {
        // Release pairs with the Acquire load at the executor's
        // prepare→execute checkpoint; the flag is documented best-effort,
        // the hard guarantee rides on the `claim` CAS below.
        self.shared.cancel_requested.store(true, Ordering::Release);
        match self.shared.claim(ticket_state::CANCELLED) {
            Ok(()) => true,
            Err(won) => won == ticket_state::CANCELLED,
        }
    }

    /// Whether an executor has started executing this query.
    pub fn started(&self) -> bool {
        // Pure single-variable predicate: no data is read on the strength
        // of the answer, so the CAS's own coherence order is enough.
        self.shared.state.load(Ordering::Relaxed) == ticket_state::STARTED
    }

    /// Whether admission control shed this query — `true` exactly when the
    /// ticket resolved to [`ServiceError::Overloaded`] at submission. Does
    /// not consume the result (unlike [`Ticket::try_wait`]), so retry
    /// loops can test it, back off, and resubmit without touching the
    /// channel.
    pub fn shed(&self) -> bool {
        // The flag is written before the ticket is handed back from
        // submit, on the same thread; Relaxed is enough for every later
        // read.
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Sets (or tightens — a later, looser deadline never relaxes an
    /// earlier one) the query's deadline, measured from **submission**. A
    /// query whose deadline has expired by the time an executor reaches it
    /// resolves to [`ServiceError::Deadline`] without running.
    pub fn deadline(self, after: Duration) -> Self {
        // Single-variable and tighten-only, like the reads; Relaxed suffices.
        self.shared
            .deadline
            .fetch_min(nanos(after), Ordering::Relaxed);
        self
    }

    /// The terminal error of a ticket whose reply channel died: a query
    /// this ticket successfully claimed as cancelled stays [`Cancelled`]
    /// even if the pool collapsed around it; anything else is the pool's
    /// fault.
    fn disconnected(&self) -> ServiceError {
        // Single-variable predicate on the state machine; the error value
        // it picks carries no data from the writer.
        if self.shared.state.load(Ordering::Relaxed) == ticket_state::CANCELLED {
            ServiceError::Cancelled
        } else {
            runtime_unavailable()
        }
    }

    /// Blocks until the query resolves. A query the service cannot deliver
    /// (executor panicked mid-run, pool dead or shut down) resolves to
    /// [`ServiceError::RuntimeUnavailable`].
    pub fn wait(self) -> Result<QueryOutcome, ServiceError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(self.disconnected()),
        }
    }

    /// Blocks for at most `timeout`. `Ok` carries the resolution; on
    /// timeout the ticket comes back as `Err(self)` so the caller can keep
    /// waiting — or [`Ticket::cancel`] it.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<QueryOutcome, ServiceError>, Ticket> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(result),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let err = self.disconnected();
                Ok(Err(err))
            }
        }
    }

    /// Non-blocking poll; `None` while the query is still pending. A dead
    /// query (executor panicked, pool shut down) yields
    /// `Some(Err(ServiceError::RuntimeUnavailable))`, not `None`, so
    /// pollers cannot spin forever on it.
    pub fn try_wait(&self) -> Option<Result<QueryOutcome, ServiceError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(self.disconnected())),
        }
    }

    /// A ticket resolved at submission, settled to `err` (see
    /// [`TicketShared::settle`]): the state moves to `RESOLVED`, so a
    /// later `cancel` truthfully reports it was too late to change the
    /// outcome.
    fn resolved(shared: Arc<TicketShared>, err: ServiceError) -> Ticket {
        let (reply, rx) = mpsc::channel();
        let _ = reply.send(Err(shared.settle(err)));
        Ticket { rx, shared }
    }
}

enum Task {
    Query {
        dataset: Arc<Dataset>,
        /// Boxed so a queued task stays small next to the dataless
        /// test-only `Poison` variant.
        request: Box<QueryRequest>,
        ticket: Arc<TicketShared>,
        reply: Sender<Result<QueryOutcome, ServiceError>>,
        /// Held while the query is in the system (queued or executing);
        /// dropping it releases the admission gauge and unpins the dataset.
        admission: AdmissionGuard,
    },
    /// Test-only: makes the executor that pops it panic, so tests can kill
    /// the pool and exercise the dead-runtime failure paths.
    #[cfg(test)]
    Poison,
}

/// RAII token of one admitted query: constructed at admission (after
/// `ServicePressure::try_admit` succeeded and the dataset's `pending` pin
/// was taken), dropped at terminal resolution. Because it rides inside
/// [`Task::Query`], a task dropped without executing — a collapsing pool
/// tearing down its queue, or a submission the pool can no longer take —
/// still balances the gauge and the pin.
struct AdmissionGuard {
    shared: Arc<Shared>,
    dataset: Arc<Dataset>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        // Both are freestanding counters consumed by single-variable
        // predicates (the quota sweep's pin check, the admission bound);
        // RMW atomicity alone keeps them exact, so Relaxed suffices.
        self.dataset.pending.fetch_sub(1, Ordering::Relaxed);
        self.shared.pressure.release();
    }
}

/// State shared between the [`Service`], its executors, and every
/// [`DatasetHandle`].
struct Shared {
    /// `None` after shutdown; handles then resolve submissions to
    /// [`ServiceError::RuntimeUnavailable`].
    // dlra-lock-order: service.queue
    queue: RwLock<Option<Sender<Task>>>,
    // dlra-lock-order: service.datasets
    datasets: RwLock<HashMap<String, Arc<Dataset>>>,
    next_dataset_id: AtomicU64,
    plan_cache: usize,
    /// Whether per-dataset metrics registries are maintained.
    metrics: bool,
    /// The substrate every query runs on.
    substrate: Substrate,
    /// The collective routing topology every query runs with.
    topology: Topology,
    /// Executor threads the pool started with; each query's kernel budget
    /// is the process's kernel threads divided by it.
    executors: usize,
    /// Live pressure state: the admission gauge, resident-byte total, and
    /// shed/quota-eviction counters. Always maintained (even with the
    /// metrics registry off) — admission control and the quota sweep read
    /// it to make decisions, not just to report.
    pressure: ServicePressure,
    /// Monotonic logical LRU clock: bumped at every admission and
    /// load/reload, never read from wall time, so ticks are unique and the
    /// quota sweep's minimum is a deterministic victim for a given
    /// operation interleaving.
    lru_tick: AtomicU64,
    /// Admission bound ([`ServiceConfig::max_queue_depth`]), widened for
    /// the gauge.
    max_queue_depth: Option<u64>,
    /// Resident-byte budget ([`ServiceConfig::memory_budget`]).
    memory_budget: Option<u64>,
}

/// A multi-dataset serving front door: named copy-on-write resident
/// datasets, a shared executor pool, per-dataset plan caches, typed
/// queries, tickets with cancellation and deadlines.
///
/// ```
/// use dlra_core::prelude::*;
/// use dlra_runtime::{Query, Service, ServiceConfig};
/// use dlra_linalg::Matrix;
/// use dlra_util::Rng;
///
/// let mut rng = Rng::new(3);
/// let tenant_a: Vec<Matrix> = (0..3).map(|_| Matrix::gaussian(80, 12, &mut rng)).collect();
/// let tenant_b: Vec<Matrix> = (0..2).map(|_| Matrix::gaussian(60, 8, &mut rng)).collect();
///
/// let service = Service::new(ServiceConfig::default());
/// let a = service.load("tenant-a", tenant_a).unwrap();
/// let b = service.load("tenant-b", tenant_b).unwrap();
///
/// // Interleaved queries against both datasets, concurrently in flight.
/// let qa = Query::rank(2).samples(25).sampler(SamplerKind::Uniform).build().unwrap();
/// let qb = Query::rank(3).samples(30).sampler(SamplerKind::Uniform).build().unwrap();
/// let ta = a.submit(&qa);
/// let tb = b.submit(&qb);
/// assert_eq!(ta.wait().unwrap().output.projection.dim(), 12);
/// assert_eq!(tb.wait().unwrap().output.projection.dim(), 8);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
    started: Instant,
}

impl Service {
    /// Starts the executor pool. Datasets are loaded afterwards with
    /// [`Service::load`].
    pub fn new(config: ServiceConfig) -> Self {
        let (queue, tasks) = mpsc::channel::<Task>();
        let total = config.executors.max(1);
        let shared = Arc::new(Shared {
            queue: RwLock::new(Some(queue)),
            datasets: RwLock::new(HashMap::new()),
            next_dataset_id: AtomicU64::new(0),
            plan_cache: config.plan_cache,
            metrics: config.metrics,
            substrate: config.substrate,
            topology: config.topology,
            executors: total,
            pressure: ServicePressure::new(),
            lru_tick: AtomicU64::new(0),
            max_queue_depth: config.max_queue_depth.map(|n| n as u64),
            memory_budget: config.memory_budget,
        });
        if config.metrics {
            // Process-global (the kernel profile counters are too): a
            // metrics-enabled service turns the pool profile on so its
            // snapshots carry busy/wall nanos and section counts. Cost
            // when on is two clock reads per kernel section and two per
            // panel.
            dlra_linalg::set_pool_profiling(true);
        }
        let tasks = Arc::new(Mutex::new(tasks));
        let executors = (0..total)
            .map(|i| {
                let tasks = Arc::clone(&tasks);
                let shared = Arc::clone(&shared);
                // dlra-allow(thread-discipline): the service executor pool
                // is itself a sanctioned long-lived pool — workers are
                // created once per Service and joined in shutdown().
                std::thread::Builder::new()
                    .name(format!("dlra-executor-{i}"))
                    .spawn(move || executor_loop(&shared, &tasks))
                    // dlra-allow(panic-policy): spawn fails only on OS
                    // thread exhaustion at Service construction, before any
                    // query exists to resolve to a typed error.
                    .expect("spawn service executor thread")
            })
            .collect();
        Service {
            shared,
            executors,
            started: Instant::now(),
        }
    }

    /// Makes `locals` (one matrix per server) resident under `name` and
    /// returns its handle. Loading shares the caller's matrix storage
    /// copy-on-write — no entry data is copied here or at query dispatch.
    /// Fails with [`ServiceError::DatasetExists`] if the name is taken
    /// (use [`Service::reload`] to swap data under a live name).
    pub fn load(&self, name: &str, locals: Vec<Matrix>) -> Result<DatasetHandle, ServiceError> {
        let shape = validate_locals(&locals)?;
        let bytes = locals_bytes(&locals);
        let mut datasets = self.shared.datasets.write_recover();
        if datasets.contains_key(name) {
            return Err(ServiceError::DatasetExists(name.to_string()));
        }
        // Fresh tick: a just-loaded dataset is the most recently used, so a
        // budget sweep triggered by this very load prefers older tenants.
        // Tick mint: uniqueness + monotonicity come from RMW atomicity.
        let tick = self.shared.lru_tick.fetch_add(1, Ordering::Relaxed) + 1;
        let dataset = Arc::new(Dataset {
            // Id mint: uniqueness is all that matters, and RMW atomicity
            // alone provides it.
            id: self.shared.next_dataset_id.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            resident: RwLock::new(Resident {
                locals: Arc::new(locals),
                epoch: 0,
                shape,
            }),
            planner: (self.shared.plan_cache > 0)
                .then(|| Arc::new(PlanCache::new(self.shared.plan_cache))),
            metrics: self.shared.metrics.then(|| Arc::new(DatasetMetrics::new())),
            evicted: AtomicBool::new(false),
            bytes: AtomicU64::new(bytes),
            last_used: AtomicU64::new(tick),
            pending: AtomicU64::new(0),
        });
        self.shared.pressure.add_resident_bytes(bytes);
        datasets.insert(name.to_string(), Arc::clone(&dataset));
        // The newcomer is protected: a load larger than the whole budget
        // keeps the requested data resident (over budget) rather than
        // evict what the caller just asked for.
        enforce_budget(&self.shared, &mut datasets, Some(dataset.id));
        Ok(DatasetHandle {
            shared: Arc::clone(&self.shared),
            dataset,
        })
    }

    /// Replaces `name`'s resident payload and bumps **its** residency
    /// epoch: in-flight queries finish against the payload they dispatched
    /// with (their models hold handle clones), subsequent queries see the
    /// new data, and every cached plan from the dataset's previous epoch
    /// is dropped — from this dataset's cache partition only; every other
    /// dataset's plans stay live.
    pub fn reload(&self, name: &str, locals: Vec<Matrix>) -> Result<(), ServiceError> {
        let shape = validate_locals(&locals)?;
        let new_bytes = locals_bytes(&locals);
        // Write lock (was read): the byte-accounting swap and the budget
        // sweep below must be atomic with respect to concurrent
        // load/reload/evict, or two reloads could both pick the same
        // victim's bytes to reclaim.
        let mut datasets = self.shared.datasets.write_recover();
        let dataset = datasets
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))?;
        let epoch = {
            let mut resident = dataset.resident.write_recover();
            resident.locals = Arc::new(locals);
            resident.epoch += 1;
            resident.shape = shape;
            resident.epoch
        };
        if let Some(planner) = &dataset.planner {
            planner.retain_epoch(epoch);
        }
        // Byte accounting: `swap` claims the old payload's bytes exactly
        // once, so a racing evict can never double-subtract.
        let old_bytes = dataset.bytes.swap(new_bytes, Ordering::Relaxed);
        self.shared.pressure.sub_resident_bytes(old_bytes);
        self.shared.pressure.add_resident_bytes(new_bytes);
        // Tick mint: uniqueness + monotonicity come from RMW atomicity.
        let tick = self.shared.lru_tick.fetch_add(1, Ordering::Relaxed) + 1;
        dataset.last_used.store(tick, Ordering::Relaxed);
        enforce_budget(&self.shared, &mut datasets, Some(dataset.id));
        Ok(())
    }

    /// Evicts `name`: the dataset leaves the registry, queued-but-unstarted
    /// queries addressed to it resolve to [`ServiceError::DatasetEvicted`],
    /// queries already executing finish against the payload they hold, and
    /// its plan-cache partition is purged. Other datasets are untouched.
    /// The name becomes immediately available for a fresh [`Service::load`]
    /// (with a new dataset id — stale handles keep reporting eviction).
    pub fn evict(&self, name: &str) -> Result<(), ServiceError> {
        let mut datasets = self.shared.datasets.write_recover();
        retire(&self.shared, &mut datasets, name)
            .map(drop)
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// The handle of a resident dataset, or `None`.
    pub fn dataset(&self, name: &str) -> Option<DatasetHandle> {
        self.shared
            .datasets
            .read_recover()
            .get(name)
            .map(|dataset| DatasetHandle {
                shared: Arc::clone(&self.shared),
                dataset: Arc::clone(dataset),
            })
    }

    /// Names of every resident dataset (unordered).
    pub fn dataset_names(&self) -> Vec<String> {
        self.shared
            .datasets
            .read_recover()
            .keys()
            .cloned()
            .collect()
    }

    /// The substrate queries run on.
    pub fn substrate(&self) -> Substrate {
        self.shared.substrate
    }

    /// The collective routing topology queries run with.
    pub fn topology(&self) -> Topology {
        self.shared.topology
    }

    /// Number of executor threads.
    pub fn executors(&self) -> usize {
        self.executors.len()
    }

    /// Live pressure state: admitted-but-unresolved queries, resident
    /// payload bytes, shed and quota-eviction totals, plus the configured
    /// bounds. Always available — even with the metrics registry disabled,
    /// admission control and quota accounting run unconditionally.
    pub fn pressure(&self) -> PressureSnapshot {
        self.shared
            .pressure
            .snapshot(self.shared.max_queue_depth, self.shared.memory_budget)
    }

    /// A point-in-time metrics snapshot — one entry per resident dataset
    /// (in load order) with outcome counters, queue/in-flight gauges,
    /// resident bytes, latency and phase histograms, word-exact
    /// communication totals, and plan-cache counters — plus the kernel
    /// pool's thread count, parallelism watermark, and profiling
    /// accumulators. `None` when the registry is disabled
    /// (`ServiceConfig::metrics = false`).
    ///
    /// Export with [`MetricsSnapshot::to_json`],
    /// [`MetricsSnapshot::to_prometheus`], or `Display`.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        if !self.shared.metrics {
            return None;
        }
        let mut residents: Vec<Arc<Dataset>> = self
            .shared
            .datasets
            .read_recover()
            .values()
            .cloned()
            .collect();
        // Dataset ids count up from 0 at load, so this is load order —
        // deterministic, unlike HashMap iteration.
        residents.sort_by_key(|dataset| dataset.id);
        let datasets = residents
            .iter()
            .filter_map(|dataset| {
                let registry = dataset.metrics.as_ref()?;
                let mut snap = registry.snapshot();
                snap.name = dataset.name.clone();
                snap.resident_bytes = dataset.bytes.load(Ordering::Relaxed);
                snap.plan_cache = dataset.planner.as_ref().map(|planner| planner.stats());
                let plans = snap.plan_cache.unwrap_or_default();
                snap.plan_hits = plans.hits;
                snap.plan_misses = plans.misses;
                Some(snap)
            })
            .collect();
        let profile = dlra_linalg::pool_profile();
        Some(MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            executors: self.executors.len(),
            kernel: KernelPoolSnapshot {
                threads: dlra_linalg::threads(),
                watermark: dlra_linalg::parallelism_watermark(),
                parallel_sections: profile.parallel_sections,
                inline_sections: profile.inline_sections,
                busy_nanos: profile.busy_nanos,
                wall_nanos: profile.wall_nanos,
            },
            pressure: self.pressure(),
            datasets,
        })
    }

    /// Stops the executor pool gracefully: already-queued and in-flight
    /// queries complete and deliver their results, then the executors are
    /// joined. Subsequent submissions resolve to
    /// [`ServiceError::RuntimeUnavailable`]. Idempotent; `Drop` runs the
    /// same path.
    pub fn shutdown(&mut self) {
        self.shared.queue.write_recover().take();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        // Queries can no longer record events; persist what they did.
        trace::flush();
    }

    /// Test-only: kills the whole executor pool (one poison task per
    /// executor, joined so the death is fully observable) to exercise the
    /// dead-pool failure paths.
    #[cfg(test)]
    pub(crate) fn poison_executors(&mut self) {
        let n = self.executors.len();
        if let Some(queue) = self.shared.queue.read_recover().as_ref() {
            for _ in 0..n {
                queue.send(Task::Poison).expect("pool already dead");
            }
        }
        for handle in self.executors.drain(..) {
            assert!(handle.join().is_err(), "executor should have panicked");
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cheap, cloneable handle to one resident dataset of a [`Service`]. The
/// handle pins the dataset **identity** (not just the name): after an
/// evict-then-load under the same name, stale handles keep resolving to
/// [`ServiceError::DatasetEvicted`] instead of silently answering from a
/// stranger's data.
#[derive(Clone)]
pub struct DatasetHandle {
    shared: Arc<Shared>,
    dataset: Arc<Dataset>,
}

impl DatasetHandle {
    /// Submits a typed query; returns immediately with its [`Ticket`].
    ///
    /// Never panics and never blocks on execution: submission-time
    /// failures (evicted dataset, `k` exceeding the dataset's column
    /// count, a shed, dead pool) come back through the ticket, typed.
    pub fn submit(&self, query: &Query) -> Ticket {
        let ticket = Arc::new(TicketShared::new(query.deadline));
        let d = self.dataset.resident.read_recover().shape.1;
        let k = query.request.cfg.k;
        if k > d {
            let err = QueryError::RankExceedsDimension { k, d };
            return self.reject(ticket, ServiceError::InvalidQuery(err));
        }
        // Acquire pairs with the Release store in `retire`.
        if self.dataset.evicted.load(Ordering::Acquire) {
            let dataset = self.dataset.name.clone();
            return self.reject(ticket, ServiceError::DatasetEvicted { dataset });
        }
        // Admission decision: one atomic bound-check-and-increment, no
        // locks, no clocks — a shed submission resolves here in O(µs)
        // without reaching the queue.
        if let Err(queue_depth) = self.shared.pressure.try_admit(self.shared.max_queue_depth) {
            // Written before the ticket is handed back, on this thread;
            // Relaxed is enough for every later `Ticket::shed` read.
            ticket.shed.store(true, Ordering::Relaxed);
            // `try_admit` only fails when a bound is configured.
            let limit = self.shared.max_queue_depth.unwrap_or(0);
            return self.reject(ticket, ServiceError::Overloaded { queue_depth, limit });
        }
        // Admitted: pin the dataset against quota eviction and mark it
        // most-recently-used before the guard exists, so the guard's drop
        // is the sole release path from here on.
        // Pin + tick are freestanding counters read by single-variable
        // predicates; Relaxed suffices.
        self.dataset.pending.fetch_add(1, Ordering::Relaxed);
        let tick = self.shared.lru_tick.fetch_add(1, Ordering::Relaxed) + 1;
        self.dataset.last_used.store(tick, Ordering::Relaxed);
        let (reply, rx) = mpsc::channel();
        let task = Task::Query {
            dataset: Arc::clone(&self.dataset),
            request: Box::new(query.request.clone()),
            ticket: Arc::clone(&ticket),
            reply,
            admission: AdmissionGuard {
                shared: Arc::clone(&self.shared),
                dataset: Arc::clone(&self.dataset),
            },
        };
        let queued = match self.shared.queue.read_recover().as_ref() {
            Some(queue) => queue.send(task).is_ok(),
            None => false,
        };
        if !queued {
            // Shut down, or every executor exited (the pop side of the
            // queue is gone): the ticket still resolves, and the unsent
            // task releases its admission when it drops.
            return self.reject(ticket, runtime_unavailable());
        }
        // Counted only once actually enqueued: the matching
        // `query_dequeued` runs when an executor pops it (shutdown drains
        // the queue, so every enqueued task is eventually popped).
        if let Some(m) = self.dataset.metrics.as_deref() {
            m.query_submitted();
        }
        let args = [("qid", ticket.query_id), ("dataset", self.dataset.id)];
        trace::instant("query", "query.submit", &args);
        Ticket { rx, shared: ticket }
    }

    /// Resolves a submission that never reaches an executor: recorded,
    /// then settled.
    fn reject(&self, ticket: Arc<TicketShared>, err: ServiceError) -> Ticket {
        record_resolution(&self.dataset, &ticket, false, Err(&err));
        Ticket::resolved(ticket, err)
    }

    /// The name this dataset is resident under.
    pub fn name(&self) -> &str {
        &self.dataset.name
    }

    /// Global data shape `(n, d)`.
    pub fn shape(&self) -> (usize, usize) {
        self.dataset.resident.read_recover().shape
    }

    /// Number of servers holding this dataset.
    pub fn num_servers(&self) -> usize {
        self.dataset.resident.read_recover().locals.len()
    }

    /// The dataset's residency epoch (0 at load, +1 per reload).
    pub fn epoch(&self) -> u64 {
        self.dataset.resident.read_recover().epoch
    }

    /// Whether the dataset has been evicted.
    pub fn is_evicted(&self) -> bool {
        // Acquire pairs with the Release store in `retire`.
        self.dataset.evicted.load(Ordering::Acquire)
    }

    /// The resident per-server matrices (evaluation and testing; queries
    /// run against shared clones of these, never against copies).
    pub fn resident(&self) -> Arc<Vec<Matrix>> {
        Arc::clone(&self.dataset.resident.read_recover().locals)
    }

    /// This dataset's plan-cache counters, or `None` when planning is
    /// disabled. Private per dataset: another tenant's reload or eviction
    /// never moves these numbers.
    pub fn plan_stats(&self) -> Option<PlanCacheStats> {
        self.dataset.planner.as_ref().map(|p| p.stats())
    }

    /// Number of plans currently cached for this dataset (0 when planning
    /// is disabled).
    pub fn plan_cache_len(&self) -> usize {
        self.dataset.planner.as_ref().map_or(0, |p| p.len())
    }
}

/// Bytes of payload a `locals` vector keeps resident: Σ rows·cols·8 over
/// servers. Matrices are Arc-backed `f64` storage, so this is the cost of
/// what the service keeps alive — copy-on-write query dispatch never
/// multiplies it.
fn locals_bytes(locals: &[Matrix]) -> u64 {
    locals
        .iter()
        .map(|m| {
            let (n, d) = m.shape();
            (n as u64) * (d as u64) * 8
        })
        .sum()
}

/// Takes `name` out of residency, for [`Service::evict`] and the quota
/// sweep alike: the dataset leaves the registry and is flagged evicted
/// (queued queries addressed to it resolve to
/// [`ServiceError::DatasetEvicted`], executing ones finish against the
/// payload they hold), its plan-cache partition is purged, and its bytes
/// leave the resident total. `None` when no dataset has that name.
fn retire(
    shared: &Shared,
    datasets: &mut HashMap<String, Arc<Dataset>>,
    name: &str,
) -> Option<Arc<Dataset>> {
    let dataset = datasets.remove(name)?;
    // Release pairs with the Acquire loads at submission and at the
    // executor's gates: a thread that sees the flag also sees the removal.
    dataset.evicted.store(true, Ordering::Release);
    if let Some(planner) = &dataset.planner {
        // No key can ever carry this epoch (epochs count up from 0), so
        // every settled plan drops; a preparation still in flight delivers
        // to its waiters but is never re-cached (the executor's
        // post-execution sweep re-runs retain against the evicted flag).
        planner.retain_epoch(u64::MAX);
    }
    // `swap` leaves 0 behind, so the bytes are released exactly once.
    let bytes = dataset.bytes.swap(0, Ordering::Relaxed);
    shared.pressure.sub_resident_bytes(bytes);
    Some(dataset)
}

/// The quota sweep: while the resident total exceeds the budget, evict the
/// least-recently-dispatched dataset that is neither pinned (admitted
/// queries in flight — their plans and payloads must stay live) nor
/// `protect` (the dataset whose load/reload triggered the sweep). Runs
/// under the `datasets` write lock, so sweeps serialize and the victim —
/// the minimum over unique monotonic ticks — is deterministic for a given
/// operation interleaving. Best-effort: when every candidate is pinned or
/// protected the service stays over budget rather than evict under a live
/// query.
fn enforce_budget(
    shared: &Shared,
    datasets: &mut HashMap<String, Arc<Dataset>>,
    protect: Option<u64>,
) {
    let Some(budget) = shared.memory_budget else {
        return;
    };
    while shared.pressure.resident_bytes() > budget {
        let victim = datasets
            .values()
            .filter(|d| Some(d.id) != protect)
            // Pin check: `pending` is incremented at admission, before the
            // task enters the queue, and held until terminal resolution.
            // Single-variable predicate; Relaxed suffices.
            .filter(|d| d.pending.load(Ordering::Relaxed) == 0)
            // Ticks are unique (one mint), so min_by_key has no ties and
            // the choice never depends on HashMap iteration order.
            .min_by_key(|d| d.last_used.load(Ordering::Relaxed))
            .map(|d| d.name.clone());
        let Some(dataset) = victim.and_then(|name| retire(shared, datasets, &name)) else {
            break;
        };
        shared.pressure.record_pressure_eviction();
        trace::instant("service", "dataset.quota_evict", &[("dataset", dataset.id)]);
    }
}

fn validate_locals(locals: &[Matrix]) -> Result<(usize, usize), ServiceError> {
    if locals.is_empty() {
        return Err(ServiceError::InvalidDataset("no servers".into()));
    }
    let (n, d) = locals[0].shape();
    if n == 0 || d == 0 {
        return Err(ServiceError::InvalidDataset(format!(
            "empty matrices {n}x{d}"
        )));
    }
    if let Some((t, m)) = locals.iter().enumerate().find(|(_, m)| m.shape() != (n, d)) {
        return Err(ServiceError::InvalidDataset(format!(
            "server {t} has shape {:?}, expected ({n}, {d})",
            m.shape()
        )));
    }
    // A NaN or ±∞ share entry poisons every sketch and sum it reaches.
    for (t, m) in locals.iter().enumerate() {
        if let Some(i) = m.as_slice().iter().position(|x| !x.is_finite()) {
            return Err(ServiceError::InvalidDataset(format!(
                "server {t} entry ({}, {}) is {}; entries must be finite",
                i / d,
                i % d,
                m.as_slice()[i]
            )));
        }
    }
    Ok((n, d))
}

fn executor_loop(shared: &Shared, tasks: &Mutex<Receiver<Task>>) {
    loop {
        // Hold the queue lock only for the pop, not the run.
        let popped = tasks.lock_recover().recv();
        match popped {
            Ok(Task::Query {
                dataset,
                request,
                ticket,
                reply,
                admission,
            }) => {
                let result = run_query(shared, &dataset, &request, &ticket);
                // Execution is over: release the admission (and the pin)
                // *before* delivering, so a caller returning from `wait`
                // observes the gauge already decremented — the channel's
                // own synchronization orders the release before the recv.
                drop(admission);
                // The caller may have dropped its ticket; that's fine, the
                // result is discarded.
                let _ = reply.send(result);
            }
            #[cfg(test)]
            Ok(Task::Poison) => panic!("poison task (test-only)"),
            Err(_) => break,
        }
    }
}

/// Runs one popped query to its resolution: the deadline, eviction and
/// cancel gates, the kernel budget, the substrate, the execution, and the
/// outcome record.
fn run_query(
    shared: &Shared,
    dataset: &Dataset,
    request: &QueryRequest,
    ticket: &TicketShared,
) -> Result<QueryOutcome, ServiceError> {
    let metrics = dataset.metrics.as_deref();
    if let Some(m) = metrics {
        m.query_dequeued();
    }
    let args = [("qid", ticket.query_id), ("dataset", dataset.id)];
    trace::complete_since("query", "query.queue", ticket.submitted, &args);
    let run_span = trace::span("query", "query.run")
        .arg("qid", ticket.query_id)
        .arg("dataset", dataset.id);
    // Terminal gates first: a deadline or eviction settles the ticket
    // without ever claiming it as started. Settling is itself a claim out
    // of PENDING, so a concurrent `cancel` cannot be told "the query was
    // dropped" while a different outcome is delivered — whoever wins the
    // compare-exchange names the outcome. The eviction flag's Acquire
    // pairs with the Release store in `retire`.
    let result = if ticket.deadline_expired() {
        Err(ticket.settle(ServiceError::Deadline))
    } else if dataset.evicted.load(Ordering::Acquire) {
        let name = dataset.name.clone();
        Err(ticket.settle(ServiceError::DatasetEvicted { dataset: name }))
    } else if ticket.claim(ticket_state::STARTED).is_err() {
        // A cancel got there first: `cancel()` returned true, so the query
        // must never run.
        Err(ServiceError::Cancelled)
    } else {
        // Only a query that claimed STARTED counts as executing.
        if let Some(m) = metrics {
            m.query_started();
        }
        // O(s) handle clones of the shared payload: each `Matrix` clone
        // bumps a refcount, no entry data moves.
        let (parts, epoch) = {
            let resident = dataset.resident.read_recover();
            (resident.locals.to_vec(), resident.epoch)
        };
        let topology = shared.topology;
        // Executor-layer kernel budgeting: the parallel kernels of the
        // coordinator (the transposes around the reduction of B, and the
        // matrix products; the reduction's Householder loop and Jacobi
        // sweeps run on this thread) share the process kernel-thread
        // budget across executors instead of each claiming all of it.
        // Thread counts never change bits, so this is invisible to the
        // equivalence suites. The budget is read outside the override so
        // `set_threads` changes are picked up per query.
        let budget = (dlra_linalg::threads() / shared.executors).max(1);
        let result = dlra_linalg::with_threads(budget, || match shared.substrate {
            Substrate::Sequential => execute_on(parts, epoch, dataset, request, ticket, |l| {
                dlra_comm::Cluster::with_topology(l, topology)
            }),
            Substrate::Threaded => execute_on(parts, epoch, dataset, request, ticket, |l| {
                dlra_net::ThreadedCluster::with_topology(l, topology)
            }),
            Substrate::Socket => execute_on(parts, epoch, dataset, request, ticket, |l| {
                dlra_net::SocketCluster::with_topology(l, topology)
            }),
        });
        // A reload (or eviction) may have landed between our epoch
        // snapshot and any plan this query inserted: its `retain_epoch`
        // ran before the insertion, so sweep again against the *current*
        // state. The query's own result is untouched (it correctly
        // answered against the data it dispatched with); this only stops
        // a dead-epoch plan from squatting in an LRU slot until capacity
        // pressure evicts it.
        if let Some(cache) = dataset.planner.as_deref() {
            // Acquire pairs with the Release store in `retire`.
            if dataset.evicted.load(Ordering::Acquire) {
                cache.retain_epoch(u64::MAX);
            } else {
                let now = dataset.resident.read_recover().epoch;
                if now != epoch {
                    cache.retain_epoch(now);
                }
            }
        }
        if let Some(m) = metrics {
            m.query_finished();
        }
        result
    };
    drop(run_span);
    record_resolution(dataset, ticket, true, result.as_ref());
    result
}

/// Counts a resolution in the dataset's metrics and marks it in the trace:
/// the one map from outcome to counter and instant, for resolutions at
/// submission (`popped == false`: rejections and sheds) and in an
/// executor alike.
fn record_resolution(
    dataset: &Dataset,
    ticket: &TicketShared,
    popped: bool,
    result: Result<&QueryOutcome, &ServiceError>,
) {
    use DatasetMetrics as M;
    use ServiceError as E;
    let metrics = dataset.metrics.as_deref();
    let (count, name): (fn(&M), &str) = match (result, popped) {
        (Ok(outcome), _) => {
            if let Some(m) = metrics {
                let latency = ticket.submitted.elapsed().as_micros() as u64;
                m.query_completed(latency, &outcome.output.comm);
            }
            (|_| {}, "query.complete")
        }
        (Err(E::Overloaded { .. }), _) => (M::query_rejected_overload, "query.shed"),
        (Err(_), false) => (M::query_rejected, "query.reject"),
        (Err(E::Cancelled), true) => (M::query_cancelled, "query.cancelled"),
        (Err(E::Deadline), true) => (M::query_expired, "query.deadline"),
        (Err(E::DatasetEvicted { .. }), true) => (M::query_rejected, "query.evicted"),
        (Err(_), true) => (M::query_failed, "query.failed"),
    };
    if let Some(m) = metrics {
        count(m);
    }
    let args = [("qid", ticket.query_id), ("dataset", dataset.id)];
    trace::instant("query", name, &args);
}

/// The stop signal an executing query polls between protocol phases:
/// cancellation wins over an expired deadline, and `None` means "keep
/// going". Acquire pairs with the Release store in [`Ticket::cancel`].
fn interrupt_reason(ticket: &TicketShared) -> Option<InterruptReason> {
    if ticket.cancel_requested.load(Ordering::Acquire) {
        Some(InterruptReason::Cancelled)
    } else if ticket.deadline_expired() {
        Some(InterruptReason::Deadline)
    } else {
        None
    }
}

/// Builds the query's private model over `parts` (the dataset's payload at
/// `epoch`) on the cluster `cluster` constructs, and runs it — from the
/// dataset's shared plan when the query is eligible — inside one
/// `query.execute` span and one execute record, planned or not. The
/// model's query-local scratch (injected coordinates, residual views) is
/// freshly allocated per query.
fn execute_on<C: Collectives<MatrixServer>>(
    parts: Vec<Matrix>,
    epoch: u64,
    dataset: &Dataset,
    request: &QueryRequest,
    ticket: &TicketShared,
    cluster: impl FnOnce(Vec<MatrixServer>) -> C,
) -> Result<QueryOutcome, ServiceError> {
    let model =
        &mut PartitionModel::with_substrate(parts, request.f, cluster).map_err(map_execution)?;
    let metrics = dataset.metrics.as_deref();
    let plan = match (dataset.planner.as_deref(), &request.cfg.sampler) {
        (Some(cache), SamplerKind::Z(params)) if request.plannable(model.shape().1) => {
            let key = PlanKey::new(dataset.id, &request.f, params, request.cfg.seed, epoch);
            let start = metrics.map(|_| Instant::now());
            let lookup_span = trace::span("plan", "plan.lookup").arg("qid", ticket.query_id);
            let (plan, cache_hit) = cache
                .get_or_prepare(&key, || prepare_z_plan(model, params, request.cfg.seed))
                .map_err(map_execution)?;
            drop(lookup_span.arg("hit", cache_hit as u64));
            if let (Some(m), Some(start)) = (metrics, start) {
                let micros = start.elapsed().as_micros() as u64;
                // Only a physically-paid preparation charges its ledger
                // delta to `prepare_comm`; a hit's share is already there.
                m.record_prepare(micros, (!cache_hit).then_some(&plan.prepare_comm));
            }
            // The drop-before-execute checkpoint: the (possibly shared)
            // preparation stays cached for other queries either way, but a
            // cancelled or expired query pays no draw/fetch phase.
            if let Some(reason) = interrupt_reason(ticket) {
                return Err(map_execution(CoreError::Interrupted(reason)));
            }
            Some((plan, cache_hit))
        }
        _ => None,
    };
    let interrupt = || interrupt_reason(ticket);
    let start = metrics.map(|_| Instant::now());
    let span = trace::span("query", "query.execute").arg("qid", ticket.query_id);
    let mut output = match &plan {
        Some((plan, _)) => {
            run_algorithm1_with_plan_interruptible(model, &request.cfg, plan, &interrupt)
        }
        None => run_algorithm1_interruptible(model, &request.cfg, &interrupt),
    }
    .map_err(map_execution)?;
    drop(span);
    if let (Some(m), Some(start)) = (metrics, start) {
        let micros = start.elapsed().as_micros() as u64;
        // A planned run's delta is pre-fold: the draw/fetch phase only.
        m.record_execute(micros, &output.comm);
    }
    let plan = plan.map(|(plan, cache_hit)| {
        // Per-query accounting stays identical to an unplanned run: the
        // preparation delta is deterministic, so prepare + execute is
        // exactly what this query would have charged alone.
        output.comm = plan.prepare_comm + output.comm;
        PlanUse {
            prepare_comm: plan.prepare_comm,
            cache_hit,
        }
    });
    Ok(QueryOutcome { output, plan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_util::Rng;

    fn locals(s: usize, n: usize, d: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::new(seed);
        (0..s).map(|_| Matrix::gaussian(n, d, &mut rng)).collect()
    }

    fn config(executors: usize, plan_cache: usize) -> ServiceConfig {
        ServiceConfig {
            executors,
            substrate: Substrate::Sequential,
            plan_cache,
            metrics: true,
            topology: Topology::Star,
            max_queue_depth: None,
            memory_budget: None,
        }
    }

    fn uniform_query(k: usize, r: usize, seed: u64) -> Query {
        Query::rank(k)
            .samples(r)
            .sampler(SamplerKind::Uniform)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn load_validates_and_rejects_duplicates() {
        let service = Service::new(config(1, 0));
        assert!(matches!(
            service.load("a", vec![]),
            Err(ServiceError::InvalidDataset(_))
        ));
        let mixed = vec![Matrix::zeros(3, 2), Matrix::zeros(2, 2)];
        assert!(matches!(
            service.load("a", mixed),
            Err(ServiceError::InvalidDataset(_))
        ));
        service.load("a", locals(2, 10, 4, 1)).unwrap();
        assert!(matches!(
            service.load("a", locals(2, 10, 4, 2)),
            Err(ServiceError::DatasetExists(_))
        ));
        assert!(matches!(
            service.reload("b", locals(2, 10, 4, 2)),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.evict("b"),
            Err(ServiceError::UnknownDataset(_))
        ));
    }

    #[test]
    fn rank_exceeding_dimension_resolves_eagerly() {
        let service = Service::new(config(1, 0));
        let handle = service.load("a", locals(2, 10, 4, 1)).unwrap();
        let ticket = handle.submit(&uniform_query(5, 10, 1));
        assert!(matches!(
            ticket.wait(),
            Err(ServiceError::InvalidQuery(
                QueryError::RankExceedsDimension { k: 5, d: 4 }
            ))
        ));
    }

    #[test]
    fn evicted_handle_reports_eviction_even_after_name_reuse() {
        let service = Service::new(config(1, 0));
        let old = service.load("a", locals(2, 10, 4, 1)).unwrap();
        service.evict("a").unwrap();
        assert!(old.is_evicted());
        assert!(matches!(
            old.submit(&uniform_query(2, 5, 1)).wait(),
            Err(ServiceError::DatasetEvicted { dataset }) if dataset == "a"
        ));
        // The name is free again; the stale handle stays evicted.
        let fresh = service.load("a", locals(2, 12, 4, 2)).unwrap();
        assert!(!fresh.is_evicted());
        assert!(old.is_evicted());
        assert!(fresh.submit(&uniform_query(2, 5, 1)).wait().is_ok());
    }

    #[test]
    fn shutdown_resolves_tickets_as_runtime_unavailable() {
        let mut service = Service::new(config(2, 0));
        let handle = service.load("a", locals(2, 12, 4, 7)).unwrap();
        let queued = handle.submit(&uniform_query(2, 6, 1));
        service.shutdown();
        assert!(queued.wait().is_ok(), "shutdown must drain queued work");
        let late = handle.submit(&uniform_query(2, 6, 2));
        assert!(matches!(
            late.try_wait(),
            Some(Err(ServiceError::RuntimeUnavailable(_)))
        ));
        service.shutdown(); // idempotent
    }

    #[test]
    fn error_classification_covers_every_variant() {
        use dlra_core::CoreError;
        // (variant, is_retryable, is_caller_error) — all ten variants, so a
        // new one must be classified here before it compiles into clients.
        let cases: Vec<(ServiceError, bool, bool)> = vec![
            (
                ServiceError::InvalidQuery(QueryError::Rejected("bad".into())),
                false,
                true,
            ),
            (
                ServiceError::DatasetEvicted {
                    dataset: "a".into(),
                },
                false,
                true,
            ),
            (ServiceError::UnknownDataset("a".into()), false, true),
            (ServiceError::DatasetExists("a".into()), false, true),
            (ServiceError::InvalidDataset("empty".into()), false, true),
            (ServiceError::Deadline, true, false),
            (ServiceError::Cancelled, false, true),
            (
                ServiceError::Overloaded {
                    queue_depth: 9,
                    limit: 8,
                },
                true,
                false,
            ),
            (
                ServiceError::RuntimeUnavailable("pool gone".into()),
                true,
                false,
            ),
            (
                ServiceError::Execution(CoreError::InvalidConfig("mid-run".into())),
                false,
                false,
            ),
        ];
        for (err, retryable, caller) in &cases {
            assert_eq!(err.is_retryable(), *retryable, "{err}");
            assert_eq!(err.is_caller_error(), *caller, "{err}");
            // The sets are documented disjoint.
            assert!(
                !(err.is_retryable() && err.is_caller_error()),
                "classifications overlap for {err}"
            );
        }
    }

    #[test]
    fn overloaded_display_names_depth_and_limit() {
        let err = ServiceError::Overloaded {
            queue_depth: 9,
            limit: 8,
        };
        let text = err.to_string();
        assert!(text.contains('9') && text.contains('8'), "{text}");
    }

    #[test]
    fn reload_narrowing_below_a_queued_rank_is_rejected() {
        let service = Service::new(config(1, 0));
        let busy = service.load("busy", locals(2, 512, 16, 60)).unwrap();
        let narrow = service.load("narrow", locals(2, 30, 6, 61)).unwrap();
        // Park the single executor on a long boosted query, so the rank-6
        // query below is still queued when the reload lands.
        let blocker = busy.submit(
            &Query::rank(2)
                .samples(20)
                .sampler(SamplerKind::Uniform)
                .boosted(50_000)
                .seed(8)
                .build()
                .unwrap(),
        );
        while !blocker.started() {
            std::thread::yield_now();
        }
        // Valid at submission (k = d = 6), too wide by the time it runs.
        let queued = narrow.submit(&uniform_query(6, 12, 3));
        service.reload("narrow", locals(2, 30, 4, 62)).unwrap();
        blocker.cancel();
        assert!(matches!(blocker.wait(), Err(ServiceError::Cancelled)));
        match queued.wait() {
            Err(ServiceError::InvalidQuery(QueryError::Rejected(m))) => {
                assert!(m.contains("d = 4"), "{m}")
            }
            other => panic!("expected a protocol rejection, got {other:?}"),
        }
    }
}
