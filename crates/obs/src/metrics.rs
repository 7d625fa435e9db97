//! Lock-free metrics registry: counters, gauges, fixed-bucket latency
//! histograms, and ledger-derived communication counters, plus snapshot
//! types that export as JSON and Prometheus text exposition format.
//!
//! Every live object in this module is built from `AtomicU64`s — recording
//! a sample is a handful of relaxed atomic adds, with no allocation and no
//! locking, so the registry can sit on the service hot path. Snapshots are
//! plain-old-data copies taken with relaxed loads; a snapshot taken at a
//! quiescent point (no query in flight) is exact.
//!
//! ## Determinism
//!
//! The communication counters ([`CommCounters`]) accumulate word-exact
//! [`LedgerSnapshot`] deltas, so for a fixed workload the per-dataset
//! `comm` totals are **bit-identical** across repeated runs, kernel thread
//! counts, and plan-cache configurations (a planned query charges its
//! share of the preparation plus its execute delta — exactly the words an
//! unplanned run charges). The *latency* histograms are wall-clock derived
//! and naturally vary run to run; determinism claims never extend to them.
//!
//! ## Histogram buckets
//!
//! Latency histograms use the fixed power-of-two boundaries in
//! [`LATENCY_BUCKET_BOUNDS_MICROS`]: 1 µs, 2 µs, 4 µs, …, 2²⁴ µs (≈ 16.8 s),
//! plus an overflow bucket. Quantiles are reported as the upper bound of
//! the bucket containing the requested rank, which makes `p50`/`p99`
//! deterministic functions of the recorded counts (never interpolated).

use dlra_comm::LedgerSnapshot;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (inclusive, microseconds) of the latency histogram
/// buckets: `2^0 … 2^24`. Values above the last bound land in an overflow
/// bucket reported as `+Inf`. These boundaries are part of the public
/// contract — dashboards may hard-code them.
pub const LATENCY_BUCKET_BOUNDS_MICROS: [u64; 25] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536,
    131_072, 262_144, 524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608, 16_777_216,
];

/// Bucket count including the overflow bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_MICROS.len() + 1;

/// A fixed-bucket latency histogram with power-of-two microsecond
/// boundaries. Recording is three relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_MICROS.partition_point(|&bound| bound < micros);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; index `i` counts samples `≤`
    /// `LATENCY_BUCKET_BOUNDS_MICROS[i]`, the last index is overflow.
    pub counts: [u64; LATENCY_BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; LATENCY_BUCKETS],
            count: 0,
            sum_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The upper bound (µs) of the bucket containing quantile `q ∈ [0, 1]`,
    /// or `None` for an empty histogram. Overflow reports `u64::MAX`.
    /// Deterministic: a pure function of the counts, never interpolated.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(
                    LATENCY_BUCKET_BOUNDS_MICROS
                        .get(i)
                        .copied()
                        .unwrap_or(u64::MAX),
                );
            }
        }
        Some(u64::MAX)
    }

    /// Median upper bound in microseconds (`None` if empty).
    pub fn p50_micros(&self) -> Option<u64> {
        self.quantile_upper_bound(0.50)
    }

    /// 99th-percentile upper bound in microseconds (`None` if empty).
    pub fn p99_micros(&self) -> Option<u64> {
        self.quantile_upper_bound(0.99)
    }

    /// Arithmetic mean in microseconds (0 if empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }
}

fn fmt_micros(f: &mut fmt::Formatter<'_>, v: Option<u64>) -> fmt::Result {
    match v {
        None => write!(f, "-"),
        Some(u64::MAX) => write!(f, ">16.8s"),
        Some(us) => write!(f, "{us}µs"),
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} p50≤", self.count)?;
        fmt_micros(f, self.p50_micros())?;
        write!(f, " p99≤")?;
        fmt_micros(f, self.p99_micros())?;
        write!(f, " mean={:.1}µs", self.mean_micros())
    }
}

/// Lock-free accumulator of word-exact communication totals. Feed it
/// [`LedgerSnapshot`] deltas; read it back as a `LedgerSnapshot`.
#[derive(Debug, Default)]
pub struct CommCounters {
    upstream_words: AtomicU64,
    downstream_words: AtomicU64,
    messages: AtomicU64,
    rounds: AtomicU64,
    root_inbox_words: AtomicU64,
    root_inbox_messages: AtomicU64,
}

impl CommCounters {
    /// Adds one ledger delta (e.g. a query's charged communication).
    pub fn add(&self, delta: &LedgerSnapshot) {
        self.upstream_words
            .fetch_add(delta.upstream_words, Ordering::Relaxed);
        self.downstream_words
            .fetch_add(delta.downstream_words, Ordering::Relaxed);
        self.messages.fetch_add(delta.messages, Ordering::Relaxed);
        self.rounds.fetch_add(delta.rounds, Ordering::Relaxed);
        self.root_inbox_words
            .fetch_add(delta.root_inbox_words, Ordering::Relaxed);
        self.root_inbox_messages
            .fetch_add(delta.root_inbox_messages, Ordering::Relaxed);
    }

    /// Accumulated totals.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            upstream_words: self.upstream_words.load(Ordering::Relaxed),
            downstream_words: self.downstream_words.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            root_inbox_words: self.root_inbox_words.load(Ordering::Relaxed),
            root_inbox_messages: self.root_inbox_messages.load(Ordering::Relaxed),
        }
    }
}

/// A plan cache's cumulative counters: what the runtime's `PlanCache`
/// counts, and what a dataset snapshot carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from a prepared plan.
    pub hits: u64,
    /// Lookups that ran a preparation.
    pub misses: u64,
    /// Plans evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Plans invalidated by dataset reloads (epoch changes).
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// `hits / (hits + misses)`, 0 if no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} invalidations={} hit_ratio={:.2}",
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            self.hit_ratio()
        )
    }
}

/// The live per-dataset registry: outcome counters, queue/in-flight
/// gauges, latency + phase histograms, and communication accumulators.
/// Every mutation is a relaxed atomic op.
#[derive(Debug, Default)]
pub struct DatasetMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    rejected: AtomicU64,
    rejected_overload: AtomicU64,
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
    latency: Histogram,
    prepare: Histogram,
    execute: Histogram,
    comm: CommCounters,
    prepare_comm: CommCounters,
    execute_comm: CommCounters,
}

impl DatasetMetrics {
    /// A fresh registry.
    pub fn new() -> Self {
        DatasetMetrics::default()
    }

    /// A query entered the executor queue.
    pub fn query_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued query left the queue (whatever its fate).
    pub fn query_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A query was rejected before or instead of running (validation,
    /// eviction, shutdown).
    pub fn query_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A query was shed by admission control (queue at capacity). Counts
    /// in both `rejected` (the umbrella for every pre-run rejection) and
    /// the dedicated `rejected_overload` counter.
    pub fn query_rejected_overload(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// An executor started running a query.
    pub fn query_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// The running query finished (success or failure).
    pub fn query_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// A query completed successfully: submit→resolve latency plus the
    /// communication charged to it (prepare share + execute delta).
    pub fn query_completed(&self, latency_micros: u64, comm: &LedgerSnapshot) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record_micros(latency_micros);
        self.comm.add(comm);
    }

    /// A query failed at execution time.
    pub fn query_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A query was cancelled before completing.
    pub fn query_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// A query's deadline expired before an executor started it.
    pub fn query_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Prepare-phase profile of a planned query: wall time of the plan
    /// lookup (including any build or wait-on-inflight) and, for the query
    /// that physically built the plan, the words the preparation charged.
    pub fn record_prepare(&self, micros: u64, comm: Option<&LedgerSnapshot>) {
        self.prepare.record_micros(micros);
        if let Some(delta) = comm {
            self.prepare_comm.add(delta);
        }
    }

    /// Execute-phase profile of a completed run, planned or not: its wall
    /// time and the words it charged past any shared preparation.
    pub fn record_execute(&self, micros: u64, comm: &LedgerSnapshot) {
        self.execute.record_micros(micros);
        self.execute_comm.add(comm);
    }

    /// A point-in-time copy. `name`, `resident_bytes` and the plan-cache
    /// fields start empty — the service attaches them (the registry has no
    /// identity, payload or cache).
    pub fn snapshot(&self) -> DatasetMetricsSnapshot {
        DatasetMetricsSnapshot {
            name: String::new(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            resident_bytes: 0,
            plan_hits: 0,
            plan_misses: 0,
            latency: self.latency.snapshot(),
            prepare: self.prepare.snapshot(),
            execute: self.execute.snapshot(),
            comm: self.comm.snapshot(),
            prepare_comm: self.prepare_comm.snapshot(),
            execute_comm: self.execute_comm.snapshot(),
            plan_cache: None,
        }
    }
}

/// Immutable copy of one dataset's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMetricsSnapshot {
    /// Dataset name (attached by the service).
    pub name: String,
    /// Queries accepted into the executor queue.
    pub submitted: u64,
    /// Queries that resolved successfully.
    pub completed: u64,
    /// Queries that failed at execution time.
    pub failed: u64,
    /// Queries cancelled before completion.
    pub cancelled: u64,
    /// Queries whose deadline expired unstarted.
    pub expired: u64,
    /// Queries rejected before running (validation / eviction / shutdown).
    pub rejected: u64,
    /// Queries shed by admission control (queue at capacity); a subset of
    /// `rejected`.
    pub rejected_overload: u64,
    /// Queries currently waiting in the executor queue.
    pub queue_depth: u64,
    /// Queries currently executing.
    pub in_flight: u64,
    /// Bytes of resident payload this dataset holds (attached by the
    /// service).
    pub resident_bytes: u64,
    /// Planned queries served from a cached preparation (the plan cache's
    /// hits; 0 without one).
    pub plan_hits: u64,
    /// Planned queries that ran a preparation (the plan cache's misses).
    pub plan_misses: u64,
    /// Submit→resolve latency histogram.
    pub latency: HistogramSnapshot,
    /// Prepare-phase wall time (planned queries only).
    pub prepare: HistogramSnapshot,
    /// Execute-phase wall time (every completed run, planned or not).
    pub execute: HistogramSnapshot,
    /// Total communication charged to completed queries (word-exact,
    /// deterministic across runs / thread counts / plan-cache settings).
    pub comm: LedgerSnapshot,
    /// Words physically charged by plan preparations on this dataset.
    pub prepare_comm: LedgerSnapshot,
    /// Words charged by completed runs past any shared preparation.
    pub execute_comm: LedgerSnapshot,
    /// Plan-cache counters for this dataset (attached by the service).
    pub plan_cache: Option<PlanCacheStats>,
}

impl DatasetMetricsSnapshot {
    /// Completed queries per second over `uptime_secs`.
    pub fn qps(&self, uptime_secs: f64) -> f64 {
        if uptime_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / uptime_secs
        }
    }
}

impl fmt::Display for DatasetMetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: submitted={} completed={} failed={} cancelled={} expired={} rejected={} \
             shed={} queue={} in_flight={} resident_bytes={} latency[{}] comm[{}]",
            self.name,
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.expired,
            self.rejected,
            self.rejected_overload,
            self.queue_depth,
            self.in_flight,
            self.resident_bytes,
            self.latency,
            self.comm,
        )?;
        if let Some(pc) = &self.plan_cache {
            write!(f, " plan[{pc}]")?;
        }
        Ok(())
    }
}

/// Kernel-pool profile attached to a service-wide snapshot (filled from
/// `dlra_linalg`'s pool counters by the service).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelPoolSnapshot {
    /// Configured kernel thread count.
    pub threads: usize,
    /// High-water mark of concurrently active kernel workers.
    pub watermark: usize,
    /// Kernel sections that ran panels on spawned threads.
    pub parallel_sections: u64,
    /// Panel sections executed inline (below the parallel work floor).
    pub inline_sections: u64,
    /// Nanoseconds of busy time across all panels.
    pub busy_nanos: u64,
    /// Nanoseconds of wall time across all profiled sections.
    pub wall_nanos: u64,
}

impl KernelPoolSnapshot {
    /// `busy / wall` — average number of cores effectively working during
    /// profiled kernel sections (0 when profiling was off or idle).
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.wall_nanos as f64
        }
    }
}

impl fmt::Display for KernelPoolSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threads={} watermark={} sections={}par/{}inline effective_parallelism={:.2}",
            self.threads,
            self.watermark,
            self.parallel_sections,
            self.inline_sections,
            self.effective_parallelism()
        )
    }
}

/// Live service-wide pressure state: the admission gauge that bounded
/// admission decides on, byte accounting for resident datasets, and the
/// overload/pressure-eviction counters. One per service, maintained even
/// when the per-dataset registry is disabled (admission and quota
/// decisions key off it), and deterministic in the sequence of operations
/// applied to it — no clock is ever consulted.
#[derive(Debug, Default)]
pub struct ServicePressure {
    admitted: AtomicU64,
    rejected_overload: AtomicU64,
    evicted_under_pressure: AtomicU64,
    resident_bytes: AtomicU64,
}

impl ServicePressure {
    /// A fresh pressure registry.
    pub fn new() -> Self {
        ServicePressure::default()
    }

    /// Admission check-and-increment: admits the query (incrementing the
    /// admitted-in-system gauge) unless `limit` is set and the gauge is
    /// already at it, in which case the shed is counted and the observed
    /// depth returned as the error. The bound check and the increment are
    /// one atomic RMW, so concurrent submitters can never overshoot the
    /// limit.
    pub fn try_admit(&self, limit: Option<u64>) -> Result<(), u64> {
        match limit {
            None => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(limit) => {
                // Relaxed: the gauge is the only variable involved in the
                // decision; no other memory is published on its strength.
                let raced =
                    self.admitted
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                            if depth < limit {
                                Some(depth + 1)
                            } else {
                                None
                            }
                        });
                match raced {
                    Ok(_) => Ok(()),
                    Err(depth) => {
                        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
                        Err(depth)
                    }
                }
            }
        }
    }

    /// An admitted query reached its terminal resolution (delivered,
    /// cancelled, expired, or dropped with the queue): release its
    /// admission slot.
    pub fn release(&self) {
        self.admitted.fetch_sub(1, Ordering::Relaxed);
    }

    /// Queries currently admitted and not yet resolved (queued + running).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// A dataset became resident (or grew on reload) by `bytes`.
    pub fn add_resident_bytes(&self, bytes: u64) {
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A dataset left residency (or shrank on reload) by `bytes`.
    pub fn sub_resident_bytes(&self, bytes: u64) {
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Total bytes of resident dataset payload across every tenant.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// A dataset was evicted by the memory quota (not by an explicit
    /// `evict` call).
    pub fn record_pressure_eviction(&self) {
        self.evicted_under_pressure.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy, with the service's configured limits attached
    /// (the registry itself does not own them).
    pub fn snapshot(
        &self,
        max_queue_depth: Option<u64>,
        memory_budget: Option<u64>,
    ) -> PressureSnapshot {
        PressureSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            max_queue_depth,
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            memory_budget,
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            evicted_under_pressure: self.evicted_under_pressure.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`ServicePressure`], plus the configured limits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureSnapshot {
    /// Queries admitted and not yet resolved (queued + running).
    pub admitted: u64,
    /// The admission bound `admitted` is held under, or `None` for the
    /// legacy unbounded queue.
    pub max_queue_depth: Option<u64>,
    /// Total bytes of resident dataset payload across every tenant.
    pub resident_bytes: u64,
    /// The service-wide memory budget, or `None` when quotas are off.
    pub memory_budget: Option<u64>,
    /// Queries shed by admission control since the service started.
    pub rejected_overload: u64,
    /// Datasets evicted by the memory quota since the service started.
    pub evicted_under_pressure: u64,
}

impl fmt::Display for PressureSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admitted={}{} resident_bytes={}{} shed={} pressure_evictions={}",
            self.admitted,
            match self.max_queue_depth {
                Some(limit) => format!("/{limit}"),
                None => String::new(),
            },
            self.resident_bytes,
            match self.memory_budget {
                Some(budget) => format!("/{budget}"),
                None => String::new(),
            },
            self.rejected_overload,
            self.evicted_under_pressure
        )
    }
}

/// A service-wide metrics snapshot: per-dataset registries plus process
/// facts, exportable as JSON ([`MetricsSnapshot::to_json`]), Prometheus
/// text ([`MetricsSnapshot::to_prometheus`]), or a human summary
/// (`Display`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Seconds since the service started.
    pub uptime_secs: f64,
    /// Executor threads serving the queue.
    pub executors: usize,
    /// Kernel-pool facts at snapshot time.
    pub kernel: KernelPoolSnapshot,
    /// Service-wide admission/quota pressure state.
    pub pressure: PressureSnapshot,
    /// One entry per resident dataset, in residency order.
    pub datasets: Vec<DatasetMetricsSnapshot>,
}

/// `s` as the body of a JSON string: `"` and `\` backslash-escaped,
/// control characters as `\u00XX`.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `s` as a Prometheus label value: backslash, double quote and line feed
/// escaped, as the text exposition format requires.
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn json_hist(out: &mut String, key: &str, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "\"{key}\":{{\"count\":{},\"sum_micros\":{},\"p50_micros\":{},\"p99_micros\":{},\"counts\":[",
        h.count,
        h.sum_micros,
        h.p50_micros().unwrap_or(0),
        h.p99_micros().unwrap_or(0),
    ));
    for (i, c) in h.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&c.to_string());
    }
    out.push_str("]}");
}

fn json_comm(out: &mut String, key: &str, s: &LedgerSnapshot) {
    out.push_str(&format!(
        "\"{key}\":{{\"upstream_words\":{},\"downstream_words\":{},\"messages\":{},\"rounds\":{},\"coordinator_inbox_words\":{},\"gather_messages\":{}}}",
        s.upstream_words,
        s.downstream_words,
        s.messages,
        s.rounds,
        s.root_inbox_words,
        s.root_inbox_messages
    ));
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a self-describing JSON object (hand
    /// rolled — the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        let json_opt = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\n  \"uptime_secs\": {:.6},\n  \"executors\": {},\n  \"kernel\": {{\"threads\": {}, \"watermark\": {}, \"parallel_sections\": {}, \"inline_sections\": {}, \"busy_nanos\": {}, \"wall_nanos\": {}, \"effective_parallelism\": {:.4}}},\n  \"pressure\": {{\"admitted\": {}, \"max_queue_depth\": {}, \"resident_bytes\": {}, \"memory_budget\": {}, \"rejected_overload\": {}, \"evicted_under_pressure\": {}}},\n  \"latency_bucket_bounds_micros\": {:?},\n  \"datasets\": [",
            self.uptime_secs,
            self.executors,
            self.kernel.threads,
            self.kernel.watermark,
            self.kernel.parallel_sections,
            self.kernel.inline_sections,
            self.kernel.busy_nanos,
            self.kernel.wall_nanos,
            self.kernel.effective_parallelism(),
            self.pressure.admitted,
            json_opt(self.pressure.max_queue_depth),
            self.pressure.resident_bytes,
            json_opt(self.pressure.memory_budget),
            self.pressure.rejected_overload,
            self.pressure.evicted_under_pressure,
            LATENCY_BUCKET_BOUNDS_MICROS,
        ));
        for (i, d) in self.datasets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"name\":\"{}\",\"qps\":{:.4},\"submitted\":{},\"completed\":{},\"failed\":{},\"cancelled\":{},\"expired\":{},\"rejected\":{},\"rejected_overload\":{},\"queue_depth\":{},\"in_flight\":{},\"resident_bytes\":{},\"plan_hits\":{},\"plan_misses\":{},",
                json_escape(&d.name),
                d.qps(self.uptime_secs),
                d.submitted,
                d.completed,
                d.failed,
                d.cancelled,
                d.expired,
                d.rejected,
                d.rejected_overload,
                d.queue_depth,
                d.in_flight,
                d.resident_bytes,
                d.plan_hits,
                d.plan_misses,
            ));
            json_hist(&mut out, "latency", &d.latency);
            out.push(',');
            json_hist(&mut out, "prepare", &d.prepare);
            out.push(',');
            json_hist(&mut out, "execute", &d.execute);
            out.push(',');
            json_comm(&mut out, "comm", &d.comm);
            out.push(',');
            json_comm(&mut out, "prepare_comm", &d.prepare_comm);
            out.push(',');
            json_comm(&mut out, "execute_comm", &d.execute_comm);
            if let Some(pc) = &d.plan_cache {
                out.push_str(&format!(
                    ",\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\"hit_ratio\":{:.4}}}",
                    pc.hits, pc.misses, pc.evictions, pc.invalidations, pc.hit_ratio()
                ));
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serializes the snapshot in the Prometheus text exposition format
    /// (metric names prefixed `dlra_`, one `dataset` label).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP dlra_uptime_seconds Seconds since the service started.\n# TYPE dlra_uptime_seconds gauge\n");
        out.push_str(&format!("dlra_uptime_seconds {:.6}\n", self.uptime_secs));
        out.push_str("# HELP dlra_executors Executor threads serving the queue.\n# TYPE dlra_executors gauge\n");
        out.push_str(&format!("dlra_executors {}\n", self.executors));
        out.push_str("# HELP dlra_kernel_parallelism_watermark High-water mark of active kernel workers.\n# TYPE dlra_kernel_parallelism_watermark gauge\n");
        out.push_str(&format!(
            "dlra_kernel_parallelism_watermark {}\n",
            self.kernel.watermark
        ));
        out.push_str("# HELP dlra_kernel_effective_parallelism Busy/wall ratio of profiled kernel sections.\n# TYPE dlra_kernel_effective_parallelism gauge\n");
        out.push_str(&format!(
            "dlra_kernel_effective_parallelism {:.4}\n",
            self.kernel.effective_parallelism()
        ));
        out.push_str("# HELP dlra_service_admitted Queries admitted and not yet resolved (queued + running).\n# TYPE dlra_service_admitted gauge\n");
        out.push_str(&format!(
            "dlra_service_admitted {}\n",
            self.pressure.admitted
        ));
        out.push_str("# HELP dlra_service_resident_bytes Bytes of resident dataset payload across every tenant.\n# TYPE dlra_service_resident_bytes gauge\n");
        out.push_str(&format!(
            "dlra_service_resident_bytes {}\n",
            self.pressure.resident_bytes
        ));
        out.push_str("# HELP dlra_service_rejected_overload_total Queries shed by admission control.\n# TYPE dlra_service_rejected_overload_total counter\n");
        out.push_str(&format!(
            "dlra_service_rejected_overload_total {}\n",
            self.pressure.rejected_overload
        ));
        out.push_str("# HELP dlra_service_evicted_under_pressure_total Datasets evicted by the memory quota.\n# TYPE dlra_service_evicted_under_pressure_total counter\n");
        out.push_str(&format!(
            "dlra_service_evicted_under_pressure_total {}\n",
            self.pressure.evicted_under_pressure
        ));
        if let Some(limit) = self.pressure.max_queue_depth {
            out.push_str("# HELP dlra_service_max_queue_depth Configured admission bound.\n# TYPE dlra_service_max_queue_depth gauge\n");
            out.push_str(&format!("dlra_service_max_queue_depth {limit}\n"));
        }
        if let Some(budget) = self.pressure.memory_budget {
            out.push_str("# HELP dlra_service_memory_budget_bytes Configured service-wide resident-byte budget.\n# TYPE dlra_service_memory_budget_bytes gauge\n");
            out.push_str(&format!("dlra_service_memory_budget_bytes {budget}\n"));
        }

        type Row = (
            &'static str,
            &'static str,
            fn(&DatasetMetricsSnapshot) -> u64,
        );
        let counters: [Row; 13] = [
            (
                "dlra_queries_submitted_total",
                "Queries accepted into the executor queue.",
                |d| d.submitted,
            ),
            (
                "dlra_queries_completed_total",
                "Queries resolved successfully.",
                |d| d.completed,
            ),
            (
                "dlra_queries_failed_total",
                "Queries failed at execution time.",
                |d| d.failed,
            ),
            (
                "dlra_queries_cancelled_total",
                "Queries cancelled before completion.",
                |d| d.cancelled,
            ),
            (
                "dlra_queries_expired_total",
                "Queries whose deadline expired unstarted.",
                |d| d.expired,
            ),
            (
                "dlra_queries_rejected_total",
                "Queries rejected before running.",
                |d| d.rejected,
            ),
            (
                "dlra_queries_rejected_overload_total",
                "Queries shed by admission control (subset of rejected).",
                |d| d.rejected_overload,
            ),
            (
                "dlra_plan_hits_total",
                "Planned queries served from a cached preparation.",
                |d| d.plan_hits,
            ),
            (
                "dlra_plan_misses_total",
                "Planned queries that prepared or waited.",
                |d| d.plan_misses,
            ),
            (
                "dlra_comm_words_total",
                "Words charged to completed queries.",
                |d| d.comm.total_words(),
            ),
            (
                "dlra_comm_rounds_total",
                "Communication rounds charged to completed queries.",
                |d| d.comm.rounds,
            ),
            (
                "dlra_coordinator_inbox_words_total",
                "Words that landed in the coordinator's inbox (root fan-in).",
                |d| d.comm.root_inbox_words,
            ),
            (
                "dlra_gather_messages_total",
                "Messages that landed in the coordinator's inbox.",
                |d| d.comm.root_inbox_messages,
            ),
        ];
        for (name, help, get) in counters {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for d in &self.datasets {
                let label = prom_escape(&d.name);
                out.push_str(&format!("{name}{{dataset=\"{label}\"}} {}\n", get(d)));
            }
        }
        let gauges: [Row; 3] = [
            (
                "dlra_queue_depth",
                "Queries waiting in the executor queue.",
                |d| d.queue_depth,
            ),
            ("dlra_in_flight", "Queries currently executing.", |d| {
                d.in_flight
            }),
            (
                "dlra_resident_bytes",
                "Bytes of resident payload the dataset holds.",
                |d| d.resident_bytes,
            ),
        ];
        for (name, help, get) in gauges {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for d in &self.datasets {
                let label = prom_escape(&d.name);
                out.push_str(&format!("{name}{{dataset=\"{label}\"}} {}\n", get(d)));
            }
        }
        for (key, help, get) in [
            (
                "dlra_query_latency_micros",
                "Submit-to-resolve latency.",
                (|d| &d.latency) as fn(&DatasetMetricsSnapshot) -> &HistogramSnapshot,
            ),
            (
                "dlra_query_prepare_micros",
                "Plan prepare phase wall time.",
                |d| &d.prepare,
            ),
            (
                "dlra_query_execute_micros",
                "Planned execute phase wall time.",
                |d| &d.execute,
            ),
        ] {
            out.push_str(&format!("# HELP {key} {help}\n# TYPE {key} histogram\n"));
            for d in &self.datasets {
                let h = get(d);
                let label = prom_escape(&d.name);
                let mut cumulative = 0u64;
                for (i, bound) in LATENCY_BUCKET_BOUNDS_MICROS.iter().enumerate() {
                    cumulative += h.counts[i];
                    out.push_str(&format!(
                        "{key}_bucket{{dataset=\"{label}\",le=\"{bound}\"}} {cumulative}\n"
                    ));
                }
                cumulative += h.counts[LATENCY_BUCKETS - 1];
                out.push_str(&format!(
                    "{key}_bucket{{dataset=\"{label}\",le=\"+Inf\"}} {cumulative}\n"
                ));
                out.push_str(&format!(
                    "{key}_sum{{dataset=\"{label}\"}} {}\n{key}_count{{dataset=\"{label}\"}} {}\n",
                    h.sum_micros, h.count
                ));
            }
        }
        for d in &self.datasets {
            if let Some(pc) = &d.plan_cache {
                out.push_str(&format!(
                    "dlra_plan_cache_hit_ratio{{dataset=\"{}\"}} {:.4}\n",
                    prom_escape(&d.name),
                    pc.hit_ratio()
                ));
            }
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: uptime={:.2}s executors={} kernel[{}] pressure[{}]",
            self.uptime_secs, self.executors, self.kernel, self.pressure
        )?;
        for d in &self.datasets {
            writeln!(f, "  {d} qps={:.2}", d.qps(self.uptime_secs))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        for (i, &b) in LATENCY_BUCKET_BOUNDS_MICROS.iter().enumerate() {
            assert_eq!(b, 1u64 << i);
        }
        assert_eq!(LATENCY_BUCKETS, 26);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().p50_micros(), None);
        h.record_micros(0); // ≤ 1 → bucket 0
        h.record_micros(1); // ≤ 1 → bucket 0
        h.record_micros(2); // bucket 1
        h.record_micros(3); // bucket 2 (≤ 4)
        h.record_micros(1_000_000); // bucket 20 (≤ 2^20)
        h.record_micros(u64::MAX); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 1);
        assert_eq!(s.counts[20], 1);
        assert_eq!(s.counts[LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.quantile_upper_bound(0.0), Some(1));
        assert_eq!(s.p50_micros(), Some(2));
        assert_eq!(s.quantile_upper_bound(1.0), Some(u64::MAX));
        // Display stays total.
        assert!(format!("{s}").contains("n=6"));
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_micros(10); // bucket ≤ 16
        }
        h.record_micros(5_000); // bucket ≤ 8192
        let s = h.snapshot();
        assert_eq!(s.p50_micros(), Some(16));
        assert_eq!(s.p99_micros(), Some(16));
        assert_eq!(s.quantile_upper_bound(0.995), Some(8_192));
    }

    #[test]
    fn comm_counters_accumulate_exactly() {
        let c = CommCounters::default();
        let a = LedgerSnapshot {
            upstream_words: 10,
            downstream_words: 3,
            messages: 2,
            rounds: 1,
            root_inbox_words: 8,
            root_inbox_messages: 2,
        };
        c.add(&a);
        c.add(&a);
        let total = c.snapshot();
        assert_eq!(total.upstream_words, 20);
        assert_eq!(total.downstream_words, 6);
        assert_eq!(total.messages, 4);
        assert_eq!(total.rounds, 2);
        assert_eq!(total.root_inbox_words, 16);
        assert_eq!(total.root_inbox_messages, 4);
    }

    #[test]
    fn dataset_lifecycle_counters() {
        let m = DatasetMetrics::new();
        m.query_submitted();
        m.query_submitted();
        let s = m.snapshot();
        assert_eq!((s.submitted, s.queue_depth), (2, 2));
        m.query_dequeued();
        m.query_started();
        m.query_finished();
        m.query_completed(
            100,
            &LedgerSnapshot {
                upstream_words: 5,
                downstream_words: 1,
                messages: 1,
                rounds: 1,
                ..LedgerSnapshot::default()
            },
        );
        m.query_dequeued();
        m.query_rejected();
        let s = m.snapshot();
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.comm.total_words(), 6);
        assert_eq!(s.latency.count, 1);
    }

    #[test]
    fn pressure_admission_is_bounded_and_exact() {
        let p = ServicePressure::new();
        // Unbounded: every admit succeeds and the gauge tracks.
        assert!(p.try_admit(None).is_ok());
        assert_eq!(p.admitted(), 1);
        p.release();
        assert_eq!(p.admitted(), 0);

        // Bounded: the limit is a hard ceiling, and the observed depth
        // comes back with the rejection.
        assert!(p.try_admit(Some(2)).is_ok());
        assert!(p.try_admit(Some(2)).is_ok());
        assert_eq!(p.try_admit(Some(2)), Err(2));
        assert_eq!(p.try_admit(Some(2)), Err(2));
        let snap = p.snapshot(Some(2), None);
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.rejected_overload, 2);
        // Releasing a slot re-opens admission.
        p.release();
        assert!(p.try_admit(Some(2)).is_ok());

        // Byte accounting round-trips to zero.
        p.add_resident_bytes(100);
        p.add_resident_bytes(50);
        p.sub_resident_bytes(150);
        assert_eq!(p.resident_bytes(), 0);
        assert!(format!("{}", p.snapshot(Some(2), Some(10))).contains("admitted=2/2"));
    }

    #[test]
    fn overload_rejections_count_in_both_counters() {
        let m = DatasetMetrics::new();
        m.query_rejected();
        m.query_rejected_overload();
        let s = m.snapshot();
        assert_eq!(s.rejected, 2, "overload shed is a rejection too");
        assert_eq!(s.rejected_overload, 1);
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let m = DatasetMetrics::new();
        m.query_submitted();
        m.query_dequeued();
        m.query_completed(
            150,
            &LedgerSnapshot {
                upstream_words: 40,
                downstream_words: 2,
                messages: 3,
                rounds: 2,
                root_inbox_words: 40,
                root_inbox_messages: 3,
            },
        );
        m.query_rejected_overload();
        let mut d = m.snapshot();
        d.name = "tenant-a".into();
        d.resident_bytes = 4096;
        d.plan_cache = Some(PlanCacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            invalidations: 0,
        });
        let pressure = ServicePressure::new();
        pressure.try_admit(Some(4)).unwrap();
        pressure.add_resident_bytes(4096);
        pressure.record_pressure_eviction();
        MetricsSnapshot {
            uptime_secs: 2.0,
            executors: 2,
            kernel: KernelPoolSnapshot {
                threads: 4,
                watermark: 4,
                parallel_sections: 10,
                inline_sections: 5,
                busy_nanos: 900,
                wall_nanos: 300,
            },
            pressure: pressure.snapshot(Some(4), Some(1 << 20)),
            datasets: vec![d],
        }
    }

    #[test]
    fn json_export_contains_everything() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        for needle in [
            "\"uptime_secs\"",
            "\"kernel\"",
            "\"effective_parallelism\": 3.0000",
            "\"name\":\"tenant-a\"",
            "\"qps\":0.5000",
            "\"latency\"",
            "\"comm\"",
            "\"coordinator_inbox_words\":40",
            "\"gather_messages\":3",
            "\"plan_cache\"",
            "\"hit_ratio\":0.7500",
            "\"latency_bucket_bounds_micros\"",
            "\"rejected_overload\":1",
            "\"resident_bytes\":4096",
            "\"pressure\": {\"admitted\": 1, \"max_queue_depth\": 4, \"resident_bytes\": 4096, \"memory_budget\": 1048576, \"rejected_overload\": 0, \"evicted_under_pressure\": 1}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let snap = sample_snapshot();
        let prom = snap.to_prometheus();
        for needle in [
            "# TYPE dlra_queries_submitted_total counter",
            "dlra_queries_submitted_total{dataset=\"tenant-a\"} 1",
            "dlra_queries_completed_total{dataset=\"tenant-a\"} 1",
            "dlra_comm_words_total{dataset=\"tenant-a\"} 42",
            "dlra_coordinator_inbox_words_total{dataset=\"tenant-a\"} 40",
            "dlra_gather_messages_total{dataset=\"tenant-a\"} 3",
            "# TYPE dlra_query_latency_micros histogram",
            "dlra_query_latency_micros_bucket{dataset=\"tenant-a\",le=\"+Inf\"} 1",
            "dlra_query_latency_micros_count{dataset=\"tenant-a\"} 1",
            "dlra_plan_cache_hit_ratio{dataset=\"tenant-a\"} 0.7500",
            "dlra_kernel_parallelism_watermark 4",
            "dlra_queries_rejected_overload_total{dataset=\"tenant-a\"} 1",
            "dlra_resident_bytes{dataset=\"tenant-a\"} 4096",
            "dlra_service_admitted 1",
            "dlra_service_resident_bytes 4096",
            "dlra_service_rejected_overload_total 0",
            "dlra_service_evicted_under_pressure_total 1",
            "dlra_service_max_queue_depth 4",
            "dlra_service_memory_budget_bytes 1048576",
        ] {
            assert!(prom.contains(needle), "missing {needle} in {prom}");
        }
        // Histogram buckets are cumulative and end at the count.
        let last_bucket = prom
            .lines()
            .rfind(|l| l.starts_with("dlra_query_latency_micros_bucket") && l.contains("+Inf"))
            .unwrap();
        assert!(last_bucket.ends_with(" 1"));
    }

    #[test]
    fn display_impls_are_loggable() {
        let snap = sample_snapshot();
        let text = format!("{snap}");
        assert!(text.contains("tenant-a"));
        assert!(text.contains("effective_parallelism=3.00"));
        assert!(format!("{}", snap.datasets[0]).contains("completed=1"));
    }
}
