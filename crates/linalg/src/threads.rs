//! The kernel thread-pool knob and the persistent panel-worker pool.
//!
//! The blocked kernels in [`crate::kernels`] parallelize over disjoint row
//! panels of their output. How many panels run concurrently is resolved in
//! this order:
//!
//! 1. a thread-scoped [`with_threads`] override (what runtime server
//!    workers use to pin kernels to one thread inside an already-parallel
//!    substrate),
//! 2. the last [`set_threads`] call,
//! 3. [`std::thread::available_parallelism`].
//!
//! Panels execute on a **persistent worker pool**, spawned lazily on the
//! first parallel call and reused for every call after it — replacing the
//! per-call `std::thread::scope` whose spawn/join latency dominated small
//! kernels. The submitting thread always runs the first panel itself and
//! blocks until the pool finishes the rest, so the pool adds at most
//! `threads() − 1` live kernel threads to the caller's own.
//!
//! Thread count never changes results: each worker owns a disjoint slice of
//! the output and every output element is accumulated in the same fixed
//! summation order regardless of how the panels are distributed, so kernels
//! are bit-identical across thread counts (proved by
//! `tests/kernel_equivalence.rs`).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// 0 = unresolved; resolved values are always ≥ 1.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 = none. Takes precedence over the process
    /// setting so outer parallelism layers can pin inner kernels.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Sets the kernel thread count for the whole process (clamped to ≥ 1).
/// Overrides the hardware default.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The current kernel thread count: a scoped [`with_threads`] override if
/// one is active on this thread, otherwise the process-wide setting
/// (resolving the default on first use).
pub fn threads() -> usize {
    let scoped = OVERRIDE.with(Cell::get);
    if scoped != 0 {
        return scoped;
    }
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Racing first calls resolve to the same value; a concurrent
    // `set_threads` may overwrite, which is the caller's intent anyway.
    THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Runs `f` with the kernel thread count pinned to `n` (clamped to ≥ 1) on
/// **this thread only**, restoring the previous override on exit — panic
/// included. This is how an outer parallelism layer (e.g. the threaded
/// runtime's server workers) stops kernel threading from composing
/// multiplicatively with its own: each worker wraps its jobs in
/// `with_threads(1, ..)` and every kernel inside runs inline.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Live kernel execution contexts (pool workers running a panel plus
/// callers running their own panel inline) and the high-water mark since
/// the last [`reset_parallelism_watermark`].
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn enter_kernel() {
    let now = ACTIVE.fetch_add(1, Ordering::AcqRel) + 1;
    PEAK.fetch_max(now, Ordering::AcqRel);
}

fn exit_kernel() {
    ACTIVE.fetch_sub(1, Ordering::AcqRel);
}

/// Resets the high-water mark of concurrently live kernel threads to the
/// currently live count. Diagnostics: tests use this to prove the kernel
/// and runtime parallelism layers do not oversubscribe multiplicatively.
pub fn reset_parallelism_watermark() {
    PEAK.store(ACTIVE.load(Ordering::Acquire), Ordering::Release);
}

/// The maximum number of kernel threads (pool workers plus inline callers)
/// that were live at once since the last [`reset_parallelism_watermark`].
pub fn parallelism_watermark() -> usize {
    PEAK.load(Ordering::Acquire)
}

/// Pool profiling: per-section wall time and per-worker busy time, recorded
/// only while [`set_pool_profiling`] is on. When off (the default) the cost
/// is one relaxed atomic load per kernel section / pool job — no clock
/// reads — and results are never affected either way.
static PROFILING: AtomicBool = AtomicBool::new(false);
static PARALLEL_SECTIONS: AtomicU64 = AtomicU64::new(0);
static INLINE_SECTIONS: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);
static WALL_NANOS: AtomicU64 = AtomicU64::new(0);

/// Turns kernel-pool profiling on or off (process-wide).
pub fn set_pool_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether kernel-pool profiling is currently on.
pub fn pool_profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Clears the accumulated [`pool_profile`] counters.
pub fn reset_pool_profile() {
    PARALLEL_SECTIONS.store(0, Ordering::Relaxed);
    INLINE_SECTIONS.store(0, Ordering::Relaxed);
    BUSY_NANOS.store(0, Ordering::Relaxed);
    WALL_NANOS.store(0, Ordering::Relaxed);
}

/// Accumulated profile of the panel dispatcher since the last
/// [`reset_pool_profile`] (all zero unless profiling was enabled).
pub fn pool_profile() -> PoolProfile {
    PoolProfile {
        parallel_sections: PARALLEL_SECTIONS.load(Ordering::Relaxed),
        inline_sections: INLINE_SECTIONS.load(Ordering::Relaxed),
        busy_nanos: BUSY_NANOS.load(Ordering::Relaxed),
        wall_nanos: WALL_NANOS.load(Ordering::Relaxed),
    }
}

/// Profile of the persistent panel pool: how many kernel sections ran
/// parallel vs inline, total section wall time, and total busy time across
/// the submitting thread and all pool workers. `busy / wall` is the
/// effective parallelism actually achieved (vs the configured `threads()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Kernel sections dispatched to the worker pool.
    pub parallel_sections: u64,
    /// Kernel sections run inline (single thread or below the work floor).
    pub inline_sections: u64,
    /// Nanoseconds of kernel execution summed over every participant.
    pub busy_nanos: u64,
    /// Nanoseconds of wall time summed over profiled sections.
    pub wall_nanos: u64,
}

impl PoolProfile {
    /// Average number of threads effectively busy during profiled kernel
    /// sections (0 when nothing was profiled).
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / self.wall_nanos as f64
        }
    }
}

/// A completion latch: one parallel call waits for its dispatched panels.
struct Latch {
    // dlra-lock-order: kernel.latch
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch poisoned");
        }
    }
}

/// One dispatched panel, with the kernel closure and output slice erased
/// to raw pointers. The submitting call blocks on the latch until every
/// job completed, so the pointers never outlive their borrows; panels are
/// disjoint `split_at_mut` slices, so workers cannot alias.
struct PanelJob {
    // SAFETY: callers pass `call_kernel::<F>` together with a `kernel`
    // pointer derived from `&F`, so the vtable-style pair always agrees
    // on the erased type (upheld by the single call site in
    // `for_each_row_panel`).
    call: unsafe fn(*const (), usize, *mut f64, usize),
    kernel: *const (),
    first_row: usize,
    panel: *mut f64,
    panel_len: usize,
    latch: *const Latch,
}

// SAFETY: the raw pointers stand for `&(F: Sync)`, a `&mut [f64]` slice
// disjoint from every other job's, and a `&Latch` — all of which outlive
// the job because the submitter blocks on the latch before returning.
unsafe impl Send for PanelJob {}

/// Monomorphized trampoline: reconstitutes the kernel reference and panel
/// slice for one job.
///
/// # Safety
/// `kernel` must point to a live `F` and `panel/len` to a live, exclusive
/// `f64` slice (guaranteed by the submit-then-wait protocol above).
unsafe fn call_kernel<F: Fn(usize, &mut [f64]) + Sync>(
    kernel: *const (),
    first_row: usize,
    panel: *mut f64,
    panel_len: usize,
) {
    // SAFETY: the caller promises `kernel` points to a live `F` (see the
    // `# Safety` contract); `PanelJob` construction derives it from `&F`.
    let kernel = unsafe { &*(kernel as *const F) };
    // SAFETY: `panel/panel_len` describe a live `&mut [f64]` disjoint
    // from every other job's panel (`split_at_mut`), valid until the
    // submitter's latch releases — after this call returns.
    kernel(first_row, unsafe {
        std::slice::from_raw_parts_mut(panel, panel_len)
    });
}

struct Pool {
    sender: Sender<PanelJob>,
    // dlra-lock-order: kernel.inbox
    receiver: Arc<Mutex<Receiver<PanelJob>>>,
    spawned: usize,
}

static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();

// dlra-lock-order: kernel.pool
fn pool() -> &'static Mutex<Pool> {
    POOL.get_or_init(|| {
        let (sender, receiver) = mpsc::channel();
        Mutex::new(Pool {
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            spawned: 0,
        })
    })
}

/// Grows the pool to at least `jobs.len()` workers and enqueues the jobs.
fn submit_to_pool(jobs: Vec<PanelJob>) {
    if jobs.is_empty() {
        return;
    }
    let mut pool = pool().lock().expect("kernel pool poisoned");
    while pool.spawned < jobs.len() {
        let work = Arc::clone(&pool.receiver);
        std::thread::Builder::new()
            .name(format!("dlra-kernel-{}", pool.spawned))
            .spawn(move || worker_loop(&work))
            .expect("spawn kernel pool worker");
        pool.spawned += 1;
    }
    for job in jobs {
        // The receiver lives in the static pool, so the channel never
        // closes.
        pool.sender.send(job).expect("kernel pool channel closed");
    }
}

fn worker_loop(work: &Mutex<Receiver<PanelJob>>) {
    loop {
        let job = {
            let inbox = work.lock().expect("kernel pool inbox poisoned");
            inbox.recv()
        };
        let Ok(job) = job else { return };
        enter_kernel();
        let job_start = pool_profiling().then(Instant::now);
        // Pool workers pin nested parallelism to 1: a kernel that somehow
        // re-enters the dispatcher runs inline instead of waiting on the
        // very pool it occupies.
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: see `PanelJob` — the submitter keeps every pointee
            // alive until the latch opens, which is after this call.
            with_threads(1, || unsafe {
                (job.call)(job.kernel, job.first_row, job.panel, job.panel_len)
            })
        }));
        if let Some(t0) = job_start {
            // Before `count_down`, so a section's busy time is fully
            // accumulated by the time its submitter stops waiting.
            BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        exit_kernel();
        // SAFETY: the latch outlives the job (submit-then-wait protocol).
        let latch = unsafe { &*job.latch };
        if result.is_err() {
            latch.panicked.store(true, Ordering::Release);
        }
        latch.count_down();
    }
}

/// Below this many flops the dispatch latency dominates any speedup.
const PARALLEL_WORK_FLOOR: usize = 1 << 21;

/// Runs `kernel` over the rows of a contiguous row-major output buffer,
/// split into one contiguous row panel per worker with (near-)equal row
/// counts.
///
/// `kernel(first_row, panel)` must fill `panel` (rows `first_row ..
/// first_row + panel.len() / row_width`) without reading any other panel —
/// the disjoint `&mut` split makes that structurally impossible to violate.
///
/// `work` is a rough flop count for the whole call; cheap calls and
/// single-thread configurations run inline on the caller's stack, so tiny
/// matrices never pay dispatch latency.
pub(crate) fn for_each_row_panel<F>(out: &mut [f64], row_width: usize, work: usize, kernel: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    for_each_row_panel_by_weight(out, row_width, work, |_| 1, kernel)
}

/// [`for_each_row_panel`] with panel boundaries chosen so every worker gets
/// (approximately) the same total of `row_weight(row)` instead of the same
/// row count — e.g. the triangular gram kernel weights row `p` by `c − p`
/// so the first panels (long rows) are narrower than the last.
pub(crate) fn for_each_row_panel_by_weight<F, W>(
    out: &mut [f64],
    row_width: usize,
    work: usize,
    row_weight: W,
    kernel: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
    W: Fn(usize) -> usize,
{
    let rows = out.len().checked_div(row_width).unwrap_or(0);
    if rows == 0 {
        return;
    }
    let t = threads().min(rows);
    if t <= 1 || work < PARALLEL_WORK_FLOOR {
        let section_start = pool_profiling().then(Instant::now);
        enter_kernel();
        let result = catch_unwind(AssertUnwindSafe(|| kernel(0, out)));
        exit_kernel();
        if let Some(t0) = section_start {
            let nanos = t0.elapsed().as_nanos() as u64;
            INLINE_SECTIONS.fetch_add(1, Ordering::Relaxed);
            BUSY_NANOS.fetch_add(nanos, Ordering::Relaxed);
            WALL_NANOS.fetch_add(nanos, Ordering::Relaxed);
        }
        if let Err(payload) = result {
            resume_unwind(payload);
        }
        return;
    }
    let section_start = pool_profiling().then(Instant::now);
    // Cut the row range into `t` contiguous panels of (near-)equal total
    // weight: walk the rows accumulating weight and cut at each multiple
    // of `total / t`.
    let total: usize = (0..rows).map(&row_weight).sum();
    let target = total.div_ceil(t).max(1);
    let mut panels: Vec<(usize, &mut [f64])> = Vec::with_capacity(t);
    {
        let mut rest = out;
        let mut row0 = 0;
        let mut acc = 0usize;
        let mut row = 0usize;
        let mut panels_left = t;
        while row0 < rows {
            // Extend the panel until its weight reaches the target (always
            // taking at least one row); the last panel takes everything.
            if panels_left == 1 {
                row = rows;
            } else {
                while row < rows && (acc < target || row == row0) {
                    acc += row_weight(row);
                    row += 1;
                }
                acc = acc.saturating_sub(target);
            }
            panels_left -= 1;
            let panel_rows = row - row0;
            let (panel, tail) = rest.split_at_mut(panel_rows * row_width);
            rest = tail;
            panels.push((row0, panel));
            row0 = row;
        }
    }

    let latch = Latch::new(panels.len() - 1);
    let mut panels = panels.into_iter();
    let (first0, panel0) = panels.next().expect("at least one panel");
    let jobs: Vec<PanelJob> = panels
        .map(|(first_row, panel)| PanelJob {
            call: call_kernel::<F>,
            kernel: &kernel as *const F as *const (),
            first_row,
            panel: panel.as_mut_ptr(),
            panel_len: panel.len(),
            latch: &latch,
        })
        .collect();
    submit_to_pool(jobs);

    // Run our own panel while the pool chews on the rest.
    enter_kernel();
    let own_start = section_start.map(|_| Instant::now());
    let mine = catch_unwind(AssertUnwindSafe(|| kernel(first0, panel0)));
    if let Some(t0) = own_start {
        BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    exit_kernel();

    // Wait before propagating anything: the jobs borrow `kernel`, the
    // latch, and slices of `out`, all of which must stay alive until every
    // worker is done with them.
    latch.wait();
    if let Some(t0) = section_start {
        PARALLEL_SECTIONS.fetch_add(1, Ordering::Relaxed);
        WALL_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::Acquire) {
        panic!("a kernel pool worker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test for all process-global thread-knob behavior: `THREADS` is
    /// shared across the test binary, so exercising it from several
    /// parallel `#[test]`s would race the asserted values.
    #[test]
    fn thread_knob_and_panel_coverage() {
        // Clamp and getter.
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(3);
        assert_eq!(threads(), 3);

        // Scoped override wins over the process setting and restores on
        // exit — panic included.
        assert_eq!(with_threads(1, threads), 1);
        assert_eq!(with_threads(7, || with_threads(2, threads)), 2);
        assert_eq!(threads(), 3);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            with_threads(1, || panic!("boom"));
        }));
        assert!(unwound.is_err());
        assert_eq!(threads(), 3, "override leaked past a panic");

        // Even split covers every row exactly once (forced parallel path
        // via a huge work estimate) — and runs on the persistent pool.
        // (The `parallelism_watermark` bounds live in the single-test
        // `tests/thread_composition.rs` binary — the counters are
        // process-global and concurrent unit tests would race them.)
        let rows = 10;
        let width = 4;
        let mut out = vec![0.0f64; rows * width];
        for_each_row_panel(&mut out, width, usize::MAX, |first_row, panel| {
            for (r, row) in panel.chunks_exact_mut(width).enumerate() {
                for x in row.iter_mut() {
                    *x += (first_row + r) as f64;
                }
            }
        });
        for (i, row) in out.chunks_exact(width).enumerate() {
            assert!(row.iter().all(|&x| x == i as f64), "row {i}: {row:?}");
        }

        // Under a scoped pin the same call covers every row, inline.
        let mut out = vec![0.0f64; rows * width];
        with_threads(1, || {
            for_each_row_panel(&mut out, width, usize::MAX, |first_row, panel| {
                for (r, row) in panel.chunks_exact_mut(width).enumerate() {
                    for x in row.iter_mut() {
                        *x += (first_row + r) as f64;
                    }
                }
            });
        });
        for (i, row) in out.chunks_exact(width).enumerate() {
            assert!(row.iter().all(|&x| x == i as f64), "row {i}: {row:?}");
        }

        // Weighted split covers every row exactly once too, with panels
        // balanced by triangle-style weights.
        let rows = 23;
        let mut out = vec![0.0f64; rows * width];
        for_each_row_panel_by_weight(
            &mut out,
            width,
            usize::MAX,
            |p| rows - p,
            |first_row, panel| {
                for (r, row) in panel.chunks_exact_mut(width).enumerate() {
                    for x in row.iter_mut() {
                        *x += (first_row + r) as f64;
                    }
                }
            },
        );
        for (i, row) in out.chunks_exact(width).enumerate() {
            assert!(row.iter().all(|&x| x == i as f64), "row {i}: {row:?}");
        }

        // A panicking kernel on the parallel path neither deadlocks nor
        // poisons the pool for later calls.
        let mut out = vec![0.0f64; 8 * width];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            for_each_row_panel(&mut out, width, usize::MAX, |_first, _panel| {
                panic!("kernel panic");
            });
        }));
        assert!(unwound.is_err());
        let mut out = vec![1.0f64; 8 * width];
        for_each_row_panel(&mut out, width, usize::MAX, |_first, panel| {
            for x in panel.iter_mut() {
                *x += 1.0;
            }
        });
        assert!(out.iter().all(|&x| x == 2.0), "pool unusable after panic");

        set_threads(1);
    }

    #[test]
    fn pool_profile_accumulates_when_enabled() {
        // The counters are process-global; assert only monotone deltas so
        // concurrently running kernel tests cannot break this one.
        set_pool_profiling(false);
        let before = pool_profile();
        let width = 4;
        let mut out = vec![0.0f64; 4 * width];
        with_threads(1, || {
            for_each_row_panel(&mut out, width, 0, |_, panel| {
                for x in panel.iter_mut() {
                    *x += 1.0;
                }
            });
        });
        // Disabled: the inline section above must not have been counted…
        // (another test may have enabled profiling concurrently, so only
        // check the enabled path strictly).
        set_pool_profiling(true);
        assert!(pool_profiling());
        with_threads(2, || {
            for_each_row_panel(&mut out, width, usize::MAX, |_, panel| {
                for x in panel.iter_mut() {
                    *x += 1.0;
                }
            });
        });
        set_pool_profiling(false);
        let after = pool_profile();
        assert!(after.parallel_sections > before.parallel_sections);
        assert!(after.wall_nanos > before.wall_nanos);
        assert!(after.busy_nanos > before.busy_nanos);
        assert!(after.effective_parallelism() > 0.0);
        assert_eq!(PoolProfile::default().effective_parallelism(), 0.0);
    }

    #[test]
    fn empty_output_is_a_noop() {
        let mut out: Vec<f64> = vec![];
        for_each_row_panel(&mut out, 0, 0, |_, _| panic!("kernel must not run"));
        for_each_row_panel(&mut out, 8, 0, |_, _| panic!("kernel must not run"));
    }
}
