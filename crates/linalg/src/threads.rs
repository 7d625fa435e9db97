//! The kernel thread-count knob and the row-panel fan-out the kernels run
//! on.
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
//! A kernel section with a budget of one thread, or with less work than
//! `PARALLEL_WORK_FLOOR`, runs inline on the caller. A larger one runs its
//! first panel on the caller and each other panel on a
//! [`std::thread::scope`] thread, so the panels borrow the output and the
//! kernel directly, every panel is joined before the call returns, and a
//! panic in any panel is re-raised on the caller. A spawned panel costs
//! about 35 µs (2-vCPU x86-64 host), which the work floor keeps off small
//! kernels. A section adds at most `threads() − 1` live kernel threads to
//! the caller's own.
//!
//! Thread count never changes results: each panel owns a disjoint slice of
//! the output and every output element is accumulated in the same fixed
//! summation order regardless of how the panels are distributed, so kernels
//! are bit-identical across thread counts (proved by
//! `tests/kernel_equivalence.rs`).

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Live kernel execution contexts (panels running on a caller or on a
/// spawned panel thread) and the high-water mark since the last
/// [`reset_parallelism_watermark`].
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// One live kernel context, counted in `ACTIVE` until it drops — on
/// unwind too, so a panicking panel cannot leave the count raised.
struct LiveKernel;

impl LiveKernel {
    fn enter() -> Self {
        let now = ACTIVE.fetch_add(1, Ordering::AcqRel) + 1;
        PEAK.fetch_max(now, Ordering::AcqRel);
        LiveKernel
    }
}

impl Drop for LiveKernel {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Resets the high-water mark of concurrently live kernel threads to the
/// currently live count. Diagnostics: tests use this to prove the kernel
/// and runtime parallelism layers do not oversubscribe multiplicatively.
pub fn reset_parallelism_watermark() {
    PEAK.store(ACTIVE.load(Ordering::Acquire), Ordering::Release);
}

/// The maximum number of kernel threads (callers plus spawned panel
/// threads) that were live at once since the last
/// [`reset_parallelism_watermark`].
pub fn parallelism_watermark() -> usize {
    PEAK.load(Ordering::Acquire)
}

/// Pool profiling: per-section wall time and per-panel busy time, recorded
/// only while [`set_pool_profiling`] is on. When off (the default) the cost
/// is one relaxed atomic load per kernel section — no clock reads — and
/// results are never affected either way.
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

/// Profile of the kernel panel fan-out: how many kernel sections ran
/// parallel vs inline, total section wall time, and total busy time across
/// every panel, the callers' own included. `busy / wall` is the effective
/// parallelism actually achieved (vs the configured `threads()`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Kernel sections that ran panels on spawned threads.
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

/// Below this many flops a spawned panel's start-up and join cost more
/// than the work it takes off the caller.
const PARALLEL_WORK_FLOOR: usize = 1 << 21;

/// Runs `kernel` over the rows of a contiguous row-major output buffer,
/// split into one contiguous row panel per thread with (near-)equal row
/// counts.
///
/// `kernel(first_row, panel)` must fill `panel` (rows `first_row ..
/// first_row + panel.len() / row_width`) without reading any other panel —
/// the disjoint `&mut` split makes that structurally impossible to violate.
///
/// `work` is a rough flop count for the whole call; cheap calls and
/// single-thread configurations run inline on the caller's stack, so tiny
/// matrices never pay for a spawned thread.
pub(crate) fn for_each_row_panel<F>(out: &mut [f64], row_width: usize, work: usize, kernel: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    for_each_row_panel_by_weight(out, row_width, work, |_| 1, kernel)
}

/// [`for_each_row_panel`] with panel boundaries chosen so every thread gets
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
    let t = if work < PARALLEL_WORK_FLOOR {
        1
    } else {
        threads().min(rows)
    };
    let profiled = pool_profiling();
    let section_start = profiled.then(Instant::now);
    let mut panels = panel_rows(rows, t, row_weight);
    let own = panels.next().expect("a non-empty output has a first panel");
    let parallel = own.end < rows;
    let (own_panel, mut rest) = out.split_at_mut(own.end * row_width);
    let kernel = &kernel;
    // Panel 0 runs on the caller; every other panel on its own scoped
    // thread, pinned to one kernel thread so a kernel that re-enters the
    // fan-out runs inline. The scope joins them all before it returns, and
    // panics on the caller if any panel panicked.
    std::thread::scope(|scope| {
        for range in panels {
            let (panel, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * row_width);
            rest = tail;
            scope
                .spawn(move || with_threads(1, || run_panel(kernel, range.start, panel, profiled)));
        }
        run_panel(kernel, 0, own_panel, profiled);
    });
    if let Some(t0) = section_start {
        let sections = if parallel {
            &PARALLEL_SECTIONS
        } else {
            &INLINE_SECTIONS
        };
        sections.fetch_add(1, Ordering::Relaxed);
        WALL_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The row ranges of at most `t` contiguous panels of (near-)equal total
/// `row_weight`: walk the rows accumulating weight and cut at each
/// multiple of `total / t`. Every panel takes at least one row and the
/// last one every row left, so skewed weights can yield fewer than `t`.
fn panel_rows(
    rows: usize,
    t: usize,
    row_weight: impl Fn(usize) -> usize,
) -> impl Iterator<Item = Range<usize>> {
    // A single panel needs no weights.
    let target = if t > 1 {
        (0..rows).map(&row_weight).sum::<usize>().div_ceil(t).max(1)
    } else {
        0
    };
    let (mut row, mut acc, mut panels_left) = (0, 0, t);
    std::iter::from_fn(move || {
        if row == rows {
            return None;
        }
        let row0 = row;
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
        Some(row0..row)
    })
}

/// Runs one panel as a live kernel context, adding its time to the busy
/// total when `profiled`.
fn run_panel<F: Fn(usize, &mut [f64])>(
    kernel: &F,
    first_row: usize,
    panel: &mut [f64],
    profiled: bool,
) {
    let _live = LiveKernel::enter();
    let start = profiled.then(Instant::now);
    kernel(first_row, panel);
    if let Some(t0) = start {
        BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        // via a huge work estimate).
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
        // breaks later calls.
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
        assert!(out.iter().all(|&x| x == 2.0), "unusable after a panic");

        // A panic in a spawned panel alone, while the caller's panel 0
        // runs clean, still reaches the caller; the next parallel call
        // fills every row.
        let mut out = vec![0.0f64; 8 * width];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            with_threads(3, || {
                for_each_row_panel(&mut out, width, usize::MAX, |first_row, _panel| {
                    assert_eq!(first_row, 0, "spawned panel panic");
                });
            });
        }));
        assert!(unwound.is_err(), "a spawned panel's panic was lost");
        let mut out = vec![0.0f64; 8 * width];
        with_threads(3, || {
            for_each_row_panel(&mut out, width, usize::MAX, |first_row, panel| {
                for (r, row) in panel.chunks_exact_mut(width).enumerate() {
                    row.fill((first_row + r) as f64);
                }
            });
        });
        for (i, row) in out.chunks_exact(width).enumerate() {
            assert!(row.iter().all(|&x| x == i as f64), "row {i}: {row:?}");
        }

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
