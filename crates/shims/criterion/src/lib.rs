//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no registry access, so this workspace ships a
//! minimal, API-compatible subset of criterion sufficient for the benches
//! under `crates/bench/benches/`. Two execution modes:
//!
//! * **bench mode** (`cargo bench`, i.e. a `--bench` argument is present):
//!   each closure is warmed up and then timed for up to `sample_size`
//!   samples, stopping early once the measurement time (300 ms unless a
//!   group sets it) has passed; median ns/iter is printed.
//! * **check mode** (any other invocation, e.g. a plain run of the
//!   harness-false executable): every benchmark body runs exactly once so
//!   the code stays exercised without the measurement cost.
//!
//! In either mode, the first argument that is not a flag is a name filter,
//! as in criterion: only benchmarks whose full id (`group/name`) contains
//! it run, so `cargo bench --bench sketch -- hash_many` times one group.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (benches may import either
/// this or `std::hint::black_box`).
pub use std::hint::black_box;

/// Measurement settings and output sink — the shim keeps only what the
/// benches touch.
pub struct Criterion {
    bench_mode: bool,
    /// Substring a benchmark's full id must contain for it to run.
    filter: Option<String>,
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Criterion {
            bench_mode: args.iter().any(|a| a == "--bench"),
            filter: args.into_iter().find(|a| !a.starts_with('-')),
            sample_size: 20,
            measurement_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (n, budget) = (self.sample_size, self.measurement_time);
        run_one(self, n, budget, id, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            measurement_time: None,
            ran: false,
        }
    }
}

/// A group of benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
    /// Whether the name filter let any of the group's benchmarks run.
    ran: bool,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Overrides the time budget for this group's samples: sampling stops
    /// after `sample_size` samples or once `dur` has passed.
    pub fn measurement_time(&mut self, dur: Duration) -> &mut Self {
        self.measurement_time = Some(dur);
        self
    }

    /// The group's sample count and time budget.
    fn settings(&self) -> (usize, Duration) {
        (
            self.sample_size.unwrap_or(self.criterion.sample_size),
            self.measurement_time
                .unwrap_or(self.criterion.measurement_time),
        )
    }

    /// Records the per-iteration throughput (accepted and ignored).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        let (n, budget) = self.settings();
        self.ran |= run_one(self.criterion, n, budget, &full, &mut f);
        self
    }

    /// Runs one benchmark parameterized by an input value.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.0);
        let (n, budget) = self.settings();
        self.ran |= run_one(self.criterion, n, budget, &full, &mut |b| f(b, input));
        self
    }

    /// Ends the group (separator line in bench mode, if any of it ran).
    pub fn finish(self) {
        if self.criterion.bench_mode && self.ran {
            println!();
        }
    }
}

/// Identifier of one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id carrying a function name and a parameter.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// An id from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Throughput annotation (display only in real criterion; ignored here).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to each benchmark body; `iter` runs the measured closure.
pub struct Bencher {
    mode: BenchMode,
    /// Measured samples in nanoseconds per iteration.
    samples: Vec<f64>,
}

enum BenchMode {
    /// Run the body once, unmeasured.
    Check,
    /// Collect up to `samples` timed samples within `budget`.
    Measure { samples: usize, budget: Duration },
}

impl Bencher {
    /// Calls `routine` repeatedly and records its time per iteration.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        match self.mode {
            BenchMode::Check => {
                black_box(routine());
            }
            BenchMode::Measure { samples, budget } => {
                // Warm-up: one call, which also sizes the batch so each
                // sample lasts ≳1 ms without overshooting the time budget.
                let t0 = Instant::now();
                black_box(routine());
                let once = t0.elapsed().max(Duration::from_nanos(50));
                let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).max(1) as u64;
                let started = Instant::now();
                for _ in 0..samples {
                    let t = Instant::now();
                    for _ in 0..batch {
                        black_box(routine());
                    }
                    let dt = t.elapsed();
                    self.samples.push(dt.as_nanos() as f64 / batch as f64);
                    if started.elapsed() > budget {
                        break;
                    }
                }
            }
        }
    }
}

/// Runs benchmark `id` unless the name filter excludes it; returns
/// whether it ran.
fn run_one(
    c: &Criterion,
    samples: usize,
    budget: Duration,
    id: &str,
    f: &mut dyn FnMut(&mut Bencher),
) -> bool {
    if c.filter
        .as_deref()
        .is_some_and(|filter| !id.contains(filter))
    {
        return false;
    }
    let mut b = Bencher {
        mode: if c.bench_mode {
            BenchMode::Measure { samples, budget }
        } else {
            BenchMode::Check
        },
        samples: Vec::new(),
    };
    f(&mut b);
    if c.bench_mode {
        b.samples
            .sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
        let median = b
            .samples
            .get(b.samples.len() / 2)
            .copied()
            .unwrap_or(f64::NAN);
        println!(
            "bench {id:<50} {median:>14.0} ns/iter ({} samples)",
            b.samples.len()
        );
    }
    true
}

/// Bundles benchmark functions into one group runner, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` from group runners, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_mode_runs_body_once() {
        let mut calls = 0usize;
        let mut b = Bencher {
            mode: BenchMode::Check,
            samples: Vec::new(),
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(b.samples.is_empty());
    }

    #[test]
    fn measure_mode_collects_samples() {
        let mut b = Bencher {
            mode: BenchMode::Measure {
                samples: 5,
                budget: Duration::from_millis(300),
            },
            samples: Vec::new(),
        };
        b.iter(|| black_box(3u64.wrapping_mul(7)));
        assert!(!b.samples.is_empty());
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn measurement_time_bounds_the_samples() {
        // Each call sleeps 2 ms, so a sample is one call after the warm-up
        // call: a zero budget stops after the first sample, a generous one
        // takes all four.
        for (budget, want) in [(Duration::ZERO, 2), (Duration::from_secs(10), 5)] {
            let mut c = Criterion {
                bench_mode: true,
                filter: None,
                ..Criterion::default()
            };
            let mut calls = 0;
            c.benchmark_group("g")
                .sample_size(4)
                .measurement_time(budget)
                .bench_function("sleep", |b| {
                    b.iter(|| {
                        calls += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    })
                });
            assert_eq!(calls, want, "budget {budget:?}");
        }
    }

    #[test]
    fn name_filter_runs_only_matching_ids() {
        for (filter, want) in [(Some("scalar/4"), vec![4]), (None, vec![2, 4, 0])] {
            let mut c = Criterion {
                bench_mode: false,
                filter: filter.map(String::from),
                ..Criterion::default()
            };
            let mut ran = Vec::new();
            let mut group = c.benchmark_group("hash_many");
            for k in [2, 4] {
                group.bench_with_input(BenchmarkId::new("scalar", k), &k, |b, &k| {
                    b.iter(|| ran.push(k))
                });
            }
            group.finish();
            c.bench_function("countsketch_merge", |b| b.iter(|| ran.push(0)));
            assert_eq!(ran, want, "filter {filter:?}");
        }
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::from_parameter(64).0, "64");
        assert_eq!(BenchmarkId::new("svd", "128x64").0, "svd/128x64");
    }
}
