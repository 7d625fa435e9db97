//! The repository benchmark: one command that runs a pinned workload
//! against the public `dlra::runtime::Service`, checks the outputs, and
//! prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_prepare|warm_svd|socket_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs a shorter service window for the service and planner counters,
//! then replays the window's first queries through the layers' public calls
//! twice — plain, and with spans plus the collective decorator — and prints
//! the per-layer metrics. The last stdout line is one JSON object; a failed
//! check makes it say `"correct": false` and the process exit 1.

mod check;
mod drive;
mod replay;
mod spec;
mod stats;
mod traced;

use crate::drive::{Record, Window};
use crate::replay::{Replayed, Step};
use crate::spec::{Load, Seeds, Workload};
use crate::traced::{Recorder, SpanRec};
use dlra::core::{build_b_matrix, fetch_global_rows, fkv_projection, PartitionModel};
use dlra::linalg::Matrix;
use dlra::runtime::{QueryOutcome, ServiceError};
use std::collections::BTreeMap;
use std::time::Instant;

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// The collectives whose time and words are reported one by one.
const LABELS: [&str; 5] = [
    "zest.seed",
    "zest.sketch",
    "zest.lookup",
    "zsamp.inject",
    "alg1.fetch_rows",
];

/// Where the traced run writes its chrome trace and phase table.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts of a window: a shed, failed, cancelled or expired query — any
/// terminal other than `Ok` — is a failure.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    attempted: u64,
    failed: u64,
}

fn counts<'a>(results: impl IntoIterator<Item = &'a Result<QueryOutcome, ServiceError>>) -> Counts {
    results.into_iter().fold(Counts::default(), |c, r| Counts {
        attempted: c.attempted + 1,
        failed: c.failed + u64::from(r.is_err()),
    })
}

/// Ledger words this query physically moved: a plan-cache hit does not
/// re-count the preparation it reused.
fn words_paid(outcome: &QueryOutcome) -> u64 {
    let total = outcome.output.comm.total_words();
    match outcome.plan {
        Some(plan) if plan.cache_hit => total - plan.prepare_comm.total_words(),
        _ => total,
    }
}

fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: dlra-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for v in &report.violations {
                println!("VIOLATION: {v}");
            }
            println!("{}", report.json());
            if !report.violations.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    // Pin what the library would otherwise take from the environment.
    dlra::obs::trace::disable();
    dlra::linalg::set_threads(spec::KERNEL_THREADS);
    println!(
        "# {} seed={} seconds={} trace={} nproc={} kernel_threads={} gate_c={} held_out_seed={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        spec::KERNEL_THREADS,
        spec::GATE_C,
        spec::HELD_OUT_SEED
    );
    println!("# {:?}", w.config);
    println!(
        "# f={:?} load={:?} seeds={:?} k=1..={} r={}..={}",
        w.f, w.load, w.seeds, w.k_max, w.r_min, w.r_max
    );
    println!("# {:?}", w.params);

    let data = w.datasets();
    let repeats = if args.trace { 1 } else { spec::SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut current = None;
    for _ in 0..repeats {
        // The previous service shuts down outside the timed region.
        drop(current.take());
        let (service, handles, secs) = drive::setup(&w, &data, args.seed)?;
        setup_s.push(secs);
        current = Some((service, handles));
    }
    let (service, handles) = current.expect("at least one set-up");

    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    if let Load::Open { .. } = w.load {
        // Socket query latencies settle only after some seconds of load (the
        // first open-loop run after an idle spell measured up to 5× slower),
        // so two closed-loop clients run unrecorded first, without reloads.
        drive::prewarm(&w, &handles, spec::mix(args.seed, 0x9E_A4), spec::PREWARM_S);
    }
    dlra::linalg::reset_pool_profile();
    let window = drive::run_window(&w, &service, &handles, args.seed, window_s, || {
        w.datasets().swap_remove(0)
    });
    let pool = dlra::linalg::pool_profile();
    let registry = service
        .metrics()
        .ok_or("the pinned config keeps metrics on")?;
    let shed = service.pressure().rejected_overload;
    let plan_stats: Vec<_> = handles
        .iter()
        .map(|h| h.plan_stats().unwrap_or_default())
        .collect();
    drop(handles);
    drop(service);

    let mut report = Report::default();
    let Counts { attempted, failed } = counts(window.records.iter().map(|r| &r.result));
    report.attempted = attempted;
    report.failed = failed;
    report.require(attempted > 0, || "the window attempted no query".into());
    report.require(failed == 0, || {
        format!("{failed} of {attempted} queries failed")
    });

    let evaluators: Vec<check::Evaluator> = data
        .iter()
        .map(|parts| {
            let model = PartitionModel::new(parts.clone(), w.f).map_err(|e| e.to_string())?;
            check::Evaluator::new(model.global_matrix())
        })
        .collect::<Result<_, _>>()?;
    let (comm_ratio, additive_error) = gate(&w, &data, &evaluators, &window, &mut report);

    // Exact planner counts. Every prepared plan but each tenant's last is
    // invalidated exactly once. Each reload invalidates one plan; a reload
    // that lands while a query of the old epoch is between its epoch read
    // and its plan lookup makes that query prepare the old epoch again,
    // which is one more miss and one more invalidation.
    let misses: u64 = plan_stats.iter().map(|s| s.misses).sum();
    let invalidations: u64 = plan_stats.iter().map(|s| s.invalidations).sum();
    let expected = match w.seeds {
        Seeds::Fresh => w.warmups(args.seed).len() as u64 + attempted,
        Seeds::PerTenant => w.tenants as u64 + invalidations,
    };
    println!(
        "# {misses} plan misses, {invalidations} invalidations, {} reloads",
        window.reloads
    );
    report.require(misses == expected, || {
        format!("planner.misses = {misses}, expected {expected}")
    });

    if args.trace {
        let completed = window
            .records
            .iter()
            .filter(|r| r.result.is_ok())
            .count()
            .max(1) as f64;
        let hist = |f: fn(&dlra::obs::DatasetMetricsSnapshot) -> &dlra::obs::HistogramSnapshot| {
            registry
                .datasets
                .iter()
                .map(|d| f(d).sum_micros as f64 / 1e6)
                .sum::<f64>()
        };
        let done: u64 = registry.datasets.iter().map(|d| d.completed).sum();
        let prepares: u64 = registry.datasets.iter().map(|d| d.prepare.count).sum();
        let submit: Vec<f64> = window.records.iter().map(|r| r.submit_s).collect();
        let late: Vec<f64> = window.records.iter().map(|r| r.late_s).collect();
        report.metric("service.submit_s", stats::median(&submit), "s");
        report.metric(
            "service.queue_dispatch_s",
            (hist(|d| &d.latency) - hist(|d| &d.prepare) - hist(|d| &d.execute))
                / done.max(1) as f64,
            "s",
        );
        report.metric("service.shed", shed as f64, "count");
        report.metric(
            "planner.hits",
            plan_stats.iter().map(|s| s.hits).sum::<u64>() as f64,
            "count",
        );
        report.metric("planner.misses", misses as f64, "count");
        report.metric("planner.invalidations", invalidations as f64, "count");
        report.metric(
            "planner.prepare_s",
            hist(|d| &d.prepare) / prepares.max(1) as f64,
            "s",
        );
        report.metric(
            "linalg.pool_busy_s",
            pool.busy_nanos as f64 / 1e9 / completed,
            "s",
        );
        report.metric(
            "linalg.pool_parallelism",
            pool.effective_parallelism(),
            "ratio",
        );
        report.metric("loadgen.late_p99_s", stats::quantile(&late, 0.99), "s");
        traced_layers(&w, &data, &window, args, &mut report)?;
    } else {
        let latencies: Vec<f64> = window
            .records
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.latency_s)
            .collect();
        // An open loop's tail is taken per two reload periods, so every
        // batch holds the same number of reload stalls.
        let batch_len = match w.load {
            Load::Open { reload_every, .. } => 2 * reload_every as usize,
            Load::Closed { .. } => latencies.len(),
        };
        let (tail, batches) = stats::batched_tail(&latencies, TAIL_BEYOND, batch_len);
        println!(
            "# query_tail_s is p{:.2} ({} beyond), median over {batches} batch(es) of {} completed queries",
            tail.percentile,
            tail.beyond,
            latencies.len()
        );
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("query_p50_s", stats::median(&latencies), "s");
        report.metric("query_tail_s", tail.value, "s");
        report.metric(
            "throughput_qps",
            latencies.len() as f64 / window.elapsed_s,
            "1/s",
        );
        report.metric(
            "ok_ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.metric("comm_ratio", comm_ratio, "ratio");
        report.metric("additive_error", additive_error, "ratio");
        report.metric("peak_rss_bytes", peak_rss_bytes(), "bytes");
    }
    Ok(report)
}

/// The correctness gate over the window. Returns `comm_ratio` and the mean
/// `additive_error` of the evaluated queries.
fn gate(
    w: &Workload,
    data: &[Vec<Matrix>],
    evaluators: &[check::Evaluator],
    window: &Window,
    report: &mut Report,
) -> (f64, f64) {
    let ok: Vec<(&Record, &QueryOutcome)> = window
        .records
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|o| (r, o)))
        .collect();
    let paid: f64 = ok.iter().map(|(_, o)| words_paid(o) as f64).sum();
    let comm_ratio = paid / ok.len().max(1) as f64 / w.ship_words(&data[0]);
    report.require(comm_ratio < 1.0, || format!("comm_ratio {comm_ratio} ≥ 1"));

    let mut errors = Vec::new();
    for (rec, out) in ok.iter().filter(|(r, _)| r.index < w.eval_queries) {
        let spec = rec.spec;
        match evaluators[spec.tenant].additive_error(&out.output.projection, spec.k) {
            Ok(e) => {
                report.require(
                    check::within_prediction(e, spec::GATE_C, spec.k, spec.r),
                    || {
                        format!(
                            "query {}: additive_error {e} > {}·k²/r ({spec:?})",
                            rec.index,
                            spec::GATE_C
                        )
                    },
                );
                errors.push(e);
            }
            Err(e) => report.require(false, || {
                format!("query {}: evaluation failed: {e}", rec.index)
            }),
        }
        if rec.index < spec::GATE_QUERIES {
            if let Err(e) = check::gate_sequential(w, &data[spec.tenant], &spec, &out.output) {
                report.require(false, || e);
            }
        }
    }
    report.require(!errors.is_empty(), || "no query was evaluated".into());
    let additive_error = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    println!(
        "# additive_error is the mean of {} evaluated queries",
        errors.len()
    );
    (comm_ratio, additive_error)
}

/// The replayed steps: set-up queries, then the window's arrivals in order.
fn steps(w: &Workload, seed: u64, window: &Window) -> Vec<Step> {
    let warm = w.warmups(seed).into_iter().map(|spec| Step {
        index: None,
        spec,
        reload_before: false,
    });
    let arrivals = window.records.iter().map(|r| Step {
        index: Some(r.index),
        spec: r.spec,
        reload_before: w.reload_before(r.index),
    });
    warm.chain(arrivals).collect()
}

/// Replays, plain then traced; checks bit-identity; folds the spans into
/// per-layer metrics.
fn traced_layers(
    w: &Workload,
    data: &[Vec<Matrix>],
    window: &Window,
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let all = steps(w, args.seed, window);
    // The plain replay runs until a quarter of the run's seconds is spent;
    // the traced replay repeats exactly the same queries.
    let plain = replay::replay(w, data, &all, None, args.seconds / 4.0)?;
    let steps = &all[..plain.len()];
    let rec = Recorder::new();
    let traced = replay::replay(w, data, steps, Some(&rec), f64::INFINITY)?;

    let by_index: BTreeMap<u64, &QueryOutcome> = window
        .records
        .iter()
        .filter_map(|r| Some((r.index, r.result.as_ref().ok()?)))
        .collect();
    for (p, t) in plain.iter().zip(&traced) {
        report.require(
            check::same_output(&p.output, &t.output)
                && p.output.comm == t.output.comm
                && p.cache_hit == t.cache_hit
                && check::same_events(&p.events, &t.events),
            || {
                format!(
                    "traced replay of step {:?} differs from the plain replay",
                    p.step
                )
            },
        );
        if let Some(served) = p.step.index.and_then(|i| by_index.get(&i)) {
            report.require(
                check::same_output(&p.output, &served.output)
                    && served.output.comm == p.plan.prepare_comm + p.output.comm,
                || {
                    format!(
                        "replay of query {:?} differs from the service",
                        p.step.index
                    )
                },
            );
        }
    }

    let in_window = |r: &&Replayed| r.step.index.is_some();
    let n = traced.iter().filter(in_window).count().max(1) as f64;
    let spans = rec.spans();
    let mut per_qid: BTreeMap<u64, Vec<SpanRec>> = BTreeMap::new();
    for s in &spans {
        per_qid.entry(s.qid).or_default().push(s.clone());
    }

    // Self time per span name over the window queries, plus collective
    // time, words, messages and rounds per label.
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut dur_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut label_words: BTreeMap<&str, u64> = BTreeMap::new();
    let mut label_msgs: BTreeMap<&str, u64> = BTreeMap::new();
    let mut rounds = 0u64;
    let mut table = String::from("qid\tindex\twall_us\tconstruct_us\tplanner_us\tsampler_us\tcomm_us\texecute_self_us\tteardown_us\tbench_us\twords\tmessages\twire_bytes\n");
    for r in traced.iter().filter(in_window) {
        let spans = &per_qid[&r.qid];
        let selfs = traced::self_times(spans);
        let mut row: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&selfs) {
            let key = if s.cat == "comm" { "comm" } else { s.name };
            *row.entry(key).or_default() += own;
            *self_ns.entry(key).or_default() += own;
            *dur_ns.entry(s.name).or_default() += s.dur();
            if s.cat == "comm" {
                *label_words.entry(s.name).or_default() += s.comm.total_words();
                *label_msgs.entry(s.name).or_default() += s.comm.messages;
                rounds += s.comm.rounds;
            }
        }
        let wall = spans
            .iter()
            .find(|s| s.name == "query")
            .map_or(0, SpanRec::dur);
        let us = |k: &str| row.get(k).copied().unwrap_or(0) / 1000;
        table.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.qid,
            r.step.index.unwrap_or(0),
            wall / 1000,
            us("substrate.construct"),
            us("planner.get_or_prepare"),
            us("core.prepare"),
            us("comm"),
            us("core.execute"),
            us("substrate.teardown"),
            us("query"),
            r.output.comm.total_words(),
            r.output.comm.messages,
            r.wire.total_bytes()
        ));
    }
    let wall_ns: u64 = dur_ns.get("query").copied().unwrap_or(0);
    let per_q = |m: &BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64 / 1e9 / n;
    // Preparations are averaged over every replayed one (on warm_svd the
    // only one is the set-up query's).
    let prepares: Vec<(u64, u64)> = per_qid
        .values()
        .flat_map(|spans| {
            let selfs = traced::self_times(spans);
            spans
                .iter()
                .zip(selfs)
                .filter(|(s, _)| s.name == "core.prepare")
                .map(|(s, own)| (s.dur(), own))
                .collect::<Vec<_>>()
        })
        .collect();
    let np = prepares.len().max(1) as f64;
    report.metric(
        "substrate.construct_s",
        per_q(&self_ns, "substrate.construct"),
        "s",
    );
    report.metric(
        "substrate.teardown_s",
        per_q(&self_ns, "substrate.teardown"),
        "s",
    );
    report.metric(
        "planner.self_s",
        per_q(&self_ns, "planner.get_or_prepare"),
        "s",
    );
    report.metric(
        "core.prepare_s",
        prepares.iter().map(|p| p.0).sum::<u64>() as f64 / 1e9 / np,
        "s",
    );
    report.metric(
        "sampler.coordinator_s",
        prepares.iter().map(|p| p.1).sum::<u64>() as f64 / 1e9 / np,
        "s",
    );
    report.metric("core.execute_s", per_q(&dur_ns, "core.execute"), "s");
    report.metric("core.execute_self_s", per_q(&self_ns, "core.execute"), "s");
    report.metric("comm.self_s", per_q(&self_ns, "comm"), "s");
    for label in LABELS {
        report.metric(format!("comm.{label}_s"), per_q(&dur_ns, label), "s");
        report.metric(
            format!("comm.{label}.words"),
            label_words.get(label).copied().unwrap_or(0) as f64 / n,
            "count",
        );
        report.metric(
            format!("comm.{label}.messages"),
            label_msgs.get(label).copied().unwrap_or(0) as f64 / n,
            "count",
        );
    }
    report.metric("comm.rounds_per_query", rounds as f64 / n, "count");
    let wire = traced
        .iter()
        .filter(in_window)
        .fold((0u64, 0u64, 0u64), |acc, r| {
            (
                acc.0 + r.wire.total_bytes(),
                acc.1 + r.wire.data_frames,
                acc.2 + r.wire.control_bytes,
            )
        });
    report.metric("net.bytes_per_query", wire.0 as f64 / n, "bytes");
    report.metric("net.data_frames_per_query", wire.1 as f64 / n, "count");
    report.metric("net.control_bytes_per_query", wire.2 as f64 / n, "bytes");
    let fkv_s = fkv_seconds(w, data, &traced, report)?;
    report.metric("linalg.fkv_projection_s", fkv_s, "s");

    let layer_ns: u64 = self_ns
        .iter()
        .filter(|(k, _)| **k != "query")
        .map(|(_, v)| v)
        .sum();
    let self_sum_ratio = layer_ns as f64 / wall_ns.max(1) as f64;
    report.metric("trace.self_sum_ratio", self_sum_ratio, "ratio");
    report.require((0.95..=1.0).contains(&self_sum_ratio), || {
        format!("layer self-times cover {self_sum_ratio} of the query wall (need ≥ 0.95)")
    });
    let wall = |rs: &[Replayed]| {
        stats::median(
            &rs.iter()
                .filter(in_window)
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    report.metric(
        "trace.overhead_ratio",
        wall(&traced) / wall(&plain),
        "ratio",
    );
    report.metric(
        "trace.queries",
        traced.iter().filter(in_window).count() as f64,
        "count",
    );

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-{}", w.name, args.seed);
    std::fs::write(format!("{stem}.trace.json"), traced::chrome_trace(&spans))
        .and_then(|_| std::fs::write(format!("{stem}.phases.tsv"), table))
        .map_err(|e| format!("{stem}: {e}"))?;
    println!("# wrote {stem}.trace.json and {stem}.phases.tsv");
    Ok(())
}

/// Time of `fkv_projection` on each window query's own `r×d` matrix `B`,
/// rebuilt from the query's sampled rows (fetched on a sequential model)
/// and the plan's `Ẑ`. The rebuilt projection must equal the query's.
fn fkv_seconds(
    w: &Workload,
    data: &[Vec<Matrix>],
    traced: &[Replayed],
    report: &mut Report,
) -> Result<f64, String> {
    let zfn = w.f.z_fn().ok_or("the pinned f has a z")?;
    let mut models = data
        .iter()
        .map(|parts| PartitionModel::new(parts.clone(), w.f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for r in traced.iter().filter(|r| r.step.index.is_some()) {
        let z_hat = r.plan.sampler().z_hat();
        let rows = fetch_global_rows(&mut models[r.step.spec.tenant], &r.output.rows)
            .map_err(|e| e.to_string())?;
        let sampled: Vec<_> = rows
            .into_iter()
            .map(|row| {
                let zmass: f64 = row.raw.iter().map(|&x| zfn.z(x)).sum();
                row.into_sampled((zmass / z_hat).min(1.0))
            })
            .collect();
        let b = build_b_matrix(&sampled).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let (projection, _) = fkv_projection(&b, r.step.spec.k).map_err(|e| e.to_string())?;
        times.push(start.elapsed().as_secs_f64());
        report.require(
            projection
                .basis()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .eq(r
                    .output
                    .projection
                    .basis()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())),
            || {
                format!(
                    "rebuilt B of query {:?} gives another projection",
                    r.step.index
                )
            },
        );
    }
    Ok(times.iter().sum::<f64>() / times.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra::runtime::{Query, Service, ServiceConfig, Substrate};

    #[test]
    fn shed_and_failed_queries_count_as_failures() {
        let service = Service::new(ServiceConfig {
            executors: 1,
            substrate: Substrate::Sequential,
            plan_cache: 4,
            metrics: true,
            topology: dlra::comm::Topology::Star,
            max_queue_depth: Some(1),
            memory_budget: None,
        });
        let mut rng = dlra::util::Rng::new(3);
        let parts: Vec<Matrix> = (0..2).map(|_| Matrix::gaussian(64, 4, &mut rng)).collect();
        let handle = service.load("t", parts).unwrap();
        let ok = Query::rank(1).samples(8).build().unwrap();
        let too_wide = Query::rank(5).samples(8).build().unwrap();
        // The first submission holds the only admission slot while the
        // second arrives, so the second is shed.
        let tickets = vec![handle.submit(&ok), handle.submit(&ok)];
        let shed = tickets[1].shed();
        let mut results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        results.push(handle.submit(&too_wide).wait());
        results.push(handle.submit(&ok).wait());
        let c = counts(&results);
        assert_eq!(c.attempted, 4);
        assert_eq!(c.failed, 1 + u64::from(shed));
        assert!(results[2].is_err() && results[3].is_ok());
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload warm_svd --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("warm_svd", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload warm_svd --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload warm_svd --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload warm_svd --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload warm_svd --seed 3 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.metric("query_p50_s", 0.25, "s");
        r.metric("bad", f64::NAN, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"query_p50_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        r.require(false, || "x".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
