//! Observability acceptance suite: the metrics registry and the tracer
//! observe queries **without perturbing them**.
//!
//! * Ledger-derived comm metrics are bit-identical across repeated runs,
//!   kernel thread counts (1 vs 2), and plan-cache on/off (total words;
//!   the prepare/execute *split* legitimately differs — a warm cache pays
//!   no preparation, an unplanned run has no prepare phase at all).
//! * Query outputs and per-query ledgers are bit-identical with tracing
//!   enabled and disabled, on the threaded and the socket substrate, and
//!   the trace holds their `comm.<collective>` spans.
//! * The latency histogram's bucket boundaries are fixed powers of two —
//!   quantiles are deterministic bucket upper bounds, never interpolated.
//! * A metrics-disabled service reports `None`; an enabled one exports
//!   coherent JSON and Prometheus text.

mod support;

use dlra::obs::metrics::LATENCY_BUCKET_BOUNDS_MICROS;
use dlra::obs::trace;
use dlra::prelude::*;
use dlra::runtime::{ServiceConfig, Substrate};
use support::shares;

fn config(plan_cache: usize, metrics: bool) -> ServiceConfig {
    ServiceConfig {
        executors: 2,
        substrate: Substrate::Threaded,
        plan_cache,
        metrics,
        ..Default::default()
    }
}

fn z_query(k: usize, r: usize, seed: u64) -> Query {
    Query::rank(k)
        .samples(r)
        .sampler(SamplerKind::Z(ZSamplerParams::default()))
        .seed(seed)
        .build()
        .expect("valid query")
}

/// Runs the reference workload (two repeated plan keys + one uniform
/// query) and returns the per-query outputs plus the dataset's metric
/// snapshot.
fn run_workload(
    cfg: ServiceConfig,
) -> (
    Vec<QueryOutcome>,
    Option<dlra::obs::metrics::DatasetMetricsSnapshot>,
) {
    let mut service = Service::new(cfg);
    let handle = service.load("tenant", shares(3, 90, 14, 4, 7)).unwrap();
    let queries = [
        z_query(3, 30, 11),
        z_query(3, 30, 11), // same plan key: a hit when caching is on
        z_query(4, 36, 13),
        Query::rank(2)
            .samples(20)
            .sampler(SamplerKind::Uniform)
            .seed(5)
            .build()
            .unwrap(),
    ];
    let tickets: Vec<Ticket> = queries.iter().map(|q| handle.submit(q)).collect();
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let snapshot = service
        .metrics()
        .and_then(|m| m.datasets.into_iter().find(|d| d.name == "tenant"));
    service.shutdown();
    (outcomes, snapshot)
}

#[test]
fn latency_bucket_bounds_are_fixed_powers_of_two() {
    assert_eq!(LATENCY_BUCKET_BOUNDS_MICROS.len(), 25);
    for (i, &bound) in LATENCY_BUCKET_BOUNDS_MICROS.iter().enumerate() {
        assert_eq!(bound, 1u64 << i, "bucket {i} must be 2^{i} µs");
    }
    // 2^24 µs ≈ 16.8 s: the last finite bound; anything slower lands in
    // the overflow bucket and reports its quantile as u64::MAX.
    assert_eq!(*LATENCY_BUCKET_BOUNDS_MICROS.last().unwrap(), 16_777_216);
}

#[test]
fn comm_metrics_identical_across_repeated_runs() {
    let (out_a, snap_a) = run_workload(config(8, true));
    let (out_b, snap_b) = run_workload(config(8, true));
    let (snap_a, snap_b) = (snap_a.unwrap(), snap_b.unwrap());
    assert_eq!(snap_a.comm, snap_b.comm, "folded comm words must not vary");
    assert_eq!(snap_a.prepare_comm, snap_b.prepare_comm);
    assert_eq!(snap_a.execute_comm, snap_b.execute_comm);
    for (a, b) in out_a.iter().zip(&out_b) {
        assert_eq!(a.output.comm, b.output.comm);
        assert_eq!(a.output.projection, b.output.projection);
    }
}

#[test]
fn comm_metrics_identical_across_thread_counts() {
    let before = dlra::linalg::threads();
    dlra::linalg::set_threads(1);
    let (out_1, snap_1) = run_workload(config(8, true));
    dlra::linalg::set_threads(2);
    let (out_2, snap_2) = run_workload(config(8, true));
    dlra::linalg::set_threads(before);
    let (snap_1, snap_2) = (snap_1.unwrap(), snap_2.unwrap());
    assert_eq!(snap_1.comm, snap_2.comm);
    assert_eq!(snap_1.prepare_comm, snap_2.prepare_comm);
    assert_eq!(snap_1.execute_comm, snap_2.execute_comm);
    for (a, b) in out_1.iter().zip(&out_2) {
        assert_eq!(a.output.comm, b.output.comm);
        assert_eq!(a.output.projection, b.output.projection);
    }
}

#[test]
fn total_comm_identical_plan_cache_on_and_off() {
    let (out_on, snap_on) = run_workload(config(8, true));
    let (out_off, snap_off) = run_workload(config(0, true));
    // The folded per-query ledgers — and therefore the dataset's total
    // comm counter — are the planner's core guarantee: identical whether
    // a preparation was shared, cached, or rerun per query.
    for (a, b) in out_on.iter().zip(&out_off) {
        assert_eq!(a.output.comm, b.output.comm);
        assert_eq!(a.output.projection, b.output.projection);
    }
    let (snap_on, snap_off) = (snap_on.unwrap(), snap_off.unwrap());
    assert_eq!(snap_on.comm, snap_off.comm);
    // The split differs by design: with the cache on, the repeated key's
    // second query pays no physical preparation.
    assert_eq!(snap_on.plan_hits, 1);
    assert!(snap_off.plan_cache.is_none());
}

#[test]
fn tracing_does_not_perturb_results() {
    for substrate in [Substrate::Threaded, Substrate::Socket] {
        let cfg = || ServiceConfig {
            substrate,
            ..config(8, true)
        };
        let (out_off, snap_off) = run_workload(cfg());
        let path = format!(
            "{}/dlra_obs_test_trace_{substrate:?}.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        trace::enable(&path);
        let (out_on, snap_on) = run_workload(cfg());
        trace::disable();
        for (a, b) in out_off.iter().zip(&out_on) {
            assert_eq!(a.output.comm, b.output.comm);
            assert_eq!(a.output.projection, b.output.projection);
            assert_eq!(a.output.rows, b.output.rows);
            assert_eq!(a.output.captured.to_bits(), b.output.captured.to_bits());
        }
        assert_eq!(snap_off.unwrap().comm, snap_on.unwrap().comm);
        let body = std::fs::read_to_string(&path).expect("trace file written");
        assert!(body.starts_with("[\n"), "chrome trace-event array header");
        assert!(body.contains("query.run"), "run spans recorded");
        assert!(body.contains("plan.lookup"), "plan spans recorded");
        assert!(
            body.contains("\"cat\":\"comm."),
            "collective spans recorded on {substrate:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn disabled_metrics_report_none_and_cost_nothing() {
    let (outcomes, snapshot) = run_workload(config(8, false));
    assert!(snapshot.is_none());
    assert_eq!(outcomes.len(), 4);
}

#[test]
fn snapshot_counters_and_exports_are_coherent() {
    let mut service = Service::new(config(8, true));
    let handle = service.load("tenant", shares(3, 90, 14, 4, 7)).unwrap();
    let queries: Vec<Query> = (0..3).map(|i| z_query(3, 30, 40 + i)).collect();
    for q in &queries {
        handle.submit(q).wait().unwrap();
    }
    let metrics = service.metrics().unwrap();
    let snap = &metrics.datasets[0];
    assert_eq!(snap.name, "tenant");
    assert_eq!(snap.submitted, 3);
    assert_eq!(snap.completed, 3);
    assert_eq!(
        snap.failed + snap.cancelled + snap.expired + snap.rejected,
        0
    );
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.latency.count, 3);
    assert_eq!(snap.execute.count, 3);
    assert_eq!(snap.prepare.count, 3);
    assert!(snap.latency.p50_micros().is_some());
    assert!(snap.latency.p99_micros() >= snap.latency.p50_micros());
    assert!(snap.comm.total_words() > 0);
    let cache = snap.plan_cache.as_ref().unwrap();
    assert_eq!(cache.hits + cache.misses, 3);

    let json = metrics.to_json();
    for needle in [
        "\"datasets\"",
        "\"tenant\"",
        "\"latency_bucket_bounds_micros\"",
        "\"comm\"",
        "\"kernel\"",
    ] {
        assert!(json.contains(needle), "JSON export missing {needle}");
    }
    let prom = metrics.to_prometheus();
    for needle in [
        "dlra_queries_submitted_total",
        "dlra_queries_completed_total",
        "dlra_comm_words_total",
        "dlra_query_latency_micros_bucket",
        "dlra_plan_cache_hit_ratio",
    ] {
        assert!(prom.contains(needle), "Prometheus export missing {needle}");
    }
    service.shutdown();
}

/// Decodes every string literal of a JSON document, panicking on an
/// unterminated literal or a raw control character inside one.
fn json_strings(json: &str) -> Vec<String> {
    let mut strings = Vec::new();
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut s = String::new();
        loop {
            match chars.next().expect("unterminated JSON string") {
                '"' => break,
                '\\' => match chars.next().expect("dangling escape") {
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("\\u escape");
                        s.push(char::from_u32(code).expect("scalar value"));
                    }
                    'n' => s.push('\n'),
                    't' => s.push('\t'),
                    e @ ('"' | '\\' | '/') => s.push(e),
                    e => panic!("unknown JSON escape \\{e}"),
                },
                c if c < ' ' => panic!("raw control character {c:?} in a JSON string"),
                c => s.push(c),
            }
        }
        strings.push(s);
    }
    strings
}

/// The decoded value of label `key` in a Prometheus label set
/// (`k="v",k2="v2"`), panicking on malformed syntax.
fn prom_label(labels: &str, key: &str) -> Option<String> {
    let mut rest = labels;
    while !rest.is_empty() {
        let (k, tail) = rest
            .split_once("=\"")
            .expect("label without a quoted value");
        let mut value = String::new();
        let mut chars = tail.char_indices();
        let end = loop {
            match chars.next().expect("unterminated label value") {
                (i, '"') => break i,
                (_, '\\') => match chars.next().expect("dangling escape").1 {
                    'n' => value.push('\n'),
                    e @ ('"' | '\\') => value.push(e),
                    e => panic!("unknown label escape \\{e}"),
                },
                (_, c) => value.push(c),
            }
        };
        if k == key {
            return Some(value);
        }
        rest = tail[end + 1..].trim_start_matches(',');
    }
    None
}

/// `Service::load` accepts any name, so both exports must stay well formed
/// when it holds a quote, a backslash, a newline or another control
/// character — and must carry the name back out unchanged.
#[test]
fn exports_escape_dataset_names() {
    let name = "we\"ird\\name\nwith\ttab\u{1}";
    let service = Service::new(config(8, true));
    let handle = service.load(name, shares(2, 40, 6, 2, 9)).unwrap();
    handle.submit(&z_query(2, 12, 3)).wait().unwrap();
    let metrics = service.metrics().unwrap();

    let json = metrics.to_json();
    assert!(
        json_strings(&json).iter().any(|s| s == name),
        "the name does not decode back out of {json}"
    );

    // Every sample line parses as `metric{labels} value`, and every
    // dataset label decodes back to the name.
    let prom = metrics.to_prometheus();
    let mut labelled = 0;
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect(line);
        assert!(value.parse::<f64>().is_ok(), "bad sample line {line:?}");
        if let Some((_, labels)) = series.split_once('{') {
            let labels = labels.strip_suffix('}').expect(line);
            assert_eq!(prom_label(labels, "dataset").as_deref(), Some(name));
            labelled += 1;
        }
    }
    assert!(labelled > 0, "no dataset-labelled samples in {prom}");
}
