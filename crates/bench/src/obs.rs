//! The `obs` bench: what does observability cost? Dispatches the same
//! minimal-query workload through a [`Service`] with the metrics registry
//! enabled and disabled, and reports the per-query overhead plus the
//! latency distribution (p50/p99 bucket upper bounds) the enabled
//! registry recorded about its own run. Emits the machine-readable
//! `BENCH_obs.json`.
//!
//! The acceptance bar is overhead **< 5%**: the enabled hot path is a
//! handful of relaxed atomic adds and two `Instant` reads per query, so
//! almost all of the measured per-query time is the query itself either
//! way. Outputs are asserted bit-identical between the two modes —
//! observability must never perturb results.

use crate::cli::Report;
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_obs::metrics::DatasetMetricsSnapshot;
use dlra_runtime::{Query, Service, ServiceConfig, Substrate};
use dlra_util::Rng;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ObsBenchSpec {
    /// Queries dispatched per repetition (sequential submit → wait).
    pub queries: usize,
    /// Resident datasets the service hosts (queries go to the first).
    pub datasets: usize,
    /// Servers holding each dataset.
    pub servers: usize,
    /// Resident dataset shape.
    pub n: usize,
    /// Columns of the resident dataset.
    pub d: usize,
    /// Timed repetitions per mode (the minimum wall is reported).
    pub reps: usize,
    /// Seed for the datasets.
    pub seed: u64,
}

impl Default for ObsBenchSpec {
    fn default() -> Self {
        ObsBenchSpec {
            queries: 256,
            datasets: 4,
            servers: 4,
            n: 1024,
            d: 16,
            reps: 5,
            seed: 0x0B5E_11E7,
        }
    }
}

impl ObsBenchSpec {
    /// Reduced sweep for CI smoke runs.
    pub fn quick() -> Self {
        ObsBenchSpec {
            queries: 32,
            n: 256,
            reps: 2,
            ..ObsBenchSpec::default()
        }
    }
}

/// One mode's measurement.
#[derive(Debug, Clone)]
pub struct ObsMeasurement {
    /// `"metrics_on"` or `"metrics_off"`.
    pub mode: &'static str,
    /// Best wall time for the whole workload over the repetitions, s.
    pub wall_s: f64,
    /// Best per-query mean, nanoseconds.
    pub per_query_ns: f64,
}

/// A completed comparison.
#[derive(Debug, Clone)]
pub struct ObsBenchReport {
    /// Both modes, `metrics_off` first.
    pub results: Vec<ObsMeasurement>,
    /// Registry snapshot of the final metrics-on repetition.
    pub snapshot: DatasetMetricsSnapshot,
    /// Whether both modes produced bit-identical projections.
    pub outputs_identical: bool,
    /// The spec the comparison ran with.
    pub spec: ObsBenchSpec,
}

fn tenant(spec: &ObsBenchSpec, i: usize) -> Vec<Matrix> {
    let mut rng = Rng::new(spec.seed + i as u64);
    let a = noisy_low_rank(spec.n, spec.d, 5, 0.1, &mut rng);
    split_with_noise_shares(&a, spec.servers, 0.3, &mut rng)
}

/// Runs the workload once; returns (wall seconds, projections, snapshot).
fn run_mode(
    spec: &ObsBenchSpec,
    metrics: bool,
) -> (f64, Vec<Vec<f64>>, Option<DatasetMetricsSnapshot>) {
    let mut service = Service::new(ServiceConfig {
        executors: 1,
        substrate: Substrate::Threaded,
        plan_cache: 16,
        metrics,
        ..Default::default()
    });
    let handles: Vec<_> = (0..spec.datasets)
        .map(|i| {
            service
                .load(&format!("tenant-{i}"), tenant(spec, i))
                .unwrap()
        })
        .collect();
    let tiny = Query::rank(1)
        .samples(1)
        .sampler(SamplerKind::Uniform)
        .seed(3)
        .build()
        .expect("valid query");
    let t0 = Instant::now();
    let mut projections = Vec::with_capacity(spec.queries);
    for _ in 0..spec.queries {
        let outcome = handles[0].submit(&tiny).wait().expect("bench query failed");
        projections.push(outcome.output.projection.basis().as_slice().to_vec());
    }
    let wall = t0.elapsed().as_secs_f64();
    let snapshot = service
        .metrics()
        .map(|m| m.datasets.into_iter().next().expect("tenant-0 resident"));
    service.shutdown();
    (wall, projections, snapshot)
}

/// Runs the comparison.
pub fn run(spec: &ObsBenchSpec) -> ObsBenchReport {
    let mut best = [f64::INFINITY; 2]; // [off, on]
    let mut outputs: [Option<Vec<Vec<f64>>>; 2] = [None, None];
    let mut snapshot = None;
    for _ in 0..spec.reps.max(1) {
        // Alternate within each repetition so drift (thermal, cache)
        // hits both modes evenly.
        let (wall_off, out_off, _) = run_mode(spec, false);
        let (wall_on, out_on, snap) = run_mode(spec, true);
        best[0] = best[0].min(wall_off);
        best[1] = best[1].min(wall_on);
        outputs[0].get_or_insert(out_off);
        outputs[1].get_or_insert(out_on);
        snapshot = snap;
    }
    let per_query = |wall: f64| wall / spec.queries as f64 * 1e9;
    let outputs_identical = outputs[0] == outputs[1];
    ObsBenchReport {
        results: vec![
            ObsMeasurement {
                mode: "metrics_off",
                wall_s: best[0],
                per_query_ns: per_query(best[0]),
            },
            ObsMeasurement {
                mode: "metrics_on",
                wall_s: best[1],
                per_query_ns: per_query(best[1]),
            },
        ],
        snapshot: snapshot.expect("metrics-on run produced a snapshot"),
        outputs_identical,
        spec: spec.clone(),
    }
}

impl ObsBenchReport {
    /// Registry overhead as a percentage of the metrics-off per-query
    /// time. Negative values are measurement noise (the enabled run was
    /// not slower than the disabled one).
    pub fn overhead_pct(&self) -> f64 {
        let off = self.results[0].per_query_ns;
        let on = self.results[1].per_query_ns;
        (on - off) / off * 100.0
    }
}

impl Report for ObsBenchReport {
    /// Serializes the report as the `BENCH_obs.json` document.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regenerate\": \"cargo run --release -p dlra-bench --bin obs -- --out BENCH_obs.json\","
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"queries\": {}, \"datasets\": {}, \"servers\": {}, \"n\": {}, \"d\": {}, \"reps\": {}}},",
            self.spec.queries, self.spec.datasets, self.spec.servers, self.spec.n, self.spec.d,
            self.spec.reps
        );
        let _ = writeln!(out, "  \"outputs_identical\": {},", self.outputs_identical);
        out.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"mode\": \"{}\", \"wall_s\": {:.6}, \"per_query_ns\": {:.0}}}{comma}",
                m.mode, m.wall_s, m.per_query_ns
            );
        }
        out.push_str("  ],\n");
        let p50 = self.snapshot.latency.p50_micros().unwrap_or(0);
        let p99 = self.snapshot.latency.p99_micros().unwrap_or(0);
        let _ = writeln!(
            out,
            "  \"summary\": {{\n    \"overhead_pct\": {:.2},\n    \"latency_p50_le_micros\": {p50},\n    \"latency_p99_le_micros\": {p99},\n    \"queries_completed\": {}\n  }}\n}}",
            self.overhead_pct(),
            self.snapshot.completed
        );
        out
    }

    fn violations(&self) -> Vec<String> {
        if self.outputs_identical {
            Vec::new()
        } else {
            vec!["the metrics registry changed output bits".to_string()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_comparison_reports_both_modes_and_keeps_bits() {
        let report = run(&ObsBenchSpec {
            queries: 4,
            n: 64,
            reps: 1,
            ..ObsBenchSpec::quick()
        });
        let modes: Vec<_> = report.results.iter().map(|m| m.mode).collect();
        assert_eq!(modes, ["metrics_off", "metrics_on"]);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert_eq!(report.snapshot.completed, 4);
        let json = report.to_json();
        assert!(json.contains("\"outputs_identical\": true"));
        assert!(json.contains("\"queries_completed\": 4"));
    }
}
