//! The `planner` bench: batched vs unbatched query submission against one
//! resident dataset, measuring wall time and ledger words for B queries
//! sharing one `f`. Emits the machine-readable `BENCH_planner.json`.
//!
//! Both paths submit the B queries back to back to a one-dataset
//! `Service`. The batched path has the plan cache enabled: one
//! `ZSampler::prepare` per distinct plan key, B draw/fetch phases. The
//! unbatched path disables the cache, so every query re-prepares — exactly
//! what a submission did before the planner existed. Outputs are
//! bit-identical either way (asserted into the report), so the comparison
//! isolates pure planning benefit.

use crate::cli::Report;
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_runtime::{DatasetHandle, Query, QueryOutcome, Service, ServiceConfig, Substrate};
use dlra_sampler::ZSamplerParams;
use dlra_util::Rng;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct PlannerBenchSpec {
    /// Batch sizes B to measure.
    pub batches: Vec<usize>,
    /// Servers holding the resident dataset.
    pub servers: usize,
    /// Resident dataset shape.
    pub n: usize,
    /// Columns of the resident dataset.
    pub d: usize,
    /// Sample count per query.
    pub r: usize,
    /// Executor threads (and thus max queries drawing concurrently).
    pub executors: usize,
    /// Timed repetitions per cell (the minimum is reported).
    pub reps: usize,
    /// Seed for the dataset and the shared query seed.
    pub seed: u64,
}

impl Default for PlannerBenchSpec {
    fn default() -> Self {
        PlannerBenchSpec {
            batches: vec![1, 4, 16],
            servers: 4,
            n: 2048,
            d: 24,
            r: 60,
            executors: 4,
            reps: 3,
            seed: 0x9A5F_11E7,
        }
    }
}

impl PlannerBenchSpec {
    /// Reduced sweep for CI smoke runs.
    pub fn quick() -> Self {
        PlannerBenchSpec {
            n: 512,
            d: 12,
            r: 30,
            reps: 1,
            ..PlannerBenchSpec::default()
        }
    }

    /// The B queries of one batch: same `f` (identity), same seed and
    /// sampler parameters (one plan key), ranks cycling 1..=4 — the
    /// many-`k` sweep the fig1/fig2 harness runs sequentially.
    fn queries(&self) -> Vec<Query> {
        (0..self.batch_max())
            .map(|i| {
                Query::rank(1 + i % 4.min(self.d))
                    .samples(self.r)
                    .sampler(SamplerKind::Z(ZSamplerParams::default()))
                    .seed(self.seed ^ 0x51)
                    .build()
                    .expect("bench query is valid")
            })
            .collect()
    }

    fn batch_max(&self) -> usize {
        self.batches.iter().copied().max().unwrap_or(1)
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct PlannerMeasurement {
    /// Batch size B.
    pub batch: usize,
    /// `batched` (plan cache on) or `unbatched` (cache off).
    pub mode: &'static str,
    /// Best wall time over the repetitions, submit → last result, seconds.
    pub wall_s: f64,
    /// Preparation words physically paid (once per plan when batched,
    /// once per query when not).
    pub prepare_words: u64,
    /// Draw/fetch words across the batch.
    pub execute_words: u64,
    /// Number of preparations physically run.
    pub preparations: u64,
}

impl PlannerMeasurement {
    /// Total words physically crossing the wire for the batch.
    pub fn total_words(&self) -> u64 {
        self.prepare_words + self.execute_words
    }
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct PlannerBenchReport {
    /// All measured cells.
    pub results: Vec<PlannerMeasurement>,
    /// Whether batched and unbatched outputs were bit-identical for every
    /// batch size (they must be; recorded as evidence, not hope).
    pub outputs_identical: bool,
    /// The spec the sweep ran with.
    pub spec: PlannerBenchSpec,
}

fn shares(spec: &PlannerBenchSpec) -> Vec<Matrix> {
    let mut rng = Rng::new(spec.seed);
    let a = noisy_low_rank(spec.n, spec.d, 5, 0.1, &mut rng);
    split_with_noise_shares(&a, spec.servers, 0.3, &mut rng)
}

/// A fresh one-dataset service holding `parts`, with the given plan-cache
/// capacity.
fn resident(
    spec: &PlannerBenchSpec,
    parts: &[Matrix],
    plan_cache: usize,
) -> (Service, DatasetHandle) {
    let service = Service::new(ServiceConfig {
        executors: spec.executors,
        substrate: Substrate::Threaded,
        plan_cache,
        metrics: true,
        ..Default::default()
    });
    let dataset = service
        .load("resident", parts.to_vec())
        .expect("bench dataset is valid");
    (service, dataset)
}

/// Submits every query, then waits for them all in order.
fn submit_all(dataset: &DatasetHandle, queries: &[Query]) -> Vec<QueryOutcome> {
    let tickets: Vec<_> = queries.iter().map(|q| dataset.submit(q)).collect();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("bench query failed"))
        .collect()
}

/// Runs the sweep.
pub fn run(spec: &PlannerBenchSpec) -> PlannerBenchReport {
    let parts = shares(spec);
    let queries = spec.queries();

    // The preparation's deterministic ledger delta, measured once on a
    // direct model: the unbatched path re-pays exactly this per query.
    let prepare_words = {
        let mut model = PartitionModel::new(parts.clone(), EntryFunction::Identity).unwrap();
        prepare_z_plan(&mut model, &ZSamplerParams::default(), spec.seed ^ 0x51)
            .expect("bench dataset has mass")
            .prepare_comm
            .total_words()
    };

    let mut results = Vec::new();
    let mut outputs_identical = true;
    for &b in &spec.batches {
        let batch = &queries[..b];

        let mut batched_outputs: Vec<Algorithm1Output> = Vec::new();
        let mut best_batched = f64::INFINITY;
        let mut batched_prepare = 0u64;
        let mut batched_execute = 0u64;
        let mut batched_preparations = 0u64;
        for rep in 0..spec.reps.max(1) {
            // A fresh service per repetition: every repetition pays the
            // preparation exactly once (steady-state cache hits would be
            // free and flatter the batched path).
            let (_service, dataset) = resident(spec, &parts, 16);
            let t0 = Instant::now();
            let outcomes = submit_all(&dataset, batch);
            let wall = t0.elapsed().as_secs_f64();
            best_batched = best_batched.min(wall);
            if rep == 0 {
                batched_prepare = outcomes
                    .iter()
                    .filter_map(|o| o.plan.as_ref())
                    .filter(|p| !p.cache_hit)
                    .map(|p| p.prepare_comm.total_words())
                    .sum();
                batched_preparations = outcomes
                    .iter()
                    .filter_map(|o| o.plan.as_ref())
                    .filter(|p| !p.cache_hit)
                    .count() as u64;
                batched_execute = outcomes
                    .iter()
                    .map(|o| {
                        let prep = o.plan.as_ref().map_or(0, |p| p.prepare_comm.total_words());
                        o.output.comm.total_words() - prep
                    })
                    .sum();
                batched_outputs = outcomes.into_iter().map(|o| o.output).collect();
            }
        }
        results.push(PlannerMeasurement {
            batch: b,
            mode: "batched",
            wall_s: best_batched,
            prepare_words: batched_prepare,
            execute_words: batched_execute,
            preparations: batched_preparations,
        });

        let mut best_unbatched = f64::INFINITY;
        let mut unbatched_total = 0u64;
        let mut unbatched_outputs: Vec<Algorithm1Output> = Vec::new();
        for rep in 0..spec.reps.max(1) {
            let (_service, dataset) = resident(spec, &parts, 0);
            let t0 = Instant::now();
            let outputs: Vec<_> = submit_all(&dataset, batch)
                .into_iter()
                .map(|o| o.output)
                .collect();
            let wall = t0.elapsed().as_secs_f64();
            best_unbatched = best_unbatched.min(wall);
            if rep == 0 {
                unbatched_total = outputs.iter().map(|o| o.comm.total_words()).sum();
                unbatched_outputs = outputs;
            }
        }
        let unbatched_prepare = prepare_words * b as u64;
        results.push(PlannerMeasurement {
            batch: b,
            mode: "unbatched",
            wall_s: best_unbatched,
            prepare_words: unbatched_prepare,
            execute_words: unbatched_total - unbatched_prepare,
            preparations: b as u64,
        });

        // The planner must not change a single bit of any output.
        outputs_identical &= batched_outputs.len() == unbatched_outputs.len()
            && batched_outputs
                .iter()
                .zip(&unbatched_outputs)
                .all(|(a, c)| {
                    a.projection.basis().as_slice() == c.projection.basis().as_slice()
                        && a.rows == c.rows
                        && a.comm == c.comm
                });
    }

    PlannerBenchReport {
        results,
        outputs_identical,
        spec: spec.clone(),
    }
}

impl PlannerBenchReport {
    fn find(&self, mode: &str, batch: usize) -> Option<&PlannerMeasurement> {
        self.results
            .iter()
            .find(|m| m.mode == mode && m.batch == batch)
    }

    /// Factor by which batching reduced the preparation words at batch
    /// size `b` (≈ b by construction).
    pub fn prepare_reduction(&self, b: usize) -> Option<f64> {
        let batched = self.find("batched", b)?;
        let unbatched = self.find("unbatched", b)?;
        (batched.prepare_words > 0)
            .then(|| unbatched.prepare_words as f64 / batched.prepare_words as f64)
    }

    /// Wall-clock speedup of the batched path at batch size `b`.
    pub fn wall_speedup(&self, b: usize) -> Option<f64> {
        let batched = self.find("batched", b)?;
        let unbatched = self.find("unbatched", b)?;
        Some(unbatched.wall_s / batched.wall_s)
    }
}

impl Report for PlannerBenchReport {
    /// Serializes the report as the `BENCH_planner.json` document.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regenerate\": \"cargo run --release -p dlra-bench --bin planner -- --out BENCH_planner.json\","
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"servers\": {}, \"n\": {}, \"d\": {}, \"r\": {}, \"executors\": {}}},",
            self.spec.servers, self.spec.n, self.spec.d, self.spec.r, self.spec.executors
        );
        let _ = writeln!(out, "  \"outputs_identical\": {},", self.outputs_identical);
        out.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"batch\": {}, \"mode\": \"{}\", \"wall_s\": {:.6}, \"preparations\": {}, \"prepare_words\": {}, \"execute_words\": {}, \"total_words\": {}}}{comma}",
                m.batch, m.mode, m.wall_s, m.preparations, m.prepare_words, m.execute_words,
                m.total_words()
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": {\n");
        let bmax = self.spec.batch_max();
        let _ = writeln!(
            out,
            "    \"batch_max\": {bmax},\n    \"prepare_words_reduction\": {:.3},\n    \"wall_speedup\": {:.3}",
            self.prepare_reduction(bmax).unwrap_or(0.0),
            self.wall_speedup(bmax).unwrap_or(0.0)
        );
        out.push_str("  }\n}\n");
        out
    }

    fn violations(&self) -> Vec<String> {
        if self.outputs_identical {
            Vec::new()
        } else {
            vec!["the plan cache changed output bits".to_string()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_shares_preparation_and_keeps_bits() {
        let spec = PlannerBenchSpec {
            batches: vec![1, 3],
            servers: 2,
            n: 96,
            d: 8,
            r: 20,
            executors: 2,
            reps: 1,
            seed: 5,
        };
        let report = run(&spec);
        assert_eq!(report.results.len(), 4);
        assert!(report.outputs_identical, "planner changed output bits");

        let batched = report.find("batched", 3).unwrap();
        let unbatched = report.find("unbatched", 3).unwrap();
        // One preparation vs three, with identical per-prepare cost.
        assert_eq!(batched.preparations, 1);
        assert_eq!(unbatched.preparations, 3);
        assert_eq!(unbatched.prepare_words, 3 * batched.prepare_words);
        assert!((report.prepare_reduction(3).unwrap() - 3.0).abs() < 1e-9);
        // Draw/fetch work is per-query either way.
        assert_eq!(batched.execute_words, unbatched.execute_words);

        let json = report.to_json();
        assert!(json.contains("\"outputs_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
