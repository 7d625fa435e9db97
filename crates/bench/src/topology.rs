//! The `topology` bench: star vs combining-tree collective routing at
//! growing cluster sizes, measuring what actually lands in the
//! coordinator's inbox (words and messages), the total words moved, and
//! wall clock. Emits the machine-readable `BENCH_topology.json`.
//!
//! Every cell runs the full Algorithm 1 protocol (Z-sampler) on the
//! sequential simulator — the substrate whose ledger is the contract both
//! substrates are proven against in the equivalence suite — with the
//! cluster built under the cell's topology. Outputs are bit-identical
//! across topologies by construction (asserted into the report per cell),
//! so the comparison isolates pure routing cost: the tree moves exactly
//! the star's words but fans them in over `⌈log₂ s⌉` levels, shrinking
//! the root's inbox from `Θ(s)` to `Θ(log s)` messages per collective.

use crate::cli::Report;
use dlra_comm::{Cluster, Topology};
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_sampler::ZSamplerParams;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct TopologyBenchSpec {
    /// Cluster sizes `s` to measure.
    pub servers: Vec<usize>,
    /// Fanout of the tree cells (the star is always measured too).
    pub fanout: usize,
    /// Rows of the resident dataset.
    pub n: usize,
    /// Columns of the resident dataset.
    pub d: usize,
    /// Sample count per query.
    pub r: usize,
    /// Timed repetitions per cell (the minimum is reported).
    pub reps: usize,
    /// Seed for the dataset and the query.
    pub seed: u64,
}

impl Default for TopologyBenchSpec {
    fn default() -> Self {
        TopologyBenchSpec {
            servers: vec![8, 64, 256],
            fanout: 2,
            n: 512,
            d: 16,
            r: 40,
            reps: 3,
            seed: 0x70_00_10,
        }
    }
}

impl TopologyBenchSpec {
    /// Reduced sweep for CI smoke runs — same cluster sizes (the point of
    /// the bench is the `s` axis), smaller data and a single repetition.
    pub fn quick() -> Self {
        TopologyBenchSpec {
            n: 128,
            d: 8,
            r: 16,
            reps: 1,
            ..TopologyBenchSpec::default()
        }
    }

    fn servers_max(&self) -> usize {
        self.servers.iter().copied().max().unwrap_or(1)
    }
}

/// One measured cell: one (s, topology) pair.
#[derive(Debug, Clone)]
pub struct TopologyMeasurement {
    /// Cluster size `s`.
    pub servers: usize,
    /// `star` or `tree`.
    pub topology: &'static str,
    /// Best wall time over the repetitions, seconds.
    pub wall_s: f64,
    /// Words that landed in the coordinator's inbox over the whole run.
    pub root_inbox_words: u64,
    /// Messages that landed in the coordinator's inbox.
    pub root_inbox_messages: u64,
    /// Total words moved (identical across topologies by construction).
    pub total_words: u64,
    /// Whether this cell's output was bit-identical to the star reference
    /// at the same `s` (trivially true for the star cell itself).
    pub outputs_identical: bool,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct TopologyBenchReport {
    /// All measured cells, star and tree per cluster size.
    pub results: Vec<TopologyMeasurement>,
    /// Whether every cell matched its star reference bit for bit.
    pub outputs_identical: bool,
    /// The spec the sweep ran with.
    pub spec: TopologyBenchSpec,
}

fn shares(spec: &TopologyBenchSpec, s: usize) -> Vec<Matrix> {
    let mut rng = dlra_util::Rng::new(spec.seed);
    let a = noisy_low_rank(spec.n, spec.d, 5, 0.1, &mut rng);
    split_with_noise_shares(&a, s, 0.3, &mut rng)
}

fn cfg(spec: &TopologyBenchSpec) -> Algorithm1Config {
    Algorithm1Config {
        k: 3,
        r: spec.r,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: spec.seed ^ 0x51,
        ..Default::default()
    }
}

/// Runs one cell: a fresh model per repetition so the run's ledger delta
/// is the whole ledger; returns the best wall time and the rep-0 output.
fn run_cell(
    parts: &[Matrix],
    cfg: &Algorithm1Config,
    topology: Topology,
    reps: usize,
) -> (f64, Algorithm1Output) {
    let mut best = f64::INFINITY;
    let mut kept: Option<Algorithm1Output> = None;
    for _ in 0..reps.max(1) {
        let mut model =
            PartitionModel::with_substrate(parts.to_vec(), EntryFunction::Identity, |locals| {
                Cluster::with_topology(locals, topology)
            })
            .expect("bench model");
        let t0 = Instant::now();
        let out = run_algorithm1(&mut model, cfg).expect("bench query failed");
        best = best.min(t0.elapsed().as_secs_f64());
        kept.get_or_insert(out);
    }
    (best, kept.expect("reps >= 1"))
}

/// Runs the sweep.
pub fn run(spec: &TopologyBenchSpec) -> TopologyBenchReport {
    let cfg = cfg(spec);
    let tree = Topology::Tree {
        fanout: spec.fanout,
    };
    let mut results = Vec::new();
    let mut outputs_identical = true;
    for &s in &spec.servers {
        let parts = shares(spec, s);
        let (star_wall, star_out) = run_cell(&parts, &cfg, Topology::Star, spec.reps);
        let (tree_wall, tree_out) = run_cell(&parts, &cfg, tree, spec.reps);
        let identical = star_out.projection.basis().as_slice()
            == tree_out.projection.basis().as_slice()
            && star_out.rows == tree_out.rows
            && star_out.captured.to_bits() == tree_out.captured.to_bits();
        outputs_identical &= identical;
        results.push(TopologyMeasurement {
            servers: s,
            topology: "star",
            wall_s: star_wall,
            root_inbox_words: star_out.comm.root_inbox_words,
            root_inbox_messages: star_out.comm.root_inbox_messages,
            total_words: star_out.comm.total_words(),
            outputs_identical: true,
        });
        results.push(TopologyMeasurement {
            servers: s,
            topology: "tree",
            wall_s: tree_wall,
            root_inbox_words: tree_out.comm.root_inbox_words,
            root_inbox_messages: tree_out.comm.root_inbox_messages,
            total_words: tree_out.comm.total_words(),
            outputs_identical: identical,
        });
    }
    TopologyBenchReport {
        results,
        outputs_identical,
        spec: spec.clone(),
    }
}

impl TopologyBenchReport {
    fn find(&self, topology: &str, servers: usize) -> Option<&TopologyMeasurement> {
        self.results
            .iter()
            .find(|m| m.topology == topology && m.servers == servers)
    }

    /// Factor by which the tree shrank the coordinator-inbox message
    /// count at cluster size `s`.
    pub fn inbox_message_reduction(&self, s: usize) -> Option<f64> {
        let star = self.find("star", s)?;
        let tree = self.find("tree", s)?;
        (tree.root_inbox_messages > 0)
            .then(|| star.root_inbox_messages as f64 / tree.root_inbox_messages as f64)
    }

    /// Factor by which the tree shrank the coordinator-inbox word count
    /// at cluster size `s`.
    pub fn inbox_word_reduction(&self, s: usize) -> Option<f64> {
        let star = self.find("star", s)?;
        let tree = self.find("tree", s)?;
        (tree.root_inbox_words > 0)
            .then(|| star.root_inbox_words as f64 / tree.root_inbox_words as f64)
    }
}

impl Report for TopologyBenchReport {
    /// Serializes the report as the `BENCH_topology.json` document.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regenerate\": \"cargo run --release -p dlra-bench --bin topology -- --out BENCH_topology.json\","
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"fanout\": {}, \"n\": {}, \"d\": {}, \"r\": {}, \"reps\": {}}},",
            self.spec.fanout, self.spec.n, self.spec.d, self.spec.r, self.spec.reps
        );
        let _ = writeln!(out, "  \"outputs_identical\": {},", self.outputs_identical);
        out.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"servers\": {}, \"topology\": \"{}\", \"wall_s\": {:.6}, \"root_inbox_words\": {}, \"root_inbox_messages\": {}, \"total_words\": {}, \"outputs_identical\": {}}}{comma}",
                m.servers,
                m.topology,
                m.wall_s,
                m.root_inbox_words,
                m.root_inbox_messages,
                m.total_words,
                m.outputs_identical
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": {\n");
        let smax = self.spec.servers_max();
        let _ = writeln!(
            out,
            "    \"servers_max\": {smax},\n    \"root_inbox_message_reduction\": {:.3},\n    \"root_inbox_word_reduction\": {:.3}",
            self.inbox_message_reduction(smax).unwrap_or(0.0),
            self.inbox_word_reduction(smax).unwrap_or(0.0)
        );
        out.push_str("  }\n}\n");
        out
    }

    fn violations(&self) -> Vec<String> {
        if self.outputs_identical {
            Vec::new()
        } else {
            vec!["the combining tree changed output bits".to_string()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_keeps_bits_and_shrinks_the_root_inbox() {
        let spec = TopologyBenchSpec {
            servers: vec![2, 4, 9],
            fanout: 2,
            n: 96,
            d: 8,
            r: 20,
            reps: 1,
            seed: 5,
        };
        let report = run(&spec);
        assert_eq!(report.results.len(), 6);
        assert!(report.outputs_identical, "topology changed output bits");
        for &s in &spec.servers {
            let star = report.find("star", s).unwrap();
            let tree = report.find("tree", s).unwrap();
            assert_eq!(
                star.total_words, tree.total_words,
                "tree must move exactly the star's words at s = {s}"
            );
            if s > 2 {
                assert!(
                    tree.root_inbox_messages < star.root_inbox_messages,
                    "tree root inbox must shrink at s = {s}"
                );
            }
        }
        assert!(report.inbox_message_reduction(9).unwrap() > 1.0);

        let json = report.to_json();
        assert!(json.contains("\"outputs_identical\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
