//! The `net` bench: the threaded in-process substrate vs real loopback
//! TCP at growing cluster sizes. Emits the machine-readable
//! `BENCH_net.json`.
//!
//! Every cell runs the full Algorithm 1 protocol (Z-sampler) at one
//! `(s, substrate)` pair — the same `dlra-net` coordinator and server loop
//! over in-process pipes (`ThreadedCluster`) and over loopback sockets
//! (`SocketCluster`) — against a sequential reference at the same `s`. Per
//! cell the sweep reports p50/p99 query latency over the repetitions, the
//! word-exact communication ledger, and the bytes that crossed the links,
//! reconciled against the ledger on the spot: data body bytes must equal
//! `8 × (words − FRAME_WORDS × messages)` with zero unexplained bytes, the
//! same identity the `dlra-net` wire-audit tests prove. Outputs are
//! asserted bit-identical to the sequential reference per cell, so the
//! latency column isolates pure transport cost.

use crate::cli::Report;
use dlra_comm::ledger::FRAME_WORDS;
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_net::{FrameCluster, Link, Pipe, WireStats};
use dlra_sampler::ZSamplerParams;
use std::net::TcpStream;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct NetBenchSpec {
    /// Cluster sizes `s` to measure.
    pub servers: Vec<usize>,
    /// Rows of the resident dataset.
    pub n: usize,
    /// Columns of the resident dataset.
    pub d: usize,
    /// Sample count per query.
    pub r: usize,
    /// Timed repetitions per cell (latency percentiles come from these).
    pub reps: usize,
    /// Seed for the dataset and the query.
    pub seed: u64,
}

impl Default for NetBenchSpec {
    fn default() -> Self {
        NetBenchSpec {
            servers: vec![4, 16, 64],
            n: 512,
            d: 16,
            r: 40,
            reps: 5,
            seed: 0x6e_e7_01,
        }
    }
}

impl NetBenchSpec {
    /// Reduced sweep for CI smoke runs — smaller data, fewer repetitions,
    /// and the tail of the `s` axis trimmed.
    pub fn quick() -> Self {
        NetBenchSpec {
            servers: vec![4, 16],
            n: 128,
            d: 8,
            r: 16,
            reps: 2,
            ..NetBenchSpec::default()
        }
    }

    fn servers_max(&self) -> usize {
        self.servers.iter().copied().max().unwrap_or(1)
    }
}

/// Byte accounting for one cell.
#[derive(Debug, Clone, Copy)]
pub struct WireCell {
    /// Every byte the query pushed through a link (headers, descriptors,
    /// bodies, control frames).
    pub total_bytes: u64,
    /// Ledger-charged frames sent during the query.
    pub data_frames: u64,
    /// Wire bytes per ledger word (`total_bytes / total_words`).
    pub bytes_per_word: f64,
    /// Whether the byte/word reconciliation held exactly:
    /// `data_frames == messages` and
    /// `data_body_bytes == 8 × (words − FRAME_WORDS × messages)`.
    pub audit_exact: bool,
}

/// One measured cell: one (s, substrate) pair.
#[derive(Debug, Clone)]
pub struct NetMeasurement {
    /// Cluster size `s`.
    pub servers: usize,
    /// `threaded` or `socket`.
    pub substrate: &'static str,
    /// Median query latency over the repetitions, seconds.
    pub p50_s: f64,
    /// p99 query latency over the repetitions, seconds.
    pub p99_s: f64,
    /// Total words the ledger charged for one query.
    pub total_words: u64,
    /// Messages the ledger charged for one query.
    pub messages: u64,
    /// Byte accounting.
    pub wire: WireCell,
    /// Whether this cell's output was bit-identical to the sequential
    /// reference at the same `s`.
    pub outputs_identical: bool,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct NetBenchReport {
    /// All measured cells, threaded and socket per cluster size.
    pub results: Vec<NetMeasurement>,
    /// Whether every cell matched the sequential reference bit for bit.
    pub outputs_identical: bool,
    /// Whether every cell's byte/word reconciliation held exactly.
    pub wire_audit_exact: bool,
    /// The spec the sweep ran with.
    pub spec: NetBenchSpec,
}

fn shares(spec: &NetBenchSpec, s: usize) -> Vec<Matrix> {
    let mut rng = dlra_util::Rng::new(spec.seed);
    let a = noisy_low_rank(spec.n, spec.d, 5, 0.1, &mut rng);
    split_with_noise_shares(&a, s, 0.3, &mut rng)
}

fn cfg(spec: &NetBenchSpec) -> Algorithm1Config {
    Algorithm1Config {
        k: 3,
        r: spec.r,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: spec.seed ^ 0x51,
        ..Default::default()
    }
}

/// Index-nearest percentile of an already-sorted sample vector.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn identical(a: &Algorithm1Output, b: &Algorithm1Output) -> bool {
    a.projection.basis().as_slice() == b.projection.basis().as_slice()
        && a.rows == b.rows
        && a.captured.to_bits() == b.captured.to_bits()
}

/// Runs one cell on link `S`: a fresh model per repetition, with
/// construction (and, on sockets, the bootstrap) outside the clock. The
/// wire delta is snapshotted around the first query, so the reported
/// bytes are exactly one query's traffic.
fn run_cell<S: Link>(
    parts: &[Matrix],
    cfg: &Algorithm1Config,
    reps: usize,
) -> (Vec<f64>, Algorithm1Output, WireStats) {
    let mut samples = Vec::new();
    let mut kept: Option<(Algorithm1Output, WireStats)> = None;
    for _ in 0..reps.max(1) {
        let mut model =
            PartitionModel::with_substrate(parts.to_vec(), EntryFunction::Identity, |locals| {
                FrameCluster::<_, S>::new(locals)
            })
            .expect("bench model");
        let before = model.cluster().wire_stats();
        let t0 = Instant::now();
        let out = run_algorithm1(&mut model, cfg).expect("bench query failed");
        samples.push(t0.elapsed().as_secs_f64());
        let delta = model.cluster().wire_stats().since(&before);
        kept.get_or_insert((out, delta));
    }
    let (out, delta) = kept.expect("reps >= 1");
    (samples, out, delta)
}

/// Runs the sweep.
pub fn run(spec: &NetBenchSpec) -> NetBenchReport {
    let cfg = cfg(spec);
    let mut results = Vec::new();
    let mut outputs_identical = true;
    let mut wire_audit_exact = true;
    for &s in &spec.servers {
        let parts = shares(spec, s);
        let mut reference =
            PartitionModel::new(parts.clone(), EntryFunction::Identity).expect("reference model");
        let want = run_algorithm1(&mut reference, &cfg).expect("reference query failed");
        let cells = [
            ("threaded", run_cell::<Pipe>(&parts, &cfg, spec.reps)),
            ("socket", run_cell::<TcpStream>(&parts, &cfg, spec.reps)),
        ];
        for (substrate, (mut samples, out, delta)) in cells {
            samples.sort_by(f64::total_cmp);
            let ok = identical(&want, &out) && out.comm == want.comm;
            outputs_identical &= ok;
            let words = out.comm.total_words();
            let messages = out.comm.messages;
            let audit_exact = delta.data_frames == messages
                && delta.data_body_bytes == 8 * (words - FRAME_WORDS * messages);
            wire_audit_exact &= audit_exact;
            results.push(NetMeasurement {
                servers: s,
                substrate,
                p50_s: percentile(&samples, 50.0),
                p99_s: percentile(&samples, 99.0),
                total_words: words,
                messages,
                wire: WireCell {
                    total_bytes: delta.total_bytes(),
                    data_frames: delta.data_frames,
                    bytes_per_word: delta.total_bytes() as f64 / words.max(1) as f64,
                    audit_exact,
                },
                outputs_identical: ok,
            });
        }
    }
    NetBenchReport {
        results,
        outputs_identical,
        wire_audit_exact,
        spec: spec.clone(),
    }
}

impl NetBenchReport {
    fn find(&self, substrate: &str, servers: usize) -> Option<&NetMeasurement> {
        self.results
            .iter()
            .find(|m| m.substrate == substrate && m.servers == servers)
    }

    /// Socket p50 latency as a multiple of threaded p50 at cluster size
    /// `s` — the pure transport overhead of real sockets.
    pub fn socket_overhead(&self, s: usize) -> Option<f64> {
        let thr = self.find("threaded", s)?;
        let skt = self.find("socket", s)?;
        (thr.p50_s > 0.0).then(|| skt.p50_s / thr.p50_s)
    }

    /// Socket wire bytes per ledger word at cluster size `s`.
    pub fn bytes_per_word(&self, s: usize) -> Option<f64> {
        Some(self.find("socket", s)?.wire.bytes_per_word)
    }
}

impl Report for NetBenchReport {
    /// Serializes the report as the `BENCH_net.json` document.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regenerate\": \"cargo run --release -p dlra-bench --bin net -- --out BENCH_net.json\","
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"n\": {}, \"d\": {}, \"r\": {}, \"reps\": {}}},",
            self.spec.n, self.spec.d, self.spec.r, self.spec.reps
        );
        let _ = writeln!(out, "  \"outputs_identical\": {},", self.outputs_identical);
        let _ = writeln!(out, "  \"wire_audit_exact\": {},", self.wire_audit_exact);
        out.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let w = &m.wire;
            let wire = format!(
                "{{\"total_bytes\": {}, \"data_frames\": {}, \"bytes_per_word\": {:.3}, \"audit_exact\": {}}}",
                w.total_bytes, w.data_frames, w.bytes_per_word, w.audit_exact
            );
            let _ = writeln!(
                out,
                "    {{\"servers\": {}, \"substrate\": \"{}\", \"p50_s\": {:.6}, \"p99_s\": {:.6}, \"total_words\": {}, \"messages\": {}, \"wire\": {wire}, \"outputs_identical\": {}}}{comma}",
                m.servers, m.substrate, m.p50_s, m.p99_s, m.total_words, m.messages,
                m.outputs_identical
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": {\n");
        let smax = self.spec.servers_max();
        let _ = writeln!(
            out,
            "    \"servers_max\": {smax},\n    \"socket_p50_over_threaded_p50\": {:.3},\n    \"wire_bytes_per_ledger_word\": {:.3}",
            self.socket_overhead(smax).unwrap_or(0.0),
            self.bytes_per_word(smax).unwrap_or(0.0)
        );
        out.push_str("  }\n}\n");
        out
    }

    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.outputs_identical {
            v.push("a substrate changed output bits".to_string());
        }
        if !self.wire_audit_exact {
            v.push("unexplained bytes on the wire".to_string());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_keeps_bits_and_reconciles_every_byte() {
        let spec = NetBenchSpec {
            servers: vec![2, 3],
            n: 96,
            d: 8,
            r: 20,
            reps: 1,
            seed: 5,
        };
        let report = run(&spec);
        assert_eq!(report.results.len(), 4);
        assert!(report.outputs_identical, "substrate changed output bits");
        assert!(report.wire_audit_exact, "unexplained bytes on the wire");
        for &s in &spec.servers {
            let thr = report.find("threaded", s).unwrap();
            let skt = report.find("socket", s).unwrap();
            assert_eq!(
                thr.total_words, skt.total_words,
                "substrates must charge identical ledgers at s = {s}"
            );
            for cell in [thr, skt] {
                assert!(cell.wire.audit_exact, "{} at s = {s}", cell.substrate);
                assert!(
                    cell.wire.total_bytes > 8 * cell.total_words,
                    "wire bytes must exceed raw payload (headers + control)"
                );
            }
            assert_eq!(
                thr.wire.data_frames, skt.wire.data_frames,
                "both links carry one data frame per ledger message at s = {s}"
            );
        }
        assert!(report.bytes_per_word(3).unwrap() > 8.0);

        let json = report.to_json();
        assert!(json.contains("\"outputs_identical\": true"));
        assert!(json.contains("\"wire_audit_exact\": true"));
        assert!(!json.contains("\"wire\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn percentiles_pick_sane_indices() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 50.0), 3.0);
        assert_eq!(percentile(&sorted, 99.0), 5.0);
        assert_eq!(percentile(&sorted[..1], 99.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
