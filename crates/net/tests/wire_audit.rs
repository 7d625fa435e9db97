//! The bytes-on-the-wire audit: for a **full Algorithm 1 query** on both
//! links — real sockets and in-process pipes — every byte the cluster puts
//! on the wire is explained by the communication ledger; measured bytes
//! are an affine function of charged ledger words:
//!
//! ```text
//! data_body_bytes  == 8 * (total_words - FRAME_WORDS * messages)
//! data_frames      == messages
//! total_bytes      == data_header + data_desc + data_body + control_bytes
//! ```
//!
//! with zero unexplained bytes, under both the star and the combining-tree
//! topology. The same run is also checked bit-identical (projection, rows,
//! boosting score) and ledger-identical to the sequential simulator — the
//! paper's word counts are what actually crossed the links. Tearing the
//! cluster down then sends exactly one counted shutdown frame per server.

use dlra_comm::ledger::FRAME_WORDS;
use dlra_comm::{Cluster, Collectives, Topology};
use dlra_core::algorithm1::{run_algorithm1, Algorithm1Config, SamplerKind};
use dlra_core::functions::EntryFunction;
use dlra_core::model::PartitionModel;
use dlra_net::{FrameCluster, Link, Pipe, WireCounters};
use dlra_sampler::ZSamplerParams;
use dlra_util::Rng;
use std::net::TcpStream;
use std::sync::Arc;

fn shares(s: usize, n: usize, d: usize, seed: u64) -> Vec<dlra_linalg::Matrix> {
    let mut rng = Rng::new(seed);
    let global = dlra_data::noisy_low_rank(n, d, 3, 0.1, &mut rng);
    dlra_data::split_with_noise_shares(&global, s, 0.3, &mut rng)
}

/// Runs [`audit_one`] on both links.
fn audit_both(s: usize, topology: Topology, cfg: &Algorithm1Config) {
    audit_one::<TcpStream>(s, topology, cfg);
    audit_one::<Pipe>(s, topology, cfg);
}

/// Runs one full Algorithm 1 query over link `S` and audits every byte
/// against the ledger; returns nothing — panics on any unexplained byte or
/// any divergence from the sequential reference.
fn audit_one<S: Link>(s: usize, topology: Topology, cfg: &Algorithm1Config) {
    let link = std::any::type_name::<S>();
    let parts = shares(s, 72, 10, cfg.seed);

    let mut sequential =
        PartitionModel::with_substrate(parts.clone(), EntryFunction::Identity, |locals| {
            Cluster::with_topology(locals, topology)
        })
        .unwrap();
    let want = run_algorithm1(&mut sequential, cfg).unwrap();

    let counters = WireCounters::shared();
    let shared = Arc::clone(&counters);
    let mut model = PartitionModel::with_substrate(parts, EntryFunction::Identity, move |locals| {
        FrameCluster::<_, S>::with_options(locals, topology, shared)
    })
    .unwrap();

    // Bootstrap traffic (hellos, roster, peer wiring on sockets; none on
    // pre-wired pipes) is control-plane: not ledger-charged, but still
    // fully counted. Snapshot after construction so the query delta
    // isolates the protocol itself.
    let boot = counters.snapshot();
    assert_eq!(
        boot.data_frames, 0,
        "bootstrap must be pure control traffic"
    );
    let ledger_before = model.cluster().comm();

    let got = run_algorithm1(&mut model, cfg).unwrap();

    // Bit-identical outputs and identical ledgers vs the simulator.
    assert_eq!(
        got.projection.basis().as_slice(),
        want.projection.basis().as_slice(),
        "projection diverges at s = {s}, {topology:?} on {link}"
    );
    assert_eq!(
        got.rows, want.rows,
        "rows diverge at s = {s}, {topology:?} on {link}"
    );
    assert_eq!(got.captured.to_bits(), want.captured.to_bits());
    assert_eq!(
        got.comm, want.comm,
        "ledgers diverge at s = {s}, {topology:?} on {link}"
    );
    assert_eq!(
        model.cluster().comm().since(&ledger_before),
        want.comm,
        "whole-cluster ledger delta must equal the query's reported comm"
    );

    // The audit identity: bytes on the wire are an affine function of the
    // ledger words. One data frame per charged message; each data frame is
    // 24 header bytes + descriptor + exactly 8 bytes per payload word; the
    // ledger's FRAME_WORDS envelope word maps onto part of the header.
    let wire = counters.snapshot().since(&boot);
    let comm = got.comm;
    assert!(wire.data_frames > 0, "the query must move data frames");
    assert_eq!(
        wire.data_frames, comm.messages,
        "one wire frame per ledger message at s = {s}, {topology:?} on {link}"
    );
    assert_eq!(
        wire.data_body_bytes,
        8 * (comm.total_words() - FRAME_WORDS * comm.messages),
        "payload bytes must be exactly 8 × charged payload words at s = {s}, {topology:?} on {link}"
    );
    assert_eq!(
        wire.data_header_bytes,
        24 * comm.messages,
        "fixed per-frame header overhead"
    );
    // Zero unexplained bytes: the four counted components are the whole
    // measurement, and each is individually tied to the ledger (frames,
    // bodies) or to the protocol's fixed overhead (headers, descriptors,
    // control traffic).
    assert_eq!(
        wire.total_bytes(),
        wire.data_header_bytes + wire.data_desc_bytes + wire.data_body_bytes + wire.control_bytes,
        "unexplained bytes on the wire at s = {s}, {topology:?} on {link}"
    );

    // Teardown: one counted 24-byte shutdown frame per server link.
    let before = counters.snapshot();
    drop(model);
    let teardown = counters.snapshot().since(&before);
    assert_eq!(
        teardown.control_frames,
        (s - 1) as u64,
        "one shutdown frame per server at s = {s} on {link}"
    );
    assert_eq!(teardown.control_bytes, 24 * (s - 1) as u64);
    assert_eq!(teardown.total_bytes(), teardown.control_bytes);
}

#[test]
fn algorithm1_wire_bytes_are_affine_in_ledger_words_star() {
    let cfg = Algorithm1Config {
        k: 3,
        r: 30,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 7,
        ..Default::default()
    };
    audit_both(4, Topology::Star, &cfg);
}

#[test]
fn algorithm1_wire_bytes_are_affine_in_ledger_words_tree() {
    // Non-power-of-two s: the tree has a ragged final round, the hardest
    // case for per-hop charging.
    let cfg = Algorithm1Config {
        k: 3,
        r: 24,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 11,
        ..Default::default()
    };
    audit_both(5, Topology::Tree { fanout: 2 }, &cfg);
}

#[test]
fn uniform_query_audits_clean_too() {
    // A second protocol shape (no sketch phase) through the same audit.
    let cfg = Algorithm1Config {
        k: 2,
        r: 25,
        sampler: SamplerKind::Uniform,
        seed: 3,
        ..Default::default()
    };
    audit_both(4, Topology::Star, &cfg);
    audit_both(3, Topology::Tree { fanout: 2 }, &cfg);
}
