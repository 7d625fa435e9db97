//! The servers as **real operating-system processes**: spawns
//! `dlra-net-server` children, bootstraps them into a cluster over TCP,
//! runs every remote op — including a combining-tree reduction whose hops
//! are sockets between separate processes — and checks results against a
//! direct computation plus ledger parity against the sequential simulator
//! running the same logical protocol. Ends with a clean shutdown and
//! asserts every child exited successfully.

use dlra_comm::{Cluster, Collectives, Topology};
use dlra_net::remote::{demo_state, RemoteCoordinator};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

const S: usize = 4;
const DIM: usize = 6;

fn spawn_servers(addr: &str) -> Vec<Child> {
    (1..S)
        .map(|t| {
            Command::new(env!("CARGO_BIN_EXE_dlra-net-server"))
                .arg(addr)
                .arg(t.to_string())
                .arg(DIM.to_string())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn dlra-net-server child")
        })
        .collect()
}

/// The sequential reference for the demo protocol: same ops, same payload
/// words, charged through the simulator's `Collectives` so whole-cluster
/// ledger totals are comparable.
fn reference_ledger(
    topology: Topology,
    factor: f64,
    query: (usize, usize),
) -> dlra_comm::LedgerSnapshot {
    let locals: Vec<Vec<f64>> = (0..S).map(|t| demo_state(t, DIM)).collect();
    let mut cluster = Cluster::with_topology(locals, topology);
    Collectives::broadcast(
        &mut cluster,
        &factor,
        "net.scale",
        |_t, local: &mut Vec<f64>, f: &f64| {
            for x in local.iter_mut() {
                *x *= f;
            }
        },
    );
    let _sums = Collectives::gather(
        &mut cluster,
        "net.gather_sum",
        |_t, local: &mut Vec<f64>| local.iter().sum::<f64>(),
    );
    let _total = Collectives::aggregate_topo(
        &mut cluster,
        "net.reduce_sum",
        |_t, local: &mut Vec<f64>| local.iter().sum::<f64>(),
        |acc: &mut f64, r: f64| *acc += r,
    );
    let (t, j) = query;
    let _x = Collectives::query_server(&mut cluster, t, &j, "net.point", |local, &jj: &usize| {
        local[jj]
    });
    cluster.comm()
}

#[test]
fn real_processes_match_reference_values_and_ledger() {
    let topology = Topology::Tree { fanout: 2 };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = listener.local_addr().expect("listener addr").to_string();

    let mut children = spawn_servers(&addr);
    let mut coord = RemoteCoordinator::accept(&listener, demo_state(0, DIM), S, topology)
        .expect("bootstrap remote cluster");

    // Broadcast: every process scales its state.
    let factor = 1.5f64;
    coord.broadcast_scale(factor).expect("broadcast");

    // Gather: per-server sums of the scaled states, computed in-process by
    // the children, must match a direct computation.
    let sums = coord.gather_sum().expect("gather");
    let want_sums: Vec<f64> = (0..S)
        .map(|t| demo_state(t, DIM).iter().sum::<f64>() * factor)
        .collect();
    assert_eq!(sums.len(), S);
    for (t, (got, want)) in sums.iter().zip(&want_sums).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "gather sum of server {t}");
    }

    // Tree reduction: interior hops are sockets between child processes.
    let total = coord.reduce_sum().expect("reduce");
    let want_total: f64 = {
        // Mirror the reference merge order (combining tree over the plan),
        // not a flat left-to-right sum — f64 addition is order-sensitive.
        let locals: Vec<Vec<f64>> = (0..S)
            .map(|t| demo_state(t, DIM).iter().map(|x| x * factor).collect())
            .collect();
        let mut cluster = Cluster::with_topology(locals, topology);
        Collectives::aggregate_topo(
            &mut cluster,
            "want_total",
            |_t, local: &mut Vec<f64>| local.iter().sum::<f64>(),
            |acc: &mut f64, r: f64| *acc += r,
        )
    };
    assert_eq!(total.to_bits(), want_total.to_bits(), "tree-reduced total");

    // Point query, remote and local.
    let q = (2usize, 3usize);
    let x = coord.query_point(q.0, q.1).expect("query");
    assert_eq!(x.to_bits(), (demo_state(q.0, DIM)[q.1] * factor).to_bits());
    let x0 = coord.query_point(0, 1).expect("local query");
    assert_eq!(x0.to_bits(), (demo_state(0, DIM)[1] * factor).to_bits());

    // Whole-cluster ledger parity with the sequential simulator running
    // the same logical ops (the local query at t = 0 is free in both).
    let want_ledger = reference_ledger(topology, factor, q);
    assert_eq!(
        coord.ledger().snapshot(),
        want_ledger,
        "process-cluster ledger diverges from the sequential reference"
    );

    // The coordinator's counters are send-side and per-process: across a
    // real process boundary they see only the coordinator's own frames
    // (the children count their replies and tree hops in their own address
    // spaces). Audit the downstream direction exactly: the coordinator
    // sent one data frame per broadcast recipient plus one per remote
    // point query, and their bodies are exactly the charged downstream
    // payload words. (The whole-cluster audit, both directions, runs in
    // the loopback tests where all threads share one counter set.)
    let wire = coord.counters().snapshot();
    let comm = coord.ledger().snapshot();
    let downstream_frames = (S as u64 - 1) + 1;
    assert_eq!(wire.data_frames, downstream_frames);
    assert_eq!(
        wire.data_body_bytes,
        8 * (comm.downstream_words - dlra_comm::ledger::FRAME_WORDS * downstream_frames)
    );

    // Clean shutdown: the coordinator observes EOF on every link, and
    // every child process exits with status 0.
    coord.shutdown().expect("clean shutdown");
    for (i, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait for child");
        assert!(status.success(), "server {} exited with {status}", i + 1);
    }
}

#[test]
fn out_of_range_point_query_is_an_error_not_a_crash() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut children = spawn_servers(&addr);
    let mut coord = RemoteCoordinator::accept(&listener, demo_state(0, DIM), S, Topology::Star)
        .expect("bootstrap remote cluster");

    // The coordinator's own state, then server 1's process.
    for t in [0, 1] {
        let err = coord.query_point(t, 99).expect_err("coordinate 99 of 6");
        assert!(
            err.to_string().contains("coordinate 99"),
            "server {t}: {err}"
        );
    }
    // Server 1 reported the error and exited; the others still serve.
    let x = coord.query_point(2, 1).expect("in-range query");
    assert_eq!(x.to_bits(), demo_state(2, DIM)[1].to_bits());

    coord.shutdown().expect("shutdown");
    let statuses: Vec<_> = children
        .iter_mut()
        .map(|child| child.wait().expect("wait for child"))
        .collect();
    assert_eq!(statuses[0].code(), Some(1), "server 1 exits with status 1");
    for (i, status) in statuses.iter().enumerate().skip(1) {
        assert!(status.success(), "server {} exited with {status}", i + 1);
    }
}

#[test]
fn oversized_server_id_is_rejected_at_bootstrap() {
    // A child claiming an out-of-range id must be rejected by the
    // coordinator's roster validation; the child then exits nonzero with a
    // diagnostic instead of hanging.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut bogus = Command::new(env!("CARGO_BIN_EXE_dlra-net-server"))
        .arg(&addr)
        .arg("7") // only ids 1..2 are valid in a 2-server cluster
        .arg(DIM.to_string())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bogus child");
    let err = match RemoteCoordinator::accept(&listener, demo_state(0, DIM), 2, Topology::Star) {
        Err(e) => e,
        Ok(_) => panic!("bootstrap must reject an out-of-range server id"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("server id") || msg.contains("roster") || msg.contains("protocol"),
        "unhelpful bootstrap error: {msg}"
    );
    let status = bogus.wait().expect("wait for bogus child");
    assert!(!status.success(), "bogus child must exit nonzero");
}
