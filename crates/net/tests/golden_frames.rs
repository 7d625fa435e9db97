//! Golden frame counts: every [`WireStats`] counter and every
//! [`LedgerSnapshot`] field of a fixed set of runs, pinned to recorded
//! values.
//!
//! The wire audit (`wire_audit.rs`) checks that bytes are an affine
//! function of ledger words; this suite checks that neither side moves at
//! all. Each run is observed at four points:
//!
//! * **boot** — the traffic of building the cluster (the Hello → Roster →
//!   Ready handshake on sockets, nothing on pre-wired pipes);
//! * **run** — the traffic of the run itself, data and control;
//! * **ledger** — the whole-cluster ledger after the run;
//! * **teardown** — the traffic of dropping the cluster.
//!
//! The runs are the Algorithm 1 queries the wire audit audits and one run
//! of every collective, each under a star and a combining tree on both
//! links, plus the multi-process demo protocol seen from its coordinator.

use dlra_comm::{Cluster, Collectives, LedgerSnapshot, Topology};
use dlra_core::algorithm1::{run_algorithm1, Algorithm1Config, SamplerKind};
use dlra_core::functions::EntryFunction;
use dlra_core::model::PartitionModel;
use dlra_net::remote::{demo_state, RemoteCoordinator};
use dlra_net::{FrameCluster, Link, Pipe, WireCounters, WireStats};
use dlra_sampler::ZSamplerParams;
use dlra_util::Rng;
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// The six [`WireStats`] counters, in declaration order: data frames,
/// data header, descriptor and body bytes, control frames, control bytes.
type Counts = [u64; 6];

/// The six [`LedgerSnapshot`] fields, in declaration order: upstream and
/// downstream words, messages, rounds, root-inbox words and messages.
type Words = [u64; 6];

fn counts(w: &WireStats) -> Counts {
    [
        w.data_frames,
        w.data_header_bytes,
        w.data_desc_bytes,
        w.data_body_bytes,
        w.control_frames,
        w.control_bytes,
    ]
}

fn words(l: &LedgerSnapshot) -> Words {
    [
        l.upstream_words,
        l.downstream_words,
        l.messages,
        l.rounds,
        l.root_inbox_words,
        l.root_inbox_messages,
    ]
}

/// What one cluster put on its links and in its ledger.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    boot: Counts,
    run: Counts,
    ledger: Words,
    teardown: Counts,
}

/// Builds an owner of a cluster that charges `counters`, runs `run` on it
/// (which returns the whole-cluster ledger afterwards) and drops it.
fn observe<M>(
    build: impl FnOnce(Arc<WireCounters>) -> M,
    run: impl FnOnce(&mut M) -> LedgerSnapshot,
) -> Observed {
    let counters = WireCounters::shared();
    let mut owner = build(Arc::clone(&counters));
    let boot = counters.snapshot();
    let ledger = words(&run(&mut owner));
    let after_run = counters.snapshot();
    drop(owner);
    Observed {
        boot: counts(&boot),
        run: counts(&after_run.since(&boot)),
        ledger,
        teardown: counts(&counters.snapshot().since(&after_run)),
    }
}

/// The pinned values of one run on an `s`-server cluster: its bootstrap
/// on sockets (pipes have none), then what the run put on either link and
/// in the ledger. Teardown is one 24-byte shutdown frame per server.
struct Golden {
    s: u64,
    socket_boot: Counts,
    run: Counts,
    ledger: Words,
}

impl Golden {
    /// Checks the run on sockets and on pipes.
    fn check(&self, what: &str, sockets: Observed, pipes: Observed) {
        let teardown = [0, 0, 0, 0, self.s - 1, 24 * (self.s - 1)];
        let want = |boot| Observed {
            boot,
            run: self.run,
            ledger: self.ledger,
            teardown,
        };
        assert_eq!(sockets, want(self.socket_boot), "{what} on sockets");
        assert_eq!(pipes, want([0; 6]), "{what} on pipes");
    }
}

fn shares(s: usize, seed: u64) -> Vec<dlra_linalg::Matrix> {
    let mut rng = Rng::new(seed);
    let global = dlra_data::noisy_low_rank(72, 10, 3, 0.1, &mut rng);
    dlra_data::split_with_noise_shares(&global, s, 0.3, &mut rng)
}

/// One Algorithm 1 query of the wire audit, over link `S`.
fn query<S: Link>(s: usize, topology: Topology, cfg: &Algorithm1Config) -> Observed {
    observe(
        |counters| {
            PartitionModel::with_substrate(shares(s, cfg.seed), EntryFunction::Identity, |l| {
                FrameCluster::<_, S>::with_options(l, topology, counters)
            })
            .unwrap()
        },
        |model| {
            run_algorithm1(model, cfg).unwrap();
            model.cluster().comm()
        },
    )
}

fn check_query(s: usize, topology: Topology, cfg: &Algorithm1Config, golden: &Golden) {
    golden.check(
        &format!("s = {s} {topology:?} query"),
        query::<TcpStream>(s, topology, cfg),
        query::<Pipe>(s, topology, cfg),
    );
}

fn locals(s: usize) -> Vec<Vec<f64>> {
    (0..s).map(|t| vec![t as f64; 4]).collect()
}

/// Every collective once (the protocol of `cluster.rs`'s unit tests).
fn protocol<C: Collectives<Vec<f64>>>(c: &mut C) -> LedgerSnapshot {
    c.broadcast(&1.5f64, "p.bcast", |_t, local, &m| {
        for x in local.iter_mut() {
            *x += m;
        }
    });
    c.gather("p.gather", |t, local| local[0] * (t + 1) as f64);
    c.aggregate(
        "p.agg",
        |_t, local| local.iter().sum::<f64>(),
        |acc, r| *acc += r,
    );
    c.query_all(&2usize, "p.qa", |t, local, &j| local[j] + t as f64);
    let target = 1 % c.num_servers();
    c.query_server(target, &0usize, "p.qs", |local, &j| local[j]);
    c.aggregate_topo(
        "p.at",
        |t, local| local[0] * (t as f64 + 0.25),
        |acc, r| *acc += r,
    );
    c.query_aggregate(
        &1usize,
        "p.qat",
        |t, local, &j| local[j] + (t as f64).sqrt(),
        |acc, r| *acc += r,
    );
    c.comm()
}

fn collectives<S: Link>(s: usize, topology: Topology) -> Observed {
    observe(
        |counters| FrameCluster::<_, S>::with_options(locals(s), topology, counters),
        protocol,
    )
}

fn check_collectives(s: usize, topology: Topology, golden: &Golden) {
    golden.check(
        &format!("s = {s} {topology:?} collectives"),
        collectives::<TcpStream>(s, topology),
        collectives::<Pipe>(s, topology),
    );
    let reference = protocol(&mut Cluster::with_topology(locals(s), topology));
    assert_eq!(words(&reference), golden.ledger, "sequential reference");
}

#[test]
fn z_query_frame_counts_are_pinned_star() {
    let cfg = Algorithm1Config {
        k: 3,
        r: 30,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 7,
        ..Default::default()
    };
    let golden = Golden {
        s: 4,
        socket_boot: [0, 0, 0, 0, 9, 294],
        run: [33, 792, 408, 2186112, 15, 360],
        ledger: [272031, 1266, 33, 8, 272031, 15],
    };
    check_query(4, Topology::Star, &cfg, &golden);
}

#[test]
fn z_query_frame_counts_are_pinned_tree() {
    let cfg = Algorithm1Config {
        k: 3,
        r: 24,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 11,
        ..Default::default()
    };
    let golden = Golden {
        s: 5,
        socket_boot: [0, 0, 0, 0, 13, 424],
        run: [44, 1056, 624, 2912672, 20, 480],
        ledger: [362516, 1612, 44, 18, 271887, 15],
    };
    check_query(5, Topology::Tree { fanout: 2 }, &cfg, &golden);
}

#[test]
fn uniform_query_frame_counts_are_pinned() {
    let cfg = Algorithm1Config {
        k: 2,
        r: 25,
        sampler: SamplerKind::Uniform,
        seed: 3,
        ..Default::default()
    };
    let star = Golden {
        s: 4,
        socket_boot: [0, 0, 0, 0, 9, 294],
        run: [6, 144, 36, 5808, 0, 0],
        ledger: [663, 69, 6, 1, 663, 3],
    };
    check_query(4, Topology::Star, &cfg, &star);
    let tree = Golden {
        s: 3,
        socket_boot: [0, 0, 0, 0, 6, 192],
        run: [4, 96, 24, 3872, 0, 0],
        ledger: [442, 46, 4, 2, 442, 2],
    };
    check_query(3, Topology::Tree { fanout: 2 }, &cfg, &tree);
}

#[test]
fn collective_frame_counts_are_pinned_star() {
    let golden = Golden {
        s: 4,
        socket_boot: [0, 0, 0, 0, 9, 294],
        run: [26, 624, 24, 208, 12, 288],
        ledger: [32, 20, 26, 6, 32, 16],
    };
    check_collectives(4, Topology::Star, &golden);
}

#[test]
fn collective_frame_counts_are_pinned_tree() {
    let golden = Golden {
        s: 5,
        socket_boot: [0, 0, 0, 0, 13, 424],
        run: [34, 816, 64, 272, 16, 384],
        ledger: [42, 26, 34, 10, 38, 19],
    };
    check_collectives(5, Topology::Tree { fanout: 2 }, &golden);
}

#[test]
fn remote_coordinator_frame_counts_are_pinned() {
    // The coordinator's counters see only the frames it sends itself; the
    // server processes count theirs in their own address spaces.
    const S: usize = 4;
    const DIM: usize = 6;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let mut children: Vec<_> = (1..S)
        .map(|t| {
            Command::new(env!("CARGO_BIN_EXE_dlra-net-server"))
                .args([addr.clone(), t.to_string(), DIM.to_string()])
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn dlra-net-server child")
        })
        .collect();
    let topology = Topology::Tree { fanout: 2 };
    let mut coord = RemoteCoordinator::accept(&listener, demo_state(0, DIM), S, topology)
        .expect("bootstrap remote cluster");
    let counters = Arc::clone(coord.counters());
    let boot = counters.snapshot();
    coord.broadcast_scale(1.5).expect("broadcast");
    coord.gather_sum().expect("gather");
    coord.reduce_sum().expect("reduce");
    coord.query_point(2, 3).expect("remote query");
    coord.query_point(0, 1).expect("local query");
    let after_run = counters.snapshot();
    let ledger = words(&coord.ledger().snapshot());
    coord.shutdown().expect("clean shutdown");
    for child in &mut children {
        assert!(child.wait().expect("wait for child").success());
    }
    let observed = Observed {
        boot: counts(&boot),
        run: counts(&after_run.since(&boot)),
        ledger,
        teardown: counts(&counters.snapshot().since(&after_run)),
    };
    let want = Observed {
        boot: [0, 0, 0, 0, 3, 144],
        run: [4, 96, 0, 32, 6, 144],
        ledger: [14, 8, 11, 4, 12, 6],
        teardown: [0, 0, 0, 0, 3, 72],
    };
    assert_eq!(observed, want);
}
