//! Substrate-equivalence guarantee: Algorithm 1 on the threaded
//! message-passing runtime **and on the networked socket runtime** is
//! **bit-identical** to the sequential simulator — same projection matrix,
//! same sampled row indices, same boosting score — and consumes
//! **exactly** the same ledger word totals, for every tested seed and
//! cluster size.
//!
//! This is the contract that lets every experiment and test in the
//! workspace interchange substrates freely.

use dlra::comm::{Cluster, Collectives, Topology};
use dlra::core::adaptive::{run_adaptive, AdaptiveConfig};
use dlra::net::SocketCluster;
use dlra::prelude::*;
use dlra::runtime::ThreadedCluster;
use dlra::runtime::{socket_model, threaded_model, Substrate};
use dlra::util::Rng;

const SEEDS: [u64; 3] = [1, 7, 42];
const SERVER_COUNTS: [usize; 3] = [2, 4, 8];

fn shares(s: usize, n: usize, d: usize, k: usize, seed: u64) -> Vec<dlra::linalg::Matrix> {
    let mut rng = Rng::new(seed);
    let global = dlra::data::noisy_low_rank(n, d, k, 0.1, &mut rng);
    dlra::data::split_with_noise_shares(&global, s, 0.3, &mut rng)
}

/// The query `cfg` describes, built through the typed builder.
fn query(cfg: &Algorithm1Config) -> Query {
    Query::rank(cfg.k)
        .samples(cfg.r)
        .boosted(cfg.boost)
        .sampler(cfg.sampler.clone())
        .seed(cfg.seed)
        .build()
        .unwrap()
}

/// A service built from `config`, holding `parts` as its only dataset.
fn service_with(parts: &[dlra::linalg::Matrix], config: ServiceConfig) -> (Service, DatasetHandle) {
    let service = Service::new(config);
    let dataset = service.load("resident", parts.to_vec()).unwrap();
    (service, dataset)
}

/// Runs one config on all three substrates — sequential simulator,
/// threaded message-passing, real sockets — and asserts exact agreement:
/// bit-identical outputs and identical ledger totals, pairwise.
fn assert_equivalent(s: usize, seed: u64, cfg: &Algorithm1Config) {
    let parts = shares(s, 72, 10, 3, seed);
    let mut sequential = PartitionModel::new(parts.clone(), EntryFunction::Identity).unwrap();
    let mut threaded = threaded_model(parts.clone(), EntryFunction::Identity).unwrap();
    let mut socket = socket_model(parts, EntryFunction::Identity).unwrap();

    let a = run_algorithm1(&mut sequential, cfg).unwrap();
    let b = run_algorithm1(&mut threaded, cfg).unwrap();
    let c = run_algorithm1(&mut socket, cfg).unwrap();

    for (name, other) in [("threaded", &b), ("socket", &c)] {
        // Bit-identical outputs.
        assert_eq!(
            a.projection.basis().as_slice(),
            other.projection.basis().as_slice(),
            "{name} projection diverges at s = {s}, seed = {seed}"
        );
        assert_eq!(
            a.rows, other.rows,
            "{name} sampled rows diverge at s = {s}, seed = {seed}"
        );
        assert_eq!(
            a.captured.to_bits(),
            other.captured.to_bits(),
            "{name} boosting score diverges at s = {s}, seed = {seed}"
        );
        // Identical per-run ledger totals.
        assert_eq!(
            a.comm, other.comm,
            "{name} run ledger diverges at s = {s}, seed = {seed}"
        );
    }
    // And whole-cluster ledgers agree across all three substrates.
    assert_eq!(
        sequential.cluster().comm(),
        threaded.cluster().comm(),
        "threaded total ledger diverges at s = {s}, seed = {seed}"
    );
    assert_eq!(
        sequential.cluster().comm(),
        socket.cluster().comm(),
        "socket total ledger diverges at s = {s}, seed = {seed}"
    );
}

#[test]
fn z_sampler_bit_identical_across_substrates() {
    for &s in &SERVER_COUNTS {
        for &seed in &SEEDS {
            let cfg = Algorithm1Config {
                k: 3,
                r: 30,
                sampler: SamplerKind::Z(ZSamplerParams::default()),
                seed,
                ..Default::default()
            };
            assert_equivalent(s, seed, &cfg);
        }
    }
}

#[test]
fn uniform_sampler_bit_identical_across_substrates() {
    for &s in &SERVER_COUNTS {
        for &seed in &SEEDS {
            let cfg = Algorithm1Config {
                k: 2,
                r: 25,
                sampler: SamplerKind::Uniform,
                seed,
                ..Default::default()
            };
            assert_equivalent(s, seed, &cfg);
        }
    }
}

#[test]
fn boosted_runs_bit_identical_across_substrates() {
    let cfg = Algorithm1Config {
        k: 3,
        r: 24,
        boost: 3,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 7,
    };
    assert_equivalent(4, 7, &cfg);
}

#[test]
fn adaptive_protocol_bit_identical_across_substrates() {
    let parts = shares(4, 96, 12, 3, 42);
    let mut sequential = PartitionModel::new(parts.clone(), EntryFunction::Identity).unwrap();
    let mut threaded = threaded_model(parts.clone(), EntryFunction::Identity).unwrap();
    let mut socket = socket_model(parts, EntryFunction::Identity).unwrap();
    let cfg = AdaptiveConfig {
        k: 3,
        rounds: 2,
        r_per_round: 20,
        params: ZSamplerParams::default(),
        seed: 42,
    };
    let a = run_adaptive(&mut sequential, &cfg).unwrap();
    for (name, other) in [
        ("threaded", run_adaptive(&mut threaded, &cfg).unwrap()),
        ("socket", run_adaptive(&mut socket, &cfg).unwrap()),
    ] {
        assert_eq!(
            a.projection.basis().as_slice(),
            other.projection.basis().as_slice(),
            "{name}"
        );
        assert_eq!(a.rows_per_round, other.rows_per_round, "{name}");
        assert_eq!(a.comm, other.comm, "{name}");
    }
}

#[test]
fn runtime_submit_matches_both_substrates() {
    let parts = shares(4, 72, 10, 3, 1);
    let cfg = Algorithm1Config {
        k: 3,
        r: 30,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 1,
        ..Default::default()
    };

    // The reference runs under the service's (possibly env-driven)
    // topology so the ledger comparison holds when CI plumbs
    // `DLRA_TOPOLOGY`.
    let topology = ServiceConfig::default().topology;
    let mut direct = PartitionModel::with_substrate(parts.clone(), EntryFunction::Identity, |l| {
        Cluster::with_topology(l, topology)
    })
    .unwrap();
    let want = run_algorithm1(&mut direct, &cfg).unwrap();

    for substrate in [
        Substrate::Sequential,
        Substrate::Threaded,
        Substrate::Socket,
    ] {
        let (_service, dataset) = service_with(
            &parts,
            ServiceConfig {
                executors: 2,
                substrate,
                ..Default::default()
            },
        );
        let got = dataset.submit(&query(&cfg)).wait().unwrap().output;
        assert_eq!(
            got.projection.basis().as_slice(),
            want.projection.basis().as_slice(),
            "{substrate:?}"
        );
        assert_eq!(got.rows, want.rows, "{substrate:?}");
        assert_eq!(got.comm, want.comm, "{substrate:?}");
    }
}

/// The plan cache is an optimization, never a semantic: the same Z query
/// submitted through a cache-enabled and a cache-disabled service delivers
/// bit-identical outputs and identical per-query ledger totals, both equal
/// to a direct sequential run. (CI additionally runs this whole suite with
/// `DLRA_PLAN_CACHE=0` and `=32`, toggling the default-config path.)
#[test]
fn plan_cache_on_and_off_stay_ledger_and_bit_identical() {
    let parts = shares(4, 72, 10, 3, 3);
    let cfg = Algorithm1Config {
        k: 3,
        r: 30,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 3,
        ..Default::default()
    };
    let topology = ServiceConfig::default().topology;
    let mut direct = PartitionModel::with_substrate(parts.clone(), EntryFunction::Identity, |l| {
        Cluster::with_topology(l, topology)
    })
    .unwrap();
    let want = run_algorithm1(&mut direct, &cfg).unwrap();

    for substrate in [
        Substrate::Sequential,
        Substrate::Threaded,
        Substrate::Socket,
    ] {
        for plan_cache in [0usize, 8] {
            let (_service, dataset) = service_with(
                &parts,
                ServiceConfig {
                    executors: 2,
                    substrate,
                    plan_cache,
                    metrics: true,
                    ..Default::default()
                },
            );
            let outcome = dataset.submit(&query(&cfg)).wait().unwrap();
            assert_eq!(
                outcome.plan.is_some(),
                plan_cache > 0,
                "plan provenance ({substrate:?}, plan_cache = {plan_cache})"
            );
            let got = outcome.output;
            assert_eq!(
                got.projection.basis().as_slice(),
                want.projection.basis().as_slice(),
                "projection diverges ({substrate:?}, plan_cache = {plan_cache})"
            );
            assert_eq!(got.rows, want.rows);
            assert_eq!(
                got.comm, want.comm,
                "ledger diverges ({substrate:?}, plan_cache = {plan_cache})"
            );
        }
    }
}

/// The topology column of the equivalence matrix: the same query routed
/// sequential-star, sequential-tree, and threaded-tree delivers
/// bit-identical outputs at every tested seed and cluster size (including
/// non-power-of-two `s`), the two tree substrates charge **exactly** the
/// same ledger, the tree moves the same total words as the star, and its
/// coordinator inbox strictly shrinks once `s > 2` — routing is a cost
/// knob, never a semantic.
#[test]
fn topology_matrix_bit_identical_with_smaller_tree_root_inbox() {
    for &s in &[2usize, 4, 8, 9] {
        for &seed in &SEEDS {
            let cfg = Algorithm1Config {
                k: 3,
                r: 24,
                sampler: SamplerKind::Z(ZSamplerParams::default()),
                seed,
                ..Default::default()
            };
            let parts = shares(s, 72, 10, 3, seed);
            let tree = Topology::Tree { fanout: 2 };
            let mut seq_star =
                PartitionModel::with_substrate(parts.clone(), EntryFunction::Identity, |l| {
                    Cluster::with_topology(l, Topology::Star)
                })
                .unwrap();
            let mut seq_tree =
                PartitionModel::with_substrate(parts.clone(), EntryFunction::Identity, |l| {
                    Cluster::with_topology(l, tree)
                })
                .unwrap();
            let mut thr_tree =
                PartitionModel::with_substrate(parts.clone(), EntryFunction::Identity, |l| {
                    ThreadedCluster::with_topology(l, tree)
                })
                .unwrap();
            let mut skt_tree =
                PartitionModel::with_substrate(parts, EntryFunction::Identity, |l| {
                    SocketCluster::with_topology(l, tree)
                })
                .unwrap();

            let star = run_algorithm1(&mut seq_star, &cfg).unwrap();
            let a = run_algorithm1(&mut seq_tree, &cfg).unwrap();
            let b = run_algorithm1(&mut thr_tree, &cfg).unwrap();
            let c = run_algorithm1(&mut skt_tree, &cfg).unwrap();

            // Bit-identical outputs across topologies and substrates.
            assert_eq!(
                star.projection.basis().as_slice(),
                a.projection.basis().as_slice(),
                "star vs tree projection diverges at s = {s}, seed = {seed}"
            );
            for (name, other) in [("threaded", &b), ("socket", &c)] {
                assert_eq!(
                    a.projection.basis().as_slice(),
                    other.projection.basis().as_slice(),
                    "{name} tree projection diverges at s = {s}, seed = {seed}"
                );
                assert_eq!(a.rows, other.rows, "{name}, s = {s}, seed = {seed}");
                assert_eq!(a.captured.to_bits(), other.captured.to_bits(), "{name}");
                // Exact per-run ledger parity between the tree substrates.
                assert_eq!(
                    a.comm, other.comm,
                    "{name} tree run ledger diverges at s = {s}, seed = {seed}"
                );
            }
            assert_eq!(star.rows, a.rows, "s = {s}, seed = {seed}");
            assert_eq!(star.captured.to_bits(), a.captured.to_bits());

            // Whole-cluster ledger parity across all tree substrates.
            assert_eq!(
                seq_tree.cluster().comm(),
                thr_tree.cluster().comm(),
                "tree total ledgers diverge at s = {s}, seed = {seed}"
            );
            assert_eq!(
                seq_tree.cluster().comm(),
                skt_tree.cluster().comm(),
                "socket tree total ledger diverges at s = {s}, seed = {seed}"
            );

            // The tree never moves more data than the star; it only
            // spreads the fan-in, so the coordinator's inbox shrinks.
            let star_comm = seq_star.cluster().comm();
            let tree_comm = seq_tree.cluster().comm();
            assert_eq!(
                star_comm.total_words(),
                tree_comm.total_words(),
                "tree must move exactly the star's words at s = {s}, seed = {seed}"
            );
            if s > 2 {
                assert!(
                    tree_comm.root_inbox_messages < star_comm.root_inbox_messages,
                    "tree root inbox ({}) must shrink below star's ({}) at s = {s}",
                    tree_comm.root_inbox_messages,
                    star_comm.root_inbox_messages
                );
            }
        }
    }
}

/// Copy-on-write residency: loading a dataset into a `Service` and
/// dispatching queries shares the resident matrix storage — no query ever
/// copies the entry data. Observed through the `Arc` refcount of each
/// resident matrix: it is `2` at rest (this test + the service), rises
/// **above** `2` while a query's model is alive (a deep copy would never
/// raise it), and falls back to `1` once the service is dropped.
#[test]
fn query_dispatch_copies_no_resident_matrix_data() {
    let parts = shares(3, 4096, 16, 3, 5);
    let cfg = Algorithm1Config {
        k: 3,
        r: 40,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 5,
        ..Default::default()
    };
    for substrate in [Substrate::Sequential, Substrate::Threaded] {
        let (service, dataset) = service_with(
            &parts,
            ServiceConfig {
                executors: 2,
                substrate,
                ..Default::default()
            },
        );
        // Loading shared, did not copy: each matrix is held exactly by
        // this test and by the service's resident payload.
        for (mine, resident) in parts.iter().zip(dataset.resident().iter()) {
            assert!(
                mine.shares_storage(resident),
                "loading the dataset copied matrix data ({substrate:?})"
            );
            assert_eq!(mine.storage_refcount(), 2);
        }

        // While a query is in flight its model shares the payload too, so
        // the refcount must exceed 2 at some point. A dispatch that deep-
        // copied would leave it pinned at 2 for the whole run.
        let ticket = dataset.submit(&query(&cfg));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut observed_shared_dispatch = false;
        while std::time::Instant::now() < deadline {
            if parts[0].storage_refcount() > 2 {
                observed_shared_dispatch = true;
                break;
            }
            std::thread::yield_now();
        }
        assert!(
            observed_shared_dispatch,
            "in-flight query never shared the resident payload ({substrate:?})"
        );
        ticket.wait().unwrap();

        // Query completion releases the shares; dropping the service leaves
        // this test as the sole owner — nothing leaked, nothing copied.
        drop((service, dataset));
        for mine in &parts {
            assert_eq!(mine.storage_refcount(), 1, "{substrate:?}");
        }
    }
}

/// A full protocol run never detaches a server from the resident storage:
/// Algorithm 1 and the adaptive protocol only touch query-local scratch
/// (injected coordinates, residual views), so after the run every server
/// still aliases the caller's matrices.
#[test]
fn protocol_runs_leave_resident_storage_shared() {
    let parts = shares(4, 72, 10, 3, 7);
    let cfg = Algorithm1Config {
        k: 3,
        r: 30,
        sampler: SamplerKind::Z(ZSamplerParams::default()),
        seed: 7,
        ..Default::default()
    };

    let mut threaded = threaded_model(parts.clone(), EntryFunction::Identity).unwrap();
    run_algorithm1(&mut threaded, &cfg).unwrap();
    let adaptive_cfg = AdaptiveConfig {
        k: 3,
        rounds: 2,
        r_per_round: 15,
        params: ZSamplerParams::default(),
        seed: 7,
    };
    run_adaptive(&mut threaded, &adaptive_cfg).unwrap();
    for (t, part) in parts.iter().enumerate() {
        threaded.cluster().with_local(t, |server| {
            assert!(
                server.shares_resident_storage(part),
                "server {t} detached from the resident storage"
            );
        });
    }

    let mut sequential = PartitionModel::new(parts.clone(), EntryFunction::Identity).unwrap();
    run_algorithm1(&mut sequential, &cfg).unwrap();
    for (t, part) in parts.iter().enumerate() {
        sequential.cluster().with_local(t, |server| {
            assert!(server.shares_resident_storage(part), "server {t} detached");
        });
    }
}
