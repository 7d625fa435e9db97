//! The pinned workloads. Every input the library sees — data shape and
//! generator, entrywise `f`, `ZSamplerParams` field by field, the
//! `ServiceConfig`, the kernel thread count, the arrival process — is fixed
//! here, so no ambient `DLRA_*` variable can change what is measured. The
//! data and the shared plan seeds are fixtures; the run seed (a CLI
//! argument) picks the query sequence.

use dlra::comm::Topology;
use dlra::core::EntryFunction;
use dlra::data::{isolet_like, noisy_low_rank, split_with_noise_shares};
use dlra::linalg::Matrix;
use dlra::runtime::{ServiceConfig, Substrate};
use dlra::sampler::ZSamplerParams;
use dlra::util::Rng;

/// Gate constant: every evaluated query must satisfy
/// `additive_error ≤ GATE_C · k²/r` (the paper's `k²/r` prediction). At
/// k = 1 the Huber workloads exceed the plain prediction by up to 11×.
pub const GATE_C: f64 = 30.0;

/// The datasets are fixtures: their generator seeds are pinned, so every
/// run measures the same data and the run seed only varies the queries.
pub const DATA_SEED: u64 = 20_160_516;

/// Root of the pinned per-tenant plan seeds (`Seeds::PerTenant`).
pub const PLAN_SEED: u64 = 0x7E_5EED;

/// A seed no tuning run used; a later performance claim re-checks on it.
pub const HELD_OUT_SEED: u64 = 907_331;

/// Coordinator-side kernel threads (`dlra_linalg::set_threads`).
pub const KERNEL_THREADS: usize = 2;

/// Seconds of unrecorded closed-loop load before an open-loop window.
pub const PREWARM_S: f64 = 8.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Queries per run re-executed on the sequential `Cluster` by the gate.
pub const GATE_QUERIES: u64 = 2;

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `clients` callers that each submit, wait, and submit again.
    Closed { clients: usize },
    /// Evenly spaced arrivals at `rate_qps`, independent of completions;
    /// tenant 0 is reloaded before every `reload_every`-th arrival.
    Open { rate_qps: f64, reload_every: u64 },
}

/// Which generator builds a tenant's shares.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// `isolet_like(1, outliers, seed)`: 1200×256 on 10 servers.
    Isolet { outliers: usize },
    /// `noisy_low_rank(n, d, rank, noise)` split into `servers` additive
    /// shares with `split_with_noise_shares(.., 0.3, ..)`.
    LowRank {
        n: usize,
        d: usize,
        rank: usize,
        servers: usize,
    },
}

/// How queries choose their seed, and so their plan key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeds {
    /// Every query has a fresh seed: every query misses the plan cache.
    Fresh,
    /// Every query of a tenant uses that tenant's one seed.
    PerTenant,
}

/// One query's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    pub tenant: usize,
    pub k: usize,
    pub r: usize,
    pub seed: u64,
}

/// A pinned workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub config: ServiceConfig,
    pub f: EntryFunction,
    pub params: ZSamplerParams,
    pub data: Data,
    pub tenants: usize,
    pub load: Load,
    pub seeds: Seeds,
    /// `k` cycles through `1..=k_max`.
    pub k_max: usize,
    /// `r` cycles through `r_min..=r_max`.
    pub r_min: usize,
    pub r_max: usize,
    /// Queries per run whose `additive_error` is evaluated (indices `0..`).
    pub eval_queries: u64,
}

/// `ZSamplerParams::practical(1200·256, 4000)`, written out.
fn isolet_params() -> ZSamplerParams {
    ZSamplerParams {
        eps_class: 0.35,
        hh_depth: 3,
        hh_width: 33,
        groups: 2,
        reps: 1,
        b_threshold: 8.25,
        max_levels: 19,
        window_lo: 3,
        window_hi: 96,
        max_inject_per_class: 64,
        g_independence: 16,
        max_draw_tries: 64,
        max_candidates_per_level: 50,
    }
}

/// `ZSamplerParams::practical(1024·16, 2000)`, written out.
fn churn_params() -> ZSamplerParams {
    ZSamplerParams {
        eps_class: 0.35,
        hh_depth: 2,
        hh_width: 31,
        groups: 2,
        reps: 1,
        b_threshold: 7.75,
        max_levels: 15,
        window_lo: 3,
        window_hi: 96,
        max_inject_per_class: 64,
        g_independence: 16,
        max_draw_tries: 64,
        max_candidates_per_level: 32,
    }
}

fn config(substrate: Substrate, max_queue_depth: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        executors: 2,
        substrate,
        plan_cache: 16,
        metrics: true,
        topology: Topology::Star,
        max_queue_depth,
        memory_budget: None,
    }
}

pub const NAMES: [&str; 3] = ["cold_prepare", "warm_svd", "socket_churn"];

/// The workload named `name`, or `None`.
pub fn workload(name: &str) -> Option<Workload> {
    let isolet = Data::Isolet { outliers: 50 };
    let huber = EntryFunction::Huber { k: 10.0 };
    let w = match name {
        "cold_prepare" => Workload {
            name: "cold_prepare",
            config: config(Substrate::Threaded, None),
            f: huber,
            params: isolet_params(),
            data: isolet,
            tenants: 1,
            load: Load::Closed { clients: 2 },
            seeds: Seeds::Fresh,
            k_max: 12,
            r_min: 200,
            r_max: 200,
            eval_queries: 48,
        },
        "warm_svd" => Workload {
            name: "warm_svd",
            config: config(Substrate::Socket, None),
            f: huber,
            params: isolet_params(),
            data: isolet,
            tenants: 1,
            load: Load::Closed { clients: 2 },
            seeds: Seeds::PerTenant,
            k_max: 12,
            r_min: 400,
            r_max: 600,
            eval_queries: 12,
        },
        "socket_churn" => Workload {
            name: "socket_churn",
            config: config(Substrate::Socket, Some(1024)),
            f: EntryFunction::Identity,
            params: churn_params(),
            data: Data::LowRank {
                n: 1024,
                d: 16,
                rank: 4,
                servers: 16,
            },
            tenants: 3,
            load: Load::Open {
                rate_qps: 100.0,
                reload_every: 125,
            },
            seeds: Seeds::PerTenant,
            k_max: 4,
            r_min: 24,
            r_max: 40,
            eval_queries: 2000,
        },
        _ => return None,
    };
    Some(w)
}

/// SplitMix64 finalizer: decorrelates `(seed, i)` pairs.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Per-tenant shares. Calling it twice gives equal values in fresh
    /// storage, which is what a reload installs.
    pub fn datasets(&self) -> Vec<Vec<Matrix>> {
        (0..self.tenants)
            .map(|t| {
                let tseed = mix(DATA_SEED, t as u64);
                match self.data {
                    Data::Isolet { outliers } => isolet_like(1, outliers, tseed).parts,
                    Data::LowRank {
                        n,
                        d,
                        rank,
                        servers,
                    } => {
                        let mut rng = Rng::new(tseed);
                        let a = noisy_low_rank(n, d, rank, 0.1, &mut rng);
                        split_with_noise_shares(&a, servers, 0.3, &mut rng)
                    }
                }
            })
            .collect()
    }

    /// Arrival `i` of the measurement window. The seed picks where in the
    /// `(k, r)` cycle the window starts; any 12 consecutive arrivals cover
    /// every `k` of the isolet workloads.
    pub fn query(&self, seed: u64, i: u64) -> QuerySpec {
        let tenant = match self.load {
            // The arrival right after a reload goes to the reloaded tenant,
            // so every epoch is prepared exactly once.
            Load::Open { reload_every, .. } if i.is_multiple_of(reload_every) => 0,
            _ => (mix(seed, i.wrapping_add(0xA77_0000)) % self.tenants as u64) as usize,
        };
        let span = (self.r_max - self.r_min + 1) as u64;
        let j = i + mix(seed, 0x0FF5E7) % 1_000_000;
        QuerySpec {
            tenant,
            k: 1 + (j % self.k_max as u64) as usize,
            r: self.r_min + (j % span) as usize,
            seed: self.query_seed(seed, tenant, i),
        }
    }

    /// The set-up queries: one per tenant, each completing the plan key the
    /// tenant uses in steady state (on `Fresh` seeds, one query that warms
    /// the executor and kernel pools).
    pub fn warmups(&self, seed: u64) -> Vec<QuerySpec> {
        (0..self.tenants)
            .map(|t| QuerySpec {
                tenant: t,
                k: 1,
                r: self.r_min,
                seed: self.query_seed(seed, t, u64::MAX - t as u64),
            })
            .collect()
    }

    fn query_seed(&self, seed: u64, tenant: usize, i: u64) -> u64 {
        match self.seeds {
            Seeds::Fresh => mix(seed, i.wrapping_add(0x5EED_0000_0000)),
            Seeds::PerTenant => mix(PLAN_SEED, tenant as u64),
        }
    }

    /// Ship-everything words `(s−1)·n·d` of one tenant.
    pub fn ship_words(&self, parts: &[Matrix]) -> f64 {
        let (n, d) = parts[0].shape();
        ((parts.len() - 1) * n * d) as f64
    }

    /// Whether arrival `i` is preceded by a reload of tenant 0.
    pub fn reload_before(&self, i: u64) -> bool {
        matches!(self.load, Load::Open { reload_every, .. } if i > 0 && i.is_multiple_of(reload_every))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_resolves() {
        for name in NAMES {
            assert_eq!(workload(name).unwrap().name, name);
        }
        assert!(workload("bogus").is_none());
    }

    #[test]
    fn plan_keys_follow_the_seed_policy() {
        let cold = workload("cold_prepare").unwrap();
        assert_ne!(cold.query(1, 0).seed, cold.query(1, 1).seed);
        let warm = workload("warm_svd").unwrap();
        assert_eq!(warm.query(1, 0).seed, warm.query(1, 7).seed);
        assert_eq!(warm.warmups(1)[0].seed, warm.query(1, 3).seed);
        let pairs: std::collections::BTreeSet<_> = (0..500)
            .map(|i| (warm.query(1, i).k, warm.query(1, i).r))
            .collect();
        assert_eq!(pairs.len(), 500, "warm_svd outputs must all differ");
    }

    #[test]
    fn reloads_hand_the_next_arrival_to_tenant_zero() {
        let churn = workload("socket_churn").unwrap();
        assert!(!churn.reload_before(0));
        assert!(churn.reload_before(1000));
        assert!(!churn.reload_before(1001));
        assert_eq!(churn.query(3, 1000).tenant, 0);
        assert_eq!(churn.query(3, 2000).tenant, 0);
    }
}
