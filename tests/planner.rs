//! Plan-cache semantics and the batched-submission guarantee:
//!
//! * B queries sharing one `f`, submitted back to back, run
//!   `ZSampler::prepare` **exactly once** — the ledger shows one
//!   prepare-phase cost plus B draw/fetch phases — and every query's
//!   output is bit-identical to a sequential run reusing the same
//!   `PreparedSampler`.
//! * Hits share the same `Arc`; misses occur on differing
//!   `ZSamplerParams`, seed, or `f`; reloading the resident dataset bumps
//!   the epoch and invalidates every cached plan.
//! * The stale-plan invariant under eviction: a plan prepared while its
//!   dataset is being evicted (explicitly or under memory-quota pressure)
//!   delivers to its waiters but is never left cached.

use dlra::prelude::*;
use dlra::runtime::Substrate;
use dlra::util::Rng;

fn shares(s: usize, n: usize, d: usize, k: usize, seed: u64) -> Vec<dlra::linalg::Matrix> {
    let mut rng = Rng::new(seed);
    let global = dlra::data::noisy_low_rank(n, d, k, 0.1, &mut rng);
    dlra::data::split_with_noise_shares(&global, s, 0.3, &mut rng)
}

/// A service built from `config`, holding `parts` as its only dataset.
fn resident(parts: Vec<dlra::linalg::Matrix>, config: ServiceConfig) -> (Service, DatasetHandle) {
    let service = Service::new(config);
    let dataset = service.load("resident", parts).unwrap();
    (service, dataset)
}

/// The tentpole acceptance test: one preparation for the whole batch,
/// exact ledger decomposition, bit-identical outputs.
#[test]
fn submit_batch_prepares_once_with_bit_identical_outputs() {
    let parts = shares(4, 160, 12, 3, 21);
    let batch_seed = 77;
    let queries: Vec<Query> = (0..6)
        .map(|i| z_query(1 + i % 3, 25 + 5 * i, batch_seed))
        .collect();

    let (_service, dataset) = resident(parts.clone(), service_config(4));
    let tickets: Vec<Ticket> = queries.iter().map(|q| dataset.submit(q)).collect();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

    // Exactly one query physically paid the preparation; every outcome
    // reports the same (deterministic) prepare cost.
    let payers = outcomes
        .iter()
        .filter(|o| !o.plan.as_ref().unwrap().cache_hit)
        .count();
    assert_eq!(payers, 1, "preparation ran {payers} times for one plan key");
    let stats = dataset.plan_stats().unwrap();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, queries.len() as u64 - 1);
    let prepare_comm = outcomes[0].plan.as_ref().unwrap().prepare_comm;
    assert!(prepare_comm.total_words() > 0);
    for o in &outcomes {
        assert_eq!(o.plan.as_ref().unwrap().prepare_comm, prepare_comm);
    }

    // Reference: a sequential run that prepares once and reuses the same
    // PreparedSampler for every query of the batch — built under the
    // service's (possibly env-driven) topology so ledger shapes match.
    let topology = ServiceConfig::default().topology;
    let mut model = PartitionModel::with_substrate(parts, EntryFunction::Identity, |l| {
        dlra::comm::Cluster::with_topology(l, topology)
    })
    .unwrap();
    let plan = prepare_z_plan(&mut model, &ZSamplerParams::default(), batch_seed).unwrap();
    assert_eq!(plan.prepare_comm, prepare_comm, "prepare ledger diverged");
    for (query, outcome) in queries.iter().zip(&outcomes) {
        let want = run_algorithm1_with_plan(&mut model, &query.request().cfg, &plan).unwrap();
        assert_eq!(
            outcome.output.projection.basis().as_slice(),
            want.projection.basis().as_slice(),
            "projection diverged from plan-reuse reference"
        );
        assert_eq!(outcome.output.rows, want.rows);
        assert_eq!(outcome.output.captured.to_bits(), want.captured.to_bits());
        // Batch ledger decomposition: the service reports prepare + own
        // draw/fetch per query; subtracting the shared prepare leaves
        // exactly the reference execution delta.
        assert_eq!(outcome.output.comm, plan.prepare_comm + want.comm);
    }

    // Total physical words for the batch: one prepare + B draw/fetch
    // phases — (B − 1) preparations cheaper than unbatched submission.
    let physical: u64 = prepare_comm.total_words()
        + outcomes
            .iter()
            .map(|o| o.output.comm.total_words() - prepare_comm.total_words())
            .sum::<u64>();
    let unbatched: u64 = outcomes.iter().map(|o| o.output.comm.total_words()).sum();
    assert_eq!(
        unbatched - physical,
        (queries.len() as u64 - 1) * prepare_comm.total_words()
    );
}

#[test]
fn plan_cache_misses_on_params_seed_and_f() {
    let parts = shares(3, 80, 8, 2, 5);
    let (_service, dataset) = resident(parts, service_config(1));

    dataset.submit(&z_query(2, 20, 1)).wait().unwrap();
    let s0 = dataset.plan_stats().unwrap();
    assert_eq!((s0.misses, s0.hits), (1, 0));

    // Same key: hit.
    dataset.submit(&z_query(3, 25, 1)).wait().unwrap();
    let s1 = dataset.plan_stats().unwrap();
    assert_eq!((s1.misses, s1.hits), (1, 1));

    // Different protocol seed: different prepare seed, miss.
    dataset.submit(&z_query(2, 20, 2)).wait().unwrap();
    assert_eq!(dataset.plan_stats().unwrap().misses, 2);

    // Different ZSamplerParams: miss.
    let other_params = ZSamplerParams {
        hh_width: 64,
        ..ZSamplerParams::default()
    };
    let other = Query::rank(2)
        .samples(20)
        .sampler(SamplerKind::Z(other_params))
        .seed(1)
        .build()
        .unwrap();
    dataset.submit(&other).wait().unwrap();
    assert_eq!(dataset.plan_stats().unwrap().misses, 3);

    // Different f: miss (and a different prepared structure entirely).
    let huber = Query::rank(2)
        .samples(20)
        .function(EntryFunction::Huber { k: 2.0 })
        .sampler(SamplerKind::Z(ZSamplerParams::default()))
        .seed(1)
        .build()
        .unwrap();
    dataset.submit(&huber).wait().unwrap();
    let s4 = dataset.plan_stats().unwrap();
    assert_eq!(s4.misses, 4);
    assert_eq!(s4.hits, 1);
    assert_eq!(dataset.plan_cache_len(), 4);
}

#[test]
fn residency_reload_invalidates_cached_plans() {
    let old = shares(3, 96, 10, 3, 31);
    let new = shares(3, 96, 10, 3, 32);
    let (service, dataset) = resident(old, service_config(2));
    let query = z_query(2, 20, 9);

    let before = dataset.submit(&query).wait().unwrap().output;
    dataset.submit(&query).wait().unwrap();
    let warm = dataset.plan_stats().unwrap();
    assert_eq!((warm.misses, warm.hits), (1, 1));
    assert_eq!(dataset.plan_cache_len(), 1);

    // Reload: epoch bumps, the cached plan is dropped, and the same query
    // re-prepares against (and answers from) the new data.
    service.reload(dataset.name(), new.clone()).unwrap();
    assert_eq!(dataset.epoch(), 1);
    assert_eq!(dataset.plan_cache_len(), 0);
    assert_eq!(dataset.plan_stats().unwrap().invalidations, 1);

    let after = dataset.submit(&query).wait().unwrap().output;
    let cold = dataset.plan_stats().unwrap();
    assert_eq!((cold.misses, cold.hits), (2, 1), "stale plan was served");
    assert_ne!(
        after.projection.basis().as_slice(),
        before.projection.basis().as_slice(),
        "query after reload must see the new data"
    );
    let topology = ServiceConfig::default().topology;
    let mut direct = PartitionModel::with_substrate(new, EntryFunction::Identity, |l| {
        dlra::comm::Cluster::with_topology(l, topology)
    })
    .unwrap();
    let want = run_algorithm1(&mut direct, &query.request().cfg).unwrap();
    assert_eq!(
        after.projection.basis().as_slice(),
        want.projection.basis().as_slice()
    );
    assert_eq!(after.comm, want.comm);
}

fn service_config(executors: usize) -> ServiceConfig {
    ServiceConfig {
        executors,
        substrate: Substrate::Threaded,
        plan_cache: 16,
        metrics: true,
        max_queue_depth: None,
        memory_budget: None,
        ..Default::default()
    }
}

fn z_query(k: usize, r: usize, seed: u64) -> Query {
    Query::rank(k)
        .samples(r)
        .sampler(SamplerKind::Z(ZSamplerParams::default()))
        .seed(seed)
        .build()
        .unwrap()
}

/// Extends the stale-plan invariant to eviction: a preparation in flight
/// when its dataset is evicted still delivers to its waiters, but the plan
/// is never left cached — and no other tenant's partition moves. The
/// guarantee is structural, not timing-dependent: whichever of the
/// executor's post-run sweep and the evict's purge runs last drops it.
#[test]
fn evict_while_preparing_delivers_to_waiters_but_never_caches() {
    let service = Service::new(service_config(1));
    let victim = service.load("victim", shares(2, 512, 16, 4, 61)).unwrap();
    let other = service.load("other", shares(2, 80, 8, 2, 62)).unwrap();
    other.submit(&z_query(2, 20, 5)).wait().unwrap();
    assert_eq!(other.plan_cache_len(), 1);

    // A heavy Z query: the preparation is in flight when the evict lands.
    let preparing = victim.submit(&z_query(4, 120, 9));
    while !preparing.started() {
        std::thread::yield_now();
    }
    service.evict("victim").unwrap();

    // Started before the evict, so it runs to completion against the
    // payload it holds and delivers its outcome (plan provenance intact).
    let outcome = preparing.wait().expect("in-flight query must deliver");
    assert!(
        outcome.plan.is_some(),
        "a plannable Z query reports its plan"
    );
    assert_eq!(
        victim.plan_cache_len(),
        0,
        "a plan prepared during eviction must never stay cached"
    );
    // Late queries on the stale handle are typed.
    assert!(matches!(
        victim.submit(&z_query(2, 20, 9)).wait(),
        Err(ServiceError::DatasetEvicted { dataset }) if dataset == "victim"
    ));
    // Cross-tenant isolation: the other dataset's partition never moved.
    assert_eq!(other.plan_cache_len(), 1);
    assert_eq!(other.plan_stats().unwrap().invalidations, 0);
}

/// The quota-pressure variant: an idle tenant evicted by the budget sweep
/// has its settled plans purged, while a tenant with a preparation in
/// flight is pinned — the sweep skips it (staying over budget if nothing
/// else is evictable) and its plan lands in the cache as usual.
#[test]
fn quota_eviction_purges_plans_and_spares_preparing_tenants() {
    // shares(2, 64, 8, ..) = 2 × 64×8 × 8 = 8192 bytes per tenant.
    let small = |seed| shares(2, 64, 8, 2, seed);
    let service = Service::new(ServiceConfig {
        memory_budget: Some(20_000),
        ..service_config(1)
    });

    // Warm tenant a's cache, then push it out with quota pressure.
    let a = service.load("a", small(71)).unwrap();
    a.submit(&z_query(2, 20, 3)).wait().unwrap();
    assert_eq!(a.plan_cache_len(), 1);
    let b = service.load("b", small(72)).unwrap();
    let _c = service.load("c", small(73)).unwrap();
    assert!(a.is_evicted(), "idle LRU tenant must be quota-evicted");
    assert_eq!(
        a.plan_cache_len(),
        0,
        "quota eviction must purge the victim's settled plans"
    );
    assert!(matches!(
        a.submit(&z_query(2, 20, 3)).wait(),
        Err(ServiceError::DatasetEvicted { dataset }) if dataset == "a"
    ));

    // Park the executor behind a long query on c, then queue a Z
    // preparation on b: both datasets now hold admission pins, so the
    // sweep triggered by loading d finds no victim and the service stays
    // over budget rather than evict under a live query.
    let blocker = _c.submit(
        &Query::rank(2)
            .samples(20)
            .sampler(SamplerKind::Uniform)
            .boosted(50_000)
            .seed(8)
            .build()
            .unwrap(),
    );
    while !blocker.started() {
        std::thread::yield_now();
    }
    let preparing = b.submit(&z_query(2, 20, 4));
    let _d = service.load("d", small(74)).unwrap();
    assert!(!b.is_evicted(), "a pinned tenant must never be evicted");
    assert!(!_c.is_evicted(), "a pinned tenant must never be evicted");
    assert_eq!(
        service.pressure().resident_bytes,
        3 * 8_192,
        "with every candidate pinned the service stays over budget"
    );
    assert_eq!(service.pressure().evicted_under_pressure, 1);

    // The pinned preparation completes and (its dataset survived) its
    // plan is cached normally.
    assert!(blocker.wait().is_ok());
    assert!(preparing.wait().is_ok());
    assert_eq!(b.plan_cache_len(), 1);
}
