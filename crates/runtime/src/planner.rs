//! The query planner: a bounded, LRU [`PlanCache`] of prepared Z-sampler
//! plans keyed by [`PlanKey`].
//!
//! Algorithm 1's expensive distributed phase — building and merging the
//! per-server sketch bundles behind the Z-sampler — is `k`-independent and
//! deterministic in `(data, f, ZSamplerParams, prepare seed)`. The planner
//! exploits that: queries whose [`PlanKey`]s collide share one
//! `Arc`-backed [`PreparedZPlan`], so a batch of B queries over the same
//! `f` pays the preparation's communication and wall clock once instead of
//! B times.
//!
//! ## Keying and invalidation
//!
//! A key is the **dataset id** (the service layer partitions one cache
//! per dataset, but the id keys anyway — a plan can never cross datasets
//! even if partitions were ever merged), the exact bit pattern of the
//! entrywise `f` (discriminant plus parameter bits — `0.1 + 0.2 ≠ 0.3`
//! matters here, so no epsilon equality), the exact [`ZSamplerParams`],
//! the prepare seed, and the **residency epoch** of the dataset the plan
//! was prepared against. The epoch is bumped whenever that dataset's
//! resident matrices change ([`Service::reload`](crate::Service::reload)),
//! so stale plans can never be served: their keys simply stop matching,
//! and [`PlanCache::retain_epoch`] drops them eagerly.
//!
//! ## Concurrency
//!
//! [`PlanCache::get_or_prepare`] has once-per-key semantics: the first
//! thread to miss installs an in-progress slot and runs the (expensive)
//! `build`; concurrent requests for the same key block on the slot instead
//! of preparing redundantly. A failed build wakes the waiters, and one of
//! them takes over the attempt — errors are per-query, never cached.

use dlra_core::algorithm1::PreparedZPlan;
use dlra_core::functions::EntryFunction;
use dlra_core::Result;
use dlra_obs::metrics::PlanCacheStats;
use dlra_obs::trace;
use dlra_sampler::ZSamplerParams;
use dlra_util::sync::MutexExt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Identity of one preparation: two queries may share a prepared sampler
/// exactly when their keys are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Service-unique id of the dataset the plan reads. Caches are already
    /// partitioned per dataset, but the id keys anyway — a plan can never
    /// cross datasets even if partitions were ever merged or shared.
    dataset: u64,
    /// Entrywise `f`: discriminant and parameter bit pattern.
    f: [u64; 2],
    /// Every `ZSamplerParams` knob, f64 knobs as bit patterns.
    params: [u64; 12],
    /// The prepare seed (both estimator passes derive from it).
    seed: u64,
    /// Residency epoch of the dataset the plan reads.
    epoch: u64,
}

impl PlanKey {
    /// Builds the key for a query's preparation against dataset `dataset`.
    pub fn new(
        dataset: u64,
        f: &EntryFunction,
        params: &ZSamplerParams,
        seed: u64,
        epoch: u64,
    ) -> Self {
        let f = match *f {
            EntryFunction::Identity => [0, 0],
            EntryFunction::GmRoot { p } => [1, p.to_bits()],
            EntryFunction::Huber { k } => [2, k.to_bits()],
            EntryFunction::L1L2 => [3, 0],
            EntryFunction::Fair { c } => [4, c.to_bits()],
            EntryFunction::Max => [5, 0],
        };
        PlanKey {
            dataset,
            f,
            params: [
                params.eps_class.to_bits(),
                params.hh_depth as u64,
                params.hh_width as u64,
                params.groups as u64,
                params.reps as u64,
                params.b_threshold.to_bits(),
                params.max_levels as u64,
                params.window_lo as u64,
                params.window_hi as u64,
                params.max_inject_per_class as u64,
                params.g_independence as u64,
                // max_draw_tries and max_candidates_per_level both shape
                // the prepared structure; fold them into one word to keep
                // the key compact.
                ((params.max_draw_tries as u64) << 32) | params.max_candidates_per_level as u64,
            ],
            seed,
            epoch,
        }
    }

    /// The residency epoch this key was built against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dataset id this key was built against.
    pub fn dataset(&self) -> u64 {
        self.dataset
    }
}

enum SlotState {
    /// A thread is running the preparation; others wait.
    Preparing,
    /// The preparation finished; every waiter shares this plan.
    Ready(Arc<PreparedZPlan>),
    /// The preparation failed; one waiter takes over the attempt.
    Failed,
}

struct PlanSlot {
    // dlra-lock-order: plan.slot
    state: Mutex<SlotState>,
    turned: Condvar,
}

struct CacheEntry {
    slot: Arc<PlanSlot>,
    last_used: u64,
    /// Set by [`PlanCache::retain_epoch`] on in-preparation entries whose
    /// epoch is gone: the finished plan is delivered to its waiters but
    /// must not (re)occupy a cache slot — no future key can match it.
    stale: bool,
}

struct CacheInner {
    entries: HashMap<PlanKey, CacheEntry>,
    tick: u64,
}

/// A bounded LRU cache of shared [`PreparedZPlan`]s with once-per-key
/// preparation. See the module docs for keying, invalidation, and
/// concurrency semantics.
pub struct PlanCache {
    capacity: usize,
    // dlra-lock-order: plan.cache
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity ≥ 1` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached (or in-preparation) plans.
    pub fn len(&self) -> usize {
        self.inner.lock_recover().entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Returns the plan for `key`, running `build` (and caching its
    /// result) if no thread has prepared it yet. The boolean is `true` for
    /// a cache hit — i.e. this call did **not** run the preparation.
    /// Concurrent calls with the same key run `build` exactly once: the
    /// losers block until the winner's preparation lands and then share
    /// its `Arc`. A failing `build` is not cached; the error goes to the
    /// caller and a waiter (or the next request) retries.
    pub fn get_or_prepare(
        &self,
        key: &PlanKey,
        build: impl FnOnce() -> Result<PreparedZPlan>,
    ) -> Result<(Arc<PreparedZPlan>, bool)> {
        let (slot, mine) = {
            let mut inner = self.inner.lock_recover();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(key) {
                entry.last_used = tick;
                (Arc::clone(&entry.slot), false)
            } else {
                let slot = Arc::new(PlanSlot {
                    state: Mutex::new(SlotState::Preparing),
                    turned: Condvar::new(),
                });
                inner.entries.insert(
                    key.clone(),
                    CacheEntry {
                        slot: Arc::clone(&slot),
                        last_used: tick,
                        stale: false,
                    },
                );
                self.evict_over_capacity(&mut inner, key);
                (slot, true)
            }
        };

        if !mine {
            let wait_span = trace::span("plan", "plan.wait");
            let mut state = slot.state.lock_recover();
            loop {
                match &*state {
                    SlotState::Preparing => {
                        state = slot
                            .turned
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    SlotState::Ready(plan) => {
                        let plan = Arc::clone(plan);
                        drop(state);
                        drop(wait_span);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((plan, true));
                    }
                    SlotState::Failed => {
                        // Take over the failed attempt.
                        *state = SlotState::Preparing;
                        drop(state);
                        drop(wait_span);
                        return self.prepare_into(key, &slot, build);
                    }
                }
            }
        }
        self.prepare_into(key, &slot, build)
    }

    /// Runs `build` for a key whose slot this thread owns (it observed or
    /// set `Preparing`), publishing the result to the slot, the map, and
    /// the counters.
    fn prepare_into(
        &self,
        key: &PlanKey,
        slot: &Arc<PlanSlot>,
        build: impl FnOnce() -> Result<PreparedZPlan>,
    ) -> Result<(Arc<PreparedZPlan>, bool)> {
        // If `build` unwinds (an executor panic is an expected failure
        // mode, see the runtime's poison tests), the guard marks the slot
        // Failed on the way out so waiters take over instead of parking
        // forever on a slot nobody will ever settle.
        struct AbandonOnUnwind<'a> {
            cache: &'a PlanCache,
            key: &'a PlanKey,
            slot: &'a Arc<PlanSlot>,
            armed: bool,
        }
        impl Drop for AbandonOnUnwind<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.cache.abandon(self.key, self.slot);
                }
            }
        }
        let mut guard = AbandonOnUnwind {
            cache: self,
            key,
            slot,
            armed: true,
        };
        let built = {
            let _span = trace::span("plan", "plan.prepare").arg("dataset", key.dataset);
            build()
        };
        guard.armed = false;
        drop(guard);

        match built {
            Ok(plan) => {
                let plan = Arc::new(plan);
                *slot.state.lock_recover() = SlotState::Ready(Arc::clone(&plan));
                slot.turned.notify_all();
                let mut inner = self.inner.lock_recover();
                inner.tick += 1;
                let tick = inner.tick;
                match inner.entries.get(key) {
                    // retain_epoch marked this preparation stale while it
                    // was in flight: deliver to the waiters (they hold the
                    // slot), but never let it occupy a cache slot — no
                    // future key can match an old epoch.
                    Some(entry) if entry.stale && Arc::ptr_eq(&entry.slot, slot) => {
                        inner.entries.remove(key);
                        self.invalidations.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(_) => {}
                    // A failed first attempt removed the entry; the
                    // takeover re-inserts so its success is visible to
                    // future requests.
                    None => {
                        inner.entries.insert(
                            key.clone(),
                            CacheEntry {
                                slot: Arc::clone(slot),
                                last_used: tick,
                                stale: false,
                            },
                        );
                        self.evict_over_capacity(&mut inner, key);
                    }
                }
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok((plan, false))
            }
            Err(err) => {
                self.abandon(key, slot);
                Err(err)
            }
        }
    }

    /// Abandons an in-flight preparation this thread owned: never cache
    /// the failure — drop the entry (if it is still ours) so later
    /// requests retry, and wake the waiters so one of them takes over.
    /// Runs on both the `Err` path and (via the unwind guard) a panicking
    /// `build`, so locks are recovered from poisoning rather than
    /// panicking again mid-unwind.
    fn abandon(&self, key: &PlanKey, slot: &Arc<PlanSlot>) {
        {
            let mut inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if inner
                .entries
                .get(key)
                .is_some_and(|e| Arc::ptr_eq(&e.slot, slot))
            {
                inner.entries.remove(key);
            }
        }
        *slot
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = SlotState::Failed;
        slot.turned.notify_all();
    }

    /// Evicts least-recently-used *ready* plans until the bound holds
    /// (in-preparation slots are never evicted — a waiter may be parked on
    /// them).
    fn evict_over_capacity(&self, inner: &mut CacheInner, just_inserted: &PlanKey) {
        while inner.entries.len() > self.capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|(key, entry)| {
                    *key != just_inserted
                        && matches!(*entry.slot.state.lock_recover(), SlotState::Ready(_))
                })
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else { break };
            inner.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every settled plan whose key is not from `epoch` (residency
    /// changed; the data those plans summarize is gone). In-preparation
    /// slots are kept — waiters are parked on them, and a stale key can
    /// never be looked up again anyway (the epoch is part of the key) —
    /// but marked stale, so the finished plan is delivered to its waiters
    /// and then purged instead of re-entering the cache.
    pub fn retain_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock_recover();
        let before = inner.entries.len();
        inner.entries.retain(|key, entry| {
            key.epoch == epoch || {
                let preparing = matches!(*entry.slot.state.lock_recover(), SlotState::Preparing);
                if preparing {
                    entry.stale = true;
                }
                preparing
            }
        });
        let dropped = (before - inner.entries.len()) as u64;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_core::algorithm1::prepare_z_plan;
    use dlra_core::model::PartitionModel;
    use dlra_linalg::Matrix;
    use dlra_util::Rng;

    fn small_plan(seed: u64) -> PreparedZPlan {
        let mut rng = Rng::new(seed);
        let parts: Vec<Matrix> = (0..2).map(|_| Matrix::gaussian(24, 6, &mut rng)).collect();
        let mut model = PartitionModel::new(parts, EntryFunction::Identity).unwrap();
        prepare_z_plan(&mut model, &ZSamplerParams::default(), seed).unwrap()
    }

    fn key(seed: u64, epoch: u64) -> PlanKey {
        PlanKey::new(
            0,
            &EntryFunction::Identity,
            &ZSamplerParams::default(),
            seed,
            epoch,
        )
    }

    #[test]
    fn keys_distinguish_dataset_f_params_seed_epoch() {
        let base = key(1, 0);
        assert_eq!(base, key(1, 0));
        assert_ne!(base, key(2, 0), "seed must key");
        assert_ne!(base, key(1, 1), "epoch must key");
        assert_ne!(
            base,
            PlanKey::new(
                7,
                &EntryFunction::Identity,
                &ZSamplerParams::default(),
                1,
                0
            ),
            "dataset id must key"
        );
        let other_params = ZSamplerParams {
            hh_width: 64,
            ..ZSamplerParams::default()
        };
        assert_ne!(
            base,
            PlanKey::new(0, &EntryFunction::Identity, &other_params, 1, 0),
            "params must key"
        );
        assert_ne!(
            base,
            PlanKey::new(
                0,
                &EntryFunction::Huber { k: 1.0 },
                &ZSamplerParams::default(),
                1,
                0
            ),
            "f must key"
        );
        assert_ne!(
            PlanKey::new(
                0,
                &EntryFunction::Huber { k: 1.0 },
                &ZSamplerParams::default(),
                1,
                0
            ),
            PlanKey::new(
                0,
                &EntryFunction::Huber { k: 2.0 },
                &ZSamplerParams::default(),
                1,
                0
            ),
            "f parameters must key"
        );
        assert_eq!(base.dataset(), 0);
        assert_eq!(base.epoch(), 0);
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PlanCache::new(4);
        let (first, hit1) = cache
            .get_or_prepare(&key(7, 0), || Ok(small_plan(7)))
            .unwrap();
        let (second, hit2) = cache
            .get_or_prepare(&key(7, 0), || panic!("must not rebuild"))
            .unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the Arc");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn lru_bound_evicts_oldest_ready_plan() {
        let cache = PlanCache::new(2);
        for seed in 1..=2 {
            cache
                .get_or_prepare(&key(seed, 0), || Ok(small_plan(seed)))
                .unwrap();
        }
        // Touch seed 1 so seed 2 is the LRU victim.
        cache
            .get_or_prepare(&key(1, 0), || panic!("cached"))
            .unwrap();
        cache
            .get_or_prepare(&key(3, 0), || Ok(small_plan(3)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Seed 1 survived; seed 2 must rebuild.
        cache
            .get_or_prepare(&key(1, 0), || panic!("seed 1 was evicted"))
            .unwrap();
        let mut rebuilt = false;
        cache
            .get_or_prepare(&key(2, 0), || {
                rebuilt = true;
                Ok(small_plan(2))
            })
            .unwrap();
        assert!(rebuilt, "LRU victim was not seed 2");
    }

    #[test]
    fn epoch_retention_drops_stale_plans() {
        let cache = PlanCache::new(8);
        cache
            .get_or_prepare(&key(1, 0), || Ok(small_plan(1)))
            .unwrap();
        cache
            .get_or_prepare(&key(1, 1), || Ok(small_plan(1)))
            .unwrap();
        cache.retain_epoch(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidations, 1);
        // The epoch-1 plan is still a hit; epoch-0 rebuilds.
        cache
            .get_or_prepare(&key(1, 1), || panic!("epoch 1 dropped"))
            .unwrap();
        let mut rebuilt = false;
        cache
            .get_or_prepare(&key(1, 0), || {
                rebuilt = true;
                Ok(small_plan(1))
            })
            .unwrap();
        assert!(rebuilt);
    }

    #[test]
    fn concurrent_same_key_prepares_once() {
        let cache = Arc::new(PlanCache::new(4));
        let builds = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    let (plan, _) = cache
                        .get_or_prepare(&key(5, 0), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so waiters really park.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(small_plan(5))
                        })
                        .unwrap();
                    assert!(plan.prepare_comm.total_words() > 0);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "preparation ran twice");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn panicking_build_wakes_waiters_instead_of_stranding_them() {
        // A panic inside the preparation (executor death) must behave
        // like a failed build: the slot turns Failed, a waiter takes the
        // attempt over, and nobody parks forever.
        let cache = Arc::new(PlanCache::new(4));
        let takeovers = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let panicker = {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = cache.get_or_prepare(&key(13, 0), || {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("executor died mid-prepare");
                        });
                    }));
                })
            };
            for _ in 0..3 {
                let cache = Arc::clone(&cache);
                let takeovers = Arc::clone(&takeovers);
                scope.spawn(move || {
                    // Ensure the panicker owns the slot first.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    let (plan, _) = cache
                        .get_or_prepare(&key(13, 0), || {
                            takeovers.fetch_add(1, Ordering::SeqCst);
                            Ok(small_plan(13))
                        })
                        .unwrap();
                    assert!(plan.prepare_comm.total_words() > 0);
                });
            }
            panicker.join().unwrap();
        });
        // At least one waiter rebuilt (usually exactly one; a waiter that
        // arrives only after the failure settles may legitimately rebuild
        // for itself) — the essential property is that none was stranded.
        let rebuilt = takeovers.load(Ordering::SeqCst);
        assert!((1..=3).contains(&rebuilt), "takeovers = {rebuilt}");
    }

    #[test]
    fn reload_during_preparation_delivers_but_never_caches() {
        // retain_epoch racing an in-flight preparation: the waiting query
        // still gets its plan (it was submitted against the old data and
        // holds handle clones of it), but the finished plan must not
        // occupy a cache slot — no future key can ever match it.
        let cache = Arc::new(PlanCache::new(4));
        std::thread::scope(|scope| {
            let preparer = {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let (plan, hit) = cache
                        .get_or_prepare(&key(17, 0), || {
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(small_plan(17))
                        })
                        .unwrap();
                    assert!(!hit);
                    assert!(plan.prepare_comm.total_words() > 0);
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(10));
            cache.retain_epoch(1); // epoch 0 is gone mid-preparation
            preparer.join().unwrap();
        });
        assert_eq!(cache.len(), 0, "stale plan re-entered the cache");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache = PlanCache::new(4);
        let err = cache.get_or_prepare(&key(9, 0), || Err(dlra_core::CoreError::SamplerExhausted));
        assert!(err.is_err());
        assert_eq!(cache.len(), 0, "failure must not occupy a slot");
        // The next request simply retries.
        let (_, hit) = cache
            .get_or_prepare(&key(9, 0), || Ok(small_plan(9)))
            .unwrap();
        assert!(!hit);
    }
}
