//! The distributed `Z-sampler` (Algorithm 4): coordinate injection, a second
//! estimator pass, and probability-proportional draws.
//!
//! `prepare` runs the paper's pipeline once:
//!
//! 1. `Z-estimator` on the original aggregate `a` → `Ẑ(a)`, class sizes.
//! 2. Coordinate injection (§V-D): for each *growing* class `i` the
//!    coordinator appends `⌈εẐ/(5T(1+ε)ⁱ)⌉` virtual coordinates of value
//!    `z⁻¹((1+ε)ⁱ)` to its own vector while every other server appends
//!    zeros — making every growing class *contributing* so its size estimate
//!    is reliable. (We cap the per-class count; see `ZSamplerParams`.)
//! 3. `Z-estimator` on the extended `a′` → the sampling structure.
//!
//! `draw` then implements Algorithm 4 lines 4–6: choose class `i*` with
//! probability `ŝᵢ·repᵢ/Ẑ`, choose a member uniformly from the recovered
//! members of that class (a fresh min-wise hash over a fixed recovered set
//! *is* a uniform draw — see the crate docs), and reject injected
//! coordinates (`output FAIL`), retrying up to the configured budget.

use crate::estimator::{run_z_estimator, EstimatorOutput};
use crate::params::ZSamplerParams;
use crate::vector::SampleVector;
use crate::zfn::ZFn;
use dlra_comm::wire::{WireError, WireReader, WireWriter, MAX_SEQ_LEN};
use dlra_comm::{Collectives, LedgerSnapshot, Wire};
use dlra_util::Rng;
use std::sync::Arc;

/// One sampled coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// The sampled coordinate of the original vector (`< base_dim`).
    pub coord: u64,
    /// Its exact aggregate value `a_j` (known from the estimator's lookups).
    pub value: f64,
    /// The reported sampling probability `Q̂_j = z(a_j)/Ẑ` — the `(1±γ)Q`
    /// approximation Algorithm 1 consumes.
    pub q_hat: f64,
}

/// Configuration wrapper for running the sampler.
///
/// ```
/// use dlra_comm::Cluster;
/// use dlra_sampler::{DenseServerVec, Square, ZSampler, ZSamplerParams};
/// use dlra_util::Rng;
///
/// // One dominant coordinate split across two servers.
/// let mut v1 = vec![0.0; 512];
/// let mut v2 = vec![0.0; 512];
/// v1[99] = 6.0;
/// v2[99] = 4.0; // aggregate 10 → z = 100
/// let mut cluster = Cluster::new(vec![
///     DenseServerVec::new(v1),
///     DenseServerVec::new(v2),
/// ]);
/// let sampler = ZSampler::new(ZSamplerParams::default(), 7);
/// let prepared = sampler.prepare(&mut cluster, &Square);
/// let draw = prepared.draw(&mut Rng::new(1)).unwrap();
/// assert_eq!(draw.coord, 99);
/// assert!((draw.value - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ZSampler {
    /// Tuning parameters.
    pub params: ZSamplerParams,
    /// Root seed; both estimator passes and the injection derive from it.
    pub seed: u64,
}

/// A recovered class member: `(coordinate, exact aggregate value, z-value)`.
type ClassMember = (u64, f64, f64);

/// A [`PreparedSampler`] wrapped for sharing across queries: the structure
/// itself behind an `Arc` (draws take `&self` and an external RNG, so one
/// preparation can serve any number of concurrent consumers) plus the
/// ledger delta the preparation cost — the `k`-independent, one-time part
/// of Algorithm 1's communication, accounted separately from the per-query
/// draw/fetch phases so planners can amortize it.
#[derive(Debug, Clone)]
pub struct SharedPrepared {
    /// The shareable draw structure.
    pub sampler: Arc<PreparedSampler>,
    /// Exact communication charged by the two estimator passes and the
    /// injection broadcast of this preparation.
    pub prepare_comm: LedgerSnapshot,
}

/// A prepared sampling structure supporting repeated draws.
#[derive(Debug, Clone)]
pub struct PreparedSampler {
    z_hat: f64,
    base_dim: u64,
    /// `(class weight, members)`.
    classes: Vec<(f64, Vec<ClassMember>)>,
    total_weight: f64,
    max_draw_tries: usize,
}

impl ZSampler {
    /// Creates a sampler with the given parameters and root seed.
    pub fn new(params: ZSamplerParams, seed: u64) -> Self {
        ZSampler { params, seed }
    }

    /// Runs the two-pass pipeline and returns the draw structure.
    /// Injected coordinates are cleared from the cluster before returning.
    /// Generic over the substrate: the same pipeline runs on the sequential
    /// simulator and the threaded runtime.
    pub fn prepare<L, C>(&self, cluster: &mut C, zfn: &dyn ZFn) -> PreparedSampler
    where
        L: SampleVector,
        C: Collectives<L>,
    {
        self.prepare_inner(cluster, zfn)
    }

    /// [`ZSampler::prepare`] returning a shareable artifact: the prepared
    /// structure behind an `Arc` together with the exact ledger delta the
    /// preparation charged. The preparation is a deterministic function of
    /// the cluster contents, the parameters, and the seed — two calls on
    /// identical data produce bit-identical structures and identical
    /// deltas — which is what makes it safe for a query planner to run it
    /// once and share the result across every query with the same plan key.
    pub fn prepare_shared<L, C>(&self, cluster: &mut C, zfn: &dyn ZFn) -> SharedPrepared
    where
        L: SampleVector,
        C: Collectives<L>,
    {
        let before = cluster.comm();
        let sampler = Arc::new(self.prepare_inner(cluster, zfn));
        SharedPrepared {
            sampler,
            prepare_comm: cluster.comm().since(&before),
        }
    }

    fn prepare_inner<L, C>(&self, cluster: &mut C, zfn: &dyn ZFn) -> PreparedSampler
    where
        L: SampleVector,
        C: Collectives<L>,
    {
        let base_dim = cluster.with_local(0, SampleVector::base_dim);
        let pass1 = run_z_estimator(cluster, zfn, &self.params, self.seed);
        if pass1.z_hat <= 0.0 {
            return PreparedSampler::empty(base_dim, self.params.max_draw_tries);
        }

        // --- Coordinate injection (§V-D). ---
        let inject = self.injection_plan(&pass1, zfn);
        let injected_total: usize = inject.iter().map(|&(_, n)| n as usize).sum();
        if injected_total > 0 {
            // Broadcast the per-class (value, count) plan — 2 words/class —
            // and extend every server's vector (coordinator gets the values,
            // workers get zeros).
            cluster.broadcast(
                &InjectPlan(inject.clone()),
                "zsamp.inject",
                |t, local, plan| {
                    let values: Vec<f64> = plan
                        .0
                        .iter()
                        .flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize))
                        .collect();
                    local.append_injected(&values, t == 0);
                },
            );
        }

        // --- Second pass on the extended vector. ---
        let pass2 = run_z_estimator(
            cluster,
            zfn,
            &self.params,
            self.seed.wrapping_add(0x0BAD_5EED_0BAD_5EED),
        );

        // Restore the cluster for the caller (a purely local,
        // zero-communication cleanup on every server).
        if injected_total > 0 {
            for t in 0..cluster.num_servers() {
                cluster.with_local_mut(t, SampleVector::clear_injected);
            }
        }

        if pass2.z_hat <= 0.0 {
            return PreparedSampler::empty(base_dim, self.params.max_draw_tries);
        }

        let mut classes = Vec::with_capacity(pass2.classes.len());
        let mut total_weight = 0.0;
        for est in pass2.classes.values() {
            let weight = est.s_hat * est.rep_value;
            let members: Vec<ClassMember> =
                est.members.iter().map(|&(j, v)| (j, v, zfn.z(v))).collect();
            if weight > 0.0 && !members.is_empty() {
                total_weight += weight;
                classes.push((weight, members));
            }
        }
        PreparedSampler {
            z_hat: pass2.z_hat,
            base_dim,
            classes,
            total_weight,
            max_draw_tries: self.params.max_draw_tries,
        }
    }

    /// Growing classes and their injection counts/values.
    ///
    /// A class is *growing* when its value floor is well below `Ẑ`
    /// (paper: `(1+ε)ⁱ ≤ Ẑ/(5ε⁻⁴T³log l)`; here the divisor follows from
    /// `T` and the per-class cap). Injection counts follow
    /// `⌈εẑ/(5T·(1+ε)ⁱ)⌉` capped at `max_inject_per_class`; classes whose
    /// uncapped count would exceed the cap are skipped from below — their
    /// total contribution is below the estimator's resolution anyway
    /// (the paper's non-contributing bound `Z_NC < εZ`).
    fn injection_plan(&self, pass1: &EstimatorOutput, zfn: &dyn ZFn) -> Vec<(f64, u64)> {
        let eps = self.params.eps_class;
        let lf = (pass1.dim.max(2)) as f64;
        let t_classes = (lf.ln() / eps).ceil().max(1.0);
        let z_hat = pass1.z_hat;
        let ln1e = (1.0 + eps).ln();
        // Value range: from Ẑ (nothing grows above it) down to the level
        // where the uncapped count would exceed the cap.
        let i_top = (z_hat.ln() / ln1e).floor() as i32;
        let mut plan = Vec::new();
        for i in (i_top - 8 * t_classes as i32..=i_top).rev() {
            let floor_val = (1.0 + eps).powi(i);
            if floor_val > z_hat / (5.0 * t_classes) {
                continue; // not growing: too heavy to need injection
            }
            let count = (eps * z_hat / (5.0 * t_classes * floor_val)).ceil();
            if count as usize > self.params.max_inject_per_class {
                break; // classes below resolution; stop injecting
            }
            let Some(value) = zfn.z_inv(floor_val) else {
                continue; // class empty for saturating z (paper §V-D)
            };
            if value.is_finite() && count >= 1.0 {
                plan.push((value, count as u64));
            }
        }
        plan
    }
}

/// Wire form of the injection plan: `(value, count)` per growing class.
#[derive(Debug, Clone)]
struct InjectPlan(Vec<(f64, u64)>);

impl Wire for InjectPlan {
    fn words(&self) -> u64 {
        2 * self.0.len() as u64
    }

    fn encode(&self, w: &mut WireWriter) {
        w.desc_u32(self.0.len() as u32);
        for &(value, count) in &self.0 {
            w.word_f64(value);
            w.word_u64(count);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = u64::from(r.desc_u32("inject plan length")?);
        if n > MAX_SEQ_LEN {
            return Err(WireError::Oversized {
                what: "inject plan length",
                len: n,
                max: MAX_SEQ_LEN,
            });
        }
        let mut plan = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            let value = r.word_f64("inject plan value")?;
            let count = r.word_u64("inject plan count")?;
            plan.push((value, count));
        }
        Ok(InjectPlan(plan))
    }
}

/// Diagnostics of a prepared sampler (for reports and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerStats {
    /// The estimate `Ẑ`.
    pub z_hat: f64,
    /// Number of nonempty level-set classes.
    pub num_classes: usize,
    /// Total recovered candidates across classes.
    pub total_candidates: usize,
    /// How many of them are injected (virtual) coordinates.
    pub injected_candidates: usize,
    /// Original vector dimension.
    pub base_dim: u64,
}

impl PreparedSampler {
    fn empty(base_dim: u64, max_draw_tries: usize) -> Self {
        PreparedSampler {
            z_hat: 0.0,
            base_dim,
            classes: Vec::new(),
            total_weight: 0.0,
            max_draw_tries,
        }
    }

    /// The estimate `Ẑ` used in reported probabilities.
    pub fn z_hat(&self) -> f64 {
        self.z_hat
    }

    /// True when the underlying vector had no recoverable mass.
    pub fn is_empty(&self) -> bool {
        self.total_weight <= 0.0 || self.classes.is_empty()
    }

    /// Diagnostics: class and candidate counts, injection share.
    pub fn stats(&self) -> SamplerStats {
        let total_candidates: usize = self.classes.iter().map(|(_, m)| m.len()).sum();
        let injected_candidates: usize = self
            .classes
            .iter()
            .flat_map(|(_, m)| m.iter())
            .filter(|&&(coord, _, _)| coord >= self.base_dim)
            .count();
        SamplerStats {
            z_hat: self.z_hat,
            num_classes: self.classes.len(),
            total_candidates,
            injected_candidates,
            base_dim: self.base_dim,
        }
    }

    /// One draw (Algorithm 4 lines 4–6). Returns `None` when every retry hit
    /// an injected coordinate or the structure is empty.
    pub fn draw(&self, rng: &mut Rng) -> Option<Draw> {
        if self.is_empty() {
            return None;
        }
        for _ in 0..self.max_draw_tries {
            // Class pick ∝ ŝᵢ·repᵢ.
            let mut u = rng.f64() * self.total_weight;
            let mut chosen = self.classes.len() - 1;
            for (idx, (w, _)) in self.classes.iter().enumerate() {
                u -= w;
                if u < 0.0 {
                    chosen = idx;
                    break;
                }
            }
            let members = &self.classes[chosen].1;
            let (coord, value, zv) = members[rng.index(members.len())];
            if coord >= self.base_dim {
                continue; // injected coordinate: FAIL, retry
            }
            return Some(Draw {
                coord,
                value,
                q_hat: (zv / self.z_hat).min(1.0),
            });
        }
        None
    }

    /// Draws `r` samples, skipping failed attempts (the paper repeats the
    /// sampler and keeps non-injected outputs).
    pub fn draw_many(&self, r: usize, rng: &mut Rng) -> Vec<Draw> {
        (0..r).filter_map(|_| self.draw(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseServerVec;
    use crate::zfn::{HuberSq, Square};
    use dlra_comm::Cluster;
    use std::collections::BTreeMap;

    fn make_cluster(parts: Vec<Vec<f64>>) -> Cluster<DenseServerVec> {
        Cluster::new(parts.into_iter().map(DenseServerVec::new).collect())
    }

    fn test_params() -> ZSamplerParams {
        ZSamplerParams {
            hh_width: 128,
            groups: 4,
            reps: 2,
            b_threshold: 16.0,
            ..ZSamplerParams::default()
        }
    }

    #[test]
    fn zero_vector_draws_nothing() {
        let mut c = make_cluster(vec![vec![0.0; 64]; 2]);
        let s = ZSampler::new(test_params(), 1);
        let prep = s.prepare(&mut c, &Square);
        assert!(prep.is_empty());
        let mut rng = Rng::new(2);
        assert_eq!(prep.draw(&mut rng), None);
    }

    #[test]
    fn heavy_coordinates_dominate_draws() {
        let dim = 4096usize;
        let mut v = vec![0.01f64; dim];
        v[42] = 100.0; // z = 10000, dwarfs everything
        let mut c = make_cluster(vec![v]);
        let s = ZSampler::new(test_params(), 3);
        let prep = s.prepare(&mut c, &Square);
        assert!(!prep.is_empty());
        let mut rng = Rng::new(4);
        let draws = prep.draw_many(200, &mut rng);
        assert!(!draws.is_empty());
        let hits = draws.iter().filter(|d| d.coord == 42).count();
        assert!(
            hits as f64 / draws.len() as f64 > 0.9,
            "heavy coordinate drawn {hits}/{}",
            draws.len()
        );
        // q_hat close to its true share.
        let d = draws.iter().find(|d| d.coord == 42).unwrap();
        assert!((d.value - 100.0).abs() < 1e-9);
        assert!(d.q_hat > 0.5, "q_hat {}", d.q_hat);
    }

    #[test]
    fn empirical_distribution_tracks_z_over_planted_classes() {
        // Two planted classes: 8 coords of value 10 (z=100) and 64 coords of
        // value 2 (z=4). Class masses: 800 vs 256.
        let dim = 1 << 13;
        let mut v = vec![0.0f64; dim];
        for i in 0..8 {
            v[i * 37] = 10.0;
        }
        for i in 0..64 {
            v[4096 + i * 29] = 2.0;
        }
        let truth_heavy = 800.0 / (800.0 + 256.0);
        let mut c = make_cluster(vec![v.clone()]);
        let mut p = test_params();
        p.hh_width = 256;
        let s = ZSampler::new(p, 7);
        let prep = s.prepare(&mut c, &Square);
        let mut rng = Rng::new(8);
        let draws = prep.draw_many(2000, &mut rng);
        assert!(draws.len() > 1500, "too many failures: {}", draws.len());
        let heavy = draws.iter().filter(|d| v[d.coord as usize] == 10.0).count();
        let frac = heavy as f64 / draws.len() as f64;
        assert!(
            (frac - truth_heavy).abs() < 0.2,
            "heavy fraction {frac} vs {truth_heavy}"
        );
        // All drawn values must be exact.
        for d in &draws {
            assert!(
                (d.value - v[d.coord as usize]).abs() < 1e-9,
                "wrong value at {}",
                d.coord
            );
        }
    }

    #[test]
    fn distributed_draws_respect_aggregate() {
        // Coordinate heavy only after aggregation across 4 servers.
        let dim = 2048usize;
        let mut parts: Vec<Vec<f64>> = vec![vec![0.0; dim]; 4];
        for p in parts.iter_mut() {
            p[99] = 6.0; // aggregate 24 → z = 576
            p[7] = -1.0; // aggregate -4 → z = 16
        }
        let mut c = make_cluster(parts);
        let s = ZSampler::new(test_params(), 11);
        let prep = s.prepare(&mut c, &Square);
        let mut rng = Rng::new(12);
        let draws = prep.draw_many(300, &mut rng);
        let big = draws.iter().filter(|d| d.coord == 99).count();
        assert!(
            big as f64 / draws.len() as f64 > 0.8,
            "aggregate-heavy fraction {}",
            big as f64 / draws.len() as f64
        );
        let d = draws.iter().find(|d| d.coord == 99).unwrap();
        assert!((d.value - 24.0).abs() < 1e-9);
    }

    #[test]
    fn huber_z_saturates_outliers() {
        // With Huber ψ (k = 1), a wild outlier's z is capped at 1, so it
        // must NOT dominate the draws.
        let dim = 1024usize;
        let mut v = vec![0.0f64; dim];
        for i in 0..128 {
            v[i * 8] = 1.0; // z = 1 each → mass 128
        }
        v[513] = 1e6; // z capped at 1
        let mut c = make_cluster(vec![v]);
        let mut p = test_params();
        p.hh_width = 256;
        let s = ZSampler::new(p, 13);
        let prep = s.prepare(&mut c, &HuberSq { k: 1.0 });
        let mut rng = Rng::new(14);
        let draws = prep.draw_many(500, &mut rng);
        assert!(!draws.is_empty());
        let outlier = draws.iter().filter(|d| d.coord == 513).count();
        assert!(
            (outlier as f64) < 0.1 * draws.len() as f64,
            "outlier drawn {outlier}/{}",
            draws.len()
        );
    }

    #[test]
    fn draws_never_return_injected_coordinates() {
        let dim = 512usize;
        let mut v = vec![0.0f64; dim];
        for x in v.iter_mut().take(10) {
            *x = 1.0;
        }
        let mut c = make_cluster(vec![v]);
        let s = ZSampler::new(test_params(), 15);
        let prep = s.prepare(&mut c, &Square);
        let mut rng = Rng::new(16);
        for d in prep.draw_many(500, &mut rng) {
            assert!(d.coord < dim as u64);
        }
    }

    #[test]
    fn prepare_shared_matches_prepare_and_accounts_cost() {
        let parts = vec![vec![1.0, 0.0, 3.0, 0.5, 0.0, 2.0, 0.0, 0.25]; 3];
        let s = ZSampler::new(test_params(), 23);

        let mut c1 = make_cluster(parts.clone());
        let plain = s.prepare(&mut c1, &Square);

        let mut c2 = make_cluster(parts);
        let before = dlra_comm::Collectives::comm(&c2);
        let shared = s.prepare_shared(&mut c2, &Square);

        // Same structure, bit for bit (deterministic pipeline)...
        assert_eq!(plain.z_hat().to_bits(), shared.sampler.z_hat().to_bits());
        assert_eq!(plain.stats(), shared.sampler.stats());
        let mut ra = Rng::new(9);
        let mut rb = Rng::new(9);
        assert_eq!(
            plain.draw_many(50, &mut ra),
            shared.sampler.draw_many(50, &mut rb)
        );

        // ...and the snapshotted cost is exactly what the cluster charged.
        assert_eq!(
            shared.prepare_comm,
            dlra_comm::Collectives::comm(&c2).since(&before)
        );
        assert!(shared.prepare_comm.total_words() > 0);

        // The artifact is shareable: cloning bumps the Arc, not the data.
        let other = Arc::clone(&shared.sampler);
        assert_eq!(Arc::strong_count(&other), 2);
    }

    #[test]
    fn injection_cleared_after_prepare() {
        let mut c = make_cluster(vec![vec![1.0; 256]; 2]);
        let s = ZSampler::new(test_params(), 17);
        let _ = s.prepare(&mut c, &Square);
        assert_eq!(c.with_local(0, SampleVector::dim), 256);
        assert_eq!(c.with_local(1, SampleVector::dim), 256);
    }

    #[test]
    fn q_hat_consistent_with_empirical_frequency() {
        // For a vector with a few distinct heavy values, the reported q̂
        // should match empirical draw frequencies within a factor ~2.
        let dim = 2048usize;
        let mut v = vec![0.0f64; dim];
        v[10] = 30.0;
        v[20] = 20.0;
        v[30] = 10.0;
        let z = Square;
        let ztot: f64 = v.iter().map(|&x| z.z(x)).sum();
        let mut c = make_cluster(vec![v.clone()]);
        let s = ZSampler::new(test_params(), 19);
        let prep = s.prepare(&mut c, &z);
        let mut rng = Rng::new(20);
        let n = 4000;
        let draws = prep.draw_many(n, &mut rng);
        let mut freq: BTreeMap<u64, usize> = BTreeMap::new();
        for d in &draws {
            *freq.entry(d.coord).or_default() += 1;
        }
        for (&coord, &count) in &freq {
            let emp = count as f64 / draws.len() as f64;
            let truth = z.z(v[coord as usize]) / ztot;
            assert!(
                emp / truth < 2.5 && truth / emp < 2.5,
                "coord {coord}: emp {emp:.3} truth {truth:.3}"
            );
            let d = draws.iter().find(|d| d.coord == coord).unwrap();
            assert!(
                d.q_hat / truth < 2.0 && truth / d.q_hat < 2.0,
                "coord {coord}: q̂ {} truth {truth}",
                d.q_hat
            );
        }
    }
}
