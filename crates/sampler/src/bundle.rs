//! The per-server sketch bundle: Algorithm 2's `Z-HeavyHitters` replicated
//! across Algorithm 3's subsampling levels.
//!
//! Level `0` sketches the full vector; level `j ≥ 1` sketches the
//! restriction to `Sⱼ = {i : g(i) < 2⁻ʲ}` for a shared high-independence
//! hash `g` (so the `Sⱼ` are nested, as in the paper). Within a level, each
//! of `reps` repetitions routes coordinates through a pairwise-independent
//! group hash into `groups` buckets and maintains one
//! [`HeavyHittersSketch`] per bucket — Algorithm 2's `hashₜ : [m] → [⌈4B²⌉]`
//! followed by `HeavyHitters(v(Hₜ,ₑ), B, ·)`. Two coordinates that are both
//! `z`-heavy land in different groups with constant probability per rep;
//! within its group, a `z`-heavy coordinate is `F₂`-heavy by property P, so
//! plain heavy-hitter recovery finds it.
//!
//! The whole bundle is linear, so per-server bundles built from one
//! broadcast seed merge by addition into the bundle of the aggregate vector.

use crate::params::ZSamplerParams;
use crate::vector::SampleVector;
use dlra_comm::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use dlra_comm::Payload;
use dlra_sketch::{HeavyHittersSketch, KWiseHash};

/// One repetition at one level: group hash + per-group heavy hitters.
#[derive(Debug, Clone)]
struct GroupedHh {
    group_hash: KWiseHash,
    groups: Vec<HeavyHittersSketch>,
}

/// The full multi-level sketch bundle one server ships to the coordinator.
#[derive(Debug, Clone)]
pub struct SketchBundle {
    seed: u64,
    levels: Vec<Vec<GroupedHh>>,
    sub_hash: KWiseHash,
    num_levels: usize,
    max_candidates_per_level: usize,
}

impl SketchBundle {
    /// Builds an empty bundle. Identical `(params, seed, dim)` ⇒ identical
    /// hash functions ⇒ mergeable.
    pub fn new(params: &ZSamplerParams, seed: u64, dim: u64) -> Self {
        let num_levels = params.effective_levels(dim);
        let sub_hash = KWiseHash::from_seed(params.g_independence.max(2), seed ^ 0x5EED_5EED);
        let levels = build_levels(
            seed,
            num_levels,
            params.reps,
            params.groups,
            params.b_threshold,
            params.hh_depth,
            params.hh_width,
        );
        SketchBundle {
            seed,
            levels,
            sub_hash,
            num_levels,
            max_candidates_per_level: params.max_candidates_per_level,
        }
    }

    /// Number of subsampling levels beyond the base.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The deepest level coordinate `j` survives to: `j ∈ Sₗ` for all
    /// `l ≤ level_of(j)` (nested subsampling via the shared hash `g`).
    #[inline]
    pub fn level_of(&self, j: u64) -> usize {
        let u = self.sub_hash.unit(j);
        if u <= 0.0 {
            return self.num_levels;
        }
        // `u ∈ (0, 1]`, so `-log2 u ≥ 0` and the truncating cast is its floor.
        ((-u.log2()) as usize).min(self.num_levels)
    }

    /// Adds `value` at coordinate `j` into every level it survives to.
    pub fn update(&mut self, j: u64, value: f64) {
        if value == 0.0 {
            return;
        }
        let deepest = self.level_of(j);
        for level in 0..=deepest {
            for rep in self.levels[level].iter_mut() {
                let g = rep.group_hash.bucket(j, rep.groups.len());
                rep.groups[g].update(j, value);
            }
        }
    }

    /// Sketches a server's whole local vector.
    pub fn absorb<V: SampleVector + ?Sized>(&mut self, v: &V) {
        v.for_each_nonzero(&mut |j, x| self.update(j, x));
    }

    /// Merges a bundle built with the same `(params, seed, dim)`.
    pub fn merge(&mut self, other: &SketchBundle) {
        assert_eq!(self.seed, other.seed, "bundle seed mismatch");
        assert_eq!(self.num_levels, other.num_levels, "bundle level mismatch");
        for (la, lb) in self.levels.iter_mut().zip(&other.levels) {
            for (ra, rb) in la.iter_mut().zip(lb) {
                for (ga, gb) in ra.groups.iter_mut().zip(&rb.groups) {
                    ga.merge(gb);
                }
            }
        }
    }

    /// Total sketch size in words (the upstream cost per server).
    pub fn size_words(&self) -> u64 {
        self.levels
            .iter()
            .flatten()
            .flat_map(|r| r.groups.iter())
            .map(HeavyHittersSketch::size_words)
            .sum()
    }

    /// Recovers, for each level, the coordinates reported heavy by any
    /// repetition's group sketch, scanning candidates `0..dim`.
    ///
    /// Returns `recovered[level] = sorted candidate list`. Runs at the
    /// coordinator on the *merged* bundle; it is pure local computation
    /// (the model allows polynomial local work) and costs no communication.
    pub fn recover(&self, dim: u64) -> Vec<Vec<u64>> {
        // Precompute per-group acceptance thresholds: est² ≥ F̂₂ / (2B).
        let thresholds: Vec<Vec<Vec<f64>>> = self
            .levels
            .iter()
            .map(|reps| {
                reps.iter()
                    .map(|r| {
                        r.groups
                            .iter()
                            .map(|g| 0.5 * g.f2_estimate() / g.b())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut scored: Vec<Vec<(f64, u64)>> = vec![Vec::new(); self.num_levels + 1];
        for j in 0..dim {
            let deepest = self.level_of(j);
            for level in 0..=deepest {
                let mut best = 0.0f64;
                let mut hit = false;
                for (rep, thr) in self.levels[level].iter().zip(&thresholds[level]) {
                    let g = rep.group_hash.bucket(j, rep.groups.len());
                    let t = thr[g];
                    if t <= 0.0 {
                        continue;
                    }
                    if let Some(est) = rep.groups[g].estimate_if_heavy(j, t) {
                        hit = true;
                        best = best.max(est.abs());
                    }
                }
                if hit {
                    scored[level].push((best, j));
                }
            }
        }
        // Cap each level to the largest-estimate candidates, bounding the
        // exact-lookup round's communication.
        scored
            .into_iter()
            .map(|mut lvl| {
                if lvl.len() > self.max_candidates_per_level {
                    lvl.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
                    lvl.truncate(self.max_candidates_per_level);
                }
                let mut coords: Vec<u64> = lvl.into_iter().map(|(_, j)| j).collect();
                coords.sort_unstable();
                coords
            })
            .collect()
    }
}

impl Payload for SketchBundle {
    fn words(&self) -> u64 {
        self.size_words()
    }
}

/// The deterministic hash-function scaffolding shared by [`SketchBundle::new`]
/// and the wire decoder. Both must derive group-hash and heavy-hitter seeds
/// by exactly this formula — a decoded bundle that drifted here would merge
/// with mismatched hashes and silently corrupt recovery.
fn build_levels(
    seed: u64,
    num_levels: usize,
    reps: usize,
    groups: usize,
    b_threshold: f64,
    hh_depth: usize,
    hh_width: usize,
) -> Vec<Vec<GroupedHh>> {
    (0..=num_levels)
        .map(|level| {
            (0..reps)
                .map(|rep| {
                    let tag = (level as u64) << 32 | rep as u64;
                    let group_hash =
                        KWiseHash::from_seed(2, seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let groups = (0..groups)
                        .map(|g| {
                            HeavyHittersSketch::with_dims(
                                b_threshold,
                                hh_depth,
                                hh_width,
                                seed ^ (tag << 8 | g as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                            )
                        })
                        .collect();
                    GroupedHh { group_hash, groups }
                })
                .collect()
        })
        .collect()
}

/// Caps on decoded bundle shape parameters: generous for any real
/// configuration, small enough that a corrupt descriptor cannot demand a
/// pathological allocation.
const MAX_BUNDLE_LEVELS: u64 = 64;
const MAX_BUNDLE_REPS: u64 = 1 << 12;
const MAX_BUNDLE_GROUPS: u64 = 1 << 12;
const MAX_BUNDLE_DIM: u64 = 1 << 20;
const MAX_BUNDLE_INDEP: u64 = 1 << 12;
const MAX_BUNDLE_CANDIDATES: u64 = 1 << 24;

/// Descriptor: construction seed + shape parameters (hash functions are
/// re-derived locally from the seed, as the paper's model reconstructs
/// sketch hashes from a broadcast seed). Body: every heavy-hitter counter
/// table in level/rep/group order — exactly [`SketchBundle::size_words`]
/// words, keeping wire bytes proportional to ledger words.
impl WireEncode for SketchBundle {
    fn encode(&self, w: &mut WireWriter) {
        w.desc_u64(self.seed);
        w.desc_u32(self.num_levels as u32);
        let reps = self.levels.first().map_or(0, Vec::len);
        let (b, depth, width) = self
            .levels
            .first()
            .and_then(|l| l.first())
            .and_then(|r| r.groups.first())
            .map_or((1.0, 1, 1), |hh| {
                (hh.b(), hh.countsketch().depth(), hh.countsketch().width())
            });
        let groups = self
            .levels
            .first()
            .and_then(|l| l.first())
            .map_or(0, |r| r.groups.len());
        w.desc_u32(reps as u32);
        w.desc_u32(groups as u32);
        w.desc_u32(depth as u32);
        w.desc_u32(width as u32);
        w.desc_f64(b);
        w.desc_u32(self.sub_hash.independence() as u32);
        w.desc_u32(self.max_candidates_per_level as u32);
        for level in &self.levels {
            for rep in level {
                for hh in &rep.groups {
                    w.words_f64(hh.countsketch().table());
                }
            }
        }
    }
}

impl WireDecode for SketchBundle {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seed = r.desc_u64("bundle seed")?;
        let num_levels = u64::from(r.desc_u32("bundle levels")?);
        let reps = u64::from(r.desc_u32("bundle reps")?);
        let groups = u64::from(r.desc_u32("bundle groups")?);
        let depth = u64::from(r.desc_u32("bundle hh depth")?);
        let width = u64::from(r.desc_u32("bundle hh width")?);
        let b = r.desc_f64("bundle threshold")?;
        let indep = u64::from(r.desc_u32("bundle g independence")?);
        let max_candidates = u64::from(r.desc_u32("bundle candidate cap")?);
        if num_levels > MAX_BUNDLE_LEVELS {
            return Err(WireError::Oversized {
                what: "bundle levels",
                len: num_levels,
                max: MAX_BUNDLE_LEVELS,
            });
        }
        if reps == 0 || reps > MAX_BUNDLE_REPS {
            return Err(WireError::Oversized {
                what: "bundle reps",
                len: reps,
                max: MAX_BUNDLE_REPS,
            });
        }
        if groups == 0 || groups > MAX_BUNDLE_GROUPS {
            return Err(WireError::Oversized {
                what: "bundle groups",
                len: groups,
                max: MAX_BUNDLE_GROUPS,
            });
        }
        if depth == 0 || width == 0 || depth > MAX_BUNDLE_DIM || width > MAX_BUNDLE_DIM {
            return Err(WireError::Oversized {
                what: "bundle hh dims",
                len: depth.max(width),
                max: MAX_BUNDLE_DIM,
            });
        }
        if !(2..=MAX_BUNDLE_INDEP).contains(&indep) {
            return Err(WireError::Oversized {
                what: "bundle g independence",
                len: indep,
                max: MAX_BUNDLE_INDEP,
            });
        }
        if max_candidates > MAX_BUNDLE_CANDIDATES {
            return Err(WireError::Oversized {
                what: "bundle candidate cap",
                len: max_candidates,
                max: MAX_BUNDLE_CANDIDATES,
            });
        }
        if !b.is_finite() || b < 1.0 {
            return Err(WireError::BadTag {
                what: "bundle threshold",
                value: b.to_bits(),
            });
        }
        let table_words = depth * width;
        let total_words = (num_levels + 1) * reps * groups * table_words;
        if total_words > r.remaining_body_words() {
            return Err(WireError::Truncated {
                what: "bundle tables",
                needed: (total_words * 8) as usize,
                have: (r.remaining_body_words() * 8) as usize,
            });
        }
        let mut levels = build_levels(
            seed,
            num_levels as usize,
            reps as usize,
            groups as usize,
            b,
            depth as usize,
            width as usize,
        );
        for level in levels.iter_mut() {
            for rep in level.iter_mut() {
                for hh in rep.groups.iter_mut() {
                    let table = r.words_f64(table_words, "bundle table")?;
                    if !hh.load_countsketch_table(&table) {
                        return Err(WireError::BadTag {
                            what: "bundle table",
                            value: table.len() as u64,
                        });
                    }
                }
            }
        }
        let sub_hash = KWiseHash::from_seed(indep as usize, seed ^ 0x5EED_5EED);
        Ok(SketchBundle {
            seed,
            levels,
            sub_hash,
            num_levels: num_levels as usize,
            max_candidates_per_level: max_candidates as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseServerVec;
    use dlra_util::Rng;

    fn small_params() -> ZSamplerParams {
        ZSamplerParams {
            hh_width: 64,
            groups: 4,
            reps: 2,
            b_threshold: 16.0,
            max_levels: 8,
            ..ZSamplerParams::default()
        }
    }

    #[test]
    fn level_of_is_geometric() {
        let p = small_params();
        let b = SketchBundle::new(&p, 42, 1 << 16);
        let n = 100_000u64;
        let mut counts = vec![0usize; b.num_levels() + 1];
        for j in 0..n {
            counts[b.level_of(j)] += 1;
        }
        // P(level ≥ 1) = 1/2, P(level ≥ 2) = 1/4, ...
        let at_least_1: usize = counts[1..].iter().sum();
        let frac = at_least_1 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
        let at_least_3: usize = counts[3..].iter().sum();
        let frac3 = at_least_3 as f64 / n as f64;
        assert!((frac3 - 0.125).abs() < 0.01, "frac3 {frac3}");
    }

    #[test]
    fn update_zero_is_noop() {
        let p = small_params();
        let mut b = SketchBundle::new(&p, 1, 100);
        b.update(5, 0.0);
        assert!(b.recover(100).iter().all(|l| l.is_empty()));
    }

    #[test]
    fn merge_matches_joint() {
        let p = small_params();
        let mut rng = Rng::new(7);
        let dim = 500u64;
        let v1: Vec<f64> = (0..dim).map(|_| rng.gaussian() * 0.1).collect();
        let mut v2: Vec<f64> = (0..dim).map(|_| rng.gaussian() * 0.1).collect();
        v2[123] += 30.0; // heavy only in aggregate
        let mut b1 = SketchBundle::new(&p, 9, dim);
        let mut b2 = SketchBundle::new(&p, 9, dim);
        let mut joint = SketchBundle::new(&p, 9, dim);
        b1.absorb(&DenseServerVec::new(v1.clone()));
        b2.absorb(&DenseServerVec::new(v2.clone()));
        let sum: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| a + b).collect();
        joint.absorb(&DenseServerVec::new(sum));
        b1.merge(&b2);
        let r_merged = b1.recover(dim);
        let r_joint = joint.recover(dim);
        assert_eq!(r_merged, r_joint);
        assert!(r_merged[0].contains(&123));
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_different_seeds() {
        let p = small_params();
        let mut a = SketchBundle::new(&p, 1, 10);
        let b = SketchBundle::new(&p, 2, 10);
        a.merge(&b);
    }

    #[test]
    fn recovers_heavy_at_base_level() {
        let p = small_params();
        let dim = 2000u64;
        let mut rng = Rng::new(11);
        let mut v: Vec<f64> = (0..dim).map(|_| rng.gaussian() * 0.05).collect();
        v[50] = 20.0;
        v[1500] = -25.0;
        let mut b = SketchBundle::new(&p, 21, dim);
        b.absorb(&DenseServerVec::new(v));
        let rec = b.recover(dim);
        assert!(rec[0].contains(&50), "missing 50 at base");
        assert!(rec[0].contains(&1500), "missing 1500 at base");
    }

    #[test]
    fn subsampled_levels_surface_mid_mass_class() {
        // A large class of equal mid-weight coordinates is invisible at the
        // base level (none is 1/B-heavy) but visible at deep levels where
        // few survivors remain.
        let p = small_params();
        let dim = 1 << 14;
        let mut v = vec![0.0f64; dim as usize];
        // 512 coordinates of weight 1 (class), everything else tiny.
        let mut rng = Rng::new(13);
        for x in v.iter_mut() {
            *x = rng.gaussian() * 0.002;
        }
        for c in 0..512u64 {
            v[(c * 31) as usize % dim as usize] = 1.0;
        }
        let mut b = SketchBundle::new(&p, 31, dim);
        b.absorb(&DenseServerVec::new(v.clone()));
        let rec = b.recover(dim);
        // At depth ~7, about 4 of the 512 survive and dominate their groups.
        let deep_hits: usize = (5..=8)
            .map(|lvl| rec[lvl].iter().filter(|&&j| v[j as usize] == 1.0).count())
            .sum();
        assert!(deep_hits > 0, "no class member recovered at deep levels");
    }

    #[test]
    fn wire_roundtrip_preserves_recovery_and_merge() {
        use dlra_comm::wire::{decode_value, encode_value};
        let p = small_params();
        let dim = 800u64;
        let mut rng = Rng::new(17);
        let mut v: Vec<f64> = (0..dim).map(|_| rng.gaussian() * 0.05).collect();
        v[77] = 15.0;
        let mut b = SketchBundle::new(&p, 29, dim);
        b.absorb(&DenseServerVec::new(v));
        let (desc, body) = encode_value(&b);
        assert_eq!(body.len() as u64, 8 * Payload::words(&b));
        let back: SketchBundle = decode_value(&desc, &body).expect("decode");
        assert_eq!(back.recover(dim), b.recover(dim));
        // A decoded bundle merges with a locally built one — hash
        // derivations must agree exactly.
        let mut merged = SketchBundle::new(&p, 29, dim);
        merged.merge(&back);
        assert_eq!(merged.recover(dim), b.recover(dim));
    }

    #[test]
    fn wire_decode_rejects_truncated_tables() {
        use dlra_comm::wire::{decode_value, encode_value, WireError};
        let p = small_params();
        let b = SketchBundle::new(&p, 3, 64);
        let (desc, body) = encode_value(&b);
        let err = decode_value::<SketchBundle>(&desc, &body[..body.len() - 8]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    /// The recovery scan probing every row of each group sketch, then
    /// comparing its median estimate with the threshold.
    fn full_probe_recover(b: &SketchBundle, dim: u64) -> Vec<Vec<u64>> {
        let mut scored: Vec<Vec<(f64, u64)>> = vec![Vec::new(); b.num_levels + 1];
        for j in 0..dim {
            for (reps, found) in b.levels.iter().zip(&mut scored).take(b.level_of(j) + 1) {
                let mut best = 0.0f64;
                let mut hit = false;
                for rep in reps {
                    let hh = &rep.groups[rep.group_hash.bucket(j, rep.groups.len())];
                    let t = 0.5 * hh.f2_estimate() / hh.b();
                    let est = hh.estimate(j);
                    if t > 0.0 && est * est >= t {
                        hit = true;
                        best = best.max(est.abs());
                    }
                }
                if hit {
                    found.push((best, j));
                }
            }
        }
        scored
            .into_iter()
            .map(|mut lvl| {
                if lvl.len() > b.max_candidates_per_level {
                    lvl.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
                    lvl.truncate(b.max_candidates_per_level);
                }
                let mut coords: Vec<u64> = lvl.into_iter().map(|(_, j)| j).collect();
                coords.sort_unstable();
                coords
            })
            .collect()
    }

    #[test]
    fn recover_matches_full_probe_reference() {
        let dim = 3000u64;
        for (case, depth) in (1..=5).enumerate() {
            for cap in [6, 512] {
                let p = ZSamplerParams {
                    hh_depth: depth,
                    hh_width: 24,
                    max_candidates_per_level: cap,
                    ..small_params()
                };
                let mut rng = Rng::new(100 + case as u64);
                let v: Vec<f64> = (0..dim)
                    .map(|_| match rng.index(40) {
                        0 => rng.gaussian() * 20.0,
                        1..=3 => rng.gaussian(),
                        _ => 0.0,
                    })
                    .collect();
                let mut b = SketchBundle::new(&p, 7 + case as u64, dim);
                b.absorb(&DenseServerVec::new(v));
                let got = b.recover(dim);
                // Some candidates, and the small cap binds.
                assert!(got.iter().map(Vec::len).sum::<usize>() > 0);
                assert!(cap > 6 || got.iter().any(|l| l.len() == cap));
                assert_eq!(got, full_probe_recover(&b, dim), "depth {depth} cap {cap}");
            }
        }
    }

    #[test]
    fn size_words_matches_structure() {
        let p = small_params();
        let b = SketchBundle::new(&p, 0, 1000);
        let expect = (b.num_levels() as u64 + 1)
            * p.reps as u64
            * p.groups as u64
            * (p.hh_depth * p.hh_width) as u64;
        assert_eq!(b.size_words(), expect);
        assert_eq!(Payload::words(&b), expect);
    }
}
