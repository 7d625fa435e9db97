//! The per-server sketch bundle: Algorithm 2's `Z-HeavyHitters` replicated
//! across Algorithm 3's subsampling levels.
//!
//! Level `0` sketches the full vector; level `j ≥ 1` sketches the
//! restriction to `Sⱼ = {i : g(i) < 2⁻ʲ}` for a shared high-independence
//! hash `g` (so the `Sⱼ` are nested, as in the paper). Within a level, each
//! of `reps` repetitions routes coordinates through a pairwise-independent
//! group hash into `groups` buckets and maintains one [`CountSketch`] per
//! bucket — Algorithm 2's `hashₜ : [m] → [⌈4B²⌉]` followed by
//! `HeavyHitters(v(Hₜ,ₑ), B, ·)`, the §V-B protocol that reads a
//! CountSketch against the threshold `F̂₂/B`. Two coordinates that are both
//! `z`-heavy land in different groups with constant probability per rep;
//! within its group, a `z`-heavy coordinate is `F₂`-heavy by property P, so
//! plain heavy-hitter recovery finds it. [`SketchBundle::recover`] reports a
//! coordinate when its squared estimate clears half the group's `F̂₂/B`, so
//! a borderline-heavy coordinate whose estimate is slightly deflated still
//! reports; the exact lookups of Algorithm 3 lines 6/11 filter the false
//! positives.
//!
//! The whole bundle is linear, so per-server bundles built from one
//! broadcast seed merge by addition into the bundle of the aggregate vector.
//!
//! # Levels as integer thresholds
//!
//! A coordinate's level is defined by an f64 expression of its hash
//! `h = g(j)`: `⌊−log₂(h/p)⌋`, capped at the level count, with `h = 0` at
//! every level. Evaluating it costs a divide and a `log2` per coordinate.
//! The value is non-increasing in `h`, so it is fixed by the largest hash
//! at each level, found once by bisecting the f64 expression itself (its
//! rounding, not the real logarithm, decides the boundary hashes). For
//! `h ≥ 1`, `c = lzcnt(h − 1) − 3` is the exact `⌊−log₂(h/2⁶¹)⌋`, and each
//! level's largest hash `tₗ` satisfies `2⁶¹⁻ˡ ≤ tₗ < 2⁶²⁻ˡ`. So every level
//! up to `c` admits `h`, none past `c + 1` does, and the level is `c`, plus
//! one when `h ≤ t_{c+1}`.
//!
//! # Chunked scans
//!
//! [`SketchBundle::absorb`] and [`SketchBundle::recover`] visit
//! coordinates in chunks of 2048, with every buffer on the stack of
//! the call, and hash each chunk many coordinates at a time
//! ([`KWiseHash::hash_many`]). `absorb` sketches a chunk level by level,
//! so every counter still takes its additions in input order: the tables
//! are [`SketchBundle::update`]'s bit for bit. `recover` drops the
//! coordinates whose rows are mostly light in every repetition
//! ([`CountSketch::light_rows_many`], for which
//! [`CountSketch::estimate_if_heavy`] is `None` too) and re-checks the few
//! survivors one by one, in ascending order, with the per-coordinate test.

use crate::params::ZSamplerParams;
use crate::vector::SampleVector;
use dlra_comm::wire::{Wire, WireError, WireReader, WireWriter};
use dlra_sketch::hashing::MERSENNE_P;
use dlra_sketch::{CountSketch, KWiseHash, Modulus};
use std::sync::OnceLock;

/// One repetition at one level: group hash + one CountSketch per group.
#[derive(Debug, Clone)]
struct GroupedHh {
    group_hash: KWiseHash,
    groups: Vec<CountSketch>,
}

/// The full multi-level sketch bundle one server ships to the coordinator.
#[derive(Debug, Clone)]
pub struct SketchBundle {
    seed: u64,
    levels: Vec<Vec<GroupedHh>>,
    /// The group count of every repetition.
    groups: Modulus,
    sub_hash: KWiseHash,
    num_levels: usize,
    max_candidates_per_level: usize,
    /// Heaviness threshold `B`: a group reports `j` when `v̂ⱼ² ≥ F̂₂/(2B)`.
    b_threshold: f64,
}

/// The shape parameters a bundle holds inside its sketches, plus its
/// threshold. Two bundles merge only when these and the seed, level count
/// and candidate cap all match, and all of them cross the wire in the
/// descriptor.
#[derive(Debug, Clone, Copy)]
struct Shape {
    reps: usize,
    groups: usize,
    hh_depth: usize,
    hh_width: usize,
    b_threshold: f64,
    g_independence: usize,
}

/// Coordinates per chunk of [`SketchBundle::absorb`] and
/// [`SketchBundle::recover`]: a chunk's buffers are a few 16 KB arrays on
/// the stack of the scan, so no call allocates per coordinate.
const CHUNK: usize = 2048;

/// The buffers of one chunk of [`SketchBundle::absorb`].
struct AbsorbChunk {
    len: usize,
    /// Nonzero coordinates, in the order the vector visits them.
    js: [u64; CHUNK],
    /// Their values.
    xs: [f64; CHUNK],
    /// Their levels.
    levels: [u64; CHUNK],
    /// Their group buckets in one repetition.
    buckets: [u64; CHUNK],
    /// The coordinates and values routed to one group, in input order.
    group_js: [u64; CHUNK],
    group_xs: [f64; CHUNK],
}

/// The buffers of one chunk of [`SketchBundle::recover`].
struct RecoverChunk {
    /// Coordinates, ascending.
    js: [u64; CHUNK],
    /// Their levels.
    levels: [u64; CHUNK],
    /// Their group buckets in one repetition.
    buckets: [u64; CHUNK],
    /// The coordinates routed to one group, and where they sit in `js`.
    group_js: [u64; CHUNK],
    group_pos: [u32; CHUNK],
    /// Light-row counts of `group_js`.
    light: [u32; CHUNK],
    /// Whether some repetition's light test left `js[i]` undecided.
    survives: [bool; CHUNK],
}

/// Keeps, in order, the first `len` entries of `keys` (and the same
/// entries of `vals`) whose level is at least `level`; returns how many.
/// Every entry is copied and only the kept ones advance the write
/// position, so a coin-flip level costs no branch.
fn retain_level<T: Copy>(
    len: usize,
    level: usize,
    levels: &mut [u64],
    keys: &mut [u64],
    vals: &mut [T],
) -> usize {
    let mut kept = 0;
    for i in 0..len {
        levels[kept] = levels[i];
        keys[kept] = keys[i];
        vals[kept] = vals[i];
        kept += usize::from(levels[i] >= level as u64);
    }
    kept
}

/// The deepest level the f64 formula gives a nonzero hash: `h ≥ 1` means
/// `h/p ≥ 2⁻⁶¹`.
const MAX_HASH_LEVEL: usize = 61;

/// A hash's level by the f64 formula, uncapped (`usize::MAX` for `h = 0`,
/// which survives to every level).
fn f64_level(h: u64) -> usize {
    let u = h as f64 / MERSENNE_P as f64;
    if u <= 0.0 {
        return usize::MAX;
    }
    // `u ∈ (0, 1]`, so `-log2 u ≥ 0` and the truncating cast is its floor.
    (-u.log2()) as usize
}

/// Entry `l` is the largest hash at level `l` or deeper by [`f64_level`]
/// (`0` past [`MAX_HASH_LEVEL`]).
type LevelThresholds = [u64; MAX_HASH_LEVEL + 2];

/// The one threshold table every bundle shares.
fn level_thresholds() -> &'static LevelThresholds {
    static THRESHOLDS: OnceLock<LevelThresholds> = OnceLock::new();
    THRESHOLDS.get_or_init(|| {
        std::array::from_fn(|level| {
            // Invariant: `lo` is at `level` or deeper, `hi` (or p) is not.
            let (mut lo, mut hi) = (0, MERSENNE_P);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if f64_level(mid) >= level {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        })
    })
}

/// The level of hash `h` in a bundle of `num_levels` levels: the f64
/// formula's value, capped, from one leading-zero count and one threshold
/// compare (see the module docs).
#[inline]
fn level_of_hash(h: u64, num_levels: usize) -> usize {
    level_by_table(level_thresholds(), h, num_levels)
}

/// [`level_of_hash`] with the threshold table in hand.
#[inline]
fn level_by_table(thresholds: &LevelThresholds, h: u64, num_levels: usize) -> usize {
    if h == 0 {
        return num_levels;
    }
    let c = (h - 1).leading_zeros() as usize - 3;
    (c + usize::from(h <= thresholds[c + 1])).min(num_levels)
}

/// Replaces every level hash in `hs` with its level.
fn levels_of_hashes(hs: &mut [u64], num_levels: usize) {
    let thresholds = level_thresholds();
    for h in hs {
        *h = level_by_table(thresholds, *h, num_levels) as u64;
    }
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
            params.hh_depth,
            params.hh_width,
        );
        SketchBundle {
            seed,
            levels,
            groups: Modulus::new(params.groups),
            sub_hash,
            num_levels,
            max_candidates_per_level: params.max_candidates_per_level,
            b_threshold: params.b_threshold,
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
        level_of_hash(self.sub_hash.hash(j), self.num_levels)
    }

    /// Adds `value` at coordinate `j` into every level it survives to.
    pub fn update(&mut self, j: u64, value: f64) {
        if value == 0.0 {
            return;
        }
        let deepest = self.level_of(j);
        for level in &mut self.levels[..=deepest] {
            for rep in level {
                let g = rep.group_hash.bucket(j, &self.groups);
                rep.groups[g].update(j, value);
            }
        }
    }

    /// Sketches a server's whole local vector: the tables that
    /// [`update`](Self::update) on every nonzero in turn builds, bit for
    /// bit, one chunk of nonzeros at a time (module docs).
    pub fn absorb<V: SampleVector + ?Sized>(&mut self, v: &V) {
        let mut chunk = AbsorbChunk {
            len: 0,
            js: [0; CHUNK],
            xs: [0.0; CHUNK],
            levels: [0; CHUNK],
            buckets: [0; CHUNK],
            group_js: [0; CHUNK],
            group_xs: [0.0; CHUNK],
        };
        v.for_each_nonzero(&mut |j, x| {
            if x != 0.0 {
                chunk.js[chunk.len] = j;
                chunk.xs[chunk.len] = x;
                chunk.len += 1;
                if chunk.len == CHUNK {
                    self.absorb_chunk(&mut chunk);
                }
            }
        });
        self.absorb_chunk(&mut chunk);
    }

    /// Sketches the chunk's coordinates into every level they survive to,
    /// level by level, each group's share in input order; empties it.
    fn absorb_chunk(&mut self, c: &mut AbsorbChunk) {
        let mut live = std::mem::take(&mut c.len);
        self.sub_hash
            .hash_many(&c.js[..live], &mut c.levels[..live]);
        levels_of_hashes(&mut c.levels[..live], self.num_levels);
        for (level, reps) in self.levels.iter_mut().enumerate() {
            live = retain_level(live, level, &mut c.levels, &mut c.js, &mut c.xs);
            if live == 0 {
                break;
            }
            let js = &c.js[..live];
            for rep in reps {
                rep.group_hash
                    .bucket_many(js, &self.groups, &mut c.buckets[..live]);
                for (g, cs) in rep.groups.iter_mut().enumerate() {
                    // Gathered without a branch, like `retain_level`.
                    let mut n = 0;
                    for ((&b, &j), &x) in c.buckets.iter().zip(js).zip(&c.xs) {
                        c.group_js[n] = j;
                        c.group_xs[n] = x;
                        n += usize::from(b == g as u64);
                    }
                    cs.update_many(&c.group_js[..n], &c.group_xs[..n]);
                }
            }
        }
    }

    /// The shape parameters held inside the sketches, and the threshold.
    fn shape(&self) -> Shape {
        let first = self.levels.first().and_then(|l| l.first());
        let (hh_depth, hh_width) = first
            .and_then(|r| r.groups.first())
            .map_or((1, 1), |cs| (cs.depth(), cs.width()));
        Shape {
            reps: self.levels.first().map_or(0, Vec::len),
            groups: first.map_or(0, |r| r.groups.len()),
            hh_depth,
            hh_width,
            b_threshold: self.b_threshold,
            g_independence: self.sub_hash.independence(),
        }
    }

    /// Merges a bundle built with the same `(params, seed, dim)`. Panics,
    /// naming the field, if any shape parameter differs.
    pub fn merge(&mut self, other: &SketchBundle) {
        let (a, b) = (self.shape(), other.shape());
        assert_eq!(self.seed, other.seed, "bundle seed mismatch");
        assert_eq!(self.num_levels, other.num_levels, "bundle level mismatch");
        assert_eq!(a.reps, b.reps, "bundle reps mismatch");
        assert_eq!(a.groups, b.groups, "bundle groups mismatch");
        assert_eq!(a.hh_depth, b.hh_depth, "bundle hh depth mismatch");
        assert_eq!(a.hh_width, b.hh_width, "bundle hh width mismatch");
        assert_eq!(
            a.b_threshold.to_bits(),
            b.b_threshold.to_bits(),
            "bundle threshold mismatch"
        );
        assert_eq!(
            a.g_independence, b.g_independence,
            "bundle g independence mismatch"
        );
        assert_eq!(
            self.max_candidates_per_level, other.max_candidates_per_level,
            "bundle candidate cap mismatch"
        );
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
            .map(CountSketch::size_words)
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
                            .map(|cs| 0.5 * cs.f2_estimate() / self.b_threshold)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut scored: Vec<Vec<(f64, u64)>> = vec![Vec::new(); self.num_levels + 1];
        let mut c = RecoverChunk {
            js: [0; CHUNK],
            levels: [0; CHUNK],
            buckets: [0; CHUNK],
            group_js: [0; CHUNK],
            group_pos: [0; CHUNK],
            light: [0; CHUNK],
            survives: [false; CHUNK],
        };
        let mut start = 0;
        while start < dim {
            let len = (dim - start).min(CHUNK as u64) as usize;
            for (j, i) in c.js[..len].iter_mut().zip(start..) {
                *j = i;
            }
            start += len as u64;
            self.recover_chunk(&mut c, len, &thresholds, &mut scored);
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

    /// Scores the first `len` coordinates of the chunk at every level they
    /// survive to: the batched light test drops a coordinate when every
    /// repetition leaves it mostly light rows, and the survivors are
    /// re-checked one by one, in ascending order, by
    /// [`best_heavy_estimate`](Self::best_heavy_estimate).
    fn recover_chunk(
        &self,
        c: &mut RecoverChunk,
        len: usize,
        thresholds: &[Vec<Vec<f64>>],
        scored: &mut [Vec<(f64, u64)>],
    ) {
        let mut live = len;
        self.sub_hash
            .hash_many(&c.js[..live], &mut c.levels[..live]);
        levels_of_hashes(&mut c.levels[..live], self.num_levels);
        for (level, (reps, thr)) in self.levels.iter().zip(thresholds).enumerate() {
            // No values ride along with the coordinates here.
            live = retain_level(live, level, &mut c.levels, &mut c.js, &mut [(); CHUNK]);
            if live == 0 {
                break;
            }
            let js = &c.js[..live];
            c.survives[..live].fill(false);
            for (rep, thr) in reps.iter().zip(thr) {
                rep.group_hash
                    .bucket_many(js, &self.groups, &mut c.buckets[..live]);
                for (g, (cs, &t)) in rep.groups.iter().zip(thr).enumerate() {
                    if t <= 0.0 {
                        continue;
                    }
                    // Gathered without a branch, like `retain_level`.
                    let mut n = 0;
                    for (i, (&b, &j)) in c.buckets.iter().zip(js).enumerate() {
                        c.group_js[n] = j;
                        c.group_pos[n] = i as u32;
                        n += usize::from(b == g as u64);
                    }
                    cs.light_rows_many(&c.group_js[..n], t, &mut c.light[..n]);
                    for (&light, &i) in c.light[..n].iter().zip(&c.group_pos) {
                        if cs.may_be_heavy(light) {
                            c.survives[i as usize] = true;
                        }
                    }
                }
            }
            for (&j, _) in js.iter().zip(&c.survives).filter(|(_, &s)| s) {
                if let Some(best) = self.best_heavy_estimate(level, j, thr) {
                    scored[level].push((best, j));
                }
            }
        }
    }

    /// The largest `|estimate|` over the repetitions whose heavy test
    /// coordinate `j` passes at `level`, or `None` when none does;
    /// `thresholds[rep][group]` is the group's acceptance threshold. This
    /// is the per-coordinate scan that [`recover`](Self::recover) runs
    /// only on the survivors of its batched light test.
    fn best_heavy_estimate(&self, level: usize, j: u64, thresholds: &[Vec<f64>]) -> Option<f64> {
        let mut best = 0.0f64;
        let mut hit = false;
        for (rep, thr) in self.levels[level].iter().zip(thresholds) {
            let g = rep.group_hash.bucket(j, &self.groups);
            let t = thr[g];
            if t <= 0.0 {
                continue;
            }
            if let Some(est) = rep.groups[g].estimate_if_heavy(j, t) {
                hit = true;
                best = best.max(est.abs());
            }
        }
        hit.then_some(best)
    }
}

/// The deterministic hash-function scaffolding shared by [`SketchBundle::new`]
/// and the wire decoder. Both must derive group-hash and CountSketch seeds
/// by exactly this formula — a decoded bundle that drifted here would merge
/// with mismatched hashes and silently corrupt recovery.
fn build_levels(
    seed: u64,
    num_levels: usize,
    reps: usize,
    groups: usize,
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
                            CountSketch::new(
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
/// sketch hashes from a broadcast seed). Body: every CountSketch counter
/// table in level/rep/group order — exactly [`SketchBundle::size_words`]
/// words, keeping wire bytes proportional to ledger words.
impl Wire for SketchBundle {
    fn words(&self) -> u64 {
        self.size_words()
    }

    fn encode(&self, w: &mut WireWriter) {
        let shape = self.shape();
        w.desc_u64(self.seed);
        w.desc_u32(self.num_levels as u32);
        w.desc_u32(shape.reps as u32);
        w.desc_u32(shape.groups as u32);
        w.desc_u32(shape.hh_depth as u32);
        w.desc_u32(shape.hh_width as u32);
        w.desc_f64(shape.b_threshold);
        w.desc_u32(shape.g_independence as u32);
        w.desc_u32(self.max_candidates_per_level as u32);
        for level in &self.levels {
            for rep in level {
                for cs in &rep.groups {
                    w.words_f64(cs.table());
                }
            }
        }
    }

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
            depth as usize,
            width as usize,
        );
        for level in levels.iter_mut() {
            for rep in level.iter_mut() {
                for cs in rep.groups.iter_mut() {
                    let table = r.words_f64(table_words, "bundle table")?;
                    if !cs.load_table(&table) {
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
            groups: Modulus::new(groups as usize),
            sub_hash,
            num_levels: num_levels as usize,
            max_candidates_per_level: max_candidates as usize,
            b_threshold: b,
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

    /// Merges a bundle built from `small_params()` with one built from
    /// `other`, same seed and dimension.
    fn merge_with(other: ZSamplerParams) {
        let mut a = SketchBundle::new(&small_params(), 1, 1000);
        a.merge(&SketchBundle::new(&other, 1, 1000));
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn merge_rejects_different_levels() {
        merge_with(ZSamplerParams {
            max_levels: 7,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "reps mismatch")]
    fn merge_rejects_different_reps() {
        merge_with(ZSamplerParams {
            reps: 1,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "groups mismatch")]
    fn merge_rejects_different_groups() {
        merge_with(ZSamplerParams {
            groups: 1,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "hh depth mismatch")]
    fn merge_rejects_different_hh_depth() {
        merge_with(ZSamplerParams {
            hh_depth: 3,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "hh width mismatch")]
    fn merge_rejects_different_hh_width() {
        merge_with(ZSamplerParams {
            hh_width: 32,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "threshold mismatch")]
    fn merge_rejects_different_threshold() {
        merge_with(ZSamplerParams {
            b_threshold: 8.0,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "g independence mismatch")]
    fn merge_rejects_different_g_independence() {
        merge_with(ZSamplerParams {
            g_independence: 8,
            ..small_params()
        });
    }

    #[test]
    #[should_panic(expected = "candidate cap mismatch")]
    fn merge_rejects_different_candidate_cap() {
        merge_with(ZSamplerParams {
            max_candidates_per_level: 3,
            ..small_params()
        });
    }

    #[test]
    fn level_thresholds_bracket_powers_of_two() {
        let t = level_thresholds();
        assert_eq!(t[0], MERSENNE_P - 1);
        for (level, &largest) in t.iter().enumerate().take(MAX_HASH_LEVEL + 1).skip(1) {
            let power = 1u64 << (61 - level);
            assert!(
                (power..2 * power).contains(&largest),
                "level {level}: {largest}"
            );
        }
        assert_eq!(t[MAX_HASH_LEVEL + 1], 0);
    }

    /// The table's level equals the f64 formula's, capped at every level
    /// count up to the decoder's limit.
    fn assert_level_matches_f64(h: u64) {
        let f = f64_level(h);
        for num_levels in 0..=MAX_BUNDLE_LEVELS as usize {
            assert_eq!(
                level_of_hash(h, num_levels),
                f.min(num_levels),
                "hash {h} levels {num_levels}"
            );
        }
    }

    #[test]
    fn levels_match_f64_formula_around_every_threshold() {
        for &t in level_thresholds() {
            let lo = t.saturating_sub(1 << 16);
            let hi = (t + (1 << 16)).min(MERSENNE_P - 1);
            (lo..=hi).for_each(assert_level_matches_f64);
        }
    }

    #[test]
    fn levels_match_f64_formula_at_random_hashes() {
        let mut rng = Rng::new(64);
        for _ in 0..1_000_000 {
            assert_level_matches_f64(rng.next_u64() % MERSENNE_P);
        }
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
        assert_eq!(body.len() as u64, 8 * Wire::words(&b));
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

    #[test]
    fn wire_decode_rejects_zero_dims_and_bad_thresholds() {
        use dlra_comm::wire::{decode_value, encode_value, WireError};
        let b = SketchBundle::new(&small_params(), 3, 64);
        let (desc, body) = encode_value(&b);
        // Descriptor: seed (8 bytes), then levels, reps and groups (4 each),
        // hh depth at byte 20, hh width at 24, the threshold at 28..36.
        for at in [20, 24] {
            let mut bad = desc.clone();
            bad[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
            assert!(
                decode_value::<SketchBundle>(&bad, &body).is_err(),
                "byte {at}"
            );
        }
        for threshold in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad = desc.clone();
            bad[28..36].copy_from_slice(&threshold.to_le_bytes());
            let want = WireError::BadTag {
                what: "bundle threshold",
                value: threshold.to_bits(),
            };
            assert_eq!(decode_value::<SketchBundle>(&bad, &body).unwrap_err(), want);
        }
    }

    /// The recovery scan probing every row of each group sketch, then
    /// comparing its median estimate with the threshold. Levels come from
    /// the f64 formula and group buckets from `%`, one coordinate at a
    /// time, independent of the threshold table, the bucket modulus and
    /// the batched light test.
    fn full_probe_recover(b: &SketchBundle, dim: u64) -> Vec<Vec<u64>> {
        let mut scored: Vec<Vec<(f64, u64)>> = vec![Vec::new(); b.num_levels + 1];
        for j in 0..dim {
            let deepest = f64_level(b.sub_hash.hash(j)).min(b.num_levels);
            for (reps, found) in b.levels.iter().zip(&mut scored).take(deepest + 1) {
                let mut best = 0.0f64;
                let mut hit = false;
                for rep in reps {
                    let g = rep.group_hash.hash(j) % rep.groups.len() as u64;
                    let cs = &rep.groups[g as usize];
                    let t = 0.5 * cs.f2_estimate() / b.b_threshold;
                    let est = cs.estimate(j);
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

    /// Every counter of every level, repetition and group, as bits.
    fn table_bits(b: &SketchBundle) -> Vec<u64> {
        b.levels
            .iter()
            .flatten()
            .flat_map(|r| &r.groups)
            .flat_map(|cs| cs.table())
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn absorb_builds_the_per_coordinate_tables() {
        let p = ZSamplerParams {
            hh_width: 37,
            groups: 3,
            ..small_params()
        };
        // Two full chunks and a ragged one; zeros of both signs in the
        // base vector and in the injected tail.
        let base = 2 * CHUNK as u64 + 700;
        let mut rng = Rng::new(19);
        let mut draw = |_| match rng.index(10) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gaussian() * 25.0,
            _ => rng.gaussian(),
        };
        let mut v = DenseServerVec::new((0..base).map(&mut draw).collect());
        let tail: Vec<f64> = (0..333).map(&mut draw).collect();
        v.append_injected(&tail, true);
        let mut nonzeros = 0;
        v.for_each_nonzero(&mut |_, _| nonzeros += 1);
        assert_ne!(nonzeros % CHUNK, 0);
        let mut batched = SketchBundle::new(&p, 23, v.dim());
        batched.absorb(&v);
        let mut single = SketchBundle::new(&p, 23, v.dim());
        for j in 0..v.dim() {
            single.update(j, v.value(j));
        }
        assert_eq!(table_bits(&batched), table_bits(&single));
        assert!(table_bits(&single).iter().any(|&x| x != 0));
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
        assert_eq!(Wire::words(&b), expect);
    }

    /// FNV-1a over the little-endian bytes of 64-bit words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
        })
    }

    /// Three servers' bundles, merged: a digest of every merged table bit
    /// and of every recovered list, as the f64-level, `%`-bucket code
    /// computed them. Widths and group counts that are not powers of two,
    /// fifteen levels and a binding candidate cap exercise bucketing,
    /// levels, signs, the heavy test and the cap.
    #[test]
    fn merged_tables_and_recovery_match_golden_digest() {
        let dim = 1u64 << 14;
        let p = ZSamplerParams {
            hh_depth: 5,
            hh_width: 37,
            groups: 3,
            reps: 2,
            b_threshold: 8.0,
            max_levels: 0,
            max_candidates_per_level: 24,
            ..ZSamplerParams::default()
        };
        let mut rng = Rng::new(20_161_017);
        let mut merged = SketchBundle::new(&p, 0xD1A5_7E57, dim);
        for _ in 0..3 {
            let v: Vec<f64> = (0..dim)
                .map(|_| match rng.index(64) {
                    0 => rng.gaussian() * 30.0,
                    1..=20 => rng.gaussian(),
                    _ => 0.0,
                })
                .collect();
            let mut b = SketchBundle::new(&p, 0xD1A5_7E57, dim);
            b.absorb(&DenseServerVec::new(v));
            merged.merge(&b);
        }
        let recovered = merged.recover(dim);
        assert_eq!(recovered.len(), 16);
        assert!(recovered.iter().filter(|l| !l.is_empty()).count() > 8);
        assert!(recovered
            .iter()
            .any(|l| l.len() == p.max_candidates_per_level));
        let tables = merged
            .levels
            .iter()
            .flatten()
            .flat_map(|r| &r.groups)
            .flat_map(|cs| cs.table())
            .map(|x| x.to_bits());
        let lists = recovered
            .iter()
            .flat_map(|l| std::iter::once(l.len() as u64).chain(l.iter().copied()));
        let digest = (fnv1a(tables), fnv1a(lists));
        assert_eq!(digest, (0x5f6c_da41_ee4b_ccbf, 0xd301_a166_bdec_8120));
    }
}
