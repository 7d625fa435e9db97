//! `HeavyHitters(v, B, δ)` — recover every coordinate with `v_j² ≥ ‖v‖²₂/B`.
//!
//! This is the protocol the paper calls `HeavyHitters` in §V-B: a CountSketch
//! of `v` (linear, hence distributable by summing per-server sketches built
//! from a broadcast seed), from which the coordinator recovers all
//! sufficiently heavy coordinates by point-querying candidates and comparing
//! against the sketch's own `F₂` estimate. Setting the width to `Θ(B)` and
//! depth to `Θ(log(1/δ))` yields the guarantee of \[21\]: with probability
//! `1 − δ` every `1/B`-heavy coordinate is reported.

use crate::countsketch::CountSketch;

/// A recovered heavy coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// Coordinate index.
    pub index: u64,
    /// CountSketch point estimate of its value.
    pub estimate: f64,
}

/// A seeded heavy-hitters sketch with recovery threshold `B`.
#[derive(Debug, Clone)]
pub struct HeavyHittersSketch {
    cs: CountSketch,
    /// Heaviness threshold: report j when `v̂_j² ≥ F̂₂ / B`.
    b: f64,
}

impl HeavyHittersSketch {
    /// Creates a sketch for threshold `B` and failure probability `δ`.
    ///
    /// Width is `8·⌈B⌉` buckets (so a heavy coordinate's bucket noise is at
    /// most a small fraction of its value in expectation) and depth
    /// `O(log(1/δ))` rows for the median.
    pub fn new(b: f64, delta: f64, seed: u64) -> Self {
        assert!(b >= 1.0, "threshold B must be >= 1");
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
        let width = (8.0 * b).ceil() as usize;
        let depth = (4.0 * (1.0 / delta).ln()).ceil().max(3.0) as usize;
        HeavyHittersSketch {
            cs: CountSketch::new(depth, width.max(8), seed),
            b,
        }
    }

    /// Creates a sketch with explicit CountSketch dimensions (used when the
    /// caller manages its own communication budget).
    pub fn with_dims(b: f64, depth: usize, width: usize, seed: u64) -> Self {
        HeavyHittersSketch {
            cs: CountSketch::new(depth, width, seed),
            b,
        }
    }

    /// The threshold `B`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The underlying CountSketch (read access for wire encoding).
    pub fn countsketch(&self) -> &CountSketch {
        &self.cs
    }

    /// Reassembles a sketch from its threshold and decoded CountSketch
    /// (the wire-decode path; `b` must already be validated `>= 1`).
    pub fn from_parts(b: f64, cs: CountSketch) -> Self {
        HeavyHittersSketch { cs, b }
    }

    /// Replaces the underlying counter table from decoded wire words.
    /// Returns `false` (leaving the sketch untouched) on length mismatch.
    pub fn load_countsketch_table(&mut self, table: &[f64]) -> bool {
        self.cs.load_table(table)
    }

    /// Sketch size in words (the per-server upstream cost).
    pub fn size_words(&self) -> u64 {
        self.cs.size_words()
    }

    /// Adds `delta` at coordinate `j`.
    #[inline]
    pub fn update(&mut self, j: u64, delta: f64) {
        self.cs.update(j, delta);
    }

    /// Adds `deltas[i]` at coordinate `js[i]` for every `i`
    /// (see [`CountSketch::update_many`]).
    pub fn update_many(&mut self, js: &[u64], deltas: &[f64]) {
        self.cs.update_many(js, deltas);
    }

    /// Sketches a dense vector.
    pub fn update_dense(&mut self, v: &[f64]) {
        self.cs.update_dense(v);
    }

    /// Merges a compatible sketch (per-server aggregation).
    pub fn merge(&mut self, other: &HeavyHittersSketch) {
        assert!(
            (self.b - other.b).abs() < 1e-12,
            "cannot merge heavy-hitter sketches with different thresholds"
        );
        self.cs.merge(&other.cs);
    }

    /// Point estimate of coordinate `j`.
    pub fn estimate(&self, j: u64) -> f64 {
        self.cs.estimate(j)
    }

    /// `Some(est)` when the point estimate of `j` clears `est² ≥ t`
    /// (see [`CountSketch::estimate_if_heavy`]).
    #[inline]
    pub fn estimate_if_heavy(&self, j: u64, t: f64) -> Option<f64> {
        self.cs.estimate_if_heavy(j, t)
    }

    /// The sketch's own `F₂` estimate.
    pub fn f2_estimate(&self) -> f64 {
        self.cs.f2_estimate()
    }

    /// Recovers all candidates whose estimated squared value clears the
    /// `F̂₂/B` threshold (with a 1/2 slack factor so borderline-heavy
    /// coordinates whose estimate is slightly deflated still report —
    /// false positives are filtered later by exact lookups in Algorithm 3
    /// line 6/11, so slack only costs a little communication).
    pub fn recover(&self, candidates: impl IntoIterator<Item = u64>) -> Vec<HeavyHitter> {
        let f2 = self.f2_estimate();
        if f2 <= 0.0 {
            return Vec::new();
        }
        let threshold = 0.5 * f2 / self.b;
        let mut out = Vec::new();
        for j in candidates {
            if let Some(estimate) = self.cs.estimate_if_heavy(j, threshold) {
                out.push(HeavyHitter { index: j, estimate });
            }
        }
        out
    }

    /// Recovers over the dense candidate range `[0, l)`.
    pub fn recover_range(&self, l: u64) -> Vec<HeavyHitter> {
        self.recover(0..l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_util::Rng;

    #[test]
    fn recovers_planted_heavy_coordinates() {
        let mut rng = Rng::new(1);
        let l = 2000u64;
        let b = 20.0;
        let mut sk = HeavyHittersSketch::new(b, 0.01, 77);
        let mut v = vec![0.0f64; l as usize];
        for x in v.iter_mut() {
            *x = rng.gaussian() * 0.1;
        }
        // Plant three heavy coordinates.
        v[100] = 10.0;
        v[700] = -12.0;
        v[1500] = 9.0;
        sk.update_dense(&v);
        let hh = sk.recover_range(l);
        let idx: Vec<u64> = hh.iter().map(|h| h.index).collect();
        for want in [100u64, 700, 1500] {
            assert!(idx.contains(&want), "missing heavy coordinate {want}");
        }
        // Estimates close to the planted values.
        for h in &hh {
            if h.index == 700 {
                assert!((h.estimate + 12.0).abs() < 1.0);
            }
        }
    }

    #[test]
    fn no_false_floods_on_uniform_vector() {
        // Uniform small values: nothing is 1/B-heavy for small B, so the
        // report should be (nearly) empty.
        let l = 4096u64;
        let mut sk = HeavyHittersSketch::new(10.0, 0.01, 5);
        for j in 0..l {
            sk.update(j, 1.0);
        }
        let hh = sk.recover_range(l);
        // Threshold is F2/(2B) = 4096/20 ≈ 205 >> 1.
        assert!(hh.len() < 10, "reported {} coordinates", hh.len());
    }

    #[test]
    fn distributed_merge_matches_central() {
        let mut rng = Rng::new(3);
        let l = 500usize;
        let mk = || HeavyHittersSketch::new(16.0, 0.01, 123);
        let mut parts: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..l).map(|_| rng.gaussian() * 0.1).collect())
            .collect();
        // The heavy entry is split across servers (only the SUM is heavy).
        for p in parts.iter_mut() {
            p[250] += 5.0;
        }
        let mut merged = mk();
        for p in &parts {
            let mut s = mk();
            s.update_dense(p);
            merged.merge(&s);
        }
        let hh = merged.recover_range(l as u64);
        assert!(
            hh.iter().any(|h| h.index == 250),
            "sum-heavy coordinate missed"
        );
        let est = merged.estimate(250);
        assert!((est - 20.0).abs() < 2.0, "estimate {est}");
    }

    #[test]
    fn empty_sketch_reports_nothing() {
        let sk = HeavyHittersSketch::new(8.0, 0.1, 0);
        assert!(sk.recover_range(100).is_empty());
    }

    #[test]
    #[should_panic(expected = "different thresholds")]
    fn merge_rejects_mismatched_threshold() {
        let mut a = HeavyHittersSketch::new(8.0, 0.1, 0);
        let b = HeavyHittersSketch::new(9.0, 0.1, 0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "threshold B")]
    fn rejects_tiny_b() {
        HeavyHittersSketch::new(0.5, 0.1, 0);
    }

    #[test]
    fn with_dims_controls_size() {
        let sk = HeavyHittersSketch::with_dims(8.0, 3, 64, 1);
        assert_eq!(sk.size_words(), 192);
    }
}
