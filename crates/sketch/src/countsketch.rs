//! CountSketch (Charikar–Chen–Farach-Colton \[21\]) with median point queries.
//!
//! A CountSketch is a `depth × width` table; coordinate `j` of the input
//! vector is added into bucket `hᵣ(j)` of each row `r` with sign `σᵣ(j)`.
//! The sketch is linear, so summing the tables of per-server sketches built
//! from the same seed yields the sketch of the summed vector — the basis of
//! the distributed `HeavyHitters` protocol.

use crate::hashing::{sign_of_hash, KWiseHash, Modulus};

/// Rows a point query keeps on the stack; deeper sketches use a heap
/// buffer.
const STACK_ROWS: usize = 8;

/// Coordinates a batch call hashes per row at a time, in buffers on its
/// stack.
const BATCH: usize = 256;

/// A seeded CountSketch over `u64`-indexed coordinates.
///
/// ```
/// use dlra_sketch::CountSketch;
/// // Two servers sketch local vectors with the same seed and merge.
/// let mut a = CountSketch::new(5, 64, 42);
/// let mut b = CountSketch::new(5, 64, 42);
/// a.update(7, 2.0);
/// b.update(7, 3.0);
/// a.merge(&b);
/// assert!((a.estimate(7) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CountSketch {
    depth: usize,
    width: Modulus,
    seed: u64,
    /// Row-major `depth × width` table.
    table: Vec<f64>,
    bucket_hash: Vec<KWiseHash>,
    sign_hash: Vec<KWiseHash>,
}

impl CountSketch {
    /// Creates an empty sketch. All parties constructing with the same
    /// `(depth, width, seed)` share hash functions and can merge.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(
            depth > 0 && width > 0,
            "CountSketch dimensions must be positive"
        );
        let bucket_hash = (0..depth)
            .map(|r| KWiseHash::from_seed(2, seed ^ (0x9E37_79B9 + r as u64)))
            .collect();
        let sign_hash = (0..depth)
            .map(|r| KWiseHash::from_seed(4, seed ^ (0xC2B2_AE35 + r as u64).rotate_left(17)))
            .collect();
        CountSketch {
            depth,
            width: Modulus::new(width),
            seed,
            table: vec![0.0; depth * width],
            bucket_hash,
            sign_hash,
        }
    }

    /// Number of rows (independent repetitions).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Buckets per row.
    pub fn width(&self) -> usize {
        self.width.get()
    }

    /// Size of the sketch in 8-byte words (what a server ships upstream).
    pub fn size_words(&self) -> u64 {
        self.table.len() as u64
    }

    /// Adds `delta` at coordinate `j`.
    #[inline]
    pub fn update(&mut self, j: u64, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let width = self.width.get();
        for r in 0..self.depth {
            let b = self.bucket_hash[r].bucket(j, &self.width);
            let s = self.sign_hash[r].sign(j);
            self.table[r * width + b] += s * delta;
        }
    }

    /// Adds `deltas[i]` at coordinate `js[i]` for every `i`: the table that
    /// calling [`update`](Self::update) on each pair in order builds, bit
    /// for bit. The batch is hashed row by row, many coordinates at a time,
    /// and each row's counters take their additions in input order, which
    /// is the order the per-pair calls add them in. Panics if the lengths
    /// differ.
    pub fn update_many(&mut self, js: &[u64], deltas: &[f64]) {
        assert_eq!(js.len(), deltas.len(), "update_many lengths");
        let width = self.width.get();
        let mut buckets = [0u64; BATCH];
        let mut signs = [0u64; BATCH];
        for (js, deltas) in js.chunks(BATCH).zip(deltas.chunks(BATCH)) {
            let (buckets, signs) = (&mut buckets[..js.len()], &mut signs[..js.len()]);
            for (r, row) in self.table.chunks_exact_mut(width).enumerate() {
                self.bucket_hash[r].bucket_many(js, &self.width, buckets);
                self.sign_hash[r].hash_many(js, signs);
                for ((&b, &s), &delta) in buckets.iter().zip(&*signs).zip(deltas) {
                    if delta != 0.0 {
                        row[b as usize] += sign_of_hash(s) * delta;
                    }
                }
            }
        }
    }

    /// Sketches a whole dense vector (coordinate i gets value `v[i]`).
    pub fn update_dense(&mut self, v: &[f64]) {
        for (j, &x) in v.iter().enumerate() {
            self.update(j as u64, x);
        }
    }

    /// Row `r`'s counter for coordinate `j`, unsigned: `table[r][hᵣ(j)]`.
    #[inline]
    fn row_counter(&self, r: usize, j: u64) -> f64 {
        self.table[r * self.width.get() + self.bucket_hash[r].bucket(j, &self.width)]
    }

    /// Row `r`'s signed counter for coordinate `j`: `σᵣ(j) · table[r][hᵣ(j)]`.
    #[inline]
    fn row_value(&self, r: usize, j: u64) -> f64 {
        self.sign_hash[r].sign(j) * self.row_counter(r, j)
    }

    /// Runs `f` on a `depth`-long scratch slice, kept on the stack for
    /// sketches up to [`STACK_ROWS`] deep so a point query allocates
    /// nothing.
    #[inline]
    fn with_rows<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let mut stack = [0.0; STACK_ROWS];
        let mut heap = Vec::new();
        let rows = if self.depth <= STACK_ROWS {
            &mut stack[..self.depth]
        } else {
            heap.resize(self.depth, 0.0);
            &mut heap[..]
        };
        f(rows)
    }

    /// Point query: median over rows of `σᵣ(j) · table[r][hᵣ(j)]`.
    pub fn estimate(&self, j: u64) -> f64 {
        self.with_rows(|vals| {
            for (r, v) in vals.iter_mut().enumerate() {
                *v = self.row_value(r, j);
            }
            median_in_place(vals)
        })
    }

    /// The heavy test of heavy-hitter recovery: `Some(est)` when the point
    /// estimate `est = estimate(j)` satisfies `est * est >= t`, `None`
    /// otherwise — the same answer, bit for bit, as calling
    /// [`estimate`](Self::estimate) and comparing.
    ///
    /// Every row's counter is read unsigned first: a row value is `±` its
    /// counter `x`, and `(±x)² = x²` bit for bit, so the signs cannot
    /// change which rows have `v * v < t`. When more than half of the rows
    /// do, the median is one such row, or the mean of two (rounding is
    /// monotone, so that mean is no larger in magnitude than the larger of
    /// the two), so `est * est < t` as well and the answer is `None`. Only a
    /// coordinate that survives — a small fraction of a recovery scan —
    /// pays for [`estimate`](Self::estimate), signs included. Counting the
    /// light rows without branching on each lets the rows' bucket hashes
    /// overlap.
    #[inline]
    pub fn estimate_if_heavy(&self, j: u64, t: f64) -> Option<f64> {
        let light: u32 = (0..self.depth)
            .map(|r| {
                let x = self.row_counter(r, j);
                u32::from(x * x < t)
            })
            .sum();
        if !self.may_be_heavy(light) {
            return None;
        }
        let est = self.estimate(j);
        (est * est >= t).then_some(est)
    }

    /// The light-row counts [`estimate_if_heavy`](Self::estimate_if_heavy)
    /// starts from, many coordinates at a time: `light[i]` is the number of
    /// rows whose counter `x` for `js[i]` has `x * x < t`. Panics if the
    /// lengths differ.
    pub fn light_rows_many(&self, js: &[u64], t: f64, light: &mut [u32]) {
        assert_eq!(js.len(), light.len(), "light_rows_many lengths");
        light.fill(0);
        let mut buckets = [0u64; BATCH];
        for (js, light) in js.chunks(BATCH).zip(light.chunks_mut(BATCH)) {
            let buckets = &mut buckets[..js.len()];
            for (r, row) in self.table.chunks_exact(self.width.get()).enumerate() {
                self.bucket_hash[r].bucket_many(js, &self.width, buckets);
                for (&b, l) in buckets.iter().zip(light.iter_mut()) {
                    let x = row[b as usize];
                    *l += u32::from(x * x < t);
                }
            }
        }
    }

    /// Whether a coordinate with `light` light rows can pass the heavy
    /// test: when more than half of the rows are light,
    /// [`estimate_if_heavy`](Self::estimate_if_heavy) returns `None`.
    #[inline]
    pub fn may_be_heavy(&self, light: u32) -> bool {
        2 * light as usize <= self.depth
    }

    /// AMS-style second-moment estimate: median over rows of the row's
    /// squared bucket sums. Each row is an unbiased `F₂` estimator.
    pub fn f2_estimate(&self) -> f64 {
        let mut vals: Vec<f64> = self
            .table
            .chunks(self.width.get())
            .map(|row| row.iter().map(|x| x * x).sum())
            .collect();
        median_in_place(&mut vals)
    }

    /// Merges another sketch built with identical parameters into this one
    /// (sketch linearity). Panics if parameters differ.
    pub fn merge(&mut self, other: &CountSketch) {
        assert_eq!(
            (self.depth, self.width, self.seed),
            (other.depth, other.width, other.seed),
            "cannot merge CountSketches with different parameters"
        );
        for (a, b) in self.table.iter_mut().zip(&other.table) {
            *a += b;
        }
    }

    /// Resets all counters to zero (hash functions retained).
    pub fn clear(&mut self) {
        self.table.iter_mut().for_each(|x| *x = 0.0);
    }

    /// The row-major `depth × width` counter table — the words a server
    /// ships when the sketch crosses a wire.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// Replaces the counter table from decoded wire words. Returns `false`
    /// (leaving the sketch untouched) if the length does not match.
    pub fn load_table(&mut self, table: &[f64]) -> bool {
        if table.len() != self.table.len() {
            return false;
        }
        self.table.copy_from_slice(table);
        true
    }
}

/// Median of a scratch vector (averaging the middle pair for even length).
/// NaN sorts after every number; numbers keep their usual order, equal
/// ones (`-0.0` and `0.0`) in input order.
pub(crate) fn median_in_place(vals: &mut [f64]) -> f64 {
    assert!(!vals.is_empty());
    vals.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
    });
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        0.5 * (vals[n / 2 - 1] + vals[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_util::Rng;

    #[test]
    fn exact_for_single_coordinate() {
        let mut cs = CountSketch::new(5, 32, 1);
        cs.update(7, 3.5);
        assert!((cs.estimate(7) - 3.5).abs() < 1e-12);
        // Other coordinates either 0 or a collision value; with one item the
        // estimate of an untouched coordinate in the same bucket is ±3.5 per
        // row, but the median over 5 rows of mostly-zero entries is 0 with
        // high probability. Just check coordinate 7 here.
    }

    #[test]
    fn linearity_updates_cancel() {
        let mut cs = CountSketch::new(5, 64, 2);
        cs.update(3, 10.0);
        cs.update(3, -10.0);
        assert_eq!(cs.estimate(3), 0.0);
        assert_eq!(cs.f2_estimate(), 0.0);
    }

    #[test]
    fn merge_equals_joint_sketch() {
        let mut rng = Rng::new(3);
        let v1: Vec<f64> = (0..200).map(|_| rng.gaussian()).collect();
        let v2: Vec<f64> = (0..200).map(|_| rng.gaussian()).collect();
        let mut s1 = CountSketch::new(5, 32, 7);
        let mut s2 = CountSketch::new(5, 32, 7);
        let mut joint = CountSketch::new(5, 32, 7);
        s1.update_dense(&v1);
        s2.update_dense(&v2);
        for j in 0..200 {
            joint.update(j as u64, v1[j] + v2[j]);
        }
        s1.merge(&s2);
        for j in 0..200u64 {
            assert!(
                (s1.estimate(j) - joint.estimate(j)).abs() < 1e-9,
                "coordinate {j}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different parameters")]
    fn merge_rejects_mismatched_seed() {
        let mut a = CountSketch::new(3, 8, 1);
        let b = CountSketch::new(3, 8, 2);
        a.merge(&b);
    }

    #[test]
    fn heavy_coordinate_estimated_well() {
        // One big coordinate among small noise: estimate within noise bound.
        let mut rng = Rng::new(4);
        let mut cs = CountSketch::new(7, 256, 9);
        let n = 1000u64;
        let mut f2 = 0.0;
        for j in 0..n {
            let x = if j == 500 { 50.0 } else { rng.gaussian() * 0.5 };
            f2 += x * x;
            cs.update(j, x);
        }
        let est = cs.estimate(500);
        // CountSketch error ~ sqrt(F2/width) per row; median tightens it.
        let bound = 3.0 * (f2 / 256.0).sqrt();
        assert!((est - 50.0).abs() < bound, "est {est} bound {bound}");
    }

    #[test]
    fn f2_estimate_accuracy() {
        let mut rng = Rng::new(5);
        let v: Vec<f64> = (0..2000).map(|_| rng.gaussian()).collect();
        let truth: f64 = v.iter().map(|x| x * x).sum();
        let mut cs = CountSketch::new(9, 512, 11);
        cs.update_dense(&v);
        let est = cs.f2_estimate();
        assert!((est - truth).abs() < 0.3 * truth, "est {est} truth {truth}");
    }

    #[test]
    fn f2_estimates_random_vector() {
        // A narrow table still tracks F₂: each row's estimate has standard
        // deviation at most √(2/width)·F₂, and the median over rows tightens it.
        let mut rng = Rng::new(2);
        let v: Vec<f64> = (0..1000).map(|_| rng.gaussian()).collect();
        let truth: f64 = v.iter().map(|x| x * x).sum();
        let mut cs = CountSketch::new(9, 64, 3);
        cs.update_dense(&v);
        let est = cs.f2_estimate();
        assert!(
            (est - truth).abs() < 0.35 * truth,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn f2_merge_equals_joint() {
        let mut rng = Rng::new(4);
        let v1: Vec<f64> = (0..100).map(|_| rng.gaussian()).collect();
        let v2: Vec<f64> = (0..100).map(|_| rng.gaussian()).collect();
        let mut a = CountSketch::new(4, 16, 5);
        let mut b = CountSketch::new(4, 16, 5);
        let mut joint = CountSketch::new(4, 16, 5);
        a.update_dense(&v1);
        b.update_dense(&v2);
        for j in 0..100 {
            joint.update(j as u64, v1[j] + v2[j]);
        }
        a.merge(&b);
        assert!((a.f2_estimate() - joint.f2_estimate()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different parameters")]
    fn merge_rejects_mismatched_width() {
        let mut a = CountSketch::new(2, 4, 1);
        a.merge(&CountSketch::new(2, 8, 1));
    }

    #[test]
    fn zero_updates_are_skipped() {
        let mut cs = CountSketch::new(3, 8, 6);
        cs.update(5, 0.0);
        assert!(cs.table.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn clear_resets() {
        let mut cs = CountSketch::new(3, 8, 6);
        cs.update(5, 2.0);
        cs.clear();
        assert_eq!(cs.estimate(5), 0.0);
    }

    #[test]
    fn size_words_counts_table() {
        let cs = CountSketch::new(4, 100, 0);
        assert_eq!(cs.size_words(), 400);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_in_place(&mut [5.0]), 5.0);
    }

    #[test]
    fn median_sorts_nan_last_and_keeps_zero_ties_stable() {
        assert_eq!(median_in_place(&mut [f64::NAN, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [3.0, f64::NAN, -1.0]), 3.0);
        assert!(median_in_place(&mut [f64::NAN, f64::NAN, 1.0]).is_nan());
        // Equal values keep input order, so the median here is the second
        // zero of the input, sign included.
        let neg = median_in_place(&mut [0.0, -0.0, 1.0]);
        let pos = median_in_place(&mut [-0.0, 0.0, 1.0]);
        assert!(neg.is_sign_negative() && pos.is_sign_positive());
    }

    #[test]
    fn nan_table_queries_without_panicking() {
        let mut cs = CountSketch::new(5, 16, 3);
        cs.update(4, 2.0);
        let mut table = cs.table().to_vec();
        table[0] = f64::NAN;
        table[16 + 3] = f64::NAN;
        assert!(cs.load_table(&table));
        for j in 0..64 {
            let est = cs.estimate(j);
            let heavy = cs.estimate_if_heavy(j, 1.0);
            assert_eq!(
                heavy.map(f64::to_bits),
                (est * est >= 1.0).then_some(est.to_bits())
            );
        }
        // Two NaN rows of five: the median row sum is a finite one.
        assert!(cs.f2_estimate().is_finite());
    }

    /// Sparse values with exact ties, zeros of both signs and a NaN, at
    /// coordinates that repeat.
    fn batch_inputs(rng: &mut Rng, len: usize) -> (Vec<u64>, Vec<f64>) {
        let js = (0..len).map(|_| rng.index(700) as u64).collect();
        let xs = (0..len)
            .map(|i| match rng.index(8) {
                0 => 0.0,
                1 => -0.0,
                2 if i == len / 2 => f64::NAN,
                _ => (rng.index(9) as f64 - 4.0) * 0.5 + rng.gaussian() * 1e-3,
            })
            .collect();
        (js, xs)
    }

    #[test]
    fn update_many_builds_the_per_pair_table() {
        let mut rng = Rng::new(12);
        for (depth, width) in [(1, 1), (3, 33), (5, 64)] {
            // Lengths below, at and past a batch.
            for len in [0, 1, BATCH - 1, BATCH, 3 * BATCH + 7] {
                let (js, xs) = batch_inputs(&mut rng, len);
                let mut one = CountSketch::new(depth, width, 8);
                // Counters of −0.0: a zero delta that was not skipped
                // would turn one into +0.0.
                one.table.fill(-0.0);
                let mut many = one.clone();
                for (&j, &x) in js.iter().zip(&xs) {
                    one.update(j, x);
                }
                many.update_many(&js, &xs);
                let bits =
                    |cs: &CountSketch| cs.table.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&many),
                    bits(&one),
                    "depth {depth} width {width} len {len}"
                );
            }
        }
    }

    #[test]
    fn light_rows_many_counts_what_the_heavy_test_counts() {
        let mut rng = Rng::new(13);
        let (js, xs) = batch_inputs(&mut rng, 900);
        for depth in 1..=6 {
            let mut cs = CountSketch::new(depth, 17, 5 + depth as u64);
            cs.update_many(&js, &xs);
            let probes: Vec<u64> = (0..2 * BATCH as u64 + 3).collect();
            for t in [0.0, 0.3, 1.0, 4.0, f64::NAN] {
                let mut light = vec![u32::MAX; probes.len()];
                cs.light_rows_many(&probes, t, &mut light);
                for (&j, &l) in probes.iter().zip(&light) {
                    let want = (0..depth)
                        .filter(|&r| {
                            let x = cs.row_counter(r, j);
                            x * x < t
                        })
                        .count();
                    assert_eq!(l as usize, want, "depth {depth} j {j} t {t}");
                    if !cs.may_be_heavy(l) {
                        assert_eq!(
                            cs.estimate_if_heavy(j, t),
                            None,
                            "depth {depth} j {j} t {t}"
                        );
                    }
                }
            }
        }
    }

    /// `estimate_if_heavy` is `estimate` plus `est * est >= t`, bit for bit.
    fn assert_heavy_test_exact(cs: &CountSketch, j: u64, t: f64) {
        let est = cs.estimate(j);
        let want = (est * est >= t).then_some(est.to_bits());
        let got = cs.estimate_if_heavy(j, t).map(f64::to_bits);
        assert_eq!(got, want, "depth {} j {j} t {t}", cs.depth());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Depths 1–9 cover odd and even medians and sketches deeper than
        /// the stack buffer; thresholds cover negative, zero, an exact tie
        /// with a row's and the median's square, and random values.
        #[test]
        fn estimate_if_heavy_matches_estimate(seed in 0u64..u64::MAX, width in 1usize..24, t in 0.0f64..40.0) {
            let mut rng = Rng::new(seed);
            for depth in 1..=9 {
                let mut cs = CountSketch::new(depth, width, seed ^ depth as u64);
                for j in 0..64u64 {
                    // Sparse integer values keep exact ties (and zeros) common.
                    if rng.bernoulli(0.4) {
                        cs.update(j, (rng.index(9) as f64 - 4.0) * 0.5);
                    }
                }
                for j in 0..96u64 {
                    let est = cs.estimate(j);
                    let row0 = cs.row_value(0, j);
                    for thr in [-1.0, 0.0, est * est, row0 * row0, t, f64::NAN] {
                        assert_heavy_test_exact(&cs, j, thr);
                    }
                }
            }
        }
    }
}
