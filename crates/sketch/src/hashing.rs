//! k-wise independent hashing by polynomial evaluation over GF(p),
//! p = 2⁶¹ − 1 (a Mersenne prime, so reduction is an add, a mask and a
//! shift: `2⁶¹ ≡ 1`).
//!
//! The paper's algorithms need pairwise-independent bucket hashes
//! (Algorithms 2 and 3) and an `O(C·log(ε⁻¹l))`-wise independent hash `g`
//! for the min-wise coordinate selection of Algorithm 4. A degree-(k−1)
//! polynomial with uniformly random coefficients evaluated over a prime
//! field is the textbook construction for exactly k-wise independence.
//!
//! # One reduction per Horner step, and why it is exact
//!
//! A hash value is the canonical residue of `poly(x)` in `[0, p)`, and every
//! sketch table, recovered candidate and wire word downstream depends on it
//! bit for bit. Any evaluation whose intermediates stay congruent mod p to
//! the textbook Horner (`x % p`, then `acc = (acc·x mod p + c) mod p` from
//! `acc = 0`) and that ends with a canonical reduction returns the same
//! value, since the canonical residue is unique. [`KWiseHash::hash`]
//! evaluates that way with one cheap fold per step:
//!
//! * the input is folded to its canonical residue by `reduce128` (the
//!   same value as `x % p`, without a multiply-by-reciprocal);
//! * the accumulator starts at the leading coefficient, which is what the
//!   textbook's first step `0·x + c` reduces to;
//! * each step keeps `acc ≤ 2⁶¹ + 1`: with `x < p` and `c < p`, one
//!   64×64-bit multiply of `acc` by `8x < 2⁶⁴` yields `⌊acc·x / 2⁶¹⌋ ≤ 2⁶¹`
//!   as its high word and `8·(acc·x mod 2⁶¹)` as its low word, so
//!   `y = ⌊acc·x / 2⁶¹⌋ + (acc·x mod 2⁶¹) + c < 3·2⁶¹` fits a `u64` and is
//!   `≡ acc·x + c` (as `2⁶¹ ≡ 1`); folding `y` once more,
//!   `(y mod 2⁶¹) + ⌊y / 2⁶¹⌋ ≤ 2⁶¹ + 1`, restores the bound;
//! * a final conditional subtract maps `[0, 2⁶¹ + 1]` onto `[0, p)`.
//!
//! The textbook step reduces twice, each time fully (two folds and a
//! compare), on a serial chain whose latency bounds the sketch scans.
//!
//! # Many inputs per call
//!
//! [`KWiseHash::hash_many`] and [`KWiseHash::bucket_many`] hash a slice at
//! once through `dlra_linalg::mersenne::poly_eval`, which evaluates the
//! same polynomial with 32-bit limb products, vectorized across inputs at
//! the widest instruction set the host has. Its values are canonical
//! residues too, so they are [`KWiseHash::hash`]'s bit for bit.

use dlra_util::Rng;

/// The Mersenne prime 2⁶¹ − 1.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduces a 128-bit value modulo 2⁶¹ − 1 to its canonical residue in
/// `[0, 2⁶¹ − 1)`.
#[inline]
fn reduce128(x: u128) -> u64 {
    const P: u128 = MERSENNE_P as u128;
    // Fold high bits twice, then a final conditional subtract.
    let x = (x & P) + (x >> 61);
    let x = (x & P) + (x >> 61);
    let mut r = x as u64;
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// A hash function drawn from a k-wise independent family, mapping
/// `u64 → [0, 2⁶¹ − 1)`.
///
/// Seeded construction is deterministic: two parties that construct a
/// `KWiseHash` from the same `(independence, seed)` obtain the same function,
/// which is how a broadcast seed (one word) stands in for shipping the
/// function itself.
#[derive(Debug, Clone)]
pub struct KWiseHash {
    /// Polynomial coefficients, constant term first; `coeffs.len()` = k.
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draws a function from the k-wise independent family using `rng`.
    pub fn new(independence: usize, rng: &mut Rng) -> Self {
        assert!(independence >= 1, "independence must be >= 1");
        let coeffs = (0..independence)
            .map(|i| {
                let mut c = rng.next_u64() % MERSENNE_P;
                // Leading coefficient nonzero keeps the polynomial degree exact;
                // not required for k-wise independence but avoids degeneracy.
                if i + 1 == independence && c == 0 {
                    c = 1;
                }
                c
            })
            .collect();
        KWiseHash { coeffs }
    }

    /// Deterministic construction from a broadcastable 64-bit seed.
    pub fn from_seed(independence: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        KWiseHash::new(independence, &mut rng)
    }

    /// The independence parameter k.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The polynomial's coefficients, constant term first, each below
    /// 2⁶¹ − 1.
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// Raw hash value in `[0, 2⁶¹ − 1)` (Horner evaluation with one fold
    /// per step; the module docs show why the value is the textbook one).
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x8 = u128::from(reduce128(u128::from(x)) << 3);
        let (&lead, rest) = self
            .coeffs
            .split_last()
            .expect("KWiseHash::new guarantees independence >= 1");
        let acc = rest.iter().rev().fold(lead, |acc, &c| {
            let v = u128::from(acc) * x8;
            let y = (v >> 64) as u64 + ((v as u64) >> 3) + c;
            (y & MERSENNE_P) + (y >> 61)
        });
        if acc >= MERSENNE_P {
            acc - MERSENNE_P
        } else {
            acc
        }
    }

    /// `out[i] = hash(xs[i])` for every `i`, evaluated many inputs at a
    /// time (module docs). Panics if the lengths differ.
    #[inline]
    pub fn hash_many(&self, xs: &[u64], out: &mut [u64]) {
        dlra_linalg::mersenne::poly_eval(&self.coeffs, xs, out);
    }

    /// Hash mapped to a bucket in `[0, m)`, for the bucket count `m` that
    /// `buckets` was built for.
    #[inline]
    pub fn bucket(&self, x: u64, buckets: &Modulus) -> usize {
        buckets.reduce(self.hash(x))
    }

    /// `out[i] = bucket(xs[i], buckets)` for every `i`. Panics if the
    /// lengths differ.
    #[inline]
    pub fn bucket_many(&self, xs: &[u64], buckets: &Modulus, out: &mut [u64]) {
        self.hash_many(xs, out);
        // Independent iterations, so their multiplies overlap.
        for h in out {
            *h = buckets.reduce(*h) as u64;
        }
    }

    /// Rademacher sign `±1` derived from the hash's low bit.
    #[inline]
    pub fn sign(&self, x: u64) -> f64 {
        sign_of_hash(self.hash(x))
    }
}

/// The Rademacher sign [`KWiseHash::sign`] derives from hash value `h`.
#[inline]
pub(crate) fn sign_of_hash(h: u64) -> f64 {
    // The low bit becomes the sign bit of 1.0: no branch to mispredict.
    f64::from_bits(1f64.to_bits() | (h & 1) << 63)
}

/// A bucket count `m` with its reciprocal precomputed, so that bucketing a
/// hash is a multiply-high and a shift rather than a 64-bit division
/// (Granlund & Montgomery, "Division by invariant integers using
/// multiplication", PLDI 1994).
///
/// With `l = ⌈log₂ m⌉` and `M = ⌈2^(61+l) / m⌉` (at most `2⁶²`, so it fits a
/// `u64`), `⌊h·M / 2^(61+l)⌋ = ⌊h / m⌋` for every `h < 2⁶¹`, which covers
/// every hash value. Write `M·m = 2^(61+l) + e` with `0 ≤ e < m` and
/// `h = q·m + r` with `r ≤ m − 1`; then
/// `h·M / 2^(61+l) = q + (r + h·e / 2^(61+l)) / m`, and
/// `h·e < 2⁶¹·m ≤ 2^(61+l)` keeps the bracket below `m`. The quotient is
/// taken as the high word of `(8h)·M` shifted right by `l` (`8h < 2⁶⁴`),
/// and the bucket is `h − q·m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modulus {
    m: u64,
    magic: u64,
    shift: u32,
}

impl Modulus {
    /// Precomputes the reciprocal of `m`, which must be in `1..=2⁶¹`.
    pub fn new(m: usize) -> Self {
        let m = m as u64;
        assert!(
            (1..=1 << 61).contains(&m),
            "bucket count must be in 1..=2^61"
        );
        let shift = 64 - (m - 1).leading_zeros();
        let magic = (1u128 << (61 + shift)).div_ceil(u128::from(m)) as u64;
        Modulus { m, magic, shift }
    }

    /// The bucket count `m`.
    #[inline]
    pub(crate) fn get(&self) -> usize {
        self.m as usize
    }

    /// `h mod m` for a hash value `h < 2⁶¹`.
    #[inline]
    pub(crate) fn reduce(&self, h: u64) -> usize {
        let q = ((u128::from(h << 3) * u128::from(self.magic)) >> 64) as u64 >> self.shift;
        (h - q * self.m) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(a * b) mod (2⁶¹ − 1)`.
    fn mulmod(a: u64, b: u64) -> u64 {
        reduce128(a as u128 * b as u128)
    }

    /// `(a + b) mod (2⁶¹ − 1)`.
    fn addmod(a: u64, b: u64) -> u64 {
        reduce128(a as u128 + b as u128)
    }

    /// The original evaluation: `x % p`, then Horner from a zero
    /// accumulator with a multiply-reduce and an add-reduce per step.
    fn reference_hash(h: &KWiseHash, x: u64) -> u64 {
        let x = x % MERSENNE_P;
        let mut acc = 0u64;
        for &c in h.coeffs.iter().rev() {
            acc = addmod(mulmod(acc, x), c);
        }
        acc
    }

    const EDGE_INPUTS: [u64; 6] = [
        0,
        MERSENNE_P - 1,
        MERSENNE_P,
        MERSENNE_P + 1,
        2 * MERSENNE_P,
        u64::MAX,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-fold Horner is the reference evaluation bit for bit, at
        /// the reduction edges and at random inputs, for every independence
        /// the sketches use.
        #[test]
        fn hash_matches_reference_horner(seed in 0u64..u64::MAX, x in 0u64..u64::MAX) {
            let mut rng = Rng::new(x);
            let random: Vec<u64> = (0..256).map(|_| rng.next_u64()).collect();
            for k in [1usize, 2, 4, 16] {
                let h = KWiseHash::from_seed(k, seed);
                for &input in EDGE_INPUTS.iter().chain(&[x, x >> 3]).chain(&random) {
                    prop_assert_eq!(h.hash(input), reference_hash(&h, input), "k {} x {}", k, input);
                }
            }
        }
    }

    #[test]
    fn hash_matches_reference_at_extreme_coefficients() {
        // Coefficients of p − 1 maximise acc·x + c, the sum the single fold
        // must not overflow.
        for k in [1usize, 2, 4, 16] {
            for c in [0, 1, MERSENNE_P - 1] {
                let h = KWiseHash { coeffs: vec![c; k] };
                for x in EDGE_INPUTS {
                    assert_eq!(h.hash(x), reference_hash(&h, x), "k {k} c {c} x {x}");
                }
            }
        }
    }

    #[test]
    fn mersenne_arithmetic() {
        assert_eq!(reduce128(MERSENNE_P as u128), 0);
        assert_eq!(reduce128((MERSENNE_P as u128) * 2 + 5), 5);
        assert_eq!(mulmod(MERSENNE_P - 1, MERSENNE_P - 1), 1);
        assert_eq!(addmod(MERSENNE_P - 1, 1), 0);
    }

    #[test]
    fn deterministic_from_seed() {
        let h1 = KWiseHash::from_seed(4, 99);
        let h2 = KWiseHash::from_seed(4, 99);
        let h3 = KWiseHash::from_seed(4, 100);
        for x in 0..100u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
        assert!((0..100u64).any(|x| h1.hash(x) != h3.hash(x)));
    }

    #[test]
    fn buckets_in_range_and_spread() {
        let h = KWiseHash::from_seed(2, 7);
        let m = Modulus::new(16);
        let mut counts = vec![0usize; m.get()];
        for x in 0..16_000u64 {
            let b = h.bucket(x, &m);
            assert!(b < m.get());
            counts[b] += 1;
        }
        // Each bucket should get roughly 1000 (±25%).
        for (b, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {b} has {c} of 16000");
        }
    }

    #[test]
    fn signs_are_balanced() {
        let h = KWiseHash::from_seed(2, 8);
        let n = 10_000;
        let plus = (0..n).filter(|&x| h.sign(x) > 0.0).count();
        let frac = plus as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "sign fraction {frac}");
    }

    #[test]
    fn pairwise_collision_probability() {
        // Over many independent draws, Pr[h(a) == h(b)] for fixed a != b
        // into m buckets should be ~1/m.
        let m = Modulus::new(8);
        let trials = 4000;
        let mut rng = Rng::new(17);
        let collisions = (0..trials)
            .filter(|_| {
                let h = KWiseHash::new(2, &mut rng);
                h.bucket(3, &m) == h.bucket(1234, &m)
            })
            .count();
        let rate = collisions as f64 / trials as f64;
        assert!((rate - 1.0 / 8.0).abs() < 0.03, "collision rate {rate}");
    }

    #[test]
    fn unit_values_are_uniformish() {
        // Hash values scaled to the unit interval average 1/2.
        let h = KWiseHash::from_seed(8, 9);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|x| h.hash(x) as f64 / MERSENNE_P as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..n).all(|x| h.hash(x) < MERSENNE_P));
    }

    /// Below, at and above each multiple of `m` at both ends of the hash
    /// range, then random hashes.
    fn modulus_inputs(m: u64, rng: &mut Rng) -> Vec<u64> {
        const TOP: u64 = 1 << 61;
        let last = (TOP - 1) / m * m;
        let mut inputs = vec![0, 1, TOP - 1, TOP - 2, MERSENNE_P - 1];
        for base in [m, 2 * m, last, last.saturating_sub(m)] {
            inputs.extend([base.saturating_sub(1), base, base + 1]);
        }
        inputs.extend((0..64).map(|_| rng.next_u64() >> 3));
        inputs.retain(|&n| n < TOP);
        inputs
    }

    #[test]
    fn modulus_matches_remainder_for_every_small_m() {
        let mut rng = Rng::new(61);
        for m in 1..=4096u64 {
            let modulus = Modulus::new(m as usize);
            assert_eq!(modulus.get(), m as usize);
            for n in modulus_inputs(m, &mut rng) {
                assert_eq!(modulus.reduce(n) as u64, n % m, "m {m} n {n}");
            }
        }
    }

    #[test]
    fn modulus_matches_remainder_for_large_m() {
        let mut rng = Rng::new(62);
        let mut moduli: Vec<u64> = (13..=61)
            .flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1])
            .collect();
        moduli.extend((0..256).map(|_| (rng.next_u64() >> 3).max(1)));
        for m in moduli.into_iter().filter(|&m| m <= 1 << 61) {
            let modulus = Modulus::new(m as usize);
            for n in modulus_inputs(m, &mut rng) {
                assert_eq!(modulus.reduce(n) as u64, n % m, "m {m} n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn modulus_rejects_zero() {
        Modulus::new(0);
    }

    #[test]
    fn hash_many_and_bucket_many_match_per_input_calls() {
        let mut rng = Rng::new(63);
        for k in [1usize, 2, 4, 16] {
            let h = KWiseHash::from_seed(k, 1000 + k as u64);
            for len in [0, 1, 17, 2049] {
                let mut xs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
                xs.iter_mut().zip(EDGE_INPUTS).for_each(|(x, e)| *x = e);
                let mut out = vec![0; len];
                h.hash_many(&xs, &mut out);
                let want: Vec<u64> = xs.iter().map(|&x| h.hash(x)).collect();
                assert_eq!(out, want, "k {k} len {len}");
                for m in [1, 2, 3, 33, 4096, 1 << 40] {
                    let modulus = Modulus::new(m);
                    h.bucket_many(&xs, &modulus, &mut out);
                    let want: Vec<u64> = xs.iter().map(|&x| h.bucket(x, &modulus) as u64).collect();
                    assert_eq!(out, want, "k {k} len {len} m {m}");
                }
            }
        }
    }

    #[test]
    fn higher_independence_distinct_coeffs() {
        let h = KWiseHash::from_seed(20, 10);
        assert_eq!(h.independence(), 20);
    }

    #[test]
    #[should_panic(expected = "independence")]
    fn zero_independence_panics() {
        let mut rng = Rng::new(1);
        KWiseHash::new(0, &mut rng);
    }
}
