//! Batched polynomial evaluation over GF(p), p = 2⁶¹ − 1: the arithmetic
//! of the sketches' k-wise independent hashes, many inputs per call.
//!
//! [`poly_eval`] writes, for every input `x`, the canonical residue of
//! `c₀ + c₁x + … + c_{k−1}x^{k−1}` mod p. The residue is unique, so any
//! evaluation that stays congruent to the textbook Horner and ends with a
//! canonical reduction returns the textbook value bit for bit, whatever the
//! instruction set; `dlra_sketch::KWiseHash::hash` is the per-input
//! reference, and the tests hold every compiled body to it.
//!
//! # 32-bit limbs, folded with `2⁶¹ ≡ 1`
//!
//! x86 has no vector 64×64 → 128-bit multiply, but it has a
//! 32×32 → 64-bit one (`pmuludq`) at every level. Following
//! Thorup (*High Speed Hashing for Integers and Strings*, 2015), a Horner
//! step splits the accumulator `a = a₁·2³² + a₀` and the input
//! `x = x₁·2³² + x₀` into limbs and folds each partial product with
//! `2⁶¹ ≡ 1` (so `2⁶⁴ ≡ 8`):
//!
//! ```text
//! a·x = a₁x₁·2⁶⁴ + (a₁x₀ + a₀x₁)·2³² + a₀x₀
//!     ≡ 8·a₁x₁ + ⌊m / 2²⁹⌋ + (m mod 2²⁹)·2³² + ⌊l / 2⁶¹⌋ + (l mod 2⁶¹)
//! ```
//!
//! with `m = a₁x₀ + a₀x₁` and `l = a₀x₀`. With `x < p` (so `x₁ < 2²⁹`) and
//! `a ≤ 2⁶¹ + 3` (so `a₁ ≤ 2²⁹`): `l < 2⁶⁴`, `m < 2⁶²`, `8·a₁x₁ < 2⁶¹`, and
//! the five terms plus a coefficient `c < p` total less than
//! `2⁶³ + 2³⁴ < 2⁶⁴`. One fold, `(y mod 2⁶¹) + ⌊y / 2⁶¹⌋`, brings the sum
//! back to at most `2⁶¹ + 3`, which is the bound the next step assumed.
//! The input is reduced first (a fold and a conditional subtract make it
//! canonical), the accumulator starts at the leading coefficient, and a
//! last conditional subtract maps `[0, 2⁶¹ + 3]` onto `[0, p)`.
//!
//! The body is safe scalar Rust over blocks of 16 independent inputs.
//! `isa_dispatch!` compiles it for AVX2 and AVX-512, where the compiler
//! turns each block's limb products into vector multiplies; the lanes are
//! distinct inputs, so no body can differ from another in any bit.
//!
//! # The baseline body: one input at a time
//!
//! Baseline x86-64 has 128-bit vectors, two limb products wide, and other
//! targets get no vector body at all; there the limb products lose to the
//! scalar 64 × 64 → 128-bit multiply. So the baseline level and non-x86
//! targets evaluate one input at a time, as `KWiseHash::hash` does: with
//! `x' = 8x` (the canonical `x < 2⁶¹`, so `x' < 2⁶⁴`), `a·x' = h·2⁶⁴ + l`
//! gives `a·x = h·2⁶¹ + l/8 ≡ h + l/8` (`l` is a multiple of 8). For
//! `a ≤ 2⁶¹ + 2` the sum `h + l/8 + c` stays below `2⁶³`, one fold brings
//! it back to at most `2⁶¹ + 2`, and the same last conditional subtract
//! makes it canonical, so this body returns the same residues.

#[cfg(target_arch = "x86_64")]
use crate::kernels::isa;
use crate::kernels::isa_dispatch;

/// The Mersenne prime 2⁶¹ − 1.
const P: u64 = (1 << 61) - 1;
/// The low 32-bit limb.
const LO32: u64 = (1 << 32) - 1;
/// The bits of the middle product that stay below 2⁶¹ after a 32-bit shift.
const LO29: u64 = (1 << 29) - 1;

/// Inputs evaluated side by side: enough independent Horner chains to
/// cover a step's latency at every vector width (32 halves the AVX2
/// body's speed, 8 defeats the vectorizer).
const LANES: usize = 16;

/// Writes into `out[i]` the canonical residue mod 2⁶¹ − 1 of the
/// polynomial with coefficients `coeffs` (constant term first) at
/// `xs[i]`.
///
/// Inputs may be any `u64`. Panics if `coeffs` is empty, if a
/// coefficient is not a canonical residue (`< 2⁶¹ − 1`, which the bounds in
/// the module docs assume) or if the slices differ in length.
pub fn poly_eval(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
    assert!(!coeffs.is_empty(), "poly_eval needs a coefficient");
    assert!(coeffs.iter().all(|&c| c < P), "coefficients must be < p");
    assert_eq!(xs.len(), out.len(), "poly_eval input and output lengths");
    poly_eval_dispatch(coeffs, xs, out);
}

isa_dispatch!(poly_eval_body, poly_eval_scalar_body =>
    /// [`poly_eval`] at the widest supported ISA.
    fn poly_eval_dispatch(coeffs: &[u64], xs: &[u64], out: &mut [u64])
);

/// `x mod p`, canonical: one fold leaves at most `2⁶¹ + 6`.
#[inline(always)]
fn canonical(x: u64) -> u64 {
    let y = (x & P) + (x >> 61);
    if y >= P {
        y - P
    } else {
        y
    }
}

/// One Horner step, `a·x + c` folded once (module docs): for
/// `a ≤ 2⁶¹ + 3`, a canonical `x` given as its limbs `x₀ < 2³²` and
/// `x₁ < 2²⁹`, and `c < p`, a value `≡ a·x + c` of at most `2⁶¹ + 3`.
#[inline(always)]
fn step(a: u64, x0: u64, x1: u64, c: u64) -> u64 {
    let (a0, a1) = (a & LO32, a >> 32);
    let low = a0 * x0;
    let mid = a0 * x1 + a1 * x0;
    let y = ((a1 * x1) << 3) + (mid >> 29) + ((mid & LO29) << 32) + (low & P) + (low >> 61) + c;
    (y & P) + (y >> 61)
}

#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn poly_eval_body(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
    let (&lead, rest) = coeffs.split_last().expect("poly_eval checked");
    let mut xb = xs.chunks_exact(LANES);
    let mut ob = out.chunks_exact_mut(LANES);
    for (xb, ob) in (&mut xb).zip(&mut ob) {
        let mut x0 = [0; LANES];
        let mut x1 = [0; LANES];
        for l in 0..LANES {
            let x = canonical(xb[l]);
            (x0[l], x1[l]) = (x & LO32, x >> 32);
        }
        let mut acc = [lead; LANES];
        for &c in rest.iter().rev() {
            for l in 0..LANES {
                acc[l] = step(acc[l], x0[l], x1[l], c);
            }
        }
        for l in 0..LANES {
            ob[l] = if acc[l] >= P { acc[l] - P } else { acc[l] };
        }
    }
    for (&x, o) in xb.remainder().iter().zip(ob.into_remainder()) {
        let x = canonical(x);
        let (x0, x1) = (x & LO32, x >> 32);
        let acc = rest.iter().rev().fold(lead, |acc, &c| step(acc, x0, x1, c));
        *o = if acc >= P { acc - P } else { acc };
    }
}

/// The baseline body: a 128-bit Horner, one input at a time (module docs).
#[inline(always)]
fn poly_eval_scalar_body(coeffs: &[u64], xs: &[u64], out: &mut [u64]) {
    let (&lead, rest) = coeffs.split_last().expect("poly_eval checked");
    for (&x, o) in xs.iter().zip(out) {
        let x8 = u128::from(canonical(x) << 3);
        let acc = rest.iter().rev().fold(lead, |acc, &c| {
            let v = u128::from(acc) * x8;
            let y = (v >> 64) as u64 + ((v as u64) >> 3) + c;
            (y & P) + (y >> 61)
        });
        *o = if acc >= P { acc - P } else { acc };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::for_each_body;
    use dlra_sketch::KWiseHash;
    use dlra_util::Rng;
    use proptest::prelude::*;

    /// The reduction edges: 0, p − 1, p, p + 1, 2⁶¹, 2p and `u64::MAX`.
    const EDGES: [u64; 7] = [0, P - 1, P, P + 1, 1 << 61, 2 * P, u64::MAX];

    /// Batch lengths: empty, one, around a lane block and around the
    /// sketch bundle's 2048-coordinate chunk.
    const LENGTHS: [usize; 9] = [0, 1, LANES - 1, LANES, LANES + 1, 2047, 2048, 2049, 100];

    /// `len` inputs: the edges at both ends, random values between.
    fn inputs(len: usize, rng: &mut Rng) -> Vec<u64> {
        let mut xs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        for (x, &e) in xs.iter_mut().zip(&EDGES) {
            *x = e;
        }
        for (x, &e) in xs.iter_mut().rev().zip(&EDGES) {
            *x = e;
        }
        xs
    }

    /// Every body's batch against `reference` at every length.
    fn assert_bodies_match(coeffs: &[u64], rng: &mut Rng, reference: impl Fn(u64) -> u64) {
        for len in LENGTHS {
            let xs = inputs(len, rng);
            let want: Vec<u64> = xs.iter().map(|&x| reference(x)).collect();
            for_each_body(|body| {
                let mut out = vec![u64::MAX; len];
                poly_eval(coeffs, &xs, &mut out);
                assert_eq!(out, want, "{body} body, k {}, len {len}", coeffs.len());
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every compiled body returns `KWiseHash::hash`'s values bit for
        /// bit, for every independence the sketches use.
        #[test]
        fn every_body_matches_kwise_hash(seed in 0u64..u64::MAX, inputs_seed in 0u64..u64::MAX) {
            let mut rng = Rng::new(inputs_seed);
            for k in [1usize, 2, 4, 16] {
                let h = KWiseHash::from_seed(k, seed);
                assert_bodies_match(h.coefficients(), &mut rng, |x| h.hash(x));
            }
        }
    }

    /// The textbook Horner in 128-bit arithmetic: `x % p`, then
    /// `acc = (acc·x + c) % p` from zero.
    fn textbook(coeffs: &[u64], x: u64) -> u64 {
        let (p, x) = (u128::from(P), u128::from(x) % u128::from(P));
        coeffs
            .iter()
            .rev()
            .fold(0u128, |acc, &c| (acc * x + u128::from(c)) % p) as u64
    }

    #[test]
    fn every_body_matches_textbook_at_extreme_coefficients() {
        // Coefficients of p − 1 maximise every sum a step folds.
        let mut rng = Rng::new(61);
        for k in [1usize, 2, 4, 16] {
            for c in [0, 1, P - 1] {
                let coeffs = vec![c; k];
                assert_bodies_match(&coeffs, &mut rng, |x| textbook(&coeffs, x));
            }
        }
    }

    #[test]
    #[should_panic(expected = "coefficient")]
    fn rejects_an_empty_polynomial() {
        poly_eval(&[], &[1], &mut [0]);
    }

    #[test]
    #[should_panic(expected = "coefficients must be < p")]
    fn rejects_a_non_canonical_coefficient() {
        poly_eval(&[1, P], &[1], &mut [0]);
    }

    #[test]
    #[should_panic(expected = "lengths")]
    fn rejects_mismatched_lengths() {
        poly_eval(&[1, 2], &[1, 2], &mut [0]);
    }
}
