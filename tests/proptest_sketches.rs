//! Property-based tests of the sketching substrate's guarantees.

use dlra::sketch::{CountSketch, KWiseHash, Modulus};
use dlra::util::Rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// CountSketch is linear: sketch(αu + βv) = α·sketch(u) + β·sketch(v),
    /// observed through point queries.
    #[test]
    fn countsketch_linearity(seed in 0u64..10_000, alpha in -3.0f64..3.0, beta in -3.0f64..3.0) {
        let mut rng = Rng::new(seed);
        let l = 200usize;
        let u: Vec<f64> = (0..l).map(|_| rng.gaussian()).collect();
        let v: Vec<f64> = (0..l).map(|_| rng.gaussian()).collect();
        let mk = || CountSketch::new(4, 32, seed ^ 0xABCD);
        let mut su = mk();
        let mut sv = mk();
        let mut sw = mk();
        for j in 0..l {
            su.update(j as u64, alpha * u[j]);
            sv.update(j as u64, beta * v[j]);
            sw.update(j as u64, alpha * u[j] + beta * v[j]);
        }
        su.merge(&sv);
        for j in (0..l).step_by(17) {
            prop_assert!((su.estimate(j as u64) - sw.estimate(j as u64)).abs() < 1e-9);
        }
    }

    /// A sufficiently heavy planted coordinate is always recovered: its
    /// squared estimate clears half of `F̂₂/B` at `B = 16`, the heavy test a
    /// sketch-bundle group applies (width `8B`, depth `⌈4·ln(1/δ)⌉` at
    /// `δ = 0.001`).
    #[test]
    fn heavy_hitter_always_recovered(seed in 0u64..10_000, pos in 0u64..2000) {
        let mut rng = Rng::new(seed);
        let l = 2000u64;
        let mut sk = CountSketch::new(28, 128, seed ^ 0x5A5A);
        for j in 0..l {
            if j != pos {
                sk.update(j, rng.gaussian() * 0.05);
            }
        }
        sk.update(pos, 40.0); // overwhelmingly heavy
        let threshold = 0.5 * sk.f2_estimate() / 16.0;
        prop_assert!(sk.estimate_if_heavy(pos, threshold).is_some(),
            "planted coordinate {pos} missed");
    }

    /// CountSketch's AMS-style F₂ estimate after a merge equals the joint
    /// sketch's on the summed vector.
    #[test]
    fn ams_merge_linearity(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let l = 128usize;
        let u: Vec<f64> = (0..l).map(|_| rng.gaussian()).collect();
        let v: Vec<f64> = (0..l).map(|_| rng.gaussian()).collect();
        let mut a = CountSketch::new(3, 8, seed);
        let mut b = CountSketch::new(3, 8, seed);
        let mut joint = CountSketch::new(3, 8, seed);
        a.update_dense(&u);
        b.update_dense(&v);
        for j in 0..l {
            joint.update(j as u64, u[j] + v[j]);
        }
        a.merge(&b);
        prop_assert!((a.f2_estimate() - joint.f2_estimate()).abs() < 1e-9);
    }

    /// k-wise hash determinism and range.
    #[test]
    fn kwise_hash_properties(seed in 0u64..10_000, k in 2usize..12, x in 0u64..1_000_000) {
        let h1 = KWiseHash::from_seed(k, seed);
        let h2 = KWiseHash::from_seed(k, seed);
        prop_assert_eq!(h1.hash(x), h2.hash(x));
        prop_assert!(h1.hash(x) < dlra::sketch::hashing::MERSENNE_P);
        let b = h1.bucket(x, &Modulus::new(17));
        prop_assert!(b < 17);
        let s = h1.sign(x);
        prop_assert!(s == 1.0 || s == -1.0);
    }

    /// CountSketch estimates are exact when the vector has a single nonzero.
    #[test]
    fn countsketch_single_coordinate_exact(seed in 0u64..10_000, j in 0u64..10_000, val in -100.0f64..100.0) {
        let mut cs = CountSketch::new(5, 64, seed);
        cs.update(j, val);
        prop_assert!((cs.estimate(j) - val).abs() < 1e-12);
    }
}
