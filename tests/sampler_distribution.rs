//! Statistical validation of the distributed Z-sampler: empirical draw
//! frequencies against the exact `z(aᵢ)/Z(a)` distribution, and `Ẑ`
//! accuracy, across the paper's z-functions.

use dlra::comm::{Cluster, Collectives};
use dlra::sampler::{
    exact_weights, DenseServerVec, HuberSq, PowerAbs, Square, ZFn, ZSampler, ZSamplerParams,
};
use dlra::util::Rng;

fn cluster_from_aggregate(agg: &[f64], s: usize, rng: &mut Rng) -> Cluster<DenseServerVec> {
    // Additive random shares of the aggregate.
    let l = agg.len();
    let mut parts: Vec<Vec<f64>> = vec![vec![0.0; l]; s];
    for (j, &v) in agg.iter().enumerate() {
        let mut rest = v;
        for p in parts.iter_mut().take(s - 1) {
            let share = rng.gaussian() * 0.05 * v.abs().max(0.1);
            p[j] = share;
            rest -= share;
        }
        parts[s - 1][j] = rest;
    }
    Cluster::new(parts.into_iter().map(DenseServerVec::new).collect())
}

/// Total-variation distance between empirical row frequencies and truth,
/// restricted to the drawn support (coordinates with meaningful mass).
fn tv_distance(
    draw_counts: &std::collections::BTreeMap<u64, usize>,
    truth: &[f64],
    n: usize,
) -> f64 {
    let total: f64 = truth.iter().sum();
    let mut tv = 0.0;
    for (j, &w) in truth.iter().enumerate() {
        let emp = draw_counts.get(&(j as u64)).copied().unwrap_or(0) as f64 / n as f64;
        tv += (emp - w / total).abs();
    }
    tv / 2.0
}

fn check_distribution(zfn: &dyn ZFn, agg: Vec<f64>, tol_tv: f64, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut cluster = cluster_from_aggregate(&agg, 4, &mut rng);
    let truth = exact_weights(&cluster, zfn);
    let total: f64 = truth.iter().sum();
    assert!(total > 0.0);

    let sampler = ZSampler::new(ZSamplerParams::default(), seed ^ 0xABCD);
    let prepared = sampler.prepare(&mut cluster, zfn);
    assert!(!prepared.is_empty(), "{}: empty sampler", zfn.name());

    // Ẑ within a factor of 3 of the truth.
    let zh = prepared.z_hat();
    assert!(
        zh > total / 3.0 && zh < total * 3.0,
        "{}: Ẑ = {zh} vs Z = {total}",
        zfn.name()
    );

    let n = 3000;
    let draws = prepared.draw_many(n, &mut rng);
    assert!(draws.len() > n / 2, "{}: too many FAILs", zfn.name());
    let mut counts = std::collections::BTreeMap::new();
    for d in &draws {
        *counts.entry(d.coord).or_insert(0usize) += 1;
    }
    let tv = tv_distance(&counts, &truth, draws.len());
    assert!(
        tv < tol_tv,
        "{}: TV distance {tv} exceeds {tol_tv}",
        zfn.name()
    );
}

#[test]
fn square_distribution_on_spiky_vector() {
    // A few dominant coordinates: the sampler must nail these.
    let mut agg = vec![0.0f64; 4000];
    agg[3] = 50.0;
    agg[700] = -35.0;
    agg[2222] = 20.0;
    agg[3999] = 10.0;
    check_distribution(&Square, agg, 0.25, 1);
}

#[test]
fn square_distribution_with_bulk_mass() {
    // Heavy head + a bulk class holding ~half the mass.
    let mut rng = Rng::new(2);
    let mut agg = vec![0.0f64; 4096];
    agg[0] = 30.0;
    agg[1] = -30.0;
    for _ in 0..450 {
        let j = 2 + rng.index(4094);
        agg[j] = 2.0;
    }
    check_distribution(&Square, agg, 0.45, 3);
}

#[test]
fn power_abs_distribution_gm_p5() {
    // ℓ_{2/5} sampling flattens magnitude differences: z(x) = |x|^{0.4}.
    let mut rng = Rng::new(4);
    let mut agg = vec![0.0f64; 2048];
    for j in 0..64 {
        agg[j * 32] = rng.range_f64(1.0, 1000.0);
    }
    check_distribution(&PowerAbs::from_gm_p(5.0), agg, 0.5, 5);
}

#[test]
fn huber_distribution_ignores_outliers() {
    let mut agg = vec![0.0f64; 2048];
    for j in 0..100 {
        agg[j * 20] = 1.0;
    }
    agg[1111] = 1e7; // z-capped
    check_distribution(&HuberSq { k: 1.0 }, agg, 0.5, 6);
}

#[test]
fn draws_report_exact_values() {
    let mut rng = Rng::new(7);
    let mut agg = vec![0.0f64; 1024];
    for j in (0..1024).step_by(50) {
        agg[j] = rng.range_f64(-9.0, 9.0);
    }
    let mut cluster = cluster_from_aggregate(&agg, 3, &mut rng);
    let sampler = ZSampler::new(ZSamplerParams::default(), 99);
    let prepared = sampler.prepare(&mut cluster, &Square);
    for d in prepared.draw_many(300, &mut rng) {
        let truth = agg[d.coord as usize];
        assert!(
            (d.value - truth).abs() < 1e-6 * truth.abs().max(1.0),
            "coord {}: value {} vs truth {truth}",
            d.coord,
            d.value
        );
    }
}

#[test]
fn sampler_communication_is_sublinear_in_data() {
    // The whole point: sampling costs ≪ shipping the vectors.
    let l = 1 << 15;
    let mut rng = Rng::new(8);
    let agg: Vec<f64> = (0..l).map(|_| rng.gaussian()).collect();
    let s = 6;
    let mut cluster = cluster_from_aggregate(&agg, s, &mut rng);
    let params = ZSamplerParams::practical(l as u64, 2000);
    let sampler = ZSampler::new(params, 11);
    let prepared = sampler.prepare(&mut cluster, &Square);
    assert!(!prepared.is_empty());
    let words = cluster.comm().total_words();
    let data_words = (s * l) as u64;
    assert!(
        words < data_words / 2,
        "sampling cost {words} vs data {data_words}"
    );
}
