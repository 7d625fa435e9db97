//! Linear-algebra kernel benchmarks: the one-sided Jacobi SVD on Gaussian
//! matrices, the coordinator's FKV step (Algorithm 1 lines 7–8) at the
//! shapes the service runs, best rank-k, QR, and the dense matmul backbone.
//!
//! The FKV step's `B` has one row per distinct sampled index, so it is
//! `m × d` with `m ≤ r = Θ(k²/ε²)` draws; `fkv_step` times
//! `build_b_matrix` + `fkv_projection` from the `r` per-draw rows, on both
//! sides of `m = d`: the projection reduces a wide `B` by an LQ and a tall
//! one by a QR before its Jacobi sweeps. Gaussian rows have a flat
//! spectrum; the graded input draws the rows of a noisy rank-12 matrix
//! instead, whose `B` takes as many sweeps as `warm_svd`'s own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlra_core::{build_b_matrix, fkv_projection, SampledRow};
use dlra_data::noisy_low_rank;
use dlra_linalg::{best_rank_k, householder_qr, svd, Matrix};
use dlra_util::Rng;
use std::hint::black_box;

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    group.sample_size(10);
    for &(r, d) in &[(64usize, 32usize), (128, 64), (256, 128)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{r}x{d}")),
            &(r, d),
            |b, &(r, d)| {
                let mut rng = Rng::new(1);
                let a = Matrix::gaussian(r, d, &mut rng);
                b.iter(|| black_box(svd(&a).unwrap().s[0]));
            },
        );
    }
    group.finish();
}

/// `r` draws over the `m` rows of `a`, every row drawn at least once, with
/// length-squared probabilities.
fn draws(a: &Matrix, r: usize, rng: &mut Rng) -> Vec<SampledRow> {
    let m = a.rows();
    let weights = a.row_norms_sq();
    let total: f64 = weights.iter().sum();
    let mut indices: Vec<usize> = (0..m).chain((m..r).map(|_| rng.index(m))).collect();
    rng.shuffle(&mut indices);
    indices
        .into_iter()
        .map(|i| SampledRow {
            index: i,
            values: a.row(i).to_vec(),
            q_hat: weights[i] / total,
        })
        .collect()
}

fn bench_fkv_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("fkv_step");
    group.sample_size(10);
    let k = 12;
    // Gaussian rows at warm_svd's measured shape and cold_prepare's, both
    // wide (m < d: the LQ branch), then a tall one (m ≥ d: the QR branch);
    // last, graded rows at warm_svd's shape.
    for (graded, r, m, d) in [
        (false, 500, 150, 256),
        (false, 200, 90, 256),
        (false, 500, 150, 40),
        (true, 500, 150, 256),
    ] {
        let tag = if graded { "_graded" } else { "" };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("r{r}_m{m}_d{d}_k{k}{tag}")),
            &(r, m),
            |b, &(r, m)| {
                let mut rng = Rng::new(6);
                let a = if graded {
                    noisy_low_rank(m, d, 12, 0.15, &mut rng)
                } else {
                    Matrix::gaussian(m, d, &mut rng)
                };
                let rows = draws(&a, r, &mut rng);
                b.iter(|| {
                    let b = build_b_matrix(&rows).unwrap();
                    black_box(fkv_projection(&b, k).unwrap().1)
                });
            },
        );
    }
    group.finish();
}

fn bench_rank_k(c: &mut Criterion) {
    c.bench_function("best_rank_k_200x64_k10", |b| {
        let mut rng = Rng::new(2);
        let a = Matrix::gaussian(200, 64, &mut rng);
        b.iter(|| black_box(best_rank_k(&a, 10).unwrap().error_sq));
    });
}

fn bench_qr(c: &mut Criterion) {
    c.bench_function("householder_qr_256x64", |b| {
        let mut rng = Rng::new(3);
        let a = Matrix::gaussian(256, 64, &mut rng);
        b.iter(|| black_box(householder_qr(&a).unwrap().r().frobenius_norm()));
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rng = Rng::new(4);
            let a = Matrix::gaussian(n, n, &mut rng);
            let m = Matrix::gaussian(n, n, &mut rng);
            b.iter(|| black_box(a.matmul(&m).unwrap().frobenius_norm()));
        });
    }
    group.finish();
}

fn bench_gram(c: &mut Criterion) {
    c.bench_function("gram_1000x128", |b| {
        let mut rng = Rng::new(5);
        let a = Matrix::gaussian(1000, 128, &mut rng);
        b.iter(|| black_box(a.gram().frobenius_norm()));
    });
}

criterion_group!(
    benches,
    bench_svd,
    bench_fkv_step,
    bench_rank_k,
    bench_qr,
    bench_matmul,
    bench_gram
);
criterion_main!(benches);
