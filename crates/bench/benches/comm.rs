//! Benchmarks of the communication substrate's collective overheads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlra_comm::{Cluster, Collectives};
use dlra_util::Rng;
use std::hint::black_box;

fn make_cluster(s: usize, len: usize) -> Cluster<Vec<f64>> {
    let mut rng = Rng::new(1);
    Cluster::new(
        (0..s)
            .map(|_| (0..len).map(|_| rng.gaussian()).collect())
            .collect(),
    )
}

fn bench_gather(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_sum_64k");
    for &s in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            let mut cluster = make_cluster(s, 65_536);
            b.iter(|| {
                let sums = cluster.gather("bench", |_t, local| local.iter().sum::<f64>());
                black_box(sums.len())
            });
        });
    }
    group.finish();
}

fn bench_aggregate_vectors(c: &mut Criterion) {
    c.bench_function("aggregate_vec_16x8192", |b| {
        let mut cluster = make_cluster(16, 8192);
        b.iter(|| {
            let sum = cluster.aggregate(
                "agg",
                |_t, local| local.clone(),
                |acc, r| {
                    for (a, v) in acc.iter_mut().zip(r) {
                        *a += v;
                    }
                },
            );
            black_box(sum[0])
        });
    });
}

criterion_group!(benches, bench_gather, bench_aggregate_vectors);
criterion_main!(benches);
