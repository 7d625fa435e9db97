//! Criterion benchmarks of the query planner: B ∈ {1, 4, 16} queries
//! sharing one `f`, submitted back to back to a one-dataset `Service` with
//! the plan cache on vs off, over a resident 1024×16 dataset. The batched
//! path pays one `ZSampler::prepare` per batch; the unbatched path pays B.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_runtime::{DatasetHandle, Query, Service, ServiceConfig, Substrate};
use dlra_sampler::ZSamplerParams;
use dlra_util::Rng;
use std::hint::black_box;

const N: usize = 1024;
const D: usize = 16;

fn shares(s: usize) -> Vec<Matrix> {
    let mut rng = Rng::new(19);
    let a = noisy_low_rank(N, D, 4, 0.1, &mut rng);
    split_with_noise_shares(&a, s, 0.3, &mut rng)
}

fn queries(b: usize) -> Vec<Query> {
    (0..b)
        .map(|i| {
            Query::rank(1 + i % 4)
                .samples(40)
                .sampler(SamplerKind::Z(ZSamplerParams::default()))
                .seed(71)
                .build()
                .unwrap()
        })
        .collect()
}

/// A one-dataset service holding `parts` on the threaded substrate.
fn resident(parts: &[Matrix], executors: usize, plan_cache: usize) -> (Service, DatasetHandle) {
    let service = Service::new(ServiceConfig {
        executors,
        substrate: Substrate::Threaded,
        plan_cache,
        metrics: true,
        ..Default::default()
    });
    let dataset = service.load("resident", parts.to_vec()).unwrap();
    (service, dataset)
}

/// Submits the whole batch, then sums the boosting scores as they resolve.
fn serve(dataset: &DatasetHandle, batch: &[Query]) -> f64 {
    let tickets: Vec<_> = batch.iter().map(|q| dataset.submit(q)).collect();
    tickets
        .into_iter()
        .map(|t| t.wait().unwrap().output.captured)
        .sum()
}

fn bench_batch_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_batch_vs_unbatched_1024x16");
    group.sample_size(10);
    let parts = shares(4);
    for &b in &[1usize, 4, 16] {
        let batch = queries(b);
        for (mode, plan_cache) in [("batched", 16), ("unbatched", 0)] {
            group.bench_with_input(BenchmarkId::new(mode, b), &b, |bench, _| {
                bench.iter(|| {
                    let (_service, dataset) = resident(&parts, 4, plan_cache);
                    black_box(serve(&dataset, &batch))
                });
            });
        }
    }
    group.finish();
}

/// Steady-state planned submit: the plan is already cached, so this
/// measures the pure draw/fetch/SVD cost of serving one more query from a
/// warm planner.
fn bench_warm_cache_submit(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_warm_submit_1024x16");
    group.sample_size(10);
    let query = &queries(1)[0];
    let (_service, dataset) = resident(&shares(4), 1, 16);
    // Warm the cache.
    dataset.submit(query).wait().unwrap();
    group.bench_function("warm", |bench| {
        bench.iter(|| black_box(dataset.submit(query).wait().unwrap().output.captured));
    });
    group.finish();
}

criterion_group!(benches, bench_batch_submit, bench_warm_cache_submit);
criterion_main!(benches);
