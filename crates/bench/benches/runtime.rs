//! Benchmarks of the threaded message-passing substrate vs the sequential
//! simulator: raw collective overheads (gather / aggregate) and end-to-end
//! Algorithm 1, at `s ∈ {2, 4, 8}` servers and `n = 4096` rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlra_comm::{Cluster, Collectives};
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_runtime::{threaded_model, Query, Service, ServiceConfig, Substrate, ThreadedCluster};
use dlra_sampler::ZSamplerParams;
use dlra_util::Rng;
use std::hint::black_box;

const N: usize = 4096;
const D: usize = 32;

fn vec_locals(s: usize, len: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(1);
    (0..s)
        .map(|_| (0..len).map(|_| rng.gaussian()).collect())
        .collect()
}

fn shares(s: usize) -> Vec<Matrix> {
    let mut rng = Rng::new(17);
    let a = noisy_low_rank(N, D, 5, 0.1, &mut rng);
    split_with_noise_shares(&a, s, 0.3, &mut rng)
}

/// An expensive per-server reduction (the regime where worker threads pay
/// off: heavy local compute, one word shipped).
fn heavy(local: &[f64]) -> f64 {
    let mut acc = 0.0;
    for _ in 0..8 {
        for x in local {
            acc += (x * 1.000001).sin();
        }
    }
    acc
}

fn bench_gather(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_gather_heavy_64k");
    group.sample_size(10);
    for &s in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sequential", s), &s, |b, &s| {
            let mut cluster = Cluster::new(vec_locals(s, 65_536));
            b.iter(|| black_box(Cluster::gather(&mut cluster, "seq", |_t, l| heavy(l)).len()));
        });
        group.bench_with_input(BenchmarkId::new("threaded", s), &s, |b, &s| {
            let mut cluster = ThreadedCluster::new(vec_locals(s, 65_536));
            b.iter(|| {
                black_box(
                    Collectives::gather(&mut cluster, "par", |_t, l: &mut Vec<f64>| heavy(l)).len(),
                )
            });
        });
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_aggregate_vec_16k");
    group.sample_size(10);
    for &s in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sequential", s), &s, |b, &s| {
            let mut cluster = Cluster::new(vec_locals(s, 16_384));
            b.iter(|| {
                let sum = Cluster::aggregate(
                    &mut cluster,
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
        group.bench_with_input(BenchmarkId::new("threaded", s), &s, |b, &s| {
            let mut cluster = ThreadedCluster::new(vec_locals(s, 16_384));
            b.iter(|| {
                let sum = Collectives::aggregate(
                    &mut cluster,
                    "agg",
                    |_t, local: &mut Vec<f64>| local.clone(),
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
    group.finish();
}

fn bench_algorithm1_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_algorithm1_4096x32");
    group.sample_size(10);
    for &s in &[2usize, 4, 8] {
        let parts = shares(s);
        let cfg = Algorithm1Config {
            k: 5,
            r: 60,
            sampler: SamplerKind::Z(ZSamplerParams::practical((N * D) as u64, 4000)),
            seed: 23,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("sequential", s), &s, |b, _| {
            b.iter(|| {
                let mut m = PartitionModel::new(parts.clone(), EntryFunction::Identity).unwrap();
                black_box(run_algorithm1(&mut m, &cfg).unwrap().captured)
            });
        });
        group.bench_with_input(BenchmarkId::new("threaded", s), &s, |b, _| {
            b.iter(|| {
                let mut m = threaded_model(parts.clone(), EntryFunction::Identity).unwrap();
                black_box(run_algorithm1(&mut m, &cfg).unwrap().captured)
            });
        });
    }
    group.finish();
}

/// The smallest query that runs the protocol: rank 1, one uniformly
/// sampled row.
fn tiny_query() -> Query {
    Query::rank(1)
        .samples(1)
        .sampler(SamplerKind::Uniform)
        .seed(3)
        .build()
        .expect("valid query")
}

/// Query-dispatch latency across resident dataset sizes `n`.
///
/// Measures submit → result delivery for a rank-1, one-sample uniform
/// query: the executor builds the full per-query model from the resident
/// payload and then does a minimal protocol run, so the time is dominated
/// by dispatch. With copy-on-write residency the per-query model is built
/// from O(s) handle clones, so dispatch is **flat in `n`**; before, it
/// deep-copied all `s·n·d` resident words per submit.
fn bench_dispatch_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_dispatch_latency");
    group.sample_size(10);
    let tiny = tiny_query();
    for &n in &[1024usize, 8192, 65536] {
        let mut rng = Rng::new(29);
        let a = noisy_low_rank(n, D, 5, 0.1, &mut rng);
        let parts = split_with_noise_shares(&a, 4, 0.3, &mut rng);
        for (name, substrate) in [
            ("sequential", Substrate::Sequential),
            ("threaded", Substrate::Threaded),
        ] {
            let service = Service::new(ServiceConfig {
                executors: 1,
                substrate,
                ..Default::default()
            });
            let dataset = service.load("resident", parts.clone()).unwrap();
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(dataset.submit(&tiny).wait().is_ok()));
            });
        }
    }
    group.finish();
}

/// Front-door overhead of the multi-dataset service façade: submit → wait
/// for a minimal query (rank 1, one sampled row) on one dataset, while the
/// service hosts 1, 4, or 16 resident datasets. Dataset resolution is a
/// handle deref — hosting more tenants must not tax a tenant's dispatch.
fn bench_service_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_dispatch_latency");
    group.sample_size(10);
    let tiny = tiny_query();
    for &datasets in &[1usize, 4, 16] {
        let service = Service::new(ServiceConfig {
            executors: 1,
            substrate: Substrate::Threaded,
            ..Default::default()
        });
        let handles: Vec<_> = (0..datasets)
            .map(|i| {
                let mut rng = Rng::new(31 + i as u64);
                let a = noisy_low_rank(1024, D, 5, 0.1, &mut rng);
                let parts = split_with_noise_shares(&a, 4, 0.3, &mut rng);
                service.load(&format!("tenant-{i}"), parts).unwrap()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("resident_datasets", datasets),
            &datasets,
            |b, _| {
                b.iter(|| {
                    let ticket = handles[0].submit(&tiny);
                    black_box(ticket.wait().is_ok())
                });
            },
        );
        // The registry saw every iteration above: report the end-to-end
        // submit → resolve distribution it measured alongside criterion's
        // per-iteration mean.
        if let Some(metrics) = service.metrics() {
            let snap = &metrics.datasets[0];
            eprintln!(
                "service_dispatch_latency/{datasets}: {} ({} queries)",
                snap.latency, snap.completed
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gather,
    bench_aggregate,
    bench_algorithm1_end_to_end,
    bench_dispatch_latency,
    bench_service_dispatch
);
criterion_main!(benches);
