//! Microbenchmarks for the sketching substrate: k-wise hashing one input
//! at a time against a batch, CountSketch update throughput, merge (the
//! per-server aggregation cost), point queries, heavy-hitter recovery,
//! and one Z-estimator pass's two sketch scans (every server's
//! `SketchBundle::absorb`, the coordinator's `recover`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlra_data::isolet_like;
use dlra_sampler::{DenseServerVec, SampleVector, SketchBundle, ZSamplerParams};
use dlra_sketch::{CountSketch, HeavyHittersSketch, KWiseHash};
use dlra_util::Rng;
use std::hint::black_box;
use std::time::Duration;

/// The sketches' hash arithmetic over 4,096 random inputs: a loop of
/// scalar `hash` calls against one `hash_many` call, at the independences
/// the sketches use (bucket hashes 2, signs 4, the level hash 16).
fn bench_hash_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_many");
    let mut rng = Rng::new(5);
    let xs: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    let mut out = vec![0u64; xs.len()];
    group.throughput(Throughput::Elements(xs.len() as u64));
    for k in [2usize, 4, 16] {
        let h = KWiseHash::from_seed(k, 11);
        group.bench_with_input(BenchmarkId::new("scalar", k), &k, |b, _| {
            b.iter(|| {
                for (o, &x) in out.iter_mut().zip(&xs) {
                    *o = h.hash(black_box(x));
                }
                black_box(&out);
            });
        });
        let batched = out.clone();
        group.bench_with_input(BenchmarkId::new("batched", k), &k, |b, _| {
            b.iter(|| {
                h.hash_many(black_box(&xs), &mut out);
                black_box(&out);
            });
        });
        assert_eq!(out, batched, "hash_many must equal hash at k = {k}");
    }
    group.finish();
}

fn bench_countsketch_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("countsketch_update");
    for &width in &[64usize, 512, 4096] {
        let n = 10_000u64;
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &w| {
            let mut cs = CountSketch::new(5, w, 42);
            let mut rng = Rng::new(7);
            let vals: Vec<(u64, f64)> = (0..n).map(|j| (j, rng.gaussian())).collect();
            b.iter(|| {
                for &(j, v) in &vals {
                    cs.update(j, v);
                }
                black_box(&cs);
            });
        });
    }
    group.finish();
}

fn bench_countsketch_estimate(c: &mut Criterion) {
    c.bench_function("countsketch_estimate_1k", |b| {
        let mut cs = CountSketch::new(7, 1024, 1);
        let mut rng = Rng::new(2);
        for j in 0..50_000u64 {
            cs.update(j, rng.gaussian());
        }
        b.iter(|| {
            let mut acc = 0.0;
            for j in 0..1000u64 {
                acc += cs.estimate(j);
            }
            black_box(acc)
        });
    });
}

fn bench_sketch_merge(c: &mut Criterion) {
    c.bench_function("countsketch_merge_5x1024", |b| {
        let mut a = CountSketch::new(5, 1024, 3);
        let mut other = CountSketch::new(5, 1024, 3);
        let mut rng = Rng::new(4);
        for j in 0..10_000u64 {
            a.update(j, rng.gaussian());
            other.update(j, rng.gaussian());
        }
        b.iter(|| {
            a.merge(black_box(&other));
        });
    });
}

fn bench_heavy_hitter_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("heavy_hitter_recover");
    group.sample_size(20);
    for &l in &[10_000u64, 100_000] {
        group.throughput(Throughput::Elements(l));
        group.bench_with_input(BenchmarkId::from_parameter(l), &l, |b, &l| {
            let mut sk = HeavyHittersSketch::new(32.0, 0.01, 9);
            let mut rng = Rng::new(10);
            for j in 0..l {
                sk.update(j, rng.gaussian() * 0.1);
            }
            for h in 0..16 {
                sk.update(h * (l / 16), 25.0);
            }
            b.iter(|| black_box(sk.recover_range(l).len()));
        });
    }
    group.finish();
}

/// The repository benchmark's `cold_prepare` sketch shape: the pinned
/// isolet parameters (`ZSamplerParams::practical(1200·256, 4000)`, written
/// out so a change to `practical` cannot move this number) over the ten
/// `isolet_like(1, 50, ·)` shares.
fn isolet_bundle_inputs() -> (ZSamplerParams, Vec<DenseServerVec>) {
    let params = ZSamplerParams {
        eps_class: 0.35,
        hh_depth: 3,
        hh_width: 33,
        groups: 2,
        reps: 1,
        b_threshold: 8.25,
        max_levels: 19,
        window_lo: 3,
        window_hi: 96,
        max_inject_per_class: 64,
        g_independence: 16,
        max_draw_tries: 64,
        max_candidates_per_level: 50,
    };
    let shares = isolet_like(1, 50, 20_160_516)
        .parts
        .into_iter()
        .map(|m| DenseServerVec::new(m.as_slice().to_vec()))
        .collect();
    (params, shares)
}

/// Samples and time budget for the two scan groups: 20 samples of a
/// 30–90 ms scan fit inside 5 s, so the median is comparable run to run.
const SCAN_SAMPLES: usize = 20;
const SCAN_TIME: Duration = Duration::from_secs(5);

/// One estimator pass's server side: every server sketches its share.
fn bench_bundle_absorb(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundle_absorb");
    group.sample_size(SCAN_SAMPLES).measurement_time(SCAN_TIME);
    let (params, shares) = isolet_bundle_inputs();
    let dim = shares[0].dim();
    group.throughput(Throughput::Elements(dim * shares.len() as u64));
    group.bench_function("isolet_10_servers", |b| {
        b.iter(|| {
            for share in &shares {
                let mut bundle = SketchBundle::new(&params, 17, dim);
                bundle.absorb(share);
                black_box(&bundle);
            }
        });
    });
    group.finish();
}

/// One estimator pass's coordinator side: the recovery scan over every
/// coordinate of the merged bundle.
fn bench_bundle_recover(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundle_recover");
    group.sample_size(SCAN_SAMPLES).measurement_time(SCAN_TIME);
    let (params, shares) = isolet_bundle_inputs();
    let dim = shares[0].dim();
    let mut merged = SketchBundle::new(&params, 17, dim);
    for share in &shares {
        let mut bundle = SketchBundle::new(&params, 17, dim);
        bundle.absorb(share);
        merged.merge(&bundle);
    }
    group.throughput(Throughput::Elements(dim));
    group.bench_function("isolet_merged", |b| {
        b.iter(|| black_box(merged.recover(black_box(dim))));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hash_many,
    bench_countsketch_update,
    bench_countsketch_estimate,
    bench_sketch_merge,
    bench_heavy_hitter_recovery,
    bench_bundle_absorb,
    bench_bundle_recover
);
criterion_main!(benches);
