//! Kernel/runtime thread composition: the threaded substrate's server
//! workers pin kernel threading to 1 (`dlra_linalg::with_threads`), so
//! `s` server workers × the process's kernel threads can never
//! oversubscribe multiplicatively — and service executors budget
//! coordinator-side kernels at `max(1, total/executors)`, so high
//! executor counts cannot oversubscribe either. Proved through the kernel
//! layer's parallelism watermark — the counters are process-global, so
//! this file holds exactly one test (its own binary → its own process).
//!
//! Lower bounds on the watermark are deliberately loose: on a single-core
//! runner the spawned panel threads may run one after another,
//! so only the *upper* bound (the budget) is deterministic.

use dlra::comm::Collectives;
use dlra::linalg::{
    parallelism_watermark, reset_parallelism_watermark, set_threads, threads, with_threads, Matrix,
};
use dlra::prelude::*;
use dlra::runtime::{ServiceConfig, Substrate, ThreadedCluster, Ticket};
use dlra::util::Rng;

#[test]
fn kernel_threads_never_exceed_the_configured_budget() {
    // A gram big enough to clear the kernel layer's parallel-work floor
    // (r·c² = 512·128² ≈ 8.4M flops > 2²¹).
    let mut rng = Rng::new(3);
    let big = Matrix::gaussian(512, 128, &mut rng);

    // Baseline: with the process knob at 4, a lone kernel call keeps at
    // most 4 kernel threads live (the caller plus ≤ 3 panel threads); the
    // watermark always observes at least the caller itself.
    set_threads(4);
    reset_parallelism_watermark();
    let direct = big.gram();
    assert!(
        (1..=4).contains(&parallelism_watermark()),
        "lone kernel watermark {} outside [1, 4]",
        parallelism_watermark()
    );

    // Scoped pin: the same call under with_threads(1, ..) runs inline —
    // exactly one live kernel thread, deterministically.
    reset_parallelism_watermark();
    let pinned = with_threads(1, || big.gram());
    assert_eq!(parallelism_watermark(), 1, "scoped override not observed");
    assert_eq!(direct.as_slice(), pinned.as_slice(), "pinning changed bits");

    // Composition: s = 6 server workers each running the same kernel
    // concurrently, with the process knob still at 4. Server workers pin
    // kernels to 1, so the budget is s × 1 = 6 live kernel threads — not
    // the s × 4 = 24 the two layers would multiply to unpinned.
    let s = 6;
    let locals: Vec<Matrix> = (0..s).map(|_| big.clone()).collect();
    let mut cluster = ThreadedCluster::new(locals);
    reset_parallelism_watermark();
    let observed = cluster.gather("composition.gram", |_t, local: &mut Matrix| {
        let g = local.gram();
        // Inside a server worker the kernel layer must observe the pin.
        (threads() as f64) + g[(0, 0)] * 0.0
    });
    assert!(
        parallelism_watermark() <= s,
        "total live kernel threads {} exceeded the budget of {s}",
        parallelism_watermark()
    );
    for (t, &seen) in observed.iter().enumerate() {
        assert_eq!(seen, 1.0, "server worker {t} saw {seen} kernel threads");
    }

    // And the per-server results are the pinned (= unpinned) bits.
    cluster.with_local(0, |local: &Matrix| {
        assert_eq!(local.gram().as_slice(), direct.as_slice());
    });
    drop(cluster);

    // Executor-layer kernel budgeting: service executors wrap each query
    // in `with_threads(max(1, total/executors))`, so coordinator-side
    // kernels (building B, its gram/SVD) share the process budget instead
    // of each executor claiming all of it. With the knob at 8 and 4
    // executors over s = 2 servers, any instant sees at most
    // `executors × max(s × 1, 8/4) = 4 × 2 = 8` live kernel threads — not
    // the `4 × 8 = 32` the unbudgeted layers would multiply to. The rows
    // sampled (600 × 64 columns) make the coordinator-side gram clear the
    // parallel-work floor, so the budget is genuinely exercised.
    set_threads(8);
    let executors = 4;
    let servers = 2;
    let mut rng = Rng::new(9);
    let locals: Vec<Matrix> = (0..servers)
        .map(|_| Matrix::gaussian(1024, 64, &mut rng))
        .collect();
    let service = Service::new(ServiceConfig {
        executors,
        substrate: Substrate::Threaded,
        plan_cache: 0,
        metrics: true,
        ..Default::default()
    });
    let dataset = service.load("budget", locals).unwrap();
    reset_parallelism_watermark();
    let tickets: Vec<Ticket> = (0..2 * executors)
        .map(|i| {
            let query = Query::rank(8)
                .samples(600)
                .sampler(SamplerKind::Uniform)
                .seed(50 + i as u64)
                .build()
                .unwrap();
            dataset.submit(&query)
        })
        .collect();
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().output.projection.dim(), 64);
    }
    let budget = 8 / executors;
    assert!(
        parallelism_watermark() <= executors * servers.max(budget),
        "budgeted executors peaked at {} live kernel threads, bound is {}",
        parallelism_watermark(),
        executors * servers.max(budget)
    );

    set_threads(1);
}
