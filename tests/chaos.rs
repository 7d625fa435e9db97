//! Chaos/soak harness: randomized, seeded interleavings of
//! load/reload/evict/cancel/deadline/overload chaos against concurrent
//! traffic on a self-regulating [`Service`].
//!
//! One *anchor* tenant receives steady query traffic and is never the
//! subject of a lifecycle op; a small cast of *chaos* tenants is loaded,
//! reloaded, evicted (explicitly and under memory-quota pressure), and
//! queried throughout. A long-lived sentinel query pins the anchor for the
//! whole storm, so the quota sweep can never select it — by the service's
//! own pinning rule, not by test luck.
//!
//! Invariants asserted per seed, robust to thread scheduling:
//!
//! * **No panic** — the storm completes and the pool stays alive (no
//!   ticket ever resolves to `RuntimeUnavailable`).
//! * **Typed outcomes only** — every ticket resolves to `Ok` or one of
//!   `Cancelled` / `Deadline` / `DatasetEvicted` / `Overloaded`; a cancel
//!   that claimed its query (`cancel() == true`) resolves to exactly
//!   `Cancelled`.
//! * **No leak** — after the storm drains: the admission gauge is zero,
//!   resident bytes return to the anchor's exact footprint, evicted chaos
//!   payloads drop their last storage reference (refcount back to the
//!   test's own copy), and the anchor's queue/in-flight gauges are zero.
//! * **No cross-tenant plan invalidation** — the anchor's plan-cache
//!   partition records zero invalidations through every chaos op.
//!
//! The storm runs [`SEEDS`] seeds of [`OPS`] ops in every column of
//! `support::chaos_columns`: {threaded, socket} × admission bound {6, 2}.

mod support;

use dlra::prelude::*;
use dlra::util::Rng;
use std::time::Duration;
use support::{shares, submit_admitted, Column};

/// Seeds per column.
const SEEDS: u64 = 5;
/// Chaos ops per seed.
const OPS: u64 = 400;

/// 2 servers × 64×8 × 8 bytes.
const ANCHOR_BYTES: u64 = 8_192;
/// 2 servers × 16×8 × 8 bytes.
const CHAOS_BYTES: u64 = 2_048;
/// Fits the anchor plus two of four chaos tenants: a third concurrent
/// load forces the quota sweep to evict a chaos tenant (the pinned anchor
/// is never a candidate).
const BUDGET: u64 = ANCHOR_BYTES + 2 * CHAOS_BYTES + 512;

fn anchor_query(seed: u64) -> Query {
    Query::rank(2)
        .samples(20)
        .sampler(SamplerKind::Z(ZSamplerParams::default()))
        .seed(seed)
        .build()
        .unwrap()
}

fn chaos_query(seed: u64) -> Query {
    Query::rank(2)
        .samples(8)
        .sampler(SamplerKind::Uniform)
        .seed(seed)
        .build()
        .unwrap()
}

/// An outstanding ticket plus whether a `cancel()` claimed it (in which
/// case the only legal resolution is `Err(Cancelled)`).
struct Outstanding {
    ticket: Ticket,
    claimed_cancel: bool,
}

/// Resolves one outstanding ticket and asserts its outcome is typed and
/// consistent with the claims made against it.
fn settle(out: Outstanding, seed: u64, at: &str) {
    let shed = out.ticket.shed();
    let result = out.ticket.wait();
    if out.claimed_cancel {
        assert!(
            matches!(result, Err(ServiceError::Cancelled)),
            "seed {seed} {at}: cancel() == true must resolve to Cancelled, got {result:?}"
        );
        return;
    }
    if shed {
        assert!(
            matches!(result, Err(ServiceError::Overloaded { .. })),
            "seed {seed} {at}: shed ticket must resolve Overloaded, got {result:?}"
        );
        return;
    }
    match result {
        Ok(_)
        | Err(ServiceError::Cancelled)
        | Err(ServiceError::Deadline)
        | Err(ServiceError::DatasetEvicted { .. })
        | Err(ServiceError::Overloaded { .. }) => {}
        other => panic!("seed {seed} {at}: untyped chaos outcome {other:?}"),
    }
}

fn run_storm(column: Column, seed: u64) {
    let service = Service::new(ServiceConfig {
        memory_budget: Some(BUDGET),
        ..column.config(2)
    });

    let anchor_parts = shares(2, 64, 8, 2, 9_000 + seed);
    let anchor = service.load("anchor", anchor_parts.clone()).unwrap();

    // The sentinel: a heavily boosted query that outlasts the storm and is
    // cancelled at the end. From submission to resolution it pins the
    // anchor, so the quota sweep can never evict it mid-storm.
    let sentinel = anchor.submit(
        &Query::rank(2)
            .samples(20)
            .sampler(SamplerKind::Uniform)
            .boosted(2_000_000_000)
            .seed(seed)
            .build()
            .unwrap(),
    );
    assert!(!sentinel.shed(), "the first admission can never shed");
    while !sentinel.started() {
        std::thread::yield_now();
    }

    let chaos_names = ["c0", "c1", "c2", "c3"];
    // The test keeps its own clone of every chaos payload, so the leak
    // check below can observe the storage refcount drop back to 1.
    let chaos_parts: Vec<Vec<dlra::linalg::Matrix>> = (0..chaos_names.len())
        .map(|i| shares(2, 16, 8, 2, 7_000 + seed * 31 + i as u64))
        .collect();
    let mut chaos_handles: Vec<Option<DatasetHandle>> = vec![None; chaos_names.len()];

    let mut rng = Rng::new(seed);
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut quota_evictions_seen = false;

    for op in 0..OPS {
        match rng.below(8) {
            // Load a chaos tenant (possibly forcing a quota eviction).
            0 => {
                let i = rng.index(chaos_names.len());
                if service.dataset(chaos_names[i]).is_none() {
                    let handle = service
                        .load(chaos_names[i], chaos_parts[i].clone())
                        .unwrap();
                    chaos_handles[i] = Some(handle);
                }
            }
            // Reload a resident chaos tenant (bumps its epoch only).
            1 => {
                let i = rng.index(chaos_names.len());
                if service.dataset(chaos_names[i]).is_some() {
                    let _ = service.reload(chaos_names[i], chaos_parts[i].clone());
                }
            }
            // Explicitly evict a resident chaos tenant.
            2 => {
                let i = rng.index(chaos_names.len());
                let _ = service.evict(chaos_names[i]);
            }
            // Chaos traffic, possibly against a stale (evicted) handle.
            3 => {
                let i = rng.index(chaos_names.len());
                if let Some(handle) = &chaos_handles[i] {
                    outstanding.push(Outstanding {
                        ticket: handle.submit(&chaos_query(1_000 + op)),
                        claimed_cancel: false,
                    });
                }
            }
            // Chaos traffic with a tight deadline.
            4 => {
                let i = rng.index(chaos_names.len());
                if let Some(handle) = &chaos_handles[i] {
                    let micros = rng.below(300);
                    outstanding.push(Outstanding {
                        ticket: handle
                            .submit(&chaos_query(2_000 + op))
                            .deadline(Duration::from_micros(micros)),
                        claimed_cancel: false,
                    });
                }
            }
            // Cancel a random outstanding ticket.
            5 => {
                if !outstanding.is_empty() {
                    let i = rng.index(outstanding.len());
                    if outstanding[i].ticket.cancel() {
                        outstanding[i].claimed_cancel = true;
                    }
                }
            }
            // Anchor traffic: one shared plan key per seed, so the warm
            // cache keeps serving hits across every chaos op.
            6 => {
                outstanding.push(Outstanding {
                    ticket: anchor.submit(&anchor_query(seed)),
                    claimed_cancel: false,
                });
            }
            // Overload burst: rapid-fire submissions past the bound; the
            // excess sheds with the typed error.
            _ => {
                for burst in 0..8 {
                    outstanding.push(Outstanding {
                        ticket: anchor.submit(&anchor_query(3_000 + seed + burst)),
                        claimed_cancel: false,
                    });
                }
            }
        }
        // Keep the outstanding window bounded so shed tickets recycle into
        // admitted ones as the pool drains.
        while outstanding.len() > 12 {
            let next = outstanding.remove(0);
            settle(next, seed, "mid-storm");
        }
        if service.pressure().evicted_under_pressure > 0 {
            quota_evictions_seen = true;
        }
    }

    // Drain: every outstanding ticket resolves, typed.
    for out in outstanding.drain(..) {
        settle(out, seed, "drain");
    }
    // The sentinel honored the cancel mid-run and resolves to Cancelled.
    assert!(sentinel.cancel() || sentinel.started());
    assert!(matches!(
        sentinel.wait(),
        Err(ServiceError::Cancelled) | Ok(_)
    ));

    // Evict whatever chaos tenants survived the storm.
    for name in chaos_names {
        let _ = service.evict(name);
    }

    // --- Invariants -----------------------------------------------------
    // The anchor was never touched by any lifecycle op, quota sweep
    // included: zero cross-tenant plan invalidations, still serving.
    assert!(!anchor.is_evicted(), "seed {seed}: anchor must survive");
    assert_eq!(
        anchor.plan_stats().unwrap().invalidations,
        0,
        "seed {seed}: chaos ops must never invalidate the anchor's plans"
    );
    assert!(
        submit_admitted(&anchor, &anchor_query(seed)).wait().is_ok(),
        "seed {seed}: anchor must keep serving"
    );

    // No leak: the gauge is zero, bytes return to the anchor's exact
    // footprint, and — once the test's own handles are gone — no
    // service-internal reference (dataset map, plan cache, executor pool,
    // metrics) still pins an evicted chaos payload.
    drop(chaos_handles);
    let end = service.pressure();
    assert_eq!(end.admitted, 0, "seed {seed}: admissions leaked");
    assert_eq!(
        end.resident_bytes, ANCHOR_BYTES,
        "seed {seed}: byte accounting did not return to baseline"
    );
    for (i, parts) in chaos_parts.iter().enumerate() {
        for m in parts {
            assert_eq!(
                m.storage_refcount(),
                1,
                "seed {seed}: evicted tenant {} leaked matrix storage",
                chaos_names[i]
            );
        }
    }
    for (mine, resident) in anchor_parts.iter().zip(anchor.resident().iter()) {
        assert!(mine.shares_storage(resident), "seed {seed}: anchor copied");
    }
    let metrics = service.metrics().unwrap();
    let snap = metrics
        .datasets
        .iter()
        .find(|d| d.name == "anchor")
        .unwrap();
    assert_eq!(snap.queue_depth, 0, "seed {seed}: queue gauge leaked");
    assert_eq!(snap.in_flight, 0, "seed {seed}: in-flight gauge leaked");
    assert_eq!(snap.resident_bytes, ANCHOR_BYTES);
    // The storm actually exercised the pressure paths. The sentinel holds
    // one admission slot throughout and a burst submits 8 queries back to
    // back, so at any bound b ≤ 8 a burst sheds at least 9 − b of them
    // unless queries finish mid-burst.
    assert!(
        metrics.pressure.rejected_overload > 0,
        "seed {seed}: the overload bursts must shed at bound {:?}",
        column.max_queue_depth
    );
    assert!(
        quota_evictions_seen || metrics.pressure.evicted_under_pressure > 0,
        "seed {seed}: the chaos loads must trigger at least one quota eviction"
    );
}

#[test]
fn chaos_storm_holds_service_invariants_across_seeds() {
    for column in support::chaos_columns() {
        for seed in 0..SEEDS {
            run_storm(column, seed);
        }
    }
}
