//! The service façade's acceptance suite:
//!
//! * A [`Service`] hosting two named datasets serves **interleaved
//!   concurrent queries** whose outputs and per-query ledgers are
//!   bit-identical to one-dataset services answering the same queries.
//! * `reload`/`evict` of one dataset provably leaves the other's cached
//!   plans live (stats-asserted per dataset) and never touches its
//!   in-flight queries.
//! * Cancellation before/after execution start, deadline expiry (the
//!   query resolves without running), `wait_timeout`.
//! * The typed builder rejects malformed queries at construction; the
//!   dataset-shape check resolves eagerly at submission.
//! * One dataset driven through every resolution a caller can observe
//!   keeps every metrics counter, gauge and pressure figure exact.
//!
//! Every test runs once per column of `support::service_columns`:
//! {threaded, socket} × {default, plan cache 0, plan cache 32, tree:2 with
//! plan cache 32, admission bound 2}, then traced. So every path is proven
//! planner-on and planner-off, star and tree, with shedding on and off;
//! the plan-stats assertions guard on planning being enabled.

mod support;

use dlra::prelude::*;
use std::time::Duration;
use support::{shares, submit_admitted};

fn z_query(k: usize, r: usize, seed: u64) -> Query {
    Query::rank(k)
        .samples(r)
        .sampler(SamplerKind::Z(ZSamplerParams::default()))
        .seed(seed)
        .build()
        .expect("valid query")
}

fn uniform_query(k: usize, r: usize, seed: u64) -> Query {
    Query::rank(k)
        .samples(r)
        .sampler(SamplerKind::Uniform)
        .seed(seed)
        .build()
        .expect("valid query")
}

/// The tentpole acceptance test: two resident datasets, interleaved
/// concurrent queries, per-dataset plan caches — outputs and per-query
/// ledgers bit-identical to one-dataset services answering the same
/// queries.
#[test]
fn two_datasets_interleaved_match_single_runtime_runs_bit_for_bit() {
    for column in support::service_columns() {
        let parts_a = shares(3, 120, 10, 3, 101);
        let parts_b = shares(4, 96, 8, 2, 202);
        let service = Service::new(column.config(4));
        let a = service.load("tenant-a", parts_a.clone()).unwrap();
        let b = service.load("tenant-b", parts_b.clone()).unwrap();
        assert_eq!(a.shape(), (120, 10));
        assert_eq!(b.shape(), (96, 8));

        // Four Z queries per dataset sharing one plan key, plus a uniform one
        // each (which bypasses the planner).
        let queries_a: Vec<Query> = (0..4)
            .map(|i| z_query(1 + i % 3, 20 + 5 * i, 7))
            .chain([uniform_query(2, 15, 8)])
            .collect();
        let queries_b: Vec<Query> = (0..4)
            .map(|i| z_query(1 + i % 2, 18 + 4 * i, 9))
            .chain([uniform_query(1, 12, 10)])
            .collect();

        // Interleave submissions so both tenants' queries are concurrently in
        // flight on the shared executor pool.
        let mut tickets: Vec<(usize, bool, Ticket)> = Vec::new();
        for i in 0..queries_a.len().max(queries_b.len()) {
            if let Some(q) = queries_a.get(i) {
                tickets.push((i, true, submit_admitted(&a, q)));
            }
            if let Some(q) = queries_b.get(i) {
                tickets.push((i, false, submit_admitted(&b, q)));
            }
        }

        // Reference: one-dataset services in the same column, one per
        // tenant, answering the same queries. The references answer every
        // query; only the service under test runs with the column's
        // admission bound.
        let reference_a = Service::new(column.unbounded(4));
        let reference_b = Service::new(column.unbounded(4));
        let ref_a = reference_a.load("tenant-a", parts_a).unwrap();
        let ref_b = reference_b.load("tenant-b", parts_b).unwrap();

        for (i, is_a, ticket) in tickets {
            let got = ticket.wait().expect("service query failed");
            let (reference, queries) = if is_a {
                (&ref_a, &queries_a)
            } else {
                (&ref_b, &queries_b)
            };
            let want = reference
                .submit(&queries[i])
                .wait()
                .expect("reference query failed");
            let tenant = if is_a { "a" } else { "b" };
            assert_eq!(
                got.output.projection.basis().as_slice(),
                want.output.projection.basis().as_slice(),
                "projection diverged (tenant {tenant}, query {i})"
            );
            assert_eq!(got.output.rows, want.output.rows, "tenant {tenant} q{i}");
            assert_eq!(
                got.output.comm, want.output.comm,
                "per-query ledger diverged (tenant {tenant}, query {i})"
            );
            assert_eq!(
                got.plan.is_some(),
                want.plan.is_some(),
                "planner provenance diverged (tenant {tenant}, query {i})"
            );
        }

        // Per-dataset plan caches: each tenant prepared its own single key
        // exactly once (4 Z queries → 1 miss + 3 hits), independently.
        if let (Some(sa), Some(sb)) = (a.plan_stats(), b.plan_stats()) {
            assert_eq!((sa.misses, sa.hits), (1, 3), "tenant a cache");
            assert_eq!((sb.misses, sb.hits), (1, 3), "tenant b cache");
            assert_eq!(a.plan_cache_len(), 1);
            assert_eq!(b.plan_cache_len(), 1);
        }
    }
}

/// Reload and evict of dataset A never invalidate B's cached plans or
/// in-flight queries — stats-asserted per dataset.
#[test]
fn reload_and_evict_of_one_dataset_leave_the_other_live() {
    for column in support::service_columns() {
        let parts_a = shares(3, 100, 10, 3, 31);
        let parts_a2 = shares(3, 100, 10, 3, 32);
        let parts_b = shares(2, 80, 8, 2, 33);
        let service = Service::new(column.config(2));
        let a = service.load("a", parts_a).unwrap();
        let b = service.load("b", parts_b.clone()).unwrap();

        let qa = z_query(2, 20, 5);
        let qb = z_query(2, 22, 6);

        // Warm both tenants' caches: one miss then one hit each.
        a.submit(&qa).wait().unwrap();
        a.submit(&qa).wait().unwrap();
        let before_b = b.submit(&qb).wait().unwrap();
        b.submit(&qb).wait().unwrap();
        let planning = a.plan_stats().is_some();
        if planning {
            assert_eq!(
                (a.plan_stats().unwrap().misses, a.plan_stats().unwrap().hits),
                (1, 1)
            );
            assert_eq!(
                (b.plan_stats().unwrap().misses, b.plan_stats().unwrap().hits),
                (1, 1)
            );
        }

        // Submit a B query, then reload A while it is in flight: the B query
        // must complete against its own (untouched) data.
        let in_flight_b = b.submit(&qb);
        service.reload("a", parts_a2.clone()).unwrap();
        let during = in_flight_b
            .wait()
            .expect("B in-flight query survived A's reload");
        assert_eq!(
            during.output.projection.basis().as_slice(),
            before_b.output.projection.basis().as_slice(),
            "A's reload changed B's answer"
        );

        assert_eq!(a.epoch(), 1, "A reloaded");
        assert_eq!(b.epoch(), 0, "B's epoch must not move on A's reload");
        if planning {
            // A's partition was invalidated; B's plans stay live and keep
            // serving hits with no new misses.
            let sa = a.plan_stats().unwrap();
            assert_eq!(a.plan_cache_len(), 0, "A's stale plans must drop");
            assert!(sa.invalidations >= 1, "A must record the invalidation");
            let sb0 = b.plan_stats().unwrap();
            assert_eq!(b.plan_cache_len(), 1, "B's plan must stay cached");
            assert_eq!(sb0.invalidations, 0, "B must see no invalidation");
            let after_b = b.submit(&qb).wait().unwrap();
            let sb1 = b.plan_stats().unwrap();
            assert_eq!(sb1.misses, sb0.misses, "B re-prepared after A's reload");
            assert_eq!(sb1.hits, sb0.hits + 1, "B's cached plan must serve a hit");
            assert!(after_b.plan.unwrap().cache_hit);
            assert_eq!(
                after_b.output.projection.basis().as_slice(),
                before_b.output.projection.basis().as_slice()
            );
        }

        // A answers from the new data (and re-prepares if planning), exactly
        // like a direct run under the column's topology.
        let reloaded_a = a.submit(&qa).wait().unwrap();
        let want =
            run_algorithm1(&mut column.reference_model(parts_a2), &qa.request().cfg).unwrap();
        assert_eq!(
            reloaded_a.output.projection.basis().as_slice(),
            want.projection.basis().as_slice()
        );
        assert_eq!(reloaded_a.output.comm, want.comm);

        // Evict A: its handle reports eviction, B keeps serving from cache.
        service.evict("a").unwrap();
        assert!(a.is_evicted());
        assert!(!b.is_evicted());
        assert!(matches!(
            a.submit(&qa).wait(),
            Err(ServiceError::DatasetEvicted { dataset }) if dataset == "a"
        ));
        let survivor = b.submit(&qb).wait().unwrap();
        assert_eq!(
            survivor.output.projection.basis().as_slice(),
            before_b.output.projection.basis().as_slice(),
            "A's eviction changed B's answer"
        );
        if planning {
            assert_eq!(b.plan_cache_len(), 1, "B's plan must survive A's eviction");
            assert_eq!(
                b.plan_stats().unwrap().invalidations,
                0,
                "B must never be invalidated by A's lifecycle"
            );
        }
        // B's payload is still the storage the caller loaded (copy-on-write).
        for (mine, theirs) in parts_b.iter().zip(b.resident().iter()) {
            assert!(mine.shares_storage(theirs));
        }
    }
}

/// Keeps a single executor busy so that queries submitted behind the
/// blockers sit in the queue deterministically.
fn submit_blockers(handle: &DatasetHandle, count: usize) -> Vec<Ticket> {
    let blockers: Vec<Ticket> = (0..count)
        .map(|i| handle.submit(&z_query(4, 120, 1000 + i as u64)))
        .collect();
    // Wait until the pool has actually started chewing on the first one.
    while !blockers[0].started() {
        std::thread::yield_now();
    }
    blockers
}

#[test]
fn cancellation_before_and_after_execution_start() {
    for column in support::service_columns() {
        let service = Service::new(column.unbounded(1));
        let handle = service.load("d", shares(2, 512, 16, 4, 77)).unwrap();
        let blockers = submit_blockers(&handle, 3);

        // Cancel while queued: drop-before-execute is guaranteed.
        let victim = handle.submit(&uniform_query(2, 20, 2));
        assert!(
            victim.cancel(),
            "cancel before execution must report drop-before-execute"
        );
        assert!(matches!(victim.wait(), Err(ServiceError::Cancelled)));

        // The blockers are untouched by the cancellation.
        for blocker in blockers {
            assert!(blocker.wait().is_ok());
        }

        // Cancel after the query already resolved: too late, typed as such.
        let done = handle.submit(&uniform_query(2, 20, 3));
        let result = loop {
            if let Some(result) = done.try_wait() {
                break result;
            }
            std::thread::yield_now();
        };
        assert!(result.is_ok());
        assert!(done.started());
        assert!(
            !done.cancel(),
            "cancel after execution must report it was too late"
        );
    }
}

#[test]
fn deadline_expiry_resolves_without_running() {
    for column in support::service_columns() {
        let service = Service::new(column.unbounded(1));
        let handle = service.load("d", shares(2, 512, 16, 4, 88)).unwrap();

        // A deadline carried by the builder is seeded into the ticket before
        // dispatch, so even an idle executor observes it as already expired:
        // typed error, the protocol never runs.
        let dead = handle.submit(
            &Query::rank(2)
                .samples(25)
                .sampler(SamplerKind::Uniform)
                .seed(556)
                .deadline(Duration::ZERO)
                .build()
                .unwrap(),
        );
        assert!(matches!(dead.wait(), Err(ServiceError::Deadline)));

        // A post-submission `Ticket::deadline` needs the executor to still be
        // busy when it lands — park the queue behind blockers so the store is
        // deterministically ordered before the pop. The expired Z query's key
        // must never reach the plan cache (planning enabled): the blockers
        // account for every cached plan.
        let blockers = submit_blockers(&handle, 2);
        let dead = handle.submit(&z_query(2, 30, 555)).deadline(Duration::ZERO);
        assert!(matches!(dead.wait(), Err(ServiceError::Deadline)));
        for blocker in blockers {
            assert!(blocker.wait().is_ok());
        }
        if handle.plan_stats().is_some() {
            assert_eq!(
                handle.plan_cache_len(),
                2,
                "an expired query must never prepare a plan (only the 2 blockers may)"
            );
        }

        // A generous deadline never fires.
        let alive = handle
            .submit(&uniform_query(2, 25, 557))
            .deadline(Duration::from_secs(120));
        assert!(alive.wait().is_ok());
    }
}

/// A cancellation issued *after* execution has started interrupts the
/// protocol between boosting repetitions — before this release the run
/// always completed and the cancellation was reported as "too late".
#[test]
fn cancellation_interrupts_a_running_query() {
    for column in support::service_columns() {
        let service = Service::new(column.config(1));
        let handle = service.load("d", shares(2, 512, 16, 4, 121)).unwrap();

        // Heavily boosted uniform query: long-running, planner-bypassing, so
        // the only place the stop signal can be observed is inside the
        // boosting loop itself.
        let long = Query::rank(3)
            .samples(60)
            .sampler(SamplerKind::Uniform)
            .boosted(50_000)
            .seed(9)
            .build()
            .unwrap();
        let ticket = handle.submit(&long);
        while !ticket.started() {
            std::thread::yield_now();
        }
        ticket.cancel();
        assert!(
            matches!(ticket.wait(), Err(ServiceError::Cancelled)),
            "a cancel observed mid-run must abandon the protocol"
        );
    }
}

/// A deadline that expires *while the protocol is running* interrupts it
/// promptly with the typed error — enforcement is no longer confined to
/// the pre-dispatch and prepare→execute checkpoints.
#[test]
fn deadline_interrupts_a_running_query() {
    for column in support::service_columns() {
        let service = Service::new(column.config(1));
        let handle = service.load("d", shares(2, 512, 16, 4, 131)).unwrap();

        let ticket = handle
            .submit(
                &Query::rank(3)
                    .samples(60)
                    .sampler(SamplerKind::Uniform)
                    .boosted(50_000)
                    .seed(10)
                    .build()
                    .unwrap(),
            )
            .deadline(Duration::from_millis(25));
        // The executor pool is idle, so the query starts well before the
        // deadline: passing the pre-dispatch checkpoint proves the expiry
        // below was caught inside the run.
        while !ticket.started() {
            std::thread::yield_now();
        }
        assert!(
            matches!(ticket.wait(), Err(ServiceError::Deadline)),
            "a deadline expiring mid-run must abandon the protocol"
        );
    }
}

#[test]
fn wait_timeout_returns_the_ticket_on_timeout() {
    for column in support::service_columns() {
        let service = Service::new(column.unbounded(1));
        let handle = service.load("d", shares(2, 512, 16, 4, 99)).unwrap();
        let _blockers = submit_blockers(&handle, 3);

        // Queued behind the blockers: a tiny wait times out and hands the
        // ticket back; the caller can then cancel it — the serving pattern
        // "wait 1 ms, then give up".
        let slow = handle.submit(&uniform_query(2, 20, 4));
        match slow.wait_timeout(Duration::from_millis(1)) {
            Ok(result) => {
                // Single-core schedulers may legitimately finish everything
                // first; then the result must simply be valid.
                assert!(result.is_ok());
            }
            Err(ticket) => {
                ticket.cancel();
                assert!(matches!(
                    ticket.wait(),
                    Err(ServiceError::Cancelled) | Ok(_)
                ));
            }
        }

        // A completed query resolves within any reasonable timeout.
        let fast = handle.submit(&uniform_query(1, 10, 5));
        match fast.wait_timeout(Duration::from_secs(120)) {
            Ok(result) => assert!(result.is_ok()),
            Err(_) => panic!("resolved query must not time out"),
        }
    }
}

#[test]
fn typed_builder_and_shape_validation() {
    assert_eq!(Query::rank(0).build().unwrap_err(), QueryError::ZeroRank);
    assert_eq!(
        Query::rank(2).samples(0).build().unwrap_err(),
        QueryError::ZeroSamples
    );
    assert_eq!(
        Query::rank(2).boosted(0).build().unwrap_err(),
        QueryError::ZeroBoost
    );
    assert!(matches!(
        Query::rank(2)
            .function(EntryFunction::Max)
            .sampler(SamplerKind::Z(ZSamplerParams::default()))
            .build(),
        Err(QueryError::UnsupportedFunction { .. })
    ));

    for column in support::service_columns() {
        // The dataset-dependent check resolves eagerly at submission.
        let service = Service::new(column.config(1));
        let handle = service.load("d", shares(2, 40, 6, 2, 11)).unwrap();
        let too_wide = uniform_query(7, 10, 1);
        assert!(matches!(
            handle.submit(&too_wide).wait(),
            Err(ServiceError::InvalidQuery(
                QueryError::RankExceedsDimension { k: 7, d: 6 }
            ))
        ));

        // A boosted, non-identity query built through the builder runs fine.
        let fancy = Query::rank(2)
            .samples(18)
            .function(EntryFunction::Huber { k: 1.5 })
            .sampler(SamplerKind::Z(ZSamplerParams::default()))
            .boosted(2)
            .seed(42)
            .build()
            .unwrap();
        let out = handle.submit(&fancy).wait().unwrap();
        assert_eq!(out.output.projection.dim(), 6);
        assert!(out.plan.is_none(), "boosted queries bypass the planner");
    }
}

/// Bounded admission: with the pool saturated up to the configured bound,
/// the next submission sheds — a typed, retryable `Overloaded` resolved at
/// submission, visible in the pressure snapshot and both metric exports —
/// and admission reopens as soon as the pool drains.
#[test]
fn overload_sheds_with_typed_error_and_reopens_after_drain() {
    for column in support::service_columns() {
        let service = Service::new(ServiceConfig {
            max_queue_depth: Some(2),
            ..column.config(1)
        });
        let handle = service.load("d", shares(2, 512, 16, 4, 155)).unwrap();
        // Fill the bound exactly: one executing, one queued.
        let blockers = submit_blockers(&handle, 2);

        let shed = handle.submit(&uniform_query(2, 20, 1));
        assert!(shed.shed(), "the submission over the bound must shed");
        match shed.wait() {
            Err(err @ ServiceError::Overloaded { .. }) => {
                assert!(err.is_retryable());
                assert!(!err.is_caller_error());
                if let ServiceError::Overloaded { queue_depth, limit } = err {
                    assert_eq!((queue_depth, limit), (2, 2));
                }
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let snap = service.pressure();
        assert_eq!(snap.max_queue_depth, Some(2));
        assert!(snap.rejected_overload >= 1);

        for blocker in blockers {
            assert!(blocker.wait().is_ok(), "blockers are untouched by the shed");
        }
        // The pool drained; admission reopens.
        let retry = submit_admitted(&handle, &uniform_query(2, 20, 2));
        assert!(!retry.shed());
        assert!(retry.wait().is_ok());
        assert_eq!(
            service.pressure().admitted,
            0,
            "every admission must be released at resolution"
        );

        // The shed shows up per dataset and in both exports.
        let metrics = service.metrics().expect("metrics are on");
        let d = &metrics.datasets[0];
        assert!(d.rejected_overload >= 1);
        assert!(d.rejected >= d.rejected_overload, "overload is a subset");
        assert!(metrics.to_json().contains("\"rejected_overload\""));
        assert!(metrics
            .to_prometheus()
            .contains("dlra_service_rejected_overload_total"));
    }
}

/// Memory quotas: a load pushing the resident total over the budget evicts
/// the least-recently-dispatched dataset — unless that dataset is pinned
/// by an in-flight query, in which case the next-oldest unpinned tenant
/// goes instead, and the pinned query completes untouched.
#[test]
fn memory_quota_evicts_lru_and_respects_pins() {
    for column in support::service_columns() {
        // shares(2, 64, 8, ..) = 2 servers × 64×8 × 8 bytes = 8192 bytes.
        let small = |seed| shares(2, 64, 8, 2, seed);

        // LRU across tenants: a (oldest) goes when c arrives over budget.
        let service = Service::new(ServiceConfig {
            memory_budget: Some(20_000),
            ..column.unbounded(1)
        });
        let a = service.load("a", small(41)).unwrap();
        let b = service.load("b", small(42)).unwrap();
        assert_eq!(service.pressure().resident_bytes, 16_384);
        let c = service.load("c", small(43)).unwrap();
        assert!(a.is_evicted(), "the LRU tenant must be quota-evicted");
        assert!(!b.is_evicted() && !c.is_evicted());
        assert!(service.dataset("a").is_none());
        let snap = service.pressure();
        assert_eq!(snap.resident_bytes, 16_384);
        assert_eq!(snap.evicted_under_pressure, 1);
        assert!(matches!(
            a.submit(&uniform_query(2, 10, 1)).wait(),
            Err(ServiceError::DatasetEvicted { dataset }) if dataset == "a"
        ));
        assert!(b.submit(&uniform_query(2, 10, 2)).wait().is_ok());

        // Pinning: the oldest tenant has a query in flight, so the sweep
        // skips it and evicts the next-oldest instead.
        let service = Service::new(ServiceConfig {
            memory_budget: Some(140_000),
            ..column.unbounded(1)
        });
        // shares(2, 512, 16, ..) = 2 × 512×16 × 8 = 131072 bytes.
        let a = service.load("a", shares(2, 512, 16, 4, 51)).unwrap();
        let b = service.load("b", small(52)).unwrap();
        // Long query pins `a` (and bumps its tick); reload bumps `b` above it,
        // so `a` is both LRU *and* pinned when `c` arrives.
        let pinned = submit_blockers(&a, 1).pop().unwrap();
        service.reload("b", small(53)).unwrap();
        let c = service.load("c", small(54)).unwrap();
        assert!(
            !a.is_evicted(),
            "a dataset with a query in flight must never be evicted"
        );
        assert!(
            b.is_evicted(),
            "the next-oldest unpinned tenant goes instead"
        );
        assert!(!c.is_evicted());
        assert!(
            pinned.wait().is_ok(),
            "the pinned query completes against its own payload"
        );
        assert_eq!(service.pressure().resident_bytes, 131_072 + 8_192);
        assert_eq!(service.pressure().evicted_under_pressure, 1);

        // Drain everything: byte accounting returns to zero.
        service.evict("a").unwrap();
        service.evict("c").unwrap();
        let end = service.pressure();
        assert_eq!(end.resident_bytes, 0);
        assert_eq!(end.admitted, 0);
    }
}

/// Regression: a caller that times out in `wait_timeout` and then cancels
/// races the executor. Whatever the interleaving, `cancel() == true` must
/// imply the ticket resolves to exactly `Err(Cancelled)` — never a
/// delivered result and never `RuntimeUnavailable`.
#[test]
fn cancel_after_timeout_resolves_to_exactly_one_terminal_state() {
    for column in support::service_columns() {
        let service = Service::new(column.unbounded(1));
        let handle = service.load("d", shares(2, 512, 16, 4, 144)).unwrap();
        for round in 0u64..24 {
            let ticket = handle.submit(&uniform_query(2, 18, 600 + round));
            // Sweep the timeout across rounds so the cancel lands at varied
            // points of the query lifecycle.
            let ticket = match ticket.wait_timeout(Duration::from_micros(50 * round)) {
                Ok(result) => {
                    assert!(result.is_ok(), "round {round}");
                    continue;
                }
                Err(ticket) => ticket,
            };
            let claimed = ticket.cancel();
            let outcome = ticket.wait();
            if claimed {
                assert!(
                    matches!(outcome, Err(ServiceError::Cancelled)),
                    "cancel() == true must resolve to Cancelled (round {round})"
                );
            } else {
                // Too late to drop it: the executor delivers its own outcome
                // (possibly honoring the cancel request mid-run).
                assert!(
                    matches!(outcome, Ok(_) | Err(ServiceError::Cancelled)),
                    "round {round}"
                );
            }
        }
    }
}

/// A NaN or infinite share entry is a typed `InvalidDataset` naming the
/// server and the entry, at load and at reload, instead of a panic inside a
/// sketch that kills the executor; a rejected reload leaves the previous
/// epoch serving.
#[test]
fn non_finite_entries_are_rejected_at_load_and_reload() {
    for column in support::service_columns() {
        let service = Service::new(column.config(1));
        let mut poisoned = shares(3, 40, 6, 2, 15);
        poisoned[1][(7, 2)] = f64::NAN;
        match service.load("nan", poisoned).err() {
            Some(ServiceError::InvalidDataset(m)) => {
                assert!(m.contains("server 1") && m.contains("(7, 2)"), "{m}")
            }
            other => panic!("NaN entry accepted: {:?}", other.map(|e| e.to_string())),
        }
        assert!(service.dataset("nan").is_none());

        let handle = service.load("d", shares(3, 40, 6, 2, 16)).unwrap();
        let query = z_query(2, 20, 5);
        let before = submit_admitted(&handle, &query).wait().unwrap();
        let mut infinite = shares(3, 40, 6, 2, 17);
        infinite[2][(0, 5)] = f64::NEG_INFINITY;
        match service.reload("d", infinite) {
            Err(ServiceError::InvalidDataset(m)) => {
                assert!(m.contains("server 2") && m.contains("(0, 5)"), "{m}")
            }
            other => panic!("infinite entry accepted: {other:?}"),
        }
        assert_eq!(
            handle.epoch(),
            0,
            "a rejected reload must not bump the epoch"
        );
        let after = submit_admitted(&handle, &query).wait().unwrap();
        assert_eq!(
            after.output.projection.basis().as_slice(),
            before.output.projection.basis().as_slice(),
            "the old data must keep serving"
        );
        assert_eq!(after.output.rows, before.output.rows);
    }
}

/// One dataset driven through every resolution a caller can observe — a
/// planned and an unplanned completion, a `k > d` rejection, a shed, a
/// cancel and two expired deadlines while queued, a protocol failure and a
/// submission after shutdown — with every counter and gauge of its metrics
/// snapshot, and the service's pressure, asserted exactly.
#[test]
fn every_resolution_is_counted_exactly_once() {
    use dlra::comm::LedgerSnapshot;
    use dlra::core::CoreError;
    for column in support::service_columns() {
        let planning = column.plan_cache > 0;
        // Two blockers, a cancel and two deadlines fill the bound exactly.
        let mut service = Service::new(ServiceConfig {
            max_queue_depth: Some(5),
            ..column.config(1)
        });
        let handle = service.load("d", shares(2, 512, 16, 4, 71)).unwrap();
        let mut completed = Vec::new();

        // Planned (a miss, then a hit) and unplanned completions.
        for hit in [false, true] {
            let outcome = handle.submit(&z_query(2, 30, 5)).wait().unwrap();
            assert_eq!(outcome.plan.map(|p| p.cache_hit), planning.then_some(hit));
            completed.push(outcome);
        }
        let outcome = handle.submit(&uniform_query(2, 20, 6)).wait().unwrap();
        assert!(outcome.plan.is_none());
        completed.push(outcome);

        // Rejected at submission: k exceeds d.
        assert!(matches!(
            handle.submit(&uniform_query(17, 10, 1)).wait(),
            Err(ServiceError::InvalidQuery(
                QueryError::RankExceedsDimension { k: 17, d: 16 }
            ))
        ));

        // Queued behind the blockers: a cancel, a deadline expired at
        // submission, and a deadline that only `Ticket::deadline` sets.
        let blockers = submit_blockers(&handle, 2);
        let cancelled = handle.submit(&z_query(2, 30, 7));
        assert!(cancelled.cancel());
        let expired = handle.submit(
            &Query::rank(2)
                .samples(30)
                .sampler(SamplerKind::Z(ZSamplerParams::default()))
                .seed(8)
                .deadline(Duration::ZERO)
                .build()
                .unwrap(),
        );
        let unbounded = Query::rank(2)
            .samples(30)
            .sampler(SamplerKind::Z(ZSamplerParams::default()))
            .seed(9)
            .deadline(Duration::MAX)
            .build()
            .unwrap();
        let tightened = handle.submit(&unbounded).deadline(Duration::ZERO);

        // The bound is full: the next submission sheds.
        let shed = handle.submit(&uniform_query(2, 20, 10));
        assert!(shed.shed());
        assert!(matches!(
            shed.wait(),
            Err(ServiceError::Overloaded {
                queue_depth: 5,
                limit: 5
            })
        ));
        assert!(matches!(cancelled.wait(), Err(ServiceError::Cancelled)));
        assert!(matches!(expired.wait(), Err(ServiceError::Deadline)));
        assert!(matches!(tightened.wait(), Err(ServiceError::Deadline)));
        for blocker in blockers {
            completed.push(blocker.wait().unwrap());
        }

        // A protocol failure: no Z mass to sample from.
        let zeros = vec![dlra::linalg::Matrix::zeros(64, 16); 2];
        service.reload("d", zeros).unwrap();
        assert!(matches!(
            handle.submit(&z_query(2, 30, 11)).wait(),
            Err(ServiceError::Execution(CoreError::SamplerExhausted))
        ));

        // After shutdown every submission resolves to RuntimeUnavailable.
        service.shutdown();
        assert!(matches!(
            handle.submit(&uniform_query(2, 20, 12)).wait(),
            Err(ServiceError::RuntimeUnavailable(_))
        ));

        let metrics = service.metrics().expect("metrics are on");
        assert_eq!(metrics.datasets.len(), 1);
        let snap = &metrics.datasets[0];
        let counters = (
            snap.submitted,
            snap.completed,
            snap.failed,
            snap.cancelled,
            snap.expired,
            snap.rejected,
            snap.rejected_overload,
        );
        assert_eq!(counters, (9, 5, 1, 1, 2, 3, 1), "{snap}");
        assert_eq!((snap.queue_depth, snap.in_flight), (0, 0));
        assert_eq!(snap.resident_bytes, 2 * 64 * 16 * 8);
        // Latency and execute count the completions; prepare counts the
        // planned ones (the failed preparation records nothing).
        let planned = if planning { 4 } else { 0 };
        let counts = (snap.latency.count, snap.prepare.count, snap.execute.count);
        assert_eq!(counts, (5, planned, 5));
        let (hits, misses) = if planning { (1, 3) } else { (0, 0) };
        assert_eq!((snap.plan_hits, snap.plan_misses), (hits, misses));
        let expected_cache = planning.then_some(PlanCacheStats {
            hits,
            misses,
            evictions: 0,
            invalidations: 3,
        });
        assert_eq!(snap.plan_cache, expected_cache);

        // Words: every completion's charge; a preparation's words count
        // once, for the query that paid it.
        let mut comm = LedgerSnapshot::default();
        let (mut paid, mut shared) = (comm, comm);
        for outcome in &completed {
            comm += outcome.output.comm;
            match outcome.plan {
                Some(plan) if plan.cache_hit => shared += plan.prepare_comm,
                Some(plan) => paid += plan.prepare_comm,
                None => {}
            }
        }
        assert_eq!(snap.comm, comm);
        assert_eq!(snap.prepare_comm, paid);
        assert_eq!(snap.execute_comm + paid + shared, comm);

        assert_eq!(
            service.pressure(),
            PressureSnapshot {
                admitted: 0,
                max_queue_depth: Some(5),
                resident_bytes: 2 * 64 * 16 * 8,
                memory_budget: None,
                rejected_overload: 1,
                evicted_under_pressure: 0,
            }
        );
        service.evict("d").unwrap();
        assert_eq!(service.pressure().resident_bytes, 0);
        assert!(service.metrics().unwrap().datasets.is_empty());
    }
}

#[test]
fn shutdown_and_dataset_registry_errors_are_typed() {
    for column in support::service_columns() {
        let mut service = Service::new(column.config(1));
        let handle = service.load("d", shares(2, 30, 6, 2, 13)).unwrap();
        assert!(matches!(
            service.load("d", shares(2, 30, 6, 2, 14)),
            Err(ServiceError::DatasetExists(_))
        ));
        assert!(matches!(
            service.reload("ghost", shares(2, 30, 6, 2, 14)),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.evict("ghost"),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.load("bad", vec![]),
            Err(ServiceError::InvalidDataset(_))
        ));

        let mut names = service.dataset_names();
        names.sort();
        assert_eq!(names, ["d"]);
        assert!(service.dataset("d").is_some());
        assert!(service.dataset("ghost").is_none());

        service.shutdown();
        assert!(matches!(
            handle.submit(&uniform_query(2, 10, 1)).wait(),
            Err(ServiceError::RuntimeUnavailable(_))
        ));
    }
}
