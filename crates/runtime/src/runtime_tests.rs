//! Whole-runtime checks through the [`Service`](crate::Service) front
//! door: concurrent queries against direct runs, planning, copy-on-write
//! dispatch and reload, and the shutdown and dead-pool failure paths.

#[cfg(test)]
mod tests {
    use crate::query::{Query, QueryError};
    use crate::service::{Service, ServiceConfig, ServiceError, Substrate};
    use dlra_comm::Topology;
    use dlra_core::algorithm1::{run_algorithm1, SamplerKind};
    use dlra_core::functions::EntryFunction;
    use dlra_core::model::PartitionModel;
    use dlra_linalg::Matrix;
    use dlra_sampler::ZSamplerParams;
    use dlra_util::Rng;

    fn locals(s: usize, n: usize, d: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::new(seed);
        (0..s).map(|_| Matrix::gaussian(n, d, &mut rng)).collect()
    }

    fn uniform_query(k: usize, r: usize, seed: u64) -> Query {
        Query::rank(k)
            .samples(r)
            .sampler(SamplerKind::Uniform)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// Every field spelled out.
    fn config(executors: usize, substrate: Substrate, plan_cache: usize) -> ServiceConfig {
        ServiceConfig {
            executors,
            substrate,
            plan_cache,
            metrics: true,
            topology: Topology::Star,
            max_queue_depth: None,
            memory_budget: None,
        }
    }

    #[test]
    fn rejects_bad_residents() {
        let service = Service::new(config(1, Substrate::Sequential, 0));
        assert!(matches!(
            service.load("a", vec![]),
            Err(ServiceError::InvalidDataset(_))
        ));
        let mixed = vec![Matrix::zeros(3, 2), Matrix::zeros(2, 2)];
        assert!(matches!(
            service.load("a", mixed),
            Err(ServiceError::InvalidDataset(_))
        ));
        // A rejected load registers nothing.
        assert!(service.dataset("a").is_none());
        assert!(service.dataset_names().is_empty());
    }

    #[test]
    fn concurrent_queries_match_direct_runs() {
        let parts = locals(3, 60, 8, 11);
        let service = Service::new(config(4, Substrate::Threaded, 8));
        let handle = service.load("a", parts.clone()).unwrap();

        // Many concurrent queries with different (k, r, seed).
        let queries: Vec<Query> = (0..6)
            .map(|i| uniform_query(1 + i % 3, 20 + 5 * i, 100 + i as u64))
            .collect();
        let tickets: Vec<_> = queries.iter().map(|q| handle.submit(q)).collect();

        for (query, ticket) in queries.iter().zip(tickets) {
            let got = ticket.wait().unwrap().output;
            let request = query.request();
            let mut direct = PartitionModel::new(parts.clone(), request.f).unwrap();
            let want = run_algorithm1(&mut direct, &request.cfg).unwrap();
            assert_eq!(
                got.projection.basis().as_slice(),
                want.projection.basis().as_slice()
            );
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.comm, want.comm);
        }
    }

    #[test]
    fn planned_submits_match_unplanned_bit_for_bit() {
        // The same Z query through a cache-enabled and a cache-disabled
        // service: identical projection, rows, and per-query ledger.
        let parts = locals(3, 64, 8, 31);
        let query = Query::rank(2)
            .samples(30)
            .sampler(SamplerKind::Z(ZSamplerParams::default()))
            .seed(9)
            .build()
            .unwrap();
        for substrate in [Substrate::Sequential, Substrate::Threaded] {
            let planned = Service::new(config(2, substrate, 8));
            let unplanned = Service::new(config(2, substrate, 0));
            let a = planned.load("a", parts.clone()).unwrap();
            let b = unplanned.load("a", parts.clone()).unwrap();
            let a = a.submit(&query).wait().unwrap();
            let b = b.submit(&query).wait().unwrap();
            assert!(a.plan.is_some(), "cache-enabled query must be planned");
            assert!(b.plan.is_none(), "cache-disabled query must not plan");
            assert_eq!(
                a.output.projection.basis().as_slice(),
                b.output.projection.basis().as_slice()
            );
            assert_eq!(a.output.rows, b.output.rows);
            assert_eq!(a.output.comm, b.output.comm, "{substrate:?}");
        }
    }

    #[test]
    fn boosted_and_non_z_queries_bypass_the_planner() {
        let service = Service::new(config(1, Substrate::Sequential, 8));
        let handle = service.load("a", locals(2, 40, 6, 33)).unwrap();
        let boosted = Query::rank(2)
            .samples(15)
            .boosted(2)
            .sampler(SamplerKind::Z(ZSamplerParams::default()))
            .seed(1)
            .build()
            .unwrap();
        assert!(handle.submit(&boosted).wait().unwrap().plan.is_none());
        let uniform = uniform_query(2, 15, 2);
        assert!(handle.submit(&uniform).wait().unwrap().plan.is_none());
        assert_eq!(handle.plan_cache_len(), 0);
    }

    #[test]
    fn query_errors_are_delivered() {
        // A bad query is a query error, not a runtime failure: one that is bad
        // on its own cannot be built...
        assert_eq!(Query::rank(0).build().unwrap_err(), QueryError::ZeroRank);
        // ...and one that is bad for the dataset comes back through its ticket,
        // classified as the caller's mistake.
        let service = Service::new(config(1, Substrate::Sequential, 0));
        let handle = service.load("a", locals(2, 10, 4, 1)).unwrap();
        let err = handle.submit(&uniform_query(5, 10, 1)).wait().unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)), "{err}");
        assert!(err.is_caller_error() && !err.is_retryable(), "{err}");
    }

    #[test]
    fn submit_survives_total_executor_death() {
        let mut service = Service::new(config(2, Substrate::Sequential, 0));
        let handle = service.load("a", locals(2, 10, 4, 2)).unwrap();
        // Kill the whole pool: one poison task per executor, joined so the
        // death is fully observable before the next submit.
        service.poison_executors();
        // The failure arrives through the ticket, typed and naming what is
        // gone, instead of a panic on the dead queue.
        match handle.submit(&uniform_query(2, 10, 3)).wait() {
            Err(ServiceError::RuntimeUnavailable(msg)) => {
                assert!(msg.contains("executor pool"), "unhelpful message: {msg}")
            }
            other => panic!("expected RuntimeUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn submit_batch_survives_dead_pool() {
        // A batch (a loop of submits) degrades exactly like a single submit:
        // every ticket resolves to RuntimeUnavailable, in order, with no panic.
        let mut service = Service::new(config(2, Substrate::Sequential, 0));
        let handle = service.load("a", locals(2, 10, 4, 6)).unwrap();
        service.poison_executors();
        let tickets: Vec<_> = (0..3)
            .map(|i| handle.submit(&uniform_query(2, 10, 10 + i)))
            .collect();
        for ticket in tickets {
            assert!(matches!(
                ticket.wait(),
                Err(ServiceError::RuntimeUnavailable(msg)) if msg.contains("executor pool")
            ));
        }
        // And the same after a graceful shutdown.
        let mut service = Service::new(config(2, Substrate::Sequential, 0));
        let handle = service.load("a", locals(2, 10, 4, 6)).unwrap();
        service.shutdown();
        let tickets: Vec<_> = (0..3)
            .map(|i| handle.submit(&uniform_query(2, 10, 20 + i)))
            .collect();
        for ticket in tickets {
            assert!(matches!(
                ticket.wait(),
                Err(ServiceError::RuntimeUnavailable(_))
            ));
        }
    }

    #[test]
    fn submit_after_shutdown_reports_runtime_unavailable() {
        // Two tenants on the threaded substrate: shutdown lets both tenants'
        // queued work finish first...
        let mut service = Service::new(config(2, Substrate::Threaded, 0));
        let a = service.load("a", locals(2, 12, 4, 7)).unwrap();
        let b = service.load("b", locals(3, 10, 5, 8)).unwrap();
        let queued = [
            a.submit(&uniform_query(2, 10, 4)),
            b.submit(&uniform_query(2, 10, 4)),
        ];
        service.shutdown();
        for ticket in queued {
            assert!(ticket.wait().is_ok());
        }
        // ...then every handle's next submission resolves at once, never run.
        for handle in [&a, &b] {
            let late = handle.submit(&uniform_query(2, 10, 5));
            assert!(!late.started());
            // try_wait must observe the terminal state, not spin as "running".
            assert!(matches!(
                late.try_wait(),
                Some(Err(ServiceError::RuntimeUnavailable(_)))
            ));
        }
        // Shutdown is idempotent and Drop after shutdown is clean.
        service.shutdown();
    }

    #[test]
    fn dead_pool_error_is_distinguishable_from_query_errors() {
        let mut service = Service::new(config(1, Substrate::Sequential, 0));
        let handle = service.load("a", locals(2, 10, 4, 8)).unwrap();
        service.shutdown();
        // A good query on a dead pool: retry elsewhere.
        let err = handle.submit(&uniform_query(2, 10, 6)).wait().unwrap_err();
        match &err {
            ServiceError::RuntimeUnavailable(msg) => {
                assert!(msg.contains("executor"), "unhelpful message: {msg}")
            }
            other => panic!("expected RuntimeUnavailable, got {other}"),
        }
        assert!(err.is_retryable() && !err.is_caller_error());
        // A bad query on the same dead pool is still the caller's mistake.
        let err = handle.submit(&uniform_query(5, 10, 6)).wait().unwrap_err();
        assert!(matches!(err, ServiceError::InvalidQuery(_)), "{err}");
        assert!(err.is_caller_error() && !err.is_retryable());
    }

    #[test]
    fn dispatch_clones_handles_not_data() {
        let parts = locals(3, 50, 6, 21);
        for substrate in [Substrate::Sequential, Substrate::Threaded] {
            let service = Service::new(config(2, substrate, 16));
            let handle = service.load("a", parts.clone()).unwrap();
            // Residency shares the caller's storage...
            for (mine, theirs) in parts.iter().zip(handle.resident().iter()) {
                assert!(mine.shares_storage(theirs));
            }
            // ...and a completed query leaves exactly the caller + service
            // holding it (the query's shares were handles, released on
            // completion — never detached copies).
            handle.submit(&uniform_query(2, 20, 22)).wait().unwrap();
            drop(handle);
            drop(service);
            for mine in &parts {
                assert_eq!(mine.storage_refcount(), 1);
            }
        }
    }

    #[test]
    fn reload_resident_swaps_data_and_epoch() {
        let old = locals(2, 30, 6, 40);
        let new = locals(2, 24, 5, 41);
        let service = Service::new(config(2, Substrate::Sequential, 8));
        let handle = service.load("a", old.clone()).unwrap();
        assert_eq!((handle.epoch(), handle.shape()), (0, (30, 6)));

        service.reload("a", new.clone()).unwrap();
        assert_eq!((handle.epoch(), handle.shape()), (1, (24, 5)));
        for (mine, theirs) in new.iter().zip(handle.resident().iter()) {
            assert!(mine.shares_storage(theirs), "reload copied matrix data");
        }
        // The service released the old payload entirely.
        for m in &old {
            assert_eq!(m.storage_refcount(), 1);
        }

        // Queries now answer against the new data.
        let query = uniform_query(2, 12, 42);
        let got = handle.submit(&query).wait().unwrap();
        let mut direct = PartitionModel::new(new, EntryFunction::Identity).unwrap();
        let want = run_algorithm1(&mut direct, &query.request().cfg).unwrap();
        assert_eq!(
            got.output.projection.basis().as_slice(),
            want.projection.basis().as_slice()
        );

        // A bad reload leaves the dataset untouched.
        assert!(service.reload("a", vec![]).is_err());
        assert_eq!(handle.epoch(), 1);
    }

    #[test]
    fn drop_completes_in_flight_queries() {
        let service = Service::new(config(2, Substrate::Threaded, 0));
        let handle = service.load("a", locals(2, 40, 6, 5)).unwrap();
        let ticket = handle.submit(&uniform_query(2, 15, 9));
        drop(service);
        assert!(ticket.wait().is_ok());
    }
}
