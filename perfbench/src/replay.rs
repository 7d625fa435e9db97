//! Replays a workload's queries one at a time through the public calls the
//! service executor makes — construct the substrate,
//! `PlanCache::get_or_prepare` → `prepare_z_plan`, then
//! `run_algorithm1_with_plan` — optionally with spans around each call and
//! the [`Traced`] decorator around the substrate.

use crate::drive::config;
use crate::spec::{QuerySpec, Workload};
use crate::traced::{Recorder, Traced};
use dlra::comm::{Collectives, CommEvent, Topology};
use dlra::core::{
    prepare_z_plan, run_algorithm1_with_plan, Algorithm1Output, MatrixServer, PartitionModel,
    PreparedZPlan,
};
use dlra::linalg::Matrix;
use dlra::net::{SocketCluster, WireCounters, WireStats};
use dlra::runtime::{PlanCache, PlanKey, Substrate, ThreadedCluster};
use std::sync::Arc;
use std::time::Instant;

/// One replayed query: a window arrival (`index`) or a set-up query.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub index: Option<u64>,
    pub spec: QuerySpec,
    pub reload_before: bool,
}

/// What one replayed query produced.
pub struct Replayed {
    pub step: Step,
    pub qid: u64,
    pub wall_s: f64,
    pub output: Algorithm1Output,
    pub plan: Arc<PreparedZPlan>,
    pub cache_hit: bool,
    /// The query's whole ledger transcript.
    pub events: Vec<CommEvent>,
    /// Bytes the query put on sockets (zero off the socket substrate).
    pub wire: WireStats,
}

/// Replays `steps` in order, stopping early once `budget_s` seconds are
/// spent and at least one window arrival was replayed. With a recorder,
/// spans are recorded and the substrate is wrapped in the [`Traced`]
/// decorator.
pub fn replay(
    w: &Workload,
    data: &[Vec<Matrix>],
    steps: &[Step],
    rec: Option<&Arc<Recorder>>,
    budget_s: f64,
) -> Result<Vec<Replayed>, String> {
    let wire = WireCounters::shared();
    let star = Topology::Star;
    // The executor's kernel budget, as the service gives each query.
    let budget = (dlra::linalg::threads() / w.config.executors).max(1);
    dlra::linalg::with_threads(budget, || match (w.config.substrate, rec) {
        (Substrate::Sequential, _) => Err("no workload runs on the sequential substrate".into()),
        (Substrate::Threaded, None) => replay_on(w, data, steps, budget_s, None, &wire, |l, _| {
            ThreadedCluster::with_topology(l, star)
        }),
        (Substrate::Threaded, Some(r)) => {
            replay_on(w, data, steps, budget_s, Some(r), &wire, |l, q| {
                Traced::new(
                    ThreadedCluster::with_topology(l, star),
                    Arc::clone(r),
                    None,
                    q,
                )
            })
        }
        (Substrate::Socket, None) => replay_on(w, data, steps, budget_s, None, &wire, |l, _| {
            SocketCluster::with_options(l, star, Arc::clone(&wire))
        }),
        (Substrate::Socket, Some(r)) => {
            replay_on(w, data, steps, budget_s, Some(r), &wire, |l, q| {
                let inner = SocketCluster::with_options(l, star, Arc::clone(&wire));
                Traced::new(inner, Arc::clone(r), Some(Arc::clone(&wire)), q)
            })
        }
    })
}

/// Runs `f`, inside a span when recording.
fn timed<R>(
    rec: Option<&Arc<Recorder>>,
    cat: &'static str,
    name: &'static str,
    qid: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.span(cat, name, qid, f),
        None => f(),
    }
}

fn replay_on<C: Collectives<MatrixServer>>(
    w: &Workload,
    data: &[Vec<Matrix>],
    steps: &[Step],
    budget_s: f64,
    rec: Option<&Arc<Recorder>>,
    wire: &WireCounters,
    build: impl Fn(Vec<MatrixServer>, u64) -> C,
) -> Result<Vec<Replayed>, String> {
    let caches: Vec<PlanCache> = (0..w.tenants)
        .map(|_| PlanCache::new(w.config.plan_cache))
        .collect();
    let mut epochs = vec![0u64; w.tenants];
    let mut out: Vec<Replayed> = Vec::with_capacity(steps.len());
    let begun = Instant::now();
    for (qid, step) in steps.iter().enumerate() {
        if begun.elapsed().as_secs_f64() > budget_s && out.iter().any(|r| r.step.index.is_some()) {
            break;
        }
        let qid = qid as u64;
        if step.reload_before {
            epochs[0] += 1;
            caches[0].retain_epoch(epochs[0]);
        }
        let spec = step.spec;
        let tenant = spec.tenant;
        let key = PlanKey::new(tenant as u64, &w.f, &w.params, spec.seed, epochs[tenant]);
        let cfg = config(w, &spec);
        let parts = data[tenant].clone();
        let wire_before = wire.snapshot();
        let started = Instant::now();
        let (output, plan, cache_hit, events) = timed(rec, "bench", "query", qid, || {
            let mut model = timed(rec, "substrate", "substrate.construct", qid, || {
                PartitionModel::with_substrate(parts, w.f, |l| build(l, qid))
            })
            .map_err(|e| e.to_string())?;
            model.cluster().ledger().set_record_events(true);
            let (plan, hit) = timed(rec, "planner", "planner.get_or_prepare", qid, || {
                caches[tenant].get_or_prepare(&key, || {
                    timed(rec, "core", "core.prepare", qid, || {
                        prepare_z_plan(&mut model, &w.params, spec.seed)
                    })
                })
            })
            .map_err(|e| e.to_string())?;
            let output = timed(rec, "core", "core.execute", qid, || {
                run_algorithm1_with_plan(&mut model, &cfg, &plan)
            })
            .map_err(|e| e.to_string())?;
            let events = model.cluster().ledger().events();
            timed(rec, "substrate", "substrate.teardown", qid, || drop(model));
            Ok::<_, String>((output, plan, hit, events))
        })?;
        out.push(Replayed {
            step: *step,
            qid,
            wall_s: started.elapsed().as_secs_f64(),
            output,
            plan,
            cache_hit,
            events,
            wire: wire.snapshot().since(&wire_before),
        });
    }
    Ok(out)
}
