//! Drives the public `Service` the way a caller does: set-up, then a
//! closed-loop or open-loop measurement window.

use crate::spec::{Load, QuerySpec, Workload};
use dlra::core::{Algorithm1Config, SamplerKind};
use dlra::linalg::Matrix;
use dlra::runtime::{DatasetHandle, Query, QueryOutcome, Service, ServiceError, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Threads blocked on open-loop tickets. More than the executors can ever
/// hold in flight at once, so a slow ticket does not delay the
/// observation of a later one.
const WAITERS: usize = 16;

/// One attempted query of the measurement window.
#[derive(Debug)]
pub struct Record {
    pub index: u64,
    pub spec: QuerySpec,
    /// Duration of the `DatasetHandle::submit` call.
    pub submit_s: f64,
    /// Closed loop: submit → `Ticket::wait` return. Open loop: due time →
    /// `Ticket::wait` return.
    pub latency_s: f64,
    /// How late the open-loop generator sent it (0 in a closed loop).
    pub late_s: f64,
    pub result: Result<QueryOutcome, ServiceError>,
}

/// The measurement window.
#[derive(Debug)]
pub struct Window {
    /// Sorted by index.
    pub records: Vec<Record>,
    /// Window start to the last completion.
    pub elapsed_s: f64,
    pub reloads: u64,
}

pub fn tenant_name(w: &Workload, t: usize) -> String {
    format!("{}-{t}", w.name)
}

pub fn config(w: &Workload, spec: &QuerySpec) -> Algorithm1Config {
    Algorithm1Config {
        k: spec.k,
        r: spec.r,
        boost: 1,
        sampler: SamplerKind::Z(w.params.clone()),
        seed: spec.seed,
    }
}

fn build_query(w: &Workload, spec: &QuerySpec) -> Query {
    Query::rank(spec.k)
        .samples(spec.r)
        .function(w.f)
        .sampler(SamplerKind::Z(w.params.clone()))
        .boosted(1)
        .seed(spec.seed)
        .build()
        .expect("pinned queries are valid")
}

/// `Service::new` + `Service::load` of every tenant + the warm-up queries.
/// Returns the service, its handles and the set-up time in seconds.
pub fn setup(
    w: &Workload,
    data: &[Vec<Matrix>],
    seed: u64,
) -> Result<(Service, Vec<DatasetHandle>, f64), String> {
    let start = Instant::now();
    let service = Service::new(w.config.clone());
    let handles = data
        .iter()
        .enumerate()
        .map(|(t, parts)| service.load(&tenant_name(w, t), parts.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("load: {e}"))?;
    for spec in w.warmups(seed) {
        handles[spec.tenant]
            .submit(&build_query(w, &spec))
            .wait()
            .map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok((service, handles, start.elapsed().as_secs_f64()))
}

/// Runs the window for `seconds` and waits for every query it sent.
/// `reload_data` supplies one fresh copy of tenant 0 per reload.
pub fn run_window(
    w: &Workload,
    service: &Service,
    handles: &[DatasetHandle],
    seed: u64,
    seconds: f64,
    reload_data: impl FnMut() -> Vec<Matrix>,
) -> Window {
    let mut window = match w.load {
        Load::Closed { clients } => closed(w, handles, seed, seconds, clients),
        Load::Open { rate_qps, .. } => {
            open(w, service, handles, seed, seconds, rate_qps, reload_data)
        }
    };
    window.records.sort_by_key(|r| r.index);
    window
}

fn closed(
    w: &Workload,
    handles: &[DatasetHandle],
    seed: u64,
    seconds: f64,
    clients: usize,
) -> Window {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                while start.elapsed().as_secs_f64() < seconds {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let spec = w.query(seed, index);
                    let query = build_query(w, &spec);
                    let sent = Instant::now();
                    let ticket = handles[spec.tenant].submit(&query);
                    let submit_s = sent.elapsed().as_secs_f64();
                    let result = ticket.wait();
                    let record = Record {
                        index,
                        spec,
                        submit_s,
                        latency_s: sent.elapsed().as_secs_f64(),
                        late_s: 0.0,
                        result,
                    };
                    records.lock().expect("records lock").push(record);
                }
            });
        }
    });
    Window {
        records: records.into_inner().expect("records lock"),
        elapsed_s: start.elapsed().as_secs_f64(),
        reloads: 0,
    }
}

/// Runs two closed-loop clients for `seconds` and discards their records.
pub fn prewarm(w: &Workload, handles: &[DatasetHandle], seed: u64, seconds: f64) {
    closed(w, handles, seed, seconds, 2);
}

/// Arrival offsets (seconds) in `[0, seconds)`, evenly spaced at
/// `rate_qps`. Even spacing gives every reload stall the same arrival
/// pattern, so run-to-run differences come from the system, not from
/// where random arrivals happened to cluster.
pub fn arrivals(rate_qps: f64, seconds: f64) -> Vec<f64> {
    (0..)
        .map(|i| f64::from(i) / rate_qps)
        .take_while(|&t| t < seconds)
        .collect()
}

/// Open-loop latency: from the due time, so time the generator spent late
/// counts against the query.
pub fn open_loop_latency(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64()
}

struct InFlight {
    index: u64,
    spec: QuerySpec,
    due: Instant,
    submit_s: f64,
    late_s: f64,
    ticket: Ticket,
}

fn open(
    w: &Workload,
    service: &Service,
    handles: &[DatasetHandle],
    seed: u64,
    seconds: f64,
    rate_qps: f64,
    mut reload_data: impl FnMut() -> Vec<Matrix>,
) -> Window {
    let schedule = arrivals(rate_qps, seconds);
    // Queries are built before the window so the generator only sends.
    let queries: Vec<(QuerySpec, Query)> = (0..schedule.len() as u64)
        .map(|i| {
            let spec = w.query(seed, i);
            (spec, build_query(w, &spec))
        })
        .collect();
    let reload_copies: Vec<Vec<Matrix>> = (0..schedule.len() as u64)
        .filter(|&i| w.reload_before(i))
        .map(|_| reload_data())
        .collect();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let rx = Mutex::new(rx);
    let records = Mutex::new(Vec::new());
    let mut reloads = 0;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            scope.spawn(|| loop {
                let next = rx.lock().expect("waiter queue lock").recv();
                let Ok(q) = next else { break };
                let result = q.ticket.wait();
                let record = Record {
                    index: q.index,
                    spec: q.spec,
                    submit_s: q.submit_s,
                    latency_s: open_loop_latency(q.due, Instant::now()),
                    late_s: q.late_s,
                    result,
                };
                records.lock().expect("records lock").push(record);
            });
        }
        let mut copies = reload_copies.into_iter();
        for (i, (&offset, (spec, query))) in schedule.iter().zip(&queries).enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if w.reload_before(i as u64) {
                let parts = copies.next().expect("one copy per reload");
                service
                    .reload(&tenant_name(w, 0), parts)
                    .expect("tenant 0 is resident");
                reloads += 1;
            }
            let sent = Instant::now();
            let ticket = handles[spec.tenant].submit(query);
            let submit_s = sent.elapsed().as_secs_f64();
            tx.send(InFlight {
                index: i as u64,
                spec: *spec,
                due,
                submit_s,
                late_s: sent.saturating_duration_since(due).as_secs_f64(),
                ticket,
            })
            .expect("waiters outlive the generator");
        }
        drop(tx);
    });
    Window {
        records: records.into_inner().expect("records lock"),
        elapsed_s: start.elapsed().as_secs_f64(),
        reloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(5);
        let latency = open_loop_latency(due, done);
        assert!((latency - 0.035).abs() < 1e-9, "{latency}");
        // A completion observed before the due time (clock granularity)
        // never yields a negative latency.
        assert_eq!(open_loop_latency(done, due), 0.0);
    }

    #[test]
    fn arrivals_are_evenly_spaced_at_the_rate() {
        let a = arrivals(200.0, 10.0);
        assert_eq!(a.len(), 2000);
        assert_eq!(a[0], 0.0);
        assert!(a.windows(2).all(|p| (p[1] - p[0] - 0.005).abs() < 1e-12));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    }
}
