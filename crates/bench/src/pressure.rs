//! The `pressure` bench: proof that the [`Service`] self-regulates under
//! saturation. A sentinel query pins one executor and the primary tenant,
//! then each wave submits an **open-loop** arrival schedule at a multiple
//! of the measured closed-loop capacity — the arrival clock never waits
//! for completions, exactly like an outside client storm. Rotating spill
//! tenants are loaded throughout to keep the memory quota under fire.
//! Emits the machine-readable `BENCH_pressure.json`.
//!
//! What bounded self-regulation must look like, and what
//! [`PressureReport`]'s violations check before the binary writes the
//! document:
//!
//! * **bounded queue** — the in-system gauge never exceeds the configured
//!   admission bound, at any multiplier;
//! * **bounded latency** — admitted p99 stays within a small multiple of
//!   the closed-loop service time (the queue bound caps the wait), instead
//!   of growing linearly with the arrival backlog as an unbounded queue
//!   would;
//! * **typed fast-fail** — overflow submissions resolve to
//!   [`dlra_runtime::ServiceError::Overloaded`] inside the submit call itself, in
//!   microseconds, with zero untyped outcomes anywhere;
//! * **bounded memory** — resident bytes never exceed the budget by more
//!   than one in-flight spill payload (a load's bytes land and the sweep
//!   reclaims them under one lock; a concurrent reader can glimpse the
//!   hand-off), and the quota sweep actually fires.

use crate::cli::Report;
use dlra_core::prelude::*;
use dlra_data::{noisy_low_rank, split_with_noise_shares};
use dlra_linalg::Matrix;
use dlra_runtime::{Query, Service, ServiceConfig, Substrate, Ticket};
use dlra_util::Rng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct PressureSpec {
    /// Executor threads; one is occupied by the sentinel for the whole
    /// run, so effective capacity comes from `executors - 1`.
    pub executors: usize,
    /// Servers holding the primary dataset.
    pub servers: usize,
    /// Rows of the primary dataset.
    pub n: usize,
    /// Columns of the primary dataset.
    pub d: usize,
    /// Closed-loop queries used to measure capacity.
    pub probe: usize,
    /// Open-loop submissions per wave.
    pub wave: usize,
    /// Arrival-rate multipliers over measured capacity, one wave each.
    pub multipliers: Vec<f64>,
    /// Admission bound (queued + executing, sentinel included).
    pub max_queue: u64,
    /// Load a spill tenant every this many submissions.
    pub spill_every: usize,
    /// Seed for the datasets.
    pub seed: u64,
}

/// Bytes of one rotating spill tenant (2 servers × 32×16 doubles).
pub const SPILL_BYTES: u64 = 2 * 32 * 16 * 8;

impl Default for PressureSpec {
    fn default() -> Self {
        PressureSpec {
            executors: 3,
            servers: 4,
            n: 256,
            d: 16,
            probe: 64,
            wave: 256,
            multipliers: vec![2.0, 4.0, 10.0],
            max_queue: 8,
            spill_every: 16,
            seed: 0x9E55_0E5A,
        }
    }
}

impl PressureSpec {
    /// Reduced sweep for CI smoke runs (the 4× wave the acceptance bar
    /// names stays in).
    pub fn quick() -> Self {
        PressureSpec {
            probe: 24,
            wave: 96,
            ..PressureSpec::default()
        }
    }

    /// Primary-tenant footprint in bytes.
    pub fn primary_bytes(&self) -> u64 {
        (self.servers * self.n * self.d * 8) as u64
    }

    /// The memory budget: the pinned primary plus two resident spill
    /// tenants — the third spill load forces the quota sweep.
    pub fn budget(&self) -> u64 {
        self.primary_bytes() + 2 * SPILL_BYTES + 1024
    }
}

/// One open-loop wave's measurement.
#[derive(Debug, Clone)]
pub struct WaveMeasurement {
    /// Arrival-rate multiplier over measured capacity.
    pub multiplier: f64,
    /// Open-loop submissions issued.
    pub submitted: usize,
    /// Admitted and completed `Ok`.
    pub admitted_ok: usize,
    /// Shed at admission with [`dlra_runtime::ServiceError::Overloaded`].
    pub shed: usize,
    /// Any other outcome (must be zero — nothing untyped, nothing lost).
    pub other: usize,
    /// Admitted end-to-end latency, p50 seconds.
    pub admitted_p50_s: f64,
    /// Admitted end-to-end latency, p99 seconds.
    pub admitted_p99_s: f64,
    /// Shed fast-fail p99: the whole submit call, microseconds.
    pub shed_submit_p99_micros: f64,
    /// Peak of the in-system gauge sampled after every submission.
    pub max_in_system: u64,
    /// Peak resident bytes sampled after every submission.
    pub max_resident_bytes: u64,
    /// Quota evictions the wave's spill loads triggered.
    pub quota_evictions: u64,
    /// In-system gauge after the wave fully drained (the sentinel's one
    /// admission — anything above it leaked).
    pub drained_in_system: u64,
}

/// A completed saturation run.
#[derive(Debug, Clone)]
pub struct PressureReport {
    /// Closed-loop mean service time, seconds.
    pub probe_mean_s: f64,
    /// Measured capacity, queries/second, on `executors - 1` executors.
    pub capacity_qps: f64,
    /// The waves, in multiplier order.
    pub waves: Vec<WaveMeasurement>,
    /// The spec the run used.
    pub spec: PressureSpec,
}

fn primary(spec: &PressureSpec) -> Vec<Matrix> {
    let mut rng = Rng::new(spec.seed);
    let a = noisy_low_rank(spec.n, spec.d, 5, 0.1, &mut rng);
    split_with_noise_shares(&a, spec.servers, 0.3, &mut rng)
}

fn spill(spec: &PressureSpec, i: usize) -> Vec<Matrix> {
    let mut rng = Rng::new(spec.seed ^ (0xD00D + i as u64));
    let a = noisy_low_rank(32, 16, 2, 0.1, &mut rng);
    split_with_noise_shares(&a, 2, 0.3, &mut rng)
}

fn wave_query(spec: &PressureSpec) -> Query {
    Query::rank(2)
        .samples(8)
        .sampler(SamplerKind::Uniform)
        .seed(spec.seed)
        .build()
        .expect("valid wave query")
}

/// `q`-quantile of an unsorted sample (nearest-rank on the sorted copy).
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx]
}

/// Spins until `at` (the intervals are far below sleep granularity).
fn pace(at: Instant) {
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Runs the saturation sweep.
pub fn run(spec: &PressureSpec) -> PressureReport {
    let mut service = Service::new(ServiceConfig {
        executors: spec.executors,
        substrate: Substrate::Threaded,
        plan_cache: 0,
        metrics: true,
        max_queue_depth: Some(spec.max_queue as usize),
        memory_budget: Some(spec.budget()),
        ..Default::default()
    });
    let handle = service
        .load("primary", primary(spec))
        .expect("load primary");

    // The sentinel occupies one executor and pins the primary tenant for
    // the whole run: the quota sweep can only ever pick spill tenants.
    let sentinel = handle.submit(
        &Query::rank(2)
            .samples(8)
            .sampler(SamplerKind::Uniform)
            .boosted(2_000_000_000)
            .seed(spec.seed)
            .build()
            .expect("valid sentinel query"),
    );
    assert!(!sentinel.shed(), "the first admission cannot shed");
    while !sentinel.started() {
        std::thread::yield_now();
    }

    // Closed-loop capacity probe: one query in flight at a time, so the
    // mean is the pure service time and capacity is executors-1 over it.
    let query = wave_query(spec);
    for _ in 0..spec.probe.div_ceil(4) {
        let _ = handle.submit(&query).wait().expect("warmup query");
    }
    let t0 = Instant::now();
    for _ in 0..spec.probe {
        let _ = handle.submit(&query).wait().expect("probe query");
    }
    let probe_mean_s = t0.elapsed().as_secs_f64() / spec.probe as f64;
    let effective = (spec.executors - 1).max(1) as f64;
    let capacity_qps = effective / probe_mean_s;

    let mut spill_counter = 0usize;
    let mut waves = Vec::with_capacity(spec.multipliers.len());
    for &multiplier in &spec.multipliers {
        let interval = Duration::from_secs_f64(1.0 / (multiplier * capacity_qps));
        let evictions_before = service.pressure().evicted_under_pressure;

        let mut shed_submit_micros: Vec<f64> = Vec::new();
        let mut admitted_s: Vec<f64> = Vec::new();
        let mut shed = 0usize;
        let mut admitted_ok = 0usize;
        let mut other = 0usize;
        let mut max_in_system = 0u64;
        let mut max_resident = 0u64;

        // dlra-allow(thread-discipline): one scoped collector drains and
        // timestamps tickets while this thread paces the arrival schedule;
        // it is joined before the wave's figures are read.
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(Instant, Ticket)>();
            // The collector drains resolutions concurrently with the
            // arrival schedule, timestamping each admitted completion.
            let collector = scope.spawn(move || {
                let mut ok = 0usize;
                let mut other = 0usize;
                let mut latencies = Vec::new();
                while let Ok((submitted, ticket)) = rx.recv() {
                    match ticket.wait() {
                        Ok(_) => {
                            ok += 1;
                            latencies.push(submitted.elapsed().as_secs_f64());
                        }
                        Err(_) => other += 1,
                    }
                }
                (ok, other, latencies)
            });

            let start = Instant::now();
            for i in 0..spec.wave {
                pace(start + interval * i as u32);
                if i % spec.spill_every == 0 {
                    // Rotating spill tenants keep the byte budget under
                    // fire; with room for two, every third load sweeps.
                    let name = format!("spill-{}", spill_counter % 4);
                    let _ = service.load(&name, spill(spec, spill_counter % 4));
                    spill_counter += 1;
                }
                let before = Instant::now();
                let ticket = handle.submit(&query);
                let submit_micros = before.elapsed().as_secs_f64() * 1e6;
                if ticket.shed() {
                    shed += 1;
                    shed_submit_micros.push(submit_micros);
                } else {
                    tx.send((before, ticket)).expect("collector alive");
                }
                let p = service.pressure();
                max_in_system = max_in_system.max(p.admitted);
                max_resident = max_resident.max(p.resident_bytes);
            }
            drop(tx);
            let (ok, untyped, latencies) = collector.join().expect("collector");
            admitted_ok = ok;
            other = untyped;
            admitted_s = latencies;
        });

        let after = service.pressure();
        waves.push(WaveMeasurement {
            multiplier,
            submitted: spec.wave,
            admitted_ok,
            shed,
            other,
            admitted_p50_s: quantile(&mut admitted_s, 0.50),
            admitted_p99_s: quantile(&mut admitted_s, 0.99),
            shed_submit_p99_micros: quantile(&mut shed_submit_micros, 0.99),
            max_in_system,
            max_resident_bytes: max_resident,
            quota_evictions: after.evicted_under_pressure - evictions_before,
            drained_in_system: after.admitted,
        });
    }

    // Release the sentinel: the cancel flag is polled between boost
    // repetitions, so the ticket resolves promptly.
    sentinel.cancel();
    let _ = sentinel.wait();
    service.shutdown();

    PressureReport {
        probe_mean_s,
        capacity_qps,
        waves,
        spec: spec.clone(),
    }
}

impl PressureReport {
    /// The latency bound a bounded queue implies: at most
    /// `max_queue / (executors - 1) + 2` service times end to end, with a
    /// generous 16× slack for scheduling noise. An unbounded queue at 4×
    /// arrival blows through this within one wave.
    pub fn admitted_p99_bound_s(&self) -> f64 {
        let effective = (self.spec.executors - 1).max(1) as f64;
        (self.spec.max_queue as f64 / effective + 2.0) * self.probe_mean_s * 16.0
    }
}

impl Report for PressureReport {
    /// Everything the acceptance bar demands, as human-readable
    /// violations; empty means the service self-regulated.
    fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let p99_bound = self.admitted_p99_bound_s();
        let byte_bound = self.spec.budget() + SPILL_BYTES;
        for w in &self.waves {
            let m = w.multiplier;
            if w.other != 0 {
                v.push(format!("{m}x: {} untyped/lost outcomes", w.other));
            }
            if w.shed == 0 {
                v.push(format!("{m}x: overload never shed at saturation"));
            }
            if w.max_in_system > self.spec.max_queue {
                v.push(format!(
                    "{m}x: in-system peak {} exceeded the bound {}",
                    w.max_in_system, self.spec.max_queue
                ));
            }
            if w.max_resident_bytes > byte_bound {
                v.push(format!(
                    "{m}x: resident peak {} exceeded budget+one-spill {byte_bound}",
                    w.max_resident_bytes
                ));
            }
            if w.admitted_p99_s > p99_bound {
                v.push(format!(
                    "{m}x: admitted p99 {:.6}s exceeded the bounded-queue implication {p99_bound:.6}s",
                    w.admitted_p99_s
                ));
            }
            if w.shed_submit_p99_micros >= 1000.0 {
                v.push(format!(
                    "{m}x: shed fast-fail p99 {:.1}us is not O(us)",
                    w.shed_submit_p99_micros
                ));
            }
            if w.drained_in_system != 1 {
                v.push(format!(
                    "{m}x: {} admissions outlived the drain (sentinel aside)",
                    w.drained_in_system.saturating_sub(1)
                ));
            }
        }
        if self.waves.iter().map(|w| w.quota_evictions).sum::<u64>() == 0 {
            v.push("the spill churn never triggered a quota eviction".to_string());
        }
        v
    }

    /// Serializes the report as the `BENCH_pressure.json` document.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regenerate\": \"cargo run --release -p dlra-bench --bin pressure -- --quick --out BENCH_pressure.json\","
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"executors\": {}, \"servers\": {}, \"n\": {}, \"d\": {}, \"probe\": {}, \"wave\": {}, \"max_queue\": {}, \"memory_budget\": {}, \"spill_every\": {}}},",
            self.spec.executors,
            self.spec.servers,
            self.spec.n,
            self.spec.d,
            self.spec.probe,
            self.spec.wave,
            self.spec.max_queue,
            self.spec.budget(),
            self.spec.spill_every
        );
        let _ = writeln!(
            out,
            "  \"capacity\": {{\"probe_mean_micros\": {:.1}, \"capacity_qps\": {:.1}, \"effective_executors\": {}}},",
            self.probe_mean_s * 1e6,
            self.capacity_qps,
            self.spec.executors - 1
        );
        out.push_str("  \"waves\": [\n");
        for (i, w) in self.waves.iter().enumerate() {
            let comma = if i + 1 == self.waves.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"multiplier\": {}, \"submitted\": {}, \"admitted_ok\": {}, \"shed\": {}, \"other\": {}, \"admitted_p50_micros\": {:.1}, \"admitted_p99_micros\": {:.1}, \"shed_submit_p99_micros\": {:.1}, \"max_in_system\": {}, \"max_resident_bytes\": {}, \"quota_evictions\": {}}}{comma}",
                w.multiplier,
                w.submitted,
                w.admitted_ok,
                w.shed,
                w.other,
                w.admitted_p50_s * 1e6,
                w.admitted_p99_s * 1e6,
                w.shed_submit_p99_micros,
                w.max_in_system,
                w.max_resident_bytes,
                w.quota_evictions
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"summary\": {{\n    \"admitted_p99_bound_micros\": {:.1}\n  }}\n}}",
            self.admitted_p99_bound_s() * 1e6
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The violations of a one-wave report with the quick spec's bounds
    /// and a 1 ms mean service time (so an admitted p99 up to 96 ms
    /// passes), after `change` edits a wave that meets every bound.
    fn after(change: fn(&mut WaveMeasurement)) -> Vec<String> {
        let spec = PressureSpec::quick();
        let mut wave = WaveMeasurement {
            multiplier: 4.0,
            submitted: 96,
            admitted_ok: 20,
            shed: 76,
            other: 0,
            admitted_p50_s: 2e-3,
            admitted_p99_s: 5e-3,
            shed_submit_p99_micros: 4.0,
            max_in_system: spec.max_queue,
            max_resident_bytes: spec.budget() + SPILL_BYTES,
            quota_evictions: 1,
            drained_in_system: 1,
        };
        change(&mut wave);
        let report = PressureReport {
            probe_mean_s: 1e-3,
            capacity_qps: 2000.0,
            waves: vec![wave],
            spec,
        };
        report.violations()
    }

    #[test]
    fn violations_name_each_broken_bound() {
        assert_eq!(after(|_| {}), Vec::<String>::new());
        for (what, violations) in [
            ("untyped/lost outcomes", after(|w| w.other = 1)),
            ("never shed", after(|w| w.shed = 0)),
            ("in-system peak", after(|w| w.max_in_system += 1)),
            ("resident peak", after(|w| w.max_resident_bytes += 1)),
            ("admitted p99", after(|w| w.admitted_p99_s = 1.0)),
            (
                "shed fast-fail p99",
                after(|w| w.shed_submit_p99_micros = 1e3),
            ),
            ("outlived the drain", after(|w| w.drained_in_system = 2)),
            ("quota eviction", after(|w| w.quota_evictions = 0)),
        ] {
            assert_eq!(violations.len(), 1, "{what}: {violations:?}");
            assert!(violations[0].contains(what), "{what}: {violations:?}");
        }
    }
}
