//! Shared support for the integration suites: the configuration matrix
//! they loop over in-process, the direct reference model, and the helpers
//! every suite needs.
//!
//! A [`Column`] is one cell of the matrix — substrate × topology × plan
//! cache × admission bound × tracing. Each suite runs its test bodies once
//! per column of its list below, so a plain `cargo test` covers every
//! column; [`ServiceConfig::default()`] reads no environment, so nothing
//! outside the test decides which column runs.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use dlra::comm::{Cluster, Topology};
use dlra::linalg::Matrix;
use dlra::obs::trace;
use dlra::prelude::*;
use dlra::runtime::Substrate;
use dlra::util::Rng;
use std::sync::Once;

/// The combining-tree topology every tree column uses.
const TREE: Topology = Topology::Tree { fanout: 2 };

/// One column of the configuration matrix.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    pub substrate: Substrate,
    pub topology: Topology,
    pub plan_cache: usize,
    pub max_queue_depth: Option<usize>,
    /// Record a chrome trace while the column runs (see [`columns`]).
    pub traced: bool,
}

impl Column {
    /// `ServiceConfig::default()`'s column: threaded, star, plan cache 16,
    /// unbounded admission, untraced.
    pub const DEFAULT: Column = Column {
        substrate: Substrate::Threaded,
        topology: Topology::Star,
        plan_cache: 16,
        max_queue_depth: None,
        traced: false,
    };

    /// The traced column: the default with plan cache 32.
    pub const TRACED: Column = Column {
        plan_cache: 32,
        traced: true,
        ..Column::DEFAULT
    };

    /// This column's service configuration, with `executors` executors,
    /// metrics on and no memory budget.
    pub fn config(&self, executors: usize) -> ServiceConfig {
        ServiceConfig {
            executors,
            substrate: self.substrate,
            plan_cache: self.plan_cache,
            metrics: true,
            topology: self.topology,
            max_queue_depth: self.max_queue_depth,
            memory_budget: None,
        }
    }

    /// [`Column::config`] without the admission bound, for references and
    /// for tests that park real queries behind blockers (a shed blocker
    /// would block nothing).
    pub fn unbounded(&self, executors: usize) -> ServiceConfig {
        ServiceConfig {
            max_queue_depth: None,
            ..self.config(executors)
        }
    }

    /// The direct reference: a sequential model over `parts` routed by this
    /// column's topology, so its ledgers match the service's hop for hop.
    pub fn reference_model(&self, parts: Vec<Matrix>) -> PartitionModel {
        let topology = self.topology;
        PartitionModel::with_substrate(parts, EntryFunction::Identity, |l| {
            Cluster::with_topology(l, topology)
        })
        .unwrap()
    }
}

/// Yields `list` in order. Each column is named on the test's captured
/// output, which libtest prints only when the test fails, and a traced
/// column arms the tracer before it runs.
///
/// The tracer is process-global and `trace::enable` restarts its file, so
/// it is armed once per test binary and never disarmed: whatever runs in
/// the binary after the first traced column, in any test, is traced too.
/// The file is `target/tmp/trace-<suite>.json`.
pub fn columns(list: Vec<Column>) -> impl Iterator<Item = Column> {
    static ARMED: Once = Once::new();
    list.into_iter().inspect(|column| {
        eprintln!("column: {column:?}");
        if column.traced {
            ARMED.call_once(|| {
                trace::enable(concat!(
                    env!("CARGO_TARGET_TMPDIR"),
                    "/trace-",
                    env!("CARGO_CRATE_NAME"),
                    ".json"
                ))
            });
        }
    })
}

/// `runtime_equivalence`: {star, tree:2} × plan cache {0, 16, 32}, then
/// the traced column. The suite loops over substrates itself.
pub fn equivalence_columns() -> impl Iterator<Item = Column> {
    let mut list = Vec::new();
    for topology in [Topology::Star, TREE] {
        for plan_cache in [0, 16, 32] {
            list.push(Column {
                topology,
                plan_cache,
                ..Column::DEFAULT
            });
        }
    }
    list.push(Column::TRACED);
    columns(list)
}

/// The untraced and the traced column, for tests that build their
/// clusters directly and so see no other column.
pub fn tracing_columns() -> impl Iterator<Item = Column> {
    columns(vec![Column::DEFAULT, Column::TRACED])
}

/// `service`: {threaded, socket} × {default, plan cache 0, plan cache 32,
/// tree:2 with plan cache 32, admission bound 2}, then the traced column.
pub fn service_columns() -> impl Iterator<Item = Column> {
    let variants = [
        Column::DEFAULT,
        Column {
            plan_cache: 0,
            ..Column::DEFAULT
        },
        Column {
            plan_cache: 32,
            ..Column::DEFAULT
        },
        Column {
            topology: TREE,
            plan_cache: 32,
            ..Column::DEFAULT
        },
        Column {
            max_queue_depth: Some(2),
            ..Column::DEFAULT
        },
    ];
    let mut list = Vec::new();
    for substrate in [Substrate::Threaded, Substrate::Socket] {
        list.extend(variants.map(|v| Column { substrate, ..v }));
    }
    list.push(Column::TRACED);
    columns(list)
}

/// `chaos`: {threaded, socket} × admission bound {6, 2}.
pub fn chaos_columns() -> impl Iterator<Item = Column> {
    let mut list = Vec::new();
    for substrate in [Substrate::Threaded, Substrate::Socket] {
        for bound in [6, 2] {
            list.push(Column {
                substrate,
                max_queue_depth: Some(bound),
                ..Column::DEFAULT
            });
        }
    }
    columns(list)
}

/// `planner`: star and tree:2.
pub fn planner_columns() -> impl Iterator<Item = Column> {
    columns(vec![
        Column::DEFAULT,
        Column {
            topology: TREE,
            ..Column::DEFAULT
        },
    ])
}

/// `s` additive shares of an `n × d` noisy rank-`k` matrix.
pub fn shares(s: usize, n: usize, d: usize, k: usize, seed: u64) -> Vec<Matrix> {
    let mut rng = Rng::new(seed);
    let global = dlra::data::noisy_low_rank(n, d, k, 0.1, &mut rng);
    dlra::data::split_with_noise_shares(&global, s, 0.3, &mut rng)
}

/// Submits until admitted: under an admission bound a shed ticket is
/// dropped and the submission retried once the pool drains. Shed queries
/// never touch the planner, so plan-stats assertions hold unchanged.
pub fn submit_admitted(handle: &DatasetHandle, query: &Query) -> Ticket {
    loop {
        let ticket = handle.submit(query);
        if !ticket.shed() {
            return ticket;
        }
        std::thread::yield_now();
    }
}
