//! Collective-topology sweep (star vs combining tree) →
//! `BENCH_topology.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin topology -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs `TopologyBenchSpec::quick()`, and no flag its `default()`.
//! The JSON document is the only output, to `PATH` or else to stdout.
//! A bad flag prints the usage and exits 2. A failed check (outputs that
//! differ between star and tree) prints it, writes nothing and exits 1.

use dlra_bench::{cli, topology};

fn main() -> std::process::ExitCode {
    cli::sweep(
        "topology",
        topology::TopologyBenchSpec::quick,
        topology::run,
    )
}
