//! Query-planner sweep (batched vs unbatched submission) →
//! `BENCH_planner.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin planner -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs `PlannerBenchSpec::quick()`, and no flag its `default()`.
//! The JSON document is the only output, to `PATH` or else to stdout.
//! A bad flag prints the usage and exits 2. A failed check (outputs that
//! differ between batched and unbatched submission) prints it, writes
//! nothing and exits 1.

use dlra_bench::{cli, planner};

fn main() -> std::process::ExitCode {
    cli::sweep("planner", planner::PlannerBenchSpec::quick, planner::run)
}
