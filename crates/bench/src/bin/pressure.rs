//! Saturation sweep: open-loop overload vs the service's admission bound
//! and memory quota → `BENCH_pressure.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin pressure -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs `PressureSpec::quick()`, and no flag its `default()`.
//! The JSON document is the only output, to `PATH` or else to stdout.
//! A bad flag prints the usage and exits 2. A failed check (a wave whose
//! queue, memory or latency went unbounded, or whose shed submissions
//! did not fail fast) prints each violation, writes nothing and exits 1.

use dlra_bench::{cli, pressure};

fn main() -> std::process::ExitCode {
    cli::sweep("pressure", pressure::PressureSpec::quick, pressure::run)
}
