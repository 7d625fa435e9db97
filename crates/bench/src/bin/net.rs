//! Transport sweep (in-process pipes vs loopback TCP) → `BENCH_net.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin net -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs `NetBenchSpec::quick()`, and no flag its `default()`.
//! The JSON document is the only output, to `PATH` or else to stdout.
//! A bad flag prints the usage and exits 2. A failed check (outputs that
//! differ from the sequential reference, or wire bytes the ledger does
//! not explain) prints each violation, writes nothing and exits 1.

use dlra_bench::{cli, net};

fn main() -> std::process::ExitCode {
    cli::sweep("net", net::NetBenchSpec::quick, net::run)
}
