//! Kernel performance sweep (blocked and threaded kernels against the
//! naive reference) → `BENCH_kernels.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin kernels -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs `KernelBenchSpec::quick()`, and no flag its `default()`.
//! The JSON document is the only output, to `PATH` or else to stdout.
//! A bad flag prints the usage and exits 2. The sweep only times, so it
//! has no check to fail.

use dlra_bench::{cli, kernels};

fn main() -> std::process::ExitCode {
    cli::sweep("kernels", kernels::KernelBenchSpec::quick, kernels::run)
}
