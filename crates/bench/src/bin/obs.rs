//! Observability overhead comparison (metrics registry on vs off) →
//! `BENCH_obs.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin obs -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` runs `ObsBenchSpec::quick()`, and no flag its `default()`.
//! The JSON document is the only output, to `PATH` or else to stdout.
//! A bad flag prints the usage and exits 2. A failed check (outputs that
//! differ between the two modes) prints it, writes nothing and exits 1.

use dlra_bench::{cli, obs};

fn main() -> std::process::ExitCode {
    cli::sweep("obs", obs::ObsBenchSpec::quick, obs::run)
}
