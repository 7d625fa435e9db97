//! Regenerates **Figure 2** of the paper: actual relative error
//! `‖A−AP‖²_F / ‖A−[A]ₖ‖²_F` vs projection dimension `k`, per dataset
//! panel and communication-ratio budget.
//!
//! Usage mirrors `fig1`:
//!
//! ```text
//! cargo run --release -p dlra-bench --bin fig2 -- [--panel <name>] [--quick] ...
//! ```

use dlra_bench::cli;
use dlra_bench::repro::render_panel;

fn main() {
    let cli::Args { panel, spec, ps } = cli::args_or_exit("fig2");
    println!("Figure 2 — relative error vs projection dimension\n");
    for p in cli::panels(panel, &spec, &ps) {
        println!("{}", render_panel(&p, 2));
    }
}
