//! Regenerates **Figure 1** of the paper: additive error vs projection
//! dimension `k`, per dataset panel and communication-ratio budget, with
//! the theoretical prediction `k²/r` alongside (the dashed lines in the
//! paper's plots).
//!
//! Usage:
//!   cargo run --release -p dlra-bench --bin fig1 -- \
//!       [--panel forest_cover|kddcup|caltech101|scenes|isolet|all] \
//!       [--p 1,2,5,20] [--ratios 0.5,0.25,0.1] [--scale N] [--quick]

use dlra_bench::cli;
use dlra_bench::repro::render_panel;

fn main() {
    let cli::Args { panel, spec, ps } = cli::args_or_exit("fig1");
    println!("Figure 1 — additive error vs projection dimension\n");
    for p in cli::panels(panel, &spec, &ps) {
        println!("{}", render_panel(&p, 1));
    }
}
