//! `dlra-net-server`: one of the paper's `s` servers as a standalone
//! process.
//!
//! ```text
//! dlra-net-server <coordinator_addr> <server_id> <dim>
//! ```
//!
//! Dials the coordinator, joins the cluster under `server_id`, builds the
//! deterministic demo state for `(server_id, dim)`, and serves the static
//! remote op table until the coordinator sends shutdown (exit 0), or until
//! a frame it cannot serve (an unknown op, an out-of-range point query)
//! or a failed link ends it (exit 1; the diagnostic goes to stderr and,
//! when the link still takes a frame, to the coordinator).
//!
//! Configuration is argv-only — the process reads no environment
//! variables, keeping the workspace's determinism contract (env knobs
//! live in the runtime layer, never in protocol or transport code).

use dlra_net::counters::WireCounters;
use dlra_net::node::{run_node, NodeConfig};
use dlra_net::remote::{demo_state, RemoteResolver};
use std::sync::{Arc, Mutex};

fn main() {
    // dlra-allow(env-determinism): argv is explicit per-invocation
    // configuration handed to this entry point, not ambient process
    // state; the process reads no environment variables.
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: dlra-net-server <coordinator_addr> <server_id> <dim>";
    if args.len() != 4 {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let coordinator = args[1].clone();
    let server_id: usize = match args[2].parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid server_id {:?}\n{usage}", args[2]);
            std::process::exit(2);
        }
    };
    let dim: usize = match args[3].parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid dim {:?}\n{usage}", args[3]);
            std::process::exit(2);
        }
    };
    let cfg = NodeConfig {
        coordinator,
        server_id,
        state: Arc::new(Mutex::new(demo_state(server_id, dim))),
        resolver: Arc::new(RemoteResolver),
        counters: WireCounters::shared(),
    };
    if let Err(e) = run_node(cfg) {
        eprintln!("dlra-net-server {server_id}: {e}");
        std::process::exit(1);
    }
}
