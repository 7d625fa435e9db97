//! Transport sweep (in-process pipes vs loopback TCP) →
//! `BENCH_net.json`.
//!
//! ```text
//! cargo run --release -p dlra-bench --bin net -- [--quick] \
//!     [--servers 4,16,64] [--n 512] [--d 16] [--r 40] [--reps 5] \
//!     [--out PATH]
//! ```
//!
//! Without `--out` the JSON document goes to stdout; a human-readable
//! table always goes to stderr.

use dlra_bench::net::{run, NetBenchSpec};

fn main() {
    let mut spec = NetBenchSpec::default();
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("{name} needs an integer"))
        };
        match arg.as_str() {
            "--quick" => spec = NetBenchSpec::quick(),
            "--servers" => {
                spec.servers = args
                    .next()
                    .expect("--servers needs a value")
                    .split(',')
                    .map(|x| x.parse().expect("integer cluster size"))
                    .collect()
            }
            "--n" => spec.n = num("--n"),
            "--d" => spec.d = num("--d"),
            "--r" => spec.r = num("--r"),
            "--reps" => spec.reps = num("--reps"),
            "--seed" => {
                spec.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("integer seed")
            }
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            other => panic!(
                "unknown argument {other}; try --quick --servers --n --d --r --reps --seed --out"
            ),
        }
    }

    let report = run(&spec);
    eprintln!(
        "{:>8} {:>9} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "servers",
        "substrate",
        "p50_s",
        "p99_s",
        "total_words",
        "messages",
        "wire_bytes",
        "B/word",
        "identical"
    );
    for m in &report.results {
        eprintln!(
            "{:>8} {:>9} {:>12.6} {:>12.6} {:>12} {:>10} {:>12} {:>10.2} {:>10}",
            m.servers,
            m.substrate,
            m.p50_s,
            m.p99_s,
            m.total_words,
            m.messages,
            m.wire.total_bytes,
            m.wire.bytes_per_word,
            m.outputs_identical
        );
    }
    let smax = spec.servers.iter().copied().max().unwrap_or(1);
    if let (Some(overhead), Some(bpw)) = (report.socket_overhead(smax), report.bytes_per_word(smax))
    {
        eprintln!(
            "s = {smax}: sockets cost {overhead:.2}x threaded p50, {bpw:.2} wire bytes per \
             ledger word (outputs identical: {}, audit exact: {})",
            report.outputs_identical, report.wire_audit_exact
        );
    }
    assert!(
        report.outputs_identical,
        "substrate changed output bits — investigate before publishing numbers"
    );
    assert!(
        report.wire_audit_exact,
        "unexplained bytes on the wire — investigate before publishing numbers"
    );

    let json = report.to_json();
    match out_path {
        Some(path) => {
            std::fs::write(&path, json).expect("write BENCH json");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}
