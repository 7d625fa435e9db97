//! The communication–accuracy frontier: sweep the total communication
//! budget (as a fraction of the data size, the paper's "ratio") and watch
//! the additive error fall — the tradeoff underlying every panel of
//! Figure 1 — with a per-phase breakdown from the ledger transcript.
//!
//! Run with: `cargo run --release --example comm_budget`

use dlra::comm::Collectives;
use dlra::prelude::*;
use dlra::util::Rng;

fn main() {
    let mut rng = Rng::new(7);
    let (s, n, d, k) = (6usize, 800usize, 48usize, 4usize);
    let global = dlra::data::noisy_low_rank(n, d, k, 0.15, &mut rng);
    let parts = dlra::data::split_with_noise_shares(&global, s, 0.4, &mut rng);
    let mut model = PartitionModel::new(parts, EntryFunction::Identity).unwrap();
    let data_words = model.total_local_words();
    let truth = model.global_matrix();

    println!(
        "{} servers × {}×{} local matrices; total data {} words; k = {k}\n",
        s, n, d, data_words
    );
    println!(
        "{:>7} {:>6} {:>12} {:>10} {:>10}",
        "ratio", "r", "additive", "relative", "achieved"
    );

    model.cluster_mut().ledger().set_record_events(true);
    for &ratio in &[0.5, 0.25, 0.1, 0.05, 0.02] {
        let budget = ratio * data_words as f64;
        let r = ((0.4 * budget / ((s - 1) as f64 * d as f64)) as usize).clamp(2 * k, n);
        let params = dlra::prelude::ZSamplerParams::practical(
            (n * d) as u64,
            ((0.6 * budget) / (s as f64 * 2.0)) as u64,
        );
        let cfg = Algorithm1Config {
            k,
            r,
            sampler: SamplerKind::Z(params),
            seed: (ratio * 1e4) as u64,
            ..Algorithm1Config::default()
        };
        let out = run_algorithm1(&mut model, &cfg).expect("run");
        let eval = evaluate_projection(&truth, &out.projection, k).expect("eval");
        println!(
            "{:>7.3} {:>6} {:>12.3e} {:>10.4} {:>10.4}",
            ratio,
            r,
            eval.additive_error,
            eval.relative_error,
            out.comm.total_words() as f64 / data_words as f64
        );
    }

    println!("\nper-phase communication breakdown (all runs, words incl. frames):");
    for (label, words, msgs) in model.cluster().ledger().by_label() {
        println!("  {label:<18} {words:>10} words in {msgs:>5} messages");
    }
}
