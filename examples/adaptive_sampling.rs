//! Adaptive multi-round sampling (the library's extension answering the
//! paper's §IX open question for linear f): at equal total row budget,
//! later rounds target the residual left by earlier rounds, sharpening the
//! tail of the approximation.
//!
//! Run with: `cargo run --release --example adaptive_sampling`

use dlra::core::adaptive::{run_adaptive, AdaptiveConfig};
use dlra::prelude::*;
use dlra::util::Rng;

fn main() {
    let mut rng = Rng::new(77);
    // Strong rank-4 signal + structured tail.
    let u = dlra::linalg::Matrix::gaussian(1200, 4, &mut rng).scaled(4.0);
    let v = dlra::linalg::Matrix::gaussian(4, 48, &mut rng);
    let mut a = u.matmul(&v).unwrap();
    a.add_assign(&dlra::linalg::Matrix::gaussian(1200, 48, &mut rng).scaled(0.5))
        .unwrap();
    let parts = dlra::data::split_with_noise_shares(&a, 6, 0.4, &mut rng);

    let k = 4;
    let total_rows = 120;
    println!("1200×48 global matrix, k = {k}, total row budget {total_rows}\n");
    println!(
        "{:>7} {:>13} {:>10} {:>12} {:>12}",
        "rounds", "additive", "relative", "words", "comm rounds"
    );

    for &rounds in &[1usize, 2, 3, 4] {
        let mut model = PartitionModel::new(parts.clone(), EntryFunction::Identity).unwrap();
        let cfg = AdaptiveConfig {
            k,
            rounds,
            r_per_round: total_rows / rounds,
            params: ZSamplerParams::practical((1200 * 48) as u64, 3000),
            seed: 5 + rounds as u64,
        };
        let out = run_adaptive(&mut model, &cfg).expect("adaptive run");
        let eval = evaluate_projection(&a, &out.projection, k).expect("eval");
        println!(
            "{:>7} {:>13.4e} {:>10.4} {:>12} {:>12}",
            rounds,
            eval.additive_error,
            eval.relative_error,
            out.comm.total_words(),
            out.comm.rounds
        );
    }

    println!(
        "\nMore rounds spend extra communication (basis broadcasts + extra\n\
         sampler passes) to focus the same row budget on what is still\n\
         unexplained — the additive error tightens toward the optimum."
    );
}
