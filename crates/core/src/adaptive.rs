//! **Extension beyond the paper**: adaptive multi-round row sampling
//! (Deshpande–Vempala-style) in the distributed setting.
//!
//! The paper's Algorithm 1 samples all `r` rows against the *original*
//! row-norm distribution, giving additive error `ε‖A‖²_F`, and its §IX asks
//! "whether there are more efficient protocols even with additive error".
//! Adaptive sampling is the classical answer in the centralized setting:
//! sample a batch, project it out, and resample against the *residual*
//! `A(I − P)` — after `t` rounds the additive term decays like
//! `εᵗ‖A‖² + O(ε)‖A − [A]ₖ‖²`, approaching a relative-error guarantee.
//!
//! In the generalized partition model this works whenever `f` is **linear**
//! (`f = identity`): the residual is `A(I−P) = Σₜ Aᵗ(I−P)`, so after the
//! coordinator broadcasts the current basis `V` (`d·k` words), every server
//! can form its residual share locally and the same Z-sampling machinery
//! applies to the residual's implicit aggregate. For nonlinear `f` the
//! residual is not a sum of local matrices, which is exactly why the paper
//! stops at one-shot sampling — we document the boundary with a runtime
//! check.

use crate::fkv::{build_b_matrix, fkv_projection, SampledRow};
use crate::functions::EntryFunction;
use crate::model::{MatrixServer, PartitionModel};
use crate::{CoreError, Result};
use dlra_comm::{Collectives, LedgerSnapshot};
use dlra_linalg::{orthonormalize_columns, Projector};
use dlra_sampler::{Square, ZSampler, ZSamplerParams};
use dlra_util::Rng;

/// Configuration for adaptive sampling.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Target rank.
    pub k: usize,
    /// Sampling rounds (1 = plain Algorithm 1).
    pub rounds: usize,
    /// Rows sampled per round.
    pub r_per_round: usize,
    /// Z-sampler tuning for each round.
    pub params: ZSamplerParams,
    /// Root seed.
    pub seed: u64,
}

/// Output of the adaptive protocol.
#[derive(Debug, Clone)]
pub struct AdaptiveOutput {
    /// Final rank-≤k projection, stored factored (`projection.basis()` is
    /// the broadcast wire format).
    pub projection: Projector,
    /// Communication consumed across all rounds.
    pub comm: LedgerSnapshot,
    /// Row indices sampled per round.
    pub rows_per_round: Vec<Vec<usize>>,
}

/// Runs adaptive distributed sampling on any substrate. Requires
/// `f = Identity` (see the module docs for why nonlinear `f` cannot be
/// supported).
pub fn run_adaptive<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &AdaptiveConfig,
) -> Result<AdaptiveOutput> {
    if model.entry_function() != EntryFunction::Identity {
        return Err(CoreError::InvalidConfig(
            "adaptive sampling requires f = identity (residuals of nonlinear \
             f are not sums of local matrices)"
                .into(),
        ));
    }
    let d = model.shape().1;
    if cfg.k == 0 || cfg.k > d {
        return Err(CoreError::InvalidConfig(format!(
            "k = {} out of range for d = {d}",
            cfg.k
        )));
    }
    if cfg.rounds == 0 || cfg.r_per_round == 0 {
        return Err(CoreError::InvalidConfig(
            "rounds and r_per_round must be >= 1".into(),
        ));
    }

    let before = model.cluster().comm();
    let mut rng = Rng::new(cfg.seed ^ 0xADA9_7EED);
    // Accumulated sampled rows (raw aggregated, with probabilities from the
    // round in which each was drawn) and the current basis.
    let mut all_rows: Vec<SampledRow> = Vec::new();
    let mut basis: Option<Projector> = None; // factored VVᵀ, V d × c
    let mut rows_per_round = Vec::new();

    for round in 0..cfg.rounds {
        // 1. Broadcast the current basis so every server forms its local
        //    residual share Aᵗ(I − VVᵀ). Round 0 samples the raw matrix.
        //    The wire format is unchanged by the factored projector: what
        //    travels is the `d × c` basis `V` itself (a `Matrix` payload,
        //    charged at full wire words, message clones sharing storage);
        //    each server rebuilds the projector locally.
        if let Some(p) = &basis {
            model
                .cluster_mut()
                .broadcast(p.basis(), "adaptive.basis", move |_t, server, m| {
                    server.set_residual_basis(m);
                });
        }

        // 2. Z-sample entries of the residual (z = x², the identity-f case).
        let zsampler = ZSampler::new(cfg.params.clone(), cfg.seed ^ ((round as u64 + 1) << 24));
        let prepared = zsampler.prepare(model.cluster_mut(), &Square);
        if prepared.is_empty() {
            // Residual is (numerically) zero: we are done early.
            break;
        }
        let draws = prepared.draw_many(cfg.r_per_round, &mut rng);
        if draws.is_empty() {
            break;
        }
        let indices: Vec<usize> = draws.iter().map(|dr| dr.coord as usize / d).collect();
        rows_per_round.push(indices.clone());

        // 3. Fetch the *original* rows (the FKV matrix B must approximate A,
        //    not the residual) but weight by the residual probabilities.
        let fetched = crate::algorithm1::fetch_global_rows(model, &indices)?;
        let z_hat = prepared.z_hat();
        for row in fetched {
            // Residual z-mass of the row under the current basis.
            let resid = match &basis {
                None => row.raw.clone(),
                Some(p) => p.residual_row(&row.raw),
            };
            let zmass: f64 = resid.iter().map(|x| x * x).sum();
            let q = (zmass / z_hat).clamp(1e-12, 1.0);
            all_rows.push(SampledRow {
                index: row.index,
                values: row.values,
                q_hat: q,
            });
        }

        // 4. Extend the basis with the top directions of the sampled rows.
        let b = build_b_matrix(&all_rows)?;
        let (top, _) = fkv_projection(&b, cfg.k)?;
        let mut candidate = top.basis().clone();
        if let Some(p) = &basis {
            candidate = p.basis().hstack(&candidate)?;
        }
        let ortho = orthonormalize_columns(&candidate);
        // Keep at most 2k directions between rounds to bound the broadcast.
        let keep = (2 * cfg.k).min(ortho.cols());
        basis = Some(Projector::from_basis(ortho.select_col_block(0, keep)));
    }

    // Clear residual bases (local cleanup).
    for t in 0..model.num_servers() {
        model
            .cluster_mut()
            .with_local_mut(t, MatrixServer::clear_residual);
    }

    // Final projection: top-k right singular space of the accumulated B.
    if all_rows.is_empty() {
        return Err(CoreError::SamplerExhausted);
    }
    let b = build_b_matrix(&all_rows)?;
    let (projection, _) = fkv_projection(&b, cfg.k)?;
    Ok(AdaptiveOutput {
        projection,
        comm: model.cluster().comm().since(&before),
        rows_per_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_projection;
    use dlra_linalg::Matrix;

    fn shared_model(seed: u64) -> (PartitionModel, Matrix) {
        let mut rng = Rng::new(seed);
        // Strong rank-3 signal + moderate noise: adaptive rounds should
        // sharpen the tail.
        let u = Matrix::gaussian(400, 3, &mut rng).scaled(3.0);
        let v = Matrix::gaussian(3, 24, &mut rng);
        let mut a = u.matmul(&v).unwrap();
        a.add_assign(&Matrix::gaussian(400, 24, &mut rng).scaled(0.4))
            .unwrap();
        let parts = dlra_sampler_split(&a, 4, &mut rng);
        (
            PartitionModel::new(parts, EntryFunction::Identity).unwrap(),
            a,
        )
    }

    fn dlra_sampler_split(a: &Matrix, s: usize, rng: &mut Rng) -> Vec<Matrix> {
        let (n, d) = a.shape();
        let mut parts: Vec<Matrix> = (0..s - 1)
            .map(|_| Matrix::gaussian(n, d, rng).scaled(0.2))
            .collect();
        let mut last = a.clone();
        for p in &parts {
            last = last.sub(p).unwrap();
        }
        parts.push(last);
        parts
    }

    #[test]
    fn broadcast_basis_round_trips_through_projector() {
        // The residual weighting the coordinator applies (Projector::
        // residual_row) and the view the servers install (set_residual_
        // basis) must agree: x(I − VVᵀ) computed both ways.
        let mut rng = Rng::new(1);
        let v = orthonormalize_columns(&Matrix::gaussian(8, 3, &mut rng));
        let p = Projector::from_basis(v.clone());
        let a = Matrix::gaussian(5, 8, &mut rng);
        let server_view = p.residual(&a).unwrap();
        for i in 0..5 {
            let coord_view = p.residual_row(a.row(i));
            for (x, y) in coord_view.iter().zip(server_view.row(i)) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn rejects_nonlinear_f() {
        let parts = vec![Matrix::identity(4)];
        let mut m = PartitionModel::new(parts, EntryFunction::Huber { k: 1.0 }).unwrap();
        let cfg = AdaptiveConfig {
            k: 2,
            rounds: 2,
            r_per_round: 10,
            params: ZSamplerParams::default(),
            seed: 0,
        };
        assert!(run_adaptive(&mut m, &cfg).is_err());
    }

    #[test]
    fn multi_round_beats_single_round_at_equal_budget() {
        // 2×30 adaptive rows vs 1×60 one-shot rows: averaged over seeds the
        // adaptive variant should not be worse (usually better: the second
        // batch targets the unexplained directions).
        let mut adaptive_total = 0.0;
        let mut oneshot_total = 0.0;
        let trials = 4;
        for t in 0..trials {
            let (mut m1, a) = shared_model(100 + t);
            let (mut m2, _) = shared_model(100 + t);
            let base = AdaptiveConfig {
                k: 3,
                rounds: 1,
                r_per_round: 60,
                params: ZSamplerParams::default(),
                seed: 7 + t,
            };
            let adaptive = AdaptiveConfig {
                rounds: 2,
                r_per_round: 30,
                ..base.clone()
            };
            let o1 = run_adaptive(&mut m1, &base).unwrap();
            let o2 = run_adaptive(&mut m2, &adaptive).unwrap();
            oneshot_total += o1.projection.residual_sq(&a).unwrap();
            adaptive_total += o2.projection.residual_sq(&a).unwrap();
        }
        assert!(
            adaptive_total <= oneshot_total * 1.15,
            "adaptive {adaptive_total} vs one-shot {oneshot_total}"
        );
    }

    #[test]
    fn achieves_small_additive_error() {
        let (mut m, a) = shared_model(9);
        let cfg = AdaptiveConfig {
            k: 3,
            rounds: 3,
            r_per_round: 40,
            params: ZSamplerParams::default(),
            seed: 11,
        };
        let out = run_adaptive(&mut m, &cfg).unwrap();
        let eval = evaluate_projection(&a, &out.projection, 3).unwrap();
        assert!(eval.additive_error < 0.1, "{}", eval.additive_error);
        assert_eq!(out.rows_per_round.len(), 3);
        assert!(out.comm.total_words() > 0);
    }

    #[test]
    fn early_exit_on_exact_low_rank() {
        // Exactly rank-2 data: after round 1 captures it, the residual is
        // ~zero and the sampler finds (almost) nothing; the protocol must
        // still return a valid projection.
        let mut rng = Rng::new(13);
        let u = Matrix::gaussian(120, 2, &mut rng);
        let v = Matrix::gaussian(2, 10, &mut rng);
        let a = u.matmul(&v).unwrap();
        let parts = dlra_sampler_split(&a, 3, &mut rng);
        let mut m = PartitionModel::new(parts, EntryFunction::Identity).unwrap();
        let cfg = AdaptiveConfig {
            k: 2,
            rounds: 4,
            r_per_round: 40,
            params: ZSamplerParams::default(),
            seed: 15,
        };
        let out = run_adaptive(&mut m, &cfg).unwrap();
        let eval = evaluate_projection(&a, &out.projection, 2).unwrap();
        assert!(eval.additive_error < 1e-3, "{}", eval.additive_error);
    }
}
