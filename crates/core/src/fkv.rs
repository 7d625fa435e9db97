//! The Frieze–Kannan–Vempala sampling-based low-rank step (§III).
//!
//! Given `r` sampled rows of the global matrix with (approximately) reported
//! probabilities `Q̂`, the paper's `B ∈ ℝʳˣᵈ` has one row `Aᵢ / √(r·Q̂)` per
//! draw, and the output is the projection onto `B`'s top-k right singular
//! space. That space, the singular values and every bound of Lemmas 1–3
//! depend on `B` only through `BᵀB = Σ over draws of AᵢᵀAᵢ / (r·Q̂)`, so
//! draws of the same index `i` merge into one term `wᵢ·AᵢᵀAᵢ` with
//! `wᵢ = Σ over i's draws of 1/(r·Q̂)`. [`build_b_matrix`] therefore
//! returns one row `√wᵢ·Aᵢ` per *distinct* sampled index: the same `BᵀB`
//! in exact arithmetic, with `m ≤ r` rows to decompose instead of `r`.
//! [`fkv_projection`] then needs only `σ` and the top-k right singular
//! vectors, which [`top_right_svd`] computes on `B`'s `min(m, d)`-square
//! triangular factor: an LQ of `B` when m < d (both benchmark workloads),
//! a QR otherwise, then the Jacobi sweeps on the small factor. The unit
//! tests here exercise those lemmas numerically, check the collapsed `B`
//! against the one-row-per-draw one, and check the projection against the
//! direct `svd` of `B`.

use crate::{CoreError, Result};
use dlra_linalg::{top_right_svd, Matrix, Projector};

/// One sampled global row with its reported probability.
#[derive(Debug, Clone)]
pub struct SampledRow {
    /// Row index in the global matrix.
    pub index: usize,
    /// The global row `Aᵢ = f(Σₜ Aᵗᵢ)` (post-`f`).
    pub values: Vec<f64>,
    /// Reported probability `Q̂ᵢ ∈ (1±γ)·Qᵢ`.
    pub q_hat: f64,
}

/// Builds the rescaled sample matrix `B` (Algorithm 1 line 7) from the
/// draws `rows`, repeats included.
///
/// `B` has one row per distinct [`SampledRow::index`], in ascending index
/// order: `Aᵢ·√wᵢ` with `wᵢ = Σ 1/(r·Q̂)` over that index's draws, summed
/// in draw order, where `r = rows.len()`. Its `BᵀB` is the one-row-per-draw
/// matrix's (see the module docs), while the projection that follows works
/// on `m ≤ r` rows. Draws of one index must carry bitwise-equal `values`;
/// their `Q̂` may differ.
pub fn build_b_matrix(rows: &[SampledRow]) -> Result<Matrix> {
    if rows.is_empty() {
        return Err(CoreError::SamplerExhausted);
    }
    let d = rows[0].values.len();
    let r = rows.len() as f64;
    for (i, row) in rows.iter().enumerate() {
        if row.values.len() != d {
            return Err(CoreError::InvalidModel(format!(
                "sampled row {i} has {} entries, expected {d}",
                row.values.len()
            )));
        }
        if row.q_hat <= 0.0 || !row.q_hat.is_finite() || row.q_hat.is_nan() {
            return Err(CoreError::InvalidModel(format!(
                "sampled row {i} has invalid probability {}",
                row.q_hat
            )));
        }
    }
    // A stable sort keeps each index's draws in draw order.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| rows[i].index);
    let groups: Vec<&[usize]> = order
        .chunk_by(|&a, &b| rows[a].index == rows[b].index)
        .collect();
    let mut b = Matrix::zeros(groups.len(), d);
    for (g, draws) in groups.into_iter().enumerate() {
        let first = &rows[draws[0]];
        let mut weight = 0.0;
        for &i in draws {
            let row = &rows[i];
            if !row
                .values
                .iter()
                .zip(&first.values)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            {
                return Err(CoreError::InvalidModel(format!(
                    "sampled row {i} repeats index {} with other values",
                    row.index
                )));
            }
            weight += 1.0 / (r * row.q_hat);
        }
        if !weight.is_finite() {
            return Err(CoreError::InvalidModel(format!(
                "sampled index {} has an overflowing weight (probability too small)",
                first.index
            )));
        }
        let scale = weight.sqrt();
        for (dst, &v) in b.row_mut(g).iter_mut().zip(&first.values) {
            *dst = v * scale;
        }
    }
    Ok(b)
}

/// Top-k right singular projection of `B` (Algorithm 1 line 8): returns
/// the factored `P = VVᵀ` and `‖BP‖²_F`; the captured energy drives the
/// boosting comparison of §IV. The `d × d` matrix is never materialized —
/// `V` itself is what protocols ship and apply. For an `m × d` `B`, `V` has
/// `min(k, m, d)` columns, and matches the direct `svd` of `B` in all but
/// its low bits. A non-finite `B` (a NaN or ±∞ entry, or a squared norm
/// that overflows) fails as `CoreError::Linalg(LinalgError::NonFinite(..))`
/// before any work.
pub fn fkv_projection(b: &Matrix, k: usize) -> Result<(Projector, f64)> {
    if k == 0 {
        return Err(CoreError::InvalidConfig("k must be positive".into()));
    }
    let (s, v) = top_right_svd(b, k)?;
    let captured: f64 = s.iter().take(k).map(|x| x * x).sum();
    Ok((Projector::from_basis(v), captured))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_linalg::{best_rank_k, orthonormalize_columns, svd, LinalgError};
    use dlra_util::Rng;

    fn exact_row_sampler(a: &Matrix, r: usize, rng: &mut Rng) -> Vec<SampledRow> {
        let weights = a.row_norms_sq();
        let total: f64 = weights.iter().sum();
        (0..r)
            .map(|_| {
                let i = rng.weighted_index(&weights);
                SampledRow {
                    index: i,
                    values: a.row(i).to_vec(),
                    q_hat: weights[i] / total,
                }
            })
            .collect()
    }

    fn row(index: usize, values: &[f64], q_hat: f64) -> SampledRow {
        SampledRow {
            index,
            values: values.to_vec(),
            q_hat,
        }
    }

    /// The paper's one-row-per-draw `B`, `Aᵢ / √(r·Q̂)` for every draw with
    /// repeats kept: the reference the collapsed [`build_b_matrix`] must
    /// match through `BᵀB`.
    fn per_draw_b_matrix(rows: &[SampledRow]) -> Matrix {
        let d = rows[0].values.len();
        let r = rows.len();
        let mut b = Matrix::zeros(r, d);
        for (i, row) in rows.iter().enumerate() {
            let scale = 1.0 / (r as f64 * row.q_hat).sqrt();
            for (j, &v) in row.values.iter().enumerate() {
                b[(i, j)] = v * scale;
            }
        }
        b
    }

    /// Checks the collapsed `B` against the per-draw one: one row per
    /// distinct index, the same `BᵀB`, the same captured energy at every k,
    /// and the same projector `VVᵀ` at every k ≤ m whose eigengap
    /// `σₖ² − σₖ₊₁²` is at least 1e-3 of `σ₁²` (the projector is only
    /// well-defined across a gap). All to 1e-12 relative. Returns the k
    /// whose projector was compared.
    fn assert_collapse_matches_per_draw(rows: &[SampledRow]) -> Vec<usize> {
        let collapsed = build_b_matrix(rows).unwrap();
        let per_draw = per_draw_b_matrix(rows);
        let mut distinct: Vec<usize> = rows.iter().map(|r| r.index).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(collapsed.rows(), distinct.len());

        let gram = per_draw.gram();
        let gram_err =
            collapsed.gram().sub(&gram).unwrap().frobenius_norm() / gram.frobenius_norm();
        assert!(gram_err < 1e-12, "BᵀB differs by {gram_err}");

        let sigma_sq: Vec<f64> = svd(&per_draw).unwrap().s.iter().map(|x| x * x).collect();
        let mut compared = Vec::new();
        for k in 1..=per_draw.cols() {
            let (p, captured) = fkv_projection(&collapsed, k).unwrap();
            let (p_ref, captured_ref) = fkv_projection(&per_draw, k).unwrap();
            let energy_err = (captured - captured_ref).abs() / captured_ref;
            assert!(
                energy_err < 1e-12,
                "k = {k}: captured energy differs by {energy_err}"
            );
            let gap = sigma_sq[k - 1] - sigma_sq.get(k).copied().unwrap_or(0.0);
            if k <= distinct.len() && gap >= 1e-3 * sigma_sq[0] {
                let want = p_ref.to_dense();
                let err = p.to_dense().sub(&want).unwrap().frobenius_norm() / want.frobenius_norm();
                assert!(err < 1e-12, "k = {k}: projector differs by {err}");
                compared.push(k);
            }
        }
        compared
    }

    #[test]
    fn collapse_matches_per_draw_on_gaussian() {
        // 80 draws over 60 rows repeat indices; m ≥ d, so both builders'
        // projections take the tall (QR) branch.
        let mut rng = Rng::new(21);
        let a = Matrix::gaussian(60, 12, &mut rng);
        let rows = exact_row_sampler(&a, 80, &mut rng);
        let b = build_b_matrix(&rows).unwrap();
        assert!(b.rows() < rows.len() && b.rows() >= 12);
        assert!(!assert_collapse_matches_per_draw(&rows).is_empty());
    }

    #[test]
    fn collapse_matches_per_draw_when_m_falls_below_d() {
        // 60 draws over 16 rows with d = 24: the per-draw B (60 × 24) takes
        // the tall (QR) branch, the collapsed one (≤ 16 × 24) the wide (LQ)
        // one.
        let mut rng = Rng::new(22);
        let a = Matrix::gaussian(16, 24, &mut rng);
        let rows = exact_row_sampler(&a, 60, &mut rng);
        let b = build_b_matrix(&rows).unwrap();
        assert!(b.rows() < b.cols() && rows.len() >= b.cols());
        assert!(!assert_collapse_matches_per_draw(&rows).is_empty());
    }

    #[test]
    fn collapse_matches_per_draw_on_ill_conditioned_input() {
        // Distinct rows M = U·diag(σ)·Vᵀ with σ from 1 down to 1e-8 and a
        // gap after k = 3. Row i is drawn cᵢ ∈ {1, 2, 3} times, interleaved,
        // with Q̂ = cᵢ/r, so the collapsed B is M up to rounding.
        let (m, d, k) = (20, 8, 3);
        let sigma = [1.0, 0.7, 0.5, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8];
        let mut rng = Rng::new(23);
        let u = orthonormalize_columns(&Matrix::gaussian(m, d, &mut rng));
        let v = orthonormalize_columns(&Matrix::gaussian(d, d, &mut rng));
        let us = Matrix::from_fn(m, d, |i, j| u[(i, j)] * sigma[j]);
        let a = us.matmul(&v.transpose()).unwrap();
        let copies = |i: usize| 1 + i % 3;
        let r: usize = (0..m).map(copies).sum();
        let rows: Vec<SampledRow> = (0..3)
            .flat_map(|pass| (0..m).filter(move |&i| pass < copies(i)))
            .map(|i| row(i, a.row(i), copies(i) as f64 / r as f64))
            .collect();
        assert_eq!(rows.len(), r);
        // The input really is ill-conditioned (σ_min is resolved only to
        // the SVD's absolute accuracy) with a gap at k.
        let s = svd(&build_b_matrix(&rows).unwrap()).unwrap().s;
        assert!((s[0] - 1.0).abs() < 1e-12, "σ₁ = {}", s[0]);
        assert!(s[d - 1] < 2e-8, "σ_min = {}", s[d - 1]);
        assert!(s[k - 1] > 1e3 * s[k], "no gap at k: {s:?}");
        assert!(assert_collapse_matches_per_draw(&rows).contains(&k));
    }

    #[test]
    fn collapse_matches_per_draw_with_approximate_probabilities() {
        // Each draw's Q̂ is off by its own (1±γ) factor, as in adaptive
        // sampling, where one index drawn in two rounds carries two Q̂.
        let mut rng = Rng::new(24);
        let a = Matrix::gaussian(40, 10, &mut rng);
        let mut rows = exact_row_sampler(&a, 70, &mut rng);
        for row in rows.iter_mut() {
            row.q_hat *= 1.0 + rng.range_f64(-0.15, 0.15);
        }
        assert!(rows.iter().enumerate().any(|(i, x)| rows[..i]
            .iter()
            .any(|y| y.index == x.index && y.q_hat != x.q_hat)));
        assert!(!assert_collapse_matches_per_draw(&rows).is_empty());
    }

    #[test]
    fn collapse_matches_per_draw_on_distinct_draws() {
        // m = r: no index repeats, so the collapse only reorders rows into
        // ascending index order.
        let mut rng = Rng::new(25);
        let a = Matrix::gaussian(200, 10, &mut rng);
        let weights = a.row_norms_sq();
        let total: f64 = weights.iter().sum();
        let rows: Vec<SampledRow> = (0..30)
            .map(|j| (7 * j + 3) % 200)
            .map(|i| row(i, a.row(i), weights[i] / total))
            .collect();
        assert_eq!(build_b_matrix(&rows).unwrap().rows(), rows.len());
        assert!(!assert_collapse_matches_per_draw(&rows).is_empty());
    }

    #[test]
    fn b_matrix_scaling() {
        let rows = vec![
            SampledRow {
                index: 0,
                values: vec![2.0, 0.0],
                q_hat: 0.5,
            },
            SampledRow {
                index: 1,
                values: vec![0.0, 3.0],
                q_hat: 0.5,
            },
        ];
        let b = build_b_matrix(&rows).unwrap();
        // scale = √(1/(2 · 0.5)) = 1.
        assert_eq!(b[(0, 0)], 2.0);
        assert_eq!(b[(1, 1)], 3.0);

        // Index 1 drawn twice (with two Q̂) and index 0 once: one row per
        // index, ascending, each scaled by √(Σ 1/(r·Q̂)) over its draws.
        let rows = vec![
            row(1, &[0.0, 3.0], 0.25),
            row(0, &[2.0, 0.0], 0.5),
            row(1, &[0.0, 3.0], 0.5),
        ];
        let b = build_b_matrix(&rows).unwrap();
        assert_eq!(b.shape(), (2, 2));
        let once = (1.0 / (3.0 * 0.5f64)).sqrt();
        let twice = (1.0 / (3.0 * 0.25) + 1.0 / (3.0 * 0.5f64)).sqrt();
        assert!((twice - 2f64.sqrt()).abs() < 1e-15);
        assert_eq!(b.row(0), [2.0 * once, 0.0]);
        assert_eq!(b.row(1), [0.0, 3.0 * twice]);
    }

    #[test]
    fn b_matrix_rejects_bad_input() {
        assert!(matches!(
            build_b_matrix(&[]),
            Err(CoreError::SamplerExhausted)
        ));
        let bad_q = vec![SampledRow {
            index: 0,
            values: vec![1.0],
            q_hat: 0.0,
        }];
        assert!(build_b_matrix(&bad_q).is_err());
        let ragged = vec![
            SampledRow {
                index: 0,
                values: vec![1.0, 2.0],
                q_hat: 0.5,
            },
            SampledRow {
                index: 1,
                values: vec![1.0],
                q_hat: 0.5,
            },
        ];
        assert!(build_b_matrix(&ragged).is_err());
        // A repeated index must repeat its values bit for bit: −0.0 is not
        // 0.0.
        let mut repeated = vec![
            row(4, &[1.0, 0.0], 0.5),
            row(2, &[1.0, 1.0], 0.5),
            row(4, &[1.0, -0.0], 0.5),
        ];
        assert!(matches!(
            build_b_matrix(&repeated),
            Err(CoreError::InvalidModel(_))
        ));
        repeated[2].values[1] = 0.0;
        assert_eq!(build_b_matrix(&repeated).unwrap().rows(), 2);
        // A subnormal Q̂ overflows the weight 1/(r·Q̂).
        assert!(matches!(
            build_b_matrix(&[row(0, &[1.0], 1e-320)]),
            Err(CoreError::InvalidModel(_))
        ));
    }

    #[test]
    fn btb_is_unbiased_estimate_of_ata() {
        // E[BᵀB] = AᵀA when probabilities are exact (Lemma 3's core fact).
        let mut rng = Rng::new(5);
        let a = Matrix::gaussian(60, 6, &mut rng);
        let ata = a.gram();
        let mut acc = Matrix::zeros(6, 6);
        let trials = 300;
        for _ in 0..trials {
            let rows = exact_row_sampler(&a, 20, &mut rng);
            let b = build_b_matrix(&rows).unwrap();
            acc.add_assign(&b.gram()).unwrap();
        }
        acc.scale(1.0 / trials as f64);
        let diff = acc.sub(&ata).unwrap().frobenius_norm();
        assert!(
            diff < 0.1 * ata.frobenius_norm(),
            "bias {diff} vs {}",
            ata.frobenius_norm()
        );
    }

    #[test]
    fn fkv_achieves_additive_error_on_low_rank_plus_noise() {
        let mut rng = Rng::new(7);
        let k = 3;
        // Planted rank-3 + small noise, 200 × 16.
        let u = Matrix::gaussian(200, k, &mut rng);
        let v = Matrix::gaussian(k, 16, &mut rng);
        let mut a = u.matmul(&v).unwrap();
        a.add_assign(&Matrix::gaussian(200, 16, &mut rng).scaled(0.05))
            .unwrap();

        let best = best_rank_k(&a, k).unwrap();
        let r = 80; // ≈ k²/ε² with ε ≈ 1/3
        let rows = exact_row_sampler(&a, r, &mut rng);
        let b = build_b_matrix(&rows).unwrap();
        let (p, _) = fkv_projection(&b, k).unwrap();
        let res = p.residual_sq(&a).unwrap();
        let additive = (res - best.error_sq) / best.total_sq;
        assert!(
            additive < 0.15,
            "additive error {additive} too large (res {res}, best {})",
            best.error_sq
        );
    }

    #[test]
    fn fkv_tolerates_approximate_probabilities() {
        // Lemma 3: (1±γ) mis-reported probabilities only cost O(γ).
        let mut rng = Rng::new(9);
        let k = 2;
        let u = Matrix::gaussian(150, k, &mut rng);
        let v = Matrix::gaussian(k, 12, &mut rng);
        let a = u.matmul(&v).unwrap();
        let best = best_rank_k(&a, k).unwrap();

        let mut rows = exact_row_sampler(&a, 60, &mut rng);
        for row in rows.iter_mut() {
            let gamma = rng.range_f64(-0.15, 0.15);
            row.q_hat *= 1.0 + gamma;
        }
        let b = build_b_matrix(&rows).unwrap();
        let (p, _) = fkv_projection(&b, k).unwrap();
        let res = p.residual_sq(&a).unwrap();
        let additive = (res - best.error_sq) / best.total_sq;
        assert!(additive < 0.2, "additive error {additive}");
    }

    #[test]
    fn captured_energy_increases_with_k() {
        let mut rng = Rng::new(11);
        let b = Matrix::gaussian(30, 8, &mut rng);
        let mut prev = 0.0;
        for k in 1..=8 {
            let (_, cap) = fkv_projection(&b, k).unwrap();
            assert!(cap >= prev - 1e-9);
            prev = cap;
        }
        assert!((prev - b.frobenius_norm_sq()).abs() < 1e-7);
    }

    #[test]
    fn fkv_rejects_k_zero() {
        let b = Matrix::identity(3);
        assert!(fkv_projection(&b, 0).is_err());
    }

    #[test]
    fn fkv_passes_on_the_svd_non_finite_error() {
        // Wide (the LQ branch) and tall (the QR branch).
        for (m, d) in [(87, 256), (300, 40)] {
            let mut b = Matrix::gaussian(m, d, &mut Rng::new(38));
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e200] {
                b[(3, 5)] = bad;
                let err = fkv_projection(&b, 4).unwrap_err();
                assert!(
                    matches!(err, CoreError::Linalg(LinalgError::NonFinite(_))),
                    "{bad} in {m}×{d}: {err:?}"
                );
            }
        }
    }

    /// The k ≤ rank of `b` across whose eigengap `σₖ² − σₖ₊₁²` (at least
    /// 1e-3 of `σ₁²`) the top-k projector is well-defined.
    fn gapped_ks(b: &Matrix) -> Vec<usize> {
        let sigma_sq: Vec<f64> = svd(b).unwrap().s.iter().map(|x| x * x).collect();
        (1..=sigma_sq.len())
            .filter(|&k| {
                let gap = sigma_sq[k - 1] - sigma_sq.get(k).copied().unwrap_or(0.0);
                gap > 0.0 && gap >= 1e-3 * sigma_sq[0]
            })
            .collect()
    }

    /// `‖P − P_ref‖_F / ‖P_ref‖_F`.
    fn projector_error(p: &Projector, p_ref: &Projector) -> f64 {
        let want = p_ref.to_dense();
        p.to_dense().sub(&want).unwrap().frobenius_norm() / want.frobenius_norm()
    }

    /// Checks `fkv_projection` against the direct `svd` of `b` at every k
    /// up to `min(m, d) + 2`: the captured energy to 1e-12 relative, `V`'s
    /// width `min(k, m, d)`, and across every eigengap the projector `VVᵀ`
    /// to 1e-12 relative. Returns the k whose projector was compared.
    fn assert_matches_direct_svd(b: &Matrix) -> Vec<usize> {
        let (m, d) = b.shape();
        let direct = svd(b).unwrap();
        let gapped = gapped_ks(b);
        for k in 1..=m.min(d) + 2 {
            let (p, captured) = fkv_projection(b, k).unwrap();
            let want: f64 = direct.s.iter().take(k).map(|x| x * x).sum();
            assert!(
                (captured - want).abs() <= 1e-12 * want,
                "{m}×{d}, k = {k}: captured {captured:e}, want {want:e}"
            );
            assert_eq!(p.rank(), k.min(m).min(d), "{m}×{d}, k = {k}");
            if gapped.contains(&k) {
                let err = projector_error(&p, &direct.top_right_projector(k));
                assert!(
                    err < 1e-12,
                    "{m}×{d}, k = {k}: projector differs by {err:e}"
                );
            }
        }
        gapped
    }

    #[test]
    fn projection_matches_direct_svd_on_every_shape() {
        // Wide (the LQ branch), tall and square (the QR branch), one row,
        // and one column; every shape also runs k past min(m, d).
        let mut rng = Rng::new(26);
        for (m, d) in [(20, 48), (5, 30), (60, 12), (16, 16), (1, 24), (24, 1)] {
            let b = Matrix::gaussian(m, d, &mut rng);
            assert!(!assert_matches_direct_svd(&b).is_empty(), "{m}×{d}");
        }
    }

    #[test]
    fn projection_matches_direct_svd_on_rank_deficient_and_zero_input() {
        let mut rng = Rng::new(27);
        for (m, d) in [(30, 20), (10, 40)] {
            let low = Matrix::gaussian(m, 3, &mut rng);
            let b = low.matmul(&Matrix::gaussian(3, d, &mut rng)).unwrap();
            assert!(assert_matches_direct_svd(&b).contains(&3), "{m}×{d}");
        }
        // No eigengap at all: σ = 0 and the identity's first columns, as
        // `svd` gives.
        for (m, d) in [(8, 20), (30, 6)] {
            let b = Matrix::zeros(m, d);
            assert!(assert_matches_direct_svd(&b).is_empty());
            for k in [1, 4, 9] {
                let (p, captured) = fkv_projection(&b, k).unwrap();
                assert_eq!(captured, 0.0);
                assert_eq!(p.basis(), &svd(&b).unwrap().top_right_vectors(k));
            }
        }
    }

    #[test]
    fn projection_of_large_finite_input_matches_the_unscaled_one() {
        // ‖B‖²_F ≥ 2⁵¹¹: B is scaled down by a power of two before the
        // reduction, and the energy scaled back.
        let mut rng = Rng::new(28);
        for (m, d) in [(12, 40), (40, 12)] {
            let b = Matrix::gaussian(m, d, &mut rng);
            let gapped = gapped_ks(&b);
            assert!(!gapped.is_empty());
            for scale in [1e78, 1e100, 1e150] {
                let big = b.scaled(scale);
                assert!(big.frobenius_norm_sq() >= 2f64.powi(511));
                for &k in &gapped {
                    let (p, captured) = fkv_projection(&big, k).unwrap();
                    let (p_ref, captured_ref) = fkv_projection(&b, k).unwrap();
                    let rel = (captured / (scale * scale) - captured_ref).abs() / captured_ref;
                    assert!(
                        rel <= 1e-12,
                        "{m}×{d} at {scale:e}, k = {k}: energy off by {rel:e}"
                    );
                    let err = projector_error(&p, &p_ref);
                    assert!(
                        err < 1e-12,
                        "{m}×{d} at {scale:e}, k = {k}: projector off by {err:e}"
                    );
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of 64-bit words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
        })
    }

    /// The `fkv_step` bench's input: `r` draws over the `m` rows of a
    /// Gaussian `m × d` matrix, every row drawn at least once, with
    /// length-squared probabilities.
    fn bench_draws(r: usize, m: usize, d: usize, rng: &mut Rng) -> Vec<SampledRow> {
        let a = Matrix::gaussian(m, d, rng);
        let weights = a.row_norms_sq();
        let total: f64 = weights.iter().sum();
        let mut indices: Vec<usize> = (0..m).chain((m..r).map(|_| rng.index(m))).collect();
        rng.shuffle(&mut indices);
        indices
            .into_iter()
            .map(|i| row(i, a.row(i), weights[i] / total))
            .collect()
    }

    /// A digest of every bit of the basis and captured energy at the
    /// `fkv_step` bench's Gaussian shapes, k = 12: `warm_svd`'s and
    /// `cold_prepare`'s (wide, the LQ branch), then a tall one (the QR
    /// branch), captured when the Jacobi sweep gained de Rijk's pivot. A
    /// change to this step shows here which shapes it moves.
    #[test]
    fn projection_bits_match_golden_digest() {
        let digests: Vec<u64> = [(500, 150, 256), (200, 90, 256), (500, 150, 40)]
            .into_iter()
            .map(|(r, m, d)| {
                let rows = bench_draws(r, m, d, &mut Rng::new(6));
                let b = build_b_matrix(&rows).unwrap();
                let (p, captured) = fkv_projection(&b, 12).unwrap();
                let bits = p.basis().as_slice().iter().chain([&captured]);
                fnv1a(bits.map(|x| x.to_bits()))
            })
            .collect();
        assert_eq!(
            digests,
            [
                0xe6c3_f87d_aa9d_d6ea,
                0x7a69_421d_0e86_d75a,
                0xc32a_e8ff_f4e8_0351
            ],
            "{digests:x?}"
        );
    }
}
