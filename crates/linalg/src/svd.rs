//! One-sided Jacobi (Hestenes) singular value decomposition.
//!
//! The protocols only ever need the top-k *right* singular vectors of a
//! small sampled matrix `B ∈ ℝᵐˣᵈ` with one row per distinct sampled index
//! (Algorithm 1 line 8), while the experiment harness needs a full SVD of
//! the global matrix to measure the true `‖A − [A]ₖ‖²_F`. One-sided Jacobi
//! serves both: it is simple, robust for the sizes involved, and delivers
//! singular vectors to near machine precision.

use crate::matrix::{dot, Matrix};
use crate::{LinalgError, Result};

/// A thin singular value decomposition `a = U · diag(σ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns (`m × r`, `r = min(m, n)`).
    pub u: Matrix,
    /// Singular values, descending, length `r`.
    pub s: Vec<f64>,
    /// Right singular vectors as *rows* (`r × n`), i.e. this is `Vᵀ`.
    pub vt: Matrix,
}

impl Svd {
    /// Rank up to tolerance `tol · σ₁` (relative).
    pub fn rank(&self, rel_tol: f64) -> usize {
        let s1 = self.s.first().copied().unwrap_or(0.0);
        if s1 == 0.0 {
            return 0;
        }
        self.s.iter().take_while(|&&x| x > rel_tol * s1).count()
    }

    /// The top-`k` right singular vectors as columns of a `n × k` matrix
    /// (the `V` of Algorithm 1 line 8).
    pub fn top_right_vectors(&self, k: usize) -> Matrix {
        let k = k.min(self.s.len());
        let n = self.vt.cols();
        Matrix::from_fn(n, k, |i, j| self.vt[(j, i)])
    }

    /// The top-`k` right singular space as a factored projector
    /// `P = VₖVₖᵀ` (Algorithm 1 line 8, without materializing `d × d`).
    pub fn top_right_projector(&self, k: usize) -> crate::projector::Projector {
        crate::projector::Projector::from_basis(self.top_right_vectors(k))
    }

    /// Reconstructs `U · diag(σ) · Vᵀ` (for testing).
    pub fn reconstruct(&self) -> Matrix {
        let r = self.s.len();
        let mut us = self.u.clone();
        for j in 0..r {
            for i in 0..us.rows() {
                us[(i, j)] *= self.s[j];
            }
        }
        us.matmul(&self.vt).expect("shape by construction")
    }

    /// Sum of squared singular values below index `k`:
    /// `‖A − [A]ₖ‖²_F = Σ_{j>k} σ_j²` (Eckart–Young).
    pub fn tail_energy(&self, k: usize) -> f64 {
        self.s.iter().skip(k).map(|x| x * x).sum()
    }
}

/// Maximum Jacobi sweeps; each sweep touches all column pairs once.
const MAX_SWEEPS: usize = 60;

/// Computes the thin SVD of an arbitrary matrix by one-sided Jacobi.
///
/// For `m < n` the decomposition is computed on the transpose and the factors
/// swapped, so the cost is always `O(min(m,n)² · max(m,n))` per sweep.
pub fn svd(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            vt: Matrix::zeros(0, n),
        });
    }
    if m < n {
        let t = svd(&a.transpose())?;
        return Ok(Svd {
            u: t.vt.transpose(),
            s: t.s,
            vt: t.u.transpose(),
        });
    }
    // m >= n. Work on W = A with columns stored as rows (transpose) so each
    // column is contiguous; accumulate V (n x n) the same way.
    let mut wt = a.transpose(); // n x m, row j = column j of W
    let mut vt_acc = Matrix::identity(n); // row j = column j of V

    let total = a.frobenius_norm_sq();
    if total == 0.0 {
        // Zero matrix: σ = 0, U/V arbitrary orthonormal (identity blocks).
        let u = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
        return Ok(Svd {
            u,
            s: vec![0.0; n],
            vt: Matrix::identity(n),
        });
    }
    let tol = 1e-15 * total;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (alpha, beta, gamma) = {
                    let cp = wt.row(p);
                    let cq = wt.row(q);
                    (dot(cp, cp), dot(cq, cq), dot(cp, cq))
                };
                if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate columns p and q of W (rows of wt) and of V.
                rotate_rows(&mut wt, p, q, c, s);
                rotate_rows(&mut vt_acc, p, q, c, s);
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence("svd (one-sided Jacobi)"));
    }

    // Column norms are singular values.
    let mut sigma: Vec<(f64, usize)> = (0..n)
        .map(|j| (dot(wt.row(j), wt.row(j)).sqrt(), j))
        .collect();
    sigma.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    let mut u = Matrix::zeros(m, n);
    let mut vt = Matrix::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (out_j, &(sv, src_j)) in sigma.iter().enumerate() {
        s.push(sv);
        let wcol = wt.row(src_j);
        if sv > 0.0 {
            for i in 0..m {
                u[(i, out_j)] = wcol[i] / sv;
            }
        }
        // If sv == 0 the U column stays zero; harmless for our uses
        // (reconstruction multiplies it by σ = 0).
        let vcol = vt_acc.row(src_j);
        for i in 0..n {
            vt[(out_j, i)] = vcol[i];
        }
    }
    Ok(Svd { u, s, vt })
}

#[inline]
fn rotate_rows(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    debug_assert!(p < q, "rotate_rows requires p < q");
    let cols = m.cols();
    let (pi, qi) = (p * cols, q * cols);
    let data = m.as_mut_slice();
    // Split-borrow the two rows (p < q so pi < qi).
    let (a, b) = data.split_at_mut(qi);
    let rp = &mut a[pi..pi + cols];
    let rq = &mut b[..cols];
    for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
        let a = *xp;
        let b = *xq;
        *xp = c * a - s * b;
        *xq = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::sym_eigen;
    use dlra_util::Rng;

    fn assert_svd_valid(a: &Matrix, d: &Svd, tol: f64) {
        let (m, n) = a.shape();
        let r = m.min(n);
        assert_eq!(d.s.len(), r);
        assert_eq!(d.u.shape(), (m, r));
        assert_eq!(d.vt.shape(), (r, n));
        // Reconstruction.
        let err = d.reconstruct().sub(a).unwrap().frobenius_norm();
        assert!(err < tol, "reconstruction error {err}");
        // Descending nonnegative singular values.
        assert!(d.s.iter().all(|&x| x >= 0.0));
        assert!(d.s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        // Right-vector orthonormality: V Vᵀ == I_r.
        let vvt = d.vt.matmul(&d.vt.transpose()).unwrap();
        for i in 0..r {
            for j in 0..r {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (vvt[(i, j)] - want).abs() < 1e-9,
                    "vvt[{i},{j}]={}",
                    vvt[(i, j)]
                );
            }
        }
    }

    #[test]
    fn svd_tall_wide_square() {
        let mut rng = Rng::new(31);
        for &(m, n) in &[(6usize, 4usize), (4, 6), (5, 5), (1, 3), (3, 1), (1, 1)] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let d = svd(&a).unwrap();
            assert_svd_valid(&a, &d, 1e-9);
        }
    }

    #[test]
    fn svd_left_vectors_orthonormal_full_rank() {
        let mut rng = Rng::new(32);
        let a = Matrix::gaussian(8, 5, &mut rng);
        let d = svd(&a).unwrap();
        let utu = d.u.gram();
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((utu[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn singular_values_match_eigen_of_gram() {
        let mut rng = Rng::new(33);
        let a = Matrix::gaussian(10, 6, &mut rng);
        let d = svd(&a).unwrap();
        let e = sym_eigen(&a.gram()).unwrap();
        for (sv, ev) in d.s.iter().zip(&e.values) {
            assert!((sv * sv - ev).abs() < 1e-8, "σ²={} vs λ={}", sv * sv, ev);
        }
    }

    #[test]
    fn known_diagonal_singular_values() {
        let a = Matrix::from_rows(&[vec![0.0, 3.0], vec![-2.0, 0.0]]).unwrap();
        let d = svd(&a).unwrap();
        assert!((d.s[0] - 3.0).abs() < 1e-12);
        assert!((d.s[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let d = svd(&a).unwrap();
        assert_eq!(d.s, vec![0.0; 3]);
        assert_svd_valid(&a, &d, 1e-12);
    }

    #[test]
    fn rank_deficient_matrix() {
        // Rank-1 outer product.
        let a = Matrix::from_fn(6, 4, |i, j| (i as f64 + 1.0) * (j as f64 - 1.5));
        let d = svd(&a).unwrap();
        assert_svd_valid(&a, &d, 1e-9);
        assert_eq!(d.rank(1e-9), 1);
        assert!(d.s[1] < 1e-9 * d.s[0]);
    }

    #[test]
    fn empty_matrix() {
        let d = svd(&Matrix::zeros(0, 3)).unwrap();
        assert!(d.s.is_empty());
        let d = svd(&Matrix::zeros(3, 0)).unwrap();
        assert!(d.s.is_empty());
    }

    #[test]
    fn tail_energy_matches_definition() {
        let mut rng = Rng::new(34);
        let a = Matrix::gaussian(7, 5, &mut rng);
        let d = svd(&a).unwrap();
        let total: f64 = d.s.iter().map(|x| x * x).sum();
        assert!((total - a.frobenius_norm_sq()).abs() < 1e-8);
        assert!((d.tail_energy(0) - total).abs() < 1e-8);
        assert_eq!(d.tail_energy(5), 0.0);
        let t2 = d.s[2] * d.s[2] + d.s[3] * d.s[3] + d.s[4] * d.s[4];
        assert!((d.tail_energy(2) - t2).abs() < 1e-10);
    }

    #[test]
    fn top_right_vectors_shape_and_orthonormality() {
        let mut rng = Rng::new(35);
        let a = Matrix::gaussian(9, 6, &mut rng);
        let d = svd(&a).unwrap();
        let v2 = d.top_right_vectors(2);
        assert_eq!(v2.shape(), (6, 2));
        let g = v2.gram();
        assert!((g[(0, 0)] - 1.0).abs() < 1e-10);
        assert!((g[(1, 1)] - 1.0).abs() < 1e-10);
        assert!(g[(0, 1)].abs() < 1e-10);
        // Asking for more than min(m,n) clamps.
        assert_eq!(d.top_right_vectors(100).cols(), 6);
    }

    #[test]
    fn moderately_large_matrix_accuracy() {
        let mut rng = Rng::new(36);
        let a = Matrix::gaussian(80, 40, &mut rng);
        let d = svd(&a).unwrap();
        assert_svd_valid(&a, &d, 1e-7);
    }
}
