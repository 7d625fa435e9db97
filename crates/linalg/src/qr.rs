//! Householder QR factorization and column orthonormalization.
//!
//! [`householder_qr`] keeps `Q` as its reflectors `Hⱼ = I − 2vⱼvⱼᵀ`
//! and applies them on demand ([`HouseholderQr::apply_q_to_rows`]), so
//! a caller that needs `Q` on a few vectors never forms it. That is the
//! reduction step of [`top_right_svd`](crate::svd::top_right_svd), which
//! factors `B` (or `Bᵀ`) once so that the Jacobi sweeps run on the small
//! square `R` instead of on `B`.

use crate::matrix::{dot, norm, Matrix};
use crate::{LinalgError, Result};

/// A Householder QR factorization `A = Q·R` of an `m × n` matrix,
/// `m ≥ n`, with `Q = H₀H₁⋯Hₙ₋₁` (its first `n` columns) kept as the
/// `n` reflectors `Hⱼ = I − 2vⱼvⱼᵀ`, never formed.
#[derive(Debug, Clone)]
pub struct HouseholderQr {
    /// Row `j` is the unit vector `vⱼ`, zero before coordinate `j`; a
    /// zero row is `Hⱼ = I` (column `j` was already reduced). `n × m`.
    v: Matrix,
    /// `n × n` upper triangular.
    r: Matrix,
}

/// Thin QR factorization `A = Q·R` of an `m × n` matrix with `m ≥ n`:
/// `Q` is `m × n` with orthonormal columns, kept as reflectors, and `R`
/// is `n × n` upper triangular.
pub fn householder_qr(a: &Matrix) -> Result<HouseholderQr> {
    let (m, n) = a.shape();
    if m < n {
        return Err(LinalgError::InvalidArgument(format!(
            "householder_qr requires rows >= cols, got {m}x{n}"
        )));
    }
    Ok(factor_columns(a.transpose()))
}

/// Factors the `m × n` matrix whose columns are the rows of `cols`
/// (`n × m`, `m ≥ n`: each column contiguous), reducing `cols` in place
/// into the reflectors.
pub(crate) fn factor_columns(mut cols: Matrix) -> HouseholderQr {
    let (n, m) = cols.shape();
    debug_assert!(
        m >= n,
        "factor_columns needs n <= m, got {n} columns of {m}"
    );
    let mut r = Matrix::zeros(n, n);
    let data = cols.as_mut_slice();
    for j in 0..n {
        let (head, trailing) = data.split_at_mut((j + 1) * m);
        let col = &mut head[j * m..];
        // R's column j above the diagonal is final: reflectors j and later
        // act on coordinates from j on.
        for (i, x) in col[..j].iter_mut().enumerate() {
            r[(i, j)] = std::mem::take(x);
        }
        let v = &mut col[j..];
        let alpha = norm(v);
        if alpha == 0.0 {
            v.fill(0.0);
            continue;
        }
        // vⱼ = x + sign(x₀)·‖x‖·e₀, normalized: adding with x₀'s sign
        // avoids cancellation, and Hⱼx = −sign(x₀)·‖x‖·e₀.
        let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
        r[(j, j)] = -sign * alpha;
        v[0] += sign * alpha;
        let vnorm = norm(v);
        for x in v.iter_mut() {
            *x /= vnorm;
        }
        let v = &*v;
        for other in trailing.chunks_exact_mut(m) {
            reflect(v, &mut other[j..]);
        }
    }
    HouseholderQr { v: cols, r }
}

/// `x ← (I − 2vvᵀ)·x`.
#[inline]
fn reflect(v: &[f64], x: &mut [f64]) {
    let c = 2.0 * dot(v, x);
    for (t, &vi) in x.iter_mut().zip(v) {
        *t -= c * vi;
    }
}

impl HouseholderQr {
    /// `R`, `n × n` upper triangular.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// `y·Qᵀ`: `Q` applied to each row of the `c × n` matrix `y`, as the
    /// rows of a `c × m` matrix. Each row is padded to `m` with zeros and
    /// reflected by `Hₙ₋₁` first and `H₀` last; `Q` is never formed.
    pub fn apply_q_to_rows(&self, y: &Matrix) -> Matrix {
        let (n, m) = self.v.shape();
        assert_eq!(
            y.cols(),
            n,
            "apply_q_to_rows: rows of {} for Q with {n} columns",
            y.cols()
        );
        let mut out = Matrix::zeros(y.rows(), m);
        for i in 0..y.rows() {
            let row = out.row_mut(i);
            row[..n].copy_from_slice(y.row(i));
            for j in (0..n).rev() {
                reflect(&self.v.row(j)[j..], &mut row[j..]);
            }
        }
        out
    }

    /// The thin `Q`: `m × n` with orthonormal columns.
    pub fn q(&self) -> Matrix {
        self.apply_q_to_rows(&Matrix::identity(self.v.rows()))
            .transpose()
    }
}

/// Orthonormalizes the columns of `a` via modified Gram–Schmidt with
/// re-orthogonalization, dropping (near-)dependent columns. Returns an
/// `m × r` matrix whose `r ≤ n` columns are an orthonormal basis of the
/// column space of `a`.
pub fn orthonormalize_columns(a: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(n);
    let drop_tol = 1e-10 * a.max_abs().max(1.0);
    for j in 0..n {
        let mut v = a.col(j);
        // Two rounds of MGS ("twice is enough").
        for _ in 0..2 {
            for b in &basis {
                let c = dot(b, &v);
                for (vi, &bi) in v.iter_mut().zip(b) {
                    *vi -= c * bi;
                }
            }
        }
        let nv = norm(&v);
        if nv > drop_tol {
            for x in &mut v {
                *x /= nv;
            }
            basis.push(v);
        }
    }
    let r = basis.len();
    let mut q = Matrix::zeros(m, r);
    for (j, b) in basis.iter().enumerate() {
        for i in 0..m {
            q[(i, j)] = b[i];
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_util::Rng;

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let g = q.gram();
        for i in 0..q.cols() {
            for j in 0..q.cols() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g[(i, j)] - want).abs() < tol,
                    "gram[{i},{j}] = {}",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn qr_reconstructs() {
        let mut rng = Rng::new(11);
        for &(m, n) in &[(5usize, 3usize), (8, 8), (20, 4), (3, 1)] {
            let a = Matrix::gaussian(m, n, &mut rng);
            let qr = householder_qr(&a).unwrap();
            let (q, r) = (qr.q(), qr.r());
            assert_eq!(q.shape(), (m, n));
            assert_eq!(r.shape(), (n, n));
            let err = q.matmul(r).unwrap().sub(&a).unwrap().frobenius_norm();
            assert!(err < 1e-10, "reconstruction error {err} for {m}x{n}");
            assert_orthonormal_cols(&q, 1e-10);
        }
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let mut rng = Rng::new(12);
        let a = Matrix::gaussian(6, 4, &mut rng);
        let qr = householder_qr(&a).unwrap();
        let r = qr.r();
        for i in 1..4 {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-12, "r[{i},{j}] = {}", r[(i, j)]);
            }
        }
    }

    #[test]
    fn qr_rejects_wide() {
        let a = Matrix::zeros(2, 3);
        assert!(householder_qr(&a).is_err());
    }

    #[test]
    fn qr_handles_rank_deficient() {
        // Two identical columns: QR still reconstructs.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let qr = householder_qr(&a).unwrap();
        let err = qr.q().matmul(qr.r()).unwrap().sub(&a).unwrap();
        assert!(err.frobenius_norm() < 1e-10);
        assert_orthonormal_cols(&qr.q(), 1e-10);
        // A zero column is already reduced: its reflector is the identity.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 2.0]]).unwrap();
        let qr = householder_qr(&a).unwrap();
        assert_eq!(qr.r()[(0, 0)], 0.0);
        let err = qr.q().matmul(qr.r()).unwrap().sub(&a).unwrap();
        assert!(err.frobenius_norm() < 1e-12);
    }

    #[test]
    fn applying_q_to_rows_matches_the_formed_q() {
        let mut rng = Rng::new(15);
        let qr = householder_qr(&Matrix::gaussian(9, 4, &mut rng)).unwrap();
        let y = Matrix::gaussian(3, 4, &mut rng);
        let want = y.matmul(&qr.q().transpose()).unwrap();
        let got = qr.apply_q_to_rows(&y);
        assert_eq!(got.shape(), (3, 9));
        assert!(got.sub(&want).unwrap().frobenius_norm() < 1e-12);
    }

    #[test]
    fn orthonormalize_full_rank() {
        let mut rng = Rng::new(13);
        let a = Matrix::gaussian(10, 4, &mut rng);
        let q = orthonormalize_columns(&a);
        assert_eq!(q.cols(), 4);
        assert_orthonormal_cols(&q, 1e-10);
    }

    #[test]
    fn orthonormalize_drops_dependent_columns() {
        let mut rng = Rng::new(14);
        let a = Matrix::gaussian(10, 3, &mut rng);
        // Append a column that is a combination of the first two.
        let dep: Vec<f64> = (0..10).map(|i| a[(i, 0)] * 2.0 - a[(i, 1)]).collect();
        let mut wide = Matrix::zeros(10, 4);
        for i in 0..10 {
            for j in 0..3 {
                wide[(i, j)] = a[(i, j)];
            }
            wide[(i, 3)] = dep[i];
        }
        let q = orthonormalize_columns(&wide);
        assert_eq!(q.cols(), 3);
        assert_orthonormal_cols(&q, 1e-10);
    }

    #[test]
    fn orthonormalize_zero_matrix_gives_empty_basis() {
        let q = orthonormalize_columns(&Matrix::zeros(5, 3));
        assert_eq!(q.cols(), 0);
    }
}
