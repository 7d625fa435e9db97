//! One-sided Jacobi (Hestenes) singular value decomposition.
//!
//! The protocols only ever need the top-k *right* singular vectors of a
//! small sampled matrix `B ∈ ℝᵐˣᵈ` with one row per distinct sampled index
//! (Algorithm 1 line 8), while the experiment harness needs a full SVD of
//! the global matrix to measure the true `‖A − [A]ₖ‖²_F`. One-sided Jacobi
//! serves both: it is simple, robust for the sizes involved, and delivers
//! singular vectors to near machine precision. [`svd`] gives the full
//! decomposition; [`top_right_svd`] gives the protocols' `σ` and top-k
//! `V` for less work.
//!
//! # Reduce first: Chan's R-SVD
//!
//! [`svd`] sweeps the `min(m, d)` vectors of `B`'s short side, each as long
//! as the long side, and accumulates a `min(m, d)`-square rotation.
//! [`top_right_svd`] first reduces `B` with one Householder factorization
//! (Chan, ACM TOMS 8(1), 1982): the LQ of `B` (the QR of `Bᵀ`) when
//! m < d, its QR when m ≥ d. The reflectors preserve every inner product,
//! so the columns of the `min(m, d)`-square triangle `R` stand in for
//! `B`'s rows (m < d) or columns, and the same sweep runs on vectors of
//! length `min(m, d)` instead of `max(m, d)`:
//!
//! - **m < d:** `B = Rᵀ·Qᵀ`. The rotated columns of `R`, normalized, are
//!   `Rᵀ`'s right singular vectors, so the sweep keeps no accumulator; the
//!   top k of them, reflected back into `ℝᵈ` by the kept reflectors
//!   (`Q` is never formed), are `V`.
//! - **m ≥ d:** `B = Q·R` has `R`'s right singular vectors, so the sweep
//!   keeps its accumulator, and that is `V`; `Q` is not needed.
//!
//! No-accumulate is a mode of the one sweep (an empty `v`), not a second
//! sweep: it leaves `σ` and the rotated vectors bit-identical. The sweep
//! sees `R` instead of `B`, so [`top_right_svd`]'s output differs from
//! [`svd`]'s in the low bits.
//!
//! # One pass per pair, three chains
//!
//! Each pair `(p, q)` of a sweep needs `α = ‖c_p‖²`, `β = ‖c_q‖²` and
//! `γ = c_p·c_q`. Each is a chain of additions that must stay sequential:
//! summing one chain across vector lanes would regroup it, and the
//! rounding of a regrouped sum moves `u`, `s` and `vt` in their low bits,
//! and with them every projection and reproduced digit downstream. The
//! sweep therefore reads the two vectors once and advances all three
//! chains per element, each in ascending index from −0.0, exactly as
//! [`dot`] sums: the chains are independent, so the CPU overlaps their
//! latencies instead of waiting out three chains in a row. The rotations
//! that follow are elementwise, so they vectorize at any width without
//! regrouping anything. `isa_dispatch!` compiles that one sweep for
//! baseline x86-64, AVX2 and AVX-512, and a proptest holds every body the
//! host can run to the baseline's bits.
//!
//! # Pivoting
//!
//! Before row `p`'s pairs, the sweep swaps into position `p` the remaining
//! row with the largest squared norm, and the same two rows of `v` when it
//! accumulates: de Rijk's pivoting (SIAM J. Sci. Stat. Comput. 10(2),
//! 1989). The heaviest remaining row leads its pairs, and the rows come
//! out nearly sorted by `σ`; on `fkv_projection`'s `B` the sweeps fall
//! from about 12 to 8–9 (README, "The coordinator's SVD"). The norms cost no
//! extra pass over the pairs: [`dot`] takes them at the start of each
//! sweep, and each pair `(p, q)` then keeps row `q`'s, its fresh `β` when
//! the pair is skipped, `β + t·γ` after a rotation (the rotation's update
//! of `‖w_q‖²`). Ties go to the lowest index.
//!
//! The pivot only chooses which row leads, so it cannot move bits between
//! bodies. Its norms are [`dot`]'s one chain and the scalar `β + t·γ`
//! (Rust never contracts it into a fused multiply-add), the same
//! operations in every body, and the choice is a strict `>` scanned in
//! ascending index: every body swaps the same rows at the same moment.
//! The convergence test, the tolerance and the rotations are those of the
//! unpivoted sweep, but the pairs rotate in another order, so `u`, `s`
//! and `vt` differ from its output in their low bits.
//!
//! # Large finite input
//!
//! The sweep skips a pair when `|γ| ≤ 1e-15·√(α·β)`. Once `‖a‖²_F`
//! reaches 2⁵¹¹, `α·β` can overflow to ∞ and every pair would be skipped,
//! so [`svd`] then sweeps a copy scaled down by a power of two and scales
//! `σ` back up. Both steps are exact, `U` and `V` are scale-free, and
//! below 2⁵¹¹ nothing is scaled. [`top_right_svd`] scales the same way
//! before its factorization.

#[cfg(target_arch = "x86_64")]
use crate::kernels::isa;
use crate::kernels::isa_dispatch;
use crate::matrix::{dot, Matrix};
use crate::qr::factor_columns;
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
/// The sweeps rotate the `min(m, n)` vectors of the short side: the
/// columns of `a` when `m ≥ n`, its rows when `m < n` (the decomposition
/// of `aᵀ`, whose factors swap at the end), so the cost is always
/// `O(min(m,n)² · max(m,n))` per sweep.
///
/// Returns [`LinalgError::NonFinite`] before any sweep if `‖a‖²_F` is
/// not finite: a NaN or ±∞ entry, or entries whose squares overflow.
pub fn svd(a: &Matrix) -> Result<Svd> {
    svd_and_sweeps(a).map(|(d, _)| d)
}

/// [`svd`] and the number of Jacobi sweeps it ran.
fn svd_and_sweeps(a: &Matrix) -> Result<(Svd, usize)> {
    let (m, n) = a.shape();
    let r = m.min(n);
    let eye = |rows, cols| Matrix::from_fn(rows, cols, |i, j| if i == j { 1.0 } else { 0.0 });
    let Some((tol, e)) = prescale(a, "svd (one-sided Jacobi)")? else {
        // Zero or empty matrix: σ = 0, U/V arbitrary orthonormal
        // (identity blocks).
        let d = Svd {
            u: eye(m, r),
            s: vec![0.0; r],
            vt: eye(r, n),
        };
        return Ok((d, 0));
    };
    // Row j of `w` is the j-th vector to rotate, contiguous; row j of `v`
    // is column j of the accumulated rotation.
    let wide = m < n;
    let mut w = if wide { a.clone() } else { a.transpose() };
    if e > 0 {
        w.scale(pow2(-e));
    }
    let mut v = Matrix::identity(r);
    let (ranked, sweeps) = orthogonalize(&mut w, v.as_mut_slice(), tol)?;

    // In descending σ: the normalized rotated vectors (`U`'s columns, or
    // `Vᵀ`'s rows when m < n) and the rotation's columns (`V`'s, or `U`'s).
    let ws = normalized_rows(&w, &ranked);
    let vs = Matrix::from_fn(r, r, |i, j| v[(ranked[i].1, j)]);
    let s = ranked.iter().map(|&(sv, _)| sv * pow2(e)).collect();
    let (u, vt) = if wide {
        (vs.transpose(), ws)
    } else {
        (ws.transpose(), vs)
    };
    Ok((Svd { u, s, vt }, sweeps))
}

/// The singular values of `a` (all `min(m, n)`, descending) and its
/// top-`k` right singular vectors as the columns of an `n × min(k, m, n)`
/// matrix: the `σ` and `V` of Algorithm 1 line 8, by Chan's R-SVD (module
/// docs). One Householder factorization reduces `a` to its `min(m, n)`
/// square triangular factor `R`, and the Jacobi sweeps of [`svd`] run on
/// `R`'s columns: without an accumulator when `m < n` (the normalized
/// vectors, mapped back through the reflectors, are `V`), with one when
/// `m ≥ n` (the accumulated rotation is `V`).
///
/// `V` spans the same top-k space as [`svd`]'s, and matches it in all
/// but the low bits; a zero matrix gives `σ = 0` and the first `k`
/// columns of the identity, as [`svd`] does. Returns
/// [`LinalgError::NonFinite`] before any work if `‖a‖²_F` is not finite.
pub fn top_right_svd(a: &Matrix, k: usize) -> Result<(Vec<f64>, Matrix)> {
    top_right_svd_and_sweeps(a, k).map(|(s, v, _)| (s, v))
}

/// [`top_right_svd`] and the number of Jacobi sweeps it ran.
fn top_right_svd_and_sweeps(a: &Matrix, k: usize) -> Result<(Vec<f64>, Matrix, usize)> {
    let (m, n) = a.shape();
    let r = m.min(n);
    let k = k.min(r);
    let Some((tol, e)) = prescale(a, "top_right_svd (Householder + one-sided Jacobi)")? else {
        let eye = Matrix::from_fn(n, k, |i, j| if i == j { 1.0 } else { 0.0 });
        return Ok((vec![0.0; r], eye, 0));
    };
    // The short side's vectors, one per row: `a`'s rows when m < n (the
    // QR of `aᵀ`, that is the LQ of `a`), its columns otherwise.
    let mut short = if m < n { a.clone() } else { a.transpose() };
    if e > 0 {
        short.scale(pow2(-e));
    }
    let qr = factor_columns(short);
    // Row j of `Rᵀ` is `R`'s column j, which stands in for row (or
    // column) j of `a`: the reflectors preserve every inner product.
    let mut w = qr.r().transpose();
    let (ranked, v, sweeps) = if m < n {
        let (ranked, sweeps) = orthogonalize(&mut w, &mut [], tol)?;
        let top = normalized_rows(&w, &ranked[..k]);
        (ranked, qr.apply_q_to_rows(&top).transpose(), sweeps)
    } else {
        let mut acc = Matrix::identity(r);
        let (ranked, sweeps) = orthogonalize(&mut w, acc.as_mut_slice(), tol)?;
        let v = Matrix::from_fn(n, k, |i, j| acc[(ranked[j].1, i)]);
        (ranked, v, sweeps)
    };
    let s = ranked.iter().map(|&(sv, _)| sv * pow2(e)).collect();
    Ok((s, v, sweeps))
}

/// The input check and sweep tolerance for `a`: `‖a‖²_F`, summed row by
/// row of its tall orientation (down `a`'s columns when m < n: the
/// tolerance depends on the order), must be finite, or this fails as
/// [`LinalgError::NonFinite`] naming `op`. `None` for a zero or empty
/// matrix; otherwise the tolerance and the least `e ≥ 0` that brings
/// `‖2⁻ᵉ·a‖²_F` below 2⁵¹¹ (module docs).
fn prescale(a: &Matrix, op: &'static str) -> Result<Option<(f64, i32)>> {
    let (m, n) = a.shape();
    let total: f64 = if m < n {
        (0..n)
            .flat_map(|j| a.as_slice().iter().skip(j).step_by(n))
            .map(|x| x * x)
            .sum()
    } else {
        a.as_slice().iter().map(|x| x * x).sum()
    };
    if !total.is_finite() {
        return Err(LinalgError::NonFinite(op));
    }
    if total == 0.0 {
        return Ok(None);
    }
    let e = if total >= pow2(511) {
        let exponent = (total.to_bits() >> 52) as i32 - 1023;
        (exponent - 509) / 2
    } else {
        0
    };
    Ok(Some((1e-15 * (total * pow2(-2 * e)), e)))
}

/// Sweeps the rows of `w` until a sweep rotates no pair, rotating the
/// rows of the square `v` alongside (an empty `v` accumulates nothing),
/// and ranks them: each row's norm `σ` and index, by descending `σ`. Also
/// returns the number of sweeps, the last one included.
fn orthogonalize(w: &mut Matrix, v: &mut [f64], tol: f64) -> Result<(Vec<(f64, usize)>, usize)> {
    let len = w.cols();
    let Some(last) = (0..MAX_SWEEPS).position(|_| !sweep(w.as_mut_slice(), len, v, tol)) else {
        return Err(LinalgError::NoConvergence("svd (one-sided Jacobi)"));
    };
    let mut ranked: Vec<(f64, usize)> = (0..w.rows())
        .map(|j| (dot(w.row(j), w.row(j)).sqrt(), j))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    Ok((ranked, last + 1))
}

/// The rows of `w` that `ranked` names, in its order, each divided by its
/// `σ`. A row with `σ = 0` stays zero: harmless for our uses
/// (reconstruction multiplies it by `σ = 0`).
fn normalized_rows(w: &Matrix, ranked: &[(f64, usize)]) -> Matrix {
    let mut out = Matrix::zeros(ranked.len(), w.cols());
    for (i, &(sv, j)) in ranked.iter().enumerate() {
        if sv > 0.0 {
            for (o, &x) in out.row_mut(i).iter_mut().zip(w.row(j)) {
                *o = x / sv;
            }
        }
    }
    out
}

isa_dispatch!(sweep_body =>
    /// One cyclic Jacobi sweep at the widest supported ISA.
    fn sweep(w: &mut [f64], len: usize, v: &mut [f64], tol: f64) -> bool
);

/// One cyclic sweep over every pair `p < q` of the `len`-long rows of
/// `w`, rotating the same pair of rows of the square `v` unless `v` is
/// empty; returns whether any pair rotated. Before row `p`'s pairs, the
/// remaining row with the largest squared norm is swapped into position
/// `p`, in `v` too (module docs, "Pivoting"). `α = ‖w_p‖²`, `β = ‖w_q‖²`
/// and `γ = w_p·w_q` are [`dot`]'s chains, from −0.0 in ascending index
/// (`Iterator::sum` starts there), advanced side by side in one pass
/// (module docs).
#[inline(always)]
fn sweep_body(w: &mut [f64], len: usize, v: &mut [f64], tol: f64) -> bool {
    let r = w.len() / len;
    debug_assert!(v.is_empty() || v.len() == r * r);
    // `norms[q]` is row q's squared norm for every row q > p: fresh from
    // `dot` here, then the β of each pair (p, q), updated by its rotation.
    let mut norms: Vec<f64> = w.chunks_exact(len).map(|x| dot(x, x)).collect();
    let mut rotated = false;
    for p in 0..r {
        let lead = (p + 1..r).fold(p, |best, j| if norms[j] > norms[best] { j } else { best });
        if lead != p {
            swap_rows(w, len, p, lead);
            if !v.is_empty() {
                swap_rows(v, r, p, lead);
            }
            norms.swap(p, lead);
        }
        for (q, norm) in norms.iter_mut().enumerate().skip(p + 1) {
            let (wp, wq) = row_pair(w, len, p, q);
            let (mut alpha, mut beta, mut gamma) = (-0.0_f64, -0.0_f64, -0.0_f64);
            for (&x, &y) in wp.iter().zip(&*wq) {
                alpha += x * x;
                beta += y * y;
                gamma += x * y;
            }
            if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                *norm = beta;
                continue;
            }
            rotated = true;
            let zeta = (beta - alpha) / (2.0 * gamma);
            let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = c * t;
            rotate(wp, wq, c, s);
            if !v.is_empty() {
                let (vp, vq) = row_pair(v, r, p, q);
                rotate(vp, vq, c, s);
            }
            *norm = beta + t * gamma;
        }
    }
    rotated
}

/// `2ᵉ`, exactly, for an exponent of a normal `f64`.
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Rows `p < q` of the row-major `data` with `cols` columns.
#[inline(always)]
fn row_pair(data: &mut [f64], cols: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q, "row_pair requires p < q");
    let (head, tail) = data.split_at_mut(q * cols);
    (&mut head[p * cols..(p + 1) * cols], &mut tail[..cols])
}

/// Swaps rows `p < q` of the row-major `data` with `cols` columns.
#[inline(always)]
fn swap_rows(data: &mut [f64], cols: usize, p: usize, q: usize) {
    let (xp, xq) = row_pair(data, cols, p, q);
    xp.swap_with_slice(xq);
}

/// Rotates the pair `(xp, xq)` by `[c −s; s c]`, element by element.
#[inline(always)]
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::for_each_body;
    use dlra_util::Rng;
    use proptest::prelude::*;

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

    /// The σᵢ² are the eigenvalues of the Gram `AᵀA`, checked without an
    /// eigensolver: they sum to its trace `‖A‖²_F`, and each is its
    /// quadratic form at `vᵢ`, `‖A·vᵢ‖²`.
    #[test]
    fn singular_values_match_eigen_of_gram() {
        let mut rng = Rng::new(33);
        let a = Matrix::gaussian(10, 6, &mut rng);
        let d = svd(&a).unwrap();
        let energy: f64 = d.s.iter().map(|x| x * x).sum();
        let total = a.frobenius_norm_sq();
        assert!(
            (energy - total).abs() <= 1e-10,
            "Σσ² = {energy}, ‖A‖²_F = {total}"
        );
        let av = a.matmul(&d.vt.transpose()).unwrap();
        for (i, sv) in d.s.iter().enumerate() {
            let norm = (0..av.rows())
                .map(|r| av[(r, i)] * av[(r, i)])
                .sum::<f64>()
                .sqrt();
            assert!((norm - sv).abs() <= 1e-10, "‖A·v{i}‖ = {norm}, σ{i} = {sv}");
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

    /// Rank 6 plus 10 % noise, rows scaled like FKV's `√wᵢ`: singular
    /// values with a gap, as `B` has.
    fn low_rank_plus_noise(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let u = Matrix::gaussian(m, 6, &mut rng);
        let v = Matrix::gaussian(6, n, &mut rng);
        let mut a = u.matmul(&v).unwrap();
        for i in 0..m {
            let (scale, row) = (1.0 + rng.index(7) as f64, a.row_mut(i));
            for x in row {
                *x = (*x + 0.1 * rng.gaussian()) * scale;
            }
        }
        a
    }

    /// FNV-1a over the little-endian bytes of 64-bit words.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
        })
    }

    fn svd_bits(d: &Svd) -> Vec<u64> {
        let (u, vt) = (d.u.as_slice().iter(), d.vt.as_slice().iter());
        u.chain(&d.s).chain(vt).map(|x| x.to_bits()).collect()
    }

    /// A digest of every bit of `u`, `s` and `vt` at `fkv_projection`'s two
    /// shapes (wide, `m` distinct rows of `d = 256`) and one tall shape,
    /// captured when the sweep gained de Rijk's pivot (module docs).
    #[test]
    fn output_bits_match_golden_digest() {
        let digests: Vec<u64> = [(87, 256, 87), (150, 256, 150), (300, 40, 300)]
            .into_iter()
            .map(|(m, n, seed)| fnv1a(svd_bits(&svd(&low_rank_plus_noise(m, n, seed)).unwrap())))
            .collect();
        assert_eq!(
            digests,
            [
                0xeeb2_f4d7_6f21_97f6,
                0xa827_2d25_06a9_64c3,
                0x8a25_44a6_bbf5_e104
            ],
            "{digests:x?}"
        );
    }

    /// The sweeps both solvers take on the golden-digest inputs. Pivoting
    /// cut them from 10, 11 and 10 (`svd`) to these: a change that loses
    /// the pivot fails here without a timer.
    #[test]
    fn sweep_counts_on_the_golden_digest_inputs() {
        let counts: Vec<(usize, usize)> = [(87, 256, 87), (150, 256, 150), (300, 40, 300)]
            .into_iter()
            .map(|(m, n, seed)| {
                let a = low_rank_plus_noise(m, n, seed);
                let (_, full) = svd_and_sweeps(&a).unwrap();
                let (_, _, top) = top_right_svd_and_sweeps(&a, 12).unwrap();
                (full, top)
            })
            .collect();
        assert_eq!(counts, [(9, 9), (9, 9), (8, 8)]);
    }

    /// Dimensions for the body test: 1, and around one and two AVX-512
    /// vectors of `f64` (8 and 16 lanes), so the rotations' vector loops
    /// run with and without remainders.
    const DIMS: [usize; 14] = [1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 31, 33, 40];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every compiled sweep body returns the baseline body's `u`, `s`
        /// and `vt` bit for bit, on tall, wide, square, `1 × n` and
        /// `n × 1` shapes, and so does [`top_right_svd`]. Under each
        /// body, the sweep without an accumulator leaves `σ` and the
        /// normalized rotated vectors (`Vᵀ`'s rows, or `U`'s columns)
        /// bit-identical to the full `svd`'s.
        #[test]
        fn every_isa_body_is_bit_identical(
            mi in 0usize..DIMS.len(),
            ni in 0usize..DIMS.len(),
            seed in 0u64..u64::MAX,
        ) {
            let (m, n) = (DIMS[mi], DIMS[ni]);
            let a = low_rank_plus_noise(m, n, seed);
            let k = 1 + seed as usize % 8;
            let mut baseline: Option<(Vec<u64>, Vec<u64>)> = None;
            for_each_body(|body| {
                let full = svd(&a).unwrap();
                let (s, v) = top_right_svd(&a, k).unwrap();
                let reduced = s.iter().chain(v.as_slice()).map(|x| x.to_bits()).collect();
                let got = (svd_bits(&full), reduced);
                let want = baseline.get_or_insert_with(|| got.clone());
                prop_assert!(got == *want, "{body} body differs on {m}×{n}, seed {seed}");

                let (tol, e) = prescale(&a, "test").unwrap().unwrap();
                assert_eq!(e, 0);
                let mut w = if m < n { a.clone() } else { a.transpose() };
                let (ranked, _) = orthogonalize(&mut w, &mut [], tol).unwrap();
                let sigma: Vec<u64> = ranked.iter().map(|x| x.0.to_bits()).collect();
                let full_sigma: Vec<u64> = full.s.iter().map(|x| x.to_bits()).collect();
                prop_assert!(sigma == full_sigma, "{body}: σ differs on {m}×{n}, seed {seed}");
                let rotated = normalized_rows(&w, &ranked);
                let full_rotated = if m < n { full.vt } else { full.u.transpose() };
                prop_assert!(
                    rotated.as_slice().iter().map(|x| x.to_bits()).eq(
                        full_rotated.as_slice().iter().map(|x| x.to_bits())
                    ),
                    "{body}: rotated vectors differ on {m}×{n}, seed {seed}"
                );
            });
        }
    }

    /// Pivot ties go to the lowest index, under every body, with and
    /// without an accumulator. The rows of a ±3 Hadamard block are
    /// orthogonal with equal norms, so its one sweep neither rotates nor
    /// swaps: `w` and `v` come back unchanged, where ties that went to the
    /// last row would reorder them. Two equal rows `x, x` tie too: row 0
    /// leads, their rotation (ζ = 0, so `c = s`) leaves `0, 2c·x`, and the
    /// second sweep swaps them, so `v` ends `[c c; c −c]`, where a tie
    /// that went to row 1 ends `[c c; −c c]`. `svd` and `top_right_svd` of
    /// these, and of a matrix whose every row appears twice, in both
    /// orientations, match the baseline body's bits.
    #[test]
    fn pivot_ties_go_to_the_lowest_index_on_every_body() {
        let hadamard = Matrix::from_fn(16, 16, |i, j| {
            if (i & j).count_ones() % 2 == 0 {
                3.0
            } else {
                -3.0
            }
        });
        let x: Vec<f64> = (0..9).map(|j| j as f64 - 2.5).collect();
        let twins = Matrix::from_rows(&[x.clone(), x.clone()]).unwrap();
        let c = 1.0 / 2.0_f64.sqrt();
        let doubled_x: Vec<f64> = x.iter().map(|&e| c * e + c * e).collect();
        let twins_after = Matrix::from_rows(&[doubled_x, vec![0.0; 9]]).unwrap();
        let once = low_rank_plus_noise(6, 24, 7);
        let paired = Matrix::from_fn(12, 24, |i, j| once[(i / 2, j)]);
        let inputs = [&hadamard, &twins, &paired, &paired.transpose()];
        let mut baseline: Option<Vec<Vec<u64>>> = None;
        for_each_body(|body| {
            let cases = [
                (&hadamard, &hadamard, 1, Matrix::identity(16)),
                (
                    &twins,
                    &twins_after,
                    2,
                    Matrix::from_rows(&[vec![c, c], vec![c, -c]]).unwrap(),
                ),
            ];
            for (a, w_after, sweeps, v_after) in cases {
                let (tol, _) = prescale(a, "test").unwrap().unwrap();
                let (mut w, mut v) = (a.clone(), Matrix::identity(a.rows()));
                let (ranked, n) = orthogonalize(&mut w, v.as_mut_slice(), tol).unwrap();
                assert_eq!(n, sweeps, "{body}: sweeps");
                assert_eq!(w.as_slice(), w_after.as_slice(), "{body}: w");
                assert_eq!(v.as_slice(), v_after.as_slice(), "{body}: v");
                let mut bare = a.clone();
                let got = orthogonalize(&mut bare, &mut [], tol).unwrap();
                assert_eq!(got, (ranked, n), "{body}: σ without an accumulator");
                assert_eq!(bare.as_slice(), w.as_slice(), "{body}: w without one");
            }
            let got: Vec<Vec<u64>> = inputs
                .iter()
                .flat_map(|a| {
                    let (s, v) = top_right_svd(a, 4).unwrap();
                    let top = s.iter().chain(v.as_slice()).map(|x| x.to_bits()).collect();
                    [svd_bits(&svd(a).unwrap()), top]
                })
                .collect();
            let want = baseline.get_or_insert_with(|| got.clone());
            assert!(got == *want, "{body} body differs on tied rows");
        });
    }

    /// Entries from 1e78 up keep ‖a‖²_F finite but overflow `α·β` in the
    /// skip test; the decomposition must still match the unscaled one, in
    /// both orientations.
    #[test]
    fn large_finite_input_matches_the_unscaled_decomposition() {
        let a = Matrix::gaussian(20, 8, &mut Rng::new(5));
        for a in [a.clone(), a.transpose()] {
            let want = svd(&a).unwrap();
            for scale in [1e78, 1e100, 1e150] {
                let got = svd(&a.scaled(scale)).unwrap();
                for (g, w) in got.s.iter().zip(&want.s) {
                    let rel = (g / scale - w).abs() / w;
                    assert!(rel <= 1e-12, "σ {g:e} at scale {scale:e}, want {w:e}");
                }
                let utu = got.u.gram();
                for (i, j) in (0..8).flat_map(|i| (0..8).map(move |j| (i, j))) {
                    let eye = if i == j { 1.0 } else { 0.0 };
                    let off = (utu[(i, j)] - eye).abs();
                    assert!(
                        off <= 1e-12,
                        "UᵀU[{i},{j}] off by {off:e} at scale {scale:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_non_finite_input_before_any_sweep() {
        let a = Matrix::gaussian(87, 256, &mut Rng::new(37));
        // 1e200 is finite, but its square overflows ‖a‖²_F.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e200] {
            let mut b = a.clone();
            b[(40, 100)] = bad;
            for b in [&b, &b.transpose()] {
                assert_eq!(
                    svd(b).unwrap_err(),
                    LinalgError::NonFinite("svd (one-sided Jacobi)"),
                    "{bad} in a {:?} matrix",
                    b.shape()
                );
                assert_eq!(
                    top_right_svd(b, 4).unwrap_err(),
                    LinalgError::NonFinite("top_right_svd (Householder + one-sided Jacobi)"),
                    "{bad} in a {:?} matrix",
                    b.shape()
                );
            }
        }
    }
}
