//! Cache-blocked, panel-parallel dense kernels with a **fixed summation
//! order**.
//!
//! Every multiplicative kernel here accumulates each output element as one
//! chain of additions over its contraction index in strictly ascending
//! order — exactly the chain the naive triple loop produces. Blocking only
//! reorders *which element* is worked on next, never the order of additions
//! *into* an element, and the thread split assigns disjoint contiguous row
//! panels of the output, so results are bit-identical to the
//! [`reference`](mod@reference) kernels for every shape, block size, and thread count.
//! That determinism is what lets the protocol layers (and
//! `tests/runtime_equivalence.rs`) keep their exact bit-equality contracts
//! while the kernels run blocked and parallel.
//!
//! Layout of one GEMM panel (rows of the output assigned to one worker):
//!
//! ```text
//! for each k-block (KC contraction steps: a KC × NC panel of B is L2-hot)
//!   for each j-block (NC output columns)
//!     for each j-tile (JW columns) × row-quad (MR rows):
//!       load the MR × JW out tile into register accumulators
//!       for k in k-block (ascending: the fixed summation order)
//!         one JW-wide B load + MR scalar A loads feed MR·JW FLOPs
//!       store the tile back
//! ```
//!
//! Unlike the seed kernels there is **no zero-skip branch**: skipping
//! `a[i][k] == 0.0` silently dropped `0.0 * NaN` and `0.0 * ∞`
//! contributions, masking non-finite inputs. Non-finite values now
//! propagate to the output as IEEE 754 dictates (regression-tested).

use crate::threads::for_each_row_panel;

/// Contraction block: a `KC × NC` panel of `B` (256·512·8B = 1 MiB) stays
/// resident in L2/L3 while every output row quad streams over it.
const KC: usize = 256;
/// Output-column block bounding the `B` panel held hot per k-block.
const NC: usize = 512;
/// Register tile height: one JW-wide `B` load feeds MR accumulator rows.
const MR: usize = 4;
/// Register tile width of the GEMM micro-kernel (four AVX-512 vectors or
/// eight AVX2 vectors of accumulators per tile row).
const JW: usize = 32;

/// The widest SIMD level the host supports, detected once. The kernel
/// bodies are ordinary safe Rust compiled three times under different
/// `#[target_feature]` sets; the lanes of a vectorized inner loop are
/// *distinct output elements*, so ISA choice — like blocking and thread
/// count — never reorders any element's summation chain and results stay
/// bit-identical across all three paths.
#[cfg(target_arch = "x86_64")]
pub(crate) mod isa {
    use std::sync::atomic::{AtomicU8, Ordering};

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Isa {
        /// Baseline x86-64 (SSE2).
        Scalar,
        /// 256-bit vectors.
        Avx2,
        /// 512-bit vectors.
        Avx512,
    }

    static DETECTED: AtomicU8 = AtomicU8::new(0);

    #[cfg(test)]
    thread_local! {
        /// A test's choice of body on its own thread. Only [`with_forced`]
        /// sets it, after checking that the host supports that level, so
        /// the dispatch's SAFETY argument holds in tests too.
        static FORCED: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
    }

    pub fn detect() -> Isa {
        #[cfg(test)]
        if let Some(isa) = FORCED.with(std::cell::Cell::get) {
            return isa;
        }
        match DETECTED.load(Ordering::Relaxed) {
            1 => return Isa::Scalar,
            2 => return Isa::Avx2,
            3 => return Isa::Avx512,
            _ => {}
        }
        let isa = if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            Isa::Avx512
        } else if is_x86_feature_detected!("avx2") {
            Isa::Avx2
        } else {
            Isa::Scalar
        };
        DETECTED.store(
            match isa {
                Isa::Scalar => 1,
                Isa::Avx2 => 2,
                Isa::Avx512 => 3,
            },
            Ordering::Relaxed,
        );
        isa
    }

    /// Every level this host can run, baseline first.
    #[cfg(test)]
    pub fn supported() -> Vec<Isa> {
        let widest = detect();
        [Isa::Scalar, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|&isa| isa <= widest)
            .collect()
    }

    /// Runs `f` with every `isa_dispatch!` kernel on this thread taking
    /// the `isa` body, so tests reach the bodies the host would not pick.
    #[cfg(test)]
    pub fn with_forced<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
        assert!(supported().contains(&isa), "{isa:?} is not supported here");
        FORCED.with(|c| c.set(Some(isa)));
        let out = f();
        FORCED.with(|c| c.set(None));
        out
    }
}

/// Compiles `$body_fn(args…)` under the baseline, AVX2, and AVX-512
/// feature sets and dispatches on the detected ISA. On non-x86 targets
/// only the baseline body exists. `isa_dispatch!(vector, baseline => …)`
/// gives the baseline level a body of its own, for a kernel whose vector
/// form is slower than plain scalar code without AVX2.
macro_rules! isa_dispatch {
    ($body:ident => $($sig:tt)*) => {
        isa_dispatch!($body, $body => $($sig)*);
    };
    ($vector:ident, $baseline:ident =>
        $(#[$doc:meta])* fn $name:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $vector($($arg),*)
                }
                #[target_feature(enable = "avx512f,avx512vl")]
                #[allow(clippy::too_many_arguments)]
                fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $vector($($arg),*)
                }
                match isa::detect() {
                    // SAFETY: the avx512f/avx512vl feature set was
                    // verified by `is_x86_feature_detected!` in
                    // `isa::detect`.
                    isa::Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: the avx2 feature was verified by
                    // `is_x86_feature_detected!` in `isa::detect`.
                    isa::Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    isa::Isa::Scalar => {}
                }
            }
            $baseline($($arg),*)
        }
    };
}
pub(crate) use isa_dispatch;

/// Runs `f` under every `isa_dispatch!` body the host supports, naming
/// it, with the kernels pinned to this thread: the ISA override is
/// thread-local, so spawned panel threads would take the detected body. On
/// non-x86 targets only the baseline body exists.
#[cfg(test)]
pub(crate) fn for_each_body(mut f: impl FnMut(&str)) {
    #[cfg(target_arch = "x86_64")]
    for level in isa::supported() {
        crate::with_threads(1, || isa::with_forced(level, || f(&format!("{level:?}"))));
    }
    #[cfg(not(target_arch = "x86_64"))]
    crate::with_threads(1, || f("baseline"));
}

/// `out = a · b` where `a` is `m × kk` and `b` is `kk × n`, all row-major.
/// `out` must be zero-initialized.
pub(crate) fn matmul_into(a: &[f64], m: usize, kk: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * kk);
    debug_assert_eq!(b.len(), kk * n);
    debug_assert_eq!(out.len(), m * n);
    let work = 2usize
        .saturating_mul(m)
        .saturating_mul(kk)
        .saturating_mul(n);
    for_each_row_panel(out, n, work, |first_row, panel| {
        gemm_panel(a, kk, 1, kk, b, n, first_row, panel);
    });
}

isa_dispatch!(gemm_panel_body =>
    /// One worker's GEMM output row panel at the widest supported ISA.
    /// `ars`/`acs` are the row/contraction strides into `a`, so the same
    /// body serves `A·B` (`ars = kk, acs = 1`) and `Aᵀ·B`
    /// (`ars = 1, acs = a_cols`).
    fn gemm_panel(
        a: &[f64],
        ars: usize,
        acs: usize,
        kk: usize,
        b: &[f64],
        n: usize,
        first_row: usize,
        out_panel: &mut [f64],
    )
);

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_panel_body(
    a: &[f64],
    ars: usize,
    acs: usize,
    kk: usize,
    b: &[f64],
    n: usize,
    first_row: usize,
    out_panel: &mut [f64],
) {
    let rows = out_panel.len() / n;
    let mut kb = 0;
    while kb < kk {
        let ke = (kb + KC).min(kk);
        let mut jb = 0;
        while jb < n {
            let je = (jb + NC).min(n);
            // MR × JW register micro-tile: the out tile lives in registers
            // across the whole k-block, so per k-step the only memory
            // traffic is one JW-wide b load and MR scalar a loads. Each
            // out element still receives its products in ascending-k
            // order — the loads/stores bracket the chain, they don't
            // reorder it.
            let mut jt = jb;
            while jt + JW <= je {
                let mut i = 0;
                while i + MR <= rows {
                    let gi = first_row + i;
                    let (b0, b1, b2, b3) =
                        (gi * ars, (gi + 1) * ars, (gi + 2) * ars, (gi + 3) * ars);
                    let (o01, o23) = out_panel[i * n..(i + MR) * n].split_at_mut(2 * n);
                    let (o0, o1) = o01.split_at_mut(n);
                    let (o2, o3) = o23.split_at_mut(n);
                    let mut c0 = [0.0f64; JW];
                    let mut c1 = [0.0f64; JW];
                    let mut c2 = [0.0f64; JW];
                    let mut c3 = [0.0f64; JW];
                    c0.copy_from_slice(&o0[jt..jt + JW]);
                    c1.copy_from_slice(&o1[jt..jt + JW]);
                    c2.copy_from_slice(&o2[jt..jt + JW]);
                    c3.copy_from_slice(&o3[jt..jt + JW]);
                    for k in kb..ke {
                        let bk: &[f64; JW] = (&b[k * n + jt..k * n + jt + JW])
                            .try_into()
                            .expect("JW window");
                        let ka = k * acs;
                        let (x0, x1, x2, x3) = (a[b0 + ka], a[b1 + ka], a[b2 + ka], a[b3 + ka]);
                        for l in 0..JW {
                            c0[l] += x0 * bk[l];
                            c1[l] += x1 * bk[l];
                            c2[l] += x2 * bk[l];
                            c3[l] += x3 * bk[l];
                        }
                    }
                    o0[jt..jt + JW].copy_from_slice(&c0);
                    o1[jt..jt + JW].copy_from_slice(&c1);
                    o2[jt..jt + JW].copy_from_slice(&c2);
                    o3[jt..jt + JW].copy_from_slice(&c3);
                    i += MR;
                }
                // Remainder rows under this j-tile.
                while i < rows {
                    let gi = first_row + i;
                    let base = gi * ars;
                    let oi = &mut out_panel[i * n + jt..i * n + jt + JW];
                    let mut c = [0.0f64; JW];
                    c.copy_from_slice(oi);
                    for k in kb..ke {
                        let bk = &b[k * n + jt..k * n + jt + JW];
                        let x = a[base + k * acs];
                        for l in 0..JW {
                            c[l] += x * bk[l];
                        }
                    }
                    oi.copy_from_slice(&c);
                    i += 1;
                }
                jt += JW;
            }
            // Remainder columns (je - jt < JW), axpy style.
            if jt < je {
                for i in 0..rows {
                    let gi = first_row + i;
                    let base = gi * ars;
                    let oi = &mut out_panel[i * n + jt..i * n + je];
                    for k in kb..ke {
                        let bk = &b[k * n + jt..k * n + je];
                        let x = a[base + k * acs];
                        for (o, &bv) in oi.iter_mut().zip(bk) {
                            *o += x * bv;
                        }
                    }
                }
            }
            jb = je;
        }
        kb = ke;
    }
}

/// `out = aᵀ · b` where `a` is `r × c` and `b` is `r × n`; `out` is `c × n`,
/// zero-initialized. Each output row `p` accumulates `Σᵢ a[i][p] · b[i][·]`
/// with `i` strictly ascending.
pub(crate) fn transpose_matmul_into(
    a: &[f64],
    r: usize,
    c: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), r * c);
    debug_assert_eq!(b.len(), r * n);
    debug_assert_eq!(out.len(), c * n);
    let work = 2usize.saturating_mul(r).saturating_mul(c).saturating_mul(n);
    for_each_row_panel(out, n, work, |first_row, panel| {
        // `Aᵀ·B` is GEMM with strided access into `a`: output row `p` reads
        // `a[i·c + p]`, i.e. row stride 1 and contraction stride `c`.
        gemm_panel(a, 1, c, r, b, n, first_row, panel);
    });
}

/// Upper triangle of `aᵀ · a` (`a` is `r × c`, `out` is `c × c`,
/// zero-initialized); the caller mirrors. The coordinator's `BᵀB`
/// accumulation, register-tiled over KC row blocks with `i` strictly
/// ascending per element.
pub(crate) fn gram_upper_into(a: &[f64], r: usize, c: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), r * c);
    debug_assert_eq!(out.len(), c * c);
    let work = r.saturating_mul(c).saturating_mul(c);
    // Output row `p` only computes the `c − p` columns `q ≥ p`, so an
    // even row split would give the first worker ~3× the flops of the
    // last; weight the panel boundaries by each row's triangle width.
    crate::threads::for_each_row_panel_by_weight(
        out,
        c,
        work,
        |p| c - p,
        |first_row, panel| {
            gram_panel(a, r, c, first_row, panel);
        },
    );
}

isa_dispatch!(gram_panel_body =>
    /// One worker's upper-triangle gram row panel at the widest supported
    /// ISA.
    fn gram_panel(a: &[f64], r: usize, c: usize, first_row: usize, panel: &mut [f64])
);

/// Register-tiled triangular gram body: the same `MR × JW` accumulator
/// tile as the GEMM micro-kernel (`aᵀa` *is* `aᵀ·b` with `b = a`, so the
/// contraction strides match `transpose_matmul`'s), restricted to output
/// tiles on or above the diagonal. Per k-step inside a tile the only
/// memory traffic is one `JW`-wide row load plus `MR` scalar loads — the
/// out tile lives in registers for the whole `KC` block — where the old
/// body re-read and re-wrote every output element through L2 per k-step.
/// The ragged diagonal edge of each row quad (the up-to-`MR − 1` leading
/// columns where not all quad rows are active yet) and the right-hand
/// column tail accumulate per element over the same k-block, so every
/// output element still receives its products in strictly ascending-k
/// order and results stay bit-identical to [`reference::gram`].
#[inline(always)]
fn gram_panel_body(a: &[f64], r: usize, c: usize, first_row: usize, panel: &mut [f64]) {
    // Tiles sit on absolute JW-aligned column positions so the NC blocks
    // (NC is a multiple of JW) never split a tile.
    const _: () = assert!(NC.is_multiple_of(JW));
    let prows = panel.len() / c;
    let mut kb = 0;
    while kb < r {
        let ke = (kb + KC).min(r);
        let mut jb = 0;
        while jb < c {
            let je = (jb + NC).min(c);
            let mut p = 0;
            while p + MR <= prows {
                let g0 = first_row + p;
                // First JW-aligned column at/after the quad's last
                // diagonal; everything between a row's diagonal and it is
                // the ragged edge, accumulated per element.
                let jt0 = (g0 + MR - 1).next_multiple_of(JW);
                for m in 0..MR {
                    let gm = g0 + m;
                    for q in gm.max(jb)..jt0.min(je) {
                        let mut acc = panel[(p + m) * c + q];
                        for k in kb..ke {
                            acc += a[k * c + gm] * a[k * c + q];
                        }
                        panel[(p + m) * c + q] = acc;
                    }
                }
                let mut jt = jt0.max(jb);
                while jt + JW <= je {
                    let (o01, o23) = panel[p * c..(p + MR) * c].split_at_mut(2 * c);
                    let (o0, o1) = o01.split_at_mut(c);
                    let (o2, o3) = o23.split_at_mut(c);
                    let mut c0 = [0.0f64; JW];
                    let mut c1 = [0.0f64; JW];
                    let mut c2 = [0.0f64; JW];
                    let mut c3 = [0.0f64; JW];
                    c0.copy_from_slice(&o0[jt..jt + JW]);
                    c1.copy_from_slice(&o1[jt..jt + JW]);
                    c2.copy_from_slice(&o2[jt..jt + JW]);
                    c3.copy_from_slice(&o3[jt..jt + JW]);
                    for k in kb..ke {
                        let bk: &[f64; JW] = (&a[k * c + jt..k * c + jt + JW])
                            .try_into()
                            .expect("JW window");
                        let base = k * c + g0;
                        let (x0, x1, x2, x3) = (a[base], a[base + 1], a[base + 2], a[base + 3]);
                        for l in 0..JW {
                            c0[l] += x0 * bk[l];
                            c1[l] += x1 * bk[l];
                            c2[l] += x2 * bk[l];
                            c3[l] += x3 * bk[l];
                        }
                    }
                    o0[jt..jt + JW].copy_from_slice(&c0);
                    o1[jt..jt + JW].copy_from_slice(&c1);
                    o2[jt..jt + JW].copy_from_slice(&c2);
                    o3[jt..jt + JW].copy_from_slice(&c3);
                    jt += JW;
                }
                // Column tail (je − jt < JW, only at je == c), per element.
                for m in 0..MR {
                    let gm = g0 + m;
                    for q in jt.max(gm)..je {
                        let mut acc = panel[(p + m) * c + q];
                        for k in kb..ke {
                            acc += a[k * c + gm] * a[k * c + q];
                        }
                        panel[(p + m) * c + q] = acc;
                    }
                }
                p += MR;
            }
            // Remainder rows: 1 × JW tiles on the same aligned grid.
            while p < prows {
                let gp = first_row + p;
                let jt0 = gp.next_multiple_of(JW);
                for q in gp.max(jb)..jt0.min(je) {
                    let mut acc = panel[p * c + q];
                    for k in kb..ke {
                        acc += a[k * c + gp] * a[k * c + q];
                    }
                    panel[p * c + q] = acc;
                }
                let mut jt = jt0.max(jb);
                while jt + JW <= je {
                    let orow = &mut panel[p * c + jt..p * c + jt + JW];
                    let mut acc = [0.0f64; JW];
                    acc.copy_from_slice(orow);
                    for k in kb..ke {
                        let bk: &[f64; JW] = (&a[k * c + jt..k * c + jt + JW])
                            .try_into()
                            .expect("JW window");
                        let x = a[k * c + gp];
                        for l in 0..JW {
                            acc[l] += x * bk[l];
                        }
                    }
                    orow.copy_from_slice(&acc);
                    jt += JW;
                }
                for q in jt.max(gp)..je {
                    let mut acc = panel[p * c + q];
                    for k in kb..ke {
                        acc += a[k * c + gp] * a[k * c + q];
                    }
                    panel[p * c + q] = acc;
                }
                p += 1;
            }
            jb = je;
        }
        kb = ke;
    }
}

/// Tile edge for the blocked transpose: a 32×32 `f64` tile is 8 KiB read +
/// 8 KiB written, so both sides stay in L1 while the scattered axis walks.
const TB: usize = 32;

/// `out = aᵀ` via block swap: `a` is `m × n`, `out` is `n × m`.
pub(crate) fn transpose_into(a: &[f64], m: usize, n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    let work = m.saturating_mul(n);
    for_each_row_panel(out, m, work, |first_row, panel| {
        let prows = panel.len() / m;
        let mut jb = 0;
        while jb < prows {
            let je = (jb + TB).min(prows);
            let mut ib = 0;
            while ib < m {
                let ie = (ib + TB).min(m);
                for j in jb..je {
                    let src_col = first_row + j;
                    let orow = &mut panel[j * m..(j + 1) * m];
                    for i in ib..ie {
                        orow[i] = a[i * n + src_col];
                    }
                }
                ib = ie;
            }
            jb = je;
        }
    });
}

/// The retained naive kernels: unblocked, single-threaded triple loops with
/// the same fixed summation order (and, like the blocked kernels, **no**
/// zero-skip). These are the comparison baseline for the bit-identity
/// proptests and the `kernels` bench; protocols never call them.
pub mod reference {
    use crate::matrix::Matrix;
    use crate::{LinalgError, Result};

    /// Naive `a · b` in i-k-j order.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
        if a.cols() != b.rows() {
            return Err(LinalgError::ShapeMismatch(format!(
                "reference matmul: {}x{} * {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let (m, n) = (a.rows(), b.cols());
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &aik) in a_row.iter().enumerate() {
                let b_row = b.row(k);
                for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                    *o += aik * bkj;
                }
            }
        }
        Ok(out)
    }

    /// Naive `aᵀ · b` in i-p-q order.
    pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
        if a.rows() != b.rows() {
            return Err(LinalgError::ShapeMismatch(format!(
                "reference transpose_matmul: {}x{} ᵀ· {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let b_row = b.row(i);
            for (p, &ap) in a_row.iter().enumerate() {
                let out_row = out.row_mut(p);
                for (o, &bq) in out_row.iter_mut().zip(b_row) {
                    *o += ap * bq;
                }
            }
        }
        Ok(out)
    }

    /// Naive `aᵀ · a` as a sum of row outer products (upper triangle
    /// mirrored), matching [`Matrix::gram`]'s summation order.
    pub fn gram(a: &Matrix) -> Matrix {
        let d = a.cols();
        let mut g = Matrix::zeros(d, d);
        for i in 0..a.rows() {
            let r = a.row(i).to_vec();
            for p in 0..d {
                let rp = r[p];
                let g_row = &mut g.row_mut(p)[p..];
                for (o, &rq) in g_row.iter_mut().zip(&r[p..]) {
                    *o += rp * rq;
                }
            }
        }
        for p in 0..d {
            for q in (p + 1)..d {
                g[(q, p)] = g[(p, q)];
            }
        }
        g
    }

    /// Naive elementwise transpose.
    pub fn transpose(a: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(a.cols(), a.rows());
        for i in 0..a.rows() {
            for (j, &v) in a.row(i).iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use dlra_util::Rng;
    use proptest::prelude::*;

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::gaussian(m, n, &mut rng)
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 4),
            (5, 7, 9),
            (17, 33, 13),
            (70, 130, 41),
            (MR + 1, KC + 3, NC + 5),
        ] {
            let a = random(m, k, 1000 + (m * k) as u64);
            let b = random(k, n, 2000 + (k * n) as u64);
            let fast = a.matmul(&b).unwrap();
            let slow = reference::matmul(&a, &b).unwrap();
            assert_eq!(fast.as_slice(), slow.as_slice(), "({m},{k},{n})");
        }
    }

    #[test]
    fn blocked_transpose_matmul_is_bit_identical_to_reference() {
        for &(r, c, n) in &[(1, 1, 1), (7, 3, 5), (40, 12, 9), (130, 37, 61)] {
            let a = random(r, c, 31 + r as u64);
            let b = random(r, n, 77 + n as u64);
            let fast = a.transpose_matmul(&b).unwrap();
            let slow = reference::transpose_matmul(&a, &b).unwrap();
            assert_eq!(fast.as_slice(), slow.as_slice(), "({r},{c},{n})");
        }
    }

    #[test]
    fn blocked_gram_is_bit_identical_to_reference() {
        for &(r, c) in &[(1, 1), (9, 4), (50, 17), (200, 33)] {
            let a = random(r, c, 5 + (r * c) as u64);
            assert_eq!(
                a.gram().as_slice(),
                reference::gram(&a).as_slice(),
                "({r},{c})"
            );
        }
    }

    /// A Gaussian matrix with NaN, +∞ and −∞ planted at fixed entries.
    fn random_non_finite(m: usize, n: usize, seed: u64) -> Matrix {
        let mut a = random(m, n, seed);
        let len = a.as_slice().len();
        for (at, v) in [
            (0, f64::NAN),
            (len / 3, f64::INFINITY),
            (len / 2, f64::NEG_INFINITY),
        ] {
            a[(at / n, at % n)] = v;
        }
        a
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `a·b` and `atᵀ·b` (`a` is `m × k`, `at` is `k × m`, `b` is `k × n`)
    /// against the reference, bit for bit, under the body in force.
    fn assert_gemms_match_reference(body: &str, a: &Matrix, at: &Matrix, b: &Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let fast = a.matmul(b).unwrap();
        let slow = reference::matmul(a, b).unwrap();
        assert_eq!(bits(&fast), bits(&slow), "{body} matmul ({m},{k},{n})");
        // The same shapes as `aᵀ·b`: contraction over `k` rows.
        let fast = at.transpose_matmul(b).unwrap();
        let slow = reference::transpose_matmul(at, b).unwrap();
        assert_eq!(
            bits(&fast),
            bits(&slow),
            "{body} transpose_matmul ({k},{m},{n})"
        );
    }

    /// `aᵀa` against the reference, bit for bit, under the body in force.
    fn assert_gram_matches_reference(body: &str, a: &Matrix) {
        assert_eq!(
            bits(&a.gram()),
            bits(&reference::gram(a)),
            "{body} gram {:?}",
            a.shape()
        );
    }

    #[test]
    fn every_isa_body_is_bit_identical_to_reference() {
        // Shapes straddle the MR × JW register tile and the KC / NC blocks.
        let gemm = [
            (MR - 1, KC - 1, JW - 1),
            (MR, KC, JW),
            (MR + 1, KC + 1, JW + 1),
            (2 * MR + 3, 7, NC + 1),
            (MR + 1, KC + 3, NC - 1),
        ];
        let gram = [(KC - 1, JW - 1), (KC + 1, JW + 1), (9, NC + 1)];
        for_each_body(|body| {
            for &(m, k, n) in &gemm {
                let a = random_non_finite(m, k, 11 + (m * k) as u64);
                let b = random_non_finite(k, n, 13 + (k * n) as u64);
                let at = random_non_finite(k, m, 17 + (m * k) as u64);
                assert_gemms_match_reference(body, &a, &at, &b);
            }
            for &(r, c) in &gram {
                let a = random_non_finite(r, c, 19 + (r * c) as u64);
                assert_gram_matches_reference(body, &a);
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same check on random shapes: up to three row quads, and
        /// contraction and column counts on both sides of `KC`, `JW` and
        /// `NC`.
        #[test]
        fn every_isa_body_is_bit_identical_on_random_shapes(
            m in 1usize..3 * MR + 1,
            k in 1usize..KC + 40,
            n in 1usize..NC + 40,
            seed in 0u64..u64::MAX,
        ) {
            let a = random_non_finite(m, k, seed);
            let at = random_non_finite(k, m, seed ^ 1);
            let b = random_non_finite(k, n, seed ^ 2);
            // Gram widths up to three `JW` tiles, on the `k` rows.
            let g = random_non_finite(k, 1 + n % (3 * JW), seed ^ 3);
            for_each_body(|body| {
                assert_gemms_match_reference(body, &a, &at, &b);
                assert_gram_matches_reference(body, &g);
            });
        }
    }

    #[test]
    fn blocked_transpose_matches_reference() {
        for &(m, n) in &[(1, 1), (5, 9), (33, 65), (100, 3)] {
            let a = random(m, n, 9 + (m + n) as u64);
            assert_eq!(
                a.transpose().as_slice(),
                reference::transpose(&a).as_slice()
            );
        }
    }
}
