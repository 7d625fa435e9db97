//! Prior-work baseline: distributed PCA in the **row partition model**
//! (\[8\], \[9\] — Feldman–Schmidt–Sohler / Liang et al. style).
//!
//! Each server holds a *disjoint set of rows* of the global matrix and
//! ships a local SVD summary (its top-`t` scaled right singular vectors);
//! stacking the summaries and taking the top-k right singular space yields
//! a relative-error approximation with `t = O(k/ε)`.
//!
//! This is the model the paper's related-work section contrasts against:
//! the technique fundamentally requires rows to live wholly on one server,
//! so it *cannot run* in the generalized partition model (where every entry
//! is a sum across servers passed through a nonlinearity) — which is why
//! Algorithm 1's sampling approach is needed. The type signature here makes
//! that visible: the input is a list of row blocks, not a
//! [`crate::PartitionModel`].

use crate::{CoreError, Result};
use dlra_comm::{Cluster, Collectives, LedgerSnapshot};
use dlra_linalg::{svd, Matrix, Projector};

/// Output of the row-partition protocol.
#[derive(Debug, Clone)]
pub struct RowPartitionOutput {
    /// Rank-≤k projection, stored factored as its `d × k` basis.
    pub projection: Projector,
    /// Communication consumed (the per-server summaries).
    pub comm: LedgerSnapshot,
    /// Summary rank `t` each server transmitted.
    pub t: usize,
}

/// Runs the row-partition distributed PCA baseline.
///
/// * `row_blocks` — per-server row blocks (arbitrary row counts, equal
///   column counts); their vertical concatenation is the global matrix;
/// * `k` — target rank;
/// * `t` — per-server summary rank (`t ≥ k`; `t = ⌈k/ε⌉` for `(1+ε)`
///   relative error).
pub fn row_partition_pca(
    row_blocks: Vec<Matrix>,
    k: usize,
    t: usize,
) -> Result<RowPartitionOutput> {
    if row_blocks.is_empty() {
        return Err(CoreError::InvalidModel("no servers".into()));
    }
    let d = row_blocks[0].cols();
    if row_blocks.iter().any(|b| b.cols() != d) {
        return Err(CoreError::InvalidModel(
            "row blocks must share a column count".into(),
        ));
    }
    if k == 0 || t < k || k > d {
        return Err(CoreError::InvalidConfig(format!(
            "need 1 <= k <= t and k <= d (k={k}, t={t}, d={d})"
        )));
    }

    let mut cluster = Cluster::new(row_blocks);
    // Each server ships the top-t rows of Σ·Vᵀ from its local SVD — a t×d
    // matrix whose Gram equals the truncated local Gram.
    let summaries = cluster.gather("rowpart.summary", move |_t, block| {
        let dec = svd(block).expect("local SVD");
        let keep = t.min(dec.s.len());
        let mut summary = Matrix::zeros(keep, d);
        for i in 0..keep {
            for j in 0..d {
                summary[(i, j)] = dec.s[i] * dec.vt[(i, j)];
            }
        }
        summary.as_slice().to_vec()
    });

    // Coordinator stacks the summaries and takes the global top-k.
    let total_rows: usize = summaries.iter().map(|s| s.len() / d).sum();
    let mut stacked = Matrix::zeros(total_rows, d);
    let mut at = 0;
    for s in summaries {
        for chunk in s.chunks_exact(d) {
            stacked.row_mut(at).copy_from_slice(chunk);
            at += 1;
        }
    }
    let dec = svd(&stacked)?;
    let projection = dec.top_right_projector(k);
    Ok(RowPartitionOutput {
        projection,
        comm: cluster.comm(),
        t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_projection;
    use dlra_util::Rng;

    fn row_partitioned(
        n: usize,
        d: usize,
        k: usize,
        s: usize,
        noise: f64,
        seed: u64,
    ) -> (Vec<Matrix>, Matrix) {
        let mut rng = Rng::new(seed);
        let u = Matrix::gaussian(n, k, &mut rng);
        let v = Matrix::gaussian(k, d, &mut rng);
        let mut a = u.matmul(&v).unwrap();
        a.add_assign(&Matrix::gaussian(n, d, &mut rng).scaled(noise))
            .unwrap();
        let per = n / s;
        let blocks: Vec<Matrix> = (0..s)
            .map(|t| {
                let lo = t * per;
                let hi = if t == s - 1 { n } else { (t + 1) * per };
                a.select_rows(&(lo..hi).collect::<Vec<_>>())
            })
            .collect();
        (blocks, a)
    }

    #[test]
    fn near_relative_error_on_low_rank_data() {
        let (blocks, a) = row_partitioned(240, 20, 3, 6, 0.05, 1);
        let out = row_partition_pca(blocks, 3, 12).unwrap();
        let eval = evaluate_projection(&a, &out.projection, 3).unwrap();
        assert!(
            eval.relative_error < 1.1,
            "relative {}",
            eval.relative_error
        );
    }

    #[test]
    fn summary_rank_tradeoff() {
        // Bigger t → no worse error.
        let (blocks, a) = row_partitioned(300, 24, 4, 5, 0.3, 2);
        let small = row_partition_pca(blocks.clone(), 4, 4).unwrap();
        let big = row_partition_pca(blocks, 4, 20).unwrap();
        let e_small = evaluate_projection(&a, &small.projection, 4).unwrap();
        let e_big = evaluate_projection(&a, &big.projection, 4).unwrap();
        assert!(e_big.relative_error <= e_small.relative_error + 0.05);
        assert!(big.comm.total_words() > small.comm.total_words());
    }

    #[test]
    fn communication_is_t_times_d_per_server() {
        let (blocks, _) = row_partitioned(200, 16, 2, 4, 0.1, 3);
        let t = 8;
        let out = row_partition_pca(blocks, 2, t).unwrap();
        // 3 non-coordinator servers × (t·d + frame).
        assert_eq!(out.comm.upstream_words, 3 * (t as u64 * 16 + 1));
    }

    #[test]
    fn validates_input() {
        assert!(row_partition_pca(vec![], 2, 4).is_err());
        let blocks = vec![Matrix::zeros(5, 4), Matrix::zeros(5, 3)];
        assert!(row_partition_pca(blocks, 2, 4).is_err());
        let blocks = vec![Matrix::zeros(5, 4)];
        assert!(row_partition_pca(blocks.clone(), 0, 4).is_err());
        assert!(row_partition_pca(blocks.clone(), 3, 2).is_err());
        assert!(row_partition_pca(blocks, 5, 8).is_err());
    }

    #[test]
    fn uneven_blocks_supported() {
        let mut rng = Rng::new(4);
        let blocks = vec![
            Matrix::gaussian(10, 6, &mut rng),
            Matrix::gaussian(37, 6, &mut rng),
            Matrix::gaussian(1, 6, &mut rng),
        ];
        let a = blocks[0]
            .vstack(&blocks[1])
            .unwrap()
            .vstack(&blocks[2])
            .unwrap();
        let out = row_partition_pca(blocks, 2, 6).unwrap();
        let eval = evaluate_projection(&a, &out.projection, 2).unwrap();
        assert!(eval.relative_error < 2.0);
    }
}
