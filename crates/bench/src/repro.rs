//! Reproduction of the paper's Figures 1 and 2 (§VIII).
//!
//! Each *panel* matches one subplot: a dataset (+ pooling parameter where
//! applicable), swept over projection dimension `k ∈ {3,6,9,12,15}` and a
//! set of communication-ratio budgets. A cell runs the full distributed
//! protocol under that budget and reports
//!
//! * additive error `|‖A−AP‖² − ‖A−[A]ₖ‖²| / ‖A‖²` (Figure 1),
//! * the prediction `k²/r` (Figure 1's dashed lines),
//! * relative error `‖A−AP‖² / ‖A−[A]ₖ‖²` (Figure 2),
//! * the achieved communication ratio.
//!
//! The Z-sampler preparation (two estimator passes) is `k`-independent, so
//! each ratio's preparation is run once and its cost included in every
//! cell, exactly as if each cell had run it privately.

use dlra_core::algorithm1::{
    prepare_z_plan, run_algorithm1_with_plan, Algorithm1Config, SamplerKind,
};
use dlra_core::apps::rff::{run_rff_pca, RffMap};
use dlra_core::metrics::predicted_additive_error;
use dlra_core::{EntryFunction, PartitionModel};
use dlra_data as data;
use dlra_linalg::{svd, Matrix, Projector, Svd};
use dlra_sampler::ZSamplerParams;

/// Sweep configuration for one panel.
#[derive(Debug, Clone)]
pub struct PanelSpec {
    /// Projection dimensions (paper: 3, 6, 9, 12, 15).
    pub ks: Vec<usize>,
    /// Communication-ratio budgets (paper: {0.5, 0.25, 0.1}, or
    /// {0.1, 0.05, 0.01} for KDDCUP99).
    pub ratios: Vec<f64>,
    /// Dataset scale multiplier.
    pub scale: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for PanelSpec {
    fn default() -> Self {
        PanelSpec {
            ks: vec![3, 6, 9, 12, 15],
            ratios: vec![0.5, 0.25, 0.1],
            scale: 1,
            seed: 0xF16_F16,
        }
    }
}

impl PanelSpec {
    /// A reduced sweep for smoke tests and CI.
    pub fn quick() -> Self {
        PanelSpec {
            ks: vec![3, 9],
            ratios: vec![0.25],
            scale: 1,
            seed: 0xF16_F16,
        }
    }
}

/// One cell of a panel.
#[derive(Debug, Clone, Copy)]
pub struct PanelRow {
    /// Projection dimension.
    pub k: usize,
    /// Target communication ratio.
    pub ratio: f64,
    /// Rows sampled under this budget.
    pub r: usize,
    /// Figure 1 y-value.
    pub additive_error: f64,
    /// Figure 1 dashed line `k²/r`.
    pub predicted: f64,
    /// Figure 2 y-value.
    pub relative_error: f64,
    /// Protocol words actually used for this cell.
    pub comm_words: u64,
    /// Sum of local data sizes (ratio denominator).
    pub data_words: u64,
}

impl PanelRow {
    /// Achieved communication ratio.
    pub fn achieved_ratio(&self) -> f64 {
        self.comm_words as f64 / self.data_words as f64
    }
}

/// A completed panel.
#[derive(Debug, Clone)]
pub struct PanelResult {
    /// Panel label as in the paper (e.g. `Caltech-101(P=5)`).
    pub name: String,
    /// Rows in `(ratio, k)` sweep order.
    pub rows: Vec<PanelRow>,
}

/// Which RFF panel (Figure 1/2, top row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RffSource {
    /// Forest Cover: ratios {0.5, 0.25, 0.1}, 10 servers.
    ForestCover,
    /// KDDCUP99: ratios {0.1, 0.05, 0.01}, 50 servers.
    Kddcup,
}

/// Which pooled-codes panel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolingSource {
    /// Caltech-101: 50 servers.
    Caltech101,
    /// Scenes: 10 servers.
    Scenes,
}

struct Truth {
    svd: Svd,
    matrix: Matrix,
    total_sq: f64,
}

impl Truth {
    fn new(matrix: Matrix) -> Self {
        let svd = svd(&matrix).expect("truth SVD");
        let total_sq = matrix.frobenius_norm_sq();
        Truth {
            svd,
            matrix,
            total_sq,
        }
    }

    fn cell(&self, k: usize, r: usize, projection: &Projector) -> (f64, f64, f64) {
        let res = projection.residual_sq(&self.matrix).expect("residual");
        let best = self.svd.tail_energy(k);
        let additive = if self.total_sq > 0.0 {
            (res - best).abs() / self.total_sq
        } else {
            0.0
        };
        let relative = if best > 1e-12 * self.total_sq.max(1e-300) {
            res / best
        } else {
            1.0
        };
        (additive, relative, predicted_additive_error(k, r))
    }
}

/// Figure 1/2 RFF panels (Forest Cover, KDDCUP99): uniform sampling of raw
/// rows, expansion at the coordinator.
pub fn rff_panel(src: RffSource, spec: &PanelSpec) -> PanelResult {
    let (ds, feat_dim, bandwidth, ratios_default) = match src {
        RffSource::ForestCover => (
            data::forest_cover_like(spec.scale, spec.seed),
            128usize,
            2.0,
            vec![0.5, 0.25, 0.1],
        ),
        RffSource::Kddcup => (
            data::kddcup_like(spec.scale, spec.seed ^ 1),
            64usize,
            2.0,
            vec![0.1, 0.05, 0.01],
        ),
    };
    let ratios = if spec.ratios.is_empty() {
        ratios_default
    } else {
        spec.ratios.clone()
    };
    let name = match src {
        RffSource::ForestCover => "ForestCover".to_string(),
        RffSource::Kddcup => "KDDCUP99".to_string(),
    };
    let raw_dims = ds.parts[0].cols();
    let n = ds.parts[0].rows();
    let s = ds.parts.len();
    let mut model = PartitionModel::new(ds.parts, EntryFunction::Identity).expect("model");
    let data_words = model.total_local_words();
    let map = RffMap::new(raw_dims, feat_dim, bandwidth, spec.seed ^ 0xFEA7);
    let truth = Truth::new(map.expand_matrix(&model.global_matrix()));
    let kmax = spec.ks.iter().copied().max().unwrap_or(15);

    let mut rows = Vec::new();
    for &ratio in &ratios {
        // Entire budget goes to raw-row collection:
        // cost ≈ (s−1)·r·(m+2) words.
        let budget = ratio * data_words as f64;
        let r = ((budget / ((s - 1) as f64 * (raw_dims + 2) as f64)) as usize).clamp(2 * kmax, n);
        for (ki, &k) in spec.ks.iter().enumerate() {
            let out = run_rff_pca(
                &mut model,
                &map,
                k,
                r,
                spec.seed ^ (ki as u64) << 8 ^ (ratio * 1000.0) as u64,
            )
            .expect("rff run");
            let (additive, relative, predicted) = truth.cell(k, r, &out.projection);
            rows.push(PanelRow {
                k,
                ratio,
                r,
                additive_error: additive,
                predicted,
                relative_error: relative,
                comm_words: out.comm.total_words(),
                data_words,
            });
        }
    }
    PanelResult { name, rows }
}

/// Figure 1/2 pooled-codes panels (Caltech-101 / Scenes at a given P):
/// GM pooling with the generalized Z-sampler.
pub fn pooling_panel(src: PoolingSource, p: f64, spec: &PanelSpec) -> PanelResult {
    let (parts, label) = match src {
        PoolingSource::Caltech101 => (
            data::caltech101_like(spec.scale, spec.seed ^ 2).parts,
            "Caltech-101",
        ),
        PoolingSource::Scenes => (data::scenes_like(spec.scale, spec.seed ^ 3).parts, "Scenes"),
    };
    let mut model = PartitionModel::gm_pooling(parts, p).expect("pooling model");
    let name = format!("{label}(P={p})");
    let truth = Truth::new(model.global_matrix());
    z_panel(&mut model, truth, name, spec)
}

/// Figure 1/2 isolet panel: robust PCA with the Huber ψ, outliers hidden by
/// an entrywise partition.
pub fn isolet_panel(spec: &PanelSpec) -> PanelResult {
    let ds = data::isolet_like(spec.scale, 50, spec.seed ^ 4);
    // Threshold well above benign magnitudes, far below the corruption.
    let mut model = PartitionModel::new(ds.parts, EntryFunction::Huber { k: 25.0 }).expect("model");
    let truth = Truth::new(model.global_matrix());
    z_panel(&mut model, truth, "isolet".to_string(), spec)
}

/// Shared Z-sampler sweep, run through the product's Algorithm 1: one
/// [`prepare_z_plan`] per ratio, reused across `k` (the preparation is
/// k-independent), and one [`run_algorithm1_with_plan`] per cell; each
/// cell's reported cost includes the full preparation.
fn z_panel(
    model: &mut PartitionModel,
    truth: Truth,
    name: String,
    spec: &PanelSpec,
) -> PanelResult {
    let (n, d) = model.shape();
    let s = model.num_servers();
    let data_words = model.total_local_words();
    let kmax = spec.ks.iter().copied().max().unwrap_or(15);
    let mut rows = Vec::new();

    for &ratio in &spec.ratios {
        let budget = ratio * data_words as f64;
        // 40% of the budget on row collection, 60% on the sampler.
        let r = ((0.4 * budget / ((s - 1) as f64 * d as f64)) as usize).clamp(2 * kmax, n);
        let sampler_budget = (0.6 * budget / (s as f64 * 2.0)) as u64;
        let params = ZSamplerParams::practical((n * d) as u64, sampler_budget.max(512));
        let plan = prepare_z_plan(model, &params, spec.seed ^ (ratio * 1e4) as u64)
            .unwrap_or_else(|e| panic!("{name}: sampler preparation failed: {e}"));
        let prepare_words = plan.prepare_comm.total_words();

        for (ki, &k) in spec.ks.iter().enumerate() {
            let cfg = Algorithm1Config {
                k,
                r,
                boost: 1,
                sampler: SamplerKind::Z(params.clone()),
                // Algorithm 1 seeds its draws with `seed ^ 0xA5A5…`, so each
                // cell draws from `spec.seed ^ 0xCE11 ^ (ki << 16)`.
                seed: spec.seed ^ 0xCE11 ^ ((ki as u64) << 16) ^ 0xA5A5_A5A5_5A5A_5A5A,
            };
            let out = run_algorithm1_with_plan(model, &cfg, &plan)
                .unwrap_or_else(|e| panic!("{name}: Algorithm 1 failed: {e}"));
            let (additive, relative, predicted) = truth.cell(k, out.rows.len(), &out.projection);
            rows.push(PanelRow {
                k,
                ratio,
                r: out.rows.len(),
                additive_error: additive,
                predicted,
                relative_error: relative,
                comm_words: prepare_words + out.comm.total_words(),
                data_words,
            });
        }
    }
    PanelResult { name, rows }
}

/// Renders a panel as the textual analogue of a figure subplot.
pub fn render_panel(panel: &PanelResult, figure: u8) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "── {} ──", panel.name);
    match figure {
        1 => {
            let _ = writeln!(
                out,
                "{:>4} {:>7} {:>6} {:>13} {:>13} {:>9}",
                "k", "ratio", "r", "additive", "prediction", "achieved"
            );
            for row in &panel.rows {
                let _ = writeln!(
                    out,
                    "{:>4} {:>7.3} {:>6} {:>13.4e} {:>13.4e} {:>9.4}",
                    row.k,
                    row.ratio,
                    row.r,
                    row.additive_error,
                    row.predicted,
                    row.achieved_ratio()
                );
            }
        }
        _ => {
            let _ = writeln!(
                out,
                "{:>4} {:>7} {:>6} {:>13} {:>9}",
                "k", "ratio", "r", "relative", "achieved"
            );
            for row in &panel.rows {
                let _ = writeln!(
                    out,
                    "{:>4} {:>7.3} {:>6} {:>13.6} {:>9.4}",
                    row.k,
                    row.ratio,
                    row.r,
                    row.relative_error,
                    row.achieved_ratio()
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_rff_panel_shapes_hold() {
        let spec = PanelSpec {
            ks: vec![3, 9],
            ratios: vec![0.25],
            scale: 1,
            seed: 1,
        };
        let panel = rff_panel(RffSource::ForestCover, &spec);
        assert_eq!(panel.rows.len(), 2);
        for row in &panel.rows {
            // Actual error beats the paper's prediction (Figure 1's shape).
            assert!(
                row.additive_error < row.predicted,
                "k={}: {} ≥ {}",
                row.k,
                row.additive_error,
                row.predicted
            );
            // Relative error near 1 for flat RFF spectra (Figure 2's shape).
            assert!(row.relative_error < 1.5, "relative {}", row.relative_error);
        }
    }

    #[test]
    fn quick_pooling_panel_runs() {
        let spec = PanelSpec {
            ks: vec![3],
            ratios: vec![0.5],
            scale: 1,
            seed: 2,
        };
        let panel = pooling_panel(PoolingSource::Scenes, 2.0, &spec);
        assert_eq!(panel.rows.len(), 1);
        let row = &panel.rows[0];
        assert!(row.additive_error < row.predicted);
        assert!(row.comm_words > 0);
    }

    #[test]
    fn render_contains_all_cells() {
        let panel = PanelResult {
            name: "x".into(),
            rows: vec![PanelRow {
                k: 3,
                ratio: 0.5,
                r: 10,
                additive_error: 0.1,
                predicted: 0.9,
                relative_error: 1.2,
                comm_words: 100,
                data_words: 1000,
            }],
        };
        let f1 = render_panel(&panel, 1);
        assert!(f1.contains("additive"));
        let f2 = render_panel(&panel, 2);
        assert!(f2.contains("relative"));
    }
}
