//! Tuning knobs for the Z-estimator / Z-sampler.
//!
//! [`ZSamplerParams::practical`] is the configuration the experiments use:
//! sketch sizes derived from a per-server word budget, matching how the
//! paper's own evaluation "adjusts parameters to guarantee the ratio of the
//! amount of total communication to the sum of local data sizes is limited".
//! [`ZSamplerParams::theory`] reproduces the paper's asymptotic scalings
//! (with hard caps so it remains runnable) for side-by-side comparison in
//! the ablation benches.

/// Parameters for Algorithms 2–4.
///
/// `PartialEq` compares every knob exactly (query planners key prepared
/// samplers on it: two parameterizations may share a preparation only when
/// they are identical).
#[derive(Debug, Clone, PartialEq)]
pub struct ZSamplerParams {
    /// Level-set width: class `i` holds coordinates with
    /// `z(a_j) ∈ [(1+ε)ⁱ, (1+ε)^{i+1})` (the paper's ε).
    pub eps_class: f64,
    /// CountSketch rows per heavy-hitter group.
    pub hh_depth: usize,
    /// CountSketch buckets per heavy-hitter group.
    pub hh_width: usize,
    /// Groups per repetition (Algorithm 2's `⌈4B²⌉` hash buckets; heavy
    /// coordinates must separate into distinct groups).
    pub groups: usize,
    /// Independent repetitions per level (Algorithm 2's `⌈20 log(1/δ)⌉`).
    pub reps: usize,
    /// Heaviness threshold `B`: within a group, report `j` when
    /// `v̂_j² ≥ F̂₂(group)/B` (recovery uses a ×½ slack, see the
    /// [`bundle`](crate::bundle) module).
    pub b_threshold: f64,
    /// Subsampling levels beyond the base level; level `j ≥ 1` keeps a
    /// coordinate with probability `2⁻ʲ` (Algorithm 3's `Sⱼ`). `0` means
    /// "choose from the dimension at run time".
    pub max_levels: usize,
    /// Window `[window_lo, window_hi)` on the per-level recovered count for
    /// accepting `ŝᵢ = 2ʲ·|Sᵢ ∩ Dⱼ|` (Algorithm 3 line 12's
    /// `[4C²ε⁻² log l, 16C²ε⁻² log l)`).
    pub window_lo: usize,
    /// Upper end of the acceptance window (exclusive).
    pub window_hi: usize,
    /// Cap on injected coordinates per growing class (keeps Algorithm 4's
    /// injection `⌈εẐ/(5T(1+ε)ⁱ)⌉` finite at practical scale).
    pub max_inject_per_class: usize,
    /// Independence of the subsampling hash `g` (paper: `O(C log(ε⁻¹ l))`).
    pub g_independence: usize,
    /// Retry budget when a draw lands on an injected coordinate
    /// (paper: repeat `O(C log l)` times).
    pub max_draw_tries: usize,
    /// Cap on recovered candidates per level (bounds the exact-lookup
    /// round's cost: the coordinator keeps only the largest-estimate
    /// candidates, which are the ones heavy enough to matter).
    pub max_candidates_per_level: usize,
}

impl Default for ZSamplerParams {
    fn default() -> Self {
        ZSamplerParams {
            eps_class: 0.35,
            hh_depth: 4,
            hh_width: 128,
            groups: 4,
            reps: 2,
            b_threshold: 24.0,
            max_levels: 0,
            window_lo: 3,
            window_hi: 96,
            max_inject_per_class: 64,
            g_independence: 16,
            max_draw_tries: 64,
            max_candidates_per_level: 512,
        }
    }
}

impl ZSamplerParams {
    /// Derives sketch sizes from a per-server, per-estimator-pass word
    /// budget for a vector of dimension `l`. This is the knob the
    /// figure-reproduction harnesses sweep to hit target communication
    /// ratios: when the budget is tight, repetitions / groups / depth are
    /// reduced before the per-group width (trading failure probability for
    /// wire cost, exactly the adjustment the paper's experiments describe).
    pub fn practical(l: u64, words_per_server_per_pass: u64) -> Self {
        let mut p = ZSamplerParams::default();
        let levels = Self::levels_for(l);
        p.max_levels = levels;
        // Total words ≈ (levels + 1) · reps · groups · depth · width.
        let per_level = (words_per_server_per_pass / (levels as u64 + 1)).max(16);
        // Quality ladder: prefer more repetitions/groups while the width
        // stays useful (≥ 24 buckets per group).
        let ladder: [(usize, usize, usize); 5] =
            [(2, 4, 4), (2, 4, 3), (2, 2, 3), (1, 2, 3), (1, 2, 2)];
        let mut chosen = ladder[ladder.len() - 1];
        for &(reps, groups, depth) in &ladder {
            let width = per_level / (reps * groups * depth) as u64;
            if width >= 24 {
                chosen = (reps, groups, depth);
                break;
            }
        }
        let (reps, groups, depth) = chosen;
        p.reps = reps;
        p.groups = groups;
        p.hh_depth = depth;
        p.hh_width = (per_level / (reps * groups * depth) as u64).clamp(8, 4096) as usize;
        p.b_threshold = (p.hh_width as f64 / 4.0).clamp(4.0, 64.0);
        // Lookups cost ~2·s words per candidate; keep them near the sketch
        // budget.
        p.max_candidates_per_level =
            ((words_per_server_per_pass / (4 * (levels as u64 + 1))).clamp(32, 1024)) as usize;
        p
    }

    /// The paper's asymptotic parameterization for accuracy `eps` on
    /// dimension `l` with failure probability `delta`, capped to stay
    /// runnable (documented deviation — the uncapped constants exceed any
    /// physical memory for `l` beyond a few hundred).
    pub fn theory(l: u64, eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps in (0,1)");
        let lf = (l.max(2)) as f64;
        let t = (lf.ln() / eps).ceil(); // T = Θ(log(l)/ε)
        let b = 40.0 * eps.powi(-4) * t.powi(3) * lf.ln(); // B = 40ε⁻⁴T³log l
        let groups = (4.0 * b * b).min(64.0) as usize; // ⌈4B²⌉, capped
        let reps = ((20.0 * (1.0 / delta).ln()).ceil() as usize).clamp(2, 8);
        ZSamplerParams {
            eps_class: eps,
            hh_depth: 5,
            hh_width: (b.min(2048.0) as usize).max(32),
            groups: groups.max(4),
            reps,
            b_threshold: b.min(256.0),
            max_levels: Self::levels_for(l),
            window_lo: ((4.0 * lf.ln() / (eps * eps)).min(8.0)) as usize,
            window_hi: ((16.0 * lf.ln() / (eps * eps)).min(512.0)) as usize,
            max_inject_per_class: 256,
            g_independence: ((20.0 * (lf / eps).ln()).min(32.0)) as usize,
            max_draw_tries: (lf.ln().ceil() as usize * 4).max(16),
            max_candidates_per_level: 4096,
        }
    }

    /// Number of subsampling levels appropriate for dimension `l`
    /// (`⌈log₂ l⌉`, the depth at which the expected survivor count is ~1).
    pub fn levels_for(l: u64) -> usize {
        (64 - l.max(2).leading_zeros()) as usize
    }

    /// Levels actually used for a vector of dimension `l`.
    pub fn effective_levels(&self, l: u64) -> usize {
        if self.max_levels == 0 {
            Self::levels_for(l)
        } else {
            self.max_levels
        }
    }

    /// Per-server sketch words for one estimator pass on dimension `l`
    /// (excluding exact-value queries, which depend on recovery counts).
    pub fn sketch_words(&self, l: u64) -> u64 {
        let levels = self.effective_levels(l) as u64 + 1;
        levels * self.reps as u64 * self.groups as u64 * (self.hh_depth * self.hh_width) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let p = ZSamplerParams::default();
        assert!(p.eps_class > 0.0 && p.eps_class < 1.0);
        assert!(p.window_lo < p.window_hi);
        assert!(p.hh_width >= 16);
    }

    #[test]
    fn practical_respects_budget_roughly() {
        let l = 100_000;
        for &budget in &[5_000u64, 20_000, 80_000] {
            let p = ZSamplerParams::practical(l, budget);
            let words = p.sketch_words(l);
            // Within a small factor of the budget (floors/caps may push up
            // tiny budgets).
            assert!(words <= budget * 3 + 50_000, "budget {budget} gave {words}");
        }
    }

    #[test]
    fn practical_scales_width_with_budget() {
        let l = 50_000;
        let small = ZSamplerParams::practical(l, 2_000);
        let big = ZSamplerParams::practical(l, 200_000);
        assert!(big.hh_width > small.hh_width);
    }

    #[test]
    fn levels_for_dimension() {
        assert_eq!(ZSamplerParams::levels_for(2), 2);
        assert_eq!(ZSamplerParams::levels_for(1024), 11);
        // Effective levels override.
        let mut p = ZSamplerParams {
            max_levels: 5,
            ..ZSamplerParams::default()
        };
        assert_eq!(p.effective_levels(1024), 5);
        p.max_levels = 0;
        assert_eq!(p.effective_levels(1024), 11);
    }

    #[test]
    fn theory_params_capped_but_larger() {
        let t = ZSamplerParams::theory(10_000, 0.5, 0.1);
        let d = ZSamplerParams::default();
        assert!(t.groups >= d.groups);
        assert!(t.b_threshold >= d.b_threshold);
        assert!(t.g_independence >= 8);
    }

    #[test]
    #[should_panic(expected = "eps in (0,1)")]
    fn theory_rejects_bad_eps() {
        ZSamplerParams::theory(100, 1.5, 0.1);
    }
}
