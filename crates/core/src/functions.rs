//! The entrywise functions `f` of the generalized partition model, paired
//! with the property-P `z` each application samples by (`z = f²`).
//!
//! Table I of the paper lists the ψ-functions of the M-estimators:
//!
//! | Huber | L1−L2 | "Fair" |
//! |---|---|---|
//! | `k·sgn(x)` if `|x| > k`, else `x` | `x/(1 + x²/2)^{1/2}` | `x/(1 + |x|/c)` |

use dlra_sampler::{FairSq, HuberSq, L1L2Sq, PowerAbs, Square, ZFn};

/// An entrywise function `f : ℝ → ℝ` applied to the aggregated matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryFunction {
    /// `f(x) = x` — the arbitrary partition model of \[7\] as a special case.
    Identity,
    /// `f(x) = x^{1/p}` applied to locally p-th-powered, `1/s`-scaled
    /// absolute entries — together computing the softmax
    /// `GM(|M¹|,…,|Mˢ|)` of §VI-B. Entries reaching `f` are nonnegative.
    GmRoot {
        /// The generalized-mean exponent `p ≥ 1`.
        p: f64,
    },
    /// Huber ψ-function with threshold `k` (robust PCA, §VI-C).
    Huber {
        /// Capping threshold `k > 0`.
        k: f64,
    },
    /// L1−L2 ψ-function (saturates at √2).
    L1L2,
    /// "Fair" ψ-function with scale `c` (saturates at `c`).
    Fair {
        /// Scale parameter `c > 0`.
        c: f64,
    },
    /// `f = max` across servers — included for the lower-bound experiments;
    /// the paper proves relative-error PCA for it needs Ω̃(nd) bits and
    /// recommends approximating it by `GmRoot` with large `p`.
    Max,
}

impl EntryFunction {
    /// Applies `f` to an aggregated entry.
    ///
    /// `Max` cannot be computed from the sum alone and must go through
    /// [`crate::model::PartitionModel::global_matrix`], which evaluates it
    /// from the local entries; calling `apply` on it panics.
    pub fn apply(&self, x: f64) -> f64 {
        match *self {
            EntryFunction::Identity => x,
            EntryFunction::GmRoot { p } => {
                debug_assert!(x >= -1e-12, "GmRoot input must be nonnegative, got {x}");
                x.max(0.0).powf(1.0 / p)
            }
            EntryFunction::Huber { k } => {
                if x.abs() > k {
                    k * x.signum()
                } else {
                    x
                }
            }
            EntryFunction::L1L2 => x / (1.0 + x * x / 2.0).sqrt(),
            EntryFunction::Fair { c } => x / (1.0 + x.abs() / c),
            EntryFunction::Max => {
                panic!("EntryFunction::Max is not a function of the entry sum")
            }
        }
    }

    /// The property-P function `z` with `z = f²`, used by the sampler.
    /// `None` for `Max` (the paper's point: sample via `GmRoot` instead).
    pub fn z_fn(&self) -> Option<Box<dyn ZFn>> {
        match *self {
            EntryFunction::Identity => Some(Box::new(Square)),
            EntryFunction::GmRoot { p } => Some(Box::new(PowerAbs::from_gm_p(p))),
            EntryFunction::Huber { k } => Some(Box::new(HuberSq { k })),
            EntryFunction::L1L2 => Some(Box::new(L1L2Sq)),
            EntryFunction::Fair { c } => Some(Box::new(FairSq { c })),
            EntryFunction::Max => None,
        }
    }

    /// The local preprocessing a server applies to its raw entry before the
    /// entries are (implicitly) summed. Identity for everything except the
    /// softmax application, where server `t` stores `|Mᵗ[i,j]|ᵖ / s`
    /// (§VI-B: "server t can locally compute Aᵗ such that
    /// `Aᵗ[i,j] = (Mᵗ[i,j])ᵖ/s`").
    pub fn local_transform(&self, raw: f64, s: usize) -> f64 {
        match *self {
            EntryFunction::GmRoot { p } => raw.abs().powf(p) / s as f64,
            _ => raw,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EntryFunction::Identity => "identity",
            EntryFunction::GmRoot { .. } => "gm-root",
            EntryFunction::Huber { .. } => "huber",
            EntryFunction::L1L2 => "l1-l2",
            EntryFunction::Fair { .. } => "fair",
            EntryFunction::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        assert_eq!(EntryFunction::Identity.apply(-3.5), -3.5);
    }

    #[test]
    fn gm_root_and_local_transform_compose_to_gm() {
        // GM(|x1|..|xs|) = (Σ|xi|^p / s)^{1/p}.
        let f = EntryFunction::GmRoot { p: 3.0 };
        let s = 4;
        let raw = [1.0, -2.0, 0.5, 3.0];
        let local_sum: f64 = raw.iter().map(|&x| f.local_transform(x, s)).sum();
        let gm = f.apply(local_sum);
        let expect = ((1.0f64 + 8.0 + 0.125 + 27.0) / 4.0).powf(1.0 / 3.0);
        assert!((gm - expect).abs() < 1e-12);
    }

    #[test]
    fn gm_approaches_max_for_large_p() {
        let s = 5;
        let raw = [0.1, 0.5, 2.0, 1.0, 0.2];
        let f = EntryFunction::GmRoot { p: 40.0 };
        let local_sum: f64 = raw.iter().map(|&x| f.local_transform(x, s)).sum();
        let gm = f.apply(local_sum);
        // GM with huge p ≈ max = 2.0, within the paper's constant factor.
        assert!(gm > 1.8 && gm <= 2.0, "gm {gm}");
    }

    #[test]
    fn huber_caps_symmetrically() {
        let f = EntryFunction::Huber { k: 2.0 };
        assert_eq!(f.apply(1.5), 1.5);
        assert_eq!(f.apply(10.0), 2.0);
        assert_eq!(f.apply(-10.0), -2.0);
        assert_eq!(f.apply(0.0), 0.0);
    }

    #[test]
    fn l1l2_and_fair_are_odd_and_bounded() {
        for &x in &[0.0, 0.5, 3.0, 100.0, 1e6] {
            let l = EntryFunction::L1L2.apply(x);
            assert!((EntryFunction::L1L2.apply(-x) + l).abs() < 1e-12);
            assert!(l.abs() <= 2.0f64.sqrt() + 1e-12);
            let fair = EntryFunction::Fair { c: 3.0 }.apply(x);
            assert!(fair.abs() < 3.0 + 1e-12);
            assert!((EntryFunction::Fair { c: 3.0 }.apply(-x) + fair).abs() < 1e-12);
        }
    }

    #[test]
    fn z_fn_matches_f_squared() {
        let cases: Vec<EntryFunction> = vec![
            EntryFunction::Identity,
            EntryFunction::GmRoot { p: 2.0 },
            EntryFunction::GmRoot { p: 5.0 },
            EntryFunction::Huber { k: 1.5 },
            EntryFunction::L1L2,
            EntryFunction::Fair { c: 2.0 },
        ];
        for f in cases {
            let z = f.z_fn().unwrap();
            let xs: Vec<f64> = match f {
                // GmRoot inputs are nonnegative local-power sums.
                EntryFunction::GmRoot { .. } => vec![0.0, 0.3, 1.0, 7.5, 100.0],
                _ => vec![-5.0, -0.7, 0.0, 0.4, 3.0, 50.0],
            };
            for &x in &xs {
                let want = f.apply(x).powi(2);
                let got = z.z(x);
                assert!(
                    (want - got).abs() <= 1e-9 * want.max(1.0),
                    "{}: z({x}) = {got}, f² = {want}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn max_has_no_z() {
        assert!(EntryFunction::Max.z_fn().is_none());
    }

    #[test]
    #[should_panic(expected = "not a function of the entry sum")]
    fn max_apply_panics() {
        EntryFunction::Max.apply(1.0);
    }
}
