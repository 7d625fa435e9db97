//! Instance generators for the three communication promise problems the
//! lower bounds reduce from.

use dlra_util::Rng;

/// An L∞ promise instance (Theorem 5 / \[23\]): vectors `x, y ∈ {0..B}ᵐ` with
/// either `|xᵢ − yᵢ| ≤ 1` everywhere, or exactly one coordinate with
/// `|xᵢ − yᵢ| = B` (and `≤ 1` elsewhere).
#[derive(Debug, Clone)]
pub struct LinftyInstance {
    /// Alice's vector.
    pub x: Vec<i64>,
    /// Bob's vector.
    pub y: Vec<i64>,
    /// The gap parameter `B ≥ 2`.
    pub b: i64,
    /// The planted far coordinate, if any.
    pub planted: Option<usize>,
}

impl LinftyInstance {
    /// Generates an instance of dimension `m`; `planted` plants a
    /// `B`-separated coordinate at a random position.
    pub fn generate(m: usize, b: i64, planted: bool, rng: &mut Rng) -> Self {
        assert!(b >= 2, "need B >= 2");
        let x: Vec<i64> = (0..m).map(|_| rng.below(b as u64 - 1) as i64).collect();
        let mut y: Vec<i64> = x
            .iter()
            .map(|&xi| {
                // |x - y| <= 1 baseline.
                let delta = rng.below(3) as i64 - 1;
                (xi + delta).clamp(0, b)
            })
            .collect();
        let planted_at = planted.then(|| {
            let i = rng.index(m);
            // Force |x_i − y_i| = B exactly.
            if x[i] >= b {
                y[i] = x[i] - b;
            } else {
                y[i] = x[i] + b;
            }
            i
        });
        LinftyInstance {
            x,
            y,
            b,
            planted: planted_at,
        }
    }

    /// True iff the promise's "far" case holds.
    pub fn is_far(&self) -> bool {
        self.planted.is_some()
    }
}

/// A 2-DISJ promise instance (Theorem 7 / \[24\]): binary vectors that either
/// share no common 1, or share exactly one.
#[derive(Debug, Clone)]
pub struct TwoDisjInstance {
    /// Alice's set, as a 0/1 vector.
    pub x: Vec<u8>,
    /// Bob's set.
    pub y: Vec<u8>,
    /// The planted joint coordinate, if any.
    pub joint: Option<usize>,
}

impl TwoDisjInstance {
    /// Generates an instance of dimension `m` with each side holding ~`m/4`
    /// elements; `intersecting` plants exactly one shared element.
    pub fn generate(m: usize, intersecting: bool, rng: &mut Rng) -> Self {
        assert!(m >= 4);
        let mut x = vec![0u8; m];
        let mut y = vec![0u8; m];
        // Disjoint supports: partition a random permutation.
        let mut perm: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut perm);
        let quarter = m / 4;
        for &i in &perm[..quarter] {
            x[i] = 1;
        }
        for &i in &perm[quarter..2 * quarter] {
            y[i] = 1;
        }
        let joint = intersecting.then(|| {
            let i = perm[2 * quarter]; // untouched position
            x[i] = 1;
            y[i] = 1;
            i
        });
        TwoDisjInstance { x, y, joint }
    }

    /// True iff the sets intersect.
    pub fn intersects(&self) -> bool {
        self.joint.is_some()
    }
}

/// A Gap-Hamming / gap-inner-product instance (Theorem 9 / \[25\], in the
/// form Theorem 8's proof uses): `x, y ∈ {−1,+1}ᵐ` with
/// `⟨x,y⟩ > 2√m` or `⟨x,y⟩ < −2√m` (the paper writes `m = 1/ε²`, gap
/// `±2/ε`).
#[derive(Debug, Clone)]
pub struct GapHammingInstance {
    /// Alice's sign vector.
    pub x: Vec<f64>,
    /// Bob's sign vector.
    pub y: Vec<f64>,
    /// True iff `⟨x,y⟩ > +2√m`.
    pub positive: bool,
}

impl GapHammingInstance {
    /// Generates an instance of dimension `m` with inner product
    /// `±⌈gap_mult·2√m⌉` (`gap_mult ≥ 1` widens the promise gap).
    pub fn generate(m: usize, positive: bool, gap_mult: f64, rng: &mut Rng) -> Self {
        assert!(m >= 16);
        let gap = ((2.0 * (m as f64).sqrt() * gap_mult).ceil() as i64).min(m as i64);
        let target = if positive { gap } else { -gap };
        // agreements a, disagreements b: a + b = m, a − b = target.
        let a = ((m as i64 + target) / 2) as usize;
        let x: Vec<f64> = (0..m)
            .map(|_| if rng.bernoulli(0.5) { 1.0 } else { -1.0 })
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut order);
        let mut y = vec![0.0f64; m];
        for (pos, &i) in order.iter().enumerate() {
            y[i] = if pos < a { x[i] } else { -x[i] };
        }
        GapHammingInstance { x, y, positive }
    }

    /// The exact inner product.
    pub fn inner(&self) -> f64 {
        self.x.iter().zip(&self.y).map(|(a, b)| a * b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linfty_close_case_promise() {
        let mut rng = Rng::new(1);
        let inst = LinftyInstance::generate(200, 10, false, &mut rng);
        assert!(!inst.is_far());
        assert!(inst.x.iter().zip(&inst.y).all(|(a, b)| (a - b).abs() <= 1));
    }

    #[test]
    fn linfty_far_case_promise() {
        let mut rng = Rng::new(2);
        let inst = LinftyInstance::generate(200, 10, true, &mut rng);
        let i = inst.planted.unwrap();
        assert_eq!((inst.x[i] - inst.y[i]).abs(), 10);
        let far_count = inst
            .x
            .iter()
            .zip(&inst.y)
            .filter(|(a, b)| (*a - *b).abs() > 1)
            .count();
        assert_eq!(far_count, 1);
        assert!(inst.x.iter().all(|&v| v >= 0));
        assert!(inst.y.iter().all(|&v| v >= 0));
    }

    #[test]
    fn disj_cases() {
        let mut rng = Rng::new(3);
        let empty = TwoDisjInstance::generate(100, false, &mut rng);
        assert!(!empty.intersects());
        let common: usize = empty
            .x
            .iter()
            .zip(&empty.y)
            .filter(|(a, b)| **a == 1 && **b == 1)
            .count();
        assert_eq!(common, 0);

        let one = TwoDisjInstance::generate(100, true, &mut rng);
        let common: usize = one
            .x
            .iter()
            .zip(&one.y)
            .filter(|(a, b)| **a == 1 && **b == 1)
            .count();
        assert_eq!(common, 1);
        assert_eq!(one.x.iter().position(|&v| v == 1).map(|_| ()), Some(()));
    }

    #[test]
    fn ghd_gap_respected() {
        let mut rng = Rng::new(4);
        for positive in [true, false] {
            let inst = GapHammingInstance::generate(400, positive, 1.0, &mut rng);
            let ip = inst.inner();
            let gap = 2.0 * 400f64.sqrt();
            if positive {
                assert!(ip >= gap, "ip {ip}");
            } else {
                assert!(ip <= -gap, "ip {ip}");
            }
            assert!(inst.x.iter().all(|&v| v == 1.0 || v == -1.0));
            assert!(inst.y.iter().all(|&v| v == 1.0 || v == -1.0));
        }
    }
}
