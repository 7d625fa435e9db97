//! Baselines for the Z-sampler: the exact weights `z(aⱼ)` (the
//! probabilities of the exact-probability sampler assumed by
//! Frieze–Kannan–Vempala \[11\], which the paper points out is *not*
//! implementable cheaply in a distributed setting; tests compare the
//! Z-sampler's draws against them) and the uniform sampler (sufficient for
//! Gaussian random Fourier features, §VI-A). Algorithm 1's exact-oracle
//! sampler draws rows itself, from the global matrix's row norms.

use crate::vector::SampleVector;
use crate::zfn::ZFn;
use dlra_comm::Collectives;
use dlra_util::Rng;

/// Materializes the exact per-coordinate weights `z(aⱼ)` of the aggregate
/// vector by direct access to all local states.
///
/// This is an **evaluation oracle**: it reads every server's local state
/// without touching the ledger. Centralizing the data for real would cost
/// `Σₜ dim` words — the "ship everything" baseline the benchmark harness
/// accounts analytically.
pub fn exact_weights<L, C>(cluster: &C, zfn: &dyn ZFn) -> Vec<f64>
where
    L: SampleVector,
    C: Collectives<L>,
{
    let dim = cluster.with_local(0, SampleVector::dim) as usize;
    let mut agg = vec![0.0f64; dim];
    for t in 0..cluster.num_servers() {
        cluster.with_local(t, |local| {
            local.for_each_nonzero(&mut |j, x| agg[j as usize] += x);
        });
    }
    agg.iter().map(|&v| zfn.z(v)).collect()
}

/// Uniform sampler over `[0, n)`: the right tool when all rows have (nearly)
/// equal norm, as with random Fourier features where `E‖Aᵢ‖² = d` for every
/// row (§VI-A). Costs no communication to *sample*; only the subsequent row
/// fetches are charged.
#[derive(Debug, Clone, Copy)]
pub struct UniformSampler {
    /// Number of items sampled over.
    pub n: u64,
}

impl UniformSampler {
    /// One uniform index with its exact probability `1/n`.
    pub fn draw(&self, rng: &mut Rng) -> (u64, f64) {
        (rng.below(self.n), 1.0 / self.n as f64)
    }

    /// `r` uniform indices (with replacement).
    pub fn draw_many(&self, r: usize, rng: &mut Rng) -> Vec<(u64, f64)> {
        (0..r).map(|_| self.draw(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseServerVec;
    use crate::zfn::{PowerAbs, Square};
    use dlra_comm::Cluster;

    fn make_cluster(parts: Vec<Vec<f64>>) -> Cluster<DenseServerVec> {
        Cluster::new(parts.into_iter().map(DenseServerVec::new).collect())
    }

    #[test]
    fn exact_weights_aggregate_servers() {
        let c = make_cluster(vec![vec![1.0, 0.0, 2.0], vec![1.0, 3.0, -2.0]]);
        let w = exact_weights(&c, &Square);
        assert_eq!(w, vec![4.0, 9.0, 0.0]);
    }

    #[test]
    fn exact_weights_respect_zfn() {
        let c = make_cluster(vec![vec![4.0, 16.0]]);
        let w = exact_weights(&c, &PowerAbs::from_gm_p(2.0)); // z = |x|
        assert_eq!(w, vec![4.0, 16.0]);
    }

    #[test]
    fn uniform_sampler_covers_range() {
        let u = UniformSampler { n: 10 };
        let mut rng = Rng::new(3);
        let draws = u.draw_many(5000, &mut rng);
        let mut seen = [false; 10];
        for (j, q) in draws {
            assert!(j < 10);
            assert_eq!(q, 0.1);
            seen[j as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
