//! Output checks: bit-identity between runs and the correctness gate.

use crate::drive::config;
use crate::spec::{QuerySpec, Workload};
use dlra::comm::CommEvent;
use dlra::core::{run_algorithm1, Algorithm1Output, PartitionModel};
use dlra::linalg::{svd, Matrix, Projector, Svd};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Same basis, rows and captured energy, bit for bit.
pub fn same_output(a: &Algorithm1Output, b: &Algorithm1Output) -> bool {
    bits(a.projection.basis().as_slice()) == bits(b.projection.basis().as_slice())
        && a.rows == b.rows
        && a.captured.to_bits() == b.captured.to_bits()
}

/// Same ledger transcript, message by message.
pub fn same_events(a: &[CommEvent], b: &[CommEvent]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (
                x.server,
                x.receiver,
                x.direction,
                x.payload_words,
                x.label,
                x.round,
            ) == (
                y.server,
                y.receiver,
                y.direction,
                y.payload_words,
                y.label,
                y.round,
            )
        })
}

/// Re-runs `spec` with `run_algorithm1` on the sequential `Cluster` and
/// requires the service's output and ledger delta to match it exactly.
pub fn gate_sequential(
    w: &Workload,
    parts: &[Matrix],
    spec: &QuerySpec,
    served: &Algorithm1Output,
) -> Result<(), String> {
    let mut model = PartitionModel::new(parts.to_vec(), w.f).map_err(|e| e.to_string())?;
    let reference = run_algorithm1(&mut model, &config(w, spec)).map_err(|e| e.to_string())?;
    if !same_output(&reference, served) {
        return Err(format!(
            "{spec:?}: output differs from the sequential reference"
        ));
    }
    if reference.comm != served.comm {
        return Err(format!(
            "{spec:?}: ledger {} differs from the sequential reference {}",
            served.comm, reference.comm
        ));
    }
    Ok(())
}

/// `evaluate_projection(a, p, k).additive_error` with the SVD of `A` taken
/// once per dataset instead of once per call.
pub struct Evaluator {
    a: Matrix,
    svd: Svd,
    total_sq: f64,
}

impl Evaluator {
    pub fn new(a: Matrix) -> Result<Self, String> {
        let svd = svd(&a).map_err(|e| format!("{e:?}"))?;
        let total_sq = a.frobenius_norm_sq();
        Ok(Evaluator { a, svd, total_sq })
    }

    pub fn additive_error(&self, p: &Projector, k: usize) -> Result<f64, String> {
        let residual_sq = p.residual_sq(&self.a).map_err(|e| format!("{e:?}"))?;
        Ok((residual_sq - self.svd.tail_energy(k)).abs() / self.total_sq)
    }
}

/// The additive-error gate: `error ≤ c·k²/r`.
pub fn within_prediction(error: f64, c: f64, k: usize, r: usize) -> bool {
    error <= c * dlra::core::metrics::predicted_additive_error(k, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use dlra::runtime::{Service, ServiceConfig, Substrate};

    #[test]
    fn gate_accepts_the_service_and_rejects_a_foreign_output() {
        let mut w = workload("socket_churn").unwrap();
        w.config = ServiceConfig {
            substrate: Substrate::Threaded,
            ..w.config
        };
        let data = w.datasets();
        let service = Service::new(w.config.clone());
        let handle = service.load("t", data[0].clone()).unwrap();
        let spec = QuerySpec {
            tenant: 0,
            k: 2,
            r: 30,
            seed: 5,
        };
        let query = dlra::runtime::Query::rank(2)
            .samples(30)
            .function(w.f)
            .sampler(dlra::core::SamplerKind::Z(w.params.clone()))
            .seed(5)
            .build()
            .unwrap();
        let served = handle.submit(&query).wait().unwrap().output;
        gate_sequential(&w, &data[0], &spec, &served).unwrap();
        let other = QuerySpec { seed: 6, ..spec };
        assert!(gate_sequential(&w, &data[0], &other, &served).is_err());
    }

    #[test]
    fn evaluator_matches_evaluate_projection() {
        let mut rng = dlra::util::Rng::new(9);
        let a = Matrix::gaussian(40, 7, &mut rng);
        let eval = Evaluator::new(a.clone()).unwrap();
        for k in 1..=4 {
            let b = Matrix::gaussian(12, 7, &mut rng);
            let (p, _) = dlra::core::fkv_projection(&b, k).unwrap();
            let want = dlra::core::evaluate_projection(&a, &p, k)
                .unwrap()
                .additive_error;
            assert_eq!(
                eval.additive_error(&p, k).unwrap().to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn additive_error_gate() {
        assert!(within_prediction(0.0075, 4.0, 1, 400));
        assert!(!within_prediction(0.0101, 4.0, 1, 400));
    }
}
