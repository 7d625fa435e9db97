//! The `kernels` bench: wall time and GFLOP/s for the blocked/threaded
//! dense kernels against the retained naive reference, across sizes and
//! thread counts. Emits the machine-readable `BENCH_kernels.json` that
//! starts the repository's performance trajectory — every future perf PR
//! regenerates it and compares.

use crate::cli::Report;
use dlra_linalg::kernels::reference;
use dlra_linalg::{set_threads, Matrix, Projector};
use dlra_util::Rng;
use std::time::Instant;

/// Projector rank used by the `projector_apply` benchmark (a typical
/// adaptive-round basis width, `2k` for `k = 16`).
pub const PROJECTOR_RANK: usize = 32;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct KernelBenchSpec {
    /// Square problem sizes `n` (matrices are `n × n`).
    pub sizes: Vec<usize>,
    /// Kernel thread counts to sweep.
    pub threads: Vec<usize>,
    /// Timed repetitions per cell (the minimum is reported).
    pub reps: usize,
    /// Seed for the operand matrices.
    pub seed: u64,
}

impl Default for KernelBenchSpec {
    fn default() -> Self {
        KernelBenchSpec {
            sizes: vec![256, 512, 1024],
            threads: vec![1, 2],
            reps: 3,
            seed: 0xBE9C_4E55,
        }
    }
}

impl KernelBenchSpec {
    /// Reduced sweep for CI smoke runs.
    pub fn quick() -> Self {
        KernelBenchSpec {
            sizes: vec![128, 256],
            threads: vec![1, 2],
            reps: 2,
            seed: 0xBE9C_4E55,
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct KernelMeasurement {
    /// Kernel name (`matmul`, `gram`, `transpose_matmul`, `projector_apply`).
    pub kernel: &'static str,
    /// `blocked` or `naive`.
    pub implementation: &'static str,
    /// Problem size `n`.
    pub n: usize,
    /// Kernel thread setting (naive reference is always single-threaded).
    pub threads: usize,
    /// Best wall time over the repetitions, seconds.
    pub wall_s: f64,
    /// Flops / wall time, in GFLOP/s.
    pub gflops: f64,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// All measured cells.
    pub results: Vec<KernelMeasurement>,
    /// Hardware parallelism visible to the process.
    pub available_parallelism: usize,
}

fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    // One untimed warmup to fault pages and warm caches.
    let _ = f();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&r);
    }
    best
}

/// Runs the sweep. Restores the kernel thread count to `1` on exit so the
/// caller's environment is not left with a stale setting.
pub fn run(spec: &KernelBenchSpec) -> KernelBenchReport {
    let mut rng = Rng::new(spec.seed);
    let mut results = Vec::new();
    for &n in &spec.sizes {
        let a = Matrix::gaussian(n, n, &mut rng);
        let b = Matrix::gaussian(n, n, &mut rng);
        let basis = dlra_linalg::orthonormalize_columns(&Matrix::gaussian(
            n,
            PROJECTOR_RANK.min(n),
            &mut rng,
        ));
        let projector = Projector::from_basis(basis);

        let mm_flops = 2.0 * (n as f64).powi(3);
        // Executed-arithmetic convention: both gram implementations compute
        // only the upper triangle (r·c·(c+1) flops) and mirror by copy, so
        // this is the arithmetic actually performed — about half the
        // 2·r·c² a full-matrix syrk-style count would report.
        let gram_flops = (n as f64) * (n as f64) * (n as f64 + 1.0);
        let proj_flops = 4.0 * (n as f64) * (n as f64) * PROJECTOR_RANK.min(n) as f64;

        // Naive reference: single-threaded by construction.
        set_threads(1);
        let wall = time_best(spec.reps, || reference::matmul(&a, &b).unwrap());
        results.push(cell("matmul", "naive", n, 1, wall, mm_flops));
        let wall = time_best(spec.reps, || reference::gram(&a));
        results.push(cell("gram", "naive", n, 1, wall, gram_flops));
        let wall = time_best(spec.reps, || reference::transpose_matmul(&a, &b).unwrap());
        results.push(cell("transpose_matmul", "naive", n, 1, wall, mm_flops));

        for &t in &spec.threads {
            set_threads(t);
            let wall = time_best(spec.reps, || a.matmul(&b).unwrap());
            results.push(cell("matmul", "blocked", n, t, wall, mm_flops));
            let wall = time_best(spec.reps, || a.gram());
            results.push(cell("gram", "blocked", n, t, wall, gram_flops));
            let wall = time_best(spec.reps, || a.transpose_matmul(&b).unwrap());
            results.push(cell("transpose_matmul", "blocked", n, t, wall, mm_flops));
            let wall = time_best(spec.reps, || projector.apply(&a).unwrap());
            results.push(cell("projector_apply", "blocked", n, t, wall, proj_flops));
        }
    }
    set_threads(1);
    KernelBenchReport {
        results,
        available_parallelism: std::thread::available_parallelism()
            .map(|x| x.get())
            .unwrap_or(1),
    }
}

fn cell(
    kernel: &'static str,
    implementation: &'static str,
    n: usize,
    threads: usize,
    wall_s: f64,
    flops: f64,
) -> KernelMeasurement {
    KernelMeasurement {
        kernel,
        implementation,
        n,
        threads,
        wall_s,
        gflops: flops / wall_s / 1e9,
    }
}

impl KernelBenchReport {
    /// Speedup of the blocked kernel at `threads` over the naive reference,
    /// for a given kernel and size (`None` if either cell is missing).
    pub fn speedup_vs_naive(&self, kernel: &str, n: usize, threads: usize) -> Option<f64> {
        let naive = self.find(kernel, "naive", n, 1)?;
        let blocked = self.find(kernel, "blocked", n, threads)?;
        Some(naive.wall_s / blocked.wall_s)
    }

    /// Wall-time ratio between two thread settings of the blocked kernel
    /// (`> 1` means `t2` is faster).
    pub fn thread_scaling(&self, kernel: &str, n: usize, t1: usize, t2: usize) -> Option<f64> {
        let a = self.find(kernel, "blocked", n, t1)?;
        let b = self.find(kernel, "blocked", n, t2)?;
        Some(a.wall_s / b.wall_s)
    }

    fn find(
        &self,
        kernel: &str,
        implementation: &str,
        n: usize,
        threads: usize,
    ) -> Option<&KernelMeasurement> {
        self.results.iter().find(|m| {
            m.kernel == kernel
                && m.implementation == implementation
                && m.n == n
                && m.threads == threads
        })
    }
}

impl Report for KernelBenchReport {
    /// Serializes the report as the `BENCH_kernels.json` document.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regenerate\": \"cargo run --release -p dlra-bench --bin kernels -- --out BENCH_kernels.json\","
        );
        let _ = writeln!(
            out,
            "  \"available_parallelism\": {},",
            self.available_parallelism
        );
        out.push_str("  \"results\": [\n");
        for (i, m) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"kernel\": \"{}\", \"impl\": \"{}\", \"n\": {}, \"threads\": {}, \"wall_s\": {:.6}, \"gflops\": {:.3}}}{comma}",
                m.kernel, m.implementation, m.n, m.threads, m.wall_s, m.gflops
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": {\n");
        let biggest = self.results.iter().map(|m| m.n).max().unwrap_or(0);
        let max_threads = self.results.iter().map(|m| m.threads).max().unwrap_or(1);
        let speedup = self.speedup_vs_naive("matmul", biggest, 1).unwrap_or(0.0);
        let scaling = self
            .thread_scaling("matmul", biggest, 1, max_threads)
            .unwrap_or(1.0);
        let _ = writeln!(
            out,
            "    \"matmul_n\": {biggest},\n    \"matmul_single_thread_speedup_vs_naive\": {speedup:.3},\n    \"matmul_scaling_1_to_{max_threads}_threads\": {scaling:.3}"
        );
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_all_cells_and_valid_json() {
        let spec = KernelBenchSpec {
            sizes: vec![16, 32],
            threads: vec![1, 2],
            reps: 1,
            seed: 1,
        };
        let report = run(&spec);
        // Per size: 3 naive + 2 threads × 4 blocked = 11 cells.
        assert_eq!(report.results.len(), 22);
        assert!(report
            .results
            .iter()
            .all(|m| m.wall_s > 0.0 && m.gflops.is_finite()));
        assert!(report.speedup_vs_naive("matmul", 32, 1).is_some());
        assert!(report.thread_scaling("matmul", 32, 1, 2).is_some());
        let json = report.to_json();
        assert!(json.contains("\"results\""));
        assert!(json.contains("\"matmul_single_thread_speedup_vs_naive\""));
        // Crude structural check: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
