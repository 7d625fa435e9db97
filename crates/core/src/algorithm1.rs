//! Algorithm 1 — the distributed PCA framework (§IV).
//!
//! ```text
//! 1: Input: {Aᵗ ∈ ℝⁿˣᵈ}, k, ε
//! 3: r = Θ(k²/ε²)
//! 4-6: sample rows i₁..iᵣ of A, sampler reports Q̂ ∈ (1±γ)Q
//! 7:   every server sends its part of each sampled row to server 1,
//!      which assembles B with Bᵢ′ = Aᵢ / √(r·Q̂ᵢ)
//! 8:   P = VVᵀ from B's top-k right singular vectors
//! ```
//!
//! Line 7's `B` has one row per draw. Here `B` has one row per distinct
//! sampled index `i` instead, `Aᵢ·√(Σ 1/(r·Q̂))` over `i`'s draws: every
//! repeat of `i` adds the same `AᵢᵀAᵢ` to `BᵀB`, only with its own weight,
//! so the sums agree, and line 8 reads `B` only through `BᵀB` (see
//! [`build_b_matrix`]).
//!
//! Success boosting (§IV): repeat the protocol `O(log 1/δ)` times and keep
//! the `P` with maximum `‖BP‖²_F`.

use crate::fkv::{build_b_matrix, fkv_projection, SampledRow};
use crate::functions::EntryFunction;
use crate::model::{MatrixServer, PartitionModel};
use crate::{CoreError, InterruptReason, Result};
use dlra_comm::{Collectives, LedgerSnapshot};
use dlra_linalg::Projector;
use dlra_sampler::{PreparedSampler, UniformSampler, ZFn, ZSampler, ZSamplerParams};
use dlra_util::Rng;
use std::sync::Arc;

/// Which distributed sampler drives row selection.
#[derive(Debug, Clone)]
pub enum SamplerKind {
    /// The generalized Z-sampler (Algorithms 2–4) with `z = f²` — the
    /// paper's main construction.
    Z(ZSamplerParams),
    /// Uniform row sampling — correct when row norms are near-uniform
    /// (Gaussian random Fourier features, §VI-A).
    Uniform,
    /// Idealized exact-probability sampler (the FKV assumption the paper
    /// relaxes). Sampling itself is an unaccounted oracle; row fetches are
    /// still charged. Baseline for the ablation benches.
    ExactOracle,
}

/// Configuration for one Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct Algorithm1Config {
    /// Target rank `k ≥ 1`.
    pub k: usize,
    /// Number of sampled rows `r = Θ(k²/ε²)`.
    pub r: usize,
    /// Boosting repetitions (keep the best `‖BP‖²_F`); `1` = no boosting.
    pub boost: usize,
    /// The row sampler.
    pub sampler: SamplerKind,
    /// Root seed for all protocol randomness.
    pub seed: u64,
}

impl Default for Algorithm1Config {
    fn default() -> Self {
        Algorithm1Config {
            k: 5,
            r: 50,
            boost: 1,
            sampler: SamplerKind::Z(ZSamplerParams::default()),
            seed: 0xD15A_57E5,
        }
    }
}

/// Result of an Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct Algorithm1Output {
    /// The rank-≤k projection `P = VVᵀ`, stored factored as its `d × k`
    /// basis (`projection.basis()` is exactly the `V` of line 8; the dense
    /// `d × d` matrix is never materialized on the protocol path).
    pub projection: Projector,
    /// Words/messages/rounds consumed by this run (sampling + row fetches).
    pub comm: LedgerSnapshot,
    /// Row indices actually sampled (with multiplicity), per boost rep kept.
    pub rows: Vec<usize>,
    /// `‖BP‖²_F` of the winning repetition (the boosting score).
    pub captured: f64,
}

/// Validates an [`Algorithm1Config`] against the model's column count.
fn validate_config(cfg: &Algorithm1Config, d: usize) -> Result<()> {
    if cfg.k == 0 {
        return Err(CoreError::InvalidConfig("k must be >= 1".into()));
    }
    if cfg.k > d {
        return Err(CoreError::InvalidConfig(format!(
            "k = {} exceeds column count d = {d}",
            cfg.k
        )));
    }
    if cfg.r == 0 {
        return Err(CoreError::InvalidConfig("r must be >= 1".into()));
    }
    if cfg.boost == 0 {
        return Err(CoreError::InvalidConfig("boost must be >= 1".into()));
    }
    Ok(())
}

/// The boosting loop shared by the planned and unplanned entry points:
/// `sample` produces the rep's rows (lines 4–7), the body builds `B`, takes
/// the top-k right singular space, and keeps the best `‖BP‖²_F`. `B` has
/// one row per distinct sampled index; merging repeats keeps `BᵀB`, so the
/// projection and the score `‖BP‖²_F = tr(P·BᵀB·P)` are the per-draw
/// matrix's, while the SVD runs on `m ≤ r` rows. The output's `rows`
/// keep every draw.
///
/// `check` is consulted at the start of every repetition and again between
/// the draw/fetch phase and the local SVD, so a caller-imposed deadline or
/// cancellation interrupts the protocol promptly instead of only at
/// whole-run boundaries. A run that is never interrupted is bit- and
/// ledger-identical to one given the never-stop check.
fn run_boosted<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &Algorithm1Config,
    check: &dyn Fn() -> Option<InterruptReason>,
    mut sample: impl FnMut(&mut PartitionModel<C>, u64) -> Result<Vec<SampledRow>>,
) -> Result<Algorithm1Output> {
    let before = model.cluster().comm();
    let mut best: Option<(Projector, f64, Vec<usize>)> = None;
    for rep in 0..cfg.boost {
        if let Some(reason) = check() {
            return Err(CoreError::Interrupted(reason));
        }
        let rep_seed = cfg
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rep as u64));
        let sampled = sample(model, rep_seed)?;
        if let Some(reason) = check() {
            return Err(CoreError::Interrupted(reason));
        }
        let indices: Vec<usize> = sampled.iter().map(|s| s.index).collect();
        let b = build_b_matrix(&sampled)?;
        let (p, captured) = fkv_projection(&b, cfg.k)?;
        if best.as_ref().is_none_or(|(_, c, _)| captured > *c) {
            best = Some((p, captured, indices));
        }
    }
    let (projection, captured, rows) = best.expect("boost >= 1");
    Ok(Algorithm1Output {
        projection,
        comm: model.cluster().comm().since(&before),
        rows,
        captured,
    })
}

/// Runs Algorithm 1 end to end on a partition model, on any substrate
/// implementing [`Collectives`] (the sequential simulator or the threaded
/// runtime) — the protocol body is identical either way.
///
/// Internally this is prepare-then-execute: the Z-sampled path prepares a
/// [`PreparedZPlan`] per boosting repetition and immediately consumes it,
/// which is bit- and ledger-identical to the historical single-pass code.
/// Callers serving many queries over one resident dataset should prepare
/// once with [`prepare_z_plan`] and execute each query with
/// [`run_algorithm1_with_plan`] instead — the preparation (the expensive,
/// `k`-independent distributed phase) is then paid a single time.
pub fn run_algorithm1<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &Algorithm1Config,
) -> Result<Algorithm1Output> {
    run_algorithm1_interruptible(model, cfg, &|| None)
}

/// [`run_algorithm1`] with a caller-supplied stop signal: `check` is polled
/// between protocol phases (each boosting repetition's start, and between
/// its draw/fetch and local SVD), and a `Some(reason)` abandons the run
/// with [`CoreError::Interrupted`]. This is how the serving runtime
/// enforces query deadlines and cancellation *inside* long-running
/// executions rather than only before they start; `check` returning `None`
/// forever reproduces [`run_algorithm1`] bit- and ledger-identically.
pub fn run_algorithm1_interruptible<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &Algorithm1Config,
    check: &dyn Fn() -> Option<InterruptReason>,
) -> Result<Algorithm1Output> {
    validate_config(cfg, model.shape().1)?;
    run_boosted(model, cfg, check, |model, rep_seed| {
        sample_rows(model, cfg, rep_seed)
    })
}

/// A shareable execution plan for Algorithm 1's Z-sampled path: the
/// prepared Z-sampler (the `k`-independent distributed phase of the
/// protocol — sketch bundles, coordinate injection, second estimator
/// pass), the exact one-time communication it charged, and the identity it
/// was prepared under. Cloning shares the `Arc`-backed structure; any
/// number of queries may draw from one plan concurrently.
#[derive(Debug, Clone)]
pub struct PreparedZPlan {
    sampler: Arc<PreparedSampler>,
    /// Ledger delta of the preparation (two estimator passes plus the
    /// injection broadcast) — the cost a planner amortizes across queries.
    pub prepare_comm: LedgerSnapshot,
    /// The entrywise `f` the plan was prepared under.
    pub f: EntryFunction,
    /// The sampler parameters the plan was prepared under.
    pub params: ZSamplerParams,
    /// The preparation seed (both estimator passes derive from it).
    pub seed: u64,
}

impl PreparedZPlan {
    /// The shared draw structure.
    pub fn sampler(&self) -> &Arc<PreparedSampler> {
        &self.sampler
    }
}

/// The property-P `z` for the model's `f`, or the error naming the `f`
/// that has none.
fn z_fn_for<C: Collectives<MatrixServer>>(model: &PartitionModel<C>) -> Result<Box<dyn ZFn>> {
    model.entry_function().z_fn().ok_or_else(|| {
        CoreError::InvalidConfig(format!(
            "no property-P z for f = {}; use GmRoot to approximate max",
            model.entry_function().name()
        ))
    })
}

/// Runs the `k`-independent distributed phase once and returns the
/// shareable plan. Deterministic in (data, `params`, `seed`): repeated
/// preparations yield bit-identical plans charging identical ledger
/// deltas, so a planner may cache the result and share it across every
/// query with the same key. Fails with [`CoreError::SamplerExhausted`]
/// when the data has no recoverable mass (exactly as the unplanned path
/// would).
pub fn prepare_z_plan<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    params: &ZSamplerParams,
    seed: u64,
) -> Result<PreparedZPlan> {
    let zfn = z_fn_for(model)?;
    let shared =
        ZSampler::new(params.clone(), seed).prepare_shared(model.cluster_mut(), zfn.as_ref());
    if shared.sampler.is_empty() {
        return Err(CoreError::SamplerExhausted);
    }
    Ok(PreparedZPlan {
        sampler: shared.sampler,
        prepare_comm: shared.prepare_comm,
        f: model.entry_function(),
        params: params.clone(),
        seed,
    })
}

/// Runs Algorithm 1 consuming a pre-prepared sampler: only the per-query
/// phases (probability-proportional draws, row fetches, the FKV step) run;
/// no preparation communication is charged. The returned `comm` therefore
/// covers draw/fetch only — callers account the plan's
/// [`PreparedZPlan::prepare_comm`] once, however many queries consumed it.
///
/// `cfg.sampler` must be [`SamplerKind::Z`] with exactly the plan's
/// parameters, and the model's `f` must match the plan's; mismatches are
/// [`CoreError::InvalidConfig`] (a planner must never serve a query from a
/// foreign plan). When `cfg.boost == 1` and `cfg.seed` equals the plan's
/// prepare seed, the output is bit-identical to [`run_algorithm1`] and
/// `prepare_comm + comm` equals its ledger delta exactly; with boosting,
/// every repetition draws from the one shared preparation instead of
/// re-preparing per repetition.
pub fn run_algorithm1_with_plan<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &Algorithm1Config,
    plan: &PreparedZPlan,
) -> Result<Algorithm1Output> {
    run_algorithm1_with_plan_interruptible(model, cfg, plan, &|| None)
}

/// [`run_algorithm1_with_plan`] with a caller-supplied stop signal; see
/// [`run_algorithm1_interruptible`] for the polling contract.
pub fn run_algorithm1_with_plan_interruptible<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &Algorithm1Config,
    plan: &PreparedZPlan,
    check: &dyn Fn() -> Option<InterruptReason>,
) -> Result<Algorithm1Output> {
    validate_config(cfg, model.shape().1)?;
    let SamplerKind::Z(params) = &cfg.sampler else {
        return Err(CoreError::InvalidConfig(
            "run_algorithm1_with_plan requires SamplerKind::Z".into(),
        ));
    };
    if *params != plan.params {
        return Err(CoreError::InvalidConfig(
            "plan was prepared under different ZSamplerParams".into(),
        ));
    }
    if plan.f != model.entry_function() {
        return Err(CoreError::InvalidConfig(format!(
            "plan was prepared under f = {}, model has f = {}",
            plan.f.name(),
            model.entry_function().name()
        )));
    }
    run_boosted(model, cfg, check, |model, rep_seed| {
        z_rows_from_plan(model, cfg.r, rep_seed, plan)
    })
}

/// Lines 4–7: draw `r` rows and fetch them from the servers.
fn sample_rows<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    cfg: &Algorithm1Config,
    seed: u64,
) -> Result<Vec<SampledRow>> {
    let n = model.shape().0;
    let mut rng = Rng::new(seed ^ 0xA5A5_A5A5_5A5A_5A5A);
    match &cfg.sampler {
        SamplerKind::Uniform => {
            let sampler = UniformSampler { n: n as u64 };
            let draws = sampler.draw_many(cfg.r, &mut rng);
            let indices: Vec<usize> = draws.iter().map(|&(i, _)| i as usize).collect();
            Ok(fetch_rows(model, &indices)?.sampled(|j, _| draws[j].1))
        }
        SamplerKind::ExactOracle => {
            // Oracle: exact row weights from the (evaluation-only) global
            // matrix; fetches still paid.
            let a = model.global_matrix();
            let weights = a.row_norms_sq();
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                return Err(CoreError::SamplerExhausted);
            }
            let indices: Vec<usize> = (0..cfg.r).map(|_| rng.weighted_index(&weights)).collect();
            Ok(fetch_rows(model, &indices)?.sampled(|j, _| weights[indices[j]] / total))
        }
        SamplerKind::Z(params) => {
            // Prepare-then-execute: one plan per repetition, consumed
            // immediately — bit- and ledger-identical to preparing inline.
            let plan = prepare_z_plan(model, params, seed)?;
            z_rows_from_plan(model, cfg.r, seed, &plan)
        }
    }
}

/// Lines 4–7 of the Z-sampled path, given an already-prepared sampler:
/// draw `r` entries, promote each to its row, fetch the rows, and attach
/// the exact `z`-mass probabilities. This is the per-query (plan-consuming)
/// half of the prepare/execute split; all randomness comes from
/// `draw_seed`, never from the plan.
fn z_rows_from_plan<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    r: usize,
    draw_seed: u64,
    plan: &PreparedZPlan,
) -> Result<Vec<SampledRow>> {
    let d = model.shape().1;
    let zfn = z_fn_for(model)?;
    let mut rng = Rng::new(draw_seed ^ 0xA5A5_A5A5_5A5A_5A5A);
    let prepared = plan.sampler();
    if prepared.is_empty() {
        return Err(CoreError::SamplerExhausted);
    }
    let draws = prepared.draw_many(r, &mut rng);
    if draws.is_empty() {
        return Err(CoreError::SamplerExhausted);
    }
    // Entry → row: an entry draw selects its row (§V: "If an entry
    // is sampled, then we choose the entire row as the sample").
    let indices: Vec<usize> = draws.iter().map(|dr| (dr.coord as usize) / d).collect();
    // Fetch raw rows first; the row's reported probability is its
    // z-mass over Ẑ, computable exactly from the fetched raw row, once per
    // distinct row.
    let rows = fetch_rows(model, &indices)?;
    let z_hat = prepared.z_hat();
    let q_hat: Vec<f64> = rows
        .raw
        .iter()
        .map(|raw| {
            let zmass: f64 = raw.iter().map(|&x| zfn.z(x)).sum();
            (zmass / z_hat).min(1.0)
        })
        .collect();
    // NaN-safe: reject zero, negative, and NaN probabilities.
    if q_hat.iter().any(|&q| q <= 0.0 || q.is_nan()) {
        return Err(CoreError::SamplerExhausted);
    }
    Ok(rows.sampled(|_, at| q_hat[at]))
}

/// One fetch's rows: each distinct index's aggregated raw row and its
/// `f`-values, computed once however often the index was requested.
struct FetchedRows {
    /// The requested indices, repeats included, in request order.
    indices: Vec<usize>,
    /// Each request's position among the distinct rows.
    at: Vec<usize>,
    /// The distinct aggregated raw rows (pre-`f`), ascending by index.
    raw: Vec<Vec<f64>>,
    /// `f` applied to each distinct raw row.
    values: Vec<Vec<f64>>,
}

impl FetchedRows {
    /// One FKV input row per request; the `j`-th, whose row sits at
    /// position `at` among the distinct rows, reports `q_hat(j, at)`.
    fn sampled(&self, q_hat: impl Fn(usize, usize) -> f64) -> Vec<SampledRow> {
        self.indices
            .iter()
            .zip(&self.at)
            .enumerate()
            .map(|(j, (&index, &at))| SampledRow {
                index,
                values: self.values[at].clone(),
                q_hat: q_hat(j, at),
            })
            .collect()
    }
}

/// Algorithm 1 line 7: the coordinator requests each distinct sampled row;
/// every server ships its local part (d words per row), and the coordinator
/// assembles the aggregated raw rows and applies `f` to each once.
fn fetch_rows<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    indices: &[usize],
) -> Result<FetchedRows> {
    let d = model.shape().1;
    let mut distinct = indices.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let request: Vec<u64> = distinct.iter().map(|&i| i as u64).collect();
    // Per-server row fragments sum entrywise up the configured topology:
    // under a tree, servers combine partial row sums pairwise and only the
    // aggregate reaches the coordinator.
    let summed = model.cluster_mut().query_aggregate(
        &request,
        "alg1.fetch_rows",
        move |_t, local, req: &Vec<u64>| {
            let mut out = Vec::with_capacity(req.len() * d);
            for &i in req {
                out.extend_from_slice(local.row(i as usize));
            }
            out
        },
        |acc, reply| {
            for (a, v) in acc.iter_mut().zip(reply) {
                *a += v;
            }
        },
    );
    let raw: Vec<Vec<f64>> = summed.chunks_exact(d).map(<[f64]>::to_vec).collect();
    let values = raw.iter().map(|r| model.apply_f_to_raw_row(r)).collect();
    let at = indices
        .iter()
        .map(|i| distinct.binary_search(i).expect("sampled row present"))
        .collect();
    Ok(FetchedRows {
        indices: indices.to_vec(),
        at,
        raw,
        values,
    })
}

/// A fetched global row: the aggregated raw entries `Σₜ Aᵗᵢ` and the
/// post-`f` values. Public for experiment harnesses that drive the FKV step
/// themselves (e.g. amortizing one sampler preparation across many `k`).
#[derive(Debug, Clone)]
pub struct GlobalRow {
    /// Row index in the global matrix.
    pub index: usize,
    /// Aggregated raw entries (pre-`f`).
    pub raw: Vec<f64>,
    /// The global row `f(raw)`.
    pub values: Vec<f64>,
}

impl GlobalRow {
    /// Attaches a reported probability, producing the FKV input row.
    pub fn into_sampled(self, q_hat: f64) -> SampledRow {
        SampledRow {
            index: self.index,
            values: self.values,
            q_hat,
        }
    }
}

/// Public accounted row fetch (Algorithm 1 line 7): `indices` may repeat;
/// each distinct row is shipped once (d words per server) and reused.
pub fn fetch_global_rows<C: Collectives<MatrixServer>>(
    model: &mut PartitionModel<C>,
    indices: &[usize],
) -> Result<Vec<GlobalRow>> {
    let rows = fetch_rows(model, indices)?;
    Ok(indices
        .iter()
        .zip(&rows.at)
        .map(|(&index, &at)| GlobalRow {
            index,
            raw: rows.raw[at].clone(),
            values: rows.values[at].clone(),
        })
        .collect())
}

/// Baseline: the communication (in words) of simply shipping every local
/// matrix to the coordinator.
pub fn ship_everything_words<C: Collectives<MatrixServer>>(model: &PartitionModel<C>) -> u64 {
    let (n, d) = model.shape();
    ((model.num_servers() - 1) * n * d) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::EntryFunction;
    use crate::metrics::evaluate_projection;
    use dlra_linalg::lowrank::is_projection_of_rank_at_most;
    use dlra_linalg::Matrix;

    fn low_rank_model(
        s: usize,
        n: usize,
        d: usize,
        k: usize,
        noise: f64,
        seed: u64,
    ) -> PartitionModel {
        let mut rng = Rng::new(seed);
        let u = Matrix::gaussian(n, k, &mut rng);
        let v = Matrix::gaussian(k, d, &mut rng);
        let mut a = u.matmul(&v).unwrap();
        a.add_assign(&Matrix::gaussian(n, d, &mut rng).scaled(noise))
            .unwrap();
        // Additive shares: random parts summing to A.
        let mut parts: Vec<Matrix> = (0..s - 1)
            .map(|_| Matrix::gaussian(n, d, &mut rng))
            .collect();
        let mut last = a;
        for p in &parts {
            last = last.sub(p).unwrap();
        }
        parts.push(last);
        PartitionModel::new(parts, EntryFunction::Identity).unwrap()
    }

    #[test]
    fn validates_config() {
        let mut m = low_rank_model(2, 20, 8, 2, 0.0, 1);
        let bad_k = Algorithm1Config {
            k: 0,
            ..Default::default()
        };
        assert!(run_algorithm1(&mut m, &bad_k).is_err());
        let big_k = Algorithm1Config {
            k: 9,
            ..Default::default()
        };
        assert!(run_algorithm1(&mut m, &big_k).is_err());
        let bad_r = Algorithm1Config {
            k: 2,
            r: 0,
            ..Default::default()
        };
        assert!(run_algorithm1(&mut m, &bad_r).is_err());
    }

    #[test]
    fn exact_oracle_end_to_end() {
        let mut m = low_rank_model(3, 150, 12, 3, 0.05, 2);
        let cfg = Algorithm1Config {
            k: 3,
            r: 80,
            sampler: SamplerKind::ExactOracle,
            ..Default::default()
        };
        let out = run_algorithm1(&mut m, &cfg).unwrap();
        assert!(is_projection_of_rank_at_most(
            &out.projection.to_dense(),
            3,
            1e-7
        ));
        let rep = evaluate_projection(&m.global_matrix(), &out.projection, 3).unwrap();
        assert!(rep.additive_error < 0.15, "additive {}", rep.additive_error);
        assert!(out.comm.total_words() > 0);
        assert_eq!(out.rows.len(), 80);
    }

    #[test]
    fn z_sampler_end_to_end_identity_f() {
        let mut m = low_rank_model(3, 128, 10, 2, 0.05, 3);
        let cfg = Algorithm1Config {
            k: 2,
            r: 60,
            sampler: SamplerKind::Z(ZSamplerParams::default()),
            ..Default::default()
        };
        let out = run_algorithm1(&mut m, &cfg).unwrap();
        let rep = evaluate_projection(&m.global_matrix(), &out.projection, 2).unwrap();
        assert!(rep.additive_error < 0.35, "additive {}", rep.additive_error);
    }

    #[test]
    fn boosting_never_hurts_captured_energy() {
        let mut m1 = low_rank_model(2, 100, 8, 2, 0.2, 4);
        let mut m3 = low_rank_model(2, 100, 8, 2, 0.2, 4);
        let base = Algorithm1Config {
            k: 2,
            r: 30,
            sampler: SamplerKind::ExactOracle,
            seed: 9,
            ..Default::default()
        };
        let boosted = Algorithm1Config {
            boost: 4,
            ..base.clone()
        };
        let o1 = run_algorithm1(&mut m1, &base).unwrap();
        let o3 = run_algorithm1(&mut m3, &boosted).unwrap();
        assert!(o3.captured >= o1.captured - 1e-9);
    }

    #[test]
    fn communication_scales_with_r_and_d() {
        // Theorem 1: row-collection cost is O(s·r·d) words.
        let mut m = low_rank_model(4, 200, 16, 2, 0.1, 5);
        let s = m.num_servers() as u64;
        let cfg = Algorithm1Config {
            k: 2,
            r: 40,
            sampler: SamplerKind::Uniform,
            ..Default::default()
        };
        let out = run_algorithm1(&mut m, &cfg).unwrap();
        let distinct = {
            let mut v = out.rows.clone();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        // Upstream ≈ (s−1)·distinct·d words (+ frames).
        let expect = (s - 1) * distinct * 16;
        assert!(
            out.comm.upstream_words >= expect && out.comm.upstream_words <= expect + 4 * s * 40,
            "upstream {} vs expected ≈ {expect}",
            out.comm.upstream_words
        );
    }

    #[test]
    fn fetch_global_rows_answers_each_request_and_ships_each_row_once() {
        let mut m = low_rank_model(3, 30, 8, 2, 0.1, 9);
        let global = m.global_matrix();
        fn fetch(m: &mut PartitionModel, indices: &[usize]) -> (Vec<GlobalRow>, u64) {
            let before = m.cluster().comm().total_words();
            let rows = fetch_global_rows(m, indices).unwrap();
            (rows, m.cluster().comm().total_words() - before)
        }
        let (rows, words) = fetch(&mut m, &[3, 1, 3, 3, 0]);
        assert_eq!(words, fetch(&mut m, &[0, 1, 3]).1);
        let order: Vec<usize> = rows.iter().map(|r| r.index).collect();
        assert_eq!(order, [3, 1, 3, 3, 0]);
        for row in &rows {
            assert_eq!(row.values, row.raw, "f is the identity");
            for (x, y) in row.raw.iter().zip(global.row(row.index)) {
                assert!((x - y).abs() < 1e-12, "row {}", row.index);
            }
        }
        for repeat in [&rows[2], &rows[3]] {
            assert_eq!(repeat.values, rows[0].values);
        }
    }

    #[test]
    fn planned_run_is_bit_identical_to_unplanned() {
        // boost == 1 and matching seeds: prepare-then-execute through an
        // explicit plan must reproduce run_algorithm1 exactly, and the
        // plan's one-time cost plus the execute delta must equal the
        // unplanned ledger delta word for word.
        let cfg = Algorithm1Config {
            k: 2,
            r: 40,
            sampler: SamplerKind::Z(ZSamplerParams::default()),
            seed: 77,
            ..Default::default()
        };
        let mut unplanned = low_rank_model(3, 96, 10, 2, 0.05, 8);
        let want = run_algorithm1(&mut unplanned, &cfg).unwrap();

        let mut planned = low_rank_model(3, 96, 10, 2, 0.05, 8);
        let plan = prepare_z_plan(&mut planned, &ZSamplerParams::default(), 77).unwrap();
        let got = run_algorithm1_with_plan(&mut planned, &cfg, &plan).unwrap();

        assert_eq!(
            got.projection.basis().as_slice(),
            want.projection.basis().as_slice()
        );
        assert_eq!(got.rows, want.rows);
        assert_eq!(got.captured.to_bits(), want.captured.to_bits());
        assert_eq!(plan.prepare_comm + got.comm, want.comm);
    }

    #[test]
    fn one_plan_serves_many_ranks() {
        // The preparation is k-independent: one plan, three ranks, each
        // execution charging only draw/fetch words.
        let mut m = low_rank_model(3, 128, 12, 3, 0.05, 9);
        let plan = prepare_z_plan(&mut m, &ZSamplerParams::default(), 5).unwrap();
        let shared_before = Arc::strong_count(plan.sampler());
        for k in 1..=3 {
            let cfg = Algorithm1Config {
                k,
                r: 50,
                sampler: SamplerKind::Z(ZSamplerParams::default()),
                seed: 5,
                ..Default::default()
            };
            let out = run_algorithm1_with_plan(&mut m, &cfg, &plan).unwrap();
            assert_eq!(out.projection.basis().cols(), k);
            assert!(out.comm.total_words() > 0);
            assert!(out.comm.total_words() < plan.prepare_comm.total_words());
        }
        // Execution borrowed the plan; nothing cloned the structure away.
        assert_eq!(Arc::strong_count(plan.sampler()), shared_before);
    }

    #[test]
    fn boosted_planned_run_prepares_once() {
        // With boosting, every repetition draws from the one shared
        // preparation: the execute delta stays strictly below what two
        // prepare phases would cost.
        let cfg = Algorithm1Config {
            k: 2,
            r: 25,
            boost: 3,
            sampler: SamplerKind::Z(ZSamplerParams::default()),
            seed: 13,
        };
        let mut m = low_rank_model(2, 80, 8, 2, 0.1, 10);
        let plan = prepare_z_plan(&mut m, &ZSamplerParams::default(), 13).unwrap();
        let out = run_algorithm1_with_plan(&mut m, &cfg, &plan).unwrap();
        assert!(out.comm.total_words() < plan.prepare_comm.total_words());
    }

    #[test]
    fn plan_mismatches_are_rejected() {
        let mut m = low_rank_model(2, 60, 8, 2, 0.05, 11);
        let plan = prepare_z_plan(&mut m, &ZSamplerParams::default(), 3).unwrap();

        // Different sampler parameters.
        let other_params = ZSamplerParams {
            hh_width: 64,
            ..ZSamplerParams::default()
        };
        let cfg = Algorithm1Config {
            k: 2,
            r: 20,
            sampler: SamplerKind::Z(other_params),
            seed: 3,
            ..Default::default()
        };
        assert!(matches!(
            run_algorithm1_with_plan(&mut m, &cfg, &plan),
            Err(CoreError::InvalidConfig(_))
        ));

        // Non-Z sampler.
        let cfg = Algorithm1Config {
            k: 2,
            r: 20,
            sampler: SamplerKind::Uniform,
            seed: 3,
            ..Default::default()
        };
        assert!(matches!(
            run_algorithm1_with_plan(&mut m, &cfg, &plan),
            Err(CoreError::InvalidConfig(_))
        ));

        // Different entrywise f.
        let mut rng = Rng::new(12);
        let parts: Vec<Matrix> = (0..2).map(|_| Matrix::gaussian(60, 8, &mut rng)).collect();
        let mut huber = PartitionModel::new(parts, EntryFunction::Huber { k: 2.0 }).unwrap();
        let cfg = Algorithm1Config {
            k: 2,
            r: 20,
            sampler: SamplerKind::Z(ZSamplerParams::default()),
            seed: 3,
            ..Default::default()
        };
        assert!(matches!(
            run_algorithm1_with_plan(&mut huber, &cfg, &plan),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn zero_matrix_reports_exhausted() {
        let parts = vec![Matrix::zeros(10, 4); 2];
        let mut m = PartitionModel::new(parts, EntryFunction::Identity).unwrap();
        let cfg = Algorithm1Config {
            k: 1,
            r: 5,
            ..Default::default()
        };
        assert!(matches!(
            run_algorithm1(&mut m, &cfg),
            Err(CoreError::SamplerExhausted)
        ));
    }

    #[test]
    fn ship_everything_baseline() {
        let m = low_rank_model(4, 50, 8, 2, 0.0, 6);
        assert_eq!(ship_everything_words(&m), 3 * 50 * 8);
    }
}
