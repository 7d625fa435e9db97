//! Typed query construction for the service façade.
//!
//! [`Query::rank`] opens a builder over every protocol knob — sample
//! count, entrywise function, sampler, boosting, seed, deadline — and
//! [`QueryBuilder::build`] validates the combination **at construction
//! time**, returning a dedicated [`QueryError`] instead of deferring to a
//! mid-protocol `CoreError::InvalidConfig` after the query has already
//! been dispatched to an executor. The only checks that cannot happen here
//! are dataset-dependent (`k` against the resident column count); those
//! run at submission, against the addressed dataset, and resolve the
//! ticket eagerly.
//!
//! A built query carries a [`QueryRequest`], the form executors run.

use dlra_core::algorithm1::{Algorithm1Config, SamplerKind};
use dlra_core::functions::EntryFunction;
use std::time::Duration;

/// One Algorithm 1 query against a resident dataset.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The entrywise function `f` applied to the aggregated entries.
    /// Interpreted exactly as by `PartitionModel::new` (for `GmRoot`,
    /// submit locally pre-transformed locals).
    pub f: EntryFunction,
    /// Protocol configuration (`k`, `r`, boosting, sampler, seed).
    pub cfg: Algorithm1Config,
}

impl QueryRequest {
    /// Whether the planner may serve this query from a shared preparation:
    /// a Z-sampled, unboosted query (boosted repetitions re-prepare with
    /// per-repetition seeds on the unplanned path, so sharing one
    /// preparation would change their bits) with a valid-enough
    /// configuration that preparing before validation cannot mask a
    /// config error.
    pub(crate) fn plannable(&self, d: usize) -> bool {
        matches!(self.cfg.sampler, SamplerKind::Z(_))
            && self.cfg.boost == 1
            && self.cfg.k >= 1
            && self.cfg.k <= d
            && self.cfg.r >= 1
            && self.f.z_fn().is_some()
    }
}

/// Why a query failed validation — at [`QueryBuilder::build`], at
/// submission (shape-dependent checks), or when the protocol itself
/// rejected the configuration at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// `rank(0)`: the target rank must be ≥ 1.
    ZeroRank,
    /// `samples(0)`: at least one row must be sampled.
    ZeroSamples,
    /// `boosted(0)`: at least one repetition must run.
    ZeroBoost,
    /// The target rank exceeds the addressed dataset's column count
    /// (checked at submission — the builder cannot know `d`).
    RankExceedsDimension {
        /// Requested target rank.
        k: usize,
        /// Column count of the addressed dataset.
        d: usize,
    },
    /// Z-sampling needs a property-P `z = f²`, and this `f` has none
    /// (`Max` — the paper's point: approximate it via `GmRoot` instead).
    UnsupportedFunction {
        /// `EntryFunction::name()` of the offending `f`.
        f: &'static str,
    },
    /// The protocol rejected the configuration at execution time. A built
    /// query passed every check at submission, so this is reachable only
    /// when a `Service::reload` narrows the dataset below the `k` of a
    /// query still queued against it.
    Rejected(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ZeroRank => write!(f, "rank k must be >= 1"),
            QueryError::ZeroSamples => write!(f, "sample count r must be >= 1"),
            QueryError::ZeroBoost => write!(f, "boost repetitions must be >= 1"),
            QueryError::RankExceedsDimension { k, d } => {
                write!(f, "rank k = {k} exceeds the dataset's column count d = {d}")
            }
            QueryError::UnsupportedFunction { f: name } => {
                write!(
                    f,
                    "Z-sampling needs a property-P z = f² and f = {name} has none \
                     (use GmRoot to approximate max)"
                )
            }
            QueryError::Rejected(m) => write!(f, "rejected by the protocol: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated, ready-to-submit query. Built through [`Query::rank`];
/// construction is the proof of validity (up to the dataset-dependent
/// `k ≤ d` check, which submission performs).
#[derive(Debug, Clone)]
pub struct Query {
    pub(crate) request: QueryRequest,
    pub(crate) deadline: Option<Duration>,
}

impl Query {
    /// Opens a builder for a query of target rank `k`. Every other knob
    /// starts from [`Algorithm1Config::default`]: `r = 50`, no boosting,
    /// the Z-sampler with default parameters, `f = Identity`.
    pub fn rank(k: usize) -> QueryBuilder {
        QueryBuilder {
            f: EntryFunction::Identity,
            cfg: Algorithm1Config {
                k,
                ..Algorithm1Config::default()
            },
            deadline: None,
        }
    }

    /// The underlying wire-format request.
    pub fn request(&self) -> &QueryRequest {
        &self.request
    }

    /// The deadline this query carries (measured from submission), if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

/// Builder returned by [`Query::rank`]; finish with
/// [`QueryBuilder::build`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    f: EntryFunction,
    cfg: Algorithm1Config,
    deadline: Option<Duration>,
}

impl QueryBuilder {
    /// Number of sampled rows `r = Θ(k²/ε²)`.
    pub fn samples(mut self, r: usize) -> Self {
        self.cfg.r = r;
        self
    }

    /// The entrywise function `f` applied to the aggregated entries.
    pub fn function(mut self, f: EntryFunction) -> Self {
        self.f = f;
        self
    }

    /// The row sampler driving line 4 of Algorithm 1.
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.cfg.sampler = sampler;
        self
    }

    /// Boosting repetitions (keep the best `‖BP‖²_F`); `1` = no boosting.
    pub fn boosted(mut self, repetitions: usize) -> Self {
        self.cfg.boost = repetitions;
        self
    }

    /// Root seed for all protocol randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// A deadline for the query, measured from the moment of submission:
    /// if it expires before an executor starts the query, the ticket
    /// resolves to `ServiceError::Deadline` without running anything. The
    /// ticket's own `deadline` method can tighten (never relax) this.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(match self.deadline {
            Some(cur) => cur.min(after),
            None => after,
        });
        self
    }

    /// Validates the combination and returns the immutable [`Query`].
    ///
    /// Checks everything that does not depend on the addressed dataset:
    /// `k ≥ 1`, `r ≥ 1`, `boost ≥ 1`, and that a Z-sampled query's `f`
    /// actually has a property-P `z = f²`. The remaining check (`k ≤ d`)
    /// runs at submission against the dataset's shape.
    pub fn build(self) -> Result<Query, QueryError> {
        if self.cfg.k == 0 {
            return Err(QueryError::ZeroRank);
        }
        if self.cfg.r == 0 {
            return Err(QueryError::ZeroSamples);
        }
        if self.cfg.boost == 0 {
            return Err(QueryError::ZeroBoost);
        }
        if matches!(self.cfg.sampler, SamplerKind::Z(_)) && self.f.z_fn().is_none() {
            return Err(QueryError::UnsupportedFunction { f: self.f.name() });
        }
        Ok(Query {
            request: QueryRequest {
                f: self.f,
                cfg: self.cfg,
            },
            deadline: self.deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra_sampler::ZSamplerParams;

    #[test]
    fn builder_validates_at_construction() {
        assert_eq!(Query::rank(0).build().unwrap_err(), QueryError::ZeroRank);
        assert_eq!(
            Query::rank(2).samples(0).build().unwrap_err(),
            QueryError::ZeroSamples
        );
        assert_eq!(
            Query::rank(2).boosted(0).build().unwrap_err(),
            QueryError::ZeroBoost
        );
        assert_eq!(
            Query::rank(2)
                .function(EntryFunction::Max)
                .sampler(SamplerKind::Z(ZSamplerParams::default()))
                .build()
                .unwrap_err(),
            QueryError::UnsupportedFunction { f: "max" }
        );
        // Max is fine under a sampler that needs no z.
        assert!(Query::rank(2)
            .function(EntryFunction::Max)
            .sampler(SamplerKind::Uniform)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_sets_every_knob() {
        let q = Query::rank(3)
            .samples(40)
            .function(EntryFunction::Huber { k: 1.5 })
            .sampler(SamplerKind::Uniform)
            .boosted(2)
            .seed(99)
            .deadline(Duration::from_secs(5))
            .build()
            .unwrap();
        assert_eq!(q.request().cfg.k, 3);
        assert_eq!(q.request().cfg.r, 40);
        assert!(matches!(
            q.request().f,
            EntryFunction::Huber { k } if k == 1.5
        ));
        assert!(matches!(q.request().cfg.sampler, SamplerKind::Uniform));
        assert_eq!(q.request().cfg.boost, 2);
        assert_eq!(q.request().cfg.seed, 99);
        assert_eq!(q.deadline(), Some(Duration::from_secs(5)));
        // Repeated deadlines tighten, never relax.
        let q = Query::rank(1)
            .deadline(Duration::from_secs(5))
            .deadline(Duration::from_secs(9))
            .build()
            .unwrap();
        assert_eq!(q.deadline(), Some(Duration::from_secs(5)));
    }
}
