//! Combining-tree routing plans for reduction collectives.
//!
//! Every routed reduction in the workspace — sketch aggregation, row
//! fetching — combines per-server blocks with a **non-associative**
//! floating-point merge, so the association order is part of the
//! determinism contract. This module fixes one canonical order — the
//! binary-halving schedule derived solely from the server count `s` —
//! and lets the [`Topology`] choose only the *routing*: which server
//! physically forwards its partial block to which peer, in which round.
//! Star and every tree fanout therefore produce **bit-identical**
//! results by construction; they differ only in who pays for which hop
//! and in how many rounds the reduction takes.
//!
//! ## The canonical merge schedule
//!
//! With `B = ⌈log₂ s⌉` binary rounds, round `b ∈ 1..=B` merges block
//! `i + 2^(b-1)` into block `i` for every `i` divisible by `2^b`
//! (ascending `i`). After round `b`, block `i` holds the fold of the
//! aligned index range `[i, i + 2^b) ∩ [0, s)`; after round `B`, block 0
//! holds the full reduction.
//!
//! ## Routing
//!
//! A topology groups consecutive binary rounds into routing rounds of
//! `m` levels each (`m = log₂ fanout` for a tree; `m = B` for the star,
//! which is thus the degenerate single-round case). In routing round
//! `h` (1-based) covering binary levels `(lo, hi]`:
//!
//! * **senders** are the servers `q > 0` divisible by `2^lo` but not by
//!   `2^hi` — they forward their accumulated block to the receiver
//!   `⌊q / 2^hi⌋ · 2^hi` and are done;
//! * **receivers** replay the covered merge steps on the blocks they
//!   hold, in canonical order.
//!
//! Every server `≠ 0` sends exactly once, so the *total* message count
//! is `s − 1` under every topology; what the tree changes is the
//! coordinator's **inbox** — `s − 1` root messages for the star versus
//! one per routing round (`⌈B/m⌉`) for a tree — and the round count,
//! which the α–β [`crate::CostModel`] prices as latency.

/// How reduction collectives route partial results to the coordinator.
///
/// Selection is config-passed (`ServiceConfig` in `dlra-runtime`) —
/// never read from the ambient environment inside this crate, keeping the
/// comm layer deterministic in its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Every server sends its block straight to the coordinator in one
    /// round (the paper's model; the degenerate `fanout = s` tree).
    #[default]
    Star,
    /// A combining tree: each receiver absorbs up to `fanout` children
    /// per round, so the coordinator's inbox shrinks from `s − 1`
    /// messages to `⌈log₂ s / log₂ fanout⌉`. `fanout` is clamped to at
    /// least 2; non-powers-of-two round down to the covered level count.
    Tree {
        /// Children combined per receiver per routing round.
        fanout: usize,
    },
}

impl Topology {
    /// Binary merge levels covered per routing round at server count `s`.
    fn levels_per_round(&self, binary_rounds: u32) -> u32 {
        match *self {
            Topology::Star => binary_rounds.max(1),
            Topology::Tree { fanout } => {
                let f = fanout.max(2) as u32;
                (u32::BITS - 1 - f.leading_zeros()).max(1)
            }
        }
    }
}

/// One physical message: `sender` forwards its accumulated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The forwarding server (never the coordinator).
    pub sender: usize,
    /// The server that absorbs the block (0 for the root hop).
    pub receiver: usize,
}

/// One canonical-schedule merge: block `src` folds into block `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStep {
    /// Surviving block index.
    pub dst: usize,
    /// Absorbed block index (dead after this step).
    pub src: usize,
}

/// One routing round: the hops that carry blocks, then the merge steps
/// the receivers replay, both in canonical (ascending-index) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// Messages of this round, ascending by sender.
    pub hops: Vec<Hop>,
    /// Covered merge steps in schedule order (level-major, ascending
    /// destination). Merges touching disjoint block pairs commute, so a
    /// receiver may replay just the subset it holds.
    pub merges: Vec<MergeStep>,
}

/// The full deterministic routing plan for one reduction at a fixed
/// `(topology, s)` — a pure function of those two inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyPlan {
    topology: Topology,
    servers: usize,
    rounds: Vec<RoundPlan>,
}

impl TopologyPlan {
    /// Builds the plan for `s` servers under `topology`. Always at least
    /// one (possibly empty) round, so every reduction collective costs
    /// one ledger round even at `s = 1`, like the star it replaces.
    pub fn new(topology: Topology, s: usize) -> Self {
        let mut b = 0u32;
        while (1usize << b) < s {
            b += 1;
        }
        let m = topology.levels_per_round(b);
        let round_count = if b == 0 { 1 } else { b.div_ceil(m) };
        let mut rounds = Vec::with_capacity(round_count as usize);
        for h in 0..round_count {
            let lo = h * m;
            let hi = ((h + 1) * m).min(b);
            let mut merges = Vec::new();
            for level in lo + 1..=hi {
                let span = 1usize << level;
                let half = 1usize << (level - 1);
                let mut i = 0usize;
                while i + half < s {
                    merges.push(MergeStep {
                        dst: i,
                        src: i + half,
                    });
                    i += span;
                }
            }
            let step = 1usize << lo;
            let align = 1usize << hi;
            let mut hops = Vec::new();
            let mut q = step;
            while q < s {
                if !q.is_multiple_of(align) {
                    hops.push(Hop {
                        sender: q,
                        receiver: (q / align) * align,
                    });
                }
                q += step;
            }
            rounds.push(RoundPlan { hops, merges });
        }
        TopologyPlan {
            topology,
            servers: s,
            rounds,
        }
    }

    /// The topology this plan routes.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Server count `s` the plan was derived from.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The routing rounds in execution order.
    pub fn rounds(&self) -> &[RoundPlan] {
        &self.rounds
    }

    /// Number of routing rounds (ledger rounds charged per reduction).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total messages across all rounds — `s − 1` under every topology
    /// (each non-coordinator server forwards exactly once).
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.hops.len()).sum()
    }

    /// Messages landing in the coordinator's inbox — the fan-in the tree
    /// exists to shrink: `s − 1` for the star, one per routing round
    /// that reaches the root for a tree.
    pub fn root_inbox_messages(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| &r.hops)
            .filter(|h| h.receiver == 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `values` through a plan's rounds exactly as an implementation
    /// would: charge nothing, just apply the merge schedule.
    fn reduce(plan: &TopologyPlan, values: &[f64]) -> f64 {
        let mut blocks: Vec<Option<f64>> = values.iter().copied().map(Some).collect();
        for round in plan.rounds() {
            for m in &round.merges {
                let src = blocks[m.src].take().expect("src block live");
                let dst = blocks[m.dst].as_mut().expect("dst block live");
                *dst += src;
            }
        }
        blocks[0].take().expect("root block")
    }

    #[test]
    fn star_is_one_round_all_to_root() {
        for s in [1usize, 2, 5, 8, 9, 64] {
            let plan = TopologyPlan::new(Topology::Star, s);
            assert_eq!(plan.num_rounds(), 1, "s = {s}");
            assert_eq!(plan.total_messages(), s - 1, "s = {s}");
            assert_eq!(plan.root_inbox_messages(), s - 1, "s = {s}");
            for hop in &plan.rounds()[0].hops {
                assert_eq!(hop.receiver, 0);
            }
            assert_eq!(plan.rounds()[0].merges.len(), s.saturating_sub(1));
        }
    }

    #[test]
    fn binary_tree_shape_at_s8() {
        let plan = TopologyPlan::new(Topology::Tree { fanout: 2 }, 8);
        assert_eq!(plan.num_rounds(), 3);
        let hops: Vec<Vec<(usize, usize)>> = plan
            .rounds()
            .iter()
            .map(|r| r.hops.iter().map(|h| (h.sender, h.receiver)).collect())
            .collect();
        assert_eq!(hops[0], vec![(1, 0), (3, 2), (5, 4), (7, 6)]);
        assert_eq!(hops[1], vec![(2, 0), (6, 4)]);
        assert_eq!(hops[2], vec![(4, 0)]);
        assert_eq!(plan.root_inbox_messages(), 3); // ⌈log₂ 8⌉
        assert_eq!(plan.total_messages(), 7);
    }

    #[test]
    fn non_power_of_two_covers_every_server_once() {
        for s in [3usize, 5, 9, 13, 100] {
            for topology in [
                Topology::Star,
                Topology::Tree { fanout: 2 },
                Topology::Tree { fanout: 4 },
            ] {
                let plan = TopologyPlan::new(topology, s);
                let mut sent = vec![0usize; s];
                let mut merged = vec![0usize; s];
                for round in plan.rounds() {
                    for h in &round.hops {
                        assert!(h.sender > 0 && h.sender < s);
                        assert!(h.receiver < h.sender, "{topology:?} s={s}");
                        sent[h.sender] += 1;
                    }
                    for m in &round.merges {
                        assert!(m.dst < m.src, "{topology:?} s={s}");
                        merged[m.src] += 1;
                    }
                }
                assert_eq!(sent[0], 0);
                assert!(sent[1..].iter().all(|&n| n == 1), "{topology:?} s={s}");
                assert_eq!(merged[0], 0);
                assert!(merged[1..].iter().all(|&n| n == 1), "{topology:?} s={s}");
                assert_eq!(plan.total_messages(), s - 1);
            }
        }
    }

    #[test]
    fn tree_root_inbox_is_logarithmic() {
        let plan = TopologyPlan::new(Topology::Tree { fanout: 2 }, 256);
        assert_eq!(plan.root_inbox_messages(), 8); // log₂ 256
        assert_eq!(plan.num_rounds(), 8);
        let star = TopologyPlan::new(Topology::Star, 256);
        assert_eq!(star.root_inbox_messages(), 255);
        assert!(plan.root_inbox_messages() * 4 <= star.root_inbox_messages());
    }

    #[test]
    fn fanout_four_halves_the_rounds() {
        let plan = TopologyPlan::new(Topology::Tree { fanout: 4 }, 16);
        assert_eq!(plan.num_rounds(), 2);
        // Round 1 receivers are multiples of 4; round 2 funnels into 0.
        for h in &plan.rounds()[0].hops {
            assert_eq!(h.receiver % 4, 0);
        }
        for h in &plan.rounds()[1].hops {
            assert_eq!(h.receiver, 0);
        }
        assert_eq!(plan.total_messages(), 15);
    }

    #[test]
    fn every_topology_reduces_in_the_same_association_order() {
        // Values chosen so a left fold and the binary schedule disagree in
        // the last bits — the plans must all pick the *same* order.
        let values: Vec<f64> = (0..9)
            .map(|i| (i as f64 + 0.1).powi(7) * if i % 2 == 0 { 1e-9 } else { 1e9 })
            .collect();
        for s in 1..=values.len() {
            let star = reduce(&TopologyPlan::new(Topology::Star, s), &values[..s]);
            for fanout in [2usize, 3, 4, 8] {
                let tree = reduce(
                    &TopologyPlan::new(Topology::Tree { fanout }, s),
                    &values[..s],
                );
                assert_eq!(
                    star.to_bits(),
                    tree.to_bits(),
                    "association diverged at s = {s}, fanout = {fanout}"
                );
            }
        }
    }

    #[test]
    fn single_server_plan_is_one_empty_round() {
        for topology in [Topology::Star, Topology::Tree { fanout: 2 }] {
            let plan = TopologyPlan::new(topology, 1);
            assert_eq!(plan.num_rounds(), 1);
            assert!(plan.rounds()[0].hops.is_empty());
            assert!(plan.rounds()[0].merges.is_empty());
        }
    }

    #[test]
    fn default_topology_is_star() {
        assert_eq!(Topology::default(), Topology::Star);
    }
}
