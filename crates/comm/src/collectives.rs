//! The [`Collectives`] trait: the substrate-independent surface of the
//! star-topology collectives.
//!
//! Protocol code (`dlra-core::algorithm1`, `dlra-core::adaptive`, the
//! `dlra-sampler` Z-machinery) is written against this trait, so the same
//! call sites run unchanged on the sequential in-process simulator
//! ([`Cluster`]) and on the message-passing coordinator of `dlra-net`,
//! whose two links are the threaded (`ThreadedCluster`, in-process pipes)
//! and socket (`SocketCluster`, TCP) substrates. Implementations must make
//! ledger totals substrate-independent: per collective, the same set of
//! messages is charged with the same word counts, and merges happen in
//! server-index order so floating-point results are bit-identical.
//!
//! The closure and payload bounds are what the message-passing substrate
//! needs: it executes per-server closures on persistent server threads,
//! so they are `Fn + Send + Sync + 'static` and capture their context by
//! value, and it serializes every payload onto its link, so payload types
//! are [`Wire`] (word-sized *and* byte-codable). The sequential
//! [`Cluster`] implements the trait with the same bounds; it has no other
//! collective surface.
//!
//! [`Cluster`]: crate::Cluster

use crate::ledger::{Direction, Ledger, LedgerSnapshot};
use crate::topology::{Topology, TopologyPlan};
use crate::wire::Wire;

/// Star-topology collective operations over per-server local state `L`.
///
/// Server `0` is the coordinator (the paper's "server 1"); traffic between
/// the coordinator and its own local state is free. All data movement
/// between servers must go through these methods so the [`Ledger`] stays a
/// faithful communication transcript.
pub trait Collectives<L> {
    /// Number of servers `s` (including the coordinator).
    fn num_servers(&self) -> usize;

    /// The shared communication ledger.
    fn ledger(&self) -> &Ledger;

    /// Snapshot of the current communication totals.
    fn comm(&self) -> LedgerSnapshot {
        self.ledger().snapshot()
    }

    /// How this substrate routes reduction collectives
    /// ([`Self::aggregate_topo`] / [`Self::query_aggregate`]). The routing
    /// never changes results — only which edges carry blocks and how many
    /// rounds the reduction takes.
    fn topology(&self) -> Topology {
        Topology::Star
    }

    /// Runs `f` against one server's local state, read-only. For
    /// *evaluation and orchestration only* (e.g. materializing the global
    /// matrix to measure true errors, or reading a dimension the protocol
    /// already knows); never a data channel between servers.
    fn with_local<R>(&self, t: usize, f: impl FnOnce(&L) -> R) -> R;

    /// Runs `f` against one server's local state, mutably, for
    /// *zero-communication local operations* (each server mutating its own
    /// scratch, e.g. clearing injected coordinates after a sampling pass).
    /// Must not be used to move data between servers — that would bypass
    /// the ledger.
    fn with_local_mut<R>(&mut self, t: usize, f: impl FnOnce(&mut L) -> R) -> R;

    /// Coordinator → all servers: sends `msg` to each of the `s − 1`
    /// non-coordinator servers, charging each message, then lets every
    /// server (including the coordinator's own state) observe it. Returns
    /// after every server has processed the message.
    fn broadcast<T, F>(&mut self, msg: &T, label: &'static str, on_receive: F)
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(usize, &mut L, &T) + Send + Sync + 'static;

    /// All servers → coordinator: each server computes a reply from its
    /// local state; replies from servers `1..s` are charged upstream.
    /// Returns the replies indexed by server.
    fn gather<T, F>(&mut self, label: &'static str, compute: F) -> Vec<T>
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static;

    /// Gather + fold: each server's reply is merged into an accumulator at
    /// the coordinator, in server-index order (so results are bit-identical
    /// across substrates). `merge` runs coordinator-side and may capture
    /// freely.
    fn aggregate<T, F, M>(&mut self, label: &'static str, compute: F, mut merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: FnMut(&mut T, T),
    {
        let replies = self.gather(label, compute);
        let mut it = replies.into_iter();
        // dlra-allow(panic-policy): clusters are constructed with >= 1
        // server (enforced at build time), so gather always yields a reply.
        let mut acc = it.next().expect("at least one server");
        for r in it {
            merge(&mut acc, r);
        }
        acc
    }

    /// Topology-routed reduction: every server computes a block, the blocks
    /// combine up the configured [`Topology`] (star or combining tree), and
    /// the fully merged block lands at the coordinator.
    ///
    /// The association order is the canonical binary-halving schedule of
    /// [`TopologyPlan`], fixed by `s` alone, so every topology — and every
    /// substrate — produces **bit-identical** results even for
    /// non-associative floating-point merges. `merge` must be pure
    /// (`Fn`, shareable across worker threads): it may run on any server
    /// along the routing path, not just the coordinator. Each hop is
    /// charged on the edge that carried it via [`Ledger::charge_hop`].
    ///
    /// The default implementation walks the plan sequentially and is the
    /// reference semantics; message-passing substrates must match its
    /// ledger totals and per-edge transcript exactly.
    fn aggregate_topo<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let s = self.num_servers();
        let plan = TopologyPlan::new(self.topology(), s);
        let mut blocks: Vec<Option<T>> = Vec::with_capacity(s);
        for t in 0..s {
            let block = self.with_local_mut(t, |local| compute(t, local));
            blocks.push(Some(block));
        }
        reduce_blocks(self.ledger(), &plan, blocks, &merge, label, false)
    }

    /// [`Self::query_all`] fused with a topology-routed reduction: the
    /// request is broadcast down the star (every server must see it), each
    /// server computes a reply block, and the blocks combine up the
    /// configured [`Topology`] instead of all landing in the coordinator's
    /// inbox. Under [`Topology::Star`] this charges exactly what
    /// [`Self::query_all`] followed by a coordinator-side fold would — one
    /// round, same words — so it is a drop-in for "query everyone and sum".
    fn query_aggregate<Q, T, F, M>(
        &mut self,
        request: &Q,
        label: &'static str,
        compute: F,
        merge: M,
    ) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let s = self.num_servers();
        let plan = TopologyPlan::new(self.topology(), s);
        self.ledger().next_round();
        let request_words = request.words();
        for t in 1..s {
            self.ledger()
                .charge(t, Direction::Downstream, request_words, label);
        }
        let mut blocks: Vec<Option<T>> = Vec::with_capacity(s);
        for t in 0..s {
            let block = self.with_local_mut(t, |local| compute(t, local, request));
            blocks.push(Some(block));
        }
        reduce_blocks(self.ledger(), &plan, blocks, &merge, label, true)
    }

    /// Coordinator ↔ one server round trip: sends `request` down, gets a
    /// reply up. Used for Algorithm 3 line 6/11 ("server 1 asks for aⱼ").
    fn query_server<Q, T, F>(
        &mut self,
        t: usize,
        request: &Q,
        label: &'static str,
        compute: F,
    ) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: FnOnce(&mut L, &Q) -> T + Send + 'static;

    /// Coordinator → every server down-query followed by an up-reply in the
    /// same round (e.g. "send me your part of rows i₁..iᵣ").
    fn query_all<Q, T, F>(&mut self, request: &Q, label: &'static str, compute: F) -> Vec<T>
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static;
}

/// Sequential reference reduction: walk the plan round by round, charging
/// every hop with the sender's block size *before* the round's merges (the
/// size the block has when it leaves the sender), then replaying the
/// canonical merge steps. Message-passing substrates must reproduce this
/// transcript exactly.
fn reduce_blocks<T: Wire>(
    ledger: &Ledger,
    plan: &TopologyPlan,
    mut blocks: Vec<Option<T>>,
    merge: &impl Fn(&mut T, T),
    label: &'static str,
    first_round_started: bool,
) -> T {
    for (h, round) in plan.rounds().iter().enumerate() {
        if h > 0 || !first_round_started {
            ledger.next_round();
        }
        for hop in &round.hops {
            let words = blocks[hop.sender].as_ref().map_or(0, Wire::words);
            ledger.charge_hop(hop.sender, hop.receiver, Direction::Upstream, words, label);
        }
        for step in &round.merges {
            let src = blocks[step.src].take();
            if let (Some(dst), Some(src)) = (blocks[step.dst].as_mut(), src) {
                merge(dst, src);
            }
        }
    }
    let root = blocks.into_iter().next().flatten();
    // dlra-allow(panic-policy): clusters are constructed with >= 1 server
    // (enforced at build time), so the root block always exists.
    root.expect("at least one server")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    /// Exercises every trait method through a generic function, proving the
    /// bounds are satisfiable by realistic protocol code.
    fn drive<C: Collectives<Vec<f64>>>(c: &mut C) -> (Vec<f64>, f64, Vec<f64>, f64) {
        c.broadcast(&2.0f64, "b", |_t, local, &m| {
            for x in local.iter_mut() {
                *x += m;
            }
        });
        let gathered = c.gather("g", |t, local| local[0] + t as f64);
        let agg = c.aggregate(
            "a",
            |_t, local| local.iter().sum::<f64>(),
            |acc, r| *acc += r,
        );
        let queried = c.query_all(&1usize, "qa", |_t, local, &j| local[j]);
        let point = c.query_server(1, &0usize, "qs", |local, &j| local[j]);
        let routed = c.aggregate_topo(
            "at",
            |_t, local| local.iter().sum::<f64>(),
            |acc, r| *acc += r,
        );
        assert_eq!(routed, agg, "routed reduction must match the star fold");
        let qrouted = c.query_aggregate(
            &1usize,
            "qat",
            |_t, local, &j| local[j],
            |acc, r| {
                *acc += r;
            },
        );
        assert_eq!(qrouted, queried.iter().sum::<f64>());
        (gathered, agg, queried, point)
    }

    #[test]
    fn cluster_implements_collectives() {
        let mut c = Cluster::new(vec![vec![0.0f64, 1.0], vec![10.0, 11.0]]);
        let (gathered, agg, queried, point) = drive(&mut c);
        assert_eq!(gathered, vec![2.0, 13.0]);
        assert_eq!(agg, 2.0 + 3.0 + 12.0 + 13.0);
        assert_eq!(queried, vec![3.0, 13.0]);
        assert_eq!(point, 12.0);
        assert!(Collectives::comm(&c).total_words() > 0);
        assert_eq!(Collectives::num_servers(&c), 2);
        Collectives::with_local_mut(&mut c, 0, |l| l[0] = 99.0);
        assert_eq!(Collectives::with_local(&c, 0, |l| l[0]), 99.0);
    }

    /// Local state for topology parity tests: each server holds one value.
    fn locals(s: usize) -> Vec<Vec<f64>> {
        (0..s)
            .map(|t| vec![(t as f64 + 0.3).powi(5) * if t % 2 == 0 { 1e-8 } else { 1e8 }])
            .collect()
    }

    #[test]
    fn tree_and_star_reductions_are_bit_identical() {
        for s in [1usize, 2, 4, 8, 9, 13] {
            let mut star = Cluster::new(locals(s));
            let mut tree = Cluster::with_topology(locals(s), Topology::Tree { fanout: 2 });
            let a = star.aggregate_topo("t", |_t, l| l[0], |acc, r| *acc += r);
            let b = tree.aggregate_topo("t", |_t, l| l[0], |acc, r| *acc += r);
            assert_eq!(a.to_bits(), b.to_bits(), "s = {s}");
            let qa = star.query_aggregate(&0usize, "q", |_t, l, &j| l[j], |acc, r| *acc += r);
            let qb = tree.query_aggregate(&0usize, "q", |_t, l, &j| l[j], |acc, r| *acc += r);
            assert_eq!(qa.to_bits(), qb.to_bits(), "s = {s}");
        }
    }

    #[test]
    fn tree_words_match_star_words_with_smaller_root_inbox() {
        for s in [2usize, 4, 8, 9, 16] {
            let mut star = Cluster::new(locals(s));
            let mut tree = Cluster::with_topology(locals(s), Topology::Tree { fanout: 2 });
            star.aggregate_topo("t", |_t, l| l[0], |acc, r| *acc += r);
            tree.aggregate_topo("t", |_t, l| l[0], |acc, r| *acc += r);
            let sc = Collectives::comm(&star);
            let tc = Collectives::comm(&tree);
            // Constant-size blocks: the tree moves exactly the star's words
            // (s − 1 messages either way), just over different edges.
            assert_eq!(tc.total_words(), sc.total_words(), "s = {s}");
            assert_eq!(tc.messages, sc.messages, "s = {s}");
            assert!(tc.root_inbox_messages <= sc.root_inbox_messages, "s = {s}");
            if s > 2 {
                assert!(tc.root_inbox_messages < sc.root_inbox_messages, "s = {s}");
            }
        }
    }

    #[test]
    fn star_routed_reduction_charges_like_legacy_aggregate() {
        let s = 5;
        let mut legacy = Cluster::new(locals(s));
        let mut routed = Cluster::new(locals(s));
        legacy.ledger().set_record_events(true);
        routed.ledger().set_record_events(true);
        legacy.aggregate("t", |_t, l| l[0], |acc, r| *acc += r);
        routed.aggregate_topo("t", |_t, l| l[0], |acc, r| *acc += r);
        assert_eq!(Collectives::comm(&legacy), Collectives::comm(&routed));
        let a = legacy.ledger().events();
        let b = routed.ledger().events();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.server, x.receiver, x.payload_words, x.round),
                (y.server, y.receiver, y.payload_words, y.round)
            );
        }
    }
}
