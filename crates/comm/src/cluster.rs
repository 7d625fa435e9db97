//! The star-topology cluster: per-server local state plus accounted
//! collectives. All data movement between servers goes through these
//! methods, so the ledger totals are a faithful communication transcript.

use crate::ledger::{Direction, Ledger, LedgerSnapshot};
use crate::payload::Payload;
use crate::topology::Topology;

/// A simulated cluster of `s` servers in the paper's generalized partition
/// model. `L` is the per-server local state (typically a local matrix plus
/// scratch). Server indices are `0..s`; server `0` doubles as the
/// coordinator (the paper's "server 1" / Central Processor), and traffic
/// between the coordinator and its own local state is free, exactly as in
/// the paper's model.
///
/// ```
/// use dlra_comm::Cluster;
/// let mut c = Cluster::new(vec![vec![1.0f64, 2.0], vec![3.0, 4.0]]);
/// let sums = c.gather("demo", |_t, local| local.iter().sum::<f64>());
/// assert_eq!(sums, vec![3.0, 7.0]);
/// // One upstream message of one word (+1 frame) was charged.
/// assert_eq!(c.comm().upstream_words, 2);
/// ```
pub struct Cluster<L> {
    locals: Vec<L>,
    ledger: Ledger,
    topology: Topology,
}

impl<L> Cluster<L> {
    /// Builds a cluster from per-server local states (one entry per server).
    /// Reductions route over the default [`Topology::Star`].
    pub fn new(locals: Vec<L>) -> Self {
        Cluster::with_topology(locals, Topology::Star)
    }

    /// Builds a cluster whose reduction collectives route over `topology`.
    /// The topology never changes results — the merge order is fixed by the
    /// server count alone — only which edges carry blocks.
    pub fn with_topology(locals: Vec<L>, topology: Topology) -> Self {
        assert!(!locals.is_empty(), "cluster needs at least one server");
        Cluster {
            locals,
            ledger: Ledger::new(),
            topology,
        }
    }

    /// Number of servers `s` (including the coordinator).
    pub fn num_servers(&self) -> usize {
        self.locals.len()
    }

    /// The routing topology for reduction collectives.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The shared communication ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Snapshot of the current communication totals.
    pub fn comm(&self) -> LedgerSnapshot {
        self.ledger.snapshot()
    }

    /// Read-only access to a server's local state (for *evaluation only* —
    /// e.g. materializing the global matrix to measure true errors; never
    /// used inside protocols).
    pub fn local(&self, t: usize) -> &L {
        &self.locals[t]
    }

    /// All local states (evaluation only).
    pub fn locals(&self) -> &[L] {
        &self.locals
    }

    /// Mutable access to one server's local state for *zero-communication
    /// local operations* (each server mutating its own scratch, e.g.
    /// clearing injected coordinates after a sampling pass). Must not be
    /// used to move data between servers — that would bypass the ledger.
    pub fn local_mut_for_cleanup(&mut self, t: usize) -> &mut L {
        &mut self.locals[t]
    }

    /// Coordinator → all servers: sends `msg` to each of the `s − 1`
    /// non-coordinator servers, charging each message, then lets every
    /// server (including the coordinator's own state) observe it.
    pub fn broadcast<T: Payload + Clone>(
        &mut self,
        msg: &T,
        label: &'static str,
        mut on_receive: impl FnMut(usize, &mut L, &T),
    ) {
        self.ledger.next_round();
        let w = msg.words();
        for t in 1..self.locals.len() {
            self.ledger.charge(t, Direction::Downstream, w, label);
        }
        for (t, local) in self.locals.iter_mut().enumerate() {
            on_receive(t, local, msg);
        }
    }

    /// All servers → coordinator: each server computes a reply from its
    /// local state; replies from servers `1..s` are charged upstream.
    /// Returns the replies indexed by server.
    pub fn gather<T: Payload>(
        &mut self,
        label: &'static str,
        mut compute: impl FnMut(usize, &mut L) -> T,
    ) -> Vec<T> {
        self.ledger.next_round();
        let mut out = Vec::with_capacity(self.locals.len());
        for (t, local) in self.locals.iter_mut().enumerate() {
            let reply = compute(t, local);
            if t != 0 {
                self.ledger
                    .charge(t, Direction::Upstream, reply.words(), label);
            }
            out.push(reply);
        }
        out
    }

    /// Gather + fold: each server's reply is merged into an accumulator at
    /// the coordinator. This is how linear sketches aggregate: the wire cost
    /// is per-server sketch size, and the coordinator keeps only the sum.
    pub fn aggregate<T: Payload>(
        &mut self,
        label: &'static str,
        compute: impl FnMut(usize, &mut L) -> T,
        mut merge: impl FnMut(&mut T, T),
    ) -> T {
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

    /// Coordinator ↔ one server round trip: sends `request` down, gets a
    /// reply up. Used for Algorithm 3 line 6/11 ("server 1 asks for aⱼ").
    pub fn query_server<Q: Payload, T: Payload>(
        &mut self,
        t: usize,
        request: &Q,
        label: &'static str,
        compute: impl FnOnce(&mut L, &Q) -> T,
    ) -> T {
        if t != 0 {
            self.ledger
                .charge(t, Direction::Downstream, request.words(), label);
        }
        let reply = compute(&mut self.locals[t], request);
        if t != 0 {
            self.ledger
                .charge(t, Direction::Upstream, reply.words(), label);
        }
        reply
    }

    /// Coordinator → every server down-query followed by an up-reply in the
    /// same round (e.g. "send me your part of rows i₁..iᵣ").
    pub fn query_all<Q: Payload + Clone, T: Payload>(
        &mut self,
        request: &Q,
        label: &'static str,
        mut compute: impl FnMut(usize, &mut L, &Q) -> T,
    ) -> Vec<T> {
        self.ledger.next_round();
        let qw = request.words();
        let mut out = Vec::with_capacity(self.locals.len());
        for (t, local) in self.locals.iter_mut().enumerate() {
            if t != 0 {
                self.ledger.charge(t, Direction::Downstream, qw, label);
            }
            let reply = compute(t, local, request);
            if t != 0 {
                self.ledger
                    .charge(t, Direction::Upstream, reply.words(), label);
            }
            out.push(reply);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::FRAME_WORDS;

    fn cluster_of_vecs(s: usize, len: usize) -> Cluster<Vec<f64>> {
        Cluster::new((0..s).map(|t| vec![t as f64; len]).collect())
    }

    #[test]
    fn broadcast_reaches_all_and_charges() {
        let mut c = cluster_of_vecs(4, 2);
        let mut seen = vec![];
        c.broadcast(&7.5f64, "b", |t, _local, msg| seen.push((t, *msg)));
        assert_eq!(seen, vec![(0, 7.5), (1, 7.5), (2, 7.5), (3, 7.5)]);
        // 3 downstream messages of 1 word + frame each.
        assert_eq!(c.comm().downstream_words, 3 * (1 + FRAME_WORDS));
        assert_eq!(c.comm().upstream_words, 0);
        assert_eq!(c.comm().rounds, 1);
    }

    #[test]
    fn gather_collects_in_server_order() {
        let mut c = cluster_of_vecs(3, 1);
        let replies = c.gather("g", |t, local| local[0] + t as f64);
        assert_eq!(replies, vec![0.0, 2.0, 4.0]);
        // Coordinator's own reply is free: 2 upstream messages.
        assert_eq!(c.comm().upstream_words, 2 * (1 + FRAME_WORDS));
        assert_eq!(c.comm().messages, 2);
    }

    #[test]
    fn aggregate_folds() {
        let mut c = cluster_of_vecs(5, 3);
        let sum = c.aggregate(
            "agg",
            |_t, local| local.clone(),
            |acc, r| {
                for (a, b) in acc.iter_mut().zip(r) {
                    *a += b;
                }
            },
        );
        assert_eq!(sum, vec![10.0, 10.0, 10.0]);
        // 4 upstream messages of 3 words + frame.
        assert_eq!(c.comm().upstream_words, 4 * (3 + FRAME_WORDS));
    }

    #[test]
    fn query_server_round_trip() {
        let mut c = cluster_of_vecs(3, 4);
        let v = c.query_server(2, &1usize, "q", |local, &idx| local[idx]);
        assert_eq!(v, 2.0);
        assert_eq!(c.comm().downstream_words, 1 + FRAME_WORDS);
        assert_eq!(c.comm().upstream_words, 1 + FRAME_WORDS);
        // Querying the coordinator itself is free.
        let v0 = c.query_server(0, &0usize, "q0", |local, &idx| local[idx]);
        assert_eq!(v0, 0.0);
        assert_eq!(c.comm().messages, 2);
    }

    #[test]
    fn query_all_charges_both_directions() {
        let mut c = cluster_of_vecs(4, 2);
        let replies = c.query_all(&0usize, "qa", |t, local, &idx| (t as f64) * local[idx]);
        assert_eq!(replies.len(), 4);
        assert_eq!(c.comm().downstream_words, 3 * (1 + FRAME_WORDS));
        assert_eq!(c.comm().upstream_words, 3 * (1 + FRAME_WORDS));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = Cluster::<()>::new(vec![]);
    }
}
