//! The communication ledger: every message that crosses a server boundary is
//! charged here, and tests assert on the totals (e.g. Theorem 1's
//! `O(s·k²·d/ε² + C)` bound and the experiments' communication-ratio knobs).
//!
//! The ledger is shared by every server of a cluster, so on the threaded
//! substrate (`dlra-runtime`) it is charged concurrently from worker
//! threads. The hot counters are lock-free atomics; only the optional
//! per-event transcript takes a mutex, and only when recording is enabled.
//! Sequential word-accounting semantics are unchanged: a charge adds
//! `payload + FRAME_WORDS` to exactly one direction and bumps the message
//! count, and `snapshot` taken at any quiescent point (no collective in
//! flight) is exact.

use dlra_util::sync::MutexExt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Message direction relative to the coordinator (server 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server `t` → coordinator.
    Upstream,
    /// Coordinator → server `t` (a broadcast is `s − 1` such messages).
    Downstream,
}

/// One accounted message.
#[derive(Debug, Clone)]
pub struct CommEvent {
    /// Which non-coordinator server was involved (1-based; coordinator is 0).
    pub server: usize,
    /// The server the message landed at (0 for star-upstream and root hops;
    /// an interior combining-tree node for non-root hops).
    pub receiver: usize,
    /// Direction of travel.
    pub direction: Direction,
    /// Payload size in words (excluding the frame word).
    pub payload_words: u64,
    /// Human-readable label of the protocol step (e.g. `"Alg1.gather_rows"`).
    pub label: &'static str,
    /// Round index at the time of the message.
    pub round: u64,
}

/// Fixed per-message framing overhead in words (tag + length).
pub const FRAME_WORDS: u64 = 1;

#[derive(Debug, Default)]
struct LedgerInner {
    upstream_words: AtomicU64,
    downstream_words: AtomicU64,
    messages: AtomicU64,
    rounds: AtomicU64,
    root_inbox_words: AtomicU64,
    root_inbox_messages: AtomicU64,
    record_events: AtomicBool,
    // dlra-lock-order: ledger.events
    events: Mutex<Vec<CommEvent>>,
}

/// A thread-safe communication ledger shared by all collectives of a
/// [`crate::Cluster`] or a threaded substrate. Cloning shares the
/// underlying counters; charges from any thread are totalled without locks.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    inner: Arc<LedgerInner>,
}

/// A point-in-time copy of the ledger totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LedgerSnapshot {
    /// Total words sent servers → coordinator (incl. frames).
    pub upstream_words: u64,
    /// Total words sent coordinator → servers (incl. frames).
    pub downstream_words: u64,
    /// Number of messages.
    pub messages: u64,
    /// Number of communication rounds.
    pub rounds: u64,
    /// Words (incl. frames) that landed in the coordinator's inbox — the
    /// fan-in a combining tree exists to shrink. A subset of
    /// `upstream_words`: interior tree hops count upstream but not here.
    pub root_inbox_words: u64,
    /// Messages that landed in the coordinator's inbox (`s − 1` per star
    /// reduction, one per tree round reaching the root).
    pub root_inbox_messages: u64,
}

impl LedgerSnapshot {
    /// Total words in both directions.
    pub fn total_words(&self) -> u64 {
        self.upstream_words + self.downstream_words
    }

    /// Difference of two snapshots (for measuring one protocol phase).
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            upstream_words: self.upstream_words - earlier.upstream_words,
            downstream_words: self.downstream_words - earlier.downstream_words,
            messages: self.messages - earlier.messages,
            rounds: self.rounds - earlier.rounds,
            root_inbox_words: self.root_inbox_words - earlier.root_inbox_words,
            root_inbox_messages: self.root_inbox_messages - earlier.root_inbox_messages,
        }
    }
}

/// Component-wise sum: recombines phase deltas (e.g. a shared prepare
/// phase plus a per-query execute phase) into the total a single
/// uninterrupted run would have charged — exact, because every field is a
/// plain count.
impl std::ops::Add for LedgerSnapshot {
    type Output = LedgerSnapshot;

    fn add(self, rhs: LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            upstream_words: self.upstream_words + rhs.upstream_words,
            downstream_words: self.downstream_words + rhs.downstream_words,
            messages: self.messages + rhs.messages,
            rounds: self.rounds + rhs.rounds,
            root_inbox_words: self.root_inbox_words + rhs.root_inbox_words,
            root_inbox_messages: self.root_inbox_messages + rhs.root_inbox_messages,
        }
    }
}

/// In-place component-wise sum — the accumulation form of [`Add`](std::ops::Add), used by
/// metrics registries folding per-query deltas into running totals.
impl std::ops::AddAssign for LedgerSnapshot {
    fn add_assign(&mut self, rhs: LedgerSnapshot) {
        self.upstream_words += rhs.upstream_words;
        self.downstream_words += rhs.downstream_words;
        self.messages += rhs.messages;
        self.rounds += rhs.rounds;
        self.root_inbox_words += rhs.root_inbox_words;
        self.root_inbox_messages += rhs.root_inbox_messages;
    }
}

/// Operator-friendly one-liner: total words with the up/down split,
/// message and round counts.
impl std::fmt::Display for LedgerSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} words ({} up / {} down), {} msgs, {} rounds",
            self.total_words(),
            self.upstream_words,
            self.downstream_words,
            self.messages,
            self.rounds
        )
    }
}

impl Ledger {
    /// A fresh ledger. Event recording (the full transcript) is off by
    /// default; totals are always maintained.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Enables or disables per-event transcript recording.
    pub fn set_record_events(&self, on: bool) {
        self.inner.record_events.store(on, Ordering::Release);
    }

    /// Charges one message on a star edge and returns its total cost in
    /// words. Upstream messages implicitly land at the coordinator
    /// (receiver 0); downstream messages land at `server`.
    pub fn charge(
        &self,
        server: usize,
        direction: Direction,
        payload_words: u64,
        label: &'static str,
    ) -> u64 {
        let receiver = match direction {
            Direction::Upstream => 0,
            Direction::Downstream => server,
        };
        self.charge_hop(server, receiver, direction, payload_words, label)
    }

    /// Charges one message on an explicit `sender → receiver` edge — the
    /// per-hop form used by combining-tree collectives, so words are
    /// attributed to the edge that actually carried them. Upstream hops
    /// whose receiver is the coordinator additionally count toward the
    /// root-inbox totals.
    pub fn charge_hop(
        &self,
        sender: usize,
        receiver: usize,
        direction: Direction,
        payload_words: u64,
        label: &'static str,
    ) -> u64 {
        let cost = payload_words + FRAME_WORDS;
        match direction {
            Direction::Upstream => self.inner.upstream_words.fetch_add(cost, Ordering::Relaxed),
            Direction::Downstream => self
                .inner
                .downstream_words
                .fetch_add(cost, Ordering::Relaxed),
        };
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
        if matches!(direction, Direction::Upstream) && receiver == 0 && sender != 0 {
            self.inner
                .root_inbox_words
                .fetch_add(cost, Ordering::Relaxed);
            self.inner
                .root_inbox_messages
                .fetch_add(1, Ordering::Relaxed);
        }
        if self.inner.record_events.load(Ordering::Acquire) {
            let round = self.inner.rounds.load(Ordering::Relaxed);
            self.inner.events.lock_recover().push(CommEvent {
                server: sender,
                receiver,
                direction,
                payload_words,
                label,
                round,
            });
        }
        cost
    }

    /// Marks the start of a new communication round (a collective step in
    /// which every server may exchange one batch with the coordinator).
    pub fn next_round(&self) {
        self.inner.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Totals so far. Exact whenever no collective is mid-flight (each
    /// counter is individually exact at all times).
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            upstream_words: self.inner.upstream_words.load(Ordering::Relaxed),
            downstream_words: self.inner.downstream_words.load(Ordering::Relaxed),
            messages: self.inner.messages.load(Ordering::Relaxed),
            rounds: self.inner.rounds.load(Ordering::Relaxed),
            root_inbox_words: self.inner.root_inbox_words.load(Ordering::Relaxed),
            root_inbox_messages: self.inner.root_inbox_messages.load(Ordering::Relaxed),
        }
    }

    /// Copy of the recorded transcript (empty unless recording was enabled).
    pub fn events(&self) -> Vec<CommEvent> {
        self.inner.events.lock_recover().clone()
    }

    /// Aggregates the recorded transcript by step label: returns
    /// `(label, total words incl. frames, message count)` sorted by cost
    /// descending. Empty unless recording was enabled. Used by the
    /// experiment harness to report per-phase communication breakdowns.
    pub fn by_label(&self) -> Vec<(&'static str, u64, u64)> {
        let events = self.inner.events.lock_recover();
        let mut agg: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for e in events.iter() {
            let entry = agg.entry(e.label).or_default();
            entry.0 += e.payload_words + FRAME_WORDS;
            entry.1 += 1;
        }
        let mut out: Vec<(&'static str, u64, u64)> = agg
            .into_iter()
            .map(|(label, (w, m))| (label, w, m))
            .collect();
        out.sort_by_key(|&(_, w, _)| std::cmp::Reverse(w));
        out
    }

    /// Resets all counters and the transcript (recording flag preserved).
    pub fn reset(&self) {
        self.inner.upstream_words.store(0, Ordering::Relaxed);
        self.inner.downstream_words.store(0, Ordering::Relaxed);
        self.inner.messages.store(0, Ordering::Relaxed);
        self.inner.rounds.store(0, Ordering::Relaxed);
        self.inner.root_inbox_words.store(0, Ordering::Relaxed);
        self.inner.root_inbox_messages.store(0, Ordering::Relaxed);
        self.inner.events.lock_recover().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_with_frames() {
        let l = Ledger::new();
        l.charge(1, Direction::Upstream, 10, "a");
        l.charge(2, Direction::Downstream, 5, "b");
        l.charge(1, Direction::Upstream, 0, "c");
        let s = l.snapshot();
        assert_eq!(s.upstream_words, 10 + FRAME_WORDS + FRAME_WORDS);
        assert_eq!(s.downstream_words, 5 + FRAME_WORDS);
        assert_eq!(s.messages, 3);
        assert_eq!(s.total_words(), 15 + 3 * FRAME_WORDS);
    }

    #[test]
    fn snapshot_difference() {
        let l = Ledger::new();
        l.charge(1, Direction::Upstream, 10, "x");
        let before = l.snapshot();
        l.charge(1, Direction::Upstream, 20, "y");
        l.next_round();
        let after = l.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.upstream_words, 20 + FRAME_WORDS);
        assert_eq!(delta.messages, 1);
        assert_eq!(delta.rounds, 1);
    }

    #[test]
    fn snapshot_sum_recombines_phase_deltas() {
        let l = Ledger::new();
        l.charge(1, Direction::Upstream, 10, "prepare");
        l.next_round();
        let mid = l.snapshot();
        let prepare = mid.since(&LedgerSnapshot::default());
        l.charge(1, Direction::Downstream, 4, "execute");
        l.next_round();
        let execute = l.snapshot().since(&mid);
        assert_eq!(prepare + execute, l.snapshot());
    }

    #[test]
    fn transcript_recording_toggles() {
        let l = Ledger::new();
        l.charge(1, Direction::Upstream, 1, "off");
        assert!(l.events().is_empty());
        l.set_record_events(true);
        l.charge(2, Direction::Downstream, 2, "on");
        let ev = l.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].server, 2);
        assert_eq!(ev[0].label, "on");
    }

    #[test]
    fn transcript_sum_matches_totals() {
        let l = Ledger::new();
        l.set_record_events(true);
        for t in 1..=5 {
            l.charge(t, Direction::Upstream, t as u64 * 3, "gather");
        }
        let total: u64 = l
            .events()
            .iter()
            .map(|e| e.payload_words + FRAME_WORDS)
            .sum();
        assert_eq!(total, l.snapshot().upstream_words);
    }

    #[test]
    fn by_label_aggregates_and_sorts() {
        let l = Ledger::new();
        l.set_record_events(true);
        l.charge(1, Direction::Upstream, 10, "big");
        l.charge(2, Direction::Upstream, 10, "big");
        l.charge(1, Direction::Downstream, 1, "small");
        let agg = l.by_label();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0], ("big", 2 * (10 + FRAME_WORDS), 2));
        assert_eq!(agg[1], ("small", 1 + FRAME_WORDS, 1));
    }

    #[test]
    fn by_label_empty_without_recording() {
        let l = Ledger::new();
        l.charge(1, Direction::Upstream, 5, "x");
        assert!(l.by_label().is_empty());
    }

    #[test]
    fn reset_clears_but_keeps_recording_flag() {
        let l = Ledger::new();
        l.set_record_events(true);
        l.charge(1, Direction::Upstream, 4, "z");
        l.reset();
        assert_eq!(l.snapshot(), LedgerSnapshot::default());
        l.charge(1, Direction::Upstream, 4, "z2");
        assert_eq!(l.events().len(), 1);
    }

    #[test]
    fn snapshot_add_assign_matches_add() {
        let a = LedgerSnapshot {
            upstream_words: 10,
            downstream_words: 2,
            messages: 3,
            rounds: 1,
            root_inbox_words: 6,
            root_inbox_messages: 2,
        };
        let b = LedgerSnapshot {
            upstream_words: 7,
            downstream_words: 5,
            messages: 2,
            rounds: 2,
            root_inbox_words: 4,
            root_inbox_messages: 1,
        };
        let mut acc = a;
        acc += b;
        assert_eq!(acc, a + b);
    }

    #[test]
    fn snapshot_display_totals() {
        let s = LedgerSnapshot {
            upstream_words: 10,
            downstream_words: 2,
            messages: 3,
            rounds: 1,
            ..LedgerSnapshot::default()
        };
        assert_eq!(
            format!("{s}"),
            "12 words (10 up / 2 down), 3 msgs, 1 rounds"
        );
    }

    #[test]
    fn root_inbox_tracks_only_hops_into_the_coordinator() {
        let l = Ledger::new();
        // Star upstream: implicit receiver 0 → counted.
        l.charge(3, Direction::Upstream, 9, "star");
        // Interior tree hop: upstream but lands at server 2 → not counted.
        l.charge_hop(3, 2, Direction::Upstream, 9, "tree");
        // Root hop of a tree: counted.
        l.charge_hop(2, 0, Direction::Upstream, 20, "tree");
        // Downstream never counts, whatever the receiver.
        l.charge(1, Direction::Downstream, 50, "bcast");
        let s = l.snapshot();
        assert_eq!(s.root_inbox_messages, 2);
        assert_eq!(s.root_inbox_words, 9 + FRAME_WORDS + 20 + FRAME_WORDS);
        assert_eq!(s.upstream_words, 9 + 9 + 20 + 3 * FRAME_WORDS);
        assert_eq!(s.messages, 4);
    }

    #[test]
    fn charge_hop_records_the_receiver() {
        let l = Ledger::new();
        l.set_record_events(true);
        l.charge_hop(5, 4, Direction::Upstream, 2, "hop");
        l.charge(1, Direction::Downstream, 2, "down");
        let ev = l.events();
        assert_eq!(ev[0].server, 5);
        assert_eq!(ev[0].receiver, 4);
        assert_eq!(ev[1].server, 1);
        assert_eq!(ev[1].receiver, 1);
    }

    #[test]
    fn clones_share_state() {
        let l = Ledger::new();
        let l2 = l.clone();
        l2.charge(1, Direction::Upstream, 7, "shared");
        assert_eq!(l.snapshot().upstream_words, 7 + FRAME_WORDS);
    }

    #[test]
    fn concurrent_charges_lose_nothing() {
        let l = Ledger::new();
        l.set_record_events(true);
        let threads = 8u64;
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let l = l.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        l.charge(t as usize + 1, Direction::Upstream, 3, "par");
                    }
                });
            }
        });
        let s = l.snapshot();
        assert_eq!(s.messages, threads * per_thread);
        assert_eq!(s.upstream_words, threads * per_thread * (3 + FRAME_WORDS));
        assert_eq!(l.events().len(), (threads * per_thread) as usize);
    }
}
