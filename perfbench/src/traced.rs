//! Spans recorded from the benchmark's own files: a [`Recorder`] that keeps
//! spans in memory, a [`Traced`] collective decorator that wraps any
//! substrate, self-time folding, and a chrome-trace writer.

use dlra::comm::{Collectives, Ledger, LedgerSnapshot, Topology, Wire};
use dlra::net::{WireCounters, WireStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub cat: &'static str,
    pub name: &'static str,
    pub qid: u64,
    pub start: u64,
    pub end: u64,
    /// Ledger words / messages / rounds and wire bytes charged inside the
    /// span (collective spans only).
    pub comm: LedgerSnapshot,
    pub wire: WireStats,
}

impl SpanRec {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store, written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `cat`/`name` for query `qid`.
    pub fn span<R>(
        &self,
        cat: &'static str,
        name: &'static str,
        qid: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        self.push(SpanRec {
            cat,
            name,
            qid,
            start,
            end: self.now(),
            comm: LedgerSnapshot::default(),
            wire: WireStats::default(),
        });
        out
    }

    pub fn push(&self, span: SpanRec) {
        self.spans.lock().expect("recorder lock").push(span);
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("recorder lock").clone()
    }
}

/// A collective decorator: delegates every [`Collectives`] method to the
/// inner substrate and records, around each collective, a span named by its
/// ledger label with the call's ledger delta and (on sockets) wire delta.
pub struct Traced<C> {
    inner: C,
    rec: Arc<Recorder>,
    wire: Option<Arc<WireCounters>>,
    qid: u64,
}

/// State captured when a collective starts.
struct Probe {
    start: u64,
    comm: LedgerSnapshot,
    wire: WireStats,
}

impl<C> Traced<C> {
    pub fn new(inner: C, rec: Arc<Recorder>, wire: Option<Arc<WireCounters>>, qid: u64) -> Self {
        Traced {
            inner,
            rec,
            wire,
            qid,
        }
    }

    fn wire_now(&self) -> WireStats {
        self.wire.as_ref().map(|w| w.snapshot()).unwrap_or_default()
    }

    fn begin<L>(&self) -> Probe
    where
        C: Collectives<L>,
    {
        Probe {
            comm: self.inner.comm(),
            wire: self.wire_now(),
            start: self.rec.now(),
        }
    }

    fn end<L>(&self, probe: Probe, label: &'static str)
    where
        C: Collectives<L>,
    {
        let end = self.rec.now();
        self.rec.push(SpanRec {
            cat: "comm",
            name: label,
            qid: self.qid,
            start: probe.start,
            end,
            comm: self.inner.comm().since(&probe.comm),
            wire: self.wire_now().since(&probe.wire),
        });
    }
}

impl<L, C: Collectives<L>> Collectives<L> for Traced<C> {
    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }

    fn ledger(&self) -> &Ledger {
        self.inner.ledger()
    }

    fn comm(&self) -> LedgerSnapshot {
        self.inner.comm()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn with_local<R>(&self, t: usize, f: impl FnOnce(&L) -> R) -> R {
        self.inner.with_local(t, f)
    }

    fn with_local_mut<R>(&mut self, t: usize, f: impl FnOnce(&mut L) -> R) -> R {
        self.inner.with_local_mut(t, f)
    }

    fn broadcast<T, F>(&mut self, msg: &T, label: &'static str, on_receive: F)
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(usize, &mut L, &T) + Send + Sync + 'static,
    {
        let probe = self.begin();
        self.inner.broadcast(msg, label, on_receive);
        self.end(probe, label);
    }

    fn gather<T, F>(&mut self, label: &'static str, compute: F) -> Vec<T>
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
    {
        let probe = self.begin();
        let out = self.inner.gather(label, compute);
        self.end(probe, label);
        out
    }

    fn aggregate<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: FnMut(&mut T, T),
    {
        let probe = self.begin();
        let out = self.inner.aggregate(label, compute, merge);
        self.end(probe, label);
        out
    }

    fn aggregate_topo<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let probe = self.begin();
        let out = self.inner.aggregate_topo(label, compute, merge);
        self.end(probe, label);
        out
    }

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
        let probe = self.begin();
        let out = self.inner.query_aggregate(request, label, compute, merge);
        self.end(probe, label);
        out
    }

    fn query_server<Q, T, F>(&mut self, t: usize, request: &Q, label: &'static str, compute: F) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: FnOnce(&mut L, &Q) -> T + Send + 'static,
    {
        let probe = self.begin();
        let out = self.inner.query_server(t, request, label, compute);
        self.end(probe, label);
        out
    }

    fn query_all<Q, T, F>(&mut self, request: &Q, label: &'static str, compute: F) -> Vec<T>
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
    {
        let probe = self.begin();
        let out = self.inner.query_all(request, label, compute);
        self.end(probe, label);
        out
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals`, each clipped
/// to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of every span in `spans` (one query, one thread): its
/// duration minus the part of it that its direct children cover. Children
/// are found by interval nesting.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[i].start >= spans[top].end {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            children[parent].push((spans[i].start, spans[i].end));
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`.
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"qid\":{},\"words\":{},\"messages\":{},\"wire_bytes\":{}}}}}",
            s.name,
            s.cat,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.qid,
            s.comm.total_words(),
            s.comm.messages,
            s.wire.total_bytes()
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlra::comm::Cluster;

    fn span(name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            cat: "t",
            name,
            qid: 0,
            start,
            end,
            comm: LedgerSnapshot::default(),
            wire: WireStats::default(),
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (40, 50)]), 30);
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered(0, 10, &[(20, 30)]), 0);
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        // root [0,100) ⊃ a [10,40) ⊃ c [20,30); root ⊃ b [50,90).
        let spans = vec![
            span("c", 20, 30),
            span("root", 0, 100),
            span("b", 50, 90),
            span("a", 10, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 100 - 30 - 40, 40, 30 - 10]);
        assert_eq!(selfs.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn decorator_delegates_and_records_each_collective() {
        let rec = Recorder::new();
        let locals = vec![vec![1.0f64, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let mut plain = Cluster::new(locals.clone());
        let mut traced = Traced::new(Cluster::new(locals), Arc::clone(&rec), None, 7);
        fn drive<C: Collectives<Vec<f64>>>(c: &mut C) -> (Vec<f64>, f64, f64) {
            c.broadcast(&1.0f64, "b", |_t, l, &m| l[0] += m);
            let g = c.gather("g", |_t, l| l[0]);
            let a = c.aggregate_topo("a", |_t, l| l[1], |acc, r| *acc += r);
            let q = c.query_aggregate(&0usize, "q", |_t, l, &j| l[j], |acc, r| *acc += r);
            (g, a, q)
        }
        assert_eq!(drive(&mut plain), drive(&mut traced));
        assert_eq!(Collectives::comm(&plain), traced.comm());
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["b", "g", "a", "q"]);
        let words: u64 = spans.iter().map(|s| s.comm.total_words()).sum();
        assert_eq!(words, traced.comm().total_words());
        assert!(spans.iter().all(|s| s.qid == 7 && s.comm.messages > 0));
    }
}
