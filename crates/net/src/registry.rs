//! Type-erased collective jobs.
//!
//! A [`Collectives`](dlra_comm::Collectives) call site captures typed
//! closures (`compute`, `merge`, `on_receive`), but a server process only
//! sees frames of bytes. A [`NetJob`] erases the types at the byte
//! boundary: it decodes a frame's payload with the `dlra-comm` wire codec,
//! runs the typed closure, and re-encodes the result. Because the codec is
//! bit-exact (f64 words round-trip by bits), the decode → compute → encode
//! path produces byte-for-byte the same blocks a fully typed substrate
//! would, so results stay bit-identical to the sequential reference.
//!
//! Jobs are resolved per frame through a [`JobResolver`]:
//!
//! * in **loopback** mode every server thread shares the coordinator's
//!   [`JobRegistry`] and resolves by the frame's `job_id` — the closures
//!   themselves never cross the sockets, only payload bytes do, exactly as
//!   the threaded substrate ships closures to workers for free;
//! * in **remote** mode (separate processes) closures cannot cross at all,
//!   so the server binary resolves the frame's `seq` op code against a
//!   static table of pre-agreed jobs ([`crate::remote`]).

use crate::frame::NetError;
use dlra_comm::topology::MergeStep;
use dlra_comm::wire::{decode_value, encode_value, Wire};
use dlra_util::sync::MutexExt;
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Encoded payload: `(descriptor, body)` as produced by
/// [`dlra_comm::wire::encode_value`].
pub type Encoded = (Vec<u8>, Vec<u8>);

/// The encoded blocks a server holds during a reduction round, by server.
pub type Held = BTreeMap<usize, Encoded>;

/// Invariance marker for a job's request/reply types: the job neither
/// stores nor produces a `Q`/`T`, but its wire behavior is fixed by them.
type Marker<Q, T> = PhantomData<fn(Q, T) -> (Q, T)>;

/// One collective's server-side behavior, erased to the byte level.
///
/// Methods the job does not participate in return a typed protocol error
/// by default, so a mis-routed frame can never call into the wrong closure.
pub trait NetJob<L>: Send + Sync {
    /// Applies a broadcast payload to one server's local state.
    fn deliver(&self, t: usize, local: &mut L, desc: &[u8], body: &[u8]) -> Result<(), NetError> {
        let _ = (t, local, desc, body);
        Err(NetError::Protocol {
            what: "job does not accept broadcasts",
            detail: String::new(),
        })
    }

    /// Computes this server's block (gather reply, query reply, or
    /// reduction leaf), optionally from an encoded request payload.
    fn make_block(
        &self,
        t: usize,
        local: &mut L,
        request: Option<(&[u8], &[u8])>,
    ) -> Result<Encoded, NetError> {
        let _ = (t, local, request);
        Err(NetError::Protocol {
            what: "job does not produce blocks",
            detail: String::new(),
        })
    }

    /// Replays one round of combining-tree merge steps over the encoded
    /// blocks a server holds, keyed by server id: every step whose source
    /// and destination are both held merges the source into the
    /// destination. Each held block is decoded once and each survivor
    /// re-encoded once; the bit-exact codec makes the result identical to
    /// a typed reduction.
    fn merge_round(&self, held: Held, merges: &[MergeStep]) -> Result<Held, NetError> {
        let _ = (held, merges);
        Err(NetError::Protocol {
            what: "job does not merge blocks",
            detail: String::new(),
        })
    }
}

/// Decodes `held`, replays the `merges` whose blocks are both held with the
/// typed `merge`, and re-encodes the survivors.
fn replay_merges<T: Wire>(
    merge: impl Fn(&mut T, T),
    held: Held,
    merges: &[MergeStep],
) -> Result<Held, NetError> {
    let mut typed = BTreeMap::new();
    for (q, (desc, body)) in held {
        typed.insert(q, decode_value::<T>(&desc, &body)?);
    }
    for step in merges {
        if !typed.contains_key(&step.dst) {
            continue;
        }
        if let Some(src) = typed.remove(&step.src) {
            if let Some(dst) = typed.get_mut(&step.dst) {
                merge(dst, src);
            }
        }
    }
    Ok(typed
        .into_iter()
        .map(|(q, v)| (q, encode_value(&v)))
        .collect())
}

/// Decodes an optional request payload.
fn decode_request<Q: Wire>(request: Option<(&[u8], &[u8])>) -> Result<Q, NetError> {
    let (desc, body) = request.ok_or(NetError::Protocol {
        what: "job requires a request payload",
        detail: String::new(),
    })?;
    Ok(decode_value::<Q>(desc, body)?)
}

/// Broadcast: decode the message, let the server observe it.
pub struct BroadcastJob<T, F> {
    on_receive: F,
    _t: PhantomData<fn(T) -> T>,
}

impl<T, F> BroadcastJob<T, F> {
    /// Wraps a broadcast `on_receive` closure.
    pub fn new(on_receive: F) -> Self {
        BroadcastJob {
            on_receive,
            _t: PhantomData,
        }
    }
}

impl<L, T, F> NetJob<L> for BroadcastJob<T, F>
where
    T: Wire + Send + 'static,
    F: Fn(usize, &mut L, &T) + Send + Sync + 'static,
{
    fn deliver(&self, t: usize, local: &mut L, desc: &[u8], body: &[u8]) -> Result<(), NetError> {
        let msg = decode_value::<T>(desc, body)?;
        (self.on_receive)(t, local, &msg);
        Ok(())
    }
}

/// Gather: compute a reply from local state alone.
pub struct GatherJob<T, F> {
    compute: F,
    _t: PhantomData<fn(T) -> T>,
}

impl<T, F> GatherJob<T, F> {
    /// Wraps a gather `compute` closure.
    pub fn new(compute: F) -> Self {
        GatherJob {
            compute,
            _t: PhantomData,
        }
    }
}

impl<L, T, F> NetJob<L> for GatherJob<T, F>
where
    T: Wire + Send + 'static,
    F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
{
    fn make_block(
        &self,
        t: usize,
        local: &mut L,
        _request: Option<(&[u8], &[u8])>,
    ) -> Result<Encoded, NetError> {
        Ok(encode_value(&(self.compute)(t, local)))
    }
}

/// Query: decode the request, compute a reply.
pub struct QueryJob<Q, T, F> {
    compute: F,
    _q: Marker<Q, T>,
}

impl<Q, T, F> QueryJob<Q, T, F> {
    /// Wraps a `query_all` `compute` closure.
    pub fn new(compute: F) -> Self {
        QueryJob {
            compute,
            _q: PhantomData,
        }
    }
}

impl<L, Q, T, F> NetJob<L> for QueryJob<Q, T, F>
where
    Q: Wire + Send + 'static,
    T: Wire + Send + 'static,
    F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
{
    fn make_block(
        &self,
        t: usize,
        local: &mut L,
        request: Option<(&[u8], &[u8])>,
    ) -> Result<Encoded, NetError> {
        let q = decode_request::<Q>(request)?;
        Ok(encode_value(&(self.compute)(t, local, &q)))
    }
}

/// Single-server query: the closure is `FnOnce`, consumed on first use.
pub struct QueryServerJob<Q, T, F> {
    compute: Mutex<Option<F>>,
    _q: Marker<Q, T>,
}

impl<Q, T, F> QueryServerJob<Q, T, F> {
    /// Wraps a `query_server` `compute` closure.
    pub fn new(compute: F) -> Self {
        QueryServerJob {
            compute: Mutex::new(Some(compute)),
            _q: PhantomData,
        }
    }
}

impl<L, Q, T, F> NetJob<L> for QueryServerJob<Q, T, F>
where
    Q: Wire + Send + 'static,
    T: Wire + Send + 'static,
    F: FnOnce(&mut L, &Q) -> T + Send + 'static,
{
    fn make_block(
        &self,
        _t: usize,
        local: &mut L,
        request: Option<(&[u8], &[u8])>,
    ) -> Result<Encoded, NetError> {
        let q = decode_request::<Q>(request)?;
        let compute = self
            .compute
            .lock_recover()
            .take()
            .ok_or(NetError::Protocol {
                what: "single-server query delivered twice",
                detail: String::new(),
            })?;
        Ok(encode_value(&compute(local, &q)))
    }
}

/// Topology-routed reduction: leaf blocks plus combining-tree merges.
pub struct ReduceJob<T, F, M> {
    compute: F,
    merge: M,
    _t: PhantomData<fn(T) -> T>,
}

impl<T, F, M> ReduceJob<T, F, M> {
    /// Wraps an `aggregate_topo` compute/merge pair.
    pub fn new(compute: F, merge: M) -> Self {
        ReduceJob {
            compute,
            merge,
            _t: PhantomData,
        }
    }
}

impl<L, T, F, M> NetJob<L> for ReduceJob<T, F, M>
where
    T: Wire + Send + 'static,
    F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
    M: Fn(&mut T, T) + Send + Sync + 'static,
{
    fn make_block(
        &self,
        t: usize,
        local: &mut L,
        _request: Option<(&[u8], &[u8])>,
    ) -> Result<Encoded, NetError> {
        Ok(encode_value(&(self.compute)(t, local)))
    }

    fn merge_round(&self, held: Held, merges: &[MergeStep]) -> Result<Held, NetError> {
        replay_merges::<T>(&self.merge, held, merges)
    }
}

/// Request-driven reduction (`query_aggregate`): like [`ReduceJob`] but the
/// leaf compute also sees the broadcast request.
pub struct QueryReduceJob<Q, T, F, M> {
    compute: F,
    merge: M,
    _q: Marker<Q, T>,
}

impl<Q, T, F, M> QueryReduceJob<Q, T, F, M> {
    /// Wraps a `query_aggregate` compute/merge pair.
    pub fn new(compute: F, merge: M) -> Self {
        QueryReduceJob {
            compute,
            merge,
            _q: PhantomData,
        }
    }
}

impl<L, Q, T, F, M> NetJob<L> for QueryReduceJob<Q, T, F, M>
where
    Q: Wire + Send + 'static,
    T: Wire + Send + 'static,
    F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
    M: Fn(&mut T, T) + Send + Sync + 'static,
{
    fn make_block(
        &self,
        t: usize,
        local: &mut L,
        request: Option<(&[u8], &[u8])>,
    ) -> Result<Encoded, NetError> {
        let q = decode_request::<Q>(request)?;
        Ok(encode_value(&(self.compute)(t, local, &q)))
    }

    fn merge_round(&self, held: Held, merges: &[MergeStep]) -> Result<Held, NetError> {
        replay_merges::<T>(&self.merge, held, merges)
    }
}

/// Maps an incoming frame to the job that handles it.
pub trait JobResolver<L>: Send + Sync {
    /// Resolves by the frame's `job_id` (loopback) or `seq` op code
    /// (remote); `None` is a protocol violation the node reports back.
    fn resolve(&self, job_id: u64, op: u32) -> Option<Arc<dyn NetJob<L>>>;
}

/// The coordinator's live-job table for loopback clusters: jobs register
/// before the first frame of their collective is sent and deregister after
/// the collective completes, so resolution never races.
pub struct JobRegistry<L> {
    jobs: Mutex<HashMap<u64, Arc<dyn NetJob<L>>>>,
    next_id: AtomicU64,
}

impl<L> Default for JobRegistry<L> {
    fn default() -> Self {
        JobRegistry {
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }
}

impl<L> JobRegistry<L> {
    /// An empty registry.
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Registers a job and returns its fresh id.
    pub fn register(&self, job: Arc<dyn NetJob<L>>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.jobs.lock_recover().insert(id, job);
        id
    }

    /// Drops a completed job.
    pub fn remove(&self, id: u64) {
        self.jobs.lock_recover().remove(&id);
    }
}

impl<L> JobResolver<L> for JobRegistry<L> {
    fn resolve(&self, job_id: u64, _op: u32) -> Option<Arc<dyn NetJob<L>>> {
        self.jobs.lock_recover().get(&job_id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_job_roundtrips_message() {
        let job = BroadcastJob::new(|_t, local: &mut Vec<f64>, m: &f64| local.push(*m));
        let (desc, body) = encode_value(&2.5f64);
        let mut local = vec![1.0];
        NetJob::<Vec<f64>>::deliver(&job, 1, &mut local, &desc, &body).unwrap();
        assert_eq!(local, vec![1.0, 2.5]);
    }

    #[test]
    fn reduce_job_merges_byte_blocks_bit_exactly() {
        let job = ReduceJob::new(
            |t: usize, local: &mut Vec<f64>| local[0] + t as f64,
            |acc: &mut f64, r: f64| *acc += r,
        );
        let mut held = Held::new();
        for (t, x) in [0.1, 0.2, 0.4].into_iter().enumerate() {
            let block = NetJob::<Vec<f64>>::make_block(&job, t, &mut vec![x], None).unwrap();
            held.insert(t, block);
        }
        // ((0 ← 1) ← 2), then a step whose source is not held: skipped.
        let steps = [(0, 1), (0, 2), (0, 7)].map(|(dst, src)| MergeStep { dst, src });
        let merged = NetJob::<Vec<f64>>::merge_round(&job, held, &steps).unwrap();
        assert_eq!(merged.keys().copied().collect::<Vec<_>>(), vec![0]);
        let v = decode_value::<f64>(&merged[&0].0, &merged[&0].1).unwrap();
        assert_eq!(
            v.to_bits(),
            ((0.1f64 + (0.2f64 + 1.0)) + (0.4 + 2.0)).to_bits()
        );
    }

    #[test]
    fn query_server_job_consumed_once() {
        let job = QueryServerJob::new(|local: &mut Vec<f64>, &j: &usize| local[j]);
        let (desc, body) = encode_value(&0usize);
        let mut local = vec![7.0];
        let first = NetJob::<Vec<f64>>::make_block(&job, 1, &mut local, Some((&desc, &body)));
        assert!(first.is_ok());
        let second = NetJob::<Vec<f64>>::make_block(&job, 1, &mut local, Some((&desc, &body)));
        assert!(matches!(second, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn misrouted_frames_yield_typed_errors() {
        let job = GatherJob::new(|_t, local: &mut Vec<f64>| local[0]);
        let mut local = vec![0.0];
        let err = NetJob::<Vec<f64>>::deliver(&job, 0, &mut local, &[], &[]).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }));
        let err = NetJob::<Vec<f64>>::merge_round(&job, Held::new(), &[]).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }));
    }

    #[test]
    fn registry_registers_and_removes() {
        let reg = JobRegistry::<Vec<f64>>::new();
        let id = reg.register(Arc::new(GatherJob::new(|_t, l: &mut Vec<f64>| l[0])));
        assert!(reg.resolve(id, 0).is_some());
        reg.remove(id);
        assert!(reg.resolve(id, 0).is_none());
    }
}
