//! Type-erased collective jobs.
//!
//! A [`Collectives`](dlra_comm::Collectives) call site captures typed
//! closures (`compute`, `merge`, `on_receive`), but a server process only
//! sees frames of bytes. A [`NetJob`] erases the types at the byte
//! boundary: its one step decodes a frame's payload with the `dlra-comm`
//! wire codec, runs the typed closure, and re-encodes the result, and a
//! reduction's job also replays its typed merge over encoded blocks.
//! Because the codec is bit-exact (f64 words round-trip by bits), the
//! decode → compute → encode path produces byte-for-byte the same blocks a
//! fully typed substrate would, so results stay bit-identical to the
//! sequential reference. The coordinator steps its own state through the
//! same job its servers run.
//!
//! Jobs are resolved per frame through a [`JobResolver`]:
//!
//! * in **loopback** mode every server thread shares the coordinator's
//!   [`JobRegistry`] and resolves by the frame's `job_id` — the closures
//!   themselves never cross the links, only payload bytes do, exactly as
//!   the threaded substrate ships closures to workers for free;
//! * in **remote** mode (separate processes) closures cannot cross at all,
//!   so the server binary resolves the frame's `seq` op code against a
//!   static table of pre-agreed jobs ([`crate::remote`]).

use crate::frame::{Frame, MsgType, NetError};
use dlra_comm::topology::MergeStep;
use dlra_comm::wire::{decode_value, encode_value, Wire};
use dlra_util::sync::MutexExt;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Encoded payload: `(descriptor, body)` as produced by
/// [`dlra_comm::wire::encode_value`].
pub type Encoded = (Vec<u8>, Vec<u8>);

/// The encoded blocks a server holds during a reduction round, by server.
pub type Held = BTreeMap<usize, Encoded>;

/// A job's byte-level step: server `t` decodes the request from
/// `(desc, body)`, runs the typed closure on its local state, and encodes
/// what it sends back.
type Step<L> = Box<dyn Fn(usize, &mut L, &[u8], &[u8]) -> Result<Encoded, NetError> + Send + Sync>;

/// A reduction's merge replay over the encoded blocks one server holds.
type Merge = Box<dyn Fn(Held, &[MergeStep]) -> Result<Held, NetError> + Send + Sync>;

/// Which frame starts a job on a server, and what the server sends back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// A [`MsgType::Broadcast`] message; the server acks.
    Broadcast,
    /// A free [`MsgType::RunGather`] trigger or a charged
    /// [`MsgType::Query`]; the server replies with its block.
    Reply,
    /// One [`MsgType::QueryServer`] request; the server replies once.
    ReplyOnce,
    /// A [`MsgType::RunReduce`] trigger, bare or carrying a request; the
    /// server's block joins the combining tree.
    Reduce,
}

impl JobKind {
    /// The frame that starts a job of this kind, with or without a charged
    /// request payload.
    pub(crate) fn trigger(self, with_request: bool) -> MsgType {
        match self {
            JobKind::Broadcast => MsgType::Broadcast,
            JobKind::Reply if with_request => MsgType::Query,
            JobKind::Reply => MsgType::RunGather,
            JobKind::ReplyOnce => MsgType::QueryServer,
            JobKind::Reduce => MsgType::RunReduce,
        }
    }
}

/// One collective's server-side behavior, erased to the byte level: its
/// kind, one step, and (for reductions) a merge.
pub struct NetJob<L> {
    kind: JobKind,
    /// Runs server `t`'s step on an encoded request (empty for a bare
    /// trigger, which decodes as `()`).
    pub(crate) step: Step<L>,
    merge: Option<Merge>,
}

impl<L> NetJob<L> {
    /// Broadcast: each server decodes the message and observes it.
    pub fn broadcast<T, F>(on_receive: F) -> Self
    where
        T: Wire,
        F: Fn(usize, &mut L, &T) + Send + Sync + 'static,
    {
        let step: Step<L> = Box::new(move |t, local, desc, body| {
            on_receive(t, local, &decode_value::<T>(desc, body)?);
            Ok(encode_value(&()))
        });
        NetJob::new(JobKind::Broadcast, step, None)
    }

    /// Reply (`query_all`; `gather` is `Q = ()`): each server decodes the
    /// request and replies with its block.
    pub fn reply<Q, T, F>(compute: F) -> Self
    where
        Q: Wire,
        T: Wire,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
    {
        NetJob::new(JobKind::Reply, typed_step(compute), None)
    }

    /// Single-server query: `compute` is consumed by the first request; a
    /// second one is a protocol error.
    pub fn reply_once<Q, T, F>(compute: F) -> Self
    where
        Q: Wire,
        T: Wire,
        F: FnOnce(&mut L, &Q) -> T + Send + 'static,
    {
        NetJob::try_reply_once(move |local: &mut L, request: &Q| Ok(compute(local, request)))
    }

    /// [`NetJob::reply_once`] whose `compute` may reject the request: its
    /// error ends the server's loop, which reports it to the coordinator.
    pub(crate) fn try_reply_once<Q, T, F>(compute: F) -> Self
    where
        Q: Wire,
        T: Wire,
        F: FnOnce(&mut L, &Q) -> Result<T, NetError> + Send + 'static,
    {
        let compute = Mutex::new(Some(compute));
        let step: Step<L> = Box::new(move |_t, local, desc, body| {
            let request = decode_value::<Q>(desc, body)?;
            let compute = compute.lock_recover().take().ok_or(NetError::Protocol {
                what: "single-server query delivered twice",
                detail: String::new(),
            })?;
            Ok(encode_value(&compute(local, &request)?))
        });
        NetJob::new(JobKind::ReplyOnce, step, None)
    }

    /// Topology-routed reduction (`query_aggregate`; `aggregate_topo` is
    /// `Q = ()`): each server's reply is a leaf block, and `merge` combines
    /// blocks wherever the combining tree meets.
    pub fn reduce<Q, T, F, M>(compute: F, merge: M) -> Self
    where
        Q: Wire,
        T: Wire,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let merge: Merge = Box::new(move |held, merges| replay_merges(&merge, held, merges));
        NetJob::new(JobKind::Reduce, typed_step(compute), Some(merge))
    }

    fn new(kind: JobKind, step: Step<L>, merge: Option<Merge>) -> Self {
        NetJob { kind, step, merge }
    }

    /// What starts this job and what a server sends back.
    pub(crate) fn kind(&self) -> JobKind {
        self.kind
    }

    /// Starts the job at server `t` from the coordinator's frame. A frame
    /// of another kind than the job's trigger is a protocol error, so a
    /// mis-routed frame never reaches the wrong closure.
    pub(crate) fn start(
        &self,
        t: usize,
        local: &mut L,
        frame: &Frame,
    ) -> Result<Encoded, NetError> {
        if frame.msg_type != self.kind.trigger(frame.is_data()) {
            return Err(NetError::Protocol {
                what: "frame does not match its job",
                detail: format!("{:?} frame for a {:?} job", frame.msg_type, self.kind),
            });
        }
        (self.step)(t, local, &frame.desc, &frame.body)
    }

    /// Replays one round of combining-tree merge steps over the encoded
    /// blocks a server holds, keyed by server id: every step whose source
    /// and destination are both held merges the source into the
    /// destination. Each held block is decoded once and each survivor
    /// re-encoded once; the bit-exact codec makes the result identical to
    /// a typed reduction. Only a reduction's job merges.
    pub(crate) fn merge_round(&self, held: Held, merges: &[MergeStep]) -> Result<Held, NetError> {
        let merge = self.merge.as_ref().ok_or(NetError::Protocol {
            what: "job does not merge blocks",
            detail: format!("{:?} job", self.kind),
        })?;
        merge(held, merges)
    }
}

/// The byte-level step of a typed request → reply closure.
fn typed_step<L, Q: Wire, T: Wire>(
    compute: impl Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
) -> Step<L> {
    Box::new(move |t, local, desc, body| {
        let request = decode_value::<Q>(desc, body)?;
        Ok(encode_value(&compute(t, local, &request)))
    })
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

/// Maps an incoming frame to the job that handles it.
pub trait JobResolver<L>: Send + Sync {
    /// Resolves by the frame's `job_id` (loopback) or `seq` op code
    /// (remote); `None` is a protocol violation the node reports back.
    fn resolve(&self, job_id: u64, op: u32) -> Option<Arc<NetJob<L>>>;
}

/// The coordinator's live-job table for loopback clusters: jobs register
/// before the first frame of their collective is sent and deregister after
/// the collective completes, so resolution never races.
pub struct JobRegistry<L> {
    jobs: Mutex<HashMap<u64, Arc<NetJob<L>>>>,
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
    pub fn register(&self, job: Arc<NetJob<L>>) -> u64 {
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
    fn resolve(&self, job_id: u64, _op: u32) -> Option<Arc<NetJob<L>>> {
        self.jobs.lock_recover().get(&job_id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_job_roundtrips_message() {
        let job = NetJob::broadcast(|_t, local: &mut Vec<f64>, m: &f64| local.push(*m));
        let (desc, body) = encode_value(&2.5f64);
        let mut local = vec![1.0];
        assert_eq!(
            (job.step)(1, &mut local, &desc, &body).unwrap(),
            encode_value(&())
        );
        assert_eq!(local, vec![1.0, 2.5]);
    }

    #[test]
    fn reduce_job_merges_byte_blocks_bit_exactly() {
        let job = NetJob::reduce(
            |t: usize, local: &mut Vec<f64>, &(): &()| local[0] + t as f64,
            |acc: &mut f64, r: f64| *acc += r,
        );
        let mut held = Held::new();
        for (t, x) in [0.1, 0.2, 0.4].into_iter().enumerate() {
            held.insert(t, (job.step)(t, &mut vec![x], &[], &[]).unwrap());
        }
        // ((0 ← 1) ← 2), then a step whose source is not held: skipped.
        let steps = [(0, 1), (0, 2), (0, 7)].map(|(dst, src)| MergeStep { dst, src });
        let merged = job.merge_round(held, &steps).unwrap();
        assert_eq!(merged.keys().copied().collect::<Vec<_>>(), vec![0]);
        let v = decode_value::<f64>(&merged[&0].0, &merged[&0].1).unwrap();
        assert_eq!(
            v.to_bits(),
            ((0.1f64 + (0.2f64 + 1.0)) + (0.4 + 2.0)).to_bits()
        );
    }

    #[test]
    fn query_server_job_consumed_once() {
        let job = NetJob::reply_once(|local: &mut Vec<f64>, &j: &usize| local[j]);
        let (desc, body) = encode_value(&0usize);
        let mut local = vec![7.0];
        assert!((job.step)(1, &mut local, &desc, &body).is_ok());
        let second = (job.step)(1, &mut local, &desc, &body);
        assert!(matches!(second, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn misrouted_frames_yield_typed_errors() {
        let job = NetJob::reply(|_t, local: &mut Vec<f64>, &(): &()| local[0]);
        let mut local = vec![0.0];
        let (desc, body) = encode_value(&1.0f64);
        let broadcast = Frame::data(MsgType::Broadcast, 0, 1, desc, body);
        let err = job.start(0, &mut local, &broadcast).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }));
        let err = job.merge_round(Held::new(), &[]).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }));
        // The job's own triggers start it.
        let gather = Frame::control(MsgType::RunGather, 0, 1);
        assert!(job.start(0, &mut local, &gather).is_ok());
    }

    #[test]
    fn registry_registers_and_removes() {
        let reg = JobRegistry::<Vec<f64>>::new();
        let job = NetJob::reply(|_t, l: &mut Vec<f64>, &(): &()| l[0]);
        let id = reg.register(Arc::new(job));
        assert!(reg.resolve(id, 0).is_some());
        reg.remove(id);
        assert!(reg.resolve(id, 0).is_none());
    }
}
