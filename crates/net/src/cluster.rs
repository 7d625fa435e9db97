//! [`FrameCluster`]: the coordinator of the message-passing substrates,
//! and its two links, [`SocketCluster`] and [`ThreadedCluster`].
//!
//! Each of the `s` servers runs the [`crate::node`] event loop; the
//! coordinator (server `0`, the thread driving the protocol) runs every
//! collective as one frame fan-out plus one fan-in:
//!
//! ```text
//!            ┌── frame ──▶ server 1 ─── reply ───┐
//! coordinator├── frame ──▶ server 2 ─── reply ───┤──▶ replies by index
//!            └── frame ──▶ server s-1 ─ reply ───┘
//! ```
//!
//! The two substrates differ only in the link the frames travel on and in
//! how that link is wired:
//!
//! * [`SocketCluster`] — TCP sockets on `127.0.0.1`, wired by the
//!   Hello/Roster/Ready bootstrap that also admits servers running in
//!   separate processes ([`crate::remote`]);
//! * [`ThreadedCluster`] — in-process [`Pipe`]s, pre-wired from the
//!   [`TopologyPlan`] when the cluster is built ([`crate::threaded`]).
//!
//! Either way the server loops run on threads of this process and share
//! the coordinator's [`JobRegistry`], so arbitrary typed closures work,
//! while every payload crosses its link as encoded bytes.
//!
//! ## Determinism and ledger parity
//!
//! Per-server computations run concurrently, but each is a deterministic
//! function of that server's state. The coordinator places replies by
//! server index before using them, charges the [`Ledger`] in server-index
//! order after each fan-in, and reductions replay the canonical
//! [`TopologyPlan`] merge schedule, so protocol outputs are
//! **bit-identical** to the sequential [`dlra_comm::Cluster`] and ledger
//! transcripts match exactly. The wire codec is bit-exact, so the
//! decode → compute → encode round trips change nothing.
//!
//! ## Byte accounting
//!
//! Every frame leaving any link is recorded in the cluster's shared
//! [`WireCounters`] at the send side. Data-frame bodies are exactly
//! 8 bytes per charged payload word, making total wire bytes an affine
//! function of ledger words — see `tests/wire_audit.rs`.

use crate::counters::{send_frame, WireCounters, WireStats};
use crate::frame::{
    decode_error_frame, Frame, HopRecord, MsgType, NetError, Roster, FLAG_HAS_REQUEST,
};
use crate::node::{absorb_round, run_node, NodeConfig};
use crate::pipe::Pipe;
use crate::registry::{
    BroadcastJob, Encoded, GatherJob, JobRegistry, JobResolver, NetJob, QueryJob, QueryReduceJob,
    QueryServerJob, ReduceJob,
};
use dlra_comm::ledger::Direction;
use dlra_comm::wire::{decode_value, encode_value, Wire};
use dlra_comm::{Collectives, Ledger, Topology, TopologyPlan};
use dlra_obs::trace;
use dlra_util::sync::MutexExt;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A server thread of a loopback cluster, returning how its loop ended.
pub type ServerThread = JoinHandle<Result<(), NetError>>;

/// A byte link the frame protocol runs on, and how a loopback cluster
/// starts its servers over it.
pub trait Link: Read + Write + Send + Sized + 'static {
    /// Starts servers `1..s` on threads of this process, each serving
    /// `states[t]` with jobs resolved through `registry` and routing
    /// reductions over `topology`. Returns the coordinator's links to
    /// them, indexed `t − 1`, and their threads.
    fn start_servers<L: Send + 'static>(
        states: &[Arc<Mutex<L>>],
        topology: Topology,
        registry: &Arc<JobRegistry<L>>,
        counters: &Arc<WireCounters>,
    ) -> (Vec<Self>, Vec<ServerThread>);
}

impl Link for TcpStream {
    /// Every server dials back over `127.0.0.1` and joins through the
    /// bootstrap handshake, exactly as a server process would.
    fn start_servers<L: Send + 'static>(
        states: &[Arc<Mutex<L>>],
        topology: Topology,
        registry: &Arc<JobRegistry<L>>,
        counters: &Arc<WireCounters>,
    ) -> (Vec<TcpStream>, Vec<ServerThread>) {
        let s = states.len();
        if s == 1 {
            return (Vec::new(), Vec::new());
        }
        let listener = TcpListener::bind("127.0.0.1:0")
            // dlra-allow(panic-policy): binding an ephemeral loopback
            // port fails only on resource exhaustion at construction,
            // before any query exists to resolve to a typed error.
            .expect("bind coordinator listener");
        let addr = listener
            .local_addr()
            // dlra-allow(panic-policy): a bound listener has an address.
            .expect("coordinator listener address")
            .to_string();
        let threads = (1..s)
            .map(|t| {
                let cfg = NodeConfig {
                    coordinator: addr.clone(),
                    server_id: t,
                    state: Arc::clone(&states[t]),
                    resolver: Arc::clone(registry) as Arc<dyn JobResolver<L>>,
                    counters: Arc::clone(counters),
                };
                spawn_server(t, move || run_node(cfg))
            })
            .collect();
        let links = bootstrap_coordinator(&listener, s, topology, counters)
            // dlra-allow(panic-policy): a failed bootstrap leaves no
            // cluster to return; construction cannot proceed.
            .expect("bootstrap socket cluster");
        (links, threads)
    }
}

/// Spawns server `t`'s loop on a named thread of this process.
pub(crate) fn spawn_server(
    t: usize,
    serve: impl FnOnce() -> Result<(), NetError> + Send + 'static,
) -> ServerThread {
    std::thread::Builder::new()
        .name(format!("dlra-server-{t}"))
        .spawn(serve)
        // dlra-allow(panic-policy): spawn fails only on OS thread
        // exhaustion while constructing the cluster, before any query
        // exists to resolve to a typed error.
        .expect("spawn server thread")
}

/// A cluster of `s` servers whose coordinator exchanges frames with them
/// over links of type `S`, implementing [`Collectives`]. Server `0` is
/// the coordinator (the calling thread). Use it as [`SocketCluster`] or
/// [`ThreadedCluster`].
pub struct FrameCluster<L, S: Link> {
    /// Per-server local state; `[0]` is the coordinator's own. A server
    /// locks its state per frame; the coordinator locks `[0]` per
    /// collective and any state in `with_local{,_mut}`.
    // dlra-lock-order: server.state
    states: Vec<Arc<Mutex<L>>>,
    /// Coordinator ↔ server links, indexed `t - 1`.
    links: Vec<S>,
    registry: Arc<JobRegistry<L>>,
    counters: Arc<WireCounters>,
    ledger: Ledger,
    topology: Topology,
    threads: Vec<ServerThread>,
}

/// The networked substrate: the servers behind real TCP sockets.
///
/// ```
/// use dlra_comm::Collectives;
/// use dlra_net::SocketCluster;
/// let mut c = SocketCluster::new(vec![vec![1.0f64, 2.0], vec![3.0, 4.0]]);
/// let sums = c.gather("demo", |_t, local: &mut Vec<f64>| local.iter().sum::<f64>());
/// assert_eq!(sums, vec![3.0, 7.0]);
/// // Same ledger transcript as the sequential and threaded substrates.
/// assert_eq!(c.comm().upstream_words, 2);
/// ```
pub type SocketCluster<L> = FrameCluster<L, TcpStream>;

/// The threaded substrate: one server thread per non-coordinator local
/// state, reached over in-process [`Pipe`]s.
///
/// ```
/// use dlra_comm::Collectives;
/// use dlra_net::ThreadedCluster;
/// let mut c = ThreadedCluster::new(vec![vec![1.0f64, 2.0], vec![3.0, 4.0]]);
/// let sums = c.gather("demo", |_t, local: &mut Vec<f64>| local.iter().sum::<f64>());
/// assert_eq!(sums, vec![3.0, 7.0]);
/// // One upstream message of one word (+1 frame) was charged, as on the
/// // sequential simulator, and its frame was counted on the pipe.
/// assert_eq!(c.comm().upstream_words, 2);
/// assert_eq!(c.wire_stats().data_frames, 1);
/// ```
pub type ThreadedCluster<L> = FrameCluster<L, Pipe>;

impl<L: Send + 'static, S: Link> FrameCluster<L, S> {
    /// Starts one server thread per non-coordinator local state (server
    /// `0`'s state is the coordinator's own, as in the paper's star
    /// model). Reductions route over the default [`Topology::Star`].
    pub fn new(locals: Vec<L>) -> Self {
        Self::with_topology(locals, Topology::Star)
    }

    /// Like [`FrameCluster::new`] but routing reduction collectives over
    /// `topology`: under a tree, servers combine partial results and
    /// forward them to their tree parent over server → server links, so
    /// the coordinator's inbox shrinks from `s − 1` messages to one per
    /// tree level. Results stay bit-identical — the merge order is fixed
    /// by the server count.
    pub fn with_topology(locals: Vec<L>, topology: Topology) -> Self {
        Self::with_options(locals, topology, WireCounters::shared())
    }

    /// Full-control constructor: inject shared [`WireCounters`] so a test
    /// or bench can observe every byte the cluster puts on its links.
    pub fn with_options(locals: Vec<L>, topology: Topology, counters: Arc<WireCounters>) -> Self {
        // Construction-time contract, identical to the sequential substrate
        // (`assert!` is outside the panic-policy pattern set by design:
        // contract checks are welcome).
        assert!(!locals.is_empty(), "cluster needs at least one server");
        let states: Vec<Arc<Mutex<L>>> = locals
            .into_iter()
            .map(|l| Arc::new(Mutex::new(l)))
            .collect();
        let registry = Arc::new(JobRegistry::new());
        let (links, threads) = S::start_servers(&states, topology, &registry, &counters);
        FrameCluster {
            states,
            links,
            registry,
            counters,
            ledger: Ledger::new(),
            topology,
            threads,
        }
    }

    /// The shared byte counters (same set every server thread charges).
    pub fn counters(&self) -> &Arc<WireCounters> {
        &self.counters
    }

    /// Snapshot of bytes on the links so far.
    pub fn wire_stats(&self) -> WireStats {
        self.counters.snapshot()
    }

    /// A `comm.<collective>` trace span named by the ledger label.
    fn span(&self, collective: &'static str, label: &'static str) -> trace::Span {
        trace::span(collective, label).arg("servers", self.states.len() as u64)
    }

    /// Runs a job step against the coordinator's own local state through
    /// the same byte-level path and kernel-thread share the servers use.
    fn run_own<R>(&self, f: impl FnOnce(&mut L) -> Result<R, NetError>) -> R {
        let share = (dlra_linalg::threads() / self.states.len()).max(1);
        dlra_linalg::with_threads(share, || f(&mut self.states[0].lock_recover()))
            // dlra-allow(panic-policy): the coordinator's own job steps only
            // fail on codec bugs, which are unrecoverable mid-collective —
            // the same as a dead server.
            .expect("coordinator-side job step")
    }

    /// Opens a round in which every server `1..s` receives one request of
    /// `words` words.
    fn charge_requests(&self, words: u64, label: &'static str) {
        self.ledger.next_round();
        for t in 1..self.states.len() {
            self.ledger.charge(t, Direction::Downstream, words, label);
        }
    }

    /// Registers `job` and sends every server `1..s` one `msg_type` frame:
    /// a charged data frame carrying `payload`, or a free trigger without
    /// one (like handing a closure to a worker thread).
    fn fan_out(
        &mut self,
        job: &Arc<dyn NetJob<L>>,
        msg_type: MsgType,
        payload: Option<&Encoded>,
    ) -> u64 {
        let job_id = self.registry.register(Arc::clone(job));
        for t in 1..self.states.len() {
            let mut frame = Frame::control(msg_type, 0, job_id);
            if let Some((desc, body)) = payload {
                frame.desc = desc.clone();
                frame.body = body.clone();
                if msg_type == MsgType::RunReduce {
                    frame.flags |= FLAG_HAS_REQUEST;
                }
            }
            self.send_to(t, &frame);
        }
        job_id
    }

    fn send_to(&mut self, t: usize, frame: &Frame) {
        send_frame(&mut self.links[t - 1], &self.counters, frame)
            // dlra-allow(panic-policy): a dead server mid-protocol is
            // unrecoverable for this query; the executor unwinds and the
            // ticket resolves to RuntimeUnavailable.
            .expect("server link closed mid-collective");
    }

    fn recv_from(&mut self, t: usize, expected: MsgType, job_id: u64) -> Frame {
        Frame::read_from(&mut self.links[t - 1])
            .and_then(|frame| validate_reply(t, frame, expected, job_id))
            // dlra-allow(panic-policy): a closed link, a server's error
            // report or a mis-sequenced frame is unrecoverable
            // mid-collective; see `send_to`.
            .unwrap_or_else(|e| panic!("server {t}: {e}"))
    }

    /// Fans in one `expected` frame per server `1..s`, in server-index
    /// order, and retires the job.
    fn fan_in(&mut self, expected: MsgType, job_id: u64) -> Vec<Frame> {
        let frames = (1..self.states.len())
            .map(|t| self.recv_from(t, expected, job_id))
            .collect();
        self.registry.remove(job_id);
        frames
    }

    /// The coordinator's own block followed by every server's reply, in
    /// server-index order, each reply charged upstream.
    fn replies<T: Wire>(&mut self, own: Encoded, job_id: u64, label: &'static str) -> Vec<T> {
        let frames = self.fan_in(MsgType::Reply, job_id);
        let mut out = Vec::with_capacity(frames.len() + 1);
        out.push(decode_block(0, &own.0, &own.1));
        for (i, frame) in frames.iter().enumerate() {
            let reply: T = decode_block(i + 1, &frame.desc, &frame.body);
            self.ledger
                .charge(i + 1, Direction::Upstream, reply.words(), label);
            out.push(reply);
        }
        out
    }

    /// Drives the root side of a topology-routed reduction, charges the
    /// canonical transcript, and retires the job.
    fn reduce_at_root<T: Wire>(
        &mut self,
        job: &dyn NetJob<L>,
        job_id: u64,
        own: Encoded,
        label: &'static str,
        first_round_started: bool,
    ) -> T {
        let plan = TopologyPlan::new(self.topology, self.states.len());
        let (block, log) = root_reduce(job, job_id, own, &plan, &mut self.links)
            // dlra-allow(panic-policy): see `recv_from`.
            .unwrap_or_else(|e| panic!("reduction failed mid-collective: {e}"));
        self.registry.remove(job_id);
        charge_reduce(&self.ledger, &plan, &log, label, first_round_started)
            // dlra-allow(panic-policy): the reduction above logged every
            // edge it absorbed; a missing record is a plan violation,
            // which is unrecoverable.
            .expect("hop record for every plan edge");
        decode_block(0, &block.0, &block.1)
    }
}

impl<L: Send + 'static, S: Link> Collectives<L> for FrameCluster<L, S> {
    fn num_servers(&self) -> usize {
        self.states.len()
    }

    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn with_local<R>(&self, t: usize, f: impl FnOnce(&L) -> R) -> R {
        f(&self.states[t].lock_recover())
    }

    fn with_local_mut<R>(&mut self, t: usize, f: impl FnOnce(&mut L) -> R) -> R {
        f(&mut self.states[t].lock_recover())
    }

    fn broadcast<T, F>(&mut self, msg: &T, label: &'static str, on_receive: F)
    where
        T: Wire + Clone + Send + 'static,
        F: Fn(usize, &mut L, &T) + Send + Sync + 'static,
    {
        let _span = self.span("comm.broadcast", label);
        self.charge_requests(msg.words(), label);
        let job: Arc<dyn NetJob<L>> = Arc::new(BroadcastJob::new(on_receive));
        let message = encode_value(msg);
        let job_id = self.fan_out(&job, MsgType::Broadcast, Some(&message));
        // The coordinator's own state observes the message through the
        // same decode path the servers use — bit-identical by the codec.
        self.run_own(|local| job.deliver(0, local, &message.0, &message.1));
        self.fan_in(MsgType::Ack, job_id);
    }

    fn gather<T, F>(&mut self, label: &'static str, compute: F) -> Vec<T>
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
    {
        let _span = self.span("comm.gather", label);
        self.ledger.next_round();
        let job: Arc<dyn NetJob<L>> = Arc::new(GatherJob::new(compute));
        let job_id = self.fan_out(&job, MsgType::RunGather, None);
        let own = self.run_own(|local| job.make_block(0, local, None));
        self.replies(own, job_id, label)
    }

    fn query_all<Q, T, F>(&mut self, request: &Q, label: &'static str, compute: F) -> Vec<T>
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
    {
        let _span = self.span("comm.query_all", label);
        self.charge_requests(request.words(), label);
        let job: Arc<dyn NetJob<L>> = Arc::new(QueryJob::new(compute));
        let request = encode_value(request);
        let job_id = self.fan_out(&job, MsgType::Query, Some(&request));
        let own = self.run_own(|local| job.make_block(0, local, Some((&request.0, &request.1))));
        self.replies(own, job_id, label)
    }

    fn query_server<Q, T, F>(&mut self, t: usize, request: &Q, label: &'static str, compute: F) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: FnOnce(&mut L, &Q) -> T + Send + 'static,
    {
        let _span = trace::span("comm.query_server", label).arg("server", t as u64);
        let job = QueryServerJob::new(compute);
        let (desc, body) = encode_value(request);
        if t == 0 {
            // Coordinator ↔ its own state: free, but still through the
            // byte path so results can't depend on the substrate.
            let own =
                self.run_own(|local| NetJob::<L>::make_block(&job, 0, local, Some((&desc, &body))));
            return decode_block(0, &own.0, &own.1);
        }
        self.ledger
            .charge(t, Direction::Downstream, request.words(), label);
        let job_id = self.registry.register(Arc::new(job));
        self.send_to(t, &Frame::data(MsgType::QueryServer, 0, job_id, desc, body));
        let frame = self.recv_from(t, MsgType::Reply, job_id);
        self.registry.remove(job_id);
        let reply: T = decode_block(t, &frame.desc, &frame.body);
        self.ledger
            .charge(t, Direction::Upstream, reply.words(), label);
        reply
    }

    fn aggregate_topo<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let _span = self.span("comm.aggregate_topo", label);
        let job: Arc<dyn NetJob<L>> = Arc::new(ReduceJob::new(compute, merge));
        let job_id = self.fan_out(&job, MsgType::RunReduce, None);
        let own = self.run_own(|local| job.make_block(0, local, None));
        self.reduce_at_root(job.as_ref(), job_id, own, label, false)
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
        let _span = self.span("comm.query_aggregate", label);
        self.charge_requests(request.words(), label);
        let job: Arc<dyn NetJob<L>> = Arc::new(QueryReduceJob::new(compute, merge));
        let request = encode_value(request);
        // The down-sweep request rides the reduce trigger: one charged data
        // frame per server, exactly the message the ledger just recorded.
        let job_id = self.fan_out(&job, MsgType::RunReduce, Some(&request));
        let own = self.run_own(|local| job.make_block(0, local, Some((&request.0, &request.1))));
        self.reduce_at_root(job.as_ref(), job_id, own, label, true)
    }
}

impl<L, S: Link> Drop for FrameCluster<L, S> {
    fn drop(&mut self) {
        let shutdown = Frame::control(MsgType::Shutdown, 0, 0);
        for link in &mut self.links {
            // Counted like every other frame. The server may already be
            // gone; shutdown is best-effort and Drop must not panic.
            let _ = send_frame(link, &self.counters, &shutdown);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Decodes a block produced by this job's encoder on server `t` (`0`: the
/// coordinator's own).
fn decode_block<T: Wire>(t: usize, desc: &[u8], body: &[u8]) -> T {
    decode_value(desc, body)
        // dlra-allow(panic-policy): a malformed block means the server and
        // coordinator disagree on the codec, which is unrecoverable
        // mid-collective.
        .unwrap_or_else(|e| panic!("decode block from server {t}: {e}"))
}

/// Checks that server `t` sent the `expected` frame for `job_id`,
/// surfacing the server's own diagnostics when it reported an error.
pub(crate) fn validate_reply(
    t: usize,
    frame: Frame,
    expected: MsgType,
    job_id: u64,
) -> Result<Frame, NetError> {
    if frame.msg_type == MsgType::Error {
        return Err(decode_error_frame(&frame));
    }
    if frame.msg_type != expected || frame.job_id != job_id {
        return Err(NetError::Protocol {
            what: "unexpected reply frame",
            detail: format!(
                "server {t}: {:?} job {} (wanted {expected:?} job {job_id})",
                frame.msg_type, frame.job_id
            ),
        });
    }
    Ok(frame)
}

/// Accepts `s − 1` server dial-ins, assembles the roster **ordered by each
/// server's advertised id** (deterministic regardless of connection
/// order), distributes it, and waits for every server's Ready. Returns
/// the coordinator ↔ server links indexed `t − 1`.
pub(crate) fn bootstrap_coordinator(
    listener: &TcpListener,
    s: usize,
    topology: Topology,
    counters: &WireCounters,
) -> Result<Vec<TcpStream>, NetError> {
    let mut slots: Vec<Option<(TcpStream, u16)>> = (0..s).map(|_| None).collect();
    for _ in 1..s {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let hello = Frame::read_from(&mut stream)?;
        if hello.msg_type != MsgType::Hello {
            return Err(NetError::Protocol {
                what: "expected hello",
                detail: format!("got {:?}", hello.msg_type),
            });
        }
        let id = hello.seq as usize;
        if id == 0 || id >= s {
            return Err(NetError::Protocol {
                what: "server id out of range",
                detail: format!("id {id}, s {s}"),
            });
        }
        if slots[id].is_some() {
            return Err(NetError::Protocol {
                what: "duplicate server id",
                detail: format!("id {id}"),
            });
        }
        if hello.desc.len() != 2 {
            return Err(NetError::Truncated {
                what: "hello peer port",
                needed: 2,
                have: hello.desc.len(),
            });
        }
        let port = u16::from_le_bytes([hello.desc[0], hello.desc[1]]);
        slots[id] = Some((stream, port));
    }
    let mut links = Vec::with_capacity(s - 1);
    let mut peer_ports = vec![0u16; s];
    for (id, slot) in slots.into_iter().enumerate().skip(1) {
        let (stream, port) = slot.ok_or(NetError::Protocol {
            what: "missing server",
            detail: format!("id {id} never dialed in"),
        })?;
        peer_ports[id] = port;
        links.push(stream);
    }
    let roster = Roster {
        servers: s as u32,
        topology,
        peer_ports,
    }
    .to_frame();
    for link in &mut links {
        send_frame(link, counters, &roster)?;
    }
    for (i, link) in links.iter_mut().enumerate() {
        let ready = Frame::read_from(link)?;
        if ready.msg_type == MsgType::Error {
            return Err(decode_error_frame(&ready));
        }
        if ready.msg_type != MsgType::Ready {
            return Err(NetError::Protocol {
                what: "expected ready",
                detail: format!("server {}: got {:?}", i + 1, ready.msg_type),
            });
        }
    }
    Ok(links)
}

/// The root's side of a topology-routed reduction: absorbs hop blocks
/// round by round from the links of servers whose receiver is `0`, and
/// returns the merged block with one hop record per plan edge.
pub(crate) fn root_reduce<L, S: Read>(
    job: &dyn NetJob<L>,
    job_id: u64,
    own: Encoded,
    plan: &TopologyPlan,
    links: &mut [S],
) -> Result<(Encoded, Vec<HopRecord>), NetError> {
    let mut log = Vec::new();
    let mut block = own;
    for (h, round) in plan.rounds().iter().enumerate() {
        block = absorb_round(job, job_id, 0, (h, round), block, &mut log, |q| {
            Frame::read_from(&mut links[q - 1])
        })?;
    }
    Ok((block, log))
}

/// Replays the reference charging loop over a completed reduction's hop
/// records: per round, `next_round` (unless the collective already opened
/// round 0), then every hop in canonical plan order — the exact transcript
/// of `dlra-comm`'s sequential `reduce_blocks`.
pub(crate) fn charge_reduce(
    ledger: &Ledger,
    plan: &TopologyPlan,
    log: &[HopRecord],
    label: &'static str,
    first_round_started: bool,
) -> Result<(), NetError> {
    let words: BTreeMap<(u32, u32), u64> = log
        .iter()
        .map(|rec| ((rec.round, rec.sender), rec.words))
        .collect();
    for (h, round) in plan.rounds().iter().enumerate() {
        if h > 0 || !first_round_started {
            ledger.next_round();
        }
        for hop in &round.hops {
            let hop_words =
                *words
                    .get(&(h as u32, hop.sender as u32))
                    .ok_or(NetError::Protocol {
                        what: "missing hop record",
                        detail: format!("round {h}, sender {}", hop.sender),
                    })?;
            ledger.charge_hop(
                hop.sender,
                hop.receiver,
                Direction::Upstream,
                hop_words,
                label,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    //! Checks generic over the link. Where [`crate::threaded`]'s tests run
    //! a check on the pipe link, the test here runs it on the socket link;
    //! the rest run on both links here.

    use super::*;
    use dlra_comm::ledger::FRAME_WORDS;
    use dlra_comm::Cluster;
    use std::any::type_name;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn locals(s: usize, len: usize) -> Vec<Vec<f64>> {
        (0..s).map(|t| vec![t as f64; len]).collect()
    }

    /// A protocol exercising every collective, written once against the
    /// trait and run on every substrate.
    fn protocol<C: Collectives<Vec<f64>>>(c: &mut C) -> Vec<f64> {
        c.broadcast(&1.5f64, "p.bcast", |_t, local, &m| {
            for x in local.iter_mut() {
                *x += m;
            }
        });
        let mut out = c.gather("p.gather", |t, local| local[0] * (t + 1) as f64);
        let total = c.aggregate(
            "p.agg",
            |_t, local| local.iter().sum::<f64>(),
            |acc, r| *acc += r,
        );
        out.push(total);
        let picked = c.query_all(&2usize, "p.qa", |t, local, &j| local[j] + t as f64);
        out.extend(picked);
        let target = 1 % c.num_servers();
        out.push(c.query_server(target, &0usize, "p.qs", |local, &j| local[j]));
        out.push(c.aggregate_topo(
            "p.at",
            |t, local| local[0] * (t as f64 + 0.25),
            |acc, r| *acc += r,
        ));
        out.push(c.query_aggregate(
            &1usize,
            "p.qat",
            |t, local, &j| local[j] + (t as f64).sqrt(),
            |acc, r| *acc += r,
        ));
        out
    }

    /// Runs `protocol` on the sequential reference and on link `S` at every
    /// size in `sizes`, requiring identical bits and ledgers.
    pub(crate) fn matches_sequential<S: Link>(topology: Topology, sizes: &[usize]) {
        for &s in sizes {
            let mut seq = Cluster::with_topology(locals(s, 4), topology);
            let mut frames = FrameCluster::<_, S>::with_topology(locals(s, 4), topology);
            let link = type_name::<S>();
            assert_eq!(
                protocol(&mut seq),
                protocol(&mut frames),
                "results diverge at s = {s} on {link}"
            );
            assert_eq!(
                Collectives::comm(&seq),
                Collectives::comm(&frames),
                "ledgers diverge at s = {s} on {link}"
            );
        }
    }

    /// A gather returns replies in server order and charges one upstream
    /// message per non-coordinator server in one round.
    pub(crate) fn gather_charges_like_reference_on<S: Link>() {
        let mut c = FrameCluster::<_, S>::new(locals(3, 1));
        let replies = c.gather("g", |t, local: &mut Vec<f64>| local[0] + t as f64);
        assert_eq!(replies, vec![0.0, 2.0, 4.0]);
        assert_eq!(c.comm().upstream_words, 2 * (1 + FRAME_WORDS));
        assert_eq!(c.comm().messages, 2);
        assert_eq!(c.comm().rounds, 1);
    }

    /// Local access outside collectives charges no words and sends no
    /// data frame.
    pub(crate) fn with_local_mut_is_free_on<S: Link>() {
        let mut c = FrameCluster::<_, S>::new(locals(2, 1));
        c.with_local_mut(1, |l| l[0] = 42.0);
        assert_eq!(c.with_local(1, |l| l[0]), 42.0);
        assert_eq!(c.comm().total_words(), 0);
        assert_eq!(c.wire_stats().data_frames, 0, "on {}", type_name::<S>());
    }

    /// A local state that counts how many times it was dropped.
    struct Tracked(Arc<AtomicUsize>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Dropping a cluster must not hang or panic. Every shutdown frame is
    /// counted, and every server thread has been joined: no server still
    /// holds its state once the drop returns.
    pub(crate) fn drop_shuts_servers_down_on<S: Link>() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let states = (0..4).map(|_| Tracked(Arc::clone(&dropped))).collect();
        let c = FrameCluster::<_, S>::new(states);
        let counters = Arc::clone(c.counters());
        let before = counters.snapshot();
        drop(c);
        let after = counters.snapshot().since(&before);
        let link = type_name::<S>();
        assert_eq!(after.control_frames, 3, "on {link}");
        assert_eq!(after.control_bytes, 3 * 24);
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            4,
            "server states outlived the cluster on {link}"
        );
    }

    #[test]
    fn matches_sequential_cluster_bit_for_bit() {
        matches_sequential::<TcpStream>(Topology::Star, &[1, 2, 4, 8]);
    }

    #[test]
    fn tree_routing_matches_sequential_tree_bit_for_bit() {
        matches_sequential::<TcpStream>(Topology::Tree { fanout: 2 }, &[1, 2, 4, 8, 9, 13]);
    }

    #[test]
    fn tree_reduction_matches_star_values_with_smaller_root_inbox() {
        fn check<S: Link>() {
            for s in [4usize, 8, 9] {
                let mut star = FrameCluster::<_, S>::new(locals(s, 2));
                let mut tree =
                    FrameCluster::<_, S>::with_topology(locals(s, 2), Topology::Tree { fanout: 2 });
                let a = star.aggregate_topo("t", |t, l| l[0] + t as f64, |acc, r| *acc += r);
                let b = tree.aggregate_topo("t", |t, l| l[0] + t as f64, |acc, r| *acc += r);
                assert_eq!(a.to_bits(), b.to_bits(), "s = {s}");
                let (sc, tc) = (star.comm(), tree.comm());
                assert_eq!(sc.total_words(), tc.total_words(), "s = {s}");
                assert_eq!(sc.messages, tc.messages, "s = {s}");
                assert!(
                    tc.root_inbox_messages < sc.root_inbox_messages,
                    "s = {s} on {}: tree inbox {} vs star {}",
                    type_name::<S>(),
                    tc.root_inbox_messages,
                    sc.root_inbox_messages
                );
            }
        }
        check::<TcpStream>();
        check::<Pipe>();
    }

    #[test]
    fn gather_charges_like_reference() {
        gather_charges_like_reference_on::<TcpStream>();
    }

    #[test]
    fn broadcast_reaches_every_worker() {
        fn check<S: Link>() {
            let mut c = FrameCluster::<_, S>::new(locals(4, 2));
            c.broadcast(&7.5f64, "b", |_t, local, &m| local.push(m));
            for t in 0..4 {
                assert_eq!(
                    c.with_local(t, |l| l.clone()),
                    vec![t as f64, t as f64, 7.5]
                );
            }
            assert_eq!(c.comm().downstream_words, 3 * (1 + FRAME_WORDS));
            assert_eq!(c.comm().upstream_words, 0);
        }
        check::<TcpStream>();
        check::<Pipe>();
    }

    #[test]
    fn every_data_frame_is_a_ledger_message() {
        fn check<S: Link>() {
            let mut c = FrameCluster::<_, S>::new(locals(4, 4));
            protocol(&mut c);
            let stats = c.wire_stats();
            let comm = c.comm();
            assert_eq!(stats.data_frames, comm.messages, "frames vs messages");
            assert_eq!(
                stats.data_body_words() + FRAME_WORDS * stats.data_frames,
                comm.total_words(),
                "body words vs ledger words"
            );
        }
        check::<TcpStream>();
        check::<Pipe>();
    }

    #[test]
    fn with_local_mut_is_free() {
        with_local_mut_is_free_on::<TcpStream>();
    }

    #[test]
    fn workers_run_concurrently() {
        // Each server sleeps 40 ms; if execution were serialized the
        // collective would take ≥ 320 ms.
        fn check<S: Link>() {
            let mut c = FrameCluster::<_, S>::new(locals(8, 1));
            let start = Instant::now();
            let replies = c.gather("sleep", |t, _local| {
                std::thread::sleep(Duration::from_millis(40));
                t as f64
            });
            let elapsed = start.elapsed();
            assert_eq!(replies.len(), 8);
            assert!(
                elapsed < Duration::from_millis(300),
                "collective did not parallelize on {}: {elapsed:?}",
                type_name::<S>()
            );
        }
        check::<TcpStream>();
        check::<Pipe>();
    }

    #[test]
    fn drop_shuts_servers_down_cleanly() {
        drop_shuts_servers_down_on::<TcpStream>();
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = SocketCluster::<Vec<f64>>::new(vec![]);
    }
}
