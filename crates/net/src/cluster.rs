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
//! That exchange lives in one place, the `Coordinator` core: it charges
//! the requests, fans triggers out and replies in, runs the single-server
//! round trip and the root side of a reduction, and steps the
//! coordinator's own state through the same [`NetJob`] its servers run.
//! Every operation returns a typed [`NetError`]. [`FrameCluster`] runs its
//! [`Collectives`] on it, and so does the multi-process
//! [`RemoteCoordinator`](crate::remote::RemoteCoordinator).
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
use crate::registry::{Encoded, JobRegistry, JobResolver, NetJob};
use dlra_comm::ledger::Direction;
use dlra_comm::wire::{decode_value, encode_value, Wire};
use dlra_comm::{Collectives, Ledger, Topology, TopologyPlan};
use dlra_obs::trace;
use dlra_util::sync::MutexExt;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
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

/// A collective's request: its encoding and the payload words the ledger
/// charges for each copy sent.
pub(crate) struct Request {
    desc: Vec<u8>,
    body: Vec<u8>,
    words: u64,
}

impl Request {
    pub(crate) fn new<Q: Wire>(request: &Q) -> Self {
        let (desc, body) = encode_value(request);
        let words = request.words();
        Request { desc, body, words }
    }
}

/// One collective as the [`Coordinator`] runs it.
pub(crate) struct Call<'a, L> {
    /// The id in every frame's header.
    pub(crate) job_id: u64,
    /// The op code in every trigger's `seq`: `0` on loopback, where
    /// servers resolve jobs by id.
    pub(crate) op: u32,
    /// The job the servers run, and the coordinator's own state steps
    /// through.
    pub(crate) job: &'a NetJob<L>,
    /// The coordinator's own local state (server `0`).
    pub(crate) own: &'a mut L,
}

/// The coordinator's half of the frame protocol: its links to servers
/// `1..s` (indexed `t − 1`), the byte counters every send charges, and
/// the ledger. Every operation returns a typed [`NetError`].
pub(crate) struct Coordinator<S> {
    pub(crate) links: Vec<S>,
    pub(crate) counters: Arc<WireCounters>,
    pub(crate) ledger: Ledger,
    topology: Topology,
}

impl<S: Read + Write> Coordinator<S> {
    pub(crate) fn new(links: Vec<S>, counters: Arc<WireCounters>, topology: Topology) -> Self {
        Coordinator {
            links,
            counters,
            ledger: Ledger::new(),
            topology,
        }
    }

    /// The server count `s`, the coordinator included.
    fn servers(&self) -> usize {
        self.links.len() + 1
    }

    /// Broadcast: every server `1..s` receives `message`, charged, and
    /// acks once it has observed it; so does the coordinator's own state.
    pub(crate) fn broadcast<L>(
        &mut self,
        call: Call<'_, L>,
        message: &Request,
        label: &'static str,
    ) -> Result<(), NetError> {
        self.fan_out_in(call, Some(message), label, MsgType::Ack)
            .map(drop)
    }

    /// Gather (no request) or `query_all`: every server's block, the
    /// coordinator's own first, in server-index order, each reply charged
    /// upstream.
    pub(crate) fn gather<L, T: Wire>(
        &mut self,
        call: Call<'_, L>,
        request: Option<&Request>,
        label: &'static str,
    ) -> Result<Vec<T>, NetError> {
        let (own, frames) = self.fan_out_in(call, request, label, MsgType::Reply)?;
        let mut out = vec![decode_value(&own.0, &own.1)?];
        for (i, frame) in frames.iter().enumerate() {
            out.push(self.charge_reply(i + 1, frame, label)?);
        }
        Ok(out)
    }

    /// The round trip to server `t` alone; with `t = 0` the coordinator's
    /// own state answers, free but through the same byte path.
    pub(crate) fn query_server<L, T: Wire>(
        &mut self,
        t: usize,
        mut call: Call<'_, L>,
        request: &Request,
        label: &'static str,
    ) -> Result<T, NetError> {
        if t == 0 {
            let (desc, body) = self.step_own(&mut call, Some(request))?;
            return Ok(decode_value(&desc, &body)?);
        }
        if t >= self.servers() {
            return Err(NetError::Protocol {
                what: "server out of range",
                detail: format!("t {t}"),
            });
        }
        self.ledger
            .charge(t, Direction::Downstream, request.words, label);
        self.fan_out(&call, Some(request), t..t + 1)?;
        let frame = self.recv(t, MsgType::Reply, call.job_id)?;
        self.charge_reply(t, &frame, label)
    }

    /// The root side of a topology-routed reduction (`aggregate_topo`
    /// without a request, `query_aggregate` with one): absorbs hop blocks
    /// round by round from the servers whose receiver is `0`, charges the
    /// canonical transcript, and returns the merged block.
    pub(crate) fn reduce<L, T: Wire>(
        &mut self,
        mut call: Call<'_, L>,
        request: Option<&Request>,
        label: &'static str,
    ) -> Result<T, NetError> {
        if request.is_some() {
            self.open_round(request, label);
        }
        self.fan_out(&call, request, 1..self.servers())?;
        let mut block = self.step_own(&mut call, request)?;
        let plan = TopologyPlan::new(self.topology, self.servers());
        let mut log = Vec::new();
        for (h, round) in plan.rounds().iter().enumerate() {
            block = absorb_round(call.job, call.job_id, 0, (h, round), block, &mut log, |q| {
                Frame::read_from(&mut self.links[q - 1])
            })?;
        }
        charge_reduce(&self.ledger, &plan, &log, label, request.is_some())?;
        Ok(decode_value(&block.0, &block.1)?)
    }

    /// Sends every server a shutdown frame, counted like every other
    /// frame. A server may already be gone, so failures are ignored.
    pub(crate) fn send_shutdown(&mut self) {
        let shutdown = Frame::control(MsgType::Shutdown, 0, 0);
        for link in &mut self.links {
            let _ = send_frame(link, &self.counters, &shutdown);
        }
    }

    /// Opens a round, charging every server `1..s` one message of the
    /// request's words when there is one.
    fn open_round(&self, request: Option<&Request>, label: &'static str) {
        self.ledger.next_round();
        if let Some(request) = request {
            for t in 1..self.servers() {
                self.ledger
                    .charge(t, Direction::Downstream, request.words, label);
            }
        }
    }

    /// Sends servers `to` the job's trigger: a charged data frame carrying
    /// `request`, or a free trigger without one (like handing a closure to
    /// a worker thread).
    fn fan_out<L>(
        &mut self,
        call: &Call<'_, L>,
        request: Option<&Request>,
        to: Range<usize>,
    ) -> Result<(), NetError> {
        let msg_type = call.job.kind().trigger(request.is_some());
        let mut frame = Frame::control(msg_type, call.op, call.job_id);
        if let Some(request) = request {
            frame.desc.clone_from(&request.desc);
            frame.body.clone_from(&request.body);
            if msg_type == MsgType::RunReduce {
                frame.flags |= FLAG_HAS_REQUEST;
            }
        }
        for t in to {
            send_frame(&mut self.links[t - 1], &self.counters, &frame)?;
        }
        Ok(())
    }

    /// Decodes server `t`'s reply and charges it upstream.
    fn charge_reply<T: Wire>(
        &self,
        t: usize,
        frame: &Frame,
        label: &'static str,
    ) -> Result<T, NetError> {
        let reply: T = decode_value(&frame.desc, &frame.body)?;
        self.ledger
            .charge(t, Direction::Upstream, reply.words(), label);
        Ok(reply)
    }

    /// Opens the round, fans the trigger out, steps the coordinator's own
    /// state, and fans in one `expected` frame per server, in server-index
    /// order.
    fn fan_out_in<L>(
        &mut self,
        mut call: Call<'_, L>,
        request: Option<&Request>,
        label: &'static str,
        expected: MsgType,
    ) -> Result<(Encoded, Vec<Frame>), NetError> {
        self.open_round(request, label);
        self.fan_out(&call, request, 1..self.servers())?;
        let own = self.step_own(&mut call, request)?;
        let frames = (1..self.servers())
            .map(|t| self.recv(t, expected, call.job_id))
            .collect::<Result<_, _>>()?;
        Ok((own, frames))
    }

    /// Steps the coordinator's own state through the job, with the kernel
    /// thread share every server gets.
    fn step_own<L>(
        &self,
        call: &mut Call<'_, L>,
        request: Option<&Request>,
    ) -> Result<Encoded, NetError> {
        let (desc, body) = request.map_or((&[][..], &[][..]), |r| (&r.desc[..], &r.body[..]));
        let share = (dlra_linalg::threads() / self.servers()).max(1);
        dlra_linalg::with_threads(share, || (call.job.step)(0, call.own, desc, body))
    }

    /// Reads server `t`'s next frame, which must be the `expected` frame
    /// for `job_id`; a server's error report surfaces as its diagnostics.
    fn recv(&mut self, t: usize, expected: MsgType, job_id: u64) -> Result<Frame, NetError> {
        let frame = Frame::read_from(&mut self.links[t - 1])?;
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
    core: Coordinator<S>,
    registry: Arc<JobRegistry<L>>,
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
            core: Coordinator::new(links, counters, topology),
            registry,
            threads,
        }
    }

    /// The shared byte counters (same set every server thread charges).
    pub fn counters(&self) -> &Arc<WireCounters> {
        &self.core.counters
    }

    /// Snapshot of bytes on the links so far.
    pub fn wire_stats(&self) -> WireStats {
        self.core.counters.snapshot()
    }

    /// A `comm.<collective>` trace span named by the ledger label.
    fn span(&self, collective: &'static str, label: &'static str) -> trace::Span {
        trace::span(collective, label).arg("servers", self.states.len() as u64)
    }

    /// Runs one collective on the coordinator core: registers `job` for
    /// the servers to resolve by id, runs `exchange` with the
    /// coordinator's own state, and retires the job.
    fn run<R>(
        &mut self,
        job: NetJob<L>,
        exchange: impl FnOnce(&mut Coordinator<S>, Call<'_, L>) -> Result<R, NetError>,
    ) -> R {
        let job = Arc::new(job);
        let job_id = self.registry.register(Arc::clone(&job));
        // The guard on the coordinator's own state ends with the exchange,
        // before the unwind below can poison it.
        let result = exchange(
            &mut self.core,
            Call {
                job_id,
                op: 0,
                job: &job,
                own: &mut self.states[0].lock_recover(),
            },
        );
        self.registry.remove(job_id);
        result
            // dlra-allow(panic-policy): `Collectives` returns bare values, so
            // a collective that fails mid-protocol (a closed link, a
            // server's error report, a mis-sequenced or undecodable frame)
            // unwinds here; the executor unwinds and the ticket resolves
            // to RuntimeUnavailable.
            .unwrap_or_else(|e| panic!("collective failed mid-protocol: {e}"))
    }
}

impl<L: Send + 'static, S: Link> Collectives<L> for FrameCluster<L, S> {
    fn num_servers(&self) -> usize {
        self.states.len()
    }

    fn ledger(&self) -> &Ledger {
        &self.core.ledger
    }

    fn topology(&self) -> Topology {
        self.core.topology
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
        let message = Request::new(msg);
        self.run(NetJob::broadcast(on_receive), |core, call| {
            core.broadcast(call, &message, label)
        })
    }

    fn gather<T, F>(&mut self, label: &'static str, compute: F) -> Vec<T>
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
    {
        let _span = self.span("comm.gather", label);
        let job = NetJob::reply(move |t, local, &(): &()| compute(t, local));
        self.run(job, |core, call| core.gather(call, None, label))
    }

    fn query_all<Q, T, F>(&mut self, request: &Q, label: &'static str, compute: F) -> Vec<T>
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L, &Q) -> T + Send + Sync + 'static,
    {
        let _span = self.span("comm.query_all", label);
        let request = Request::new(request);
        self.run(NetJob::reply(compute), |core, call| {
            core.gather(call, Some(&request), label)
        })
    }

    fn query_server<Q, T, F>(&mut self, t: usize, request: &Q, label: &'static str, compute: F) -> T
    where
        Q: Wire + Clone + Send + 'static,
        T: Wire + Send + 'static,
        F: FnOnce(&mut L, &Q) -> T + Send + 'static,
    {
        let _span = trace::span("comm.query_server", label).arg("server", t as u64);
        let request = Request::new(request);
        self.run(NetJob::reply_once(compute), |core, call| {
            core.query_server(t, call, &request, label)
        })
    }

    fn aggregate_topo<T, F, M>(&mut self, label: &'static str, compute: F, merge: M) -> T
    where
        T: Wire + Send + 'static,
        F: Fn(usize, &mut L) -> T + Send + Sync + 'static,
        M: Fn(&mut T, T) + Send + Sync + 'static,
    {
        let _span = self.span("comm.aggregate_topo", label);
        let job = NetJob::reduce(move |t, local, &(): &()| compute(t, local), merge);
        self.run(job, |core, call| core.reduce(call, None, label))
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
        // The down-sweep request rides the reduce trigger: one charged data
        // frame per server, exactly the message the ledger records.
        let request = Request::new(request);
        self.run(NetJob::reduce(compute, merge), |core, call| {
            core.reduce(call, Some(&request), label)
        })
    }
}

impl<L, S: Link> Drop for FrameCluster<L, S> {
    fn drop(&mut self) {
        self.core.send_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
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

/// Replays the reference charging loop over a completed reduction's hop
/// records: per round, `next_round` (unless the collective already opened
/// round 0), then every hop in canonical plan order — the exact transcript
/// of `dlra-comm`'s sequential `reduce_blocks`.
fn charge_reduce(
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
