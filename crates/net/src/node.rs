//! The server-side event loop: one of the paper's `s` servers as a network
//! participant.
//!
//! A node serves collective frames from the coordinator until shutdown.
//! Each frame resolves to a [`NetJob`] whose kind decides the answer: an
//! ack, a reply, or, during a topology-routed reduction, a
//! [`MsgType::HopBlock`] exchanged directly with its tree peers — server →
//! server traffic that never touches the coordinator, mirroring the plan's
//! edges one link per charged hop. A frame that names no job or does not
//! match its job's kind ends the loop with a typed error, which the node
//! reports to the coordinator in an [`MsgType::Error`] frame.
//!
//! The loop is generic over the link its frames travel on. Over TCP a node
//! first dials the coordinator and completes the bootstrap handshake
//! (Hello → Roster → peer links → Ready): that is [`run_node`], which backs
//! both the loopback `SocketCluster` threads (sharing the coordinator's
//! [`JobRegistry`](crate::registry::JobRegistry)) and the
//! `dlra-net-server` binary (with the static remote op table). A
//! `ThreadedCluster` instead pre-wires in-process
//! [`Pipe`](crate::pipe::Pipe)s from the plan and enters the same loop
//! directly. Configuration arrives exclusively through parameters — this
//! crate reads no environment variables, keeping the determinism
//! contract's env reads in the runtime layer.

use crate::counters::{send_frame, WireCounters};
use crate::frame::{
    decode_error_frame, decode_hop_desc, encode_hop_desc, error_frame, Frame, HopRecord, MsgType,
    NetError, Roster,
};
use crate::registry::{Encoded, Held, JobKind, JobResolver, NetJob};
use dlra_comm::topology::RoundPlan;
use dlra_comm::TopologyPlan;
use dlra_util::sync::MutexExt;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

/// Everything a node needs to join a cluster over TCP. No defaults are
/// read from the environment; callers (the loopback harness, the server
/// binary's argv parser, tests) fill every field explicitly.
pub struct NodeConfig<L> {
    /// Coordinator address to dial, e.g. `127.0.0.1:4400`.
    pub coordinator: String,
    /// This server's id `t ∈ 1..s` (id 0 is the coordinator itself).
    pub server_id: usize,
    /// The server's local state (shared with the coordinator in loopback
    /// mode so `with_local` works; exclusively ours in remote mode).
    pub state: Arc<Mutex<L>>,
    /// Maps incoming frames to collective jobs.
    pub resolver: Arc<dyn JobResolver<L>>,
    /// Byte accounting for every frame this node sends.
    pub counters: Arc<WireCounters>,
}

/// A server's identity and resources, whatever link it serves on.
pub(crate) struct Node<L> {
    pub(crate) id: usize,
    pub(crate) state: Arc<Mutex<L>>,
    pub(crate) resolver: Arc<dyn JobResolver<L>>,
    pub(crate) counters: Arc<WireCounters>,
}

/// A server's links to its combining-tree neighbours: its parent (`None`
/// when the parent is the coordinator, whose link the server already
/// holds) and its children, by server id.
pub(crate) struct Peers<S> {
    pub(crate) parent: Option<S>,
    pub(crate) children: BTreeMap<usize, S>,
}

impl<S> Default for Peers<S> {
    fn default() -> Self {
        Peers {
            parent: None,
            children: BTreeMap::new(),
        }
    }
}

/// Dials the coordinator, bootstraps, and serves collectives until a
/// shutdown frame (clean exit) or a failure (the error is also reported to
/// the coordinator over the still-open link when possible).
pub fn run_node<L>(cfg: NodeConfig<L>) -> Result<(), NetError> {
    let mut coord = TcpStream::connect(&cfg.coordinator)?;
    coord.set_nodelay(true)?;
    let node = Node {
        id: cfg.server_id,
        state: cfg.state,
        resolver: cfg.resolver,
        counters: cfg.counters,
    };
    let served = bootstrap(&node, &mut coord)
        .and_then(|(plan, mut peers)| serve(&node, &plan, &mut coord, &mut peers));
    reported(&node, &mut coord, served)
}

/// Serves collectives on links wired in process, until shutdown or a
/// failure (reported to the coordinator like [`run_node`]'s).
pub(crate) fn run_wired<L, S: Read + Write>(
    node: &Node<L>,
    plan: &TopologyPlan,
    mut coord: S,
    mut peers: Peers<S>,
) -> Result<(), NetError> {
    let served = serve(node, plan, &mut coord, &mut peers);
    reported(node, &mut coord, served)
}

/// Passes a node's outcome through, first reporting a failure to the
/// coordinator when the link still takes a frame.
fn reported<L>(
    node: &Node<L>,
    coord: &mut impl Write,
    served: Result<(), NetError>,
) -> Result<(), NetError> {
    if let Err(e) = &served {
        let report = error_frame(1, &format!("server {}: {e}", node.id));
        let _ = send_frame(coord, &node.counters, &report);
    }
    served
}

/// The TCP bootstrap handshake: returns the cluster's reduction plan and
/// this node's tree links.
fn bootstrap<L>(
    node: &Node<L>,
    coord: &mut TcpStream,
) -> Result<(TopologyPlan, Peers<TcpStream>), NetError> {
    let id = node.id;

    // Bind our peer listener first so its port rides the Hello and child
    // dials can queue in the backlog before we ever accept.
    let peer_listener = TcpListener::bind("127.0.0.1:0")?;
    let peer_port = peer_listener.local_addr()?.port();
    let mut hello = Frame::control(MsgType::Hello, id as u32, 0);
    hello.desc = peer_port.to_le_bytes().to_vec();
    send_frame(coord, &node.counters, &hello)?;

    let roster_frame = Frame::read_from(coord)?;
    if roster_frame.msg_type != MsgType::Roster {
        return Err(NetError::Protocol {
            what: "expected roster",
            detail: format!("got {:?}", roster_frame.msg_type),
        });
    }
    let roster = Roster::from_frame(&roster_frame)?;
    let s = roster.servers as usize;
    if id == 0 || id >= s {
        return Err(NetError::Protocol {
            what: "server id out of roster range",
            detail: format!("id {id}, s {s}"),
        });
    }
    let plan = TopologyPlan::new(roster.topology, s);
    let hops = || plan.rounds().iter().flat_map(|round| &round.hops);
    let parent_id = hops()
        .find(|hop| hop.sender == id)
        .ok_or(NetError::Protocol {
            what: "server has no send hop in plan",
            detail: format!("server {id}"),
        })?
        .receiver;
    let child_count = hops().filter(|hop| hop.receiver == id).count();

    // Dial our tree parent (unless it is the coordinator, which we already
    // hold a link to) before accepting children: every dial targets an
    // already-bound listener, so the graph wires up without deadlock.
    let mut peers = Peers::default();
    if parent_id != 0 {
        let port = *roster.peer_ports.get(parent_id).ok_or(NetError::Protocol {
            what: "parent missing from roster",
            detail: format!("parent {parent_id}"),
        })?;
        let mut link = TcpStream::connect(("127.0.0.1", port))?;
        link.set_nodelay(true)?;
        send_frame(
            &mut link,
            &node.counters,
            &Frame::control(MsgType::PeerHello, id as u32, 0),
        )?;
        peers.parent = Some(link);
    }
    for _ in 0..child_count {
        let (mut link, _) = peer_listener.accept()?;
        link.set_nodelay(true)?;
        let hello = Frame::read_from(&mut link)?;
        if hello.msg_type != MsgType::PeerHello {
            return Err(NetError::Protocol {
                what: "expected peer hello",
                detail: format!("got {:?}", hello.msg_type),
            });
        }
        peers.children.insert(hello.seq as usize, link);
    }
    if let Some(hop) =
        hops().find(|hop| hop.receiver == id && !peers.children.contains_key(&hop.sender))
    {
        return Err(NetError::Protocol {
            what: "tree child never dialed in",
            detail: format!("server {id} expected child {}", hop.sender),
        });
    }

    send_frame(
        coord,
        &node.counters,
        &Frame::control(MsgType::Ready, id as u32, 0),
    )?;
    Ok((plan, peers))
}

/// The main frame loop.
fn serve<L, S: Read + Write>(
    node: &Node<L>,
    plan: &TopologyPlan,
    coord: &mut S,
    peers: &mut Peers<S>,
) -> Result<(), NetError> {
    let id = node.id;
    loop {
        let frame = Frame::read_from(coord)?;
        if frame.msg_type == MsgType::Shutdown {
            return Ok(());
        }
        let job = node
            .resolver
            .resolve(frame.job_id, frame.seq)
            .ok_or(NetError::Protocol {
                what: "no job for frame",
                detail: format!("{:?} job {} op {}", frame.msg_type, frame.job_id, frame.seq),
            })?;
        // Servers are themselves a parallelism layer: divide the kernel
        // thread budget across the s servers (floor, at least 1) so the
        // layers compose additively — s × ⌊T/s⌋ ≤ T live kernel threads —
        // instead of multiplying to s × T. Resolved per frame, so a
        // `set_threads` after construction is honored. Never changes
        // results: kernels are bit-identical across thread counts.
        let share = (dlra_linalg::threads() / plan.servers()).max(1);
        dlra_linalg::with_threads(share, || {
            let (desc, body) = job.start(id, &mut node.state.lock_recover(), &frame)?;
            match job.kind() {
                JobKind::Broadcast => {
                    let ack = Frame::control(MsgType::Ack, id as u32, frame.job_id);
                    send_frame(coord, &node.counters, &ack)
                }
                JobKind::Reply | JobKind::ReplyOnce => {
                    let reply = Frame::data(MsgType::Reply, id as u32, frame.job_id, desc, body);
                    send_frame(coord, &node.counters, &reply)
                }
                JobKind::Reduce => {
                    drive_reduce(node, &job, frame.job_id, (desc, body), plan, coord, peers)
                }
            }
        })?;
    }
}

/// One reduction from a non-coordinator server's perspective: absorb child
/// blocks round by round, then forward the accumulated block and hop log
/// to the parent in this server's single send round.
///
/// The descriptor of an outgoing hop frame carries only the *subtree's*
/// hop records; the frame's own hop is derived by the receiver from the
/// link identity, the round in `seq`, and `body_len / 8` — so the root
/// collects exactly one record per plan edge.
fn drive_reduce<L, S: Read + Write>(
    node: &Node<L>,
    job: &NetJob<L>,
    job_id: u64,
    mut block: Encoded,
    plan: &TopologyPlan,
    coord: &mut S,
    peers: &mut Peers<S>,
) -> Result<(), NetError> {
    let id = node.id;
    let mut log = Vec::new();
    for (h, round) in plan.rounds().iter().enumerate() {
        block = absorb_round(job, job_id, id, (h, round), block, &mut log, |q| {
            let link = peers.children.get_mut(&q).ok_or(NetError::Protocol {
                what: "no link to plan child",
                detail: format!("server {id}, child {q}"),
            })?;
            Frame::read_from(link)
        })?;
        if round.hops.iter().any(|hop| hop.sender == id) {
            let (payload_desc, body) = block;
            let desc = encode_hop_desc(&log, &payload_desc);
            let frame = Frame::data(MsgType::HopBlock, h as u32, job_id, desc, body);
            let out = match peers.parent.as_mut() {
                Some(link) => link,
                None => coord,
            };
            return send_frame(out, &node.counters, &frame);
        }
    }
    Err(NetError::Protocol {
        what: "reduction ended without a send",
        detail: format!("server {id}"),
    })
}

/// One round `h` of a combining-tree reduction at server `id`, on the
/// coordinator and on every server alike: absorbs the round's child blocks
/// (read by `read_child`, in plan-hop order), logs one hop record per
/// absorbed edge (the child's subtree log, then the edge itself), and
/// replays the round's canonical merges restricted to the blocks held
/// ([`NetJob::merge_round`]). Merges of disjoint block pairs commute, so
/// association order — and thus floating point — matches the sequential
/// reference bit for bit.
pub(crate) fn absorb_round<L>(
    job: &NetJob<L>,
    job_id: u64,
    id: usize,
    (h, round): (usize, &RoundPlan),
    block: Encoded,
    log: &mut Vec<HopRecord>,
    mut read_child: impl FnMut(usize) -> Result<Frame, NetError>,
) -> Result<Encoded, NetError> {
    let mut children = round
        .hops
        .iter()
        .filter(|hop| hop.receiver == id)
        .peekable();
    if children.peek().is_none() {
        return Ok(block);
    }
    let mut held = Held::from([(id, block)]);
    for q in children.map(|hop| hop.sender) {
        let frame = read_child(q)?;
        if frame.msg_type == MsgType::Error {
            return Err(decode_error_frame(&frame));
        }
        if frame.msg_type != MsgType::HopBlock || frame.seq as usize != h || frame.job_id != job_id
        {
            return Err(NetError::Protocol {
                what: "unexpected frame on tree link",
                detail: format!(
                    "server {id} from {q}: {:?} seq {} job {} (wanted hop round {h} job {job_id})",
                    frame.msg_type, frame.seq, frame.job_id
                ),
            });
        }
        let (child_log, payload_desc) = decode_hop_desc(&frame.desc)?;
        log.extend(child_log);
        log.push(HopRecord {
            round: h as u32,
            sender: q as u32,
            words: (frame.body.len() / 8) as u64,
        });
        held.insert(q, (payload_desc.to_vec(), frame.body));
    }
    job.merge_round(held, &round.merges)?
        .remove(&id)
        .ok_or(NetError::Protocol {
            what: "receiver lost its block in merge replay",
            detail: format!("server {id}, round {h}"),
        })
}

#[cfg(test)]
mod tests {
    //! The server loop's error paths, over a pipe: a frame the server
    //! cannot serve comes back as an `Error` frame and ends the loop with a
    //! typed error, never a panic.

    use super::*;
    use crate::pipe::Pipe;
    use crate::registry::JobRegistry;
    use dlra_comm::wire::{decode_value, encode_value};
    use dlra_comm::Topology;

    /// Sends `frames` (built from the id of the one registered job, a
    /// reply job) to server 1 of a two-server star, runs its loop to the
    /// end, and returns how the loop ended and every frame it sent back.
    fn serve(frames: impl FnOnce(u64) -> Vec<Frame>) -> (Result<(), NetError>, Vec<Frame>) {
        let registry = Arc::new(JobRegistry::new());
        let job = NetJob::reply(|t, local: &mut Vec<f64>, &(): &()| local[0] + t as f64);
        let job_id = registry.register(Arc::new(job));
        let node = Node {
            id: 1,
            state: Arc::new(Mutex::new(vec![2.0])),
            resolver: registry,
            counters: WireCounters::shared(),
        };
        let (mut coord, server) = Pipe::pair();
        for frame in frames(job_id) {
            send_frame(&mut coord, &node.counters, &frame).unwrap();
        }
        let plan = TopologyPlan::new(Topology::Star, 2);
        let ended = run_wired(&node, &plan, server, Peers::default());
        let mut sent = Vec::new();
        while let Ok(frame) = Frame::read_from(&mut coord) {
            sent.push(frame);
        }
        (ended, sent)
    }

    /// The loop failed with protocol violation `what` and reported it to
    /// the coordinator in one `Error` frame.
    fn assert_reported((ended, sent): (Result<(), NetError>, Vec<Frame>), what: &str) {
        match ended {
            Err(NetError::Protocol { what: got, .. }) => assert_eq!(got, what),
            other => panic!("expected protocol violation {what:?}, got {other:?}"),
        }
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].msg_type, MsgType::Error);
        let report = decode_error_frame(&sent[0]).to_string();
        assert!(report.contains(what), "{report}");
    }

    #[test]
    fn served_frames_get_replies_until_shutdown() {
        let (ended, sent) = serve(|job_id| {
            vec![
                Frame::control(MsgType::RunGather, 0, job_id),
                Frame::control(MsgType::Shutdown, 0, 0),
            ]
        });
        assert!(ended.is_ok());
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].msg_type, sent[0].job_id), (MsgType::Reply, 1));
        assert_eq!(
            decode_value::<f64>(&sent[0].desc, &sent[0].body).unwrap(),
            3.0
        );
    }

    #[test]
    fn frame_for_an_unknown_job_is_reported() {
        let served = serve(|job_id| vec![Frame::control(MsgType::RunGather, 0, job_id + 1)]);
        assert_reported(served, "no job for frame");
    }

    #[test]
    fn broadcast_frame_for_a_reply_job_is_reported() {
        let served = serve(|job_id| {
            let (desc, body) = encode_value(&1.5f64);
            vec![Frame::data(MsgType::Broadcast, 0, job_id, desc, body)]
        });
        assert_reported(served, "frame does not match its job");
    }

    #[test]
    fn reply_frame_sent_to_a_server_is_reported() {
        let served = serve(|job_id| {
            let (desc, body) = encode_value(&1.5f64);
            vec![Frame::data(MsgType::Reply, 0, job_id, desc, body)]
        });
        assert_reported(served, "frame does not match its job");
    }
}
