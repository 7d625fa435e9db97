//! The server-side event loop: one of the paper's `s` servers as a network
//! participant.
//!
//! A node serves collective frames from the coordinator until shutdown.
//! During a topology-routed reduction it exchanges [`MsgType::HopBlock`]
//! frames directly with its tree peers — server → server traffic that never
//! touches the coordinator, mirroring the plan's edges one link per charged
//! hop.
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
    NetError, Roster, FLAG_HAS_REQUEST,
};
use crate::registry::{Encoded, Held, JobResolver, NetJob};
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
        dlra_linalg::with_threads(share, || match frame.msg_type {
            MsgType::Broadcast => {
                job.deliver(id, &mut node.state.lock_recover(), &frame.desc, &frame.body)?;
                let ack = Frame::control(MsgType::Ack, id as u32, frame.job_id);
                send_frame(coord, &node.counters, &ack)
            }
            MsgType::RunGather | MsgType::Query | MsgType::QueryServer => {
                let request = (frame.msg_type != MsgType::RunGather)
                    .then_some((frame.desc.as_slice(), frame.body.as_slice()));
                let (desc, body) = job.make_block(id, &mut node.state.lock_recover(), request)?;
                let reply = Frame::data(MsgType::Reply, id as u32, frame.job_id, desc, body);
                send_frame(coord, &node.counters, &reply)
            }
            MsgType::RunReduce => {
                let request = (frame.flags & FLAG_HAS_REQUEST != 0)
                    .then_some((frame.desc.as_slice(), frame.body.as_slice()));
                let block = job.make_block(id, &mut node.state.lock_recover(), request)?;
                drive_reduce(node, job.as_ref(), frame.job_id, block, plan, coord, peers)
            }
            other => Err(NetError::Protocol {
                what: "unexpected frame at server",
                detail: format!("{other:?}"),
            }),
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
    job: &dyn NetJob<L>,
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
    job: &dyn NetJob<L>,
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
