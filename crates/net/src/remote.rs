//! Multi-process mode: pre-agreed operations for servers in **separate
//! processes** (the `dlra-net-server` binary).
//!
//! Closures cannot cross a process boundary, so remote servers resolve
//! each frame's `seq` field against this static op table instead of a
//! shared [`JobRegistry`](crate::registry::JobRegistry). The demo protocol
//! operates on `Vec<f64>` local state — enough to exercise every frame
//! kind (broadcast, gather, point query, and a topology-routed reduction
//! whose hops are real server → server sockets between processes) and to
//! check ledger parity against the sequential reference, which is what the
//! process-level integration test does. Full Algorithm 1 runs on the
//! loopback harness, where typed closures are available.

use crate::cluster::{bootstrap_coordinator, charge_reduce, root_reduce, validate_reply};
use crate::counters::{send_frame, WireCounters};
use crate::frame::{Frame, MsgType, NetError};
use crate::registry::{BroadcastJob, GatherJob, JobResolver, NetJob, QueryServerJob, ReduceJob};
use dlra_comm::ledger::Direction;
use dlra_comm::wire::{decode_value, encode_value};
use dlra_comm::{Ledger, Topology, TopologyPlan, Wire};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Broadcast a factor; every server scales its vector by it.
pub const OP_BROADCAST_SCALE: u32 = 1;
/// Gather each server's vector sum.
pub const OP_GATHER_SUM: u32 = 2;
/// Topology-routed reduction of the vector sums.
pub const OP_REDUCE_SUM: u32 = 3;
/// Point query: one server returns one coordinate.
pub const OP_QUERY_POINT: u32 = 4;

/// The deterministic demo state for server `t`: both the server binary and
/// any reference computation build it from `(t, dim)` alone, so results
/// can be compared across processes without shipping data.
pub fn demo_state(server_id: usize, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| 1.0 + 0.5 * (server_id * dim + i) as f64)
        .collect()
}

/// Builds the job for one op code; `None` for unknown codes (the node
/// reports a typed protocol error back to the coordinator).
pub fn remote_job(op: u32) -> Option<Arc<dyn NetJob<Vec<f64>>>> {
    Some(match op {
        OP_BROADCAST_SCALE => Arc::new(BroadcastJob::new(
            |_t, local: &mut Vec<f64>, factor: &f64| {
                for x in local.iter_mut() {
                    *x *= factor;
                }
            },
        )),
        OP_GATHER_SUM => Arc::new(GatherJob::new(|_t, local: &mut Vec<f64>| {
            local.iter().sum::<f64>()
        })),
        OP_REDUCE_SUM => Arc::new(ReduceJob::new(
            |_t, local: &mut Vec<f64>| local.iter().sum::<f64>(),
            |acc: &mut f64, r: f64| *acc += r,
        )),
        OP_QUERY_POINT => Arc::new(QueryServerJob::new(|local: &mut Vec<f64>, &j: &usize| {
            local[j]
        })),
        _ => return None,
    })
}

/// The server binary's resolver: static table, keyed by op code.
pub struct RemoteResolver;

impl JobResolver<Vec<f64>> for RemoteResolver {
    fn resolve(&self, _job_id: u64, op: u32) -> Option<Arc<dyn NetJob<Vec<f64>>>> {
        remote_job(op)
    }
}

/// The coordinator side of the multi-process demo protocol. Every method
/// charges the [`Ledger`] exactly as the sequential reference would, so a
/// process-level test can assert whole-cluster ledger parity. All failure
/// paths return typed [`NetError`]s — nothing here panics on peer input.
pub struct RemoteCoordinator {
    links: Vec<TcpStream>,
    local: Vec<f64>,
    ledger: Ledger,
    topology: Topology,
    counters: Arc<WireCounters>,
    next_job: u64,
}

impl RemoteCoordinator {
    /// Accepts `servers − 1` dial-ins on `listener` and completes the
    /// bootstrap handshake. `local` is the coordinator's own state
    /// (server 0).
    pub fn accept(
        listener: &TcpListener,
        local: Vec<f64>,
        servers: usize,
        topology: Topology,
    ) -> Result<Self, NetError> {
        if servers < 2 {
            return Err(NetError::Protocol {
                what: "remote cluster needs at least two servers",
                detail: format!("got {servers}"),
            });
        }
        let counters = WireCounters::shared();
        let links = bootstrap_coordinator(listener, servers, topology, &counters)?;
        Ok(RemoteCoordinator {
            links,
            local,
            ledger: Ledger::new(),
            topology,
            counters,
            next_job: 1,
        })
    }

    /// The communication ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The byte counters for frames this coordinator sent.
    pub fn counters(&self) -> &Arc<WireCounters> {
        &self.counters
    }

    fn servers(&self) -> usize {
        self.links.len() + 1
    }

    fn next_job_id(&mut self) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        id
    }

    fn recv_from(&mut self, t: usize, expected: MsgType, job_id: u64) -> Result<Frame, NetError> {
        let frame = Frame::read_from(&mut self.links[t - 1])?;
        validate_reply(t, frame, expected, job_id)
    }

    /// [`OP_BROADCAST_SCALE`]: every server (and the coordinator's own
    /// state) multiplies its vector by `factor`.
    pub fn broadcast_scale(&mut self, factor: f64) -> Result<(), NetError> {
        let s = self.servers();
        self.ledger.next_round();
        for t in 1..s {
            self.ledger
                .charge(t, Direction::Downstream, factor.words(), "net.scale");
        }
        let job_id = self.next_job_id();
        let (desc, body) = encode_value(&factor);
        for t in 1..s {
            let frame = Frame::data(
                MsgType::Broadcast,
                OP_BROADCAST_SCALE,
                job_id,
                desc.clone(),
                body.clone(),
            );
            send_frame(&mut self.links[t - 1], &self.counters, &frame)?;
        }
        for x in self.local.iter_mut() {
            *x *= factor;
        }
        for t in 1..s {
            self.recv_from(t, MsgType::Ack, job_id)?;
        }
        Ok(())
    }

    /// [`OP_GATHER_SUM`]: per-server vector sums, indexed by server.
    pub fn gather_sum(&mut self) -> Result<Vec<f64>, NetError> {
        let s = self.servers();
        self.ledger.next_round();
        let job_id = self.next_job_id();
        for t in 1..s {
            let frame = Frame::control(MsgType::RunGather, OP_GATHER_SUM, job_id);
            send_frame(&mut self.links[t - 1], &self.counters, &frame)?;
        }
        let mut out = Vec::with_capacity(s);
        out.push(self.local.iter().sum::<f64>());
        for t in 1..s {
            let frame = self.recv_from(t, MsgType::Reply, job_id)?;
            out.push(decode_value::<f64>(&frame.desc, &frame.body)?);
        }
        for (t, reply) in out.iter().enumerate().skip(1) {
            self.ledger
                .charge(t, Direction::Upstream, reply.words(), "net.gather_sum");
        }
        Ok(out)
    }

    /// [`OP_REDUCE_SUM`]: the total sum, combined up the configured
    /// topology — tree hops are real sockets between server processes.
    pub fn reduce_sum(&mut self) -> Result<f64, NetError> {
        let s = self.servers();
        let plan = TopologyPlan::new(self.topology, s);
        let job = remote_job(OP_REDUCE_SUM).ok_or(NetError::Protocol {
            what: "missing op",
            detail: String::new(),
        })?;
        let job_id = self.next_job_id();
        for t in 1..s {
            let frame = Frame::control(MsgType::RunReduce, OP_REDUCE_SUM, job_id);
            send_frame(&mut self.links[t - 1], &self.counters, &frame)?;
        }
        let own = job.make_block(0, &mut self.local, None)?;
        let (block, log) = root_reduce(job.as_ref(), job_id, own, &plan, &mut self.links)?;
        charge_reduce(&self.ledger, &plan, &log, "net.reduce_sum", false)?;
        Ok(decode_value::<f64>(&block.0, &block.1)?)
    }

    /// [`OP_QUERY_POINT`]: coordinate `j` of server `t`'s vector.
    pub fn query_point(&mut self, t: usize, j: usize) -> Result<f64, NetError> {
        if t == 0 {
            return self.local.get(j).copied().ok_or(NetError::Protocol {
                what: "coordinate out of range",
                detail: format!("j {j}"),
            });
        }
        if t >= self.servers() {
            return Err(NetError::Protocol {
                what: "server out of range",
                detail: format!("t {t}"),
            });
        }
        self.ledger
            .charge(t, Direction::Downstream, j.words(), "net.point");
        let job_id = self.next_job_id();
        let (desc, body) = encode_value(&j);
        let frame = Frame::data(MsgType::QueryServer, OP_QUERY_POINT, job_id, desc, body);
        send_frame(&mut self.links[t - 1], &self.counters, &frame)?;
        let reply_frame = self.recv_from(t, MsgType::Reply, job_id)?;
        let reply = decode_value::<f64>(&reply_frame.desc, &reply_frame.body)?;
        self.ledger
            .charge(t, Direction::Upstream, reply.words(), "net.point");
        Ok(reply)
    }

    /// Sends every server a shutdown frame and waits for it to close its
    /// end, so callers can assert clean process exits.
    pub fn shutdown(mut self) -> Result<(), NetError> {
        for link in &mut self.links {
            send_frame_best_effort(link, &self.counters);
        }
        for link in &mut self.links {
            // EOF confirms the server's event loop returned cleanly.
            match Frame::read_from(link) {
                Err(NetError::Truncated { have: 0, .. }) => {}
                Err(NetError::Io(_)) => {}
                Ok(frame) => {
                    return Err(NetError::Protocol {
                        what: "frame after shutdown",
                        detail: format!("{:?}", frame.msg_type),
                    })
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Shutdown send that must not propagate errors (the peer may already be
/// gone).
fn send_frame_best_effort(link: &mut TcpStream, counters: &WireCounters) {
    let _ = send_frame(link, counters, &Frame::control(MsgType::Shutdown, 0, 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_state_is_deterministic_and_distinct_per_server() {
        assert_eq!(demo_state(0, 3), vec![1.0, 1.5, 2.0]);
        assert_eq!(demo_state(1, 3), vec![2.5, 3.0, 3.5]);
        assert_eq!(demo_state(1, 3), demo_state(1, 3));
    }

    #[test]
    fn op_table_covers_every_op() {
        for op in [
            OP_BROADCAST_SCALE,
            OP_GATHER_SUM,
            OP_REDUCE_SUM,
            OP_QUERY_POINT,
        ] {
            assert!(remote_job(op).is_some(), "op {op}");
        }
        assert!(remote_job(0).is_none());
        assert!(remote_job(999).is_none());
    }
}
