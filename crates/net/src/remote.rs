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
//! process-level integration test does. [`RemoteCoordinator`] runs each op
//! on the same coordinator core as the loopback clusters, its own state
//! stepping through the op's job. Full Algorithm 1 runs on the loopback
//! harness, where typed closures are available.

use crate::cluster::{bootstrap_coordinator, Call, Coordinator, Request};
use crate::counters::WireCounters;
use crate::frame::{Frame, NetError};
use crate::registry::{JobResolver, NetJob};
use dlra_comm::{Ledger, Topology};
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
pub fn remote_job(op: u32) -> Option<Arc<NetJob<Vec<f64>>>> {
    let sum = |_t, local: &mut Vec<f64>, &(): &()| local.iter().sum::<f64>();
    Some(Arc::new(match op {
        OP_BROADCAST_SCALE => NetJob::broadcast(|_t, local: &mut Vec<f64>, factor: &f64| {
            for x in local.iter_mut() {
                *x *= factor;
            }
        }),
        OP_GATHER_SUM => NetJob::reply(sum),
        OP_REDUCE_SUM => NetJob::reduce(sum, |acc: &mut f64, r: f64| *acc += r),
        OP_QUERY_POINT => NetJob::try_reply_once(|local: &mut Vec<f64>, &j: &usize| {
            local.get(j).copied().ok_or_else(|| NetError::Protocol {
                what: "coordinate out of range",
                detail: format!("coordinate {j}, dim {}", local.len()),
            })
        }),
        _ => return None,
    }))
}

/// The server binary's resolver: static table, keyed by op code.
pub struct RemoteResolver;

impl JobResolver<Vec<f64>> for RemoteResolver {
    fn resolve(&self, _job_id: u64, op: u32) -> Option<Arc<NetJob<Vec<f64>>>> {
        remote_job(op)
    }
}

/// The coordinator side of the multi-process demo protocol. Every method
/// charges the [`Ledger`] exactly as the sequential reference would, so a
/// process-level test can assert whole-cluster ledger parity. All failure
/// paths return typed [`NetError`]s — nothing here panics on peer input.
pub struct RemoteCoordinator {
    core: Coordinator<TcpStream>,
    local: Vec<f64>,
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
            core: Coordinator::new(links, counters, topology),
            local,
            next_job: 1,
        })
    }

    /// The communication ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.core.ledger
    }

    /// The byte counters for frames this coordinator sent.
    pub fn counters(&self) -> &Arc<WireCounters> {
        &self.core.counters
    }

    /// Runs op `op` on the coordinator core under a fresh job id.
    fn run<R>(
        &mut self,
        op: u32,
        exchange: impl FnOnce(&mut Coordinator<TcpStream>, Call<'_, Vec<f64>>) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let job = remote_job(op).ok_or(NetError::Protocol {
            what: "missing op",
            detail: format!("op {op}"),
        })?;
        let call = Call {
            job_id: self.next_job,
            op,
            job: &job,
            own: &mut self.local,
        };
        self.next_job += 1;
        exchange(&mut self.core, call)
    }

    /// [`OP_BROADCAST_SCALE`]: every server (and the coordinator's own
    /// state) multiplies its vector by `factor`.
    pub fn broadcast_scale(&mut self, factor: f64) -> Result<(), NetError> {
        let message = Request::new(&factor);
        self.run(OP_BROADCAST_SCALE, |core, call| {
            core.broadcast(call, &message, "net.scale")
        })
    }

    /// [`OP_GATHER_SUM`]: per-server vector sums, indexed by server.
    pub fn gather_sum(&mut self) -> Result<Vec<f64>, NetError> {
        self.run(OP_GATHER_SUM, |core, call| {
            core.gather(call, None, "net.gather_sum")
        })
    }

    /// [`OP_REDUCE_SUM`]: the total sum, combined up the configured
    /// topology — tree hops are real sockets between server processes.
    pub fn reduce_sum(&mut self) -> Result<f64, NetError> {
        self.run(OP_REDUCE_SUM, |core, call| {
            core.reduce(call, None, "net.reduce_sum")
        })
    }

    /// [`OP_QUERY_POINT`]: coordinate `j` of server `t`'s vector. An
    /// out-of-range `j` is an error, and it ends a remote server's process.
    pub fn query_point(&mut self, t: usize, j: usize) -> Result<f64, NetError> {
        let request = Request::new(&j);
        self.run(OP_QUERY_POINT, |core, call| {
            core.query_server(t, call, &request, "net.point")
        })
    }

    /// Sends every server a shutdown frame and waits for it to close its
    /// end, so callers can assert clean process exits.
    pub fn shutdown(mut self) -> Result<(), NetError> {
        self.core.send_shutdown();
        for link in &mut self.core.links {
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
