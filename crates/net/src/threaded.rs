//! The threaded substrate's link: how a [`ThreadedCluster`] wires the
//! in-process [`Pipe`]s its coordinator and servers exchange frames on.
//!
//! No handshake runs. The links come from the [`TopologyPlan`] when the
//! cluster is built: one pipe from the coordinator to each server, and one
//! per combining-tree edge between two servers. Each server then runs the
//! same event loop as a socket server, on a thread of this process.
//!
//! [`ThreadedCluster`]: crate::ThreadedCluster

use crate::cluster::{spawn_server, Link, ServerThread};
use crate::counters::WireCounters;
use crate::node::{run_wired, Node, Peers};
use crate::pipe::Pipe;
use crate::registry::{JobRegistry, JobResolver};
use dlra_comm::{Topology, TopologyPlan};
use std::sync::{Arc, Mutex};

impl Link for Pipe {
    /// Links are pre-wired from the plan — one pipe per coordinator link
    /// and one per tree edge between servers — so no handshake runs.
    fn start_servers<L: Send + 'static>(
        states: &[Arc<Mutex<L>>],
        topology: Topology,
        registry: &Arc<JobRegistry<L>>,
        counters: &Arc<WireCounters>,
    ) -> (Vec<Pipe>, Vec<ServerThread>) {
        let plan = TopologyPlan::new(topology, states.len());
        let mut peers: Vec<Peers<Pipe>> = states.iter().map(|_| Peers::default()).collect();
        for hop in plan.rounds().iter().flat_map(|round| &round.hops) {
            if hop.receiver != 0 {
                let (up, down) = Pipe::pair();
                peers[hop.sender].parent = Some(up);
                peers[hop.receiver].children.insert(hop.sender, down);
            }
        }
        peers
            .into_iter()
            .enumerate()
            .skip(1)
            .map(|(t, peers)| {
                let (link, coord) = Pipe::pair();
                let node = Node {
                    id: t,
                    state: Arc::clone(&states[t]),
                    resolver: Arc::clone(registry) as Arc<dyn JobResolver<L>>,
                    counters: Arc::clone(counters),
                };
                let plan = plan.clone();
                let thread = spawn_server(t, move || run_wired(&node, &plan, coord, peers));
                (link, thread)
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    //! The coordinator's link-generic checks, run on the pipe link.

    use super::*;
    use crate::cluster::tests::{
        drop_shuts_servers_down_on, gather_charges_like_reference_on, matches_sequential,
        with_local_mut_is_free_on,
    };
    use crate::ThreadedCluster;

    #[test]
    fn matches_sequential_cluster_bit_for_bit() {
        matches_sequential::<Pipe>(Topology::Star, &[1, 2, 4, 8]);
    }

    #[test]
    fn tree_routing_matches_sequential_tree_bit_for_bit() {
        matches_sequential::<Pipe>(Topology::Tree { fanout: 2 }, &[1, 2, 4, 8, 9, 13]);
    }

    #[test]
    fn gather_orders_and_charges_like_cluster() {
        gather_charges_like_reference_on::<Pipe>();
    }

    #[test]
    fn with_local_mut_is_free() {
        with_local_mut_is_free_on::<Pipe>();
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        drop_shuts_servers_down_on::<Pipe>();
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = ThreadedCluster::<Vec<f64>>::new(vec![]);
    }
}
