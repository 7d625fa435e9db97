//! Simulated distributed substrate with exact communication accounting.
//!
//! The paper's model (§I) is a star: `s` servers, each holding a local
//! `n × d` matrix, all communicating with server 1 (the Central Processor).
//! The paper's own evaluation simulates servers with processes and measures
//! *words* of communication, so this crate provides exactly that: a
//! [`Cluster`] owning per-server local state, collective operations
//! (broadcast / gather / aggregate / point query) that are the only way for
//! data to cross server boundaries, and a [`Ledger`] that charges every
//! message its payload size in 8-byte words plus a one-word frame.
//!
//! * [`ledger`] — the thread-safe cost ledger and per-event transcript;
//! * [`cluster`] — the star-topology [`Cluster`] of per-server local
//!   states, the sequential reference substrate;
//! * [`collectives`] — the [`Collectives`] trait, the only way protocol
//!   code moves data, generic over the execution substrate (this crate's
//!   sequential [`Cluster`] or `dlra-net`'s message-passing coordinator);
//! * [`topology`] — combining-tree routing plans for the reduction
//!   collectives: a typed [`Topology`] (star, or a tree of configurable
//!   fanout) and the deterministic per-round hop/merge schedule derived
//!   solely from the server count, so every topology produces bit-identical
//!   results;
//! * [`wire`] — the [`Wire`] trait of anything that crosses a server
//!   boundary (scalars, vectors, matrices, sketch bundles, row fragments):
//!   its size in words and its byte codec for a real link (`dlra-net`),
//!   whose body is exactly 8 bytes per word.

#![forbid(unsafe_code)]
pub mod cluster;
pub mod collectives;
pub mod ledger;
pub mod topology;
pub mod two_party;
pub mod wire;

pub use cluster::Cluster;
pub use collectives::Collectives;
pub use ledger::{CommEvent, Direction, Ledger, LedgerSnapshot};
pub use topology::{Topology, TopologyPlan};
pub use two_party::{Party, TwoPartyChannel};
pub use wire::{decode_value, encode_value, Wire, WireError};
