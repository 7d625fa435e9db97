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
//! * [`payload`] — the [`Payload`] trait giving the word size of anything
//!   that crosses the wire (scalars, vectors, sketches, row fragments);
//! * [`ledger`] — the thread-safe cost ledger and per-event transcript;
//! * [`cluster`] — the star-topology cluster and its collectives, run by a
//!   sequential executor;
//! * [`collectives`] — the [`Collectives`] trait that makes protocol code
//!   generic over the execution substrate (this crate's sequential
//!   [`Cluster`] or `dlra-runtime`'s threaded message-passing cluster);
//! * [`topology`] — combining-tree routing plans for the reduction
//!   collectives: a typed [`Topology`] (star, or a tree of configurable
//!   fanout) and the deterministic per-round hop/merge schedule derived
//!   solely from the server count, so every topology produces bit-identical
//!   results;
//! * [`wire`] — byte codecs ([`WireEncode`] / [`WireDecode`]) used when a
//!   payload crosses a real socket (`dlra-net`), holding the invariant that
//!   a value's wire body is exactly 8 bytes per [`Payload`] word.

#![forbid(unsafe_code)]
pub mod cluster;
pub mod collectives;
pub mod ledger;
pub mod payload;
pub mod topology;
pub mod two_party;
pub mod wire;

pub use cluster::Cluster;
pub use collectives::Collectives;
pub use ledger::{CommEvent, CostModel, Direction, Ledger, LedgerSnapshot};
pub use payload::Payload;
pub use topology::{Topology, TopologyPlan};
pub use two_party::{Party, TwoPartyChannel};
pub use wire::{decode_value, encode_value, Wire, WireDecode, WireEncode, WireError};
