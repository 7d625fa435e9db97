//! `dlra-net`: the message-passing collectives substrate — the paper's `s`
//! servers as real participants exchanging frames.
//!
//! The sequential [`dlra_comm::Cluster`] simulates the distributed model
//! in one thread. This crate runs it for real, once: one coordinator and
//! one server event loop, generic over the byte link their frames travel
//! on. Every payload is serialized through the bit-exact `dlra-comm` wire
//! codec, and combining-tree hops are real server → server links. Its two
//! links are the substrates [`ThreadedCluster`] (in-process pipes) and
//! [`SocketCluster`] (TCP). Layers:
//!
//! * [`frame`] — the length-prefixed wire protocol: a 24-byte header,
//!   a descriptor (shape metadata, never ledger-charged), and a body of
//!   exactly 8 bytes per charged payload word. Malformed input yields
//!   typed [`frame::NetError`]s, never panics.
//! * [`counters`] — send-side byte accounting, split data vs control, so
//!   tests reconcile bytes on the links against the [`dlra_comm::Ledger`]
//!   with zero unexplained bytes.
//! * [`registry`] — type-erased collective jobs: decode → typed closure →
//!   re-encode, bit-identical by codec exactness.
//! * [`pipe`] — [`Pipe`], an in-process `Read + Write` byte link over
//!   `std::sync::mpsc`.
//! * [`node`] — the server event loop (collective frames, tree-hop
//!   exchanges, and the TCP bootstrap handshake), shared by loopback
//!   threads on either link and by the `dlra-net-server` binary.
//! * [`cluster`] — [`FrameCluster`], the coordinator: implements
//!   [`dlra_comm::Collectives`] with bit-identical results and exact
//!   ledger parity against the sequential substrate, and emits one
//!   `comm.<collective>` trace span per collective.
//! * [`threaded`] — the threaded substrate's link: pipes pre-wired from
//!   the topology plan, with no handshake.
//! * [`remote`] — the static op table and coordinator for servers in
//!   separate processes, where closures cannot travel.
//!
//! This crate reads **no environment variables**: substrate selection
//! (`DLRA_SUBSTRATE`) lives in the runtime layer per the determinism
//! contract, and the server binary is configured by argv alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod counters;
pub mod frame;
pub mod node;
pub mod pipe;
pub mod registry;
pub mod remote;
pub mod threaded;

pub use cluster::{FrameCluster, Link, SocketCluster, ThreadedCluster};
pub use counters::{WireCounters, WireStats};
pub use frame::{Frame, MsgType, NetError};
pub use node::{run_node, NodeConfig};
pub use pipe::Pipe;
pub use registry::{JobRegistry, JobResolver, NetJob};
