//! The length-prefixed frame protocol: every message between the
//! coordinator and a server is one [`Frame`] — a fixed 24-byte header,
//! a descriptor (shape metadata and control fields), and a body (payload
//! words, 8 bytes each).
//!
//! ```text
//! [0]      magic   0xD7
//! [1]      version 1
//! [2]      msg_type
//! [3]      flags            (bit 0: reduce trigger carries a request)
//! [4..8]   desc_len  u32 LE
//! [8..12]  body_len  u32 LE
//! [12..16] seq       u32 LE  (server id / round index / op code / error code)
//! [16..24] job_id    u64 LE
//! ```
//!
//! The split matters for the audit: **data frames** are exactly the
//! messages the [`dlra_comm::Ledger`] charges, and their bodies are exactly
//! the charged payload words (8 bytes each, by the `dlra-comm` wire-codec
//! invariant); headers, descriptors, and **control frames** (bootstrap,
//! triggers, acks, shutdown) are protocol overhead the ledger never sees.
//! The integration tests reconcile the two down to zero unexplained bytes.
//!
//! Decoding malformed input returns a typed [`NetError`], never panics.

use dlra_comm::wire::WireError;
use dlra_comm::Topology;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// First header byte of every frame.
pub const MAGIC: u8 = 0xD7;
/// Protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_BYTES: u64 = 24;
/// Maximum descriptor size accepted from a peer.
pub const MAX_DESC_BYTES: u32 = 1 << 20;
/// Maximum body size accepted from a peer.
pub const MAX_BODY_BYTES: u32 = 1 << 30;
/// Flag bit: a `RunReduce` frame that carries a request payload (the
/// `query_aggregate` down-sweep, a charged data message) rather than a bare
/// trigger (the `aggregate_topo` kick-off, free like shipping a job to an
/// in-process worker).
pub const FLAG_HAS_REQUEST: u8 = 1;

/// Every message kind of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Node → coordinator: first frame after dialing in. `seq` is the
    /// advertised server id; the descriptor carries the node's peer port.
    Hello = 1,
    /// Coordinator → node: the assembled roster (server count, topology,
    /// peer addresses ordered by server id).
    Roster = 2,
    /// Node → node: first frame on a freshly dialed peer link; `seq` is the
    /// dialing server's id.
    PeerHello = 3,
    /// Node → coordinator: peer links are up, ready for collectives.
    Ready = 4,
    /// Node → coordinator: a collective step finished (broadcast ack).
    Ack = 5,
    /// Coordinator → node: drain and exit.
    Shutdown = 6,
    /// Either direction: a typed failure; `seq` is the error code, the
    /// descriptor a UTF-8 message.
    Error = 7,
    /// Coordinator → node: compute a gather reply (bare trigger; free, like
    /// shipping a closure to an in-process worker).
    RunGather = 9,
    /// Coordinator → node: participate in a topology-routed reduction.
    /// With [`FLAG_HAS_REQUEST`], the payload is the broadcast request.
    RunReduce = 10,
    /// Coordinator → node: a broadcast message (charged data).
    Broadcast = 16,
    /// Coordinator → node: a `query_all` request (charged data).
    Query = 17,
    /// Coordinator → node: a single-server query request (charged data).
    QueryServer = 18,
    /// Node → coordinator: a computed reply (charged data).
    Reply = 19,
    /// Tree-reduction hop: a partial block moving to its parent, with the
    /// accumulated hop log in the descriptor. `seq` is the routing round.
    HopBlock = 20,
}

impl MsgType {
    /// Decodes a wire byte.
    pub fn from_u8(v: u8) -> Option<MsgType> {
        Some(match v {
            1 => MsgType::Hello,
            2 => MsgType::Roster,
            3 => MsgType::PeerHello,
            4 => MsgType::Ready,
            5 => MsgType::Ack,
            6 => MsgType::Shutdown,
            7 => MsgType::Error,
            9 => MsgType::RunGather,
            10 => MsgType::RunReduce,
            16 => MsgType::Broadcast,
            17 => MsgType::Query,
            18 => MsgType::QueryServer,
            19 => MsgType::Reply,
            20 => MsgType::HopBlock,
            _ => return None,
        })
    }
}

/// A typed protocol failure. Every malformed input path lands here —
/// nothing in this crate panics on bytes from a peer.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A declared length exceeds the protocol cap.
    Oversized {
        /// Which field.
        what: &'static str,
        /// Declared length.
        len: u64,
        /// The cap.
        max: u64,
    },
    /// A frame field held an invalid value (magic, version, message type).
    BadFrame {
        /// Which field.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A payload codec rejected the frame contents.
    Wire(WireError),
    /// The peer violated the protocol state machine.
    Protocol {
        /// What went wrong.
        what: &'static str,
        /// Context (expected/actual, server ids, …).
        detail: String,
    },
    /// The peer reported a typed error.
    Remote {
        /// Error code from the frame's `seq` field.
        code: u32,
        /// Human-readable message from the descriptor.
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Truncated { what, needed, have } => {
                write!(f, "truncated {what}: needed {needed} bytes, have {have}")
            }
            NetError::Oversized { what, len, max } => {
                write!(f, "oversized {what}: declared {len}, cap {max}")
            }
            NetError::BadFrame { what, value } => write!(f, "bad frame {what}: {value:#x}"),
            NetError::Wire(e) => write!(f, "payload codec: {e}"),
            NetError::Protocol { what, detail } => {
                write!(f, "protocol violation: {what} ({detail})")
            }
            NetError::Remote { code, message } => write!(f, "remote error {code}: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// One wire message: header fields plus the descriptor/body buffers.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Message kind.
    pub msg_type: MsgType,
    /// Flag bits ([`FLAG_HAS_REQUEST`]).
    pub flags: u8,
    /// Multi-purpose small field: server id (hellos), routing round
    /// (hop blocks), op code (remote-mode triggers), error code.
    pub seq: u32,
    /// Correlates a frame with the collective that produced it.
    pub job_id: u64,
    /// Shape metadata / control fields (frame overhead, never charged).
    pub desc: Vec<u8>,
    /// Payload words, 8 bytes each (the ledger-charged bytes).
    pub body: Vec<u8>,
}

impl Frame {
    /// A control frame with empty buffers.
    pub fn control(msg_type: MsgType, seq: u32, job_id: u64) -> Frame {
        Frame {
            msg_type,
            flags: 0,
            seq,
            job_id,
            desc: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A data frame carrying an encoded payload.
    pub fn data(msg_type: MsgType, seq: u32, job_id: u64, desc: Vec<u8>, body: Vec<u8>) -> Frame {
        Frame {
            msg_type,
            flags: 0,
            seq,
            job_id,
            desc,
            body,
        }
    }

    /// Whether this frame is a ledger-charged data message (its body words
    /// appear in the ledger) or protocol overhead. The one subtlety is
    /// `RunReduce`: with a request payload it is the `query_aggregate`
    /// down-sweep (charged); bare, it is a free trigger, exactly as
    /// shipping a closure to an in-process worker costs no ledger words.
    pub fn is_data(&self) -> bool {
        match self.msg_type {
            MsgType::Broadcast
            | MsgType::Query
            | MsgType::QueryServer
            | MsgType::Reply
            | MsgType::HopBlock => true,
            MsgType::RunReduce => self.flags & FLAG_HAS_REQUEST != 0,
            _ => false,
        }
    }

    /// Total encoded size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.desc.len() as u64 + self.body.len() as u64
    }

    /// The encoded 24-byte header.
    fn header(&self) -> [u8; 24] {
        let mut h = [0u8; 24];
        h[0] = MAGIC;
        h[1] = VERSION;
        h[2] = self.msg_type as u8;
        h[3] = self.flags;
        h[4..8].copy_from_slice(&(self.desc.len() as u32).to_le_bytes());
        h[8..12].copy_from_slice(&(self.body.len() as u32).to_le_bytes());
        h[12..16].copy_from_slice(&self.seq.to_le_bytes());
        h[16..24].copy_from_slice(&self.job_id.to_le_bytes());
        h
    }

    /// Serializes the frame into one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.desc.len() + self.body.len());
        out.extend_from_slice(&self.header());
        out.extend_from_slice(&self.desc);
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses and validates a 24-byte header, returning
    /// `(frame-with-empty-buffers, desc_len, body_len)`.
    pub fn parse_header(h: &[u8; 24]) -> Result<(Frame, usize, usize), NetError> {
        if h[0] != MAGIC {
            return Err(NetError::BadFrame {
                what: "magic",
                value: u64::from(h[0]),
            });
        }
        if h[1] != VERSION {
            return Err(NetError::BadFrame {
                what: "version",
                value: u64::from(h[1]),
            });
        }
        let msg_type = MsgType::from_u8(h[2]).ok_or(NetError::BadFrame {
            what: "msg_type",
            value: u64::from(h[2]),
        })?;
        let desc_len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
        let body_len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        if desc_len > MAX_DESC_BYTES {
            return Err(NetError::Oversized {
                what: "frame descriptor",
                len: u64::from(desc_len),
                max: u64::from(MAX_DESC_BYTES),
            });
        }
        if body_len > MAX_BODY_BYTES {
            return Err(NetError::Oversized {
                what: "frame body",
                len: u64::from(body_len),
                max: u64::from(MAX_BODY_BYTES),
            });
        }
        let seq = u32::from_le_bytes([h[12], h[13], h[14], h[15]]);
        let job_id = u64::from_le_bytes([h[16], h[17], h[18], h[19], h[20], h[21], h[22], h[23]]);
        Ok((
            Frame {
                msg_type,
                flags: h[3],
                seq,
                job_id,
                desc: Vec::new(),
                body: Vec::new(),
            },
            desc_len as usize,
            body_len as usize,
        ))
    }

    /// Writes the frame to a stream with vectored writes — one `writev`
    /// on a socket, one message on a [`Pipe`](crate::pipe::Pipe) — without
    /// first copying header, descriptor and body into one buffer.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let header = self.header();
        let mut parts = [
            IoSlice::new(&header),
            IoSlice::new(&self.desc),
            IoSlice::new(&self.body),
        ];
        let mut rest = &mut parts[..];
        while !rest.is_empty() {
            match w.write_vectored(rest) {
                Ok(0) => return Err(NetError::Io(ErrorKind::WriteZero.into())),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(())
    }

    /// Reads one frame from a stream. A stream that ends mid-frame yields
    /// [`NetError::Truncated`]; oversized declared lengths are rejected
    /// before any allocation.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, NetError> {
        let mut header = [0u8; 24];
        read_exact_or_truncated(r, &mut header, "frame header")?;
        let (mut frame, desc_len, body_len) = Frame::parse_header(&header)?;
        frame.desc = vec![0u8; desc_len];
        read_exact_or_truncated(r, &mut frame.desc, "frame descriptor")?;
        frame.body = vec![0u8; body_len];
        read_exact_or_truncated(r, &mut frame.body, "frame body")?;
        Ok(frame)
    }

    /// Decodes one frame from a byte buffer, requiring exact consumption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, NetError> {
        let mut cursor = bytes;
        let frame = Frame::read_from(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(NetError::Protocol {
                what: "trailing bytes after frame",
                detail: format!("{} bytes", cursor.len()),
            });
        }
        Ok(frame)
    }
}

/// `read_exact` with short reads mapped to the typed truncation error.
fn read_exact_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), NetError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(NetError::Truncated {
                    what,
                    needed: buf.len(),
                    have: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

/// Encodes a [`Topology`] into two descriptor words.
pub fn encode_topology(desc: &mut Vec<u8>, topology: Topology) {
    match topology {
        Topology::Star => {
            desc.extend_from_slice(&0u32.to_le_bytes());
            desc.extend_from_slice(&0u32.to_le_bytes());
        }
        Topology::Tree { fanout } => {
            desc.extend_from_slice(&1u32.to_le_bytes());
            desc.extend_from_slice(&(fanout as u32).to_le_bytes());
        }
    }
}

/// Decodes a [`Topology`] from the descriptor cursor.
pub fn decode_topology(d: &[u8]) -> Result<(Topology, &[u8]), NetError> {
    if d.len() < 8 {
        return Err(NetError::Truncated {
            what: "topology",
            needed: 8,
            have: d.len(),
        });
    }
    let tag = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    let fanout = u32::from_le_bytes([d[4], d[5], d[6], d[7]]);
    let topology = match tag {
        0 => Topology::Star,
        1 => Topology::Tree {
            fanout: fanout as usize,
        },
        v => {
            return Err(NetError::BadFrame {
                what: "topology tag",
                value: u64::from(v),
            })
        }
    };
    Ok((topology, &d[8..]))
}

/// The roster the coordinator distributes after every server dialed in:
/// cluster size, routing topology, and each server's peer port (index 0 is
/// the coordinator and has no peer listener).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    /// Total server count including the coordinator.
    pub servers: u32,
    /// Reduction routing for the cluster's lifetime.
    pub topology: Topology,
    /// Peer (loopback) port per server id; `0` for the coordinator slot.
    pub peer_ports: Vec<u16>,
}

impl Roster {
    /// Encodes into a [`MsgType::Roster`] frame.
    pub fn to_frame(&self) -> Frame {
        let mut desc = Vec::with_capacity(16 + 2 * self.peer_ports.len());
        desc.extend_from_slice(&self.servers.to_le_bytes());
        encode_topology(&mut desc, self.topology);
        desc.extend_from_slice(&(self.peer_ports.len() as u32).to_le_bytes());
        for &p in &self.peer_ports {
            desc.extend_from_slice(&p.to_le_bytes());
        }
        Frame::data(MsgType::Roster, 0, 0, desc, Vec::new())
    }

    /// Decodes from a roster frame descriptor.
    pub fn from_frame(frame: &Frame) -> Result<Roster, NetError> {
        let d = &frame.desc;
        if d.len() < 4 {
            return Err(NetError::Truncated {
                what: "roster servers",
                needed: 4,
                have: d.len(),
            });
        }
        let servers = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
        let (topology, rest) = decode_topology(&d[4..])?;
        if rest.len() < 4 {
            return Err(NetError::Truncated {
                what: "roster port count",
                needed: 4,
                have: rest.len(),
            });
        }
        let n = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if n != servers as usize {
            return Err(NetError::Protocol {
                what: "roster port count mismatch",
                detail: format!("{n} ports for {servers} servers"),
            });
        }
        let ports = &rest[4..];
        if ports.len() != 2 * n {
            return Err(NetError::Truncated {
                what: "roster ports",
                needed: 2 * n,
                have: ports.len(),
            });
        }
        let peer_ports = ports
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        Ok(Roster {
            servers,
            topology,
            peer_ports,
        })
    }
}

/// One hop-accounting record riding a [`MsgType::HopBlock`] descriptor:
/// the block size (in words) that left `sender` in routing round `round`.
/// The hop a frame *itself* performs is never in its own records — the
/// receiver derives it from the link, the `seq` round, and `body_len / 8` —
/// so the root ends up with exactly one record per plan edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Routing round of the hop.
    pub round: u32,
    /// Forwarding server.
    pub sender: u32,
    /// Block words at send time.
    pub words: u64,
}

/// Builds a hop-block descriptor: record count, records, then the payload
/// descriptor of the block itself.
pub fn encode_hop_desc(records: &[HopRecord], payload_desc: &[u8]) -> Vec<u8> {
    let mut desc = Vec::with_capacity(4 + 16 * records.len() + payload_desc.len());
    desc.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        desc.extend_from_slice(&r.round.to_le_bytes());
        desc.extend_from_slice(&r.sender.to_le_bytes());
        desc.extend_from_slice(&r.words.to_le_bytes());
    }
    desc.extend_from_slice(payload_desc);
    desc
}

/// Splits a hop-block descriptor into its records and the payload
/// descriptor that follows them.
pub fn decode_hop_desc(desc: &[u8]) -> Result<(Vec<HopRecord>, &[u8]), NetError> {
    if desc.len() < 4 {
        return Err(NetError::Truncated {
            what: "hop record count",
            needed: 4,
            have: desc.len(),
        });
    }
    let n = u32::from_le_bytes([desc[0], desc[1], desc[2], desc[3]]) as usize;
    let need = 4 + 16 * n;
    if desc.len() < need {
        return Err(NetError::Truncated {
            what: "hop records",
            needed: need,
            have: desc.len(),
        });
    }
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let at = 4 + 16 * i;
        let round = u32::from_le_bytes([desc[at], desc[at + 1], desc[at + 2], desc[at + 3]]);
        let sender = u32::from_le_bytes([desc[at + 4], desc[at + 5], desc[at + 6], desc[at + 7]]);
        let mut w = [0u8; 8];
        w.copy_from_slice(&desc[at + 8..at + 16]);
        records.push(HopRecord {
            round,
            sender,
            words: u64::from_le_bytes(w),
        });
    }
    Ok((records, &desc[need..]))
}

/// Builds an error frame from a code and message.
pub fn error_frame(code: u32, message: &str) -> Frame {
    Frame {
        msg_type: MsgType::Error,
        flags: 0,
        seq: code,
        job_id: 0,
        desc: message.as_bytes().to_vec(),
        body: Vec::new(),
    }
}

/// Interprets an error frame.
pub fn decode_error_frame(frame: &Frame) -> NetError {
    NetError::Remote {
        code: frame.seq,
        message: String::from_utf8_lossy(&frame.desc).into_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips_through_bytes() {
        let f = Frame {
            msg_type: MsgType::HopBlock,
            flags: FLAG_HAS_REQUEST,
            seq: 3,
            job_id: 0xDEAD_BEEF_0042,
            desc: vec![1, 2, 3],
            body: vec![9; 16],
        };
        let bytes = f.to_bytes();
        assert_eq!(bytes.len() as u64, f.wire_bytes());
        let mut written = Vec::new();
        f.write_to(&mut written).unwrap();
        assert_eq!(written, bytes, "vectored write matches the buffer");
        let back = Frame::from_bytes(&bytes).expect("decode");
        assert_eq!(back.msg_type, MsgType::HopBlock);
        assert_eq!(back.flags, FLAG_HAS_REQUEST);
        assert_eq!(back.seq, 3);
        assert_eq!(back.job_id, 0xDEAD_BEEF_0042);
        assert_eq!(back.desc, f.desc);
        assert_eq!(back.body, f.body);
    }

    #[test]
    fn write_to_survives_short_writes() {
        /// A stream that takes at most five bytes per call.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(5);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let f = Frame::data(MsgType::Reply, 2, 5, vec![1, 2, 3], vec![4; 24]);
        let mut out = Trickle(Vec::new());
        f.write_to(&mut out).unwrap();
        assert_eq!(out.0, f.to_bytes());
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let f = Frame::control(MsgType::Ack, 0, 7);
        let bytes = f.to_bytes();
        for cut in [0, 1, 12, 23] {
            let err = Frame::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
        let f = Frame::data(MsgType::Reply, 0, 1, vec![1, 2], vec![0; 8]);
        let bytes = f.to_bytes();
        let err = Frame::from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(
            err,
            NetError::Truncated {
                what: "frame body",
                ..
            }
        ));
    }

    #[test]
    fn oversized_lengths_rejected_before_allocation() {
        let mut bytes = Frame::control(MsgType::Ack, 0, 0).to_bytes();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, NetError::Oversized { .. }), "{err:?}");
        let mut bytes = Frame::control(MsgType::Ack, 0, 0).to_bytes();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, NetError::Oversized { .. }), "{err:?}");
    }

    #[test]
    fn bad_magic_version_and_type_rejected() {
        let good = Frame::control(MsgType::Ack, 0, 0).to_bytes();
        for (i, what) in [(0usize, "magic"), (1, "version"), (2, "msg_type")] {
            let mut bytes = good.clone();
            bytes[i] = 0xEE;
            let err = Frame::from_bytes(&bytes).unwrap_err();
            match err {
                NetError::BadFrame { what: w, .. } => assert_eq!(w, what),
                other => panic!("expected BadFrame({what}), got {other:?}"),
            }
        }
        // Unassigned type bytes between assigned ones are unknown too.
        for unassigned in [0u8, 8, 11, 15, 21] {
            let mut bytes = good.clone();
            bytes[2] = unassigned;
            assert!(
                matches!(
                    Frame::from_bytes(&bytes),
                    Err(NetError::BadFrame { what: "msg_type", value }) if value == u64::from(unassigned)
                ),
                "type byte {unassigned}"
            );
        }
    }

    #[test]
    fn data_classification_matches_ledger_charging() {
        assert!(Frame::data(MsgType::Broadcast, 0, 0, vec![], vec![]).is_data());
        assert!(Frame::data(MsgType::Reply, 0, 0, vec![], vec![]).is_data());
        assert!(Frame::data(MsgType::HopBlock, 0, 0, vec![], vec![]).is_data());
        assert!(!Frame::control(MsgType::RunGather, 0, 0).is_data());
        assert!(!Frame::control(MsgType::Ack, 0, 0).is_data());
        let mut reduce = Frame::control(MsgType::RunReduce, 0, 0);
        assert!(!reduce.is_data());
        reduce.flags |= FLAG_HAS_REQUEST;
        assert!(reduce.is_data());
    }

    #[test]
    fn roster_roundtrips() {
        let r = Roster {
            servers: 5,
            topology: Topology::Tree { fanout: 4 },
            peer_ports: vec![0, 4001, 4002, 4003, 4004],
        };
        let back = Roster::from_frame(&r.to_frame()).expect("roster");
        assert_eq!(back, r);
        let star = Roster {
            servers: 2,
            topology: Topology::Star,
            peer_ports: vec![0, 9],
        };
        assert_eq!(Roster::from_frame(&star.to_frame()).unwrap(), star);
    }

    #[test]
    fn roster_rejects_count_mismatch() {
        let r = Roster {
            servers: 3,
            topology: Topology::Star,
            peer_ports: vec![0, 1],
        };
        let err = Roster::from_frame(&r.to_frame()).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err:?}");
    }

    #[test]
    fn hop_desc_roundtrips_with_payload_tail() {
        let records = vec![
            HopRecord {
                round: 0,
                sender: 3,
                words: 17,
            },
            HopRecord {
                round: 1,
                sender: 2,
                words: 34,
            },
        ];
        let desc = encode_hop_desc(&records, &[7, 7, 7]);
        let (back, tail) = decode_hop_desc(&desc).expect("hop desc");
        assert_eq!(back, records);
        assert_eq!(tail, &[7, 7, 7]);
        let err = decode_hop_desc(&desc[..10]).unwrap_err();
        assert!(matches!(err, NetError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn error_frame_roundtrips() {
        let f = error_frame(42, "boom");
        match decode_error_frame(&f) {
            NetError::Remote { code, message } => {
                assert_eq!(code, 42);
                assert_eq!(message, "boom");
            }
            other => panic!("{other:?}"),
        }
    }
}
