//! The [`Wire`] trait: the one bound on a value that crosses a server
//! boundary. A `Wire` type knows its size in 8-byte words — the paper's
//! cost model (§I), where a word holds one matrix entry, index, or hash
//! seed — and the byte-level form it takes on a real link (the `dlra-net`
//! substrates).
//!
//! Every encoding is split into two parts, mirroring the ledger's cost
//! model:
//!
//! * the **body** — exactly 8 bytes per [`Wire::words`] word: the entries
//!   of a matrix, the tables of a sketch bundle, the elements of a vector.
//!   This invariant (`body bytes == 8 × words`) is what makes
//!   bytes-on-the-wire an affine function of ledger words, and the
//!   `dlra-net` wire-audit test asserts it over a full protocol run. Each
//!   type's word count sits in the same impl as its codec;
//! * the **descriptor** — the shape metadata a receiver needs to rebuild
//!   the value (vector lengths, matrix dimensions, sketch parameters and
//!   seeds). Descriptors are part of the per-frame overhead, alongside the
//!   frame header, and are never ledger-charged — exactly as the paper's
//!   model charges a broadcast seed one word and reconstructs the hash
//!   functions locally.
//!
//! Decoding never panics: malformed input (truncated buffers, oversized
//! lengths, bad tags) surfaces as a typed [`WireError`]. All integers are
//! little-endian; `f64` round-trips bit-exactly (NaN payloads included), so
//! a decoded block merges to the same bits as an in-process clone.

use dlra_linalg::Matrix;

/// Upper bound on a single decoded sequence length (elements). Prevents a
/// corrupt or hostile descriptor from requesting an enormous allocation
/// before the body is even inspected.
pub const MAX_SEQ_LEN: u64 = 1 << 28;

/// Upper bound on one matrix dimension in a descriptor.
pub const MAX_DIM: u64 = 1 << 24;

/// A typed decode failure. Codecs return these instead of panicking — a
/// malformed frame from a peer must never take the coordinator down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A declared length exceeds the codec's hard cap.
    Oversized {
        /// What was being decoded.
        what: &'static str,
        /// The declared length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// A tag byte (bool, option flag) held an invalid value.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Decoding finished but bytes were left over — the descriptor and
    /// body must be consumed exactly.
    Trailing {
        /// Which buffer had leftovers.
        what: &'static str,
        /// How many bytes remained.
        remaining: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what, needed, have } => {
                write!(f, "truncated {what}: needed {needed} bytes, have {have}")
            }
            WireError::Oversized { what, len, max } => {
                write!(f, "oversized {what}: declared {len}, cap {max}")
            }
            WireError::BadTag { what, value } => write!(f, "bad tag for {what}: {value}"),
            WireError::Trailing { what, remaining } => {
                write!(f, "{remaining} trailing bytes after decoding {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Accumulates the two-part encoding of a value.
#[derive(Debug, Default)]
pub struct WireWriter {
    /// Shape metadata (frame overhead, never ledger-charged).
    pub desc: Vec<u8>,
    /// Payload words, 8 bytes each (ledger-charged).
    pub body: Vec<u8>,
}

impl WireWriter {
    /// A writer with empty buffers.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Appends one byte to the descriptor.
    pub fn desc_u8(&mut self, v: u8) {
        self.desc.push(v);
    }

    /// Appends a `u32` to the descriptor.
    pub fn desc_u32(&mut self, v: u32) {
        self.desc.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` to the descriptor.
    pub fn desc_u64(&mut self, v: u64) {
        self.desc.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` to the descriptor (bit-exact).
    pub fn desc_f64(&mut self, v: f64) {
        self.desc.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `u64` body word.
    pub fn word_u64(&mut self, v: u64) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `f64` body word (bit-exact).
    pub fn word_f64(&mut self, v: f64) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slice of `f64` body words.
    pub fn words_f64(&mut self, vs: &[f64]) {
        self.body.reserve(vs.len() * 8);
        for &v in vs {
            self.word_f64(v);
        }
    }
}

/// Cursor over the two buffers of an encoded value.
#[derive(Debug)]
pub struct WireReader<'a> {
    desc: &'a [u8],
    body: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// A reader over a descriptor/body pair.
    pub fn new(desc: &'a [u8], body: &'a [u8]) -> Self {
        WireReader { desc, body }
    }

    fn take_desc(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.desc.len() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                have: self.desc.len(),
            });
        }
        let (head, rest) = self.desc.split_at(n);
        self.desc = rest;
        Ok(head)
    }

    fn take_body(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.body.len() < n {
            return Err(WireError::Truncated {
                what,
                needed: n,
                have: self.body.len(),
            });
        }
        let (head, rest) = self.body.split_at(n);
        self.body = rest;
        Ok(head)
    }

    /// Reads one descriptor byte.
    pub fn desc_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take_desc(1, what)?[0])
    }

    /// Reads a descriptor `u32`.
    pub fn desc_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take_desc(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a descriptor `u64`.
    pub fn desc_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take_desc(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a descriptor `f64` (bit-exact).
    pub fn desc_f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.desc_u64(what)?))
    }

    /// Reads one `u64` body word.
    pub fn word_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take_body(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads one `f64` body word (bit-exact).
    pub fn word_f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.word_u64(what)?))
    }

    /// Reads `n` `f64` body words into a vector, capped by [`MAX_SEQ_LEN`]
    /// and by what the body can actually still hold.
    pub fn words_f64(&mut self, n: u64, what: &'static str) -> Result<Vec<f64>, WireError> {
        if n > MAX_SEQ_LEN {
            return Err(WireError::Oversized {
                what,
                len: n,
                max: MAX_SEQ_LEN,
            });
        }
        let bytes = self.take_body((n as usize) * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_le_bytes(a)
            })
            .collect())
    }

    /// Body words still unread.
    pub fn remaining_body_words(&self) -> u64 {
        (self.body.len() / 8) as u64
    }

    /// Asserts both buffers were consumed exactly.
    pub fn finish(self, what: &'static str) -> Result<(), WireError> {
        if !self.desc.is_empty() {
            return Err(WireError::Trailing {
                what,
                remaining: self.desc.len(),
            });
        }
        if !self.body.is_empty() {
            return Err(WireError::Trailing {
                what,
                remaining: self.body.len(),
            });
        }
        Ok(())
    }
}

/// A value that crosses a server boundary: its size in 8-byte words and
/// its byte codec, whose body is exactly 8 bytes per word.
pub trait Wire: Sized {
    /// Number of words this value occupies on the wire.
    fn words(&self) -> u64;

    /// Appends this value's descriptor and body bytes.
    fn encode(&self, w: &mut WireWriter);

    /// Consumes this value's descriptor and body bytes. Must never panic on
    /// malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value, returning `(descriptor, body)`. Debug builds assert the
/// core invariant: the body is exactly 8 bytes per [`Wire::words`] word.
pub fn encode_value<T: Wire>(value: &T) -> (Vec<u8>, Vec<u8>) {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    debug_assert_eq!(
        w.body.len() as u64,
        8 * value.words(),
        "wire body must be exactly 8 bytes per payload word"
    );
    (w.desc, w.body)
}

/// Decodes a value, requiring both buffers to be consumed exactly.
pub fn decode_value<T: Wire>(desc: &[u8], body: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(desc, body);
    let value = T::decode(&mut r)?;
    r.finish("value")?;
    Ok(value)
}

impl Wire for f64 {
    fn words(&self) -> u64 {
        1
    }

    fn encode(&self, w: &mut WireWriter) {
        w.word_f64(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.word_f64("f64")
    }
}

impl Wire for u64 {
    fn words(&self) -> u64 {
        1
    }

    fn encode(&self, w: &mut WireWriter) {
        w.word_u64(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.word_u64("u64")
    }
}

impl Wire for i64 {
    fn words(&self) -> u64 {
        1
    }

    fn encode(&self, w: &mut WireWriter) {
        w.word_u64(*self as u64);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.word_u64("i64")? as i64)
    }
}

impl Wire for usize {
    fn words(&self) -> u64 {
        1
    }

    fn encode(&self, w: &mut WireWriter) {
        w.word_u64(*self as u64);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let v = r.word_u64("usize")?;
        usize::try_from(v).map_err(|_| WireError::Oversized {
            what: "usize",
            len: v,
            max: usize::MAX as u64,
        })
    }
}

impl Wire for bool {
    fn words(&self) -> u64 {
        1
    }

    fn encode(&self, w: &mut WireWriter) {
        w.word_u64(u64::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.word_u64("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::BadTag {
                what: "bool",
                value,
            }),
        }
    }
}

impl Wire for () {
    fn words(&self) -> u64 {
        0
    }

    fn encode(&self, _w: &mut WireWriter) {}

    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// The presence flag lives in the descriptor, so it shares the frame word:
/// only the content counts.
impl<T: Wire> Wire for Option<T> {
    fn words(&self) -> u64 {
        self.as_ref().map_or(0, Wire::words)
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.desc_u8(0),
            Some(inner) => {
                w.desc_u8(1);
                inner.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.desc_u8("option flag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            value => Err(WireError::BadTag {
                what: "option flag",
                value: u64::from(value),
            }),
        }
    }
}

/// The element count lives in the descriptor; elements' own descriptors and
/// bodies follow in order.
impl<T: Wire> Wire for Vec<T> {
    fn words(&self) -> u64 {
        self.iter().map(Wire::words).sum()
    }

    fn encode(&self, w: &mut WireWriter) {
        debug_assert!(self.len() as u64 <= MAX_SEQ_LEN, "sequence too long");
        w.desc_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = u64::from(r.desc_u32("vec length")?);
        if n > MAX_SEQ_LEN {
            return Err(WireError::Oversized {
                what: "vec length",
                len: n,
                max: MAX_SEQ_LEN,
            });
        }
        // Reserve conservatively: a corrupt length cannot force a huge
        // allocation before the body runs out and errors.
        let mut out = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words()
    }

    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words() + self.2.words()
    }

    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// A matrix costs one word per entry: dimensions in the descriptor, entries
/// (row-major) in the body. This is its *logical* size: `Matrix` storage is
/// `Arc`-shared copy-on-write, so an in-process substrate may deliver a
/// broadcast matrix as an O(1) handle clone, but the ledger charges what a
/// real wire would carry — word accounting is independent of how the
/// storage is shared.
impl Wire for Matrix {
    fn words(&self) -> u64 {
        (self.rows() * self.cols()) as u64
    }

    fn encode(&self, w: &mut WireWriter) {
        w.desc_u32(self.rows() as u32);
        w.desc_u32(self.cols() as u32);
        w.words_f64(self.as_slice());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = u64::from(r.desc_u32("matrix rows")?);
        let cols = u64::from(r.desc_u32("matrix cols")?);
        if rows > MAX_DIM || cols > MAX_DIM {
            return Err(WireError::Oversized {
                what: "matrix dims",
                len: rows.max(cols),
                max: MAX_DIM,
            });
        }
        let data = r.words_f64(rows * cols, "matrix entries")?;
        Matrix::from_vec(rows as usize, cols as usize, data).map_err(|_| WireError::BadTag {
            what: "matrix dims",
            value: rows * cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire>(value: &T) -> T {
        let (desc, body) = encode_value(value);
        assert_eq!(
            body.len() as u64,
            8 * value.words(),
            "body must be 8 bytes per word"
        );
        decode_value(&desc, &body).expect("roundtrip decode")
    }

    #[test]
    fn scalar_sizes() {
        assert_eq!(1.5f64.words(), 1);
        assert_eq!(7u64.words(), 1);
        assert_eq!((-3i64).words(), 1);
        assert_eq!(9usize.words(), 1);
        assert_eq!(true.words(), 1);
        assert_eq!(().words(), 0);
    }

    #[test]
    fn container_sizes() {
        assert_eq!(vec![1.0f64; 10].words(), 10);
        assert_eq!(vec![vec![1u64; 3]; 4].words(), 12);
        assert_eq!((1.0f64, 2u64).words(), 2);
        assert_eq!((1.0f64, 2u64, vec![0.0f64; 5]).words(), 7);
        assert_eq!(Some(3.0f64).words(), 1);
        assert_eq!(Option::<f64>::None.words(), 0);
    }

    #[test]
    fn matrix_size_is_logical_not_storage() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.words(), 12);
        // A clone shares storage but still costs full wire words: the
        // ledger models the network, not the in-process representation.
        let c = m.clone();
        assert!(c.shares_storage(&m));
        assert_eq!(c.words(), 12);
    }

    #[test]
    fn scalars_roundtrip_bit_exact() {
        assert_eq!(roundtrip(&1.5f64), 1.5);
        assert_eq!(roundtrip(&f64::NAN).to_bits(), f64::NAN.to_bits());
        assert_eq!(roundtrip(&(-0.0f64)).to_bits(), (-0.0f64).to_bits());
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&(-42i64)), -42);
        assert_eq!(roundtrip(&7usize), 7);
        assert!(roundtrip(&true));
        roundtrip(&());
    }

    #[test]
    fn containers_roundtrip() {
        assert_eq!(roundtrip(&vec![1.0f64, -2.0, 3.5]), vec![1.0, -2.0, 3.5]);
        assert_eq!(roundtrip(&Vec::<u64>::new()), Vec::<u64>::new());
        assert_eq!(
            roundtrip(&vec![vec![1u64, 2], vec![], vec![3]]),
            vec![vec![1u64, 2], vec![], vec![3]]
        );
        assert_eq!(roundtrip(&Some(9.5f64)), Some(9.5));
        assert_eq!(roundtrip(&Option::<f64>::None), None);
        assert_eq!(roundtrip(&(1.5f64, 2u64)), (1.5, 2));
        assert_eq!(
            roundtrip(&(1u64, vec![2.0f64], false)),
            (1, vec![2.0], false)
        );
    }

    #[test]
    fn matrix_roundtrips_bit_exact() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64 * 0.1 - 1.0);
        let back = roundtrip(&m);
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 4);
        assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn truncated_body_is_a_typed_error() {
        let (desc, body) = encode_value(&vec![1.0f64, 2.0, 3.0]);
        let err = decode_value::<Vec<f64>>(&desc, &body[..body.len() - 1]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn truncated_desc_is_a_typed_error() {
        let (desc, body) = encode_value(&Some(1.0f64));
        let err = decode_value::<Option<f64>>(&desc[..0], &body).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn oversized_length_is_a_typed_error() {
        let mut w = WireWriter::new();
        w.desc_u32(u32::MAX);
        let err = decode_value::<Vec<f64>>(&w.desc, &w.body).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "{err:?}");
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        let mut w = WireWriter::new();
        w.word_u64(7);
        let err = decode_value::<bool>(&w.desc, &w.body).unwrap_err();
        assert_eq!(
            err,
            WireError::BadTag {
                what: "bool",
                value: 7
            }
        );
        let mut w = WireWriter::new();
        w.desc_u8(9);
        let err = decode_value::<Option<f64>>(&w.desc, &w.body).unwrap_err();
        assert!(matches!(err, WireError::BadTag { .. }), "{err:?}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (desc, mut body) = encode_value(&1.0f64);
        body.extend_from_slice(&[0u8; 8]);
        let err = decode_value::<f64>(&desc, &body).unwrap_err();
        assert!(matches!(err, WireError::Trailing { .. }), "{err:?}");
    }
}
