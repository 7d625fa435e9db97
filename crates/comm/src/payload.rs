//! The [`Payload`] trait: anything that can cross a server boundary knows
//! its size in 8-byte words. This matches the paper's cost model, where a
//! word holds one matrix entry, index, or hash seed.

use dlra_linalg::Matrix;
use dlra_sketch::{CountSketch, HeavyHittersSketch};

/// Wire size in 8-byte words of a message payload.
pub trait Payload {
    /// Number of words this value occupies on the wire.
    fn words(&self) -> u64;
}

impl Payload for f64 {
    fn words(&self) -> u64 {
        1
    }
}

impl Payload for u64 {
    fn words(&self) -> u64 {
        1
    }
}

impl Payload for i64 {
    fn words(&self) -> u64 {
        1
    }
}

impl Payload for usize {
    fn words(&self) -> u64 {
        1
    }
}

impl Payload for bool {
    fn words(&self) -> u64 {
        1
    }
}

impl Payload for () {
    fn words(&self) -> u64 {
        0
    }
}

impl<T: Payload> Payload for Option<T> {
    fn words(&self) -> u64 {
        // The presence flag shares the frame word; only the content counts.
        self.as_ref().map_or(0, Payload::words)
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn words(&self) -> u64 {
        self.iter().map(Payload::words).sum()
    }
}

impl<T: Payload> Payload for &[T] {
    fn words(&self) -> u64 {
        self.iter().map(Payload::words).sum()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words() + self.2.words()
    }
}

/// A matrix on the wire costs one word per entry. This is its *logical*
/// size: `Matrix` storage is `Arc`-shared copy-on-write, so an in-process
/// substrate may deliver a broadcast matrix as an O(1) handle clone, but
/// the ledger charges what a real wire would carry — word accounting is
/// independent of how the storage is shared.
impl Payload for Matrix {
    fn words(&self) -> u64 {
        (self.rows() * self.cols()) as u64
    }
}

impl Payload for CountSketch {
    fn words(&self) -> u64 {
        self.size_words()
    }
}

impl Payload for HeavyHittersSketch {
    fn words(&self) -> u64 {
        self.size_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(Payload::words(&m), 12);
        // A clone shares storage but still costs full wire words: the
        // ledger models the network, not the in-process representation.
        let c = m.clone();
        assert!(c.shares_storage(&m));
        assert_eq!(Payload::words(&c), 12);
    }

    #[test]
    fn sketch_sizes() {
        let cs = CountSketch::new(4, 32, 0);
        assert_eq!(Payload::words(&cs), 128);
        let hh = HeavyHittersSketch::with_dims(4.0, 2, 8, 0);
        assert_eq!(Payload::words(&hh), 16);
    }
}
