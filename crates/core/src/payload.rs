//! Deterministic random payload generation.
//!
//! The paper's workers call `randomdata(size)`; here each worker draws its
//! payloads from its own seeded stream so whole experiments are
//! reproducible. Data generation time is excluded from all measurements
//! (matching the paper, which ignores it).
//!
//! Payload *content* never influences the simulated timing model — only
//! sizes do — so the generator amortizes allocation: for each requested
//! size it materializes a small rotation of deterministic random blocks
//! once, then hands out cheap reference-counted [`Bytes`] clones of them
//! round-robin. Consecutive payloads of the same size still differ (the
//! rotation holds [`BLOCK_ROTATION`] distinct blocks), and two generators
//! with the same `(master, stream)` seed still produce byte-identical
//! sequences, but a million 32 KiB uploads cost four 32 KiB allocations
//! instead of a million.

use std::collections::HashMap;

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Number of distinct cached blocks per payload size. Two is enough to keep
/// consecutive payloads distinct; four keeps short repeat cycles out of any
/// content-sensitive consumer.
pub const BLOCK_ROTATION: usize = 4;

/// The cached rotation of payload blocks for one size.
struct Blocks {
    blocks: [Bytes; BLOCK_ROTATION],
    next: usize,
}

/// A deterministic generator of random byte payloads.
pub struct PayloadGen {
    rng: SmallRng,
    cache: HashMap<usize, Blocks>,
}

impl PayloadGen {
    /// A generator seeded from `(master, stream)`.
    pub fn new(master: u64, stream: u64) -> Self {
        PayloadGen {
            rng: SmallRng::seed_from_u64(azsim_core::rng::derive_seed(master, stream ^ 0xF00D)),
            cache: HashMap::new(),
        }
    }

    /// Produce `size` random bytes.
    ///
    /// The first [`BLOCK_ROTATION`] calls for a given size draw fresh random
    /// blocks from this generator's stream; every later call is an O(1)
    /// clone of a cached block, cycling through the rotation.
    pub fn bytes(&mut self, size: usize) -> Bytes {
        let rng = &mut self.rng;
        let entry = self.cache.entry(size).or_insert_with(|| Blocks {
            blocks: std::array::from_fn(|_| {
                // Built through `BytesMut` so that a rotation dropped at one
                // ladder point is the next one's memory (see `shims/bytes`).
                let mut buf = BytesMut::zeroed(size);
                rng.fill_bytes(&mut buf);
                buf.freeze()
            }),
            next: 0,
        });
        let b = entry.blocks[entry.next].clone();
        entry.next = (entry.next + 1) % BLOCK_ROTATION;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_stream() {
        let mut a = PayloadGen::new(1, 2);
        let mut b = PayloadGen::new(1, 2);
        let mut c = PayloadGen::new(1, 3);
        let xa = a.bytes(1024);
        let xb = b.bytes(1024);
        let xc = c.bytes(1024);
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn produces_requested_sizes() {
        let mut g = PayloadGen::new(7, 0);
        assert_eq!(g.bytes(0).len(), 0);
        assert_eq!(g.bytes(1).len(), 1);
        assert_eq!(g.bytes(1 << 20).len(), 1 << 20);
    }

    #[test]
    fn consecutive_payloads_differ() {
        let mut g = PayloadGen::new(7, 0);
        assert_ne!(g.bytes(256), g.bytes(256));
    }

    #[test]
    fn payloads_rotate_through_cached_blocks() {
        let mut g = PayloadGen::new(7, 0);
        let first: Vec<Bytes> = (0..BLOCK_ROTATION).map(|_| g.bytes(512)).collect();
        for (i, a) in first.iter().enumerate() {
            for b in &first[i + 1..] {
                assert_ne!(a, b, "rotation blocks must be pairwise distinct");
            }
        }
        // The next lap reuses the same backing storage, not fresh copies.
        let again = g.bytes(512);
        assert_eq!(again, first[0]);
        assert_eq!(
            again.as_ptr(),
            first[0].as_ptr(),
            "must be a zero-copy clone"
        );
        // Caches are per-size: a different size starts its own rotation.
        assert_eq!(g.bytes(128).len(), 128);
        assert_eq!(g.bytes(512), first[1]);
    }
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The generator's bytes as they were before the rotation was built
    /// through `BytesMut` (fingerprints computed at that commit): the same
    /// RNG stream drawn in the same order, whether or not the buffer is a
    /// recycled one.
    #[test]
    fn payload_bytes_are_pinned() {
        // A dirty 1 MiB spare for the generator to pick up.
        let mut dirty = BytesMut::zeroed(1 << 20);
        dirty.fill(0xFF);
        drop(dirty.freeze());
        assert_eq!(
            fnv1a(&PayloadGen::new(2012, 0).bytes(1 << 20)),
            0x5a60_7b0a_e905_0985
        );
        let mut g = PayloadGen::new(2012, 0);
        let rotation: [u64; BLOCK_ROTATION] = std::array::from_fn(|_| fnv1a(&g.bytes(8192)));
        assert_eq!(
            rotation,
            [
                0xf2a6_eb70_a3d0_a40a,
                0xe175_c5e0_0267_0137,
                0x5df5_3f7d_63ad_3b0f,
                0x89bc_1798_7d31_63ce,
            ]
        );
    }
}
