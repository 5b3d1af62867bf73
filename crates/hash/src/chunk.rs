//! Block-chained error-bounded chunk hashing.
//!
//! A checkpoint is split into fixed-size *chunks* (the Merkle-tree
//! leaves). Inside a chunk the paper serializes hashing at the
//! granularity of 128-bit blocks: block *k* is hashed with the digest of
//! block *k−1* as seed, so the final digest reflects every quantized
//! value in the chunk while the hash primitive only ever sees small,
//! fixed-size inputs. Across chunks everything is embarrassingly
//! parallel.
//!
//! # The fused kernel
//!
//! The digest is defined as "quantize the chunk to little-endian `i64`
//! codes, then run `Murmur3x64_128::with_digest_seed(prev).hash(block)`
//! over each block". The kernel computes exactly that in one pass with no
//! code buffer on the heap:
//!
//! * values are quantized a tile at a time into a stack array (see
//!   `Quantizer::quantize_tile`);
//! * a block of `m = block_bytes / 8` codes is ⌊m/2⌋ Murmur3F body
//!   rounds taking two codes each, one 8-byte tail round when `m` is odd,
//!   then finalization with `len = 8m`, all seeded by the previous
//!   digest — `Murmur3x64_128::hash` specialized to whole codes;
//! * four equal-length chunks run side by side, so their independent
//!   digest chains overlap in the CPU pipeline instead of each waiting
//!   on its own finalizer.

use crate::bounded::Quantizer;
use crate::murmur3::{body_round, finalize, tail_round, Digest128, Murmur3x64_128};

/// Default block size in bytes (128 bits, the paper's granularity).
pub const DEFAULT_BLOCK_BYTES: usize = 16;

/// Chunks hashed side by side by the fused kernel.
const LANES: usize = 4;

/// Codes quantized per lane per tile; even, so that a block longer than a
/// tile is split only between body rounds.
const TILE: usize = 64;

/// Hashes chunks of `f32` data under an error bound.
///
/// The hasher owns a [`Quantizer`]; two `ChunkHasher`s built from equal
/// quantizers produce identical digests for inputs that agree within the
/// bound's grid.
///
/// ```
/// use reprocmp_hash::{bounded::Quantizer, chunk::ChunkHasher};
/// let hasher = ChunkHasher::new(Quantizer::new(1e-4).unwrap());
/// let a = vec![1.0f32; 256];
/// let mut b = a.clone();
/// b[200] += 5e-5; // inside the bound and inside the same grid cell
/// assert_eq!(hasher.hash_chunk(&a), hasher.hash_chunk(&a));
/// ```
#[derive(Debug, Clone)]
pub struct ChunkHasher {
    quantizer: Quantizer,
    block_bytes: usize,
}

impl ChunkHasher {
    /// Creates a hasher with the default 128-bit block size.
    #[must_use]
    pub fn new(quantizer: Quantizer) -> Self {
        ChunkHasher {
            quantizer,
            block_bytes: DEFAULT_BLOCK_BYTES,
        }
    }

    /// Creates a hasher with a custom block size in bytes.
    ///
    /// The block-based scheme "allows integration with any hashing
    /// algorithm, as the block size is variable" — larger blocks trade
    /// chain length for per-call throughput. A block holds whole 8-byte
    /// codes, so `block_bytes` is rounded up to a multiple of 8 (and to
    /// at least 8).
    #[must_use]
    pub fn with_block_bytes(quantizer: Quantizer, block_bytes: usize) -> Self {
        ChunkHasher {
            quantizer,
            block_bytes: block_bytes.max(8).next_multiple_of(8),
        }
    }

    /// The quantizer (and thus the error bound) in use.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The chaining block size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Hashes one chunk of floats: quantize, then chain 128-bit blocks.
    #[must_use]
    pub fn hash_chunk(&self, chunk: &[f32]) -> Digest128 {
        if chunk.is_empty() {
            // An empty chunk gets a defined digest distinct from the zero
            // sentinel. The single marker byte cannot collide with real
            // chunks, whose quantized byte length is always a multiple of 8.
            return Murmur3x64_128::with_digest_seed(Digest128::ZERO).hash(&[0x45]);
        }
        let [digest] = self.hash_lanes([chunk]);
        digest
    }

    /// Hashes an entire buffer split into `chunk_len`-value chunks,
    /// returning one digest per chunk (the Merkle leaves).
    ///
    /// The final chunk may be short. `chunk_len` must be non-zero.
    #[must_use]
    pub fn hash_leaves(&self, data: &[f32], chunk_len: usize) -> Vec<Digest128> {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        let mut leaves = vec![Digest128::ZERO; data.len().div_ceil(chunk_len)];
        self.hash_leaves_into(data, chunk_len, &mut leaves);
        leaves
    }

    /// [`ChunkHasher::hash_leaves`] writing into `out`, one slot per
    /// chunk — the form the tree builders run per device task.
    ///
    /// # Panics
    ///
    /// If `chunk_len` is zero or `out.len()` is not the chunk count.
    pub fn hash_leaves_into(&self, data: &[f32], chunk_len: usize, out: &mut [Digest128]) {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        assert_eq!(
            out.len(),
            data.len().div_ceil(chunk_len),
            "one output slot per chunk"
        );
        let groups = data.chunks_exact(LANES * chunk_len);
        let (grouped, rest) = out.split_at_mut(groups.len() * LANES);
        let rest_data = groups.remainder();
        for (group, slots) in groups.zip(grouped.chunks_exact_mut(LANES)) {
            let lanes: [&[f32]; LANES] =
                std::array::from_fn(|l| &group[l * chunk_len..(l + 1) * chunk_len]);
            slots.copy_from_slice(&self.hash_lanes(lanes));
        }
        // Fewer than four chunks left, the last possibly short.
        for (chunk, slot) in rest_data.chunks(chunk_len).zip(rest) {
            *slot = self.hash_chunk(chunk);
        }
    }

    /// The fused kernel: digests of `L` non-empty, equal-length chunks.
    ///
    /// All lanes share one block structure, so the control flow below is
    /// paid once per `L` chunks and the per-lane work is straight-line.
    #[inline(always)]
    fn hash_lanes<const L: usize>(&self, chunks: [&[f32]; L]) -> [Digest128; L] {
        let n = chunks[0].len();
        debug_assert!(n > 0 && chunks.iter().all(|c| c.len() == n));
        let m = self.block_bytes / 8;
        // A tile holds whole blocks when they fit; a longer block is
        // quantized in `TILE`-code pieces that end at its last code.
        let blocks_per_tile = (TILE / m).max(1);
        let mut tile = [[0i64; TILE]; L];
        let (mut tile_lo, mut tile_hi) = (0, 0);
        // Each lane's chained state: the previous block's digest between
        // blocks, the running Murmur3F state inside one.
        let mut h = [[0u64; 2]; L];
        let mut block_lo = 0;
        while block_lo < n {
            let block_hi = (block_lo + m).min(n);
            let mut i = block_lo;
            loop {
                if i == tile_hi {
                    tile_lo = i;
                    tile_hi = if m <= TILE {
                        (i + blocks_per_tile * m).min(n)
                    } else {
                        (i + TILE).min(block_hi)
                    };
                    let len = tile_hi - tile_lo;
                    for (codes, chunk) in tile.iter_mut().zip(&chunks) {
                        self.quantizer
                            .quantize_tile(&chunk[tile_lo..tile_hi], &mut codes[..len]);
                    }
                }
                let piece_hi = block_hi.min(tile_hi);
                while i + 2 <= piece_hi {
                    let j = i - tile_lo;
                    for (h, codes) in h.iter_mut().zip(&tile) {
                        *h = body_round(*h, codes[j] as u64, codes[j + 1] as u64);
                    }
                    i += 2;
                }
                if i < piece_hi {
                    // One code left in the piece: the block's odd last
                    // code, since pieces split a block at even offsets.
                    let j = i - tile_lo;
                    for (h, codes) in h.iter_mut().zip(&tile) {
                        *h = tail_round(*h, codes[j] as u64);
                    }
                    i += 1;
                }
                if i == block_hi {
                    break;
                }
            }
            let len = ((block_hi - block_lo) * 8) as u64;
            for h in &mut h {
                *h = finalize(*h, len);
            }
            block_lo = block_hi;
        }
        h.map(Digest128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher(bound: f64) -> ChunkHasher {
        ChunkHasher::new(Quantizer::new(bound).unwrap())
    }

    #[test]
    fn deterministic() {
        let h = hasher(1e-5);
        let data: Vec<f32> = (0..512).map(|i| (i as f32).sin()).collect();
        assert_eq!(h.hash_chunk(&data), h.hash_chunk(&data));
    }

    #[test]
    fn change_above_bound_changes_digest() {
        let h = hasher(1e-5);
        let a: Vec<f32> = (0..512).map(|i| i as f32 * 0.1).collect();
        let mut b = a.clone();
        b[511] += 1e-3;
        assert_ne!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    fn first_element_change_propagates_through_chain() {
        let h = hasher(1e-5);
        let a: Vec<f32> = vec![0.0; 1024];
        let mut b = a.clone();
        b[0] = 1.0;
        assert_ne!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    fn same_grid_cell_same_digest() {
        let h = hasher(1e-2);
        // 0.105 and 0.1075 both land in cell floor(x/0.01) = 10.
        let a = vec![0.105f32; 64];
        let b = vec![0.1075f32; 64];
        assert_eq!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    fn block_size_changes_digest_but_not_equality_semantics() {
        let q = Quantizer::new(1e-4).unwrap();
        let h16 = ChunkHasher::with_block_bytes(q, 16);
        let h64 = ChunkHasher::with_block_bytes(q, 64);
        let data: Vec<f32> = (0..256).map(|i| i as f32 * 0.3).collect();
        // Different block sizes give different digests…
        assert_ne!(h16.hash_chunk(&data), h64.hash_chunk(&data));
        // …but each is self-consistent.
        assert_eq!(h64.hash_chunk(&data), h64.hash_chunk(&data));
    }

    #[test]
    fn empty_and_singleton_chunks_are_defined_and_distinct() {
        let h = hasher(1e-3);
        let empty = h.hash_chunk(&[]);
        let one = h.hash_chunk(&[0.0]);
        assert_ne!(empty, one);
        assert_ne!(empty, Digest128::ZERO);
    }

    #[test]
    fn hash_leaves_counts_and_tail() {
        let h = hasher(1e-3);
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let leaves = h.hash_leaves(&data, 30);
        assert_eq!(leaves.len(), 4); // 30+30+30+10
                                     // Tail chunk digest must differ from a full chunk of same prefix.
        let full = h.hash_chunk(&data[90..100]);
        assert_eq!(leaves[3], full);
    }

    #[test]
    fn order_matters_within_chunk() {
        let h = hasher(1e-3);
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b = vec![4.0f32, 3.0, 2.0, 1.0];
        assert_ne!(h.hash_chunk(&a), h.hash_chunk(&b));
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_len_panics() {
        let h = hasher(1e-3);
        let _ = h.hash_leaves(&[1.0], 0);
    }
}
