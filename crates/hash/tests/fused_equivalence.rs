//! The fused quantize+hash kernel against a two-pass oracle.
//!
//! Chunk digests are defined by the two-pass formulation: quantize the
//! chunk to little-endian `i64` codes (`floor(x / ε)` with NaN/∞
//! sentinels and saturation), then hash each `block_bytes` block with
//! `Murmur3x64_128::with_digest_seed(previous digest)`. The library
//! computes the same digests with a branch-free quantizer, stack tiles,
//! and four interleaved chunks. This suite keeps the two-pass form as the
//! oracle and checks bit-identity for codes, chunk digests, and the
//! Merkle leaves every builder writes on every kind of device.

use reprocmp_device::Device;
use reprocmp_hash::{ChunkHasher, Digest128, Murmur3x64_128, Quantizer, QuantizerF64};
use reprocmp_merkle::MerkleTree;

/// The sentinel codes of the digest format.
const CODE_NAN: i64 = i64::MAX;
const CODE_POS_INF: i64 = i64::MAX - 1;
const CODE_NEG_INF: i64 = i64::MIN + 1;

const EPSILONS: [f64; 6] = [1e-30, 1e-7, 1e-5, 1e-3, 1.0, 1e30];

/// The reference code of `x` under `ε`: sentinels for NaN and ±∞, libm
/// `floor` for finite values, saturation just inside the sentinels.
fn reference_code(x: f64, eps: f64) -> i64 {
    if x.is_nan() {
        return CODE_NAN;
    }
    if x.is_infinite() {
        return if x > 0.0 { CODE_POS_INF } else { CODE_NEG_INF };
    }
    let scaled = x * (1.0 / eps);
    if scaled >= (CODE_POS_INF - 1) as f64 {
        CODE_POS_INF - 1
    } else if scaled <= (CODE_NEG_INF + 1) as f64 {
        CODE_NEG_INF + 1
    } else {
        scaled.floor() as i64
    }
}

/// The two-pass digest: reference codes into a byte buffer, then one
/// full Murmur3F call per block, seeded by the previous digest.
fn oracle_chunk(chunk: &[f32], eps: f64, block_bytes: usize) -> Digest128 {
    let bytes: Vec<u8> = chunk
        .iter()
        .flat_map(|&x| reference_code(f64::from(x), eps).to_le_bytes())
        .collect();
    let mut digest = Digest128::ZERO;
    if bytes.is_empty() {
        return Murmur3x64_128::with_digest_seed(digest).hash(&[0x45]);
    }
    for block in bytes.chunks(block_bytes) {
        digest = Murmur3x64_128::with_digest_seed(digest).hash(block);
    }
    digest
}

fn oracle_leaves(data: &[f32], chunk_len: usize, eps: f64, block_bytes: usize) -> Vec<Digest128> {
    data.chunks(chunk_len)
        .map(|c| oracle_chunk(c, eps, block_bytes))
        .collect()
}

/// The next f32 toward +∞, for finite `x`.
fn next_up(x: f32) -> f32 {
    let bits = x.to_bits();
    f32::from_bits(if x == 0.0 {
        1
    } else if bits >> 31 == 0 {
        bits + 1
    } else {
        bits - 1
    })
}

/// The next f64 toward +∞, for finite `x`.
fn next_up_f64(x: f64) -> f64 {
    let bits = x.to_bits();
    f64::from_bits(if x == 0.0 {
        1
    } else if bits >> 63 == 0 {
        bits + 1
    } else {
        bits - 1
    })
}

/// Hand-picked f32 inputs: signed zeros, subnormals, extremes,
/// infinities, NaN payloads.
fn special_f32() -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffff_ffff),
        0.5,
        -0.5,
        1.0,
        -1.0,
        1.5,
        -1.5,
    ]
}

/// Values whose scaled product lands on (or next to) an integer, and on
/// either side of ±2^63, for bound `eps`.
fn boundary_f32(eps: f64) -> Vec<f32> {
    let mut out = Vec::new();
    for k in [
        -1_000_001i64,
        -65_536,
        -3,
        -2,
        -1,
        0,
        1,
        2,
        3,
        4097,
        1 << 24,
    ] {
        let v = (k as f64 * eps) as f32;
        if v.is_finite() {
            out.extend([v, next_up(v), -next_up(-v)]);
        }
    }
    for edge in [2f64.powi(63), -(2f64.powi(63))] {
        let v = (edge * eps) as f32;
        if v.is_finite() {
            out.extend([v, next_up(v), -next_up(-v)]);
        }
    }
    out
}

fn boundary_f64(eps: f64) -> Vec<f64> {
    let mut out = Vec::new();
    for k in [
        -1_000_001i64,
        -3,
        -1,
        0,
        1,
        2,
        3,
        1 << 40,
        1 << 53,
        (1 << 53) + 1,
    ] {
        let v = k as f64 * eps;
        if v.is_finite() {
            out.extend([v, next_up_f64(v), -next_up_f64(-v)]);
        }
    }
    for edge in [2f64.powi(63), -(2f64.powi(63)), 2f64.powi(62)] {
        let v = edge * eps;
        if v.is_finite() {
            out.extend([v, next_up_f64(v), -next_up_f64(-v)]);
        }
    }
    out
}

#[test]
fn f32_codes_match_the_reference_floor() {
    for eps in EPSILONS {
        let q = Quantizer::new(eps).unwrap();
        let strided = (0..=u32::MAX / 977).map(|i| f32::from_bits(i * 977));
        for x in strided.chain(special_f32()).chain(boundary_f32(eps)) {
            assert_eq!(
                q.quantize(x),
                reference_code(f64::from(x), eps),
                "x = {x:e} ({:#010x}), eps = {eps:e}",
                x.to_bits()
            );
        }
    }
}

#[test]
fn f64_codes_match_the_reference_floor() {
    for eps in EPSILONS {
        let q = QuantizerF64::new(eps).unwrap();
        let widened = (0..=u32::MAX / 977).map(|i| f64::from(f32::from_bits(i * 977)));
        let strided =
            (0..1u64 << 20).map(|i| f64::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
        ];
        for x in widened
            .chain(strided)
            .chain(specials)
            .chain(boundary_f64(eps))
        {
            assert_eq!(
                q.quantize(x),
                reference_code(x, eps),
                "x = {x:e} ({:#018x}), eps = {eps:e}",
                x.to_bits()
            );
        }
    }
}

/// Smooth data spanning many grid cells, optionally with NaN and ±∞
/// sprinkled through it.
fn sample_data(n: usize, non_finite: bool) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 97 {
            13 if non_finite => f32::NAN,
            41 if non_finite => f32::INFINITY,
            77 if non_finite => f32::NEG_INFINITY,
            _ => (i as f32 * 0.37).sin() * 10.0 + (i % 5) as f32 * 1e-4,
        })
        .collect()
}

const CHUNK_LENS: [usize; 9] = [0, 1, 2, 3, 63, 64, 65, 1023, 1024];
/// Block sizes in bytes: one code per block, the default, an odd code
/// count, and blocks longer than one kernel tile (even and odd).
const BLOCK_BYTES: [usize; 6] = [8, 16, 24, 64, 1024, 1032];

#[test]
fn single_chunk_digests_match_the_oracle() {
    let eps = 1e-5;
    let q = Quantizer::new(eps).unwrap();
    for block in BLOCK_BYTES {
        let h = ChunkHasher::with_block_bytes(q, block);
        for len in CHUNK_LENS {
            for non_finite in [false, true] {
                let data = sample_data(len, non_finite);
                assert_eq!(
                    h.hash_chunk(&data),
                    oracle_chunk(&data, eps, block),
                    "block {block}, len {len}, non-finite {non_finite}"
                );
            }
        }
    }
}

#[test]
fn leaf_digests_match_the_oracle_for_every_group_shape() {
    let eps = 1e-3;
    let q = Quantizer::new(eps).unwrap();
    for block in BLOCK_BYTES {
        let h = ChunkHasher::with_block_bytes(q, block);
        for chunk_len in CHUNK_LENS.into_iter().filter(|&c| c > 0) {
            // Whole groups of four, leftovers of one to three chunks, and
            // a short tail chunk.
            for chunks in [1usize, 3, 4, 5, 8, 11] {
                for tail in [0, chunk_len.div_ceil(2)] {
                    if tail == chunk_len {
                        continue;
                    }
                    let data = sample_data(chunks * chunk_len + tail, chunks % 2 == 1);
                    assert_eq!(
                        h.hash_leaves(&data, chunk_len),
                        oracle_leaves(&data, chunk_len, eps, block),
                        "block {block}, chunk_len {chunk_len}, {chunks} chunks + {tail}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_non_finite_value_in_one_lane_leaves_the_other_lanes_exact() {
    let eps = 1e-5;
    let h = ChunkHasher::new(Quantizer::new(eps).unwrap());
    for special in [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN,
    ] {
        for lane in 0..4 {
            let mut data = sample_data(4 * 256, false);
            data[lane * 256 + 100] = special;
            assert_eq!(
                h.hash_leaves(&data, 256),
                oracle_leaves(&data, 256, eps, 16),
                "{special:e} in lane {lane}"
            );
        }
    }
}

fn devices() -> [Device; 3] {
    [
        Device::host_serial(),
        Device::host_parallel(3),
        Device::sim_gpu(),
    ]
}

#[test]
fn tree_builders_write_oracle_leaves_on_every_device() {
    let eps = 1e-5;
    let q = Quantizer::new(eps).unwrap();
    for block in BLOCK_BYTES {
        let h = ChunkHasher::with_block_bytes(q, block);
        for chunk_len in CHUNK_LENS.into_iter().filter(|&c| c > 0) {
            let data = sample_data(9 * chunk_len + chunk_len.div_ceil(3), true);
            let expect = oracle_leaves(&data, chunk_len, eps, block);
            for dev in devices() {
                let plain = MerkleTree::build_from_f32(&data, chunk_len * 4, &h, &dev);
                let (profiled, _) =
                    MerkleTree::build_from_f32_profiled(&data, chunk_len * 4, &h, &dev);
                let leaves: Vec<_> = (0..plain.leaf_count()).map(|i| plain.leaf(i)).collect();
                assert_eq!(
                    leaves,
                    expect,
                    "{} block {block} chunk_len {chunk_len}",
                    dev.name()
                );
                assert_eq!(plain, profiled, "{}", dev.name());
                let rebuilt = MerkleTree::from_leaves(
                    expect.clone(),
                    chunk_len * 4,
                    plain.data_len(),
                    eps,
                    &dev,
                );
                assert_eq!(plain, rebuilt, "{}", dev.name());
            }
        }
    }
}

#[test]
fn incremental_updates_rehash_to_oracle_leaves() {
    let eps = 1e-5;
    let h = ChunkHasher::new(Quantizer::new(eps).unwrap());
    let chunk_len = 64;
    let mut data = sample_data(23 * chunk_len + 5, false);
    let mut tree = MerkleTree::build_from_f32(&data, chunk_len * 4, &h, &Device::host_serial());
    for (lo, hi) in [(0, 1), (100, 700), (1400, data.len())] {
        for v in &mut data[lo..hi] {
            *v = -*v + 0.25;
        }
        data[lo] = f32::NAN;
        tree.update_region(&data, lo..hi, &h);
    }
    let expect = oracle_leaves(&data, chunk_len, eps, 16);
    let leaves: Vec<_> = (0..tree.leaf_count()).map(|i| tree.leaf(i)).collect();
    assert_eq!(leaves, expect);
}

#[test]
fn block_size_rounds_up_to_whole_codes() {
    let q = Quantizer::new(1e-5).unwrap();
    for (asked, got) in [
        (0, 8),
        (1, 8),
        (8, 8),
        (9, 16),
        (16, 16),
        (17, 24),
        (1030, 1032),
    ] {
        assert_eq!(ChunkHasher::with_block_bytes(q, asked).block_bytes(), got);
    }
}
