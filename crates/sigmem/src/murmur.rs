//! MurmurHash3 implemented from scratch (x86_32 and x64_128 variants, plus
//! the 64-bit finalizer used as a fast address hash).
//!
//! The paper selects MurmurHash for the first-level signature index because
//! it "has much lower time complexity while having less collisions in
//! comparison with other hash functions" (§IV-D2). We implement the public
//! reference algorithm by Austin Appleby; the x86_32 variant is validated
//! against the canonical test vectors, and the 64-bit finalizer (`fmix64`)
//! is the hot path used to map memory addresses to signature slots.

/// The 64-bit finalization mix of MurmurHash3.
///
/// This is a full-avalanche bijective mixer: every input bit affects every
/// output bit with probability ~1/2. Being bijective, it never introduces
/// collisions on 64-bit inputs, which makes it ideal for hashing memory
/// addresses before reduction modulo the slot count.
#[inline]
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// The 32-bit finalization mix of MurmurHash3.
#[inline]
pub fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// Number of independent hash lanes [`hash_block`] interleaves.
///
/// `fmix64` is a serial chain of five data-dependent steps (~15 cycles of
/// latency), but each step is one cheap ALU op (~1 cycle of throughput).
/// Hashing one address at a time leaves the multiplier idle waiting on the
/// dependency chain; interleaving four independent chains keeps it fed and
/// approaches throughput-bound instead of latency-bound hashing. Four lanes
/// also give the autovectorizer a clean SWAR shape on targets with 64-bit
/// SIMD multiplies.
pub const HASH_BLOCK_LANES: usize = 4;

/// Four [`fmix64`] chains advanced in lockstep (software pipelining).
///
/// Bit-for-bit identical to calling [`fmix64`] on each lane — the batched
/// hot path depends on that equivalence, and `tests/batched_hot_path.rs`
/// pins it differentially.
#[inline]
pub fn fmix64_x4(k: [u64; 4]) -> [u64; 4] {
    let [mut a, mut b, mut c, mut d] = k;
    a ^= a >> 33;
    b ^= b >> 33;
    c ^= c >> 33;
    d ^= d >> 33;
    a = a.wrapping_mul(0xff51_afd7_ed55_8ccd);
    b = b.wrapping_mul(0xff51_afd7_ed55_8ccd);
    c = c.wrapping_mul(0xff51_afd7_ed55_8ccd);
    d = d.wrapping_mul(0xff51_afd7_ed55_8ccd);
    a ^= a >> 33;
    b ^= b >> 33;
    c ^= c >> 33;
    d ^= d >> 33;
    a = a.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    b = b.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    c = c.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    d = d.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    a ^= a >> 33;
    b ^= b >> 33;
    c ^= c >> 33;
    d ^= d >> 33;
    [a, b, c, d]
}

/// Hash a whole struct-of-arrays address block at once: `out[i] =
/// fmix64(addrs[i])` for every lane, with the bulk processed
/// [`HASH_BLOCK_LANES`] chains at a time and the remainder scalar.
///
/// This is the batched counterpart of the per-event slot hash — the replay
/// hot path gathers a tile of addresses from the SoA trace, hashes the tile
/// here, and then walks the precomputed hashes (also using them as prefetch
/// hints). Exact equivalence with the scalar path is load-bearing: the slot
/// an address routes to must not depend on which path hashed it.
///
/// # Panics
/// When the slices' lengths differ.
#[inline]
pub fn hash_block(addrs: &[u64], out: &mut [u64]) {
    assert_eq!(addrs.len(), out.len(), "hash_block: length mismatch");
    let mut chunks = addrs.chunks_exact(HASH_BLOCK_LANES);
    let mut outs = out.chunks_exact_mut(HASH_BLOCK_LANES);
    for (a, o) in (&mut chunks).zip(&mut outs) {
        o.copy_from_slice(&fmix64_x4([a[0], a[1], a[2], a[3]]));
    }
    for (a, o) in chunks
        .remainder()
        .iter()
        .zip(outs.into_remainder().iter_mut())
    {
        *o = fmix64(*a);
    }
}

/// MurmurHash3 x86_32 over an arbitrary byte slice.
pub fn murmur3_x86_32(data: &[u8], seed: u32) -> u32 {
    const C1: u32 = 0xcc9e_2d51;
    const C2: u32 = 0x1b87_3593;

    let mut h1 = seed;
    let nblocks = data.len() / 4;

    for block in data.chunks_exact(4) {
        let mut k1 = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(15);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(13);
        h1 = h1.wrapping_mul(5).wrapping_add(0xe654_6b64);
    }

    let tail = &data[nblocks * 4..];
    let mut k1: u32 = 0;
    if tail.len() >= 3 {
        k1 ^= (tail[2] as u32) << 16;
    }
    if tail.len() >= 2 {
        k1 ^= (tail[1] as u32) << 8;
    }
    if !tail.is_empty() {
        k1 ^= tail[0] as u32;
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(15);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= data.len() as u32;
    fmix32(h1)
}

/// MurmurHash3 x64_128 over an arbitrary byte slice, returning the 128-bit
/// digest as two 64-bit halves.
pub fn murmur3_x64_128(data: &[u8], seed: u64) -> (u64, u64) {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    let mut h1 = seed;
    let mut h2 = seed;
    let nblocks = data.len() / 16;

    for block in data.chunks_exact(16) {
        let mut k1 = u64::from_le_bytes(block[0..8].try_into().unwrap());
        let mut k2 = u64::from_le_bytes(block[8..16].try_into().unwrap());

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    let tail = &data[nblocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;
    // Process the 0-15 trailing bytes, mirroring the reference fallthrough
    // switch (bytes 15..9 feed k2, bytes 8..1 feed k1).
    for i in (8..tail.len()).rev() {
        k2 ^= (tail[i] as u64) << ((i - 8) * 8);
    }
    if tail.len() > 8 {
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
    }
    for i in (0..tail.len().min(8)).rev() {
        k1 ^= (tail[i] as u64) << (i * 8);
    }
    if !tail.is_empty() {
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    (h1, h2)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Canonical x86_32 test vectors (Appleby's reference implementation).
    #[test]
    fn x86_32_empty_input_vectors() {
        assert_eq!(murmur3_x86_32(b"", 0), 0);
        assert_eq!(murmur3_x86_32(b"", 1), 0x514e_28b7);
        assert_eq!(murmur3_x86_32(b"", 0xffff_ffff), 0x81f1_6f39);
    }

    #[test]
    fn x86_32_short_input_vectors() {
        assert_eq!(murmur3_x86_32(&[0xff, 0xff, 0xff, 0xff], 0), 0x7629_3b50);
        assert_eq!(murmur3_x86_32(&[0x21, 0x43, 0x65, 0x87], 0), 0xf55b_516b);
        assert_eq!(
            murmur3_x86_32(&[0x21, 0x43, 0x65, 0x87], 0x5082_edee),
            0x2362_f9de
        );
        assert_eq!(murmur3_x86_32(&[0x21, 0x43, 0x65], 0), 0x7e4a_8634);
        assert_eq!(murmur3_x86_32(&[0x21, 0x43], 0), 0xa0f7_b07a);
        assert_eq!(murmur3_x86_32(&[0x21], 0), 0x7266_1cf4);
        assert_eq!(murmur3_x86_32(&[0, 0, 0, 0], 0), 0x2362_f9de);
        assert_eq!(murmur3_x86_32(&[0, 0, 0], 0), 0x85f0_b427);
        assert_eq!(murmur3_x86_32(&[0, 0], 0), 0x30f4_c306);
        assert_eq!(murmur3_x86_32(&[0], 0), 0x514e_28b7);
    }

    #[test]
    fn fmix64_is_bijective_on_samples() {
        // A bijection never maps two distinct inputs to the same output;
        // sample a dense range and check injectivity.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            assert!(seen.insert(fmix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn fmix64_zero_maps_to_zero() {
        // Known fixed point of the finalizer.
        assert_eq!(fmix64(0), 0);
    }

    #[test]
    fn x64_128_empty_is_zero_with_zero_seed() {
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    }

    #[test]
    fn x64_128_differs_across_inputs_and_seeds() {
        let h1 = murmur3_x64_128(b"hello", 0);
        let h2 = murmur3_x64_128(b"hellp", 0);
        let h3 = murmur3_x64_128(b"hello", 1);
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn x64_128_tail_lengths_all_distinct() {
        // Exercise every tail length 0..=16 and ensure no accidental
        // collisions among the prefixes of a fixed buffer.
        let buf: Vec<u8> = (0u8..33).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=buf.len() {
            assert!(seen.insert(murmur3_x64_128(&buf[..len], 7)));
        }
    }

    #[test]
    fn fmix64_x4_matches_scalar_lanes() {
        let inputs = [0u64, 1, 0xdead_beef, u64::MAX];
        let out = fmix64_x4(inputs);
        for (i, k) in inputs.iter().enumerate() {
            assert_eq!(out[i], fmix64(*k), "lane {i}");
        }
    }

    #[test]
    fn hash_block_matches_scalar_at_every_length() {
        // Every remainder shape (0..LANES-1 trailing lanes) plus empty.
        for len in 0..=(3 * HASH_BLOCK_LANES + 3) {
            let addrs: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9e37) ^ 0x1000)
                .collect();
            let mut out = vec![0u64; len];
            hash_block(&addrs, &mut out);
            for (i, a) in addrs.iter().enumerate() {
                assert_eq!(out[i], fmix64(*a), "len {len} lane {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hash_block_rejects_mismatched_slices() {
        let mut out = vec![0u64; 3];
        hash_block(&[1, 2], &mut out);
    }

    #[test]
    fn x86_32_longer_ascii_vector() {
        // "Hello, world!" with seed 0 — widely replicated vector.
        assert_eq!(murmur3_x86_32(b"Hello, world!", 0), 0xc036_3e43);
    }
}
