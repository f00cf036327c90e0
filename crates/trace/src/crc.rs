//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the framing
//! checksum shared by the v2/v3 spools, the wire frames, the side-car
//! index, the analysis checkpoints and the tenant state files.
//!
//! One value, two kernels, chosen from what the code observes:
//!
//! * **carry-less multiply** (`x86_64` with `pclmulqdq` + `sse4.1`
//!   detected at run time, inputs of at least [`FOLD_MIN_BYTES`]): four
//!   128-bit lanes are folded 64 bytes at a time, reduced to one lane, and
//!   brought down to 32 bits by Barrett reduction (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009). No table, so the detector's signature lines keep the L1.
//! * **slicing-by-16** everywhere else — other platforms, short inputs,
//!   and the < 16-byte tail the folding kernel leaves: 16 bytes per step
//!   through sixteen 1 KiB tables instead of one dependent load per byte.
//!
//! Both compute exactly the function the original bytewise loop computed
//! (kept below as the test oracle), so every stored checksum still
//! verifies and nothing on disk or on the wire changes.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Below this many bytes the folding kernel's set-up and 128→32-bit
/// reduction cost more than the table kernel's whole pass.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_BYTES: usize = 128;

/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes; `TABLES[0]` is the classic bytewise table.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of a byte slice (IEEE 802.3, reflected; `"123456789"` →
/// `0xCBF43926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advance the raw (un-inverted) CRC state over `bytes` with the fastest
/// kernel this CPU and this length allow.
fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN_BYTES
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (lanes, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: both target features were detected on the line above,
        // and `lanes` holds at least 64 bytes (FOLD_MIN_BYTES = 128
        // rounded down to a multiple of 16) in whole 16-byte lanes — the
        // two preconditions `fold_pclmulqdq` states.
        let state = unsafe { pclmul::fold_pclmulqdq(state, lanes) };
        return update_table(state, tail);
    }
    update_table(state, bytes)
}

/// Slicing-by-16: sixteen independent table loads per 16 input bytes.
fn update_table(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][b[4] as usize]
            ^ TABLES[10][b[5] as usize]
            ^ TABLES[9][b[6] as usize]
            ^ TABLES[8][b[7] as usize]
            ^ TABLES[7][b[8] as usize]
            ^ TABLES[6][b[9] as usize]
            ^ TABLES[5][b[10] as usize]
            ^ TABLES[4][b[11] as usize]
            ^ TABLES[3][b[12] as usize]
            ^ TABLES[2][b[13] as usize]
            ^ TABLES[1][b[14] as usize]
            ^ TABLES[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial: `x^n mod P`,
    // bit-reflected and shifted left by one (the test module derives each
    // of them from `POLY`).
    /// x^(4·128+32) — fold a lane's low half across four lanes.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// x^(4·128−32) — fold a lane's high half across four lanes.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) — fold the low half across one lane.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// x^(128−32) — fold the high half across one lane.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// x^64 — the 96→64-bit step.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// P(x), all 33 bits, reflected.
    pub(super) const P_X: i64 = 0x1_db71_0641;
    /// μ = ⌊x^64 / P(x)⌋, reflected — the Barrett constant.
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Read one 16-byte lane; `lane` is always a `chunks_exact(16)` item.
    #[inline(always)]
    fn load(lane: &[u8]) -> __m128i {
        let lane: &[u8; 16] = lane.try_into().expect("16-byte lane");
        // SAFETY: `lane` is a valid reference to 16 readable bytes and
        // `_mm_loadu_si128` has no alignment requirement (SSE2, baseline
        // on x86_64).
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// `acc · x^shift ⊕ next`, with `keys` = (x^(shift+32), x^(shift−32)).
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advance the raw CRC state over `lanes` by 4×128-bit folding and
    /// return the new raw state.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`, and `lanes.len()`
    /// must be a multiple of 16 and at least 64 (the first four loads are
    /// unconditional).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn fold_pclmulqdq(state: u32, lanes: &[u8]) -> u32 {
        debug_assert!(lanes.len() >= 64 && lanes.len() % 16 == 0);
        let (head, rest) = lanes.split_at(64);
        let mut x0 = _mm_xor_si128(load(&head[0..16]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&head[16..32]);
        let mut x2 = load(&head[32..48]);
        let mut x3 = load(&head[48..64]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for b in &mut blocks {
            x0 = fold(x0, load(&b[0..16]), k1k2);
            x1 = fold(x1, load(&b[16..32]), k1k2);
            x2 = fold(x2, load(&b[32..48]), k1k2);
            x3 = fold(x3, load(&b[48..64]), k1k2);
        }

        // Four lanes → one, then the up-to-three whole lanes left over.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        for lane in blocks.remainder().chunks_exact(16) {
            x = fold(x, load(lane), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett: 64 → 32 bits. T1 = ⌊R mod x^32⌋·μ, T2 = ⌊T1 mod x^32⌋·P,
        // CRC = ⌊(R ⊕ T2) / x^32⌋.
        let p_mu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original kernel — one table load per byte — kept as the oracle.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic filler that is neither constant nor periodic in 16.
    fn filler(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference(b""), 0);
    }

    #[test]
    fn both_kernels_match_the_bytewise_reference_at_every_length_and_offset() {
        let lengths = (0..=600).chain([4095, 4096, 4097, 65_536, 4096 * 41]);
        // Offsets are taken from a 16-byte-aligned start, so 0 is the
        // aligned case and 1, 3 put every 16-byte load across a boundary.
        let buf = filler(4096 * 41 + 3 + 15);
        let aligned = buf.as_ptr().align_offset(16);
        for len in lengths {
            for offset in [0, 1, 3] {
                let bytes = &buf[aligned + offset..aligned + offset + len];
                let want = reference(bytes);
                assert_eq!(crc32(bytes), want, "dispatch: len {len} offset {offset}");
                assert_eq!(
                    !update_table(!0, bytes),
                    want,
                    "table kernel: len {len} offset {offset}"
                );
            }
        }
    }

    /// `x^n mod P` in the reflected representation (bit 31 = x^0).
    #[cfg(target_arch = "x86_64")]
    fn xpow_mod(n: u32) -> u64 {
        let mut v = 0x8000_0000u32;
        for _ in 0..n {
            v = if v & 1 != 0 { POLY ^ (v >> 1) } else { v >> 1 };
        }
        v as u64
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn folding_constants_derive_from_the_polynomial() {
        assert_eq!(pclmul::K1 as u64, xpow_mod(4 * 128 + 32) << 1);
        assert_eq!(pclmul::K2 as u64, xpow_mod(4 * 128 - 32) << 1);
        assert_eq!(pclmul::K3 as u64, xpow_mod(128 + 32) << 1);
        assert_eq!(pclmul::K4 as u64, xpow_mod(128 - 32) << 1);
        assert_eq!(pclmul::K5 as u64, xpow_mod(64) << 1);
        assert_eq!(pclmul::P_X as u64, ((POLY as u64) << 1) | 1);
        // μ: long division of x^64 by the (un-reflected) 33-bit P, then
        // reflect the 33-bit quotient.
        let p = ((POLY.reverse_bits() as u128) | 1 << 32) << 32;
        let (mut rem, mut q) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if rem & (1 << (bit + 32)) != 0 {
                rem ^= p >> (32 - bit);
                q |= 1 << bit;
            }
        }
        assert_eq!(pclmul::MU as u64, q.reverse_bits() >> 31);
    }
}
