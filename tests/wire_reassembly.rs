//! Proptest fuzz of the streaming frame reassembly path (ISSUE 7).
//!
//! The server reassembles v2 spool streams with [`FrameDecoder`], fed
//! whatever chunk boundaries the socket produces. Three contracts, under
//! arbitrary chunking, truncation, and bit flips:
//!
//! 1. the decoder never panics on hostile bytes;
//! 2. chunk boundaries are invisible — any chunking of the same bytes
//!    yields the same frames, events, and salvage accounting;
//! 3. the decoder is *salvage-exact*: its recovered events and its
//!    frames/events/dropped-bytes accounting match [`salvage_stream`]
//!    (the file-side recovery the spool format guarantees) on the same
//!    bytes — the longest valid whole-frame prefix, no more, no less;
//! 4. recycled buffers are invisible: decoding into dirty spares, each
//!    frame handed off as it is decoded ([`FrameDecoder::feed_with`]),
//!    yields what fresh buffers yield.

use lc_trace::event::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};
use lc_trace::{
    crc32, read_trace, salvage_stream, write_trace, write_trace_spool, FrameDecoder, Trace,
    WireError, WireSummary,
};
use proptest::prelude::*;

/// v2 prelude: magic + version.
const V2_HEADER: usize = 8;
/// v2 frame header: marker + payload length + CRC.
const FRAME_HEADER: usize = 12;
/// v1 header: magic + version + event count.
const V1_HEADER: usize = 16;
/// Bytes per record, and the offset of its kind byte.
const RECORD_BYTES: usize = 41;
const KIND_AT: usize = 24;

fn ev(i: u64) -> StampedEvent {
    StampedEvent {
        seq: i,
        event: AccessEvent {
            tid: (i % 4) as u32,
            addr: 0x9000 + (i % 64) * 8,
            size: 8,
            kind: if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            loop_id: LoopId((i % 3) as u32),
            parent_loop: LoopId::NONE,
            func: FuncId(2),
            site: i % 5,
        },
    }
}

/// A valid v2 spool byte stream of `frames x per_frame` events.
fn spool_bytes(per_frame: u64, frames: u64) -> Vec<u8> {
    let t = Trace::new((0..per_frame * frames).map(ev).collect());
    let mut buf = Vec::new();
    write_trace_spool(&t, &mut buf, per_frame as usize).expect("spool");
    buf
}

/// Feed `bytes` through a fresh decoder in chunks cycling through
/// `chunk_sizes`, returning the summary and the flattened event stream.
fn decode_chunked(bytes: &[u8], chunk_sizes: &[usize]) -> (WireSummary, Vec<StampedEvent>) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut events = Vec::new();
    for piece in chunk_pieces(bytes, chunk_sizes) {
        dec.feed(piece, &mut frames);
        for f in frames.drain(..) {
            events.extend(f);
        }
    }
    (dec.finish(), events)
}

/// Feed `bytes` in chunks cycling through `chunk_sizes`, decoding into a
/// buffer `spare` supplies; returns the summary and the frames as
/// emitted. Each frame is handed off as it is decoded: its buffer goes
/// back through `recycle` and `spare` supplies the next one.
fn decode_frames(
    bytes: &[u8],
    chunk_sizes: &[usize],
    mut spare: impl FnMut() -> Vec<StampedEvent>,
    mut recycle: impl FnMut(Vec<StampedEvent>),
) -> (WireSummary, Vec<Vec<StampedEvent>>) {
    let mut dec = FrameDecoder::new();
    let mut frame = spare();
    let mut frames = Vec::new();
    for piece in chunk_pieces(bytes, chunk_sizes) {
        dec.feed_with(piece, &mut frame, |f| {
            frames.push(f.clone());
            recycle(std::mem::replace(f, spare()));
        });
    }
    (dec.finish(), frames)
}

/// `bytes` cut into pieces whose sizes cycle through `chunk_sizes`.
fn chunk_pieces<'a>(bytes: &'a [u8], chunk_sizes: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let mut pos = 0;
    let mut sizes = chunk_sizes.iter().cycle();
    std::iter::from_fn(move || {
        if pos >= bytes.len() {
            return None;
        }
        let n = (*sizes.next()?).clamp(1, bytes.len() - pos);
        pos += n;
        Some(&bytes[pos - n..pos])
    })
}

/// A used buffer: `stale` leftover events in `capacity` slots.
fn dirty_buffer(stale: usize, capacity: usize) -> Vec<StampedEvent> {
    let mut buf = Vec::with_capacity(capacity.max(stale));
    buf.extend((0..stale as u64).map(|i| ev(1_000_000 + i)));
    buf
}

/// Decode once into fresh buffers and once into dirty recycled ones (the
/// spares `dirt` describes, then every emitted frame handed back with a
/// stale event appended); both must agree exactly.
fn assert_recycling_invisible(
    bytes: &[u8],
    chunk_sizes: &[usize],
    dirt: &[(usize, usize)],
) -> Result<(), TestCaseError> {
    let fresh = decode_frames(bytes, chunk_sizes, Vec::new, drop);
    let pool: Vec<_> = dirt.iter().map(|&(l, c)| dirty_buffer(l, c)).collect();
    let pool = std::cell::RefCell::new(pool);
    let recycled = decode_frames(
        bytes,
        chunk_sizes,
        || {
            pool.borrow_mut()
                .pop()
                .unwrap_or_else(|| dirty_buffer(3, 7))
        },
        |mut f| {
            f.push(ev(2_000_000));
            pool.borrow_mut().insert(0, f);
        },
    );
    prop_assert_eq!(&fresh, &recycled);
    Ok(())
}

/// `bytes` (a valid spool of `per_frame`-event frames) with record
/// `record` of frame `frame` given kind byte `kind` and the frame's CRC
/// recomputed, so only the record decoder can see the damage.
fn with_bad_kind(
    mut bytes: Vec<u8>,
    per_frame: usize,
    frame: usize,
    record: usize,
    kind: u8,
) -> Vec<u8> {
    let payload_len = per_frame * RECORD_BYTES;
    let start = V2_HEADER + frame * (FRAME_HEADER + payload_len);
    let payload = start + FRAME_HEADER..start + FRAME_HEADER + payload_len;
    bytes[payload.start + record * RECORD_BYTES + KIND_AT] = kind;
    let crc = crc32(&bytes[payload]);
    bytes[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// The error text the one-record decoder gives kind byte `kind`, read
/// through the v1 file reader.
fn decode_event_error(kind: u8) -> String {
    let mut v1 = Vec::new();
    write_trace(&Trace::new(vec![ev(0)]), &mut v1).expect("v1");
    v1[V1_HEADER + KIND_AT] = kind;
    read_trace(&v1[..]).expect_err("bad kind").to_string()
}

/// A CRC-valid frame whose record 0, a middle record or the last record
/// has a bad kind byte: the frames before it and that frame's valid
/// prefix are kept, the stream is poisoned with the record decoder's
/// message, and dirty recycled buffers change none of it.
#[test]
fn bad_kind_byte_keeps_the_frames_valid_prefix() {
    const PER_FRAME: usize = 6;
    for record in [0, PER_FRAME / 2, PER_FRAME - 1] {
        for kind in [2u8, 7, 0xFF] {
            let bytes = with_bad_kind(spool_bytes(PER_FRAME as u64, 3), PER_FRAME, 1, record, kind);
            let (summary, events) = decode_chunked(&bytes, &[5, 64, 1]);
            let want_events = (PER_FRAME + record) as u64;
            assert_eq!(summary.frames, 1, "record {record}");
            assert_eq!(summary.events, want_events, "record {record}");
            assert_eq!(
                summary.error,
                Some(WireError::Corrupt(decode_event_error(kind))),
                "record {record}"
            );
            assert_eq!(
                events,
                (0..want_events).map(ev).collect::<Vec<_>>(),
                "record {record}"
            );
            assert_eq!(
                summary.bytes_dropped,
                (bytes.len() - V2_HEADER - FRAME_HEADER - PER_FRAME * RECORD_BYTES) as u64
            );
            let (_, frames) = decode_frames(&bytes, &[bytes.len()], Vec::new, drop);
            assert_eq!(
                frames.len(),
                if record == 0 { 1 } else { 2 },
                "record {record}"
            );
            assert_salvage_exact(&bytes, &[7]).expect("salvage-exact");
            assert_recycling_invisible(&bytes, &[7, 200], &[(5, 100), (0, 0), (40, 40)])
                .expect("recycling invisible");
        }
    }
}

/// The differential contract: the decoder's outcome on `bytes` must map
/// exactly onto `salvage_stream`'s on the same bytes.
fn assert_salvage_exact(bytes: &[u8], chunk_sizes: &[usize]) -> Result<(), TestCaseError> {
    let (summary, events) = decode_chunked(bytes, chunk_sizes);
    prop_assert_eq!(summary.bytes_fed, bytes.len() as u64);
    match salvage_stream(&mut &bytes[..]) {
        Err(_) => {
            // File-side recovery rejects the stream outright (bad or torn
            // prelude) — the decoder must agree it never got started.
            prop_assert!(
                matches!(summary.error, Some(WireError::BadPrelude(_))),
                "salvage rejected the stream but the decoder said {:?}",
                summary.error
            );
            prop_assert_eq!(summary.frames, 0);
            prop_assert_eq!(summary.events, 0);
            prop_assert_eq!(events.len(), 0);
        }
        Ok((trace, report)) => {
            prop_assert_eq!(summary.frames, report.frames);
            prop_assert_eq!(summary.events, report.events);
            prop_assert_eq!(summary.bytes_dropped, report.bytes_dropped);
            prop_assert_eq!(events.len(), trace.len());
            for (a, b) in events.iter().zip(trace.events()) {
                prop_assert_eq!(a, b);
            }
            // Damage and salvage agree on "was anything lost".
            prop_assert_eq!(summary.error.is_some(), !report.intact());
        }
    }
    Ok(())
}

proptest! {
    /// Hostile bytes, hostile chunking: the decoder must never panic,
    /// and its byte accounting must always balance.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048usize),
        chunks in prop::collection::vec(1usize..97, 1..8)
    ) {
        let (summary, _) = decode_chunked(&bytes, &chunks);
        prop_assert_eq!(summary.bytes_fed, bytes.len() as u64);
        prop_assert!(summary.bytes_dropped <= summary.bytes_fed);
    }

    /// Arbitrary bytes behind a valid v2 prelude — garbage frame headers,
    /// implausible lengths, torn payloads — still no panics, and still
    /// salvage-exact.
    #[test]
    fn decoder_is_salvage_exact_on_arbitrary_frame_bytes(
        body in prop::collection::vec(any::<u8>(), 0..1024usize),
        chunks in prop::collection::vec(1usize..97, 1..8)
    ) {
        let mut bytes = Vec::with_capacity(V2_HEADER + body.len());
        bytes.extend_from_slice(b"LCTR");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&body);
        assert_salvage_exact(&bytes, &chunks)?;
    }

    /// Chunk boundaries are invisible: byte-at-a-time, whole-buffer, and
    /// arbitrary chunkings of a valid stream all decode identically.
    #[test]
    fn chunking_is_invariant(
        per_frame in 1u64..12,
        frames in 0u64..7,
        chunks in prop::collection::vec(1usize..97, 1..8)
    ) {
        let bytes = spool_bytes(per_frame, frames);
        let whole = decode_chunked(&bytes, &[bytes.len().max(1)]);
        let single = decode_chunked(&bytes, &[1]);
        let arbitrary = decode_chunked(&bytes, &chunks);
        prop_assert_eq!(&whole, &single);
        prop_assert_eq!(&whole, &arbitrary);
        prop_assert_eq!(whole.0.frames, frames);
        prop_assert_eq!(whole.0.events, per_frame * frames);
        prop_assert!(whole.0.error.is_none());
        prop_assert_eq!(whole.0.bytes_dropped, 0);
    }

    /// A truncation anywhere in the stream (including inside the prelude)
    /// recovers exactly the whole-frame prefix, matching file salvage.
    #[test]
    fn truncation_recovers_longest_whole_frame_prefix(
        per_frame in 1u64..12,
        frames in 1u64..7,
        cut_seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..97, 1..8)
    ) {
        let bytes = spool_bytes(per_frame, frames);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        assert_salvage_exact(&bytes[..cut], &chunks)?;
    }

    /// A single flipped bit anywhere in the stream degrades to the valid
    /// prefix before the damage — CRC-caught, salvage-exact, no panic.
    #[test]
    fn bit_flip_degrades_to_the_valid_prefix(
        per_frame in 1u64..12,
        frames in 1u64..7,
        bit_seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..97, 1..8)
    ) {
        let mut bytes = spool_bytes(per_frame, frames);
        let bit = bit_seed % (bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        assert_salvage_exact(&bytes, &chunks)?;
    }

    /// Dirty recycled buffers (stale events, any length and capacity)
    /// decode exactly like fresh ones, whole or damaged: cut, bit-flipped
    /// or both, under arbitrary chunking.
    #[test]
    fn recycled_buffers_are_invisible(
        per_frame in 1u64..12,
        frames in 1u64..7,
        damage in 0u8..4,
        seeds in (any::<u64>(), any::<u64>()),
        chunks in prop::collection::vec(1usize..97, 1..8),
        dirt in prop::collection::vec((0usize..40, 0usize..5000), 0..6)
    ) {
        let mut bytes = spool_bytes(per_frame, frames);
        if damage & 1 != 0 {
            bytes.truncate((seeds.0 % (bytes.len() as u64 + 1)) as usize);
        }
        if damage & 2 != 0 && !bytes.is_empty() {
            let bit = seeds.1 % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        assert_recycling_invisible(&bytes, &chunks, &dirt)?;
    }

    /// Truncation and a bit flip together: the worst realistic damage a
    /// dying producer plus a corrupting link can do.
    #[test]
    fn truncation_plus_bit_flip_is_still_salvage_exact(
        per_frame in 1u64..12,
        frames in 1u64..7,
        cut_seed in any::<u64>(),
        bit_seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..97, 1..8)
    ) {
        let bytes = spool_bytes(per_frame, frames);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let mut bytes = bytes[..cut].to_vec();
        if !bytes.is_empty() {
            let bit = bit_seed % (bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        assert_salvage_exact(&bytes, &chunks)?;
    }
}
