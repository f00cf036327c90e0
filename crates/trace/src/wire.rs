//! Incremental wire decoding for streamed v2 spools.
//!
//! `loopcomm serve` receives the spool format of [`crate::spool`] over a
//! socket, where frames arrive in arbitrary chunks: a read may deliver
//! half a frame header, three frames and a torn tail, or one byte. The
//! [`FrameDecoder`] reassembles whole frames from that chunk stream with
//! the *same* acceptance rules as the file reader, so a connection that
//! dies mid-frame degrades exactly like a truncated file: every complete
//! CRC-valid frame before the damage is kept, everything from the first
//! bad byte on is counted as dropped. The equivalence is differential-
//! tested against [`crate::spool::salvage_stream`] on identical bytes
//! (`tests/wire_reassembly.rs`).
//!
//! Connections additionally open with a small hello preamble naming the
//! tenant:
//!
//! ```text
//! "LCHI" | proto: u32 | tenant_len: u32 | tenant bytes (UTF-8)
//! ```
//!
//! followed immediately by the ordinary spool byte stream
//! (`"LCTR" | version=2 | frames…`).

use std::io::{self, Read};

use crate::crc::crc32;
use crate::event::StampedEvent;
use crate::spool::{FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
use crate::trace_io::{decode_records, MAGIC, RECORD_BYTES, VERSION_SPOOL};

/// Hello preamble marker: "LCHI".
pub const HELLO_MAGIC: [u8; 4] = *b"LCHI";
/// Hello protocol revision.
pub const HELLO_PROTO: u32 = 1;
/// Cap on the tenant-name length carried in a hello.
pub const MAX_TENANT_LEN: usize = 256;

/// True when `name` is a well-formed tenant name: non-empty, at most
/// [`MAX_TENANT_LEN`] bytes, and drawn from `[A-Za-z0-9_.-]` so it can be
/// embedded verbatim in URLs and Prometheus labels.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Serialize the hello preamble for `tenant` (caller validates the name).
pub fn encode_hello(tenant: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + tenant.len());
    out.extend_from_slice(&HELLO_MAGIC);
    out.extend_from_slice(&HELLO_PROTO.to_le_bytes());
    out.extend_from_slice(&(tenant.len() as u32).to_le_bytes());
    out.extend_from_slice(tenant.as_bytes());
    out
}

/// Try to parse a hello from the front of `buf`. Returns `Ok(None)` when
/// more bytes are needed, `Ok(Some((tenant, consumed)))` on success, and
/// an error for a malformed preamble (wrong marker, unknown protocol, or
/// a bad tenant name).
pub fn decode_hello(buf: &[u8]) -> io::Result<Option<(String, usize)>> {
    if buf.len() < 12 {
        return Ok(None);
    }
    if buf[0..4] != HELLO_MAGIC {
        return Err(bad_data("bad hello marker (not LCHI)".to_string()));
    }
    let proto = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if proto != HELLO_PROTO {
        return Err(bad_data(format!("unsupported hello protocol {proto}")));
    }
    let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    if len > MAX_TENANT_LEN {
        return Err(bad_data(format!("tenant name too long ({len} bytes)")));
    }
    if buf.len() < 12 + len {
        return Ok(None);
    }
    let tenant = std::str::from_utf8(&buf[12..12 + len])
        .map_err(|_| bad_data("tenant name is not UTF-8".to_string()))?;
    if !valid_tenant(tenant) {
        return Err(bad_data(format!("invalid tenant name {tenant:?}")));
    }
    Ok(Some((tenant.to_string(), 12 + len)))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read a hello preamble from a blocking stream. Reads exactly the
/// hello's bytes — never a byte of the spool stream that follows it.
pub fn read_hello<R: Read>(r: &mut R) -> io::Result<String> {
    let mut buf = vec![0u8; 12];
    r.read_exact(&mut buf)
        .map_err(|_| bad_data("connection closed before hello".to_string()))?;
    // The fixed head alone decides how many name bytes follow; validate
    // it (and later the name) through the one shared parser.
    decode_hello(&buf)?;
    let len = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    buf.resize(12 + len, 0);
    r.read_exact(&mut buf[12..])
        .map_err(|_| bad_data("connection closed inside hello".to_string()))?;
    match decode_hello(&buf)? {
        Some((tenant, _)) => Ok(tenant),
        None => unreachable!("buffer holds the complete hello"),
    }
}

/// Why a wire stream stopped decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The 8-byte spool prelude never arrived intact (wrong magic, wrong
    /// version, or the stream ended inside it). Mirrors the case where
    /// [`crate::spool::salvage_stream`] returns an error.
    BadPrelude(String),
    /// Frame-level damage: torn header or payload, bad marker,
    /// implausible length, CRC mismatch, or an undecodable record.
    /// Mirrors a salvage that stops early with dropped bytes.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadPrelude(msg) => write!(f, "bad spool prelude: {msg}"),
            WireError::Corrupt(msg) => write!(f, "corrupt frame stream: {msg}"),
        }
    }
}

/// What a closed wire stream amounted to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSummary {
    /// Complete CRC-valid frames decoded.
    pub frames: u64,
    /// Events decoded (includes the valid prefix of a frame whose CRC
    /// passed but held an undecodable record, matching salvage).
    pub events: u64,
    /// Total bytes fed.
    pub bytes_fed: u64,
    /// Bytes that did not end up in a fully decoded frame (torn tail,
    /// damaged frame, and everything after it).
    pub bytes_dropped: u64,
    /// Why decoding stopped, if it did not end cleanly at a frame
    /// boundary.
    pub error: Option<WireError>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DecodeState {
    /// Waiting for the 8-byte "LCTR" + version prelude.
    Prelude,
    /// Prelude accepted; decoding frames.
    Streaming,
    /// Unrecoverable damage seen; all further bytes are dropped.
    Poisoned,
}

/// Push-based reassembler for a streamed v2 spool.
///
/// Feed it socket chunks as they arrive; it emits one `Vec<StampedEvent>`
/// per *complete, CRC-valid* frame, in order. Damage poisons the decoder
/// — the frames emitted before the damage are exactly the frames
/// [`crate::spool::salvage_stream`] would recover from the same bytes,
/// and [`FrameDecoder::finish`] reports the same `bytes_dropped`.
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
    buf: Vec<u8>,
    fed: u64,
    /// Bytes consumed into accepted units (prelude + whole valid frames).
    consumed_valid: u64,
    frames: u64,
    events: u64,
    error: Option<WireError>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder expecting a fresh stream (prelude first).
    pub fn new() -> Self {
        Self {
            state: DecodeState::Prelude,
            buf: Vec::new(),
            fed: 0,
            consumed_valid: 0,
            frames: 0,
            events: 0,
            error: None,
        }
    }

    /// True once damage has been seen; later bytes are counted but
    /// ignored.
    pub fn poisoned(&self) -> bool {
        self.state == DecodeState::Poisoned
    }

    /// Complete frames decoded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Events decoded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn poison(&mut self, err: WireError) {
        self.state = DecodeState::Poisoned;
        self.error = Some(err);
        self.buf = Vec::new();
    }

    /// Feed one chunk; complete frames are appended to `out` (one inner
    /// vector per frame). Never panics, whatever the bytes.
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<Vec<StampedEvent>>) {
        self.feed_with(chunk, &mut Vec::new(), |frame| {
            out.push(std::mem::take(frame))
        });
    }

    /// [`Self::feed`], decoding each frame into `frame` and handing it to
    /// `emit` as soon as it is whole, before the next one is decoded.
    /// `emit` may keep the buffer and leave another in its place; `frame`
    /// is cleared before each decode, so a recycled buffer's length,
    /// capacity and stale contents never show: the frames, events and
    /// [`WireSummary`] are those of [`Self::feed`].
    pub fn feed_with<F>(&mut self, chunk: &[u8], frame: &mut Vec<StampedEvent>, mut emit: F)
    where
        F: FnMut(&mut Vec<StampedEvent>),
    {
        self.fed += chunk.len() as u64;
        if self.state == DecodeState::Poisoned {
            return;
        }
        self.buf.extend_from_slice(chunk);
        let mut pos = 0usize;
        loop {
            match self.state {
                DecodeState::Prelude => {
                    if self.buf.len() - pos < 8 {
                        break;
                    }
                    let head = &self.buf[pos..pos + 8];
                    if head[0..4] != MAGIC {
                        self.poison(WireError::BadPrelude(
                            "not a loopcomm trace (bad magic)".to_string(),
                        ));
                        return;
                    }
                    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
                    if version != VERSION_SPOOL {
                        self.poison(WireError::BadPrelude(format!(
                            "unsupported stream version {version}"
                        )));
                        return;
                    }
                    pos += 8;
                    self.consumed_valid += 8;
                    self.state = DecodeState::Streaming;
                }
                DecodeState::Streaming => {
                    let avail = self.buf.len() - pos;
                    if avail < FRAME_HEADER_BYTES {
                        break; // torn header until more bytes arrive
                    }
                    let header = &self.buf[pos..pos + FRAME_HEADER_BYTES];
                    if header[0..4] != FRAME_MAGIC {
                        self.poison(WireError::Corrupt(
                            "bad frame marker (not LCFR)".to_string(),
                        ));
                        return;
                    }
                    let payload_len = u32::from_le_bytes(header[4..8].try_into().unwrap());
                    let want_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
                    if payload_len > MAX_FRAME_PAYLOAD || payload_len as usize % RECORD_BYTES != 0 {
                        self.poison(WireError::Corrupt(format!(
                            "implausible frame payload length {payload_len}"
                        )));
                        return;
                    }
                    let frame_bytes = FRAME_HEADER_BYTES + payload_len as usize;
                    if avail < frame_bytes {
                        break; // torn payload until more bytes arrive
                    }
                    let payload = &self.buf[pos + FRAME_HEADER_BYTES..pos + frame_bytes];
                    let crc = crc32(payload);
                    if crc != want_crc {
                        self.poison(WireError::Corrupt(format!(
                            "frame CRC mismatch (stored {want_crc:#010x}, computed {crc:#010x})"
                        )));
                        return;
                    }
                    pos += frame_bytes;
                    if !payload.is_empty() {
                        frame.clear();
                        let decoded = decode_records(payload, frame);
                        self.events += frame.len() as u64;
                        if !frame.is_empty() {
                            emit(frame);
                        }
                        if let Err(e) = decoded {
                            // Same contract as salvage: keep the valid
                            // prefix of a CRC-valid-but-undecodable frame,
                            // count the frame itself as lost.
                            self.poison(WireError::Corrupt(e.to_string()));
                            return;
                        }
                    }
                    self.consumed_valid += frame_bytes as u64;
                    self.frames += 1;
                }
                DecodeState::Poisoned => unreachable!("checked on entry"),
            }
        }
        self.buf.drain(..pos);
    }

    /// Close the stream and account for it. A non-empty reassembly buffer
    /// is a torn frame (the peer died mid-frame); a stream that never
    /// completed its prelude mirrors [`crate::spool::salvage_stream`]
    /// erroring out.
    pub fn finish(self) -> WireSummary {
        let error = match (&self.error, self.state) {
            (Some(e), _) => Some(e.clone()),
            (None, DecodeState::Prelude) => Some(WireError::BadPrelude(format!(
                "stream ended inside the prelude ({} of 8 bytes)",
                self.buf.len()
            ))),
            (None, _) if !self.buf.is_empty() => Some(WireError::Corrupt(format!(
                "stream ended mid-frame ({} trailing bytes)",
                self.buf.len()
            ))),
            _ => None,
        };
        WireSummary {
            frames: self.frames,
            events: self.events,
            bytes_fed: self.fed,
            bytes_dropped: self.fed - self.consumed_valid,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessEvent, AccessKind, FuncId, LoopId};
    use crate::replay::Trace;
    use crate::spool::{salvage_stream, write_trace_spool};

    fn ev(i: u64) -> StampedEvent {
        StampedEvent {
            seq: i,
            event: AccessEvent {
                tid: (i % 4) as u32,
                addr: 0x4000 + i * 8,
                size: 8,
                kind: if i % 2 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                loop_id: LoopId((i % 3) as u32),
                parent_loop: LoopId::NONE,
                func: FuncId(1),
                site: i % 7,
            },
        }
    }

    fn spool_bytes(n: u64, frame_events: usize) -> Vec<u8> {
        let t = Trace::new((0..n).map(ev).collect());
        let mut buf = Vec::new();
        write_trace_spool(&t, &mut buf, frame_events).unwrap();
        buf
    }

    /// Feed `bytes` to a fresh decoder in `chunk`-sized pieces.
    fn run_decoder(bytes: &[u8], chunk: usize) -> (Vec<Vec<StampedEvent>>, WireSummary) {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            dec.feed(piece, &mut out);
        }
        (out, dec.finish())
    }

    #[test]
    fn whole_stream_decodes_identically_at_any_chunk_size() {
        let bytes = spool_bytes(100, 9);
        for chunk in [1, 2, 7, 13, 41, 4096] {
            let (frames, summary) = run_decoder(&bytes, chunk);
            assert_eq!(summary.frames, 12, "chunk {chunk}"); // ceil(100/9)
            assert_eq!(summary.events, 100);
            assert_eq!(summary.bytes_dropped, 0);
            assert!(summary.error.is_none(), "{:?}", summary.error);
            let flat: Vec<_> = frames.into_iter().flatten().collect();
            assert_eq!(flat.len(), 100);
            for (i, e) in flat.iter().enumerate() {
                assert_eq!(*e, ev(i as u64));
            }
        }
    }

    #[test]
    fn truncation_matches_salvage_stream() {
        let bytes = spool_bytes(60, 10);
        for cut in [0, 3, 8, 9, 20, 100, bytes.len() - 1] {
            let cut_bytes = &bytes[..cut.min(bytes.len())];
            let (frames, summary) = run_decoder(cut_bytes, 5);
            match salvage_stream(&mut &cut_bytes[..]) {
                Ok((trace, report)) => {
                    assert_eq!(summary.frames, report.frames, "cut {cut}");
                    assert_eq!(summary.events, report.events, "cut {cut}");
                    assert_eq!(summary.bytes_dropped, report.bytes_dropped, "cut {cut}");
                    let flat: Vec<_> = frames.into_iter().flatten().collect();
                    assert_eq!(flat, trace.events().to_vec(), "cut {cut}");
                }
                Err(_) => {
                    assert!(
                        matches!(summary.error, Some(WireError::BadPrelude(_))),
                        "cut {cut}: {:?}",
                        summary.error
                    );
                }
            }
        }
    }

    #[test]
    fn bit_flip_poisons_and_matches_salvage() {
        let bytes = spool_bytes(60, 20);
        for bit in [64, 200, 1000, bytes.len() * 8 - 1] {
            let mut damaged = bytes.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let (frames, summary) = run_decoder(&damaged, 11);
            match salvage_stream(&mut &damaged[..]) {
                Ok((trace, report)) => {
                    assert_eq!(summary.frames, report.frames, "bit {bit}");
                    assert_eq!(summary.events, report.events, "bit {bit}");
                    assert_eq!(summary.bytes_dropped, report.bytes_dropped, "bit {bit}");
                    let flat: Vec<_> = frames.into_iter().flatten().collect();
                    assert_eq!(flat, trace.events().to_vec(), "bit {bit}");
                }
                Err(_) => {
                    assert!(
                        matches!(summary.error, Some(WireError::BadPrelude(_))),
                        "bit {bit}: {:?}",
                        summary.error
                    );
                }
            }
        }
    }

    #[test]
    fn bytes_after_poison_are_counted_not_parsed() {
        let mut bytes = spool_bytes(10, 5);
        bytes[8] ^= 0xFF; // destroy the first frame marker
        let tail_garbage = vec![0xAAu8; 100];
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        dec.feed(&bytes, &mut out);
        assert!(dec.poisoned());
        dec.feed(&tail_garbage, &mut out);
        let summary = dec.finish();
        assert_eq!(summary.frames, 0);
        assert_eq!(summary.bytes_fed, bytes.len() as u64 + 100);
        assert_eq!(summary.bytes_dropped, bytes.len() as u64 - 8 + 100);
        assert!(out.is_empty());
    }

    #[test]
    fn hello_round_trips_and_rejects_garbage() {
        let hello = encode_hello("tenant-a.prod_1");
        assert_eq!(
            decode_hello(&hello).unwrap(),
            Some(("tenant-a.prod_1".to_string(), hello.len()))
        );
        // Partial hellos ask for more bytes.
        for cut in 0..hello.len() {
            assert_eq!(decode_hello(&hello[..cut]).unwrap(), None);
        }
        assert!(decode_hello(b"XXXX00000000").is_err());
        assert!(decode_hello(&encode_hello("bad tenant!")).is_err());
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("has space"));
        assert!(valid_tenant("ok-1.x_Y"));
        let mut r: &[u8] = &hello;
        assert_eq!(read_hello(&mut r).unwrap(), "tenant-a.prod_1");
    }
}
