//! Trace persistence — load recorded traces from compact binary files.
//!
//! Offline workflows (record once, sweep many analyzer configurations —
//! the FPR study's shape) benefit from traces on disk. Three versions
//! share the `LCTR` magic, and [`read_trace`]/[`load_trace`] accept all
//! of them:
//!
//! * **v1** — a `count` header followed by `count` fixed-width 41-byte
//!   little-endian records. Compact and simple, but the trailing-count
//!   design means a truncated file is unreadable past the error. Nothing
//!   records it any more; [`write_trace`] survives as the fixture writer
//!   for the back-compat reader and salvage tests.
//! * **v2** — the framed, per-frame-CRC32 append-only spool of
//!   [`crate::spool`]; its frames are also the wire format.
//! * **v3** — the page-aligned, indexed spool of [`crate::spool_v3`],
//!   the one format every file recorder writes.
//!
//! [`crate::spool::salvage_trace`] recovers the longest valid prefix of a
//! damaged file of any version.
//!
//! One event is 41 bytes, so even the simlarge traces stay in the tens of
//! megabytes (the paper notes simulation-based tools produce "more than
//! 100GB" logs — the compactness matters).

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::event::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};
use crate::replay::Trace;

/// File magic: "LCTR".
pub(crate) const MAGIC: [u8; 4] = *b"LCTR";
/// The fixed-record format version.
pub(crate) const VERSION: u32 = 1;
/// The framed spool format version (see [`crate::spool`]).
pub(crate) const VERSION_SPOOL: u32 = 2;
/// The page-aligned indexed spool version (see [`crate::spool_v3`]).
pub(crate) const VERSION_V3: u32 = 3;
/// Bytes per serialized event.
pub(crate) const RECORD_BYTES: usize = 41;
/// Cap on the event `Vec` reserved up front from an *untrusted* count
/// header (64 Ki events ≈ 2.6 MiB). When the count has been validated
/// against the stream length the reader reserves it exactly instead —
/// one allocation, no growth cascade; this cap only bounds readers with
/// no length to validate against (pipes, salvage), where a corrupt count
/// must not drive a huge preallocation.
const MAX_PREALLOC_EVENTS: usize = 1 << 16;

/// Serialize one event as the 41-byte v1/v2 record.
pub(crate) fn encode_event(e: &StampedEvent, out: &mut Vec<u8>) {
    let ev = &e.event;
    out.extend_from_slice(&e.seq.to_le_bytes());
    out.extend_from_slice(&ev.tid.to_le_bytes());
    out.extend_from_slice(&ev.addr.to_le_bytes());
    out.extend_from_slice(&ev.size.to_le_bytes());
    out.push(match ev.kind {
        AccessKind::Read => 0u8,
        AccessKind::Write => 1,
    });
    out.extend_from_slice(&ev.loop_id.0.to_le_bytes());
    out.extend_from_slice(&ev.parent_loop.0.to_le_bytes());
    out.extend_from_slice(&ev.func.0.to_le_bytes());
    // Sites are process-local `&'static Location` addresses; the low 32
    // bits keep per-site streams distinct within one trace file.
    out.extend_from_slice(&(ev.site as u32).to_le_bytes());
}

/// The error a record with kind byte `kind` (neither read nor write) is.
fn bad_kind(kind: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("bad access kind {kind}"),
    )
}

/// Decode one 41-byte record.
pub(crate) fn decode_event(rec: &[u8; RECORD_BYTES]) -> io::Result<StampedEvent> {
    match rec[24] {
        0 | 1 => Ok(StampedEvent::from_record(rec)),
        other => Err(bad_kind(other)),
    }
}

/// What one 41-byte record decodes to. `from_record` reads the kind byte
/// as "write iff 1": callers check it first ([`decode_event`],
/// [`decode_records`]).
pub(crate) trait FromRecord: Sized {
    fn from_record(rec: &[u8; RECORD_BYTES]) -> Self;
}

impl FromRecord for AccessEvent {
    #[inline(always)]
    fn from_record(rec: &[u8; RECORD_BYTES]) -> Self {
        let u32_at = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().unwrap());
        AccessEvent {
            tid: u32_at(8),
            addr: u64::from_le_bytes(rec[12..20].try_into().unwrap()),
            size: u32_at(20),
            kind: if rec[24] == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            loop_id: LoopId(u32_at(25)),
            parent_loop: LoopId(u32_at(29)),
            func: FuncId(u32_at(33)),
            site: u32_at(37) as u64,
        }
    }
}

impl FromRecord for StampedEvent {
    #[inline(always)]
    fn from_record(rec: &[u8; RECORD_BYTES]) -> Self {
        StampedEvent {
            seq: u64::from_le_bytes(rec[0..8].try_into().unwrap()),
            event: AccessEvent::from_record(rec),
        }
    }
}

/// Decode a run of whole records onto `out`. Every kind byte is checked
/// in one pass first, so the decode itself is one exact-size `extend`
/// with no error path. A bad byte keeps the records before it (the valid
/// prefix salvage keeps) and fails with [`decode_event`]'s error.
pub(crate) fn decode_records<T: FromRecord>(payload: &[u8], out: &mut Vec<T>) -> io::Result<()> {
    let records = payload.chunks_exact(RECORD_BYTES);
    let bad = records.clone().position(|r| r[24] > 1);
    let valid = bad.unwrap_or(records.len());
    out.extend(
        records
            .take(valid)
            .map(|r| T::from_record(r.try_into().unwrap())),
    );
    match bad {
        Some(i) => Err(bad_kind(payload[i * RECORD_BYTES + 24])),
        None => Ok(()),
    }
}

/// Serialize a trace to a writer in format v1. Only tests use it: it
/// builds v1 fixtures for the back-compat reader and salvage paths.
/// Recorders write v3 ([`crate::spool::SpoolSink`]).
pub fn write_trace<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut rec = Vec::with_capacity(RECORD_BYTES);
    for e in trace.events() {
        rec.clear();
        encode_event(e, &mut rec);
        w.write_all(&rec)?;
    }
    w.flush()
}

/// Read the magic/version prelude, returning the version.
pub(crate) fn read_header<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a loopcomm trace (bad magic)",
        ));
    }
    let mut u32b = [0u8; 4];
    r.read_exact(&mut u32b)?;
    Ok(u32::from_le_bytes(u32b))
}

/// Deserialize a trace from a reader (v1 or v2, auto-detected).
pub fn read_trace<R: Read>(r: R) -> io::Result<Trace> {
    read_trace_limited(r, None)
}

/// [`read_trace`] with an optional total stream length, used to validate
/// the v1 event-count header before trusting it: a corrupt count that
/// implies more bytes than the stream holds is rejected up front instead
/// of driving a huge preallocation and a slow failing read.
pub fn read_trace_limited<R: Read>(r: R, stream_len: Option<u64>) -> io::Result<Trace> {
    let mut r = BufReader::new(r);
    let version = read_header(&mut r)?;
    match version {
        VERSION => read_v1_body(&mut r, stream_len),
        VERSION_SPOOL => crate::spool::read_frames(&mut r).map(|(t, _)| t),
        VERSION_V3 => crate::spool_v3::read_v3_stream(&mut r, false).map(|(t, _)| t),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {other}"),
        )),
    }
}

/// Read the v1 body (count header + fixed records) after the prelude.
fn read_v1_body<R: Read>(r: &mut R, stream_len: Option<u64>) -> io::Result<Trace> {
    let mut u64b = [0u8; 8];
    r.read_exact(&mut u64b)?;
    let count = u64::from_le_bytes(u64b);
    if let Some(len) = stream_len {
        let body = len.saturating_sub(16); // magic + version + count
        if count.checked_mul(RECORD_BYTES as u64).is_none() || count * RECORD_BYTES as u64 > body {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "event count {count} exceeds the {body}-byte stream body \
                     (corrupt count header?)"
                ),
            ));
        }
    }
    let count = count as usize;
    // A count the stream length vouches for is reserved exactly; an
    // unvalidated one stays capped.
    let cap = if stream_len.is_some() {
        count
    } else {
        count.min(MAX_PREALLOC_EVENTS)
    };
    let mut events = Vec::with_capacity(cap);
    let mut rec = [0u8; RECORD_BYTES];
    for _ in 0..count {
        r.read_exact(&mut rec)?;
        events.push(decode_event(&rec)?);
    }
    Ok(Trace::new(events))
}

/// Read as many whole v1 records as the stream holds, ignoring a count
/// header that promises more — the v1 salvage path.
pub(crate) fn salvage_v1_body<R: Read>(r: &mut R) -> io::Result<(Trace, u64)> {
    let mut u64b = [0u8; 8];
    r.read_exact(&mut u64b)?;
    let count = u64::from_le_bytes(u64b) as usize;
    let mut events = Vec::with_capacity(count.min(MAX_PREALLOC_EVENTS));
    let mut dropped = 0u64;
    let mut rec = [0u8; RECORD_BYTES];
    for _ in 0..count {
        let mut filled = 0;
        while filled < RECORD_BYTES {
            match r.read(&mut rec[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if filled < RECORD_BYTES {
            dropped += filled as u64;
            break;
        }
        match decode_event(&rec) {
            Ok(e) => events.push(e),
            Err(_) => {
                dropped += RECORD_BYTES as u64;
                break;
            }
        }
    }
    Ok((Trace::new(events), dropped))
}

/// Load a trace from a file path (any version). The v1 count header is
/// validated against the file size before any allocation trusts it.
pub fn load_trace(path: &Path) -> io::Result<Trace> {
    let f = std::fs::File::open(path)?;
    let len = f.metadata()?.len();
    read_trace_limited(f, Some(len))
}

/// Open `path` as a streaming [`FileBlockSource`](crate::block_source::FileBlockSource),
/// picked by format version: a v3 spool is read out of core, one segment
/// per positioned read (bounded RSS, O(1) seek); v1/v2 files have no index
/// to seek by and are loaded once, then streamed zero-copy from RAM. Either
/// way the fused consumer sees the same borrowed-block contract.
pub fn open_block_source(path: &Path) -> io::Result<crate::block_source::FileBlockSource> {
    use crate::block_source::FileBlockSource;
    let mut f = std::fs::File::open(path)?;
    let version = read_header(&mut f)?;
    drop(f);
    match version {
        VERSION_V3 => Ok(FileBlockSource::Spool(crate::spool_v3::MmapTrace::open(
            path,
        )?)),
        _ => Ok(FileBlockSource::Ram(load_trace(path)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::new(
            (0..100u64)
                .map(|i| StampedEvent {
                    seq: i,
                    event: AccessEvent {
                        tid: (i % 4) as u32,
                        addr: 0x1000 + i * 8,
                        size: 8,
                        kind: if i % 3 == 0 {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        loop_id: LoopId((i % 5) as u32),
                        parent_loop: LoopId::NONE,
                        func: FuncId(1),
                        site: (i % 7) << 8,
                    },
                })
                .collect(),
        )
    }

    #[test]
    fn roundtrip_preserves_everything_but_high_site_bits() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 16 + 100 * RECORD_BYTES);
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.events().iter().zip(back.events()) {
            assert_eq!(a.seq, b.seq);
            // Sites are process-local pointers; the file keeps the low 32
            // bits, enough to key per-site analysis within one trace.
            let mut want = a.event;
            want.site &= 0xffff_ffff;
            assert_eq!(want, b.event);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LCTR");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn truncated_body_is_rejected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&Trace::default(), &mut buf).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap().len(), 0);
    }

    #[test]
    fn corrupt_count_header_is_rejected_before_allocating() {
        // A tiny body claiming u64::MAX events: the length-validated path
        // rejects it outright…
        let mut buf = Vec::new();
        buf.extend_from_slice(b"LCTR");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_trace_limited(&buf[..], Some(buf.len() as u64)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("count"), "{err}");
        // …and the unknown-length path still fails fast on EOF with a
        // bounded reservation instead of a multi-exabyte Vec.
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn corrupt_count_in_a_file_is_rejected() {
        let dir = std::env::temp_dir().join("lc_trace_io_badcount");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.lctrace");
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        // Inflate the count header far past the real body.
        buf[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        let err = load_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(dir).ok();
    }
}
