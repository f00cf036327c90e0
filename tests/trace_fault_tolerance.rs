//! Fault tolerance of the trace readers: `read_trace` must never panic on
//! hostile bytes, and v2 salvage must recover *exactly* the frames that
//! were durable before an injected truncation or bit flip — no more (no
//! fabricated events) and no less (no valid frame abandoned).
//!
//! The CRC-guarded parsers (`LCIX` index, `LCCP` checkpoint) are also
//! fuzzed *past* the CRC: a mutated body is re-sealed with a correct
//! checksum, so the parser's own validation — not the checksum — is what
//! stands between the bytes and a panic. And one test pins the stored
//! bytes themselves, so a new checksum kernel cannot change what is
//! written.
//!
//! A v3 spool cut short — before `analyze` opens it, or under a reader
//! that already has — is an error, never a signal or a panic.
//!
//! Records that *pass* every check still carry attacker-chosen `addr` and
//! `size`; the last section feeds such records to the coherence backend,
//! the one consumer that walks an access's byte range.

use lc_cachesim::{
    canonical_coherence_report, CoherenceBackend, CoherenceConfig, MAX_ACCESS_LINES,
};
use lc_profiler::{AccumConfig, Checkpoint, DetectorKind, IncrementalAnalyzer, ProfilerConfig};
use lc_sigmem::SignatureConfig;
use lc_trace::event::{AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};
use lc_trace::{
    crc32, index_path, read_trace, salvage_trace, synth_event, write_trace, write_trace_spool,
    write_trace_spool_v3, MmapTrace, Trace, V3Index,
};
use proptest::prelude::*;

/// v1 prelude: magic + version + count. v2 prelude: magic + version.
const V1_HEADER: usize = 16;
const V2_HEADER: usize = 8;
/// One encoded event record (fixed-width in both formats).
const RECORD: usize = 41;
/// v2 frame header: marker + payload_len + crc32.
const FRAME_HEADER: usize = 12;

fn ev(i: u64) -> StampedEvent {
    StampedEvent {
        seq: i,
        event: AccessEvent {
            tid: (i % 4) as u32,
            addr: 0x4000 + (i % 128) * 8,
            size: 8,
            kind: if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            loop_id: LoopId((i % 5) as u32),
            parent_loop: LoopId::NONE,
            func: FuncId(1),
            site: i % 7,
        },
    }
}

fn sample(n: u64) -> Trace {
    Trace::new((0..n).map(ev).collect())
}

/// A per-case scratch file that cleans up after itself.
struct ScratchFile(std::path::PathBuf);

impl ScratchFile {
    fn new(tag: &str, case: u64) -> Self {
        let dir = std::env::temp_dir().join("lc_trace_fault_tolerance");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir.join(format!("{tag}_{}_{case}.lctrace", std::process::id())))
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
        std::fs::remove_file(index_path(&self.0)).ok();
    }
}

/// An encoded `LCCP` checkpoint of `events` events analysed by `jobs`
/// workers.
fn checkpoint_bytes(kind: DetectorKind, events: u64, jobs: usize) -> Vec<u8> {
    let mut a = IncrementalAnalyzer::new(
        kind,
        SignatureConfig::paper_default(1 << 8, 4),
        ProfilerConfig {
            threads: 4,
            track_nested: true,
            phase_window: None,
        },
        AccumConfig::default(),
        jobs,
    );
    for frame in sample(events).events().chunks(64) {
        a.on_frame(frame);
    }
    Checkpoint::capture(&a).encode()
}

/// Values that turn a length or offset field into an overflow, an
/// out-of-range index or an absurd allocation.
const HOSTILE: [u64; 10] = [
    0,
    1,
    2,
    41,
    0xFF,
    0xFFFF,
    1 << 31,
    u32::MAX as u64,
    1 << 63,
    u64::MAX,
];

/// Overwrite `width` ∈ {1, 4, 8} bytes somewhere in `region` with either a
/// hostile constant or a small perturbation of what was there — the two
/// ways a plausible-looking field goes wrong.
fn mutate(region: &mut [u8], (at, how, value): (u64, u8, u64)) {
    let width = [1usize, 4, 8][how as usize % 3].min(region.len());
    let at = (at % (region.len() - width + 1) as u64) as usize;
    let field = &mut region[at..at + width];
    let mut old = [0u8; 8];
    old[..width].copy_from_slice(field);
    let new = if how & 4 == 0 {
        HOSTILE[(value % HOSTILE.len() as u64) as usize]
    } else {
        u64::from_le_bytes(old)
            .wrapping_add(value % 5)
            .wrapping_sub(2)
    };
    field.copy_from_slice(&new.to_le_bytes()[..width]);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A `frames`-frame v2 spool of `per_frame` events per frame, cut to its
/// first `cut` bytes: salvage recovers exactly the whole frames before the
/// cut, and strict `read_trace` accepts the cut only where it falls on a
/// frame boundary — v2 has no trailer, so such a prefix is a well-formed
/// shorter spool.
fn v2_truncation_case(
    tag: &str,
    per_frame: u64,
    frames: u64,
    cut: usize,
) -> Result<(), TestCaseError> {
    let total = per_frame * frames;
    let t = sample(total);
    let mut buf = Vec::new();
    write_trace_spool(&t, &mut buf, per_frame as usize).expect("spool");
    let frame_bytes = FRAME_HEADER + per_frame as usize * RECORD;
    prop_assert_eq!(buf.len(), V2_HEADER + frames as usize * frame_bytes);

    let file = ScratchFile::new(tag, cut as u64);
    std::fs::write(file.path(), &buf[..cut]).expect("write");

    let whole_frames = (cut - V2_HEADER) / frame_bytes;
    let (salvaged, report) = salvage_trace(file.path()).expect("salvage");
    prop_assert_eq!(report.frames as usize, whole_frames);
    prop_assert_eq!(salvaged.len() as u64, whole_frames as u64 * per_frame);
    prop_assert_eq!(
        report.bytes_dropped as usize,
        cut - V2_HEADER - whole_frames * frame_bytes
    );
    // The recovered prefix is byte-exact, not merely the right length.
    for (a, b) in t.events().iter().zip(salvaged.events()) {
        prop_assert_eq!(a, b);
    }
    // A cut exactly on a frame boundary leaves no torn bytes — the
    // shorter file is indistinguishable from a clean earlier shutdown, so
    // salvage reports it intact and strict read accepts it; a mid-frame
    // cut is neither.
    let on_boundary = (cut - V2_HEADER) % frame_bytes == 0;
    prop_assert_eq!(report.intact(), on_boundary);
    let strict = read_trace(&buf[..cut]);
    if on_boundary {
        prop_assert_eq!(
            strict.map(|t| t.len() as u64).map_err(|e| e.to_string()),
            Ok(whole_frames as u64 * per_frame)
        );
    } else {
        prop_assert!(strict.is_err());
    }
    Ok(())
}

proptest! {
    #[test]
    fn read_trace_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..2048usize)
    ) {
        // Err or Ok are both acceptable; a panic or an absurd allocation
        // is not. (The count-header validation and prealloc cap make a
        // hostile 2^64 event count a clean error, not an OOM.)
        let _ = read_trace(&bytes[..]);
    }

    #[test]
    fn read_trace_never_panics_behind_a_valid_prelude(
        version in 0u32..4,
        body in prop::collection::vec(any::<u8>(), 0..1024usize)
    ) {
        // Hostile bytes that DO pass the magic/version gate must still be
        // handled: v1 bodies of non-record granularity, v2 bodies full of
        // garbage frame headers, unknown versions.
        let mut bytes = Vec::with_capacity(V2_HEADER + body.len());
        bytes.extend_from_slice(b"LCTR");
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&body);
        let _ = read_trace(&bytes[..]);
    }

    #[test]
    fn resealed_index_mutations_never_panic_and_never_mislead(
        per_frame in 1u64..9,
        frames in 1u64..7,
        mutations in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u64>()), 1..4usize)
    ) {
        let t = sample(per_frame * frames);
        let file = ScratchFile::new("lcix", mutations[0].0 ^ mutations[0].2);
        write_trace_spool_v3(&t, file.path(), per_frame as usize).expect("spool");
        let mut idx = std::fs::read(index_path(file.path())).expect("read index");
        let sealed = idx.len() - 4;
        for m in &mutations {
            mutate(&mut idx[4..sealed], *m);
        }
        let crc = crc32(&idx[4..sealed]);
        idx[sealed..].copy_from_slice(&crc.to_le_bytes());

        // An index that decodes is one the writer could have produced:
        // it re-encodes to the same bytes and seeks land in range.
        if let Ok(ix) = V3Index::decode(&idx) {
            prop_assert_eq!(ix.encode(), idx);
            for off in 0..ix.total_events {
                let e = ix.entries[ix.segment_for_event(off).expect("in range")];
                prop_assert!(e.event_start <= off && off < e.event_start + e.event_count as u64);
            }
        }
        // Beside an intact spool the index is advisory: trusted or
        // rebuilt, the stream is the whole trace.
        std::fs::write(index_path(file.path()), &idx).expect("write index");
        let m = MmapTrace::open(file.path()).expect("open");
        let mut streamed = Vec::new();
        m.stream_from(0, |evs| streamed.extend_from_slice(evs)).expect("stream");
        prop_assert_eq!(&streamed[..], t.events());
    }

    #[test]
    fn resealed_checkpoint_mutations_never_panic(
        perfect in any::<bool>(),
        events in 0u64..300,
        jobs in 1usize..4,
        mutations in prop::collection::vec((any::<u64>(), any::<u8>(), any::<u64>()), 1..4usize)
    ) {
        let kind = if perfect { DetectorKind::Perfect } else { DetectorKind::Asymmetric };
        let mut bytes = checkpoint_bytes(kind, events, jobs);
        for m in &mutations {
            mutate(&mut bytes[12..], *m);
        }
        let crc = crc32(&bytes[12..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());

        // Err is fine. Ok must be self-consistent: one state per worker,
        // and a fixed point of encode → decode.
        if let Ok(cp) = Checkpoint::decode(&bytes) {
            prop_assert_eq!(cp.workers.len(), cp.jobs);
            let again = Checkpoint::decode(&cp.encode()).expect("re-decode");
            prop_assert_eq!(again.encode(), cp.encode());
        }
    }

    #[test]
    fn v2_truncation_salvages_exactly_the_complete_frames(
        per_frame in 1u64..12,
        frames in 1u64..7,
        cut_seed in any::<u64>()
    ) {
        // Cut anywhere at or after the prelude.
        let body = frames as usize * (FRAME_HEADER + per_frame as usize * RECORD);
        let cut = V2_HEADER + (cut_seed % (body + 1) as u64) as usize;
        v2_truncation_case("trunc", per_frame, frames, cut)?;
    }

    #[test]
    fn v2_bit_flip_is_detected_and_salvage_stops_at_the_damaged_frame(
        per_frame in 1u64..10,
        frames in 1u64..6,
        flip_seed in any::<u64>(),
        bit in 0u8..8
    ) {
        let t = sample(per_frame * frames);
        let mut buf = Vec::new();
        write_trace_spool(&t, &mut buf, per_frame as usize).expect("spool");
        let frame_bytes = FRAME_HEADER + per_frame as usize * RECORD;

        // Flip one bit anywhere after the prelude: every such byte belongs
        // to some frame's header or CRC-covered payload, so that frame —
        // and only the file from that frame on — must be rejected.
        let off = V2_HEADER + (flip_seed % (buf.len() - V2_HEADER) as u64) as usize;
        buf[off] ^= 1 << bit;
        let damaged_frame = (off - V2_HEADER) / frame_bytes;

        prop_assert!(read_trace(&buf[..]).is_err(), "strict read must reject");
        let file = ScratchFile::new("flip", flip_seed ^ u64::from(bit) << 32);
        std::fs::write(file.path(), &buf).expect("write");
        let (salvaged, report) = salvage_trace(file.path()).expect("salvage");
        prop_assert_eq!(report.frames as usize, damaged_frame);
        prop_assert_eq!(salvaged.len() as u64, damaged_frame as u64 * per_frame);
        prop_assert!(report.bytes_dropped > 0);
        for (a, b) in t.events().iter().zip(salvaged.events()) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn v1_truncation_salvages_whole_records(
        events in 1u64..200,
        cut_seed in any::<u64>()
    ) {
        let t = sample(events);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write v1");
        let cut = V1_HEADER + (cut_seed % (buf.len() - V1_HEADER + 1) as u64) as usize;
        let file = ScratchFile::new("v1", cut_seed);
        std::fs::write(file.path(), &buf[..cut]).expect("write");

        let whole = (cut - V1_HEADER) / RECORD;
        let (salvaged, report) = salvage_trace(file.path()).expect("salvage");
        prop_assert_eq!(report.version, 1);
        prop_assert_eq!(salvaged.len(), whole);
        prop_assert_eq!(report.bytes_dropped as usize, cut - V1_HEADER - whole * RECORD);
        for (a, b) in t.events().iter().zip(salvaged.events()) {
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn salvage_of_zero_length_file_is_a_clean_error() {
    // No prelude at all: salvage cannot even identify the format. That is
    // a clean `Err`, never a panic — and strict read agrees.
    let file = ScratchFile::new("empty", 0);
    std::fs::write(file.path(), b"").expect("write");
    assert!(salvage_trace(file.path()).is_err());
    assert!(read_trace(&b""[..]).is_err());
}

#[test]
fn salvage_of_header_only_spool_recovers_zero_events() {
    // A spool that crashed before framing anything: just the 8-byte v2
    // prelude. Everything durable (nothing) is recovered, nothing is
    // reported dropped, and the file counts as intact.
    let t = sample(0);
    let mut buf = Vec::new();
    write_trace_spool(&t, &mut buf, 4).expect("spool");
    assert_eq!(buf.len(), V2_HEADER);
    let file = ScratchFile::new("header_only", 0);
    std::fs::write(file.path(), &buf).expect("write");
    let (salvaged, report) = salvage_trace(file.path()).expect("salvage");
    assert_eq!(salvaged.len(), 0);
    assert_eq!(report.frames, 0);
    assert_eq!(report.events, 0);
    assert_eq!(report.bytes_dropped, 0);
    assert!(report.intact());
}

#[test]
fn final_frame_cut_at_every_byte_offset_recovers_the_whole_frame_prefix() {
    // Exhaustive truncation: a two-frame spool (2 events per frame) cut at
    // *every* byte offset from the bare prelude to the whole file. This
    // pins the frame-boundary arithmetic the randomized truncation test
    // can only sample — in particular the three cuts that fall exactly on
    // a frame boundary, which it reaches about once in 800 cases.
    let frame_bytes = FRAME_HEADER + 2 * RECORD;
    for cut in V2_HEADER..=V2_HEADER + 2 * frame_bytes {
        v2_truncation_case("exhaustive_cut", 2, 2, cut)
            .unwrap_or_else(|e| panic!("at cut {cut}: {e:?}"));
    }
}

/// A multi-segment v3 spool of `synth_event`s, 4096 events per segment.
fn synth_spool(file: &ScratchFile) -> Trace {
    let t = Trace::new(
        (0..40_000)
            .map(|i| synth_event(i, 42, 4, 65_536, 0.0))
            .collect(),
    );
    write_trace_spool_v3(&t, file.path(), 4096).expect("spool");
    t
}

fn cut_to(path: &std::path::Path, len: u64) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len))
        .expect("truncate spool");
}

#[test]
fn spool_shrunk_under_an_open_reader_is_an_error_not_a_crash() {
    // A reader that mapped the file took SIGBUS on the first page past
    // the new end; positioned reads see a short file and say so.
    let file = ScratchFile::new("shrunk", 0);
    let t = synth_spool(&file);
    let m = MmapTrace::open(file.path()).expect("open");
    assert_eq!(m.segments(), 10);
    let len = std::fs::metadata(file.path()).expect("stat").len();
    cut_to(file.path(), len / 3);
    let mut streamed = Vec::new();
    let res = m.stream_from(0, |evs| streamed.extend_from_slice(evs));
    let err = res.expect_err("a shrunk spool must not stream to the end");
    assert!(err.to_string().contains("past end of file"), "{err}");
    // What was delivered before the cut is the exact prefix.
    assert!(streamed.len() < t.len());
    assert_eq!(&streamed[..], &t.events()[..streamed.len()]);
}

#[test]
fn analyze_of_a_spool_cut_inside_an_indexed_segment_exits_1() {
    // The side-car index still lists the last segment, whose header is in
    // the file but whose payload now runs past its end.
    let file = ScratchFile::new("cut_indexed", 0);
    synth_spool(&file);
    let last = *V3Index::load(file.path())
        .expect("index")
        .entries
        .last()
        .expect("segments");
    cut_to(file.path(), last.page_no * 4096 + FRAME_HEADER as u64 + 100);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_loopcomm"))
        .arg("analyze")
        .arg(file.path())
        .output()
        .expect("run loopcomm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("past end of file"), "{stderr}");
}

#[test]
fn v2_and_v1_round_trip_identically() {
    // The two formats are different containers for the same records: a
    // trace written both ways reads back to the same event sequence.
    let t = sample(500);
    let mut v1 = Vec::new();
    write_trace(&t, &mut v1).unwrap();
    let mut v2 = Vec::new();
    write_trace_spool(&t, &mut v2, 64).unwrap();
    let a = read_trace(&v1[..]).unwrap();
    let b = read_trace(&v2[..]).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.events().iter().zip(b.events()) {
        assert_eq!(x, y);
    }
}

#[test]
fn stored_bytes_are_pinned_across_checksum_kernels() {
    // (length, FNV-1a) of every CRC-bearing artifact for one fixed trace,
    // taken at the last commit that used the bytewise kernel. FNV, not
    // CRC, so the fingerprint does not depend on the code under test.
    // v2 frames of 3 events (123 B) stay below the folding kernel's
    // threshold; v3 segments, the index and the checkpoint are above it.
    let t = sample(1000);

    let mut v2 = Vec::new();
    write_trace_spool(&t, &mut v2, 3).expect("v2");
    assert_eq!(
        (v2.len(), fnv1a(&v2)),
        (45016, 16444852293083262855),
        "v2 spool"
    );

    let file = ScratchFile::new("pinned", 0);
    write_trace_spool_v3(&t, file.path(), 64).expect("v3");
    let v3 = std::fs::read(file.path()).expect("read v3");
    assert_eq!(
        (v3.len(), fnv1a(&v3)),
        (69632, 15219962699686313142),
        "v3 spool"
    );
    let idx = std::fs::read(index_path(file.path())).expect("read idx");
    assert_eq!(
        (idx.len(), fnv1a(&idx)),
        (420, 3588128233042951546),
        "LCIX index"
    );

    let cp = checkpoint_bytes(DetectorKind::Asymmetric, 1000, 2);
    assert_eq!(
        (cp.len(), fnv1a(&cp)),
        (3831, 4467429022146482765),
        "LCCP checkpoint"
    );
    // And what is stored still verifies.
    assert_eq!(read_trace(&v2[..]).expect("read v2").events(), t.events());
    assert_eq!(read_trace(&v3[..]).expect("read v3").events(), t.events());
    V3Index::decode(&idx).expect("index verifies");
    Checkpoint::decode(&cp).expect("checkpoint verifies");
}

/// `records` as a reader hands them over after a write/read round trip.
fn through_a_spool(records: &[(u64, u32)]) -> Trace {
    let evs = (records.iter().enumerate())
        .map(|(i, &(addr, size))| {
            let mut e = ev(i as u64);
            (e.event.addr, e.event.size) = (addr, size);
            e
        })
        .collect();
    let mut bytes = Vec::new();
    write_trace_spool(&Trace::new(evs), &mut bytes, 16).expect("spool");
    read_trace(&bytes[..]).expect("a well-formed spool")
}

#[test]
fn coherence_backend_clamps_wrapping_and_oversized_accesses() {
    // One 41-byte record each: an end address past 2^64, and a 4 GiB
    // "access" that would walk 67 M lines and a directory entry for each.
    for (addr, size, lines) in [
        (u64::MAX - 3, 8, 1),
        (u64::MAX, u32::MAX, 1),
        (0x1000, u32::MAX, MAX_ACCESS_LINES),
        (0x1000, 64 * MAX_ACCESS_LINES as u32 + 1, MAX_ACCESS_LINES),
    ] {
        let trace = through_a_spool(&[(addr, size)]);
        let mut b = CoherenceBackend::new(CoherenceConfig::default(), 4);
        b.on_block(trace.access_events());
        let rep = b.report();
        assert_eq!(
            (rep.accesses, rep.clamped_accesses),
            (1, 1),
            "{addr:#x}+{size}"
        );
        assert_eq!(rep.fills, lines, "{addr:#x}+{size}");
        assert!(canonical_coherence_report(&rep).contains("\nclamped-accesses 1\n"));
    }
    // The longest access that is not cut, and silence about it.
    let trace = through_a_spool(&[(0x1000, 64 * MAX_ACCESS_LINES as u32)]);
    let mut b = CoherenceBackend::new(CoherenceConfig::default(), 4);
    b.on_block(trace.access_events());
    let rep = b.report();
    assert_eq!((rep.clamped_accesses, rep.fills), (0, MAX_ACCESS_LINES));
    assert!(!canonical_coherence_report(&rep).contains("clamped"));
}

proptest! {
    #[test]
    fn coherence_backend_never_panics_on_hostile_records(
        records in prop::collection::vec((0usize..10, 0u64..200, 0usize..10, 0u32..70), 1..40),
        geometry in 0usize..3,
    ) {
        // Hostile constants and their near neighbours, in both fields.
        let records: Vec<(u64, u32)> = records
            .iter()
            .map(|&(a, da, s, ds)| {
                (HOSTILE[a].wrapping_add(da).wrapping_sub(100), (HOSTILE[s] as u32).wrapping_add(ds).wrapping_sub(35))
            })
            .collect();
        let cfg = CoherenceConfig { line_bytes: [16, 64, 512][geometry], ..CoherenceConfig::default() };
        let trace = through_a_spool(&records);
        let mut b = CoherenceBackend::new(cfg, 4);
        b.on_block(trace.access_events());
        let rep = b.report();
        prop_assert_eq!(rep.accesses, records.len() as u64);
        prop_assert!(rep.fills + rep.hits <= records.len() as u64 * MAX_ACCESS_LINES);
        prop_assert_eq!(b.totals().false_bytes, rep.global.false_bytes);
    }
}
