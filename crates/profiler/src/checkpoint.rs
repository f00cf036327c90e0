//! Signature checkpoints: crash-resumable analysis state.
//!
//! A checkpoint captures everything an [`IncrementalAnalyzer`] has
//! accumulated — per-worker counters, communication matrices, loop
//! registries, and the full signature memory of each worker's detector —
//! plus the replay cursor (event offset) and a configuration echo. Restoring
//! it and streaming the remaining events produces a report **byte-identical**
//! to an uninterrupted run: worker routing is deterministic, every
//! accumulated quantity is commutative, and the signature dumps are exact
//! (sparse but lossless for both the slot signature and the perfect
//! baseline's maps).
//!
//! ## File format (`checkpoint.lccp`, version 2)
//!
//! ```text
//! "LCCP" | version u32 | crc32 u32 | body
//! ```
//!
//! All integers little-endian. The CRC covers the whole body; a mismatch
//! (torn write, bit rot) is detected at load and the caller falls back to a
//! from-scratch run — never a silently wrong resume. A file of another
//! version (version 1 held Bloom-filter state) is refused with
//! [`io::ErrorKind::Unsupported`]: its state cannot be read into this
//! build's signature. The body is a configuration echo (detector kind,
//! jobs, thread count, signature geometry `(n_slots, threads)`, loop
//! capacity), the cursor (`frames`, `events`), then one [`WorkerState`]
//! per worker, whose slot-signature state is its occupied slots.
//!
//! ## Atomicity
//!
//! [`Checkpoint::write_atomic`] (and the reusable
//! [`write_atomic_blob`]) write to `<path>.tmp`, flush, `fsync`, then
//! `rename(2)` — so a crash at any instruction leaves either the previous
//! checkpoint or the new one, never a torn file the loader would trust.
//! Every byte passes through the [`FaultSite::CheckpointWrite`] seam when an
//! injector is armed, which is how the crash-recovery fault matrix drives
//! `panic` / `io_error` / `short_write` / `bit_flip` through this exact
//! code path.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lc_faults::{FaultInjector, FaultSite, FaultyWriter};
use lc_sigmem::{slot_words, SignatureConfig, SlotRouter};
use lc_trace::{crc32, LoopId};

use crate::ingest::{DetectorKind, IncrementalAnalyzer, Workers};
use crate::matrix::DenseMatrix;
use crate::profiler::{OwnedProfiler, PerfectProfiler, ProfilerConfig};
use crate::raw::{PerfectDetector, RawDetector};
use crate::shards::AccumConfig;

/// Checkpoint file magic: "LCCP".
const CP_MAGIC: [u8; 4] = *b"LCCP";
/// Current checkpoint format version.
const CP_VERSION: u32 = 2;
/// Fixed prelude: magic, version, crc.
const CP_HEADER_BYTES: usize = 4 + 4 + 4;

/// Well-known checkpoint file name inside a `--checkpoint` directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.lccp")
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One worker's exact detector state, sparsely serialized.
#[derive(Clone, Debug, PartialEq)]
pub enum DetectorState {
    /// Slot signature: every occupied slot's words (last writer and
    /// reader bits), slot-ascending.
    Asymmetric {
        /// `(slot, words)`, slot-ascending.
        slots: Vec<(u64, Vec<u64>)>,
    },
    /// Perfect baseline: exact reader bitmasks and last-writer records.
    Perfect {
        /// `(addr, reader bitmask)`, addr-ascending.
        readers: Vec<(u64, u128)>,
        /// `(addr, last writer tid)`, addr-ascending.
        writers: Vec<(u64, u32)>,
    },
}

/// One worker's accumulated analysis state.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerState {
    /// Accesses observed by this worker.
    pub accesses: u64,
    /// Dependences recorded by this worker.
    pub dependencies: u64,
    /// This worker's share of the global communication matrix.
    pub global: DenseMatrix,
    /// Per-loop matrices, loop-id-ascending.
    pub loops: Vec<(LoopId, DenseMatrix)>,
    /// Exact signature memory.
    pub detector: DetectorState,
}

/// A complete, restorable snapshot of an [`IncrementalAnalyzer`].
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Which detector the analyzer runs.
    pub kind: DetectorKind,
    /// Worker count (the routing fan-out — must match on resume).
    pub jobs: usize,
    /// Signature geometry (asymmetric only).
    pub sig: Option<SignatureConfig>,
    /// Application thread count (matrix dimension).
    pub threads: usize,
    /// Whether per-loop attribution was enabled.
    pub track_nested: bool,
    /// Loop-registry capacity the run was provisioned with.
    pub loop_capacity: usize,
    /// Frames analyzed before this checkpoint.
    pub frames: u64,
    /// Replay cursor: events analyzed before this checkpoint. Resume
    /// continues from exactly this event offset.
    pub events: u64,
    /// Per-worker state, worker-index order.
    pub workers: Vec<WorkerState>,
}

impl Checkpoint {
    /// Capture the analyzer's full state. Must be called between frames
    /// (no concurrent `on_frame`), so every worker's matrices are exact.
    pub fn capture(analyzer: &IncrementalAnalyzer) -> Self {
        let workers = match &analyzer.workers {
            Workers::Asymmetric { profilers, .. } => profilers
                .iter()
                .map(|p| {
                    let r = p.report();
                    worker_state(
                        r,
                        DetectorState::Asymmetric {
                            slots: p.detector().signature().snapshot_slots(),
                        },
                    )
                })
                .collect(),
            Workers::Perfect { profilers } => profilers
                .iter()
                .map(|p| {
                    let r = p.report();
                    worker_state(
                        r,
                        DetectorState::Perfect {
                            readers: p.detector().signature().readers().snapshot(),
                            writers: p.detector().signature().writers().snapshot(),
                        },
                    )
                })
                .collect(),
        };
        Self {
            kind: analyzer.kind(),
            jobs: analyzer.jobs,
            sig: analyzer.sig,
            threads: analyzer.prof.threads,
            track_nested: analyzer.prof.track_nested,
            loop_capacity: analyzer.accum.loop_capacity,
            frames: analyzer.frames,
            events: analyzer.events,
            workers,
        }
    }

    /// Rebuild a live analyzer from this snapshot. `loop_capacity` is
    /// taken from the checkpoint so resumed attribution can never overflow
    /// differently than the original run.
    pub fn restore(&self) -> io::Result<IncrementalAnalyzer> {
        let accum = AccumConfig {
            loop_capacity: self.loop_capacity,
        };
        let prof = ProfilerConfig {
            threads: self.threads,
            track_nested: self.track_nested,
            phase_window: None,
        };
        if self.workers.len() != self.jobs {
            return Err(bad_data(format!(
                "checkpoint has {} worker states for {} jobs",
                self.workers.len(),
                self.jobs
            )));
        }
        let workers = match self.kind {
            DetectorKind::Asymmetric => {
                let sig = self.sig.ok_or_else(|| {
                    bad_data("asymmetric checkpoint lacks signature config".into())
                })?;
                // Each saved slot goes to the worker that owns it now, so a
                // file written under another slot-to-worker routing resumes
                // exactly; the accumulators are sums and stay put.
                let router = SlotRouter::new(sig.n_slots);
                let dets = (0..self.jobs)
                    .map(|_| sig.try_build().map(RawDetector::new))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e))?;
                for w in &self.workers {
                    let DetectorState::Asymmetric { slots } = &w.detector else {
                        return Err(bad_data("mixed detector states in checkpoint".into()));
                    };
                    for (slot, words) in slots {
                        let slot = *slot as usize;
                        dets[router.owner(slot, self.jobs)]
                            .signature()
                            .restore_slot(slot, words);
                    }
                }
                let profilers = (dets.into_iter().zip(&self.workers))
                    .map(|(det, w)| {
                        let p = OwnedProfiler::from_detector_with(det, prof, accum);
                        p.restore_accumulators(w.accesses, w.dependencies, &w.global, &w.loops);
                        p
                    })
                    .collect();
                Workers::Asymmetric { router, profilers }
            }
            DetectorKind::Perfect => {
                let mut profilers = Vec::with_capacity(self.jobs);
                for w in &self.workers {
                    let DetectorState::Perfect { readers, writers } = &w.detector else {
                        return Err(bad_data("mixed detector states in checkpoint".into()));
                    };
                    let det = PerfectDetector::perfect();
                    for (addr, mask) in readers {
                        det.signature().readers().restore_mask(*addr, *mask);
                    }
                    for (addr, tid) in writers {
                        det.signature().writers().record(*addr, *tid);
                    }
                    let p = PerfectProfiler::from_detector_with(det, prof, accum);
                    p.restore_accumulators(w.accesses, w.dependencies, &w.global, &w.loops);
                    profilers.push(p);
                }
                Workers::Perfect { profilers }
            }
        };
        Ok(IncrementalAnalyzer {
            workers,
            jobs: self.jobs,
            scratch: (0..self.jobs).map(|_| Vec::new()).collect(),
            frames: self.frames,
            events: self.events,
            sig: self.sig,
            prof,
            accum,
            fused_scratch: crate::ingest::fused_scratches(self.jobs),
        })
    }

    /// Serialize to the versioned, CRC-framed byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.push(match self.kind {
            DetectorKind::Asymmetric => 0u8,
            DetectorKind::Perfect => 1,
        });
        push_u32(&mut b, self.jobs as u32);
        push_u32(&mut b, self.threads as u32);
        b.push(self.track_nested as u8);
        match &self.sig {
            Some(sig) => {
                b.push(1);
                push_u64(&mut b, sig.n_slots as u64);
                push_u32(&mut b, sig.threads as u32);
            }
            None => b.push(0),
        }
        push_u64(&mut b, self.loop_capacity as u64);
        push_u64(&mut b, self.frames);
        push_u64(&mut b, self.events);
        for w in &self.workers {
            push_u64(&mut b, w.accesses);
            push_u64(&mut b, w.dependencies);
            push_matrix(&mut b, &w.global);
            push_u32(&mut b, w.loops.len() as u32);
            for (id, m) in &w.loops {
                push_u32(&mut b, id.0);
                push_matrix(&mut b, m);
            }
            match &w.detector {
                DetectorState::Asymmetric { slots } => {
                    push_u64(&mut b, slots.len() as u64);
                    for (slot, words) in slots {
                        push_u64(&mut b, *slot);
                        for w in words {
                            push_u64(&mut b, *w);
                        }
                    }
                }
                DetectorState::Perfect { readers, writers } => {
                    push_u64(&mut b, readers.len() as u64);
                    for (addr, mask) in readers {
                        push_u64(&mut b, *addr);
                        push_u64(&mut b, *mask as u64);
                        push_u64(&mut b, (*mask >> 64) as u64);
                    }
                    push_u64(&mut b, writers.len() as u64);
                    for (addr, tid) in writers {
                        push_u64(&mut b, *addr);
                        push_u32(&mut b, *tid);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(CP_HEADER_BYTES + b.len());
        out.extend_from_slice(&CP_MAGIC);
        out.extend_from_slice(&CP_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&b).to_le_bytes());
        out.extend_from_slice(&b);
        out
    }

    /// Parse and CRC-verify a serialized checkpoint.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < CP_HEADER_BYTES || bytes[0..4] != CP_MAGIC {
            return Err(bad_data("not a loopcomm checkpoint (bad magic)".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != CP_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("unsupported checkpoint version {version} (expected {CP_VERSION})"),
            ));
        }
        let want_crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let body = &bytes[CP_HEADER_BYTES..];
        let got_crc = crc32(body);
        if want_crc != got_crc {
            return Err(bad_data(format!(
                "checkpoint CRC mismatch (stored {want_crc:#010x}, computed {got_crc:#010x})"
            )));
        }
        let mut d = Dec { b: body, pos: 0 };
        let kind = match d.u8()? {
            0 => DetectorKind::Asymmetric,
            1 => DetectorKind::Perfect,
            k => return Err(bad_data(format!("unknown detector kind {k}"))),
        };
        let jobs = d.u32()? as usize;
        let threads = d.u32()? as usize;
        if jobs == 0 || jobs > crate::MAX_JOBS || threads == 0 || threads > 1 << 12 {
            return Err(bad_data(format!(
                "implausible checkpoint shape: jobs={jobs} threads={threads}"
            )));
        }
        let track_nested = d.u8()? != 0;
        let sig = match d.u8()? {
            0 => None,
            _ => Some(SignatureConfig {
                n_slots: d.u64()? as usize,
                threads: d.u32()? as usize,
            }),
        };
        if kind == DetectorKind::Asymmetric && sig.is_none() {
            return Err(bad_data(
                "asymmetric checkpoint lacks signature config".into(),
            ));
        }
        // The slot width follows from `threads`; bound it like the matrix
        // dimension so a crafted count cannot size the restored table.
        if let Some(sig) = &sig {
            if sig.n_slots == 0 || sig.threads > 1 << 12 {
                return Err(bad_data(format!(
                    "implausible signature geometry: {} slots, {} threads",
                    sig.n_slots, sig.threads
                )));
            }
        }
        let loop_capacity = d.u64()? as usize;
        let frames = d.u64()?;
        let events = d.u64()?;
        let mut workers = Vec::with_capacity(d.count(jobs as u64, 16 + threads * threads * 8)?);
        for _ in 0..jobs {
            let accesses = d.u64()?;
            let dependencies = d.u64()?;
            let global = d.matrix(threads)?;
            let n_loops = d.u32()? as u64;
            if n_loops > (loop_capacity as u64).max(1 << 20) {
                return Err(bad_data(format!("implausible loop count {n_loops}")));
            }
            let n_loops = d.count(n_loops, 4 + threads * threads * 8)?;
            let mut loops = Vec::with_capacity(n_loops);
            for _ in 0..n_loops {
                let id = LoopId(d.u32()?);
                loops.push((id, d.matrix(threads)?));
            }
            let detector = match kind {
                DetectorKind::Asymmetric => {
                    let sig = sig.as_ref().unwrap();
                    let words_per = slot_words(sig.threads);
                    let n_slots = d.u64()?;
                    if n_slots > sig.n_slots as u64 {
                        return Err(bad_data(format!("implausible slot count {n_slots}")));
                    }
                    let n_slots = d.count(n_slots, 8 + words_per * 8)?;
                    let mut slots = Vec::with_capacity(n_slots);
                    for _ in 0..n_slots {
                        let slot = d.u64()?;
                        if slot >= sig.n_slots as u64 {
                            return Err(bad_data(format!("signature slot {slot} out of range")));
                        }
                        let mut words = Vec::with_capacity(words_per);
                        for _ in 0..words_per {
                            words.push(d.u64()?);
                        }
                        slots.push((slot, words));
                    }
                    DetectorState::Asymmetric { slots }
                }
                DetectorKind::Perfect => {
                    let n_readers = d.u64()?;
                    let n_readers = d.count(n_readers, 8 + 16)?;
                    let mut readers = Vec::with_capacity(n_readers);
                    for _ in 0..n_readers {
                        let addr = d.u64()?;
                        let lo = d.u64()? as u128;
                        let hi = d.u64()? as u128;
                        readers.push((addr, lo | (hi << 64)));
                    }
                    let n_writers = d.u64()?;
                    let n_writers = d.count(n_writers, 8 + 4)?;
                    let mut writers = Vec::with_capacity(n_writers);
                    for _ in 0..n_writers {
                        writers.push((d.u64()?, d.u32()?));
                    }
                    DetectorState::Perfect { readers, writers }
                }
            };
            workers.push(WorkerState {
                accesses,
                dependencies,
                global,
                loops,
                detector,
            });
        }
        if d.pos != d.b.len() {
            return Err(bad_data(format!(
                "{} trailing bytes after checkpoint body",
                d.b.len() - d.pos
            )));
        }
        Ok(Self {
            kind,
            jobs,
            sig,
            threads,
            track_nested,
            loop_capacity,
            frames,
            events,
            workers,
        })
    }

    /// Write this checkpoint to `path` atomically (temp + fsync + rename),
    /// routing every byte through the [`FaultSite::CheckpointWrite`] seam
    /// when an injector is armed.
    pub fn write_atomic(&self, path: &Path, faults: Option<&Arc<FaultInjector>>) -> io::Result<()> {
        write_atomic_blob(path, &self.encode(), FaultSite::CheckpointWrite, faults)
    }

    /// Load and verify a checkpoint file.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::decode(&std::fs::read(path)?)
    }
}

/// Turn one worker's report into serialization form, sorting the
/// loop map into the deterministic id-ascending order the byte format
/// requires.
fn worker_state(r: crate::profiler::ProfileReport, detector: DetectorState) -> WorkerState {
    let mut loops: Vec<(LoopId, DenseMatrix)> = r.per_loop.into_iter().collect();
    loops.sort_unstable_by_key(|(id, _)| id.0);
    WorkerState {
        accesses: r.accesses,
        dependencies: r.dependencies,
        global: r.global,
        loops,
        detector,
    }
}

/// Publication clock: a facade-atomic bump between the durable temp write
/// and the rename. Outside a simulation this is a free counter; inside the
/// deterministic scheduler it is the decision point that lets the
/// `checkpoint` scenario interleave a reader with the publish step.
/// (`LazyLock`: the facade atomic registers with the simulation context at
/// creation, so its constructor is not `const`.)
static PUBLISH_CLOCK: std::sync::LazyLock<crate::sync::AtomicU64> =
    std::sync::LazyLock::new(|| crate::sync::AtomicU64::new(0));

/// Write `bytes` to `path` atomically: `<path>.tmp`, flush, `fsync`,
/// `rename(2)`. All bytes pass through `site` when `faults` is armed, so a
/// crash (or injected fault) at any point leaves the previous file intact —
/// the loader never sees a torn blob it would trust.
pub fn write_atomic_blob(
    path: &Path,
    bytes: &[u8],
    site: FaultSite,
    faults: Option<&Arc<FaultInjector>>,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    #[cfg(feature = "sched")]
    if lc_sched::mutant_active("checkpoint-torn-write") {
        // Mutant: publish in place, non-atomically, in two halves with a
        // scheduling point between them — the bug the atomic temp+rename
        // protocol exists to rule out. A simulated reader interleaved at
        // the torn window observes a half-old half-new file.
        let mut f = File::create(path)?;
        let mid = bytes.len() / 2;
        f.write_all(&bytes[..mid])?;
        PUBLISH_CLOCK.fetch_add(1, crate::sync::Ordering::SeqCst);
        f.write_all(&bytes[mid..])?;
        return Ok(());
    }
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = File::create(&tmp)?;
    match faults {
        Some(inj) => {
            let mut w = FaultyWriter::with_site(file, Arc::clone(inj), site);
            w.write_all(bytes)?;
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        None => {
            let mut w = &file;
            w.write_all(bytes)?;
            file.sync_all()?;
        }
    }
    PUBLISH_CLOCK.fetch_add(1, crate::sync::Ordering::SeqCst);
    std::fs::rename(&tmp, path)
}

fn push_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn push_matrix(b: &mut Vec<u8>, m: &DenseMatrix) {
    for &v in m.data() {
        push_u64(b, v);
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if self.b.len() - self.pos < n {
            return Err(bad_data("truncated checkpoint body".into()));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An element count read from the body, accepted only if that many
    /// elements of at least `item_bytes` each can still follow — so a
    /// crafted count is an error here, not an allocation request.
    fn count(&self, n: u64, item_bytes: usize) -> io::Result<usize> {
        let left = (self.b.len() - self.pos) as u64;
        match n.checked_mul(item_bytes as u64) {
            Some(need) if need <= left => Ok(n as usize),
            _ => Err(bad_data(format!(
                "checkpoint body claims {n} × {item_bytes}-byte items with {left} bytes left"
            ))),
        }
    }

    fn matrix(&mut self, t: usize) -> io::Result<DenseMatrix> {
        let cells = self.count((t * t) as u64, 8)?;
        let mut data = Vec::with_capacity(cells);
        for _ in 0..cells {
            data.push(self.u64()?);
        }
        Ok(DenseMatrix::from_rows(t, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::canonical_report;
    use lc_trace::{AccessEvent, AccessKind, FuncId, StampedEvent};

    fn events(n: u64) -> Vec<StampedEvent> {
        (0..n)
            .map(|i| {
                let addr = 0x1000 + (i % 97) * 8;
                let kind = if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let tid = if kind == AccessKind::Write {
                    (i % 2) as u32
                } else {
                    (i % 4) as u32
                };
                StampedEvent {
                    seq: i,
                    event: AccessEvent {
                        tid,
                        addr,
                        size: 8,
                        kind,
                        loop_id: LoopId((i % 6) as u32 + 1),
                        parent_loop: LoopId::NONE,
                        func: FuncId::NONE,
                        site: 0,
                    },
                }
            })
            .collect()
    }

    fn analyzer(kind: DetectorKind, jobs: usize) -> IncrementalAnalyzer {
        IncrementalAnalyzer::new(
            kind,
            SignatureConfig::paper_default(1 << 9, 4),
            ProfilerConfig::nested(4),
            AccumConfig::default(),
            jobs,
        )
    }

    fn run_with_checkpoint(
        kind: DetectorKind,
        jobs: usize,
        evs: &[StampedEvent],
        split: usize,
        frame: usize,
    ) -> String {
        let mut a = analyzer(kind, jobs);
        for chunk in evs[..split].chunks(frame) {
            a.on_frame(chunk);
        }
        let cp = Checkpoint::capture(&a);
        drop(a);
        let decoded = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(decoded, cp);
        let mut b = decoded.restore().unwrap();
        assert_eq!(b.events(), split as u64);
        for chunk in evs[split..].chunks(frame) {
            b.on_frame(chunk);
        }
        canonical_report(&b.report(), b.events())
    }

    #[test]
    fn checkpoint_restore_is_byte_identical_both_detectors() {
        let evs = events(4000);
        for kind in [DetectorKind::Asymmetric, DetectorKind::Perfect] {
            for jobs in [1usize, 3] {
                let mut straight = analyzer(kind, jobs);
                for chunk in evs.chunks(64) {
                    straight.on_frame(chunk);
                }
                let want = canonical_report(&straight.report(), straight.events());
                for split in [0usize, 64, 1024, 3968, 4000] {
                    let got = run_with_checkpoint(kind, jobs, &evs, split, 64);
                    assert_eq!(
                        got, want,
                        "resume at {split} diverged ({kind:?}, jobs={jobs})"
                    );
                }
            }
        }
    }

    /// LCCP v2 files written when workers owned the residue classes
    /// `slot % jobs` resume exactly under contiguous-range ownership:
    /// restore moves each saved slot to its current owner.
    #[test]
    fn a_checkpoint_from_residue_class_routing_resumes_exactly() {
        let evs = events(4000);
        let jobs = 3;
        let mut straight = analyzer(DetectorKind::Asymmetric, jobs);
        for chunk in evs.chunks(64) {
            straight.on_frame(chunk);
        }
        let want = canonical_report(&straight.report(), straight.events());
        let mut a = analyzer(DetectorKind::Asymmetric, jobs);
        for chunk in evs[..1024].chunks(64) {
            a.on_frame(chunk);
        }
        let mut cp = Checkpoint::capture(&a);
        // Re-deal the saved slots as the residue-class routing held them.
        let mut dealt: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); jobs];
        for w in &cp.workers {
            let DetectorState::Asymmetric { slots } = &w.detector else {
                unreachable!()
            };
            for (slot, words) in slots {
                dealt[*slot as usize % jobs].push((*slot, words.clone()));
            }
        }
        let moved = (cp.workers.iter().zip(&dealt))
            .filter(|(w, d)| w.detector != DetectorState::Asymmetric { slots: d.to_vec() })
            .count();
        assert!(moved > 0, "the two routings place some slot differently");
        for (w, mut slots) in cp.workers.iter_mut().zip(dealt) {
            slots.sort_by_key(|(slot, _)| *slot);
            w.detector = DetectorState::Asymmetric { slots };
        }
        let mut b = Checkpoint::decode(&cp.encode()).unwrap().restore().unwrap();
        for chunk in evs[1024..].chunks(64) {
            b.on_frame(chunk);
        }
        assert_eq!(canonical_report(&b.report(), b.events()), want);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let mut a = analyzer(DetectorKind::Asymmetric, 2);
        let evs = events(500);
        for chunk in evs.chunks(50) {
            a.on_frame(chunk);
        }
        let bytes = Checkpoint::capture(&a).encode();
        // Flip one bit anywhere in the body: CRC must catch it.
        for at in [CP_HEADER_BYTES, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(Checkpoint::decode(&bad).is_err(), "flip at {at} accepted");
        }
        // Truncation too.
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(Checkpoint::decode(&bytes[..8]).is_err());
    }

    #[test]
    fn implausible_signature_geometry_is_rejected() {
        let mut a = analyzer(DetectorKind::Asymmetric, 1);
        a.on_frame(&events(100));
        let mut cp = Checkpoint::capture(&a);
        for (n_slots, threads) in [(1 << 9, 1 << 20), (0, 4)] {
            cp.sig = Some(SignatureConfig { n_slots, threads });
            let e = Checkpoint::decode(&cp.encode()).unwrap_err();
            assert!(
                e.to_string().contains("implausible signature geometry"),
                "{e}"
            );
        }
    }

    #[test]
    fn other_versions_are_unsupported_not_corrupt() {
        let mut a = analyzer(DetectorKind::Asymmetric, 1);
        a.on_frame(&events(100));
        let mut bytes = Checkpoint::capture(&a).encode();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let e = Checkpoint::decode(&bytes).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Unsupported);
        assert_eq!(
            e.to_string(),
            "unsupported checkpoint version 1 (expected 2)"
        );
    }

    #[test]
    fn atomic_write_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("lc_cp_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir);
        let mut a = analyzer(DetectorKind::Perfect, 2);
        let evs = events(800);
        for chunk in evs.chunks(100) {
            a.on_frame(chunk);
        }
        let cp = Checkpoint::capture(&a);
        cp.write_atomic(&path, None).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        // No temp file left behind.
        assert!(!path.with_extension("lccp.tmp").exists());
    }

    #[test]
    fn restore_rejects_worker_mismatch() {
        let mut a = analyzer(DetectorKind::Perfect, 2);
        a.on_frame(&events(100));
        let mut cp = Checkpoint::capture(&a);
        cp.jobs = 3;
        assert!(cp.restore().is_err());
    }

    #[test]
    fn capture_is_resumable_mid_loop_nesting() {
        // Loops present in the prefix but not the suffix (and vice versa)
        // must both survive the round trip.
        let mut evs = events(1000);
        for (i, e) in evs.iter_mut().enumerate() {
            e.event.loop_id = if i < 500 { LoopId(1) } else { LoopId(9) };
        }
        let mut straight = analyzer(DetectorKind::Asymmetric, 2);
        for chunk in evs.chunks(32) {
            straight.on_frame(chunk);
        }
        let want = canonical_report(&straight.report(), 1000);
        let got = run_with_checkpoint(DetectorKind::Asymmetric, 2, &evs, 500, 32);
        assert_eq!(got, want);
    }
}
