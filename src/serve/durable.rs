//! Durable tenant state: spill spools and checkpoint/restore.
//!
//! With `--durable-dir` every tenant owns a directory
//! `<durable_dir>/t_<name>/` (the `t_` prefix keeps hostile-but-valid
//! tenant names like `..` from escaping the root) holding:
//!
//! * `state.lctn` — the tenant's last checkpoint: ingest counters plus a
//!   full [`lc_profiler::Checkpoint`] of the analyzer, written atomically
//!   (temp + fsync + rename) through the `checkpoint_write` fault seam.
//! * `spill-<gen>.lcv3` — v3 spool generations of frames that found
//!   every buffer of the tenant's bounded ring out. Spilling replaces the backpressure stall: under
//!   memory pressure the frames go to disk instead of stalling producers,
//!   and are replayed into the analyzer when the tenant is next restored.
//!
//! The accounting contract: `received == analyzed + spilled + lost`
//! (spilled = frames currently on disk awaiting replay) holds at every
//! quiescent point, across clean eviction/restart, and across a hard
//! crash — restore reconciles the salvage-exact spill replay against the
//! checkpointed counters, so frames that arrived after the last
//! checkpoint are re-admitted to *both* sides of the ledger or neither.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use lc_faults::FaultInjector;
use lc_profiler::{write_atomic_blob, Checkpoint};
use lc_trace::{crc32, MmapTrace, SpoolV3Writer};
use parking_lot::Mutex;

use super::tenant::TenantStats;
use crate::pipeline::{Pipeline, PipelineConfig, PipelineError};

const STATE_MAGIC: [u8; 4] = *b"LCTN";
const STATE_VERSION: u32 = 1;

/// The durable directory for one tenant.
pub fn tenant_dir(root: &Path, name: &str) -> PathBuf {
    root.join(format!("t_{name}"))
}

/// The tenant's checkpoint file.
pub fn state_path(dir: &Path) -> PathBuf {
    dir.join("state.lctn")
}

fn spill_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("spill-{generation:08}.lcv3"))
}

/// Counter snapshot persisted alongside the analyzer checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistedStats {
    /// See [`TenantStats::frames_received`].
    pub frames_received: u64,
    /// See [`TenantStats::events_received`].
    pub events_received: u64,
    /// See [`TenantStats::frames_lost`].
    pub frames_lost: u64,
    /// See [`TenantStats::events_lost`].
    pub events_lost: u64,
    /// See [`TenantStats::frames_spilled`].
    pub frames_spilled: u64,
    /// See [`TenantStats::events_spilled`].
    pub events_spilled: u64,
    /// See [`TenantStats::bytes_received`].
    pub bytes_received: u64,
    /// See [`TenantStats::bytes_dropped`].
    pub bytes_dropped: u64,
}

impl PersistedStats {
    /// Snapshot the live counters.
    pub fn capture(s: &TenantStats) -> Self {
        Self {
            frames_received: s.frames_received.load(Ordering::Relaxed),
            events_received: s.events_received.load(Ordering::Relaxed),
            frames_lost: s.frames_lost.load(Ordering::Relaxed),
            events_lost: s.events_lost.load(Ordering::Relaxed),
            frames_spilled: s.frames_spilled.load(Ordering::Relaxed),
            events_spilled: s.events_spilled.load(Ordering::Relaxed),
            bytes_received: s.bytes_received.load(Ordering::Relaxed),
            bytes_dropped: s.bytes_dropped.load(Ordering::Relaxed),
        }
    }

    /// Seed fresh live counters from the snapshot.
    pub fn seed(&self, s: &TenantStats) {
        s.frames_received
            .store(self.frames_received, Ordering::Relaxed);
        s.events_received
            .store(self.events_received, Ordering::Relaxed);
        s.frames_lost.store(self.frames_lost, Ordering::Relaxed);
        s.events_lost.store(self.events_lost, Ordering::Relaxed);
        s.frames_spilled
            .store(self.frames_spilled, Ordering::Relaxed);
        s.events_spilled
            .store(self.events_spilled, Ordering::Relaxed);
        s.bytes_received
            .store(self.bytes_received, Ordering::Relaxed);
        s.bytes_dropped.store(self.bytes_dropped, Ordering::Relaxed);
    }

    fn fields(&self) -> [u64; 8] {
        [
            self.frames_received,
            self.events_received,
            self.frames_lost,
            self.events_lost,
            self.frames_spilled,
            self.events_spilled,
            self.bytes_received,
            self.bytes_dropped,
        ]
    }

    fn from_fields(f: [u64; 8]) -> Self {
        Self {
            frames_received: f[0],
            events_received: f[1],
            frames_lost: f[2],
            events_lost: f[3],
            frames_spilled: f[4],
            events_spilled: f[5],
            bytes_received: f[6],
            bytes_dropped: f[7],
        }
    }
}

/// Encode the tenant state file: `"LCTN" | version | crc32(body) | body`,
/// body = 8 counter u64s + checkpoint blob length + checkpoint blob.
pub fn encode_state(stats: &PersistedStats, checkpoint: &Checkpoint) -> Vec<u8> {
    let blob = checkpoint.encode();
    let mut body = Vec::with_capacity(8 * 8 + 8 + blob.len());
    for v in stats.fields() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    body.extend_from_slice(&(blob.len() as u64).to_le_bytes());
    body.extend_from_slice(&blob);
    let mut out = Vec::with_capacity(12 + body.len());
    out.extend_from_slice(&STATE_MAGIC);
    out.extend_from_slice(&STATE_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Decode a tenant state file (CRC-checked; any damage is an error — the
/// caller falls back to a fresh tenant rather than trusting torn state).
pub fn decode_state(bytes: &[u8]) -> io::Result<(PersistedStats, Checkpoint)> {
    if bytes.len() < 12 || bytes[0..4] != STATE_MAGIC {
        return Err(bad("not a tenant state file (no LCTN magic)"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != STATE_VERSION {
        return Err(bad(format!("unsupported tenant state version {version}")));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != crc {
        return Err(bad("tenant state CRC mismatch (torn or corrupt)"));
    }
    if body.len() < 8 * 8 + 8 {
        return Err(bad("tenant state body truncated"));
    }
    let mut f = [0u64; 8];
    for (i, v) in f.iter_mut().enumerate() {
        *v = u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap());
    }
    let blob_len = u64::from_le_bytes(body[64..72].try_into().unwrap()) as usize;
    let blob = &body[72..];
    if blob.len() != blob_len {
        return Err(bad("tenant state checkpoint length mismatch"));
    }
    let cp = Checkpoint::decode(blob)?;
    Ok((PersistedStats::from_fields(f), cp))
}

/// Load and decode the tenant state, if present.
pub fn load_state(dir: &Path) -> io::Result<Option<(PersistedStats, Checkpoint)>> {
    let path = state_path(dir);
    let mut bytes = Vec::new();
    match std::fs::File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    decode_state(&bytes).map(Some)
}

/// Bring tenant `name` back from `dir`: its last checkpoint (a fresh
/// pipeline when there is none or it does not restore), then every spilled
/// frame replayed into both halves, and the ingest ledger reconciled with
/// what the replay read. Frames beyond the checkpointed spill count
/// arrived *after* the checkpoint, so they re-enter `received` as well;
/// checkpointed spills the salvage could not recover, and replayed frames
/// the pipeline refused, become `lost`. Either way both sides of the
/// ledger move together. A configuration the pipeline cannot be built
/// from refuses the tenant and leaves its state on disk.
pub fn restore(
    dir: &Path,
    name: &str,
    cfg: &PipelineConfig,
) -> io::Result<(Pipeline, PersistedStats)> {
    let restored = match load_state(dir) {
        Ok(Some((stats, cp))) => match Pipeline::restore(&cp, cfg) {
            Ok(p) => Some((p, stats)),
            Err(PipelineError::Restore(e)) => {
                eprintln!(
                    "warning: tenant `{name}`: cannot restore checkpoint ({e}); starting fresh"
                );
                None
            }
            Err(e) => return Err(io::Error::other(e)),
        },
        Ok(None) => None,
        Err(e) => {
            eprintln!("warning: tenant `{name}`: unusable state file ({e}); starting fresh");
            None
        }
    };
    let (pipeline, mut s) = match restored {
        Some(r) => r,
        None => (
            Pipeline::new(cfg).map_err(io::Error::other)?,
            PersistedStats::default(),
        ),
    };
    let pipeline = Mutex::new(pipeline);
    let r = replay_spills(spill_files(dir), &pipeline);
    s.frames_received += r.frames.saturating_sub(s.frames_spilled);
    s.events_received += r.events.saturating_sub(s.events_spilled);
    s.frames_lost += s.frames_spilled.saturating_sub(r.frames) + r.lost_frames;
    s.events_lost += s.events_spilled.saturating_sub(r.events) + r.lost_events;
    (s.frames_spilled, s.events_spilled) = (0, 0);
    Ok((pipeline.into_inner(), s))
}

/// The append-only spill side of a durable tenant. Each sealed generation
/// is a complete indexed v3 spool; the open generation's data pages are
/// durable per append, so a crash loses at most the unsealed index —
/// which restore rebuilds exactly from the CRC-framed segments.
pub struct SpillWriter {
    dir: PathBuf,
    faults: Option<Arc<FaultInjector>>,
    open: Option<SpoolV3Writer>,
    generation: u64,
    /// Whether any spilled frame awaits replay (open or sealed, this
    /// incarnation or a previous one). While true, `Tenant::enqueue` must
    /// keep spilling instead of re-entering the ring: a frame admitted
    /// to the ring would be analyzed *before* the spilled frames that
    /// precede it in arrival order, and replay order is the byte-identity
    /// guarantee. Cleared only by `replay_spills` deleting the files.
    pending: bool,
}

impl SpillWriter {
    /// Set up spilling into `dir`, starting after any existing generation.
    pub fn new(dir: PathBuf, faults: Option<Arc<FaultInjector>>) -> Self {
        let generation = next_generation(&dir);
        Self {
            faults,
            open: None,
            generation,
            pending: !spill_files(&dir).is_empty(),
            dir,
        }
    }

    /// Write the tenant state next to the spill generations, atomically
    /// and through the `checkpoint_write` seam.
    pub fn write_state(&self, stats: &PersistedStats, cp: &Checkpoint) -> io::Result<()> {
        let state = encode_state(stats, cp);
        let site = lc_faults::FaultSite::CheckpointWrite;
        write_atomic_blob(&state_path(&self.dir), &state, site, self.faults.as_ref())
    }

    /// True while spilled frames await replay — the tenant's signal to
    /// keep routing new frames to disk so arrival order is preserved.
    pub fn has_pending(&self) -> bool {
        self.pending
    }

    /// Recompute `pending` from disk, after a catch-up replay deleted the
    /// sealed generations it consumed. Frames appended *during* that
    /// replay live in a newer generation (open or sealed), so pending
    /// stays true until the spool directory is really empty.
    pub fn refresh_pending(&mut self) {
        self.pending = self.open.is_some() || !spill_files(&self.dir).is_empty();
    }

    /// Append one overflowed frame to the open generation.
    pub fn append(&mut self, frame: &[lc_trace::StampedEvent]) -> io::Result<()> {
        if self.open.is_none() {
            std::fs::create_dir_all(&self.dir)?;
            let path = spill_path(&self.dir, self.generation);
            self.open = Some(SpoolV3Writer::create_with(&path, self.faults.clone())?);
        }
        self.open.as_mut().unwrap().append_frame(frame)?;
        self.pending = true;
        Ok(())
    }

    /// Seal the open generation (write its index durably) and advance, so
    /// the next spill starts a fresh spool instead of truncating history.
    pub fn seal(&mut self) -> io::Result<()> {
        if let Some(w) = self.open.take() {
            w.finish()?;
            self.generation += 1;
        }
        Ok(())
    }

    /// Seal the open generation and list every generation on disk, oldest
    /// first: the files a catch-up may replay and delete. The writer is
    /// borrowed throughout, so no append can open a newer generation
    /// between the seal and the listing, and every listed file is sealed
    /// and immutable.
    pub fn seal_for_replay(&mut self) -> io::Result<Vec<PathBuf>> {
        self.seal()?;
        Ok(spill_files(&self.dir))
    }
}

fn next_generation(dir: &Path) -> u64 {
    spill_files(dir)
        .last()
        .and_then(|p| {
            p.file_stem()?
                .to_str()?
                .strip_prefix("spill-")?
                .parse::<u64>()
                .ok()
        })
        .map(|g| g + 1)
        .unwrap_or(0)
}

/// All spill generations in `dir`, oldest first.
pub fn spill_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "lcv3")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("spill-"))
        })
        .collect();
    files.sort();
    files
}

/// What a spill replay read: every frame, and those of them the pipeline
/// refused (a thread id outside its matrices), which count as lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Frames read back.
    pub frames: u64,
    /// Events in them.
    pub events: u64,
    /// Frames among them the pipeline refused.
    pub lost_frames: u64,
    /// Events in the refused frames.
    pub lost_events: u64,
}

/// Replay the spill generations `files`, in order, into the pipeline —
/// both its halves — then delete them. Restore (every file on disk) and
/// the drain's run-time catch-up ([`SpillWriter::seal_for_replay`]) both
/// replay through here; none of `files` may still be open for appends.
/// Replay is salvage-exact: a torn tail from a crash is dropped at the
/// first bad CRC, and the caller reconciles its ledger against what was
/// read. The pipeline is locked per frame, as the drain locks it, so
/// readers are never held off for a whole spill.
pub fn replay_spills(files: Vec<PathBuf>, pipeline: &Mutex<Pipeline>) -> Replayed {
    let mut r = Replayed::default();
    for path in files {
        let read = MmapTrace::open(&path).and_then(|m| {
            m.stream_from(0, |frame| {
                let events = frame.len() as u64;
                if pipeline.lock().on_frame(frame).is_err() {
                    r.lost_frames += 1;
                    r.lost_events += events;
                }
                r.frames += 1;
                r.events += events;
            })
        });
        if let Err(e) = read {
            eprintln!(
                "warning: spill replay of {} stopped early: {e}",
                path.display()
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(lc_trace::index_path(&path)).ok();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tenant::tests::{frame, tenant_pipeline};
    use crate::serve::ServeConfig;
    use lc_profiler::ProfilerConfig;
    use lc_sigmem::SignatureConfig;

    fn pipeline() -> Pipeline {
        tenant_pipeline(Some(lc_cachesim::CoherenceConfig::default()))
    }

    #[test]
    fn state_round_trips_and_rejects_corruption() {
        let mut a = pipeline();
        a.on_frame(&frame(0, 32)).unwrap();
        let stats = PersistedStats {
            frames_received: 7,
            events_received: 99,
            frames_spilled: 2,
            events_spilled: 10,
            ..Default::default()
        };
        let cp = Checkpoint::capture(a.analyzer());
        let bytes = encode_state(&stats, &cp);
        let (back_stats, back_cp) = decode_state(&bytes).expect("decode");
        assert_eq!(back_stats, stats);
        assert_eq!(back_cp.events, 32);

        for i in [5usize, 20, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_state(&bad).is_err(), "flip at {i} must be rejected");
        }
        assert!(decode_state(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn spill_generations_accumulate_and_replay_in_order() {
        let dir = std::env::temp_dir().join(format!("lc_spill_gen_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut w = SpillWriter::new(dir.clone(), None);
        w.append(&frame(0, 8)).unwrap();
        w.append(&frame(8, 8)).unwrap();
        w.seal().unwrap();
        // A sealed spill survives a new writer (no truncation).
        let mut w2 = SpillWriter::new(dir.clone(), None);
        w2.append(&frame(16, 8)).unwrap();
        w2.seal().unwrap();
        assert_eq!(spill_files(&dir).len(), 2);

        let replayed = Mutex::new(pipeline());
        let r = replay_spills(spill_files(&dir), &replayed);
        assert_eq!((r.frames, r.events, r.lost_frames), (3, 24, 0));
        assert!(spill_files(&dir).is_empty(), "replayed spills are deleted");

        // Replay equals streaming the same frames directly, in both halves.
        let mut straight = pipeline();
        for base in [0, 8, 16] {
            straight.on_frame(&frame(base, 8)).unwrap();
        }
        let replayed = replayed.into_inner();
        assert_eq!(replayed.canonical(), straight.canonical());
        let coherence = |p: &Pipeline| p.live_coherence().map(|r| r.totals());
        assert_eq!(coherence(&replayed), coherence(&straight));
        assert_eq!(coherence(&replayed).unwrap().accesses, 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A run-time catch-up replays only what `seal_for_replay` listed: a
    /// frame spilled between the listing and the replay opens the next
    /// generation, which must survive the replay and reach the pipeline,
    /// in order, at the next catch-up.
    #[test]
    fn an_append_between_seal_and_replay_waits_for_the_next_catch_up() {
        let dir = std::env::temp_dir().join(format!("lc_spill_catch_up_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut w = SpillWriter::new(dir.clone(), None);
        let replayed = Mutex::new(pipeline());
        w.append(&frame(0, 8)).unwrap();
        let sealed = w.seal_for_replay().unwrap();
        w.append(&frame(8, 8)).unwrap();
        let on_disk = spill_files(&dir);
        assert_eq!(on_disk.len(), 2, "the append opened the next generation");

        let mut spilled = 2 - replay_spills(sealed, &replayed).frames;
        assert_eq!(
            spill_files(&dir),
            on_disk[1..],
            "the open generation survives"
        );
        w.refresh_pending();
        assert!(w.has_pending());
        w.append(&frame(16, 8)).unwrap();
        spilled += 1;
        spilled -= replay_spills(w.seal_for_replay().unwrap(), &replayed).frames;
        assert_eq!(spilled, 0, "every spilled frame was replayed");
        w.refresh_pending();
        assert!(!w.has_pending() && spill_files(&dir).is_empty());

        let mut straight = pipeline();
        for base in [0, 8, 16] {
            straight.on_frame(&frame(base, 8)).unwrap();
        }
        let replayed = replayed.into_inner();
        assert_eq!(replayed.canonical(), straight.canonical());
        let coherence = |p: &Pipeline| p.live_coherence().map(|r| r.totals());
        assert_eq!(coherence(&replayed), coherence(&straight));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The coherence half of a restored tenant is as wide as the server's
    /// `threads`, not the checkpoint's: a checkpoint wider than the
    /// directory holds still restores, and a frame outside the narrower
    /// half reaches neither half.
    #[test]
    fn a_wide_checkpoint_restores_under_a_narrow_coherence_config() {
        let dir = std::env::temp_dir().join(format!("lc_wide_restore_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let wide = ServeConfig {
            sig: SignatureConfig::paper_default(1 << 8, 100),
            prof: ProfilerConfig::nested(100),
            ..ServeConfig::default()
        };
        let mut a = Pipeline::new(&wide.pipeline()).unwrap();
        a.on_frame(&frame(0, 32)).unwrap();
        let w = SpillWriter::new(dir.clone(), None);
        let cp = Checkpoint::capture(a.analyzer());
        w.write_state(&PersistedStats::default(), &cp).unwrap();

        let narrow = ServeConfig {
            coherence: Some(lc_cachesim::CoherenceConfig::default()),
            ..ServeConfig::default()
        };
        let (mut p, _) = restore(&dir, "t", &narrow.pipeline()).expect("restores");
        assert_eq!(p.snapshot().events, 32, "the checkpoint was kept");
        let mut outside = frame(32, 1);
        outside[0].event.tid = narrow.prof.threads as u32;
        assert!(p.on_frame(&outside).is_err());
        assert_eq!(p.snapshot().events, 32);
        assert_eq!(p.snapshot().coherence.unwrap().accesses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_spill_is_replayed_via_index_rebuild() {
        let dir = std::env::temp_dir().join(format!("lc_spill_unsealed_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut w = SpillWriter::new(dir.clone(), None);
        w.append(&frame(0, 16)).unwrap();
        // No seal: simulate a crash before the index write. Data pages are
        // durable per append; replay rebuilds the index from frames.
        drop(w);
        let r = replay_spills(spill_files(&dir), &Mutex::new(pipeline()));
        assert_eq!((r.frames, r.events), (1, 16));
        std::fs::remove_dir_all(&dir).ok();
    }
}
