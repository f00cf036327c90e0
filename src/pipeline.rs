//! The analysis engine as one object: [`Pipeline`] holds the RAW
//! [`IncrementalAnalyzer`] and, optionally, the MESI backend as a
//! [`ShardedCoherence`], and is the one place that feeds them, so every
//! frame reaches both halves or neither. `loopcomm analyze` drives one
//! with the coherence shards pooled over the host's cores; each `loopcomm
//! serve` tenant drives one with a single shard on its drain thread
//! (DESIGN.md §13.2).

use std::{fmt, io};

use lc_cachesim::{CoherenceConfig, CoherenceReport, CoherenceTotals, ShardedCoherence};
use lc_profiler::{AccumConfig, Checkpoint, DetectorKind, IncrementalAnalyzer, ProfilerConfig};
use lc_sigmem::{SignatureConfig, TableTooLarge};
use lc_trace::AsAccess;

/// Everything both halves of a [`Pipeline`] are built from.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// RAW detector.
    pub detector: DetectorKind,
    /// Signature geometry (asymmetric detector).
    pub sig: SignatureConfig,
    /// Profiler shape: `threads` is the matrix dimension of both halves.
    pub prof: ProfilerConfig,
    /// Loop capacity of both halves.
    pub accum: AccumConfig,
    /// Slot-sharded analyzer workers.
    pub jobs: usize,
    /// MESI backend geometry (`None` = RAW detection only).
    pub coherence: Option<CoherenceConfig>,
    /// Cache-set shards the MESI backend runs as
    /// ([`ShardedCoherence::shard_count`]), pooled over the host's cores.
    pub coherence_shards: usize,
}

/// Why a [`Pipeline`] could not be built.
#[derive(Debug)]
pub enum PipelineError {
    /// The host refused the signature tables.
    Table(TableTooLarge),
    /// More threads than the coherence directory's sharer mask holds.
    CoherenceThreads(usize),
    /// The checkpoint's analyzer state does not restore.
    Restore(io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Table(e) => e.fmt(f),
            Self::CoherenceThreads(threads) => write!(
                f,
                "--coherence supports up to {} threads (input has {threads})",
                lc_cachesim::MAX_COHERENCE_THREADS
            ),
            Self::Restore(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The coherence matrices' dimension for a `threads`-wide stream: the one
/// thread rule of the MESI backend. A wider stream is refused, not
/// clamped, since a clamped backend drops the wide threads' accesses
/// without counting them.
pub fn coherence_threads(threads: usize) -> Result<usize, PipelineError> {
    if threads > lc_cachesim::MAX_COHERENCE_THREADS {
        return Err(PipelineError::CoherenceThreads(threads));
    }
    Ok(threads.max(1))
}

impl PipelineConfig {
    /// The coherence half, `prof.threads` wide, and that width (`None`
    /// when the backend is off).
    fn coherence_half(&self) -> Result<Option<(ShardedCoherence, usize)>, PipelineError> {
        let Some(cfg) = self.coherence else {
            return Ok(None);
        };
        let (threads, shards) = (coherence_threads(self.prof.threads)?, self.coherence_shards);
        let cap = self.accum.loop_capacity;
        let half = ShardedCoherence::with_loop_capacity(cfg, threads, shards, cap);
        Ok(Some((half, threads)))
    }
}

/// A live reading of a [`Pipeline`]'s counters; no report is built.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    /// Events analyzed.
    pub events: u64,
    /// Frames analyzed.
    pub frames: u64,
    /// Analyzer heap footprint.
    pub memory_bytes: usize,
    /// RAW dependencies recorded.
    pub dependencies: u64,
    /// Coherence scrape counters (`None` when the backend is off or runs
    /// as a pool of shards, which only [`Pipeline::finish`] reaches).
    pub coherence: Option<CoherenceTotals>,
    /// Coherence accesses left without a loop by the loop cap.
    pub coherence_dropped: u64,
}

/// The RAW analyzer and, optionally, the sharded MESI backend, fed the
/// same frames in the same order.
pub struct Pipeline {
    analyzer: IncrementalAnalyzer,
    coherence: Option<ShardedCoherence>,
    /// The narrower of the two halves' matrices: a frame naming a thread
    /// at or above it is refused.
    threads: usize,
}

impl Pipeline {
    /// Both halves, fresh.
    pub fn new(cfg: &PipelineConfig) -> Result<Self, PipelineError> {
        let coherence = cfg.coherence_half()?;
        let analyzer =
            IncrementalAnalyzer::try_new(cfg.detector, cfg.sig, cfg.prof, cfg.accum, cfg.jobs)
                .map_err(PipelineError::Table)?;
        Ok(Self::join(analyzer, coherence))
    }

    /// The analyzer from `cp` and a fresh coherence backend from `cfg`:
    /// coherence is not checkpointed, so it covers the frames fed from
    /// here. With coherence on, a checkpoint wider than
    /// `cfg.prof.threads` still restores, and frames naming its wider
    /// threads are refused.
    pub fn restore(cp: &Checkpoint, cfg: &PipelineConfig) -> Result<Self, PipelineError> {
        let analyzer = cp.restore().map_err(PipelineError::Restore)?;
        let coherence = cfg.coherence_half()?;
        Ok(Self::join(analyzer, coherence))
    }

    fn join(analyzer: IncrementalAnalyzer, coherence: Option<(ShardedCoherence, usize)>) -> Self {
        let threads = analyzer
            .threads()
            .min(coherence.as_ref().map_or(usize::MAX, |c| c.1));
        Self {
            analyzer,
            coherence: coherence.map(|c| c.0),
            threads,
        }
    }

    /// Analyze one frame with both halves. A frame naming a thread outside
    /// either half's matrices reaches neither; after a coherence shard
    /// fails, the pipeline is spent.
    pub fn on_frame<T: AsAccess>(&mut self, frame: &[T]) -> Result<(), String> {
        let threads = self.threads;
        if let Some(e) = frame.iter().find(|e| e.access().tid as usize >= threads) {
            let tid = e.access().tid;
            return Err(format!(
                "thread id {tid} is outside the {threads}-thread matrices"
            ));
        }
        self.analyzer.on_frame(frame);
        self.coherence
            .as_mut()
            .map_or(Ok(()), |c| c.on_block(frame))
    }

    /// The RAW half.
    pub fn analyzer(&self) -> &IncrementalAnalyzer {
        &self.analyzer
    }

    /// Cache-set shards of the coherence half (`None` when it is off).
    pub fn coherence_shards(&self) -> Option<usize> {
        self.coherence.as_ref().map(ShardedCoherence::shards)
    }

    /// Threads simulating the coherence half, the calling one included
    /// (`None` when it is off).
    pub fn coherence_workers(&self) -> Option<usize> {
        self.coherence.as_ref().map(ShardedCoherence::workers)
    }

    /// The live counters, in O(workers + threads × cache slots).
    pub fn snapshot(&self) -> Snapshot {
        let single = self.coherence.as_ref().and_then(ShardedCoherence::single);
        Snapshot {
            events: self.analyzer.events(),
            frames: self.analyzer.frames(),
            memory_bytes: self.analyzer.memory_bytes(),
            dependencies: self.analyzer.dependencies(),
            coherence: single.map(|b| b.totals()),
            coherence_dropped: single.map_or(0, |b| b.dropped_accesses()),
        }
    }

    /// The canonical RAW report over the frames analyzed so far.
    pub fn canonical(&self) -> String {
        lc_profiler::canonical_report(&self.analyzer.report(), self.analyzer.events())
    }

    /// The full coherence report, read in place: only a one-shard backend
    /// can be (`None` when the backend is off or runs as a pool).
    pub fn live_coherence(&self) -> Option<CoherenceReport> {
        Some(self.coherence.as_ref()?.single()?.report())
    }

    /// End the stream: the analyzer, whose report is the RAW half, and the
    /// coherence report merged across its shards. `Err` names a shard
    /// that failed.
    pub fn finish(self) -> Result<(IncrementalAnalyzer, Option<CoherenceReport>), String> {
        let coherence = self.coherence.map(ShardedCoherence::finish).transpose()?;
        Ok((self.analyzer, coherence))
    }
}
