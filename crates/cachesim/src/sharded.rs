//! The coherence backend split by cache set across the host's cores.
//!
//! [`ShardedCoherence`] runs `n` [`CoherenceBackend::shard`]s over one
//! ordered stream as a [`ShardPool`]: the calling thread routes each
//! access into a 4096-event chunk for every shard owning one of its
//! lines, and the shards' chunks are simulated by whichever worker is
//! free — the calling thread itself or one of the pool's helper threads.
//! Everything a line-access changes — the requester's cache set, an
//! eviction victim in that same set, the line's directory row and
//! false-sharing stats — belongs to the line's shard, and a shard is run
//! by one thread at a time in chunk order, so each shard sees its lines'
//! accesses in stream order and the merged report is byte-identical to
//! one backend's (DESIGN.md §16.4). With `n = 1` there is no pool: the
//! calling thread runs the one backend inline.

use std::sync::Arc;

use lc_trace::handoff::Helper;
use lc_trace::pool::{Failed, Shard, ShardPool};
use lc_trace::{AccessEvent, AsAccess};

use lc_profiler::AccumConfig;

use crate::backend::{line_span, CoherenceBackend, CoherenceConfig, CoherenceReport};

/// Events per chunk.
const CHUNK: usize = 4096;

/// Chunks queued per helper before the calling thread runs one itself:
/// deep enough that a helper finishing a chunk finds the next one
/// waiting while the calling thread is busy decoding and routing.
const BACKLOG: usize = 4;

impl Shard for CoherenceBackend {
    type Item = AccessEvent;
    type Report = CoherenceReport;

    fn run_chunk(&mut self, chunk: &[AccessEvent]) {
        #[cfg(test)]
        assert!(
            chunk.iter().all(|e| e.site != tests::PANIC_SITE),
            "injected shard panic"
        );
        self.on_block(chunk);
    }

    fn into_report(self) -> CoherenceReport {
        self.report()
    }
}

/// The shards as a pool: the calling thread's fill buffers and the
/// helper threads. Dropping it closes the pool before joining the
/// helpers (field order), which is what ends their loops.
struct Pooled {
    pool: Arc<ShardPool<CoherenceBackend>>,
    /// Shard `k`'s events since its last chunk was queued.
    fill: Vec<Vec<AccessEvent>>,
    helpers: Vec<Helper<()>>,
}

impl Drop for Pooled {
    fn drop(&mut self) {
        self.pool.close();
    }
}

enum Work {
    /// One shard, on the calling thread.
    Inline(Box<CoherenceBackend>),
    Pooled(Pooled),
}

/// `n` cache-set shards of one [`CoherenceBackend`], run by the calling
/// thread and a pool of helper threads.
pub struct ShardedCoherence {
    work: Work,
    /// `log2` of the line size.
    line_shift: u32,
}

impl ShardedCoherence {
    /// How many shards to run on `cores` cores: none split on one core,
    /// else eight per core, `cores` rounded down to a power of two, at
    /// most the geometry's set count. Shards outnumber workers so that a
    /// worker finding the others' shards held still finds one with work,
    /// and a smaller shard's sets and directory stay in the host's caches
    /// (DESIGN.md §16.4).
    pub fn shard_count(cfg: CoherenceConfig, cores: usize) -> usize {
        let pow2 = match cores {
            0 | 1 => 1,
            _ => 8 << cores.ilog2(),
        };
        pow2.min(cfg.cache_config().sets)
    }

    /// How many helper threads `shards` shards get on `cores` cores: one
    /// per core beside the calling thread's, and none without a pool.
    fn helper_count(shards: usize, cores: usize) -> usize {
        cores.min(shards).max(1) - 1
    }

    /// The backend for `threads` cores under `cfg` as `shards` cache-set
    /// shards ([`Self::shard_count`] picks the number), at the default
    /// loop cap, with one helper thread per core beside the calling one.
    pub fn new(cfg: CoherenceConfig, threads: usize, shards: usize) -> Self {
        Self::with_loop_capacity(cfg, threads, shards, AccumConfig::default().loop_capacity)
    }

    /// [`Self::new`] with every shard interning at most `loop_cap`
    /// distinct loops ([`CoherenceBackend::with_loop_capacity`]); the
    /// merged report latches `loop_overflow` when the stream's loops are
    /// more than that, at any shard count.
    pub fn with_loop_capacity(
        cfg: CoherenceConfig,
        threads: usize,
        shards: usize,
        loop_cap: usize,
    ) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let helpers = Self::helper_count(shards, cores);
        Self::with_helpers(cfg, threads, shards, helpers, loop_cap)
    }

    /// [`Self::with_loop_capacity`] with `helpers` helper threads, which
    /// start here. One shard runs inline whatever `helpers` says; more
    /// run as a pool even with none, on the calling thread alone.
    pub fn with_helpers(
        cfg: CoherenceConfig,
        threads: usize,
        shards: usize,
        helpers: usize,
        loop_cap: usize,
    ) -> Self {
        let shard =
            |k| CoherenceBackend::shard(cfg, threads, k, shards).with_loop_capacity(loop_cap);
        let line_shift = cfg.line_bytes.trailing_zeros();
        if shards == 1 {
            return Self {
                work: Work::Inline(Box::new(shard(0))),
                line_shift,
            };
        }
        // Beside a buffer being filled per shard: each helper's backlog
        // and the chunk it runs, and the one the calling thread runs.
        let spare = (BACKLOG + 1) * helpers + 1;
        let shards = (0..shards).map(shard).collect();
        let (pool, fill) = ShardPool::new(shards, helpers, BACKLOG, CHUNK, spare);
        let pool = Arc::new(pool);
        let helpers = (0..helpers)
            .map(|h| {
                let pool = Arc::clone(&pool);
                Helper::spawn(format!("lc-coh-{h}"), move || pool.serve())
                    .expect("spawn coherence worker thread")
            })
            .collect();
        Self {
            work: Work::Pooled(Pooled {
                pool,
                fill,
                helpers,
            }),
            line_shift,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match &self.work {
            Work::Inline(_) => 1,
            Work::Pooled(p) => p.fill.len(),
        }
    }

    /// Threads simulating the shards: the calling thread and the helpers.
    pub fn workers(&self) -> usize {
        match &self.work {
            Work::Inline(_) => 1,
            Work::Pooled(p) => p.helpers.len() + 1,
        }
    }

    /// The one backend, when this runs as a single shard: all its state
    /// is then on the calling thread and can be read between blocks.
    /// `None` with a pool, whose shards only [`Self::finish`] can reach.
    pub fn single(&self) -> Option<&CoherenceBackend> {
        match &self.work {
            Work::Inline(b) => Some(b),
            Work::Pooled(_) => None,
        }
    }

    /// Observe a block of accesses in stream order: route each one to the
    /// chunks of the shards owning any of its lines — a straddling access
    /// goes to every shard that owns one of its lines and each simulates
    /// only its own. A full chunk is queued, and the calling thread may
    /// simulate queued chunks before it goes on. `Err` names a shard whose
    /// simulation panicked; the run cannot go on without it.
    pub fn on_block<E: AsAccess>(&mut self, evs: &[E]) -> Result<(), String> {
        let p = match &mut self.work {
            Work::Inline(b) => {
                b.on_block(evs);
                return Ok(());
            }
            Work::Pooled(p) => p,
        };
        let mask = (p.fill.len() - 1) as u64;
        for e in evs {
            let ev = e.access();
            let (first, last, _) = line_span(ev, self.line_shift);
            // Consecutive lines fall in consecutive shards, so a span of
            // at most `n` lines names each of its shards once.
            for line in first..=last.min(first + mask) {
                let k = (line & mask) as usize;
                let fill = &mut p.fill[k];
                fill.push(*ev);
                if fill.len() >= CHUNK {
                    let full = std::mem::take(fill);
                    p.fill[k] = (p.pool.push(k, full)).map_err(|f| shard_failed(f, mask + 1))?;
                }
            }
        }
        Ok(())
    }

    /// Queue the last chunks, simulate what is left and build every
    /// shard's report (on whichever workers are free), and fold them into
    /// one: counters summed, each scope's rows kept as the shards' runs,
    /// which [`crate::LoopCoh::lines`] and [`crate::write_coherence_report`]
    /// merge as they read them. Rendered, it is the report one backend
    /// would have produced.
    pub fn finish(self) -> Result<CoherenceReport, String> {
        let mut p = match self.work {
            Work::Inline(b) => return Ok(b.report()),
            Work::Pooled(p) => p,
        };
        let n = p.fill.len();
        let last = std::mem::take(&mut p.fill);
        let mut parts = (p.pool.finish(last)).map_err(|f| shard_failed(f, n as u64))?;
        let mut report = parts.remove(0);
        report.merge_all(parts);
        Ok(report)
    }
}

/// Why the pool of `n` shards stopped.
fn shard_failed(f: Failed, n: u64) -> String {
    format!("coherence shard {} of {n} failed: {}", f.shard, f.why)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::{AccessKind, FuncId, LoopId};
    use std::time::Duration;

    /// An event at this site panics the shard simulating it.
    pub(super) const PANIC_SITE: u64 = u64::MAX;

    fn ev(tid: u32, addr: u64) -> AccessEvent {
        AccessEvent {
            tid,
            addr,
            size: 8,
            kind: AccessKind::Write,
            loop_id: LoopId(1),
            parent_loop: LoopId::NONE,
            func: FuncId::NONE,
            site: 0,
        }
    }

    #[test]
    fn shard_count_is_a_power_of_two_within_the_sets() {
        let dflt = CoherenceConfig::default(); // 64 sets
        let counts: Vec<usize> = [0, 1, 2, 3, 6, 8, 100]
            .iter()
            .map(|&cores| ShardedCoherence::shard_count(dflt, cores))
            .collect();
        assert_eq!(counts, [1, 1, 16, 16, 32, 64, 64]);
        let one_set = CoherenceConfig {
            line_bytes: 16,
            cache_kib: 1,
            assoc: 64,
        };
        assert_eq!(ShardedCoherence::shard_count(one_set, 8), 1);
    }

    #[test]
    fn helpers_are_the_cores_beside_the_calling_thread() {
        let counts: Vec<usize> = [(1, 1), (1, 8), (4, 1), (4, 2), (4, 8), (16, 8)]
            .iter()
            .map(|&(shards, cores)| ShardedCoherence::helper_count(shards, cores))
            .collect();
        assert_eq!(counts, [0, 0, 0, 1, 3, 7]);
    }

    #[test]
    fn one_shard_starts_no_thread() {
        let cfg = CoherenceConfig::default();
        let b = ShardedCoherence::with_helpers(cfg, 2, 1, 3, 64);
        assert_eq!((b.shards(), b.workers()), (1, 1));
        assert!(b.single().is_some());
        let pooled = ShardedCoherence::with_helpers(cfg, 2, 4, 0, 64);
        assert_eq!((pooled.shards(), pooled.workers()), (4, 1));
        assert!(pooled.single().is_none(), "a pooled shard is out of reach");
    }

    /// A worker that panics mid-run — the calling thread or a helper —
    /// fails `on_block` (or `finish`) with the shard and its panic
    /// message; the calling thread never waits on it forever.
    #[test]
    fn a_panicking_helper_fails_the_run_instead_of_hanging() {
        let cfg = CoherenceConfig::default();
        for helpers in [0, 1, 3] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut b = ShardedCoherence::with_helpers(cfg, 2, 2, helpers, 64);
                // Every event on an odd line: all of them go to shard 1.
                let mut evs: Vec<AccessEvent> = (0..4 * CHUNK as u64)
                    .map(|i| ev(i as u32 % 2, (2 * i + 1) * cfg.line_bytes))
                    .collect();
                evs[100].site = PANIC_SITE;
                let outcome = b.on_block(&evs).and_then(|()| b.finish().map(|_| ()));
                tx.send(outcome).unwrap();
            });
            let outcome = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("the run ends instead of hanging");
            let err = outcome.expect_err("a dead worker fails the run");
            assert!(
                err.contains("shard 1 of 2") && err.contains("injected shard panic"),
                "{helpers} helper(s): {err}"
            );
        }
    }
}
