//! The coherence backend split by cache set across the host's cores.
//!
//! [`ShardedCoherence`] runs `n` [`CoherenceBackend::shard`]s over one
//! ordered stream: shard 0 on the calling thread, shards `1..n` each on a
//! persistent helper thread fed the events of the lines it owns through a
//! bounded ring of recycled buffers ([`lc_trace::handoff`]). Everything a
//! line-access changes — the requester's cache set, an eviction victim in
//! that same set, the line's directory row and false-sharing stats —
//! belongs to the line's shard, so each shard sees its lines' accesses in
//! stream order and the merged report is byte-identical to one backend's
//! (DESIGN.md §16.4). With `n = 1` there are no helpers: the calling
//! thread runs the one backend inline.

use lc_trace::handoff::{self, Drainer, Filler};
use lc_trace::{AccessEvent, AsAccess};

use lc_profiler::AccumConfig;

use crate::backend::{line_span, CoherenceBackend, CoherenceConfig, CoherenceReport};

/// Events per hand-off to a helper.
const CHUNK: usize = 4096;

/// Buffers per helper: one being filled, the rest queued or in use, so a
/// helper that falls behind stalls the router instead of growing memory.
const BUFFERS: usize = 3;

type Buf = Vec<AccessEvent>;

/// One helper thread and the calling thread's end of its ring. Dropping
/// it closes the ring before joining the thread (field order), which is
/// what ends the helper's loop.
struct Helper {
    /// Events routed to this shard since the last hand-off.
    buf: Buf,
    ring: Filler<Buf>,
    /// `None` once joined.
    thread: Option<handoff::Helper<CoherenceReport>>,
}

impl Helper {
    /// Start a helper running `body` over the drainer end of a ring of
    /// `BUFFERS` buffers; the calling thread takes one to fill.
    fn spawn(
        name: String,
        body: impl FnOnce(Drainer<Buf>) -> CoherenceReport + Send + 'static,
    ) -> Self {
        let (ring, drainer) = handoff::ring::<Buf>(BUFFERS, BUFFERS);
        let mut buf = ring.empty().expect("drainer held here");
        buf.reserve(CHUNK);
        Self {
            buf,
            ring,
            thread: Some(
                handoff::Helper::spawn(name, move || body(drainer))
                    .expect("spawn coherence shard thread"),
            ),
        }
    }

    /// Hand the filled buffer over and take back an empty one, waiting
    /// while the helper holds all the others. `false` when the helper is
    /// gone.
    fn hand_off(&mut self) -> bool {
        let full = std::mem::take(&mut self.buf);
        if self.ring.send(full).is_err() {
            return false;
        }
        match self.ring.empty() {
            Some(mut next) => {
                // A buffer made fresh is sized once, not grown by doubling.
                next.reserve(CHUNK);
                self.buf = next;
                true
            }
            None => false,
        }
    }
}

/// The body of shard `k`'s helper thread: simulate every buffer it is
/// handed, then report once the calling thread closes the ring.
fn run_shard(
    cfg: CoherenceConfig,
    threads: usize,
    k: usize,
    n: usize,
    loop_cap: usize,
) -> impl FnOnce(Drainer<Buf>) -> CoherenceReport {
    move |ring| {
        let mut shard = CoherenceBackend::shard(cfg, threads, k, n).with_loop_capacity(loop_cap);
        while let Some(mut buf) = ring.recv() {
            shard.on_block(&buf);
            buf.clear();
            ring.recycle(buf);
        }
        shard.report()
    }
}

/// `n` cache-set shards of one [`CoherenceBackend`], shard 0 on the
/// calling thread and the rest on helper threads.
pub struct ShardedCoherence {
    local: CoherenceBackend,
    /// Shard `j + 1` is `helpers[j]`.
    helpers: Vec<Helper>,
    /// `log2` of the line size.
    line_shift: u32,
}

impl ShardedCoherence {
    /// How many shards to run on `cores` cores: `cores` rounded down to a
    /// power of two, at most the geometry's set count.
    pub fn shard_count(cfg: CoherenceConfig, cores: usize) -> usize {
        let pow2 = 1usize << cores.max(1).ilog2();
        pow2.min(cfg.cache_config().sets)
    }

    /// The backend for `threads` cores under `cfg` as `shards` cache-set
    /// shards ([`Self::shard_count`] picks the number), at the default
    /// loop cap. `shards - 1` helper threads start here; with one shard
    /// none does.
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
        let local = CoherenceBackend::shard(cfg, threads, 0, shards).with_loop_capacity(loop_cap);
        let helpers = (1..shards)
            .map(|k| {
                let body = run_shard(cfg, threads, k, shards, loop_cap);
                Helper::spawn(format!("lc-coh-{k}"), body)
            })
            .collect();
        Self {
            local,
            helpers,
            line_shift: cfg.line_bytes.trailing_zeros(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.helpers.len() + 1
    }

    /// The one backend, when this runs as a single shard: all its state
    /// is then on the calling thread and can be read between blocks.
    /// `None` with helper threads, whose shards only [`Self::finish`]
    /// can reach.
    pub fn single(&self) -> Option<&CoherenceBackend> {
        self.helpers.is_empty().then_some(&self.local)
    }

    /// Observe a block of accesses in stream order: route each one to the
    /// helpers owning any of its lines — a straddling access goes to
    /// every shard that owns one of its lines and each simulates only its
    /// own — then run shard 0 over the block here. `Err` names a helper
    /// that panicked; the simulation cannot go on without it.
    pub fn on_block<E: AsAccess>(&mut self, evs: &[E]) -> Result<(), String> {
        if !self.helpers.is_empty() {
            self.route(evs)?;
        }
        self.local.on_block(evs);
        Ok(())
    }

    fn route<E: AsAccess>(&mut self, evs: &[E]) -> Result<(), String> {
        let mask = self.helpers.len() as u64;
        for e in evs {
            let ev = e.access();
            let (first, last, _) = line_span(ev, self.line_shift);
            // Consecutive lines fall in consecutive shards, so a span of
            // fewer than `n` lines names each of its shards once.
            for line in first..=last.min(first + mask) {
                let k = (line & mask) as usize;
                if k == 0 {
                    continue;
                }
                let h = &mut self.helpers[k - 1];
                h.buf.push(*ev);
                if h.buf.len() >= CHUNK && !h.hand_off() {
                    return Err(self.fail(k));
                }
            }
        }
        Ok(())
    }

    /// Join the gone helper of shard `k` and say why it stopped.
    fn fail(&mut self, k: usize) -> String {
        let thread = self.helpers[k - 1].thread.take();
        shard_failed(k, self.shards(), thread.map(handoff::Helper::join))
    }

    /// Hand the helpers their last events, build every shard's report
    /// (each on its own thread) and merge them into the report one
    /// backend would have produced.
    pub fn finish(mut self) -> Result<CoherenceReport, String> {
        let n = self.shards();
        for k in 1..n {
            let h = &mut self.helpers[k - 1];
            let last = std::mem::take(&mut h.buf);
            if !last.is_empty() && h.ring.send(last).is_err() {
                return Err(self.fail(k));
            }
        }
        // Closing each ring ends its helper's loop once it has drained
        // what was sent.
        let threads: Vec<_> = (self.helpers.drain(..))
            .map(|Helper { thread, .. }| thread)
            .collect();
        let mut report = self.local.report();
        for (k, thread) in (1..).zip(threads) {
            match thread.map(handoff::Helper::join) {
                Some(Ok(part)) => report.merge(part),
                joined => return Err(shard_failed(k, n, joined)),
            }
        }
        Ok(report)
    }
}

/// Why helper `k` of `n` stopped, from its join result (`None` when it
/// was already joined).
fn shard_failed(k: usize, n: usize, joined: Option<Result<CoherenceReport, String>>) -> String {
    let why = match joined {
        Some(Err(why)) => why,
        _ => "stopped early".to_string(),
    };
    format!("coherence shard {k} of {n} failed: {why}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::{AccessKind, FuncId, LoopId};
    use std::time::Duration;

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
        assert_eq!(counts, [1, 1, 2, 2, 4, 8, 64]);
        let one_set = CoherenceConfig {
            line_bytes: 16,
            cache_kib: 1,
            assoc: 64,
        };
        assert_eq!(ShardedCoherence::shard_count(one_set, 8), 1);
    }

    #[test]
    fn one_shard_starts_no_thread() {
        let b = ShardedCoherence::new(CoherenceConfig::default(), 2, 1);
        assert!(b.helpers.is_empty());
        assert_eq!(b.shards(), 1);
        assert!(b.single().is_some());
        let two = ShardedCoherence::new(CoherenceConfig::default(), 2, 2);
        assert!(two.single().is_none(), "a helper's shard is out of reach");
    }

    /// A helper that dies mid-run fails `on_block` (or `finish`) with its
    /// panic message; the calling thread never waits on it forever.
    #[test]
    fn a_panicking_helper_fails_the_run_instead_of_hanging() {
        let cfg = CoherenceConfig::default();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut b = ShardedCoherence {
                local: CoherenceBackend::shard(cfg, 2, 0, 2),
                helpers: vec![Helper::spawn("lc-coh-test".into(), |ring| {
                    let _ = ring.recv();
                    panic!("injected shard panic");
                })],
                line_shift: cfg.line_bytes.trailing_zeros(),
            };
            // Every event on an odd line: all of them go to shard 1.
            let evs: Vec<AccessEvent> = (0..4 * CHUNK as u64)
                .map(|i| ev(i as u32 % 2, (2 * i + 1) * cfg.line_bytes))
                .collect();
            let outcome = b.on_block(&evs).and_then(|()| b.finish().map(|_| ()));
            tx.send(outcome).unwrap();
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the run ends instead of hanging");
        let err = outcome.expect_err("a dead helper fails the run");
        assert!(
            err.contains("shard 1 of 2") && err.contains("injected shard panic"),
            "{err}"
        );
    }
}
