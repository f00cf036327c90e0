//! Engineered false-sharing workloads for the coherence backend.
//!
//! Two kernels that exhibit false sharing *on demand*, so the detector's
//! teeth can be tested both ways:
//!
//! * [`FsCounters`] — the classic padded/unpadded per-thread counter
//!   array. Unpadded, every thread's counter lives in one cache line and
//!   each increment ping-pongs the line; padded (one line per counter)
//!   the same computation is coherence-silent. The final reduction by
//!   thread 0 is the only inter-thread RAW communication, so the RAW
//!   matrices of the two variants are identical — only the coherence
//!   report tells them apart.
//! * [`FsStraddle`] — a producer/consumer ring whose three-word records
//!   straddle cache-line boundaries: each record's tail shares a line
//!   with the next producer's head, so consumers pull neighbour data
//!   they never read (false bytes) alongside the record itself (true
//!   bytes) — a mixed split, unlike the counter pair's all-or-nothing.

use std::sync::Arc;

use lc_trace::{enter_func, enter_loop, run_threads, InstrumentedBarrier, TraceCtx, TracedBuffer};

use crate::{RunConfig, Workload, WorkloadResult};

/// Words per 64-byte cache line — the padding stride.
const LINE_WORDS: usize = 8;

/// Per-thread counter array, padded (one line per counter) or unpadded
/// (all counters in consecutive words).
pub struct FsCounters {
    /// When true, counters are spaced one cache line apart.
    pub padded: bool,
}

impl Workload for FsCounters {
    fn name(&self) -> &'static str {
        if self.padded {
            "fs_padded"
        } else {
            "fs_unpadded"
        }
    }

    fn description(&self) -> &'static str {
        if self.padded {
            "per-thread counters, one cache line apart (coherence-silent twin)"
        } else {
            "per-thread counters packed into shared cache lines (false-sharing ping-pong)"
        }
    }

    fn run(&self, ctx: &Arc<TraceCtx>, cfg: &RunConfig) -> WorkloadResult {
        let t = cfg.threads;
        let rounds = cfg.size.pick(16, 128, 1024);
        let stride = if self.padded { LINE_WORDS } else { 1 };
        let counters: TracedBuffer<u64> = ctx.alloc::<u64>(t * stride);
        let sum: TracedBuffer<u64> = ctx.alloc::<u64>(1);

        let f = ctx.func(self.name());
        let l_bump = ctx.root_loop("bump", f);
        let l_reduce = ctx.root_loop("reduce", f);
        let bar = InstrumentedBarrier::new(ctx, t, "barrier", f);

        let counters = &counters;
        let sum = &sum;
        run_threads(t, |tid| {
            let _fg = enter_func(f);
            {
                let _lg = enter_loop(l_bump);
                for _ in 0..rounds {
                    let idx = tid * stride;
                    let c = counters.load(idx);
                    counters.store(idx, c + 1);
                }
            }
            bar.wait();
            if tid == 0 {
                let _lg = enter_loop(l_reduce);
                let mut acc = 0u64;
                for i in 0..t {
                    acc = acc.wrapping_add(counters.load(i * stride));
                }
                sum.store(0, acc);
            }
            bar.wait();
        });

        let total = sum.peek(0);
        assert_eq!(
            total,
            (t * rounds) as u64,
            "every increment must be observed by the reduction"
        );
        WorkloadResult {
            checksum: total as f64,
        }
    }
}

/// Producer/consumer ring whose records straddle cache-line boundaries.
///
/// Record `i` occupies words `{8i+6, 8i+7, 8i+8}`: its tail shares line
/// `i+1` with record `i+1`'s head. Thread `i` produces record `i`; thread
/// `(i+1) % t` consumes it after a barrier.
pub struct FsStraddle;

/// Words per record (one word crosses the line boundary).
const RECORD_WORDS: usize = 3;
/// Word offset of record `i` within the shared buffer.
const RECORD_OFFSET: usize = 6;

impl Workload for FsStraddle {
    fn name(&self) -> &'static str {
        "fs_straddle"
    }

    fn description(&self) -> &'static str {
        "line-straddling producer/consumer ring (mixed true/false sharing)"
    }

    fn min_threads(&self) -> usize {
        2
    }

    fn run(&self, ctx: &Arc<TraceCtx>, cfg: &RunConfig) -> WorkloadResult {
        let t = cfg.threads;
        assert!(t >= self.min_threads(), "the ring needs at least 2 threads");
        let rounds = cfg.size.pick(8, 64, 512);
        let buf: TracedBuffer<u64> = ctx.alloc::<u64>(t * LINE_WORDS + LINE_WORDS);

        let f = ctx.func("fs_straddle");
        let l_round = ctx.root_loop("handoff_round", f);
        let bar = InstrumentedBarrier::new(ctx, t, "barrier", f);

        let buf = &buf;
        run_threads(t, |tid| {
            let _fg = enter_func(f);
            for round in 0..rounds {
                let _rg = enter_loop(l_round);
                let base = tid * LINE_WORDS + RECORD_OFFSET;
                for w in 0..RECORD_WORDS {
                    buf.store(base + w, (round * 100 + tid * 10 + w) as u64);
                }
                bar.wait();
                let src = (tid + t - 1) % t;
                let sbase = src * LINE_WORDS + RECORD_OFFSET;
                let mut acc = 0u64;
                for w in 0..RECORD_WORDS {
                    acc = acc.wrapping_add(buf.load(sbase + w));
                }
                let expect: u64 = (0..RECORD_WORDS)
                    .map(|w| (round * 100 + src * 10 + w) as u64)
                    .sum();
                assert_eq!(acc, expect, "consumer must see the produced record");
                bar.wait();
            }
        });

        WorkloadResult {
            checksum: (t * rounds * RECORD_WORDS) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputSize;
    use lc_trace::{NoopSink, TraceCtx};

    fn run(w: &dyn Workload, t: usize) -> WorkloadResult {
        let ctx = TraceCtx::new(Arc::new(NoopSink), t);
        w.run(&ctx, &RunConfig::new(t, InputSize::SimDev, 7))
    }

    #[test]
    fn counters_validate_both_variants() {
        for padded in [false, true] {
            let r = run(&FsCounters { padded }, 4);
            assert_eq!(r.checksum, 4.0 * 16.0);
        }
    }

    #[test]
    fn straddle_records_cross_line_boundaries() {
        // Record i's word range must span two 64-byte lines.
        for i in 0..8usize {
            let first = (i * LINE_WORDS + RECORD_OFFSET) / LINE_WORDS;
            let last = (i * LINE_WORDS + RECORD_OFFSET + RECORD_WORDS - 1) / LINE_WORDS;
            assert_eq!(last, first + 1, "record {i} must straddle");
        }
        let r = run(&FsStraddle, 4);
        assert_eq!(r.checksum, (4 * 8 * RECORD_WORDS) as f64);
    }
}
