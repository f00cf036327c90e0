//! Coherence-traffic analysis backend — per-loop MESI matrices and
//! false-sharing detection over the instrumentation event stream.
//!
//! The paper's §III premise is that shared-memory communication *is*
//! coherence traffic. [`CoherenceBackend`] makes that measurable as a
//! second analysis backend next to the RAW profiler: it consumes the same
//! ordered event stream (per event, per [`lc_trace::BlockSource`] tile, or
//! behind an [`lc_trace::AccessSink`] via [`SharedCoherence`]), maintains
//! one private MESI cache per thread plus an idealized full-map directory,
//! and attributes every coherence action to the innermost loop of the
//! access that caused it — the same attribution rule the profiler uses for
//! RAW dependences, so the two reports line up cell for cell.
//!
//! ## Attribution rules (DESIGN.md §16)
//!
//! * **Invalidations** `inval[w][v] += 1` when thread `w`'s write
//!   invalidates thread `v`'s copy, in the loop of the write.
//! * **Transfers** are *first-touch, word-granular*: when thread `c` first
//!   touches an 8-byte word last written by `w ≠ c` (since that write),
//!   `transfers[w][c] += 8` in the loop of the touching access. Word
//!   writer/toucher state lives in the directory and never evicts — the
//!   exact mirror of the RAW detector's write-signature / read-signature
//!   pair, which is what makes the differential invariant
//!   `raw[w][c] ≤ transfers[w][c]` hold per loop on word-grain traces.
//! * **False sharing**: an invalidation is false sharing when the written
//!   words intersect nothing its victim ever touched; a fill's
//!   remote-written words that the access didn't ask for become a pending
//!   set, and whatever is still untouched when the copy dies (invalidation
//!   or eviction) counts as false-shared bytes, attributed to the loop of
//!   the fill that pulled them.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::btree_map::Entry;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Mutex, MutexGuard};

use lc_profiler::{AccumConfig, DenseMatrix, RegistryFull};
use lc_trace::{AccessEvent, AccessKind, AccessSink, AsAccess, BlockSource, EventBlock, LoopId};

use crate::cache::{Cache, CacheConfig, Mesi};

/// Directory sharer masks are 64-bit; the backend refuses larger fleets.
pub const MAX_COHERENCE_THREADS: usize = 64;

/// Word granularity of producer attribution, in bytes. Matches the
/// instrumentation layer's natural access grain (`TracedBuffer<u64>`).
pub const WORD_BYTES: u64 = 8;

/// Cap on sample addresses kept per offending false-sharing line.
const FS_ADDR_SAMPLES: usize = 4;

/// Most cache lines one access may span. An instrumented access is a load,
/// a store or a short block copy; `size` arrives verbatim from the wire or
/// a spool, so anything longer is a corrupt or hostile record and is cut
/// to this many lines (and counted in
/// [`CoherenceReport::clamped_accesses`]) instead of walking — and
/// allocating directory state for — up to 2^28 lines.
pub const MAX_ACCESS_LINES: u64 = 1024;

/// User-facing cache geometry for the coherence backend — the knobs behind
/// `--line-size`, `--cache-kib`, and `--assoc`. Validated by
/// [`CoherenceConfig::validate`] *before* any [`CacheConfig`] is built, so
/// the CLI can reject bad values with a clear message instead of tripping
/// the constructor's assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Cache line size in bytes (power of two, 16..=512).
    pub line_bytes: u64,
    /// Per-core cache capacity in KiB (power of two, 1..=65536).
    pub cache_kib: u64,
    /// Associativity (power of two, 1..=64).
    pub assoc: usize,
}

impl Default for CoherenceConfig {
    /// Matches [`CacheConfig::small_l1`]: 16 KiB, 4-way, 64-byte lines.
    fn default() -> Self {
        Self {
            line_bytes: 64,
            cache_kib: 16,
            assoc: 4,
        }
    }
}

impl CoherenceConfig {
    /// Check every range and cross constraint; `Err` carries a message
    /// phrased for CLI users ("--line-size must be ...").
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || !(16..=512).contains(&self.line_bytes) {
            return Err(format!(
                "--line-size must be a power of two in 16..=512, got {}",
                self.line_bytes
            ));
        }
        if !self.cache_kib.is_power_of_two() || !(1..=65536).contains(&self.cache_kib) {
            return Err(format!(
                "--cache-kib must be a power of two in 1..=65536, got {}",
                self.cache_kib
            ));
        }
        if !self.assoc.is_power_of_two() || !(1..=64).contains(&self.assoc) {
            return Err(format!(
                "--assoc must be a power of two in 1..=64, got {}",
                self.assoc
            ));
        }
        let way_bytes = self.assoc as u64 * self.line_bytes;
        if self.cache_kib * 1024 < way_bytes {
            return Err(format!(
                "--cache-kib {} KiB cannot hold one set of {} ways x {} B lines \
                 (need at least {} KiB)",
                self.cache_kib,
                self.assoc,
                self.line_bytes,
                way_bytes.div_ceil(1024)
            ));
        }
        Ok(())
    }

    /// The validated geometry as a [`CacheConfig`]. Panics on invalid
    /// values — call [`CoherenceConfig::validate`] first.
    pub fn cache_config(&self) -> CacheConfig {
        self.validate().expect("validated CoherenceConfig");
        CacheConfig {
            sets: (self.cache_kib * 1024 / (self.assoc as u64 * self.line_bytes)) as usize,
            ways: self.assoc,
            line_bytes: self.line_bytes,
        }
    }

    fn words_per_line(&self) -> usize {
        (self.line_bytes / WORD_BYTES) as usize
    }
}

/// Snooped-bus transaction kinds, the columns of the per-thread bus-traffic
/// matrix.
pub const BUS_OPS: [&str; 4] = ["busrd", "busrdx", "busupgr", "writeback"];

#[derive(Clone, Copy)]
enum BusOp {
    Rd = 0,
    RdX = 1,
    Upgr = 2,
    Wb = 3,
}

/// Per-thread bus transaction counts: `threads` rows × [`BUS_OPS`] columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BusCounts {
    threads: usize,
    counts: Vec<u64>,
}

impl BusCounts {
    /// All-zero counts for `threads` rows.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            counts: vec![0; threads * BUS_OPS.len()],
        }
    }

    fn bump(&mut self, tid: usize, op: BusOp) {
        self.counts[tid * BUS_OPS.len() + op as usize] += 1;
    }

    /// Count for `(thread, op-column)`.
    pub fn get(&self, tid: usize, op: usize) -> u64 {
        self.counts[tid * BUS_OPS.len() + op]
    }

    /// True when no transaction was recorded.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// One comma-joined row per thread, matching [`DenseMatrix::to_csv`]'s
    /// shape so the canonical report renders uniformly.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for t in 0..self.threads {
            let row: Vec<String> = (0..BUS_OPS.len())
                .map(|o| self.get(t, o).to_string())
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// One offending cache line in the false-sharing report. Plain data
/// (`Copy`): the address sample is an inline array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsLine {
    /// False-sharing classified coherence events on this line
    /// (invalidations + pending-set flushes).
    pub events: u64,
    /// Remote-written bytes pulled into a copy and never touched.
    pub false_bytes: u64,
    /// First-touch attributed (actually communicated) bytes.
    pub true_bytes: u64,
    /// Bitmask of threads involved in the line's false sharing.
    pub threads: u64,
    /// The first four distinct addresses whose accesses triggered the
    /// events, ascending.
    addrs: [u64; FS_ADDR_SAMPLES],
    n_addrs: u8,
}

impl FsLine {
    /// Up to four sample addresses whose accesses triggered the events,
    /// ascending.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs[..self.n_addrs as usize]
    }

    /// The report row of one line's stats in one scope: the address
    /// sample in ascending order.
    fn from_parts(hot: &FsHot, sample: &FsSample) -> Self {
        let n_addrs = (hot[EVENTS] >> SAMPLED_SHIFT) as u8;
        let mut addrs = *sample;
        addrs[..n_addrs as usize].sort_unstable();
        Self {
            events: hot[EVENTS] & ((1 << SAMPLED_SHIFT) - 1),
            false_bytes: hot[FALSE_BYTES],
            true_bytes: hot[TRUE_BYTES],
            threads: hot[THREADS],
            addrs,
            n_addrs,
        }
    }
}

/// The hot half of one line's false-sharing stats in one scope — what
/// every charge bumps — as four words indexed by [`EVENTS`],
/// [`FALSE_BYTES`], [`TRUE_BYTES`] and [`THREADS`]. The events word
/// also holds the sample length, from bit [`SAMPLED_SHIFT`] up.
type FsHot = [u64; 4];
const EVENTS: usize = 0;
const FALSE_BYTES: usize = 1;
const TRUE_BYTES: usize = 2;
const THREADS: usize = 3;
/// Where the sample length starts in the events word: no run counts
/// 2^61 events on one line.
const SAMPLED_SHIFT: u32 = 61;

/// The cold half: the first four distinct trigger addresses, in arrival
/// order. Written only until it holds four, so a line charged often
/// stops reading it.
type FsSample = [u64; FS_ADDR_SAMPLES];

/// Both halves of one line's stats in one scope, copied.
type FsStats = (FsHot, FsSample);

/// Whether anything was charged to a line: every charge adds an event or
/// true bytes, so all-zero stats are an untracked line.
fn is_charged(hot: &FsHot) -> bool {
    hot[EVENTS] != 0 || hot[TRUE_BYTES] != 0
}

/// One line's false-sharing stats in one scope, both halves.
struct FsEntry<'a> {
    hot: &'a mut FsHot,
    sample: &'a mut FsSample,
}

impl FsEntry<'_> {
    /// One false-sharing event: an invalidation (`false_bytes` 0) or a
    /// pending-set flush, involving `threads` and triggered by an access
    /// to `addr`.
    #[inline]
    fn event(&mut self, threads: u64, false_bytes: u64, addr: u64) {
        self.hot[EVENTS] += 1;
        self.hot[FALSE_BYTES] += false_bytes;
        self.hot[THREADS] |= threads;
        let n = (self.hot[EVENTS] >> SAMPLED_SHIFT) as usize;
        if n < FS_ADDR_SAMPLES && !self.sample[..n].contains(&addr) {
            self.sample[n] = addr;
            self.hot[EVENTS] += 1 << SAMPLED_SHIFT;
        }
    }
}

/// Line-ascending per-line rows of one scope.
type FsRows = Vec<(u64, FsLine)>;

/// Coherence traffic attributed to one loop (or to the whole program).
#[derive(Clone, Debug)]
pub struct LoopCoh {
    /// `[writer][victim]` invalidation counts.
    pub invalidations: DenseMatrix,
    /// `[producer][consumer]` first-touch transfer bytes (word granular).
    pub transfers: DenseMatrix,
    /// Per-thread bus transactions.
    pub bus: BusCounts,
    /// Invalidations classified as false sharing.
    pub fs_invalidations: u64,
    /// Bytes pulled by fills and never touched before the copy died.
    pub false_bytes: u64,
    /// Offending lines as line-ascending runs over disjoint lines, one
    /// from each cache-set shard that has rows in this scope; never an
    /// empty run. [`Self::lines`] merges them as it is read.
    runs: Vec<FsRows>,
}

impl LoopCoh {
    fn new(threads: usize) -> Self {
        Self {
            invalidations: DenseMatrix::zero(threads),
            transfers: DenseMatrix::zero(threads),
            bus: BusCounts::new(threads),
            fs_invalidations: 0,
            false_bytes: 0,
            runs: Vec::new(),
        }
    }

    /// Offending lines as `(line number, stats)`, ascending by line: the
    /// k-way merge of the shards' runs, taken as it is read.
    pub fn lines(&self) -> impl Iterator<Item = &(u64, FsLine)> + '_ {
        let heads = (self.runs.iter().enumerate())
            .map(|(i, run)| Reverse((run[0].0, i)))
            .collect();
        Lines {
            runs: self.runs.iter().map(Vec::as_slice).collect(),
            heads,
        }
    }

    /// First-touch attributed bytes — the "true sharing" side of the split.
    pub fn true_bytes(&self) -> u64 {
        self.transfers.total()
    }

    /// `false_bytes / (false_bytes + true_bytes)`, 0 when idle.
    pub fn false_sharing_ratio(&self) -> f64 {
        let t = self.true_bytes() + self.false_bytes;
        if t == 0 {
            0.0
        } else {
            self.false_bytes as f64 / t as f64
        }
    }

    /// True when the loop saw no coherence traffic at all.
    pub fn is_zero(&self) -> bool {
        self.invalidations.is_zero()
            && self.transfers.is_zero()
            && self.bus.is_zero()
            && self.fs_invalidations == 0
            && self.false_bytes == 0
            && self.runs.is_empty()
    }

    /// Add `other`'s matrices and counters, not its lines: how
    /// [`CoherenceBackend::report`] sums the per-loop traffic into the
    /// whole-program one.
    fn add_counts(&mut self, other: &LoopCoh) {
        self.invalidations.accumulate(&other.invalidations);
        self.transfers.accumulate(&other.transfers);
        for (a, b) in self.bus.counts.iter_mut().zip(&other.bus.counts) {
            *a += b;
        }
        self.fs_invalidations += other.fs_invalidations;
        self.false_bytes += other.false_bytes;
    }

    /// Fold in the same scope of another cache-set shard: its counters
    /// added, its run of lines kept beside this one's.
    fn absorb(&mut self, other: LoopCoh) {
        self.add_counts(&other);
        self.runs.extend(other.runs);
    }

    /// The scope's line-ascending rows of one shard, as its one run.
    fn with_rows(mut self, rows: FsRows) -> Self {
        if !rows.is_empty() {
            self.runs = vec![rows];
        }
        self
    }
}

/// The k-way merge behind [`LoopCoh::lines`]: what is left of each run,
/// and a min-heap of each non-empty run's next line.
struct Lines<'a> {
    runs: Vec<&'a [(u64, FsLine)]>,
    heads: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a (u64, FsLine);

    fn next(&mut self) -> Option<Self::Item> {
        let mut top = self.heads.peek_mut()?;
        let Reverse((_, i)) = *top;
        let (row, rest) = self.runs[i].split_first().expect("a head has a row");
        self.runs[i] = rest;
        match rest.first() {
            // The head moves on in place, and sifts down when `top` drops.
            Some(&(line, _)) => *top = Reverse((line, i)),
            None => {
                PeekMut::pop(top);
            }
        }
        Some(row)
    }
}

/// The backend's full output: global and per-loop coherence traffic plus
/// stream-level counters.
#[derive(Clone, Debug)]
pub struct CoherenceReport {
    /// Matrix dimension.
    pub threads: usize,
    /// Geometry the simulation ran under.
    pub config: CoherenceConfig,
    /// Instrumented accesses observed.
    pub accesses: u64,
    /// Accesses cut short because they wrapped the address space or
    /// spanned more than [`MAX_ACCESS_LINES`] lines.
    pub clamped_accesses: u64,
    /// Line-accesses that hit a valid private copy.
    pub hits: u64,
    /// Line fills (read or write-allocate misses).
    pub fills: u64,
    /// Fills served from memory (no other valid copy).
    pub mem_fills: u64,
    /// Fills served cache-to-cache.
    pub c2c_fills: u64,
    /// Copies invalidated by remote writes.
    pub invalidations: u64,
    /// Dirty lines written back (eviction or downgrade flush).
    pub writebacks: u64,
    /// Whole-program traffic.
    pub global: LoopCoh,
    /// Per-loop traffic, innermost attribution, keyed by loop UID
    /// (`LoopId::NONE` collects accesses outside any loop).
    pub loops: BTreeMap<u32, LoopCoh>,
    /// Set when the stream touched more distinct loops than the loop cap
    /// ([`CoherenceBackend::with_loop_capacity`]): the loops past the cap
    /// are missing from `loops`, while `global` and the counters stay
    /// exact.
    pub loop_overflow: Option<RegistryFull>,
    /// Loop UIDs the simulation interned, ascending, and the cap they
    /// count against — what [`Self::merge`] decides `loop_overflow` from.
    interned: Vec<u32>,
    loop_cap: usize,
}

impl CoherenceReport {
    /// Fold in the report of another cache-set shard of the same stream
    /// ([`CoherenceBackend::shard`]); [`Self::merge_all`] of one report.
    pub fn merge(&mut self, other: CoherenceReport) {
        self.merge_all(vec![other]);
    }

    /// Fold in the reports of the other cache-set shards of the same
    /// stream: counters summed, and each scope's offending lines kept as
    /// the shards' line-ascending runs, which [`LoopCoh::lines`] merges
    /// as it is read. Exact: every statistic is either a sum over
    /// line-accesses or kept per line, and shards own disjoint lines
    /// (DESIGN.md §16.4).
    pub fn merge_all(&mut self, others: Vec<CoherenceReport>) {
        for other in others {
            assert!(
                self.threads == other.threads
                    && self.config == other.config
                    && self.loop_cap == other.loop_cap,
                "merged coherence reports must share threads, geometry and loop cap"
            );
            self.accesses += other.accesses;
            self.clamped_accesses += other.clamped_accesses;
            self.hits += other.hits;
            self.fills += other.fills;
            self.mem_fills += other.mem_fills;
            self.c2c_fills += other.c2c_fills;
            self.invalidations += other.invalidations;
            self.writebacks += other.writebacks;
            self.global.absorb(other.global);
            for (id, lc) in other.loops {
                match self.loops.entry(id) {
                    Entry::Occupied(mut mine) => mine.get_mut().absorb(lc),
                    Entry::Vacant(slot) => {
                        slot.insert(lc);
                    }
                }
            }
            self.interned.extend(other.interned);
            self.loop_overflow = self.loop_overflow.or(other.loop_overflow);
        }
        // Each shard counts the loops it saw against the cap; the stream
        // overflowed when their union is over it, whatever the split.
        self.interned.sort_unstable();
        self.interned.dedup();
        let over = (self.interned.len() > self.loop_cap).then_some(RegistryFull {
            capacity: self.loop_cap,
        });
        self.loop_overflow = self.loop_overflow.or(over);
    }

    /// Total false-sharing classified events (invalidations + flushes),
    /// each already counted once on its line.
    pub fn false_sharing_events(&self) -> u64 {
        self.global
            .runs
            .iter()
            .flatten()
            .map(|(_, l)| l.events)
            .sum()
    }

    /// The scrape counters of this report ([`CoherenceBackend::totals`]
    /// taken at the same moment).
    pub fn totals(&self) -> CoherenceTotals {
        CoherenceTotals {
            accesses: self.accesses,
            invalidations: self.invalidations,
            c2c_fills: self.c2c_fills,
            writebacks: self.writebacks,
            true_bytes: self.global.true_bytes(),
            false_bytes: self.global.false_bytes,
            false_sharing_events: self.false_sharing_events(),
        }
    }

    /// The scale-free coherence features the §VI classifier consumes:
    /// `(invalidations/access, false-sharing ratio, transfer locality)`.
    /// Transfer locality is the fraction of transfer volume between
    /// adjacent thread ids — near 1 for neighbor pipelines, near `2/t` for
    /// uniform all-to-all traffic.
    pub fn features(&self) -> (f64, f64, f64) {
        let inval_per_access = if self.accesses == 0 {
            0.0
        } else {
            self.invalidations as f64 / self.accesses as f64
        };
        let fs_ratio = self.global.false_sharing_ratio();
        let m = &self.global.transfers;
        let total = m.total();
        let locality = if total == 0 {
            0.0
        } else {
            let mut near = 0u64;
            for i in 0..self.threads {
                for j in 0..self.threads {
                    if i.abs_diff(j) == 1 {
                        near += m.get(i, j);
                    }
                }
            }
            near as f64 / total as f64
        };
        (inval_per_access, fs_ratio, locality)
    }
}

/// Multiply-shift hasher (and its own `BuildHasher`) for the `u64` keys of
/// the hot-path maps: one multiply instead of SipHash's rounds. The odd
/// multiplier is drawn per map from [`RandomState`], so keys arriving over
/// the wire cannot be crafted to collide, and since hash order never
/// reaches a report — [`CoherenceBackend::report`] sorts — it is invisible.
#[derive(Clone, Copy)]
struct MulHash {
    k: u64,
    h: u64,
}

impl Default for MulHash {
    fn default() -> Self {
        let k = RandomState::new().hash_one(0u64) | 1;
        Self { k, h: 0 }
    }
}

impl BuildHasher for MulHash {
    type Hasher = Self;
    fn build_hasher(&self) -> Self {
        *self
    }
}

impl Hasher for MulHash {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.h = (self.h.rotate_left(5) ^ x).wrapping_mul(self.k);
    }
    /// The product's well-mixed bits are the high ones; the table indexes
    /// with the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.h.rotate_left(26)
    }
}

/// Thread id standing for "none" in a directory row's owner word and
/// last-writer bytes; thread ids are below [`MAX_COHERENCE_THREADS`].
const NO_TID: u8 = 0xFF;

/// Word offsets in a directory row: the sharer mask, the Modified owner
/// (`NO_TID` when none), the line's program-wide [`FsHot`], then the
/// per-word state from [`TOUCHED`].
const SHARERS: usize = 0;
const OWNER: usize = 1;
const FS: usize = 2;
/// A row's per-word state: `words` toucher masks (the threads that
/// accessed the word since its last write), then the words' last
/// writers, one byte each (`NO_TID` when unwritten), eight to a `u64`.
const TOUCHED: usize = FS + 4;

/// Rows are a whole number of these, and start on one: a host cache line.
const ROW_ALIGN_BYTES: usize = 64;
const ROW_ALIGN_WORDS: usize = ROW_ALIGN_BYTES / 8;

/// Last writer of word `w`, from a row's writer bytes.
#[inline]
fn writer(writers: &[u64], w: usize) -> u8 {
    (writers[w / 8] >> (w % 8 * 8)) as u8
}

/// The word mask of the written words, from a row's writer bytes: a bit
/// for each byte that is not `NO_TID`, eight bytes to a word at a time.
#[inline]
fn written(writers: &[u64]) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let mut mask = 0u64;
    for (k, &bytes) in writers.iter().enumerate() {
        // Each written byte of `!bytes` is non-zero: set its top bit, then
        // gather the eight top bits into eight adjacent ones.
        let x = !bytes;
        let tops = (x | ((x & LOW7) + LOW7)) & !LOW7;
        mask |= ((tops >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    mask
}

/// The word mask of words `w0..=w1`.
#[inline]
fn span_mask(w0: usize, w1: usize) -> u64 {
    (u64::MAX >> (63 - w1)) & (u64::MAX << w0)
}

/// Prefetch the host cache line holding `r`.
#[inline]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: in-bounds shared reference cast; prefetch has no memory
    // effects beyond the cache.
    unsafe {
        std::arch::x86_64::_mm_prefetch(
            std::ptr::from_ref(r) as *const i8,
            std::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Idealized full-map directory: one row per line, by a dense index
/// assigned on first touch, holding all a line-access reads of the line —
/// its sharers, its Modified owner, each word's toucher mask and last
/// writer, and its program-wide false-sharing counters (see [`SHARERS`]
/// and the offsets after it). A row is a whole number of 64 B host cache
/// lines and starts on one: two at 64 B lines. Word writer/toucher state
/// never resets on eviction — it mirrors the RAW detector's signature
/// memory, which also survives capacity pressure.
struct Directory {
    /// Line number → dense index; probed once per line-access.
    index: HashMap<u64, u32, MulHash>,
    /// Dense index → line number (for report-time ordering).
    lines: Vec<u64>,
    /// 8-byte words per line.
    words: usize,
    /// `u64`s per row.
    stride: usize,
    /// The rows, from `rows[base]` on, which is 64 B aligned.
    rows: Vec<u64>,
    base: usize,
    /// The cold half of each line's program-wide stats, by dense index.
    samples: Vec<FsSample>,
}

impl Directory {
    fn new(words: usize) -> Self {
        let used = TOUCHED + words + words.div_ceil(8);
        Self {
            index: HashMap::default(),
            lines: Vec::new(),
            words,
            stride: used.next_multiple_of(ROW_ALIGN_WORDS),
            rows: Vec::new(),
            base: 0,
            samples: Vec::new(),
        }
    }

    fn index_of(&mut self, line: u64) -> usize {
        if let Some(&d) = self.index.get(&line) {
            return d as usize;
        }
        let d = u32::try_from(self.lines.len()).expect("fewer than 2^32 distinct lines");
        self.index.insert(line, d);
        self.lines.push(line);
        self.samples.push(FsSample::default());
        self.push_row();
        d as usize
    }

    /// Append an empty row. A `Vec<u64>` is only 8 B aligned, so when it
    /// must grow the rows move to a new one twice the size, from its first
    /// 64 B aligned word on.
    fn push_row(&mut self) {
        if self.rows.len() + self.stride > self.rows.capacity() {
            let mut grown =
                Vec::with_capacity(2 * self.rows.capacity() + ROW_ALIGN_WORDS + self.stride);
            let base = (grown.as_ptr() as usize).wrapping_neg() % ROW_ALIGN_BYTES / 8;
            grown.resize(base, 0);
            grown.extend_from_slice(&self.rows[self.base..]);
            (self.rows, self.base) = (grown, base);
        }
        let start = self.rows.len();
        self.rows.resize(start + self.stride, 0);
        let row = &mut self.rows[start..];
        row[OWNER] = NO_TID as u64;
        row[TOUCHED + self.words..][..self.words.div_ceil(8)].fill(u64::MAX);
    }

    #[inline]
    fn row(&self, d: usize) -> &[u64] {
        &self.rows[self.base + d * self.stride..][..self.stride]
    }

    #[inline]
    fn row_mut(&mut self, d: usize) -> &mut [u64] {
        &mut self.rows[self.base + d * self.stride..][..self.stride]
    }

    /// Prefetch every host cache line of row `d`.
    #[inline]
    fn prefetch_row(&self, d: usize) {
        let row = self.base + d * self.stride;
        for head in (row..row + self.stride).step_by(ROW_ALIGN_WORDS) {
            prefetch(&self.rows[head]);
        }
    }

    /// The program-wide false-sharing stats of line `d`.
    #[inline]
    fn fs_entry(&mut self, d: usize) -> FsEntry<'_> {
        let at = self.base + d * self.stride + FS;
        FsEntry {
            hot: (&mut self.rows[at..at + 4]).try_into().expect("four words"),
            sample: &mut self.samples[d],
        }
    }

    /// A copy of what [`Self::fs_entry`] refers to.
    fn fs(&self, d: usize) -> FsStats {
        let hot = self.row(d)[FS..TOUCHED].try_into().expect("four words");
        (hot, self.samples[d])
    }

    /// Words of line `d` a fill for thread `c` pulls in for nothing unless
    /// it uses them: the written ones `c` has not accessed since their
    /// last write — which leaves out `c`'s own writes, since a write sets
    /// its word's toucher mask to the writer — outside `span`.
    /// Line `d`'s per-word state: its toucher masks and its writer bytes.
    #[inline]
    fn words_of(&self, d: usize) -> (&[u64], &[u64]) {
        let words = self.words;
        self.row(d)[TOUCHED..][..words + words.div_ceil(8)].split_at(words)
    }

    #[inline]
    fn words_of_mut(&mut self, d: usize) -> (&mut [u64], &mut [u64]) {
        let words = self.words;
        self.row_mut(d)[TOUCHED..][..words + words.div_ceil(8)].split_at_mut(words)
    }

    #[inline]
    fn pending_mask(&self, d: usize, c: usize, span: u64) -> u64 {
        let (touched, writers) = self.words_of(d);
        let mut untouched = 0u64;
        for (w, &t) in touched.iter().enumerate() {
            untouched |= (!t >> c & 1) << w;
        }
        untouched & written(writers) & !span
    }

    /// Last writers of the `mask` words of line `d`.
    #[inline]
    fn writers_of(&self, d: usize, mask: u64) -> u64 {
        let mut out = 0u64;
        for (k, &bytes) in self.words_of(d).1.iter().enumerate() {
            for j in 0..8 {
                let wr = (bytes >> (8 * j)) as u8;
                out |= (mask >> (8 * k + j) & (wr != NO_TID) as u64) << (wr & 63);
            }
        }
        out
    }
}

/// Side state of one cache slot, in an array parallel to the slots of all
/// caches: the resident line's directory index plus its *pending set* —
/// remote-written words the fill pulled in without the triggering access
/// asking for them, flushed to `false_bytes` when the copy dies untouched.
/// A pending set exists only while its copy is resident, so every event
/// that ends it (invalidation, eviction, the words being used) already
/// holds the slot.
#[derive(Clone, Copy, Default)]
struct SlotMeta {
    dir: u32,
    /// Interned loop of the fill that pulled the words.
    fill_loop: u32,
    /// Pending words; 0 = no pending set.
    mask: u64,
    trigger_addr: u64,
}

/// A [`SlotMeta`] as stored: `[dir | fill_loop << 32, mask,
/// trigger_addr]`. No pending set is all-zero bytes, so the array is
/// allocated zeroed and the slots a run never fills never become
/// resident.
type MetaWords = [u64; 3];
const META_MASK: usize = 1;

impl SlotMeta {
    fn load(w: MetaWords) -> Self {
        Self {
            dir: w[0] as u32,
            fill_loop: (w[0] >> 32) as u32,
            mask: w[META_MASK],
            trigger_addr: w[2],
        }
    }

    fn store(self) -> MetaWords {
        [
            self.dir as u64 | (self.fill_loop as u64) << 32,
            self.mask,
            self.trigger_addr,
        ]
    }

    fn pending_bytes(&self) -> u64 {
        self.mask.count_ones() as u64 * WORD_BYTES
    }
}

/// Lines per page of a loop's [`FsPages`].
const FS_PAGE: usize = 64;

/// One line's stats in one loop: the hot half and its sample in one 64 B
/// host cache line, so the prefetched line serves a charge whether or not
/// the sample is still filling.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct FsCell {
    hot: FsHot,
    sample: FsSample,
}

impl FsCell {
    fn stats(&self) -> FsStats {
        (self.hot, self.sample)
    }
}

/// One loop's per-line false-sharing stats, by directory index: fixed
/// pages of [`FS_PAGE`] lines, each allocated when one of its lines is
/// first charged in the loop.
#[derive(Default)]
struct FsPages(Vec<Option<Box<[FsCell; FS_PAGE]>>>);

impl FsPages {
    #[inline]
    fn at(&mut self, d: usize) -> FsEntry<'_> {
        let p = d / FS_PAGE;
        if p >= self.0.len() {
            self.0.resize_with(p + 1, || None);
        }
        let page = self.0[p].get_or_insert_with(|| Box::new([FsCell::default(); FS_PAGE]));
        let cell = &mut page[d % FS_PAGE];
        FsEntry {
            hot: &mut cell.hot,
            sample: &mut cell.sample,
        }
    }

    /// Line `d`'s cell, if its page exists.
    #[inline]
    fn get(&self, d: usize) -> Option<&FsCell> {
        Some(&self.0.get(d / FS_PAGE)?.as_ref()?[d % FS_PAGE])
    }

    /// The allocated pages, ascending.
    fn pages(&self) -> impl Iterator<Item = usize> + '_ {
        (self.0.iter().enumerate()).filter_map(|(p, page)| page.as_ref().map(|_| p))
    }
}

/// What `report()` charges live pending sets on a copy of: per-loop
/// matrices (the global ones are their sum, taken at report time), with
/// each interned loop's per-line stats beside them.
#[derive(Default)]
struct Accum {
    /// Indexed by interned loop; `LoopCoh::lines` stays empty here.
    loops: Vec<LoopCoh>,
    /// Indexed by interned loop, parallel to `loops`.
    fs: Vec<FsPages>,
}

/// One line-granular slice of an access: the context every protocol step
/// needs (requesting thread, line key and directory index, interned loop,
/// trigger address, covered words).
#[derive(Clone, Copy)]
struct Req {
    c: usize,
    /// The line's key in this shard's caches (`line >> shift`).
    line: u64,
    d: usize,
    lx: usize,
    addr: u64,
    w0: usize,
    w1: usize,
}

/// The counters a metrics scrape needs, from [`CoherenceBackend::totals`]
/// — each equals the same-named quantity of a full [`CoherenceReport`]
/// taken at the same moment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceTotals {
    /// Instrumented accesses observed.
    pub accesses: u64,
    /// Copies invalidated by remote writes.
    pub invalidations: u64,
    /// Fills served cache-to-cache.
    pub c2c_fills: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// First-touch attributed bytes.
    pub true_bytes: u64,
    /// Pulled-but-untouched bytes, live pending sets included.
    pub false_bytes: u64,
    /// [`CoherenceReport::false_sharing_events`].
    pub false_sharing_events: u64,
}

/// Events [`CoherenceBackend::on_block`] resolves before simulating them.
const TILE: usize = lc_trace::tile::TILE_EVENTS;

/// How many events ahead of the simulated one [`CoherenceBackend::on_block`]
/// prefetches the state a line-access reads — as far as the fused RAW
/// detector looks ahead.
const PREFETCH_AHEAD: usize = 8;

/// An event's hashed lookups, done ahead of its simulation: the interned
/// loop, and the directory index of its first line. `NOT_RESOLVED` in
/// `lx` means the event has nothing in this backend; in `d`, that its
/// first line is another shard's.
#[derive(Clone, Copy)]
struct Resolved {
    lx: u32,
    d: u32,
}

const NOT_RESOLVED: u32 = u32::MAX;

impl Default for Resolved {
    fn default() -> Self {
        Self {
            lx: NOT_RESOLVED,
            d: NOT_RESOLVED,
        }
    }
}

/// Per-core MESI simulation over the instrumentation event stream. Not
/// thread-safe by itself — wrap in [`SharedCoherence`] for sink use.
///
/// One line-access touches only index-addressed state: a single probe of
/// the requester's cache set, one hashed lookup of the line's directory
/// index, the line's directory row, and arrays indexed by slot or
/// interned loop — a line's false-sharing stats included (DESIGN.md
/// §16.1). Allocation happens only when a line or a loop is seen for the
/// first time, or a loop is first charged on a page of lines.
///
/// At most the loop cap ([`Self::with_loop_capacity`]) of distinct loops
/// is interned; the accesses of any further loop count program-wide but
/// in no loop, and [`Self::loop_overflow`] latches.
///
/// A backend may be one cache-set shard of `n` ([`Self::shard`]): it then
/// simulates only the lines whose set index is `k` modulo `n`, holds only
/// those sets, and [`CoherenceReport::merge`] of the `n` shards' reports
/// equals the unsharded report (DESIGN.md §16.4).
pub struct CoherenceBackend {
    cfg: CoherenceConfig,
    threads: usize,
    /// This shard's index `k` and `log2` of the shard count `n`; a line
    /// belongs here when `line % n == k`, and its cache key is
    /// `line >> shift`.
    shard: u64,
    shift: u32,
    caches: Vec<Cache>,
    /// `[tid × slots + slot]`, parallel to the caches' slots.
    meta: Vec<MetaWords>,
    dir: Directory,
    loop_index: HashMap<u64, u32, MulHash>,
    /// Interned loop → loop UID.
    loop_ids: Vec<u32>,
    /// Most loops interned; past it, accesses go to `spill`.
    loop_cap: usize,
    /// The interned slot that takes the accesses of loops past the cap:
    /// summed into the whole-program traffic, reported as no loop.
    spill: Option<usize>,
    /// Accesses whose loop was past the cap.
    dropped: u64,
    acc: Accum,
    /// Running totals; [`Self::totals`] adds the live pending sets.
    run: CoherenceTotals,
    clamped: u64,
    hits: u64,
    fills: u64,
    mem_fills: u64,
}

impl CoherenceBackend {
    /// New backend for `threads` cores under `cfg` (validated here).
    pub fn new(cfg: CoherenceConfig, threads: usize) -> Self {
        Self::shard(cfg, threads, 0, 1)
    }

    /// Shard `k` of `n` of the backend for `threads` cores under `cfg`:
    /// it simulates exactly the line-accesses whose cache set is `k`
    /// modulo `n` and allocates only those sets. Feed it the whole stream
    /// or any part of it holding every access to its lines, in order; an
    /// access is counted in `accesses` (and `clamped_accesses`) by the
    /// shard that owns its first line. `n` must be a power of two no
    /// larger than the geometry's set count.
    pub fn shard(cfg: CoherenceConfig, threads: usize, k: usize, n: usize) -> Self {
        assert!(
            (1..=MAX_COHERENCE_THREADS).contains(&threads),
            "coherence backend supports 1..={MAX_COHERENCE_THREADS} threads, got {threads}"
        );
        let mut ccfg = cfg.cache_config();
        assert!(
            n.is_power_of_two() && n <= ccfg.sets && k < n,
            "shard {k} of {n}: the count must be a power of two up to the {} sets",
            ccfg.sets
        );
        ccfg.sets /= n;
        Self {
            cfg,
            threads,
            shard: k as u64,
            shift: n.trailing_zeros(),
            caches: (0..threads).map(|_| Cache::new(ccfg)).collect(),
            meta: vec![[0; 3]; threads * ccfg.sets * ccfg.ways],
            dir: Directory::new(cfg.words_per_line()),
            loop_index: HashMap::default(),
            loop_ids: Vec::new(),
            loop_cap: AccumConfig::default().loop_capacity,
            spill: None,
            dropped: 0,
            acc: Accum::default(),
            run: CoherenceTotals::default(),
            clamped: 0,
            hits: 0,
            fills: 0,
            mem_fills: 0,
        }
    }

    /// The same backend interning at most `cap` distinct loops, rounded up
    /// to a power of two as the RAW analyzer's loop registry is (default:
    /// [`AccumConfig::default`]'s `loop_capacity`). Each shard counts the
    /// loops it sees; [`CoherenceReport::merge`] counts their union.
    pub fn with_loop_capacity(mut self, cap: usize) -> Self {
        self.loop_cap = cap.max(1).next_power_of_two();
        self
    }

    /// The loop cap, latched once a loop past it was seen.
    pub fn loop_overflow(&self) -> Option<RegistryFull> {
        self.spill.map(|_| RegistryFull {
            capacity: self.loop_cap,
        })
    }

    /// Accesses attributed to no loop because the loop cap was reached.
    pub fn dropped_accesses(&self) -> u64 {
        self.dropped
    }

    /// Matrix dimension.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether `line` belongs to this shard.
    #[inline]
    fn owns(&self, line: u64) -> bool {
        line & ((1 << self.shift) - 1) == self.shard
    }

    /// MESI state of `line` in every thread's cache — the property-test
    /// inspection hook (all `None` for a line another shard owns).
    pub fn line_states(&self, line: u64) -> Vec<Option<Mesi>> {
        let owned = self.owns(line);
        (self.caches.iter())
            .map(|c| c.state(line >> self.shift).filter(|_| owned))
            .collect()
    }

    /// Observe one access in stream order.
    pub fn on_access(&mut self, ev: &AccessEvent) {
        let at = self.resolve(ev);
        self.simulate(ev, at);
    }

    /// Observe a block of accesses — semantically one [`Self::on_access`]
    /// per event, so reports are identical for any block split. Generic
    /// over [`AsAccess`] to consume stamped serve frames without copying.
    ///
    /// A 256-event tile at a time, every event's hashed lookups are done
    /// first, in stream order; then the tile is simulated, while the state
    /// that the event eight places on will read is prefetched.
    pub fn on_block<E: AsAccess>(&mut self, evs: &[E]) {
        let mut resolved = [Resolved::default(); TILE];
        for tile in evs.chunks(TILE) {
            let at = &mut resolved[..tile.len()];
            for (r, e) in at.iter_mut().zip(tile) {
                *r = self.resolve(e.access());
            }
            for (k, e) in tile.iter().enumerate() {
                if let Some(&ahead) = at.get(k + PREFETCH_AHEAD) {
                    self.prefetch(ahead);
                }
                self.simulate(e.access(), at[k]);
            }
        }
    }

    /// The hashed lookups of `ev`: its interned loop when one of its lines
    /// is this shard's, and its first line's directory index when that
    /// one is. Loops are interned in stream order however the work is
    /// split, so the loop cap drops the same loops.
    #[inline]
    fn resolve(&mut self, ev: &AccessEvent) -> Resolved {
        let (first, last, _) = line_span(ev, self.cfg.line_bytes.trailing_zeros());
        if ev.tid as usize >= self.threads || !(first..=last).any(|line| self.owns(line)) {
            return Resolved::default();
        }
        Resolved {
            lx: self.loop_ix(ev.loop_id) as u32,
            d: if self.owns(first) {
                self.dir.index_of(first) as u32
            } else {
                NOT_RESOLVED
            },
        }
    }

    /// Simulate `ev`, [resolved](Self::resolve) to `at`.
    fn simulate(&mut self, ev: &AccessEvent, at: Resolved) {
        if at.lx == NOT_RESOLVED {
            return;
        }
        let lb = self.cfg.line_bytes;
        let line_shift = lb.trailing_zeros();
        let (first, last, clamped) = line_span(ev, line_shift);
        if at.d != NOT_RESOLVED {
            self.run.accesses += 1;
            self.clamped += clamped as u64;
        }
        let end = ev.addr.saturating_add(ev.size.max(1) as u64 - 1);
        for line in first..=last {
            if !self.owns(line) {
                continue;
            }
            let base = line << line_shift;
            let lo = ev.addr.max(base) - base;
            let hi = end.min(base + (lb - 1)) - base;
            let rq = Req {
                c: ev.tid as usize,
                line: line >> self.shift,
                d: if line == first {
                    at.d as usize
                } else {
                    self.dir.index_of(line)
                },
                lx: at.lx as usize,
                addr: ev.addr,
                w0: (lo / WORD_BYTES) as usize,
                w1: (hi / WORD_BYTES) as usize,
            };
            self.line_access(ev.kind, rq);
        }
        if Some(at.lx as usize) == self.spill {
            self.dropped += 1;
        }
    }

    /// Prefetch what a line-access [resolved](Self::resolve) to `at` reads
    /// beyond its cache set: the line's directory row and its loop's stats
    /// cell.
    #[inline]
    fn prefetch(&self, at: Resolved) {
        if at.d == NOT_RESOLVED {
            return;
        }
        let d = at.d as usize;
        self.dir.prefetch_row(d);
        if let Some(cell) = self.acc.fs[at.lx as usize].get(d) {
            prefetch(cell);
        }
    }

    /// Consume one [`BlockSource`] tile (the `on_block_fused`-shaped entry).
    pub fn on_event_block(&mut self, block: &EventBlock<'_>) {
        match block {
            EventBlock::Plain(evs) => self.on_block(evs),
            EventBlock::Stamped(evs) => self.on_block(evs),
        }
    }

    /// Stream an entire source through the backend with zero extra
    /// materialization; returns the number of events consumed.
    pub fn consume_source(&mut self, src: &mut dyn BlockSource) -> std::io::Result<u64> {
        src.stream_blocks(0, &mut |b| self.on_event_block(&b))
    }

    /// Live pending sets of `tid` as `(line, slot metadata)`, in slot order.
    fn live_pending(&self, tid: usize) -> impl Iterator<Item = (u64, SlotMeta)> + '_ {
        (0..self.caches[tid].slots()).filter_map(move |slot| {
            let m = self.meta(tid, slot);
            let (line, _) = self.caches[tid].at(slot)?;
            (m.mask != 0).then_some((line, m))
        })
    }

    /// The scrape counters in O(threads × cache slots): running totals
    /// plus the live pending sets a [`Self::report`] would charge.
    pub fn totals(&self) -> CoherenceTotals {
        let mut t = self.run;
        for tid in 0..self.threads {
            for (_, m) in self.live_pending(tid) {
                t.false_bytes += m.pending_bytes();
                t.false_sharing_events += 1;
            }
        }
        t
    }

    /// Flush still-resident pending sets and produce the report. The
    /// backend stays usable (serve snapshots call this repeatedly); the
    /// flush happens on a copy of the accumulators, so pulled-but-unused
    /// bytes of *live* copies are charged in every snapshot but never
    /// double-charged in the backend itself.
    ///
    /// This is also where order is produced: live pending sets are charged
    /// in ascending `(tid, line)` order (the four-address sample depends on
    /// it) on copies of just the entries they land on, and the shard's
    /// lines are sorted once; every scope's rows are then built in that
    /// order, a charged copy taking the place of the stats it was made of.
    pub fn report(&self) -> CoherenceReport {
        let mut loops = self.acc.loops.clone();
        // Copies of the per-line stats a live pending set lands on, keyed
        // `(line, scope)`: scope 0 is the whole program, `lx + 1` loop `lx`.
        let mut overlay: BTreeMap<(u64, usize), FsStats> = BTreeMap::new();
        for tid in 0..self.threads {
            let mut live: Vec<_> = self.live_pending(tid).collect();
            live.sort_unstable_by_key(|&(line, _)| line);
            for (_, m) in live {
                let (d, lx) = (m.dir as usize, m.fill_loop as usize);
                loops[lx].false_bytes += m.pending_bytes();
                let threads = (1 << tid) | self.dir.writers_of(d, m.mask);
                for (scope, base) in [
                    (0, Some(self.dir.fs(d))),
                    (lx + 1, self.acc.fs[lx].get(d).map(FsCell::stats)),
                ] {
                    let (hot, sample) = (overlay.entry((self.dir.lines[d], scope)))
                        .or_insert_with(|| base.unwrap_or_default());
                    FsEntry { hot, sample }.event(threads, m.pending_bytes(), m.trigger_addr);
                }
            }
        }
        let mut order: Vec<(u64, u32)> = (self.dir.lines.iter().copied()).zip(0..).collect();
        order.sort_unstable();
        // Per page of directory indices, the loops with stats on it.
        let mut paged = vec![Vec::new(); self.dir.lines.len().div_ceil(FS_PAGE)];
        for (lx, fs) in self.acc.fs.iter().enumerate() {
            fs.pages().for_each(|p| paged[p].push(lx));
        }
        let mut rows = vec![FsRows::new(); loops.len() + 1];
        let mut overlay = overlay.into_iter().peekable();
        for (line, d) in order {
            let d = d as usize;
            let mut row = |scope: usize, (hot, sample): FsStats| {
                if is_charged(&hot) {
                    rows[scope].push((line, FsLine::from_parts(&hot, &sample)));
                }
            };
            // This line's charged copies, by ascending scope.
            let mut patch =
                std::iter::from_fn(|| overlay.next_if(|((l, _), _)| *l == line)).peekable();
            let cells = (paged[d / FS_PAGE].iter()).map(|&lx| {
                (
                    lx + 1,
                    self.acc.fs[lx]
                        .get(d)
                        .map_or_else(Default::default, FsCell::stats),
                )
            });
            for (scope, stats) in std::iter::once((0, self.dir.fs(d))).chain(cells) {
                // A copy of a loop's stats that were never charged here.
                while let Some(((_, s), copy)) = patch.next_if(|((_, s), _)| *s < scope) {
                    row(s, copy);
                }
                match patch.next_if(|((_, s), _)| *s == scope) {
                    Some((_, copy)) => row(scope, copy),
                    None => row(scope, stats),
                }
            }
            patch.for_each(|((_, s), copy)| row(s, copy));
        }
        let mut rows = rows.into_iter();
        let mut global = LoopCoh::new(self.threads).with_rows(rows.next().unwrap_or_default());
        let loops: Vec<LoopCoh> = (loops.into_iter().zip(rows))
            .map(|(lc, rows)| {
                global.add_counts(&lc);
                lc.with_rows(rows)
            })
            .collect();
        // A loop interned by an access that caused no traffic has no entry;
        // the spill slot is no loop at all.
        let reported = (self.loop_ids.iter().copied().zip(loops).enumerate())
            .filter(|(lx, (_, lc))| Some(*lx) != self.spill && !lc.is_zero())
            .map(|(_, entry)| entry)
            .collect();
        let mut interned = self.loop_ids.clone();
        if let Some(lx) = self.spill {
            interned.remove(lx);
        }
        interned.sort_unstable();
        CoherenceReport {
            threads: self.threads,
            config: self.cfg,
            accesses: self.run.accesses,
            clamped_accesses: self.clamped,
            hits: self.hits,
            fills: self.fills,
            mem_fills: self.mem_fills,
            c2c_fills: self.run.c2c_fills,
            invalidations: self.run.invalidations,
            writebacks: self.run.writebacks,
            global,
            loops: reported,
            loop_overflow: self.loop_overflow(),
            interned,
            loop_cap: self.loop_cap,
        }
    }

    /// Interned index of a loop, assigned on first sight while fewer than
    /// the cap are interned; past it, the spill slot.
    fn loop_ix(&mut self, lid: LoopId) -> usize {
        if let Some(&lx) = self.loop_index.get(&(lid.0 as u64)) {
            return lx as usize;
        }
        if self.loop_index.len() < self.loop_cap {
            self.loop_index
                .insert(lid.0 as u64, self.loop_ids.len() as u32);
        } else if let Some(lx) = self.spill {
            return lx;
        } else {
            self.spill = Some(self.loop_ids.len());
        }
        self.loop_ids.push(lid.0);
        self.acc.loops.push(LoopCoh::new(self.threads));
        self.acc.fs.push(FsPages::default());
        self.loop_ids.len() - 1
    }

    /// The false-sharing stats of line `d` program-wide and in loop `lx`.
    #[inline]
    fn fs_entries(&mut self, lx: usize, d: usize) -> [FsEntry<'_>; 2] {
        [self.dir.fs_entry(d), self.acc.fs[lx].at(d)]
    }

    #[inline]
    fn meta(&self, tid: usize, slot: usize) -> SlotMeta {
        SlotMeta::load(self.meta[tid * self.caches[tid].slots() + slot])
    }

    #[inline]
    fn meta_mut(&mut self, tid: usize, slot: usize) -> &mut MetaWords {
        let slots = self.caches[tid].slots();
        &mut self.meta[tid * slots + slot]
    }

    fn line_access(&mut self, kind: AccessKind, rq: Req) {
        let Req { c, line, d, .. } = rq;
        let held = self.caches[c].find(line);
        if let Some(slot) = held {
            self.hits += 1;
            self.caches[c].touch(slot);
        }
        match kind {
            AccessKind::Read => {
                let slot = held.unwrap_or_else(|| self.read_fill(rq));
                self.attribute(rq, slot);
            }
            AccessKind::Write => {
                let slot = match held {
                    Some(slot) => {
                        // Exclusive upgrades silently; Shared needs the bus.
                        if self.caches[c].at(slot) == Some((line, Mesi::Shared)) {
                            self.bus(c, rq.lx, BusOp::Upgr);
                            self.invalidate_others(rq);
                        }
                        self.caches[c].set_state_at(slot, Mesi::Modified);
                        slot
                    }
                    None => {
                        self.bus(c, rq.lx, BusOp::RdX);
                        self.count_fill(self.dir.row(d)[SHARERS] & !(1u64 << c));
                        self.invalidate_others(rq);
                        self.fill(rq, Mesi::Modified)
                    }
                };
                let row = self.dir.row_mut(d);
                row[SHARERS] = 1 << c;
                row[OWNER] = c as u64;
                // First-touch attribution must see the *previous* word
                // writers; the write's own updates come after.
                self.attribute(rq, slot);
                let (touched, writers) = self.dir.words_of_mut(d);
                for w in rq.w0..=rq.w1 {
                    touched[w] = 1 << c;
                    let (byte, shift) = (&mut writers[w / 8], w % 8 * 8);
                    *byte = *byte & !(0xFF << shift) | (c as u64) << shift;
                }
            }
        }
    }

    fn count_fill(&mut self, others: u64) {
        self.fills += 1;
        if others != 0 {
            self.run.c2c_fills += 1;
        } else {
            self.mem_fills += 1;
        }
    }

    fn read_fill(&mut self, rq: Req) -> usize {
        let Req { c, line, d, lx, .. } = rq;
        self.bus(c, lx, BusOp::Rd);
        let row = self.dir.row(d);
        let others = row[SHARERS] & !(1u64 << c);
        let owner = row[OWNER];
        if owner != NO_TID as u64 {
            // M holder flushes and downgrades to Shared.
            self.caches[owner as usize].set_state(line, Some(Mesi::Shared));
            self.bus(owner as usize, lx, BusOp::Wb);
            self.run.writebacks += 1;
            self.dir.row_mut(d)[OWNER] = NO_TID as u64;
        } else {
            // No dirty owner, so holders are Exclusive or Shared: an
            // Exclusive one snoops the BusRd and downgrades.
            let mut rest = others;
            while rest != 0 {
                let h = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                self.caches[h].set_state(line, Some(Mesi::Shared));
            }
        }
        self.count_fill(others);
        let state = if others == 0 {
            Mesi::Exclusive
        } else {
            Mesi::Shared
        };
        self.dir.row_mut(d)[SHARERS] |= 1 << c;
        self.fill(rq, state)
    }

    /// Place the line in the requester's cache (evicting if the set is
    /// full) and record its pending set: the remote-written words this fill
    /// pulled in beyond what the triggering access covers and the consumer
    /// has already used.
    fn fill(&mut self, rq: Req, state: Mesi) -> usize {
        let (slot, victim) = self.caches[rq.c].fill(rq.line, state);
        if let Some((_, vstate)) = victim {
            self.evict(rq.c, slot, vstate, rq.lx);
        }
        let meta = SlotMeta {
            dir: rq.d as u32,
            fill_loop: rq.lx as u32,
            mask: (self.dir).pending_mask(rq.d, rq.c, span_mask(rq.w0, rq.w1)),
            trigger_addr: rq.addr,
        };
        *self.meta_mut(rq.c, slot) = meta.store();
        slot
    }

    fn invalidate_others(&mut self, rq: Req) {
        let Req { c, line, d, lx, .. } = rq;
        let row = self.dir.row(d);
        let mut victims = row[SHARERS] & !(1u64 << c);
        // An invalidation is false sharing when the victim touched none
        // of the written words — it held the line for other data.
        let span = &row[TOUCHED + rq.w0..=TOUCHED + rq.w1];
        let span_touchers = span.iter().fold(0, |acc, &t| acc | t);
        while victims != 0 {
            let h = victims.trailing_zeros() as usize;
            victims &= victims - 1;
            self.run.invalidations += 1;
            let slot = self.caches[h]
                .find(line)
                .expect("a directory sharer holds the line");
            if self.caches[h].invalidate_at(slot) == Some(Mesi::Modified) {
                // BusRdX/BusUpgr to a dirty line: the owner supplies the
                // data and retires its copy.
                self.bus(h, lx, BusOp::Wb);
                self.run.writebacks += 1;
            }
            let m = SlotMeta::load(std::mem::take(self.meta_mut(h, slot)));
            self.acc.loops[lx].invalidations.bump(c, h, 1);
            if span_touchers >> h & 1 == 0 {
                self.acc.loops[lx].fs_invalidations += 1;
                self.run.false_sharing_events += 1;
                for mut fs in self.fs_entries(lx, d) {
                    fs.event((1 << c) | (1 << h), 0, rq.addr);
                }
            }
            self.flush_pending(d, h, m);
        }
    }

    /// `holder`'s copy of line `d` died; whatever of the pending set `m`
    /// is still untouched was pulled for nothing.
    fn flush_pending(&mut self, d: usize, holder: usize, m: SlotMeta) {
        if m.mask != 0 {
            let bytes = m.pending_bytes();
            self.run.false_bytes += bytes;
            self.run.false_sharing_events += 1;
            let threads = (1 << holder) | self.dir.writers_of(d, m.mask);
            self.acc.loops[m.fill_loop as usize].false_bytes += bytes;
            for mut fs in self.fs_entries(m.fill_loop as usize, d) {
                fs.event(threads, bytes, m.trigger_addr);
            }
        }
    }

    /// First-touch producer attribution over the accessed words; whatever
    /// the access uses leaves the copy's pending set.
    fn attribute(&mut self, rq: Req, slot: usize) {
        let Req { c, d, lx, .. } = rq;
        let (touched, writers) = self.dir.words_of_mut(d);
        let mut bytes = 0u64;
        for (w, t) in (rq.w0..).zip(&mut touched[rq.w0..=rq.w1]) {
            // Not yet accessed by `c` since its last write, so written by
            // another thread if at all.
            if *t >> c & 1 == 0 {
                let wr = writer(writers, w);
                if wr != NO_TID {
                    let transfers = &mut self.acc.loops[lx].transfers;
                    transfers.bump(wr as usize, c, WORD_BYTES);
                    bytes += WORD_BYTES;
                }
            }
            *t |= 1 << c;
        }
        self.meta_mut(c, slot)[META_MASK] &= !span_mask(rq.w0, rq.w1);
        if bytes != 0 {
            self.run.true_bytes += bytes;
            for fs in self.fs_entries(lx, d) {
                fs.hot[TRUE_BYTES] += bytes;
            }
        }
    }

    /// `c`'s copy in `slot` was displaced by a fill; the slot's metadata
    /// still describes the victim.
    fn evict(&mut self, c: usize, slot: usize, vstate: Mesi, lx: usize) {
        let m = self.meta(c, slot);
        let row = self.dir.row_mut(m.dir as usize);
        row[SHARERS] &= !(1u64 << c);
        if row[OWNER] == c as u64 {
            row[OWNER] = NO_TID as u64;
        }
        if vstate == Mesi::Modified {
            self.bus(c, lx, BusOp::Wb);
            self.run.writebacks += 1;
        }
        self.flush_pending(m.dir as usize, c, m);
    }

    fn bus(&mut self, tid: usize, lx: usize, op: BusOp) {
        self.acc.loops[lx].bus.bump(tid, op);
    }
}

/// Lines `first..=last` an access covers under `2^line_shift`-byte lines,
/// and whether it was cut short. `addr` and `size` come verbatim from the
/// wire or a spool: the end address saturates and the span is capped, so
/// a hostile record costs at most [`MAX_ACCESS_LINES`] line-accesses.
#[inline]
pub(crate) fn line_span(ev: &AccessEvent, line_shift: u32) -> (u64, u64, bool) {
    let span = ev.size.max(1) as u64 - 1;
    let end = ev.addr.saturating_add(span);
    let first = ev.addr >> line_shift;
    let last = (end >> line_shift).min(first + (MAX_ACCESS_LINES - 1));
    (
        first,
        last,
        end - ev.addr != span || last != end >> line_shift,
    )
}

/// [`CoherenceBackend`] behind a mutex, so it can ride any
/// [`AccessSink`] position (fork sinks, live instrumentation). Coherence
/// simulation is inherently order-dependent; callers that need
/// determinism must feed a recorded order.
pub struct SharedCoherence {
    backend: Mutex<CoherenceBackend>,
}

impl SharedCoherence {
    /// Wrap a backend.
    pub fn new(backend: CoherenceBackend) -> Self {
        Self {
            backend: Mutex::new(backend),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CoherenceBackend> {
        self.backend
            .lock()
            .expect("no holder of the coherence lock panicked")
    }

    /// Snapshot the full report.
    pub fn report(&self) -> CoherenceReport {
        self.lock().report()
    }
}

impl AccessSink for SharedCoherence {
    fn on_access(&self, ev: &AccessEvent) {
        self.lock().on_access(ev);
    }

    fn on_batch(&self, evs: &[AccessEvent]) {
        self.lock().on_block(evs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_trace::FuncId;

    fn ev(tid: u32, addr: u64, kind: AccessKind, lid: u32) -> AccessEvent {
        AccessEvent {
            tid,
            addr,
            size: 8,
            kind,
            loop_id: LoopId(lid),
            parent_loop: LoopId::NONE,
            func: FuncId(0),
            site: 0,
        }
    }

    fn backend(t: usize) -> CoherenceBackend {
        CoherenceBackend::new(CoherenceConfig::default(), t)
    }

    #[test]
    fn producer_consumer_transfer_is_attributed() {
        let mut b = backend(2);
        b.on_access(&ev(0, 0x100, AccessKind::Write, 1));
        b.on_access(&ev(1, 0x100, AccessKind::Read, 1));
        let r = b.report();
        assert_eq!(r.global.transfers.get(0, 1), 8);
        assert_eq!(r.global.transfers.get(1, 0), 0);
        assert_eq!(r.loops[&1].transfers.get(0, 1), 8);
        // Repeated read: no further attribution (first-touch only).
        b.on_access(&ev(1, 0x100, AccessKind::Read, 1));
        assert_eq!(b.report().global.transfers.get(0, 1), 8);
        // True sharing, no false bytes.
        assert_eq!(b.report().global.false_bytes, 0);
    }

    #[test]
    fn write_invalidates_and_counts_per_loop() {
        let mut b = backend(2);
        b.on_access(&ev(0, 0x40, AccessKind::Write, 3));
        b.on_access(&ev(1, 0x40, AccessKind::Read, 3));
        b.on_access(&ev(0, 0x40, AccessKind::Write, 4));
        let r = b.report();
        assert_eq!(r.invalidations, 1);
        assert_eq!(r.global.invalidations.get(0, 1), 1);
        assert_eq!(r.loops[&4].invalidations.get(0, 1), 1);
        // Thread 1 had touched the written word: true sharing.
        assert_eq!(r.global.fs_invalidations, 0);
    }

    #[test]
    fn unpadded_counters_are_false_sharing() {
        // Two threads bump adjacent words of one line.
        let mut b = backend(2);
        for round in 0..4 {
            b.on_access(&ev(0, 0x200, AccessKind::Write, 1));
            b.on_access(&ev(1, 0x208, AccessKind::Write, 1));
            let _ = round;
        }
        let r = b.report();
        assert!(r.global.fs_invalidations > 0, "ping-pong must be flagged");
        assert!(r.global.false_bytes > 0, "pulled words never touched");
        // Every false-sharing invalidation is also one of its line's events.
        let from_lines: u64 = r.global.lines().map(|(_, l)| l.events).sum();
        assert_eq!(r.false_sharing_events(), from_lines);
        assert!(from_lines > r.global.fs_invalidations, "flushes count too");
        let (_, fs_ratio, _) = r.features();
        assert!(
            fs_ratio > 0.5,
            "split should be false-dominated: {fs_ratio}"
        );
    }

    #[test]
    fn false_sharing_invalidation_is_one_event() {
        // Thread 1 reads word 1 (nothing written, so nothing pending), then
        // thread 0 writes word 0 and invalidates that copy: one
        // false-sharing invalidation, no flush.
        let mut b = backend(2);
        b.on_access(&ev(1, 0x208, AccessKind::Read, 1));
        b.on_access(&ev(0, 0x200, AccessKind::Write, 1));
        let r = b.report();
        assert_eq!(r.global.fs_invalidations, 1);
        assert_eq!(r.global.false_bytes, 0);
        assert_eq!(r.false_sharing_events(), 1);
        assert_eq!(b.totals().false_sharing_events, 1);
    }

    #[test]
    fn padded_counters_are_clean() {
        let mut b = backend(2);
        for _ in 0..4 {
            b.on_access(&ev(0, 0x200, AccessKind::Write, 1));
            b.on_access(&ev(1, 0x240, AccessKind::Write, 1));
        }
        let r = b.report();
        assert_eq!(r.invalidations, 0);
        assert_eq!(r.global.false_bytes, 0);
        assert_eq!(r.global.fs_invalidations, 0);
    }

    #[test]
    fn mesi_single_writer_invariant() {
        let mut b = backend(3);
        b.on_access(&ev(0, 0x80, AccessKind::Write, 0));
        b.on_access(&ev(1, 0x80, AccessKind::Write, 0));
        let states = b.line_states(2);
        assert_eq!(states[0], None, "writer 1 must invalidate writer 0");
        assert_eq!(states[1], Some(Mesi::Modified));
        // A read downgrades M to S.
        b.on_access(&ev(2, 0x80, AccessKind::Read, 0));
        let states = b.line_states(2);
        assert_eq!(states[1], Some(Mesi::Shared));
        assert_eq!(states[2], Some(Mesi::Shared));
    }

    #[test]
    fn exclusive_then_silent_upgrade() {
        let mut b = backend(2);
        b.on_access(&ev(0, 0x80, AccessKind::Read, 0));
        assert_eq!(b.line_states(2)[0], Some(Mesi::Exclusive));
        b.on_access(&ev(0, 0x80, AccessKind::Write, 0));
        assert_eq!(b.line_states(2)[0], Some(Mesi::Modified));
        let r = b.report();
        // No upgrade transaction was needed.
        assert_eq!(r.global.bus.get(0, 2), 0);
        assert_eq!(r.global.bus.get(0, 0), 1); // one BusRd
    }

    #[test]
    fn config_validation_rejects_bad_geometry() {
        let ok = CoherenceConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            CoherenceConfig {
                line_bytes: 48,
                ..ok
            },
            CoherenceConfig {
                line_bytes: 8,
                ..ok
            },
            CoherenceConfig {
                line_bytes: 1024,
                ..ok
            },
            CoherenceConfig { cache_kib: 3, ..ok },
            CoherenceConfig { cache_kib: 0, ..ok },
            CoherenceConfig { assoc: 3, ..ok },
            CoherenceConfig { assoc: 128, ..ok },
            CoherenceConfig {
                cache_kib: 1,
                assoc: 64,
                line_bytes: 512,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    /// `n` shards hold one backend's cache and `SlotMeta` slots between
    /// them, so the eager slot arrays of a huge geometry are split, not
    /// multiplied.
    #[test]
    fn shards_hold_the_unsharded_slot_count_between_them() {
        let slots = |b: &CoherenceBackend| {
            let per_cache: usize = b.caches.iter().map(Cache::slots).sum();
            assert_eq!(per_cache, b.meta.len());
            per_cache
        };
        for (line_bytes, cache_kib, assoc) in [(64, 16, 4), (16, 1024, 4), (512, 1, 1), (16, 1, 64)]
        {
            let cfg = CoherenceConfig {
                line_bytes,
                cache_kib,
                assoc,
            };
            let whole = slots(&CoherenceBackend::new(cfg, 2));
            for n in [1, 2, 4, 8] {
                let n = n.min(cfg.cache_config().sets);
                let split: usize = (0..n)
                    .map(|k| slots(&CoherenceBackend::shard(cfg, 2, k, n)))
                    .sum();
                assert_eq!(split, whole, "{cfg:?} at {n} shard(s)");
            }
        }
    }

    /// Accesses alternating write/read over 512 words, access `i` in its
    /// own loop `i`.
    fn one_loop_per_access(n: u32) -> Vec<AccessEvent> {
        (0..n)
            .map(|i| {
                let kind = [AccessKind::Write, AccessKind::Read][i as usize % 2];
                ev(i % 4, 0x1000 + (i as u64 % 512) * 8, kind, i)
            })
            .collect()
    }

    /// A stream of 100 K distinct loops interns at most the cap and
    /// latches the overflow.
    #[test]
    fn loops_past_the_cap_are_not_interned() {
        let mut b = backend(4).with_loop_capacity(1000);
        b.on_block(&one_loop_per_access(100_000));
        assert_eq!(b.loop_index.len(), 1024, "the cap rounds up to 1024");
        assert_eq!(b.acc.loops.len(), 1025, "1024 loops and the spill slot");
        assert_eq!(b.acc.fs.len(), 1025);
        let r = b.report();
        assert_eq!(r.loop_overflow, Some(RegistryFull { capacity: 1024 }));
        assert_eq!(b.loop_overflow(), r.loop_overflow);
        assert!(r.loops.len() <= 1024);
        assert_eq!(b.dropped_accesses(), 100_000 - 1024);
    }

    /// Past the cap, the whole-program traffic is what an uncapped run
    /// reports.
    #[test]
    fn a_capped_run_keeps_the_whole_program_traffic_exact() {
        let evs = one_loop_per_access(4096);
        let mut capped = backend(4).with_loop_capacity(64);
        let mut whole = backend(4).with_loop_capacity(4096);
        capped.on_block(&evs);
        whole.on_block(&evs);
        let (r, w) = (capped.report(), whole.report());
        assert!(r.loop_overflow.is_some() && w.loop_overflow.is_none());
        assert_eq!(r.totals(), w.totals());
        // The header and the whole-program section: everything before
        // the first loop's.
        let global = |r: &CoherenceReport| {
            let text = crate::canonical_coherence_report(r);
            text[..text.find("\nloop ").unwrap_or(text.len())].to_string()
        };
        assert_eq!(global(&r), global(&w));
    }

    /// Three shards' runs of one scope read back as one line-ascending
    /// list; a scope with no runs reads as none.
    #[test]
    fn runs_merge_in_one_line_ordered_pass() {
        let row = |line: u64| {
            let events = line;
            let fs = FsLine {
                events,
                ..FsLine::default()
            };
            (line, fs)
        };
        let rows = |lines: &[u64]| -> FsRows { lines.iter().map(|&l| row(l)).collect() };
        let mut scope = LoopCoh::new(2).with_rows(rows(&[0, 4, 8, 12]));
        for run in [rows(&[]), rows(&[2, 6]), rows(&[3, 7, 15, 19])] {
            scope.absorb(LoopCoh::new(2).with_rows(run));
        }
        assert_eq!(scope.runs.len(), 3, "an empty run is not kept");
        let merged: FsRows = scope.lines().copied().collect();
        assert_eq!(merged, rows(&[0, 2, 3, 4, 6, 7, 8, 12, 15, 19]));
        assert_eq!(LoopCoh::new(2).lines().count(), 0);
    }

    /// What one line-access reads is pinned: a 32 B hot stats half, a
    /// loop's stats cell of one host cache line, 24 B of slot metadata,
    /// and a directory row of whole 64 B host cache lines — two at 64 B
    /// lines — that stay aligned as the directory grows.
    #[test]
    fn line_state_layout_is_pinned() {
        assert!(std::mem::size_of::<FsHot>() <= 40);
        assert_eq!(std::mem::size_of::<FsHot>(), 32);
        assert_eq!(std::mem::size_of::<FsCell>(), 64);
        assert_eq!(std::mem::align_of::<FsCell>(), 64);
        assert_eq!(std::mem::size_of::<MetaWords>(), 24);
        for (line_bytes, row_bytes) in [(16, 128), (32, 128), (64, 128), (128, 192), (512, 640)] {
            let words = (line_bytes / WORD_BYTES) as usize;
            assert_eq!(
                Directory::new(words).stride * 8,
                row_bytes,
                "{line_bytes} B lines"
            );
        }
        let mut dir = Directory::new(8);
        for line in 0..5000 {
            let d = dir.index_of(line * 3);
            assert_eq!(dir.row(d).as_ptr() as usize % ROW_ALIGN_BYTES, 0, "row {d}");
        }
        assert_eq!(dir.row(0)[OWNER], NO_TID as u64);
        assert_eq!(writer(&dir.row(4999)[TOUCHED + 8..], 7), NO_TID);
    }

    /// The gathered mask of written words agrees with a byte-by-byte scan,
    /// in the first writer word and in a later one.
    #[test]
    fn written_words_gather_from_the_writer_bytes() {
        for bytes in [
            u64::MAX,
            0,
            0xFF00_FF00_0000_3F01,
            0x00FF_FFFF_FFFF_FFFF,
            0x3FFF_FFFF_FFFF_FF3E,
        ] {
            let naive = (0..8).fold(0, |m, j| {
                m | (((bytes >> (8 * j)) as u8 != NO_TID) as u64) << j
            });
            assert_eq!(written(&[bytes, u64::MAX]), naive, "{bytes:#x}");
            assert_eq!(written(&[u64::MAX, bytes]), naive << 8, "{bytes:#x}");
        }
    }

    /// Thread 63 writes every word of one 512 B line (a 64-word mask, and
    /// a writer id one below the no-writer sentinel), then threads 0 and 62
    /// read single words of it: the report's bytes are pinned.
    #[test]
    fn the_highest_thread_fills_a_whole_wide_line() {
        let cfg = CoherenceConfig {
            line_bytes: 512,
            ..CoherenceConfig::default()
        };
        let mut b = CoherenceBackend::new(cfg, 64);
        for w in 0..64 {
            b.on_access(&ev(63, 0x4000 + w * 8, AccessKind::Write, 7));
        }
        b.on_access(&ev(0, 0x4000 + 5 * 8, AccessKind::Read, 8));
        b.on_access(&ev(62, 0x4000 + 63 * 8, AccessKind::Read, 9));
        let r = b.report();
        assert_eq!(r.global.transfers.get(63, 0), 8);
        assert_eq!(r.global.transfers.get(63, 62), 8);
        let fnv = crate::canonical_coherence_report(&r)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(
            fnv,
            0x7a11_afd9_147b_9c76,
            "{}",
            crate::canonical_coherence_report(&r)
        );
    }

    #[test]
    fn straddling_access_splits_across_lines() {
        let mut b = backend(2);
        // A 16-byte write whose tail crosses into the next line.
        b.on_access(&AccessEvent {
            size: 16,
            ..ev(0, 0x78, AccessKind::Write, 1)
        });
        b.on_access(&AccessEvent {
            size: 16,
            ..ev(1, 0x78, AccessKind::Read, 1)
        });
        let r = b.report();
        // Both lines filled by each side: 2 writes-fills + 2 read-fills.
        assert_eq!(r.fills, 4);
        assert_eq!(r.global.transfers.get(0, 1), 16);
    }
}
