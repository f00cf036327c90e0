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

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::io::Write as _;
use std::sync::{Mutex, MutexGuard};

use lc_profiler::{AccumConfig, DenseMatrix, RegistryFull};
use lc_trace::{AccessEvent, AccessKind, AccessSink, AsAccess, BlockSource, EventBlock, LoopId};

use crate::cache::{Cache, CacheConfig, Mesi};

/// Directory sharer masks are 64-bit; the backend refuses larger fleets.
pub const MAX_COHERENCE_THREADS: usize = 64;

/// Sentinel for "no writer yet" in the per-word last-writer array.
const NO_WRITER: u32 = u32::MAX;

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
    /// events: in arrival order while the backend runs, ascending in a
    /// report.
    addrs: [u64; FS_ADDR_SAMPLES],
    n_addrs: u8,
}

impl FsLine {
    /// Up to four sample addresses whose accesses triggered the events,
    /// ascending.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs[..self.n_addrs as usize]
    }

    /// Whether anything was charged to the line: every charge adds an
    /// event or true bytes, so an all-zero entry is an untracked line.
    fn is_charged(&self) -> bool {
        self.events != 0 || self.true_bytes != 0
    }

    fn note_addr(&mut self, addr: u64) {
        let n = self.n_addrs as usize;
        if n < FS_ADDR_SAMPLES && !self.addrs[..n].contains(&addr) {
            self.addrs[n] = addr;
            self.n_addrs += 1;
        }
    }

    /// `holder`'s copy died (or is being snapshotted) with the pending
    /// words of `m`, written by `writers`, untouched.
    fn charge_pending(&mut self, holder: usize, m: SlotMeta, writers: u64) {
        self.events += 1;
        self.false_bytes += m.pending_bytes();
        self.threads |= (1 << holder) | writers;
        self.note_addr(m.trigger_addr);
    }

    /// The report form: the address sample in ascending order.
    fn sorted(mut self) -> Self {
        self.addrs[..self.n_addrs as usize].sort_unstable();
        self
    }
}

/// Line-ascending per-line rows of one scope.
type FsRows = Vec<(u64, FsLine)>;

/// Merge two line-ascending row lists in one linear pass; where a line is
/// in both, `b`'s row wins. Shard reports own disjoint lines, so merging
/// them never drops a row.
fn merge_rows(a: FsRows, b: FsRows) -> FsRows {
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if x.0 < y.0 => a.next(),
            (Some(x), Some(y)) if x.0 == y.0 => {
                a.next();
                b.next()
            }
            (_, Some(_)) => b.next(),
            (Some(_), None) => a.next(),
            (None, None) => return out,
        };
        out.extend(next);
    }
}

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
    /// Offending lines as `(line number, stats)`, ascending by line.
    pub lines: Vec<(u64, FsLine)>,
}

impl LoopCoh {
    fn new(threads: usize) -> Self {
        Self {
            invalidations: DenseMatrix::zero(threads),
            transfers: DenseMatrix::zero(threads),
            bus: BusCounts::new(threads),
            fs_invalidations: 0,
            false_bytes: 0,
            lines: Vec::new(),
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
            && self.lines.is_empty()
    }

    /// Add `other`'s matrices and counters, not its `lines`: how
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

    /// Add another shard's traffic: counts summed, offending lines merged
    /// in line order (shards own disjoint lines, so no line is in both).
    fn merge(&mut self, other: LoopCoh) {
        self.add_counts(&other);
        self.lines = merge_rows(std::mem::take(&mut self.lines), other.lines);
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
    /// ([`CoherenceBackend::shard`]). Exact: every statistic is either a
    /// sum over line-accesses or kept per line, and shards own disjoint
    /// lines (DESIGN.md §16.4).
    pub fn merge(&mut self, other: CoherenceReport) {
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
        self.global.merge(other.global);
        for (id, lc) in other.loops {
            match self.loops.get_mut(&id) {
                Some(mine) => mine.merge(lc),
                None => {
                    self.loops.insert(id, lc);
                }
            }
        }
        // Each shard counts the loops it saw against the cap; the stream
        // overflowed when their union is over it, whatever the split.
        self.interned.extend(other.interned);
        self.interned.sort_unstable();
        self.interned.dedup();
        let over = (self.interned.len() > self.loop_cap).then_some(RegistryFull {
            capacity: self.loop_cap,
        });
        self.loop_overflow = self.loop_overflow.or(other.loop_overflow).or(over);
    }

    /// Total false-sharing classified events (invalidations + flushes),
    /// each already counted once on its line.
    pub fn false_sharing_events(&self) -> u64 {
        self.global.lines.iter().map(|(_, l)| l.events).sum()
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

/// Idealized full-map directory, struct-of-arrays over a dense per-line
/// index assigned on first touch. `word_writer` and `touched` never reset
/// on eviction — they mirror the RAW detector's signature memory, which
/// also survives capacity pressure.
#[derive(Default)]
struct Directory {
    /// Line number → dense index; probed once per line-access.
    index: HashMap<u64, u32, MulHash>,
    /// Dense index → line number (for report-time ordering).
    lines: Vec<u64>,
    /// Bitmask of threads holding a valid copy (any MESI state).
    sharers: Vec<u64>,
    /// Thread holding the line Modified (`NO_WRITER` when none).
    owner: Vec<u32>,
    /// `[index × words + w]`: last writer of each 8-byte word
    /// (`NO_WRITER` when unwritten).
    word_writer: Vec<u32>,
    /// `[index × words + w]`: threads that accessed the word since its
    /// last write.
    touched: Vec<u64>,
    /// Program-wide false-sharing stats of each line, by dense index.
    fs: Vec<FsLine>,
}

impl Directory {
    fn index_of(&mut self, line: u64, words: usize) -> usize {
        if let Some(&d) = self.index.get(&line) {
            return d as usize;
        }
        let d = u32::try_from(self.lines.len()).expect("fewer than 2^32 distinct lines");
        self.index.insert(line, d);
        self.lines.push(line);
        self.sharers.push(0);
        self.owner.push(NO_WRITER);
        self.word_writer
            .resize(self.word_writer.len() + words, NO_WRITER);
        self.touched.resize(self.touched.len() + words, 0);
        self.fs.push(FsLine::default());
        d as usize
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

impl SlotMeta {
    fn pending_bytes(&self) -> u64 {
        self.mask.count_ones() as u64 * WORD_BYTES
    }
}

/// Lines per page of a loop's [`FsPages`].
const FS_PAGE: usize = 64;

/// One loop's per-line false-sharing stats, by directory index: fixed
/// pages of [`FS_PAGE`] lines, each allocated when one of its lines is
/// first charged in the loop.
#[derive(Default)]
struct FsPages(Vec<Option<Box<[FsLine; FS_PAGE]>>>);

impl FsPages {
    #[inline]
    fn at(&mut self, d: usize) -> &mut FsLine {
        let p = d / FS_PAGE;
        if p >= self.0.len() {
            self.0.resize_with(p + 1, || None);
        }
        let page = self.0[p].get_or_insert_with(|| Box::new([FsLine::default(); FS_PAGE]));
        &mut page[d % FS_PAGE]
    }

    fn get(&self, d: usize) -> Option<&FsLine> {
        self.0
            .get(d / FS_PAGE)?
            .as_ref()
            .map(|page| &page[d % FS_PAGE])
    }

    /// Every entry of the allocated pages as `(directory index, stats)`.
    fn entries(&self) -> impl Iterator<Item = (usize, &FsLine)> {
        (self.0.iter().enumerate())
            .filter_map(|(p, page)| Some((p * FS_PAGE, page.as_ref()?)))
            .flat_map(|(d0, page)| (d0..).zip(page.iter()))
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

/// Per-core MESI simulation over the instrumentation event stream. Not
/// thread-safe by itself — wrap in [`SharedCoherence`] for sink use.
///
/// One line-access touches only index-addressed state: a single probe of
/// the requester's cache set, one hashed lookup of the line's directory
/// index, and arrays indexed by slot, directory index or interned loop —
/// a line's false-sharing stats included (DESIGN.md §16.1). Allocation
/// happens only when a line or a loop is seen for the first time, or a
/// loop is first charged on a page of lines.
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
    words: usize,
    /// This shard's index `k` and `log2` of the shard count `n`; a line
    /// belongs here when `line % n == k`, and its cache key is
    /// `line >> shift`.
    shard: u64,
    shift: u32,
    caches: Vec<Cache>,
    /// `[tid × slots + slot]`, parallel to the caches' slots.
    meta: Vec<SlotMeta>,
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
            words: cfg.words_per_line(),
            shard: k as u64,
            shift: n.trailing_zeros(),
            caches: (0..threads).map(|_| Cache::new(ccfg)).collect(),
            meta: vec![SlotMeta::default(); threads * ccfg.sets * ccfg.ways],
            dir: Directory::default(),
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
        let tid = ev.tid as usize;
        if tid >= self.threads {
            return;
        }
        let lb = self.cfg.line_bytes;
        let line_shift = lb.trailing_zeros();
        let (first, last, clamped) = line_span(ev, line_shift);
        if self.owns(first) {
            self.run.accesses += 1;
            self.clamped += clamped as u64;
        }
        let end = ev.addr.saturating_add(ev.size.max(1) as u64 - 1);
        let mut lx = None;
        for line in first..=last {
            if !self.owns(line) {
                continue;
            }
            let lx = match lx {
                Some(lx) => lx,
                None => *lx.insert(self.loop_ix(ev.loop_id)),
            };
            let base = line << line_shift;
            let lo = ev.addr.max(base) - base;
            let hi = end.min(base + (lb - 1)) - base;
            let rq = Req {
                c: tid,
                line: line >> self.shift,
                d: self.dir.index_of(line, self.words),
                lx,
                addr: ev.addr,
                w0: (lo / WORD_BYTES) as usize,
                w1: (hi / WORD_BYTES) as usize,
            };
            self.line_access(ev.kind, rq);
        }
        if self.spill.is_some() && lx == self.spill {
            self.dropped += 1;
        }
    }

    /// Observe a block of accesses — semantically one [`Self::on_access`]
    /// per event, so reports are identical for any block split. Generic
    /// over [`AsAccess`] to consume stamped serve frames without copying.
    pub fn on_block<E: AsAccess>(&mut self, evs: &[E]) {
        for e in evs {
            self.on_access(e.access());
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
        let slots = self.caches[tid].slots();
        (0..slots).filter_map(move |slot| {
            let m = self.meta[tid * slots + slot];
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
    /// it) on copies of just the entries they land on, and each scope's
    /// charged lines are sorted into its row list.
    pub fn report(&self) -> CoherenceReport {
        let mut loops = self.acc.loops.clone();
        // Copies of the per-line stats a live pending set lands on, keyed
        // `(scope, line)`: scope 0 is the whole program, `lx + 1` loop `lx`.
        let mut overlay: BTreeMap<(usize, u64), FsLine> = BTreeMap::new();
        for tid in 0..self.threads {
            let mut live: Vec<_> = self.live_pending(tid).collect();
            live.sort_unstable_by_key(|&(line, _)| line);
            for (_, m) in live {
                let (d, lx) = (m.dir as usize, m.fill_loop as usize);
                loops[lx].false_bytes += m.pending_bytes();
                let writers = self.writer_mask(d, m.mask);
                for (scope, base) in [(0, Some(&self.dir.fs[d])), (lx + 1, self.acc.fs[lx].get(d))]
                {
                    (overlay.entry((scope, self.dir.lines[d])))
                        .or_insert_with(|| base.copied().unwrap_or_default())
                        .charge_pending(tid, m, writers);
                }
            }
        }
        let mut overlay = overlay.into_iter().peekable();
        let mut rows = |scope: usize, base: &mut dyn Iterator<Item = (usize, &FsLine)>| {
            let mut rows: FsRows = base
                .filter(|(_, f)| f.is_charged())
                .map(|(d, f)| (self.dir.lines[d], f.sorted()))
                .collect();
            rows.sort_unstable_by_key(|&(line, _)| line);
            let mut patch = FsRows::new();
            while let Some(((_, line), f)) = overlay.next_if(|((s, _), _)| *s == scope) {
                patch.push((line, f.sorted()));
            }
            merge_rows(rows, patch)
        };
        let mut global = LoopCoh::new(self.threads);
        global.lines = rows(0, &mut self.dir.fs.iter().enumerate());
        for (lx, (lc, fs)) in loops.iter_mut().zip(&self.acc.fs).enumerate() {
            global.add_counts(lc);
            lc.lines = rows(lx + 1, &mut fs.entries());
        }
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
    fn fs_lines(&mut self, lx: usize, d: usize) -> [&mut FsLine; 2] {
        [&mut self.dir.fs[d], self.acc.fs[lx].at(d)]
    }

    /// Writers of the `mask` words of directory line `d`.
    fn writer_mask(&self, d: usize, mask: u64) -> u64 {
        let row = &self.dir.word_writer[d * self.words..][..self.words];
        let mut writers = 0u64;
        for (w, &wr) in row.iter().enumerate() {
            if mask >> w & 1 == 1 && wr != NO_WRITER {
                writers |= 1 << wr;
            }
        }
        writers
    }

    fn meta_mut(&mut self, tid: usize, slot: usize) -> &mut SlotMeta {
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
                        self.count_fill(self.dir.sharers[d] & !(1u64 << c));
                        self.invalidate_others(rq);
                        self.fill(rq, Mesi::Modified)
                    }
                };
                self.dir.sharers[d] = 1 << c;
                self.dir.owner[d] = c as u32;
                // First-touch attribution must see the *previous* word
                // writers; the write's own updates come after.
                self.attribute(rq, slot);
                for w in d * self.words + rq.w0..=d * self.words + rq.w1 {
                    self.dir.word_writer[w] = c as u32;
                    self.dir.touched[w] = 1 << c;
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
        let others = self.dir.sharers[d] & !(1u64 << c);
        let owner = self.dir.owner[d] as usize;
        if owner != NO_WRITER as usize {
            // M holder flushes and downgrades to Shared.
            self.caches[owner].set_state(line, Some(Mesi::Shared));
            self.bus(owner, lx, BusOp::Wb);
            self.run.writebacks += 1;
            self.dir.owner[d] = NO_WRITER;
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
        self.dir.sharers[d] |= 1 << c;
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
        let row = rq.d * self.words;
        let mut mask = 0u64;
        for w in 0..self.words {
            let writer = self.dir.word_writer[row + w];
            if writer != NO_WRITER
                && writer as usize != rq.c
                && !(rq.w0..=rq.w1).contains(&w)
                && self.dir.touched[row + w] >> rq.c & 1 == 0
            {
                mask |= 1 << w;
            }
        }
        *self.meta_mut(rq.c, slot) = SlotMeta {
            dir: rq.d as u32,
            fill_loop: rq.lx as u32,
            mask,
            trigger_addr: rq.addr,
        };
        slot
    }

    fn invalidate_others(&mut self, rq: Req) {
        let Req { c, line, d, lx, .. } = rq;
        let row = d * self.words;
        let mut victims = self.dir.sharers[d] & !(1u64 << c);
        while victims != 0 {
            let h = victims.trailing_zeros() as usize;
            victims &= victims - 1;
            self.run.invalidations += 1;
            // False sharing: the written words intersect nothing the
            // victim ever touched — it held the line for other data.
            let true_sharing = (rq.w0..=rq.w1).any(|w| self.dir.touched[row + w] >> h & 1 == 1);
            let slot = self.caches[h]
                .find(line)
                .expect("a directory sharer holds the line");
            if self.caches[h].invalidate_at(slot) == Some(Mesi::Modified) {
                // BusRdX/BusUpgr to a dirty line: the owner supplies the
                // data and retires its copy.
                self.bus(h, lx, BusOp::Wb);
                self.run.writebacks += 1;
            }
            let m = std::mem::take(self.meta_mut(h, slot));
            self.acc.loops[lx].invalidations.bump(c, h, 1);
            if !true_sharing {
                self.acc.loops[lx].fs_invalidations += 1;
                self.run.false_sharing_events += 1;
                for fsl in self.fs_lines(lx, d) {
                    fsl.events += 1;
                    fsl.threads |= (1 << c) | (1 << h);
                    fsl.note_addr(rq.addr);
                }
            }
            self.flush_pending(d, h, m);
        }
    }

    /// `holder`'s copy of line `d` died; whatever of the pending set `m`
    /// is still untouched was pulled for nothing.
    fn flush_pending(&mut self, d: usize, holder: usize, m: SlotMeta) {
        if m.mask != 0 {
            self.run.false_bytes += m.pending_bytes();
            self.run.false_sharing_events += 1;
            let writers = self.writer_mask(d, m.mask);
            self.acc.loops[m.fill_loop as usize].false_bytes += m.pending_bytes();
            for fsl in self.fs_lines(m.fill_loop as usize, d) {
                fsl.charge_pending(holder, m, writers);
            }
        }
    }

    /// First-touch producer attribution over the accessed words; whatever
    /// the access uses leaves the copy's pending set.
    fn attribute(&mut self, rq: Req, slot: usize) {
        let Req { c, d, lx, .. } = rq;
        let (mut bytes, mut used) = (0u64, 0u64);
        for w in rq.w0..=rq.w1 {
            let i = d * self.words + w;
            let writer = self.dir.word_writer[i];
            if writer != NO_WRITER && writer as usize != c && self.dir.touched[i] >> c & 1 == 0 {
                self.acc.loops[lx]
                    .transfers
                    .bump(writer as usize, c, WORD_BYTES);
                bytes += WORD_BYTES;
            }
            self.dir.touched[i] |= 1 << c;
            used |= 1 << w;
        }
        self.meta_mut(c, slot).mask &= !used;
        if bytes != 0 {
            self.run.true_bytes += bytes;
            for fsl in self.fs_lines(lx, d) {
                fsl.true_bytes += bytes;
            }
        }
    }

    /// `c`'s copy in `slot` was displaced by a fill; the slot's metadata
    /// still describes the victim.
    fn evict(&mut self, c: usize, slot: usize, vstate: Mesi, lx: usize) {
        let m = *self.meta_mut(c, slot);
        let vd = m.dir as usize;
        self.dir.sharers[vd] &= !(1u64 << c);
        if self.dir.owner[vd] == c as u32 {
            self.dir.owner[vd] = NO_WRITER;
        }
        if vstate == Mesi::Modified {
            self.bus(c, lx, BusOp::Wb);
            self.run.writebacks += 1;
        }
        self.flush_pending(vd, c, m);
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

/// Render a [`CoherenceReport`] in the canonical line format — stable
/// field order, loops ascending by UID, zero sections skipped — so
/// equality of analyses can be asserted with `diff`, mirroring
/// `lc_profiler::canonical_report`.
pub fn canonical_coherence_report(r: &CoherenceReport) -> String {
    // The per-line rows are nearly all of a large report, and one seldom
    // passes 128 bytes: sized for that, the buffer seldom grows. Bytes
    // are written (`io::Write` on a `Vec` cannot fail) and checked as
    // text once, at the end.
    let rows = r.global.lines.len() + r.loops.values().map(|lc| lc.lines.len()).sum::<usize>();
    let mut out = Vec::with_capacity(4096 + 128 * rows);
    let _ = write!(
        out,
        "loopcomm-coherence v1\nthreads {}\ngeometry line-bytes {} cache-kib {} assoc {}\n\
         accesses {}\n",
        r.threads, r.config.line_bytes, r.config.cache_kib, r.config.assoc, r.accesses
    );
    if r.clamped_accesses != 0 {
        let _ = writeln!(out, "clamped-accesses {}", r.clamped_accesses);
    }
    let _ = write!(
        out,
        "fills {} mem {} c2c {} hits {}\ninvalidations {} writebacks {}\nglobal\n",
        r.fills, r.mem_fills, r.c2c_fills, r.hits, r.invalidations, r.writebacks
    );
    push_loop(&mut out, &r.global);
    for (id, lc) in &r.loops {
        if lc.is_zero() {
            continue;
        }
        let _ = writeln!(out, "loop {id}");
        push_loop(&mut out, lc);
    }
    String::from_utf8(out).expect("the canonical report is ASCII")
}

fn push_loop(out: &mut Vec<u8>, lc: &LoopCoh) {
    if !lc.invalidations.is_zero() {
        out.extend_from_slice(b"invalidations\n");
        out.extend_from_slice(lc.invalidations.to_csv().as_bytes());
    }
    if !lc.transfers.is_zero() {
        out.extend_from_slice(b"transfers\n");
        out.extend_from_slice(lc.transfers.to_csv().as_bytes());
    }
    if !lc.bus.is_zero() {
        let _ = writeln!(out, "bus {}", BUS_OPS.join(","));
        out.extend_from_slice(lc.bus.to_csv().as_bytes());
    }
    let _ = writeln!(
        out,
        "false-sharing invalidations {} false-bytes {} true-bytes {}",
        lc.fs_invalidations,
        lc.false_bytes,
        lc.true_bytes()
    );
    // One row per tracked cache line, the bulk of a large report: the
    // numbers are written digit by digit, not through `format!`.
    for (line, fs) in &lc.lines {
        out.extend_from_slice(b"line ");
        push_hex(out, *line);
        out.extend_from_slice(b" events ");
        push_dec(out, fs.events);
        out.extend_from_slice(b" false ");
        push_dec(out, fs.false_bytes);
        out.extend_from_slice(b" true ");
        push_dec(out, fs.true_bytes);
        out.extend_from_slice(b" threads ");
        push_hex(out, fs.threads);
        out.extend_from_slice(b" addrs ");
        for (i, &a) in fs.addrs().iter().enumerate() {
            if i != 0 {
                out.push(b',');
            }
            push_hex(out, a);
        }
        out.push(b'\n');
    }
}

/// Append `v` in decimal, as `format!("{v}")` writes it.
fn push_dec(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// Append `v` in `0x`-prefixed lowercase hex, as `format!("{v:#x}")`
/// writes it.
fn push_hex(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 18];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b"0123456789abcdef"[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    i -= 2;
    buf[i..i + 2].copy_from_slice(b"0x");
    out.extend_from_slice(&buf[i..]);
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
        let from_lines: u64 = r.global.lines.iter().map(|(_, l)| l.events).sum();
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
        let render = |lc: &LoopCoh| {
            let mut out = Vec::new();
            push_loop(&mut out, lc);
            out
        };
        assert_eq!(render(&r.global), render(&w.global));
    }

    #[test]
    fn digit_writers_match_format() {
        for v in [0, 9, 10, 15, 16, u32::MAX as u64, u64::MAX] {
            let (mut dec, mut hex) = (Vec::new(), Vec::new());
            push_dec(&mut dec, v);
            push_hex(&mut hex, v);
            assert_eq!(dec, format!("{v}").as_bytes());
            assert_eq!(hex, format!("{v:#x}").as_bytes());
        }
    }

    proptest::proptest! {
        /// Any value, at every digit count (the shift).
        #[test]
        fn digit_writers_match_format_on_any_value(
            v in proptest::arbitrary::any::<u64>(),
            shift in 0u32..64,
        ) {
            let v = v >> shift;
            let (mut dec, mut hex) = (b"x".to_vec(), b"y".to_vec());
            push_dec(&mut dec, v);
            push_hex(&mut hex, v);
            proptest::prop_assert_eq!(dec, format!("x{v}").into_bytes());
            proptest::prop_assert_eq!(hex, format!("y{v:#x}").into_bytes());
        }
    }

    #[test]
    fn rows_merge_in_line_order_and_the_later_row_wins() {
        let row = |line: u64, events: u64| {
            (
                line,
                FsLine {
                    events,
                    ..FsLine::default()
                },
            )
        };
        let merged = merge_rows(
            vec![row(1, 1), row(4, 1), row(9, 1)],
            vec![row(2, 2), row(4, 2), row(10, 2)],
        );
        assert_eq!(
            merged,
            vec![row(1, 1), row(2, 2), row(4, 2), row(9, 1), row(10, 2)]
        );
        assert_eq!(merge_rows(vec![], vec![row(3, 1)]), vec![row(3, 1)]);
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
