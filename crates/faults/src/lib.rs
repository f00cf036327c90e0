//! # lc-faults — deterministic fault injection
//!
//! The profiler runs inline with the target program, so any pipeline
//! failure (a truncated trace spool, a wedged disk, a dropped connection)
//! corrupts or destroys the whole run. This crate makes those
//! failures *schedulable*: every fragile seam in the pipeline hosts a named
//! [`FaultSite`], and a [`FaultPlan`] — written by hand or parsed from a
//! plan file — scripts which site fails, how ([`FaultAction`]), and when
//! (hit index, firing count, or a seed-driven coin). Given the same plan
//! and the same per-site hit order, injection decisions replay
//! byte-for-byte, so a failure found once can be pinned as a regression
//! test forever.
//!
//! The crate has no dependencies and no global state: components that
//! participate hold an `Option<Arc<FaultInjector>>` and consult it at
//! their sites. A `None` injector (the production default) costs nothing;
//! an installed injector costs one atomic increment per site hit — and
//! sites sit on I/O and frame boundaries, never on the per-access path.
//!
//! ## Plan file format
//!
//! Line-oriented text; `#` starts a comment. One optional `seed` line and
//! any number of `fault` lines:
//!
//! ```text
//! # drain panic on the third decoded frame
//! seed 42
//! fault tenant_flush panic after=2
//! fault trace_write short_write:13 after=1
//! fault net_write stall:50 count=inf
//! fault checkpoint_write io_error prob=0.01
//! ```
//!
//! Sites: `trace_write`, the network seams `net_accept`, `net_frame_read`, `net_write`,
//! `tenant_flush` (the `loopcomm serve` ingest path), and the durability
//! seams `checkpoint_write`, `index_write` (crash-resumable analysis).
//! Actions: `panic`, `stall:<ms>`, `io_error`, `short_write:<bytes>`,
//! `bit_flip:<n>` (flip one bit of the I/O buffer in flight — transient
//! corruption, the wrapper does not wedge).
//! Modifiers: `after=<n>` (skip the first n hits), `count=<n>|inf`
//! (firing budget, default 1), `prob=<p>` (seed-driven coin per eligible
//! hit).

#![warn(missing_docs)]

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named injection point in the profiling pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// A trace I/O write (v1 writer or the v2 spool).
    TraceWrite = 0,
    /// A new ingest connection being accepted by `loopcomm serve`.
    NetAccept,
    /// A socket read on the server's frame-reassembly path.
    NetFrameRead,
    /// A socket write on the client's spool-streaming path (`NetSink`).
    NetWrite,
    /// A tenant's drain step: one decoded frame about to enter the
    /// tenant's incremental analyzer.
    TenantFlush,
    /// An analysis checkpoint being written (temp file + fsync + rename).
    CheckpointWrite,
    /// A v3 spool side-car index being written (temp file + fsync +
    /// rename).
    IndexWrite,
}

impl FaultSite {
    /// Number of sites.
    pub const COUNT: usize = 7;

    /// Every site, in declaration order.
    pub const ALL: [FaultSite; Self::COUNT] = [
        FaultSite::TraceWrite,
        FaultSite::NetAccept,
        FaultSite::NetFrameRead,
        FaultSite::NetWrite,
        FaultSite::TenantFlush,
        FaultSite::CheckpointWrite,
        FaultSite::IndexWrite,
    ];

    /// The plan-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::TraceWrite => "trace_write",
            FaultSite::NetAccept => "net_accept",
            FaultSite::NetFrameRead => "net_frame_read",
            FaultSite::NetWrite => "net_write",
            FaultSite::TenantFlush => "tenant_flush",
            FaultSite::CheckpointWrite => "checkpoint_write",
            FaultSite::IndexWrite => "index_write",
        }
    }

    /// Parse the plan-file spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|site| site.name() == s)
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic on the hitting thread (a worker dying mid-step).
    Panic,
    /// Sleep this long on the hitting thread (a slow / stuck worker).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Fail the I/O operation with an injected [`io::Error`]; the wrapper
    /// stays wedged so every later write fails too (a dead disk).
    IoError,
    /// Write only this many bytes of the buffer, then wedge (a crash or
    /// disk-full mid-write, leaving a truncated file). On a reader this is
    /// a short *read* then a wedge — a peer disconnecting mid-frame.
    ShortWrite {
        /// Bytes actually written before the writer wedges.
        bytes: usize,
    },
    /// Flip one bit of the buffer in flight (transient corruption — the
    /// I/O succeeds and the wrapper does not wedge; the receiver's CRC is
    /// what should catch it).
    BitFlip {
        /// Which bit to flip, taken modulo the buffer's bit length.
        bit: u64,
    },
}

impl FaultAction {
    fn parse(s: &str) -> Option<Self> {
        if s == "panic" {
            return Some(FaultAction::Panic);
        }
        if s == "io_error" {
            return Some(FaultAction::IoError);
        }
        if let Some(ms) = s.strip_prefix("stall:") {
            return ms.parse().ok().map(|ms| FaultAction::Stall { ms });
        }
        if let Some(b) = s.strip_prefix("short_write:") {
            return b
                .parse()
                .ok()
                .map(|bytes| FaultAction::ShortWrite { bytes });
        }
        if let Some(b) = s.strip_prefix("bit_flip:") {
            return b.parse().ok().map(|bit| FaultAction::BitFlip { bit });
        }
        None
    }
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Stall { ms } => write!(f, "stall:{ms}"),
            FaultAction::IoError => write!(f, "io_error"),
            FaultAction::ShortWrite { bytes } => write!(f, "short_write:{bytes}"),
            FaultAction::BitFlip { bit } => write!(f, "bit_flip:{bit}"),
        }
    }
}

/// One scripted fault: where, what, and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// The injection point this rule watches.
    pub site: FaultSite,
    /// The failure to inject.
    pub action: FaultAction,
    /// Skip the first `after` hits of the site (0 = eligible immediately).
    pub after: u64,
    /// Maximum number of firings (`u64::MAX` = unlimited).
    pub count: u64,
    /// When set, each eligible hit fires with this probability, decided by
    /// a deterministic coin keyed on `(plan seed, site, hit index)`.
    pub prob: Option<f64>,
}

impl FaultRule {
    /// A rule firing exactly once, on hit index `after`.
    pub fn once(site: FaultSite, action: FaultAction, after: u64) -> Self {
        Self {
            site,
            action,
            after,
            count: 1,
            prob: None,
        }
    }
}

/// A malformed plan file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

/// A complete injection script: a seed plus an ordered rule list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic coins (irrelevant for pure hit-count
    /// rules, but always recorded so a plan replays identically).
    pub seed: u64,
    /// The scripted faults. The first matching rule per hit wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The no-fault plan.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parse the plan-file text format (see the crate docs).
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let mut plan = FaultPlan::empty();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let err = |message: String| PlanParseError { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            match words.next() {
                Some("seed") => {
                    let v = words
                        .next()
                        .ok_or_else(|| err("`seed` needs a value".into()))?;
                    plan.seed = v
                        .parse()
                        .map_err(|_| err(format!("bad seed `{v}` (want u64)")))?;
                }
                Some("fault") => {
                    let site_w = words
                        .next()
                        .ok_or_else(|| err("`fault` needs a site".into()))?;
                    let site = FaultSite::parse(site_w)
                        .ok_or_else(|| err(format!("unknown site `{site_w}`")))?;
                    let act_w = words
                        .next()
                        .ok_or_else(|| err("`fault` needs an action".into()))?;
                    let action = FaultAction::parse(act_w)
                        .ok_or_else(|| err(format!("unknown action `{act_w}`")))?;
                    let mut rule = FaultRule::once(site, action, 0);
                    for w in words {
                        if let Some(v) = w.strip_prefix("after=") {
                            rule.after = v.parse().map_err(|_| err(format!("bad after=`{v}`")))?;
                        } else if let Some(v) = w.strip_prefix("count=") {
                            rule.count = if v == "inf" {
                                u64::MAX
                            } else {
                                v.parse().map_err(|_| err(format!("bad count=`{v}`")))?
                            };
                        } else if let Some(v) = w.strip_prefix("prob=") {
                            let p: f64 = v.parse().map_err(|_| err(format!("bad prob=`{v}`")))?;
                            if !(0.0..=1.0).contains(&p) {
                                return Err(err(format!("prob=`{v}` outside [0, 1]")));
                            }
                            rule.prob = Some(p);
                        } else {
                            return Err(err(format!("unknown modifier `{w}`")));
                        }
                    }
                    plan.rules.push(rule);
                }
                Some(other) => {
                    return Err(err(format!(
                        "unknown directive `{other}` (want `seed` or `fault`)"
                    )))
                }
                None => unreachable!("non-empty content has a first word"),
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 — the deterministic coin behind `prob=` rules.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The armed runtime form of a [`FaultPlan`]: per-site hit counters,
/// per-rule firing budgets, and per-site injection telemetry. Shared via
/// `Arc` across every participating component. Decisions are a pure
/// function of `(plan, site, hit index)`, so two runs presenting the same
/// per-site hit order replay the same injections byte-for-byte.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    hits: [AtomicU64; FaultSite::COUNT],
    injected: [AtomicU64; FaultSite::COUNT],
    fired: Vec<AtomicU64>,
}

impl FaultInjector {
    /// Arm a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
        Self {
            plan,
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            fired,
        }
    }

    /// An injector that never fires (the empty plan, armed — used by the
    /// differential tests proving an empty plan is byte-identical to no
    /// injector at all).
    pub fn disarmed() -> Self {
        Self::new(FaultPlan::empty())
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record one hit of `site` and return the action to inject, if any.
    /// The first matching rule with remaining budget wins.
    pub fn check(&self, site: FaultSite) -> Option<FaultAction> {
        let hit = self.hits[site as usize].fetch_add(1, Ordering::Relaxed);
        if self.plan.rules.is_empty() {
            return None;
        }
        for (rule, fired) in self.plan.rules.iter().zip(&self.fired) {
            if rule.site != site || hit < rule.after {
                continue;
            }
            if let Some(p) = rule.prob {
                let coin = splitmix64(
                    self.plan
                        .seed
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(site as u64)
                        .wrapping_add(hit << 3),
                );
                if (coin as f64 / u64::MAX as f64) >= p {
                    continue;
                }
            }
            // Claim one unit of the firing budget; losers fall through to
            // later rules.
            let prev = fired.fetch_add(1, Ordering::Relaxed);
            if prev >= rule.count {
                fired.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            self.injected[site as usize].fetch_add(1, Ordering::Relaxed);
            return Some(rule.action);
        }
        None
    }

    /// [`Self::check`] plus inline execution for the compute sites: a
    /// `Panic` action panics here (with a recognizable message) and a
    /// `Stall` sleeps here. I/O actions make no sense away from a writer
    /// and are ignored.
    pub fn trip(&self, site: FaultSite) {
        match self.check(site) {
            Some(FaultAction::Panic) => panic!("injected fault: panic at {site}"),
            Some(FaultAction::Stall { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms))
            }
            Some(FaultAction::IoError)
            | Some(FaultAction::ShortWrite { .. })
            | Some(FaultAction::BitFlip { .. })
            | None => {}
        }
    }

    /// Times `site` has been reached.
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.hits[site as usize].load(Ordering::Relaxed)
    }

    /// Faults actually injected at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site as usize].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// The error [`FaultyWriter`] injects; its message carries the
/// `"injected I/O fault"` marker tests match on.
pub fn injected_io_error() -> io::Error {
    io::Error::other("injected I/O fault")
}

/// Flip bit `bit % (len * 8)` of `data` in place (no-op on an empty
/// buffer).
fn flip_bit(data: &mut [u8], bit: u64) {
    if data.is_empty() {
        return;
    }
    let i = (bit % (data.len() as u64 * 8)) as usize;
    data[i / 8] ^= 1 << (i % 8);
}

/// A [`Write`] adapter consulting a [`FaultInjector`] at a writer-side
/// site ([`FaultSite::TraceWrite`] by default, [`FaultSite::NetWrite`] for
/// the streaming client) before every underlying write. `IoError` and
/// `ShortWrite` actions wedge the writer: once a fault has fired, every
/// later write (and flush) fails, modelling a dead disk or a torn
/// connection whose stream ends mid-frame. `BitFlip` corrupts the buffer
/// in flight and moves on — the receiver's CRC is the safety net.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    injector: Arc<FaultInjector>,
    site: FaultSite,
    wedged: bool,
}

impl<W: Write> FaultyWriter<W> {
    /// Wrap `inner` at the [`FaultSite::TraceWrite`] site.
    pub fn new(inner: W, injector: Arc<FaultInjector>) -> Self {
        Self::with_site(inner, injector, FaultSite::TraceWrite)
    }

    /// Wrap `inner` at an explicit writer-side site.
    pub fn with_site(inner: W, injector: Arc<FaultInjector>, site: FaultSite) -> Self {
        Self {
            inner,
            injector,
            site,
            wedged: false,
        }
    }

    /// The wrapped writer (e.g. to inspect what survived a wedge).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.wedged {
            return Err(injected_io_error());
        }
        match self.injector.check(self.site) {
            None => self.inner.write(buf),
            Some(FaultAction::Panic) => panic!("injected fault: panic at {}", self.site),
            Some(FaultAction::Stall { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.write(buf)
            }
            Some(FaultAction::IoError) => {
                self.wedged = true;
                Err(injected_io_error())
            }
            Some(FaultAction::ShortWrite { bytes }) => {
                self.wedged = true;
                let n = bytes.min(buf.len());
                if n == 0 {
                    // Ok(0) would make `write_all` report WriteZero, which
                    // is the same degradation with a worse message.
                    return Err(injected_io_error());
                }
                self.inner.write_all(&buf[..n])?;
                // Make the truncation durable before wedging, so salvage
                // tests see exactly the short prefix.
                self.inner.flush()?;
                Err(injected_io_error())
            }
            Some(FaultAction::BitFlip { bit }) => {
                let mut corrupt = buf.to_vec();
                flip_bit(&mut corrupt, bit);
                self.inner.write_all(&corrupt)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.wedged {
            return Err(injected_io_error());
        }
        self.inner.flush()
    }
}

/// A [`Read`](io::Read) adapter consulting a [`FaultInjector`] at a
/// reader-side site (e.g. [`FaultSite::NetFrameRead`] on the server's
/// frame-reassembly path) before every underlying read. `IoError` wedges
/// immediately (an abrupt disconnect); `ShortWrite` delivers at most that
/// many bytes then wedges (a peer dying mid-frame); `BitFlip` corrupts
/// the bytes read and moves on.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    injector: Arc<FaultInjector>,
    site: FaultSite,
    wedged: bool,
}

impl<R: io::Read> FaultyReader<R> {
    /// Wrap `inner` at `site`.
    pub fn with_site(inner: R, injector: Arc<FaultInjector>, site: FaultSite) -> Self {
        Self {
            inner,
            injector,
            site,
            wedged: false,
        }
    }

    /// The wrapped reader.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

impl<R: io::Read> io::Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.wedged {
            return Err(injected_io_error());
        }
        match self.injector.check(self.site) {
            None => self.inner.read(buf),
            Some(FaultAction::Panic) => panic!("injected fault: panic at {}", self.site),
            Some(FaultAction::Stall { ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.read(buf)
            }
            Some(FaultAction::IoError) => {
                self.wedged = true;
                Err(injected_io_error())
            }
            Some(FaultAction::ShortWrite { bytes }) => {
                // Deliver a short prefix of what the peer sent, then wedge:
                // the connection died mid-frame.
                self.wedged = true;
                if bytes == 0 {
                    return Err(injected_io_error());
                }
                let cap = bytes.min(buf.len());
                self.inner.read(&mut buf[..cap])
            }
            Some(FaultAction::BitFlip { bit }) => {
                let n = self.inner.read(buf)?;
                flip_bit(&mut buf[..n], bit);
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }

    #[test]
    fn plan_parses_full_syntax() {
        let plan = FaultPlan::parse(
            "# a comment\n\
             seed 7\n\
             fault trace_write panic after=2\n\
             fault trace_write short_write:13 count=inf  # trailing comment\n\
             fault net_write stall:50 count=3 prob=0.5\n\
             \n\
             fault checkpoint_write io_error\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(
            plan.rules[0],
            FaultRule::once(FaultSite::TraceWrite, FaultAction::Panic, 2)
        );
        assert_eq!(plan.rules[1].action, FaultAction::ShortWrite { bytes: 13 });
        assert_eq!(plan.rules[1].count, u64::MAX);
        assert_eq!(plan.rules[2].prob, Some(0.5));
        assert_eq!(plan.rules[2].count, 3);
    }

    #[test]
    fn plan_rejects_garbage_with_line_numbers() {
        for (text, want_line) in [
            ("fault nowhere panic", 1),
            ("seed 1\nfault trace_write explode", 2),
            ("fault trace_write panic after=x", 1),
            ("seed\n", 1),
            ("faults trace_write panic", 1),
            ("fault trace_write panic prob=2.0", 1),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert_eq!(err.line, want_line, "{text:?} -> {err}");
            assert!(err.to_string().contains("fault plan line"), "{err}");
        }
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::disarmed();
        for _ in 0..100 {
            assert_eq!(inj.check(FaultSite::TraceWrite), None);
            inj.trip(FaultSite::NetWrite);
        }
        assert_eq!(inj.hits(FaultSite::TraceWrite), 100);
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn after_and_count_gate_firings() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                site: FaultSite::TraceWrite,
                action: FaultAction::IoError,
                after: 3,
                count: 2,
                prob: None,
            }],
        };
        let inj = FaultInjector::new(plan);
        let fired: Vec<bool> = (0..8)
            .map(|_| inj.check(FaultSite::TraceWrite).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, false, false, true, true, false, false, false]
        );
        assert_eq!(inj.injected(FaultSite::TraceWrite), 2);
        // Other sites unaffected.
        assert_eq!(inj.check(FaultSite::NetWrite), None);
    }

    #[test]
    fn probabilistic_rules_replay_deterministically() {
        let plan = FaultPlan {
            seed: 99,
            rules: vec![FaultRule {
                site: FaultSite::TenantFlush,
                action: FaultAction::Panic,
                after: 0,
                count: u64::MAX,
                prob: Some(0.3),
            }],
        };
        let run = || -> Vec<bool> {
            let inj = FaultInjector::new(plan.clone());
            (0..200)
                .map(|_| inj.check(FaultSite::TenantFlush).is_some())
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan + same hit order must replay identically");
        let hits = a.iter().filter(|f| **f).count();
        assert!((20..120).contains(&hits), "p=0.3 of 200 fired {hits} times");
        // A different seed flips some decisions.
        let mut other = plan.clone();
        other.seed = 100;
        let inj = FaultInjector::new(other);
        let c: Vec<bool> = (0..200)
            .map(|_| inj.check(FaultSite::TenantFlush).is_some())
            .collect();
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn trip_panics_on_panic_action() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TraceWrite,
                FaultAction::Panic,
                0,
            )],
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.trip(FaultSite::TraceWrite)
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        // Budget spent: the next trip is clean.
        inj.trip(FaultSite::TraceWrite);
    }

    #[test]
    fn faulty_writer_short_write_then_wedges() {
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TraceWrite,
                FaultAction::ShortWrite { bytes: 5 },
                1,
            )],
        }));
        let mut w = FaultyWriter::new(Vec::new(), inj.clone());
        w.write_all(b"0123456789").unwrap(); // hit 0: passes through
        let err = w.write_all(b"abcdefghij").unwrap_err(); // hit 1: 5 bytes
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(w.get_ref().as_slice(), b"0123456789abcde");
        // Wedged: everything after fails without touching the file.
        assert!(w.write_all(b"zz").is_err());
        assert!(w.flush().is_err());
        assert_eq!(w.get_ref().as_slice(), b"0123456789abcde");
    }

    #[test]
    fn faulty_writer_io_error_wedges_without_writing() {
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::TraceWrite,
                FaultAction::IoError,
                0,
            )],
        }));
        let mut w = FaultyWriter::new(Vec::new(), inj);
        assert!(w.write_all(b"hello").is_err());
        assert!(w.get_ref().is_empty());
    }

    #[test]
    fn faulty_writer_passthrough_when_disarmed() {
        let mut w = FaultyWriter::new(Vec::new(), Arc::new(FaultInjector::disarmed()));
        w.write_all(b"clean").unwrap();
        w.flush().unwrap();
        assert_eq!(w.get_ref().as_slice(), b"clean");
    }

    #[test]
    fn faulty_writer_bit_flip_is_transient() {
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::NetWrite,
                FaultAction::BitFlip { bit: 3 },
                0,
            )],
        }));
        let mut w = FaultyWriter::with_site(Vec::new(), inj, FaultSite::NetWrite);
        w.write_all(&[0u8; 4]).unwrap(); // hit 0: bit 3 of byte 0 flipped
        w.write_all(&[0u8; 2]).unwrap(); // clean: budget spent, no wedge
        w.flush().unwrap();
        assert_eq!(w.get_ref().as_slice(), &[0b1000, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn faulty_reader_short_read_then_wedges() {
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::NetFrameRead,
                FaultAction::ShortWrite { bytes: 3 },
                1,
            )],
        }));
        let data: &[u8] = b"0123456789";
        let mut r = FaultyReader::with_site(data, inj, FaultSite::NetFrameRead);
        let mut buf = [0u8; 5];
        assert_eq!(r.read(&mut buf).unwrap(), 5); // hit 0: clean
        assert_eq!(&buf, b"01234");
        assert_eq!(r.read(&mut buf).unwrap(), 3); // hit 1: short, then wedge
        assert_eq!(&buf[..3], b"567");
        assert!(r.read(&mut buf).is_err());
    }

    #[test]
    fn faulty_reader_io_error_is_abrupt_disconnect() {
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::NetFrameRead,
                FaultAction::IoError,
                0,
            )],
        }));
        let data: &[u8] = b"payload";
        let mut r = FaultyReader::with_site(data, inj, FaultSite::NetFrameRead);
        let mut buf = [0u8; 4];
        assert!(r.read(&mut buf).is_err());
        assert!(r.read(&mut buf).is_err()); // wedged for good
    }

    #[test]
    fn faulty_reader_bit_flip_corrupts_only_read_bytes() {
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            seed: 0,
            rules: vec![FaultRule::once(
                FaultSite::NetFrameRead,
                // 8 * 4 + 1: reduces mod the 4 bytes actually read.
                FaultAction::BitFlip { bit: 33 },
                0,
            )],
        }));
        let data: &[u8] = &[0u8; 4];
        let mut r = FaultyReader::with_site(data, inj, FaultSite::NetFrameRead);
        let mut buf = [0xffu8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], &[0b10, 0, 0, 0]);
        assert_eq!(&buf[4..], &[0xff; 4]); // untouched past the read length
    }

    #[test]
    fn new_sites_and_bit_flip_round_trip_through_plan_text() {
        let plan = FaultPlan::parse(
            "seed 9\n\
             fault net_accept io_error after=1 count=1\n\
             fault net_frame_read bit_flip:17 after=2 count=3\n\
             fault net_write short_write:5 after=0 count=1\n\
             fault tenant_flush panic after=0 count=1\n",
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].site, FaultSite::NetAccept);
        assert_eq!(plan.rules[1].site, FaultSite::NetFrameRead);
        assert_eq!(plan.rules[1].action, FaultAction::BitFlip { bit: 17 });
        assert_eq!(plan.rules[3].site, FaultSite::TenantFlush);
        // Display round-trips.
        assert_eq!(plan.rules[1].action.to_string(), "bit_flip:17");
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
    }
}
