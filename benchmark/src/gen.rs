//! Deterministic input generators: the same `(pattern, seed, events)` gives
//! the same event stream, frame for frame, on every run and every host.

use loopcomm::lc_trace::{self, AccessEvent, AccessKind, FuncId, LoopId, StampedEvent};

/// Events per generated frame — the CLI's own default
/// ([`lc_trace::DEFAULT_FRAME_EVENTS`]), so spool segments and wire frames
/// have the size `record`/`synth`/`stream` would give them.
pub const FRAME_EVENTS: usize = lc_trace::DEFAULT_FRAME_EVENTS;

/// Threads in both patterns (the matrix dimension of every trace workload).
pub const THREADS: u32 = 8;

const RING_WORDS: u64 = 64;
const RING_LOOPS: u64 = 8;
/// The ring's 512 words fill one 4 KiB page; the page moves on every this
/// many rounds (256 Ki events). Which L1 sets 512 hashed signature slots
/// land on is luck: with the page fixed for a whole run, throughput of the
/// same binary differed by 15 % between seeds. A run of 15 M events now
/// averages over ~57 layouts instead of sampling one.
const RING_EPOCH_ROUNDS: u64 = 256;
const RING_PAGES: u64 = 4096;
const UNIFORM_WORKING_SET: u64 = 65_536;

/// Which access pattern to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `replay_scaling::synth_trace`'s producer/consumer ring: each of 8
    /// threads writes its own 64-word block and reads its ring-neighbour's,
    /// loop id `1 + round % 8`. 512 hot words: every signature line stays in
    /// L1, so detection is as cheap as it gets. The seed picks the first
    /// page and rotates which thread starts a round; the page then advances
    /// every [`RING_EPOCH_ROUNDS`] rounds.
    Ring,
    /// `lc_trace::synth_event(i, 2·seed+1, 8, 65_536, 0.0)` — what
    /// `loopcomm synth --seed 2·seed+1` writes. Uniform over 64 Ki words: at
    /// the CLI's 2^20 slots every probe misses cache.
    Uniform,
}

impl Pattern {
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Ring => "ring",
            Pattern::Uniform => "uniform",
        }
    }

    /// Event `i` of the stream for `seed`.
    fn event(self, i: u64, seed: u64) -> StampedEvent {
        match self {
            // `synth_event` uses `seed | 1`, so seeds 2k and 2k+1 would be
            // one stream; 2·seed+1 keeps every benchmark seed distinct.
            Pattern::Uniform => lc_trace::synth_event(
                i,
                seed.wrapping_mul(2) | 1,
                THREADS,
                UNIFORM_WORKING_SET,
                0.0,
            ),
            Pattern::Ring => {
                // One round = every thread in turn doing 64 (write own
                // word, read neighbour's word) pairs.
                let per_thread = 2 * RING_WORDS;
                let per_round = per_thread * THREADS as u64;
                let round = i / per_round;
                let in_round = i % per_round;
                let tid = (in_round / per_thread + seed) % THREADS as u64;
                let word = in_round % per_thread / 2;
                let (block, kind) = if in_round.is_multiple_of(2) {
                    (tid, AccessKind::Write)
                } else {
                    ((tid + 1) % THREADS as u64, AccessKind::Read)
                };
                let page = (seed + round / RING_EPOCH_ROUNDS) % RING_PAGES;
                let base = 0x1000 + page * 4096;
                StampedEvent {
                    seq: i,
                    event: AccessEvent {
                        tid: tid as u32,
                        addr: base + (block * RING_WORDS + word) * 8,
                        size: 8,
                        kind,
                        loop_id: LoopId(1 + (round % RING_LOOPS) as u32),
                        parent_loop: LoopId::NONE,
                        func: FuncId::NONE,
                        site: 0,
                    },
                }
            }
        }
    }
}

/// Streams one pattern frame by frame, fingerprinting what it hands out.
pub struct EventGen {
    pattern: Pattern,
    seed: u64,
    next: u64,
    total: u64,
    fingerprint: Fnv1a,
}

impl EventGen {
    pub fn new(pattern: Pattern, seed: u64, events: u64) -> Self {
        Self {
            pattern,
            seed,
            next: 0,
            total: events,
            fingerprint: Fnv1a::new(),
        }
    }

    /// Refill `frame` with the next [`FRAME_EVENTS`] events (fewer at the
    /// end); `false` once the stream is exhausted.
    pub fn next_frame(&mut self, frame: &mut Vec<StampedEvent>) -> bool {
        frame.clear();
        let end = (self.next + FRAME_EVENTS as u64).min(self.total);
        for i in self.next..end {
            let e = self.pattern.event(i, self.seed);
            self.fingerprint.event(&e);
            frame.push(e);
        }
        self.next = end;
        !frame.is_empty()
    }

    /// Fingerprint of every event handed out so far.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.0
    }
}

/// FNV-1a folded over 64-bit words instead of bytes (five multiplies per
/// event, not forty-one): two result files with equal fingerprints and
/// event counts measured the same input.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn event(&mut self, e: &StampedEvent) {
        let ev = &e.event;
        self.word(e.seq);
        self.word(ev.addr);
        self.word((ev.tid as u64) << 32 | ev.size as u64);
        self.word((matches!(ev.kind, AccessKind::Write) as u64) << 32 | ev.loop_id.0 as u64);
        self.word((ev.parent_loop.0 as u64) << 32 | ev.func.0 as u64);
        self.word(ev.site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(pattern: Pattern, seed: u64, events: u64) -> (Vec<StampedEvent>, u64) {
        let mut g = EventGen::new(pattern, seed, events);
        let (mut all, mut frame) = (Vec::new(), Vec::new());
        while g.next_frame(&mut frame) {
            assert!(frame.len() <= FRAME_EVENTS);
            all.extend_from_slice(&frame);
        }
        (all, g.fingerprint())
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for pattern in [Pattern::Ring, Pattern::Uniform] {
            let (a, fa) = collect(pattern, 42, 10_000);
            let (b, fb) = collect(pattern, 42, 10_000);
            let (c, fc) = collect(pattern, 43, 10_000);
            assert_eq!(a.len(), 10_000);
            assert!(a == b && fa == fb, "{pattern:?} must repeat");
            assert!(a != c && fa != fc, "{pattern:?} must depend on the seed");
            assert!(a.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        }
    }

    #[test]
    fn ring_is_the_replay_scaling_pattern() {
        // Seed 0 = unrotated, base page 0x1000: thread 0 opens round 0 by
        // writing its word 0 then reading thread 1's word 0.
        let (evs, _) = collect(Pattern::Ring, 0, 2 * 1024);
        assert_eq!((evs[0].event.tid, evs[0].event.addr), (0, 0x1000));
        assert_eq!(evs[0].event.kind, AccessKind::Write);
        assert_eq!((evs[1].event.tid, evs[1].event.addr), (0, 0x1000 + 64 * 8));
        assert_eq!(evs[1].event.kind, AccessKind::Read);
        // Thread 7 reads thread 0's block (the ring closes).
        let last = &evs[1023].event;
        assert_eq!((last.tid, last.addr), (7, 0x1000 + 63 * 8));
        // 512 distinct words, 8 threads, loop id advances per round.
        let mut addrs: Vec<u64> = evs.iter().map(|e| e.event.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 512);
        assert_eq!(evs[1023].event.loop_id, LoopId(1));
        assert_eq!(evs[1024].event.loop_id, LoopId(2));
        // The seed rotates the starting thread and moves the base page.
        let (rot, _) = collect(Pattern::Ring, 3, 4);
        assert_eq!(
            (rot[0].event.tid, rot[0].event.addr),
            (3, 0x1000 + 3 * 4096 + 3 * 64 * 8)
        );
        // After 256 rounds the whole pattern moves to the next page.
        let epoch = 256 * 1024;
        let (long, _) = collect(Pattern::Ring, 0, epoch + 1);
        assert_eq!(long[epoch as usize - 1].event.addr, 0x1000 + 63 * 8);
        assert_eq!(long[epoch as usize].event.addr, 0x1000 + 4096);
    }

    #[test]
    fn uniform_is_what_loopcomm_synth_writes() {
        let (evs, _) = collect(Pattern::Uniform, 7, 100);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(*e, lc_trace::synth_event(i as u64, 15, 8, 65_536, 0.0));
        }
    }
}
