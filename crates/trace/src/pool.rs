//! A pool of shards drained by whichever worker is free.
//!
//! A [`ShardPool`] holds `n` [`Shard`]s, each with a FIFO of chunks. One
//! thread, the router, fills a chunk per shard and [`push`](ShardPool::push)es
//! it when full. Workers — the router itself and any number of helper
//! threads running [`ShardPool::serve`] — claim a shard that has queued
//! chunks and no holder, run its oldest chunk and release it. A shard is
//! held by at most one thread at a time and its chunks leave its queue in
//! push order, so every shard sees its items in stream order, whichever
//! threads ran them.
//!
//! The router keeps the helpers fed and no further: after a push it runs
//! queued chunks itself while more are queued than a set backlog per
//! helper, or while every chunk buffer is out; it parks only when all buffers are
//! out and every queued chunk belongs to a held shard. At most `n +
//! spare` buffers exist, so a pool whose workers fall behind stalls the
//! router instead of growing memory.
//!
//! [`ShardPool::finish`] queues the last chunks, and then every worker
//! runs what is queued and turns each drained shard into its report, the
//! router included. A panic while a worker runs a shard fails the pool:
//! [`Failed`] names the shard and the panic's message, every waiting
//! thread wakes, and the router's next `push` or `finish` returns it.
//! Nothing waits on a dead worker.
//!
//! Built on [`crate::handoff`]'s sync facade, so `loopcomm simtest shards`
//! explores the pool's interleavings under the `sched` feature.
//!
//! User: the coherence backend's cache-set shards
//! (`lc_cachesim::ShardedCoherence`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::handoff::{lock, mutant, panic_message, try_lock, wait, Condvar, Mutex, MutexGuard};

/// Work that one thread does on its own state, a chunk at a time.
pub trait Shard: Send {
    /// What a chunk holds.
    type Item: Send;
    /// What the shard ends as.
    type Report: Send;
    /// Take in the next chunk of this shard's items, in stream order.
    fn run_chunk(&mut self, chunk: &[Self::Item]);
    /// The shard's result, once every chunk has run.
    fn into_report(self) -> Self::Report;
}

/// Why a pool stopped: shard `shard`'s worker panicked with `why`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failed {
    /// The shard being run.
    pub shard: usize,
    /// The panic's message.
    pub why: String,
}

/// A shard's state: running, reported, or reported and taken.
enum Slot<S: Shard> {
    Live(S),
    Done(S::Report),
    Taken,
}

/// One claimed piece of work on shard `k`: its oldest chunk, or (once
/// the pool finishes and its queue is empty) its report.
enum Job<T> {
    Chunk(usize, Vec<T>),
    Report(usize),
}

struct State<T> {
    /// Per shard, the chunks pushed and not yet claimed, oldest first.
    queues: Vec<VecDeque<Vec<T>>>,
    /// Per shard, whether a worker holds it.
    held: Vec<bool>,
    /// Per shard, whether its report has been claimed.
    reported: Vec<bool>,
    /// Shards whose report is not built yet.
    reports_left: usize,
    /// Chunks queued over all shards.
    queued: usize,
    /// Emptied chunk buffers waiting for reuse.
    free: Vec<Vec<T>>,
    /// Buffers in existence: being filled, queued or running.
    out: usize,
    /// Where the next claim starts looking, so no shard is passed over
    /// for long.
    cursor: usize,
    finishing: bool,
    /// Dropped without finishing: the helpers leave.
    closed: bool,
    failed: Option<Failed>,
    /// Helpers parked on `work`.
    idle: usize,
    /// The router is parked on `room`.
    router_waits: bool,
}

/// `n` shards, each with a FIFO of chunks, drained by whichever worker is
/// free (see the [module docs](self)).
pub struct ShardPool<S: Shard> {
    state: Mutex<State<S::Item>>,
    /// Locked only by the thread holding the shard, so never contended.
    slots: Vec<Mutex<Slot<S>>>,
    /// Chunks queued before the router runs one itself.
    backlog: usize,
    chunk: usize,
    /// Most buffers in existence.
    buffers: usize,
    /// Helpers wait here for work.
    work: Condvar,
    /// The router waits here for a buffer or a report.
    room: Condvar,
}

impl<S: Shard> ShardPool<S> {
    /// A pool over `shards`, to be drained by the router and `helpers`
    /// threads calling [`Self::serve`], with chunks of `chunk` items.
    /// The router leaves up to `backlog` queued chunks per helper to the
    /// helpers, and at most `spare` buffers exist beyond the one per shard
    /// being filled. Also returns the router's fill buffers, one per
    /// shard.
    pub fn new(
        shards: Vec<S>,
        helpers: usize,
        backlog: usize,
        chunk: usize,
        spare: usize,
    ) -> (Self, Vec<Vec<S::Item>>) {
        let n = shards.len();
        assert!(
            n >= 1 && spare >= 1,
            "a pool needs a shard and a spare buffer"
        );
        let pool = Self {
            state: Mutex::new(State {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                held: vec![false; n],
                reported: vec![false; n],
                reports_left: n,
                queued: 0,
                free: Vec::new(),
                out: n,
                cursor: 0,
                finishing: false,
                closed: false,
                failed: None,
                idle: 0,
                router_waits: false,
            }),
            slots: shards
                .into_iter()
                .map(|s| Mutex::new(Slot::Live(s)))
                .collect(),
            backlog: backlog * helpers,
            chunk,
            buffers: n + spare,
            work: Condvar::default(),
            room: Condvar::default(),
        };
        let fill = (0..n).map(|_| Vec::with_capacity(chunk)).collect();
        (pool, fill)
    }

    /// Queue the full chunk `full` for shard `k` and take an empty buffer
    /// back. Before returning, run queued chunks here while more are
    /// queued than the helpers' backlog, or while no buffer is free; wait
    /// only when neither is possible. `Err` once a worker has failed.
    pub fn push(&self, k: usize, full: Vec<S::Item>) -> Result<Vec<S::Item>, Failed> {
        let mut s = lock(&self.state);
        if let Some(f) = &s.failed {
            return Err(f.clone());
        }
        s.queues[k].push_back(full);
        s.queued += 1;
        if !s.held[k] && s.idle > 0 {
            self.work.notify_one();
        }
        loop {
            if let Some(f) = &s.failed {
                return Err(f.clone());
            }
            let starved = s.free.is_empty() && s.out == self.buffers;
            if s.queued > self.backlog || starved {
                if let Some(job) = self.claim(&mut s) {
                    s = self.step(s, job);
                    continue;
                }
            }
            if !starved {
                return Ok(match s.free.pop() {
                    Some(buf) => buf,
                    None => {
                        s.out += 1;
                        Vec::with_capacity(self.chunk)
                    }
                });
            }
            s.router_waits = true;
            s = wait(&self.room, s);
            s.router_waits = false;
        }
    }

    /// Queue each shard's last chunk (`last[k]`, possibly empty), then run
    /// queued chunks and build reports alongside the helpers until every
    /// shard is reported: the reports, in shard order.
    pub fn finish(&self, last: Vec<Vec<S::Item>>) -> Result<Vec<S::Report>, Failed> {
        let mut s = lock(&self.state);
        for (k, buf) in last.into_iter().enumerate() {
            if buf.is_empty() {
                s.out -= 1;
            } else {
                s.queues[k].push_back(buf);
                s.queued += 1;
            }
        }
        s.finishing = true;
        self.work.notify_all();
        loop {
            if let Some(f) = &s.failed {
                return Err(f.clone());
            }
            if s.reports_left == 0 {
                break;
            }
            match self.claim(&mut s) {
                Some(job) => s = self.step(s, job),
                None => {
                    s.router_waits = true;
                    s = wait(&self.room, s);
                    s.router_waits = false;
                }
            }
        }
        drop(s);
        let reports = (self.slots.iter())
            .map(
                |slot| match std::mem::replace(&mut *lock(slot), Slot::Taken) {
                    Slot::Done(report) => report,
                    _ => unreachable!("every shard is reported once reports_left is 0"),
                },
            )
            .collect();
        Ok(reports)
    }

    /// A helper's loop: run whatever is claimable, park while nothing is,
    /// and return once every shard is reported, a worker failed or the
    /// pool was closed.
    pub fn serve(&self) {
        let mut s = lock(&self.state);
        loop {
            if s.failed.is_some() || s.closed || s.reports_left == 0 {
                return;
            }
            match self.claim(&mut s) {
                Some(job) => s = self.step(s, job),
                None => {
                    s.idle += 1;
                    s = wait(&self.work, s);
                    s.idle -= 1;
                }
            }
        }
    }

    /// End the pool without finishing it: the helpers return from
    /// [`Self::serve`] once their current chunk is done.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.work.notify_all();
        self.room.notify_all();
    }

    /// Claim the oldest chunk of an unheld shard with queued chunks, or,
    /// once finishing, the report of an unheld shard with none; start
    /// looking at the cursor.
    fn claim(&self, s: &mut State<S::Item>) -> Option<Job<S::Item>> {
        let n = s.queues.len();
        for i in 0..n {
            let k = (s.cursor + i) % n;
            // Mutant: take a shard another worker holds, which runs one
            // shard on two threads (the `shards` scenario).
            if s.held[k] && !mutant("pool-claim-held-shard") {
                continue;
            }
            if let Some(chunk) = s.queues[k].pop_front() {
                s.queued -= 1;
                s.held[k] = true;
                s.cursor = (k + 1) % n;
                return Some(Job::Chunk(k, chunk));
            }
            if s.finishing && !s.reported[k] {
                s.held[k] = true;
                s.reported[k] = true;
                return Some(Job::Report(k));
            }
        }
        None
    }

    /// Run a claimed job with the state unlocked, then release its shard
    /// and recycle its buffer under the lock again. A panic in the job
    /// fails the pool.
    fn step<'a>(
        &'a self,
        s: MutexGuard<'a, State<S::Item>>,
        job: Job<S::Item>,
    ) -> MutexGuard<'a, State<S::Item>> {
        drop(s);
        let k = match &job {
            Job::Chunk(k, _) | Job::Report(k) => *k,
        };
        let mut buf = None;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut slot = try_lock(&self.slots[k])
                .unwrap_or_else(|| panic!("shard {k} is held by two workers"));
            match job {
                Job::Chunk(_, chunk) => {
                    if let Slot::Live(shard) = &mut *slot {
                        shard.run_chunk(&chunk);
                    }
                    buf = Some(chunk);
                }
                Job::Report(_) => {
                    if let Slot::Live(shard) = std::mem::replace(&mut *slot, Slot::Taken) {
                        *slot = Slot::Done(shard.into_report());
                    }
                }
            }
        }));
        let mut s = lock(&self.state);
        if let Err(payload) = ran {
            #[cfg(feature = "sched")]
            if lc_sched::is_abort(&*payload) {
                drop(s);
                std::panic::resume_unwind(payload);
            }
            s.failed.get_or_insert(Failed {
                shard: k,
                why: panic_message(&*payload),
            });
            self.work.notify_all();
            self.room.notify_all();
            return s;
        }
        s.held[k] = false;
        match buf {
            Some(mut chunk) => {
                chunk.clear();
                s.free.push(chunk);
            }
            None => s.reports_left -= 1,
        }
        if s.router_waits {
            self.room.notify_one();
        }
        if s.idle > 0 {
            if s.reports_left == 0 {
                self.work.notify_all();
            } else if !s.queues[k].is_empty() || (s.finishing && !s.reported[k]) {
                self.work.notify_one();
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handoff::Helper;
    use std::sync::Arc;

    /// Records what it ran, in order, and panics on `PANIC`.
    #[derive(Default)]
    struct Log(Vec<u32>);

    const PANIC: u32 = u32::MAX;

    impl Shard for Log {
        type Item = u32;
        type Report = Vec<u32>;
        fn run_chunk(&mut self, chunk: &[u32]) {
            assert!(!chunk.contains(&PANIC), "injected shard panic");
            self.0.extend_from_slice(chunk);
        }
        fn into_report(self) -> Vec<u32> {
            self.0
        }
    }

    fn logs(n: usize) -> Vec<Log> {
        (0..n).map(|_| Log::default()).collect()
    }

    /// Route `0..items` (item `i` to shard `i % n`) through a pool of `n`
    /// shards and `helpers` helper threads in chunks of 3.
    fn run(n: usize, helpers: usize, items: u32) -> Result<Vec<Vec<u32>>, Failed> {
        let (pool, mut fill) = ShardPool::new(logs(n), helpers, 1, 3, 2);
        let pool = Arc::new(pool);
        let threads: Vec<_> = (0..helpers)
            .map(|h| {
                let pool = Arc::clone(&pool);
                Helper::spawn(format!("pool-helper-{h}"), move || pool.serve()).unwrap()
            })
            .collect();
        let route = |fill: &mut Vec<Vec<u32>>, k: usize, item: u32| -> Result<(), Failed> {
            fill[k].push(item);
            if fill[k].len() == 3 {
                let full = std::mem::take(&mut fill[k]);
                fill[k] = pool.push(k, full)?;
            }
            Ok(())
        };
        let outcome = (|| {
            for i in 0..items {
                route(&mut fill, i as usize % n, i)?;
            }
            pool.finish(std::mem::take(&mut fill))
        })();
        pool.close();
        for t in threads {
            t.join().unwrap();
        }
        outcome
    }

    #[test]
    fn every_shard_sees_its_items_in_order_whatever_the_workers() {
        for n in [1, 2, 4] {
            for helpers in [0, 1, 3] {
                let got = run(n, helpers, 1000).unwrap();
                for (k, seen) in got.iter().enumerate() {
                    let want: Vec<u32> = (0..1000).filter(|i| *i as usize % n == k).collect();
                    assert_eq!(*seen, want, "shard {k} of {n}, {helpers} helper(s)");
                }
            }
        }
    }

    /// A chunk no more deeply queued than the helpers take is left to a
    /// helper; its panic reaches the router's `finish`.
    #[test]
    fn a_panicking_helper_fails_finish() {
        let (pool, mut fill) = ShardPool::new(logs(2), 1, 1, 3, 2);
        fill[1].extend([1, PANIC, 3]);
        let full = std::mem::take(&mut fill[1]);
        fill[1] = pool.push(1, full).unwrap();
        assert_eq!(lock(&pool.state).queued, 1, "left for the helper");
        let pool = Arc::new(pool);
        let helper = Helper::spawn("pool-helper".into(), {
            let pool = Arc::clone(&pool);
            move || pool.serve()
        })
        .unwrap();
        helper.join().unwrap();
        let failed = pool.finish(fill).unwrap_err();
        assert_eq!(failed.shard, 1);
        assert_eq!(failed.why, "injected shard panic");
    }

    #[test]
    fn no_more_buffers_than_shards_and_spares_exist() {
        let (pool, mut fill) = ShardPool::new(logs(2), 0, 1, 3, 1);
        for round in 0..10u32 {
            for (k, buf) in fill.iter_mut().enumerate() {
                buf.extend([round, round, round]);
                *buf = pool.push(k, std::mem::take(buf)).unwrap();
            }
            assert!(lock(&pool.state).out <= 3);
        }
        let got = pool.finish(fill).unwrap();
        assert_eq!(got[0], (0..10).flat_map(|r| [r, r, r]).collect::<Vec<_>>());
    }
}
