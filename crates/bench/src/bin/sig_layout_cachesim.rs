//! Validate signature-memory layout candidates against the cache model.
//!
//! The batched-replay post-mortem (DESIGN.md §12) blames much of the old
//! hot-loop cost on memory layout: a `Box<ConcurrentBloom>` per slot put
//! every read-signature insert behind a pointer chase into an
//! allocator-scattered heap chunk, and the unblocked probe schedule spread
//! the k probe bits across the whole filter. This binary replays the
//! profiler's *own* recorded access stream (a SPLASH-style workload
//! captured through `RecordingSink`) against [`lc_cachesim::Cache`] and
//! counts the cache lines each candidate layout would touch and miss per
//! read-signature insert:
//!
//! * `ptrchase-unblocked` — PR-4 layout: slot pointer array → scattered
//!   heap chunk, k probes over the whole filter;
//! * `ptrchase-blocked`   — same indirection, probes confined to one
//!   512-bit block;
//! * `arena-unblocked`    — segment pointer array → contiguous arena
//!   lines, unblocked probes;
//! * `arena-blocked`      — the layout before the slot signature: arena
//!   storage plus block-local probes (`BloomGeometry::probe_bit`);
//! * `slot-words`         — the shipped layout ([`lc_sigmem::SlotSignature`]):
//!   the reader bits sit in the slot's `w` words beside the last writer,
//!   no indirection. The four filter layouts above also touch a separate
//!   4-byte write-signature slot per access, which this count leaves out;
//!   `slot-words` needs no such line.
//!
//! All filter candidates share the real probe schedule
//! ([`lc_sigmem::hash_pair`] + [`BloomGeometry::probe_bit`]) and the real
//! slot router ([`lc_sigmem::slot_of_hash`]), so the line streams differ
//! only by layout — the variable under test. Results land in
//! `results/sig_layout_cachesim.csv`.
//!
//! Environment knobs: `BENCH_WORKLOAD` (default `radix`), `BENCH_SLOTS`
//! (default 4096), `BENCH_SEED` (default 7).

use std::sync::Arc;

use lc_bench::{ascii_table, save_csv};
use lc_cachesim::{Cache, CacheConfig, Mesi};
use lc_sigmem::murmur::fmix64;
use lc_sigmem::{hash_pair, slot_of_hash, slot_words, BloomGeometry};
use lc_trace::{AccessKind, RecordingSink, Trace, TraceCtx};
use lc_workloads::{by_name, InputSize, RunConfig};

/// Allocator chunk for one boxed filter: payload + `Box`/allocator
/// overhead, rounded to whole lines so chunks never share a line (jemalloc
/// and glibc both line-align chunks of this size class).
fn heap_chunk_bytes(geom: &BloomGeometry) -> u64 {
    ((geom.bytes_per_filter() as u64 + 48) / 64 + 1) * 64
}

/// First-touch heap placement for the pointer-chasing layouts: boxed
/// filters are allocated in the order their slots are first hit, which for
/// a hashed slot index is effectively random in slot order. A fmix64-keyed
/// sort gives a deterministic stand-in for that scatter.
fn scattered_placement(n_slots: usize) -> Vec<u64> {
    let mut order: Vec<usize> = (0..n_slots).collect();
    order.sort_by_key(|&s| fmix64(s as u64 ^ 0x9e37_79b9_7f4a_7c15));
    let mut place = vec![0u64; n_slots];
    for (rank, &slot) in order.iter().enumerate() {
        place[slot] = rank as u64;
    }
    place
}

struct Layout {
    name: &'static str,
    arena: bool,
    blocked: bool,
    /// Reader bits in the slot's own words (`arena`/`blocked` unused).
    slot: bool,
}

const LAYOUTS: [Layout; 5] = [
    Layout {
        name: "ptrchase-unblocked",
        arena: false,
        blocked: false,
        slot: false,
    },
    Layout {
        name: "ptrchase-blocked",
        arena: false,
        blocked: true,
        slot: false,
    },
    Layout {
        name: "arena-unblocked",
        arena: true,
        blocked: false,
        slot: false,
    },
    Layout {
        name: "arena-blocked",
        arena: true,
        blocked: true,
        slot: false,
    },
    Layout {
        name: "slot-words",
        arena: false,
        blocked: false,
        slot: true,
    },
];

/// Cache lines one read-signature insert touches under `layout`, for a
/// signature of `sig_threads` readers.
#[allow(clippy::too_many_arguments)]
fn touched_lines(
    layout: &Layout,
    geom: &BloomGeometry,
    unblocked: &BloomGeometry,
    place: &[u64],
    addr: u64,
    n_slots: usize,
    sig_threads: usize,
    lines: &mut Vec<u64>,
) {
    lines.clear();
    let h = fmix64(addr);
    let slot = slot_of_hash(h, n_slots);
    if layout.slot {
        // One 64-byte-aligned table of `w`-word slots: a slot of up to
        // eight words never straddles a line.
        lines.push(slot as u64 * slot_words(sig_threads) as u64 * 8 / 64);
        return;
    }
    let (ha, hb) = hash_pair(addr);
    // Address-space map (line numbers, disjoint regions):
    //   [0 ..)                 slot/segment pointer array
    //   [PTR_REGION ..)        filter storage (heap chunks or arena)
    const PTR_REGION: u64 = 1 << 20;
    let (filter_base_line, indirection_line) = if layout.arena {
        // Segment pointer array: 8-byte pointers, one per 64-slot segment;
        // arena storage is contiguous, filters line-aligned.
        let seg_ptr = (slot as u64 / 64) * 8 / 64;
        let wpf = geom.words_per_filter() as u64;
        let base = PTR_REGION + slot as u64 * wpf * 8 / 64;
        (base, seg_ptr)
    } else {
        // Per-slot `Box` pointer array; chunk placement is first-touch
        // scattered.
        let slot_ptr = slot as u64 * 8 / 64;
        let base = PTR_REGION + place[slot] * heap_chunk_bytes(geom) / 64;
        (base, slot_ptr)
    };
    lines.push(indirection_line);
    let probe_geom = if layout.blocked { geom } else { unblocked };
    for i in 0..probe_geom.k {
        let bit = probe_geom.probe_bit(ha, hb, i);
        lines.push(filter_base_line + (bit as u64 / 8) / 64);
    }
    lines.sort_unstable();
    lines.dedup();
}

fn main() {
    let workload = std::env::var("BENCH_WORKLOAD").unwrap_or_else(|_| "radix".into());
    let n_slots: usize = std::env::var("BENCH_SLOTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    let seed: u64 = std::env::var("BENCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    let threads = 8;
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), threads);
    by_name(&workload)
        .expect("workload exists")
        .run(&ctx, &RunConfig::new(threads, InputSize::SimDev, seed));
    let trace: Trace = rec.finish();
    let reads: Vec<u64> = trace
        .access_events()
        .iter()
        .filter(|ev| ev.kind == AccessKind::Read)
        .map(|ev| ev.addr)
        .collect();
    println!(
        "\nSignature-layout cache simulation: workload {workload}, \
         {} events ({} read inserts), {n_slots} slots, L1 {} KiB\n",
        trace.len(),
        reads.len(),
        CacheConfig::small_l1().capacity() / 1024,
    );

    let place = scattered_placement(n_slots);
    let mut rows = Vec::new();
    for sig_threads in [8usize, 64] {
        let geom = BloomGeometry::for_threads(sig_threads, 0.001);
        // Unblocked reference: same m and k, probes spread over one
        // filter-sized block (the pre-blocking `derived % m` schedule).
        let unblocked = BloomGeometry {
            m_bits: geom.m_bits,
            k: geom.k,
            block_bits: geom.m_bits,
        };
        for layout in &LAYOUTS {
            let mut cache = Cache::new(CacheConfig::small_l1());
            let (mut touches, mut misses) = (0u64, 0u64);
            let mut lines = Vec::with_capacity(1 + geom.k);
            for &addr in &reads {
                touched_lines(
                    layout,
                    &geom,
                    &unblocked,
                    &place,
                    addr,
                    n_slots,
                    sig_threads,
                    &mut lines,
                );
                for &line in &lines {
                    touches += 1;
                    if !cache.contains(line) {
                        misses += 1;
                    }
                    cache.insert(line, Mesi::Exclusive);
                }
            }
            rows.push(vec![
                layout.name.into(),
                sig_threads.to_string(),
                format!("{:.3}", touches as f64 / reads.len() as f64),
                format!("{:.3}", misses as f64 / reads.len() as f64),
                format!("{:.1}", 100.0 * misses as f64 / touches as f64),
            ]);
        }
    }

    println!(
        "{}",
        ascii_table(
            &[
                "layout",
                "sig-threads",
                "lines/insert",
                "misses/insert",
                "miss%",
            ],
            &rows,
        )
    );
    save_csv(
        "sig_layout_cachesim.csv",
        &[
            "layout",
            "sig_threads",
            "lines_per_insert",
            "misses_per_insert",
            "miss_pct",
        ],
        &rows,
    );
    println!(
        "The shipped layout (slot-words) should dominate: one line per \
         access, writer included, and the fewest predicted misses per \
         access."
    );
}
