//! Heap traffic of the directory: a first-touched line costs no allocation
//! of its own, and teardown frees chunks, not lines. Alone in its file: the
//! counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use graphite_base::{Cycles, GlobalProgress, TileId};
use graphite_config::{presets, CacheConfig};
use graphite_memory::{Addr, MemorySystem};
use graphite_network::Network;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counters are
// relaxed statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// 100k lines first-touched through the miss path of a 4-tile system whose
/// caches are small enough that their own demand allocation is a few dozen
/// blocks: what is left is the shard maps' growth and the arena's chunks.
#[test]
fn first_touch_allocates_per_chunk_and_teardown_frees_per_chunk() {
    const WARM: u64 = 1_000;
    const LINES: u64 = 100_000;
    let mut cfg = presets::paper_default(4);
    cfg.target.l1i = None;
    cfg.target.l1d = None;
    cfg.target.l2 = Some(CacheConfig {
        size_bytes: 16 << 10,
        associativity: 4,
        line_size: 64,
        access_latency: Cycles(2),
    });
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(4))));
    let m = MemorySystem::new(&cfg, net, false);
    let touch = |lines: std::ops::Range<u64>| {
        let mut buf = [0u8; 8];
        for line in lines {
            let tile = TileId((line % 4) as u32);
            if line % 3 == 0 {
                m.write(tile, Cycles(line), Addr(line * 64), &line.to_le_bytes());
            } else {
                m.read(tile, Cycles(line), Addr(line * 64), &mut buf);
            }
        }
    };
    touch(0..WARM);
    let before = ALLOCS.load(Relaxed);
    touch(WARM..LINES);
    let per_line = (ALLOCS.load(Relaxed) - before) as f64 / (LINES - WARM) as f64;
    assert!(per_line < 0.05, "{per_line:.4} heap allocations per first-touched line");
    assert_eq!(m.stats().misses.get(), LINES, "every touch was a first touch");

    let before = FREES.load(Relaxed);
    drop(m);
    let frees = FREES.load(Relaxed) - before;
    println!("{per_line:.4} allocations per first-touched line, {frees} blocks freed at drop");
    assert!(frees < 2_000, "dropping a directory of {LINES} lines freed {frees} blocks");
}
