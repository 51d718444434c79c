//! Per-tile counter storage is linear in tiles: every mesh link's lazily
//! registered `net.link.<from>.<to>.flits` family costs 8 bytes per tile in
//! a shared slab page, not a padded lane array of its own. Alone in its
//! file: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use graphite_base::padded::PAD_BYTES;
use graphite_base::{Cycles, GlobalProgress, TileId};
use graphite_config::{presets, CacheConfig};
use graphite_memory::{Addr, MemorySystem};
use graphite_network::{MeshTopology, Network};
use graphite_trace::Obs;

/// Live bytes in padded (128-byte aligned) allocations: per-tile counter
/// storage, and on the measured path nothing else.
static PADDED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn track(layout: Layout, grow: bool) {
        if layout.align() >= PAD_BYTES {
            if grow {
                PADDED.fetch_add(layout.size(), Relaxed);
            } else {
                PADDED.fetch_sub(layout.size(), Relaxed);
            }
        }
    }
}

// SAFETY: defers every request to `System` unchanged; the counter is a
// relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::track(layout, true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::track(layout, false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::track(layout, false);
        Self::track(Layout::from_size_align(new_size, layout.align()).unwrap(), true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Family slots in one slab page: one 128-byte block per tile.
const SLOTS: usize = PAD_BYTES / 8;

/// A 256-tile system in which every tile misses on a line homed at each of
/// its mesh neighbours, so requests and replies cross every directed link.
/// The padded storage that traffic registers is at most 8 bytes per tile per
/// link family, rounded up to whole slab pages (each with a 128-byte `Arc`
/// header).
#[test]
fn link_counters_cost_eight_bytes_per_tile_per_family() {
    const TILES: u32 = 256;
    let mut cfg = presets::paper_default(TILES);
    cfg.target.l1i = None;
    cfg.target.l1d = None;
    cfg.target.l2 = Some(CacheConfig {
        size_bytes: 16 << 10,
        associativity: 4,
        line_size: 64,
        access_latency: Cycles(2),
    });
    let obs = Obs::detached(TILES as usize);
    let progress = Arc::new(GlobalProgress::new(TILES as usize));
    let net = Arc::new(Network::with_obs(&cfg, progress, &obs));
    let m = MemorySystem::with_obs(&cfg, net, false, &obs);
    let topo = MeshTopology::new(TILES);
    let pairs: Vec<(u32, u32)> = (0..TILES)
        .flat_map(|t| (0..TILES).map(move |n| (t, n)))
        .filter(|&(t, n)| topo.hops(TileId(t), TileId(n)) == 1)
        .collect();

    let before = PADDED.load(Relaxed);
    let mut buf = [0u8; 8];
    for &(t, n) in &pairs {
        // Tile `t`'s line homed at `n` (homes interleave by line number).
        let line = u64::from(n) + u64::from(TILES) * (1 + u64::from(t));
        m.read(TileId(t), Cycles(0), Addr(line * 64), &mut buf);
    }
    let grown = PADDED.load(Relaxed).saturating_sub(before);

    let snap = obs.metrics.snapshot();
    let links = snap.counters.keys().filter(|k| k.starts_with("net.link.")).count();
    assert_eq!(links, pairs.len(), "every directed mesh link carried a flit");
    let bound = links.div_ceil(SLOTS) * (SLOTS * 8 * TILES as usize + PAD_BYTES);
    println!("{links} link families: {grown} padded bytes, bound {bound}");
    assert!(grown <= bound, "{links} link families took {grown} padded bytes > {bound}");
}
