//! Host-thread scaling smoke: the paper's premise (§4.2) is that tile threads
//! run in parallel on the host's cores. The same total work split over two
//! tiles on two workers must finish clearly sooner than on one tile with one
//! worker — before per-tile hot state was padded (DESIGN §7.2) it took 1.7×
//! *longer*, because every guest op stole cache lines from the other worker.
//!
//! Wall-clock, so release-only and `#[ignore]`d; CI's `build-and-test` job
//! runs it with `--ignored`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphite::{Ctx, GuestEntry, Sim, SimConfig};
use graphite_memory::Addr;

/// Guest ops per run, split evenly over the tiles.
const TOTAL_ITERS: u64 = 2_000_000;
/// Private working set per tile in `u64` words: L1-resident, so the run is
/// the hit path plus the core model, as in `blackscholes_hit`.
const WORDS: u64 = 512;

fn sweep(ctx: &mut Ctx, base: Addr, iters: u64) {
    for i in 0..iters {
        let a = base.offset((i % WORDS) * 8);
        let v: u64 = ctx.load(a);
        ctx.fp(2);
        ctx.store(a, v.wrapping_add(i));
    }
}

fn run(tiles: u32) -> Duration {
    let cfg = SimConfig::builder().tiles(tiles).build().unwrap();
    let sim = Sim::builder(cfg).workers(tiles).build().unwrap();
    let per_tile = TOTAL_ITERS / tiles as u64;
    let t0 = Instant::now();
    sim.run(|ctx| {
        // `malloc` blocks are line-aligned and a region is a whole number of
        // lines: the tiles share no guest line, so every access hits.
        let bytes = WORDS * 8;
        let arena = ctx.malloc(bytes * tiles as u64).unwrap();
        let entry: GuestEntry = Arc::new(move |ctx, arg| sweep(ctx, Addr(arg), per_tile));
        let children: Vec<_> = (1..tiles as u64)
            .map(|t| ctx.spawn(Arc::clone(&entry), arena.offset(t * bytes).0).unwrap())
            .collect();
        sweep(ctx, arena, per_tile);
        for c in children {
            c.join(ctx).unwrap();
        }
    });
    t0.elapsed()
}

#[test]
#[ignore = "wall-clock; run in release: cargo test --release -p graphite --test scaling -- --ignored"]
fn two_tiles_on_two_workers_beat_one() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores < 2 {
        eprintln!("skipped: available_parallelism() = {cores}, no parallel speed-up to measure");
        return;
    }
    let best = |tiles| (0..3).map(|_| run(tiles)).min().unwrap();
    let (one, two) = (best(1), best(2));
    eprintln!("1 tile / 1 worker {one:?}, 2 tiles / 2 workers {two:?} ({cores} host cores)");
    assert!(
        two.as_secs_f64() <= 0.9 * one.as_secs_f64(),
        "2 tiles / 2 workers took {two:?}, 1 tile / 1 worker {one:?}: tile threads are not \
         running in parallel (false sharing between tiles' hot state?)"
    );
}
