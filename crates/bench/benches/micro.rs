//! Criterion micro-benchmarks of the simulator's hot components: cache
//! lookups, directory transactions, network routing, lax queues, progress
//! estimation and atomic guest operations. These are the per-event host
//! costs that the host performance model's constants abstract.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use graphite_base::{Cycles, GlobalProgress, LaxQueue, TileId};
use graphite_config::presets;
use graphite_core_model::{CoreParams, InOrderCore, Instruction};
use graphite_memory::{Addr, MemorySystem};
use graphite_network::{Network, Packet, TrafficClass};

fn memory_benches(c: &mut Criterion) {
    let cfg = presets::paper_default(16);
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(16))));
    let mem = MemorySystem::new(&cfg, net, false);
    // Warm one line so the hit path is exercised.
    mem.write(TileId(0), Cycles(0), Addr(0x100), &1u64.to_le_bytes());
    c.bench_function("mem_l1_hit_load", |b| {
        let mut buf = [0u8; 8];
        b.iter(|| mem.read(TileId(0), Cycles(0), Addr(0x100), &mut buf))
    });
    c.bench_function("mem_fetch_update_hit", |b| {
        b.iter(|| {
            mem.fetch_update_u32(TileId(0), Cycles(0), Addr(0x100), |v| v.wrapping_add(1)).1.latency
        })
    });
    let mut next = 0u64;
    c.bench_function("mem_cold_miss_transaction", |b| {
        let mut buf = [0u8; 8];
        b.iter(|| {
            next += 64;
            mem.read(TileId(1), Cycles(0), Addr(0x10_0000 + next), &mut buf)
        })
    });
}

fn network_benches(c: &mut Criterion) {
    let mut cfg = presets::paper_default(64);
    cfg.target.network = graphite_config::NetworkKind::MeshContention;
    let net = Network::new(&cfg, Arc::new(GlobalProgress::new(64)));
    let p = Packet { src: TileId(0), dst: TileId(63), size_bytes: 72, send_time: Cycles(100) };
    c.bench_function("network_route_contention_mesh", |b| {
        b.iter(|| net.route(TrafficClass::Memory, &p))
    });
}

fn model_benches(c: &mut Criterion) {
    c.bench_function("lax_queue_submit", |b| {
        let q = LaxQueue::new();
        b.iter(|| q.submit(Cycles(1_000), Cycles(10)))
    });
    c.bench_function("progress_observe_estimate", |b| {
        let gp = GlobalProgress::new(1024);
        b.iter(|| {
            gp.observe(Cycles(42));
            gp.estimate()
        })
    });
    c.bench_function("core_issue_alu_batch", |b| {
        let mut core = InOrderCore::new(CoreParams::default());
        b.iter(|| core.issue(Cycles(0), &Instruction::IntAlu { count: 100 }))
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = memory_benches, network_benches, model_benches
}
criterion_main!(benches);
