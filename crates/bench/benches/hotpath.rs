//! Self-benchmark of the simulated-memory hot path (`MemorySystem`'s
//! per-access pipeline): the reproduction's equivalent of the paper's
//! simulator-performance study (§3.7, Figure 4 / Table 2), but measuring
//! *this simulator's* throughput on *this host* so every subsequent PR has a
//! perf trajectory to compare against.
//!
//! Three workload families, each at 1 / 4 / 16 tiles with one host thread
//! per tile:
//!
//! * **hit-dominated** — every access an L1D hit in a tile-private working
//!   set; isolates the lock + counter + fast-path cost per access;
//! * **miss-dominated** — a cyclic walk over a working set 1.5× the L2, so
//!   every access is a capacity miss through the directory and DRAM models;
//! * **dense matmul** — one real workload (`matrix-multiply` through the
//!   full `Sim` front end) for an end-to-end ops/sec and wall-clock
//!   slowdown figure.
//!
//! Results are appended to `BENCH_hotpath.json` at the repo root (override
//! with `GRAPHITE_HOTPATH_OUT`). The file keeps one object per run label
//! (`GRAPHITE_HOTPATH_LABEL`, default `current`); re-running a label
//! replaces that section and preserves the others, so `baseline` survives
//! optimization runs. `GRAPHITE_HOTPATH_OPS` caps per-thread hit-path
//! operations (CI smoke mode); `GRAPHITE_HOTPATH_MATMUL_N` sets the matmul
//! dimension. `GRAPHITE_HOTPATH_CASES` (comma-separated name prefixes)
//! restricts which cases run, and `GRAPHITE_HOTPATH_BUDGET_S` makes the
//! binary exit non-zero when total wall time exceeds the budget (CI smoke).
//!
//! Microbench rows drive each tile thread on its own accumulated clock
//! (`now += latency`), so they report real simulated cycles and a real
//! wall/simulated slowdown, not placeholders.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use graphite::SimConfig;
use graphite_base::{Cycles, GlobalProgress, HostProf, TileId};
use graphite_bench::run_workload;
use graphite_config::presets;
use graphite_memory::{Addr, MemorySystem};
use graphite_network::Network;
use graphite_trace::{Obs, TraceOptions};
use graphite_workloads::{MatMul, Workload};

/// One measured case.
struct CaseResult {
    name: String,
    tiles: u32,
    /// Guest memory operations performed (line segments).
    ops: u64,
    wall_s: f64,
    /// Million guest memory ops per host second.
    mops: f64,
    /// Simulated cycles (0 for raw microworkloads driven at fixed time).
    sim_cycles: u64,
    /// Host wall seconds per simulated target second (0 when undefined).
    slowdown: f64,
    /// Optional case-specific JSON object spliced in as `"detail"`.
    extra: Option<String>,
}

impl CaseResult {
    fn to_json(&self) -> String {
        let detail = match &self.extra {
            Some(d) => format!(", \"detail\": {d}"),
            None => String::new(),
        };
        format!(
            concat!(
                "{{\"tiles\": {}, \"ops\": {}, \"wall_s\": {:.4}, ",
                "\"mops_per_s\": {:.4}, \"sim_cycles\": {}, \"slowdown\": {:.2}{}}}"
            ),
            self.tiles, self.ops, self.wall_s, self.mops, self.sim_cycles, self.slowdown, detail
        )
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Builds the memory system for the microbenches.
fn build_mem(tiles: u32, small_l2: bool) -> (Arc<MemorySystem>, f64) {
    let mut cfg = presets::paper_default(tiles);
    if small_l2 {
        // Shrink the L2 so the miss workload's working set stays small while
        // still overflowing the cache on every access. Drop associativity to
        // 16 so the set count stays a power of two (mask-indexed sets).
        if let Some(l2) = cfg.target.l2.as_mut() {
            l2.size_bytes = 256 * 1024;
            l2.associativity = 16;
        }
    }
    let clock_ghz = cfg.target.clock_ghz;
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(tiles as usize))));
    (Arc::new(MemorySystem::new(&cfg, net, false)), clock_ghz)
}

/// Runs `per_thread` accesses on every tile concurrently; `addr_of` maps
/// (tile, iteration) to the address each thread touches. Each thread
/// advances its own clock by the modeled latency of every access. Returns
/// (wall seconds, simulated cycles = slowest thread's final clock).
fn drive(
    mem: &Arc<MemorySystem>,
    tiles: u32,
    per_thread: u64,
    addr_of: impl Fn(u32, u64) -> u64 + Send + Sync + Copy + 'static,
) -> (f64, u64) {
    let start_gate = Arc::new(Barrier::new(tiles as usize + 1));
    let handles: Vec<_> = (0..tiles)
        .map(|t| {
            let mem = Arc::clone(mem);
            let gate = Arc::clone(&start_gate);
            std::thread::spawn(move || {
                let mut buf = [0u8; 8];
                let mut now = Cycles::ZERO;
                gate.wait();
                for i in 0..per_thread {
                    let addr = Addr(addr_of(t, i));
                    if i % 3 == 0 {
                        now += mem.write(TileId(t), now, addr, &buf);
                    } else {
                        now += mem.read(TileId(t), now, addr, &mut buf);
                    }
                }
                now.0
            })
        })
        .collect();
    start_gate.wait();
    let t0 = Instant::now();
    let mut sim_cycles = 0u64;
    for h in handles {
        sim_cycles = sim_cycles.max(h.join().expect("bench thread"));
    }
    (t0.elapsed().as_secs_f64(), sim_cycles)
}

/// Assembles a microbench row with real simulated cycles and slowdown.
fn micro_result(name: String, tiles: u32, ops: u64, wall: f64, sim: u64, ghz: f64) -> CaseResult {
    let sim_s = Cycles(sim).as_secs(ghz);
    CaseResult {
        name,
        tiles,
        ops,
        wall_s: wall,
        mops: ops as f64 / wall / 1e6,
        sim_cycles: sim,
        slowdown: if sim_s > 0.0 { wall / sim_s } else { 0.0 },
        extra: None,
    }
}

/// Hit-dominated: a 32-line (2 KiB) tile-private set, warmed first, so every
/// measured access is an L1D (or sole-level) hit.
fn bench_hits(tiles: u32, per_thread: u64) -> CaseResult {
    const SET_BYTES: u64 = 32 * 64;
    let (mem, ghz) = build_mem(tiles, false);
    let addr_of = move |t: u32, i: u64| ((t as u64) << 24) | ((i * 8) % SET_BYTES);
    // Warm: write the whole set so subsequent loads and stores both hit.
    for t in 0..tiles {
        for i in 0..SET_BYTES / 8 {
            mem.write(TileId(t), Cycles(0), Addr(addr_of(t, i)), &[0u8; 8]);
        }
    }
    let (wall, sim) = drive(&mem, tiles, per_thread, addr_of);
    let ops = tiles as u64 * per_thread;
    micro_result(format!("hit_{tiles}t"), tiles, ops, wall, sim, ghz)
}

/// Same hit-dominated workload with per-tile event tracing enabled: every
/// access emits a `MemOpStart`/`MemOpDone` pair into the tracer rings, so
/// `hit_16t_traced / hit_16t` is the cost of always-on tracing. Tracks the
/// ROADMAP item on batched tracer emission.
fn bench_hits_traced(tiles: u32, per_thread: u64) -> CaseResult {
    const SET_BYTES: u64 = 32 * 64;
    let capacity = env_u64("GRAPHITE_HOTPATH_TRACE_CAP", 4096) as usize;
    let cfg = presets::paper_default(tiles);
    let ghz = cfg.target.clock_ghz;
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(tiles as usize))));
    let obs = Obs::new(tiles as usize, TraceOptions { enabled: true, capacity, flows: false });
    let mem = Arc::new(MemorySystem::with_obs(&cfg, net, false, &obs));
    let addr_of = move |t: u32, i: u64| ((t as u64) << 24) | ((i * 8) % SET_BYTES);
    for t in 0..tiles {
        for i in 0..SET_BYTES / 8 {
            mem.write(TileId(t), Cycles(0), Addr(addr_of(t, i)), &[0u8; 8]);
        }
    }
    let (wall, sim) = drive(&mem, tiles, per_thread, addr_of);
    let ops = tiles as u64 * per_thread;
    micro_result(format!("hit_{tiles}t_traced"), tiles, ops, wall, sim, ghz)
}

/// Same hit-dominated workload with tracing *and* causal flow spans enabled:
/// `hit_16t_flows / hit_16t_traced` is the marginal cost of the flow gate on
/// a path that never mints a flow (hits stay local), and
/// `hit_16t_flows / hit_16t` the total enabled-observability overhead.
fn bench_hits_flows(tiles: u32, per_thread: u64) -> CaseResult {
    const SET_BYTES: u64 = 32 * 64;
    let capacity = env_u64("GRAPHITE_HOTPATH_TRACE_CAP", 4096) as usize;
    let cfg = presets::paper_default(tiles);
    let ghz = cfg.target.clock_ghz;
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(tiles as usize))));
    let obs = Obs::new(tiles as usize, TraceOptions { enabled: true, capacity, flows: true });
    let mem = Arc::new(MemorySystem::with_obs(&cfg, net, false, &obs));
    let addr_of = move |t: u32, i: u64| ((t as u64) << 24) | ((i * 8) % SET_BYTES);
    for t in 0..tiles {
        for i in 0..SET_BYTES / 8 {
            mem.write(TileId(t), Cycles(0), Addr(addr_of(t, i)), &[0u8; 8]);
        }
    }
    let (wall, sim) = drive(&mem, tiles, per_thread, addr_of);
    let ops = tiles as u64 * per_thread;
    micro_result(format!("hit_{tiles}t_flows"), tiles, ops, wall, sim, ghz)
}

/// Miss-dominated: a cyclic sequential walk over 1.5× the (shrunken) L2
/// capacity — with LRU replacement every access is a capacity miss running
/// the full directory + DRAM transaction.
fn bench_misses(tiles: u32, per_thread: u64) -> CaseResult {
    let (mem, ghz) = build_mem(tiles, true);
    let (wall, sim) = drive(&mem, tiles, per_thread, miss_addr);
    let ops = tiles as u64 * per_thread;
    micro_result(format!("miss_{tiles}t"), tiles, ops, wall, sim, ghz)
}

/// One real workload through the full front end: row-banded dense matmul on
/// a 16-tile target with 16 guest threads.
fn bench_matmul(n: u64) -> CaseResult {
    const TILES: u32 = 16;
    let w: Arc<dyn Workload> = Arc::new(MatMul::with_n(n));
    let cfg = SimConfig::builder().tiles(TILES).build().expect("bench config");
    let clock_ghz = cfg.target.clock_ghz;
    let t0 = Instant::now();
    let report = run_workload(cfg, TILES, w, |b| b);
    let wall = t0.elapsed().as_secs_f64();
    let ops = report.mem.accesses();
    let sim_s = report.simulated_cycles.as_secs(clock_ghz);
    CaseResult {
        name: format!("matmul_n{n}"),
        tiles: TILES,
        ops,
        wall_s: wall,
        mops: ops as f64 / wall / 1e6,
        sim_cycles: report.simulated_cycles.0,
        slowdown: if sim_s > 0.0 { wall / sim_s } else { 0.0 },
        extra: None,
    }
}

/// Builds the miss-walk memory system with a host profiler attached (`None`
/// = profiling compiled in but disabled, the production default).
fn build_mem_prof(tiles: u32, prof: &Arc<HostProf>) -> (Arc<MemorySystem>, f64) {
    let mut cfg = presets::paper_default(tiles);
    if let Some(l2) = cfg.target.l2.as_mut() {
        l2.size_bytes = 256 * 1024;
        l2.associativity = 16;
    }
    let clock_ghz = cfg.target.clock_ghz;
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(tiles as usize))));
    let obs = Obs::new(tiles as usize, TraceOptions::default()).with_hostprof(Arc::clone(prof));
    (Arc::new(MemorySystem::with_obs(&cfg, net, false, &obs)), clock_ghz)
}

/// 256 KiB L2 = 4096 lines; the miss walk covers 6144 lines (384 KiB) per
/// tile.
const WALK_LINES: u64 = 6144;

fn miss_addr(t: u32, i: u64) -> u64 {
    ((t as u64) << 24) | ((i % WALK_LINES) * 64)
}

/// Miss walk with the host profiler *on* at the default 1-in-64 sampling:
/// the per-stage breakdown and the attribution ratio land in the JSON so
/// every label records where miss-path host time went.
fn bench_misses_hostprof(tiles: u32, per_thread: u64) -> CaseResult {
    let sample = 64; // HostProfConfig::default().sample
    let prof = HostProf::new(sample, 0); // counters only, no timeline buffer
    let (mem, ghz) = build_mem_prof(tiles, &prof);
    let (wall, sim) = drive(&mem, tiles, per_thread, miss_addr);
    let ops = tiles as u64 * per_thread;
    let snap = prof.snapshot();
    let mut stages: Vec<_> = snap.stages.iter().filter(|s| s.timed > 0).collect();
    stages.sort_by(|a, b| b.est_self_ns().total_cmp(&a.est_self_ns()));
    let rows: Vec<String> = stages
        .iter()
        .take(8)
        .map(|s| {
            format!(
                "\"{}\": {{\"count\": {}, \"self_ns_per_op\": {:.0}}}",
                s.stage.name(),
                s.count,
                s.self_ns_per_op()
            )
        })
        .collect();
    let attribution = snap.miss_attribution().unwrap_or(0.0);
    let extra = format!(
        "{{\"sample\": {sample}, \"miss_attribution\": {attribution:.3}, \"stages\": {{{}}}}}",
        rows.join(", ")
    );
    let mut r = micro_result(format!("miss_{tiles}t_hostprof"), tiles, ops, wall, sim, ghz);
    r.extra = Some(extra);
    r
}

/// On/off overhead of the profiler on the miss walk: alternating
/// enabled/disabled runs (interleaved so thermal and allocator drift hits
/// both arms equally), medians of each arm, overhead = on/off − 1. The
/// acceptance bar is "within noise" at the default sampling interval.
fn bench_hostprof_overhead(tiles: u32, per_thread: u64) -> CaseResult {
    const ROUNDS: usize = 3;
    let mut on_walls = Vec::with_capacity(ROUNDS);
    let mut off_walls = Vec::with_capacity(ROUNDS);
    let mut sim = 0u64;
    let mut ghz = 1.0;
    for _ in 0..ROUNDS {
        let prof = HostProf::new(64, 0);
        let (mem, g) = build_mem_prof(tiles, &prof);
        let (w_on, s) = drive(&mem, tiles, per_thread, miss_addr);
        on_walls.push(w_on);
        let (mem, _) = build_mem_prof(tiles, &HostProf::disabled());
        let (w_off, _) = drive(&mem, tiles, per_thread, miss_addr);
        off_walls.push(w_off);
        sim = s;
        ghz = g;
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let on = median(&mut on_walls);
    let off = median(&mut off_walls);
    let overhead = on / off - 1.0;
    let ops = tiles as u64 * per_thread;
    let mut r = micro_result(format!("hostprof_overhead_{tiles}t"), tiles, ops, on, sim, ghz);
    r.extra = Some(format!(
        "{{\"on_wall_s\": {on:.4}, \"off_wall_s\": {off:.4}, \"overhead_frac\": {overhead:.4}}}"
    ));
    r
}

/// Extracts `"label": { ... }` sections (balanced braces) from a previous
/// results file so re-running one label preserves the others.
fn existing_runs(doc: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Some(runs_at) = doc.find("\"runs\"") else { return out };
    let bytes = doc.as_bytes();
    let mut pos = doc[runs_at..].find('{').map(|i| runs_at + i + 1).unwrap_or(doc.len());
    while pos < bytes.len() {
        let Some(q0) = doc[pos..].find('"').map(|i| pos + i) else { break };
        let Some(q1) = doc[q0 + 1..].find('"').map(|i| q0 + 1 + i) else { break };
        let label = doc[q0 + 1..q1].to_string();
        let Some(open) = doc[q1..].find('{').map(|i| q1 + i) else { break };
        let mut depth = 0usize;
        let mut end = open;
        for (i, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        if end == open {
            break; // unbalanced; stop rather than emit garbage
        }
        out.push((label, doc[open..end].to_string()));
        pos = end;
        // The outer "runs" object ends at the next unmatched '}'.
        if doc[pos..].trim_start().starts_with('}') {
            break;
        }
    }
    out
}

fn main() {
    let bench_t0 = Instant::now();
    let per_thread = env_u64("GRAPHITE_HOTPATH_OPS", 1_000_000);
    let miss_per_thread = (per_thread / 10).max(1_000);
    let matmul_n = env_u64("GRAPHITE_HOTPATH_MATMUL_N", 48);
    let label = std::env::var("GRAPHITE_HOTPATH_LABEL").unwrap_or_else(|_| "current".into());
    let out_path = std::env::var("GRAPHITE_HOTPATH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotpath.json", env!("CARGO_MANIFEST_DIR")));
    let case_filter = std::env::var("GRAPHITE_HOTPATH_CASES").ok();
    let wants = |name: &str| {
        case_filter.as_deref().is_none_or(|f| {
            f.split(',').any(|p| !p.trim().is_empty() && name.starts_with(p.trim()))
        })
    };

    println!("hot-path self-benchmark: {per_thread} hit ops/thread, {miss_per_thread} miss ops/thread, matmul n={matmul_n}");
    let mut results = Vec::new();
    let push = |r: CaseResult, results: &mut Vec<CaseResult>| {
        println!(
            "  {:<16} {:>8.2} Mops/s  ({:.3}s wall, {} sim cycles, slowdown {:.1}x)",
            r.name, r.mops, r.wall_s, r.sim_cycles, r.slowdown
        );
        results.push(r);
    };
    for tiles in [1u32, 4, 16] {
        if wants(&format!("hit_{tiles}t")) {
            push(bench_hits(tiles, per_thread), &mut results);
        }
    }
    if wants("hit_16t_traced") {
        push(bench_hits_traced(16, per_thread), &mut results);
    }
    if wants("hit_16t_flows") {
        push(bench_hits_flows(16, per_thread), &mut results);
    }
    for tiles in [1u32, 4, 16] {
        if wants(&format!("miss_{tiles}t")) {
            push(bench_misses(tiles, miss_per_thread), &mut results);
        }
    }
    if wants("miss_1t_hostprof") {
        push(bench_misses_hostprof(1, miss_per_thread), &mut results);
    }
    if wants("hostprof_overhead_1t") {
        push(bench_hostprof_overhead(1, miss_per_thread), &mut results);
    }
    if wants(&format!("matmul_n{matmul_n}")) {
        push(bench_matmul(matmul_n), &mut results);
    }

    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let section = {
        let cases: Vec<String> =
            results.iter().map(|r| format!("      \"{}\": {}", r.name, r.to_json())).collect();
        format!(
            "{{\n      \"host_threads\": {},\n      \"hit_ops_per_thread\": {},\n{}\n    }}",
            host_threads,
            per_thread,
            cases.join(",\n")
        )
    };

    let mut runs: Vec<(String, String)> = std::fs::read_to_string(&out_path)
        .map(|doc| existing_runs(&doc))
        .unwrap_or_default()
        .into_iter()
        .filter(|(l, _)| *l != label)
        .collect();
    runs.push((label.clone(), section));
    runs.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> = runs.iter().map(|(l, s)| format!("    \"{l}\": {s}")).collect();
    let doc = format!(
        "{{\n  \"schema\": \"graphite.bench.hotpath.v1\",\n  \"runs\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, &doc).expect("write BENCH_hotpath.json");
    println!("wrote {out_path} (label \"{label}\")");

    // CI smoke budget: fail loudly when the selected cases blow their
    // wall-clock allowance (a miss-path perf regression shows up here long
    // before it shows up in review).
    if let Ok(budget) = std::env::var("GRAPHITE_HOTPATH_BUDGET_S") {
        if let Ok(budget_s) = budget.parse::<f64>() {
            let total = bench_t0.elapsed().as_secs_f64();
            if total > budget_s {
                eprintln!("hotpath bench exceeded budget: {total:.1}s > {budget_s:.1}s");
                std::process::exit(1);
            }
            println!("within budget: {total:.1}s <= {budget_s:.1}s");
        }
    }
}
