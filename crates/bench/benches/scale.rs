//! Thousand-tile scale study (paper §3.7, Figure 4 style): the M:N guest
//! scheduler against thread-per-tile execution at 64 / 256 / 1024 tiles.
//!
//! Both modes run the same deterministic workloads; the *scheduled* mode
//! uses the default (auto) worker pool — `min(host cores, tiles)` execution
//! slots multiplexing tile contexts, each a coroutine run by one of a few
//! carrier threads — and the *baseline* pins `workers = tiles`, which is
//! exact thread-per-tile execution: every context gets a carrier of its own
//! at spawn and holds a slot for its whole life.
//!
//! Two studies per size:
//!
//! * **barrier** — a gated spawn/compute/join burst under `LaxBarrier`
//!   (every quantum boundary is a full rendezvous, the worst case for the
//!   pool): proves multiplexing is invisible in simulated time —
//!   `sim_cycles` must match thread-per-tile bit-for-bit — and that every
//!   guest wait (the go-gate receive, main's joins, the quantum parks) is a
//!   suspend: the scheduled mode must stay within `pool + 1` carriers.
//! * **lax run-to-completion** — ungated children that compute and exit
//!   under `Lax`: proves the resource claim. Spawned-but-unscheduled
//!   contexts are run-queue entries with **no host thread**, and a finished
//!   context's carrier runs the next one, so the scheduled mode's peak
//!   thread count is bounded by the pool width, while thread-per-tile needs
//!   one host thread per tile — the thing that stops scaling at thousands
//!   of tiles.
//!
//! Results go to `BENCH_scale.json` at the repo root (override with
//! `GRAPHITE_SCALE_OUT`). `GRAPHITE_SCALE_TILES` (comma list) and
//! `GRAPHITE_SCALE_ROUNDS` shrink the study for CI smoke runs;
//! `GRAPHITE_SCALE_SKIP_BASELINE=1` runs only the scheduled mode.
//! `GRAPHITE_SCALE_CASES` (comma-separated `study_tiles` name prefixes, e.g.
//! `barrier_64,lax_rtc`) restricts which cases run, and
//! `GRAPHITE_SCALE_BUDGET_S` makes the binary exit non-zero when total wall
//! time exceeds the budget — so CI can catch a scheduler perf regression as
//! a red job instead of a slow one.

use std::sync::Arc;
use std::time::Instant;

use graphite::{GuestEntry, Sim, SimConfig, SimReport, SyncModel};
use graphite_base::TileId;

/// Per-child compute rounds; under LaxBarrier each `alu` burst crosses
/// several 1000-cycle quanta, so that study is rendezvous-dominated.
const DEFAULT_ROUNDS: u32 = 25;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn build(tiles: u32, sync: SyncModel, workers: Option<u32>) -> Sim {
    let cfg = SimConfig::builder().tiles(tiles).sync(sync).build().expect("scale config");
    let mut b = Sim::builder(cfg);
    if let Some(w) = workers {
        b = b.workers(w);
    }
    b.build().expect("simulator")
}

/// Gated spawn/compute/join burst (the shape the scheduler integration tests
/// prove deterministic): children hold their tile until every spawn has been
/// placed, then compute disjoint ALU bursts — simulated time is a pure
/// function of the program, independent of the worker pool.
fn barrier_run(tiles: u32, workers: Option<u32>, rounds: u32) -> (f64, SimReport) {
    let sim = build(tiles, SyncModel::LaxBarrier { quantum: 1_000 }, workers);
    let t0 = Instant::now();
    let report = sim.run(move |ctx| {
        let entry: GuestEntry = Arc::new(move |ctx, arg| {
            let _ = ctx.recv_msg().unwrap(); // go gate: keeps tile assignment fixed
            for _ in 0..rounds {
                ctx.alu(2_000 + (arg % 13) as u32 * 31);
            }
            ctx.set_exit_value(arg);
        });
        let handles: Vec<_> =
            (1..tiles as u64).map(|i| ctx.spawn(Arc::clone(&entry), i).unwrap()).collect();
        for i in 1..tiles {
            ctx.send_msg(TileId(i), b"go").unwrap();
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join(ctx).unwrap(), i as u64 + 1);
        }
    });
    (t0.elapsed().as_secs_f64(), report)
}

/// Ungated run-to-completion burst under `Lax`: children never block, so a
/// narrow pool runs them straight through a few carrier threads at a time.
/// Simulated time stays pool-independent (each child's exit time depends
/// only on its spawn time and its own compute; joins are in handle order).
fn lax_rtc_run(tiles: u32, workers: Option<u32>, rounds: u32) -> (f64, SimReport) {
    let sim = build(tiles, SyncModel::Lax, workers);
    let t0 = Instant::now();
    let report = sim.run(move |ctx| {
        let entry: GuestEntry = Arc::new(move |ctx, arg| {
            for _ in 0..rounds {
                ctx.alu(2_000 + (arg % 13) as u32 * 31);
            }
            ctx.set_exit_value(arg);
        });
        let handles: Vec<_> =
            (1..tiles as u64).map(|i| ctx.spawn(Arc::clone(&entry), i).unwrap()).collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join(ctx).unwrap(), i as u64 + 1);
        }
    });
    (t0.elapsed().as_secs_f64(), report)
}

struct Mode {
    wall: f64,
    report: SimReport,
}

impl Mode {
    fn to_json(&self, workers: usize) -> String {
        let s = &self.report.sched;
        format!(
            concat!(
                "{{\"workers\": {}, \"wall_s\": {:.4}, \"sim_cycles\": {}, ",
                "\"threads_peak\": {}, \"threads_spawned\": {}, ",
                "\"parks\": {}, \"steals\": {}, \"yields\": {}}}"
            ),
            workers,
            self.wall,
            self.report.simulated_cycles.0,
            s.threads_peak,
            s.threads_spawned,
            s.parks,
            s.steals,
            s.yields,
        )
    }
}

fn main() {
    let sizes: Vec<u32> = std::env::var("GRAPHITE_SCALE_TILES")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|_| vec![64, 256, 1024]);
    let rounds = env_u64("GRAPHITE_SCALE_ROUNDS", DEFAULT_ROUNDS as u64) as u32;
    let skip_baseline = std::env::var("GRAPHITE_SCALE_SKIP_BASELINE").is_ok();
    let out_path = std::env::var("GRAPHITE_SCALE_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_scale.json", env!("CARGO_MANIFEST_DIR")));
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // `GRAPHITE_SCALE_CASES=barrier_64,lax_rtc` runs only cases whose
    // `study_tiles` name starts with one of the prefixes.
    let case_filter: Vec<String> = std::env::var("GRAPHITE_SCALE_CASES")
        .map(|v| v.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();
    let bench_t0 = Instant::now();

    println!("scale study: tiles {sizes:?}, {rounds} compute rounds, host threads {host}");
    type StudyFn = fn(u32, Option<u32>, u32) -> (f64, SimReport);
    let studies: [(&str, StudyFn); 2] = [("barrier", barrier_run), ("lax_rtc", lax_rtc_run)];

    let mut cases = Vec::new();
    for &(study, run) in &studies {
        for &tiles in &sizes {
            let name = format!("{study}_{tiles}");
            if !case_filter.is_empty() && !case_filter.iter().any(|p| name.starts_with(p.as_str()))
            {
                println!("  {name}: skipped by GRAPHITE_SCALE_CASES");
                continue;
            }
            let pool = host.min(tiles as usize);
            let (wall, report) = run(tiles, None, rounds);
            let sched = Mode { wall, report };
            println!(
                "  {study:<8} {tiles:>5}t scheduled({pool:>2}w): {:>8.3}s, {} sim cycles, \
                 peak {} threads",
                sched.wall, sched.report.simulated_cycles.0, sched.report.sched.threads_peak
            );
            // A waiting context is a run-queue entry: a carrier beyond the
            // pool (plus one in flight) means some wait held its carrier.
            let peak = sched.report.sched.threads_peak;
            assert!(
                peak <= pool as u64 + 1,
                "{study} {tiles}t: {peak} carriers for {pool} slots — a guest wait held a carrier"
            );
            let base = if skip_baseline {
                None
            } else {
                let (wall, report) = run(tiles, Some(tiles), rounds);
                let matched = report.simulated_cycles == sched.report.simulated_cycles;
                println!(
                    "  {study:<8} {tiles:>5}t thread-per-tile: {:>8.3}s, {} sim cycles ({}), \
                     peak {} threads",
                    wall,
                    report.simulated_cycles.0,
                    if matched { "identical" } else { "DIVERGED" },
                    report.sched.threads_peak
                );
                assert!(matched, "{study} {tiles}t: multiplexing changed simulated time");
                Some(Mode { wall, report })
            };
            cases.push((study, tiles, pool, sched, base));
        }
    }

    let body: Vec<String> = cases
        .iter()
        .map(|(study, tiles, pool, sched, base)| {
            let base_json = match base {
                Some(b) => b.to_json(*tiles as usize),
                None => "null".into(),
            };
            let matched = base
                .as_ref()
                .map(|b| (b.report.simulated_cycles == sched.report.simulated_cycles).to_string())
                .unwrap_or_else(|| "null".into());
            format!(
                concat!(
                    "    {{\"study\": \"{}\", \"tiles\": {}, \"sim_cycles_match\": {}, ",
                    "\"scheduled\": {}, \"thread_per_tile\": {}}}"
                ),
                study,
                tiles,
                matched,
                sched.to_json(*pool),
                base_json
            )
        })
        .collect();
    let doc = format!(
        concat!(
            "{{\n  \"schema\": \"graphite.bench.scale.v1\",\n",
            "  \"host_threads\": {},\n  \"compute_rounds\": {},\n  \"cases\": [\n{}\n  ]\n}}\n"
        ),
        host,
        rounds,
        body.join(",\n")
    );
    std::fs::write(&out_path, &doc).expect("write BENCH_scale.json");
    println!("wrote {out_path}");

    // Fail the run (and the CI job driving it) when the study blew its
    // wall-clock budget — a scheduler perf regression becomes a red job.
    if let Ok(budget) = std::env::var("GRAPHITE_SCALE_BUDGET_S") {
        if let Ok(budget_s) = budget.parse::<f64>() {
            let total = bench_t0.elapsed().as_secs_f64();
            if total > budget_s {
                eprintln!("scale bench exceeded budget: {total:.1}s > {budget_s:.1}s");
                std::process::exit(1);
            }
            println!("within budget: {total:.1}s <= {budget_s:.1}s");
        }
    }
}
