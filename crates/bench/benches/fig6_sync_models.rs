//! Regenerates **Figure 6** and **Table 3**: performance, simulated-time
//! error, and run-to-run coefficient of variation for the three
//! synchronization models (Lax, LaxP2P, LaxBarrier) on one and four host
//! machines.
//!
//! Error and CoV come from real repeated runs (nondeterministic thread
//! interleaving is genuine); run-time is the host model's projection (plus
//! this host's measured wall time for reference). Paper parameters: barrier
//! quantum 1,000 cycles; LaxP2P slack 100,000 cycles; baseline = LaxBarrier.

use std::sync::Arc;

use graphite::SimConfig;
use graphite_base::RunStats;
use graphite_bench::{f2, f3, print_table, run_workload};
use graphite_config::SyncModel;
use graphite_hostmodel::{project, ClusterSpec, HostCostParams, HostEvents};
use graphite_workloads::{Lu, Ocean, Radix, Workload};

const RUNS: usize = 50;
const TILES: u32 = 8;
const THREADS: u32 = 8;

fn sync_models() -> [(&'static str, SyncModel); 3] {
    // The paper used a 100,000-cycle slack on full-size SPLASH runs
    // (hundreds of millions of cycles); our inputs are scaled down by ~10³,
    // so the slack scales with them — otherwise P2P never engages and
    // degenerates to plain Lax.
    [
        ("Lax", SyncModel::Lax),
        ("LaxP2P", SyncModel::LaxP2P { slack: 5_000, check_interval: 500 }),
        ("LaxBarrier", SyncModel::LaxBarrier { quantum: 1_000 }),
    ]
}

struct Cell {
    cycles: RunStats,
    wall: RunStats,
    modeled: f64,
}

fn main() {
    let workloads: Vec<Arc<dyn Workload>> = vec![
        Arc::new(Lu { n: 32, contiguous: true, seed: 3 }),
        Arc::new(Ocean { n: 26, iters: 3, contiguous: true, seed: 29 }),
        Arc::new(Radix { n: 1024, digit_bits: 4, seed: 23 }),
    ];
    let costs = HostCostParams::default();
    let machine_counts = [1u32, 4];

    let mut perf_rows = Vec::new();
    let mut acc_rows = Vec::new();

    for w in &workloads {
        // cells[(model, machines)] -> statistics over RUNS runs.
        let mut cells: Vec<Vec<Cell>> = Vec::new();
        for (_, model) in sync_models() {
            let mut row = Vec::new();
            for &mc in &machine_counts {
                let mut cycles = RunStats::new();
                let mut wall = RunStats::new();
                let mut modeled_sum = 0.0;
                for run in 0..RUNS {
                    let cfg = SimConfig::builder()
                        .tiles(TILES)
                        .processes(mc.min(TILES))
                        .machines(mc)
                        .sync(model)
                        .seed(0xBEEF + run as u64)
                        .build()
                        .expect("bench config");
                    let start = std::time::Instant::now();
                    let r = run_workload(cfg, THREADS, Arc::clone(w), |b| b);
                    wall.push(start.elapsed().as_secs_f64());
                    cycles.push(r.simulated_cycles.0 as f64);
                    let ev = HostEvents::from_report(&r);
                    modeled_sum += project(&ev, &ClusterSpec::paper(mc), &costs).wall_seconds;
                }
                row.push(Cell { cycles, wall, modeled: modeled_sum / RUNS as f64 });
            }
            cells.push(row);
        }

        // Normalize modeled run-time to Lax on 1 machine (Figure 6a).
        let lax_1mc = cells[0][0].modeled;
        for (mi, (name, _)) in sync_models().iter().enumerate() {
            for (ci, &mc) in machine_counts.iter().enumerate() {
                let c = &cells[mi][ci];
                perf_rows.push(vec![
                    w.name().to_string(),
                    name.to_string(),
                    format!("{mc}mc"),
                    f3(c.modeled / lax_1mc),
                    f3(c.wall.mean()),
                ]);
            }
        }
        // Error vs the LaxBarrier (1mc) baseline; CoV per cell (Fig 6b/6c).
        let baseline = cells[2][0].cycles.mean();
        for (mi, (name, _)) in sync_models().iter().enumerate() {
            for (ci, &mc) in machine_counts.iter().enumerate() {
                let c = &cells[mi][ci];
                acc_rows.push(vec![
                    w.name().to_string(),
                    name.to_string(),
                    format!("{mc}mc"),
                    format!("{:.0}", c.cycles.mean()),
                    f2(c.cycles.error_percent(baseline)),
                    f2(c.cycles.cov_percent()),
                ]);
            }
        }
    }

    print_table(
        "Figure 6a / Table 3: run-time normalized to Lax@1mc (modeled cluster; wall = this host)",
        &["benchmark", "model", "hosts", "norm run-time", "this-host wall (s)"],
        &perf_rows,
    );
    print_table(
        &format!(
            "Figure 6b/6c / Table 3: simulated-time error vs LaxBarrier@1mc and CoV ({RUNS} runs)"
        ),
        &["benchmark", "model", "hosts", "mean cycles", "error %", "CoV %"],
        &acc_rows,
    );

    // Aggregate summary in the Table 3 shape.
    let mut summary = Vec::new();
    for (mi, (name, _)) in sync_models().iter().enumerate() {
        let mut err = RunStats::new();
        let mut cov = RunStats::new();
        for row in acc_rows.iter().filter(|r| r[1] == *name) {
            err.push(row[4].parse::<f64>().expect("formatted above"));
            cov.push(row[5].parse::<f64>().expect("formatted above"));
        }
        let _ = mi;
        summary.push(vec![name.to_string(), f2(err.mean()), f2(cov.mean())]);
    }
    print_table(
        "Table 3 summary: mean error and CoV by model",
        &["model", "error %", "CoV %"],
        &summary,
    );
}
