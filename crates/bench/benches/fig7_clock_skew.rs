//! Regenerates **Figure 7**: clock skew over the course of an `fmm` run for
//! each synchronization model.
//!
//! A background sampler reads every tile clock periodically; each interval
//! records the max deviation above and below the mean ("approximate global
//! cycle count"), matching the paper's measurement method. Expected shapes:
//! Lax skews by orders of magnitude more than LaxP2P (whose skew hovers
//! around the configured slack), and LaxBarrier pins skew near the quantum.

use std::sync::Arc;
use std::time::Duration;

use graphite::{Sim, SimConfig};
use graphite_bench::{export_observability, print_table};
use graphite_config::SyncModel;
use graphite_sync::SkewSampler;
use graphite_workloads::{Fmm, Workload};

fn main() {
    // Slack/quantum scaled to the scaled-down workload (see fig6 bench).
    let models = [
        ("Lax", SyncModel::Lax),
        ("LaxP2P", SyncModel::LaxP2P { slack: 5_000, check_interval: 500 }),
        ("LaxBarrier", SyncModel::LaxBarrier { quantum: 1_000 }),
    ];
    let mut summary = Vec::new();
    for (name, model) in models {
        let w = Fmm { n: 768, cells: 6, seed: 43 };
        let cfg =
            SimConfig::builder().tiles(8).processes(2).sync(model).build().expect("bench config");
        let sim = Sim::builder(cfg).build().expect("simulator");
        let sampler = Arc::new(SkewSampler::new(sim.clock_handles()));
        let handle = sampler.spawn_periodic(Duration::from_micros(500));
        let report = sim.run(move |ctx| w.run(ctx, 8));
        sampler.stop();
        handle.join().expect("sampler thread");
        export_observability(&format!("fig7_{name}"), &report);

        let samples = sampler.samples();
        println!("\n== Figure 7 ({name}): skew trace over {} samples ==", samples.len());
        println!(
            "{:>8}  {:>14}  {:>12}  {:>12}",
            "t (ms)", "mean cycles", "max above", "max below"
        );
        // Print up to 20 evenly spaced intervals.
        let step = (samples.len() / 20).max(1);
        for s in samples.iter().step_by(step) {
            println!(
                "{:>8}  {:>14.0}  {:>12.0}  {:>12.0}",
                s.wall_ms, s.mean, s.max_above, s.max_below
            );
        }
        // Bracket the parallel region: from the first sample where every
        // clock advanced to the last. Samples outside are the serial input
        // and verification phases, whose skew reflects idle tiles rather
        // than the synchronization model. Samples *inside* that are not
        // all-moving stay in: a LaxP2P sleep or barrier wait is model
        // behaviour.
        let parallel_spread = {
            let first = samples.iter().position(|s| s.all_moving);
            let last = samples.iter().rposition(|s| s.all_moving);
            match (first, last) {
                (Some(a), Some(b)) if a <= b => samples[a..=b]
                    .iter()
                    .map(graphite_sync::SkewSample::spread)
                    .fold(0.0f64, f64::max),
                _ => sampler.max_spread(),
            }
        };
        summary.push(vec![
            name.to_string(),
            format!("{parallel_spread:.0}"),
            format!("{}", report.simulated_cycles.0),
            format!("{}", report.sync.p2p_sleeps),
            format!("{}", report.sync.barrier_releases),
        ]);
    }
    print_table(
        "Figure 7 summary: maximum clock skew by synchronization model",
        &[
            "model",
            "max spread, parallel region (cy)",
            "sim cycles",
            "p2p sleeps",
            "barrier releases",
        ],
        &summary,
    );
}
