//! A built simulator that is never run must not leak its MCP and LCP
//! threads. Alone in this file: the thread count is process-wide, and tests
//! of one binary share a process.
#![cfg(target_os = "linux")]

use graphite::{Sim, SimConfig};

fn host_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

#[test]
fn dropping_unrun_sims_joins_their_control_threads() {
    let cfg = SimConfig::builder().tiles(4).processes(2).build().unwrap();
    let before = host_threads();
    for _ in 0..50 {
        let sim = Sim::builder(cfg.clone()).build().unwrap();
        assert!(host_threads() >= before + 3, "one MCP and two LCPs are running");
        drop(sim);
    }
    assert_eq!(host_threads(), before, "control threads outlived their simulators");
    // Running still tears down exactly once.
    Sim::builder(cfg).build().unwrap().run(|ctx| ctx.alu(10));
    assert_eq!(host_threads(), before);
}
