//! Resident-set cost of the directory per guest line. Alone in its file: it
//! reads the process-wide `VmRSS`.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use graphite_base::GlobalProgress;
use graphite_config::presets;
use graphite_memory::{Addr, MemorySystem};
use graphite_network::Network;

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmRSS in kB")
}

/// Builds a 4-tile system and first-touches `lines` distinct lines through
/// the functional path, which grows the directory and nothing else.
fn touched(lines: u64) -> MemorySystem {
    let cfg = presets::paper_default(4);
    let net = Arc::new(Network::new(&cfg, Arc::new(GlobalProgress::new(4))));
    let m = MemorySystem::new(&cfg, net, false);
    for line in 0..lines {
        // Scattered like a real working set, not one run of shard-map keys.
        m.poke_bytes(Addr(line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20 << 6), &[line as u8 | 1]);
    }
    m
}

/// 400k lines grow the resident set by 41 828 KiB as measured (records
/// 31 250, shard maps the rest); the bar is that plus 15 %. The boxed
/// directory this one replaced measured 77 608 KiB. The second round must do
/// no worse: by then the allocator hands back recycled blocks instead of
/// fresh zero pages, which is where a lazily-zeroed slab would show.
#[test]
fn four_hundred_thousand_lines_cost_a_record_and_a_map_slot_each() {
    const LINES: u64 = 400_000;
    const BOUND_KIB: u64 = 48_000;
    let base = rss_kib();
    for cycle in ["fresh", "recycled"] {
        let m = touched(LINES);
        let grown = rss_kib().saturating_sub(base);
        println!("{cycle}: {LINES} lines grew VmRSS by {grown} KiB");
        assert!(grown < BOUND_KIB, "{cycle}: {LINES} lines grew VmRSS by {grown} KiB");
        drop(m);
    }
}
