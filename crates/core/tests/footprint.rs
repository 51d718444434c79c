//! Set-up footprint: building a large simulator must cost host memory for
//! what it has touched, not for the cache capacity it models. Alone in this
//! file: resident-set size is process-wide.
#![cfg(target_os = "linux")]

use graphite::{Sim, SimConfig};

fn resident_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS: line");
    let kib: f64 = line.split_whitespace().nth(1).expect("value").parse().expect("KiB count");
    kib / 1024.0
}

#[test]
fn building_256_paper_default_tiles_stays_under_64_mib() {
    let cfg = SimConfig::builder().tiles(256).processes(1).build().unwrap();
    assert_eq!(cfg.target.l2.as_ref().unwrap().size_bytes, 3 << 20, "paper-default 3 MiB L2");
    // Measured twice: in a fresh process, and again after a build/drop cycle,
    // when the build draws on chunks the allocator has already handed out
    // once (a zeroed slab that is lazy in a fresh process is not lazy when
    // recycled, and a retained heap would hide an eager first build).
    for cycle in ["fresh", "recycled"] {
        let before = resident_mib();
        let sim = Sim::builder(cfg.clone()).build().unwrap();
        let grew = resident_mib() - before;
        drop(sim);
        // 256 x (3 MiB L2 + 2 x 32 KiB L1) of eager line storage is ≈800 MiB.
        assert!(grew < 64.0, "{cycle} build of 256 tiles grew the resident set by {grew:.1} MiB");
    }
}
