//! Ready-made configurations matching the paper's experimental setups.

use graphite_base::Cycles;

use crate::{
    CacheConfig, CoherenceScheme, DramConfig, HostConfig, MeshConfig, NetworkKind, SimConfig,
    SyncModel, TargetConfig,
};

/// The paper's Table 1 target architecture with `tiles` target tiles:
/// 1 GHz clock, private 32 KB 8-way L1s, private 3 MB 24-way L2, 64-byte
/// lines, LRU, full-map directory MSI, 5.13 GB/s DRAM, mesh interconnect.
///
/// Host defaults follow §4.1: one machine with dual quad-core (8 cores) at
/// 3.16 GHz, Gigabit ethernet.
///
/// # Examples
///
/// ```
/// let cfg = graphite_config::presets::paper_default(64);
/// assert_eq!(cfg.target.num_tiles, 64);
/// cfg.validate().unwrap();
/// ```
pub fn paper_default(tiles: u32) -> SimConfig {
    SimConfig {
        target: TargetConfig {
            num_tiles: tiles,
            clock_ghz: 1.0,
            l1i: Some(CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 8,
                line_size: 64,
                access_latency: Cycles(1),
            }),
            l1d: Some(CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 8,
                line_size: 64,
                access_latency: Cycles(1),
            }),
            l2: Some(CacheConfig {
                size_bytes: 3 * 1024 * 1024,
                associativity: 24,
                line_size: 64,
                access_latency: Cycles(8),
            }),
            coherence: CoherenceScheme::FullMap,
            protocol: crate::CacheProtocol::Msi,
            dram: DramConfig {
                total_bandwidth_gbps: 5.13,
                access_latency: Cycles(100),
                per_tile_controllers: true,
            },
            network: NetworkKind::Mesh,
            mesh: MeshConfig {
                hop_latency: Cycles(2),
                link_width_bytes: 8,
                utilization_window: 1024,
            },
        },
        host: HostConfig {
            num_machines: 1,
            cores_per_machine: 8,
            inter_machine_latency_us: 60.0,
            bandwidth_gbps: 2.0, // two trunked Gigabit ports per machine
            host_clock_ghz: 3.16,
        },
        num_processes: 1,
        tile_mapping: crate::TileMapping::Striped,
        sync: SyncModel::Lax,
        progress_window: tiles.max(1),
        seed: 0xC0FFEE,
        profile: crate::ProfileConfig::default(),
        scheduler: crate::SchedulerConfig::default(),
        ckpt: crate::CkptConfig::default(),
        hostprof: crate::HostProfConfig::default(),
    }
}

/// Configuration for the Figure 8 cache-miss characterization: L1 caches
/// disabled, all accesses redirected to a 1 MB 4-way set-associative L2 with
/// the requested `line_size` (paper §4.4).
pub fn fig8_miss_characterization(tiles: u32, line_size: u32) -> SimConfig {
    let mut cfg = paper_default(tiles);
    cfg.target.l1i = None;
    cfg.target.l1d = None;
    cfg.target.l2 = Some(CacheConfig {
        size_bytes: 1024 * 1024,
        associativity: 4,
        line_size,
        access_latency: Cycles(8),
    });
    cfg
}

/// Configuration for the Figure 9 coherence study: the Table 1 target with a
/// selectable coherence `scheme` and `tiles` target tiles; per-tile memory
/// controllers split the 5.13 GB/s off-chip bandwidth (paper §4.4).
///
/// Uses quanta-based synchronization: limited-directory thrashing only
/// manifests when threads' memory accesses interleave at fine grain, which
/// real parallel hosts provide naturally but a single-core host (long
/// scheduler slices) does not — the barrier quantum restores it.
pub fn fig9_coherence_study(tiles: u32, scheme: CoherenceScheme) -> SimConfig {
    let mut cfg = paper_default(tiles);
    cfg.target.coherence = scheme;
    cfg.target.network = NetworkKind::MeshContention;
    cfg.sync = SyncModel::LaxBarrier { quantum: 10_000 };
    cfg
}

/// The synchronization-model study setup (Table 3 / Figures 6–7): barrier
/// quantum 1,000 cycles, LaxP2P slack 100,000 cycles.
pub fn sync_study(tiles: u32, model: &str) -> SimConfig {
    let mut cfg = paper_default(tiles);
    cfg.sync = match model {
        "Lax" => SyncModel::Lax,
        "LaxBarrier" => SyncModel::LaxBarrier { quantum: 1_000 },
        "LaxP2P" => SyncModel::LaxP2P { slack: 100_000, check_interval: 10_000 },
        other => panic!("unknown sync model {other:?}"),
    };
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates_at_many_sizes() {
        for tiles in [1, 2, 32, 64, 1024] {
            paper_default(tiles).validate().unwrap();
        }
    }

    #[test]
    fn fig8_has_single_level_1mb_l2() {
        for ls in [8u32, 16, 32, 64, 128, 256] {
            let cfg = fig8_miss_characterization(32, ls);
            cfg.validate().unwrap();
            assert!(cfg.target.l1d.is_none());
            assert!(cfg.target.l1i.is_none());
            let l2 = cfg.target.l2.as_ref().unwrap();
            assert_eq!(l2.size_bytes, 1024 * 1024);
            assert_eq!(l2.associativity, 4);
            assert_eq!(l2.line_size, ls);
        }
    }

    #[test]
    fn fig9_uses_requested_scheme_and_contention_mesh() {
        let cfg = fig9_coherence_study(64, CoherenceScheme::DirNB { sharers: 16 });
        cfg.validate().unwrap();
        assert_eq!(cfg.target.coherence, CoherenceScheme::DirNB { sharers: 16 });
        assert_eq!(cfg.target.network, NetworkKind::MeshContention);
    }

    #[test]
    fn sync_study_parameters_match_paper() {
        assert_eq!(sync_study(32, "LaxBarrier").sync, SyncModel::LaxBarrier { quantum: 1000 });
        match sync_study(32, "LaxP2P").sync {
            SyncModel::LaxP2P { slack, .. } => assert_eq!(slack, 100_000),
            other => panic!("wrong model {other:?}"),
        }
        assert_eq!(sync_study(32, "Lax").sync, SyncModel::Lax);
    }

    #[test]
    #[should_panic(expected = "unknown sync model")]
    fn sync_study_rejects_unknown() {
        let _ = sync_study(32, "Quantum");
    }
}
