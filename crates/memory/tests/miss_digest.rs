//! A pinned fingerprint of the memory system's modeled behaviour.
//!
//! One host thread drives a seeded trace of reads, writes and
//! `fetch_update_u64`s from 8 tiles over 48 KiB — three times a 16 KiB
//! 4-way L2 — so hits, capacity misses, evictions, writebacks, upgrades,
//! remote fills and invalidations all run. Each configuration's digest
//! covers every value read, every access's latency, network share and hit
//! flag, every modeled counter and histogram in the metrics registry, and
//! the DRAM controllers' queue state. It leaves out the host-side
//! diagnostics (`mem.mshr.*`, `mem.probe_hits`): a change to how the host
//! runs the miss path must reproduce every pinned digest unchanged.

use std::sync::Arc;

use graphite_base::{Cycles, GlobalProgress, SimRng, TileId};
use graphite_config::{presets, CacheConfig, CacheProtocol, CoherenceScheme, SimConfig};
use graphite_memory::{Addr, MemCost, MemorySystem};
use graphite_network::Network;
use graphite_trace::Obs;

const TILES: u32 = 8;
const SPAN: u64 = 48 * 1024;
const OPS: u64 = 100_000;

/// FNV-1a over everything the run observed.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn cost(&mut self, c: MemCost) {
        self.u64(c.latency.0);
        self.u64(c.network.0);
        self.u64(u64::from(c.hit));
    }
}

fn config(protocol: CacheProtocol, scheme: CoherenceScheme) -> SimConfig {
    let mut cfg = presets::paper_default(TILES);
    cfg.target.protocol = protocol;
    cfg.target.coherence = scheme;
    let cache = |size_bytes, associativity, access_latency| CacheConfig {
        size_bytes,
        associativity,
        line_size: 64,
        access_latency: Cycles(access_latency),
    };
    cfg.target.l1d = Some(cache(4 * 1024, 2, 1));
    cfg.target.l2 = Some(cache(16 * 1024, 4, 8));
    cfg
}

/// Runs the trace on a fresh system and returns its digest.
fn digest(cfg: &SimConfig, classify: bool) -> u64 {
    let obs = Obs::detached(TILES as usize);
    let progress = Arc::new(GlobalProgress::new(TILES as usize));
    let net = Arc::new(Network::with_obs(cfg, progress, &obs));
    let m = MemorySystem::with_obs(cfg, net, classify, &obs);
    let mut rng = SimRng::new(0x5EED);
    let mut now = [Cycles::ZERO; TILES as usize];
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for i in 0..OPS {
        let t = rng.gen_range(u64::from(TILES)) as usize;
        let tile = TileId(t as u32);
        // One access in 32 straddles a line boundary.
        let (addr, len) = if rng.gen_range(32) == 0 {
            (Addr(rng.gen_range(SPAN / 64 - 1) * 64 + 56), 16)
        } else {
            (Addr(rng.gen_range(SPAN) & !7), 8)
        };
        let cost = match rng.gen_range(20) {
            0..=9 => {
                let mut buf = [0u8; 16];
                let cost = m.read_classified(tile, now[t], addr, &mut buf[..len]);
                d.bytes(&buf[..len]);
                cost
            }
            10..=16 => {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(i << 8 | t as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&(!i).to_le_bytes());
                m.write_classified(tile, now[t], addr, &bytes[..len])
            }
            _ => {
                let (old, cost) =
                    m.fetch_update_u64(tile, now[t], addr, |v| v.wrapping_mul(3) ^ t as u64);
                d.u64(old);
                cost
            }
        };
        d.cost(cost);
        now[t] += cost.latency;
    }
    m.verify_coherence_invariants().unwrap();
    let s = m.stats();
    for (what, n) in [
        ("writebacks", s.writebacks.get()),
        ("upgrades", s.upgrades.get()),
        ("remote fills", s.remote_fills.get()),
        ("invalidations", s.invalidations.get()),
    ] {
        assert!(n > 100, "the trace made only {n} {what}");
    }
    m.publish_dir_lines();
    let snap = obs.metrics.snapshot();
    let modeled = |name: &String| !name.starts_with("mem.mshr.") && name != "mem.probe_hits";
    for (name, v) in snap.counters.iter().filter(|(n, _)| modeled(n)) {
        d.bytes(name.as_bytes());
        d.u64(*v);
    }
    for (name, lanes) in snap.per_tile.iter().filter(|(n, _)| modeled(n)) {
        d.bytes(name.as_bytes());
        lanes.iter().for_each(|&v| d.u64(v));
    }
    for (name, h) in &snap.histograms {
        d.bytes(name.as_bytes());
        d.u64(h.count);
        d.u64(h.sum);
        for &(upper, n) in &h.buckets {
            d.u64(upper);
            d.u64(n);
        }
    }
    for c in m.dram_controllers() {
        c.export_state().into_iter().for_each(|w| d.u64(w));
    }
    d.0
}

fn check(protocol: CacheProtocol, scheme: CoherenceScheme, pinned: [u64; 2]) {
    let cfg = config(protocol, scheme);
    let got = [digest(&cfg, false), digest(&cfg, true)];
    assert_eq!(got, pinned, "{protocol:?} {scheme:?}: digests [classify off, on] moved");
}

const FULL_MAP: CoherenceScheme = CoherenceScheme::FullMap;
const DIR_NB: CoherenceScheme = CoherenceScheme::DirNB { sharers: 2 };
const LIMITLESS: CoherenceScheme = CoherenceScheme::Limitless { sharers: 2, trap_cycles: 100 };

#[test]
fn msi_full_map() {
    check(CacheProtocol::Msi, FULL_MAP, [5282711987274189231, 965848325688946312]);
}

#[test]
fn msi_dir_nb() {
    check(CacheProtocol::Msi, DIR_NB, [13762598520334472685, 12616803533348579316]);
}

#[test]
fn msi_limitless() {
    check(CacheProtocol::Msi, LIMITLESS, [4252831922316022781, 12292858835468024950]);
}

#[test]
fn mesi_full_map() {
    check(CacheProtocol::Mesi, FULL_MAP, [6045335061412651250, 8709603131822747761]);
}

#[test]
fn mesi_dir_nb() {
    check(CacheProtocol::Mesi, DIR_NB, [12401089862823317566, 6717146321505829871]);
}

#[test]
fn mesi_limitless() {
    check(CacheProtocol::Mesi, LIMITLESS, [7341417400033130356, 4888870074127893223]);
}
