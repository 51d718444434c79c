//! A pinned fingerprint of the single-level cache hierarchies.
//!
//! `miss_digest.rs` pins an L1D + L2 hierarchy; this file pins the two
//! hierarchies with one data cache, which is then the coherence level:
//! L2 only and L1D only. One host thread drives a seeded trace of reads,
//! writes, `fetch_update_u64`s, `poke_bytes` and `peek_bytes` from 8 tiles
//! over 32 KiB, four times the L2-only target's 8 KiB 4-way cache and eight
//! times the L1D-only target's 4 KiB 2-way one, so hits, evictions,
//! writebacks, upgrades, remote fills and invalidations all run. The digest
//! covers every value read, every access's latency, network share and hit
//! flag, every modeled counter and histogram in the metrics registry, and the
//! DRAM controllers' queue state; it leaves out the host-side diagnostics
//! (`mem.mshr.*`, `mem.probe_hits`).

use std::sync::Arc;

use graphite_base::{Cycles, GlobalProgress, SimRng, TileId};
use graphite_config::{presets, CacheConfig, CacheProtocol, SimConfig};
use graphite_memory::{Addr, MemCost, MemorySystem};
use graphite_network::Network;
use graphite_trace::Obs;

const TILES: u32 = 8;
const SPAN: u64 = 32 * 1024;
const OPS: u64 = 60_000;

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

/// Which single cache level the target keeps.
#[derive(Clone, Copy, Debug)]
enum Level {
    L2,
    L1d,
}

fn config(level: Level, protocol: CacheProtocol) -> SimConfig {
    let mut cfg = presets::paper_default(TILES);
    cfg.target.protocol = protocol;
    let cache = |size_bytes, associativity, access_latency| {
        Some(CacheConfig {
            size_bytes,
            associativity,
            line_size: 64,
            access_latency: Cycles(access_latency),
        })
    };
    cfg.target.l1i = None;
    (cfg.target.l1d, cfg.target.l2) = match level {
        Level::L2 => (None, cache(8 * 1024, 4, 8)),
        Level::L1d => (cache(4 * 1024, 2, 2), None),
    };
    cfg.validate().expect("a single-level hierarchy is a valid target");
    cfg
}

/// Runs the trace on a fresh system and returns its digest.
fn digest(cfg: &SimConfig, classify: bool) -> u64 {
    let obs = Obs::detached(TILES as usize);
    let progress = Arc::new(GlobalProgress::new(TILES as usize));
    let net = Arc::new(Network::with_obs(cfg, progress, &obs));
    let m = MemorySystem::with_obs(cfg, net, classify, &obs);
    let mut rng = SimRng::new(0x51_4E61E);
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
        let cost = match rng.gen_range(40) {
            0..=19 => {
                let mut buf = [0u8; 16];
                let cost = m.read_classified(tile, now[t], addr, &mut buf[..len]);
                d.bytes(&buf[..len]);
                cost
            }
            20..=33 => {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(i << 8 | t as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&(!i).to_le_bytes());
                m.write_classified(tile, now[t], addr, &bytes[..len])
            }
            34..=37 => {
                let (old, cost) =
                    m.fetch_update_u64(tile, now[t], addr, |v| v.wrapping_mul(5) ^ t as u64);
                d.u64(old);
                cost
            }
            38 => {
                m.poke_bytes(addr, &(!i << 4).to_le_bytes()[..len.min(8)]);
                continue;
            }
            _ => {
                let mut buf = [0u8; 16];
                m.peek_bytes(addr, &mut buf[..len]);
                d.bytes(&buf[..len]);
                continue;
            }
        };
        d.cost(cost);
        now[t] += cost.latency;
    }
    m.verify_coherence_invariants().unwrap();
    let s = m.stats();
    for (what, n) in [
        ("hits", s.l2_hits.get()),
        ("writebacks", s.writebacks.get()),
        ("upgrades", s.upgrades.get()),
        ("remote fills", s.remote_fills.get()),
        ("invalidations", s.invalidations.get()),
    ] {
        assert!(n > 100, "the trace made only {n} {what}");
    }
    assert_eq!(s.l1d_hits.get(), 0, "a single level counts every hit at the coherence level");
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

fn check(level: Level, protocol: CacheProtocol, pinned: [u64; 2]) {
    let cfg = config(level, protocol);
    let got = [digest(&cfg, false), digest(&cfg, true)];
    assert_eq!(got, pinned, "{level:?} {protocol:?}: digests [classify off, on] moved");
}

#[test]
fn l2_only_msi() {
    check(Level::L2, CacheProtocol::Msi, [3803384733037352856, 13169748667307262087]);
}

#[test]
fn l2_only_mesi() {
    check(Level::L2, CacheProtocol::Mesi, [11660827031789403460, 8244713319150999383]);
}

#[test]
fn l1d_only_msi() {
    check(Level::L1d, CacheProtocol::Msi, [14582872196927147981, 7241476657002658310]);
}

#[test]
fn l1d_only_mesi() {
    check(Level::L1d, CacheProtocol::Mesi, [2873058515502843730, 1200793626297939661]);
}
