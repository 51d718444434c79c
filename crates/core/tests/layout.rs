//! Host layout rule (DESIGN §7.2): no 128-byte host block holds hot words of
//! two different tiles. Deterministic — it checks addresses, not timings; the
//! timing consequence is `scaling.rs`.

use std::collections::{BTreeMap, BTreeSet};

use graphite::{Sim, SimConfig};
use graphite_base::padded::{assert_tiles_isolated, PAD_BYTES};
use graphite_base::{CachePadded, TileId};

#[test]
fn padding_type_is_two_cache_lines() {
    assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    assert_eq!(std::mem::align_of::<graphite_base::Clock>(), 128);
}

/// Families whose lanes other threads write: `net.*` lanes are indexed by
/// packet source but written by the requester's thread on derived legs, and
/// peers and carriers write these `sched.*`.
fn foreign_written(family: &str) -> bool {
    family.starts_with("net.")
        || ["sched.parks", "sched.runq_depth", "sched.handoffs", "sched.steals"].contains(&family)
}

/// Families the tile's own context writes on every guest op.
fn per_op(family: &str) -> bool {
    family.starts_with("mem.") || family.starts_with("prof.cpi.")
}

#[test]
fn no_two_tiles_share_a_hot_block() {
    for tiles in [4u32, 130] {
        let cfg = SimConfig::builder().tiles(tiles).build().unwrap();
        let sim = Sim::builder(cfg).build().unwrap();
        // Every per-tile counter family registered at build (`mem.*`,
        // `net.*`, `sync.*`, `sched.*`, `ctrl.*`, `prof.cpi.*`) reports a
        // slot per tile; the report's and the lazily registered link
        // families join pages of their own namespace.
        let words: Vec<_> = (0..tiles)
            .flat_map(|t| {
                let labelled = sim.hot_addrs(TileId(t));
                for label in ["clock", "tile lock", "seq counter", "parker"] {
                    assert!(labelled.iter().any(|(l, _)| *l == label), "{label} not reported");
                }
                labelled.into_iter().map(move |(label, addr)| (t as usize, label, addr))
            })
            .collect();
        assert_tiles_isolated(words.iter().copied());

        for t in 0..tiles {
            let slots = sim.metric_slot_addrs(TileId(t));
            let hot = words.iter().filter(|w| w.0 == t as usize && w.1 == "metric slot").count();
            assert_eq!(hot, slots.len(), "hot_addrs reports every family's slot");
            for family in [
                "mem.loads",
                "mem.tile.accesses",
                "prof.cpi.compute",
                "net.memory.packets",
                "sync.barrier_waits",
                "sched.parks",
                "ctrl.user_msgs",
            ] {
                assert!(slots.iter().any(|(n, _)| n == family), "{family} has no slot");
            }

            // A namespace's families pack its blocks: 16 eight-byte slots
            // to a tile's block, so storage is 8 bytes per tile per family.
            let mut blocks = BTreeMap::<&str, BTreeSet<usize>>::new();
            let mut families = BTreeMap::<&str, usize>::new();
            for (name, addr) in &slots {
                let namespace = name.split('.').next().unwrap();
                blocks.entry(namespace).or_default().insert(addr / PAD_BYTES);
                *families.entry(namespace).or_default() += 1;
            }
            for (namespace, n) in &families {
                assert_eq!(blocks[namespace].len(), n.div_ceil(16), "tile {t}: {namespace}.*");
            }

            // Lanes other threads write never share a block with the
            // tile's per-op counters.
            let per_op_blocks: BTreeSet<usize> =
                slots.iter().filter(|(n, _)| per_op(n)).map(|(_, a)| a / PAD_BYTES).collect();
            for (name, addr) in slots.iter().filter(|(n, _)| foreign_written(n)) {
                assert!(
                    !per_op_blocks.contains(&(addr / PAD_BYTES)),
                    "tile {t}: {name} shares a block with a per-op family"
                );
            }
        }
    }
}
