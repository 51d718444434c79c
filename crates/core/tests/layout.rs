//! Host layout rule (DESIGN §7.2): no 128-byte host block holds hot words of
//! two different tiles. Deterministic — it checks addresses, not timings; the
//! timing consequence is `scaling.rs`.

use graphite::{Sim, SimConfig};
use graphite_base::padded::{assert_tiles_isolated, PAD_BYTES};
use graphite_base::{CachePadded, TileId};

#[test]
fn padding_type_is_two_cache_lines() {
    assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    assert_eq!(std::mem::align_of::<graphite_base::Clock>(), 128);
}

#[test]
fn no_two_tiles_share_a_hot_block() {
    for tiles in [4u32, 130] {
        let cfg = SimConfig::builder().tiles(tiles).build().unwrap();
        let sim = Sim::builder(cfg).build().unwrap();
        // `mem.tile.*` and `prof.cpi.*` register at build; the report's
        // families would join the same page.
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

        // A tile's metric slots are one contiguous run inside its own block.
        for t in 0..tiles as usize {
            let slots: Vec<usize> =
                words.iter().filter(|w| w.0 == t && w.1 == "metric slot").map(|w| w.2).collect();
            assert_eq!(slots.len(), 10, "mem.tile.* x4 + prof.cpi.* x6");
            assert!(slots.windows(2).all(|w| w[1] == w[0] + 8), "tile {t}: {slots:x?}");
            assert_eq!(slots[0] / PAD_BYTES, slots[9] / PAD_BYTES);
        }
    }
}
