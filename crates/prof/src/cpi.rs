//! Per-tile cycle attribution (CPI stacks, paper §6.2).
//!
//! Every cycle a tile's clock advances is charged to exactly one
//! [`CpiClass`]. The accounting lives in per-tile metric lanes inside the
//! simulation's [`MetricsRegistry`], so the stacks travel with the rest of
//! the metrics snapshot (into `metrics.json`, checkpoints, and reports) and
//! cost one single-writer counter add per charge on the hot path.
//!
//! The invariant callers maintain: for each tile, the sum over all classes
//! equals the tile's final clock value. The attribution chokepoints
//! (`graphite::ctx`, the memory system, and the thread scheduler) charge the
//! stack every time they advance a clock; [`CpiStack::reset_tile`] mirrors
//! the scheduler's clock reset when a tile is re-seeded for a new guest
//! thread.

use graphite_base::{Cycles, TileId};
use graphite_trace::{MetricsRegistry, MetricsSnapshot, ShardedMetric};

/// One attribution class for simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpiClass {
    /// Instruction execution: ALU/FP/branch/generic costs from the core
    /// model.
    Compute,
    /// Memory accesses satisfied locally (L1 hit latency).
    MemL1,
    /// The non-network share of memory misses: directory lookups, remote
    /// cache access, DRAM.
    MemRemote,
    /// Network round-trips: message-passing send/receive and the on-network
    /// legs of memory misses.
    Network,
    /// Waiting for other tiles: lax-sync clock forwarding, futex sleeps,
    /// barrier waits.
    SyncWait,
    /// Thread lifecycle and system control: spawn/join bookkeeping and
    /// syscall overhead.
    SpawnCtrl,
}

impl CpiClass {
    /// Every class, in reporting order.
    pub const ALL: [CpiClass; 6] = [
        CpiClass::Compute,
        CpiClass::MemL1,
        CpiClass::MemRemote,
        CpiClass::Network,
        CpiClass::SyncWait,
        CpiClass::SpawnCtrl,
    ];

    /// Stable snake_case name used in metric keys and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            CpiClass::Compute => "compute",
            CpiClass::MemL1 => "mem_l1",
            CpiClass::MemRemote => "mem_remote",
            CpiClass::Network => "network",
            CpiClass::SyncWait => "sync_wait",
            CpiClass::SpawnCtrl => "spawn_ctrl",
        }
    }

    /// The per-tile metric name this class is recorded under
    /// (`prof.cpi.<name>`).
    pub fn metric_name(self) -> String {
        format!("prof.cpi.{}", self.name())
    }

    fn index(self) -> usize {
        match self {
            CpiClass::Compute => 0,
            CpiClass::MemL1 => 1,
            CpiClass::MemRemote => 2,
            CpiClass::Network => 3,
            CpiClass::SyncWait => 4,
            CpiClass::SpawnCtrl => 5,
        }
    }
}

/// Per-tile CPI accounting over metric lanes.
///
/// Cloning is cheap (the lanes are shared [`ShardedMetric`] handles), so the
/// stack can be handed to every subsystem that charges cycles.
///
/// # Examples
///
/// ```
/// use graphite_base::{Cycles, TileId};
/// use graphite_prof::{CpiClass, CpiStack};
///
/// let cpi = CpiStack::detached(2);
/// cpi.add(TileId(0), CpiClass::Compute, Cycles(70));
/// cpi.add(TileId(0), CpiClass::MemL1, Cycles(30));
/// assert_eq!(cpi.get(TileId(0), CpiClass::Compute), 70);
/// assert_eq!(cpi.total(TileId(0)), 100);
/// ```
#[derive(Clone)]
pub struct CpiStack {
    /// One per-tile family per class, indexed by [`CpiClass::index`].
    lanes: [ShardedMetric; 6],
}

impl std::fmt::Debug for CpiStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpiStack").field("tiles", &self.num_tiles()).finish()
    }
}

impl CpiStack {
    /// Builds a stack backed by `registry`'s per-tile metrics, one
    /// `prof.cpi.<class>` family per class. Registering twice returns
    /// handles to the same lanes.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        CpiStack { lanes: CpiClass::ALL.map(|c| registry.per_tile(&c.metric_name())) }
    }

    /// Builds a stack over a private throwaway registry — for tests and for
    /// components running without a simulation-wide [`MetricsRegistry`].
    pub fn detached(num_tiles: usize) -> Self {
        Self::registered(&MetricsRegistry::new(num_tiles))
    }

    /// Number of tiles accounted.
    pub fn num_tiles(&self) -> usize {
        self.lanes[0].num_lanes()
    }

    /// `class`'s family and `tile`'s lane in it. Out-of-range tiles fold into
    /// the last lane, mirroring the tracer: never panic on the hot path.
    #[inline]
    fn lane(&self, tile: TileId, class: CpiClass) -> (&ShardedMetric, usize) {
        let lanes = &self.lanes[class.index()];
        (lanes, (tile.0 as usize).min(lanes.num_lanes() - 1))
    }

    /// Charges `cycles` on `tile` to `class`. Single-writer add: each tile's
    /// lanes must only be charged from the thread driving that tile.
    #[inline]
    pub fn add(&self, tile: TileId, class: CpiClass, cycles: Cycles) {
        if cycles.0 != 0 {
            let (lanes, t) = self.lane(tile, class);
            lanes.add_owned(t, cycles.0);
        }
    }

    /// Current value of one class on one tile.
    pub fn get(&self, tile: TileId, class: CpiClass) -> u64 {
        let (lanes, t) = self.lane(tile, class);
        lanes.lane_get(t)
    }

    /// Sum of all classes on one tile. Equals the tile's clock when the
    /// attribution chokepoints cover every advance.
    pub fn total(&self, tile: TileId) -> u64 {
        CpiClass::ALL.iter().map(|&c| self.get(tile, c)).sum()
    }

    /// Mirrors a scheduler clock reset: zeroes the tile's stack, then charges
    /// the new starting clock value to [`CpiClass::SyncWait`] (the tile sat
    /// idle — or didn't exist — while the rest of the simulation reached
    /// `start`). Keeps the sum-to-clock invariant across guest-thread
    /// re-seeding.
    pub fn reset_tile(&self, tile: TileId, start: Cycles) {
        for class in CpiClass::ALL {
            let (lanes, t) = self.lane(tile, class);
            lanes.lane_set(t, if class == CpiClass::SyncWait { start.0 } else { 0 });
        }
    }

    /// Extracts per-tile stacks from a metrics snapshot: one
    /// `(class name, per-tile values)` row per class, in [`CpiClass::ALL`]
    /// order. Returns `None` if the snapshot has no CPI metrics.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Option<Vec<(&'static str, Vec<u64>)>> {
        let rows: Vec<(&'static str, Vec<u64>)> = CpiClass::ALL
            .iter()
            .filter_map(|c| snapshot.per_tile.get(&c.metric_name()).map(|v| (c.name(), v.clone())))
            .collect();
        if rows.is_empty() {
            None
        } else {
            Some(rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_class_and_tile() {
        let cpi = CpiStack::detached(4);
        cpi.add(TileId(0), CpiClass::Compute, Cycles(10));
        cpi.add(TileId(0), CpiClass::Compute, Cycles(5));
        cpi.add(TileId(1), CpiClass::Network, Cycles(7));
        assert_eq!(cpi.get(TileId(0), CpiClass::Compute), 15);
        assert_eq!(cpi.get(TileId(1), CpiClass::Network), 7);
        assert_eq!(cpi.get(TileId(1), CpiClass::Compute), 0);
        assert_eq!(cpi.total(TileId(0)), 15);
    }

    #[test]
    fn zero_charge_is_free_and_harmless() {
        let cpi = CpiStack::detached(1);
        cpi.add(TileId(0), CpiClass::MemL1, Cycles(0));
        assert_eq!(cpi.total(TileId(0)), 0);
    }

    #[test]
    fn out_of_range_tile_folds_into_last_lane() {
        let cpi = CpiStack::detached(2);
        cpi.add(TileId(99), CpiClass::SyncWait, Cycles(3));
        assert_eq!(cpi.get(TileId(1), CpiClass::SyncWait), 3);
    }

    #[test]
    fn reset_tile_reseeds_sync_wait() {
        let cpi = CpiStack::detached(2);
        cpi.add(TileId(1), CpiClass::Compute, Cycles(100));
        cpi.add(TileId(1), CpiClass::MemL1, Cycles(50));
        cpi.reset_tile(TileId(1), Cycles(400));
        assert_eq!(cpi.get(TileId(1), CpiClass::Compute), 0);
        assert_eq!(cpi.get(TileId(1), CpiClass::MemL1), 0);
        assert_eq!(cpi.get(TileId(1), CpiClass::SyncWait), 400);
        assert_eq!(cpi.total(TileId(1)), 400);
    }

    #[test]
    fn registered_stacks_share_lanes_and_snapshot() {
        let reg = MetricsRegistry::new(2);
        let a = CpiStack::registered(&reg);
        let b = CpiStack::registered(&reg);
        a.add(TileId(0), CpiClass::Compute, Cycles(11));
        assert_eq!(b.get(TileId(0), CpiClass::Compute), 11);

        let snap = reg.snapshot();
        let rows = CpiStack::from_snapshot(&snap).expect("cpi rows");
        assert_eq!(rows.len(), 6);
        let (name, values) = &rows[0];
        assert_eq!(*name, "compute");
        assert_eq!(values, &vec![11, 0]);
    }

    #[test]
    fn from_snapshot_without_cpi_metrics_is_none() {
        let reg = MetricsRegistry::new(2);
        reg.counter("unrelated").incr();
        assert!(CpiStack::from_snapshot(&reg.snapshot()).is_none());
    }
}
