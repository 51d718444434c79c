//! The swappable network models (paper §3.3).
//!
//! "Each network model shares a common interface. Therefore, network model
//! implementations are swappable, and it is simple to develop new network
//! models. Currently, Graphite supports a basic model that forwards packets
//! with no delay (used for system messages), a mesh model that uses the
//! number of network hops to determine latency, and another mesh model that
//! tracks global network utilization to determine latency using an
//! analytical contention model."

use std::sync::Arc;

use graphite_base::{CachePadded, Cycles, GlobalProgress, LaxQueue};
use graphite_config::MeshConfig;

use crate::topology::MeshTopology;
use crate::{Delivery, Packet};

/// A network timing model: computes per-packet latency.
///
/// Implementations must be `Send + Sync`; they are shared by every tile
/// thread and invoked concurrently.
pub trait NetworkModel: Send + Sync {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Computes the delivery timing of one packet, updating any internal
    /// contention state.
    fn route(&self, p: &Packet) -> Delivery;

    /// Checkpoint export of any mutable timing state (link queue clocks).
    /// Stateless models return an empty vec.
    fn save_state(&self) -> Vec<u64> {
        vec![]
    }

    /// Restores state captured by [`NetworkModel::save_state`]; returns
    /// `false` when the words do not fit this model. Stateless models accept
    /// only an empty slice.
    fn load_state(&self, data: &[u64]) -> bool {
        data.is_empty()
    }
}

/// Zero-delay model used for system messages, which must not affect
/// simulation results.
#[derive(Debug, Default)]
pub struct BasicModel {
    _priv: (),
}

impl BasicModel {
    /// Creates the model.
    pub fn new() -> Self {
        BasicModel { _priv: () }
    }
}

impl NetworkModel for BasicModel {
    fn name(&self) -> &'static str {
        "basic"
    }

    fn route(&self, p: &Packet) -> Delivery {
        Delivery { arrival: p.send_time, latency: Cycles::ZERO, contention: Cycles::ZERO, hops: 0 }
    }
}

/// Contention-free mesh: `latency = hops × hop_latency + serialization`.
#[derive(Debug)]
pub struct MeshModel {
    topo: MeshTopology,
    cfg: MeshConfig,
}

impl MeshModel {
    /// Creates a mesh model for `tiles` tiles.
    pub fn new(tiles: u32, cfg: MeshConfig) -> Self {
        MeshModel { topo: MeshTopology::new(tiles), cfg }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &MeshTopology {
        &self.topo
    }

    fn serialization(&self, size_bytes: u32) -> Cycles {
        // Ceil-divide payload over the link width; at least one cycle on the
        // wire for a non-empty packet.
        Cycles((size_bytes as u64).div_ceil(self.cfg.link_width_bytes as u64))
    }
}

impl NetworkModel for MeshModel {
    fn name(&self) -> &'static str {
        "mesh"
    }

    fn route(&self, p: &Packet) -> Delivery {
        let hops = self.topo.hops(p.src, p.dst);
        let latency =
            Cycles(hops as u64 * self.cfg.hop_latency.0) + self.serialization(p.size_bytes);
        Delivery { arrival: p.send_time + latency, latency, contention: Cycles::ZERO, hops }
    }
}

/// A bidirectional ring: packets take the shorter direction, so the hop
/// count is `min(d, n - d)`. Average distance grows linearly with tile
/// count (vs. √n for the mesh), which is the architectural trade-off a
/// topology study would measure.
#[derive(Debug)]
pub struct RingModel {
    tiles: u32,
    cfg: MeshConfig,
}

impl RingModel {
    /// Creates a ring over `tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(tiles: u32, cfg: MeshConfig) -> Self {
        assert!(tiles > 0, "ring needs at least one tile");
        RingModel { tiles, cfg }
    }

    /// Shortest ring distance between two tiles.
    pub fn hops(&self, a: graphite_base::TileId, b: graphite_base::TileId) -> u32 {
        let d = a.0.abs_diff(b.0);
        d.min(self.tiles - d)
    }

    fn serialization(&self, size_bytes: u32) -> Cycles {
        Cycles((size_bytes as u64).div_ceil(self.cfg.link_width_bytes as u64))
    }
}

impl NetworkModel for RingModel {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn route(&self, p: &Packet) -> Delivery {
        let hops = self.hops(p.src, p.dst);
        let latency =
            Cycles(hops as u64 * self.cfg.hop_latency.0) + self.serialization(p.size_bytes);
        Delivery { arrival: p.send_time + latency, latency, contention: Cycles::ZERO, hops }
    }
}

/// Mesh with an analytical contention model: every directed link owns a
/// [`LaxQueue`]; a packet pays each traversed link's queueing delay, with
/// "now" approximated by the global-progress estimate (paper §3.6.1's queue
/// modeling applied to network switches).
pub struct MeshContentionModel {
    topo: MeshTopology,
    cfg: MeshConfig,
    /// Queue clocks of each switch's four outgoing links
    /// ([`MeshTopology::link_index`] `/ 4`, `% 4`), one padded block per
    /// switch: routes through neighbouring switches do not share host lines.
    switches: Vec<CachePadded<[LaxQueue; 4]>>,
    progress: Arc<GlobalProgress>,
}

impl std::fmt::Debug for MeshContentionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshContentionModel")
            .field("tiles", &self.topo.tiles())
            .field("links", &(self.switches.len() * 4))
            .finish()
    }
}

impl MeshContentionModel {
    /// Creates the model with idle links.
    pub fn new(tiles: u32, cfg: MeshConfig, progress: Arc<GlobalProgress>) -> Self {
        let topo = MeshTopology::new(tiles);
        let switches = (0..topo.num_link_slots() / 4).map(|_| CachePadded::default()).collect();
        MeshContentionModel { topo, cfg, switches, progress }
    }

    fn serialization(&self, size_bytes: u32) -> Cycles {
        Cycles((size_bytes as u64).div_ceil(self.cfg.link_width_bytes as u64))
    }

    /// Every link's queue, in [`MeshTopology::link_index`] order.
    fn links(&self) -> impl Iterator<Item = &LaxQueue> {
        self.switches.iter().flat_map(|s| s.iter())
    }

    /// Mean utilization across all links at the progress estimate (used by
    /// reports and tests).
    pub fn mean_utilization(&self) -> f64 {
        let now = self.progress.estimate();
        let sum: f64 = self.links().map(|l| l.utilization(now)).sum();
        sum / (self.switches.len() * 4) as f64
    }
}

impl NetworkModel for MeshContentionModel {
    fn name(&self) -> &'static str {
        "mesh-contention"
    }

    fn route(&self, p: &Packet) -> Delivery {
        let hops = self.topo.hops(p.src, p.dst);
        let ser = self.serialization(p.size_bytes);
        // Reference time for the queue model: the global-progress estimate
        // (paper §3.6.1) — never the packet's own timestamp, which would
        // turn clock skew into phantom contention.
        let now = self.progress.estimate();
        let mut contention = Cycles::ZERO;
        for link in self.topo.xy_route(p.src, p.dst) {
            let slot = self.topo.link_index(link);
            let q = &self.switches[slot / 4][slot % 4];
            // Each traversal occupies the link for the serialization time.
            contention += q.submit(now + contention, ser);
        }
        let latency = Cycles(hops as u64 * self.cfg.hop_latency.0) + ser + contention;
        Delivery { arrival: p.send_time + latency, latency, contention, hops }
    }

    fn save_state(&self) -> Vec<u64> {
        self.links().map(|l| l.clock().0).collect()
    }

    fn load_state(&self, data: &[u64]) -> bool {
        if data.len() != self.switches.len() * 4 {
            return false;
        }
        for (link, &clock) in self.links().zip(data) {
            link.set_clock(Cycles(clock));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_base::TileId;

    fn mesh_cfg() -> MeshConfig {
        MeshConfig { hop_latency: Cycles(2), link_width_bytes: 8, utilization_window: 1024 }
    }

    #[test]
    fn basic_is_free() {
        let m = BasicModel::new();
        let p = Packet { src: TileId(0), dst: TileId(9), size_bytes: 4096, send_time: Cycles(7) };
        let d = m.route(&p);
        assert_eq!(d.latency, Cycles::ZERO);
        assert_eq!(d.arrival, Cycles(7));
        assert_eq!(d.hops, 0);
    }

    #[test]
    fn mesh_latency_formula() {
        let m = MeshModel::new(16, mesh_cfg());
        // 0 -> 15 on a 4x4 mesh: 6 hops; 64B / 8B = 8 cycles serialization.
        let p = Packet { src: TileId(0), dst: TileId(15), size_bytes: 64, send_time: Cycles(0) };
        let d = m.route(&p);
        assert_eq!(d.hops, 6);
        assert_eq!(d.latency, Cycles(6 * 2 + 8));
        assert_eq!(d.contention, Cycles::ZERO);
    }

    #[test]
    fn mesh_serialization_rounds_up() {
        let m = MeshModel::new(4, mesh_cfg());
        let p = Packet { src: TileId(0), dst: TileId(1), size_bytes: 9, send_time: Cycles(0) };
        // 9 bytes over an 8-byte link: 2 cycles.
        assert_eq!(m.route(&p).latency, Cycles(2 + 2));
    }

    #[test]
    fn local_delivery_pays_only_serialization() {
        let m = MeshModel::new(16, mesh_cfg());
        let p = Packet { src: TileId(3), dst: TileId(3), size_bytes: 8, send_time: Cycles(10) };
        let d = m.route(&p);
        assert_eq!(d.hops, 0);
        assert_eq!(d.latency, Cycles(1));
    }

    #[test]
    fn ring_takes_the_short_way_round() {
        let m = RingModel::new(16, mesh_cfg());
        use graphite_base::TileId;
        assert_eq!(m.hops(TileId(0), TileId(1)), 1);
        assert_eq!(m.hops(TileId(0), TileId(8)), 8);
        assert_eq!(m.hops(TileId(0), TileId(15)), 1, "wraps around");
        assert_eq!(m.hops(TileId(3), TileId(3)), 0);
        let p = Packet { src: TileId(0), dst: TileId(15), size_bytes: 8, send_time: Cycles(0) };
        assert_eq!(m.route(&p).latency, Cycles(2 + 1));
    }

    #[test]
    fn ring_scales_worse_than_mesh_on_average() {
        // Mean distance: ring n/4 vs mesh ~2/3·√n — at 64 tiles the ring
        // must be worse for far pairs.
        let ring = RingModel::new(64, mesh_cfg());
        let mesh = MeshModel::new(64, mesh_cfg());
        use graphite_base::TileId;
        let mut ring_sum = 0u64;
        let mut mesh_sum = 0u64;
        for a in 0..64u32 {
            for b in 0..64u32 {
                ring_sum += ring.hops(TileId(a), TileId(b)) as u64;
                mesh_sum += mesh.topology().hops(TileId(a), TileId(b)) as u64;
            }
        }
        assert!(ring_sum > 2 * mesh_sum, "ring {ring_sum} vs mesh {mesh_sum}");
    }

    #[test]
    fn contention_model_charges_queueing_under_load() {
        let progress = Arc::new(GlobalProgress::new(4));
        let m = MeshContentionModel::new(4, mesh_cfg(), Arc::clone(&progress));
        let p = Packet { src: TileId(0), dst: TileId(1), size_bytes: 64, send_time: Cycles(0) };
        let first = m.route(&p);
        assert_eq!(first.contention, Cycles::ZERO, "idle network");
        // Hammer the same link at the same timestamp: contention accumulates.
        let mut last = first;
        for _ in 0..10 {
            last = m.route(&p);
        }
        assert!(last.contention > Cycles::ZERO);
        assert!(last.latency > first.latency);
    }

    #[test]
    fn contention_drains_as_time_advances() {
        let progress = Arc::new(GlobalProgress::new(1));
        let m = MeshContentionModel::new(4, mesh_cfg(), Arc::clone(&progress));
        let early = Packet { src: TileId(0), dst: TileId(1), size_bytes: 64, send_time: Cycles(0) };
        for _ in 0..10 {
            m.route(&early);
        }
        // Far in the future (per the global-progress estimate, which the
        // Network facade feeds from message timestamps) the queues are idle.
        progress.observe(Cycles(1_000_000));
        let late =
            Packet { src: TileId(0), dst: TileId(1), size_bytes: 64, send_time: Cycles(1_000_000) };
        let d = m.route(&late);
        assert_eq!(d.contention, Cycles::ZERO);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let progress = Arc::new(GlobalProgress::new(16));
        let m = MeshContentionModel::new(16, mesh_cfg(), progress);
        let a = Packet { src: TileId(0), dst: TileId(1), size_bytes: 64, send_time: Cycles(0) };
        for _ in 0..20 {
            m.route(&a);
        }
        // Opposite corner of the mesh uses different links entirely.
        let b = Packet { src: TileId(15), dst: TileId(14), size_bytes: 64, send_time: Cycles(0) };
        assert_eq!(m.route(&b).contention, Cycles::ZERO);
    }

    #[test]
    fn mean_utilization_rises_with_traffic() {
        let progress = Arc::new(GlobalProgress::new(4));
        let m = MeshContentionModel::new(4, mesh_cfg(), Arc::clone(&progress));
        let idle = m.mean_utilization();
        let p = Packet { src: TileId(0), dst: TileId(3), size_bytes: 256, send_time: Cycles(100) };
        for _ in 0..50 {
            progress.observe(Cycles(100));
            m.route(&p);
        }
        assert!(m.mean_utilization() > idle);
    }
}
