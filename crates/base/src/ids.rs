//! Strongly-typed identifiers for the entities of a Graphite simulation.
//!
//! The paper distinguishes *target* entities (tiles of the simulated chip)
//! from *host* entities (processes and machines of the cluster running the
//! simulation). Newtypes keep those worlds from being confused at compile
//! time (Rust API guideline C-NEWTYPE).

use std::fmt;

/// A tile of the *target* architecture (compute core + network switch +
/// memory-system node, paper §2).
///
/// # Examples
///
/// ```
/// use graphite_base::TileId;
/// let t = TileId(7);
/// assert_eq!(t.index(), 7);
/// assert_eq!(t.to_string(), "tile7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub u32);

impl TileId {
    /// The tile index as a `usize`, for indexing per-tile tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile{}", self.0)
    }
}

impl From<u32> for TileId {
    fn from(v: u32) -> Self {
        TileId(v)
    }
}

/// A simulated *host process* participating in the distributed simulation
/// (paper Figure 1: each process runs a subset of the target tiles plus one
/// LCP; process 0 additionally hosts the MCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The process index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

impl From<u32> for ProcId {
    fn from(v: u32) -> Self {
        ProcId(v)
    }
}

/// A *host machine* of the (modeled) cluster. Several processes may share a
/// machine; communication crossing a machine boundary pays network latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The machine index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine{}", self.0)
    }
}

/// An application thread of the simulated program.
///
/// Graphite maps each application thread to one target tile for its whole
/// lifetime (threads are long-living, paper §3.5), so a `ThreadId` and the
/// [`TileId`] it runs on are distinct concepts even though the mapping is
/// one-to-one at any instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The thread index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TileId(0).to_string(), "tile0");
        assert_eq!(ProcId(2).to_string(), "proc2");
        assert_eq!(MachineId(9).to_string(), "machine9");
        assert_eq!(ThreadId(4).to_string(), "thread4");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(TileId(1) < TileId(2));
        assert!(ProcId(0) < ProcId(1));
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(TileId::from(5u32).index(), 5);
        assert_eq!(ProcId::from(3u32).index(), 3);
    }

    #[test]
    fn ids_are_hashable_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(TileId(1), "a");
        m.insert(TileId(2), "b");
        assert_eq!(m[&TileId(2)], "b");
    }
}
