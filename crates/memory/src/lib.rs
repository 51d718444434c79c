//! The Graphite-rs memory subsystem (paper §3.2).
//!
//! This crate implements both roles the paper assigns to the memory system:
//!
//! * **Functional**: maintaining a single, coherent address space for
//!   application threads spread over simulated host processes. Caches hold
//!   the application's actual bytes; the directory entry holds the DRAM
//!   copy; coherence transactions move real data.
//! * **Modeling**: cache hierarchies (L1I/L1D/L2, LRU, configurable),
//!   directory-based MSI coherence in three flavours (full-map, limited
//!   Dir_iNB, LimitLESS), DRAM controllers with lax queueing, and
//!   network-priced protocol hops.
//!
//! It also provides the simulated address-space layout and the dynamic
//! memory manager the simulator substitutes for the OS (paper §3.2.1), and
//! the Figure 8 cache-miss classifier.
//!
//! Entry points: [`MemorySystem`] for the coherent memory engine,
//! [`SegmentAllocator`] + [`addr::layout`] for address-space management.

pub mod addr;
pub mod cache;
pub mod directory;
pub mod dram;
pub mod missclass;
pub mod system;

pub use addr::{Addr, SegmentAllocator};
pub use missclass::MissKind;
pub use system::{MemCost, MemStats, MemorySystem};
