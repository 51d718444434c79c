//! Foundational types for the Graphite-rs multicore simulator.
//!
//! This crate holds the vocabulary shared by every other crate in the
//! workspace: strongly-typed identifiers ([`TileId`], [`ProcId`], …), the
//! simulated time type [`Cycles`], the per-tile atomic [`Clock`] that lax
//! synchronization revolves around, the windowed [`GlobalProgress`] estimator
//! used by queue models (paper §3.6.1), statistics helpers, and a small
//! deterministic RNG.
//!
//! # Examples
//!
//! ```
//! use graphite_base::{Clock, Cycles, TileId};
//!
//! let clock = Clock::new();
//! clock.advance(Cycles(100));
//! // A message stamped at cycle 250 arrives: forward the clock.
//! clock.forward_to(Cycles(250));
//! assert_eq!(clock.now(), Cycles(250));
//! // A stale message from the past does not rewind it.
//! clock.forward_to(Cycles(10));
//! assert_eq!(clock.now(), Cycles(250));
//! let t = TileId(3);
//! assert_eq!(t.to_string(), "tile3");
//! ```

pub mod blocker;
pub mod coro;
pub mod error;
pub mod hash;
pub mod hostmem;
pub mod hostprof;
pub mod ids;
pub mod padded;
pub mod progress;
pub mod queue;
pub mod rng;
pub mod seqlock;
pub mod stats;
pub mod time;

pub use blocker::{Blocker, InlineBlocker};
pub use error::SimError;
pub use hash::{FxBuildHasher, FxHasher};
pub use hostprof::{HostEvent, HostProf, HostProfSnapshot, HostSpan, HostStage, StageSnap};
pub use ids::{MachineId, ProcId, ThreadId, TileId};
pub use padded::CachePadded;
pub use progress::GlobalProgress;
pub use queue::LaxQueue;
pub use rng::SimRng;
pub use seqlock::SeqCount;
pub use stats::RunStats;
pub use time::{Clock, Cycles};
