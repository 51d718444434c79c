//! Whole-simulation checkpoint/restore: the glue between the simulator and
//! the `graphite-ckpt` container format.
//!
//! A checkpoint captures a **quiesced** simulation — only the main thread
//! running, no futex waiter parked, no user message in flight (the MCP
//! verifies this under its lock before serializing; see `Mcp::checkpoint`). What
//! is saved is the simulated machine, not the host: simulated DRAM, cache
//! arrays and directory state, per-tile clocks, core-model state,
//! synchronization-model state, the control plane (thread table, free tiles,
//! heap/mmap allocators, VFS), the metrics registry, captured guest stdout,
//! and the record/replay log. Host thread stacks are *not* captured — a
//! resumed run re-enters the workload driver, which sees identical simulated
//! state and therefore makes identical progress.
//!
//! Segment map of a `graphite.ckpt.v4` file written here:
//!
//! | segment   | contents                                                  |
//! |-----------|-----------------------------------------------------------|
//! | `meta`    | config fingerprint: tiles, processes, seed, sync, line    |
//! | `clocks`  | per-tile simulated time                                   |
//! | `rng`     | guest-visible RNG state ([`crate::Ctx::rand_u64`])        |
//! | `mem`     | [`MemorySystem`] (DRAM, caches, directories, allocator)   |
//! | `net`     | [`Network`] model state (e.g. mesh contention counts)     |
//! | `sync`    | model name + [`Synchronizer::save_state`] words           |
//! | `cores`   | per-tile core performance-model state                     |
//! | `metrics` | full metrics snapshot (restored into the registry)        |
//! | `ctrl`    | MCP state: threads, free tiles, heap/mmap, VFS            |
//! | `replay`  | [`ReplayLog`] streams and cursors                         |
//! | `stdout`  | guest stdout captured so far                              |
//!
//! Restore runs inside [`crate::SimBuilder::build`]: the checkpoint is
//! opened and validated *before* anything runs, component state is applied
//! to the freshly built subsystems, and the `ctrl` segment is decoded
//! straight into the MCP's state.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use graphite_base::{CachePadded, Clock, Cycles, SimError};
use graphite_ckpt::{corrupted, Checkpointable, CkptReader, CkptWriter, Dec, Enc, ReplayLog};
use graphite_config::SimConfig;
use graphite_memory::MemorySystem;
use graphite_network::Network;
use graphite_sync::Synchronizer;
use graphite_trace::{MetricsRegistry, MetricsSnapshot};

use crate::control::{Mcp, ThreadRecord};
use crate::vfs::Vfs;
use crate::{SimInner, TileState};

/// Serializes every subsystem and writes one checkpoint file. Called under
/// the MCP lock (which passes the already-encoded `ctrl` segment) after the
/// quiesce checks pass.
///
/// # Errors
///
/// Returns [`SimError::CkptIo`] when the file cannot be written.
pub(crate) fn write_checkpoint(
    inner: &SimInner,
    ctrl: Vec<u8>,
    path: &Path,
) -> Result<(), SimError> {
    let mut w = CkptWriter::new();

    let mut meta = Enc::new();
    meta.u32(inner.cfg.target.num_tiles);
    meta.u32(inner.cfg.num_processes);
    meta.u64(inner.cfg.seed);
    meta.str(inner.sync.name());
    meta.u32(inner.cfg.target.coherence_line_size());
    w.segment("meta", meta.finish());

    let mut clocks = Enc::new();
    clocks.words(&inner.clocks.iter().map(|c| c.now().0).collect::<Vec<_>>());
    w.segment("clocks", clocks.finish());

    let mut rng = Enc::new();
    rng.u64(inner.guest_rng.lock().state());
    w.segment("rng", rng.finish());

    let mut mem = Enc::new();
    inner.mem.save(&mut mem);
    w.segment(inner.mem.segment_name(), mem.finish());

    let mut net = Enc::new();
    inner.network.save(&mut net);
    w.segment(inner.network.segment_name(), net.finish());

    let mut sync = Enc::new();
    sync.str(inner.sync.name());
    sync.words(&inner.sync.save_state());
    w.segment("sync", sync.finish());

    let mut cores = Enc::new();
    cores.u32(inner.tiles.len() as u32);
    for tile in &inner.tiles {
        let mut words = Vec::new();
        let core = tile.core.lock();
        core.as_ref().expect("quiesced: every core model is home").save_state(&mut words);
        cores.words(&words);
    }
    w.segment("cores", cores.finish());

    let mut metrics = Enc::new();
    inner.metrics_snapshot().encode(&mut metrics);
    w.segment("metrics", metrics.finish());

    w.segment("ctrl", ctrl);

    let mut replay = Enc::new();
    inner.replay.save(&mut replay);
    w.segment("replay", replay.finish());

    let mut stdout = Enc::new();
    stdout.bytes(&inner.stdout.lock());
    w.segment("stdout", stdout.finish());

    w.write_to(path)
}

/// Verifies the checkpoint's configuration fingerprint against the resuming
/// configuration. A checkpoint only resumes onto the machine that wrote it:
/// same tile/process counts, seed, synchronization model, and cache line
/// size.
///
/// # Errors
///
/// [`SimError::CkptCorrupted`] (segment `meta`) on any mismatch.
pub(crate) fn check_meta(r: &CkptReader, cfg: &SimConfig, sync_name: &str) -> Result<(), SimError> {
    let mut d = Dec::new(r.segment("meta")?);
    let tiles = d.u32()?;
    let procs = d.u32()?;
    let seed = d.u64()?;
    let name = d.str()?.to_owned();
    let line = d.u32()?;
    if tiles != cfg.target.num_tiles
        || procs != cfg.num_processes
        || seed != cfg.seed
        || name != sync_name
        || line != cfg.target.coherence_line_size()
    {
        return Err(corrupted("meta"));
    }
    Ok(())
}

/// Encodes the MCP's state as the `ctrl` segment: per-thread exit records,
/// the free-tile pool, the heap/mmap allocators and the VFS.
pub(crate) fn encode_ctrl(mcp: &Mcp) -> Vec<u8> {
    let mut ctrl = Enc::new();
    ctrl.u32(mcp.threads.len() as u32);
    for rec in &mcp.threads {
        let (tag, (time, value)) = match rec.exit {
            None => (0, (Cycles::ZERO, 0)),
            Some(exit) => (1, exit),
        };
        ctrl.u8(tag);
        ctrl.u64(time.0);
        ctrl.u64(value);
    }
    ctrl.u32(mcp.free_tiles.len() as u32);
    for &t in &mcp.free_tiles {
        ctrl.u32(t);
    }
    ctrl.words(&mcp.heap.export_state());
    ctrl.words(&mcp.mmap.export_state());
    mcp.vfs.save(&mut ctrl);
    ctrl.finish()
}

/// Decodes and validates the `ctrl` segment into a resumed simulation's
/// fresh MCP: per-thread exit records, free-tile pool, heap/mmap allocators
/// and the VFS.
///
/// # Errors
///
/// [`SimError::CkptCorrupted`] for a decodable-but-inconsistent segment
/// (a running worker thread, an out-of-range or duplicate free tile,
/// allocator maps that do not fit the segment layout).
pub(crate) fn parse_ctrl(r: &CkptReader, cfg: &SimConfig, mcp: &mut Mcp) -> Result<(), SimError> {
    let bad = || corrupted("ctrl");
    let mut d = Dec::new(r.segment("ctrl")?);
    let n_threads = d.u32()? as usize;
    if n_threads == 0 {
        return Err(bad());
    }
    let mut threads = Vec::with_capacity(n_threads);
    for i in 0..n_threads {
        let tag = d.u8()?;
        let exit = d.u64()?;
        let value = d.u64()?;
        // Quiesce guarantees: only thread 0 may be running in a checkpoint.
        let exit = match tag {
            0 if i == 0 => None,
            1 if i > 0 => Some((Cycles(exit), value)),
            _ => return Err(bad()),
        };
        threads.push(ThreadRecord { exit, joiners: Vec::new() });
    }
    let n_free = d.u32()? as usize;
    let mut free_tiles = BTreeSet::new();
    for _ in 0..n_free {
        let t = d.u32()?;
        if t == 0 || t >= cfg.target.num_tiles || !free_tiles.insert(t) {
            return Err(bad());
        }
    }
    if !mcp.heap.import_state(&d.words()?) || !mcp.mmap.import_state(&d.words()?) {
        return Err(bad());
    }
    mcp.vfs = Vfs::restore(&mut d)?;
    if !d.is_empty() {
        return Err(bad());
    }
    mcp.threads = threads;
    mcp.free_tiles = free_tiles;
    Ok(())
}

/// Loads the record/replay log, preserving its recorded mode and cursors so
/// a resumed run continues recording (or replaying) where it left off.
pub(crate) fn load_replay(r: &CkptReader) -> Result<ReplayLog, SimError> {
    ReplayLog::load(&mut Dec::new(r.segment("replay")?))
}

/// The guest-visible RNG state saved in the `rng` segment.
pub(crate) fn load_guest_rng_state(r: &CkptReader) -> Result<u64, SimError> {
    Dec::new(r.segment("rng")?).u64()
}

/// The guest stdout bytes captured up to the checkpoint.
pub(crate) fn load_stdout(r: &CkptReader) -> Result<Vec<u8>, SimError> {
    Ok(Dec::new(r.segment("stdout")?).bytes()?.to_vec())
}

/// Applies the checkpoint to freshly built subsystems: clocks, memory,
/// network, synchronization model, core models and the metrics registry.
/// Runs before the guest starts, so nothing observes half-restored state.
///
/// # Errors
///
/// Propagates the typed decode errors of each segment; shape mismatches
/// (wrong tile count, wrong sync model) surface as
/// [`SimError::CkptCorrupted`] naming the offending segment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_restore(
    r: &CkptReader,
    cfg: &SimConfig,
    clocks: &[Arc<Clock>],
    mem: &MemorySystem,
    network: &Network,
    sync: &dyn Synchronizer,
    tiles: &[CachePadded<TileState>],
    metrics: &MetricsRegistry,
) -> Result<(), SimError> {
    check_meta(r, cfg, sync.name())?;

    let clock_words = Dec::new(r.segment("clocks")?).words()?;
    if clock_words.len() != clocks.len() {
        return Err(corrupted("clocks"));
    }
    for (c, &t) in clocks.iter().zip(&clock_words) {
        c.reset_to(Cycles(t));
    }

    mem.restore(&mut Dec::new(r.segment(mem.segment_name())?))?;
    network.restore(&mut Dec::new(r.segment(network.segment_name())?))?;

    let mut d = Dec::new(r.segment("sync")?);
    let name = d.str()?.to_owned();
    let words = d.words()?;
    if name != sync.name() || !sync.load_state(&words) {
        return Err(corrupted("sync"));
    }

    let mut d = Dec::new(r.segment("cores")?);
    if d.u32()? as usize != tiles.len() {
        return Err(corrupted("cores"));
    }
    for tile in tiles {
        let words = d.words()?;
        let mut core = tile.core.lock();
        if !core.as_mut().expect("restore runs before any context").load_state(&words) {
            return Err(corrupted("cores"));
        }
    }

    let snap = MetricsSnapshot::decode(&mut Dec::new(r.segment("metrics")?))?;
    // Per-link flit counters are registered lazily on first traffic, so a
    // fresh build has none; re-create the ones the checkpoint knows about
    // before the restore pass (it skips unregistered names).
    network.preregister_links(&snap);
    metrics.restore(&snap)?;
    Ok(())
}
