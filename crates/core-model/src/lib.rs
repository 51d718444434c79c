//! The core performance model (paper §3.1).
//!
//! "The core performance model is a purely modeled component of the system
//! that manages the simulated clock local to each tile. It follows a
//! producer-consumer design: it consumes instructions and other dynamic
//! information produced by the rest of the system."
//!
//! Instructions come from the front end (in this reproduction, the guest
//! execution API plays the dynamic binary translator's role); *dynamic
//! information* — memory latencies and branch outcomes — arrives through the
//! same interface, keeping the functional and modeling halves asynchronous.
//! Pseudo-instructions ([`Instruction::Recv`], [`Instruction::Spawn`]) update
//! the clock on unusual events exactly as the paper describes.
//!
//! The provided model is the paper's default: an in-order core with an
//! out-of-order memory system — store buffers hide store latency, a load
//! unit optionally overlaps loads, branches run through a 2-bit predictor,
//! and every instruction class has a configurable cost.
//!
//! # Examples
//!
//! ```
//! use graphite_base::Cycles;
//! use graphite_core_model::{CoreParams, InOrderCore, Instruction};
//!
//! let mut core = InOrderCore::new(CoreParams::default());
//! let mut clock = Cycles::ZERO;
//! clock += core.issue(clock, &Instruction::IntAlu { count: 10 });
//! clock += core.issue(clock, &Instruction::Load { latency: Cycles(50) });
//! assert!(clock >= Cycles(60));
//! assert_eq!(core.stats().instructions, 11);
//! ```

use std::collections::VecDeque;

use graphite_base::Cycles;

pub mod bpred;
pub mod ooo;

pub use bpred::TwoBitPredictor;
pub use ooo::{OooCore, OooParams};

/// A swappable core performance model (paper §3.1): consumes the dynamic
/// instruction stream plus dynamic information and produces clock advances.
/// Object-safe so the simulator can hold any implementation.
pub trait CoreModel: Send {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Consumes one instruction at local time `now`; returns the cycles the
    /// tile clock must advance.
    fn issue(&mut self, now: Cycles, instr: &Instruction) -> Cycles;

    /// Statistics so far.
    fn stats(&self) -> &CoreStats;

    /// Appends the model's mutable state (stats, structural occupancy,
    /// predictor tables) as raw words for a checkpoint. The default saves
    /// nothing — correct for a stateless model.
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Restores state captured by [`CoreModel::save_state`] into a model
    /// built from the same parameters. Returns `false` when the words do not
    /// fit this model's shape.
    fn load_state(&mut self, data: &[u64]) -> bool {
        data.is_empty()
    }
}

/// One dynamic instruction (or batch of identical ones) consumed by the
/// model. Latencies of memory operations are *dynamic information* supplied
/// by the memory system; branch outcomes by the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Integer ALU operations (add, logic, shifts).
    IntAlu {
        /// Number of back-to-back operations.
        count: u32,
    },
    /// Integer multiplies.
    IntMul {
        /// Number of operations.
        count: u32,
    },
    /// Integer divides.
    IntDiv {
        /// Number of operations.
        count: u32,
    },
    /// Floating-point adds/subtracts.
    FpAdd {
        /// Number of operations.
        count: u32,
    },
    /// Floating-point multiplies.
    FpMul {
        /// Number of operations.
        count: u32,
    },
    /// Floating-point divides/sqrts.
    FpDiv {
        /// Number of operations.
        count: u32,
    },
    /// A conditional branch with its resolved direction.
    Branch {
        /// Identifies the static branch (program counter surrogate).
        pc: u64,
        /// Whether the branch was taken.
        taken: bool,
    },
    /// A load whose latency the memory system reported.
    Load {
        /// Round-trip latency from the memory model.
        latency: Cycles,
    },
    /// A store whose latency the memory system reported (absorbed by the
    /// store buffer unless it is full).
    Store {
        /// Round-trip latency from the memory model.
        latency: Cycles,
    },
    /// Any other instruction with an explicit cost.
    Generic {
        /// Cost in cycles.
        cost: Cycles,
    },
    /// Pseudo-instruction: a user-level message was received after `wait`
    /// cycles of blocking (paper: "message receive pseudo-instruction").
    Recv {
        /// Cycles the core waited for the message.
        wait: Cycles,
    },
    /// Pseudo-instruction: a thread was spawned on this core.
    Spawn,
}

/// Broad attribution class of an instruction's cost, used by profiling
/// layers to build CPI stacks. This is the *static* classification — it says
/// what kind of work the cycles represent, not where they were spent (a
/// profiler may refine [`CostClass::Memory`] into local-hit versus remote
/// time using the memory system's latency split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Instruction execution in the core's functional units.
    Compute,
    /// Waiting on the memory hierarchy.
    Memory,
    /// Waiting on the interconnect (message receive).
    Network,
    /// Thread-lifecycle and system control.
    Control,
}

impl Instruction {
    /// The static [`CostClass`] of this instruction's cycles.
    pub fn cost_class(&self) -> CostClass {
        match self {
            Instruction::IntAlu { .. }
            | Instruction::IntMul { .. }
            | Instruction::IntDiv { .. }
            | Instruction::FpAdd { .. }
            | Instruction::FpMul { .. }
            | Instruction::FpDiv { .. }
            | Instruction::Branch { .. }
            | Instruction::Generic { .. } => CostClass::Compute,
            Instruction::Load { .. } | Instruction::Store { .. } => CostClass::Memory,
            Instruction::Recv { .. } => CostClass::Network,
            Instruction::Spawn => CostClass::Control,
        }
    }
}

/// Configurable cost table and structural parameters of [`InOrderCore`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreParams {
    /// Cost of one integer ALU op.
    pub int_alu: Cycles,
    /// Cost of one integer multiply.
    pub int_mul: Cycles,
    /// Cost of one integer divide.
    pub int_div: Cycles,
    /// Cost of one FP add.
    pub fp_add: Cycles,
    /// Cost of one FP multiply.
    pub fp_mul: Cycles,
    /// Cost of one FP divide.
    pub fp_div: Cycles,
    /// Base cost of a branch (correctly predicted).
    pub branch: Cycles,
    /// Extra cycles on a mispredicted branch.
    pub mispredict_penalty: Cycles,
    /// Store buffer entries; stores stall only when it is full.
    pub store_buffer_entries: usize,
    /// Cost of the spawn pseudo-instruction (thread start-up work).
    pub spawn_cost: Cycles,
    /// Branch predictor table size (entries, power of two).
    pub bpred_entries: usize,
}

impl Default for CoreParams {
    /// A simple single-issue in-order core at the paper's 1 GHz target.
    fn default() -> Self {
        CoreParams {
            int_alu: Cycles(1),
            int_mul: Cycles(3),
            int_div: Cycles(18),
            fp_add: Cycles(3),
            fp_mul: Cycles(5),
            fp_div: Cycles(20),
            branch: Cycles(1),
            mispredict_penalty: Cycles(10),
            store_buffer_entries: 8,
            spawn_cost: Cycles(1_000),
            bpred_entries: 1024,
        }
    }
}

/// Statistics kept by the core model. Plain integers: a core model has one
/// writer, the context running on its tile (`issue` takes `&mut self`).
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Instructions retired (batch members counted individually).
    pub instructions: u64,
    /// Branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Cycles spent stalled on a full store buffer.
    pub store_stall_cycles: u64,
    /// Cycles spent waiting for loads.
    pub load_cycles: u64,
    /// Cycles spent blocked on message receive.
    pub recv_wait_cycles: u64,
    /// Total cycles accumulated by this core.
    pub cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle so far (0 when no cycles have elapsed).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over retired branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    pub(crate) fn export(&self, out: &mut Vec<u64>) {
        out.extend([
            self.instructions,
            self.branches,
            self.mispredicts,
            self.loads,
            self.stores,
            self.store_stall_cycles,
            self.load_cycles,
            self.recv_wait_cycles,
            self.cycles,
        ]);
    }

    pub(crate) fn import(&mut self, vals: &[u64]) -> bool {
        let Ok(words) = <[u64; STAT_WORDS]>::try_from(vals) else {
            return false;
        };
        let [instructions, branches, mispredicts, loads, stores, store_stall_cycles, load_cycles, recv_wait_cycles, cycles] =
            words;
        *self = CoreStats {
            instructions,
            branches,
            mispredicts,
            loads,
            stores,
            store_stall_cycles,
            load_cycles,
            recv_wait_cycles,
            cycles,
        };
        true
    }
}

/// Words [`CoreStats::export`] appends.
pub(crate) const STAT_WORDS: usize = 9;

/// Appends a predictor table as `[entries, packed words...]`, eight 2-bit
/// counters per word.
pub(crate) fn pack_bpred(counters: &[u8], out: &mut Vec<u64>) {
    out.push(counters.len() as u64);
    for chunk in counters.chunks(8) {
        let mut w = 0u64;
        for (i, &c) in chunk.iter().enumerate() {
            w |= (c as u64) << (8 * i);
        }
        out.push(w);
    }
}

/// Inverse of [`pack_bpred`] given the declared entry count; `None` when the
/// word count does not match.
pub(crate) fn unpack_bpred(n: usize, words: &[u64]) -> Option<Vec<u8>> {
    if words.len() != n.div_ceil(8) {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for (i, &w) in words.iter().enumerate() {
        for b in 0..8 {
            if i * 8 + b < n {
                out.push(((w >> (8 * b)) & 0xFF) as u8);
            }
        }
    }
    Some(out)
}

/// The store buffer: a bounded FIFO of store completion times. Stores retire
/// in one cycle while a slot is free; a full buffer stalls the core until
/// the oldest store completes (out-of-order memory behind an in-order core).
#[derive(Debug)]
struct StoreBuffer {
    completions: VecDeque<Cycles>,
    capacity: usize,
}

impl StoreBuffer {
    fn new(capacity: usize) -> Self {
        StoreBuffer { completions: VecDeque::with_capacity(capacity), capacity: capacity.max(1) }
    }

    /// Issues a store at `now` with the given memory latency; returns the
    /// stall the core observes (zero unless the buffer is full).
    fn push(&mut self, now: Cycles, latency: Cycles) -> Cycles {
        while self.completions.front().is_some_and(|&c| c <= now) {
            self.completions.pop_front();
        }
        let stall = if self.completions.len() >= self.capacity {
            let head = self.completions.pop_front().expect("full buffer has a head");
            head.saturating_sub(now)
        } else {
            Cycles::ZERO
        };
        let issue_at = now + stall;
        // Stores drain in order: each begins after its predecessor finishes.
        let start = self.completions.back().copied().unwrap_or(issue_at).max(issue_at);
        self.completions.push_back(start + latency);
        stall
    }

    fn occupancy(&self) -> usize {
        self.completions.len()
    }
}

/// The default core performance model: in-order issue, out-of-order memory.
///
/// The model is deliberately decoupled from the functional simulator: it
/// consumes an instruction stream plus dynamic info and produces clock
/// advances, so alternative models (e.g. out-of-order) can replace it behind
/// the same `issue` interface — the paper's argument for core-model
/// flexibility.
#[derive(Debug)]
pub struct InOrderCore {
    params: CoreParams,
    bpred: TwoBitPredictor,
    store_buffer: StoreBuffer,
    stats: CoreStats,
}

impl InOrderCore {
    /// Creates a core model with the given parameters.
    pub fn new(params: CoreParams) -> Self {
        InOrderCore {
            bpred: TwoBitPredictor::new(params.bpred_entries),
            store_buffer: StoreBuffer::new(params.store_buffer_entries),
            stats: CoreStats::default(),
            params,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Current store-buffer occupancy (for tests).
    pub fn store_buffer_occupancy(&self) -> usize {
        self.store_buffer.occupancy()
    }

    /// Consumes one instruction at local time `now` and returns the cycles
    /// the tile clock must advance.
    pub fn issue(&mut self, now: Cycles, instr: &Instruction) -> Cycles {
        let cost = match *instr {
            Instruction::IntAlu { count } => self.batch(count, self.params.int_alu),
            Instruction::IntMul { count } => self.batch(count, self.params.int_mul),
            Instruction::IntDiv { count } => self.batch(count, self.params.int_div),
            Instruction::FpAdd { count } => self.batch(count, self.params.fp_add),
            Instruction::FpMul { count } => self.batch(count, self.params.fp_mul),
            Instruction::FpDiv { count } => self.batch(count, self.params.fp_div),
            Instruction::Branch { pc, taken } => {
                self.stats.instructions += 1;
                self.stats.branches += 1;
                let predicted = self.bpred.predict_and_update(pc, taken);
                if predicted {
                    self.params.branch
                } else {
                    self.stats.mispredicts += 1;
                    self.params.branch + self.params.mispredict_penalty
                }
            }
            Instruction::Load { latency } => {
                self.stats.instructions += 1;
                self.stats.loads += 1;
                self.stats.load_cycles += latency.0;
                latency.max(Cycles(1))
            }
            Instruction::Store { latency } => {
                self.stats.instructions += 1;
                self.stats.stores += 1;
                let stall = self.store_buffer.push(now, latency);
                self.stats.store_stall_cycles += stall.0;
                Cycles(1) + stall
            }
            Instruction::Generic { cost } => {
                self.stats.instructions += 1;
                cost
            }
            Instruction::Recv { wait } => {
                self.stats.instructions += 1;
                self.stats.recv_wait_cycles += wait.0;
                Cycles(1) + wait
            }
            Instruction::Spawn => {
                self.stats.instructions += 1;
                self.params.spawn_cost
            }
        };
        self.stats.cycles += cost.0;
        cost
    }

    fn batch(&mut self, count: u32, each: Cycles) -> Cycles {
        self.stats.instructions += count as u64;
        Cycles(count as u64 * each.0)
    }
}

impl CoreModel for InOrderCore {
    fn name(&self) -> &'static str {
        "in-order"
    }

    fn issue(&mut self, now: Cycles, instr: &Instruction) -> Cycles {
        InOrderCore::issue(self, now, instr)
    }

    fn stats(&self) -> &CoreStats {
        InOrderCore::stats(self)
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        self.stats.export(out);
        out.push(self.store_buffer.completions.len() as u64);
        out.extend(self.store_buffer.completions.iter().map(|c| c.0));
        pack_bpred(self.bpred.counters(), out);
    }

    fn load_state(&mut self, data: &[u64]) -> bool {
        let Some((stats, rest)) = data.split_at_checked(STAT_WORDS) else { return false };
        let Some((&sb_len, rest)) = rest.split_first() else { return false };
        let Ok(sb_len) = usize::try_from(sb_len) else { return false };
        if sb_len > self.store_buffer.capacity {
            return false;
        }
        let Some((sb, rest)) = rest.split_at_checked(sb_len) else { return false };
        let Some((&bp_n, bp_words)) = rest.split_first() else { return false };
        let Ok(bp_n) = usize::try_from(bp_n) else { return false };
        let Some(counters) = unpack_bpred(bp_n, bp_words) else { return false };
        if !self.bpred.set_counters(&counters) {
            return false;
        }
        self.stats.import(stats);
        self.store_buffer.completions.clear();
        self.store_buffer.completions.extend(sb.iter().map(|&c| Cycles(c)));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> InOrderCore {
        InOrderCore::new(CoreParams::default())
    }

    #[test]
    fn alu_batches_scale_linearly() {
        let mut c = core();
        assert_eq!(c.issue(Cycles(0), &Instruction::IntAlu { count: 7 }), Cycles(7));
        assert_eq!(c.issue(Cycles(0), &Instruction::FpMul { count: 2 }), Cycles(10));
        assert_eq!(c.stats().instructions, 9);
    }

    #[test]
    fn loads_charge_memory_latency() {
        let mut c = core();
        assert_eq!(c.issue(Cycles(0), &Instruction::Load { latency: Cycles(55) }), Cycles(55));
        assert_eq!(c.issue(Cycles(0), &Instruction::Load { latency: Cycles(0) }), Cycles(1));
        assert_eq!(c.stats().loads, 2);
    }

    #[test]
    fn stores_hide_behind_buffer_until_full() {
        let mut c = core();
        let mut now = Cycles::ZERO;
        // 8 buffered stores of 100 cycles each: all cost 1 cycle.
        for _ in 0..8 {
            let cost = c.issue(now, &Instruction::Store { latency: Cycles(100) });
            assert_eq!(cost, Cycles(1));
            now += cost;
        }
        assert_eq!(c.store_buffer_occupancy(), 8);
        // The 9th store stalls until the oldest completes (at ~cycle 100).
        let cost = c.issue(now, &Instruction::Store { latency: Cycles(100) });
        assert!(cost > Cycles(50), "store should stall, got {cost}");
        assert!(c.stats().store_stall_cycles > 0);
    }

    #[test]
    fn store_buffer_drains_over_time() {
        let mut c = core();
        for _ in 0..8 {
            c.issue(Cycles(0), &Instruction::Store { latency: Cycles(10) });
        }
        // Far in the future everything has drained: no stall.
        let cost = c.issue(Cycles(10_000), &Instruction::Store { latency: Cycles(10) });
        assert_eq!(cost, Cycles(1));
    }

    #[test]
    fn branch_predictor_learns_biased_branches() {
        let mut c = core();
        let mut total = Cycles::ZERO;
        for _ in 0..100 {
            total += c.issue(Cycles(0), &Instruction::Branch { pc: 0x40, taken: true });
        }
        // After warm-up every prediction is correct: ~1 cycle each.
        assert!(c.stats().mispredict_rate() < 0.05, "rate {}", c.stats().mispredict_rate());
        assert!(total < Cycles(200));
    }

    #[test]
    fn alternating_branch_is_mispredicted_often() {
        let mut c = core();
        for i in 0..100 {
            c.issue(Cycles(0), &Instruction::Branch { pc: 0x80, taken: i % 2 == 0 });
        }
        assert!(c.stats().mispredict_rate() > 0.4);
    }

    #[test]
    fn pseudo_instructions() {
        let mut c = core();
        assert_eq!(c.issue(Cycles(0), &Instruction::Recv { wait: Cycles(500) }), Cycles(501));
        assert_eq!(c.issue(Cycles(0), &Instruction::Spawn), Cycles(1_000));
        assert_eq!(c.stats().recv_wait_cycles, 500);
    }

    #[test]
    fn ipc_reflects_mix() {
        let mut c = core();
        c.issue(Cycles(0), &Instruction::IntAlu { count: 100 });
        assert!((c.stats().ipc() - 1.0).abs() < 1e-9);
        c.issue(Cycles(0), &Instruction::Load { latency: Cycles(100) });
        assert!(c.stats().ipc() < 1.0);
    }

    #[test]
    fn generic_cost_passthrough() {
        let mut c = core();
        assert_eq!(c.issue(Cycles(0), &Instruction::Generic { cost: Cycles(42) }), Cycles(42));
    }

    #[test]
    fn save_load_state_resumes_identically() {
        // Drive a model into a nontrivial state: trained predictor, partially
        // full store buffer, every stat nonzero.
        let mut a = core();
        let mut now = Cycles::ZERO;
        for i in 0..50u64 {
            now += a.issue(now, &Instruction::Branch { pc: i % 4, taken: i % 3 == 0 });
            now += a.issue(now, &Instruction::Store { latency: Cycles(40) });
            now += a.issue(now, &Instruction::Load { latency: Cycles(5) });
        }
        now += a.issue(now, &Instruction::Recv { wait: Cycles(7) });

        let mut words = Vec::new();
        CoreModel::save_state(&a, &mut words);
        let mut b = core();
        assert!(b.load_state(&words));
        assert_eq!(b.stats().instructions, a.stats().instructions);
        assert_eq!(b.stats().cycles, a.stats().cycles);
        assert_eq!(b.store_buffer_occupancy(), a.store_buffer_occupancy());

        // Both copies must now behave identically, instruction for instruction.
        for i in 0..20u64 {
            let instr = Instruction::Branch { pc: i % 4, taken: i % 2 == 0 };
            assert_eq!(a.issue(now, &instr), b.issue(now, &instr));
            let st = Instruction::Store { latency: Cycles(40) };
            assert_eq!(a.issue(now, &st), b.issue(now, &st));
            now += Cycles(3);
        }
    }

    #[test]
    fn load_state_rejects_misshapen_words() {
        let mut c = core();
        assert!(!c.load_state(&[]), "too short");
        assert!(!c.load_state(&[0; 4]), "truncated stats");
        let mut words = Vec::new();
        CoreModel::save_state(&core(), &mut words);
        assert!(!c.load_state(&words[..words.len() - 1]), "missing predictor tail");
        // A store-buffer occupancy beyond capacity cannot be restored.
        let mut bad = words.clone();
        bad[9] = 10_000;
        assert!(!c.load_state(&bad));
        // Wrong predictor size (model built with a different table).
        let small = InOrderCore::new(CoreParams { bpred_entries: 16, ..CoreParams::default() });
        let mut words_small = Vec::new();
        CoreModel::save_state(&small, &mut words_small);
        assert!(!c.load_state(&words_small));
        assert!(c.load_state(&words), "pristine words still load");
    }

    #[test]
    fn zero_capacity_store_buffer_degenerates_to_blocking() {
        // Entry count of 0 is clamped to 1 internally.
        let params = CoreParams { store_buffer_entries: 0, ..CoreParams::default() };
        let mut c = InOrderCore::new(params);
        let a = c.issue(Cycles(0), &Instruction::Store { latency: Cycles(100) });
        assert_eq!(a, Cycles(1), "first store buffers");
        let b = c.issue(Cycles(1), &Instruction::Store { latency: Cycles(100) });
        assert!(b >= Cycles(99), "second store waits for the first");
    }
}
