//! An out-of-order core performance model.
//!
//! The paper (§3.1) stresses that the core model is decoupled from the
//! functional simulator precisely so that drastically different models can
//! be swapped in: "although the simulator is functionally in-order with
//! sequentially consistent memory, the core performance model can be an
//! out-of-order core with a relaxed memory model. Models throughout the
//! remainder of the system will reflect the new core type."
//!
//! [`OooCore`] is such a model: a reorder-window abstraction where
//! instructions *issue* at a configurable width and their latencies overlap
//! within the window. The tile clock advances by issue bandwidth, not by
//! operation latency, unless the window fills — at which point the core
//! stalls until the oldest operation completes (in program order, like a
//! ROB). True synchronization points (message receives, spawns) drain the
//! window: their semantics are visible, so they cannot be reordered past.

use std::collections::VecDeque;

use graphite_base::Cycles;

use crate::{
    pack_bpred, unpack_bpred, CoreModel, CoreParams, CoreStats, Instruction, TwoBitPredictor,
    STAT_WORDS,
};

/// Structural parameters of the out-of-order model.
#[derive(Debug, Clone, PartialEq)]
pub struct OooParams {
    /// Base in-order cost table (per-operation latencies).
    pub base: CoreParams,
    /// Reorder-window entries (in-flight operations).
    pub window: usize,
    /// Instructions issued per cycle.
    pub issue_width: u32,
}

impl Default for OooParams {
    /// A modest 4-wide, 64-entry-window core.
    fn default() -> Self {
        OooParams { base: CoreParams::default(), window: 64, issue_width: 4 }
    }
}

/// The out-of-order core model. See the module docs.
#[derive(Debug)]
pub struct OooCore {
    params: OooParams,
    bpred: TwoBitPredictor,
    /// Completion times of in-flight operations, in program order.
    window: VecDeque<Cycles>,
    stats: CoreStats,
    /// Sub-cycle issue accumulator (issue_width instructions per cycle).
    issue_backlog: u32,
}

impl OooCore {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or the issue width zero.
    pub fn new(params: OooParams) -> Self {
        assert!(params.window > 0, "window must hold at least one op");
        assert!(params.issue_width > 0, "issue width must be positive");
        OooCore {
            bpred: TwoBitPredictor::new(params.base.bpred_entries),
            window: VecDeque::with_capacity(params.window),
            stats: CoreStats::default(),
            issue_backlog: 0,
            params,
        }
    }

    /// Configured parameters.
    pub fn params(&self) -> &OooParams {
        &self.params
    }

    /// In-flight operations (for tests).
    pub fn window_occupancy(&self) -> usize {
        self.window.len()
    }

    /// Retires everything in flight; returns the cycles until the youngest
    /// operation completes relative to `now`.
    fn drain(&mut self, now: Cycles) -> Cycles {
        let last = self.window.iter().copied().max().unwrap_or(now);
        self.window.clear();
        last.saturating_sub(now)
    }

    /// Issues `count` operations of `latency` each at time `now`; returns
    /// the clock advance (issue bandwidth + any window-full stalls).
    fn issue_ops(&mut self, now: Cycles, count: u32, latency: Cycles) -> Cycles {
        let mut t = now;
        for _ in 0..count {
            // Window-full: wait for the oldest op (program order).
            while self.window.len() >= self.params.window {
                let head = self.window.pop_front().expect("full window has a head");
                if head > t {
                    t = head;
                }
            }
            // Retire anything already complete.
            while self.window.front().is_some_and(|&c| c <= t) {
                self.window.pop_front();
            }
            self.window.push_back(t + latency);
            // Issue bandwidth: one cycle per issue_width instructions.
            self.issue_backlog += 1;
            if self.issue_backlog >= self.params.issue_width {
                self.issue_backlog = 0;
                t += Cycles(1);
            }
        }
        t.saturating_sub(now)
    }
}

impl CoreModel for OooCore {
    fn name(&self) -> &'static str {
        "out-of-order"
    }

    fn issue(&mut self, now: Cycles, instr: &Instruction) -> Cycles {
        let p = self.params.base.clone();
        let cost = match *instr {
            Instruction::IntAlu { count } => {
                self.stats.instructions += count as u64;
                self.issue_ops(now, count, p.int_alu)
            }
            Instruction::IntMul { count } => {
                self.stats.instructions += count as u64;
                self.issue_ops(now, count, p.int_mul)
            }
            Instruction::IntDiv { count } => {
                self.stats.instructions += count as u64;
                self.issue_ops(now, count, p.int_div)
            }
            Instruction::FpAdd { count } => {
                self.stats.instructions += count as u64;
                self.issue_ops(now, count, p.fp_add)
            }
            Instruction::FpMul { count } => {
                self.stats.instructions += count as u64;
                self.issue_ops(now, count, p.fp_mul)
            }
            Instruction::FpDiv { count } => {
                self.stats.instructions += count as u64;
                self.issue_ops(now, count, p.fp_div)
            }
            Instruction::Branch { pc, taken } => {
                self.stats.instructions += 1;
                self.stats.branches += 1;
                if self.bpred.predict_and_update(pc, taken) {
                    self.issue_ops(now, 1, p.branch)
                } else {
                    // Mispredict: the pipeline refills; treat as a drain of
                    // the front-end plus the penalty.
                    self.stats.mispredicts += 1;
                    let d = self.issue_ops(now, 1, p.branch);
                    d + p.mispredict_penalty
                }
            }
            Instruction::Load { latency } => {
                self.stats.instructions += 1;
                self.stats.loads += 1;
                self.stats.load_cycles += latency.0;
                // Loads overlap inside the window (out-of-order memory).
                self.issue_ops(now, 1, latency.max(Cycles(1)))
            }
            Instruction::Store { latency } => {
                self.stats.instructions += 1;
                self.stats.stores += 1;
                self.issue_ops(now, 1, latency.max(Cycles(1)))
            }
            Instruction::Generic { cost } => {
                self.stats.instructions += 1;
                self.issue_ops(now, 1, cost.max(Cycles(1)))
            }
            Instruction::Recv { wait } => {
                self.stats.instructions += 1;
                self.stats.recv_wait_cycles += wait.0;
                // A receive is a visible synchronization point: drain.
                let drain = self.drain(now);
                drain + Cycles(1) + wait
            }
            Instruction::Spawn => {
                self.stats.instructions += 1;
                let drain = self.drain(now);
                drain + p.spawn_cost
            }
        };
        self.stats.cycles += cost.0;
        cost
    }

    fn stats(&self) -> &CoreStats {
        &self.stats
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        self.stats.export(out);
        out.push(self.window.len() as u64);
        out.extend(self.window.iter().map(|c| c.0));
        out.push(self.issue_backlog as u64);
        pack_bpred(self.bpred.counters(), out);
    }

    fn load_state(&mut self, data: &[u64]) -> bool {
        let Some((stats, rest)) = data.split_at_checked(STAT_WORDS) else { return false };
        let Some((&win_len, rest)) = rest.split_first() else { return false };
        let Ok(win_len) = usize::try_from(win_len) else { return false };
        if win_len > self.params.window {
            return false;
        }
        let Some((win, rest)) = rest.split_at_checked(win_len) else { return false };
        let Some((&backlog, rest)) = rest.split_first() else { return false };
        if backlog >= self.params.issue_width as u64 {
            return false;
        }
        let Some((&bp_n, bp_words)) = rest.split_first() else { return false };
        let Ok(bp_n) = usize::try_from(bp_n) else { return false };
        let Some(counters) = unpack_bpred(bp_n, bp_words) else { return false };
        if !self.bpred.set_counters(&counters) {
            return false;
        }
        self.stats.import(stats);
        self.window.clear();
        self.window.extend(win.iter().map(|&c| Cycles(c)));
        self.issue_backlog = backlog as u32;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> OooCore {
        OooCore::new(OooParams::default())
    }

    #[test]
    fn independent_loads_overlap() {
        // 16 loads of 100 cycles: in-order would cost 1600; OoO issues them
        // all into the window at ~4/cycle.
        let mut c = core();
        let mut now = Cycles::ZERO;
        for _ in 0..16 {
            now += c.issue(now, &Instruction::Load { latency: Cycles(100) });
        }
        assert!(now < Cycles(50), "loads should overlap, got {now}");
        assert_eq!(c.stats().loads, 16);
    }

    #[test]
    fn full_window_stalls() {
        let mut c =
            OooCore::new(OooParams { base: CoreParams::default(), window: 4, issue_width: 4 });
        let mut now = Cycles::ZERO;
        for _ in 0..16 {
            now += c.issue(now, &Instruction::Load { latency: Cycles(100) });
        }
        // 16 ops through a 4-entry window of 100-cycle ops: roughly
        // (16/4 - 1) × 100 of forced waiting.
        assert!(now > Cycles(250), "window must throttle, got {now}");
        assert!(c.window_occupancy() <= 4);
    }

    #[test]
    fn issue_bandwidth_bounds_alu_throughput() {
        let mut c = core();
        let adv = c.issue(Cycles(0), &Instruction::IntAlu { count: 400 });
        // 400 single-cycle ops at 4-wide: ~100 cycles.
        assert!(adv >= Cycles(100) && adv <= Cycles(120), "got {adv}");
        assert!((c.stats().ipc() - 4.0).abs() < 0.5, "ipc {}", c.stats().ipc());
    }

    #[test]
    fn recv_drains_the_window() {
        let mut c = core();
        c.issue(Cycles(0), &Instruction::Load { latency: Cycles(500) });
        assert_eq!(c.window_occupancy(), 1);
        let adv = c.issue(Cycles(0), &Instruction::Recv { wait: Cycles(10) });
        assert_eq!(c.window_occupancy(), 0);
        assert!(adv >= Cycles(510), "drain must wait for the load: {adv}");
    }

    #[test]
    fn ooo_beats_in_order_on_memory_mix() {
        use crate::InOrderCore;
        let run = |mut model: Box<dyn CoreModel>| -> Cycles {
            let mut now = Cycles::ZERO;
            for i in 0..200u64 {
                now += model.issue(now, &Instruction::Load { latency: Cycles(50) });
                now += model.issue(now, &Instruction::IntAlu { count: 4 });
                now += model.issue(now, &Instruction::Branch { pc: i % 8, taken: true });
            }
            now
        };
        let inorder = run(Box::new(InOrderCore::new(CoreParams::default())));
        let ooo = run(Box::new(OooCore::new(OooParams::default())));
        assert!(ooo.0 * 3 < inorder.0, "OoO should be ≥3x faster on this mix: {ooo} vs {inorder}");
    }

    #[test]
    fn save_load_state_resumes_identically() {
        let mut a = core();
        let mut now = Cycles::ZERO;
        for i in 0..30u64 {
            now += a.issue(now, &Instruction::Load { latency: Cycles(80) });
            now += a.issue(now, &Instruction::IntAlu { count: 3 });
            now += a.issue(now, &Instruction::Branch { pc: i % 4, taken: i % 3 == 0 });
        }
        let mut words = Vec::new();
        a.save_state(&mut words);
        let mut b = core();
        assert!(b.load_state(&words));
        assert_eq!(b.stats().cycles, a.stats().cycles);
        assert_eq!(b.window_occupancy(), a.window_occupancy());
        for i in 0..20u64 {
            let instr = Instruction::Load { latency: Cycles(80) };
            assert_eq!(a.issue(now, &instr), b.issue(now, &instr));
            let br = Instruction::Branch { pc: i % 4, taken: i % 2 == 0 };
            assert_eq!(a.issue(now, &br), b.issue(now, &br));
            now += Cycles(2);
        }
    }

    #[test]
    fn load_state_rejects_misshapen_words() {
        let mut c = core();
        assert!(!c.load_state(&[0; 3]));
        let mut words = Vec::new();
        core().save_state(&mut words);
        // An over-full window cannot be restored.
        let mut bad = words.clone();
        bad[9] = u64::MAX;
        assert!(!c.load_state(&bad));
        assert!(c.load_state(&words));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = OooCore::new(OooParams { base: CoreParams::default(), window: 0, issue_width: 1 });
    }
}
