//! One workload, one process: warm up, repeat, check the outputs, report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use graphite::SimReport;

use crate::ladder::{self, Rung};
use crate::serve::{self, MixResult, MixSize, Server};
use crate::spans::Spans;
use crate::spec::{self, DEFAULT_SEED};
use crate::stats::{highest_reportable_percentile, median, percentile, quartile_spread};
use crate::workloads::{sim_cases, Counts, Scale, SimCase};
use crate::{host, Args};

/// Timed repetitions every run makes at the least.
const MIN_REPS: usize = 3;
/// What introduces a run's own `wall_s` repetition spread (inter-quartile
/// distance over median) in its report; `selfcheck` reads the number back
/// from a child's output by this tag.
pub const REP_SPREAD_TAG: &str = "rep IQR/median ";
/// Build-only set-up samples on the simulator workloads.
const SETUP_SAMPLES: usize = 40;
/// Server boots whose median is `setup_s` on `serve_mix`.
const BOOT_SAMPLES: usize = 5;

/// What a run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in declaration order.
    pub metrics: Vec<Rung>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every op succeeded and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }
}

/// One repetition of a simulator workload.
struct Rep {
    wall_s: f64,
    report: SimReport,
}

/// Generates inputs, builds a fresh `Sim`, runs it. A panic anywhere inside
/// (every kernel verifies its numeric result and panics on mismatch) comes
/// back as `Err`.
fn one_rep(
    case: &SimCase,
    seed: u64,
    scale: Scale,
    hostprof: bool,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let program = spans.in_span("input generation", || case.program(seed, scale));
    let sim = spans
        .in_span("Sim build", || case.build(seed, hostprof))
        .map_err(|e| format!("{}: build: {e}", case.name))?;
    let t1 = Instant::now();
    let run = spans.in_span("Sim::run", || catch_unwind(AssertUnwindSafe(|| sim.run(program))));
    let wall_s = t1.elapsed().as_secs_f64();
    let report = run.map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("{}: repetition panicked: {msg}", case.name)
    })?;
    Ok(Rep { wall_s, report })
}

/// Checks a repetition's exact-count outputs: equal to the first
/// repetition's at that size, and on the default seed equal to the frozen
/// values.
fn check_counts(
    out: &mut Outcome,
    case: &SimCase,
    seed: u64,
    scale: Scale,
    rep: &Rep,
    first: &mut Option<Counts>,
) {
    let got = Counts::of(case, &rep.report);
    let want = *first.get_or_insert(got);
    if got != want {
        out.fail(format!(
            "{}: counts {got:?} differ from the first repetition's {want:?}",
            case.name
        ));
    }
    if seed == DEFAULT_SEED {
        match spec::frozen_counts(case.name, scale) {
            Some(frozen) if frozen != got => {
                out.fail(format!(
                    "{}: counts {got:?} differ from the frozen {frozen:?}",
                    case.name
                ));
            }
            Some(_) => {}
            None => out.fail(format!("{}: no frozen counts at {scale:?}", case.name)),
        }
    }
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// (max − min) / median.
fn spread(xs: &[f64]) -> f64 {
    let (lo, hi) = min_max(xs);
    (hi - lo) / median(xs)
}

/// The untraced run of a simulator workload: every end-to-end metric.
fn sim_end_to_end(case: &SimCase, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(false);
    let seed = args.seed;
    let size = if args.smoke { Scale::Warm } else { Scale::Full };

    // Untimed warm-up at 1/20 size: page cache, allocator, thread stacks.
    out.attempted += 1;
    match one_rep(case, seed, Scale::Warm, false, &mut spans) {
        Ok(rep) => check_counts(&mut out, case, seed, Scale::Warm, &rep, &mut None),
        Err(e) => out.fail(e),
    }

    // Set-up samples: inputs + config + build at full size, torn down by an
    // empty run (a built `Sim` owns service threads only `run` joins). Taken
    // here, before the repetitions grow the heap, so every sample allocates
    // from the same state.
    let mut setups = Vec::new();
    for _ in 0..if args.smoke { 2 } else { SETUP_SAMPLES } {
        let t0 = Instant::now();
        let _program = case.program(seed, size);
        match case.build(seed, false) {
            Ok(sim) => {
                setups.push(t0.elapsed().as_secs_f64());
                sim.run(|_| {});
            }
            Err(e) => out.fail(format!("{}: set-up build: {e}", case.name)),
        }
    }

    // Timed repetitions at the fixed op count, each on a fresh `Sim`, for as
    // long as another one fits into `--seconds`. A job is one repetition from
    // input generation to checked report.
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    let started = Instant::now();
    let (mut walls, mut jobs_ms, mut cycles) = (vec![], vec![], vec![]);
    let (mut first, mut peak_rss_mb) = (None, f64::NAN);
    // A NaN median (every repetition failed) ends the loop at `min_reps`.
    let mut reps = 0;
    while reps < min_reps
        || (!args.smoke && started.elapsed().as_secs_f64() + median(&jobs_ms) / 1e3 <= args.seconds)
    {
        reps += 1;
        out.attempted += 1;
        let t0 = Instant::now();
        match one_rep(case, seed, size, false, &mut spans) {
            Ok(rep) => {
                check_counts(&mut out, case, seed, size, &rep, &mut first);
                jobs_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                walls.push(rep.wall_s);
                cycles.push(rep.report.simulated_cycles.0 as f64);
            }
            Err(e) => out.fail(e),
        }
        // What running the workload once takes; later repetitions only add
        // allocator and teardown timing to the high-water mark.
        if peak_rss_mb.is_nan() {
            peak_rss_mb = host::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
        }
    }

    let (lo, hi) = min_max(&walls);
    out.note(format!(
        "wall_s: {} reps at fixed size, min {lo:.4} median {:.4} max {hi:.4} s ({REP_SPREAD_TAG}{:.3})",
        walls.len(),
        median(&walls),
        quartile_spread(&walls).unwrap_or(f64::NAN),
    ));
    out.note(format!(
        "jobs: a job here is one repetition, input generation to checked report, back to back \
         from 1 client; {} samples, highest reportable percentile {}, so short_p90_ms reads the \
         median job latency and jobs_per_s its inverse",
        jobs_ms.len(),
        highest_reportable_percentile(jobs_ms.len())
            .map_or("none (fewer than 20 samples)".to_owned(), |pm| format!("p{}", pm / 10)),
    ));
    out.note(format!("setup_s: median of {} set-ups", setups.len()));
    if let Some(c) = first {
        out.note(format!(
            "exact counts (checked): accesses={} user_msgs={} sim_cycles={}",
            c.accesses,
            c.user_msgs,
            c.sim_cycles.map_or("not checked".to_owned(), |c| c.to_string()),
        ));
    }
    let (lo, hi) = min_max(&cycles);
    out.note(format!(
        "sim_cycles_spread (reported, never gated): min {lo:.0} median {:.0} max {hi:.0}",
        median(&cycles),
    ));
    out.metrics = vec![
        ("wall_s", median(&walls)),
        ("jobs_per_s", 1e3 / median(&jobs_ms)),
        ("short_p90_ms", median(&jobs_ms)),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", median(&setups)),
    ];
    out
}

/// Boots a server in a data directory of its own under `work_dir`.
fn boot(bin: &Path, work_dir: &Path, tag: &str, hostprof: bool) -> Result<Server, String> {
    let dir = work_dir.join(format!("serve-{}-{tag}", std::process::id()));
    Server::boot(bin, &dir, hostprof)
}

/// Folds one mix's failures into `out` and checks the long jobs against the
/// un-preempted golden cycles.
fn account_mix(out: &mut Outcome, mix: &MixResult, golden: &[(u64, u64)]) {
    out.attempted += mix.attempted;
    out.failed += mix.failed;
    for e in &mix.errors {
        out.note(format!("FAILED: {e}"));
    }
    for &serve::LongJob { seed, sim_cycles: cycles, preemptions, .. } in &mix.long_jobs {
        match golden.iter().find(|(s, _)| *s == seed) {
            Some(&(_, want)) if want == cycles => out.note(format!(
                "long job seed {seed}: sim_cycles {cycles} == un-preempted golden \
                 ({preemptions} preemptions)"
            )),
            other => out.fail(format!(
                "long job seed {seed}: sim_cycles {cycles} after {preemptions} preemptions, \
                 golden {other:?}"
            )),
        }
    }
}

/// Both long jobs' golden cycles, computed on two threads.
fn golden_cycles(seed: u64, long_iters: u64) -> Result<Vec<(u64, u64)>, String> {
    std::thread::scope(|s| {
        let jobs: Vec<_> = serve::long_seeds(seed)
            .into_iter()
            .map(|ls| s.spawn(move || serve::golden_long_cycles(ls, long_iters).map(|c| (ls, c))))
            .collect();
        jobs.into_iter().map(|j| j.join().map_err(|_| "golden run panicked".to_owned())?).collect()
    })
}

/// The untraced run of `serve_mix`: every end-to-end metric.
fn serve_end_to_end(args: &Args, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    out.attempted += 1;
    let bin = match serve::build_server_binary() {
        Ok(bin) => bin,
        Err(e) => {
            out.fail(format!("missing graphite-serve binary: {e}"));
            return out;
        }
    };
    let size = if args.smoke { MixSize::WARM } else { MixSize::FULL };

    // setup_s: process start → first /healthz 200, several boots.
    let mut boots = Vec::new();
    for i in 0..if args.smoke { 1 } else { BOOT_SAMPLES } {
        match boot(&bin, work_dir, &format!("boot{i}"), false) {
            Ok(server) => {
                boots.push(server.boot.as_secs_f64());
                server.shutdown();
            }
            Err(e) => out.fail(e),
        }
    }
    // Untimed warm-up at 1/20 size on a server of its own.
    if !args.smoke {
        match boot(&bin, work_dir, "warm", false) {
            Ok(server) => {
                let warm = serve::run_mix(server, MixSize::WARM, args.seed);
                account_mix(
                    &mut out,
                    &warm,
                    &golden_cycles(args.seed, MixSize::WARM.long_iters).unwrap_or_default(),
                );
            }
            Err(e) => out.fail(e),
        }
    }
    // The measured mix, each time on a fresh server, as often as another one
    // fits into `--seconds` (once at the declared 12 s).
    let golden = golden_cycles(args.seed, size.long_iters).unwrap_or_else(|e| {
        out.fail(e);
        vec![]
    });
    let started = Instant::now();
    let mut mixes: Vec<MixResult> = Vec::new();
    let mix_s = |m: &MixResult| m.burst_wall_s + m.paced_wall_s;
    // "Fits": the time so far plus one more mix of average length.
    while mixes.is_empty()
        || (!args.smoke
            && started.elapsed().as_secs_f64() * (1.0 + 1.0 / mixes.len() as f64) <= args.seconds)
    {
        match boot(&bin, work_dir, "mix", false) {
            Ok(server) => {
                boots.push(server.boot.as_secs_f64());
                let mix = serve::run_mix(server, size, args.seed);
                account_mix(&mut out, &mix, &golden);
                mixes.push(mix);
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }

    let over = |f: &dyn Fn(&MixResult) -> f64| median(&mixes.iter().map(f).collect::<Vec<_>>());
    let p90_of = |m: &MixResult| percentile(&m.short_latency_ms, 900).map_or(f64::NAN, |p| p.0);
    for m in &mixes {
        let (late_p90, _) = percentile(&m.lateness_ms, 900).unwrap_or((f64::NAN, 0));
        let late_max = m.lateness_ms.iter().copied().fold(0.0, f64::max);
        let beyond = percentile(&m.short_latency_ms, 900).map_or(0, |p| p.1);
        out.note(format!(
            "burst: {} jobs, closed batch from 2 connections, first submit → last completion \
             {:.4} s",
            m.burst_jobs, m.burst_wall_s
        ));
        out.note(format!(
            "paced: {} short jobs open-loop at {} /s behind 2 long jobs; p50 {:.3} ms, p90 {:.3} ms \
             from the scheduled send time ({beyond} samples beyond); generator lateness p90 \
             {late_p90:.3} ms, max {late_max:.3} ms",
            m.short_latency_ms.len(),
            size.paced_rate_hz,
            median(&m.short_latency_ms),
            p90_of(m),
        ));
        out.note(format!(
            "wall_s: burst {:.4} s + paced phase (long jobs submitted → last job completed) \
             {:.4} s; each long job's own turnaround {:?} s",
            m.burst_wall_s,
            m.paced_wall_s,
            m.long_jobs.iter().map(|j| j.wall_s).collect::<Vec<_>>()
        ));
    }
    out.note(format!("setup_s: median of {} boots (process start → /healthz 200)", boots.len()));
    out.metrics = vec![
        ("wall_s", over(&mix_s)),
        ("jobs_per_s", over(&|m| m.burst_jobs as f64 / m.burst_wall_s)),
        ("short_p90_ms", over(&p90_of)),
        ("peak_rss_mb", over(&|m| m.peak_rss_mb)),
        ("setup_s", median(&boots)),
    ];
    out
}

/// Runs the ladder and returns its rungs in declaration order.
pub fn ladder(args: &Args, spans: &mut Spans, work_dir: &Path) -> Vec<Rung> {
    let div = if args.smoke { 20 } else { 1 };
    ladder::run_all(spans, div, args.seed, work_dir)
}

/// Σ(count × layer ns/op) for one repetition, in seconds of host CPU time:
/// what the ladder's per-op costs predict the counted work should cost.
fn attributed_s(r: &SimReport, tcp: bool, rung: impl Fn(&str) -> f64) -> f64 {
    let m = &r.mem;
    let hits_l1 = m.l1d_hits as f64;
    let ns = hits_l1 * rung("core.ctx_op_ns")
        + m.l2_hits as f64
            * (rung("core.ctx_op_ns") + rung("memory.l2_hit_ns") - rung("memory.l1_hit_ns"))
        + m.misses as f64
            * (rung("core.ctx_op_ns") + rung("memory.miss_ns") - rung("memory.l1_hit_ns"))
        + m.invalidations as f64 * rung("memory.inval_ns")
        + r.sync.barrier_waits as f64 * rung("sync.barrier_quantum_ns")
        + r.sync.p2p_checks as f64 * rung("sync.p2p_check_ns")
        + r.sched.handoffs as f64 * rung("sched.handoff_ns")
        + r.user_msgs as f64
            * 500.0
            * rung(if tcp { "transport.tcp_rtt_us" } else { "transport.local_rtt_us" });
    ns / 1e9
}

/// The traced run of a simulator workload: ladder, then one untraced and one
/// traced repetition (spans + hostprof), and every per-layer metric.
fn sim_traced(case: &SimCase, args: &Args, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(true);
    let rungs = ladder(args, &mut spans, work_dir);
    let rung = |name: &str| rungs.iter().find(|r| r.0 == name).map_or(f64::NAN, |r| r.1);
    let size = if args.smoke { Scale::Warm } else { Scale::Full };
    let seed = args.seed;

    out.attempted += 1;
    if let Err(e) = one_rep(case, seed, Scale::Warm, false, &mut Spans::new(false)) {
        out.fail(e);
    }
    let mut first = None;
    let mut timed = |hostprof: bool, spans: &mut Spans, out: &mut Outcome| {
        out.attempted += 1;
        let name = if hostprof { "traced" } else { "untraced" };
        spans.set_run(&format!("{} {name}", case.name));
        let id = spans.begin("repetition");
        let rep = one_rep(case, seed, size, hostprof, spans);
        let checked = spans.begin("verification + report extraction");
        let rep = match rep {
            Ok(rep) => {
                check_counts(out, case, seed, size, &rep, &mut first);
                Some(rep)
            }
            Err(e) => {
                out.fail(e);
                None
            }
        };
        spans.end(checked);
        spans.end(id);
        rep
    };
    let plain = timed(false, &mut Spans::new(false), &mut out);
    let traced = timed(true, &mut spans, &mut out);

    let mut layer: Vec<Rung> = rungs.clone();
    if let (Some(plain), Some(traced)) = (&plain, &traced) {
        let r = &traced.report;
        let cycles = [plain.report.simulated_cycles.0 as f64, r.simulated_cycles.0 as f64];
        let profile = r.host_profile();
        if let Some(p) = &profile {
            out.note(format!("hostprof (sample 1 in {}), self ns/op by stage:", p.sample));
            for s in &p.stages {
                out.note(format!(
                    "  {:<18} count {:>10}  self {:>9.1} ns/op",
                    s.name, s.count, s.self_ns_per_op
                ));
            }
        } else {
            out.fail(format!("{}: traced run returned no host profile", case.name));
        }
        let util = profile.as_ref().map(|p| p.utilization).unwrap_or_default();
        let attributed = attributed_s(r, case.tcp, rung);
        out.note(format!(
            "attributed_share = Σ(count × layer ns/op) / wall_s = {attributed:.3} s / {:.3} s \
             (CPU seconds per wall second: up to nproc={} on a parallel workload)",
            traced.wall_s,
            host::nproc()
        ));
        layer.extend([
            ("count.accesses", r.mem.accesses() as f64),
            ("count.misses", r.mem.misses as f64),
            ("count.miss_rate", r.mem.miss_rate()),
            ("count.invalidations", r.mem.invalidations as f64),
            ("count.net_packets", (r.net_memory.packets + r.net_user.packets) as f64),
            ("count.net_hops", (r.net_memory.hops + r.net_user.hops) as f64),
            ("count.barrier_releases", r.sync.barrier_releases as f64),
            ("count.user_msgs", r.user_msgs as f64),
            ("count.sched_parks", r.sched.parks as f64),
            ("count.sched_handoffs", r.sched.handoffs as f64),
            ("count.sched_steals", r.sched.steals as f64),
            ("count.threads_peak", r.sched.threads_peak as f64),
            ("model.sim_cycles_spread", spread(&cycles)),
            ("trace_overhead_pct", (traced.wall_s / plain.wall_s - 1.0) * 100.0),
            ("attributed_share", attributed / traced.wall_s),
            (
                "hostprof.miss_attribution",
                profile.as_ref().and_then(|p| p.miss_attribution).unwrap_or(0.0),
            ),
            ("hostprof.busy_frac", util.busy_frac),
            ("hostprof.overhead_frac", util.overhead_frac),
            ("hostprof.idle_frac", util.idle_frac),
            (
                "hostprof.top_stage_self_ns",
                profile.as_ref().and_then(|p| p.stages.first()).map_or(0.0, |s| s.self_ns_per_op),
            ),
        ]);
        out.note(format!(
            "trace_overhead_pct: traced {:.4} s vs untraced {:.4} s (one repetition each)",
            traced.wall_s, plain.wall_s
        ));
    }
    finish_trace(&mut out, &mut layer, &spans, case.name, work_dir);
    out.metrics = layer;
    out
}

/// The traced run of `serve_mix`: ladder, then the mix against a server
/// without and with `--hostprof`, client-side spans around each phase.
fn serve_traced(args: &Args, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(true);
    let mut layer = ladder(args, &mut spans, work_dir);
    let size = if args.smoke { MixSize::WARM } else { MixSize::FULL };
    out.attempted += 1;
    let run = |hostprof: bool, spans: &mut Spans| -> Result<MixResult, String> {
        let tag = if hostprof { "traced" } else { "untraced" };
        spans.set_run(&format!("serve_mix {tag}"));
        let id = spans.begin("serve_mix");
        let bin = spans.in_span("graphite-serve build", serve::build_server_binary)?;
        let server = spans.in_span("server boot", || boot(&bin, work_dir, tag, hostprof))?;
        let mix = spans.in_span("burst + paced", || serve::run_mix(server, size, args.seed));
        spans.end(id);
        Ok(mix)
    };
    let golden = spans
        .in_span("golden long jobs", || golden_cycles(args.seed, size.long_iters))
        .unwrap_or_else(|e| {
            out.fail(e);
            vec![]
        });
    let mut walls = Vec::new();
    for hostprof in [false, true] {
        match run(hostprof, &mut spans) {
            Ok(mix) => {
                account_mix(&mut out, &mix, &golden);
                walls.push(mix.burst_wall_s);
            }
            Err(e) => out.fail(e),
        }
    }
    let overhead = match walls[..] {
        [plain, traced] => (traced / plain - 1.0) * 100.0,
        _ => f64::NAN,
    };
    out.note(
        "serve_mix has no SimReport of its own: count.* and hostprof.* read 0 here; the \
              server run with --hostprof serves its stage table at GET /metrics"
            .to_owned(),
    );
    // Everything between the ladder and `trace.spans` (which finish_trace adds).
    for m in &spec::PER_LAYER[spec::LADDER_RUNGS..spec::PER_LAYER.len() - 1] {
        layer.push((m.name, if m.name == "trace_overhead_pct" { overhead } else { 0.0 }));
    }
    finish_trace(&mut out, &mut layer, &spans, "serve_mix", work_dir);
    out.metrics = layer;
    out
}

/// Writes the span log as `trace.<workload>.json` under `work_dir`, validates
/// it, prints the per-span self times and appends `trace.spans`.
fn finish_trace(
    out: &mut Outcome,
    layer: &mut Vec<Rung>,
    spans: &Spans,
    workload: &str,
    work_dir: &Path,
) {
    let doc = spans.chrome_trace_json();
    let path = work_dir.join(format!("trace.{workload}.json"));
    match graphite::validate_chrome_trace(&doc) {
        Ok(summary) => out.note(format!(
            "trace: {} spans, {} events validated, written to {}",
            spans.len(),
            summary.total_events,
            path.display()
        )),
        Err(e) => out.fail(format!("trace does not validate: {e}")),
    }
    if let Err(e) = std::fs::write(&path, doc) {
        out.fail(format!("writing {}: {e}", path.display()));
    }
    out.note("span self time (duration minus child spans), ms:".to_owned());
    for (name, us) in spans.self_time_us() {
        out.note(format!("  {name:<40} {:>10.3}", us / 1e3));
    }
    layer.push(("trace.spans", spans.len() as f64));
}

/// Runs one workload as the driver asks for it.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(args: &Args, work_dir: &Path) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    if name == "serve_mix" {
        return Ok(if args.trace {
            serve_traced(args, work_dir)
        } else {
            serve_end_to_end(args, work_dir)
        });
    }
    let cases = sim_cases();
    let case = cases
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}; `ledger list` names them"))?;
    Ok(if args.trace { sim_traced(case, args, work_dir) } else { sim_end_to_end(case, args) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::failing_case;

    fn args(workload: &str, trace: bool) -> Args {
        Args { workload: workload.into(), seed: DEFAULT_SEED, seconds: 1.0, trace, smoke: true }
    }

    #[test]
    fn a_panicking_repetition_is_a_failed_op_not_a_crash() {
        let case = failing_case();
        let err = one_rep(&case, 1, Scale::Warm, false, &mut Spans::new(false))
            .err()
            .expect("the guest panics");
        assert!(err.contains("repetition panicked") && err.contains("numeric result"), "{err}");

        let out = sim_end_to_end(&case, &args("always_fails", false));
        assert_eq!((out.attempted, out.failed), (2, 2), "{:?}", out.notes);
        assert!(!out.correct());
    }

    #[test]
    fn counts_that_move_between_repetitions_or_off_the_frozen_values_fail() {
        let case = &sim_cases()[4];
        let rep = one_rep(case, DEFAULT_SEED, Scale::Warm, false, &mut Spans::new(false)).unwrap();
        let mut out = Outcome::default();
        let mut first = None;
        check_counts(&mut out, case, DEFAULT_SEED, Scale::Warm, &rep, &mut first);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        // Same report, but the "first repetition" said otherwise.
        first = Some(Counts { user_msgs: 1, ..first.unwrap() });
        check_counts(&mut out, case, DEFAULT_SEED, Scale::Warm, &rep, &mut first);
        assert_eq!(out.failed, 1);
        // A held-out seed has no frozen values to miss.
        check_counts(&mut out, case, 7, Scale::Warm, &rep, &mut None);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let dir = crate::work_dir().unwrap();
        assert!(run_workload(&args("doom", false), &dir).is_err());
    }

    /// `ledger run --smoke` in one process: every workload at 1/20 size,
    /// untraced and traced; every declared metric present, every check green.
    #[test]
    fn smoke_every_workload_reports_every_metric_and_passes_its_checks() {
        let dir = crate::work_dir().unwrap();
        let have_server = match serve::build_server_binary() {
            Ok(_) => true,
            Err(e) => {
                eprintln!("SKIPPING serve_mix and the serve rungs: {e}");
                false
            }
        };
        for (name, _) in spec::WORKLOADS {
            if name == "serve_mix" && !have_server {
                continue;
            }
            let out = run_workload(&args(name, false), &dir).unwrap();
            assert!(out.correct(), "{name}: {:#?}", out.notes);
            assert!(out.attempted >= 2 && out.failed == 0, "{name}");
            let names: Vec<_> = out.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, spec::END_TO_END.map(|m| m.name), "{name}");
            assert!(out.metrics.iter().all(|m| m.1 > 0.0), "{name}: {:?}", out.metrics);
        }
        if !have_server {
            return;
        }
        for name in ["rand_miss", "serve_mix"] {
            let out = run_workload(&args(name, true), &dir).unwrap();
            assert!(out.correct(), "{name} traced: {:#?}", out.notes);
            let names: Vec<_> = out.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, spec::PER_LAYER.map(|m| m.name), "{name} traced");
            let trace = std::fs::read_to_string(dir.join(format!("trace.{name}.json"))).unwrap();
            graphite::validate_chrome_trace(&trace).unwrap();
        }
    }
}
