//! `ledger` — the Graphite-rs benchmark.
//!
//! ```text
//! ledger list                                   what is declared
//! ledger run [--traced] [--smoke] [--seed N]    every workload, one child process each
//! ledger selfcheck                              the untraced set twice; deltas against bounds
//! ledger one --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!                                               one workload in this process (the driver's entry)
//! ```
//!
//! `one` prints what it measured and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `README.md` beside this package for what every number means.

mod host;
mod ladder;
mod measure;
mod serve;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use graphite_serve::Json;

use measure::Outcome;
use spec::{Better, Metric, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Arguments of `one` (and, minus the workload, of `run` and `selfcheck`).
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Traced run: ladder, spans and hostprof; reports the per-layer metrics.
    pub trace: bool,
    /// 1/20 size throughout.
    pub smoke: bool,
}

impl Args {
    /// Parses `--flag value` pairs; `--traced` and `--smoke` are bare.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?.clone(),
                "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--traced" => a.trace = true,
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(a)
    }

    /// The flags that reproduce these arguments on a child's command line.
    fn to_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            flags.push("--smoke".into());
        }
        flags
    }
}

/// The profile directory cargo built this executable into
/// (`<target-dir>/release`); unit-test executables sit one level down in
/// `deps/`.
pub fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let dir = if dir.ends_with("deps") { dir.parent().unwrap_or(dir) } else { dir };
    Ok(dir.to_owned())
}

/// Scratch space beside the build: `<target-dir>/ledger/`. Traces, the
/// ladder's checkpoint image and server data directories live here.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = bin_dir()?.parent().ok_or("executable has no target dir")?.join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn header() {
    println!("ledger: {}", host::fingerprint());
    println!(
        "model unvalidated: the repo holds no reference hardware results, so simulated \
         numbers carry no error figure; every time below is host time unless it says cycles"
    );
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).map_or("?", |m| m.unit)
}

/// The result line the driver reads.
fn result_json(out: &Outcome) -> String {
    let metrics = out.metrics.iter().map(|&(name, value)| {
        // JSON has no NaN; a value that could not be measured is already a
        // failed op, so any finite stand-in is rejected with the run.
        let value = if value.is_finite() { value } else { -1.0 };
        (
            name.to_owned(),
            Json::Obj(vec![("value".into(), value.into()), ("unit".into(), unit_of(name).into())]),
        )
    });
    Json::Obj(vec![
        ("correct".into(), out.correct().into()),
        ("attempted".into(), out.attempted.max(1).into()),
        ("failed".into(), out.failed.into()),
        ("metrics".into(), Json::Obj(metrics.collect())),
    ])
    .encode()
}

fn print_metrics(metrics: &[(&str, f64)]) {
    for (name, value) in metrics {
        println!("  {name:<28} {value:>16.6} {}", unit_of(name));
    }
}

fn cmd_one(args: &Args) -> Result<ExitCode, String> {
    let dir = work_dir()?;
    header();
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        args.workload, args.seed, args.seconds, args.trace, args.smoke
    );
    let out = measure::run_workload(args, &dir)?;
    for line in &out.notes {
        println!("{line}");
    }
    print_metrics(&out.metrics);
    println!(
        "failed_ops/attempted_ops {}/{}  output checks {}",
        out.failed,
        out.attempted,
        if out.failed == 0 { "pass" } else { "FAIL" }
    );
    println!("{}", result_json(&out));
    Ok(ExitCode::SUCCESS)
}

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    /// `wall_s` spread over the child's own repetitions, when it printed one.
    rep_spread: Option<f64>,
}

/// Runs `ledger one` for `workload` in a child process (own `VmHWM`, no
/// leaked threads or allocator state), echoing its report. A child that
/// exits non-zero, dies on a signal or prints no result is a failed
/// repetition of that workload.
fn run_child(workload: &str, args: &Args) -> ChildResult {
    let failed = |why: String| {
        println!("FAILED: {workload}: {why}");
        ChildResult { correct: false, attempted: 1, failed: 1, metrics: vec![], rep_spread: None }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("own path: {e}")),
    };
    let out = Command::new(exe)
        .args(["one", "--workload", workload])
        .args(args.to_flags())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let out = match out {
        Ok(out) => out,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    for line in lines.iter().take(lines.len().saturating_sub(1)).skip(2) {
        println!("  {line}");
    }
    if !out.status.success() {
        return failed(format!("child exited with {}", out.status));
    }
    let Some(doc) = lines.last().and_then(|l| Json::parse(l).ok()) else {
        return failed("child printed no result line".to_owned());
    };
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => vec![],
    };
    let rep_spread = lines
        .iter()
        .find_map(|l| l.split_once(measure::REP_SPREAD_TAG)?.1.trim_end_matches(')').parse().ok());
    ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(1),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(1),
        metrics,
        rep_spread,
    }
}

/// Runs every workload once; returns each workload's result.
fn run_set(args: &Args) -> Vec<(&'static str, ChildResult)> {
    WORKLOADS
        .iter()
        .map(|&(name, why)| {
            println!("\n== {name} ==\n  why: {why}");
            (name, run_child(name, args))
        })
        .collect()
}

const INTERACTION_NOTES: &str = "\
how the layers interact:
  with 2 host cores and 16-64 guest contexts, a faster layer saves at most its share of the
  blocking steps on the Lax workloads; on ocean_barrier, freeing the slot/handoff chain can save
  more than its self time, because every tile waits for the slowest at each quantum.
  attributed_share = sum(count x layer ns/op) / wall_s is reported by the traced run, not asserted.";

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    header();
    if !args.trace {
        // The traced children each run the ladder themselves.
        let dir = work_dir()?;
        println!("\n== layer ladder (per-layer, never gated) ==");
        print_metrics(&measure::ladder(args, &mut spans::Spans::new(false), &dir));
    }
    let results = run_set(args);
    println!("\n== summary: {} run ==", if args.trace { "traced" } else { "untraced" });
    println!("{:<18} {:>9} {:>8}  checks", "workload", "attempted", "failed");
    let mut ok = true;
    for (name, r) in &results {
        ok &= r.correct;
        println!(
            "{name:<18} {:>9} {:>8}  {}",
            r.attempted,
            r.failed,
            if r.correct { "pass" } else { "FAIL" }
        );
    }
    if !args.trace {
        println!(
            "\n{:<18} {}",
            "workload",
            END_TO_END.map(|m| format!("{:>14}", m.name)).join(" ")
        );
        for (name, r) in &results {
            let cells = END_TO_END.map(|m| match r.metrics.iter().find(|(k, _)| k == m.name) {
                Some((_, v)) => format!("{v:>14.4}"),
                None => format!("{:>14}", "-"),
            });
            println!("{name:<18} {}", cells.join(" "));
        }
        println!("{:<18} {}", "unit", END_TO_END.map(|m| format!("{:>14}", m.unit)).join(" "));
        let bounds = END_TO_END.map(|m| format!("{:>13.0}%", m.bound.unwrap_or(0.0) * 100.0));
        println!("{:<18} {}", "bound", bounds.join(" "));
    }
    println!("\n{INTERACTION_NOTES}");
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    header();
    println!("selfcheck: the untraced set twice on the same code");
    let first = run_set(args);
    let second = run_set(args);
    println!("\n== selfcheck: second set against first ==");
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "delta", "bound"
    );
    let mut ok = true;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        ok &= a.correct && b.correct;
        if a.failed + b.failed > 0 {
            println!(
                "{name:<18} failed_ops {}/{} and {}/{}",
                a.failed, a.attempted, b.failed, b.attempted
            );
        }
        for m in &END_TO_END {
            let value =
                |r: &ChildResult| r.metrics.iter().find(|(k, _)| k == m.name).map(|kv| kv.1);
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("{name:<18} {:<14} missing", m.name);
                ok = false;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let delta = worsening(m, x, y);
            // Only wall_s has repetitions inside a run to take a spread from.
            let spread = (m.name == "wall_s")
                .then(|| a.rep_spread.into_iter().chain(b.rep_spread).fold(0.0, f64::max));
            let verdict = if m.name == "setup_s" && (y - x).abs() < spec::SETUP_FLOOR_S {
                "unchanged (within the 10 ms floor)"
            } else if delta.abs() > bound {
                ok = false;
                "EXCEEDS BOUND"
            } else if spread.is_some_and(|s| s > bound) {
                "unresolved (rep spread exceeds bound)"
            } else {
                "unchanged"
            };
            println!(
                "{name:<18} {:<14} {x:>12.4} {y:>12.4} {:>+7.1}% {:>6.0}%  {verdict}",
                m.name,
                delta * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", &[][..]),
    };
    let run = || -> Result<ExitCode, String> {
        match cmd {
            "list" => {
                print!("{}", spec::listing());
                Ok(ExitCode::SUCCESS)
            }
            "one" => cmd_one(&Args::parse(rest)?),
            "run" => cmd_run(&Args::parse(rest)?),
            "selfcheck" => cmd_selfcheck(&Args::parse(rest)?),
            _ => Err("usage: ledger list | run [--traced] [--smoke] [--seed N] | selfcheck | \
                      one --workload W --seed N --seconds S --trace 0|1 [--smoke]"
                .to_owned()),
        }
    };
    run().unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_drivers_flags_parse_and_round_trip_to_a_child() {
        let argv = ["--workload", "rand_miss", "--seed", "9", "--seconds", "3", "--trace", "1"];
        let a = Args::parse(&argv.map(String::from)).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("rand_miss", 9, 3.0, true, false)
        );
        let again = Args::parse(&a.to_flags()).unwrap();
        assert_eq!((again.seed, again.seconds, again.trace), (9, 3.0, true));
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--bogus"],
        ] {
            assert!(Args::parse(&bad.iter().map(|s| s.to_string()).collect::<Vec<_>>()).is_err());
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 4,
            failed: 0,
            metrics: vec![("wall_s", 1.25), ("setup_s", 0.5)],
            notes: vec![],
        };
        assert_eq!(
            result_json(&out),
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"},"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        // An unmeasurable value makes the run incorrect, and still valid JSON.
        let broken = Outcome { metrics: vec![("wall_s", f64::NAN)], ..out };
        let doc = Json::parse(&result_json(&broken)).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn a_child_that_prints_no_result_is_a_failed_repetition() {
        // Under `cargo test` the "child" is this test executable, which
        // ignores `one …` and prints no result line.
        let r = run_child("rand_miss", &Args::parse(&[]).unwrap());
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (1, 1));
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let lower = END_TO_END[0];
        let higher = END_TO_END[1];
        assert_eq!((lower.better, higher.better), (Better::Lower, Better::Higher));
        assert!((worsening(&lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 110.0) < 0.0);
    }
}
