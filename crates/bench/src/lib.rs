//! Shared infrastructure for the experiment harness.
//!
//! Each `benches/figN_*.rs` target regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for recorded results). This library holds the pieces they share: a
//! simulation runner, observability export, and fixed-width table printing.
//!
//! ## Observability export
//!
//! Every harness that goes through [`run_workload`] (or calls
//! [`export_observability`] itself) honours `GRAPHITE_OBS_DIR=<dir>` (and
//! [`write_observability`] takes the directory as an argument): after
//! each simulation it writes `<dir>/<NNN>_<label>.metrics.json` (the full
//! metrics registry, schema `graphite.metrics.v1`) and, when tracing or skew
//! sampling captured anything, `<dir>/<NNN>_<label>.trace.jsonl` (one
//! structured event per line) plus `<dir>/<NNN>_<label>.perfetto.json` (a
//! Chrome `trace_event` timeline for <https://ui.perfetto.dev>). Tracing is a
//! builder switch: pass `|b| b.tracing(true)` as `run_workload`'s tweak.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use graphite::{Sim, SimBuilder, SimConfig, SimReport};
use graphite_workloads::Workload;

/// Sequence number so repeated runs of the same workload in one harness get
/// distinct artifact names.
static EXPORT_SEQ: AtomicU32 = AtomicU32::new(0);

/// Writes `label`'s artifacts (see [`write_observability`]) under
/// `$GRAPHITE_OBS_DIR`; a no-op when the variable is unset or empty.
pub fn export_observability(label: &str, report: &SimReport) {
    match std::env::var_os("GRAPHITE_OBS_DIR") {
        Some(dir) if !dir.is_empty() => write_observability(Path::new(&dir), label, report),
        _ => {}
    }
}

/// Writes `label`'s `metrics.json` (plus `trace.jsonl` and a Perfetto
/// `perfetto.json` timeline when events or skew samples were captured)
/// under `dir`, creating it if needed. Non-alphanumeric label characters
/// are folded to `_`.
pub fn write_observability(dir: &Path, label: &str, report: &SimReport) {
    let _ = std::fs::create_dir_all(dir);
    let clean: String =
        label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    let seq = EXPORT_SEQ.fetch_add(1, Ordering::Relaxed);
    let stem = format!("{seq:03}_{clean}");
    let dir = dir.display();
    let metrics_path = format!("{dir}/{stem}.metrics.json");
    if let Err(e) = std::fs::write(&metrics_path, report.metrics_json()) {
        eprintln!("warning: could not write {metrics_path}: {e}");
    }
    if !report.trace_events.is_empty() {
        let trace_path = format!("{dir}/{stem}.trace.jsonl");
        if let Err(e) = std::fs::write(&trace_path, report.trace_jsonl()) {
            eprintln!("warning: could not write {trace_path}: {e}");
        }
    }
    if !report.trace_events.is_empty() || !report.skew_samples.is_empty() {
        let perfetto_path = format!("{dir}/{stem}.perfetto.json");
        if let Err(e) = std::fs::write(&perfetto_path, report.perfetto_json()) {
            eprintln!("warning: could not write {perfetto_path}: {e}");
        }
    }
}

/// Runs `workload` with `threads` application threads on a simulator built
/// from `cfg` (after applying `tweak` to the builder), returning the report.
/// Honours `GRAPHITE_OBS_DIR` (see the module docs).
pub fn run_workload(
    cfg: SimConfig,
    threads: u32,
    workload: Arc<dyn Workload>,
    tweak: impl FnOnce(SimBuilder) -> SimBuilder,
) -> SimReport {
    let name = workload.name();
    let sim = tweak(Sim::builder(cfg)).build().expect("valid bench config");
    let report = sim.run(move |ctx| workload.run(ctx, threads));
    export_observability(name, &report);
    report
}

/// Prints a fixed-width table with a title, header row and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Median of a slice (not required to be sorted).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    if v.is_empty() {
        return f64::NAN;
    }
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_workloads::workload_by_name;

    #[test]
    fn runner_executes_a_workload() {
        let cfg = SimConfig::builder().tiles(2).build().unwrap();
        let r = run_workload(cfg, 2, workload_by_name("radix").unwrap(), |b| b);
        assert!(r.mem.accesses() > 0);
    }

    #[test]
    fn observability_export_writes_parseable_artifacts() {
        let dir = std::env::temp_dir().join(format!("graphite-obs-{}", std::process::id()));
        let cfg = SimConfig::builder().tiles(2).build().unwrap();
        let r = run_workload(cfg, 2, workload_by_name("radix").unwrap(), |b| b.tracing(true));
        write_observability(&dir, "radix", &r);
        assert!(!r.trace_events.is_empty(), "tracing(true) must capture events");
        let mut metrics = 0;
        let mut traces = 0;
        for entry in std::fs::read_dir(&dir).expect("obs dir created") {
            let path = entry.unwrap().path();
            let body = std::fs::read_to_string(&path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.ends_with(".metrics.json") {
                graphite_trace::json::Json::parse(&body).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(body.contains("graphite.metrics.v1"));
                metrics += 1;
            } else if name.ends_with(".trace.jsonl") {
                for line in body.lines() {
                    graphite_trace::json::Json::parse(line)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                }
                traces += 1;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(metrics >= 1, "metrics.json written");
        assert!(traces >= 1, "trace.jsonl written");
    }

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2344), "1.234");
    }
}
