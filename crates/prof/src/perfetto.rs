//! Chrome `trace_event` / Perfetto exporter.
//!
//! Renders a drained tracer stream, skew samples, and a metrics snapshot as
//! one JSON document in the Chrome trace-event format, loadable in
//! `ui.perfetto.dev` or `chrome://tracing`:
//!
//! * one **thread track per tile** (`pid` 0, `tid` = tile index), named via
//!   `"M"` metadata events;
//! * memory operations and packet deliveries as **complete events**
//!   (`ph:"X"`) whose duration is the modeled latency;
//! * causal flow hops ([`TraceEventKind::FlowHop`]) as **flow arrows**: a
//!   `ph:"s"` start on the sender's track at injection paired with a
//!   `ph:"f"` finish on the receiver's track at arrival, bound by the flow
//!   ID — cross-process hops therefore draw an arrow between the two tiles'
//!   tracks in the merged timeline;
//! * per-tile trace-ring drop counts as `"M"` metadata (`trace_dropped`),
//!   so a timeline with missing spans says where they were lost;
//! * every other trace event as a **thread-scoped instant** (`ph:"i"`);
//! * clock skew and final CPI stacks as **counter tracks** (`ph:"C"`).
//!
//! Timestamps are simulated cycles written into the format's microsecond
//! field — the UI's time axis therefore reads in cycles, not wall time.
//!
//! The workspace builds offline (no serde_json), so the document is built
//! with [`graphite_trace::json::quote`] and checked by
//! [`validate_chrome_trace`], a strict validator the tests and the traced
//! examples use to prove a run produced a loadable trace with at least one
//! event per tile.

use std::collections::BTreeMap;
use std::fmt::Write;

use graphite_base::HostProfSnapshot;
use graphite_sync::SkewSample;
use graphite_trace::json::{self, Json};
use graphite_trace::{MetricsSnapshot, TraceEvent, TraceEventKind};

use crate::cpi::CpiStack;

/// Serializes trace events, skew samples, and CPI stacks (if present in
/// `snapshot`) into one Chrome trace-event JSON document.
///
/// Any of the inputs may be empty; metadata tracks for `num_tiles` tiles
/// are always emitted so the timeline shape is stable. `dropped` is the
/// per-tile count of events lost to trace-ring wrap-around; nonzero tiles
/// get a `trace_dropped` metadata entry so incomplete flows in the
/// timeline can be traced back to where their spans were discarded.
pub fn chrome_trace_json(
    events: &[TraceEvent],
    skew: &[SkewSample],
    snapshot: &MetricsSnapshot,
    num_tiles: usize,
    dropped: &[u64],
) -> String {
    chrome_trace_json_with_host(events, skew, snapshot, num_tiles, dropped, None)
}

/// Like [`chrome_trace_json`], additionally rendering a sampled host-cost
/// profile as a second process (`pid` 1, `graphite-host`): one thread track
/// per registered host thread (carrier workers, the driver), and each
/// sampled span as a complete event whose timestamp/duration are real
/// nanoseconds written into the microsecond field — the simulated-time
/// (`pid` 0) and host-time (`pid` 1) axes are different units and are kept
/// in separate processes for that reason.
pub fn chrome_trace_json_with_host(
    events: &[TraceEvent],
    skew: &[SkewSample],
    snapshot: &MetricsSnapshot,
    num_tiles: usize,
    dropped: &[u64],
    host: Option<&HostProfSnapshot>,
) -> String {
    let mut out = String::with_capacity(256 + events.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, obj: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(obj);
    };

    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"graphite-sim\"}}",
    );
    for i in 0..num_tiles.max(1) {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"tile {i}\"}}}}"
            ),
        );
    }
    for (i, &d) in dropped.iter().enumerate() {
        if d > 0 {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"trace_dropped\",\
                     \"args\":{{\"dropped\":{d}}}}}"
                ),
            );
        }
    }

    for ev in events {
        let tid = ev.tile.0;
        let ts = ev.cycles.0;
        // `to_json()` is already a complete JSON object carrying every
        // payload field — reuse it verbatim as the event's args.
        let args = ev.to_json();
        match ev.kind {
            TraceEventKind::MemOpDone { op, latency, .. } => {
                let start = ts.saturating_sub(latency);
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{start},\
                         \"dur\":{latency},\"name\":{},\"args\":{args}}}",
                        json::quote(&format!("mem:{op}"))
                    ),
                );
            }
            TraceEventKind::PacketRecv { class, latency, .. } => {
                let start = ts.saturating_sub(latency);
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{start},\
                         \"dur\":{latency},\"name\":{},\"args\":{args}}}",
                        json::quote(&format!("net:{class}"))
                    ),
                );
            }
            TraceEventKind::FlowHop { flow, src, dst, arrival } => {
                // A network hop becomes a flow arrow from the sender's track
                // at injection time to the receiver's track at arrival; the
                // flow ID binds the two ends, so every hop of one causal
                // flow chains into a single arrow sequence in the UI.
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"flow\",\
                         \"id\":{flow},\"pid\":0,\"tid\":{src},\"ts\":{ts}}}"
                    ),
                );
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"name\":\"flow\",\
                         \"id\":{flow},\"pid\":0,\"tid\":{dst},\"ts\":{arrival}}}"
                    ),
                );
            }
            TraceEventKind::ClockSkew { skew } => {
                // The tracer's own skew samples become a per-tile counter
                // series (cycles ahead of the mean; may be negative).
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\
                         \"name\":{},\"args\":{{\"cycles_vs_mean\":{skew}}}}}",
                        json::quote(&format!("clock_skew.tile{tid}"))
                    ),
                );
            }
            _ => {
                push(
                    &mut out,
                    &format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\
                         \"ts\":{ts},\"name\":{},\"args\":{args}}}",
                        json::quote(ev.kind.name())
                    ),
                );
            }
        }
    }

    // Skew-sampler timelines: one counter series per tile, timestamped at
    // the sample's approximate global cycle count, valued as the tile's lag
    // behind the fastest clock (0 = leading tile).
    for s in skew {
        let ts = s.mean as u64;
        for (i, d) in s.deltas_vs_max().iter().enumerate() {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{i},\"ts\":{ts},\
                     \"name\":{},\"args\":{{\"cycles_behind_max\":{d}}}}}",
                    json::quote(&format!("skew.tile{i}"))
                ),
            );
        }
    }

    // Final CPI stacks: one stacked counter event per tile at its end-of-run
    // clock (the classes sum to the tile's total cycles).
    if let Some(rows) = CpiStack::from_snapshot(snapshot) {
        for tile in 0..num_tiles {
            let mut args = String::from("{");
            let mut total = 0u64;
            for (name, values) in &rows {
                let v = values.get(tile).copied().unwrap_or(0);
                total += v;
                let _ = write!(args, "\"{name}\":{v},");
            }
            if args.ends_with(',') {
                args.pop();
            }
            args.push('}');
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tile},\"ts\":{total},\
                     \"name\":{},\"args\":{args}}}",
                    json::quote(&format!("cpi.tile{tile}"))
                ),
            );
        }
    }

    // Host-cost tracks: real time on a separate process so the cycle axis
    // of pid 0 is never mixed with nanoseconds.
    if let Some(h) = host.filter(|h| h.enabled && !h.events.is_empty()) {
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"graphite-host\"}}",
        );
        for (i, name) in h.threads.iter().enumerate() {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json::quote(name)
                ),
            );
        }
        if h.dropped_events > 0 {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"host_events_dropped\",\
                     \"args\":{{\"dropped\":{}}}}}",
                    h.dropped_events
                ),
            );
        }
        for ev in &h.events {
            // Nanoseconds into the microsecond field with fractional part,
            // so sub-microsecond spans keep their width.
            let ts = ev.start_ns as f64 / 1000.0;
            let dur = ev.dur_ns as f64 / 1000.0;
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
                     \"dur\":{dur:.3},\"name\":{},\"args\":{{\"sample\":{}}}}}",
                    ev.tid,
                    json::quote(&format!("host:{}", ev.stage.name())),
                    h.sample
                ),
            );
        }
    }

    out.push_str("\n]}");
    out
}

/// What [`validate_chrome_trace`] learned about a trace document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChromeTraceSummary {
    /// All entries in `traceEvents`, metadata included.
    pub total_events: usize,
    /// Number of `thread_name` metadata entries (thread tracks).
    pub thread_tracks: usize,
    /// Number of counter (`ph:"C"`) events.
    pub counter_events: usize,
    /// Number of flow-arrow events (`ph:"s"` starts plus `ph:"f"`
    /// finishes); a well-formed export has an even count.
    pub flow_events: usize,
    /// Timeline events (`ph:"X"` or `ph:"i"`) per `tid`.
    pub events_per_tid: BTreeMap<u64, usize>,
}

impl ChromeTraceSummary {
    /// True when every tile in `0..num_tiles` has at least one timeline
    /// event on its thread track — the criterion `profiler_demo` asserts.
    pub fn covers_tiles(&self, num_tiles: usize) -> bool {
        (0..num_tiles as u64).all(|t| self.events_per_tid.get(&t).copied().unwrap_or(0) > 0)
    }
}

/// Validates a Chrome trace-event document: strict JSON syntax (via
/// [`Json::parse`]) plus the structural rules the trace UIs rely on (a
/// `traceEvents` array; every event carries `ph` and `pid`; timeline events
/// carry `ts`; `"X"` events carry `dur`; flow arrows `"s"`/`"f"` carry `ts`,
/// `tid`, and a binding `id`, and every `id` has as many starts as
/// finishes).
///
/// # Errors
///
/// Returns a human-readable description of the first problem found.
pub fn validate_chrome_trace(doc: &str) -> Result<ChromeTraceSummary, String> {
    let root = Json::parse(doc)?;
    let events = root
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut summary = ChromeTraceSummary::default();
    // Per flow id: starts minus finishes.
    let mut open_flows: BTreeMap<String, i64> = BTreeMap::new();
    for ev in events {
        summary.total_events += 1;
        let has = |k: &str| ev.get(k).is_some();
        let bad = |what: &str| format!("{what}: {}", ev.encode());
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| bad("event without \"ph\""))?;
        if !has("pid") {
            return Err(bad("event without \"pid\""));
        }
        let tid = ev.get("tid").and_then(Json::as_u64);
        match ph {
            "M" => {
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    summary.thread_tracks += 1;
                }
            }
            "C" => {
                if !has("ts") {
                    return Err(bad("counter event without \"ts\""));
                }
                summary.counter_events += 1;
            }
            "s" | "f" => {
                if !has("ts") {
                    return Err(bad("flow event without \"ts\""));
                }
                if tid.is_none() {
                    return Err(bad("flow event without \"tid\""));
                }
                let id = ev.get("id").ok_or_else(|| bad("flow event without \"id\""))?;
                *open_flows.entry(id.encode()).or_insert(0) += if ph == "s" { 1 } else { -1 };
                summary.flow_events += 1;
            }
            "X" | "i" => {
                if !has("ts") {
                    return Err(bad("timeline event without \"ts\""));
                }
                if ph == "X" && !has("dur") {
                    return Err(bad("complete event without \"dur\""));
                }
                let tid = tid.ok_or_else(|| bad("timeline event without \"tid\""))?;
                *summary.events_per_tid.entry(tid).or_insert(0) += 1;
            }
            other => return Err(bad(&format!("unsupported event phase {other:?}"))),
        }
    }
    if let Some((id, open)) = open_flows.iter().find(|(_, open)| **open != 0) {
        return Err(format!("flow id {id}: starts minus finishes is {open}"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpi::{CpiClass, CpiStack};
    use graphite_base::{Cycles, TileId};
    use graphite_trace::{MetricsRegistry, Tracer};

    fn sample(clocks: Vec<u64>) -> SkewSample {
        let min = clocks.iter().copied().min().unwrap();
        let max = clocks.iter().copied().max().unwrap();
        let mean = clocks.iter().sum::<u64>() as f64 / clocks.len() as f64;
        SkewSample {
            wall_ms: 1,
            mean,
            min,
            max,
            max_above: max as f64 - mean,
            max_below: mean - min as f64,
            all_moving: true,
            clocks,
        }
    }

    fn empty_snapshot() -> MetricsSnapshot {
        MetricsRegistry::new(1).snapshot()
    }

    #[test]
    fn empty_inputs_still_produce_a_valid_document_with_tracks() {
        let doc = chrome_trace_json(&[], &[], &empty_snapshot(), 4, &[]);
        let summary = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(summary.thread_tracks, 4);
        assert_eq!(summary.counter_events, 0);
        assert_eq!(summary.flow_events, 0);
        assert!(!summary.covers_tiles(1));
    }

    #[test]
    fn tracer_events_land_on_their_tile_tracks() {
        let t = Tracer::new(2, true, 64);
        t.emit(TileId(0), Cycles(10), || TraceEventKind::MemOpStart { op: "load", addr: 0x40 });
        t.emit(TileId(0), Cycles(30), || TraceEventKind::MemOpDone {
            op: "load",
            addr: 0x40,
            latency: 20,
            hit: false,
        });
        t.emit(TileId(1), Cycles(5), || TraceEventKind::Syscall { name: "brk" });
        let events = t.drain();
        let doc = chrome_trace_json(&events, &[], &empty_snapshot(), 2, &[]);
        let summary = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(summary.thread_tracks, 2);
        assert!(summary.covers_tiles(2));
        assert_eq!(summary.events_per_tid[&0], 2);
        assert_eq!(summary.events_per_tid[&1], 1);
        // The miss renders as a complete event spanning its latency.
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":10,\"dur\":20"));
        assert!(doc.contains("\"name\":\"mem:load\""));
    }

    #[test]
    fn skew_samples_become_per_tile_counters() {
        let doc = chrome_trace_json(
            &[],
            &[sample(vec![100, 140]), sample(vec![200, 210])],
            &empty_snapshot(),
            2,
            &[],
        );
        let summary = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(summary.counter_events, 4);
        assert!(doc.contains("\"name\":\"skew.tile0\""));
        assert!(doc.contains("{\"cycles_behind_max\":40}"));
        assert!(doc.contains("{\"cycles_behind_max\":0}"));
    }

    #[test]
    fn cpi_stacks_become_stacked_counters() {
        let reg = MetricsRegistry::new(2);
        let cpi = CpiStack::registered(&reg);
        cpi.add(TileId(0), CpiClass::Compute, Cycles(60));
        cpi.add(TileId(0), CpiClass::MemL1, Cycles(40));
        let doc = chrome_trace_json(&[], &[], &reg.snapshot(), 2, &[]);
        let summary = validate_chrome_trace(&doc).expect("valid");
        assert_eq!(summary.counter_events, 2);
        assert!(doc.contains("\"name\":\"cpi.tile0\""));
        assert!(doc.contains("\"compute\":60"));
        // Counter timestamp is the tile's total accounted cycles.
        assert!(doc.contains("\"ts\":100,\"name\":\"cpi.tile0\""));
    }

    #[test]
    fn flow_hops_become_bound_arrow_pairs() {
        let t = Tracer::new(4, true, 64);
        t.set_flows(true);
        t.emit(TileId(0), Cycles(10), || TraceEventKind::FlowSend {
            flow: 7,
            dst: 3,
            kind: "mem_miss",
        });
        t.emit(TileId(0), Cycles(12), || TraceEventKind::FlowHop {
            flow: 7,
            src: 0,
            dst: 3,
            arrival: 40,
        });
        t.emit(TileId(3), Cycles(40), || TraceEventKind::FlowHop {
            flow: 7,
            src: 3,
            dst: 0,
            arrival: 70,
        });
        let events = t.drain();
        let doc = chrome_trace_json(&events, &[], &empty_snapshot(), 4, &[]);
        let summary = validate_chrome_trace(&doc).expect("valid");
        // Two hops render as two start/finish arrow pairs.
        assert_eq!(summary.flow_events, 4);
        // Request hop: starts on tile 0 at injection, lands on tile 3 at
        // its modeled arrival.
        assert!(doc.contains("\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"flow\",\"id\":7,\"pid\":0,\"tid\":0,\"ts\":12"));
        assert!(doc.contains(
            "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"name\":\"flow\",\"id\":7,\"pid\":0,\"tid\":3,\"ts\":40"
        ));
        // The FlowSend itself stays an instant on the sender's track.
        assert!(doc.contains("\"name\":\"flow_send\""));
    }

    #[test]
    fn dropped_counts_surface_as_metadata() {
        let doc = chrome_trace_json(&[], &[], &empty_snapshot(), 4, &[0, 3, 0, 9]);
        validate_chrome_trace(&doc).expect("valid");
        assert!(doc.contains("\"tid\":1,\"name\":\"trace_dropped\",\"args\":{\"dropped\":3}"));
        assert!(doc.contains("\"tid\":3,\"name\":\"trace_dropped\",\"args\":{\"dropped\":9}"));
        // Tiles that lost nothing stay out of the metadata.
        assert!(!doc.contains("\"tid\":0,\"name\":\"trace_dropped\""));
    }

    #[test]
    fn flow_events_missing_id_are_rejected() {
        let doc = "{\"traceEvents\":[{\"ph\":\"s\",\"pid\":0,\"tid\":1,\"ts\":3}]}";
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("id"), "{err}");
    }

    #[test]
    fn unbalanced_flow_arrows_are_rejected() {
        let arrow = |ph: &str, id: u64| {
            format!("{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":1,\"ts\":3,\"id\":{id}}}")
        };
        let doc = |arrows: &[String]| format!("{{\"traceEvents\":[{}]}}", arrows.join(","));
        let balanced = doc(&[arrow("s", 7), arrow("s", 9), arrow("f", 9), arrow("f", 7)]);
        assert_eq!(validate_chrome_trace(&balanced).expect("balanced").flow_events, 4);
        // Same total count, but id 7 has two starts and id 9 two finishes.
        let crossed = doc(&[arrow("s", 7), arrow("s", 7), arrow("f", 9), arrow("f", 9)]);
        let err = validate_chrome_trace(&crossed).unwrap_err();
        assert!(err.contains("flow id 7"), "{err}");
        let dangling = doc(&[arrow("s", 7), arrow("f", 7), arrow("s", 7)]);
        assert!(validate_chrome_trace(&dangling).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("{\"events\":[]}").is_err());
        // Syntactically valid but missing required fields.
        let doc = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":3}]}";
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }
}
