//! The traced run's span recorder: spans opened from the benchmark's own
//! files around each call into a layer, kept in memory, written once at the
//! end as a Chrome trace.
//!
//! Spans nest by call order on the one thread that records them, so the
//! parent of a span is whatever span was open when it began.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Which repetition or ladder rung the span belongs to; spans of one run
    /// share it.
    run: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: Option<f64>,
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has no duration"]
pub struct SpanId(Option<usize>);

/// The in-memory span log. A disabled log records nothing, so the untraced
/// run pays one branch per span site.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    run: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), run: String::new(), spans: vec![], open: vec![] }
    }

    /// Names the run that subsequent spans belong to.
    pub fn set_run(&mut self, run: &str) {
        if self.enabled {
            self.run = run.to_owned();
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            run: self.run.clone(),
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: None,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and, defensively, any span opened inside it that was
    /// left open by an early return or a caught panic).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = Some(now);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn in_span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name in microseconds: each span's duration minus
    /// the part of it its direct children cover, summed by name.
    pub fn self_time_us(&self) -> Vec<(String, f64)> {
        let dur = |s: &Span| s.end_us.unwrap_or(s.start_us) - s.start_us;
        let mut own: Vec<f64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= dur(s);
            }
        }
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, sum)) => *sum += t,
                None => by_name.push((s.name.clone(), t)),
            }
        }
        by_name
    }

    /// The log as a Chrome `trace_event` document: one complete (`"X"`)
    /// event per span on a single thread track, parent index and run id in
    /// `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"ledger\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":\"{}\"}}}}",
                escape(&s.name),
                s.start_us,
                s.end_us.unwrap_or(s.start_us) - s.start_us,
                escape(&s.run),
            );
        }
        out.push_str("\n]}");
        out
    }
}

/// Span and run names are the benchmark's own identifiers; escape the two
/// characters that could still break a JSON string.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_order_and_validate_as_a_chrome_trace() {
        let mut s = Spans::new(true);
        s.set_run("rep0");
        let outer = s.begin("rep");
        s.in_span("build", || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.in_span("sim.run", || std::thread::sleep(std::time::Duration::from_millis(3)));
        s.end(outer);
        assert_eq!(s.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);

        let own = s.self_time_us();
        let of = |n: &str| own.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(of("build") >= 2_000.0);
        assert!(of("sim.run") >= 3_000.0);
        // The parent's self time excludes what its children cover.
        let total = s.spans[0].end_us.unwrap() - s.spans[0].start_us;
        assert!((of("rep") - (total - of("build") - of("sim.run"))).abs() < 1.0);

        let doc = s.chrome_trace_json();
        let summary = graphite::validate_chrome_trace(&doc).expect("valid chrome trace");
        assert_eq!(summary.events_per_tid.get(&0), Some(&3));
        assert_eq!(summary.thread_tracks, 1);
    }

    #[test]
    fn ending_an_outer_span_closes_spans_left_open_inside_it() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer");
        let _leaked = s.begin("inner");
        s.end(outer);
        assert!(s.spans.iter().all(|sp| sp.end_us.is_some()));
        assert!(s.open.is_empty());
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.begin("x");
        s.end(id);
        assert_eq!(s.in_span("y", || 7), 7);
        assert_eq!(s.len(), 0);
    }
}
