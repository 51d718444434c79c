//! Prometheus text exposition (format version 0.0.4).
//!
//! Two halves, used together by `graphite-serve` and its tests:
//!
//! * [`PromText`] — a small builder that renders metric families: `# TYPE`
//!   headers, labeled samples, and histograms expanded into the *cumulative*
//!   `_bucket{le="…"}` / `_sum` / `_count` series the format requires. The
//!   repo's log₂ [`HistogramSnapshot`] buckets carry inclusive upper bounds,
//!   which map directly onto `le` (less-or-equal) boundaries; the open
//!   top bucket folds into `le="+Inf"`.
//! * [`validate`] — a dependency-free checker for the invariants scrapers
//!   rely on: every sample belongs to a declared family, histogram bucket
//!   series are cumulative and monotone, `_count` equals the `+Inf` bucket,
//!   and `_sum`/`_count` agree with the bucket series. The serve telemetry
//!   tests run it against live `/metrics` output.
//!
//! Nothing here depends on the rest of the crate beyond
//! [`HistogramSnapshot`], so any subsystem with a registry snapshot can
//! expose itself.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::metrics::HistogramSnapshot;

/// Maps an internal dotted metric name (`serve.queue_wait_us`) onto the
/// Prometheus name charset `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other byte
/// becomes `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok || c.is_ascii_digit() { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: `\` → `\\`, newline → `\n` (the format's comment
/// escaping; quotes are legal in help text and stay as-is).
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

fn label_block_with_le(labels: &[(&str, &str)], le: &str) -> String {
    let mut inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    inner.push(format!("le=\"{le}\""));
    format!("{{{}}}", inner.join(","))
}

/// Builder for one exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    typed: BTreeSet<String>,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a family: `# HELP` + `# TYPE`. Call once per family, before
    /// its samples; repeated declarations are ignored (first kind wins).
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        if !self.typed.insert(name.to_owned()) {
            return;
        }
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one integer sample.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let _ = writeln!(self.out, "{name}{} {value}", label_block(labels));
    }

    /// Emits one float sample (gauges derived from wall-clock ages).
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(self.out, "{name}{} {value}", label_block(labels));
    }

    /// Expands a histogram snapshot into cumulative `_bucket` series plus
    /// `_sum` and `_count`. The snapshot's sparse per-bucket counts become a
    /// running total; the `u64::MAX` bucket (and the total) land on
    /// `le="+Inf"`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot) {
        let mut cum = 0u64;
        for &(upper, n) in &h.buckets {
            cum += n;
            if upper == u64::MAX {
                break; // the open top bucket is exactly the +Inf series
            }
            let block = label_block_with_le(labels, &upper.to_string());
            let _ = writeln!(self.out, "{name}_bucket{block} {cum}");
        }
        let block = label_block_with_le(labels, "+Inf");
        let _ = writeln!(self.out, "{name}_bucket{block} {}", h.count);
        let _ = writeln!(self.out, "{name}_sum{} {}", label_block(labels), h.sum);
        let _ = writeln!(self.out, "{name}_count{} {}", label_block(labels), h.count);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label names use a narrower charset than metric names: no colon.
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_labels(s: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let err = |m: &str| format!("line {line_no}: {m}");
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest.find('=').ok_or_else(|| err("label without '='"))?;
        let key = rest[..eq].trim().to_owned();
        if !valid_label_name(&key) {
            return Err(err(&format!("bad label name {key:?}")));
        }
        rest = rest[eq + 1..].strip_prefix('"').ok_or_else(|| err("label value not quoted"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close = loop {
            let (i, c) = chars.next().ok_or_else(|| err("unterminated label value"))?;
            match c {
                '"' => break i,
                '\\' => match chars.next().ok_or_else(|| err("dangling escape"))?.1 {
                    'n' => value.push('\n'),
                    e @ ('\\' | '"') => value.push(e),
                    e => return Err(err(&format!("bad escape \\{e}"))),
                },
                _ => value.push(c),
            }
        };
        labels.push((key, value));
        rest = &rest[close + 1..];
        // Only a separator (or the block end) may follow the closing quote;
        // trailing junk means an unescaped quote ended the value early.
        if !rest.is_empty() && !rest.starts_with(',') {
            return Err(err("expected ',' after label value (unescaped '\"'?)"));
        }
    }
}

fn parse_sample(line: &str, line_no: usize) -> Result<Sample, String> {
    let err = |m: &str| format!("line {line_no}: {m} in {line:?}");
    let (name_and_labels, value_str) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or_else(|| err("unclosed label block"))?;
            (
                (&line[..open], Some(&line[open + 1..close])),
                line[close + 1..].split_whitespace().next().unwrap_or(""),
            )
        }
        None => {
            let mut parts = line.split_whitespace();
            ((parts.next().unwrap_or(""), None), parts.next().unwrap_or(""))
        }
    };
    let (name, raw_labels) = name_and_labels;
    let name = name.trim().to_owned();
    if !valid_name(&name) {
        return Err(err(&format!("bad metric name {name:?}")));
    }
    let labels = match raw_labels {
        Some(s) => parse_labels(s, line_no)?,
        None => Vec::new(),
    };
    let value = match value_str {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| err(&format!("bad sample value {v:?}")))?,
    };
    Ok(Sample { name, labels, value })
}

/// Canonical key for a label set (order-independent), optionally dropping
/// `le` so all of a histogram's bucket series group together. Length-prefixed
/// so crafted values containing the separators cannot collide.
fn label_key(labels: &[(String, String)], drop_le: bool) -> String {
    let mut pairs: Vec<&(String, String)> =
        labels.iter().filter(|(k, _)| !(drop_le && k == "le")).collect();
    pairs.sort();
    pairs.iter().map(|(k, v)| format!("{}:{k}={}:{v};", k.len(), v.len())).collect()
}

/// Per-(histogram family, label set) accumulation for the invariant checks.
#[derive(Default)]
struct HistSeries {
    /// `(le, cumulative count)` in document order.
    buckets: Vec<(f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Validates a Prometheus text exposition document.
///
/// Checks the invariants a scraper depends on: parseable sample lines, every
/// family declared by exactly one `# TYPE` before use, no duplicate samples,
/// and for each histogram series: ascending `le` bounds, monotone cumulative
/// bucket counts, a terminal `+Inf` bucket equal to `_count`, and a `_sum`
/// no smaller than what the closed buckets imply.
///
/// # Errors
///
/// A human-readable message naming the first offending line or family.
pub fn validate(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_samples: BTreeSet<String> = BTreeSet::new();
    let mut hists: BTreeMap<(String, String), HistSeries> = BTreeMap::new();

    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts.next().unwrap_or("").to_owned();
                let kind = parts.next().unwrap_or("").to_owned();
                if !valid_name(&name) {
                    return Err(format!("line {line_no}: bad TYPE name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind.as_str())
                {
                    return Err(format!("line {line_no}: unknown TYPE {kind:?}"));
                }
                if types.insert(name.clone(), kind).is_some() {
                    return Err(format!("line {line_no}: duplicate TYPE for {name}"));
                }
            }
            continue;
        }

        let s = parse_sample(trimmed, line_no)?;
        let full_key = format!("{} {}", s.name, label_key(&s.labels, false));
        if !seen_samples.insert(full_key) {
            return Err(format!("line {line_no}: duplicate sample {}", s.name));
        }

        // Resolve the sample to its declared family: histogram series use
        // suffixed names, everything else matches the family name directly.
        let hist_base = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = s.name.strip_suffix(suffix)?;
            (types.get(base).map(String::as_str) == Some("histogram"))
                .then(|| (base.to_owned(), *suffix))
        });
        match hist_base {
            Some((base, suffix)) => {
                let key = (base, label_key(&s.labels, true));
                let series = hists.entry(key).or_default();
                match suffix {
                    "_bucket" => {
                        let le = s
                            .labels
                            .iter()
                            .find(|(k, _)| k == "le")
                            .ok_or_else(|| format!("line {line_no}: _bucket without le"))?;
                        let bound = match le.1.as_str() {
                            "+Inf" => f64::INFINITY,
                            v => v
                                .parse::<f64>()
                                .map_err(|_| format!("line {line_no}: bad le {v:?}"))?,
                        };
                        series.buckets.push((bound, s.value));
                    }
                    "_sum" => series.sum = Some(s.value),
                    _ => series.count = Some(s.value),
                }
            }
            None => {
                if !types.contains_key(&s.name) {
                    return Err(format!("line {line_no}: sample {} has no # TYPE", s.name));
                }
                if types[&s.name] == "counter" && s.value < 0.0 {
                    return Err(format!("line {line_no}: negative counter {}", s.name));
                }
            }
        }
    }

    for ((base, labels), series) in &hists {
        let what = format!("histogram {base}{{{labels}}}");
        if series.buckets.is_empty() {
            return Err(format!("{what}: no _bucket series"));
        }
        for pair in series.buckets.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(format!("{what}: le bounds not ascending"));
            }
            if pair[1].1 < pair[0].1 {
                return Err(format!("{what}: cumulative bucket counts decrease"));
            }
        }
        let (top_le, top_count) = *series.buckets.last().expect("non-empty");
        if top_le != f64::INFINITY {
            return Err(format!("{what}: missing le=\"+Inf\" bucket"));
        }
        let count = series.count.ok_or_else(|| format!("{what}: missing _count"))?;
        let sum = series.sum.ok_or_else(|| format!("{what}: missing _sum"))?;
        if count != top_count {
            return Err(format!("{what}: _count {count} != +Inf bucket {top_count}"));
        }
        if sum < 0.0 || (count == 0.0 && sum != 0.0) {
            return Err(format!("{what}: _sum {sum} inconsistent with _count {count}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ShardedHistogram;

    #[test]
    fn sanitizes_names_and_escapes_labels() {
        assert_eq!(sanitize_name("serve.queue_wait_us"), "serve_queue_wait_us");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn rendered_document_passes_validation() {
        let h = ShardedHistogram::default();
        for v in [0, 1, 3, 3, 900, u64::MAX] {
            h.record(0, v);
        }
        let mut doc = PromText::new();
        doc.family("jobs_total", "counter", "jobs accepted");
        doc.sample("jobs_total", &[("tenant", "acme")], 7);
        doc.sample("jobs_total", &[("tenant", "glo\"bex")], 2);
        doc.family("queue_depth", "gauge", "queued jobs");
        doc.sample("queue_depth", &[], 3);
        doc.family("wait_us", "histogram", "queue wait");
        doc.histogram("wait_us", &[("tenant", "acme")], &h.snapshot());
        let text = doc.finish();
        validate(&text).unwrap();
        assert!(text.contains("wait_us_bucket{tenant=\"acme\",le=\"+Inf\"} 6"));
        assert!(text.contains("wait_us_count{tenant=\"acme\"} 6"));
        // The u64::MAX bucket folds into +Inf rather than printing its bound.
        assert!(!text.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn histogram_series_is_cumulative() {
        let h = ShardedHistogram::default();
        for v in [1u64, 2, 2, 8] {
            h.record(0, v);
        }
        let mut doc = PromText::new();
        doc.family("w", "histogram", "w");
        doc.histogram("w", &[], &h.snapshot());
        let text = doc.finish();
        assert!(text.contains("w_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("w_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("w_bucket{le=\"15\"} 4"), "{text}");
        assert!(text.contains("w_bucket{le=\"+Inf\"} 4"), "{text}");
        validate(&text).unwrap();
    }

    #[test]
    fn validator_rejects_broken_documents() {
        // Sample with no TYPE.
        assert!(validate("x 1\n").is_err());
        // Non-monotone cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate(bad).unwrap_err().contains("decrease"));
        // Missing +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate(bad).unwrap_err().contains("+Inf"));
        // _count disagrees with the top bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(validate(bad).unwrap_err().contains("_count"));
        // Missing _sum.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n";
        assert!(validate(bad).unwrap_err().contains("_sum"));
        // Duplicate sample.
        let bad = "# TYPE c counter\nc{t=\"a\"} 1\nc{t=\"a\"} 2\n";
        assert!(validate(bad).unwrap_err().contains("duplicate"));
        // Well-formed documents still pass.
        validate("# TYPE c counter\nc{t=\"a\"} 1\nc{t=\"b\"} 2\n").unwrap();
    }

    #[test]
    fn validator_handles_escaped_label_values() {
        let mut doc = PromText::new();
        doc.family("c", "counter", "c");
        doc.sample("c", &[("t", "a\"b\\c\nd")], 1);
        validate(&doc.finish()).unwrap();
    }

    #[test]
    fn validator_rejects_unescaped_label_values() {
        // A raw '"' inside a value ends it early and leaves junk before the
        // next separator.
        let bad = "# TYPE c counter\nc{t=\"a\"b\"} 1\n";
        assert!(validate(bad).unwrap_err().contains("after label value"));
        // A raw newline splits the sample line: the value never terminates.
        let bad = "# TYPE c counter\nc{t=\"a\nb\"} 1\n";
        assert!(validate(bad).is_err());
        // A dangling backslash at end of value.
        let bad = "# TYPE c counter\nc{t=\"a\\\"} 1\n";
        assert!(validate(bad).is_err());
        // Unknown escape sequences are not silently accepted.
        let bad = "# TYPE c counter\nc{t=\"a\\t\"} 1\n";
        assert!(validate(bad).unwrap_err().contains("bad escape"));
    }

    #[test]
    fn validator_rejects_colons_in_label_names() {
        // Metric names may contain ':', label names may not.
        validate("# TYPE a:b counter\na:b 1\n").unwrap();
        let bad = "# TYPE c counter\nc{t:x=\"a\"} 1\n";
        assert!(validate(bad).unwrap_err().contains("bad label name"));
    }

    #[test]
    fn crafted_label_values_do_not_collide_as_duplicates() {
        // Same flattened text under naive "k=v;" joining, distinct label
        // sets: must both be accepted, not flagged as duplicates.
        let doc = "# TYPE c counter\nc{a=\"x;b=y\"} 1\nc{a=\"x\",b=\"y\"} 2\n";
        validate(doc).unwrap();
    }

    #[test]
    fn help_text_is_escaped() {
        let mut doc = PromText::new();
        doc.family("c", "counter", "line one\nwith \\ backslash");
        doc.sample("c", &[], 1);
        let text = doc.finish();
        assert!(text.contains("# HELP c line one\\nwith \\\\ backslash"), "{text}");
        validate(&text).unwrap();
    }
}
