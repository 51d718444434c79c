//! Structured service logging: one JSON object per line, leveled, written to
//! `DATA_DIR/serve.log.jsonl`.
//!
//! Every record carries `ts_ms` (Unix milliseconds), `level`, and `event`
//! (dotted, e.g. `job.dispatch`, `http.access`), plus event-specific fields.
//! The `[serve] log_level` knob sets the verbosity threshold; `warn` and
//! `error` records are additionally echoed to stderr so an operator watching
//! the terminal still sees trouble without tailing the log file.
//!
//! The sink rotates by size: when a record would push the file past
//! `[serve] log_max_bytes`, the current file is renamed to `<path>.1`
//! (replacing any previous `.1`) and a fresh file is started — one
//! generation of history, bounded total footprint, no external logrotate
//! dependency. `log_max_bytes = 0` disables rotation.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use graphite_config::LogLevel;
use parking_lot::Mutex;

use graphite_trace::json::Json;

/// The open sink plus what rotation needs: the path (to rename and reopen)
/// and a running byte count (so the size check costs no `metadata` call).
#[derive(Debug)]
struct Sink {
    file: File,
    path: PathBuf,
    written: u64,
}

/// The service logger. Cheap to share behind the service's `Arc`; writes are
/// serialized by an internal mutex so concurrent connection threads never
/// interleave partial lines.
#[derive(Debug)]
pub struct Logger {
    level: LogLevel,
    max_bytes: u64,
    sink: Option<Mutex<Sink>>,
}

impl Logger {
    /// Opens (appending) the JSONL sink at `path` with the given threshold
    /// and no size-based rotation.
    ///
    /// # Errors
    ///
    /// I/O errors creating or opening the file.
    pub fn to_file(path: &Path, level: LogLevel) -> std::io::Result<Logger> {
        Self::to_file_rotating(path, level, 0)
    }

    /// Like [`Logger::to_file`], rotating the sink to `<path>.1` whenever a
    /// record would push it past `max_bytes` (0 = never rotate).
    ///
    /// # Errors
    ///
    /// I/O errors creating or opening the file.
    pub fn to_file_rotating(
        path: &Path,
        level: LogLevel,
        max_bytes: u64,
    ) -> std::io::Result<Logger> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Logger {
            level,
            max_bytes,
            sink: Some(Mutex::new(Sink { file, path: path.to_owned(), written })),
        })
    }

    /// A logger with no sink: records are dropped (warn/error still echo to
    /// stderr). Used by unit tests and the bench harness.
    pub fn disabled() -> Logger {
        Logger { level: LogLevel::Error, max_bytes: 0, sink: None }
    }

    /// The configured verbosity threshold.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Whether a record at `level` would be written — lets callers skip
    /// building expensive field sets for suppressed records.
    pub fn enabled(&self, level: LogLevel) -> bool {
        level <= self.level
    }

    /// Writes one record: `{"ts_ms":…,"level":…,"event":…,<fields>}`.
    pub fn log(&self, level: LogLevel, event: &str, fields: &[(&str, Json)]) {
        if !self.enabled(level) {
            return;
        }
        let ts_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        let mut members = vec![
            ("ts_ms".to_owned(), Json::from(ts_ms)),
            ("level".to_owned(), level.as_str().into()),
            ("event".to_owned(), event.into()),
        ];
        members.extend(fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        let line = Json::Obj(members).encode();
        if level <= LogLevel::Warn {
            eprintln!("[serve] {line}");
        }
        if let Some(sink) = &self.sink {
            let mut s = sink.lock();
            let record_len = line.len() as u64 + 1;
            if self.max_bytes > 0 && s.written > 0 && s.written + record_len > self.max_bytes {
                self.rotate(&mut s);
            }
            if writeln!(s.file, "{line}").is_ok() {
                s.written += record_len;
            }
        }
    }

    /// Renames the current file to `<path>.1` (replacing any previous
    /// generation) and starts a fresh one. On any failure the current sink is
    /// kept — losing rotation is better than losing the log.
    fn rotate(&self, s: &mut Sink) {
        let mut old = s.path.clone().into_os_string();
        old.push(".1");
        if std::fs::rename(&s.path, &old).is_err() {
            return;
        }
        match OpenOptions::new().create(true).append(true).open(&s.path) {
            Ok(f) => {
                s.file = f;
                s.written = 0;
            }
            Err(_) => {
                // Roll back so records keep landing somewhere.
                let _ = std::fs::rename(&old, &s.path);
            }
        }
    }

    /// An `error`-level record.
    pub fn error(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(LogLevel::Error, event, fields);
    }

    /// A `warn`-level record.
    pub fn warn(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(LogLevel::Warn, event, fields);
    }

    /// An `info`-level record.
    pub fn info(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(LogLevel::Info, event, fields);
    }

    /// A `debug`-level record.
    pub fn debug(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(LogLevel::Debug, event, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_leveled_jsonl_records() {
        let dir = std::env::temp_dir().join("graphite-serve-log-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.log.jsonl");
        let log = Logger::to_file(&path, LogLevel::Info).unwrap();
        log.info("job.submit", &[("id", 3u64.into()), ("tenant", "acme".into())]);
        log.debug("job.dispatch", &[("id", 3u64.into())]); // below threshold
        log.error("queue.persist_failed", &[("error", "disk full".into())]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "debug suppressed at info threshold: {text}");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("event").unwrap().as_str().unwrap(), "job.submit");
        assert_eq!(first.get("level").unwrap().as_str().unwrap(), "info");
        assert_eq!(first.get("tenant").unwrap().as_str().unwrap(), "acme");
        assert!(first.get("ts_ms").unwrap().as_u64().unwrap() > 0);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("level").unwrap().as_str().unwrap(), "error");
    }

    #[test]
    fn disabled_logger_drops_records() {
        let log = Logger::disabled();
        assert!(!log.enabled(LogLevel::Info));
        assert!(log.enabled(LogLevel::Error));
        log.info("nope", &[]); // must not panic with no sink
    }

    #[test]
    fn rotates_to_dot_one_at_the_size_limit() {
        let dir = std::env::temp_dir().join("graphite-serve-log-rotate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.log.jsonl");
        let rotated = dir.join("serve.log.jsonl.1");
        // ~100-byte records against a 256-byte cap: every few records roll
        // the file over.
        let log = Logger::to_file_rotating(&path, LogLevel::Info, 256).unwrap();
        for i in 0..20u64 {
            log.info("tick", &[("seq", i.into()), ("pad", "xxxxxxxxxxxxxxxxxxxxxxxx".into())]);
        }
        assert!(rotated.exists(), "rotation produced a .1 generation");
        assert!(std::fs::metadata(&path).unwrap().len() <= 256, "live file within the cap");
        assert!(std::fs::metadata(&rotated).unwrap().len() <= 256, "old generation within cap");
        // Every line in both generations is intact JSON (no torn records),
        // and the newest record is in the live file.
        let live = std::fs::read_to_string(&path).unwrap();
        let old = std::fs::read_to_string(&rotated).unwrap();
        for line in live.lines().chain(old.lines()) {
            Json::parse(line).unwrap();
        }
        assert!(live.lines().any(|l| l.contains("\"seq\":19")), "{live}");
    }

    #[test]
    fn reopened_log_counts_existing_bytes_toward_the_cap() {
        let dir = std::env::temp_dir().join("graphite-serve-log-reopen");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.log.jsonl");
        {
            let log = Logger::to_file_rotating(&path, LogLevel::Info, 200).unwrap();
            log.info("first", &[("pad", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".into())]);
        }
        let before = std::fs::metadata(&path).unwrap().len();
        assert!(before > 0);
        // A fresh Logger on the same path inherits the size and rotates when
        // the cap is crossed — restarts do not reset the budget.
        let log = Logger::to_file_rotating(&path, LogLevel::Info, 200).unwrap();
        for _ in 0..3 {
            log.info("more", &[("pad", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb".into())]);
        }
        assert!(dir.join("serve.log.jsonl.1").exists());
    }

    #[test]
    fn zero_max_bytes_never_rotates() {
        let dir = std::env::temp_dir().join("graphite-serve-log-norotate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.log.jsonl");
        let log = Logger::to_file_rotating(&path, LogLevel::Info, 0).unwrap();
        for i in 0..50u64 {
            log.info("tick", &[("seq", i.into())]);
        }
        assert!(!dir.join("serve.log.jsonl.1").exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 50);
    }
}
