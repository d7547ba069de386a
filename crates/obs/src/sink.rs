//! Pluggable destinations for metrics JSON lines.
//!
//! PR 2 hard-wired step records to stdout. That is still the default —
//! `grep '^JSON '` over a run's stdout keeps working — but production
//! runs want the telemetry separated from solver output (a file per
//! run), benches want it discarded ([`NullSink`]), and tests want to
//! inspect it in memory ([`MemorySink`]). A [`Sink`] receives the *bare*
//! JSON body of each record; the stdout sink re-adds the legacy `JSON `
//! prefix so the line-oriented convention shared with
//! `sem_bench::timing` is preserved, while file/memory sinks store clean
//! JSON lines that `sem-report` (and any JSON-lines tool) can read
//! directly.
//!
//! Selection: programmatic via [`set_sink`] (the `NsConfig::sink` field
//! does this for you), or `TERASEM_METRICS_SINK=stdout|file:<path>|null`
//! with [`crate::init_from_env`]. Unknown values warn once and keep the
//! installed sink — a bad env var must not silently eat a run's
//! telemetry.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex, RwLock};

/// A destination for metrics records. `emit` receives one complete JSON
/// object (no prefix, no trailing newline) per record.
pub trait Sink: Send + Sync {
    /// Deliver one JSON record.
    fn emit(&self, body: &str);
    /// Human-readable tag for diagnostics (`"stdout"`, `"file:…"`, …).
    fn describe(&self) -> String;
}

/// The default sink: prints `JSON {…}` lines to stdout (PR 2 behavior).
#[derive(Debug, Default)]
pub struct StdoutSink;

impl Sink for StdoutSink {
    fn emit(&self, body: &str) {
        println!("JSON {body}");
    }
    fn describe(&self) -> String {
        "stdout".to_string()
    }
}

/// Discards every record (benches that only want span registries).
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _body: &str) {}
    fn describe(&self) -> String {
        "null".to_string()
    }
}

/// Appends bare JSON lines to a file. Lines are flushed as they are
/// emitted (step cadence is slow; losing the tail of a crashed run's
/// telemetry would defeat the purpose).
pub struct FileSink {
    path: String,
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Create (truncate) `path` for writing.
    pub fn create(path: &str) -> std::io::Result<FileSink> {
        let file = File::create(path)?;
        Ok(FileSink {
            path: path.to_string(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Open `path` for appending (creating it if absent). This is the
    /// resumable-log variant: a `sem-serve` worker that restarts after a
    /// crash keeps extending the same per-job metrics log instead of
    /// truncating the attempts that came before it.
    pub fn append(path: &str) -> std::io::Result<FileSink> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(FileSink {
            path: path.to_string(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for FileSink {
    fn emit(&self, body: &str) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if writeln!(w, "{body}").and_then(|()| w.flush()).is_err() {
            eprintln!("sem-obs: write to metrics sink {} failed", self.path);
        }
    }
    fn describe(&self) -> String {
        format!("file:{}", self.path)
    }
}

/// Captures records in memory — the test sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty capture sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy of everything captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Drain the capture buffer.
    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.lines.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Sink for MemorySink {
    fn emit(&self, body: &str) {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(body.to_string());
    }
    fn describe(&self) -> String {
        "memory".to_string()
    }
}

/// A shareable, cloneable handle to a sink — lets `NsConfig` keep its
/// `derive(Clone, Debug)` while carrying a `dyn Sink`.
#[derive(Clone)]
pub struct SinkHandle(pub Arc<dyn Sink>);

impl SinkHandle {
    /// Wrap a concrete sink.
    pub fn new<S: Sink + 'static>(sink: S) -> SinkHandle {
        SinkHandle(Arc::new(sink))
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SinkHandle({})", self.0.describe())
    }
}

/// `None` means "the default stdout sink" — keeps the zero-config path
/// allocation-free at startup.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// Install `sink` as the process-global metrics destination; `None`
/// restores the default stdout sink.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = sink;
}

/// Deliver one bare-JSON record body to the current sink.
pub fn emit(body: &str) {
    let guard = SINK.read().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(s) => s.emit(body),
        None => StdoutSink.emit(body),
    }
}

/// Tag of the currently installed sink.
pub fn current_sink_name() -> String {
    let guard = SINK.read().unwrap_or_else(|e| e.into_inner());
    match guard.as_ref() {
        Some(s) => s.describe(),
        None => "stdout".to_string(),
    }
}

/// Parse a `TERASEM_METRICS_SINK`-style spec into a sink handle.
/// Accepted: `stdout`, `null`, `none`, `file:<path>`.
pub fn parse_sink_spec(spec: &str) -> Result<Option<SinkHandle>, String> {
    let spec = spec.trim();
    match spec {
        "" | "stdout" => Ok(None),
        "null" | "none" => Ok(Some(SinkHandle::new(NullSink))),
        _ => match spec.strip_prefix("file:") {
            Some(path) if !path.is_empty() => FileSink::create(path)
                .map(|s| Some(SinkHandle::new(s)))
                .map_err(|e| format!("cannot open metrics sink file {path}: {e}")),
            _ => Err("expected stdout, null, or file:<path>".to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_captures_and_drains() {
        let sink = MemorySink::new();
        sink.emit("{\"a\":1}");
        sink.emit("{\"a\":2}");
        assert_eq!(sink.lines(), vec!["{\"a\":1}", "{\"a\":2}"]);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.lines().is_empty());
    }

    #[test]
    fn global_sink_roundtrip() {
        let _g = crate::test_guard();
        let mem = Arc::new(MemorySink::new());
        set_sink(Some(mem.clone()));
        assert_eq!(current_sink_name(), "memory");
        emit("{\"x\":1}");
        assert_eq!(mem.lines(), vec!["{\"x\":1}"]);
        set_sink(None);
        assert_eq!(current_sink_name(), "stdout");
    }

    #[test]
    fn sink_spec_parsing() {
        assert!(parse_sink_spec("stdout").unwrap().is_none());
        assert!(parse_sink_spec("").unwrap().is_none());
        let null = parse_sink_spec("null").unwrap().unwrap();
        assert_eq!(null.0.describe(), "null");
        assert_eq!(format!("{null:?}"), "SinkHandle(null)");
        assert!(parse_sink_spec("carrier-pigeon").is_err());
        assert!(parse_sink_spec("file:").is_err());
    }

    #[test]
    fn file_sink_writes_lines() {
        let path = std::env::temp_dir().join("sem_obs_sink_test.jsonl");
        let path = path.to_str().unwrap().to_string();
        {
            let sink = FileSink::create(&path).unwrap();
            assert_eq!(sink.describe(), format!("file:{path}"));
            sink.emit("{\"s\":1}");
            sink.emit("{\"s\":2}");
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"s\":1}\n{\"s\":2}\n");
        let _ = std::fs::remove_file(&path);
    }
}
