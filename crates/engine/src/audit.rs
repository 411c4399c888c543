//! Opt-in NDJSON request audit log for `statleak serve` (`--access-log`).
//!
//! One record per request — and one per `batch` item — with the trace id,
//! op, session-key hash, queue-wait and service times, and a stable
//! outcome, so a slow or failed request found in metrics (via a histogram
//! exemplar) or a span stream can be joined to exactly what the server
//! did with it. Records are single JSON lines, flushed per write so
//! `tail -f` and the integration tests see them immediately.
//!
//! | outcome             | meaning                                        |
//! |---------------------|------------------------------------------------|
//! | `cache`             | served from a warm session (engine cache hit)  |
//! | `store`             | served from the on-disk result store           |
//! | `cold`              | session prepared from scratch                  |
//! | `busy`              | shed at the queue high-water mark              |
//! | `deadline_exceeded` | expired while waiting, before it started       |
//! | `wrong-shard`       | redirected to the owning fleet node            |
//! | `error`             | request failed (see `class`)                   |
//!
//! The log rotates by size: when a record would push the file past
//! `max_bytes`, the current file is renamed to `<path>.1` (replacing any
//! previous rotation) and a fresh file is started — a bounded two-file
//! footprint, newest data always in `<path>`.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use statleak_obs::TraceId;

/// Default rotation threshold (64 MiB).
pub const DEFAULT_ACCESS_LOG_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// One audit record, serialized as a single NDJSON line.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// Trace id of the request (always present; the server originates
    /// one when the client did not send a `trace` field).
    pub trace_id: TraceId,
    /// Client-chosen request id, echoed as-is.
    pub id: Json,
    /// Wire name of the op (for batch items, the item's op).
    pub op: &'static str,
    /// Stable outcome (see the module table).
    pub outcome: &'static str,
    /// Hex session-key hash, when the request resolved one.
    pub session_key: Option<u64>,
    /// Nanoseconds from arrival until the request started running.
    pub queue_wait_ns: Option<u64>,
    /// Nanoseconds of execution once admitted.
    pub service_ns: Option<u64>,
    /// Set when the request was served but finished past its deadline.
    pub deadline_exceeded: bool,
    /// Position within a `batch` request (absent for single requests and
    /// for the batch envelope record itself).
    pub batch_index: Option<usize>,
}

impl AccessRecord {
    /// A record of `op` for request `id` ending in `outcome`, with every
    /// optional field empty.
    pub fn new(trace_id: TraceId, id: &Json, op: &'static str, outcome: &'static str) -> Self {
        AccessRecord {
            trace_id,
            id: id.clone(),
            op,
            outcome,
            session_key: None,
            queue_wait_ns: None,
            service_ns: None,
            deadline_exceeded: false,
            batch_index: None,
        }
    }

    fn to_ndjson(&self, ts_ms: u64) -> String {
        let mut pairs = vec![
            ("ts_ms", Json::Num(ts_ms as f64)),
            ("trace_id", Json::str(self.trace_id.to_hex())),
            ("id", self.id.clone()),
            ("op", Json::str(self.op)),
            ("outcome", Json::str(self.outcome)),
        ];
        if let Some(key) = self.session_key {
            pairs.push(("session_key", Json::str(format!("{key:016x}"))));
        }
        if let Some(ns) = self.queue_wait_ns {
            pairs.push(("queue_wait_ns", Json::Num(ns as f64)));
        }
        if let Some(ns) = self.service_ns {
            pairs.push(("service_ns", Json::Num(ns as f64)));
        }
        if self.deadline_exceeded {
            pairs.push(("deadline_exceeded", Json::Bool(true)));
        }
        if let Some(i) = self.batch_index {
            pairs.push(("batch_index", Json::Num(i as f64)));
        }
        Json::obj(pairs).to_string()
    }
}

struct Inner {
    writer: BufWriter<File>,
    bytes: u64,
}

/// Size-rotated NDJSON audit-log writer; cheap to share (`write` takes
/// `&self`), safe from any connection thread.
pub struct AccessLog {
    path: PathBuf,
    max_bytes: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("path", &self.path)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

fn open_append(path: &PathBuf) -> io::Result<(BufWriter<File>, u64)> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let bytes = file.metadata()?.len();
    Ok((BufWriter::new(file), bytes))
}

impl AccessLog {
    /// Opens (appending) or creates the log at `path`; rotation triggers
    /// once the file would exceed `max_bytes`.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64) -> io::Result<AccessLog> {
        let path = path.into();
        let (writer, bytes) = open_append(&path)?;
        Ok(AccessLog {
            path,
            max_bytes: max_bytes.max(1),
            inner: Mutex::new(Inner { writer, bytes }),
        })
    }

    /// The rotated-out sibling path (`<path>.1`).
    pub fn rotated_path(&self) -> PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".1");
        self.path.with_file_name(name)
    }

    /// Appends one record (with the current wall-clock timestamp),
    /// rotating first if it would exceed the size cap. I/O failures are
    /// reported once per rotation window via the returned error; callers
    /// treat them as non-fatal (the request itself already succeeded).
    pub fn write(&self, record: &AccessRecord) -> io::Result<()> {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let line = record.to_ndjson(ts_ms);
        let mut inner = self.inner.lock().expect("access log poisoned");
        let len = line.len() as u64 + 1;
        if inner.bytes > 0 && inner.bytes.saturating_add(len) > self.max_bytes {
            inner.writer.flush()?;
            std::fs::rename(&self.path, self.rotated_path())?;
            let (writer, bytes) = open_append(&self.path)?;
            inner.writer = writer;
            inner.bytes = bytes;
        }
        inner.writer.write_all(line.as_bytes())?;
        inner.writer.write_all(b"\n")?;
        inner.writer.flush()?;
        inner.bytes += len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(op: &'static str, outcome: &'static str) -> AccessRecord {
        AccessRecord {
            session_key: Some(0x1234),
            queue_wait_ns: Some(500),
            service_ns: Some(9000),
            ..AccessRecord::new(TraceId(0xABC), &Json::Num(1.0), op, outcome)
        }
    }

    #[test]
    fn records_serialize_with_optional_fields_omitted() {
        let mut r = record("comparison", "cold");
        r.session_key = None;
        r.queue_wait_ns = None;
        r.service_ns = None;
        let line = r.to_ndjson(42);
        assert!(line.starts_with("{\"ts_ms\":42,\"trace_id\":\""), "{line}");
        assert!(line.contains("\"outcome\":\"cold\""), "{line}");
        assert!(!line.contains("session_key"), "{line}");
        assert!(!line.contains("deadline_exceeded"), "{line}");
        let mut r = record("sweep", "error");
        r.deadline_exceeded = true;
        r.batch_index = Some(3);
        let line = r.to_ndjson(42);
        assert!(
            line.contains("\"session_key\":\"0000000000001234\""),
            "{line}"
        );
        assert!(line.contains("\"queue_wait_ns\":500"), "{line}");
        assert!(line.contains("\"deadline_exceeded\":true"), "{line}");
        assert!(line.contains("\"batch_index\":3"), "{line}");
        // Every record is valid single-line JSON.
        assert!(Json::parse(&line).is_ok());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn rotation_caps_the_file_and_keeps_one_sibling() {
        let dir = std::env::temp_dir().join(format!(
            "statleak_audit_rotate_{}_{}",
            std::process::id(),
            TraceId::generate().to_hex()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let log = AccessLog::open(&path, 600).unwrap();
        for _ in 0..24 {
            log.write(&record("comparison", "cache")).unwrap();
        }
        let live = std::fs::metadata(&path).unwrap().len();
        assert!(live <= 600, "live file exceeded cap: {live}");
        let rotated = log.rotated_path();
        assert!(rotated.exists(), "rotation never happened");
        assert!(std::fs::metadata(&rotated).unwrap().len() <= 600);
        // Every surviving line is valid NDJSON.
        for p in [&path, &rotated] {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(text.lines().count() > 0);
            for line in text.lines() {
                assert!(Json::parse(line).is_ok(), "{line}");
            }
        }
        // Re-opening appends instead of truncating.
        drop(log);
        let append_path = dir.join("append.log");
        let log = AccessLog::open(&append_path, u64::MAX).unwrap();
        log.write(&record("comparison", "cache")).unwrap();
        drop(log);
        let before = std::fs::metadata(&append_path).unwrap().len();
        let log = AccessLog::open(&append_path, u64::MAX).unwrap();
        log.write(&record("comparison", "cache")).unwrap();
        assert_eq!(std::fs::metadata(&append_path).unwrap().len(), before * 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
