//! A persistent, crash-safe store of flow results keyed by content hash,
//! shared by `serve` and `repro`.
//!
//! `serve --store-dir` keeps each flow result (the JSON `data` payload of
//! a serve response) under `(session key, op key)` — the same
//! deterministic content hashes the in-memory cache uses — so a restarted
//! daemon (or a fresh fleet member pointed at a shared directory) answers
//! repeated requests warm without re-running `prepare()` or the flow.
//! `repro` keeps each finished `(experiment, circuit)` cell under the
//! digests of the two names, so a killed run resumes with only its
//! unfinished cells. Soundness rests on the same property as the memo
//! cache: every flow is deterministic end to end, so the stored bytes are
//! exactly what a cold run would produce.
//!
//! Durability discipline:
//!
//! - **Atomic writes.** An entry is written to a unique temp file in the
//!   store directory, flushed, then renamed over the final name. Readers
//!   never observe a half-written entry; concurrent writers of the same
//!   key converge on one complete entry (last rename wins, and both
//!   payloads are identical by determinism).
//! - **Versioned header.** Every entry starts with a format line, the
//!   keys it claims to hold, the payload length, and an FNV-1a checksum
//!   of the payload. All four are verified on load, as is the claimed key
//!   against the file name.
//! - **Quarantine, not crash.** A truncated, corrupt, or mismatched entry
//!   is moved into the `quarantine/` subdirectory (counted, never
//!   re-read) and treated as a miss. A partial write from a `kill -9`
//!   therefore costs one recompute, never an error or a poisoned cache.

use crate::cache::ContentHasher;
use crate::json::Json;
use statleak_obs as obs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// First line of every entry; bump the number on incompatible changes.
const FORMAT_LINE: &str = "statleak-store 1";

/// Entries larger than this are refused on write and quarantined on read
/// (a corrupt length field must not trigger a huge allocation).
const MAX_PAYLOAD: usize = 64 << 20;

/// Sequence number of temp and quarantine names, shared by every handle in
/// the process so that two handles on one directory never pick the same
/// name.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Traffic counters for one [`Store`], surfaced by the serve `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Loads answered from a valid on-disk entry.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Corrupt entries moved to `quarantine/`.
    pub quarantined: u64,
    /// I/O failures on write (best-effort: the request still succeeds).
    pub write_errors: u64,
}

/// An on-disk result store rooted at one directory.
///
/// Thread-safe: all methods take `&self`; writes go through unique temp
/// files and an atomic rename. Multiple processes may share a directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    quarantined: AtomicU64,
    write_errors: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        std::fs::create_dir_all(dir.join("quarantine"))?;
        Ok(Store {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, session: u64, op: u64) -> PathBuf {
        self.dir.join(format!("{session:016x}-{op:016x}.entry"))
    }

    /// Loads the payload stored under `(session, op)`, verifying the
    /// header, length, checksum, and claimed keys. Corrupt entries are
    /// quarantined and reported as a miss.
    pub fn load(&self, session: u64, op: u64) -> Option<Json> {
        let path = self.entry_path(session, op);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::counter!("store_misses_total").inc();
                return None;
            }
        };
        match parse_entry(&bytes, session, op) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::counter!("store_hits_total").inc();
                Some(payload)
            }
            None => {
                self.quarantine(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::counter!("store_misses_total").inc();
                None
            }
        }
    }

    /// Persists `data` under `(session, op)`. Failures are counted and
    /// returned; callers that can go on without the entry (serve answers
    /// from memory) may ignore them.
    ///
    /// # Errors
    ///
    /// Propagates the write, sync or rename failure, or refuses a payload
    /// over the size limit.
    pub fn save(&self, session: u64, op: u64, data: &Json) -> std::io::Result<()> {
        let result = self.try_save(session, op, data);
        if result.is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
            obs::counter!("store_writes_total").inc();
        } else {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            obs::counter!("store_write_errors_total").inc();
        }
        result
    }

    /// Deletes every entry stored under `session`, whatever its op key.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing and removal failures.
    pub fn remove_session(&self, session: u64) -> std::io::Result<()> {
        let prefix = format!("{session:016x}-");
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(&prefix) && name.ends_with(".entry") {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    fn try_save(&self, session: u64, op: u64, data: &Json) -> std::io::Result<()> {
        let payload = data.to_string();
        if payload.len() > MAX_PAYLOAD {
            return Err(std::io::Error::other("payload exceeds store limit"));
        }
        let entry = render_entry(session, op, &payload);
        // Unique temp name per (process, write): concurrent writers never
        // step on each other's partial data; the rename is the only point
        // where an entry becomes visible, and it is atomic.
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(entry.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, self.entry_path(session, op))
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Moves a corrupt entry aside so it is never re-read; falls back to
    /// deletion if the rename fails (e.g. quarantine dir removed).
    fn quarantine(&self, path: &Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        obs::counter!("store_quarantined_total").inc();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let dest = self.dir.join("quarantine").join(format!(
            "{name}.{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::rename(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Number of complete entries currently on disk (directory scan; for
    /// stats and tests, not the hot path).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "entry"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic counters since this handle was opened.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

fn payload_checksum(payload: &str) -> u64 {
    let mut h = ContentHasher::new();
    h.bytes(payload.as_bytes());
    h.finish()
}

fn render_entry(session: u64, op: u64, payload: &str) -> String {
    format!(
        "{FORMAT_LINE}\nkey {session:016x} {op:016x}\nlen {}\nsum {:016x}\n\n{payload}\n",
        payload.len(),
        payload_checksum(payload),
    )
}

/// Parses and fully verifies one entry; `None` means corrupt.
fn parse_entry(bytes: &[u8], session: u64, op: u64) -> Option<Json> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.splitn(5, '\n');
    if lines.next()? != FORMAT_LINE {
        return None;
    }
    let key_line = lines.next()?;
    let mut keys = key_line.strip_prefix("key ")?.split(' ');
    let claimed_session = u64::from_str_radix(keys.next()?, 16).ok()?;
    let claimed_op = u64::from_str_radix(keys.next()?, 16).ok()?;
    if keys.next().is_some() || claimed_session != session || claimed_op != op {
        return None;
    }
    let len: usize = lines.next()?.strip_prefix("len ")?.parse().ok()?;
    if len > MAX_PAYLOAD {
        return None;
    }
    let sum = u64::from_str_radix(lines.next()?.strip_prefix("sum ")?, 16).ok()?;
    let body = lines.next()?;
    // A blank separator line, exactly `len` payload bytes, a trailing
    // newline, nothing else.
    let payload = body.strip_prefix('\n')?.strip_suffix('\n')?;
    if payload.len() != len || payload_checksum(payload) != sum {
        return None;
    }
    Json::parse(payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "statleak-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(x: f64) -> Json {
        Json::obj(vec![("value", Json::Num(x)), ("tag", Json::str("t"))])
    }

    #[test]
    fn round_trips_entries_and_counts_traffic() {
        let dir = tmp_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.load(1, 2), None);
        store.save(1, 2, &payload(1.5)).unwrap();
        assert_eq!(store.load(1, 2), Some(payload(1.5)));
        // Distinct op under the same session is a distinct entry.
        store.save(1, 3, &payload(2.5)).unwrap();
        assert_eq!(store.len(), 2);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.quarantined), (1, 1, 2, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_crashed() {
        let dir = tmp_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        store.save(7, 8, &payload(1.0)).unwrap();
        let path = store.entry_path(7, 8);

        // Truncate mid-payload (simulates a torn write surviving a crash
        // on filesystems without atomic rename durability).
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.load(7, 8), None, "truncated entry must miss");
        assert!(!path.exists(), "corrupt entry must be moved aside");
        assert_eq!(store.stats().quarantined, 1);

        // Wrong claimed key (an entry renamed onto the wrong name).
        store.save(7, 9, &payload(2.0)).unwrap();
        std::fs::rename(store.entry_path(7, 9), store.entry_path(7, 8)).unwrap();
        assert_eq!(store.load(7, 8), None, "key mismatch must miss");
        assert_eq!(store.stats().quarantined, 2);

        // Flipped payload byte breaks the checksum.
        store.save(7, 10, &payload(3.0)).unwrap();
        let p = store.entry_path(7, 10);
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(store.load(7, 10), None, "bad checksum must miss");
        assert_eq!(store.stats().quarantined, 3);

        // A fresh save over a quarantined key works again.
        store.save(7, 8, &payload(4.0)).unwrap();
        assert_eq!(store.load(7, 8), Some(payload(4.0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn awkward_payloads_survive_and_remove_session_is_scoped() {
        let dir = tmp_dir("remove");
        let store = Store::open(&dir).unwrap();
        let awkward = [
            "unit\x1fsep",
            "multi\nline, commas",
            "back\\slash \"q\"",
            "é ≠ µW",
        ];
        let awkward = Json::Arr(awkward.map(Json::str).to_vec());
        for (session, op) in [(1, 1), (1, 2), (2, 1), (1, 1)] {
            store.save(session, op, &awkward).unwrap();
        }
        assert_eq!(store.load(2, 1), Some(awkward.clone()));
        store.remove_session(1).unwrap();
        assert_eq!((store.load(1, 1), store.load(1, 2)), (None, None));
        assert_eq!(store.load(2, 1), Some(awkward));
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["0000000000000002-0000000000000001.entry", "quarantine"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
