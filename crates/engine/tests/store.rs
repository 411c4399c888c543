//! Persistent-store integration: the serve-layer warm path end to end.
//!
//! These tests exercise the store the way the daemon does — real flow
//! results keyed by the real `session_key`/`op_hash` pair — and verify
//! the three production properties the store exists for: restarts come
//! back warm, torn writes are quarantined not trusted, and concurrent
//! writers (one per fleet member) converge on a single good entry.

use statleak_engine::proto::{self, Op};
use statleak_engine::{session_key, Engine, Json, Store};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "statleak-store-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parses a request line and computes the `(session, op)` store key the
/// daemon would use for it.
fn keys_of(line: &str) -> (u64, u64, Op) {
    let request = proto::parse_request(line).expect("parse");
    let cfg = proto::op_config(&request.op).expect("analysis op");
    let session = session_key(cfg).expect("session key");
    let op = proto::op_hash(&request.op);
    (session, op, request.op)
}

/// Runs `op` through a fresh engine, exactly like a cache-cold worker.
fn compute(op: &Op) -> Json {
    let engine = Engine::new(4);
    let cfg = proto::op_config(op).expect("analysis op");
    let session = engine.session(cfg).expect("session");
    proto::execute(&session, op).expect("execute")
}

#[test]
fn restart_round_trip_is_warm_without_recompute() {
    let dir = tmp_dir("restart");
    let line = r#"{"op":"comparison","benchmark":"c17","mc_samples":0}"#;
    let (skey, ophash, op) = keys_of(line);

    // First process: compute and persist.
    let data = {
        let store = Store::open(&dir).expect("open");
        let data = compute(&op);
        store.save(skey, ophash, &data).unwrap();
        assert_eq!(store.len(), 1);
        data
    };

    // "Restarted" process: a fresh store handle answers from disk, and
    // the engine is never consulted at all.
    let store = Store::open(&dir).expect("reopen");
    let engine = Engine::new(4);
    let warm = store.load(skey, ophash).expect("warm hit");
    assert_eq!(warm, data, "disk round trip must be byte-faithful");
    let stats = engine.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 0, 0),
        "a warm store answers without touching the session cache"
    );
    assert_eq!(store.stats().hits, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_entry_is_quarantined_then_recomputed() {
    let dir = tmp_dir("torn");
    let line = r#"{"op":"distribution","benchmark":"c17","mc_samples":0,"bins":6}"#;
    let (skey, ophash, op) = keys_of(line);
    let data = compute(&op);

    {
        let store = Store::open(&dir).expect("open");
        store.save(skey, ophash, &data).unwrap();
    }
    // Tear the entry mid-payload, as a `kill -9` against a non-atomic
    // filesystem would.
    let entry = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("one entry on disk");
    let full = std::fs::read(&entry).expect("read entry");
    std::fs::write(&entry, &full[..full.len() / 2]).expect("truncate");

    let store = Store::open(&dir).expect("reopen");
    assert_eq!(store.load(skey, ophash), None, "torn entry must miss");
    assert!(!entry.exists(), "torn entry must be moved aside");
    assert_eq!(store.stats().quarantined, 1);
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert_eq!(quarantined, 1, "the torn entry lands in quarantine/");

    // The usual recovery: recompute, re-save, warm again.
    store.save(skey, ophash, &data).unwrap();
    assert_eq!(store.load(skey, ophash), Some(data));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_writers_converge_on_one_good_entry() {
    let dir = tmp_dir("racers");
    let line = r#"{"op":"comparison","benchmark":"c17","mc_samples":0}"#;
    let (skey, ophash, op) = keys_of(line);
    let data = compute(&op);

    // Eight writers, each with its own handle (as fleet members sharing
    // a directory would have), all racing on the same key while readers
    // poll. Determinism makes every payload identical, so whichever
    // rename lands last, the entry is complete and correct.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let dir = &dir;
            let data = &data;
            scope.spawn(move || {
                let store = Store::open(dir).expect("open");
                for _ in 0..20 {
                    store.save(skey, ophash, data).unwrap();
                    if let Some(seen) = store.load(skey, ophash) {
                        assert_eq!(&seen, data, "readers must never see a torn entry");
                    }
                }
            });
        }
    });

    let store = Store::open(&dir).expect("reopen");
    assert_eq!(store.len(), 1, "all writers converge on one entry");
    assert_eq!(store.load(skey, ophash), Some(data));
    assert_eq!(store.stats().quarantined, 0, "no racer tore the entry");
    // No stray temp files survive the race.
    let leftovers = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .count();
    assert_eq!(leftovers, 0, "temp files are renamed or removed");
    std::fs::remove_dir_all(&dir).unwrap();
}
