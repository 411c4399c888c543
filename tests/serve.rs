//! End-to-end tests of `statleak serve`: a real daemon process, real TCP
//! clients, busy backpressure, and a graceful SIGTERM drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `statleak serve` on an ephemeral port and reads the resolved
    /// address from its first stdout line.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_statleak"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon starts");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its address");
        let addr = line
            .trim()
            .strip_prefix("serving on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn request(&self, line: &str) -> String {
        request_at(&self.addr, line)
    }

    /// Polls the inline `stats` op until `predicate` holds on the raw
    /// response (control ops stay responsive while every permit is held).
    fn wait_for_stats(&self, predicate: impl Fn(&str) -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = self.request(r#"{"id":"poll","op":"stats"}"#);
            if predicate(&stats) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}; last stats: {stats}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn sigterm(&self) {
        let delivered = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(delivered.success(), "SIGTERM delivered");
    }

    /// Hard-kills the daemon (SIGKILL — no drain, no atexit, nothing),
    /// simulating a crash or OOM kill.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL delivered");
        self.child.wait().expect("killed child reaped");
    }

    /// Waits for the daemon to exit, asserting a clean (exit 0) drain.
    fn assert_clean_exit(mut self) {
        let start = Instant::now();
        let deadline = Duration::from_secs(120);
        loop {
            if let Some(status) = self.child.try_wait().expect("wait") {
                assert!(
                    status.success(),
                    "daemon drains and exits 0, got {status:?}"
                );
                return;
            }
            assert!(
                start.elapsed() < deadline,
                "daemon did not exit within {deadline:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request_at(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("receive");
    response.trim().to_string()
}

/// Like `request_at`, but tolerates the daemon dying mid-request (the
/// connection may reset when the process is SIGKILLed under it).
fn request_ignoring_failure(addr: &str, line: &str) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(format!("{line}\n").as_bytes());
        let mut response = String::new();
        let _ = BufReader::new(stream).read_line(&mut response);
    }
}

#[test]
fn serve_answers_requests_and_reports_cache_stats() {
    let daemon = Daemon::spawn(&["--workers", "2"]);

    let pong = daemon.request(r#"{"id":"p1","op":"ping"}"#);
    assert_eq!(
        pong,
        r#"{"id":"p1","ok":true,"op":"ping","data":{"pong":true}}"#
    );

    let first = daemon.request(r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0}"#);
    assert!(first.contains(r#""ok":true"#), "{first}");
    let second = daemon.request(r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0}"#);
    assert_eq!(first, second, "warm repeat must be byte-identical");

    let stats = daemon.request(r#"{"id":2,"op":"stats"}"#);
    assert!(stats.contains(r#""hits":1"#), "{stats}");
    assert!(stats.contains(r#""misses":1"#), "{stats}");
    assert!(stats.contains(r#""served":2"#), "{stats}");

    // Typed protocol errors with stable classes.
    let unknown = daemon.request(r#"{"id":3,"op":"comparison","benchmark":"c9999"}"#);
    assert!(
        unknown.contains(r#""class":"unknown-benchmark""#),
        "{unknown}"
    );
    let malformed = daemon.request("{not json");
    assert!(malformed.contains(r#""class":"usage""#), "{malformed}");

    daemon.sigterm();
    daemon.assert_clean_exit();
}

#[test]
fn serve_sheds_load_with_busy_and_drains_in_flight_work_on_sigterm() {
    // One permit, queue depth one: with the permit held and one request
    // waiting at the admission gate, the next request must be rejected as
    // busy instead of waiting unboundedly.
    let daemon = Daemon::spawn(&["--workers", "1", "--queue-depth", "1"]);
    let addr = daemon.addr.clone();

    // Hold the permit with a slow request (large Monte Carlo run: ~10 s in
    // a debug build). Its op count is bumped at dispatch, just before it
    // takes the free permit, so once `stats` shows it the permit is held.
    let slow = r#"{"id":"slow","op":"mc_validation","benchmark":"c880","mc_samples":20000}"#;
    let occupant = {
        let addr = addr.clone();
        let slow = slow.to_string();
        std::thread::spawn(move || request_at(&addr, &slow))
    };
    daemon.wait_for_stats(
        |s| s.contains(r#""mc_validation":1"#),
        "slow request to arrive",
    );

    // Queue one request behind it at the gate and wait until it is visible.
    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            request_at(
                &addr,
                r#"{"id":"queued","op":"comparison","benchmark":"c17","mc_samples":0}"#,
            )
        })
    };
    daemon.wait_for_stats(|s| s.contains(r#""queued":1"#), "queue to fill");

    // The high-water mark is hit: one more analysis request is shed.
    let busy =
        daemon.request(r#"{"id":"extra","op":"comparison","benchmark":"c17","mc_samples":0}"#);
    assert!(busy.contains(r#""class":"busy""#), "{busy}");
    assert!(busy.contains(r#""id":"extra""#), "{busy}");
    // Control ops still answer inline while every permit is held.
    assert!(daemon
        .request(r#"{"id":"p2","op":"ping"}"#)
        .contains(r#""pong":true"#));

    // SIGTERM now: both the in-flight and the queued request must still
    // complete with full responses before the process exits 0.
    daemon.sigterm();
    let slow_response = occupant.join().expect("slow client");
    assert!(slow_response.contains(r#""ok":true"#), "{slow_response}");
    assert!(slow_response.contains(r#""id":"slow""#), "{slow_response}");
    let queued_response = queued.join().expect("queued client");
    assert!(
        queued_response.contains(r#""ok":true"#),
        "{queued_response}"
    );
    daemon.assert_clean_exit();
}

#[test]
fn library_field_keys_distinct_sessions() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let lib = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("libs")
        .join("statleak_mini.lib");
    let lib = lib.to_str().expect("utf-8 path");

    let builtin = daemon.request(r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0}"#);
    assert!(builtin.contains(r#""ok":true"#), "{builtin}");
    let ss = daemon.request(&format!(
        r#"{{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0,"library":"{lib},corner=ss"}}"#
    ));
    assert!(ss.contains(r#""ok":true"#), "{ss}");
    assert_ne!(
        builtin, ss,
        "library must change the session, not hit its cache"
    );
    let ff = daemon.request(&format!(
        r#"{{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0,"library":"{lib},corner=ff"}}"#
    ));
    assert_ne!(ss, ff, "corners must not alias one session");

    // Explicit "builtin" spells the default and must hit the warm entry.
    let warm = daemon.request(
        r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0,"library":"builtin"}"#,
    );
    assert_eq!(builtin, warm, "explicit builtin is the default library");
    let stats = daemon.request(r#"{"id":2,"op":"stats"}"#);
    assert!(stats.contains(r#""misses":3"#), "{stats}");
    assert!(stats.contains(r#""hits":1"#), "{stats}");

    // Liberty failures surface the typed error classes.
    let bad = daemon.request(&format!(
        r#"{{"id":3,"op":"comparison","benchmark":"c17","mc_samples":0,"library":"{lib},corner=nope"}}"#
    ));
    assert!(bad.contains(r#""class":"library-corner""#), "{bad}");
    let gone = daemon.request(
        r#"{"id":4,"op":"comparison","benchmark":"c17","mc_samples":0,"library":"/no/such.lib"}"#,
    );
    assert!(gone.contains(r#""class":"library-io""#), "{gone}");

    daemon.sigterm();
    daemon.assert_clean_exit();
}

#[test]
fn call_round_trips_and_maps_exit_codes() {
    let daemon = Daemon::spawn(&["--workers", "1"]);

    let ok = Command::new(env!("CARGO_BIN_EXE_statleak"))
        .args([
            "call",
            "--addr",
            &daemon.addr,
            "--json",
            r#"{"id":9,"op":"comparison","benchmark":"c17","mc_samples":0}"#,
        ])
        .output()
        .expect("call runs");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let body = String::from_utf8_lossy(&ok.stdout);
    assert!(body.contains(r#""stat_extra_saving""#), "{body}");

    // An unknown benchmark maps onto the local usage exit code (2).
    let bad = Command::new(env!("CARGO_BIN_EXE_statleak"))
        .args([
            "call",
            "--addr",
            &daemon.addr,
            "--json",
            r#"{"id":10,"op":"comparison","benchmark":"c9999"}"#,
        ])
        .output()
        .expect("call runs");
    assert_eq!(bad.status.code(), Some(2));

    daemon.sigterm();
    daemon.assert_clean_exit();
}

#[test]
fn kill_dash_nine_restart_against_same_store_comes_back_warm() {
    let store_dir = std::env::temp_dir().join(format!(
        "statleak-serve-kill9-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_flag = store_dir.to_string_lossy().into_owned();

    // First daemon: compute one result cold; it must land in the store.
    let line = r#"{"id":"w","op":"comparison","benchmark":"c17","mc_samples":0}"#;
    let first = Daemon::spawn(&["--workers", "2", "--store-dir", &store_flag]);
    let cold = first.request(line);
    assert!(cold.contains(r#""ok":true"#), "{cold}");
    assert!(
        !cold.contains(r#""source":"store""#),
        "first answer is computed, not loaded: {cold}"
    );
    first.wait_for_stats(|s| s.contains(r#""stores":1"#), "result to be persisted");

    // Put the daemon under load and SIGKILL it mid-flight: no drain, no
    // graceful close. The store must survive on the strength of its
    // atomic write discipline alone.
    let addr = first.addr.clone();
    let in_flight = std::thread::spawn(move || {
        request_ignoring_failure(
            &addr,
            r#"{"id":"doomed","op":"mc_validation","benchmark":"c880","mc_samples":20000}"#,
        );
    });
    std::thread::sleep(Duration::from_millis(300));
    first.sigkill();
    in_flight
        .join()
        .expect("in-flight client survives the kill");

    // Restarted daemon on the same directory: the very first repeat is a
    // store hit — answered from disk with no session rebuild.
    let second = Daemon::spawn(&["--workers", "2", "--store-dir", &store_flag]);
    let warm = second.request(line);
    assert!(warm.contains(r#""ok":true"#), "{warm}");
    assert!(
        warm.contains(r#""source":"store""#),
        "first repeated request after restart must be served from the store: {warm}"
    );
    let stats = second.request(r#"{"id":"s","op":"stats"}"#);
    // Store counters: one disk hit, nothing re-persisted.
    assert!(stats.contains(r#""hits":1"#), "{stats}");
    assert!(stats.contains(r#""stores":0"#), "{stats}");
    // Engine counters: no session was built or even looked up.
    assert!(stats.contains(r#""hits":0"#), "{stats}");
    assert!(stats.contains(r#""misses":0"#), "{stats}");

    second.sigterm();
    second.assert_clean_exit();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn batch_requests_fan_out_over_one_session_end_to_end() {
    let daemon = Daemon::spawn(&["--workers", "2"]);

    let batch = daemon.request(
        r#"{"id":"b","op":"batch","benchmark":"c17","mc_samples":0,"items":[{"op":"comparison"},{"op":"distribution","bins":10},{"op":"sweep","axis":"slack_factor","values":[1.2,1.4]},{"op":"mc_validation"}]}"#,
    );
    assert!(batch.contains(r#""ok":true"#), "{batch}");
    assert!(batch.contains(r#""count":4"#), "{batch}");
    assert!(batch.contains(r#""item_errors":0"#), "{batch}");
    // Every item carries its own payload in order.
    assert!(batch.contains(r#""stat_extra_saving""#), "{batch}");
    assert!(batch.contains(r#""bins""#), "{batch}");

    let stats = daemon.request(r#"{"id":"s","op":"stats"}"#);
    assert!(stats.contains(r#""batch":1"#), "{stats}");
    // Four items, one config: the session was prepared exactly once.
    assert!(stats.contains(r#""misses":1"#), "{stats}");

    // Routing metadata is available without a server-side ring.
    let routed = daemon.request(
        r#"{"id":"r","op":"route","benchmark":"c17","mc_samples":0,"ring":["n1:7878","n2:7878","n3:7878"]}"#,
    );
    assert!(routed.contains(r#""ok":true"#), "{routed}");
    assert!(routed.contains(r#""shard":"n"#), "{routed}");
    assert!(routed.contains(r#""session_key""#), "{routed}");

    daemon.sigterm();
    daemon.assert_clean_exit();
}

/// Unescapes the `text` field of a `metrics_text` response and returns the
/// value of the named Prometheus sample, panicking when absent.
fn prom_value(response: &str, sample: &str) -> f64 {
    let start = response
        .find(r#""text":""#)
        .unwrap_or_else(|| panic!("no text field in {response}"))
        + r#""text":""#.len();
    let body = &response[start..];
    let end = body.find('"').expect("text field terminates");
    let text = body[..end].replace("\\n", "\n");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(sample) {
            if let Some(v) = rest.split_whitespace().next_back() {
                return v.parse().unwrap_or_else(|_| panic!("bad sample: {line}"));
            }
        }
    }
    panic!("sample {sample} not found in:\n{text}");
}

#[test]
fn metrics_ops_expose_prometheus_text_with_monotone_counters() {
    let daemon = Daemon::spawn(&["--workers", "1"]);

    // One analysis request so the served counter is non-zero.
    let first = daemon.request(r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0}"#);
    assert!(first.contains(r#""ok":true"#), "{first}");

    // JSON metrics op exposes the counter map inline.
    let json = daemon.request(r#"{"id":2,"op":"metrics"}"#);
    assert!(json.contains(r#""counters""#), "{json}");
    assert!(json.contains(r#""serve_served_total":1"#), "{json}");

    // Prometheus exposition: typed, prefixed, parseable samples.
    let text1 = daemon.request(r#"{"id":3,"op":"metrics_text"}"#);
    assert!(
        text1.contains(r#""content_type":"text/plain; version=0.0.4""#),
        "{text1}"
    );
    assert!(
        text1.contains(r"# TYPE statleak_serve_served_total counter"),
        "{text1}"
    );
    assert!(
        text1.contains(r"# TYPE statleak_serve_queue_wait_ns histogram"),
        "{text1}"
    );
    let served1 = prom_value(&text1, "statleak_serve_served_total");
    let requests1 = prom_value(&text1, "statleak_serve_requests_total");
    assert_eq!(served1, 1.0, "{text1}");

    // A second analysis request: counters must be monotone non-decreasing,
    // and the ones it touches strictly increase.
    let second = daemon.request(r#"{"id":4,"op":"comparison","benchmark":"c17","mc_samples":0}"#);
    assert!(second.contains(r#""ok":true"#), "{second}");
    let text2 = daemon.request(r#"{"id":5,"op":"metrics_text"}"#);
    let served2 = prom_value(&text2, "statleak_serve_served_total");
    let requests2 = prom_value(&text2, "statleak_serve_requests_total");
    assert_eq!(served2, 2.0, "{text2}");
    assert!(requests2 > requests1, "{requests1} -> {requests2}");

    // The stats op reports per-op request counts and the queue high-water
    // mark alongside the existing cache/server sections.
    let stats = daemon.request(r#"{"id":6,"op":"stats"}"#);
    assert!(stats.contains(r#""ops""#), "{stats}");
    assert!(stats.contains(r#""comparison":2"#), "{stats}");
    assert!(stats.contains(r#""metrics_text":2"#), "{stats}");
    assert!(stats.contains(r#""max_queued":"#), "{stats}");

    daemon.sigterm();
    daemon.assert_clean_exit();
}
