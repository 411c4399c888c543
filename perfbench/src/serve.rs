//! The two serve workloads: a real `statleak serve` daemon driven by a
//! closed loop of lock-step client connections.
//!
//! `serve-hit` repeats a few pre-warmed, memoized requests, so transport
//! (read, parse, queue, write) sets the round trip. `serve-churn` cycles
//! through more configurations than the daemon's session cache holds, so
//! every request misses, evicts, prepares a session and computes.
//!
//! Every response is checked byte for byte against the same request
//! executed in-process through `proto::parse_request`,
//! `Engine::session_with_origin` and `proto::execute`. Traced runs replay
//! the measured requests through those calls to time each layer, and
//! read the daemon's own queue-wait and service-time histograms and cache
//! counters through its `metrics` op.

use crate::account::Accounting;
use crate::stats::{bucket_delta, bucket_quantile, median, nearest_rank, tail_supported};
use crate::{host, Outcome};
use statleak_engine::{proto, Engine, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups (daemon start + warm-up) per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests a window holds at least, so that ten lie beyond its p90.
const MIN_REQUESTS: usize = 100;
/// A window stops growing past this, whatever its request count.
const MAX_WINDOW: Duration = Duration::from_secs(60);
/// The circuit every request analyzes.
const CIRCUIT: &str = "c432";
/// Distinct configurations `serve-hit` repeats (all fit in its cache).
const HIT_CONFIGS: usize = 4;
const HIT_CAPACITY: usize = 32;
/// `serve-churn` cycles through more configurations than its cache holds.
/// Round-robin over the cycle puts `CHURN_CONFIGS − 1` other sessions
/// between two uses of one, so each request misses while the cycle is
/// longer than the cache plus the requests in flight.
const CHURN_CONFIGS: usize = 16;
const CHURN_CAPACITY: usize = 4;
/// Lock-step client connections. One: a second connection makes two
/// requests compute at once on the two vCPUs the workloads were tuned on,
/// and the contention more than doubled the run-to-run spread of the
/// churn p90.
const CONNECTIONS: usize = 1;
/// Requests replayed in-process per traced run (churn replays compute).
const HIT_REPLAY: usize = 2000;
const CHURN_REPLAY: usize = 32;

/// Which serve workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Pre-warmed, memoized requests.
    Hit,
    /// A configuration cycle longer than the session cache.
    Churn,
}

impl Kind {
    fn configs(self) -> usize {
        match self {
            Kind::Hit => HIT_CONFIGS,
            Kind::Churn => CHURN_CONFIGS,
        }
    }

    fn capacity(self) -> usize {
        match self {
            Kind::Hit => HIT_CAPACITY,
            Kind::Churn => CHURN_CAPACITY,
        }
    }
}

/// Configurations differ in their clock target: `slack_factor` is
/// `(SLACK_BASE + k) / 100` for a seed-drawn `k` below `SLACK_STEPS`.
const SLACK_BASE: u64 = 115;
const SLACK_STEPS: u64 = 32;

/// The request line under `id` for the configuration whose slack factor
/// is `slack_pct / 100`.
fn request_line(id: u64, slack_pct: u64) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"ablation\",\"benchmark\":\"{CIRCUIT}\",\"slack_factor\":{}.{:02},\"mc_samples\":0}}",
        slack_pct / 100,
        slack_pct % 100
    )
}

/// A `statleak serve` child process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &Path, workers: usize, capacity: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--cache-capacity", &capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut first = String::new();
        let read = BufReader::new(stdout).read_line(&mut first);
        // Owned by the guard from here on, so a failed start still reaps it.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        match (read, first.trim().strip_prefix("serving on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address: {first:?}")),
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        host::peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Graceful drain first; kill only if it does not exit promptly.
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.call("{\"id\":0,\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: a request line out, a response line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end_matches('\n').len());
        Ok(response)
    }
}

/// One answered request of a measured window.
struct Reply {
    id: u64,
    config: usize,
    rtt_ms: f64,
    body: String,
}

/// What a closed-loop window produced.
struct Window {
    replies: Vec<Reply>,
    io_errors: u64,
    wall_s: f64,
}

impl Window {
    fn rtts(&self) -> Vec<f64> {
        self.replies.iter().map(|r| r.rtt_ms).collect()
    }
}

/// Drives `conns` lock-step connections for `seconds` (and at least
/// [`MIN_REQUESTS`] requests): each sends its next request only after the
/// previous response arrived. Requests walk the configurations round-robin
/// in the order they are sent; `next` numbers them across windows.
fn closed_loop(
    addr: &str,
    slacks: &[u64],
    conns: usize,
    seconds: f64,
    next: &AtomicUsize,
) -> Window {
    let budget = Duration::from_secs_f64(seconds);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<(Vec<Reply>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let done = &done;
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let Ok(mut conn) = Conn::open(addr) else {
                        return (replies, 1);
                    };
                    loop {
                        let elapsed = start.elapsed();
                        let enough =
                            elapsed >= budget && done.load(Ordering::Relaxed) >= MIN_REQUESTS;
                        if enough || elapsed >= MAX_WINDOW {
                            break;
                        }
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let config = n % slacks.len();
                        let id = n as u64 + 1;
                        let line = request_line(id, slacks[config]);
                        let t = Instant::now();
                        match conn.call(&line) {
                            Ok(body) => {
                                replies.push(Reply {
                                    id,
                                    config,
                                    rtt_ms: t.elapsed().as_secs_f64() * 1e3,
                                    body,
                                });
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => return (replies, 1),
                        }
                    }
                    (replies, 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut replies = Vec::new();
    let mut io_errors = 0;
    for (r, e) in per_conn {
        replies.extend(r);
        io_errors += e;
    }
    Window {
        replies,
        io_errors,
        wall_s,
    }
}

/// Executes one request line in-process, as the daemon's worker does, and
/// returns its `data` payload.
fn execute_in_process(engine: &Engine, line: &str) -> Result<Json, String> {
    let request = proto::parse_request(line).map_err(|(e, _)| e.message)?;
    let cfg = proto::op_config(&request.op).expect("ablation carries a config");
    let session = engine.session(cfg).map_err(|e| e.to_string())?;
    proto::execute(&session, &request.op).map_err(|e| e.message)
}

/// Expected `data` payloads, one per configuration, computed in-process.
fn reference_data(kind: Kind, slacks: &[u64]) -> Result<Vec<Json>, String> {
    let engine = Engine::new(kind.capacity());
    slacks
        .iter()
        .map(|&s| execute_in_process(&engine, &request_line(0, s)))
        .collect()
}

/// The byte-exact response the daemon owes request `id` of `config`.
fn expected_response(id: u64, data: &Json) -> String {
    proto::ok_response_with(&Json::Num(id as f64), "ablation", data.clone(), Vec::new())
}

/// Counts replies that are not byte-identical to the in-process
/// reference (a non-ok, `busy` or `deadline` answer never is).
fn mismatches(replies: &[(u64, usize, &str)], data: &[Json]) -> Vec<String> {
    replies
        .iter()
        .filter(|&&(id, config, body)| body != expected_response(id, &data[config]))
        .map(|&(id, _, body)| format!("request {id}: unexpected response {body:.200}"))
        .collect()
}

fn check_window(w: &Window, data: &[Json], out: &mut Outcome) {
    let replies: Vec<(u64, usize, &str)> = w
        .replies
        .iter()
        .map(|r| (r.id, r.config, r.body.as_str()))
        .collect();
    out.attempted += w.replies.len() as u64 + w.io_errors;
    let bad = mismatches(&replies, data);
    out.failed += bad.len() as u64 + w.io_errors;
    if w.io_errors > 0 {
        out.problems
            .push(format!("{} connections failed", w.io_errors));
    }
    out.problems.extend(bad.into_iter().take(3));
    if !tail_supported(w.replies.len(), 0.9) {
        out.problems.push(format!(
            "only {} requests: p90 needs {MIN_REQUESTS}",
            w.replies.len()
        ));
    }
}

/// Starts a daemon and warms it with one pass over the configurations: a
/// hit daemon computes and then memo-hits each one; a churn daemon
/// computes each once, leaving the last `capacity` of the cycle cached, so
/// the measured window (which restarts the cycle) still misses.
fn set_up(bin: &Path, kind: Kind, slacks: &[u64], workers: usize) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(bin, workers, kind.capacity())?;
    let mut conn = Conn::open(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let repeats = match kind {
        Kind::Hit => 2,
        Kind::Churn => 1,
    };
    let warm = slacks
        .iter()
        .flat_map(|&s| std::iter::repeat_n(request_line(0, s), repeats));
    for line in warm {
        let body = conn.call(&line).map_err(|e| format!("warm-up: {e}"))?;
        if !body.contains("\"ok\":true") {
            return Err(format!("warm-up failed: {body:.200}"));
        }
    }
    Ok(daemon)
}

/// Starts [`SETUPS`] daemons in turn and keeps the last; returns it with
/// the set-up times in seconds.
fn set_up_repeatedly(
    bin: &Path,
    kind: Kind,
    slacks: &[u64],
    workers: usize,
) -> Result<(Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        drop(daemon.take());
        let t = Instant::now();
        daemon = Some(set_up(bin, kind, slacks, workers)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((daemon.expect("SETUPS > 0"), times))
}

/// The daemon's exported counters and histogram buckets.
struct Snapshot {
    counters: Vec<(String, f64)>,
    histograms: Vec<(String, Vec<(usize, u64)>)>,
}

impl Snapshot {
    fn take(addr: &str) -> Result<Snapshot, String> {
        let body = Conn::open(addr)
            .and_then(|mut c| c.call("{\"id\":0,\"op\":\"metrics\"}"))
            .map_err(|e| format!("metrics: {e}"))?;
        let json = Json::parse(&body).map_err(|e| format!("metrics: {e}"))?;
        let data = json.get("data").ok_or("metrics: no data")?;
        let counters = match data.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        let histograms = match data.get("histograms") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    let buckets = v
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|pair| {
                            let p = pair.as_arr()?;
                            Some((p.first()?.as_usize()?, p.get(1)?.as_f64()? as u64))
                        })
                        .collect();
                    (k.clone(), buckets)
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(Snapshot {
            counters,
            histograms,
        })
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |&(_, v)| v)
    }

    fn buckets(&self, name: &str) -> &[(usize, u64)] {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map_or(&[], |(_, b)| b.as_slice())
    }
}

/// Per-request layer times from replaying a window in-process.
#[derive(Debug, Default)]
struct Replay {
    parse_us: Vec<f64>,
    acquire_ms: Vec<f64>,
    compute_ms: Vec<f64>,
    encode_us: Vec<f64>,
    mismatches: usize,
}

/// Replays up to `cap` of the window's requests, in order, through the
/// calls the daemon makes for each, on an engine warmed like the daemon.
fn replay(kind: Kind, slacks: &[u64], w: &Window, cap: usize) -> Result<Replay, String> {
    let engine = Engine::new(kind.capacity());
    if kind == Kind::Hit {
        for &s in slacks {
            execute_in_process(&engine, &request_line(0, s))?;
        }
    }
    let mut r = Replay::default();
    let mut replies: Vec<&Reply> = w.replies.iter().collect();
    replies.sort_by_key(|reply| reply.id);
    for reply in replies.into_iter().take(cap) {
        let line = request_line(reply.id, slacks[reply.config]);
        let t = Instant::now();
        let request = proto::parse_request(&line).map_err(|(e, _)| e.message)?;
        r.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let cfg = proto::op_config(&request.op).expect("ablation carries a config");
        let t = Instant::now();
        let (session, _) = engine.session_with_origin(cfg).map_err(|e| e.to_string())?;
        r.acquire_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let data = proto::execute(&session, &request.op).map_err(|e| e.message)?;
        r.compute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let body = proto::ok_response_with(&request.id, request.op.name(), data, Vec::new());
        r.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        if body != reply.body {
            r.mismatches += 1;
        }
    }
    Ok(r)
}

/// Runs a serve workload against the `statleak` binary at `bin`.
pub fn run(
    bin: &Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let workers = host::nproc();
    let conns = CONNECTIONS.min(host::nproc());
    let next = AtomicUsize::new(0);
    let slacks: Vec<u64> = host::SplitMix::new(seed)
        .distinct(kind.configs(), SLACK_STEPS)
        .into_iter()
        .map(|k| SLACK_BASE + k)
        .collect();
    let (daemon, setups_s) = set_up_repeatedly(bin, kind, &slacks, workers)?;
    let mut out = Outcome::default();
    out.fact("server_workers", workers.to_string());
    out.fact("client_connections", conns.to_string());
    out.fact("cache_capacity", kind.capacity().to_string());
    out.fact("configs", kind.configs().to_string());
    out.fact("loop", "\"closed, lock-step per connection\"".to_string());
    if !trace {
        let w = closed_loop(&daemon.addr, &slacks, conns, seconds, &next);
        let peak = daemon
            .peak_rss_mb()
            .ok_or("cannot read the daemon's VmHWM")?;
        drop(daemon);
        let data = reference_data(kind, &slacks)?;
        check_window(&w, &data, &mut out);
        let rtts = w.rtts();
        if rtts.is_empty() {
            return Err("no request completed".to_string());
        }
        out.metrics = vec![
            ("setup_s", median(&setups_s)),
            ("latency_ms", median(&rtts)),
            ("latency_p90_ms", nearest_rank(&rtts, 0.9)),
            ("throughput_rps", rtts.len() as f64 / w.wall_s),
            ("peak_rss_mb", peak),
        ];
        out.fact("requests", rtts.len().to_string());
        return Ok(out);
    }
    // Untraced half, then the traced half bracketed by metric snapshots.
    let plain = closed_loop(&daemon.addr, &slacks, conns, seconds / 2.0, &next);
    let before = Snapshot::take(&daemon.addr)?;
    let traced = closed_loop(&daemon.addr, &slacks, conns, seconds / 2.0, &next);
    let after = Snapshot::take(&daemon.addr)?;
    drop(daemon);
    let data = reference_data(kind, &slacks)?;
    check_window(&plain, &data, &mut out);
    check_window(&traced, &data, &mut out);
    let cap = match kind {
        Kind::Hit => HIT_REPLAY,
        Kind::Churn => CHURN_REPLAY,
    };
    let r = replay(kind, &slacks, &traced, cap)?;
    if r.mismatches > 0 {
        out.problems.push(format!(
            "{} replayed responses differ from the daemon's",
            r.mismatches
        ));
    }
    let hist_p50_us = |name: &str| {
        bucket_quantile(
            &bucket_delta(before.buckets(name), after.buckets(name)),
            0.5,
        ) / 1e3
    };
    let queue_us = hist_p50_us("serve_queue_wait_ns");
    let service_us = hist_p50_us("serve_service_ns");
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let (hits, misses) = (
        delta("engine_cache_hits_total"),
        delta("engine_cache_misses_total"),
    );
    let parse_us = median(&r.parse_us);
    let encode_us = median(&r.encode_us);
    let rtt_p50 = median(&traced.rtts());
    let acc = Accounting::new(
        vec![
            ("engine.proto.parse_us", parse_us / 1e3),
            ("engine.serve.queue_wait_us", queue_us / 1e3),
            ("engine.serve.service_us", service_us / 1e3),
            ("engine.json.encode_us", encode_us / 1e3),
        ],
        rtt_p50,
    );
    out.account(&acc, rtt_p50, median(&plain.rtts()));
    out.metrics.extend([
        ("engine.proto.parse_us", parse_us),
        ("engine.json.encode_us", encode_us),
        ("engine.serve.queue_wait_us", queue_us),
        ("engine.serve.service_us", service_us),
        ("engine.session.acquire_ms", median(&r.acquire_ms)),
        ("engine.session.compute_ms", median(&r.compute_ms)),
        (
            "engine.cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "engine.cache.evictions",
            delta("engine_cache_evictions_total"),
        ),
    ]);
    out.fact(
        "requests",
        (plain.replies.len() + traced.replies.len()).to_string(),
    );
    out.fact("replayed", r.parse_us.len().to_string());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(id: u64, data: &Json) -> String {
        expected_response(id, data)
    }

    #[test]
    fn response_comparison_is_byte_exact() {
        let data = vec![
            Json::obj(vec![("x", Json::Num(1.5))]),
            Json::obj(vec![("x", Json::Num(2.0))]),
        ];
        let good0 = reply(7, &data[0]);
        let good1 = reply(8, &data[1]);
        assert_eq!(
            good0,
            r#"{"id":7,"ok":true,"op":"ablation","data":{"x":1.5}}"#
        );
        let ok = [(7, 0, good0.as_str()), (8, 1, good1.as_str())];
        assert!(mismatches(&ok, &data).is_empty());
        // Wrong config, wrong id, one extra byte, an error answer.
        let swapped = [(7, 1, good0.as_str())];
        assert_eq!(mismatches(&swapped, &data).len(), 1);
        let wrong_id = [(9, 0, good0.as_str())];
        assert_eq!(mismatches(&wrong_id, &data).len(), 1);
        let padded = format!("{good0} ");
        assert_eq!(mismatches(&[(7, 0, padded.as_str())], &data).len(), 1);
        let busy = r#"{"id":7,"ok":false,"error":{"class":"busy","message":"queue full"}}"#;
        assert_eq!(mismatches(&[(7, 0, busy)], &data).len(), 1);
    }

    #[test]
    fn request_lines_parse_to_distinct_sessions() {
        let a = proto::parse_request(&request_line(1, 120)).expect("parses");
        let b = proto::parse_request(&request_line(2, 121)).expect("parses");
        assert_eq!(a.op.name(), "ablation");
        let key = |r: &proto::Request| {
            statleak_engine::session_key(proto::op_config(&r.op).expect("config")).expect("key")
        };
        assert_ne!(key(&a), key(&b));
    }
}
