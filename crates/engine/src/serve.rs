//! `statleak serve` — a long-running TCP daemon over the cached engine.
//!
//! Transport: plain `std::net` TCP, newline-delimited JSON (one request
//! per line, one response line per request, in order per connection). No
//! async runtime: a nonblocking accept loop hands each connection to a
//! thread, and that thread runs each of its requests itself. Analysis ops
//! first take a permit from one admission gate that lets at most
//! `workers` requests run at once and admits waiters in arrival order;
//! control ops (`ping`/`stats`/`route`/`shutdown`) skip the gate, so they
//! stay responsive under load.
//!
//! One path answers analysis ops: dispatch hashes a request's config into
//! its session key once, and a single op and a `batch`'s items both go
//! through `answer` (store lookup, at most one session for the misses,
//! each miss run panic-safe, each success saved). A batch wraps the same
//! results in its envelope.
//!
//! Three production features sit on top of that core:
//!
//! - **Persistent warm store** ([`Store`]): with a `store_dir` configured,
//!   every analysis result is written to disk keyed by the deterministic
//!   session/op content hashes, and looked up *before* a session is
//!   prepared — so a restarted daemon (even after `kill -9`) answers
//!   repeated requests from disk without rebuilding anything, and fleet
//!   members sharing one directory pre-seed each other.
//! - **Batching**: a `batch` request holds one permit, acquires one
//!   session, and runs its items one after another over that session;
//!   each item's flow parallelises its own inner loops, so a batch uses
//!   the machine like one request and counts as one against `workers`.
//! - **Sharding** ([`Ring`]): with a consistent-hash ring and a self node
//!   configured, sessions owned by another fleet member are rejected with
//!   a typed `wrong-shard` error naming the owner, and the `route`
//!   control op lets clients (or peers) resolve owners without a
//!   coordinator.
//!
//! Load shedding is explicit rather than implicit: once `queue_depth`
//! requests wait at the gate, the next is rejected immediately with a
//! typed `busy` error, and a request whose deadline passes before it is
//! admitted is answered `deadline` instead of silently running late. A
//! request that *starts* in time but finishes past its deadline is still
//! answered, marked `"deadline_exceeded":true`, and counted — so the
//! `deadline_expired` report is truthful either way.
//!
//! Shutdown is cooperative: when the shutdown flag flips (SIGTERM in the
//! CLI, or a `shutdown` request), the listener stops accepting, waiting
//! and running requests drain to completion, every response is written,
//! and [`Server::run`] returns its final [`ServeReport`].

use crate::audit::{AccessLog, AccessRecord};
use crate::json::Json;
use crate::proto::{self, Op, ProtoError, Request};
use crate::ring::{Ring, DEFAULT_REPLICAS};
use crate::session::{session_key, Engine};
use crate::store::Store;
use statleak_core::flows::FlowConfig;
use statleak_obs as obs;
use statleak_obs::TraceContext;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often blocked loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest request line the server reads, in bytes before the newline.
/// A request holds config fields, a library *path* and at most 64 batch
/// items, so a real one is a few KiB; a longer line is answered with a
/// typed `too-large` error and its connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral port;
    /// read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Analysis requests allowed to run at once (0 = available
    /// parallelism, capped at 8).
    pub workers: usize,
    /// High-water mark: a request arriving while this many wait for a
    /// permit (admitted but not yet running) is rejected with a `busy`
    /// error.
    pub queue_depth: usize,
    /// Default per-request admission deadline; `None` = wait forever
    /// unless the request carries its own `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Capacity of the session LRU cache.
    pub cache_capacity: usize,
    /// Directory of the persistent result store; `None` = memory only.
    /// Safe to share between fleet members and across restarts.
    pub store_dir: Option<String>,
    /// Node names of the fleet's consistent-hash ring; empty = unsharded.
    pub ring: Vec<String>,
    /// This node's name within `ring`. When both are set, requests whose
    /// session hashes to another node are rejected `wrong-shard`.
    pub self_node: Option<String>,
    /// Virtual points per ring node.
    pub ring_replicas: usize,
    /// NDJSON request audit log path (`--access-log`); `None` = disabled.
    pub access_log: Option<String>,
    /// Audit-log rotation threshold in bytes.
    pub access_log_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            queue_depth: 64,
            default_deadline_ms: None,
            cache_capacity: crate::session::DEFAULT_CACHE_CAPACITY,
            store_dir: None,
            ring: Vec::new(),
            self_node: None,
            ring_replicas: DEFAULT_REPLICAS,
            access_log: None,
            access_log_max_bytes: crate::audit::DEFAULT_ACCESS_LOG_MAX_BYTES,
        }
    }
}

/// Final counters returned by [`Server::run`] after a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests that failed in the flow (infeasible targets etc.).
    pub request_errors: u64,
    /// Requests shed at the high-water mark.
    pub busy_rejected: u64,
    /// Requests whose queue wait or execution exceeded their deadline.
    pub deadline_expired: u64,
    /// Lines that failed to parse as protocol requests.
    pub protocol_errors: u64,
    /// Requests rejected because their session belongs to another shard.
    pub wrong_shard: u64,
    /// Lines longer than [`MAX_LINE_BYTES`], answered `too-large`.
    pub too_large: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// The admission gate in front of every analysis request: at most
/// `workers` hold a permit at once, at most `queue_depth` wait for one,
/// and waiters are admitted in arrival order (a ticket pair, as at a
/// bakery counter). Its waits have no timeout: a permit's release wakes
/// them.
struct Admission {
    state: Mutex<GateState>,
    cv: Condvar,
    workers: usize,
    queue_depth: usize,
}

#[derive(Default)]
struct GateState {
    running: usize,
    /// The next ticket to hand out; the waiters hold `head..next`.
    next: usize,
    /// The ticket admitted next.
    head: usize,
    /// High-water mark of `next - head` actually observed.
    max_waiting: usize,
}

impl Admission {
    fn new(workers: usize, queue_depth: usize) -> Admission {
        Admission {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            workers,
            queue_depth,
        }
    }

    /// The lock is never held across a panic, but a poisoned one still
    /// holds consistent counters: recover it rather than wedge the gate.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until this request may run, or returns `None` at once (shed
    /// `busy`) when `queue_depth` requests are already waiting.
    fn admit(&self) -> Option<Permit<'_>> {
        let mut s = self.lock();
        if s.next == s.head && s.running < self.workers {
            s.running += 1;
            return Some(Permit(self));
        }
        if s.next - s.head >= self.queue_depth {
            return None;
        }
        let ticket = s.next;
        s.next += 1;
        s.max_waiting = s.max_waiting.max(s.next - s.head);
        while s.head != ticket || s.running >= self.workers {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.head += 1;
        s.running += 1;
        drop(s);
        // The next ticket may fit too when several permits freed at once.
        self.cv.notify_all();
        Some(Permit(self))
    }

    fn waiting(&self) -> usize {
        let s = self.lock();
        s.next - s.head
    }

    fn max_waiting(&self) -> usize {
        self.lock().max_waiting
    }
}

/// A running request's slot. Dropping it (also on unwind) frees the slot
/// and wakes the waiters, so a panicking request cannot shrink the pool.
struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.cv.notify_all();
    }
}

struct Shared {
    engine: Engine,
    store: Option<Store>,
    access: Option<AccessLog>,
    ring: Option<Ring>,
    self_node: Option<String>,
    admission: Admission,
    default_deadline: Option<Duration>,
    started: Instant,
    shutdown: &'static AtomicBool,
    served: AtomicU64,
    /// Per-op request counts (every parsed request, control ops included).
    op_counts: Mutex<BTreeMap<&'static str, u64>>,
    request_errors: AtomicU64,
    busy_rejected: AtomicU64,
    deadline_expired: AtomicU64,
    protocol_errors: AtomicU64,
    wrong_shard: AtomicU64,
    too_large: AtomicU64,
    connections: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Appends one audit record when the access log is enabled. I/O
    /// failures are counted, not propagated — the request itself already
    /// has its answer.
    fn audit(&self, record: &AccessRecord) {
        if let Some(log) = &self.access {
            if log.write(record).is_err() {
                obs::counter!("serve_access_log_errors_total").inc();
            }
        }
    }

    fn report(&self) -> ServeReport {
        ServeReport {
            served: self.served.load(Ordering::Relaxed),
            request_errors: self.request_errors.load(Ordering::Relaxed),
            busy_rejected: self.busy_rejected.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            wrong_shard: self.wrong_shard.load(Ordering::Relaxed),
            too_large: self.too_large.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
        }
    }

    fn stats_json(&self) -> Json {
        let r = self.report();
        Json::obj(vec![
            ("cache", proto::cache_stats_json(&self.engine.cache_stats())),
            (
                "store",
                match &self.store {
                    Some(store) => proto::store_stats_json(&store.stats(), store.len()),
                    None => Json::Null,
                },
            ),
            (
                "ring",
                match &self.ring {
                    Some(ring) => Json::obj(vec![
                        (
                            "nodes",
                            Json::Arr(ring.nodes().iter().map(|n| Json::str(n.clone())).collect()),
                        ),
                        ("replicas", Json::Num(ring.replicas() as f64)),
                        (
                            "self",
                            match &self.self_node {
                                Some(n) => Json::str(n.clone()),
                                None => Json::Null,
                            },
                        ),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "server",
                Json::obj(vec![
                    ("served", Json::Num(r.served as f64)),
                    ("request_errors", Json::Num(r.request_errors as f64)),
                    ("busy_rejected", Json::Num(r.busy_rejected as f64)),
                    ("deadline_expired", Json::Num(r.deadline_expired as f64)),
                    ("protocol_errors", Json::Num(r.protocol_errors as f64)),
                    ("wrong_shard", Json::Num(r.wrong_shard as f64)),
                    ("too_large", Json::Num(r.too_large as f64)),
                    ("connections", Json::Num(r.connections as f64)),
                    ("queued", Json::Num(self.admission.waiting() as f64)),
                    ("max_queued", Json::Num(self.admission.max_waiting() as f64)),
                    ("workers", Json::Num(self.admission.workers as f64)),
                    ("queue_depth", Json::Num(self.admission.queue_depth as f64)),
                    ("uptime_s", Json::Num(self.started.elapsed().as_secs_f64())),
                    ("draining", Json::Bool(self.draining())),
                ]),
            ),
            (
                "ops",
                Json::Obj(
                    self.op_counts
                        .lock()
                        .expect("op counts lock")
                        .iter()
                        .map(|(&name, &count)| (name.to_string(), Json::Num(count as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Counts live connection threads so drain can wait for them without the
/// accept loop keeping an ever-growing `JoinHandle` list.
struct ConnGate {
    active: Mutex<u64>,
    cv: Condvar,
}

impl ConnGate {
    fn new() -> Arc<ConnGate> {
        Arc::new(ConnGate {
            active: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    fn enter(self: &Arc<ConnGate>) -> ConnGuard {
        *self.active.lock().expect("conn gate lock") += 1;
        ConnGuard(Arc::clone(self))
    }

    fn wait_idle(&self) {
        let mut active = self.active.lock().expect("conn gate lock");
        while *active > 0 {
            active = self.cv.wait(active).expect("conn gate lock");
        }
    }
}

/// RAII decrement: runs on normal exit *and* unwind, so a panicking
/// connection thread cannot wedge the drain.
struct ConnGuard(Arc<ConnGate>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        *self.0.active.lock().expect("conn gate lock") -= 1;
        self.0.cv.notify_all();
    }
}

/// A bound, not-yet-running server. Splitting bind from run lets callers
/// learn the actual port (ephemeral binds) before the accept loop blocks.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Why [`Server::bind`] could not start.
#[derive(Debug)]
pub enum BindError {
    /// The listen address, store directory or access log could not be
    /// opened.
    Io {
        /// The address or path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The ring has no usable nodes, or `self_node` is not one of them.
    Ring(String),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::Io { path, source } => write!(f, "cannot open `{path}`: {source}"),
            BindError::Ring(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for BindError {}

impl Server {
    /// Binds the listener, opens the store, builds the ring, and sizes
    /// the admission gate.
    ///
    /// The `shutdown` flag is the drain trigger: the CLI points it at a
    /// static that its SIGTERM handler sets; a `shutdown` request sets the
    /// same flag from inside the protocol.
    ///
    /// # Errors
    ///
    /// Names the address, store directory or access log that could not be
    /// opened, and rejects a ring with no usable nodes or a `self_node`
    /// that is not a ring member.
    pub fn bind(config: &ServeConfig, shutdown: &'static AtomicBool) -> Result<Server, BindError> {
        let io = |path: &str| {
            let path = path.to_string();
            move |source| BindError::Io { path, source }
        };
        let listener = TcpListener::bind(&config.addr).map_err(io(&config.addr))?;
        let local_addr = listener.local_addr().map_err(io(&config.addr))?;
        listener.set_nonblocking(true).map_err(io(&config.addr))?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .min(8)
        } else {
            config.workers
        };
        let store = match &config.store_dir {
            Some(dir) => Some(Store::open(dir).map_err(io(dir))?),
            None => None,
        };
        let access = match &config.access_log {
            Some(path) => {
                Some(AccessLog::open(path, config.access_log_max_bytes).map_err(io(path))?)
            }
            None => None,
        };
        let registry = obs::Registry::global();
        registry.describe(
            "serve_queue_wait_ns",
            "Time a request waited for admission (ns)",
        );
        registry.describe(
            "serve_service_ns",
            "Request execution time once admitted (ns)",
        );
        registry.describe(
            "serve_requests_total",
            "Parsed requests, control ops included",
        );
        registry.describe("serve_served_total", "Requests answered successfully");
        registry.describe(
            "engine_cache_sessions",
            "Prepared sessions resident in the LRU cache",
        );
        let ring = Ring::new(&config.ring, config.ring_replicas);
        if !config.ring.is_empty() && ring.is_none() {
            return Err(BindError::Ring("ring has no usable nodes".into()));
        }
        if let (Some(ring), Some(node)) = (&ring, &config.self_node) {
            if !ring.contains(node) {
                return Err(BindError::Ring(format!(
                    "self node {node:?} is not a member of the ring"
                )));
            }
        }
        let shared = Arc::new(Shared {
            engine: Engine::new(config.cache_capacity),
            store,
            access,
            ring,
            self_node: config.self_node.clone(),
            admission: Admission::new(workers, config.queue_depth.max(1)),
            default_deadline: config.default_deadline_ms.map(Duration::from_millis),
            started: Instant::now(),
            shutdown,
            served: AtomicU64::new(0),
            op_counts: Mutex::new(BTreeMap::new()),
            request_errors: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            wrong_shard: AtomicU64::new(0),
            too_large: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the accept loop until the shutdown flag flips, then drains
    /// in-flight requests and returns the final counters.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop I/O failures.
    pub fn run(self) -> std::io::Result<ServeReport> {
        let Server {
            listener, shared, ..
        } = self;

        // Connection threads are detached; the gate counts them so drain
        // can wait for the last one without holding a handle per
        // connection for the server's whole lifetime.
        let gate = ConnGate::new();
        while !shared.draining() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    let shared = shared.clone();
                    let guard = gate.enter();
                    std::thread::Builder::new()
                        .name("statleak-conn".to_string())
                        .spawn(move || {
                            let _guard = guard;
                            handle_connection(stream, &shared);
                        })
                        .expect("spawn connection thread");
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: stop accepting (listener drops below) and let connection
        // threads finish their waiting and running requests.
        drop(listener);
        gate.wait_idle();
        Ok(shared.report())
    }
}

/// Runs one admitted analysis request and renders its response line.
/// `key` is the request's session key, computed once at dispatch;
/// `accepted` is when the request arrived at the gate; `trace` is the
/// client's context or one the server originated at dispatch.
fn process(
    shared: &Shared,
    request: &Request,
    cfg: &FlowConfig,
    key: Result<u64, ProtoError>,
    trace: TraceContext,
    accepted: Instant,
    deadline: Option<Duration>,
) -> String {
    // Install the trace context before anything records: the span below,
    // the histograms (exemplars), and every batch item run from here all
    // pick it up.
    let _trace = obs::trace::enter(trace);
    let _span = obs::span!("serve.process");
    let queue_wait = accepted.elapsed();
    obs::histogram!("serve_queue_wait_ns").record_duration_traced(queue_wait);
    let mut record = AccessRecord {
        queue_wait_ns: Some(queue_wait.as_nanos() as u64),
        ..AccessRecord::new(trace.trace_id, &request.id, request.op.name(), "error")
    };
    if let Some(deadline) = deadline.filter(|&d| accepted.elapsed() > d) {
        record.outcome = "deadline_exceeded";
        let error = ProtoError::new(
            "deadline",
            format!(
                "request waited {:.0} ms, past its {:.0} ms deadline",
                accepted.elapsed().as_secs_f64() * 1e3,
                deadline.as_secs_f64() * 1e3
            ),
        );
        let count = (
            &shared.deadline_expired,
            obs::counter!("serve_deadline_expired_total"),
        );
        return reject(shared, count, request, &record, Vec::new(), &error);
    }
    let service_start = Instant::now();
    let outcome = key
        .clone()
        .and_then(|key| respond(shared, request, cfg, key));
    let service = service_start.elapsed();
    obs::histogram!("serve_service_ns").record_duration_traced(service);
    record.service_ns = Some(service.as_nanos() as u64);
    // The request started in time but may have *finished* late: answer it
    // anyway (the work is done), but mark and count it so the
    // deadline_expired report stays truthful.
    let mut extra: Vec<(&str, Json)> = Vec::new();
    if deadline.is_some_and(|deadline| accepted.elapsed() > deadline) {
        shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
        obs::counter!("serve_deadline_expired_total").inc();
        record.deadline_exceeded = true;
        extra.push(("deadline_exceeded", Json::Bool(true)));
    }
    match outcome {
        Ok((data, origin)) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            obs::counter!("serve_served_total").inc();
            // Client-supplied trace ids are echoed in the response;
            // server-originated ones are not, so untraced repeats stay
            // byte-identical.
            extra.extend(request.trace.as_ref().map(proto::trace_extra));
            if origin == Origin::Store {
                extra.push(("source", Json::str("store")));
            }
            record.outcome = origin.as_str();
            record.session_key = key.ok();
            shared.audit(&record);
            proto::ok_response_with(&request.id, request.op.name(), data, extra)
        }
        Err(e) => {
            let count = (
                &shared.request_errors,
                obs::counter!("serve_request_errors_total"),
            );
            reject(shared, count, request, &record, extra, &e)
        }
    }
}

/// Counts a failed request on `count` (a server counter and its registry
/// twin), audits `record`, and renders the typed error line: `extra`, then
/// the client's trace id if it sent one.
fn reject(
    shared: &Shared,
    count: (&AtomicU64, &obs::metrics::Counter),
    request: &Request,
    record: &AccessRecord,
    mut extra: Vec<(&str, Json)>,
    error: &ProtoError,
) -> String {
    count.0.fetch_add(1, Ordering::Relaxed);
    count.1.inc();
    shared.audit(record);
    extra.extend(request.trace.as_ref().map(proto::trace_extra));
    proto::err_response_with(&request.id, error, extra)
}

/// Where a request's answer came from, in decreasing order of warmth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Persistent store: no session was prepared, nothing was computed.
    Store,
    /// A warm session from the engine cache.
    Cache,
    /// A session prepared from scratch.
    Cold,
}

impl Origin {
    fn as_str(self) -> &'static str {
        match self {
            Origin::Store => "store",
            Origin::Cache => "cache",
            Origin::Cold => "cold",
        }
    }
}

/// Renders an admitted request's data over its session `key`: a single op
/// answers as itself, a `batch` wraps its items' answers in the envelope.
fn respond(
    shared: &Shared,
    request: &Request,
    cfg: &FlowConfig,
    key: u64,
) -> Result<(Json, Origin), ProtoError> {
    let Op::Batch(_, items) = &request.op else {
        let mut answers = answer(shared, request, cfg, key, slice::from_ref(&request.op))?;
        return Ok((answers.results.remove(0)?, answers.origin));
    };
    let answers = answer(shared, request, cfg, key, items)?;
    let item_errors = answers.results.iter().filter(|r| r.is_err()).count();
    let out = items
        .iter()
        .zip(answers.results)
        .map(|(op, result)| match result {
            Ok(data) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::str(op.name())),
                ("data", data),
            ]),
            Err(e) => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("op", Json::str(op.name())),
                (
                    "error",
                    Json::obj(vec![
                        ("class", Json::str(e.class)),
                        ("message", Json::str(e.message)),
                    ]),
                ),
            ]),
        })
        .collect();
    obs::counter!("serve_batch_items_total").add(items.len() as u64);
    let data = Json::obj(vec![
        ("count", Json::Num(items.len() as f64)),
        ("item_errors", Json::Num(item_errors as f64)),
        ("store_hits", Json::Num(answers.store_hits as f64)),
        ("session_key", Json::str(format!("{key:016x}"))),
        ("items", Json::Arr(out)),
    ]);
    Ok((data, answers.origin))
}

/// What [`answer`] made of a request's ops.
struct Answers {
    /// One result per op, in order.
    results: Vec<Result<Json, ProtoError>>,
    /// The store only when every op was on disk, else the session's.
    origin: Origin,
    store_hits: usize,
}

/// The one path that answers analysis ops over the session `key` names:
/// answer each op from the store when it is there, acquire at most one
/// session for the rest, run each of those (a panic becomes its own
/// `internal` answer, siblings still run), and save each success. The
/// items of a `batch` get a span, a service-time sample and an audit
/// record each; a single op is measured and audited as the request.
fn answer(
    shared: &Shared,
    request: &Request,
    cfg: &FlowConfig,
    key: u64,
    ops: &[Op],
) -> Result<Answers, ProtoError> {
    let batch = matches!(request.op, Op::Batch(..));
    // The request's trace context (installed by `process`) covers every
    // item's span and exemplars; the audit records carry its id too.
    let trace = obs::trace::current().unwrap_or_default();
    let audit_item = |i: usize, outcome, service_ns| {
        if batch {
            shared.audit(&AccessRecord {
                session_key: Some(key),
                service_ns,
                batch_index: Some(i),
                ..AccessRecord::new(trace.trace_id, &request.id, ops[i].name(), outcome)
            });
        }
    };
    // Disk before session: a warm store answers without rebuilding
    // anything, which is what makes restarts cheap.
    let hashes: Vec<u64> = ops.iter().map(proto::op_hash).collect();
    let mut answers: Vec<Option<Result<Json, ProtoError>>> = hashes
        .iter()
        .enumerate()
        .map(|(i, &hash)| {
            let data = shared.store.as_ref()?.load(key, hash)?;
            audit_item(i, "store", None);
            Some(Ok(data))
        })
        .collect();
    let store_hits = answers.iter().flatten().count();
    let mut origin = Origin::Store;
    if store_hits < ops.len() {
        let (session, cache_hit) = shared.engine.session_for_key(key, cfg)?;
        origin = if cache_hit {
            Origin::Cache
        } else {
            Origin::Cold
        };
        for (i, slot) in answers.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let _span = batch.then(|| obs::span!("serve.batch_item"));
            let start = Instant::now();
            let result = answer_or_internal(|| proto::execute(&session, &ops[i]));
            let service = start.elapsed();
            if batch {
                obs::histogram!("serve_service_ns").record_duration_traced(service);
            }
            let outcome = result.as_ref().map_or("error", |_| origin.as_str());
            audit_item(i, outcome, Some(service.as_nanos() as u64));
            if let (Some(store), Ok(data)) = (&shared.store, &result) {
                // Best effort: a failed write is counted in the store's
                // stats, and the computed answer still goes out.
                let _ = store.save(key, hashes[i], data);
            }
            *slot = Some(result);
        }
    }
    Ok(Answers {
        results: answers.into_iter().flatten().collect(),
        origin,
        store_hits,
    })
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Short read timeouts turn the blocking reader into a poll loop that
    // notices the drain flag; writes stay blocking.
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        if shared.draining() {
            // In-flight work (below) has already been answered; close.
            return;
        }
        line.clear();
        let response = match read_line_polled(&mut reader, &mut line, shared) {
            ReadOutcome::Closed | ReadOutcome::Drain => return,
            ReadOutcome::TooLarge => {
                shared.too_large.fetch_add(1, Ordering::Relaxed);
                obs::counter!("serve_too_large_total").inc();
                let response = proto::err_response(
                    &Json::Null,
                    &ProtoError::new(
                        "too-large",
                        format!(
                            "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
                        ),
                    ),
                );
                // The rest of the line is never read: answer, then close.
                let _ = writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"));
                return;
            }
            ReadOutcome::Line => {
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue;
                }
                dispatch(trimmed, shared)
            }
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

enum ReadOutcome {
    /// A full line is in the buffer.
    Line,
    /// The line outgrew [`MAX_LINE_BYTES`] before its newline arrived.
    TooLarge,
    /// The peer closed the connection.
    Closed,
    /// The server is draining; stop reading.
    Drain,
}

fn read_line_polled(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    shared: &Shared,
) -> ReadOutcome {
    loop {
        // Room for a full line and its newline: filling it without a
        // newline proves the line too long.
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', line) {
            Ok(_) if line.ends_with(b"\n") => return ReadOutcome::Line,
            Ok(_) if line.len() > MAX_LINE_BYTES => return ReadOutcome::TooLarge,
            Ok(0) => return ReadOutcome::Closed,
            // The peer closed mid-line: serve what arrived.
            Ok(_) => return ReadOutcome::Line,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                // Partial data read so far stays appended to `line`;
                // keep polling until the newline arrives or we drain.
                if shared.draining() {
                    return ReadOutcome::Drain;
                }
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

/// Answers a `route` request: resolve the session's owner on the
/// request-supplied ring if given, else the server's own ring.
fn route_response(
    shared: &Shared,
    cfg: &FlowConfig,
    spec: &proto::RouteSpec,
) -> Result<Json, ProtoError> {
    let key = session_key(cfg)?;
    let request_ring = match &spec.ring {
        Some(nodes) => {
            let replicas = spec.replicas.unwrap_or_else(|| {
                shared
                    .ring
                    .as_ref()
                    .map_or(DEFAULT_REPLICAS, Ring::replicas)
            });
            Some(
                Ring::new(nodes, replicas)
                    .ok_or(ProtoError::new("usage", "route: ring has no usable nodes"))?,
            )
        }
        None => None,
    };
    let ring =
        match (&request_ring, &shared.ring) {
            (Some(r), _) => r,
            (None, Some(r)) => r,
            (None, None) => return Err(ProtoError::new(
                "usage",
                "route: no ring configured; pass \"ring\":[...] or start the server with --ring",
            )),
        };
    let shard = ring.shard_of(key);
    Ok(Json::obj(vec![
        ("session_key", Json::str(format!("{key:016x}"))),
        ("shard", Json::str(shard)),
        (
            "local",
            Json::Bool(shared.self_node.as_deref() == Some(shard)),
        ),
        (
            "ring",
            Json::Arr(ring.nodes().iter().map(|n| Json::str(n.clone())).collect()),
        ),
        ("replicas", Json::Num(ring.replicas() as f64)),
    ]))
}

/// Rejects an analysis request whose session `key` another fleet member
/// owns. Returns the pre-built error response, or `None` when the request
/// is local.
fn wrong_shard_rejection(
    shared: &Shared,
    request: &Request,
    trace: TraceContext,
    key: u64,
) -> Option<String> {
    let (ring, self_node) = (shared.ring.as_ref()?, shared.self_node.as_deref()?);
    let shard = ring.shard_of(key);
    if shard == self_node {
        return None;
    }
    // The redirect is audited here with the same trace id the client will
    // carry to the owning node — one id on both sides of the redirect.
    let record = AccessRecord {
        session_key: Some(key),
        ..AccessRecord::new(
            trace.trace_id,
            &request.id,
            request.op.name(),
            "wrong-shard",
        )
    };
    let extra = vec![
        ("shard", Json::str(shard)),
        ("session_key", Json::str(format!("{key:016x}"))),
    ];
    let error = ProtoError::new(
        "wrong-shard",
        format!("session {key:016x} belongs to {shard}; re-send it there"),
    );
    let count = (
        &shared.wrong_shard,
        obs::counter!("serve_wrong_shard_total"),
    );
    Some(reject(shared, count, request, &record, extra, &error))
}

/// The typed error a request or batch item gets when it panics.
fn panicked() -> ProtoError {
    ProtoError::new("internal", "request panicked before it was answered")
}

/// Runs `f`, turning a panic inside it into the `internal` error.
fn answer_or_internal<T>(f: impl FnOnce() -> Result<T, ProtoError>) -> Result<T, ProtoError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(panicked()))
}

fn dispatch(line: &str, shared: &Shared) -> String {
    let request = match proto::parse_request(line) {
        Ok(r) => r,
        Err((e, id)) => {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            obs::counter!("serve_protocol_errors_total").inc();
            return proto::err_response(&id, &e);
        }
    };
    *shared
        .op_counts
        .lock()
        .expect("op counts lock")
        .entry(request.op.name())
        .or_insert(0) += 1;
    obs::counter!("serve_requests_total").inc();
    let id = &request.id;
    match &request.op {
        // Control ops skip the gate: they must stay responsive while every
        // permit is held by a long optimization.
        Op::Ping => proto::ok_response(id, "ping", Json::obj(vec![("pong", Json::Bool(true))])),
        Op::Stats => proto::ok_response(id, "stats", shared.stats_json()),
        Op::Metrics => proto::ok_response(
            id,
            "metrics",
            proto::obs_metrics_json(&obs::Registry::global().snapshot()),
        ),
        Op::MetricsText => proto::ok_response(
            id,
            "metrics_text",
            Json::obj(vec![
                ("content_type", Json::str("text/plain; version=0.0.4")),
                ("text", Json::str(obs::Registry::global().prometheus_text())),
            ]),
        ),
        Op::Route(cfg, spec) => match route_response(shared, cfg, spec) {
            Ok(data) => proto::ok_response(id, "route", data),
            Err(e) => {
                let trace = request.trace.unwrap_or_default();
                let record = AccessRecord::new(trace.trace_id, id, request.op.name(), "error");
                let count = (
                    &shared.request_errors,
                    obs::counter!("serve_request_errors_total"),
                );
                reject(shared, count, &request, &record, Vec::new(), &e)
            }
        },
        Op::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            proto::ok_response(
                id,
                "shutdown",
                Json::obj(vec![("draining", Json::Bool(true))]),
            )
        }
        Op::Comparison(cfg)
        | Op::Sweep(cfg, _)
        | Op::YieldCurves(cfg, _)
        | Op::McValidation(cfg)
        | Op::Distribution(cfg, _)
        | Op::Ablation(cfg)
        | Op::Batch(cfg, _) => admit_and_process(shared, &request, cfg),
    }
}

/// Takes an analysis request through the gate: drain and shard checks,
/// admission, then [`process`] with a panic turned into a typed answer.
/// The session key is computed here, once, and used by the shard check,
/// the store and the engine alike.
fn admit_and_process(shared: &Shared, request: &Request, cfg: &FlowConfig) -> String {
    // Adopt the client's trace context or originate one: every analysis
    // request is traceable from this point on.
    let trace = request.trace.unwrap_or_default();
    if shared.draining() {
        return proto::err_response(
            &request.id,
            &ProtoError::new("shutdown", "server is draining; request rejected"),
        );
    }
    let key = answer_or_internal(|| Ok(session_key(cfg)?));
    // A key that cannot be resolved is answered by `process` with its
    // typed error, after admission like any other failed request.
    if let Some(rejection) = key
        .as_ref()
        .ok()
        .and_then(|&key| wrong_shard_rejection(shared, request, trace, key))
    {
        return rejection;
    }
    let deadline = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.default_deadline);
    let accepted = Instant::now();
    let record =
        |outcome| AccessRecord::new(trace.trace_id, &request.id, request.op.name(), outcome);
    let Some(_permit) = shared.admission.admit() else {
        let error = ProtoError::new(
            "busy",
            format!(
                "queue at high-water mark ({} requests); retry later",
                shared.admission.queue_depth
            ),
        );
        let count = (
            &shared.busy_rejected,
            obs::counter!("serve_busy_rejected_total"),
        );
        return reject(shared, count, request, &record("busy"), Vec::new(), &error);
    };
    // The permit is released when `_permit` drops, unwinding included;
    // the client still gets a typed answer, counted and audited like any
    // other failed request.
    catch_unwind(AssertUnwindSafe(|| {
        process(shared, request, cfg, key, trace, accepted, deadline)
    }))
    .unwrap_or_else(|_| {
        let count = (
            &shared.request_errors,
            obs::counter!("serve_request_errors_total"),
        );
        reject(
            shared,
            count,
            request,
            &record("error"),
            Vec::new(),
            &panicked(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::path::PathBuf;

    fn request(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim().to_string()
    }

    /// Binds `config` and runs the server on its own thread, with a
    /// shutdown flag of its own.
    fn start(config: &ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeReport>) {
        let shutdown = Box::leak(Box::new(AtomicBool::new(false)));
        let server = Server::bind(config, shutdown).expect("bind");
        let addr = server.local_addr();
        (addr, std::thread::spawn(move || server.run().expect("run")))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "statleak-serve-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn serves_ping_stats_and_drains_on_shutdown_request() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 4,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        let pong = request(addr, r#"{"id":1,"op":"ping"}"#);
        assert_eq!(
            pong,
            r#"{"id":1,"ok":true,"op":"ping","data":{"pong":true}}"#
        );

        // A real analysis request on the smallest circuit.
        let comparison = request(
            addr,
            r#"{"id":2,"op":"comparison","benchmark":"c17","mc_samples":0}"#,
        );
        assert!(comparison.contains(r#""ok":true"#), "{comparison}");
        assert!(
            comparison.contains(r#""stat_extra_saving""#),
            "{comparison}"
        );

        // Same request again: cache hit, memo hit, byte-identical modulo
        // the runtime_s bookkeeping fields.
        let again = request(
            addr,
            r#"{"id":2,"op":"comparison","benchmark":"c17","mc_samples":0}"#,
        );
        assert_eq!(comparison, again);

        let stats = request(addr, r#"{"id":3,"op":"stats"}"#);
        assert!(stats.contains(r#""hits":1"#), "{stats}");
        assert!(stats.contains(r#""misses":1"#), "{stats}");
        // No store, no ring configured.
        assert!(stats.contains(r#""store":null"#), "{stats}");
        assert!(stats.contains(r#""ring":null"#), "{stats}");

        let bad = request(addr, r#"{"id":4,"op":"comparison","benchmark":"c9999"}"#);
        assert!(bad.contains(r#""class":"unknown-benchmark""#), "{bad}");

        let garbage = request(addr, "not json");
        assert!(garbage.contains(r#""class":"usage""#), "{garbage}");

        let ack = request(addr, r#"{"id":5,"op":"shutdown"}"#);
        assert!(ack.contains(r#""draining":true"#), "{ack}");
        let report = handle.join().expect("server thread");
        assert_eq!(report.served, 2);
        assert_eq!(report.request_errors, 1);
        assert_eq!(report.protocol_errors, 1);
        assert!(report.connections >= 6);
    }

    #[test]
    fn overlong_line_is_refused_too_large_and_serving_goes_on() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // 2 MiB without a newline. The server stops reading at the cap and
        // closes, so the tail of the write may fail; the answer must come.
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 2 * MAX_LINE_BYTES]);
        });
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("too-large answer before the timeout");
        sender.join().expect("sender thread");
        assert!(response.contains(r#""class":"too-large""#), "{response}");

        let pong = request(addr, r#"{"id":1,"op":"ping"}"#);
        assert!(pong.contains(r#""pong":true"#), "{pong}");
        let stats = request(addr, r#"{"id":2,"op":"stats"}"#);
        assert!(stats.contains(r#""too_large":1"#), "{stats}");

        request(addr, r#"{"id":3,"op":"shutdown"}"#);
        let report = handle.join().expect("server thread");
        assert_eq!(report.too_large, 1);
        assert_eq!(report.protocol_errors, 0);
    }

    #[test]
    fn expired_deadline_is_reported_not_executed() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 8,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // Take the single permit, then trail a request whose deadline has
        // certainly passed by the time the permit frees up.
        let busy_conn = std::thread::spawn(move || {
            request(
                addr,
                r#"{"id":"slow","op":"mc_validation","benchmark":"c432","mc_samples":20000}"#,
            )
        });
        std::thread::sleep(Duration::from_millis(150));
        let expired = request(
            addr,
            r#"{"id":"late","op":"comparison","benchmark":"c17","mc_samples":0,"deadline_ms":1}"#,
        );
        assert!(expired.contains(r#""class":"deadline""#), "{expired}");
        let slow = busy_conn.join().expect("slow request");
        assert!(slow.contains(r#""ok":true"#), "{slow}");

        request(addr, r#"{"op":"shutdown"}"#);
        let report = handle.join().expect("server thread");
        assert_eq!(report.deadline_expired, 1);
    }

    #[test]
    fn late_finishing_request_is_answered_but_marked() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 8,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // The deadline is alive at admission (nothing waits ahead; 250 ms
        // leaves room for a loaded host's wait) but certainly expired
        // once the job finishes: the response must arrive, marked. A cold
        // c1908 ablation is dominated by the single-threaded
        // `size_for_yield`, so more cores do not shorten it: measured on a
        // 2-CPU x86-64 host at ~1.2 s in release and ~12 s in debug builds.
        let late = request(
            addr,
            r#"{"id":"m","op":"ablation","benchmark":"c1908","mc_samples":0,"deadline_ms":250}"#,
        );
        assert!(late.contains(r#""ok":true"#), "{late}");
        assert!(late.contains(r#""deadline_exceeded":true"#), "{late}");

        request(addr, r#"{"op":"shutdown"}"#);
        let report = handle.join().expect("server thread");
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.served, 1);
    }

    #[test]
    fn queued_batch_items_do_not_count_toward_the_high_water_mark() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // The batch takes the only permit, then acquires its (cold c880)
        // session; its two items run under that one permit.
        let batch = std::thread::spawn(move || {
            request(
                addr,
                r#"{"id":"b","op":"batch","benchmark":"c880","mc_samples":0,"items":[{"op":"comparison"},{"op":"ablation"}]}"#,
            )
        });
        let start = Instant::now();
        while !request(addr, r#"{"op":"stats"}"#).contains(r#""misses":1"#) {
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "batch never acquired its session"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The batch's items are not waiters: this line takes the one
        // waiting slot and is admitted once the batch finishes.
        let line = request(
            addr,
            r#"{"id":"l","op":"comparison","benchmark":"c17","mc_samples":0}"#,
        );
        assert!(line.contains(r#""ok":true"#), "{line}");
        let batch = batch.join().expect("batch client");
        assert!(batch.contains(r#""ok":true"#), "{batch}");
        let stats = Json::parse(&request(addr, r#"{"op":"stats"}"#)).expect("stats json");
        let server_stats = stats.get("data").and_then(|d| d.get("server"));
        let field = |name: &str| {
            server_stats
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
                .expect("server stats field")
        };
        assert!(field("max_queued") <= field("queue_depth"), "{stats:?}");

        request(addr, r#"{"op":"shutdown"}"#);
        let report = handle.join().expect("server thread");
        assert_eq!(report.busy_rejected, 0);
    }

    /// Holds `gate`'s permits on `n` threads that queue one at a time, so
    /// their arrival order is their index; each logs its index when it is
    /// admitted and then releases.
    fn queue_waiters(
        gate: &Arc<Admission>,
        n: usize,
        admitted: &Arc<Mutex<Vec<usize>>>,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|i| {
                let before = gate.waiting();
                let (mine, admitted) = (Arc::clone(gate), Arc::clone(admitted));
                let waiter = std::thread::spawn(move || {
                    let _permit = mine.admit().expect("a waiting slot");
                    admitted.lock().expect("log lock").push(i);
                });
                let start = Instant::now();
                while gate.waiting() == before {
                    assert!(start.elapsed() < Duration::from_secs(10), "never queued");
                    std::thread::yield_now();
                }
                waiter
            })
            .collect()
    }

    #[test]
    fn gate_admits_waiters_in_arrival_order() {
        let gate = Arc::new(Admission::new(1, 8));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let holder = gate.admit().expect("an idle gate admits at once");
        let waiters = queue_waiters(&gate, 3, &admitted);
        assert_eq!(gate.waiting(), 3);
        drop(holder);
        for waiter in waiters {
            waiter.join().expect("waiter");
        }
        assert_eq!(*admitted.lock().expect("log lock"), vec![0, 1, 2]);
        assert_eq!((gate.waiting(), gate.max_waiting()), (0, 3));
    }

    #[test]
    fn gate_sheds_busy_once_queue_depth_requests_wait() {
        let gate = Arc::new(Admission::new(1, 2));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let holder = gate.admit().expect("an idle gate admits at once");
        let waiters = queue_waiters(&gate, 2, &admitted);
        assert_eq!(gate.waiting(), 2);
        assert!(gate.admit().is_none(), "waiting == queue_depth sheds");
        drop(holder);
        for waiter in waiters {
            waiter.join().expect("waiter");
        }
        assert_eq!(gate.max_waiting(), 2);
        assert!(gate.admit().is_some(), "a drained gate admits again");
    }

    #[test]
    fn gate_releases_a_permit_when_its_request_panics() {
        let gate = Admission::new(1, 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _permit = gate.admit().expect("an idle gate admits at once");
            panic!("request failed mid-flight");
        }));
        assert!(outcome.is_err());
        assert_eq!(gate.lock().running, 0);
        assert!(gate.admit().is_some(), "the slot came back");
    }

    #[test]
    fn a_panicking_batch_item_gets_its_own_internal_answer() {
        let item: Result<Json, ProtoError> = answer_or_internal(|| panic!("item failed"));
        let e = item.expect_err("a panic is an error");
        assert_eq!(e.class, "internal");
        let sibling = answer_or_internal(|| Ok(Json::Bool(true)));
        assert_eq!(sibling.expect("siblings are unaffected"), Json::Bool(true));
    }

    #[test]
    fn batch_under_one_worker_never_runs_two_items_at_once() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // Only spans carrying this batch's trace id are inspected, so other
        // tests recording concurrently cannot disturb the check.
        let trace_hex = "000000000000000000000000ba7c0001";
        let trace_id = obs::TraceId::parse(trace_hex).expect("trace id").0;
        obs::install(&[obs::SinkSpec::InMemory]).expect("install sink");
        let batch = request(
            addr,
            &format!(
                r#"{{"id":"b","op":"batch","benchmark":"c17","mc_samples":0,"trace":{{"trace_id":"{trace_hex}"}},"items":[{{"op":"comparison"}},{{"op":"ablation"}},{{"op":"distribution","bins":8}},{{"op":"sweep","axis":"slack_factor","values":[1.2,1.4]}}]}}"#
            ),
        );
        let records = obs::take_memory();
        obs::install(&[obs::SinkSpec::Disabled]).expect("restore sink");
        assert!(batch.contains(r#""item_errors":0"#), "{batch}");

        let spans = |name: &str| -> Vec<obs::SpanRecord> {
            records
                .iter()
                .filter_map(|r| match r {
                    obs::Record::Span(s) if s.trace == trace_id && s.name == name => {
                        Some(s.clone())
                    }
                    _ => None,
                })
                .collect()
        };
        let process = spans("serve.process");
        let mut items = spans("serve.batch_item");
        assert_eq!(process.len(), 1, "{process:?}");
        assert_eq!(items.len(), 4, "{items:?}");
        // Every item runs on the thread that holds the batch's permit...
        assert!(
            items.iter().all(|s| s.thread == process[0].thread),
            "{items:?}"
        );
        // ...and each finishes before the next starts.
        items.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for pair in items.windows(2) {
            assert!(
                pair[0].start_us + pair[0].dur_us <= pair[1].start_us,
                "{pair:?}"
            );
        }

        request(addr, r#"{"op":"shutdown"}"#);
        handle.join().expect("server thread");
    }

    #[test]
    fn batch_acquires_one_session_and_answers_every_item() {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        let batch = request(
            addr,
            r#"{"id":"b1","op":"batch","benchmark":"c17","mc_samples":0,"items":[{"op":"comparison"},{"op":"distribution","bins":8},{"op":"sweep","axis":"slack_factor","values":[1.2,1.4]}]}"#,
        );
        assert!(batch.contains(r#""ok":true"#), "{batch}");
        assert!(batch.contains(r#""count":3"#), "{batch}");
        assert!(batch.contains(r#""item_errors":0"#), "{batch}");
        assert!(batch.contains(r#""stat_extra_saving""#), "{batch}");
        assert_eq!(batch.matches(r#""ok":true"#).count(), 4, "{batch}");

        // One config, three items: the session must be prepared once.
        let stats = request(addr, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""misses":1"#), "{stats}");

        // Batches memoize like single requests: identical re-send.
        let again = request(
            addr,
            r#"{"id":"b1","op":"batch","benchmark":"c17","mc_samples":0,"items":[{"op":"comparison"},{"op":"distribution","bins":8},{"op":"sweep","axis":"slack_factor","values":[1.2,1.4]}]}"#,
        );
        assert_eq!(batch, again);

        request(addr, r#"{"op":"shutdown"}"#);
        let report = handle.join().expect("server thread");
        assert_eq!(report.served, 2);
        assert_eq!(report.request_errors, 0);
    }

    #[test]
    fn single_request_and_one_item_batch_share_one_answer_path() {
        let dir = tmp_dir("one-path");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let log_path = dir.join("access.log");
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            access_log: Some(log_path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // The single response is `{"id":1,"ok":true,"op":"ablation","data":D}`;
        // the batch must carry the very bytes D as its one item's data.
        let single = request(
            addr,
            r#"{"id":1,"op":"ablation","benchmark":"c17","mc_samples":0}"#,
        );
        let data = single
            .strip_prefix(r#"{"id":1,"ok":true,"op":"ablation","data":"#)
            .and_then(|rest| rest.strip_suffix('}'))
            .expect("plain single response");
        let batch = request(
            addr,
            r#"{"id":2,"op":"batch","benchmark":"c17","mc_samples":0,"items":[{"op":"ablation"}]}"#,
        );
        assert!(
            batch.contains(&format!(
                r#""items":[{{"ok":true,"op":"ablation","data":{data}}}]"#
            )),
            "{batch}"
        );
        let stats = request(addr, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""misses":1"#), "{stats}");
        assert!(stats.contains(r#""hits":1"#), "{stats}");

        request(addr, r#"{"op":"shutdown"}"#);
        handle.join().expect("server thread");

        let text = std::fs::read_to_string(&log_path).expect("access log");
        let ablation: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(r#""op":"ablation""#))
            .collect();
        assert_eq!(ablation.len(), 2, "{text}");
        let (single, item) = (ablation[0], ablation[1]);
        assert!(single.contains(r#""queue_wait_ns""#), "{single}");
        assert!(single.contains(r#""service_ns""#), "{single}");
        assert!(!single.contains("batch_index"), "{single}");
        assert!(item.contains(r#""batch_index":0"#), "{item}");
        assert!(!item.contains("queue_wait_ns"), "{item}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_answers_repeats_without_a_session() {
        let dir = tmp_dir("warm");
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 8,
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        let line = r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0}"#;
        let first = request(addr, line);
        assert!(first.contains(r#""ok":true"#), "{first}");
        assert!(!first.contains(r#""source":"store""#), "{first}");
        let second = request(addr, line);
        assert!(second.contains(r#""source":"store""#), "{second}");
        let stats = request(addr, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""stores":1"#), "{stats}");
        // The repeat was served from disk before any session lookup: the
        // engine saw exactly one request.
        assert!(stats.contains(r#""misses":1"#), "{stats}");
        assert!(stats.contains(r#""hits":0"#), "{stats}");

        request(addr, r#"{"op":"shutdown"}"#);
        handle.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routes_sessions_and_rejects_wrong_shard() {
        // Work out which of two nodes owns the c17 session, then start a
        // server claiming to be the OTHER node.
        let line = r#"{"id":7,"op":"comparison","benchmark":"c17","mc_samples":0}"#;
        let parsed = proto::parse_request(line).expect("parse");
        let cfg = proto::op_config(&parsed.op).expect("analysis op").clone();
        let key = session_key(&cfg).expect("session key");
        let nodes = vec!["a:1".to_string(), "b:1".to_string()];
        let ring = Ring::new(&nodes, DEFAULT_REPLICAS).expect("ring");
        let owner = ring.shard_of(key).to_string();
        let other = nodes.iter().find(|n| **n != owner).expect("two nodes");

        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            ring: nodes.clone(),
            self_node: Some(other.clone()),
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // The analysis op is rejected with the owner's name.
        let rejected = request(addr, line);
        assert!(rejected.contains(r#""class":"wrong-shard""#), "{rejected}");
        assert!(
            rejected.contains(&format!(r#""shard":"{owner}""#)),
            "{rejected}"
        );

        // `route` resolves the same owner, flagged non-local.
        let routed = request(addr, r#"{"op":"route","benchmark":"c17","mc_samples":0}"#);
        assert!(
            routed.contains(&format!(r#""shard":"{owner}""#)),
            "{routed}"
        );
        assert!(routed.contains(r#""local":false"#), "{routed}");

        // A request-supplied single-node ring routes everything there.
        let override_ring = request(
            addr,
            r#"{"op":"route","benchmark":"c17","ring":["solo:9"]}"#,
        );
        assert!(
            override_ring.contains(r#""shard":"solo:9""#),
            "{override_ring}"
        );

        request(addr, r#"{"op":"shutdown"}"#);
        let report = handle.join().expect("server thread");
        assert_eq!(report.wrong_shard, 1);

        // A self node outside the ring is a bind-time error.
        static SHUTDOWN2: AtomicBool = AtomicBool::new(false);
        let bad = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ring: nodes,
            self_node: Some("stranger".to_string()),
            ..Default::default()
        };
        assert!(Server::bind(&bad, &SHUTDOWN2).is_err());
    }

    #[test]
    fn traced_requests_echo_ids_and_write_the_access_log() {
        let dir = tmp_dir("audit");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let log_path = dir.join("access.log");
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            access_log: Some(log_path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let (addr, handle) = start(&config);

        // A client-supplied trace id is echoed zero-padded to 32 digits.
        let hex = "00000000000000000000000000000abc";
        let traced = request(
            addr,
            r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":0,"trace":{"trace_id":"abc"}}"#,
        );
        assert!(traced.contains(r#""ok":true"#), "{traced}");
        assert!(
            traced.contains(&format!(r#""trace_id":"{hex}""#)),
            "{traced}"
        );

        // Untraced requests stay byte-identical to the pre-trace wire
        // format: the server originates an id internally but never echoes.
        let untraced = request(
            addr,
            r#"{"id":2,"op":"comparison","benchmark":"c17","mc_samples":0}"#,
        );
        assert!(untraced.contains(r#""ok":true"#), "{untraced}");
        assert!(!untraced.contains("trace_id"), "{untraced}");

        // A traced batch: the envelope id rides into every item record.
        let batch = request(
            addr,
            r#"{"id":"b","op":"batch","benchmark":"c17","mc_samples":0,"trace":{"trace_id":"abc"},"items":[{"op":"comparison"},{"op":"distribution","bins":8}]}"#,
        );
        assert!(batch.contains(r#""ok":true"#), "{batch}");
        assert!(batch.contains(&format!(r#""trace_id":"{hex}""#)), "{batch}");

        request(addr, r#"{"op":"shutdown"}"#);
        handle.join().expect("server thread");

        let text = std::fs::read_to_string(&log_path).expect("access log");
        let lines: Vec<&str> = text.lines().collect();
        // 1 cold + 1 cache + batch envelope + 2 batch items.
        assert_eq!(lines.len(), 5, "{text}");
        for line in &lines {
            assert!(Json::parse(line).is_ok(), "{line}");
        }
        assert!(
            lines[0].contains(&format!(r#""trace_id":"{hex}""#)),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains(r#""outcome":"cold""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""queue_wait_ns""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""service_ns""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""session_key""#), "{}", lines[0]);
        // The untraced repeat was a cache hit, audited under a
        // server-originated id.
        assert!(lines[1].contains(r#""outcome":"cache""#), "{}", lines[1]);
        assert!(!lines[1].contains(hex), "{}", lines[1]);
        // Batch items carry the envelope's trace id and their index; the
        // envelope record itself has no index.
        let items: Vec<&&str> = lines.iter().filter(|l| l.contains("batch_index")).collect();
        assert_eq!(items.len(), 2, "{text}");
        for item in items {
            assert!(item.contains(&format!(r#""trace_id":"{hex}""#)), "{item}");
            assert!(item.contains(r#""outcome":"cache""#), "{item}");
        }
        let envelope = lines
            .iter()
            .find(|l| l.contains(r#""op":"batch""#))
            .expect("batch envelope record");
        assert!(
            envelope.contains(&format!(r#""trace_id":"{hex}""#)),
            "{envelope}"
        );
        assert!(!envelope.contains("batch_index"), "{envelope}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
