//! Timing and variance gates, run in CI on a release build:
//!
//! ```text
//! cargo test --release -p statleak --test perf_gates -- --ignored --test-threads=1 --nocapture
//! ```
//!
//! Each test is `#[ignore]`d (tens of seconds, and meaningless in a debug
//! build), takes a process-wide lock so no two gates share the CPU, and
//! prints the number it gates so the CI log records it.
//!
//! * [`obs_overhead_on_c880`] — live NDJSON tracing costs ≤ 10 % of the
//!   `statistical_for_yield` flow;
//! * [`importance_sampling_and_sobol_on_c880_c1908`] — ISLE-style mean-shift
//!   importance sampling needs ≥ 50× fewer non-linear evaluations than
//!   plain MC for the 99.9 % tail, and Sobol QMC agrees with plain MC;
//! * [`serve_batch_throughput_and_access_log`] — warm serving throughput,
//!   batch speed-up, service p99, and the audit log's cost and completeness.

use statleak::core::flows::{self, FlowConfig};
use statleak::engine::{ServeConfig, Server};
use statleak::mc::{McConfig, MonteCarlo, SamplingScheme};
use statleak::obs;
use statleak::opt::statistical_for_yield;
use statleak::ssta::Ssta;
use statleak::tech::{Design, FactorModel};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Instant;

/// Serializes the gates: timings taken while another gate runs are noise.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A suite circuit prepared by the flows with their defaults (level
/// placement, builtin library, 100 nm variation budget): its unsized
/// design, its factor model, and the 1.20·Dmin clock.
fn standard_setup(name: &str) -> (Design, FactorModel, f64) {
    let cfg = FlowConfig::builder(name)
        .build()
        .expect("default flow config");
    let setup = flows::prepare(&cfg).expect("suite circuit");
    (setup.base, setup.fm, setup.t_clk)
}

/// Back-to-back flows per timed sample of the obs gate. One c880 flow
/// takes ~200 ms on a 2-vCPU host (the margin walk runs 3σ and 2.5σ) and
/// varies ±15 % run to run on a shared host; ten make a ~2 s sample whose
/// spread is well inside the 10 % bound.
const OBS_FLOWS_PER_SAMPLE: usize = 10;

#[test]
#[ignore = "release-build timing gate; run with --ignored"]
fn obs_overhead_on_c880() {
    let _serial = serial();
    let (base, fm, t_clk) = standard_setup("c880");
    let trace_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-c880.ndjson");
    let time_flow = |sink: obs::SinkSpec| {
        obs::install(&[sink]).expect("install sink");
        let start = Instant::now();
        for _ in 0..OBS_FLOWS_PER_SAMPLE {
            statistical_for_yield(&base, &fm, t_clk, 0.95).expect("flow succeeds on c880");
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        obs::flush();
        ms
    };
    let (mut disabled, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        disabled = disabled.min(time_flow(obs::SinkSpec::Disabled));
        traced = traced.min(time_flow(obs::SinkSpec::NdjsonFile(trace_path.clone())));
    }
    obs::install(&[obs::SinkSpec::Disabled]).expect("restore disabled sink");
    let overhead = traced / disabled - 1.0;
    println!(
        "statistical_for_yield c880 x{OBS_FLOWS_PER_SAMPLE}: disabled {disabled:.2} ms, \
         traced {traced:.2} ms, overhead {:+.1}% (gate <= 10%), trace {}",
        overhead * 100.0,
        trace_path.display()
    );
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(!trace.is_empty(), "traced runs recorded no spans");
    assert!(
        traced <= disabled * 1.10,
        "observability overhead {:+.1}% exceeds 10%",
        overhead * 100.0
    );
}

fn mc_config(samples: usize, scheme: &str) -> McConfig {
    McConfig {
        samples,
        ..Default::default()
    }
    .with_scheme(scheme.parse::<SamplingScheme>().expect("valid scheme"))
}

#[test]
#[ignore = "release-build variance gate; run with --ignored"]
fn importance_sampling_and_sobol_on_c880_c1908() {
    let _serial = serial();
    let mut failures = Vec::new();
    for name in ["c880", "c1908"] {
        let (design, fm, _) = standard_setup(name);
        let ssta = Ssta::analyze(&design, &fm);

        // At a matched CI half-width, a counting estimator needs
        // `p(1−p)·k` samples and a weighted one `σ²_w·k`, so the
        // evaluation ratio is `p(1−p)/σ²_w`. `p` comes from a high-budget
        // IS reference, `σ²_w` from the 8000-sample IS run.
        let t_tail = ssta.clock_for_yield(0.999);
        let reference = MonteCarlo::new(mc_config(40_000, "plain+is"))
            .timing_yield_estimate(&design, &fm, t_tail);
        let p = reference.miss_probability;
        let n = 8000;
        let is =
            MonteCarlo::new(mc_config(n, "plain+is")).timing_yield_estimate(&design, &fm, t_tail);
        let var_w = is.std_error * is.std_error * n as f64;
        let ratio = p * (1.0 - p) / var_w;

        // Sobol QMC at the 95 % clock must land inside plain MC's Wilson CI.
        let t95 = ssta.clock_for_yield(0.95);
        let plain =
            MonteCarlo::new(mc_config(2000, "plain")).timing_yield_estimate(&design, &fm, t95);
        let sobol =
            MonteCarlo::new(mc_config(2000, "sobol")).timing_yield_estimate(&design, &fm, t95);
        let sobol_ok = plain.ci.lo <= sobol.yield_value && sobol.yield_value <= plain.ci.hi;

        println!(
            "{name}: eval ratio {ratio:.0}x (gate >= 50x), reference miss {p:.3e} rel SE {:.2}%, \
             sobol {:.4} in plain CI [{:.4}, {:.4}]: {sobol_ok}",
            reference.std_error / p * 100.0,
            sobol.yield_value,
            plain.ci.lo,
            plain.ci.hi
        );
        if ratio < 50.0 {
            failures.push(format!("{name}: eval ratio {ratio:.0}x below the 50x gate"));
        }
        if !sobol_ok {
            failures.push(format!("{name}: sobol yield outside the plain Wilson CI"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}

/// Concurrent lock-step client connections in every serve phase.
const CLIENTS: usize = 8;
/// Single-line requests per client; batch phases send the same items.
const PER_CLIENT: usize = 300;
/// Items per `batch` request line.
const BATCH_SIZE: usize = 32;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static SHUTDOWN_AUDITED: AtomicBool = AtomicBool::new(false);

/// The op bodies every request cycles through: distinct memo entries, all
/// warmed before measurement, on the smallest circuit with MC off, so a
/// request costs serving overhead only.
const ITEM_OPS: [&str; 4] = [
    r#""op":"comparison""#,
    r#""op":"distribution","bins":16"#,
    r#""op":"sweep","axis":"slack_factor","values":[1.2,1.3]"#,
    r#""op":"mc_validation""#,
];
const CFG: &str = r#""benchmark":"c17","mc_samples":0"#;

fn single_line(i: usize) -> String {
    format!("{{\"id\":{i},{},{CFG}}}", ITEM_OPS[i % ITEM_OPS.len()])
}

fn batch_line(i: usize) -> String {
    let items: Vec<String> = (0..BATCH_SIZE)
        .map(|j| format!("{{{}}}", ITEM_OPS[(i * BATCH_SIZE + j) % ITEM_OPS.len()]))
        .collect();
    format!(
        "{{\"id\":{i},\"op\":\"batch\",{CFG},\"items\":[{}]}}",
        items.join(",")
    )
}

/// Sends each line on one connection and waits for its answer, which
/// must succeed: a gate must not quietly measure error paths.
fn run_client(addr: SocketAddr, lines: &[String]) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    for line in lines {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        response.clear();
        reader.read_line(&mut response).expect("receive");
        assert!(
            response.contains(r#""ok":true"#),
            "request failed: {response}"
        );
    }
}

/// Fans `per_client` lines over [`CLIENTS`] connections; returns seconds.
fn drive(addr: SocketAddr, per_client: usize, make_line: fn(usize) -> String) -> f64 {
    let lines: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            (0..per_client)
                .map(|i| make_line(c * per_client + i))
                .collect()
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client_lines in &lines {
            scope.spawn(move || run_client(addr, client_lines));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Binds an in-process server on an ephemeral port, warms every item op,
/// and returns its address and run thread.
fn start_server(
    access_log: Option<String>,
    shutdown: &'static AtomicBool,
) -> (
    SocketAddr,
    std::thread::JoinHandle<statleak::engine::ServeReport>,
) {
    let mut config = ServeConfig::default();
    config.addr = "127.0.0.1:0".to_string();
    config.queue_depth = 2 * CLIENTS;
    config.access_log = access_log;
    let server = Server::bind(&config, shutdown).expect("bind");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run().expect("server runs"));
    for i in 0..ITEM_OPS.len() {
        run_client(addr, &[single_line(i)]);
    }
    (addr, thread)
}

fn stop_server(
    addr: SocketAddr,
    thread: std::thread::JoinHandle<statleak::engine::ServeReport>,
) -> statleak::engine::ServeReport {
    run_client(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    thread.join().expect("server thread")
}

#[test]
#[ignore = "release-build serving gate; run with --ignored"]
fn serve_batch_throughput_and_access_log() {
    let _serial = serial();
    let requests = CLIENTS * PER_CLIENT;
    let batches_per_client = PER_CLIENT / BATCH_SIZE;
    let batch_items = CLIENTS * batches_per_client * BATCH_SIZE;

    let (addr, thread) = start_server(None, &SHUTDOWN);
    let single_rps = requests as f64 / drive(addr, PER_CLIENT, single_line);
    let batch_ips = batch_items as f64 / drive(addr, batches_per_client, batch_line);
    let speedup = batch_ips / single_rps;
    let p99_ms = obs::Registry::global()
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "serve_service_ns")
        .expect("serve_service_ns recorded")
        .p99
        / 1e6;
    let report = stop_server(addr, thread);

    // The same single-line workload against a second server with the
    // request audit log on.
    let audit_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perf-gates-access-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&audit_path);
    let (addr, thread) = start_server(
        Some(audit_path.to_string_lossy().into_owned()),
        &SHUTDOWN_AUDITED,
    );
    let audited_rps = requests as f64 / drive(addr, PER_CLIENT, single_line);
    let audited_report = stop_server(addr, thread);
    let records = std::fs::read_to_string(&audit_path)
        .map(|t| t.lines().count())
        .unwrap_or(0);
    let _ = std::fs::remove_file(&audit_path);
    let log_overhead = (1.0 - audited_rps / single_rps).max(0.0);

    println!(
        "serve c17 warm, {CLIENTS} clients: single {single_rps:.0} req/s (gate >= 25), \
         batch {batch_ips:.0} items/s, speedup {speedup:.1}x (gate >= 1.5x), \
         service p99 {p99_ms:.2} ms (gate <= 50 ms), busy_rejected {}, request_errors {}",
        report.busy_rejected, report.request_errors
    );
    println!(
        "serve with audit log: {requests} requests at {audited_rps:.0} req/s, {records} records, \
         overhead {:+.1}% (gate <= 10%)",
        log_overhead * 100.0
    );

    let mut failures = Vec::new();
    if speedup < 1.5 {
        failures.push(format!("batch speedup {speedup:.1}x below 1.5x"));
    }
    if single_rps < 25.0 {
        failures.push(format!(
            "single-line throughput {single_rps:.0} req/s below 25"
        ));
    }
    if p99_ms > 50.0 {
        failures.push(format!("warm service p99 {p99_ms:.2} ms above 50 ms"));
    }
    for r in [&report, &audited_report] {
        if r.busy_rejected != 0 || r.request_errors != 0 {
            failures.push(format!(
                "server shed or failed work (busy_rejected {}, request_errors {})",
                r.busy_rejected, r.request_errors
            ));
        }
    }
    if records < requests {
        failures.push(format!(
            "audit log holds {records} records for {requests} requests"
        ));
    }
    if log_overhead > 0.10 {
        failures.push(format!(
            "access-log overhead {:+.1}% exceeds 10%",
            log_overhead * 100.0
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
