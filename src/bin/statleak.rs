//! `statleak` — command-line front end to the statistical leakage
//! optimizer.
//!
//! ```text
//! statleak benchmarks
//!     List the built-in ISCAS85-class benchmark suite.
//!
//! statleak analyze   --input FILE [--clock-ps N] [--report K]
//!                    [--mc-sampler S] [--mc-samples N] [--mc-seed N]
//!                    [--liberty FILE[,corner=NAME]]
//!     Timing (STA/SSTA), leakage, and yield report for a netlist. With
//!     --mc-samples > 0 an empirical yield with a 95% confidence interval
//!     is printed; --mc-sampler picks the estimator (`plain`, `sobol`,
//!     layered with `+is` importance sampling and `+cv` control variates,
//!     e.g. `sobol+is`).
//!
//! statleak optimize  --input FILE [--slack-factor F] [--eta E]
//!                    [--triple-vth] [--out-verilog F] [--out-bench F]
//!                    [--mc-sampler S] [--mc-samples N] [--mc-seed N]
//!                    [--liberty FILE[,corner=NAME]]
//!     Run the full statistical flow and write the optimized netlist.
//!     `--liberty` (both commands) evaluates through a Liberty `.lib`
//!     file, optionally at a sibling-file process corner.
//!
//! statleak export-lib [--out FILE]
//!     Write the dual-Vth cell library as Liberty-subset text.
//!
//! statleak serve [--addr A] [--workers N] [--queue-depth N]
//!                [--cache-capacity N] [--deadline-ms N]
//!                [--store-dir DIR] [--ring N1,N2,..] [--self-node N]
//!                [--ring-replicas N] [--access-log FILE]
//!                [--access-log-max-bytes N]
//!     Run the newline-delimited-JSON analysis daemon (see
//!     docs/SERVE_PROTOCOL.md). Drains gracefully on SIGTERM/SIGINT.
//!     `--store-dir` persists results so restarts come back warm;
//!     `--ring`/`--self-node` enable coordinator-free fleet sharding;
//!     `--access-log` streams one size-rotated NDJSON audit record per
//!     request (and per batch item) with its trace id and outcome.
//!
//! statleak call --addr A --json REQUEST [--trace] [--trace-id HEX]
//!     Send one request line to a running daemon and print the response.
//!     `--trace` originates a fresh 128-bit trace id (printed to stderr)
//!     and attaches it to the request; `--trace-id` joins an existing
//!     trace instead. The id then appears in the server's response,
//!     access log, spans, and histogram exemplars.
//!
//! statleak top --ring A1,A2,.. [--interval-ms N] [--once] [--json]
//!     Poll `metrics` from every fleet node and render a refreshing
//!     per-node + fleet-total table (throughput, queue-wait and service
//!     quantiles, cache/store hit rates). Counters add and histograms
//!     merge losslessly. `--once` polls a single round; `--json` (implies
//!     --once) prints the merged snapshot as JSON.
//!
//! statleak trace INPUT [--slack-factor F] [--eta E] [--mc-samples N]
//!                [--top K]
//!     Run the comparison flow with full spans enabled and print a
//!     self-time profile table (top-K spans by self time).
//! ```
//!
//! Global flags (any command): `--trace FILE` appends every span/event as
//! NDJSON to FILE; `--log-level error|warn|info|debug|trace` sets the
//! stderr log threshold. The `STATLEAK_TRACE` / `STATLEAK_LOG`
//! environment variables are the equivalent defaults. For `call`,
//! `--trace` is that command's boolean flag instead (see above); use
//! `STATLEAK_TRACE` to capture spans there.
//!
//! `--input` accepts `.bench` (ISCAS85/89; DFFs are cut) or structural
//! Verilog (`.v`/`.verilog`, any case), or the name of a built-in
//! benchmark: the combinational suite (e.g. `c880`), the sequential
//! FF-cut suite (e.g. `s27`), or a generated `gen<N>[k|m]` circuit. Files
//! with any other extension are rejected rather than guessed at.
//!
//! `analyze`, `optimize` and `trace` prepare their design through
//! `core::flows::Setup` — the constructor serve and `repro` use — and
//! their range checks are `FlowConfigBuilder::build`'s.
//!
//! Argument parsing is strict: unknown flags, flags missing their value,
//! and unparsable values are errors, not silently ignored defaults. Each
//! failure class exits with a stable code (see [`statleak::error`]):
//! 2 usage, 3 I/O, 4 parse, 5 model, 6 infeasible, 7 busy.

// The only unsafe in the workspace: the two-line POSIX `signal()` binding
// below (`install_shutdown_handler`), confined to this binary so every
// library crate keeps `#![forbid(unsafe_code)]`.

use statleak::core::flows::{self, mc_check, FlowConfig, Setup};
use statleak::core::LibrarySpec;
use statleak::engine::{Json, ServeConfig, Server};
use statleak::error::StatleakError;
use statleak::leakage::LeakageAnalysis;
use statleak::mc::MonteCarlo;
use statleak::netlist::{bench, benchmarks, verilog, Circuit};
use statleak::obs;
use statleak::opt::{statistical_flow, StatisticalOptimizer};
use statleak::ssta::Ssta;
use statleak::sta::{SlewSta, Sta};
use statleak::tech::{liberty, Technology};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

/// The path named by the I/O error a failed stdout write raises.
const STDOUT: &str = "<stdout>";

/// Writes to stdout. Every stdout write in this binary goes through here
/// (via `out!`/`outln!`), so a failed write is a typed I/O error on
/// [`STDOUT`] rather than a panic, and `main` can treat a reader that
/// went away (`statleak benchmarks | head`) as a quiet exit 0.
fn emit(args: std::fmt::Arguments) -> Result<(), StatleakError> {
    use std::io::Write;
    std::io::stdout()
        .write_fmt(args)
        .map_err(|source| StatleakError::Io {
            path: STDOUT.to_string(),
            source,
        })
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` that cannot panic: stderr carries progress notes and the
/// final error line, and a closed stderr just loses them.
macro_rules! note {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = setup_observability(&mut args).and_then(|trace| run(&args, trace.as_deref()));
    // Spans buffered on this (or any worker) thread must reach the sinks
    // before exit, whatever the outcome.
    obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Whoever read stdout has stopped listening: nothing left to say.
        Err(StatleakError::Io { path, source })
            if path == STDOUT && source.kind() == std::io::ErrorKind::BrokenPipe =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            note!("statleak: {} error: {e}", e.class());
            ExitCode::from(e.exit_code())
        }
    }
}

/// Applies `STATLEAK_TRACE`/`STATLEAK_LOG`, then extracts (and removes)
/// the global `--trace FILE` / `--log-level LEVEL` flags, which may appear
/// anywhere on the command line. Returns the trace path, if any; for
/// every command except `trace` (which composes its own sinks) the NDJSON
/// sink is installed here.
fn setup_observability(args: &mut Vec<String>) -> Result<Option<String>, StatleakError> {
    let io_err = |path: &str| {
        let path = path.to_string();
        move |e: std::io::Error| StatleakError::Io { path, source: e }
    };
    obs::init_from_env().map_err(io_err("STATLEAK_TRACE"))?;
    // `call` owns `--trace` as its boolean "originate a trace id" flag;
    // everywhere else it is the global NDJSON span-trace file flag.
    let call_owns_trace = args.first().map(String::as_str) == Some("call");
    let mut trace: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        if flag != "--trace" && flag != "--log-level" || (flag == "--trace" && call_owns_trace) {
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1).cloned() else {
            return Err(StatleakError::Usage(format!(
                "flag `{flag}` requires a value"
            )));
        };
        args.drain(i..i + 2);
        if flag == "--trace" {
            if trace.replace(value).is_some() {
                return Err(StatleakError::Usage("duplicate flag `--trace`".into()));
            }
        } else {
            obs::set_log_level(value.parse().map_err(StatleakError::Usage)?);
        }
    }
    if let Some(path) = &trace {
        if args.first().map(String::as_str) != Some("trace") {
            obs::install(&[obs::SinkSpec::NdjsonFile(path.into())]).map_err(io_err(path))?;
        }
    }
    Ok(trace)
}

fn run(args: &[String], trace_file: Option<&str>) -> Result<(), StatleakError> {
    let Some(command) = args.first() else {
        return print_usage();
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return print_usage();
    }
    match command.as_str() {
        "benchmarks" => {
            parse_flags(&args[1..], &[], &[])?;
            cmd_benchmarks()
        }
        "analyze" => cmd_analyze(&args[1..]),
        "optimize" => cmd_optimize(&args[1..]),
        "export-lib" => cmd_export_lib(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "call" => cmd_call(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "trace" => cmd_trace(&args[1..], trace_file),
        "help" => print_usage(),
        other => Err(StatleakError::Usage(format!(
            "unknown command `{other}` (try --help)"
        ))),
    }
}

fn print_usage() -> Result<(), StatleakError> {
    outln!(
        "statleak <command>\n\
         \n\
         commands:\n\
         \x20 benchmarks                      list built-in circuits\n\
         \x20 analyze   --input FILE [--clock-ps N] [--report K]\n\
         \x20           [--mc-sampler S] [--mc-samples N] [--mc-seed N]\n\
         \x20           [--liberty FILE[,corner=NAME]]\n\
         \x20 optimize  --input FILE [--slack-factor F] [--eta E] [--triple-vth]\n\
         \x20           [--out-verilog F] [--out-bench F]\n\
         \x20           [--mc-sampler S] [--mc-samples N] [--mc-seed N]\n\
         \x20           [--liberty FILE[,corner=NAME]]\n\
         \x20 export-lib [--out FILE]\n\
         \x20 serve     [--addr A] [--workers N] [--queue-depth N]\n\
         \x20           [--cache-capacity N] [--deadline-ms N] [--store-dir DIR]\n\
         \x20           [--ring N1,N2,..] [--self-node N] [--ring-replicas N]\n\
         \x20           [--access-log FILE] [--access-log-max-bytes N]\n\
         \x20 call      --addr A --json REQUEST [--trace] [--trace-id HEX]\n\
         \x20 top       --ring A1,A2,.. [--interval-ms N] [--once] [--json]\n\
         \x20 trace     INPUT [--slack-factor F] [--eta E] [--mc-samples N] [--top K]\n\
         \n\
         global flags: --trace FILE (NDJSON span trace), --log-level LEVEL\n\
         --input accepts .bench, .v, or a built-in name: c880, s27, gen10k\n\
         --mc-sampler: plain | sobol, layered with +is / +cv (e.g. sobol+is)\n\
         serve speaks newline-delimited JSON (docs/SERVE_PROTOCOL.md)\n\
         exit codes: 0 ok, 2 usage, 3 io, 4 parse, 5 model, 6 infeasible, 7 busy"
    )
}

/// Strict flag parser: every argument must be a known flag; flags in
/// `value_flags` consume the following argument, flags in `bool_flags`
/// stand alone. Unknown flags, missing values, stray positionals, and
/// duplicates are usage errors — nothing is silently ignored.
fn parse_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<BTreeMap<String, String>, StatleakError> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if !a.starts_with("--") {
            return Err(StatleakError::Usage(format!(
                "unexpected argument `{a}` (see --help)"
            )));
        }
        let value = if bool_flags.contains(&a) {
            i += 1;
            String::new()
        } else if value_flags.contains(&a) {
            let Some(v) = args.get(i + 1) else {
                return Err(StatleakError::Usage(format!("flag `{a}` requires a value")));
            };
            i += 2;
            v.clone()
        } else {
            return Err(StatleakError::Usage(format!(
                "unknown flag `{a}` (see --help)"
            )));
        };
        if out.insert(a.to_string(), value).is_some() {
            return Err(StatleakError::Usage(format!("duplicate flag `{a}`")));
        }
    }
    Ok(out)
}

/// Parses an optional flag value, reporting the flag and text on failure.
fn get_parsed<T: FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, StatleakError> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| StatleakError::Usage(format!("invalid value `{v}` for `{key}`"))),
    }
}

fn require_positive(key: &str, x: f64) -> Result<f64, StatleakError> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(StatleakError::Usage(format!(
            "`{key}` must be a positive finite number, got {x}"
        )))
    }
}

/// The required `--input` value of `analyze` and `optimize`.
fn input_flag(flags: &BTreeMap<String, String>) -> Result<&str, StatleakError> {
    flags
        .get("--input")
        .map(String::as_str)
        .ok_or_else(|| StatleakError::Usage("missing --input".into()))
}

/// Loads `--input`: a benchmark name the flows know (combinational or
/// sequential suite), else a `.bench`/`.v` file chosen by extension.
fn load_circuit(input: &str) -> Result<Circuit, StatleakError> {
    if let Ok(c) = flows::benchmark_circuit(input) {
        return Ok(c);
    }
    let path = std::path::Path::new(input);
    let ext = path
        .extension()
        .and_then(|s| s.to_str())
        .map(str::to_ascii_lowercase);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    let read = || {
        std::fs::read_to_string(input).map_err(|e| StatleakError::Io {
            path: input.to_string(),
            source: e,
        })
    };
    match ext.as_deref() {
        Some("v") | Some("verilog") => Ok(verilog::parse(&read()?)?),
        Some("bench") => Ok(bench::parse(stem, &read()?)?),
        _ => Err(StatleakError::UnknownFormat {
            path: input.to_string(),
        }),
    }
}

/// Builds a command's [`FlowConfig`] from the flags it accepts
/// (`--slack-factor`, `--eta`, `--mc-sampler`, `--mc-samples`,
/// `--mc-seed`, `--liberty`); absent flags keep the builder's defaults,
/// except the MC sample count, whose default differs per command
/// (`optimize` always confirms, `analyze` and `trace` skip MC unless
/// asked). The range checks are the builder's; a rejected value is a usage
/// error naming its flag.
fn flow_config(
    input: &str,
    flags: &BTreeMap<String, String>,
    default_mc_samples: usize,
) -> Result<FlowConfig, StatleakError> {
    let mut cfg = FlowConfig::builder(input)
        .mc_samples(get_parsed(flags, "--mc-samples")?.unwrap_or(default_mc_samples));
    if let Some(v) = get_parsed(flags, "--slack-factor")? {
        cfg = cfg.slack_factor(v);
    }
    if let Some(v) = get_parsed(flags, "--eta")? {
        cfg = cfg.eta(v);
    }
    if let Some(v) = flags.get("--mc-sampler") {
        cfg = cfg.mc_sampler(
            v.parse()
                .map_err(|e| StatleakError::Usage(format!("`--mc-sampler`: {e}")))?,
        );
    }
    if let Some(v) = get_parsed(flags, "--mc-seed")? {
        cfg = cfg.mc_seed(v);
    }
    if let Some(spec) = flags.get("--liberty") {
        cfg = cfg.library(
            LibrarySpec::parse(spec)
                .map_err(|e| StatleakError::Usage(format!("`--liberty` {e}")))?,
        );
    }
    cfg.build().map_err(|e| {
        let flag = match e.field {
            "benchmark" => "input".to_string(),
            field => field.replace('_', "-"),
        };
        StatleakError::Usage(format!("`--{flag}` {}", e.message))
    })
}

fn write_file(path: &str, text: String) -> Result<(), StatleakError> {
    std::fs::write(path, text).map_err(|e| StatleakError::Io {
        path: path.to_string(),
        source: e,
    })
}

fn cmd_benchmarks() -> Result<(), StatleakError> {
    outln!(
        "{:<8} {:>7} {:>8} {:>6} {:>6}  function",
        "name",
        "inputs",
        "outputs",
        "gates",
        "depth"
    )?;
    for s in &benchmarks::SUITE {
        outln!(
            "{:<8} {:>7} {:>8} {:>6} {:>6}  {}",
            s.name,
            s.inputs,
            s.outputs,
            s.gates,
            s.depth,
            s.function
        )?;
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), StatleakError> {
    let flags = parse_flags(
        args,
        &[
            "--input",
            "--clock-ps",
            "--report",
            "--mc-sampler",
            "--mc-samples",
            "--mc-seed",
            "--liberty",
        ],
        &[],
    )?;
    // Validate every value before the (expensive) analysis starts.
    let clock_override = match get_parsed::<f64>(&flags, "--clock-ps")? {
        Some(v) => Some(require_positive("--clock-ps", v)?),
        None => None,
    };
    let report_k = get_parsed::<usize>(&flags, "--report")?;
    let input = input_flag(&flags)?;
    let cfg = flow_config(input, &flags, 0)?;
    let (design, fm) = Setup::model(load_circuit(input)?, &cfg)?;
    let stats = design.circuit().stats();
    outln!(
        "{}: {} inputs, {} outputs, {} gates, depth {}",
        design.circuit().name(),
        stats.inputs,
        stats.outputs,
        stats.gates,
        stats.depth
    )?;
    let sta = Sta::analyze(&design);
    let slew = SlewSta::analyze(&design);
    let ssta = Ssta::analyze(&design, &fm);
    let power = LeakageAnalysis::analyze(&design, &fm).total_power(&design);
    outln!(
        "nominal delay      : {:.1} ps (slew-aware {:.1} ps)",
        sta.circuit_delay(),
        slew.circuit_delay()
    )?;
    outln!(
        "statistical delay  : {:.1} ps mean, {:.1} ps sigma",
        ssta.circuit_delay().mean,
        ssta.circuit_delay().std()
    )?;
    outln!(
        "leakage power      : {:.3} uW mean, {:.3} uW p95",
        power.mean() * 1e6,
        power.quantile(0.95) * 1e6
    )?;
    let t_clk = clock_override.unwrap_or_else(|| ssta.clock_for_yield(0.95));
    outln!(
        "yield @ {:.1} ps    : {:.4} (SSTA)",
        t_clk,
        ssta.timing_yield(t_clk)
    )?;
    let mc = cfg.mc_config();
    if mc.samples > 0 {
        let scheme = mc.scheme();
        let est = MonteCarlo::new(mc).timing_yield_estimate(&design, &fm, t_clk);
        outln!(
            "MC yield ({scheme})  : {:.4}  95% CI [{:.4}, {:.4}]  ({} samples, ESS {:.0})",
            est.yield_value,
            est.ci.lo,
            est.ci.hi,
            est.evaluations,
            est.ess
        )?;
    }
    if let Some(k) = report_k {
        outln!()?;
        out!(
            "{}",
            statleak::core::report::timing_report(&design, &sta, t_clk, k.max(1))
        )?;
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), StatleakError> {
    let flags = parse_flags(
        args,
        &[
            "--input",
            "--slack-factor",
            "--eta",
            "--out-verilog",
            "--out-bench",
            "--mc-sampler",
            "--mc-samples",
            "--mc-seed",
            "--liberty",
        ],
        &["--triple-vth"],
    )?;
    // Validate every value before the (expensive) flow starts.
    let input = input_flag(&flags)?;
    let cfg = flow_config(input, &flags, 1000)?;
    let circuit = load_circuit(input)?;

    note!("estimating minimum delay...");
    let setup = Setup::new(circuit, &cfg)?;
    let (t_clk, eta) = (setup.t_clk, cfg.eta);
    note!(
        "Dmin = {:.1} ps, clock target = {t_clk:.1} ps, yield target = {eta}",
        setup.dmin
    );

    let mut proto = StatisticalOptimizer::new(t_clk).with_yield_target(eta);
    if flags.contains_key("--triple-vth") {
        proto = proto.with_triple_vth();
    }
    let out = statistical_flow(&setup.base, &setup.fm, &proto)?;
    let r = &out.report;
    outln!(
        "optimized: p95 leakage {:.3} uW -> {:.3} uW ({:.1}% saved), yield {:.4}",
        r.initial_objective * 1e6,
        r.final_objective * 1e6,
        (1.0 - r.final_objective / r.initial_objective) * 100.0,
        r.final_yield
    )?;
    outln!(
        "gates: {} high-Vth of {}, total width {:.0}",
        out.design.high_vth_count(),
        out.design.circuit().num_gates(),
        out.design.total_width()
    )?;

    // Monte-Carlo confirmation (skipped with --mc-samples 0).
    let mc = cfg.mc_config();
    if mc.samples > 0 {
        let scheme = mc.scheme();
        let (est, population) = mc_check(&out.design, &setup.fm, t_clk, mc);
        outln!(
            "MC check ({scheme}): yield {:.4} 95% CI [{:.4}, {:.4}], p95 leakage {:.3} uW",
            est.yield_value,
            est.ci.lo,
            est.ci.hi,
            population.leakage_percentile(0.95) * out.design.tech().vdd * 1e6
        )?;
    }

    if let Some(path) = flags.get("--out-verilog") {
        write_file(path, verilog::write(out.design.circuit()))?;
        note!("wrote {path}");
    }
    if let Some(path) = flags.get("--out-bench") {
        write_file(path, bench::write(out.design.circuit()))?;
        note!("wrote {path}");
    }
    Ok(())
}

fn cmd_export_lib(args: &[String]) -> Result<(), StatleakError> {
    let flags = parse_flags(args, &["--out"], &[])?;
    let text = liberty::export(&Technology::ptm100(), "statleak100");
    match flags.get("--out") {
        Some(path) => {
            write_file(path, text)?;
            note!("wrote {path}");
        }
        None => out!("{text}")?,
    }
    Ok(())
}

/// Set by the SIGTERM/SIGINT handler; `serve` drains and exits when it
/// flips.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: set the flag, nothing else.
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

fn install_shutdown_handler() {
    // POSIX `signal(2)`; avoids pulling in a libc crate for two constants.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

fn cmd_serve(args: &[String]) -> Result<(), StatleakError> {
    let flags = parse_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--queue-depth",
            "--cache-capacity",
            "--deadline-ms",
            "--store-dir",
            "--ring",
            "--self-node",
            "--ring-replicas",
            "--access-log",
            "--access-log-max-bytes",
        ],
        &[],
    )?;
    let mut config = ServeConfig::default();
    if let Some(addr) = flags.get("--addr") {
        config.addr = addr.clone();
    }
    if let Some(v) = get_parsed::<usize>(&flags, "--workers")? {
        config.workers = v;
    }
    if let Some(v) = get_parsed::<usize>(&flags, "--queue-depth")? {
        if v == 0 {
            return Err(StatleakError::Usage(
                "`--queue-depth` must be at least 1".into(),
            ));
        }
        config.queue_depth = v;
    }
    if let Some(v) = get_parsed::<usize>(&flags, "--cache-capacity")? {
        if v == 0 {
            return Err(StatleakError::Usage(
                "`--cache-capacity` must be at least 1".into(),
            ));
        }
        config.cache_capacity = v;
    }
    if let Some(v) = get_parsed::<u64>(&flags, "--deadline-ms")? {
        config.default_deadline_ms = Some(v);
    }
    if let Some(dir) = flags.get("--store-dir") {
        config.store_dir = Some(dir.clone());
    }
    if let Some(ring) = flags.get("--ring") {
        // Comma-separated node names; the names are opaque to the ring,
        // but by convention are the fleet's `host:port` addresses.
        config.ring = ring
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(str::to_string)
            .collect();
        if config.ring.is_empty() {
            return Err(StatleakError::Usage(
                "`--ring` needs at least one node name".into(),
            ));
        }
    }
    if let Some(node) = flags.get("--self-node") {
        if config.ring.is_empty() {
            return Err(StatleakError::Usage(
                "`--self-node` requires `--ring`".into(),
            ));
        }
        config.self_node = Some(node.clone());
    }
    if let Some(v) = get_parsed::<usize>(&flags, "--ring-replicas")? {
        if v == 0 {
            return Err(StatleakError::Usage(
                "`--ring-replicas` must be at least 1".into(),
            ));
        }
        config.ring_replicas = v;
    }
    if let Some(path) = flags.get("--access-log") {
        config.access_log = Some(path.clone());
    }
    if let Some(v) = get_parsed::<u64>(&flags, "--access-log-max-bytes")? {
        if !flags.contains_key("--access-log") {
            return Err(StatleakError::Usage(
                "`--access-log-max-bytes` requires `--access-log`".into(),
            ));
        }
        if v == 0 {
            return Err(StatleakError::Usage(
                "`--access-log-max-bytes` must be at least 1".into(),
            ));
        }
        config.access_log_max_bytes = v;
    }

    install_shutdown_handler();
    let server = Server::bind(&config, &SHUTDOWN).map_err(|e| StatleakError::Io {
        path: config.addr.clone(),
        source: e,
    })?;
    // Scripts (and the integration tests) read this line to learn the
    // resolved port when binding to :0.
    outln!("serving on {}", server.local_addr())?;
    let report = server.run().map_err(|e| StatleakError::Io {
        path: config.addr.clone(),
        source: e,
    })?;
    note!(
        "drained: {} served, {} errors, {} busy-rejected, {} past deadline, \
         {} malformed, {} wrong-shard, {} connections",
        report.served,
        report.request_errors,
        report.busy_rejected,
        report.deadline_expired,
        report.protocol_errors,
        report.wrong_shard,
        report.connections
    );
    Ok(())
}

fn cmd_call(args: &[String]) -> Result<(), StatleakError> {
    use std::io::{BufRead, BufReader, Write};

    let flags = parse_flags(args, &["--addr", "--json", "--trace-id"], &["--trace"])?;
    let addr = flags
        .get("--addr")
        .ok_or_else(|| StatleakError::Usage("missing --addr".into()))?;
    let request = flags
        .get("--json")
        .ok_or_else(|| StatleakError::Usage("missing --json".into()))?;
    if request.contains('\n') {
        return Err(StatleakError::Usage(
            "`--json` must be a single line (the protocol is one request per line)".into(),
        ));
    }
    // Originate (or join) a trace: attach the id to the request so the
    // server's spans, access log, and exemplars all carry it, and print
    // it to stderr so the caller can grep for it fleet-wide.
    let trace_id = match flags.get("--trace-id") {
        Some(hex) => Some(obs::TraceId::parse(hex).ok_or_else(|| {
            StatleakError::Usage(format!(
                "`--trace-id` must be 1-32 nonzero hex digits, got `{hex}`"
            ))
        })?),
        None if flags.contains_key("--trace") => Some(obs::TraceId::generate()),
        None => None,
    };
    let request = match trace_id {
        None => request.clone(),
        Some(id) => {
            let parsed = Json::parse(request)
                .map_err(|e| StatleakError::Usage(format!("`--json` is not valid JSON: {e}")))?;
            let Json::Obj(mut pairs) = parsed else {
                return Err(StatleakError::Usage(
                    "`--json` must be a JSON object to attach a trace".into(),
                ));
            };
            if pairs.iter().any(|(k, _)| k == "trace") {
                return Err(StatleakError::Usage(
                    "request already has a `trace` field; drop --trace/--trace-id".into(),
                ));
            }
            pairs.push((
                "trace".to_string(),
                Json::obj(vec![("trace_id", Json::str(id.to_hex()))]),
            ));
            note!("trace {}", id.to_hex());
            Json::Obj(pairs).to_string()
        }
    };
    let request = &request;
    let io_err = |e: std::io::Error| StatleakError::Io {
        path: addr.clone(),
        source: e,
    };
    let mut stream = std::net::TcpStream::connect(addr).map_err(io_err)?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(io_err)?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(io_err)?;
    let response = response.trim();
    if response.is_empty() {
        return Err(StatleakError::Remote {
            class: "internal".into(),
            message: "server closed the connection without responding".into(),
        });
    }
    outln!("{response}")?;
    // Mirror the server's verdict in the exit code so scripts can dispatch
    // on `statleak call` exactly like on the one-shot commands.
    let parsed = Json::parse(response).map_err(|e| StatleakError::Remote {
        class: "internal".into(),
        message: format!("unparsable response: {e}"),
    })?;
    if parsed.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(());
    }
    let error = parsed.get("error");
    let field = |k: &str| {
        error
            .and_then(|e| e.get(k))
            .and_then(Json::as_str)
            .unwrap_or("internal")
            .to_string()
    };
    Err(StatleakError::Remote {
        class: field("class"),
        message: field("message"),
    })
}

/// One node's decoded `metrics` response (or the error polling it).
struct NodePoll {
    node: String,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, obs::HistogramSnapshot>,
    error: Option<String>,
}

impl NodePoll {
    fn failed(node: &str, error: String) -> NodePoll {
        NodePoll {
            node: node.to_string(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            error: Some(error),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Sends one `metrics` request to `addr` and decodes the snapshot.
fn poll_node(addr: &str) -> NodePoll {
    use std::io::{BufRead, BufReader, Write};
    let attempt = || -> Result<NodePoll, String> {
        let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(b"{\"op\":\"metrics\"}\n")
            .and_then(|()| stream.flush())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let parsed = Json::parse(line.trim()).map_err(|e| format!("unparsable response: {e}"))?;
        if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("metrics request failed: {}", line.trim()));
        }
        let data = parsed.get("data").ok_or("response has no data")?;
        let entries = |section: &str| -> Vec<(String, Json)> {
            match data.get(section) {
                Some(Json::Obj(pairs)) => pairs.clone(),
                _ => Vec::new(),
            }
        };
        let mut poll = NodePoll::failed(addr, String::new());
        poll.error = None;
        for (name, v) in entries("counters") {
            poll.counters.insert(name, v.as_f64().unwrap_or(0.0) as u64);
        }
        for (name, v) in entries("gauges") {
            poll.gauges.insert(name, v.as_f64().unwrap_or(0.0));
        }
        for (name, v) in entries("histograms") {
            let h = statleak::engine::proto::parse_histogram_json(&name, &v)?;
            poll.histograms.insert(name, h);
        }
        Ok(poll)
    };
    attempt().unwrap_or_else(|e| NodePoll::failed(addr, e))
}

/// Adds every node's counters/gauges and merges its histograms into one
/// fleet-total poll. Counter addition and histogram merging are lossless,
/// so the fleet totals equal what a single node would have reported had
/// it served every request.
fn merge_polls(nodes: &[NodePoll]) -> NodePoll {
    let mut fleet = NodePoll::failed("fleet", String::new());
    fleet.error = None;
    for poll in nodes.iter().filter(|p| p.error.is_none()) {
        for (name, v) in &poll.counters {
            *fleet.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &poll.gauges {
            *fleet.gauges.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, h) in &poll.histograms {
            fleet
                .histograms
                .entry(name.clone())
                .or_insert_with(|| obs::HistogramSnapshot::empty(name.clone()))
                .merge(h);
        }
    }
    fleet
}

fn poll_json(poll: &NodePoll) -> Json {
    let hist = |h: &obs::HistogramSnapshot| {
        Json::obj(vec![
            ("count", Json::Num(h.count as f64)),
            ("sum", Json::Num(h.sum as f64)),
            ("mean", Json::Num(h.mean)),
            ("p50", Json::Num(h.p50)),
            ("p95", Json::Num(h.p95)),
            ("p99", Json::Num(h.p99)),
        ])
    };
    let mut pairs = vec![("node", Json::str(poll.node.clone()))];
    if let Some(e) = &poll.error {
        pairs.push(("error", Json::str(e.clone())));
        return Json::obj(pairs);
    }
    pairs.push((
        "counters",
        Json::Obj(
            poll.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                .collect(),
        ),
    ));
    pairs.push((
        "gauges",
        Json::Obj(
            poll.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v)))
                .collect(),
        ),
    ));
    pairs.push((
        "histograms",
        Json::Obj(
            poll.histograms
                .iter()
                .map(|(k, h)| (k.clone(), hist(h)))
                .collect(),
        ),
    ));
    Json::obj(pairs)
}

/// One rendered table row; `rate` is requests/s since the previous poll
/// (None in `--once` mode, where there is no previous poll).
fn render_row(poll: &NodePoll, rate: Option<f64>) -> String {
    if let Some(e) = &poll.error {
        return format!("{:<22} DOWN: {e}", poll.node);
    }
    let ratio = |hit: u64, miss: u64| {
        let total = hit + miss;
        if total == 0 {
            "   -".to_string()
        } else {
            format!("{:3.0}%", 100.0 * hit as f64 / total as f64)
        }
    };
    let quantiles = |name: &str| match poll.histograms.get(name) {
        Some(h) if h.count > 0 => format!("{:>7.2}/{:<7.2}", h.p50 / 1e6, h.p99 / 1e6),
        _ => format!("{:>7}/{:<7}", "-", "-"),
    };
    let rate = match rate {
        Some(r) => format!("{r:7.1}"),
        None => format!("{:>7}", "-"),
    };
    format!(
        "{:<22} {:>8} {rate} {} {} {:>15} {:>15}",
        poll.node,
        poll.counter("serve_requests_total"),
        ratio(
            poll.counter("engine_cache_hits_total"),
            poll.counter("engine_cache_misses_total"),
        ),
        ratio(
            poll.counter("store_hits_total"),
            poll.counter("store_misses_total"),
        ),
        quantiles("serve_queue_wait_ns"),
        quantiles("serve_service_ns"),
    )
}

fn cmd_top(args: &[String]) -> Result<(), StatleakError> {
    let flags = parse_flags(args, &["--ring", "--interval-ms"], &["--once", "--json"])?;
    let ring = flags
        .get("--ring")
        .ok_or_else(|| StatleakError::Usage("missing --ring (comma-separated addresses)".into()))?;
    let nodes: Vec<String> = ring
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(str::to_string)
        .collect();
    if nodes.is_empty() {
        return Err(StatleakError::Usage(
            "`--ring` needs at least one address".into(),
        ));
    }
    let interval = std::time::Duration::from_millis(
        get_parsed::<u64>(&flags, "--interval-ms")?
            .unwrap_or(2000)
            .max(100),
    );
    let json = flags.contains_key("--json");
    let once = flags.contains_key("--once") || json;

    let mut previous: Option<Vec<NodePoll>> = None;
    loop {
        let polls: Vec<NodePoll> = nodes.iter().map(|n| poll_node(n)).collect();
        let fleet = merge_polls(&polls);
        if json {
            let out = Json::obj(vec![
                ("nodes", Json::Arr(polls.iter().map(poll_json).collect())),
                ("fleet", poll_json(&fleet)),
            ]);
            outln!("{out}")?;
        } else {
            let mut screen = String::new();
            if !once {
                // ANSI clear + home: redraw in place each interval.
                screen.push_str("\x1b[2J\x1b[H");
            }
            screen.push_str(&format!(
                "statleak fleet: {} node(s), {} up\n{:<22} {:>8} {:>7} {:>4} {:>5} {:>15} {:>15}\n",
                nodes.len(),
                polls.iter().filter(|p| p.error.is_none()).count(),
                "node",
                "reqs",
                "req/s",
                "hit%",
                "store",
                "queue p50/p99ms",
                "serve p50/p99ms",
            ));
            for (i, poll) in polls.iter().enumerate() {
                let rate = previous.as_ref().and_then(|prev| {
                    let before = prev.get(i)?;
                    (before.error.is_none() && poll.error.is_none()).then(|| {
                        poll.counter("serve_requests_total")
                            .saturating_sub(before.counter("serve_requests_total"))
                            as f64
                            / interval.as_secs_f64()
                    })
                });
                screen.push_str(&render_row(poll, rate));
                screen.push('\n');
            }
            let fleet_rate = previous.as_ref().map(|prev| {
                let before: u64 = prev.iter().map(|p| p.counter("serve_requests_total")).sum();
                fleet
                    .counters
                    .get("serve_requests_total")
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(before) as f64
                    / interval.as_secs_f64()
            });
            screen.push_str(&render_row(&fleet, fleet_rate));
            screen.push('\n');
            out!("{screen}")?;
        }
        if once {
            // Every node down is an I/O failure, not a quiet empty table.
            if polls.iter().all(|p| p.error.is_some()) {
                return Err(StatleakError::Io {
                    path: ring.clone(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::ConnectionRefused,
                        "no fleet node answered the metrics poll",
                    ),
                });
            }
            return Ok(());
        }
        previous = Some(polls);
        std::thread::sleep(interval);
    }
}

fn cmd_trace(args: &[String], trace_file: Option<&str>) -> Result<(), StatleakError> {
    let Some(input) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(StatleakError::Usage(
            "trace requires a netlist: statleak trace <input> [--slack-factor F] \
             [--eta E] [--mc-samples N] [--top K]"
                .into(),
        ));
    };
    let flags = parse_flags(
        &args[1..],
        &["--slack-factor", "--eta", "--mc-samples", "--top"],
        &[],
    )?;
    let cfg = flow_config(input, &flags, 0)?;
    let top = get_parsed::<usize>(&flags, "--top")?.unwrap_or(15).max(1);

    // In-memory sink for the profile table, plus the NDJSON file when the
    // global --trace flag (or STATLEAK_TRACE) named one.
    let mut sinks = vec![obs::SinkSpec::InMemory];
    if let Some(path) = trace_file {
        sinks.push(obs::SinkSpec::NdjsonFile(path.into()));
    }
    obs::install(&sinks).map_err(|e| StatleakError::Io {
        path: trace_file.unwrap_or("<in-memory trace>").to_string(),
        source: e,
    })?;

    let circuit = load_circuit(input)?;
    let name = circuit.name().to_string();

    // Prepare the loaded netlist (so on-disk netlists work, not just
    // built-in benchmark names) and run the full comparison
    // single-threaded: the rayon shim runs 1-thread parallel calls inline,
    // which keeps every span on one thread with exact parent links for
    // self-time accounting.
    note!("tracing comparison flow on {name}...");
    let outcome = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool")
        .install(|| flows::run_comparison_on(&Setup::new(circuit, &cfg)?, &cfg))?;

    let records = obs::take_memory();
    let rows = obs::self_time(&records);
    let span_count = rows.iter().map(|r| r.calls).sum::<u64>();
    let self_sum: f64 = rows.iter().map(|r| r.self_us).sum();

    outln!(
        "{name}: t_clk {:.1} ps, det p95 {:.3} uW, stat p95 {:.3} uW \
         ({:.1}% extra saving)",
        outcome.t_clk,
        outcome.deterministic.leakage_p95 * 1e6,
        outcome.statistical.leakage_p95 * 1e6,
        outcome.stat_extra_saving * 100.0
    )?;
    outln!(
        "\n{span_count} spans recorded; top {} by self time:",
        top.min(rows.len())
    )?;
    outln!(
        "{:<26} {:>8} {:>12} {:>12} {:>6}",
        "span",
        "calls",
        "total ms",
        "self ms",
        "self%"
    )?;
    for r in rows.iter().take(top) {
        outln!(
            "{:<26} {:>8} {:>12.2} {:>12.2} {:>5.1}%",
            r.name,
            r.calls,
            r.total_us / 1e3,
            r.self_us / 1e3,
            if self_sum > 0.0 {
                100.0 * r.self_us / self_sum
            } else {
                0.0
            }
        )?;
    }
    if let Some(path) = trace_file {
        note!("wrote {} trace records to {path}", records.len());
    }
    Ok(())
}
