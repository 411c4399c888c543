//! The repository benchmark: one command that runs a named workload for a
//! fixed time, checks its outputs, and prints every metric by name.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--statleak <path>]
//! perfbench --record-goldens
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer split of the same workload.
//! See `README.md` for the workloads and which layer moves which metric.

mod account;
mod flows;
mod host;
mod serve;
mod stats;

use account::Accounting;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "optimize-c1355",
    "analyze-gen50k-qt5",
    "serve-hit",
    "serve-churn",
];

/// End-to-end metrics (untraced runs) with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs) with their units. Every traced run
/// prints all of them; a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("netlist.build_ms", "ms"),
    ("tech.prepare_ms", "ms"),
    ("opt.min_delay_ms", "ms"),
    ("opt.size_for_yield_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("mc.yield_ms", "ms"),
    ("opt.passes", "count"),
    ("opt.high_vth_gates", "count"),
    ("ssta.full_ms", "ms"),
    ("ssta.cone_us", "us"),
    ("netlist.generate_ms", "ms"),
    ("netlist.placement_ms", "ms"),
    ("tech.factor_model_ms", "ms"),
    ("sta.nominal_ms", "ms"),
    ("sta.slew_ms", "ms"),
    ("leakage.analyze_ms", "ms"),
    ("engine.proto.parse_us", "us"),
    ("engine.json.encode_us", "us"),
    ("engine.serve.queue_wait_us", "us"),
    ("engine.serve.service_us", "us"),
    ("engine.session.acquire_ms", "ms"),
    ("engine.session.compute_ms", "ms"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.evictions", "count"),
    ("unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (or requests) attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Why checks failed (a few examples, for stderr).
    pub problems: Vec<String>,
    /// Measured metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts about the run, as JSON-encoded values.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a fact (`value` is already JSON).
    pub fn fact(&mut self, name: &'static str, value: String) {
        match self.facts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.facts.push((name, value)),
        }
    }

    /// Counts one operation as failed when its checks found problems.
    pub fn fail_if(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.extend(problems);
            }
        }
    }

    /// Books a traced run (whose layer metrics the caller reports): the
    /// unattributed remainder, the traced wall, and the tracing overhead against the untraced
    /// operation measured in the same run (`traced_op_ms` vs
    /// `untraced_op_ms`, same thread count).
    pub fn account(&mut self, acc: &Accounting, traced_op_ms: f64, untraced_op_ms: f64) {
        if !acc.balances() {
            self.problems
                .push("layers + unattributed do not add up to the wall".to_string());
        }
        self.metrics.push(("unattributed_ms", acc.unattributed_ms));
        self.metrics.push(("trace.wall_ms", acc.wall_ms));
        self.metrics.push(("trace.untraced_ms", untraced_op_ms));
        self.metrics.push((
            "trace.overhead_pct",
            (traced_op_ms / untraced_op_ms - 1.0) * 100.0,
        ));
        self.metrics.push((
            "trace.attributed_pct",
            (1.0 - acc.unattributed_ms / acc.wall_ms) * 100.0,
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    statleak: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        statleak: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--statleak" => args.statleak = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let serve = |kind| {
        let bin = args
            .statleak
            .as_deref()
            .ok_or("serve workloads need --statleak <path to the statleak binary>")?;
        serve::run(bin, kind, args.seed, args.seconds, args.trace)
    };
    let mut out = match args.workload.as_str() {
        "optimize-c1355" => flows::optimize(args.seed, args.seconds, args.trace),
        "analyze-gen50k-qt5" => flows::analyze(args.seconds, args.trace),
        "serve-hit" => serve(serve::Kind::Hit)?,
        "serve-churn" => serve(serve::Kind::Churn)?,
        other => unreachable!("workload {other} was validated"),
    };
    out.fact("workload", format!("{:?}", args.workload));
    out.fact("seed", args.seed.to_string());
    out.fact("trace", u8::from(args.trace).to_string());
    out.fact("nproc", host::nproc().to_string());
    out.fact("rustc", format!("{:?}", host::rustc_version()));
    out.fact(
        "thread_scaling",
        format!("\"not measured ({} vCPUs)\"", host::nproc()),
    );
    Ok(out)
}

/// The result line: every metric of the run's mode, with its unit.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in wanted {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            None if trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((name, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|(w, _)| w == n))
    {
        return Err(format!("metric {name} is not declared for this mode"));
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--record-goldens") {
        print!("{}", flows::record_goldens());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"facts\": {{{}}}}}", facts.join(", "));
    match result_line(&out, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
