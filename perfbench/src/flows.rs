//! The two in-process flow workloads: a cold `optimize` of c1355 and a
//! quadtree-scale `analyze` of a 50k-gate generated netlist.
//!
//! Untraced runs call the flows exactly as the `statleak` CLI does, at the
//! default thread count. Traced runs execute the same steps one layer at
//! a time on one thread, time each call from here, and check that the
//! outcome is bit-identical to the untraced call on the same thread
//! count.

use crate::account::{Accounting, Layers};
use crate::stats::{mean, median, nearest_rank};
use crate::{host, Outcome};
use statleak_leakage::LeakageAnalysis;
use statleak_mc::{McConfig, MonteCarlo};
use statleak_netlist::{benchmarks, placement::Placement, NodeId};
use statleak_opt::{sizing, statistical_flow, StatReport, StatisticalOptimizer};
use statleak_ssta::Ssta;
use statleak_sta::{SlewSta, Sta};
use statleak_stats::{phi, phi_inv};
use statleak_tech::{Design, FactorModel, Technology, VariationConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Operations per run even when they overrun the run length.
const MIN_OPS: usize = 3;

/// `statleak optimize --input c1355` defaults.
const OPT_CIRCUIT: &str = "c1355";
const OPT_SLACK: f64 = 1.2;
const OPT_ETA: f64 = 0.95;
const OPT_MC_SAMPLES: usize = 1000;
/// The initial-sizing margins `statistical_flow` sweeps, in sigma.
const OPT_MARGINS: [f64; 7] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];
/// Gates probed for the incremental-SSTA cone cost.
const CONE_PROBES: usize = 64;

const ANA_CIRCUIT: &str = "gen50k";
/// Quadtree levels: 1 + 4 + … + 4^5 = 1365 shared factors.
const ANA_QT_LEVELS: usize = 5;
/// The `statleak analyze` default yield target for its clock.
const ANA_ETA: f64 = 0.95;

const GOLDENS: &str = include_str!("../goldens.txt");

/// Looks up a recorded golden value (`name value` lines; `#` comments).
fn golden(name: &str) -> Option<u64> {
    GOLDENS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(name)).then(|| {
            let v = parts.next()?;
            match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => v.parse().ok(),
            }
        })?
    })
}

fn check_bits(problems: &mut Vec<String>, name: &str, value: f64) {
    match golden(name) {
        Some(bits) if bits == value.to_bits() => {}
        Some(bits) => problems.push(format!(
            "{name} = {value} differs from golden {}",
            f64::from_bits(bits)
        )),
        None => problems.push(format!("no golden recorded for {name}")),
    }
}

fn check_count(problems: &mut Vec<String>, name: &str, value: usize) {
    match golden(name) {
        Some(g) if g == value as u64 => {}
        Some(g) => problems.push(format!("{name} = {value} differs from golden {g}")),
        None => problems.push(format!("no golden recorded for {name}")),
    }
}

fn one_thread() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon pool cannot fail to build")
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `op` until `seconds` have passed (and at least [`MIN_OPS`] times),
/// returning per-operation wall times in ms and the loop's wall time.
fn repeat(seconds: f64, mut op: impl FnMut()) -> (Vec<f64>, f64) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_OPS || start.elapsed() < budget {
        let t = Instant::now();
        op();
        samples.push(ms_since(t));
    }
    (samples, start.elapsed().as_secs_f64())
}

/// Sets up [`SETUPS`] times, dropping each set-up before building the
/// next, and returns the last one with every set-up's wall time in ms.
fn set_up<S>(layers: &mut Layers, mut build: impl FnMut(&mut Layers) -> S) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build(layers));
        times.push(ms_since(t));
    }
    (last.expect("SETUPS > 0"), times)
}

/// The end-to-end metrics every flow workload reports.
fn flow_end_to_end(setup_ms: &[f64], op_ms: &[f64], loop_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", median(setup_ms) / 1e3),
        ("latency_ms", median(op_ms)),
        ("latency_p90_ms", nearest_rank(op_ms, 0.9)),
        ("throughput_rps", op_ms.len() as f64 / loop_s),
        (
            "peak_rss_mb",
            host::peak_rss_mb("self").expect("/proc/self/status reports VmHWM"),
        ),
    ]
}

fn flow_facts(out: &mut Outcome, threads: usize, op_ms: &[f64]) {
    let ops = op_ms.len();
    out.fact("flow_threads", threads.to_string());
    out.fact("ops_per_run", ops.to_string());
    let list: Vec<String> = op_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    out.fact("op_ms", format!("[{}]", list.join(", ")));
    out.fact(
        "latency_p90_note",
        format!(
            "\"nearest rank of {ops} operations; {} lie beyond it, below the 10 a supported p90 needs\"",
            crate::stats::samples_beyond(ops, 0.9)
        ),
    );
}

/// Books a flow's traced run: one mean set-up plus one mean traced
/// operation is the wall that the set-up and operation layers split.
fn book_trace(
    out: &mut Outcome,
    setup_layers: &Layers,
    setup_ms: &[f64],
    op_layers: &Layers,
    traced_ms: &[f64],
    untraced_ms: &[f64],
) {
    let mut layers = setup_layers.per_op(setup_ms.len());
    layers.extend(op_layers.per_op(traced_ms.len()));
    let acc = Accounting::new(layers, mean(setup_ms) + mean(traced_ms));
    out.metrics.extend(acc.layers.iter().copied());
    out.account(&acc, mean(traced_ms), mean(untraced_ms));
}

// ---------------------------------------------------------------------
// optimize-c1355
// ---------------------------------------------------------------------

struct OptSetup {
    base: Design,
    fm: FactorModel,
    t_clk: f64,
}

fn optimize_setup(layers: &mut Layers) -> OptSetup {
    let circuit = layers.time("netlist.build_ms", || {
        Arc::new(benchmarks::by_name(OPT_CIRCUIT).expect("c1355 is a built-in circuit"))
    });
    let (base, fm) = layers.time("tech.prepare_ms", || {
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())
            .expect("the ptm100 grid correlation matrix factors");
        (Design::new(Arc::clone(&circuit), tech), fm)
    });
    let dmin = layers.time("opt.min_delay_ms", || sizing::min_delay_estimate(&base));
    OptSetup {
        base,
        fm,
        t_clk: dmin * OPT_SLACK,
    }
}

fn optimizer(t_clk: f64) -> StatisticalOptimizer {
    StatisticalOptimizer::new(t_clk).with_yield_target(OPT_ETA)
}

/// What one optimize operation produced.
#[derive(Debug, Clone, PartialEq)]
struct OptResult {
    report: StatReport,
    sizes: Vec<u64>,
    high_vth: Vec<bool>,
    mc_yield: f64,
    mc_p95_uw: f64,
}

impl OptResult {
    fn new(report: StatReport, design: &Design, mc: (f64, f64)) -> Self {
        let gates: Vec<NodeId> = design.circuit().gates().collect();
        Self {
            report,
            sizes: gates.iter().map(|&g| design.size(g).to_bits()).collect(),
            high_vth: gates
                .iter()
                .map(|&g| design.vth(g) == statleak_tech::VthClass::High)
                .collect(),
            mc_yield: mc.0,
            mc_p95_uw: mc.1,
        }
    }
}

/// The CLI's Monte-Carlo confirmation: plain yield estimate plus the p95
/// leakage of an unshifted population run (µW).
fn mc_check(design: &Design, s: &OptSetup, seed: u64, threads: usize) -> (f64, f64) {
    let engine = MonteCarlo::new(McConfig {
        samples: OPT_MC_SAMPLES,
        seed,
        threads,
        ..Default::default()
    });
    let est = engine.timing_yield_estimate(design, &s.fm, s.t_clk);
    let population = engine.run(design, &s.fm);
    let p95_uw = population.leakage_percentile(0.95) * design.tech().vdd * 1e6;
    (est.yield_value, p95_uw)
}

/// One untraced operation: `statistical_flow` + MC, as `statleak optimize`.
fn optimize_op(s: &OptSetup, seed: u64, threads: usize) -> Option<OptResult> {
    let out = statistical_flow(&s.base, &s.fm, &optimizer(s.t_clk)).ok()?;
    let mc = mc_check(&out.design, s, seed, threads);
    Some(OptResult::new(out.report, &out.design, mc))
}

/// The same operation one layer at a time: the margin sweep of
/// `statistical_flow` unrolled, with sizing and optimization timed apart.
fn optimize_traced(s: &OptSetup, seed: u64, layers: &mut Layers) -> Option<(OptResult, Design)> {
    let proto = optimizer(s.t_clk);
    let z_eta = phi_inv(OPT_ETA);
    let mut best: Option<(StatReport, Design)> = None;
    for margin in OPT_MARGINS {
        let eta_sized = phi(z_eta + margin).min(1.0 - 1e-9);
        let mut d = s.base.clone();
        let sized = layers.time("opt.size_for_yield_ms", || {
            sizing::size_for_yield(&mut d, &s.fm, s.t_clk, eta_sized)
        });
        if sized.is_err() {
            continue;
        }
        let report = layers.time("opt.optimize_ms", || proto.clone().optimize(&mut d, &s.fm));
        if best
            .as_ref()
            .is_none_or(|(b, _)| report.final_objective < b.final_objective)
        {
            best = Some((report, d));
        }
    }
    let (report, design) = best?;
    let mc = layers.time("mc.yield_ms", || mc_check(&design, s, seed, 1));
    Some((OptResult::new(report, &design, mc), design))
}

/// Probes on the optimized design, outside the layer sum: one full SSTA
/// (ms) and one incremental cone update + undo after an upsize (µs).
fn ssta_probes(design: &Design, fm: &FactorModel) -> (f64, f64) {
    let t = Instant::now();
    let mut ssta = std::hint::black_box(Ssta::analyze(design, fm));
    let full_ms = ms_since(t);
    let mut d = design.clone();
    let gates: Vec<NodeId> = d.circuit().gates().collect();
    let step = (gates.len() / CONE_PROBES).max(1);
    let mut cone_us = Vec::new();
    for &g in gates.iter().step_by(step).take(CONE_PROBES) {
        let old = d.size(g);
        let Some(up) = d.size_up(old) else { continue };
        let mut seeds = vec![g];
        seeds.extend(
            d.circuit()
                .node(g)
                .fanin
                .iter()
                .copied()
                .filter(|&f| d.circuit().node(f).kind.is_gate()),
        );
        d.set_size(g, up);
        let t = Instant::now();
        let undo = ssta.recompute_cone(&d, fm, &seeds);
        std::hint::black_box(ssta.timing_yield(f64::INFINITY));
        ssta.undo(undo);
        cone_us.push(t.elapsed().as_secs_f64() * 1e6);
        d.set_size(g, old);
    }
    (
        full_ms,
        if cone_us.is_empty() {
            0.0
        } else {
            mean(&cone_us)
        },
    )
}

fn check_optimize(r: &OptResult, first: &OptResult, problems: &mut Vec<String>) {
    check_bits(
        problems,
        "optimize.final_objective",
        r.report.final_objective,
    );
    check_bits(problems, "optimize.final_yield", r.report.final_yield);
    check_count(problems, "optimize.high_vth_gates", r.report.high_vth_gates);
    if r.report.final_yield < OPT_ETA {
        problems.push(format!(
            "optimized SSTA yield {} is below eta {OPT_ETA}",
            r.report.final_yield
        ));
    }
    let mc_ok = (0.0..=1.0).contains(&r.mc_yield) && r.mc_p95_uw.is_finite() && r.mc_p95_uw > 0.0;
    if !mc_ok {
        problems.push(format!(
            "MC check out of range: yield {}, p95 {} uW",
            r.mc_yield, r.mc_p95_uw
        ));
    }
    if r != first {
        problems.push("optimize result differs between operations of one run".to_string());
    }
}

/// Runs the optimize-c1355 workload.
pub fn optimize(seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        return one_thread().install(|| optimize_trace_run(seed, seconds));
    }
    let mut out = Outcome::default();
    let (s, setup_ms) = set_up(&mut Layers::default(), optimize_setup);
    let threads = rayon::current_num_threads();
    let mut first: Option<OptResult> = None;
    let (op_ms, loop_s) = repeat(seconds, || {
        out.attempted += 1;
        let mut problems = Vec::new();
        match optimize_op(&s, seed, 0) {
            Some(r) => {
                let reference = first.get_or_insert_with(|| r.clone());
                check_optimize(&r, reference, &mut problems);
                out.fact("mc_yield", r.mc_yield.to_string());
                out.fact("mc_p95_leakage_uw", r.mc_p95_uw.to_string());
            }
            None => problems.push("statistical_flow failed".to_string()),
        }
        out.fail_if(problems);
    });
    out.metrics = flow_end_to_end(&setup_ms, &op_ms, loop_s);
    flow_facts(&mut out, threads, &op_ms);
    out
}

fn optimize_trace_run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_layers, mut layers) = (Layers::default(), Layers::default());
    let (s, setup_ms) = set_up(&mut setup_layers, optimize_setup);
    let (mut traced_ms, mut untraced_ms, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<OptResult> = None;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < budget {
        out.attempted += 1;
        let mut problems = Vec::new();
        let t = Instant::now();
        let untraced = optimize_op(&s, seed, 1);
        untraced_ms.push(ms_since(t));
        let t = Instant::now();
        let traced = optimize_traced(&s, seed, &mut layers);
        traced_ms.push(ms_since(t));
        match (untraced, traced) {
            (Some(u), Some((r, design))) => {
                if u != r {
                    problems.push("traced optimize differs from statistical_flow".to_string());
                }
                check_optimize(&r, last.as_ref().unwrap_or(&r), &mut problems);
                probes.push(ssta_probes(&design, &s.fm));
                last = Some(r);
            }
            _ => problems.push("optimize failed".to_string()),
        }
        out.fail_if(problems);
    }
    book_trace(
        &mut out,
        &setup_layers,
        &setup_ms,
        &layers,
        &traced_ms,
        &untraced_ms,
    );
    if let Some(r) = &last {
        out.metrics.push(("opt.passes", r.report.passes as f64));
        out.metrics
            .push(("opt.high_vth_gates", r.report.high_vth_gates as f64));
    }
    let full: Vec<f64> = probes.iter().map(|p| p.0).collect();
    let cone: Vec<f64> = probes.iter().map(|p| p.1).collect();
    if !probes.is_empty() {
        out.metrics.push(("ssta.full_ms", mean(&full)));
        out.metrics.push(("ssta.cone_us", mean(&cone)));
    }
    flow_facts(&mut out, 1, &traced_ms);
    out
}

// ---------------------------------------------------------------------
// analyze-gen50k-qt5
// ---------------------------------------------------------------------

struct AnaSetup {
    design: Design,
    fm: FactorModel,
}

fn analyze_setup(layers: &mut Layers) -> AnaSetup {
    let circuit = layers.time("netlist.generate_ms", || {
        Arc::new(benchmarks::by_name(ANA_CIRCUIT).expect("gen50k is a generated circuit"))
    });
    let placement = layers.time("netlist.placement_ms", || Placement::by_level(&circuit));
    let tech = Technology::ptm100();
    let fm = layers.time("tech.factor_model_ms", || {
        FactorModel::build_quadtree(
            &circuit,
            &placement,
            &tech,
            &VariationConfig::ptm100(),
            ANA_QT_LEVELS,
        )
    });
    AnaSetup {
        design: Design::new(circuit, tech),
        fm,
    }
}

/// The numbers `statleak analyze` prints.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AnaResult {
    nominal_ps: f64,
    slew_ps: f64,
    delay_mean_ps: f64,
    delay_sigma_ps: f64,
    leakage_mean_w: f64,
    leakage_p95_w: f64,
    clock_ps: f64,
    timing_yield: f64,
}

impl AnaResult {
    fn fields(&self) -> [(&'static str, f64); 8] {
        [
            ("analyze.nominal_ps", self.nominal_ps),
            ("analyze.slew_ps", self.slew_ps),
            ("analyze.delay_mean_ps", self.delay_mean_ps),
            ("analyze.delay_sigma_ps", self.delay_sigma_ps),
            ("analyze.leakage_mean_w", self.leakage_mean_w),
            ("analyze.leakage_p95_w", self.leakage_p95_w),
            ("analyze.clock_ps", self.clock_ps),
            ("analyze.timing_yield", self.timing_yield),
        ]
    }
}

/// One operation, as `statleak analyze` runs it, each analysis charged to
/// its own layer (untraced runs pass a throwaway [`Layers`]).
fn analyze_op(s: &AnaSetup, layers: &mut Layers) -> AnaResult {
    let d = &s.design;
    let sta = layers.time("sta.nominal_ms", || Sta::analyze(d));
    let slew = layers.time("sta.slew_ms", || SlewSta::analyze(d));
    let ssta = layers.time("ssta.full_ms", || Ssta::analyze(d, &s.fm));
    let power = layers.time("leakage.analyze_ms", || {
        LeakageAnalysis::analyze(d, &s.fm).total_power(d)
    });
    let clock_ps = ssta.clock_for_yield(ANA_ETA);
    AnaResult {
        nominal_ps: sta.circuit_delay(),
        slew_ps: slew.circuit_delay(),
        delay_mean_ps: ssta.circuit_delay().mean,
        delay_sigma_ps: ssta.circuit_delay().std(),
        leakage_mean_w: power.mean(),
        leakage_p95_w: power.quantile(0.95),
        clock_ps,
        timing_yield: ssta.timing_yield(clock_ps),
    }
}

fn check_analyze(r: &AnaResult, problems: &mut Vec<String>) {
    for (name, value) in r.fields() {
        check_bits(problems, name, value);
    }
}

/// Runs the analyze-gen50k-qt5 workload.
pub fn analyze(seconds: f64, trace: bool) -> Outcome {
    if trace {
        return one_thread().install(|| analyze_trace_run(seconds));
    }
    let mut out = Outcome::default();
    let (s, setup_ms) = set_up(&mut Layers::default(), analyze_setup);
    let threads = rayon::current_num_threads();
    let (op_ms, loop_s) = repeat(seconds, || {
        out.attempted += 1;
        let mut problems = Vec::new();
        check_analyze(&analyze_op(&s, &mut Layers::default()), &mut problems);
        out.fail_if(problems);
    });
    out.metrics = flow_end_to_end(&setup_ms, &op_ms, loop_s);
    out.fact("shared_factors", s.fm.num_shared().to_string());
    flow_facts(&mut out, threads, &op_ms);
    out
}

fn analyze_trace_run(seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_layers, mut layers) = (Layers::default(), Layers::default());
    let (s, setup_ms) = set_up(&mut setup_layers, analyze_setup);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while traced_ms.len() < MIN_OPS || start.elapsed() < budget {
        out.attempted += 1;
        let mut problems = Vec::new();
        let t = Instant::now();
        let untraced = analyze_op(&s, &mut Layers::default());
        untraced_ms.push(ms_since(t));
        let t = Instant::now();
        let traced = analyze_op(&s, &mut layers);
        traced_ms.push(ms_since(t));
        if untraced != traced {
            problems.push("analyze differs between two calls on one thread".to_string());
        }
        check_analyze(&traced, &mut problems);
        out.fail_if(problems);
    }
    book_trace(
        &mut out,
        &setup_layers,
        &setup_ms,
        &layers,
        &traced_ms,
        &untraced_ms,
    );
    out.fact("shared_factors", s.fm.num_shared().to_string());
    flow_facts(&mut out, 1, &traced_ms);
    out
}

/// Computes the golden lines for both flow workloads (`name value`, f64
/// values as IEEE-754 bit patterns).
pub fn record_goldens() -> String {
    let mut text = String::from(
        "# Outputs the flow workloads check bit for bit. Regenerate with\n\
         # `perfbench --record-goldens` after a change that is meant to move them.\n",
    );
    let s = optimize_setup(&mut Layers::default());
    let r = optimize_op(&s, 0, 0).expect("c1355 optimizes at slack 1.2");
    for (name, v) in [
        ("optimize.final_objective", r.report.final_objective),
        ("optimize.final_yield", r.report.final_yield),
    ] {
        text.push_str(&format!("{name} 0x{:016x}  # {v}\n", v.to_bits()));
    }
    text.push_str(&format!(
        "optimize.high_vth_gates {}\n",
        r.report.high_vth_gates
    ));
    let a = analyze_op(
        &analyze_setup(&mut Layers::default()),
        &mut Layers::default(),
    );
    for (name, v) in a.fields() {
        text.push_str(&format!("{name} 0x{:016x}  # {v}\n", v.to_bits()));
    }
    text
}
