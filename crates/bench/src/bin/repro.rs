//! `repro` — regenerates every table and figure of the reproduction.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--out DIR] [--fresh] [--no-checkpoint]
//!       [t1|t2|t3|t4|t5|t6|f1|f2|f3|f4|f5|a1|a2|a3|a4|a5|a6|all]
//! ```
//!
//! Each experiment prints a console table and writes a CSV under the
//! output directory (default `results/`). `--quick` runs the small/medium
//! circuits with reduced Monte-Carlo sampling; the default runs the full
//! ISCAS85-class suite. See `EXPERIMENTS.md` for the experiment index.
//!
//! ## Crash safety
//!
//! Every `(experiment, circuit)` cell is checkpointed atomically under
//! `<out>/.checkpoint/` as soon as it completes (see
//! [`statleak_bench::checkpoint`]). If a run is killed, re-invoking the
//! same command resumes with only the unfinished cells and produces
//! byte-identical CSVs to an uninterrupted run. Checkpoints are cleared
//! when the requested experiments finish. `--fresh` discards any existing
//! checkpoint first; `--no-checkpoint` disables the mechanism entirely.
//!
//! ## Graceful degradation
//!
//! A circuit that fails mid-suite (infeasible sizing, correlation-model
//! breakdown) no longer aborts the remaining benchmarks: it is recorded as
//! a structured failure row (`circuit, -, -, ...`) in the experiment's
//! table and logged to `<out>/failures.csv` with its stable error class.
//! The process exits 0 when every cell succeeded, 1 when any cell failed,
//! and 2 on bad command-line usage.

use statleak_bench::checkpoint::{CellResult, Checkpoint};
use statleak_bench::{full_suite, quick_suite};
use statleak_core::flows::{DistKind, FlowConfig, FlowError, LibrarySpec, SweepSpec};
use statleak_core::report::{fmt_pct, fmt_power, Table};
use statleak_engine::Engine;
use statleak_netlist::benchmarks;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Everything `repro` knows how to run, in run order.
const EXPERIMENTS: [&str; 17] = [
    "t1", "t2", "t3", "t4", "t5", "t6", "f1", "f2", "f3", "f4", "f5", "a1", "a2", "a3", "a4", "a5",
    "a6",
];

struct Options {
    quick: bool,
    out: PathBuf,
    which: Vec<String>,
    fresh: bool,
    checkpoint: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut quick = false;
    let mut out = PathBuf::from("results");
    let mut which = Vec::new();
    let mut fresh = false;
    let mut checkpoint = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--fresh" => fresh = true,
            "--no-checkpoint" => checkpoint = false,
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return Err("flag `--out` requires a directory".into()),
            },
            "--help" | "-h" => {
                println!(
                    "repro [--quick] [--out DIR] [--fresh] [--no-checkpoint] \
                     [t1|t2|t3|t4|t5|t6|f1|f2|f3|f4|f5|a1|a2|a3|a4|a5|a6|all]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` (see --help)"));
            }
            other if other == "all" || EXPERIMENTS.contains(&other) => {
                which.push(other.to_string());
            }
            other => {
                return Err(format!(
                    "unknown experiment `{other}` (known: all, {})",
                    EXPERIMENTS.join(", ")
                ));
            }
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    Ok(Options {
        quick,
        out,
        which,
        fresh,
        checkpoint,
    })
}

/// One recorded cell failure, mirrored into `<out>/failures.csv`.
struct FailureRecord {
    experiment: String,
    cell: String,
    class: String,
    message: String,
}

/// Shared run state: options, the checkpoint manifest, and the failure log.
struct Ctx {
    opts: Options,
    ckpt: Checkpoint,
    failures: Vec<FailureRecord>,
}

impl Ctx {
    /// Runs one checkpointable `(experiment, cell)` unit: restores the
    /// recorded outcome if present, otherwise computes, checkpoints, and
    /// applies it. A failed cell becomes a structured failure row and the
    /// suite continues.
    fn cell(
        &mut self,
        experiment: &str,
        name: &str,
        table: &mut Table,
        compute: impl FnOnce() -> Result<Vec<Vec<String>>, FlowError>,
    ) {
        let result = match self.ckpt.load(experiment, name) {
            Some(r) => {
                eprintln!("{experiment}/{name}: restored from checkpoint");
                r
            }
            None => {
                let r = match compute() {
                    Ok(rows) => CellResult::Rows(rows),
                    Err(e) => {
                        eprintln!("{name}: {e} (recorded as failure, suite continues)");
                        CellResult::Failed {
                            class: e.class().to_string(),
                            message: e.to_string(),
                        }
                    }
                };
                if let Err(e) = self.ckpt.store(experiment, name, &r) {
                    eprintln!("warning: cannot checkpoint {experiment}/{name}: {e}");
                }
                r
            }
        };
        match result {
            CellResult::Rows(rows) => {
                for row in &rows {
                    table.row(row);
                }
            }
            CellResult::Failed { class, message } => {
                table.failure_row(name);
                self.failures.push(FailureRecord {
                    experiment: experiment.to_string(),
                    cell: name.to_string(),
                    class,
                    message,
                });
            }
        }
    }

    fn save(&self, name: &str, table: &Table) {
        let path = self.opts.out.join(format!("{name}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }

    fn write_failure_log(&self) {
        let mut t = Table::new(&["experiment", "circuit", "class", "message"]);
        for f in &self.failures {
            t.row(&[
                f.experiment.clone(),
                f.cell.clone(),
                f.class.clone(),
                f.message.clone(),
            ]);
        }
        self.save("failures", &t);
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("repro: usage error: {msg}");
            return ExitCode::from(2);
        }
    };
    // The manifest key covers everything that changes cell contents, so a
    // --quick run can never resume from full-suite cells (or vice versa).
    let config_key = format!("repro-v1 quick={}", opts.quick);
    let ckpt = if opts.checkpoint {
        match Checkpoint::open(&opts.out, &config_key) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("warning: cannot open checkpoint manifest: {e}; resume disabled");
                Checkpoint::disabled()
            }
        }
    } else {
        Checkpoint::disabled()
    };
    if opts.fresh {
        if let Err(e) = ckpt.clear_all() {
            eprintln!("warning: --fresh could not clear the checkpoint: {e}");
        }
    }
    let mut ctx = Ctx {
        opts,
        ckpt,
        failures: Vec::new(),
    };

    let run_all = ctx.opts.which.iter().any(|w| w == "all");
    let wants = |k: &str| run_all || ctx.opts.which.iter().any(|w| w == k);
    let requested: Vec<&str> = EXPERIMENTS.iter().copied().filter(|e| wants(e)).collect();
    let t0 = Instant::now();
    for exp in &requested {
        match *exp {
            "t1" => t1(&mut ctx),
            "t2" => t2(&mut ctx),
            "t3" => t3(&mut ctx),
            "t4" => t4(&mut ctx),
            "t5" => t5(&mut ctx),
            "t6" => t6(&mut ctx),
            "f1" => f1(&mut ctx),
            "f2" => f2(&mut ctx),
            "f3" => f3(&mut ctx),
            "f4" => f4(&mut ctx),
            "f5" => f5(&mut ctx),
            "a1" => a1(&mut ctx),
            "a2" => a2(&mut ctx),
            "a3" => a3(&mut ctx),
            "a4" => a4(&mut ctx),
            "a5" => a5(&mut ctx),
            "a6" => a6(&mut ctx),
            _ => unreachable!("EXPERIMENTS is exhaustive"),
        }
    }
    ctx.write_failure_log();
    // The run completed everything that was asked for: drop those cells so
    // the next invocation recomputes instead of replaying a stale cache.
    for exp in &requested {
        if let Err(e) = ctx.ckpt.clear_experiment(exp) {
            eprintln!("warning: could not clear checkpoint for {exp}: {e}");
        }
    }
    eprintln!("\ntotal time: {:.1}s", t0.elapsed().as_secs_f64());
    if ctx.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} cell(s) failed; see {}",
            ctx.failures.len(),
            ctx.opts.out.join("failures.csv").display()
        );
        ExitCode::FAILURE
    }
}

fn suite(opts: &Options) -> Vec<&'static str> {
    if opts.quick {
        quick_suite()
    } else {
        full_suite()
    }
}

fn mc_samples(opts: &Options) -> usize {
    if opts.quick {
        500
    } else {
        2000
    }
}

/// T1 — benchmark characteristics.
fn t1(ctx: &mut Ctx) {
    println!("\n== T1: benchmark characteristics ==");
    let mut t = Table::new(&["circuit", "inputs", "outputs", "gates", "depth", "function"]);
    for s in &benchmarks::SUITE {
        ctx.cell("t1", s.name, &mut t, move || {
            let c = benchmarks::by_name(s.name)
                .ok_or_else(|| FlowError::UnknownBenchmark(s.name.to_string()))?;
            let st = c.stats();
            Ok(vec![vec![
                s.name.to_string(),
                st.inputs.to_string(),
                st.outputs.to_string(),
                st.gates.to_string(),
                st.depth.to_string(),
                s.function.to_string(),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("t1_benchmarks", &t);
}

/// T2 — headline comparison at equal timing yield.
fn t2(ctx: &mut Ctx) {
    println!("\n== T2: leakage at equal timing yield (T = 1.20*Dmin, eta = 0.95) ==");
    let mut t = Table::new(&[
        "circuit",
        "base p95",
        "det p95",
        "stat p95",
        "extra saving",
        "det yield",
        "stat yield",
        "mc stat yield",
        "mc yield 95% CI",
        "det s",
        "stat s",
    ]);
    let samples = mc_samples(&ctx.opts);
    for name in suite(&ctx.opts) {
        ctx.cell("t2", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(samples).build()?;
            let o = Engine::global().session(&cfg)?.run_comparison()?;
            println!(
                "{name}: stat saves an extra {} over deterministic",
                fmt_pct(o.stat_extra_saving)
            );
            Ok(vec![vec![
                name.to_string(),
                fmt_power(o.baseline.leakage_p95),
                fmt_power(o.deterministic.leakage_p95),
                fmt_power(o.statistical.leakage_p95),
                fmt_pct(o.stat_extra_saving),
                format!("{:.3}", o.deterministic.timing_yield),
                format!("{:.3}", o.statistical.timing_yield),
                o.statistical
                    .mc_yield
                    .map_or("-".into(), |y| format!("{y:.3}")),
                o.statistical
                    .mc_yield_ci
                    .map_or("-".into(), |ci| format!("[{:.3}, {:.3}]", ci.lo, ci.hi)),
                format!("{:.1}", o.deterministic.runtime_s),
                format!("{:.1}", o.statistical.runtime_s),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("t2_comparison", &t);
}

/// T3 — savings vs delay-constraint tightness.
fn t3(ctx: &mut Ctx) {
    println!("\n== T3: savings vs clock tightness ==");
    let circuits = if ctx.opts.quick {
        vec!["c432", "c880"]
    } else {
        vec!["c432", "c880", "c1908"]
    };
    let factors = [1.05, 1.10, 1.15, 1.25];
    let mut t = Table::new(&[
        "circuit",
        "T/Dmin",
        "det p95",
        "stat p95",
        "det yield",
        "stat yield",
        "extra saving",
    ]);
    for name in circuits {
        ctx.cell("t3", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
            let points = Engine::global()
                .session(&cfg)?
                .sweep(&SweepSpec::SlackFactor(factors.to_vec()))?;
            Ok(points
                .iter()
                .map(|p| {
                    vec![
                        name.to_string(),
                        format!("{:.2}", p.x),
                        fmt_power(p.det_p95),
                        fmt_power(p.stat_p95),
                        format!("{:.3}", p.det_yield),
                        format!("{:.3}", p.stat_yield),
                        fmt_pct(p.extra_saving),
                    ]
                })
                .collect())
        });
    }
    print!("{}", t.render());
    ctx.save("t3_tightness", &t);
}

/// T4 — analytical vs Monte-Carlo accuracy.
fn t4(ctx: &mut Ctx) {
    println!("\n== T4: SSTA / leakage-lognormal accuracy vs Monte Carlo ==");
    let mut t = Table::new(&[
        "circuit",
        "delay mean err",
        "delay sigma err",
        "yield err",
        "mc yield 95% CI",
        "leak mean err",
        "leak p95 err",
    ]);
    let samples = mc_samples(&ctx.opts);
    for name in suite(&ctx.opts) {
        ctx.cell("t4", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(samples).build()?;
            let v = Engine::global().session(&cfg)?.mc_validation()?;
            Ok(vec![vec![
                name.to_string(),
                fmt_pct((v.ssta_mean - v.mc_mean).abs() / v.mc_mean),
                fmt_pct((v.ssta_sigma - v.mc_sigma).abs() / v.mc_sigma),
                format!("{:.3}", (v.ssta_yield - v.mc_yield).abs()),
                format!("[{:.3}, {:.3}]", v.mc_yield_ci.lo, v.mc_yield_ci.hi),
                fmt_pct((v.leak_mean - v.mc_leak_mean).abs() / v.mc_leak_mean),
                fmt_pct((v.leak_p95 - v.mc_leak_p95).abs() / v.mc_leak_p95),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("t4_mc_validation", &t);
}

/// T5 — joint timing/leakage parametric yield (extension experiment).
fn t5(ctx: &mut Ctx) {
    use statleak_core::joint::JointYield;
    use statleak_leakage::LeakageAnalysis;
    use statleak_mc::{McConfig, MonteCarlo};
    use statleak_opt::sizing;
    use statleak_ssta::Ssta;
    println!("\n== T5: joint timing+leakage yield (bivariate model vs MC) ==");
    let mut t = Table::new(&[
        "circuit",
        "corr(D,lnI)",
        "timing yield",
        "leak yield",
        "product",
        "joint analytic",
        "joint MC",
    ]);
    let samples = mc_samples(&ctx.opts);
    for name in suite(&ctx.opts) {
        ctx.cell("t5", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(samples).build()?;
            let session = Engine::global().session(&cfg)?;
            let setup = session.setup();
            let mut design = setup.base.clone();
            sizing::size_for_yield(&mut design, &setup.fm, setup.t_clk, cfg.eta)?;
            let j = JointYield::analyze(&design, &setup.fm);
            let ssta = Ssta::analyze(&design, &setup.fm);
            let t_clk = ssta.clock_for_yield(0.95);
            let i_max = LeakageAnalysis::analyze(&design, &setup.fm)
                .total_current()
                .quantile(0.90);
            let mc = MonteCarlo::new(McConfig {
                samples: cfg.mc_samples.max(500),
                ..Default::default()
            })
            .run(&design, &setup.fm);
            Ok(vec![vec![
                name.to_string(),
                format!("{:.2}", j.correlation()),
                format!("{:.3}", j.timing_yield(t_clk)),
                format!("{:.3}", j.leakage_yield(i_max)),
                format!("{:.3}", j.timing_yield(t_clk) * j.leakage_yield(i_max)),
                format!("{:.3}", j.joint_yield(t_clk, i_max)),
                format!("{:.3}", mc.joint_yield(t_clk, i_max)),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("t5_joint_yield", &t);
}

/// F1 — leakage distribution before/after optimization.
fn f1(ctx: &mut Ctx) {
    println!("\n== F1: leakage distribution, baseline vs statistical (c880) ==");
    let samples = if ctx.opts.quick { 1000 } else { 5000 };
    let mut t = Table::new(&[
        "bin",
        "baseline center (W)",
        "baseline density",
        "optimized center (W)",
        "optimized density",
    ]);
    ctx.cell("f1", "c880", &mut t, move || {
        let cfg = FlowConfig::builder("c880").mc_samples(samples).build()?;
        let d = Engine::global().session(&cfg)?.distribution()?;
        let bins = 30;
        let hb = d.histogram(DistKind::Baseline, bins);
        let ho = d.histogram(DistKind::Optimized, bins);
        println!("baseline (analytic {}):", d.baseline_analytic);
        print!("{}", hb.to_ascii(40));
        println!("optimized (analytic {}):", d.optimized_analytic);
        print!("{}", ho.to_ascii(40));
        Ok((0..bins)
            .map(|i| {
                vec![
                    i.to_string(),
                    format!("{:.4e}", hb.bin_center(i)),
                    format!("{:.4e}", hb.density(i)),
                    format!("{:.4e}", ho.bin_center(i)),
                    format!("{:.4e}", ho.density(i)),
                ]
            })
            .collect())
    });
    ctx.save("f1_distribution", &t);
}

/// F2 — leakage–delay trade-off curves.
fn f2(ctx: &mut Ctx) {
    let name = if ctx.opts.quick { "c499" } else { "c1908" };
    println!("\n== F2: leakage-delay trade-off ({name}) ==");
    let factors = [1.05, 1.08, 1.12, 1.16, 1.20, 1.30, 1.40];
    let mut t = Table::new(&[
        "T/Dmin",
        "det p95 (W)",
        "stat p95 (W)",
        "det yield",
        "stat yield",
    ]);
    ctx.cell("f2", name, &mut t, move || {
        let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
        let points = Engine::global()
            .session(&cfg)?
            .sweep(&SweepSpec::SlackFactor(factors.to_vec()))?;
        for p in &points {
            println!(
                "T/Dmin {:.2}: det {} stat {} (extra {})",
                p.x,
                fmt_power(p.det_p95),
                fmt_power(p.stat_p95),
                fmt_pct(p.extra_saving)
            );
        }
        Ok(points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.x),
                    format!("{:.4e}", p.det_p95),
                    format!("{:.4e}", p.stat_p95),
                    format!("{:.3}", p.det_yield),
                    format!("{:.3}", p.stat_yield),
                ]
            })
            .collect())
    });
    ctx.save("f2_tradeoff", &t);
}

/// F3 — yield vs clock period for the three designs.
fn f3(ctx: &mut Ctx) {
    let name = if ctx.opts.quick { "c880" } else { "c2670" };
    println!("\n== F3: timing yield vs clock ({name}) ==");
    let grid: Vec<f64> = (0..=20).map(|i| 1.00 + 0.025 * i as f64).collect();
    let mut t = Table::new(&["T/Dmin", "baseline", "deterministic", "statistical"]);
    ctx.cell("f3", name, &mut t, move || {
        let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
        let rows = Engine::global().session(&cfg)?.yield_curves(&grid)?;
        Ok(rows
            .iter()
            .map(|(k, yb, yd, ys)| {
                vec![
                    format!("{k:.3}"),
                    format!("{yb:.4}"),
                    format!("{yd:.4}"),
                    format!("{ys:.4}"),
                ]
            })
            .collect())
    });
    print!("{}", t.render());
    ctx.save("f3_yield_curves", &t);
}

/// F4 — statistical advantage vs variation magnitude.
fn f4(ctx: &mut Ctx) {
    let name = if ctx.opts.quick { "c499" } else { "c1355" };
    println!("\n== F4: extra saving vs sigma(L)/L ({name}) ==");
    let sigmas = [0.025, 0.05, 0.075, 0.10];
    let mut t = Table::new(&[
        "sigma_L",
        "det p95 (W)",
        "stat p95 (W)",
        "det yield",
        "stat yield",
        "extra saving",
    ]);
    ctx.cell("f4", name, &mut t, move || {
        let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
        let points = Engine::global()
            .session(&cfg)?
            .sweep(&SweepSpec::SigmaL(sigmas.to_vec()))?;
        Ok(points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.3}", p.x),
                    format!("{:.4e}", p.det_p95),
                    format!("{:.4e}", p.stat_p95),
                    format!("{:.3}", p.det_yield),
                    format!("{:.3}", p.stat_yield),
                    fmt_pct(p.extra_saving),
                ]
            })
            .collect())
    });
    print!("{}", t.render());
    ctx.save("f4_sigma_sweep", &t);
}

/// F5 — optimizer convergence trace.
fn f5(ctx: &mut Ctx) {
    let name = if ctx.opts.quick { "c880" } else { "c3540" };
    println!("\n== F5: statistical-optimizer convergence ({name}) ==");
    let mut t = Table::new(&["accepted move", "objective (W)", "yield"]);
    ctx.cell("f5", name, &mut t, move || {
        let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
        let session = Engine::global().session(&cfg)?;
        let setup = session.setup();
        let out =
            statleak_opt::statistical_for_yield(&setup.base, &setup.fm, setup.t_clk, cfg.eta)?;
        // Subsample long traces to <= 200 rows.
        let trace = &out.report.trace;
        let step = (trace.len() / 200).max(1);
        println!(
            "{} accepted moves, objective {} -> {}",
            trace.last().map_or(0, |p| p.accepted_moves),
            fmt_power(out.report.initial_objective),
            fmt_power(out.report.final_objective)
        );
        Ok(trace
            .iter()
            .step_by(step)
            .map(|p| {
                vec![
                    p.accepted_moves.to_string(),
                    format!("{:.4e}", p.objective),
                    format!("{:.4}", p.timing_yield),
                ]
            })
            .collect())
    });
    ctx.save("f5_convergence", &t);
}

/// A1 — modeling ablations.
fn a1(ctx: &mut Ctx) {
    println!("\n== A1: modeling ablations (c880) ==");
    let mut t = Table::new(&["variant", "delay sigma (ps)", "leak p95 (W)", "leak cv"]);
    ctx.cell("a1", "c880", &mut t, move || {
        let cfg = FlowConfig::builder("c880").mc_samples(0).build()?;
        let rows = Engine::global().session(&cfg)?.ablation()?;
        Ok(rows
            .into_iter()
            .map(|r| {
                vec![
                    r.variant,
                    format!("{:.2}", r.delay_sigma),
                    format!("{:.4e}", r.leak_p95),
                    format!("{:.3}", r.leak_cv),
                ]
            })
            .collect())
    });
    print!("{}", t.render());
    ctx.save("a1_ablation", &t);
}

/// A2 — the triple-Vth extension: a third threshold flavor vs the paper's
/// dual-Vth setup, at equal timing yield.
fn a2(ctx: &mut Ctx) {
    use statleak_opt::{statistical_flow, StatisticalOptimizer};
    use statleak_tech::VthClass;
    println!("\n== A2: dual-Vth vs triple-Vth statistical optimization ==");
    let circuits = if ctx.opts.quick {
        vec!["c432", "c880"]
    } else {
        vec!["c432", "c880", "c1908"]
    };
    let mut t = Table::new(&[
        "circuit",
        "dual p95",
        "triple p95",
        "gain",
        "low/mid/high gates",
    ]);
    for name in circuits {
        ctx.cell("a2", name, &mut t, move || {
            let cfg = FlowConfig::builder(name)
                .mc_samples(0)
                .slack_factor(1.12)
                .build()?;
            let session = Engine::global().session(&cfg)?;
            let setup = session.setup();
            let dual = statistical_flow(
                &setup.base,
                &setup.fm,
                &StatisticalOptimizer::new(setup.t_clk).with_yield_target(cfg.eta),
            )?;
            let triple = statistical_flow(
                &setup.base,
                &setup.fm,
                &StatisticalOptimizer::new(setup.t_clk)
                    .with_yield_target(cfg.eta)
                    .with_triple_vth(),
            )?;
            Ok(vec![vec![
                name.to_string(),
                fmt_power(dual.report.final_objective),
                fmt_power(triple.report.final_objective),
                fmt_pct(1.0 - triple.report.final_objective / dual.report.final_objective),
                format!(
                    "{}/{}/{}",
                    triple.design.vth_count(VthClass::Low),
                    triple.design.vth_count(VthClass::Mid),
                    triple.design.vth_count(VthClass::High)
                ),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("a2_triple_vth", &t);
}

/// A3 — post-silicon adaptive body bias on top of the statistically
/// optimized design (extension experiment).
fn a3(ctx: &mut Ctx) {
    use statleak_mc::{AbbConfig, McConfig, MonteCarlo};
    use statleak_opt::statistical_for_yield;
    use statleak_ssta::Ssta;
    println!("\n== A3: adaptive body bias on the optimized design ==");
    let circuits = if ctx.opts.quick {
        vec!["c432", "c880"]
    } else {
        vec!["c432", "c880", "c1355"]
    };
    let mut t = Table::new(&[
        "circuit",
        "clock (ps)",
        "yield no-ABB",
        "yield ABB",
        "mean leak no-ABB",
        "mean leak ABB",
    ]);
    let samples = mc_samples(&ctx.opts);
    for name in circuits {
        ctx.cell("a3", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
            let session = Engine::global().session(&cfg)?;
            let setup = session.setup();
            let out = statistical_for_yield(&setup.base, &setup.fm, setup.t_clk, cfg.eta)?;
            // Stress the design at a clock tighter than it was built for, so
            // there are slow die for forward bias to rescue.
            let ssta = Ssta::analyze(&out.design, &setup.fm);
            let t_stress = ssta.clock_for_yield(0.85);
            let r = MonteCarlo::new(McConfig {
                samples,
                ..Default::default()
            })
            .run_abb(&out.design, &setup.fm, &AbbConfig::standard(t_stress));
            let vdd = out.design.tech().vdd;
            Ok(vec![vec![
                name.to_string(),
                format!("{t_stress:.1}"),
                format!("{:.3}", r.yield_without_abb()),
                format!("{:.3}", r.yield_with_abb()),
                fmt_power(r.leakage_summary_unbiased().mean * vdd),
                fmt_power(r.leakage_summary().mean * vdd),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("a3_body_bias", &t);
}

/// T6 — sequential (ISCAS89-class) circuits with placement-driven wire
/// loads: the headline comparison on FF-cut cores (extension experiment).
fn t6(ctx: &mut Ctx) {
    use statleak_netlist::benchmarks::SEQ_SUITE;
    println!("\n== T6: sequential suite (FF-cut cores, wire loads) ==");
    let quick_names = ["s27", "s344", "s526"];
    let specs: Vec<&statleak_netlist::benchmarks::SeqBenchmarkSpec> = SEQ_SUITE
        .iter()
        .filter(|s| !ctx.opts.quick || quick_names.contains(&s.name))
        .collect();
    let mut t = Table::new(&[
        "circuit",
        "gates",
        "dffs",
        "det p95",
        "stat p95",
        "extra saving",
        "stat yield",
    ]);
    for spec in specs {
        ctx.cell("t6", spec.name, &mut t, move || {
            let cfg = FlowConfig::builder(spec.name)
                .mc_samples(0)
                .wire_loads(true)
                .build()?;
            let o = Engine::global().session(&cfg)?.run_comparison()?;
            Ok(vec![vec![
                spec.name.to_string(),
                spec.gates.to_string(),
                spec.dffs.to_string(),
                fmt_power(o.deterministic.leakage_p95),
                fmt_power(o.statistical.leakage_p95),
                fmt_pct(o.stat_extra_saving),
                format!("{:.3}", o.statistical.timing_yield),
            ]])
        });
    }
    print!("{}", t.render());
    ctx.save("t6_sequential", &t);
}

/// A4 — correlation-model comparison: grid-Cholesky kernel vs the
/// Agarwal–Blaauw quadtree decomposition (extension experiment). Both are
/// checked against Monte Carlo run through their own factor model.
fn a4(ctx: &mut Ctx) {
    use statleak_mc::{McConfig, MonteCarlo};
    use statleak_netlist::placement::Placement;
    use statleak_opt::sizing;
    use statleak_ssta::Ssta;
    use statleak_tech::FactorModel;
    println!("\n== A4: grid-Cholesky vs quadtree correlation model ==");
    let circuits = if ctx.opts.quick {
        vec!["c432", "c880"]
    } else {
        vec!["c432", "c880", "c1355"]
    };
    let mut t = Table::new(&[
        "circuit",
        "model",
        "factors",
        "delay sigma (ps)",
        "MC delay sigma",
        "leak p95 (uW)",
        "MC leak p95",
    ]);
    let samples = mc_samples(&ctx.opts);
    for name in circuits {
        ctx.cell("a4", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(samples).build()?;
            let session = Engine::global().session(&cfg)?;
            let setup = session.setup();
            let placement = Placement::by_level(&setup.circuit);
            let fm_quad = FactorModel::build_quadtree(
                &setup.circuit,
                &placement,
                setup.base.tech(),
                &cfg.variation,
                2,
            );
            let mut design = setup.base.clone();
            sizing::size_for_delay(&mut design, setup.t_clk)?;
            let mut rows = Vec::new();
            for (label, fm) in [("grid 4x4", &setup.fm), ("quadtree L2", &fm_quad)] {
                let ssta = Ssta::analyze(&design, fm);
                let leak = statleak_leakage::LeakageAnalysis::analyze(&design, fm);
                let mc = MonteCarlo::new(McConfig {
                    samples: cfg.mc_samples.max(500),
                    ..Default::default()
                })
                .run(&design, fm);
                let vdd = design.tech().vdd;
                rows.push(vec![
                    name.to_string(),
                    label.to_string(),
                    fm.num_shared().to_string(),
                    format!("{:.2}", ssta.circuit_delay().std()),
                    format!("{:.2}", mc.delay_summary().std),
                    format!("{:.2}", leak.total_power(&design).quantile(0.95) * 1e6),
                    format!("{:.2}", mc.leakage_percentile(0.95) * vdd * 1e6),
                ]);
            }
            Ok(rows)
        });
    }
    print!("{}", t.render());
    ctx.save("a4_correlation_models", &t);
}

/// A5 — variance-reduced far-tail yield estimation: plain counting MC,
/// Sobol QMC, and ISLE-style importance sampling at the 99.9%-yield clock,
/// each on the same evaluation budget (extension experiment). The clock is
/// chosen so the analytic (SSTA) miss probability is exactly 1e-3; a plain
/// run of this size sees a handful of misses at best, while the shifted
/// estimator resolves the tail with a tight normal-theory CI.
fn a5(ctx: &mut Ctx) {
    use statleak_mc::{McConfig, MonteCarlo, SamplingScheme};
    use statleak_ssta::Ssta;
    println!("\n== A5: variance-reduced far-tail yield (plain vs QMC vs IS) ==");
    let circuits = if ctx.opts.quick {
        vec!["c432", "c880"]
    } else {
        vec!["c432", "c880", "c1908"]
    };
    let mut t = Table::new(&[
        "circuit",
        "scheme",
        "samples",
        "miss est",
        "analytic miss",
        "miss 95% CI",
        "ess",
    ]);
    let samples = mc_samples(&ctx.opts).max(1000);
    for name in circuits {
        ctx.cell("a5", name, &mut t, move || {
            let cfg = FlowConfig::builder(name).mc_samples(0).build()?;
            let session = Engine::global().session(&cfg)?;
            let setup = session.setup();
            let ssta = Ssta::analyze(&setup.base, &setup.fm);
            let t_clk = ssta.clock_for_yield(0.999);
            let analytic_miss = 1.0 - 0.999;
            let mut rows = Vec::new();
            for scheme in ["plain", "sobol", "plain+is"] {
                let mc = MonteCarlo::new(
                    McConfig {
                        samples,
                        ..Default::default()
                    }
                    .with_scheme(scheme.parse::<SamplingScheme>().expect("valid scheme")),
                );
                let est = mc.timing_yield_estimate(&setup.base, &setup.fm, t_clk);
                rows.push(vec![
                    name.to_string(),
                    scheme.to_string(),
                    samples.to_string(),
                    format!("{:.3e}", est.miss_probability),
                    format!("{analytic_miss:.3e}"),
                    format!("[{:.3e}, {:.3e}]", 1.0 - est.ci.hi, 1.0 - est.ci.lo),
                    format!("{:.0}", est.ess),
                ]);
            }
            Ok(rows)
        });
    }
    print!("{}", t.render());
    ctx.save("a5_variance_reduction", &t);
}

/// A6 — Liberty corner libraries vs statistical optimization: the full
/// comparison flow re-run through the golden SS/TT/FF corner files under
/// `libs/` (see `cargo run --example gen_corner_libs`), against the
/// builtin closed-form models. Corner files move every cell number
/// coherently, so the statistical optimum shifts with the corner while
/// the statistical-over-deterministic advantage persists at each one —
/// no single corner reproduces the distribution the statistical flow
/// optimizes against.
fn a6(ctx: &mut Ctx) {
    println!("\n== A6: Liberty corner libraries vs statistical optimization ==");
    let circuits = if ctx.opts.quick {
        vec!["c17", "c432"]
    } else {
        vec!["c432", "c880", "c1908"]
    };
    let mut t = Table::new(&[
        "circuit",
        "library",
        "stat p95",
        "stat yield",
        "extra saving",
        "high-vth",
    ]);
    let samples = mc_samples(&ctx.opts);
    let lib = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../libs/statleak_mini.lib");
    for name in circuits {
        let lib = lib.clone();
        ctx.cell("a6", name, &mut t, move || {
            let corners = [
                ("builtin", LibrarySpec::Builtin),
                (
                    "tt",
                    LibrarySpec::Liberty {
                        path: lib.clone(),
                        corner: None,
                    },
                ),
                (
                    "ss",
                    LibrarySpec::Liberty {
                        path: lib.clone(),
                        corner: Some("ss".into()),
                    },
                ),
                (
                    "ff",
                    LibrarySpec::Liberty {
                        path: lib.clone(),
                        corner: Some("ff".into()),
                    },
                ),
            ];
            let mut rows = Vec::new();
            for (label, spec) in corners {
                let cfg = FlowConfig::builder(name)
                    .mc_samples(samples)
                    .library(spec)
                    .build()?;
                let o = Engine::global().session(&cfg)?.run_comparison()?;
                rows.push(vec![
                    name.to_string(),
                    label.to_string(),
                    fmt_power(o.statistical.leakage_p95),
                    format!("{:.3}", o.statistical.timing_yield),
                    fmt_pct(o.stat_extra_saving),
                    o.statistical.high_vth.to_string(),
                ]);
            }
            Ok(rows)
        });
    }
    print!("{}", t.render());
    ctx.save("a6_corner_libraries", &t);
}
