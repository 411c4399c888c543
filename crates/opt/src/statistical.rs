//! The statistical dual-Vth + sizing optimizer — the paper's contribution.
//!
//! It runs the same move loop as the deterministic baseline (Vth
//! promotions up the ladder, then downsizing; see `moves.rs`), so their
//! move sets are identical by construction. What differs is the check:
//!
//! * **feasibility** is a parametric timing-yield constraint
//!   `P(D ≤ T_clk) ≥ η` evaluated by incremental SSTA, instead of a
//!   nominal slack test, and Vth candidates are ranked by mean
//!   statistical slack and mean leakage;
//! * the **objective** is the 95th percentile of the full-chip leakage
//!   lognormal, maintained incrementally by
//!   [`statleak_leakage::LeakageAnalysis`].
//!
//! Because timing is treated as a distribution, the optimizer can spend
//! *statistical* slack that the deterministic corner view cannot see
//! (paths that are nominally critical but rarely so under variation), and
//! it refuses moves that look safe nominally but crater the yield.

use crate::moves::{self, YieldCheck};
use rayon::prelude::*;
use statleak_leakage::LeakageAnalysis;
use statleak_obs as obs;
use statleak_ssta::Ssta;
use statleak_tech::{Design, FactorModel, VthClass};

/// One point of the optimizer convergence trace (figure F5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Accepted-move index (0 = initial state).
    pub accepted_moves: usize,
    /// Objective value (W) after this move.
    pub objective: f64,
    /// Timing yield after this move.
    pub timing_yield: f64,
}

/// Statistical optimizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StatisticalOptimizer {
    /// Clock period to honor (ps).
    pub t_clk: f64,
    /// Timing-yield floor `η`: every accepted move keeps
    /// `P(D ≤ t_clk) ≥ η`.
    pub yield_target: f64,
    /// The Vth ladder, ascending: each pass tries to promote every gate to
    /// the next rung. `[Low, High]` is the paper's dual-Vth setup;
    /// `[Low, Mid, High]` enables the triple-Vth extension.
    pub vth_levels: Vec<VthClass>,
}

/// Outcome of a statistical optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct StatReport {
    /// Objective (W) before optimization.
    pub initial_objective: f64,
    /// Objective (W) after optimization.
    pub final_objective: f64,
    /// Mean total leakage power (W) after optimization.
    pub final_mean_leakage: f64,
    /// Timing yield at `t_clk` before optimization.
    pub initial_yield: f64,
    /// Timing yield at `t_clk` after optimization.
    pub final_yield: f64,
    /// Gates moved to high Vth.
    pub high_vth_gates: usize,
    /// Accepted downsizing moves.
    pub downsized_gates: usize,
    /// Passes actually run.
    pub passes: usize,
    /// Convergence trace (one point per accepted move, plus the start).
    pub trace: Vec<TracePoint>,
}

impl StatisticalOptimizer {
    /// Creates an optimizer for a clock period and a 99 % yield floor.
    pub fn new(t_clk: f64) -> Self {
        Self {
            t_clk,
            yield_target: 0.99,
            vth_levels: vec![VthClass::Low, VthClass::High],
        }
    }

    /// Enables the triple-Vth ladder `[Low, Mid, High]` — the "more Vth
    /// flavors" extension of the dual-Vth formulation.
    pub fn with_triple_vth(mut self) -> Self {
        self.vth_levels = vec![VthClass::Low, VthClass::Mid, VthClass::High];
        self
    }

    /// Sets the yield floor.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not strictly inside `(0, 1)`.
    pub fn with_yield_target(mut self, eta: f64) -> Self {
        assert!(eta > 0.0 && eta < 1.0, "yield target must be in (0,1)");
        self.yield_target = eta;
        self
    }

    /// Runs the optimization, mutating the design in place.
    ///
    /// The effective yield floor is `min(yield_target, initial_yield)`:
    /// if the starting design already yields less than the target, the
    /// optimizer preserves (never degrades) the starting yield instead of
    /// failing. The report carries both yields so callers can see which
    /// floor was active.
    pub fn optimize(&self, design: &mut Design, fm: &FactorModel) -> StatReport {
        let _span = obs::span!("opt.optimize");
        let ssta = Ssta::analyze(design, fm);
        let initial_yield = ssta.timing_yield(self.t_clk);
        let mut check = YieldCheck {
            fm,
            ssta,
            leak: LeakageAnalysis::analyze(design, fm),
            t_clk: self.t_clk,
            floor: self.yield_target.min(initial_yield) - 1e-12,
            trace: Vec::new(),
        };
        let initial_objective = check.record(design).objective;
        let (downsized_gates, passes) = moves::run(design, &mut check, &self.vth_levels);
        StatReport {
            initial_objective,
            final_objective: check.objective(design),
            final_mean_leakage: check.leak.total_power(design).mean(),
            initial_yield,
            final_yield: check.ssta.timing_yield(self.t_clk),
            high_vth_gates: design.high_vth_count(),
            downsized_gates,
            passes,
            trace: check.trace,
        }
    }
}

/// Result of the full statistical flow ([`statistical_for_yield`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StatYieldOutcome {
    /// The optimized design.
    pub design: Design,
    /// The inner report of the winning run.
    pub report: StatReport,
    /// The initial-sizing margin (in sigma above the yield target) that
    /// won the walk down the 0–3σ margin grid (see [`statistical_flow`]):
    /// the lowest objective among the margins visited, ties going to the
    /// lower margin.
    pub sizing_margin_sigma: f64,
}

/// The initial-sizing margins the statistical flow may size to, in sigma
/// above the yield target, ascending.
const MARGINS: [f64; 7] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];

/// One end-to-end run at one margin: a clone of `base` sized for the
/// yield target raised by `margin` sigma, then optimized by `proto`.
fn run_margin(
    base: &Design,
    fm: &FactorModel,
    proto: &StatisticalOptimizer,
    margin: f64,
) -> Result<StatYieldOutcome, crate::SizeError> {
    let z_eta = statleak_stats::phi_inv(proto.yield_target);
    let eta_sized = statleak_stats::phi(z_eta + margin).min(1.0 - 1e-9);
    let mut design = base.clone();
    crate::sizing::size_for_yield(&mut design, fm, proto.t_clk, eta_sized)?;
    let report = proto.clone().optimize(&mut design, fm);
    Ok(StatYieldOutcome {
        design,
        report,
        sizing_margin_sigma: margin,
    })
}

/// The statistical flow at the default dual-Vth ladder and pass budget:
/// [`statistical_flow`] with a [`StatisticalOptimizer`] for `t_clk` and
/// `eta`.
///
/// # Errors
///
/// Returns [`crate::SizeError`] if even the plain yield target cannot be
/// sized to.
pub fn statistical_for_yield(
    base: &Design,
    fm: &FactorModel,
    t_clk: f64,
    eta: f64,
) -> Result<StatYieldOutcome, crate::SizeError> {
    statistical_flow(
        base,
        fm,
        &StatisticalOptimizer::new(t_clk).with_yield_target(eta),
    )
}

/// The complete statistical flow: size for a yield target with an
/// initial margin (the statistical analog of the deterministic flow's
/// guard-band search — oversizing buys statistical slack that converts
/// into extra high-Vth assignments), run the yield-constrained optimizer,
/// and keep the lowest objective over the margins tried. The prototype's
/// `t_clk` and `yield_target` define the constraint; its Vth ladder and
/// pass budget configure the optimizer.
///
/// The margins are walked from 3σ down to 0σ. An infeasible margin is
/// skipped; a feasible one becomes the best when its objective is no
/// greater than the best so far, and the walk stops at the first feasible
/// margin whose objective is strictly greater. When the objective is
/// unimodal over the grid (every circuit measured so far) that is the
/// winner of all seven margins, at ~2 runs instead of 7.
///
/// The runs fan out on rayon in batches of `current_num_threads()`
/// margins taken from the top, and each batch is folded serially in
/// descending order. The fold visits the same margins in the same order
/// whatever the batch size — a larger batch only runs margins below the
/// stop that are then discarded — so the outcome is bit-identical for
/// any thread count.
///
/// # Errors
///
/// Returns [`crate::SizeError`] if even the plain yield target cannot be
/// sized to.
pub fn statistical_flow(
    base: &Design,
    fm: &FactorModel,
    proto: &StatisticalOptimizer,
) -> Result<StatYieldOutcome, crate::SizeError> {
    let _span = obs::span!("opt.statistical_flow");
    let descending: Vec<f64> = MARGINS.iter().rev().copied().collect();
    let mut best: Option<StatYieldOutcome> = None;
    // The walk ends at 0σ when nothing was feasible, so the error left
    // here is margin 0's.
    let mut last_err = None;
    'walk: for batch in descending.chunks(rayon::current_num_threads().max(1)) {
        let runs: Vec<Result<StatYieldOutcome, crate::SizeError>> = batch
            .to_vec()
            .into_par_iter()
            .map(|margin| run_margin(base, fm, proto, margin))
            .collect();
        for run in runs {
            match run {
                Ok(outcome) => {
                    if best
                        .as_ref()
                        .is_some_and(|b| outcome.report.final_objective > b.report.final_objective)
                    {
                        break 'walk;
                    }
                    best = Some(outcome);
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    best.ok_or_else(|| last_err.expect("a walk with no feasible margin ends on margin 0's error"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing;
    use statleak_netlist::{benchmarks, placement::Placement};
    use statleak_tech::{LibertyLibrary, Technology, VariationConfig};
    use std::path::Path;
    use std::sync::Arc;

    fn setup(name: &str, slack_factor: f64) -> (Design, FactorModel, f64) {
        let circuit = Arc::new(benchmarks::by_name(name).unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm =
            FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).unwrap();
        let mut d = Design::new(circuit, tech);
        let dmin = sizing::min_delay_estimate(&d);
        let t = dmin * slack_factor;
        sizing::size_for_delay(&mut d, t).unwrap();
        (d, fm, t)
    }

    #[test]
    fn reduces_p95_and_preserves_yield() {
        let (mut d, fm, t) = setup("c432", 1.15);
        let opt = StatisticalOptimizer::new(t);
        let r = opt.optimize(&mut d, &fm);
        assert!(r.final_objective < r.initial_objective * 0.8);
        // Yield never degrades below the effective floor.
        assert!(r.final_yield >= r.initial_yield.min(opt.yield_target) - 1e-9);
        assert!(r.high_vth_gates > 0);
    }

    #[test]
    fn trace_is_monotone_decreasing() {
        let (mut d, fm, t) = setup("c499", 1.15);
        let r = StatisticalOptimizer::new(t).optimize(&mut d, &fm);
        assert!(r.trace.len() >= 2, "should accept at least one move");
        for w in r.trace.windows(2) {
            assert!(
                w[1].objective <= w[0].objective + 1e-12,
                "objective must never increase"
            );
        }
    }

    #[test]
    fn stricter_yield_floor_saves_less() {
        let (d0, fm, t) = setup("c880", 1.12);
        let mut d_lo = d0.clone();
        let mut d_hi = d0.clone();
        let r_lo = StatisticalOptimizer::new(t)
            .with_yield_target(0.90)
            .optimize(&mut d_lo, &fm);
        let r_hi = StatisticalOptimizer::new(t)
            .with_yield_target(0.9999)
            .optimize(&mut d_hi, &fm);
        assert!(
            r_lo.final_objective <= r_hi.final_objective + 1e-15,
            "looser yield floor must allow at least as much saving: {} vs {}",
            r_lo.final_objective,
            r_hi.final_objective
        );
    }

    #[test]
    fn beats_deterministic_at_equal_yield() {
        // The paper's headline: at the SAME timing yield, the statistical
        // flow (size-for-yield + yield-constrained optimization) finds
        // lower p95 leakage than the best guard-banded deterministic flow.
        let eta = 0.95;
        let circuit = Arc::new(benchmarks::by_name("c880").unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm =
            FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).unwrap();
        let base = Design::new(circuit, tech);
        let dmin = sizing::min_delay_estimate(&base);
        let t = dmin * 1.20;

        // Deterministic flow with its best possible guard band.
        let det = crate::deterministic_for_yield(&base, &fm, dmin, t, eta).unwrap();
        assert!(
            det.achieved_yield >= eta,
            "det yield {}",
            det.achieved_yield
        );
        let p95_det = statleak_leakage::LeakageAnalysis::analyze(&det.design, &fm)
            .total_power(&det.design)
            .quantile(0.95);

        // Statistical flow at the same yield requirement.
        let out = statistical_for_yield(&base, &fm, t, eta).unwrap();
        let r = &out.report;

        assert!(r.final_yield >= eta - 1e-9, "stat yield {}", r.final_yield);
        assert!(
            r.final_objective < p95_det,
            "statistical p95 {} must beat deterministic {}",
            r.final_objective,
            p95_det
        );
    }

    #[test]
    fn flow_sweep_never_worse_than_single_shot() {
        let circuit = Arc::new(benchmarks::by_name("c432").unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm =
            FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).unwrap();
        let base = Design::new(circuit, tech);
        let dmin = sizing::min_delay_estimate(&base);
        let t = dmin * 1.20;
        let eta = 0.95;

        let mut single = base.clone();
        sizing::size_for_yield(&mut single, &fm, t, eta).unwrap();
        let r_single = StatisticalOptimizer::new(t)
            .with_yield_target(eta)
            .optimize(&mut single, &fm);

        let swept = statistical_for_yield(&base, &fm, t, eta).unwrap();
        assert!(swept.report.final_objective <= r_single.final_objective + 1e-15);
    }

    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        // The margin walk fans out on rayon in batches of the thread count;
        // the ordered collect plus the serial descending fold must make the
        // outcome bit-identical to a single-threaded run — whole-design
        // assert_eq!, no tolerance.
        let (base, fm, dmin) = suite_case("c432", None);
        let t = dmin * 1.20;
        let eta = 0.95;

        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| statistical_for_yield(&base, &fm, t, eta).unwrap())
        };
        let serial = run(1);
        // 2 threads is a 2-vCPU host; 3 and 4 split the grid unevenly;
        // 8 covers the whole grid in one batch.
        for threads in [2, 3, 4, 8] {
            assert_eq!(serial, run(threads), "{threads} threads");
        }
    }

    /// The reference the walk replaces: every margin of the grid run,
    /// folded in ascending order with strict `<` (ties to the lower
    /// margin), margin 0's error when none is feasible.
    fn full_fold(
        base: &Design,
        fm: &FactorModel,
        proto: &StatisticalOptimizer,
    ) -> Result<StatYieldOutcome, crate::SizeError> {
        let mut best: Option<StatYieldOutcome> = None;
        let mut first_err = None;
        for margin in MARGINS {
            match run_margin(base, fm, proto, margin) {
                Ok(outcome) => {
                    if best
                        .as_ref()
                        .is_none_or(|b| outcome.report.final_objective < b.report.final_objective)
                    {
                        best = Some(outcome);
                    }
                }
                Err(e) if margin == 0.0 => first_err = Some(e),
                Err(_) => {}
            }
        }
        best.ok_or_else(|| first_err.expect("margin 0 failed when no margin is feasible"))
    }

    /// An unsized all-low-Vth ISCAS85 base, optionally through a corner of
    /// the `libs/statleak_mini.lib` Liberty set, with its factor model and
    /// minimum delay.
    fn suite_case(name: &str, corner: Option<&str>) -> (Design, FactorModel, f64) {
        let circuit = Arc::new(benchmarks::by_name(name).unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm =
            FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).unwrap();
        let base = match corner {
            None => Design::new(circuit, tech),
            Some(corner) => {
                let path =
                    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../libs/statleak_mini.lib");
                let lib = LibertyLibrary::load(&path, Some(corner), tech.clone()).unwrap();
                Design::with_library(circuit, tech, Arc::new(lib))
            }
        };
        let dmin = sizing::min_delay_estimate(&base);
        (base, fm, dmin)
    }

    /// Asserts the walk and the full fold agree bit for bit at η = 0.95.
    fn assert_walk_matches_full_fold(
        name: &str,
        corner: Option<&str>,
        slack_factor: f64,
        triple_vth: bool,
    ) {
        let (base, fm, dmin) = suite_case(name, corner);
        let mut proto = StatisticalOptimizer::new(dmin * slack_factor).with_yield_target(0.95);
        if triple_vth {
            proto = proto.with_triple_vth();
        }
        assert_eq!(
            statistical_flow(&base, &fm, &proto),
            full_fold(&base, &fm, &proto),
            "{name} corner {corner:?} slack {slack_factor} triple-Vth {triple_vth}"
        );
    }

    #[test]
    fn walk_matches_full_fold() {
        // c432 has an infeasible margin (2.5σ) between two feasible ones.
        for name in ["c432", "c499", "c880"] {
            assert_walk_matches_full_fold(name, None, 1.20, false);
        }
        assert_walk_matches_full_fold("c432", None, 1.20, true);
    }

    #[test]
    #[ignore = "minutes in release: the whole repro suite, twice"]
    fn walk_matches_full_fold_on_the_suite() {
        // The repro defaults (T2: 1.20·Dmin, η = 0.95) on all of ISCAS85,
        // A2's triple-Vth cases, and the SS/FF Liberty corners.
        for spec in benchmarks::SUITE.iter().filter(|s| s.name != "c17") {
            assert_walk_matches_full_fold(spec.name, None, 1.20, false);
        }
        for name in ["c432", "c880", "c1908"] {
            assert_walk_matches_full_fold(name, None, 1.12, true);
        }
        for corner in ["ss", "ff"] {
            for name in ["c432", "c1355"] {
                assert_walk_matches_full_fold(name, Some(corner), 1.20, false);
            }
        }
    }

    #[test]
    fn deterministic_at_corner_loses_yield() {
        // The motivating observation: corner optimization with zero guard
        // band leaves the nominal path at the clock edge, so yield ≈ 50 %
        // or worse.
        let (d0, fm, t) = setup("c1355", 1.10);
        let mut d_det = d0.clone();
        crate::DeterministicOptimizer::new(t).optimize(&mut d_det);
        let y = statleak_ssta::Ssta::analyze(&d_det, &fm).timing_yield(t);
        assert!(y < 0.75, "corner-optimized yield should collapse, got {y}");
    }

    #[test]
    #[should_panic(expected = "yield target must be in (0,1)")]
    fn rejects_bad_yield_target() {
        let _ = StatisticalOptimizer::new(100.0).with_yield_target(1.0);
    }
}

#[cfg(test)]
mod triple_vth_tests {
    use super::*;
    use crate::sizing;
    use statleak_netlist::{benchmarks, placement::Placement};
    use statleak_tech::{Technology, VariationConfig, VthClass};
    use std::sync::Arc;

    fn base(name: &str) -> (Design, FactorModel, f64) {
        let circuit = Arc::new(benchmarks::by_name(name).unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm =
            FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).unwrap();
        let d = Design::new(circuit, tech);
        let dmin = sizing::min_delay_estimate(&d);
        (d, fm, dmin)
    }

    #[test]
    fn triple_vth_uses_mid_and_beats_dual() {
        let (d0, fm, dmin) = base("c880");
        let t = dmin * 1.12;
        let eta = 0.95;
        let dual = statistical_flow(
            &d0,
            &fm,
            &StatisticalOptimizer::new(t).with_yield_target(eta),
        )
        .unwrap();
        let triple = statistical_flow(
            &d0,
            &fm,
            &StatisticalOptimizer::new(t)
                .with_yield_target(eta)
                .with_triple_vth(),
        )
        .unwrap();
        assert!(
            triple.design.vth_count(VthClass::Mid) > 0,
            "mid flavor should be used on timing-constrained gates"
        );
        assert!(triple.report.final_yield >= eta - 1e-9);
        // The extra flavor never hurts (greedy noise bounded at 3%).
        assert!(
            triple.report.final_objective <= dual.report.final_objective * 1.03,
            "triple {} vs dual {}",
            triple.report.final_objective,
            dual.report.final_objective
        );
    }

    #[test]
    fn ladder_climbing_promotes_through_mid() {
        // With a very loose clock every gate should climb to High even via
        // the two-step ladder.
        let (mut d, fm, dmin) = base("c432");
        let t = dmin * 3.0;
        sizing::size_for_yield(&mut d, &fm, t, 0.99).unwrap();
        let r = StatisticalOptimizer::new(t)
            .with_yield_target(0.99)
            .with_triple_vth()
            .optimize(&mut d, &fm);
        let gates = d.circuit().num_gates();
        assert!(
            d.vth_count(VthClass::High) > gates * 8 / 10,
            "loose clock: most gates should reach High, got {}/{}",
            d.vth_count(VthClass::High),
            gates
        );
        assert!(r.final_yield >= 0.99 - 1e-9);
    }
}
