//! Cross-crate integration: the complete pipeline from netlist to
//! optimized design, with every analysis engine cross-checked against the
//! others.

use statleak::leakage::LeakageAnalysis;
use statleak::mc::{McConfig, MonteCarlo};
use statleak::netlist::{benchmarks, placement::Placement};
use statleak::opt::{deterministic_for_yield, sizing, statistical_for_yield};
use statleak::ssta::Ssta;
use statleak::sta::Sta;
use statleak::tech::{Design, FactorModel, Technology, VariationConfig};
use std::sync::Arc;

fn setup(name: &str) -> (Design, FactorModel) {
    let circuit = Arc::new(benchmarks::by_name(name).expect("known benchmark"));
    let placement = Placement::by_level(&circuit);
    let tech = Technology::ptm100();
    let fm =
        FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).expect("fm");
    (Design::new(circuit, tech), fm)
}

#[test]
fn full_pipeline_c432() {
    let (base, fm) = setup("c432");
    let dmin = sizing::min_delay_estimate(&base);
    let t_clk = 1.20 * dmin;
    let eta = 0.95;

    // Both flows complete and meet the yield requirement.
    let det = deterministic_for_yield(&base, &fm, dmin, t_clk, eta).expect("det flow");
    assert!(det.achieved_yield >= eta);
    let stat = statistical_for_yield(&base, &fm, t_clk, eta).expect("stat flow");
    assert!(stat.report.final_yield >= eta - 1e-9);

    // Statistical wins at equal yield (the paper's claim).
    let p95 = |d: &Design| {
        LeakageAnalysis::analyze(d, &fm)
            .total_power(d)
            .quantile(0.95)
    };
    assert!(
        p95(&stat.design) < p95(&det.design),
        "stat {} vs det {}",
        p95(&stat.design),
        p95(&det.design)
    );

    // Monte Carlo confirms the analytical yield within sampling noise.
    let mc = MonteCarlo::new(McConfig {
        samples: 2000,
        ..Default::default()
    })
    .run(&stat.design, &fm);
    let analytic = Ssta::analyze(&stat.design, &fm).timing_yield(t_clk);
    assert!(
        (mc.timing_yield(t_clk) - analytic).abs() < 0.05,
        "MC {} vs SSTA {}",
        mc.timing_yield(t_clk),
        analytic
    );
}

#[test]
fn analyses_are_mutually_consistent() {
    let (mut design, fm) = setup("c880");
    let dmin = sizing::min_delay_estimate(&design);
    sizing::size_for_delay(&mut design, dmin * 1.3).expect("relaxed target");

    // SSTA mean >= deterministic STA delay (max of Gaussians).
    let sta = Sta::analyze(&design);
    let ssta = Ssta::analyze(&design, &fm);
    assert!(ssta.circuit_delay().mean >= sta.circuit_delay() - 1e-9);
    assert!(ssta.circuit_delay().mean <= sta.circuit_delay() * 1.2);

    // Leakage analysis mean equals nominal scaled by the lognormal factor.
    let leak = LeakageAnalysis::analyze(&design, &fm);
    let nominal: f64 = design
        .circuit()
        .gates()
        .map(|g| design.gate_leakage_nominal(g))
        .sum();
    let ratio = leak.mean_total_current() / nominal;
    assert!(ratio > 1.0 && ratio < 1.5, "lognormal factor {ratio}");

    // Monte Carlo agrees with both.
    let mc = MonteCarlo::new(McConfig {
        samples: 2000,
        ..Default::default()
    })
    .run(&design, &fm);
    let md = mc.delay_summary();
    assert!((md.mean - ssta.circuit_delay().mean).abs() / md.mean < 0.03);
    let ml = mc.leakage_summary();
    assert!((ml.mean - leak.mean_total_current()).abs() / ml.mean < 0.05);
}

#[test]
fn bench_io_round_trips_through_facade() {
    let c = benchmarks::by_name("c499").expect("known");
    let text = statleak::netlist::bench::write(&c);
    let c2 = statleak::netlist::bench::parse("c499", &text).expect("own output");
    assert_eq!(c.stats(), c2.stats());
}

#[test]
fn flows_api_runs_quick_config() {
    use statleak::prelude::*;
    let cfg = FlowConfig::builder("c17")
        .mc_samples(200)
        .build()
        .expect("valid config");
    let o = Engine::global()
        .session(&cfg)
        .and_then(|s| s.run_comparison())
        .expect("quick flow");
    assert!(o.statistical.leakage_p95 <= o.baseline.leakage_p95);
    assert!(o.statistical.timing_yield >= 0.95 - 1e-9);
}

#[test]
fn optimized_designs_keep_logic_function() {
    // Vth swaps and sizing must never change the boolean function.
    let (base, fm) = setup("c432");
    let dmin = sizing::min_delay_estimate(&base);
    let stat = statistical_for_yield(&base, &fm, dmin * 1.25, 0.9).expect("flow");
    let inputs: Vec<bool> = (0..base.circuit().num_inputs())
        .map(|i| i % 3 == 0)
        .collect();
    let v1 = base.circuit().simulate(&inputs);
    let v2 = stat.design.circuit().simulate(&inputs);
    assert_eq!(v1, v2);
}

/// Pins the guard-banded deterministic flow bit for bit on the T2 setup
/// (1.20·Dmin, η = 0.95, 6 bisection steps): the selected guard band, its
/// SSTA yield, the final nominal and p95 leakage, and the move counts.
#[test]
fn deterministic_flow_is_pinned() {
    // (circuit, guard band, yield, nominal W, p95 W, high-Vth, downsized, passes)
    let pins = [
        (
            "c432",
            0x3fc07d70a3d70a3c,
            0x3fee6961ceb23f28,
            0x3ed7c981c5b31fda,
            0x3ee9008581f82153,
            105,
            1,
            2,
        ),
        (
            "c880",
            0x3fc175c28f5c28f8,
            0x3fee72ce25a1658d,
            0x3ee382e76130e256,
            0x3ef44680b02110d4,
            295,
            0,
            2,
        ),
    ];
    for (name, g, y, nominal, p95, high, down, passes) in pins {
        let (base, fm) = setup(name);
        let dmin = sizing::min_delay_estimate(&base);
        let det = deterministic_for_yield(&base, &fm, dmin, 1.20 * dmin, 0.95).expect("det flow");
        let det_p95 = LeakageAnalysis::analyze(&det.design, &fm)
            .total_power(&det.design)
            .quantile(0.95);
        let got = (
            det.guard_band.to_bits(),
            det.achieved_yield.to_bits(),
            det.report.final_nominal_leakage.to_bits(),
            det_p95.to_bits(),
            det.report.high_vth_gates,
            det.report.downsized_gates,
            det.report.passes,
        );
        assert_eq!(got, (g, y, nominal, p95, high, down, passes), "{name}");
    }
}

/// `Σ (i+1)·x_i`, summed in order: one number that moves if any element
/// or the order changes.
fn weighted_sum(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter()
        .enumerate()
        .fold(0.0, |acc, (i, x)| acc + (i + 1) as f64 * x)
}

/// Pins the timing queries the sizers and optimizers rank by, bit for bit
/// on c432: the nominal and yield sizers (including their nominal
/// fallback), nominal and mean slacks, and both critical-path traces.
#[test]
fn timing_queries_are_pinned() {
    use statleak::stats::{phi, phi_inv};
    let (base, fm) = setup("c432");
    let ids = |path: Vec<statleak::netlist::NodeId>| path.iter().map(|id| id.0).collect::<Vec<_>>();

    let mut d = base.clone();
    let dmin = sizing::size_for_min_delay(&mut d);
    let sizes = weighted_sum(d.circuit().gates().map(|g| d.size(g)));
    assert_eq!(
        (dmin.to_bits(), d.total_width().to_bits(), sizes.to_bits()),
        (0x4081008b43958106, 0x406df00000000000, 0x40d1572000000000)
    );

    // Far above 0.95: the yield sizer takes its nominal fallback twice.
    let mut d = base.clone();
    let eta = phi(phi_inv(0.95) + 2.5);
    let err = sizing::size_for_yield(&mut d, &fm, 1.20 * dmin, eta).unwrap_err();
    assert_eq!(
        (err.achieved.to_bits(), d.total_width().to_bits()),
        (0x4084a783f01037be, 0x4070200000000000)
    );
    // Closer to the target: one fallback, then success.
    let mut d = base.clone();
    let eta = phi(phi_inv(0.95) + 0.5);
    let y = sizing::size_for_yield(&mut d, &fm, 1.10 * dmin, eta).expect("reachable");
    assert_eq!(
        (y.to_bits(), d.total_width().to_bits()),
        (0x3fef80e2b7c67dc7, 0x4070580000000000)
    );

    let mut d = base.clone();
    let t = 1.20 * dmin;
    sizing::size_for_yield(&mut d, &fm, t, 0.95).expect("reachable");
    let sta = Sta::analyze(&d);
    let ssta = Ssta::analyze(&d, &fm);
    assert_eq!(
        weighted_sum(sta.slacks(&d, t).slack).to_bits(),
        0x4146215a1cac082f
    );
    assert_eq!(
        weighted_sum(ssta.mean_slack(&d, t)).to_bits(),
        0x414598c9596d14a0
    );
    assert_eq!(
        ids(sta.critical_path(&d)),
        [2, 66, 84, 93, 114, 130, 133, 139, 147, 157, 160, 167, 174, 178, 184, 185, 188, 191]
    );
    assert_eq!(
        ids(ssta.mean_critical_path(&d)),
        [23, 62, 82, 94, 130, 133, 139, 147, 155, 163, 169, 172, 179, 183, 187, 189, 192]
    );
}
