//! Integration coverage of the extension features through the facade:
//! every post-paper capability exercised end-to-end on one design.

use statleak::core::joint::JointYield;
use statleak::core::report::timing_report;
use statleak::leakage::LeakageAnalysis;
use statleak::mc::{AbbConfig, McConfig, MonteCarlo};
use statleak::netlist::{benchmarks, placement::Placement, verilog};
use statleak::opt::{sizing, statistical_flow, StatisticalOptimizer};
use statleak::ssta::Ssta;
use statleak::sta::{SlewSta, Sta};
use statleak::tech::{
    liberty,
    wire::{wire_caps_from_placement, WireModel},
    Design, FactorModel, Technology, VariationConfig, VthClass,
};
use std::sync::Arc;

fn setup(name: &str) -> (Design, FactorModel, Placement) {
    let circuit = Arc::new(benchmarks::by_name(name).expect("known"));
    let placement = Placement::by_level(&circuit);
    let tech = Technology::ptm100();
    let fm =
        FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).expect("fm");
    (Design::new(circuit, tech), fm, placement)
}

#[test]
fn triple_vth_flow_through_facade() {
    let (base, fm, _) = setup("c432");
    let dmin = sizing::min_delay_estimate(&base);
    let out = statistical_flow(
        &base,
        &fm,
        &StatisticalOptimizer::new(dmin * 1.15)
            .with_yield_target(0.95)
            .with_triple_vth(),
    )
    .expect("flow");
    let gates = out.design.circuit().num_gates();
    let counted = out.design.vth_count(VthClass::Low)
        + out.design.vth_count(VthClass::Mid)
        + out.design.vth_count(VthClass::High);
    assert_eq!(counted, gates);
    assert!(out.report.final_yield >= 0.95 - 1e-9);
}

#[test]
fn joint_yield_and_abb_compose() {
    let (mut d, fm, _) = setup("c499");
    let dmin = sizing::min_delay_estimate(&d);
    sizing::size_for_yield(&mut d, &fm, dmin * 1.2, 0.95).expect("sizable");
    let j = JointYield::analyze(&d, &fm);
    let ssta = Ssta::analyze(&d, &fm);
    let t = ssta.clock_for_yield(0.90);
    let leak = LeakageAnalysis::analyze(&d, &fm).total_current();
    let joint = j.joint_yield(t, leak.quantile(0.95));
    assert!(joint > 0.8 && joint < 0.95);

    let abb = MonteCarlo::new(McConfig {
        samples: 400,
        ..Default::default()
    })
    .run_abb(&d, &fm, &AbbConfig::standard(t));
    assert!(abb.yield_with_abb() >= abb.yield_without_abb());
}

#[test]
fn wire_loads_flow_through_all_analyses() {
    let (mut d, fm, placement) = setup("c880");
    let blind_delay = Sta::analyze(&d).circuit_delay();
    let caps = wire_caps_from_placement(d.circuit(), &placement, &WireModel::ptm100());
    d.set_wire_caps(caps);
    // Deterministic, slew-aware, and statistical analyses all see the load.
    let loaded = Sta::analyze(&d).circuit_delay();
    assert!(loaded > blind_delay * 1.5);
    assert!(SlewSta::analyze(&d).circuit_delay() > loaded);
    assert!(Ssta::analyze(&d, &fm).circuit_delay().mean > blind_delay * 1.5);
}

#[test]
fn interchange_formats_agree() {
    let (d, _, _) = setup("c499");
    // Liberty describes the same cells the timing engine uses.
    let lib = liberty::parse_library(&liberty::export(d.tech(), "x")).expect("liberty");
    // Most of the netlist's (kind, fanin) bindings exist in the library
    // (degenerate bindings like a deduplicated single-input NAND are
    // outside the characterized set).
    let gates: Vec<_> = d.circuit().gates().collect();
    let covered = gates
        .iter()
        .filter(|&&g| {
            let node = d.circuit().node(g);
            lib.cells.iter().any(|c| {
                c.function_kind.as_deref() == Some(node.kind.bench_keyword())
                    && c.fanin_count == Some(node.fanin.len())
            })
        })
        .count();
    assert!(
        covered * 10 >= gates.len() * 8,
        "library covers {covered}/{} gates",
        gates.len()
    );
    // Verilog round trip preserves the timing result exactly.
    let c2 = verilog::parse(&verilog::write(d.circuit())).expect("verilog");
    let d2 = Design::new(Arc::new(c2), d.tech().clone());
    assert!((Sta::analyze(&d2).circuit_delay() - Sta::analyze(&d).circuit_delay()).abs() < 1e-9);
}

#[test]
fn sequential_benchmark_full_stack() {
    let (circuit, _) = benchmarks::sequential_by_name("s526").expect("known");
    let circuit = Arc::new(circuit);
    let placement = Placement::by_level(&circuit);
    let tech = Technology::ptm100();
    let fm =
        FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).expect("fm");
    let design = Design::new(circuit, tech);
    let sta = Sta::analyze(&design);
    let report = timing_report(&design, &sta, sta.circuit_delay() * 1.1, 2);
    assert!(report.contains("Path 2"));
    // Importance sampling resolves a 3-sigma tail on the FF-cut core.
    let ssta = Ssta::analyze(&design, &fm);
    let t = ssta.clock_for_yield(0.9986);
    let (est, _) = MonteCarlo::new(McConfig {
        samples: 1500,
        ..Default::default()
    })
    .tail_miss_probability(&design, &fm, t, 2.0);
    assert!(est > 0.0 && est < 0.02, "tail estimate {est}");
}
