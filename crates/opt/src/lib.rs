//! Leakage-power optimizers: the reproduction's core contribution.
//!
//! Three engines, mirroring the DAC 2004 experimental setup:
//!
//! 1. [`sizing`] — TILOS-style greedy sizing used to build the starting
//!    point: an all-low-Vth design sized to meet the delay target (and to
//!    estimate the minimum achievable delay `Dmin`);
//! 2. [`DeterministicOptimizer`] — the *comparison baseline*: greedy
//!    dual-Vth assignment plus downsizing validated against **nominal**
//!    STA slack (à la Wei/Roy and Pant et al.), optionally guard-banded;
//! 3. [`StatisticalOptimizer`] — the paper's contribution: the same moves
//!    validated against a **timing-yield** constraint from SSTA, with
//!    the objective being the 95th percentile of the full-chip leakage
//!    lognormal.
//!
//! Both optimizers run one move loop (`moves.rs`) and supply only its
//! timing check: nominal STA against the budget, or SSTA yield against
//! the floor. The check re-times a move's fanout cone incrementally and
//! undoes it on rejection, so a candidate move costs time proportional
//! to its cone.
//!
//! # Example
//!
//! ```
//! use statleak_netlist::{benchmarks, placement::Placement};
//! use statleak_tech::{Design, FactorModel, Technology, VariationConfig};
//! use statleak_opt::{sizing, DeterministicOptimizer};
//! use std::sync::Arc;
//!
//! let circuit = Arc::new(benchmarks::by_name("c432").expect("known"));
//! let tech = Technology::ptm100();
//! let mut design = Design::new(circuit, tech);
//! let dmin = sizing::size_for_min_delay(&mut design);
//! let t_clk = 1.10 * dmin;
//! sizing::size_for_delay(&mut design, t_clk)?;
//! let report = DeterministicOptimizer::new(t_clk).optimize(&mut design);
//! assert!(report.final_nominal_leakage < report.initial_nominal_leakage);
//! # Ok::<(), statleak_opt::SizeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deterministic;
mod moves;
pub mod sizing;
mod statistical;

pub use deterministic::{
    deterministic_for_yield, DetReport, DetYieldOutcome, DeterministicOptimizer,
};
pub use sizing::SizeError;
pub use statistical::{
    statistical_flow, statistical_for_yield, StatReport, StatYieldOutcome, StatisticalOptimizer,
    TracePoint,
};

use statleak_netlist::NodeId;
use statleak_tech::{Design, VthClass};

/// Seed set for an incremental timing update after resizing gate `g`:
/// the gate itself plus its fanin drivers, whose load changed with `g`'s
/// input capacitance.
pub(crate) fn seeds_for_resize(design: &Design, g: NodeId) -> Vec<NodeId> {
    let circuit = design.circuit();
    let mut seeds = vec![g];
    seeds.extend(
        circuit
            .fanin(g)
            .iter()
            .copied()
            .filter(|&f| circuit.kind(f).is_gate()),
    );
    seeds
}

/// Seed set for an incremental timing update after swapping gate `g` from
/// flavor `from` to its current one: the gate itself, plus its fanin
/// drivers when the library gives the two flavors different pin
/// capacitances (then the drivers' loads changed too).
pub(crate) fn seeds_for_vth_swap(design: &Design, g: NodeId, from: VthClass) -> Vec<NodeId> {
    let circuit = design.circuit();
    let cap = |vth| {
        design
            .library()
            .input_cap(circuit.kind(g), circuit.fanin(g).len(), design.size(g), vth)
    };
    if cap(from) == cap(design.vth(g)) {
        vec![g]
    } else {
        seeds_for_resize(design, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statleak_netlist::{benchmarks, placement::Placement};
    use statleak_ssta::Ssta;
    use statleak_sta::Sta;
    use statleak_tech::liberty::parse_library;
    use statleak_tech::{FactorModel, LibertyLibrary, Technology, VariationConfig};
    use std::sync::Arc;

    /// A two-cell library whose HVT NAND2 presents a larger pin
    /// capacitance than its LVT twin, so a Vth swap also changes the
    /// loads on the swapped gate's drivers.
    const CAP_SPLIT_LIB: &str = r#"
library (capsplit) {
  cell (NAND2_X1_LVT) {
    cell_leakage_power : 2.0;
    pin (A) { direction : input; capacitance : 1.0; }
    pin (B) { direction : input; capacitance : 1.0; }
    pin (Y) {
      direction : output;
      timing () { related_pin : "A"; intrinsic_rise : 10.0; rise_resistance : 2.0; }
    }
  }
  cell (NAND2_X1_HVT) {
    cell_leakage_power : 0.5;
    pin (A) { direction : input; capacitance : 1.6; }
    pin (B) { direction : input; capacitance : 1.6; }
    pin (Y) {
      direction : output;
      timing () { related_pin : "A"; intrinsic_rise : 14.0; rise_resistance : 2.8; }
    }
  }
}
"#;

    fn cap_split_design() -> Design {
        let tech = Technology::ptm100();
        let parsed = parse_library(CAP_SPLIT_LIB).expect("inline library parses");
        let lib = LibertyLibrary::from_library(parsed, tech.clone(), "liberty:capsplit".into())
            .expect("cells classify");
        Design::with_library(Arc::new(benchmarks::c17()), tech, Arc::new(lib))
    }

    #[test]
    fn vth_swap_seeds_drivers_when_pin_cap_changes() {
        let mut design = cap_split_design();
        let circuit = design.circuit_arc();
        let fm = FactorModel::build(
            &circuit,
            &Placement::by_level(&circuit),
            design.tech(),
            &VariationConfig::ptm100(),
        )
        .expect("factors");
        // A gate driven by at least one other gate.
        let g = circuit
            .gates()
            .find(|&g| circuit.fanin(g).iter().any(|&f| circuit.kind(f).is_gate()))
            .expect("c17 has gate-driven gates");
        let mut sta = Sta::analyze(&design);
        let mut ssta = Ssta::analyze(&design, &fm);
        design.set_vth(g, VthClass::High);
        let seeds = seeds_for_vth_swap(&design, g, VthClass::Low);
        assert!(seeds.len() > 1, "drivers must be seeded: {seeds:?}");
        sta.recompute_cone(&design, &seeds);
        ssta.recompute_cone(&design, &fm, &seeds);
        assert_eq!(sta, Sta::analyze(&design));
        assert_eq!(ssta, Ssta::analyze(&design, &fm));

        // Seeding the gate alone misses the drivers' load change.
        let mut stale = Sta::analyze(&cap_split_design());
        stale.recompute_cone(&design, &[g]);
        assert_ne!(stale, Sta::analyze(&design));
    }

    #[test]
    fn vth_swap_seeds_only_the_gate_when_pin_cap_is_flavor_blind() {
        let mut design = Design::new(Arc::new(benchmarks::c17()), Technology::ptm100());
        let g = design.circuit().gates().last().expect("gates");
        design.set_vth(g, VthClass::High);
        assert_eq!(seeds_for_vth_swap(&design, g, VthClass::Low), vec![g]);
    }
}
