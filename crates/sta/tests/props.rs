//! Property-based tests for deterministic STA on random circuits.

use proptest::prelude::*;
use statleak_netlist::generate::{generate, GenSpec};
use statleak_netlist::NodeId;
use statleak_sta::{SlewSta, Sta, StaUndo};
use statleak_tech::{Design, Technology, VthClass};
use std::sync::Arc;

fn random_design(seed: u64, gates: usize, depth: usize) -> Design {
    let mut spec = GenSpec::new(format!("sta_prop{seed}_{gates}"), 6, 3, gates, depth);
    spec.seed = seed;
    Design::new(Arc::new(generate(&spec)), Technology::ptm100())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Worst slack at any clock equals `t_clk − circuit_delay`.
    #[test]
    fn worst_slack_identity(seed in 0u64..500, k in 0.5..2.0f64) {
        let d = random_design(seed, 40, 7);
        let sta = Sta::analyze(&d);
        let t = k * sta.circuit_delay();
        let slacks = sta.slacks(&d, t);
        prop_assert!(
            (slacks.worst() - (t - sta.circuit_delay())).abs() < 1e-9,
            "worst {} vs identity {}",
            slacks.worst(),
            t - sta.circuit_delay()
        );
    }

    /// Incremental cone updates match full re-analysis after arbitrary
    /// move sequences, and undo restores exactly.
    #[test]
    fn incremental_matches_full(
        seed in 0u64..500,
        moves in prop::collection::vec((0usize..40, 0usize..4), 1..8),
    ) {
        let mut d = random_design(seed, 40, 7);
        let mut sta = Sta::analyze(&d);
        let gates: Vec<_> = d.circuit().gates().collect();
        for (gi, action) in moves {
            let g = gates[gi % gates.len()];
            let mut seeds = vec![g];
            match action {
                0 => d.set_vth(g, VthClass::High),
                1 => d.set_vth(g, VthClass::Low),
                2 => {
                    if let Some(up) = d.tech().size_up(d.size(g)) {
                        d.set_size(g, up);
                    }
                    seeds.extend(d.circuit().node(g).fanin.iter().copied());
                }
                _ => {
                    if let Some(down) = d.tech().size_down(d.size(g)) {
                        d.set_size(g, down);
                    }
                    seeds.extend(d.circuit().node(g).fanin.iter().copied());
                }
            }
            sta.recompute_cone(&d, &seeds);
        }
        let full = Sta::analyze(&d);
        prop_assert!((sta.circuit_delay() - full.circuit_delay()).abs() < 1e-9);
    }

    /// Top paths are sorted, distinct, structurally valid, and the first
    /// one carries the circuit delay.
    #[test]
    fn top_paths_invariants(seed in 0u64..500, k in 1usize..12) {
        let d = random_design(seed, 35, 6);
        let sta = Sta::analyze(&d);
        let paths = sta.top_paths(&d, k);
        prop_assert!(!paths.is_empty());
        prop_assert!((paths[0].delay - sta.circuit_delay()).abs() < 1e-9);
        for w in paths.windows(2) {
            prop_assert!(w[0].delay >= w[1].delay - 1e-12);
        }
        for p in &paths {
            for e in p.nodes.windows(2) {
                prop_assert!(d.circuit().node(e[1]).fanin.contains(&e[0]));
            }
            let sum: f64 = p
                .nodes
                .iter()
                .filter(|&&u| d.circuit().node(u).kind.is_gate())
                .map(|&u| d.gate_delay_nominal(u))
                .sum();
            prop_assert!((sum - p.delay).abs() < 1e-9);
        }
    }

    /// Slew-aware delay is always at least the slew-blind delay (the
    /// slew terms are non-negative).
    #[test]
    fn slew_aware_upper_bounds_blind(seed in 0u64..500) {
        let d = random_design(seed, 30, 6);
        prop_assert!(SlewSta::analyze(&d).circuit_delay() >= Sta::analyze(&d).circuit_delay() - 1e-9);
    }

    /// Critical-path arrival decomposes into the gate delays along it.
    #[test]
    fn critical_path_decomposition(seed in 0u64..500) {
        let d = random_design(seed, 30, 6);
        let sta = Sta::analyze(&d);
        let path = sta.critical_path(&d);
        let sum: f64 = path
            .iter()
            .filter(|&&u| d.circuit().node(u).kind.is_gate())
            .map(|&u| d.gate_delay_nominal(u))
            .sum();
        prop_assert!((sum - sta.circuit_delay()).abs() < 1e-9);
    }
}

/// What to write back into the design when a move is undone.
enum Revert {
    Vth(NodeId, VthClass),
    Size(NodeId, f64),
}

impl Revert {
    fn apply(self, design: &mut Design) {
        match self {
            Revert::Vth(g, v) => design.set_vth(g, v),
            Revert::Size(g, w) => design.set_size(g, w),
        }
    }
}

/// Applies move `action` (0/1: Vth to High/Low, 2/3: one size step
/// up/down) to gate `g`; returns how to revert it and the seed set the
/// optimizers pass for it.
fn apply_move(design: &mut Design, g: NodeId, action: usize) -> (Revert, Vec<NodeId>) {
    let mut seeds = vec![g];
    let revert = if action < 2 {
        let revert = Revert::Vth(g, design.vth(g));
        design.set_vth(
            g,
            if action == 0 {
                VthClass::High
            } else {
                VthClass::Low
            },
        );
        revert
    } else {
        let revert = Revert::Size(g, design.size(g));
        let step = if action == 2 {
            design.size_up(design.size(g))
        } else {
            design.size_down(design.size(g))
        };
        if let Some(w) = step {
            design.set_size(g, w);
        }
        let circuit = design.circuit();
        seeds.extend(
            circuit
                .fanin(g)
                .iter()
                .copied()
                .filter(|&f| circuit.kind(f).is_gate()),
        );
        revert
    };
    (revert, seeds)
}

// Cached gate delays: after every step of a random move sequence — moves,
// LIFO undos of nested moves, and commits that drop the pending undo logs
// — the incremental state must equal a fresh analysis exactly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_delays_track_full_analysis_through_undo_and_commit(
        seed in 0u64..500,
        steps in prop::collection::vec((0usize..40, 0usize..6), 1..16),
    ) {
        let mut d = random_design(seed, 40, 7);
        let mut sta = Sta::analyze(&d);
        let gates: Vec<_> = d.circuit().gates().collect();
        let mut pending: Vec<(StaUndo, Revert)> = Vec::new();

        for (step, (gi, action)) in steps.into_iter().enumerate() {
            match action {
                4 => {
                    if let Some((undo, revert)) = pending.pop() {
                        sta.undo(undo);
                        revert.apply(&mut d);
                    }
                }
                5 => pending.clear(),
                _ => {
                    let (revert, seeds) = apply_move(&mut d, gates[gi % gates.len()], action);
                    pending.push((sta.recompute_cone(&d, &seeds), revert));
                }
            }
            let full = Sta::analyze(&d);
            prop_assert!(sta == full, "step {step} (action {action}) diverged from full analysis");
            prop_assert_eq!(sta.circuit_delay().to_bits(), full.circuit_delay().to_bits());
        }
    }
}
