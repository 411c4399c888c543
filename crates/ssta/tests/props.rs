//! Property-based tests for canonical SSTA.

use proptest::prelude::*;
use statleak_netlist::generate::{generate, GenSpec};
use statleak_netlist::placement::Placement;
use statleak_netlist::NodeId;
use statleak_ssta::{Canonical, Ssta, SstaUndo};
use statleak_tech::{Design, FactorModel, Technology, VariationConfig, VthClass};
use std::sync::Arc;

fn canonical() -> impl Strategy<Value = Canonical> {
    (
        -10.0..10.0f64,
        prop::collection::vec(-1.0..1.0f64, 3),
        0.0..1.0f64,
    )
        .prop_map(|(mean, shared, local)| Canonical::new(mean, shared, local))
}

proptest! {
    #[test]
    fn add_commutes(a in canonical(), b in canonical()) {
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert!((ab.mean - ba.mean).abs() < 1e-12);
        prop_assert!((ab.variance - ba.variance).abs() < 1e-12);
    }

    #[test]
    fn add_variance_includes_covariance(a in canonical(), b in canonical()) {
        let c = a.add(&b);
        let expect = a.variance + b.variance + 2.0 * a.covariance(&b);
        prop_assert!((c.variance - expect).abs() < 1e-9);
    }

    #[test]
    fn max_upper_bounds_means(a in canonical(), b in canonical()) {
        let m = a.stat_max(&b);
        prop_assert!(m.mean >= a.mean.max(b.mean) - 1e-9);
        prop_assert!(m.variance >= -1e-12);
        prop_assert!(m.local >= 0.0);
    }

    #[test]
    fn max_commutes_in_moments(a in canonical(), b in canonical()) {
        let ab = a.stat_max(&b);
        let ba = b.stat_max(&a);
        prop_assert!((ab.mean - ba.mean).abs() < 1e-9);
        prop_assert!((ab.variance - ba.variance).abs() < 1e-6 + 1e-6 * ab.variance);
    }

    #[test]
    fn covariance_symmetric(a in canonical(), b in canonical()) {
        prop_assert!((a.covariance(&b) - b.covariance(&a)).abs() < 1e-12);
    }
}

// Random small circuits: incremental SSTA must match a fresh analysis
// after arbitrary Vth/size mutations, and undo must restore state exactly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_equals_full_after_random_moves(
        seed in 0u64..500,
        moves in prop::collection::vec((0usize..30, 0usize..4), 1..8),
    ) {
        let mut spec = GenSpec::new(format!("ssta_prop{seed}"), 6, 3, 30, 6);
        spec.seed = seed;
        let circuit = Arc::new(generate(&spec));
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())
            .expect("factors");
        let mut design = Design::new(circuit, tech);
        let mut ssta = Ssta::analyze(&design, &fm);
        let gates: Vec<_> = design.circuit().gates().collect();

        for (gi, action) in moves {
            let g = gates[gi % gates.len()];
            let mut seeds = vec![g];
            match action {
                0 => design.set_vth(g, VthClass::High),
                1 => design.set_vth(g, VthClass::Low),
                2 => {
                    if let Some(up) = design.tech().size_up(design.size(g)) {
                        design.set_size(g, up);
                    }
                    seeds.extend(design.circuit().node(g).fanin.iter().copied());
                }
                _ => {
                    if let Some(down) = design.tech().size_down(design.size(g)) {
                        design.set_size(g, down);
                    }
                    seeds.extend(design.circuit().node(g).fanin.iter().copied());
                }
            }
            ssta.recompute_cone(&design, &fm, &seeds);
        }

        let full = Ssta::analyze(&design, &fm);
        let a = ssta.circuit_delay();
        let b = full.circuit_delay();
        prop_assert!((a.mean - b.mean).abs() < 1e-9, "mean {} vs {}", a.mean, b.mean);
        prop_assert!((a.variance - b.variance).abs() < 1e-9);
    }

    #[test]
    fn undo_chain_restores_exactly_after_random_moves(
        seed in 0u64..500,
        moves in prop::collection::vec((0usize..30, 0usize..4), 1..8),
    ) {
        // Apply a random move sequence with incremental recomputes, then
        // unwind the undo stack: the timing state must come back bit-exact
        // (assert_eq!, no tolerance) — the contract the greedy optimizers
        // rely on when they reject a move.
        let mut spec = GenSpec::new(format!("ssta_undo{seed}"), 6, 3, 30, 6);
        spec.seed = seed;
        let circuit = Arc::new(generate(&spec));
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())
            .expect("factors");
        let mut design = Design::new(circuit, tech);
        let mut ssta = Ssta::analyze(&design, &fm);
        let snapshot = ssta.clone();

        let gates: Vec<_> = design.circuit().gates().collect();
        let mut undos = Vec::new();
        for (gi, action) in moves {
            let g = gates[gi % gates.len()];
            let mut seeds = vec![g];
            match action {
                0 => design.set_vth(g, VthClass::High),
                1 => design.set_vth(g, VthClass::Low),
                2 => {
                    if let Some(up) = design.tech().size_up(design.size(g)) {
                        design.set_size(g, up);
                    }
                    seeds.extend(design.circuit().node(g).fanin.iter().copied());
                }
                _ => {
                    if let Some(down) = design.tech().size_down(design.size(g)) {
                        design.set_size(g, down);
                    }
                    seeds.extend(design.circuit().node(g).fanin.iter().copied());
                }
            }
            undos.push(ssta.recompute_cone(&design, &fm, &seeds));
        }
        for undo in undos.into_iter().rev() {
            ssta.undo(undo);
        }
        prop_assert!(ssta == snapshot, "undo chain must restore the exact state");
    }

    #[test]
    fn yield_bounded_and_monotone(seed in 0u64..200) {
        let mut spec = GenSpec::new(format!("ssta_y{seed}"), 5, 2, 25, 5);
        spec.seed = seed;
        let circuit = Arc::new(generate(&spec));
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())
            .expect("factors");
        let design = Design::new(circuit, tech);
        let ssta = Ssta::analyze(&design, &fm);
        let mu = ssta.circuit_delay().mean;
        let mut prev = 0.0;
        for k in [0.5, 0.8, 1.0, 1.2, 2.0] {
            let y = ssta.timing_yield(k * mu);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y >= prev - 1e-12);
            prev = y;
        }
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_delays_track_full_analysis_through_undo_and_commit(
        seed in 0u64..500,
        steps in prop::collection::vec((0usize..30, 0usize..6), 1..16),
    ) {
        let mut spec = GenSpec::new(format!("ssta_cache{seed}"), 6, 3, 30, 6);
        spec.seed = seed;
        let circuit = Arc::new(generate(&spec));
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())
            .expect("factors");
        let mut design = Design::new(circuit, tech);
        let mut ssta = Ssta::analyze(&design, &fm);
        let gates: Vec<_> = design.circuit().gates().collect();
        let mut pending: Vec<(SstaUndo, Revert)> = Vec::new();

        for (step, (gi, action)) in steps.into_iter().enumerate() {
            match action {
                4 => {
                    if let Some((undo, revert)) = pending.pop() {
                        ssta.undo(undo);
                        revert.apply(&mut design);
                    }
                }
                5 => pending.clear(),
                _ => {
                    let (revert, seeds) = apply_move(&mut design, gates[gi % gates.len()], action);
                    pending.push((ssta.recompute_cone(&design, &fm, &seeds), revert));
                }
            }
            let full = Ssta::analyze(&design, &fm);
            prop_assert!(ssta == full, "step {step} (action {action}) diverged from full analysis");
            let (a, b) = (ssta.circuit_delay(), full.circuit_delay());
            prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            prop_assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        }
    }
}
