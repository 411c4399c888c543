//! Placement-driven wire-load model.
//!
//! The baseline load model charges a fixed stub capacitance per fanout
//! branch (`Technology::c_wire`). For placed designs we can do better:
//! estimate each net's length as the half-perimeter of the bounding box of
//! its driver and sinks (the standard HPWL pre-route estimate), scale by
//! the per-unit wire capacitance, and fold the result into the driver's
//! load. [`crate::Design::set_wire_caps`] installs the per-net extra
//! capacitance so every downstream analysis (STA, SSTA, leakage-through-
//! sizing, Monte Carlo) sees it transparently.

use statleak_netlist::placement::Placement;
use statleak_netlist::Circuit;

/// Wire parasitics per unit die length.
#[derive(Debug, Clone, PartialEq)]
pub struct WireModel {
    /// Wire capacitance per unit of die edge length (fF). The die is the
    /// unit square, so a corner-to-corner net sees `≈ 2·c_per_unit`.
    pub c_per_unit: f64,
    /// Minimum net length charged even for abutting cells (local routing).
    pub min_length: f64,
}

impl WireModel {
    /// The default 100 nm global-wire estimate: a full die crossing adds
    /// ~40 fF (≈ 20 gate loads), abutting cells ~0.4 fF.
    pub fn ptm100() -> Self {
        Self {
            c_per_unit: 40.0,
            min_length: 0.01,
        }
    }
}

impl Default for WireModel {
    fn default() -> Self {
        Self::ptm100()
    }
}

/// Computes the half-perimeter wirelength of each node's output net.
pub fn net_hpwl(circuit: &Circuit, placement: &Placement) -> Vec<f64> {
    let mut hpwl = vec![0.0; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.fanout.is_empty() {
            continue;
        }
        let (mut xmin, mut ymin) = placement.position(id);
        let (mut xmax, mut ymax) = (xmin, ymin);
        for &f in node.fanout {
            let (x, y) = placement.position(f);
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        hpwl[id.index()] = (xmax - xmin) + (ymax - ymin);
    }
    hpwl
}

/// Computes per-net extra wire capacitance (fF) from the placement, ready
/// for [`crate::Design::set_wire_caps`]. The fixed per-branch stub
/// (`Technology::c_wire`) remains in the load model; this adds the
/// distance-dependent part.
pub fn wire_caps_from_placement(
    circuit: &Circuit,
    placement: &Placement,
    model: &WireModel,
) -> Vec<f64> {
    net_hpwl(circuit, placement)
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            if circuit
                .fanout(statleak_netlist::NodeId(i as u32))
                .is_empty()
            {
                0.0
            } else {
                model.c_per_unit * l.max(model.min_length)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Design, Technology};
    use statleak_netlist::benchmarks;
    use std::sync::Arc;

    #[test]
    fn hpwl_positive_for_driving_nodes() {
        let c = benchmarks::by_name("c432").unwrap();
        let p = Placement::by_level(&c);
        let h = net_hpwl(&c, &p);
        for id in c.gates() {
            if !c.node(id).fanout.is_empty() {
                assert!(h[id.index()] >= 0.0);
            }
        }
        // At least some nets span a visible distance.
        assert!(h.iter().copied().fold(0.0, f64::max) > 0.05);
    }

    #[test]
    fn high_fanout_nets_are_longer() {
        let c = benchmarks::by_name("c880").unwrap();
        let p = Placement::by_level(&c);
        let h = net_hpwl(&c, &p);
        let mut by_fanout: Vec<(usize, f64)> = c
            .topo_order()
            .iter()
            .map(|&id| (c.node(id).fanout.len(), h[id.index()]))
            .filter(|&(f, _)| f > 0)
            .collect();
        by_fanout.sort_by_key(|&(f, _)| f);
        let small: Vec<f64> = by_fanout
            .iter()
            .filter(|&&(f, _)| f == 1)
            .map(|&(_, l)| l)
            .collect();
        let large: Vec<f64> = by_fanout
            .iter()
            .filter(|&&(f, _)| f >= 4)
            .map(|&(_, l)| l)
            .collect();
        if !small.is_empty() && !large.is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(mean(&large) > mean(&small));
        }
    }

    #[test]
    fn wire_caps_slow_the_circuit() {
        let circuit = Arc::new(benchmarks::by_name("c499").unwrap());
        let p = Placement::by_level(&circuit);
        let mut d = Design::new(Arc::clone(&circuit), Technology::ptm100());
        let before: f64 = circuit.gates().map(|g| d.load_cap(g)).sum();
        let caps = wire_caps_from_placement(&circuit, &p, &WireModel::ptm100());
        d.set_wire_caps(caps);
        let after: f64 = circuit.gates().map(|g| d.load_cap(g)).sum();
        assert!(
            after > before * 1.2,
            "wire load should be visible: {before} -> {after}"
        );
    }

    #[test]
    fn min_length_floor_applies() {
        let c = benchmarks::c17();
        let p = Placement::by_level(&c);
        let model = WireModel {
            c_per_unit: 10.0,
            min_length: 0.5,
        };
        let caps = wire_caps_from_placement(&c, &p, &model);
        for id in c.topo_order() {
            if !c.node(*id).fanout.is_empty() {
                assert!(caps[id.index()] >= 5.0 - 1e-12);
            }
        }
    }
}
