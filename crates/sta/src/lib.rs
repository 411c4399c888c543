//! Deterministic static timing analysis (STA) for `statleak` designs.
//!
//! Block-based STA over the combinational DAG: primary inputs arrive at
//! `t = 0`, each gate's arrival is the max of its fanin arrivals plus the
//! gate's nominal delay, and the circuit delay is the max arrival over the
//! primary outputs. The deterministic dual-Vth/sizing optimizer — the
//! paper's comparison baseline — is built entirely on this analysis.
//!
//! [`Sta`] keeps the arrival state alive between optimizer moves and
//! supports *incremental cone updates* with an undo log, so a candidate
//! move (Vth swap or resize) can be evaluated and rolled back in time
//! proportional to its fanout cone rather than the whole circuit.
//!
//! # Example
//!
//! ```
//! use statleak_netlist::benchmarks;
//! use statleak_tech::{Design, Technology};
//! use statleak_sta::Sta;
//! use std::sync::Arc;
//!
//! let design = Design::new(Arc::new(benchmarks::c17()), Technology::ptm100());
//! let sta = Sta::analyze(&design);
//! assert!(sta.circuit_delay() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod slew;

pub use slew::SlewSta;

use rayon::prelude::*;
use statleak_netlist::{Circuit, ConeScratch, NodeId};
use statleak_obs as obs;
use statleak_tech::Design;

/// Minimum gates in a level before parallel propagation pays for the
/// scatter/collect overhead; below this the sequential loop is used.
const PAR_LEVEL_MIN_GATES: usize = 256;

/// Deterministic arrival-time state for one design.
///
/// Owns a reusable [`ConeScratch`] so incremental cone updates neither
/// allocate a full-circuit visited array nor scan the whole topological
/// order, and a per-gate nominal-delay cache that
/// [`Sta::recompute_cone`] allocates on first use. Equality compares only
/// the timing state (arrivals and circuit delay); cache and scratch are
/// incidental.
#[derive(Debug, Clone)]
pub struct Sta {
    arrival: Vec<f64>,
    circuit_delay: f64,
    /// Nominal delay per node as of the last synchronized design; empty
    /// until the first cone update, NaN where not yet read.
    delays: Vec<f64>,
    scratch: ConeScratch,
}

impl PartialEq for Sta {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.circuit_delay == other.circuit_delay
    }
}

/// Undo log returned by [`Sta::recompute_cone`]; pass to [`Sta::undo`] to
/// roll the analysis state back to before the update.
#[derive(Debug, Clone)]
pub struct StaUndo {
    changed: Vec<(u32, f64)>,
    /// Seed delay-cache slots as they were before the update.
    delays: Vec<(u32, f64)>,
    old_circuit_delay: f64,
}

impl Sta {
    /// Runs a full timing analysis of the design.
    ///
    /// Propagation walks the circuit level by level (levels partition the
    /// topological order); within a level every gate's fanins sit at
    /// strictly lower levels, so large levels are computed in parallel with
    /// results scattered back in node order — bit-identical to the
    /// sequential walk at any thread count.
    pub fn analyze(design: &Design) -> Self {
        let _span = obs::span!("sta.propagate");
        obs::counter!("sta_full_analyze_total").inc();
        let circuit = design.circuit();
        let threads = rayon::current_num_threads();
        let mut arrival = vec![0.0; circuit.num_nodes()];
        for lvl in 1..=circuit.depth() {
            let ids = circuit.level_nodes(lvl);
            if threads > 1 && ids.len() >= PAR_LEVEL_MIN_GATES {
                let computed: Vec<f64> = ids
                    .into_par_iter()
                    .map(|&id| {
                        Self::gate_arrival(design, &arrival, id, design.gate_delay_nominal(id))
                    })
                    .collect();
                for (&id, a) in ids.iter().zip(computed) {
                    arrival[id.index()] = a;
                }
            } else {
                for &id in ids {
                    debug_assert!(circuit.kind(id).is_gate(), "levels >= 1 hold only gates");
                    let d = design.gate_delay_nominal(id);
                    arrival[id.index()] = Self::gate_arrival(design, &arrival, id, d);
                }
            }
        }
        let circuit_delay = Self::max_output_arrival(circuit, &arrival);
        Self {
            arrival,
            circuit_delay,
            delays: Vec::new(),
            scratch: ConeScratch::new(),
        }
    }

    /// A gate's arrival: the latest fanin arrival plus its delay `d`.
    fn gate_arrival(design: &Design, arrival: &[f64], id: NodeId, d: f64) -> f64 {
        let node = design.circuit().node(id);
        let worst_fanin = node
            .fanin
            .iter()
            .map(|f| arrival[f.index()])
            .fold(0.0, f64::max);
        worst_fanin + d
    }

    fn max_output_arrival(circuit: &Circuit, arrival: &[f64]) -> f64 {
        circuit
            .outputs()
            .iter()
            .map(|o| arrival[o.index()])
            .fold(0.0, f64::max)
    }

    /// Arrival time of a node (ps).
    #[inline]
    pub fn arrival(&self, id: NodeId) -> f64 {
        self.arrival[id.index()]
    }

    /// The circuit delay: latest arrival over the primary outputs (ps).
    #[inline]
    pub fn circuit_delay(&self) -> f64 {
        self.circuit_delay
    }

    /// Recomputes arrivals in the union of fanout cones of `seeds` (after
    /// the design was mutated at those nodes and/or their loads), returning
    /// an undo log that restores the previous state.
    ///
    /// `seeds` must include every node whose *own delay* may have changed:
    /// for a Vth swap on `g` that is `{g}` (plus `g`'s fanin drivers if the
    /// library's pin capacitance differs between the two flavors); for a
    /// resize of `g` it is `{g}` plus `g`'s fanin drivers (their load
    /// changed). The contract is load-bearing: gate delays are cached, and
    /// only the seeds' entries are re-read from the design. The cache is
    /// allocated on the first call and each slot is filled the first time
    /// its gate is met in a cone.
    pub fn recompute_cone(&mut self, design: &Design, seeds: &[NodeId]) -> StaUndo {
        let circuit = design.circuit();
        circuit.collect_fanout_cone(seeds, &mut self.scratch);
        if self.delays.is_empty() {
            self.delays = vec![f64::NAN; circuit.num_nodes()];
        }
        let mut undo = StaUndo {
            changed: Vec::new(),
            delays: Vec::with_capacity(seeds.len()),
            old_circuit_delay: self.circuit_delay,
        };
        for &s in seeds {
            if circuit.node(s).kind.is_gate() {
                let fresh = design.gate_delay_nominal(s);
                let old = std::mem::replace(&mut self.delays[s.index()], fresh);
                undo.delays.push((s.0, old));
            }
        }
        let mut output_changed = false;
        for &id in self.scratch.cone() {
            if !circuit.node(id).kind.is_gate() {
                continue;
            }
            let slot = &mut self.delays[id.index()];
            if slot.is_nan() {
                *slot = design.gate_delay_nominal(id);
            }
            let new = Self::gate_arrival(design, &self.arrival, id, *slot);
            let old = self.arrival[id.index()];
            if new != old {
                output_changed |= circuit.is_output(id);
                undo.changed.push((id.0, old));
                self.arrival[id.index()] = new;
            }
        }
        // The output max reads only output arrivals; when none changed it
        // would reproduce the cached value exactly, so skip the fold.
        if output_changed {
            self.circuit_delay = Self::max_output_arrival(circuit, &self.arrival);
        }
        if obs::enabled() {
            obs::counter!("sta_cone_recomputes_total").inc();
            obs::histogram!("sta_cone_nodes").record(self.scratch.cone().len() as u64);
        }
        undo
    }

    /// Rolls back a [`Sta::recompute_cone`] update: arrivals, circuit
    /// delay and the seeds' cached delays.
    pub fn undo(&mut self, undo: StaUndo) {
        for (raw, old) in undo.changed.into_iter().rev() {
            self.arrival[raw as usize] = old;
        }
        for (raw, old) in undo.delays.into_iter().rev() {
            self.delays[raw as usize] = old;
        }
        self.circuit_delay = undo.old_circuit_delay;
    }

    /// Computes required times and slacks against a clock period `t_clk`
    /// (ps). Primary outputs are required at `t_clk`; slack of a node is
    /// `required − arrival`.
    pub fn slacks(&self, design: &Design, t_clk: f64) -> Slacks {
        let required = design
            .circuit()
            .required_times(t_clk, |id| design.gate_delay_nominal(id));
        let slack = required
            .iter()
            .zip(&self.arrival)
            .map(|(r, a)| r - a)
            .collect();
        Slacks { required, slack }
    }

    /// Traces the critical path (latest-arrival chain) from the worst
    /// output back to a primary input. Returns node ids from input to
    /// output.
    pub fn critical_path(&self, design: &Design) -> Vec<NodeId> {
        design.circuit().latest_path(|id| self.arrival[id.index()])
    }
}

/// Required times and slacks produced by [`Sta::slacks`].
#[derive(Debug, Clone, PartialEq)]
pub struct Slacks {
    /// Required time per node (ps); `+inf` for nodes that reach no output.
    pub required: Vec<f64>,
    /// Slack per node (ps): `required − arrival`.
    pub slack: Vec<f64>,
}

impl Slacks {
    /// Slack of one node.
    #[inline]
    pub fn of(&self, id: NodeId) -> f64 {
        self.slack[id.index()]
    }

    /// The worst (minimum) slack over all nodes.
    pub fn worst(&self) -> f64 {
        self.slack.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statleak_netlist::benchmarks;
    use statleak_tech::{Technology, VthClass};
    use std::sync::Arc;

    fn design(name: &str) -> Design {
        Design::new(
            Arc::new(benchmarks::by_name(name).unwrap()),
            Technology::ptm100(),
        )
    }

    #[test]
    fn arrivals_monotone_along_paths() {
        let d = design("c432");
        let sta = Sta::analyze(&d);
        for g in d.circuit().gates() {
            for &f in d.circuit().node(g).fanin {
                assert!(sta.arrival(g) > sta.arrival(f), "edge {f}->{g}");
            }
        }
    }

    #[test]
    fn circuit_delay_is_max_output() {
        let d = design("c17");
        let sta = Sta::analyze(&d);
        let max_out = d
            .circuit()
            .outputs()
            .iter()
            .map(|o| sta.arrival(*o))
            .fold(0.0, f64::max);
        assert_eq!(sta.circuit_delay(), max_out);
    }

    #[test]
    fn high_vth_everywhere_slows_circuit() {
        let mut d = design("c880");
        let before = Sta::analyze(&d).circuit_delay();
        let gates: Vec<_> = d.circuit().gates().collect();
        for g in gates {
            d.set_vth(g, VthClass::High);
        }
        let after = Sta::analyze(&d).circuit_delay();
        assert!(after > before * 1.10, "{before} -> {after}");
        assert!(after < before * 1.35, "{before} -> {after}");
    }

    #[test]
    fn incremental_matches_full_on_vth_swap() {
        let mut d = design("c432");
        let mut sta = Sta::analyze(&d);
        let g = d.circuit().gates().nth(40).unwrap();
        d.set_vth(g, VthClass::High);
        sta.recompute_cone(&d, &[g]);
        let full = Sta::analyze(&d);
        assert!((sta.circuit_delay() - full.circuit_delay()).abs() < 1e-9);
        for id in d.circuit().gates() {
            assert!(
                (sta.arrival(id) - full.arrival(id)).abs() < 1e-9,
                "node {id}"
            );
        }
    }

    #[test]
    fn incremental_matches_full_on_resize() {
        let mut d = design("c432");
        let mut sta = Sta::analyze(&d);
        let g = d.circuit().gates().nth(25).unwrap();
        d.set_size(g, 4.0);
        // Seeds: the gate plus its fanin drivers (their load changed).
        let mut seeds = vec![g];
        seeds.extend(d.circuit().node(g).fanin.iter().copied());
        sta.recompute_cone(&d, &seeds);
        let full = Sta::analyze(&d);
        assert!((sta.circuit_delay() - full.circuit_delay()).abs() < 1e-9);
    }

    #[test]
    fn undo_restores_exactly() {
        let mut d = design("c499");
        let mut sta = Sta::analyze(&d);
        let snapshot = sta.clone();
        let g = d.circuit().gates().nth(10).unwrap();
        d.set_vth(g, VthClass::High);
        let undo = sta.recompute_cone(&d, &[g]);
        assert_ne!(sta, snapshot);
        sta.undo(undo);
        assert_eq!(sta, snapshot);
    }

    #[test]
    fn slacks_nonnegative_at_relaxed_clock() {
        let d = design("c880");
        let sta = Sta::analyze(&d);
        let s = sta.slacks(&d, sta.circuit_delay() * 1.2);
        assert!(s.worst() > 0.0);
    }

    #[test]
    fn slack_zero_on_critical_path_at_exact_clock() {
        let d = design("c1355");
        let sta = Sta::analyze(&d);
        let s = sta.slacks(&d, sta.circuit_delay());
        assert!(s.worst().abs() < 1e-9);
        // Critical-path nodes have ~zero slack.
        for id in sta.critical_path(&d) {
            assert!(s.of(id).abs() < 1e-6, "node {id} slack {}", s.of(id));
        }
    }

    #[test]
    fn critical_path_starts_at_input_ends_at_output() {
        let d = design("c432");
        let sta = Sta::analyze(&d);
        let path = sta.critical_path(&d);
        assert!(!d.circuit().node(*path.first().unwrap()).kind.is_gate());
        assert!(d.circuit().is_output(*path.last().unwrap()));
        // The max-delay path is at most as deep as the deepest path (they
        // need not coincide: a shallower path can carry more delay).
        let gates_on_path = path.len() - 1;
        assert!(gates_on_path >= 1);
        assert!(gates_on_path <= d.circuit().stats().depth);
        // Consecutive path nodes must be wired: each node drives the next.
        for w in path.windows(2) {
            assert!(d.circuit().node(w[1]).fanin.contains(&w[0]));
        }
    }

    #[test]
    fn upsizing_critical_gate_reduces_delay() {
        let d = design("c880");
        let sta = Sta::analyze(&d);
        let path = sta.critical_path(&d);
        // Upsizing one critical gate cuts its own delay but loads its
        // drivers, so no single fixed pick is guaranteed to win; sizing
        // leverage means *some* critical gate must win.
        let improved = path
            .iter()
            .filter(|&&g| d.circuit().node(g).kind.is_gate())
            .any(|&g| {
                let mut trial = d.clone();
                trial.set_size(g, 4.0);
                Sta::analyze(&trial).circuit_delay() < sta.circuit_delay()
            });
        assert!(improved, "no critical-path upsize reduced circuit delay");
    }
}

/// One enumerated path: its total delay and the nodes from input to
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Total path delay (sum of gate delays along it), ps.
    pub delay: f64,
    /// Node ids from a primary input to a primary output.
    pub nodes: Vec<NodeId>,
}

impl Sta {
    /// Enumerates the `k` longest input→output paths, in non-increasing
    /// delay order, by best-first backward expansion from the outputs.
    ///
    /// The priority of a partial path ending (backwards) at node `u` with
    /// downstream delay sum `s` is `arrival(u) + s`, which upper-bounds
    /// every completion and is monotone along expansion, so the first `k`
    /// completed paths popped are exactly the `k` longest.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    ///
    /// ```
    /// use statleak_netlist::benchmarks;
    /// use statleak_tech::{Design, Technology};
    /// use statleak_sta::Sta;
    /// use std::sync::Arc;
    ///
    /// let design = Design::new(Arc::new(benchmarks::c17()), Technology::ptm100());
    /// let sta = Sta::analyze(&design);
    /// let paths = sta.top_paths(&design, 3);
    /// assert!((paths[0].delay - sta.circuit_delay()).abs() < 1e-9);
    /// assert!(paths.windows(2).all(|w| w[0].delay >= w[1].delay));
    /// ```
    pub fn top_paths(&self, design: &Design, k: usize) -> Vec<TimingPath> {
        assert!(k > 0, "need at least one path");
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Partial {
            priority: f64,
            node: NodeId,
            downstream: f64,
            suffix: Vec<NodeId>, // nodes after `node`, in forward order
        }
        impl PartialEq for Partial {
            fn eq(&self, other: &Self) -> bool {
                self.priority == other.priority
            }
        }
        impl Eq for Partial {}
        impl PartialOrd for Partial {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Partial {
            fn cmp(&self, other: &Self) -> Ordering {
                self.priority.total_cmp(&other.priority)
            }
        }

        let circuit = design.circuit();
        let mut heap = BinaryHeap::new();
        for &o in circuit.outputs() {
            heap.push(Partial {
                priority: self.arrival(o),
                node: o,
                downstream: 0.0,
                suffix: Vec::new(),
            });
        }
        let mut out = Vec::with_capacity(k);
        while let Some(p) = heap.pop() {
            let node = circuit.node(p.node);
            if !node.kind.is_gate() {
                // Reached a primary input: the partial is a complete path.
                let mut nodes = vec![p.node];
                nodes.extend(p.suffix.iter().rev().copied());
                out.push(TimingPath {
                    delay: p.priority,
                    nodes,
                });
                if out.len() == k {
                    break;
                }
                continue;
            }
            let d = design.gate_delay_nominal(p.node);
            let downstream = p.downstream + d;
            for &f in node.fanin {
                let mut suffix = p.suffix.clone();
                suffix.push(p.node);
                heap.push(Partial {
                    priority: self.arrival(f) + downstream,
                    node: f,
                    downstream,
                    suffix,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use statleak_netlist::benchmarks;
    use statleak_tech::Technology;
    use std::sync::Arc;

    fn design(name: &str) -> Design {
        Design::new(
            Arc::new(benchmarks::by_name(name).unwrap()),
            Technology::ptm100(),
        )
    }

    #[test]
    fn first_path_is_the_critical_path() {
        let d = design("c432");
        let sta = Sta::analyze(&d);
        let paths = sta.top_paths(&d, 1);
        assert_eq!(paths.len(), 1);
        assert!((paths[0].delay - sta.circuit_delay()).abs() < 1e-9);
        // Ties among zero-arrival inputs make multiple critical paths
        // equally valid; compare the gate portion (which is unique here).
        let trace = sta.critical_path(&d);
        assert_eq!(paths[0].nodes[1..], trace[1..]);
    }

    #[test]
    fn paths_sorted_and_distinct() {
        let d = design("c880");
        let sta = Sta::analyze(&d);
        let paths = sta.top_paths(&d, 25);
        assert_eq!(paths.len(), 25);
        for w in paths.windows(2) {
            assert!(w[0].delay >= w[1].delay - 1e-12);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            assert!(seen.insert(p.nodes.clone()), "duplicate path");
        }
    }

    #[test]
    fn path_delays_match_recomputation() {
        let d = design("c499");
        let sta = Sta::analyze(&d);
        for p in sta.top_paths(&d, 10) {
            let sum: f64 = p
                .nodes
                .iter()
                .filter(|&&u| d.circuit().node(u).kind.is_gate())
                .map(|&u| d.gate_delay_nominal(u))
                .sum();
            assert!((sum - p.delay).abs() < 1e-9, "path delay mismatch");
            // Structural sanity: consecutive nodes are connected.
            for e in p.nodes.windows(2) {
                assert!(d.circuit().node(e[1]).fanin.contains(&e[0]));
            }
            // Ends at an output, starts at an input.
            assert!(!d.circuit().node(p.nodes[0]).kind.is_gate());
            assert!(d.circuit().is_output(*p.nodes.last().unwrap()));
        }
    }

    #[test]
    fn k_larger_than_path_count_is_fine() {
        let d = design("c17");
        let sta = Sta::analyze(&d);
        let paths = sta.top_paths(&d, 10_000);
        assert!(!paths.is_empty());
        assert!(paths.len() < 10_000, "c17 has few paths");
    }
}
