//! The move loop both optimizers run: promote gates up a Vth ladder, then
//! downsize, keeping each move only if a [`TimingCheck`] accepts it. The
//! deterministic optimizer checks nominal STA against a guard-banded
//! budget ([`NominalCheck`]), the statistical one SSTA timing yield
//! against a floor ([`YieldCheck`]).

use crate::{seeds_for_resize, seeds_for_vth_swap, TracePoint};
use rayon::prelude::*;
use statleak_leakage::LeakageAnalysis;
use statleak_netlist::NodeId;
use statleak_obs as obs;
use statleak_ssta::Ssta;
use statleak_sta::Sta;
use statleak_tech::{Design, FactorModel, VthClass};

/// What an optimizer's timing constraint supplies to the move loop.
pub(crate) trait TimingCheck: Sync {
    /// Per-node slack (indexed by `NodeId::index`) that ranks this
    /// pass's Vth candidates.
    fn slacks(&self, design: &Design) -> Vec<f64>;

    /// Leakage of gate `g`, the saving a Vth move is ranked by.
    fn leakage(&self, design: &Design, g: NodeId) -> f64;

    /// Re-times the cone of `seeds` after a move and keeps it if the
    /// constraint holds; otherwise restores the old timing.
    fn retime(&mut self, design: &Design, seeds: &[NodeId]) -> bool;

    /// Called once for every accepted move on gate `g`.
    fn accepted(&mut self, _design: &Design, _g: NodeId) {}
}

/// The most passes [`run`] makes.
pub(crate) const MAX_PASSES: usize = 8;

/// Runs up to [`MAX_PASSES`] passes of Vth promotion up `ladder`
/// (ascending) and downsizing, each move kept only if `check` accepts it,
/// until a pass accepts nothing. Returns the accepted downsizing moves and
/// the passes run.
pub(crate) fn run(
    design: &mut Design,
    check: &mut impl TimingCheck,
    ladder: &[VthClass],
) -> (usize, usize) {
    // Per-move telemetry is batched in locals and flushed to the global
    // counters once per run, keeping atomic traffic out of the loop.
    let mut tried = 0u64;
    let mut vth_swaps = 0usize;
    let mut downsized = 0usize;
    let mut passes = 0usize;

    for _ in 0..MAX_PASSES {
        passes += 1;
        let mut accepted = 0usize;

        let vth_span = obs::span!("opt.vth_pass");
        let slacks = check.slacks(design);
        for (g, rung) in rank_vth_candidates(design, &*check, ladder, &slacks) {
            let current = design.vth(g);
            // Try the rungs above the current one, highest (leanest) first,
            // and keep the first the check accepts — so a gate that can
            // afford High is never parked at Mid.
            for &target in ladder[rung + 1..].iter().rev() {
                design.set_vth(g, target);
                tried += 1;
                if check.retime(design, &seeds_for_vth_swap(design, g, current)) {
                    check.accepted(design, g);
                    accepted += 1;
                    vth_swaps += 1;
                    break;
                }
                design.set_vth(g, current);
            }
        }
        drop(vth_span);

        // Downsizing: biggest gates first.
        let _down_span = obs::span!("opt.downsize_pass");
        let mut sized: Vec<NodeId> = design
            .circuit()
            .gates()
            .filter(|&g| design.size(g) > 1.0)
            .collect();
        sized.sort_by(|&a, &b| design.size(b).total_cmp(&design.size(a)));
        for g in sized {
            let old = design.size(g);
            let Some(down) = design.size_down(old) else {
                continue;
            };
            design.set_size(g, down);
            tried += 1;
            if check.retime(design, &seeds_for_resize(design, g)) {
                check.accepted(design, g);
                accepted += 1;
                downsized += 1;
            } else {
                design.set_size(g, old);
            }
        }

        if accepted == 0 {
            break;
        }
    }

    let accepted_total = (vth_swaps + downsized) as u64;
    obs::counter!("opt_moves_tried_total").add(tried);
    obs::counter!("opt_moves_accepted_total").add(accepted_total);
    obs::counter!("opt_moves_rejected_total").add(tried - accepted_total);
    obs::counter!("opt_vth_swaps_total").add(vth_swaps as u64);
    obs::counter!("opt_downsizes_total").add(downsized as u64);
    obs::counter!("opt_passes_total").add(passes as u64);
    (downsized, passes)
}

/// The gates below the top of `ladder` with their rung, ranked
/// TILOS-style: moves whose slack covers the nominal delay penalty of one
/// rung up ("free" moves) come first ordered by leakage, then constrained
/// moves ordered by leakage per unit of slack shortfall.
///
/// Scoring is read-only per candidate and fans out on rayon; the ordered
/// collect plus the serial **stable** sort keep the ranking bit-identical
/// to fully-serial scoring for any thread count.
fn rank_vth_candidates(
    design: &Design,
    check: &impl TimingCheck,
    ladder: &[VthClass],
    slacks: &[f64],
) -> Vec<(NodeId, usize)> {
    let mut scored: Vec<(NodeId, usize, bool, f64)> = design
        .circuit()
        .gates()
        .filter_map(|g| {
            let rung = ladder.iter().position(|&c| c == design.vth(g))?;
            (rung + 1 < ladder.len()).then_some((g, rung))
        })
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(g, rung)| {
            let penalty = vth_penalty(design, g, ladder[rung + 1]);
            let slack = slacks[g.index()];
            let saving = check.leakage(design, g);
            if slack >= penalty {
                (g, rung, true, saving)
            } else {
                (g, rung, false, saving / (penalty - slack).max(1e-9))
            }
        })
        .collect();
    scored.sort_by(|a, b| b.2.cmp(&a.2).then(b.3.total_cmp(&a.3)));
    scored.into_iter().map(|(g, r, ..)| (g, r)).collect()
}

/// Nominal delay penalty of swapping gate `g` from its current Vth flavor
/// to `target`, at its current size and load (ps).
fn vth_penalty(design: &Design, g: NodeId, target: VthClass) -> f64 {
    let node = design.circuit().node(g);
    let c_load = design.load_cap(g);
    let delay = |vth| {
        design
            .library()
            .delay_nominal(node.kind, node.fanin.len(), design.size(g), vth, c_load)
    };
    delay(target) - delay(design.vth(g))
}

/// The deterministic constraint: the nominal critical path stays within
/// `budget`; moves are ranked by nominal slack and nominal leakage.
pub(crate) struct NominalCheck {
    pub sta: Sta,
    /// Delay budget (ps), already guard-banded.
    pub budget: f64,
}

impl TimingCheck for NominalCheck {
    fn slacks(&self, design: &Design) -> Vec<f64> {
        self.sta.slacks(design, self.budget).slack
    }

    fn leakage(&self, design: &Design, g: NodeId) -> f64 {
        design.gate_leakage_nominal(g)
    }

    fn retime(&mut self, design: &Design, seeds: &[NodeId]) -> bool {
        let undo = self.sta.recompute_cone(design, seeds);
        let holds = self.sta.circuit_delay() <= self.budget + 1e-9;
        if !holds {
            self.sta.undo(undo);
        }
        holds
    }
}

/// A trajectory snapshot event is emitted every this many accepted moves
/// (when tracing is enabled).
const TRAJECTORY_EVERY: usize = 64;

/// The statistical constraint: timing yield `P(D ≤ t_clk)` stays at or
/// above `floor`; moves are ranked by mean statistical slack and mean
/// leakage, and every accepted move updates the leakage analysis and
/// extends the convergence trace.
pub(crate) struct YieldCheck<'a> {
    pub fm: &'a FactorModel,
    pub ssta: Ssta,
    pub leak: LeakageAnalysis,
    pub t_clk: f64,
    /// Yield floor every accepted move keeps.
    pub floor: f64,
    /// Convergence trace: the start, then one point per accepted move.
    pub trace: Vec<TracePoint>,
}

impl YieldCheck<'_> {
    /// The objective: the 95th percentile of total leakage power (W), the
    /// paper's choice because it protects the sellable-parts leakage spec.
    pub fn objective(&self, design: &Design) -> f64 {
        self.leak.total_power(design).quantile(0.95)
    }

    /// Appends the design's current objective and yield to the trace.
    pub fn record(&mut self, design: &Design) -> TracePoint {
        let point = TracePoint {
            accepted_moves: self.trace.len(),
            objective: self.objective(design),
            timing_yield: self.ssta.timing_yield(self.t_clk),
        };
        self.trace.push(point);
        point
    }
}

impl TimingCheck for YieldCheck<'_> {
    /// Mean slack against the yield-equivalent clock: the clock shifted
    /// by how far the floor's delay quantile sits above the mean delay.
    fn slacks(&self, design: &Design) -> Vec<f64> {
        let t_floor = self
            .ssta
            .clock_for_yield(self.floor.clamp(1e-9, 1.0 - 1e-9));
        let t_eff = self.t_clk - (t_floor - self.ssta.circuit_delay().mean);
        self.ssta.mean_slack(design, t_eff)
    }

    fn leakage(&self, _design: &Design, g: NodeId) -> f64 {
        self.leak.gate_mean_current(g)
    }

    fn retime(&mut self, design: &Design, seeds: &[NodeId]) -> bool {
        let undo = self.ssta.recompute_cone(design, self.fm, seeds);
        let holds = self.ssta.timing_yield(self.t_clk) >= self.floor;
        if !holds {
            self.ssta.undo(undo);
        }
        holds
    }

    fn accepted(&mut self, design: &Design, g: NodeId) {
        self.leak.update_gate(design, self.fm, g);
        let point = self.record(design);
        if obs::enabled() && point.accepted_moves.is_multiple_of(TRAJECTORY_EVERY) {
            obs::event(
                "opt.trajectory",
                &[
                    ("accepted_moves", point.accepted_moves as f64),
                    ("objective", point.objective),
                    ("timing_yield", point.timing_yield),
                ],
            );
        }
    }
}
