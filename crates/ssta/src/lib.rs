//! First-order canonical statistical static timing analysis (SSTA).
//!
//! Every timing quantity is kept in *canonical first-order form*
//! (Visweswariah/Chang-Sapatnekar style):
//!
//! ```text
//! A = mean + Σ_k a_k · Z_k + a_r · R
//! ```
//!
//! where the `Z_k` are the shared process factors from
//! [`statleak_tech::FactorModel`] (die-to-die + spatially correlated
//! channel-length factors) and `R` is an aggregated node-local independent
//! term. Addition is exact; `max` uses Clark's two-moment approximation
//! with tightness-probability blending of the sensitivity vectors.
//!
//! The circuit-level result is the canonical circuit delay, from which the
//! *timing yield* `P(D ≤ T_clk) = Φ((T_clk − μ)/σ)` falls out directly —
//! the constraint the paper's statistical optimizer enforces in place of
//! the deterministic slack test.
//!
//! # Example
//!
//! ```
//! use statleak_netlist::{benchmarks, placement::Placement};
//! use statleak_tech::{Design, FactorModel, Technology, VariationConfig};
//! use statleak_ssta::Ssta;
//! use std::sync::Arc;
//!
//! let circuit = Arc::new(benchmarks::by_name("c432").expect("known"));
//! let placement = Placement::by_level(&circuit);
//! let tech = Technology::ptm100();
//! let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())?;
//! let design = Design::new(circuit, tech);
//! let ssta = Ssta::analyze(&design, &fm);
//! let d = ssta.circuit_delay();
//! // Yield at the mean is ~50%, at mean + 3σ it is ~99.9%.
//! assert!((ssta.timing_yield(d.mean) - 0.5).abs() < 0.05);
//! assert!(ssta.timing_yield(d.mean + 3.0 * d.variance.sqrt()) > 0.99);
//! # Ok::<(), statleak_stats::CholeskyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
#[cfg(any(test, feature = "dense-ref"))]
pub mod dense_ref;

pub use canonical::Canonical;

use rayon::prelude::*;
use statleak_netlist::{Circuit, ConeScratch, NodeId};
use statleak_obs as obs;
use statleak_stats::phi;
use statleak_tech::{Design, FactorModel};

/// Minimum number of gates in a level block before propagation of that
/// level fans out across threads; below this the spawn/collect overhead of
/// the ordered-collect shim outweighs the win.
const PAR_LEVEL_MIN_GATES: usize = 256;

/// Builds the canonical delay of one gate from the factor model.
pub fn gate_delay_canonical(design: &Design, fm: &FactorModel, id: NodeId) -> Canonical {
    let mut out = Canonical::constant(0.0, fm.num_shared());
    gate_delay_canonical_into(design, fm, id, &mut out);
    out
}

/// Writes the canonical delay of one gate into `out`, reusing its shared
/// allocation. Bit-identical to [`gate_delay_canonical`].
pub fn gate_delay_canonical_into(
    design: &Design,
    fm: &FactorModel,
    id: NodeId,
    out: &mut Canonical,
) {
    delay_canonical_into(fm, id, delay_sensitivities(design, id), out);
}

/// First-order delay scalars of one gate: `(d, ∂d/∂(ΔL/L), ∂d/∂ΔVth)`.
type DelaySens = (f64, f64, f64);

/// Marks a [`Ssta`] delay-cache slot not yet read from the design.
const UNREAD: DelaySens = (f64::NAN, f64::NAN, f64::NAN);

fn delay_sensitivities(design: &Design, id: NodeId) -> DelaySens {
    let circuit = design.circuit();
    debug_assert!(circuit.kind(id).is_gate(), "inputs have no delay");
    design.library().delay_sensitivities(
        circuit.kind(id),
        circuit.fanin(id).len(),
        design.size(id),
        design.vth(id),
        design.load_cap(id),
    )
}

/// Expands a gate's delay scalars into its canonical delay over the
/// factor model.
fn delay_canonical_into(
    fm: &FactorModel,
    id: NodeId,
    (d, dd_dl, dd_dvth): DelaySens,
    out: &mut Canonical,
) {
    let (idx, val) = fm.l_shared_row(id);
    out.mean = d;
    // Scaling the factor row's nonzeros reproduces the dense
    // `map(|a| dd_dl * a)` bit for bit: the skipped entries are exact
    // zeros, whose scaled value (±0.0) is semantically zero everywhere
    // downstream.
    out.shared.assign_scaled(fm.num_shared(), idx, val, dd_dl);
    out.local = ((dd_dl * fm.l_local(id)).powi(2) + (dd_dvth * fm.vth_local(id)).powi(2)).sqrt();
    out.variance = out.shared.norm2() + out.local * out.local;
}

/// Statistical arrival-time state for one design.
///
/// Besides the timing state proper (`arrival`, `circuit_delay`), the
/// struct owns reusable scratch buffers so per-move incremental updates
/// touch only the affected cone and perform no full-circuit allocation,
/// and a per-gate cache of delay scalars that [`Ssta::recompute_cone`]
/// allocates on first use. Equality ([`PartialEq`]) compares only the
/// timing state — cache and scratch contents are incidental.
#[derive(Debug, Clone)]
pub struct Ssta {
    arrival: Vec<Canonical>,
    circuit_delay: Canonical,
    /// Delay scalars per node as of the last synchronized design; empty
    /// until the first cone update, [`UNREAD`] where not yet read.
    delays: Vec<DelaySens>,
    scratch: ConeScratch,
    work: Canonical,
    delay_work: Canonical,
}

impl PartialEq for Ssta {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.circuit_delay == other.circuit_delay
    }
}

/// Undo log for [`Ssta::recompute_cone`].
///
/// Flat: the overwritten forms are stored field by field, their
/// sensitivities concatenated into one index and one value buffer, so an
/// update allocates a handful of buffers however many arrivals change.
#[derive(Debug, Clone)]
pub struct SstaUndo {
    /// Node id of each saved arrival, in save order.
    nodes: Vec<u32>,
    /// `(mean, local, variance)` of each saved form. One entry longer than
    /// `nodes` when the circuit delay was saved (always last).
    moments: Vec<(f64, f64, f64)>,
    /// End offset of each saved form's entries in `idx`/`val`.
    ends: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
    /// Seed delay-cache slots as they were before the update.
    delays: Vec<(u32, DelaySens)>,
}

impl SstaUndo {
    fn with_capacity(cone_len: usize, seeds: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cone_len),
            moments: Vec::with_capacity(cone_len + 1),
            ends: Vec::with_capacity(cone_len + 1),
            idx: Vec::new(),
            val: Vec::new(),
            delays: Vec::with_capacity(seeds),
        }
    }

    fn save(&mut self, c: &Canonical) {
        let (idx, val) = (c.shared.indices(), c.shared.values());
        if self.idx.capacity() == 0 {
            // Arrivals in one cone have similar sparsity, so the first
            // saved form sizes the buffers for the whole update.
            self.idx.reserve(self.ends.capacity() * idx.len());
            self.val.reserve(self.ends.capacity() * idx.len());
        }
        self.moments.push((c.mean, c.local, c.variance));
        self.idx.extend_from_slice(idx);
        self.val.extend_from_slice(val);
        self.ends.push(self.idx.len());
    }

    fn restore(&self, k: usize, c: &mut Canonical) {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        let end = self.ends[k];
        (c.mean, c.local, c.variance) = self.moments[k];
        c.shared
            .assign_parts(&self.idx[start..end], &self.val[start..end]);
    }
}

impl Ssta {
    /// Runs a full statistical timing analysis.
    ///
    /// Propagation is *level-partitioned*: the topological order is grouped
    /// into level blocks (every gate's fanins sit at strictly lower
    /// levels), and each block wide enough to amortize the spawn cost is
    /// propagated in parallel via the ordered-collect rayon shim. Per-gate
    /// arrivals are pure functions of lower-level arrivals and the fold
    /// order within each gate and over the outputs is unchanged, so the
    /// result is bit-identical to the sequential topo-order walk for every
    /// thread count.
    pub fn analyze(design: &Design, fm: &FactorModel) -> Self {
        let _span = obs::span!("ssta.propagate");
        obs::counter!("ssta_full_analyze_total").inc();
        let circuit = design.circuit();
        let ns = fm.num_shared();
        let zero = Canonical::constant(0.0, ns);
        let mut arrival = vec![zero; circuit.num_nodes()];
        let threads = rayon::current_num_threads();
        let mut work = Canonical::constant(0.0, ns);
        let mut delay = Canonical::constant(0.0, ns);
        for lvl in 1..=circuit.depth() {
            let ids = circuit.level_nodes(lvl);
            if ids.is_empty() {
                continue;
            }
            let parallel = threads > 1 && ids.len() >= PAR_LEVEL_MIN_GATES;
            let t0 = obs::enabled().then(std::time::Instant::now);
            if parallel {
                let computed: Vec<Canonical> = ids
                    .into_par_iter()
                    .map(|&id| Self::gate_arrival(design, fm, &arrival, id))
                    .collect();
                for (&id, c) in ids.iter().zip(computed) {
                    arrival[id.index()] = c;
                }
            } else {
                for &id in ids {
                    debug_assert!(circuit.kind(id).is_gate(), "levels ≥ 1 hold only gates");
                    let sens = delay_sensitivities(design, id);
                    Self::gate_arrival_into(circuit, fm, &arrival, id, sens, &mut work, &mut delay);
                    arrival[id.index()].clone_from_canonical(&work);
                }
            }
            if let Some(t0) = t0 {
                obs::histogram!("ssta_level_gates").record(ids.len() as u64);
                obs::histogram!("ssta_level_us").record(t0.elapsed().as_micros() as u64);
                if parallel {
                    obs::counter!("ssta_parallel_levels_total").inc();
                } else {
                    obs::counter!("ssta_sequential_levels_total").inc();
                }
            }
        }
        let mut circuit_delay = Canonical::constant(0.0, ns);
        Self::max_output_arrival_into(circuit, &arrival, &mut circuit_delay);
        Self {
            arrival,
            circuit_delay,
            delays: Vec::new(),
            scratch: ConeScratch::new(),
            work,
            delay_work: delay,
        }
    }

    fn gate_arrival(
        design: &Design,
        fm: &FactorModel,
        arrival: &[Canonical],
        id: NodeId,
    ) -> Canonical {
        let mut out = Canonical::constant(0.0, fm.num_shared());
        let mut delay = Canonical::constant(0.0, fm.num_shared());
        let sens = delay_sensitivities(design, id);
        Self::gate_arrival_into(
            design.circuit(),
            fm,
            arrival,
            id,
            sens,
            &mut out,
            &mut delay,
        );
        out
    }

    /// Computes a gate's canonical arrival into `out` from its delay
    /// scalars, using only in-place canonical ops; `delay` is a second
    /// scratch for the gate's own delay. The fold order (fanin list order,
    /// accumulator first) matches the historical allocating
    /// implementation, so results are bit-identical.
    fn gate_arrival_into(
        circuit: &Circuit,
        fm: &FactorModel,
        arrival: &[Canonical],
        id: NodeId,
        sens: DelaySens,
        out: &mut Canonical,
        delay: &mut Canonical,
    ) {
        let mut fanin = circuit.fanin(id).iter();
        let first = fanin.next().expect("gates have fanin");
        out.clone_from_canonical(&arrival[first.index()]);
        for &f in fanin {
            out.stat_max_into(&arrival[f.index()]);
        }
        delay_canonical_into(fm, id, sens, delay);
        out.add_assign(delay);
    }

    /// Folds the output arrivals into `out` in place; bit-identical to the
    /// allocating `worst = worst.stat_max(a)` fold from a zero constant.
    fn max_output_arrival_into(circuit: &Circuit, arrival: &[Canonical], out: &mut Canonical) {
        out.set_constant(0.0);
        for &o in circuit.outputs() {
            out.stat_max_into(&arrival[o.index()]);
        }
    }

    /// The canonical arrival time of a node.
    #[inline]
    pub fn arrival(&self, id: NodeId) -> &Canonical {
        &self.arrival[id.index()]
    }

    /// The canonical circuit delay (statistical max over outputs).
    #[inline]
    pub fn circuit_delay(&self) -> &Canonical {
        &self.circuit_delay
    }

    /// Timing yield at a clock period: `P(D ≤ t_clk)`.
    pub fn timing_yield(&self, t_clk: f64) -> f64 {
        let d = &self.circuit_delay;
        let sigma = d.variance.sqrt();
        if sigma == 0.0 {
            return if d.mean <= t_clk { 1.0 } else { 0.0 };
        }
        phi((t_clk - d.mean) / sigma)
    }

    /// The clock period achieving a target yield: `μ + Φ⁻¹(η)·σ`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is not strictly inside `(0, 1)`.
    pub fn clock_for_yield(&self, eta: f64) -> f64 {
        let d = &self.circuit_delay;
        d.mean + statleak_stats::phi_inv(eta) * d.variance.sqrt()
    }

    /// Recomputes canonical arrivals in the union of fanout cones of
    /// `seeds`, returning an undo log (same seed contract as the
    /// deterministic `Sta::recompute_cone`: include every node whose own
    /// delay may have changed).
    ///
    /// The seed contract is load-bearing: gate delays are cached, and only
    /// the seeds' entries are re-read from the design. The cache is
    /// allocated on the first call and each slot is filled the first time
    /// its gate is met in a cone, so analysis-only callers never pay for
    /// it. A non-seed gate's delay is by contract the same before and
    /// after the move, so filling its slot needs no undo entry.
    ///
    /// Incremental: the owned [`ConeScratch`] collects only cone nodes
    /// (epoch-stamped visited marks, sorted by topological rank), so cost
    /// scales with the cone, not the circuit. Changed arrivals are
    /// overwritten in place and their old values copied into the flat
    /// undo log. The output fold is skipped entirely when no primary
    /// output's arrival changed — in that case the stat-max over outputs
    /// would reproduce the cached value bit for bit, since it reads
    /// nothing else.
    pub fn recompute_cone(
        &mut self,
        design: &Design,
        fm: &FactorModel,
        seeds: &[NodeId],
    ) -> SstaUndo {
        let circuit = design.circuit();
        circuit.collect_fanout_cone(seeds, &mut self.scratch);
        if self.delays.is_empty() {
            self.delays = vec![UNREAD; circuit.num_nodes()];
        }
        let mut undo = SstaUndo::with_capacity(self.scratch.cone().len(), seeds.len());
        for &s in seeds {
            if circuit.kind(s).is_gate() {
                let fresh = delay_sensitivities(design, s);
                let old = std::mem::replace(&mut self.delays[s.index()], fresh);
                undo.delays.push((s.0, old));
            }
        }
        let mut output_changed = false;
        for &id in self.scratch.cone() {
            if !circuit.kind(id).is_gate() {
                continue;
            }
            let slot = &mut self.delays[id.index()];
            if slot.0.is_nan() {
                *slot = delay_sensitivities(design, id);
            }
            let sens = *slot;
            Self::gate_arrival_into(
                circuit,
                fm,
                &self.arrival,
                id,
                sens,
                &mut self.work,
                &mut self.delay_work,
            );
            let arrival = &mut self.arrival[id.index()];
            if self.work != *arrival {
                output_changed |= circuit.is_output(id);
                undo.nodes.push(id.0);
                undo.save(arrival);
                arrival.clone_from_canonical(&self.work);
            }
        }
        if output_changed {
            undo.save(&self.circuit_delay);
            Self::max_output_arrival_into(circuit, &self.arrival, &mut self.circuit_delay);
        }
        // The per-move hot path stays metric-free unless tracing is on:
        // cone stats are diagnostics, not service counters.
        if obs::enabled() {
            obs::counter!("ssta_cone_recomputes_total").inc();
            obs::histogram!("ssta_cone_nodes").record(self.scratch.cone().len() as u64);
            if output_changed {
                obs::counter!("ssta_cone_output_folds_total").inc();
            }
        }
        undo
    }

    /// Rolls back a [`Ssta::recompute_cone`] update: arrivals, circuit
    /// delay and the seeds' cached delays.
    pub fn undo(&mut self, undo: SstaUndo) {
        if undo.moments.len() > undo.nodes.len() {
            undo.restore(undo.nodes.len(), &mut self.circuit_delay);
        }
        for (k, &raw) in undo.nodes.iter().enumerate().rev() {
            undo.restore(k, &mut self.arrival[raw as usize]);
        }
        for &(raw, old) in undo.delays.iter().rev() {
            self.delays[raw as usize] = old;
        }
    }

    /// Samples the yield curve `P(D ≤ t)` at the given clock periods.
    pub fn yield_curve(&self, t_values: &[f64]) -> Vec<(f64, f64)> {
        t_values
            .iter()
            .map(|&t| (t, self.timing_yield(t)))
            .collect()
    }

    /// An approximate statistical slack for each node against a clock
    /// period: deterministic backward pass over nominal delays, minus the
    /// node's mean arrival. Used only to order optimizer candidates
    /// (feasibility is always re-checked with the full yield).
    pub fn mean_slack(&self, design: &Design, t_clk: f64) -> Vec<f64> {
        let required = design
            .circuit()
            .required_times(t_clk, |id| design.gate_delay_nominal(id));
        required
            .iter()
            .zip(&self.arrival)
            .map(|(r, a)| r - a.mean)
            .collect()
    }

    /// Computes the canonical *path-through* delay of every node: the
    /// distribution of the longest input→output path constrained to pass
    /// through that node, `P_u = A_u + R_u`, where `R_u` is the downstream
    /// (node-to-output) canonical computed by a backward statistical-max
    /// pass. The `A`/`R` correlation through shared factors is handled by
    /// the canonical addition; reconvergent local correlation is ignored
    /// (the standard block-based approximation).
    pub fn path_through(&self, design: &Design, fm: &FactorModel) -> Vec<Canonical> {
        let circuit = design.circuit();
        let n = circuit.num_nodes();
        let zero = Canonical::constant(0.0, fm.num_shared());
        let mut downstream: Vec<Option<Canonical>> = vec![None; n];
        for &o in circuit.outputs() {
            downstream[o.index()] = Some(zero.clone());
        }
        let order: Vec<NodeId> = circuit.reverse_topo().collect();
        for &u in &order {
            // R_u = max over fanouts v of (d_v + R_v), blended with an
            // existing output contribution if u is itself an output.
            let mut best = downstream[u.index()].clone();
            for &v in circuit.fanout(u) {
                let Some(rv) = &downstream[v.index()] else {
                    continue;
                };
                let through_v = gate_delay_canonical(design, fm, v).add(rv);
                best = Some(match best {
                    None => through_v,
                    Some(b) => b.stat_max(&through_v),
                });
            }
            downstream[u.index()] = best;
        }
        (0..n)
            .map(|i| {
                let a = &self.arrival[i];
                match &downstream[i] {
                    Some(r) => a.add(r),
                    // Node reaches no output: its path-through is just its
                    // own arrival (never critical).
                    None => a.clone(),
                }
            })
            .collect()
    }

    /// Gate criticalities at a clock period: `P(P_u > t_clk)` per node —
    /// the probability the node sits on a timing-violating path. The most
    /// critical node's value approximates `1 − yield(t_clk)`.
    ///
    /// ```
    /// # use statleak_netlist::{benchmarks, placement::Placement};
    /// # use statleak_tech::{Design, FactorModel, Technology, VariationConfig};
    /// # use statleak_ssta::Ssta;
    /// # use std::sync::Arc;
    /// # let circuit = Arc::new(benchmarks::c17());
    /// # let placement = Placement::by_level(&circuit);
    /// # let tech = Technology::ptm100();
    /// # let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())?;
    /// # let design = Design::new(circuit, tech);
    /// let ssta = Ssta::analyze(&design, &fm);
    /// let crit = ssta.criticalities(&design, &fm, ssta.circuit_delay().mean);
    /// assert!(crit.iter().all(|&c| (0.0..=1.0).contains(&c)));
    /// # Ok::<(), statleak_stats::CholeskyError>(())
    /// ```
    pub fn criticalities(&self, design: &Design, fm: &FactorModel, t_clk: f64) -> Vec<f64> {
        self.path_through(design, fm)
            .iter()
            .map(|p| {
                let s = p.std();
                if s == 0.0 {
                    if p.mean > t_clk {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    1.0 - phi((t_clk - p.mean) / s)
                }
            })
            .collect()
    }

    /// Traces the mean-critical path: the latest-mean-arrival chain from
    /// the worst output back to a primary input, input first. Used by the
    /// statistical sizer to pick upsizing candidates.
    pub fn mean_critical_path(&self, design: &Design) -> Vec<NodeId> {
        design
            .circuit()
            .latest_path(|id| self.arrival[id.index()].mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statleak_netlist::{benchmarks, placement::Placement};
    use statleak_sta_like::*;
    use statleak_tech::{Technology, VariationConfig, VthClass};
    use std::sync::Arc;

    /// Local helpers shared by the tests.
    mod statleak_sta_like {
        use super::*;

        pub fn setup(name: &str) -> (Design, FactorModel) {
            let circuit = Arc::new(benchmarks::by_name(name).unwrap());
            let placement = Placement::by_level(&circuit);
            let tech = Technology::ptm100();
            let fm = FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100())
                .unwrap();
            (Design::new(circuit, tech), fm)
        }
    }

    #[test]
    fn mean_tracks_deterministic_sta_loosely() {
        // Statistical mean of max ≥ deterministic max; within ~15%.
        let (d, fm) = setup("c432");
        let ssta = Ssta::analyze(&d, &fm);
        let sta = statleak_sta::Sta::analyze(&d);
        let mu = ssta.circuit_delay().mean;
        let det = sta.circuit_delay();
        assert!(mu >= det - 1e-9, "mean {mu} < det {det}");
        assert!(mu < det * 1.15, "mean {mu} too far above det {det}");
    }

    #[test]
    fn yield_monotone_in_clock() {
        let (d, fm) = setup("c880");
        let ssta = Ssta::analyze(&d, &fm);
        let mu = ssta.circuit_delay().mean;
        let ys: Vec<f64> = ssta
            .yield_curve(&[0.9 * mu, mu, 1.05 * mu, 1.2 * mu])
            .iter()
            .map(|&(_, y)| y)
            .collect();
        assert!(ys.windows(2).all(|w| w[0] <= w[1]));
        assert!(ys[0] < 0.5 && ys[3] > 0.9);
    }

    #[test]
    fn clock_for_yield_inverts_yield() {
        let (d, fm) = setup("c499");
        let ssta = Ssta::analyze(&d, &fm);
        for &eta in &[0.5, 0.9, 0.99] {
            let t = ssta.clock_for_yield(eta);
            assert!((ssta.timing_yield(t) - eta).abs() < 1e-6, "eta {eta}");
        }
    }

    #[test]
    fn sigma_reasonable_fraction_of_mean() {
        // With a 6.67% L sigma, circuit delay sigma/mean lands in 2-8%.
        let (d, fm) = setup("c1355");
        let ssta = Ssta::analyze(&d, &fm);
        let cd = ssta.circuit_delay();
        let cv = cd.variance.sqrt() / cd.mean;
        assert!(cv > 0.02 && cv < 0.10, "cv = {cv}");
    }

    #[test]
    fn high_vth_shifts_mean_up() {
        let (mut d, fm) = setup("c432");
        let before = Ssta::analyze(&d, &fm).circuit_delay().mean;
        let gates: Vec<_> = d.circuit().gates().collect();
        for g in gates {
            d.set_vth(g, VthClass::High);
        }
        let after = Ssta::analyze(&d, &fm).circuit_delay().mean;
        assert!(after > before * 1.10);
    }

    #[test]
    fn incremental_matches_full() {
        let (mut d, fm) = setup("c432");
        let mut ssta = Ssta::analyze(&d, &fm);
        let g = d.circuit().gates().nth(33).unwrap();
        d.set_vth(g, VthClass::High);
        ssta.recompute_cone(&d, &fm, &[g]);
        let full = Ssta::analyze(&d, &fm);
        let a = ssta.circuit_delay();
        let b = full.circuit_delay();
        assert!((a.mean - b.mean).abs() < 1e-9);
        assert!((a.variance - b.variance).abs() < 1e-9);
    }

    #[test]
    fn undo_restores_exactly() {
        let (mut d, fm) = setup("c499");
        let mut ssta = Ssta::analyze(&d, &fm);
        let snapshot = ssta.clone();
        let g = d.circuit().gates().nth(7).unwrap();
        d.set_size(g, 3.0);
        let mut seeds = vec![g];
        seeds.extend(d.circuit().fanin(g).iter().copied());
        let undo = ssta.recompute_cone(&d, &fm, &seeds);
        ssta.undo(undo);
        assert_eq!(ssta, snapshot);
    }

    #[test]
    fn mean_slack_negative_on_critical_nodes_at_tight_clock() {
        let (d, fm) = setup("c880");
        let ssta = Ssta::analyze(&d, &fm);
        let t = ssta.circuit_delay().mean * 0.9;
        let slacks = ssta.mean_slack(&d, t);
        assert!(slacks.iter().copied().fold(f64::INFINITY, f64::min) < 0.0);
    }

    #[test]
    fn correlated_variance_exceeds_independent() {
        // Killing spatial correlation reduces circuit-delay variance
        // (averaging effect over independent terms).
        let circuit = Arc::new(benchmarks::by_name("c880").unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let cfg = VariationConfig::ptm100();
        let fm_corr = FactorModel::build(&circuit, &placement, &tech, &cfg).unwrap();
        let fm_ind = FactorModel::build(
            &circuit,
            &placement,
            &tech,
            &cfg.without_spatial_correlation(),
        )
        .unwrap();
        let d = Design::new(circuit, tech);
        let v_corr = Ssta::analyze(&d, &fm_corr).circuit_delay().variance;
        let v_ind = Ssta::analyze(&d, &fm_ind).circuit_delay().variance;
        assert!(v_corr > v_ind, "corr {v_corr} vs ind {v_ind}");
    }
}

#[cfg(test)]
mod criticality_tests {
    use super::*;
    use statleak_netlist::{benchmarks, placement::Placement};
    use statleak_tech::{Technology, VariationConfig};
    use std::sync::Arc;

    fn setup(name: &str) -> (Design, FactorModel) {
        let circuit = Arc::new(benchmarks::by_name(name).unwrap());
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm =
            FactorModel::build(&circuit, &placement, &tech, &VariationConfig::ptm100()).unwrap();
        (Design::new(circuit, tech), fm)
    }

    #[test]
    fn path_through_bounds_circuit_delay() {
        // No node's path-through mean can exceed the circuit-delay mean by
        // more than the max-approximation slack; the best node should be
        // close to it.
        let (d, fm) = setup("c432");
        let ssta = Ssta::analyze(&d, &fm);
        let pts = ssta.path_through(&d, &fm);
        let cd = ssta.circuit_delay().mean;
        let best = pts.iter().map(|p| p.mean).fold(0.0, f64::max);
        assert!(
            best <= cd * 1.02,
            "best path-through {best} vs circuit {cd}"
        );
        assert!(
            best >= cd * 0.98,
            "best path-through {best} vs circuit {cd}"
        );
    }

    #[test]
    fn critical_path_nodes_are_most_critical() {
        let (d, fm) = setup("c880");
        let ssta = Ssta::analyze(&d, &fm);
        let t = ssta.circuit_delay().mean; // ~50% yield point
        let crit = ssta.criticalities(&d, &fm, t);
        let path = ssta.mean_critical_path(&d);
        let max_crit = crit.iter().copied().fold(0.0, f64::max);
        for &u in &path {
            assert!(
                crit[u.index()] > 0.5 * max_crit,
                "critical-path node {u} criticality {} vs max {max_crit}",
                crit[u.index()]
            );
        }
    }

    #[test]
    fn criticality_approximates_one_minus_yield() {
        let (d, fm) = setup("c499");
        let ssta = Ssta::analyze(&d, &fm);
        for k in [1.0, 1.05, 1.1] {
            let t = k * ssta.circuit_delay().mean;
            let crit = ssta.criticalities(&d, &fm, t);
            let max_crit = crit.iter().copied().fold(0.0, f64::max);
            let miss = 1.0 - ssta.timing_yield(t);
            assert!(
                (max_crit - miss).abs() < 0.10 + 0.3 * miss,
                "k={k}: max criticality {max_crit} vs miss rate {miss}"
            );
        }
    }

    #[test]
    fn criticality_monotone_in_clock() {
        let (d, fm) = setup("c432");
        let ssta = Ssta::analyze(&d, &fm);
        let mu = ssta.circuit_delay().mean;
        let tight = ssta.criticalities(&d, &fm, 0.95 * mu);
        let loose = ssta.criticalities(&d, &fm, 1.10 * mu);
        for (t, l) in tight.iter().zip(&loose) {
            assert!(l <= t, "looser clock cannot raise criticality");
        }
    }
}
