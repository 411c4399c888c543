//! TILOS-style greedy gate sizing.
//!
//! Builds the optimization starting point: beginning from all-minimum
//! sizes, repeatedly upsize the critical-path gate with the best estimated
//! delay reduction until the target is met (or no move helps). This is the
//! classic sensitivity-driven sizing loop; it is not globally optimal. The
//! deterministic flow sizes with [`size_for_delay`] to `t_clk·(1−g)`, the
//! statistical one with [`size_for_yield`] to `Φ(z_η + m)` at each sizing
//! margin `m`, so the two flows start from different designs.

use crate::seeds_for_resize;
use statleak_netlist::NodeId;
use statleak_obs as obs;
use statleak_sta::Sta;
use statleak_tech::Design;

/// Error returned when the delay target cannot be met by sizing alone.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeError {
    /// The best circuit delay achievable by the greedy sizer (ps).
    pub achieved: f64,
    /// The requested target (ps).
    pub target: f64,
}

impl std::fmt::Display for SizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sizing cannot reach {:.2} ps (best achievable {:.2} ps)",
            self.target, self.achieved
        )
    }
}

impl std::error::Error for SizeError {}

/// One greedy upsizing step: picks the critical-path gate whose one-step
/// upsize most reduces the circuit delay. Returns the new circuit delay,
/// or `None` if no upsizing move improves it.
fn best_upsize_step(design: &mut Design, sta: &mut Sta) -> Option<f64> {
    let before = sta.circuit_delay();
    let path = sta.critical_path(design);
    let mut best: Option<(NodeId, f64, f64)> = None; // (gate, new_size, delay)
    for &g in &path {
        if !design.circuit().node(g).kind.is_gate() {
            continue;
        }
        let old = design.size(g);
        let Some(up) = design.size_up(old) else {
            continue;
        };
        design.set_size(g, up);
        let undo = sta.recompute_cone(design, &seeds_for_resize(design, g));
        let after = sta.circuit_delay();
        sta.undo(undo);
        design.set_size(g, old);
        if after < before - 1e-12 && best.as_ref().is_none_or(|&(_, _, d)| after < d) {
            best = Some((g, up, after));
        }
    }
    let (g, up, _) = best?;
    design.set_size(g, up);
    sta.recompute_cone(design, &seeds_for_resize(design, g));
    Some(sta.circuit_delay())
}

/// Sizes the design for (approximately) minimum delay; returns the
/// achieved circuit delay (ps). Mutates the design in place.
pub fn size_for_min_delay(design: &mut Design) -> f64 {
    let _span = obs::span!("sizing.min_delay");
    let mut sta = Sta::analyze(design);
    while best_upsize_step(design, &mut sta).is_some() {}
    sta.circuit_delay()
}

/// Sizes the design to meet a delay target, stopping as soon as the target
/// is met (keeping the design as small — hence as leakage-lean — as the
/// greedy allows). Returns the achieved delay.
///
/// # Errors
///
/// Returns [`SizeError`] if greedy sizing cannot reach the target.
pub fn size_for_delay(design: &mut Design, t_clk: f64) -> Result<f64, SizeError> {
    let _span = obs::span!("sizing.for_delay");
    let mut sta = Sta::analyze(design);
    let mut delay = sta.circuit_delay();
    while delay > t_clk {
        match best_upsize_step(design, &mut sta) {
            Some(d) => delay = d,
            None => {
                return Err(SizeError {
                    achieved: delay,
                    target: t_clk,
                })
            }
        }
    }
    Ok(delay)
}

/// Estimates the minimum achievable delay without mutating the caller's
/// design (clones internally).
pub fn min_delay_estimate(design: &Design) -> f64 {
    let mut copy = design.clone();
    size_for_min_delay(&mut copy)
}

/// Sizes the design until the **timing yield** at `t_clk` reaches `eta` —
/// the starting point of the statistical flow. Candidates come from the
/// mean-critical path; each step commits the upsize that most improves the
/// yield. Returns the achieved yield.
///
/// # Errors
///
/// Returns [`SizeError`] (with `achieved` carrying the yield-equivalent
/// clock `clock_for_yield(eta)`) if no upsizing move can reach the target.
pub fn size_for_yield(
    design: &mut Design,
    fm: &statleak_tech::FactorModel,
    t_clk: f64,
    eta: f64,
) -> Result<f64, SizeError> {
    use statleak_ssta::Ssta;
    let _span = obs::span!("sizing.for_yield");
    assert!(eta > 0.0 && eta < 1.0, "eta must be in (0,1)");
    let mut ssta = Ssta::analyze(design, fm);
    loop {
        // Minimize the yield-equivalent clock `μ + Φ⁻¹(η)·σ`: identical to
        // maximizing the yield when close to the target, but — unlike the
        // yield itself — it keeps a usable gradient when the design is
        // still many sigma away (where `Φ` is numerically flat).
        let t_eta = ssta.clock_for_yield(eta);
        if t_eta <= t_clk {
            return Ok(ssta.timing_yield(t_clk));
        }
        let path = ssta.mean_critical_path(design);
        let mut best: Option<(NodeId, f64, f64)> = None; // (gate, size, t_eta)
        for &g in &path {
            if !design.circuit().node(g).kind.is_gate() {
                continue;
            }
            let old = design.size(g);
            let Some(up) = design.size_up(old) else {
                continue;
            };
            design.set_size(g, up);
            let undo = ssta.recompute_cone(design, fm, &seeds_for_resize(design, g));
            let t_new = ssta.clock_for_yield(eta);
            ssta.undo(undo);
            design.set_size(g, old);
            if t_new < t_eta - 1e-12 && best.as_ref().is_none_or(|&(_, _, bt)| t_new < bt) {
                best = Some((g, up, t_new));
            }
        }
        match best {
            Some((g, up, _)) => {
                design.set_size(g, up);
                ssta.recompute_cone(design, fm, &seeds_for_resize(design, g));
            }
            None => {
                // The mean-critical path is saturated or its single-path
                // improvements vanish under the statistical max of many
                // balanced paths. Fall back to one nominal-delay greedy
                // step (which re-traces the nominal critical path), then
                // resynchronize. Sizes grow monotonically in both step
                // kinds, so this always terminates.
                let mut sta = Sta::analyze(design);
                if best_upsize_step(design, &mut sta).is_none() {
                    return Err(SizeError {
                        achieved: t_eta,
                        target: t_clk,
                    });
                }
                ssta = Ssta::analyze(design, fm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
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
    fn min_delay_beats_unsized() {
        let mut d = design("c432");
        let before = Sta::analyze(&d).circuit_delay();
        let dmin = size_for_min_delay(&mut d);
        assert!(dmin < before, "{dmin} vs {before}");
        assert!((Sta::analyze(&d).circuit_delay() - dmin).abs() < 1e-9);
    }

    #[test]
    fn size_for_relaxed_target_touches_little() {
        let mut d = design("c499");
        let before = Sta::analyze(&d).circuit_delay();
        let achieved = size_for_delay(&mut d, before * 1.5).unwrap();
        assert!(achieved <= before * 1.5);
        // Relaxed target met without any sizing at all.
        assert!((d.total_width() - d.circuit().num_gates() as f64).abs() < 1e-9);
    }

    #[test]
    fn size_for_tight_target_upsizes() {
        let mut d = design("c880");
        let dmin = min_delay_estimate(&d);
        let achieved = size_for_delay(&mut d, 1.10 * dmin).unwrap();
        assert!(achieved <= 1.10 * dmin);
        assert!(d.total_width() > d.circuit().num_gates() as f64);
    }

    #[test]
    fn impossible_target_errors_with_achievable() {
        let mut d = design("c432");
        let dmin = min_delay_estimate(&d);
        let err = size_for_delay(&mut d, dmin * 0.5).unwrap_err();
        assert!(err.achieved >= dmin * 0.9);
        assert!(err.to_string().contains("cannot reach"));
    }

    #[test]
    fn min_delay_estimate_does_not_mutate() {
        let d = design("c432");
        let before = d.clone();
        let _ = min_delay_estimate(&d);
        assert_eq!(d, before);
    }
}
