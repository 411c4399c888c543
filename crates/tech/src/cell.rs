//! Per-cell delay and leakage equations with first-order sensitivities.
//!
//! Delay follows the alpha-power law
//!
//! ```text
//! d = k_delay · r_stack · (1 + ΔL/L) · (C_par·w + C_load) · Vdd
//!     ─────────────────────────────────────────────────────────
//!                w · (Vdd − Vth − ΔVth_eff)^alpha
//! ```
//!
//! and sub-threshold leakage is exponential in the effective threshold
//!
//! ```text
//! I = i0 · w · s_state · exp(−(Vth + ΔVth_eff) / (n·vT))
//! ΔVth_eff = vth_l_coeff · (ΔL/L) + ΔVth_rand
//! ```
//!
//! Shorter channels (negative `ΔL/L`) *lower* the threshold (roll-off), so
//! fast die are leaky die — the correlation the statistical optimizer must
//! respect and the deterministic one ignores.
//!
//! The closed forms are crate-private: evaluation goes through the
//! [`crate::CellLibrary`] trait, resolved once per flow
//! ([`crate::BuiltinLibrary`] wraps exactly these closed forms;
//! [`crate::LibertyLibrary`] substitutes characterized `.lib` values).

use crate::params::{Technology, VthClass};
use statleak_netlist::GateKind;

/// Effective series-stack resistance multiplier of a gate kind with the
/// given fanin count (drive degradation from stacked devices).
pub fn stack_resistance(kind: GateKind, fanin: usize) -> f64 {
    debug_assert!(fanin >= 1);
    match kind {
        GateKind::Input => 0.0,
        GateKind::Buff | GateKind::Not => 1.0,
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            1.0 + 0.30 * (fanin.saturating_sub(1) as f64)
        }
        GateKind::Xor | GateKind::Xnor => 1.6,
    }
}

/// State-averaged leakage factor of a gate kind (stack effect: series
/// devices in the off path suppress sub-threshold leakage).
pub fn leak_state_factor(kind: GateKind, fanin: usize) -> f64 {
    debug_assert!(fanin >= 1);
    match kind {
        GateKind::Input => 0.0,
        GateKind::Buff => 1.2, // two stages
        GateKind::Not => 1.0,
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            1.0 / (1.0 + 0.8 * (fanin.saturating_sub(1) as f64))
        }
        GateKind::Xor | GateKind::Xnor => 1.3, // more devices
    }
}

/// Per-input-state leakage factor of a gate kind.
///
/// `state` is a bitmask over the cell's input pins (bit `i` set = pin `i`
/// high, `0 ≤ state < 2^fanin`). The profile models the series-stack
/// effect — for NAND/AND every *low* input adds an off NMOS in series;
/// for NOR/OR every *high* input adds an off PMOS — and is normalized so
/// the arithmetic mean over all `2^fanin` states equals
/// [`leak_state_factor`] (the scalar the averaged model consumes).
pub fn leak_state_factor_for_state(kind: GateKind, fanin: usize, state: usize) -> f64 {
    debug_assert!(fanin >= 1);
    debug_assert!(state < (1usize << fanin));
    let states = 1usize << fanin;
    let raw = |s: usize| -> f64 {
        let ones = (s & (states - 1)).count_ones() as f64;
        let zeros = fanin as f64 - ones;
        match kind {
            GateKind::Input => 0.0,
            // Off devices in the series stack suppress leakage.
            GateKind::And | GateKind::Nand => 1.0 / (1.0 + 0.8 * zeros),
            GateKind::Or | GateKind::Nor => 1.0 / (1.0 + 0.8 * ones),
            // Single-input and pass-structure cells: mild input asymmetry.
            GateKind::Buff | GateKind::Not => 1.0 + 0.1 * (ones - zeros),
            GateKind::Xor | GateKind::Xnor => 1.0,
        }
    };
    let total: f64 = (0..states).map(raw).sum();
    leak_state_factor(kind, fanin) * raw(state) * states as f64 / total
}

// ---------------------------------------------------------------------------
// The closed forms. `BuiltinLibrary` and the Liberty characterizer both call
// these, so every path evaluates the identical floating-point expression.
// ---------------------------------------------------------------------------

/// Input capacitance presented by one gate pin (fF).
#[inline]
pub(crate) fn input_cap(tech: &Technology, size: f64) -> f64 {
    tech.c_gate * size
}

/// Full (non-linearized) gate delay under a parameter perturbation (ps).
///
/// This is the model the Monte-Carlo engine evaluates; SSTA uses its
/// first-order expansion ([`delay_sensitivities`]).
///
/// # Panics
///
/// Panics (debug) if called for [`GateKind::Input`].
// The argument list mirrors the physical model's parameter vector; bundling
// it into a struct would just move the same eight names one level down.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gate_delay(
    tech: &Technology,
    kind: GateKind,
    fanin: usize,
    size: f64,
    vth_class: VthClass,
    c_load: f64,
    delta_l_rel: f64,
    delta_vth_rand: f64,
) -> f64 {
    debug_assert!(kind.is_gate(), "inputs have no delay");
    let vth_eff = tech.vth(vth_class) + tech.vth_l_coeff * delta_l_rel + delta_vth_rand;
    let overdrive = (tech.vdd - vth_eff).max(0.05 * tech.vdd);
    let c_total = tech.c_par * size + c_load;
    tech.k_delay * stack_resistance(kind, fanin) * (1.0 + delta_l_rel) * c_total * tech.vdd
        / (size * overdrive.powf(tech.alpha))
}

/// Nominal gate delay (no variation), ps.
pub(crate) fn gate_delay_nominal(
    tech: &Technology,
    kind: GateKind,
    fanin: usize,
    size: f64,
    vth_class: VthClass,
    c_load: f64,
) -> f64 {
    gate_delay(tech, kind, fanin, size, vth_class, c_load, 0.0, 0.0)
}

/// First-order delay sensitivities at the nominal point.
///
/// Returns `(d_nom, ∂d/∂(ΔL/L), ∂d/∂ΔVth)` where the `ΔL/L` derivative
/// already folds in the threshold roll-off path `∂d/∂Vth · dVth/dL`.
pub(crate) fn delay_sensitivities(
    tech: &Technology,
    kind: GateKind,
    fanin: usize,
    size: f64,
    vth_class: VthClass,
    c_load: f64,
) -> (f64, f64, f64) {
    let d = gate_delay_nominal(tech, kind, fanin, size, vth_class, c_load);
    let overdrive = tech.vdd - tech.vth(vth_class);
    // ∂d/∂Vth = alpha · d / (Vdd − Vth)
    let dd_dvth = tech.alpha * d / overdrive;
    // ∂d/∂(ΔL/L): direct transit term (d ∝ L) plus the roll-off path.
    let dd_dl = d + dd_dvth * tech.vth_l_coeff;
    (d, dd_dl, dd_dvth)
}

/// Full (non-linearized) sub-threshold leakage current (A).
pub(crate) fn leakage_current(
    tech: &Technology,
    kind: GateKind,
    fanin: usize,
    size: f64,
    vth_class: VthClass,
    delta_l_rel: f64,
    delta_vth_rand: f64,
) -> f64 {
    debug_assert!(kind.is_gate(), "inputs do not leak");
    let vth_eff = tech.vth(vth_class) + tech.vth_l_coeff * delta_l_rel + delta_vth_rand;
    tech.i0 * size * leak_state_factor(kind, fanin) * (-vth_eff / tech.n_vt()).exp()
}

/// Nominal leakage current (A).
pub(crate) fn leakage_nominal(
    tech: &Technology,
    kind: GateKind,
    fanin: usize,
    size: f64,
    vth_class: VthClass,
) -> f64 {
    leakage_current(tech, kind, fanin, size, vth_class, 0.0, 0.0)
}

/// ln-space leakage description: `(ln I_nom, ∂lnI/∂(ΔL/L), ∂lnI/∂ΔVth)`.
///
/// Because leakage is *exactly* exponential in the Gaussian parameters in
/// this model, the ln-space expansion is exact, and per-gate leakage is an
/// exact lognormal — which is what makes Wilkinson summation the right
/// full-chip aggregation.
pub(crate) fn ln_leakage(
    tech: &Technology,
    kind: GateKind,
    fanin: usize,
    size: f64,
    vth_class: VthClass,
) -> (f64, f64, f64) {
    let ln_nom = leakage_nominal(tech, kind, fanin, size, vth_class).ln();
    let dln_dvth = -1.0 / tech.n_vt();
    let dln_dl = dln_dvth * tech.vth_l_coeff;
    (ln_nom, dln_dl, dln_dvth)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::ptm100()
    }

    #[test]
    fn high_vth_is_slower_and_less_leaky() {
        let t = tech();
        let d_l = gate_delay_nominal(&t, GateKind::Nand, 2, 2.0, VthClass::Low, 10.0);
        let d_h = gate_delay_nominal(&t, GateKind::Nand, 2, 2.0, VthClass::High, 10.0);
        assert!(d_h > d_l * 1.10 && d_h < d_l * 1.30, "{d_l} vs {d_h}");
        let i_l = leakage_nominal(&t, GateKind::Nand, 2, 2.0, VthClass::Low);
        let i_h = leakage_nominal(&t, GateKind::Nand, 2, 2.0, VthClass::High);
        assert!(i_l / i_h > 15.0 && i_l / i_h < 30.0);
    }

    #[test]
    fn upsizing_speeds_up_under_external_load() {
        let t = tech();
        let d1 = gate_delay_nominal(&t, GateKind::Nor, 2, 1.0, VthClass::Low, 20.0);
        let d2 = gate_delay_nominal(&t, GateKind::Nor, 2, 4.0, VthClass::Low, 20.0);
        assert!(d2 < d1);
        // But leakage grows linearly with size.
        let i1 = leakage_nominal(&t, GateKind::Nor, 2, 1.0, VthClass::Low);
        let i4 = leakage_nominal(&t, GateKind::Nor, 2, 4.0, VthClass::Low);
        assert!((i4 / i1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn min_size_inverter_calibration() {
        // ~100 nA at low Vth, ~20x less at high Vth.
        let t = tech();
        let i = leakage_nominal(&t, GateKind::Not, 1, 1.0, VthClass::Low);
        assert!(i > 5e-8 && i < 2e-7, "low-Vth inverter leaks {i} A");
        let ih = leakage_nominal(&t, GateKind::Not, 1, 1.0, VthClass::High);
        assert!(i / ih > 15.0);
    }

    #[test]
    fn shorter_channel_is_faster_and_leakier() {
        let t = tech();
        let d0 = gate_delay(&t, GateKind::Nand, 2, 2.0, VthClass::Low, 10.0, 0.0, 0.0);
        let dm = gate_delay(&t, GateKind::Nand, 2, 2.0, VthClass::Low, 10.0, -0.1, 0.0);
        assert!(dm < d0, "short channel should be faster");
        let i0 = leakage_current(&t, GateKind::Nand, 2, 2.0, VthClass::Low, 0.0, 0.0);
        let im = leakage_current(&t, GateKind::Nand, 2, 2.0, VthClass::Low, -0.1, 0.0);
        assert!(im > i0 * 1.5, "short channel should be much leakier");
    }

    #[test]
    fn delay_sensitivities_match_finite_differences() {
        let t = tech();
        let (d, dd_dl, dd_dvth) =
            delay_sensitivities(&t, GateKind::Nand, 3, 2.0, VthClass::Low, 12.0);
        let h = 1e-6;
        let fd_l = (gate_delay(&t, GateKind::Nand, 3, 2.0, VthClass::Low, 12.0, h, 0.0)
            - gate_delay(&t, GateKind::Nand, 3, 2.0, VthClass::Low, 12.0, -h, 0.0))
            / (2.0 * h);
        let fd_v = (gate_delay(&t, GateKind::Nand, 3, 2.0, VthClass::Low, 12.0, 0.0, h)
            - gate_delay(&t, GateKind::Nand, 3, 2.0, VthClass::Low, 12.0, 0.0, -h))
            / (2.0 * h);
        assert!((dd_dl - fd_l).abs() / d < 1e-4, "dl: {dd_dl} vs {fd_l}");
        assert!(
            (dd_dvth - fd_v).abs() / dd_dvth.abs() < 1e-4,
            "dvth: {dd_dvth} vs {fd_v}"
        );
    }

    #[test]
    fn ln_leakage_matches_full_model() {
        let t = tech();
        let (ln_nom, dln_dl, dln_dvth) = ln_leakage(&t, GateKind::Nor, 2, 3.0, VthClass::High);
        for &(dl, dv) in &[(0.05, 0.0), (-0.08, 0.01), (0.0, -0.02)] {
            let exact = leakage_current(&t, GateKind::Nor, 2, 3.0, VthClass::High, dl, dv).ln();
            let lin = ln_nom + dln_dl * dl + dln_dvth * dv;
            // Exact because the model is exactly exponential.
            assert!((exact - lin).abs() < 1e-9, "dl={dl} dv={dv}");
        }
    }

    #[test]
    fn stack_factors_monotone_in_fanin() {
        assert!(stack_resistance(GateKind::Nand, 3) > stack_resistance(GateKind::Nand, 2));
        assert!(leak_state_factor(GateKind::Nand, 3) < leak_state_factor(GateKind::Nand, 2));
    }

    #[test]
    fn per_state_factors_average_to_scalar() {
        for (kind, fanin) in [
            (GateKind::Nand, 2),
            (GateKind::Nand, 4),
            (GateKind::Nor, 3),
            (GateKind::And, 2),
            (GateKind::Or, 4),
            (GateKind::Not, 1),
            (GateKind::Buff, 1),
            (GateKind::Xor, 2),
        ] {
            let states = 1usize << fanin;
            let mean: f64 = (0..states)
                .map(|s| leak_state_factor_for_state(kind, fanin, s))
                .sum::<f64>()
                / states as f64;
            let scalar = leak_state_factor(kind, fanin);
            assert!(
                (mean - scalar).abs() < 1e-12,
                "{kind:?}/{fanin}: mean {mean} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn nand_all_high_state_is_leakiest() {
        // All inputs high = full NMOS stack on, leakage through PMOS: the
        // NAND's worst state; each low input adds a series off device.
        let f = |s| leak_state_factor_for_state(GateKind::Nand, 2, s);
        assert!(f(0b11) > f(0b01));
        assert!(f(0b01) > f(0b00));
    }

    #[test]
    fn overdrive_floor_prevents_blowup() {
        // Even absurd Vth shifts keep the delay finite and positive.
        let t = tech();
        let d = gate_delay(&t, GateKind::Not, 1, 1.0, VthClass::High, 5.0, 0.0, 2.0);
        assert!(d.is_finite() && d > 0.0);
    }
}
