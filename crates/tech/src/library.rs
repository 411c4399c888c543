//! The [`CellLibrary`] abstraction: what every analysis asks of a cell
//! library, decoupled from *where* the numbers come from.
//!
//! Two implementations exist:
//!
//! * [`BuiltinLibrary`] — the closed-form alpha-power / exponential-leakage
//!   models of [`crate::cell`], parameterized by a [`Technology`]. This is
//!   the default and the reference semantics: a [`crate::Design`] built
//!   with [`crate::Design::new`] wraps one and produces bit-identical
//!   results to the pre-trait code paths.
//! * [`crate::LibertyLibrary`] — characterized values imported from a
//!   Liberty `.lib` file (NLDM tables, `when`-conditioned leakage,
//!   multiple Vth flavors, per-corner variants).
//!
//! The trait object is resolved **once per flow** and threaded through
//! [`crate::Design`]; hot loops call the object's methods directly. Each
//! library exposes a stable [`CellLibrary::id`] string that names the
//! *content* of the library (for the builtin: a fingerprint of the full
//! `Technology`; for Liberty: file name, corner, and a content hash), so
//! caches and session stores can key on it and never cross libraries.

use crate::cell;
use crate::params::{Technology, VthClass};
use statleak_netlist::GateKind;
use std::fmt;

/// A characterized cell library: everything the leakage, STA, SSTA,
/// Monte-Carlo, and sizing/Vth-assignment paths need to evaluate a gate.
///
/// Variational arguments (`delta_l_rel`, `delta_vth_rand`) perturb the
/// *process* around the library's nominal point; implementations agree on
/// the variational structure (roll-off coupling through `vth_l_coeff`,
/// exponential leakage in `ΔVth`) and differ in the nominal values.
#[allow(clippy::too_many_arguments)]
pub trait CellLibrary: Send + Sync + fmt::Debug {
    /// A stable identity string naming this library's content. Two
    /// libraries with equal ids must produce equal numbers; session and
    /// store hashes incorporate it so cached results never cross
    /// libraries.
    fn id(&self) -> &str;

    /// The discrete drive sizes available (multiples of minimum width),
    /// ascending.
    fn sizes(&self) -> &[f64];

    /// The threshold flavors available.
    fn vth_classes(&self) -> &[VthClass];

    /// Input capacitance presented by one pin of the cell (fF).
    fn input_cap(&self, kind: GateKind, fanin: usize, size: f64, vth: VthClass) -> f64;

    /// Full (non-linearized) gate delay under a process perturbation (ps).
    fn delay(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
        delta_l_rel: f64,
        delta_vth_rand: f64,
    ) -> f64;

    /// Nominal (no-variation) gate delay (ps).
    fn delay_nominal(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
    ) -> f64 {
        self.delay(kind, fanin, size, vth, c_load, 0.0, 0.0)
    }

    /// First-order delay sensitivities at the nominal point:
    /// `(d_nom, ∂d/∂(ΔL/L), ∂d/∂ΔVth)`.
    fn delay_sensitivities(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
    ) -> (f64, f64, f64);

    /// Full (non-linearized) state-averaged sub-threshold leakage current
    /// (A) under a process perturbation.
    fn leakage(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        delta_l_rel: f64,
        delta_vth_rand: f64,
    ) -> f64;

    /// Nominal state-averaged leakage current (A).
    fn leakage_nominal(&self, kind: GateKind, fanin: usize, size: f64, vth: VthClass) -> f64 {
        self.leakage(kind, fanin, size, vth, 0.0, 0.0)
    }

    /// ln-space leakage description:
    /// `(ln I_nom, ∂lnI/∂(ΔL/L), ∂lnI/∂ΔVth)`. The sensitivities must be
    /// state- and gate-shape-independent (they are `−1/(n·vT)` scaled), a
    /// property the region-aggregated leakage analysis relies on.
    fn ln_leakage(&self, kind: GateKind, fanin: usize, size: f64, vth: VthClass)
        -> (f64, f64, f64);

    /// Nominal leakage current (A) in one specific input state (`state` is
    /// a bitmask over input pins, bit `i` set = pin `i` high). The
    /// arithmetic mean over all `2^fanin` states equals
    /// [`CellLibrary::leakage_nominal`] up to rounding.
    fn leakage_by_state(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        state: usize,
    ) -> f64;
}

/// Fingerprints a string with the 64-bit FNV-1a hash (no external deps;
/// stability across runs is all that is required, not cryptography).
pub(crate) fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The closed-form 100 nm models of [`crate::cell`] presented through the
/// [`CellLibrary`] trait. Delegates verbatim to the crate-private closed
/// forms, which the Liberty characterizer also evaluates.
#[derive(Debug, Clone)]
pub struct BuiltinLibrary {
    tech: Technology,
    vth_classes: Vec<VthClass>,
    id: String,
}

impl BuiltinLibrary {
    /// Wraps a technology's closed-form models.
    pub fn new(tech: Technology) -> Self {
        tech.validate();
        let id = format!("builtin:{:016x}", fnv1a64(&format!("{tech:?}")));
        Self {
            tech,
            vth_classes: vec![VthClass::Low, VthClass::Mid, VthClass::High],
            id,
        }
    }

    /// The wrapped technology parameters.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }
}

impl CellLibrary for BuiltinLibrary {
    fn id(&self) -> &str {
        &self.id
    }

    fn sizes(&self) -> &[f64] {
        &self.tech.sizes
    }

    fn vth_classes(&self) -> &[VthClass] {
        &self.vth_classes
    }

    fn input_cap(&self, _kind: GateKind, _fanin: usize, size: f64, _vth: VthClass) -> f64 {
        cell::input_cap(&self.tech, size)
    }

    fn delay(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
        delta_l_rel: f64,
        delta_vth_rand: f64,
    ) -> f64 {
        cell::gate_delay(
            &self.tech,
            kind,
            fanin,
            size,
            vth,
            c_load,
            delta_l_rel,
            delta_vth_rand,
        )
    }

    fn delay_nominal(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
    ) -> f64 {
        cell::gate_delay_nominal(&self.tech, kind, fanin, size, vth, c_load)
    }

    fn delay_sensitivities(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
    ) -> (f64, f64, f64) {
        cell::delay_sensitivities(&self.tech, kind, fanin, size, vth, c_load)
    }

    fn leakage(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        delta_l_rel: f64,
        delta_vth_rand: f64,
    ) -> f64 {
        cell::leakage_current(
            &self.tech,
            kind,
            fanin,
            size,
            vth,
            delta_l_rel,
            delta_vth_rand,
        )
    }

    fn leakage_nominal(&self, kind: GateKind, fanin: usize, size: f64, vth: VthClass) -> f64 {
        cell::leakage_nominal(&self.tech, kind, fanin, size, vth)
    }

    fn ln_leakage(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
    ) -> (f64, f64, f64) {
        cell::ln_leakage(&self.tech, kind, fanin, size, vth)
    }

    fn leakage_by_state(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        state: usize,
    ) -> f64 {
        let averaged = cell::leakage_nominal(&self.tech, kind, fanin, size, vth);
        let scalar = cell::leak_state_factor(kind, fanin);
        averaged * cell::leak_state_factor_for_state(kind, fanin, state) / scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matches_closed_forms_bit_exactly() {
        let tech = Technology::ptm100();
        let lib = BuiltinLibrary::new(tech.clone());
        for (kind, fanin) in [(GateKind::Nand, 3), (GateKind::Nor, 2), (GateKind::Not, 1)] {
            for vth in [VthClass::Low, VthClass::High] {
                let d_lib = lib.delay(kind, fanin, 2.0, vth, 11.0, 0.03, -0.01);
                let d_fn = cell::gate_delay(&tech, kind, fanin, 2.0, vth, 11.0, 0.03, -0.01);
                assert_eq!(d_lib.to_bits(), d_fn.to_bits());
                let i_lib = lib.leakage(kind, fanin, 2.0, vth, 0.03, -0.01);
                let i_fn = cell::leakage_current(&tech, kind, fanin, 2.0, vth, 0.03, -0.01);
                assert_eq!(i_lib.to_bits(), i_fn.to_bits());
                let s_lib = lib.delay_sensitivities(kind, fanin, 2.0, vth, 11.0);
                let s_fn = cell::delay_sensitivities(&tech, kind, fanin, 2.0, vth, 11.0);
                assert_eq!(s_lib, s_fn);
                let l_lib = lib.ln_leakage(kind, fanin, 2.0, vth);
                let l_fn = cell::ln_leakage(&tech, kind, fanin, 2.0, vth);
                assert_eq!(l_lib, l_fn);
            }
        }
        assert_eq!(
            lib.input_cap(GateKind::Nand, 2, 3.0, VthClass::Low)
                .to_bits(),
            cell::input_cap(&tech, 3.0).to_bits()
        );
    }

    #[test]
    fn id_tracks_technology_content() {
        let a = BuiltinLibrary::new(Technology::ptm100());
        let b = BuiltinLibrary::new(Technology::ptm100());
        assert_eq!(a.id(), b.id());
        let mut t = Technology::ptm100();
        t.vth_l_coeff = 0.0;
        let c = BuiltinLibrary::new(t);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn state_leakage_averages_to_scalar() {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let avg = lib.leakage_nominal(GateKind::Nand, 3, 2.0, VthClass::Low);
        let mean: f64 = (0..8)
            .map(|s| lib.leakage_by_state(GateKind::Nand, 3, 2.0, VthClass::Low, s))
            .sum::<f64>()
            / 8.0;
        assert!((mean / avg - 1.0).abs() < 1e-12);
    }
}
