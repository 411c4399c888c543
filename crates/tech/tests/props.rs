//! Property-based tests for the device models, through the
//! [`BuiltinLibrary`] that presents the closed forms to every analysis.

use proptest::prelude::*;
use statleak_netlist::GateKind;
use statleak_tech::{BuiltinLibrary, CellLibrary, Technology, VthClass};

fn kinds() -> impl Strategy<Value = GateKind> {
    prop::sample::select(vec![
        GateKind::Not,
        GateKind::Buff,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ])
}

fn vths() -> impl Strategy<Value = VthClass> {
    prop::sample::select(vec![VthClass::Low, VthClass::High])
}

proptest! {
    #[test]
    fn delay_positive_and_finite(
        kind in kinds(),
        fanin in 1usize..5,
        size in prop::sample::select(vec![1.0, 1.5, 2.0, 4.0, 8.0, 16.0]),
        vth in vths(),
        c_load in 0.0..200.0f64,
        dl in -0.2..0.2f64,
        dv in -0.1..0.1f64,
    ) {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let d = lib.delay(kind, fanin, size, vth, c_load, dl, dv);
        prop_assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn delay_monotone_in_load(
        kind in kinds(),
        fanin in 1usize..4,
        vth in vths(),
        c1 in 0.0..100.0f64,
        extra in 0.1..100.0f64,
    ) {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let d1 = lib.delay_nominal(kind, fanin, 2.0, vth, c1);
        let d2 = lib.delay_nominal(kind, fanin, 2.0, vth, c1 + extra);
        prop_assert!(d2 > d1);
    }

    #[test]
    fn high_vth_always_slower_and_leaner(
        kind in kinds(),
        fanin in 1usize..4,
        size in prop::sample::select(vec![1.0, 2.0, 6.0]),
        c_load in 1.0..80.0f64,
    ) {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let dl = lib.delay_nominal(kind, fanin, size, VthClass::Low, c_load);
        let dh = lib.delay_nominal(kind, fanin, size, VthClass::High, c_load);
        prop_assert!(dh > dl);
        let il = lib.leakage_nominal(kind, fanin, size, VthClass::Low);
        let ih = lib.leakage_nominal(kind, fanin, size, VthClass::High);
        prop_assert!(il > ih * 10.0);
    }

    #[test]
    fn leakage_linear_in_size(
        kind in kinds(),
        fanin in 1usize..4,
        vth in vths(),
    ) {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let i1 = lib.leakage_nominal(kind, fanin, 1.0, vth);
        let i3 = lib.leakage_nominal(kind, fanin, 3.0, vth);
        prop_assert!((i3 / i1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ln_leakage_expansion_is_exact(
        kind in kinds(),
        fanin in 1usize..4,
        size in prop::sample::select(vec![1.0, 2.0, 8.0]),
        vth in vths(),
        dl in -0.15..0.15f64,
        dv in -0.05..0.05f64,
    ) {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let (ln_nom, dln_dl, dln_dv) = lib.ln_leakage(kind, fanin, size, vth);
        let exact = lib.leakage(kind, fanin, size, vth, dl, dv).ln();
        prop_assert!((exact - (ln_nom + dln_dl * dl + dln_dv * dv)).abs() < 1e-9);
    }

    #[test]
    fn delay_sensitivities_match_finite_difference(
        kind in kinds(),
        fanin in 1usize..4,
        vth in vths(),
        c_load in 1.0..60.0f64,
    ) {
        let lib = BuiltinLibrary::new(Technology::ptm100());
        let (d, dd_dl, dd_dv) = lib.delay_sensitivities(kind, fanin, 2.0, vth, c_load);
        let h = 1e-6;
        let fd_l = (lib.delay(kind, fanin, 2.0, vth, c_load, h, 0.0)
            - lib.delay(kind, fanin, 2.0, vth, c_load, -h, 0.0)) / (2.0 * h);
        let fd_v = (lib.delay(kind, fanin, 2.0, vth, c_load, 0.0, h)
            - lib.delay(kind, fanin, 2.0, vth, c_load, 0.0, -h)) / (2.0 * h);
        prop_assert!((dd_dl - fd_l).abs() / d < 1e-3, "dl {dd_dl} vs {fd_l}");
        prop_assert!((dd_dv - fd_v).abs() / dd_dv.abs() < 1e-3, "dv {dd_dv} vs {fd_v}");
    }

    #[test]
    fn size_stepping_stays_in_set(
        start in prop::sample::select(vec![1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0]),
    ) {
        let t = Technology::ptm100();
        if let Some(up) = t.size_up(start) {
            prop_assert!(t.sizes.contains(&up));
            prop_assert!(up > start);
        }
        if let Some(down) = t.size_down(start) {
            prop_assert!(t.sizes.contains(&down));
            prop_assert!(down < start);
        }
    }
}
