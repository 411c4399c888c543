//! Liberty writer: renders the closed-form cell models as a `.lib` text.
//!
//! Each cell carries three redundant views of the same model so every
//! consumer tier can read it:
//!
//! * scalar attributes (`cell_leakage_power`, pin `capacitance`,
//!   `intrinsic_rise`, `rise_resistance`) with six decimals, the flat
//!   [`LibertyCell`] view;
//! * `when`-conditioned `leakage_power` groups — one per input state,
//!   values written with full (shortest-round-trip) precision so an
//!   export→import cycle through the typed parser preserves
//!   state-dependent leakage bit-exactly;
//! * NLDM `cell_rise`/`cell_fall` lookup tables over input transition ×
//!   output load (the closed-form delay is linear in load and
//!   slew-independent, so the sampled table reproduces it exactly under
//!   bilinear interpolation).

use crate::cell;
use crate::library::BuiltinLibrary;
use crate::library::CellLibrary;
use crate::params::{Technology, VthClass};
use statleak_netlist::GateKind;

/// One characterized library cell (flat scalar view).
#[derive(Debug, Clone, PartialEq)]
pub struct LibertyCell {
    /// Cell name, e.g. `NAND2_X2_HVT`.
    pub name: String,
    /// Gate function.
    pub kind: GateKind,
    /// Fanin count the cell was characterized for.
    pub fanin: usize,
    /// Drive size (multiple of minimum width).
    pub size: f64,
    /// Threshold flavor.
    pub vth: VthClass,
    /// Input pin capacitance (fF).
    pub input_cap: f64,
    /// State-averaged leakage power (nW).
    pub leakage_nw: f64,
    /// Intrinsic delay at zero external load (ps).
    pub intrinsic_ps: f64,
    /// Delay slope per fF of external load (ps/fF).
    pub slope_ps_per_ff: f64,
}

/// The gate kinds exported to the library (with their fanin variants).
pub(crate) const EXPORT_KINDS: [(GateKind, &str, &[usize]); 8] = [
    (GateKind::Not, "INV", &[1]),
    (GateKind::Buff, "BUF", &[1]),
    (GateKind::Nand, "NAND", &[2, 3, 4]),
    (GateKind::Nor, "NOR", &[2, 3, 4]),
    (GateKind::And, "AND", &[2, 3, 4]),
    (GateKind::Or, "OR", &[2, 3, 4]),
    (GateKind::Xor, "XOR", &[2]),
    (GateKind::Xnor, "XNOR", &[2]),
];

pub(crate) fn vth_suffix(vth: VthClass) -> &'static str {
    match vth {
        VthClass::Low => "LVT",
        VthClass::Mid => "MVT",
        VthClass::High => "HVT",
    }
}

pub(crate) fn vth_from_suffix(text: &str) -> Option<VthClass> {
    match text {
        "LVT" => Some(VthClass::Low),
        "MVT" => Some(VthClass::Mid),
        "HVT" => Some(VthClass::High),
        _ => None,
    }
}

pub(crate) fn cell_name(base: &str, fanin: usize, size: f64, vth: VthClass) -> String {
    let arity = if fanin > 1 {
        fanin.to_string()
    } else {
        String::new()
    };
    format!("{base}{arity}_X{}_{}", format_size(size), vth_suffix(vth))
}

pub(crate) fn format_size(size: f64) -> String {
    if (size - size.round()).abs() < 1e-9 {
        format!("{}", size.round() as i64)
    } else {
        format!("{size}").replace('.', "p")
    }
}

/// Input pin names in bit order: bit `i` of a state mask refers to pin
/// `PIN_NAMES[i]`.
pub(crate) const PIN_NAMES: [&str; 10] = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"];

/// Renders a state bitmask as a Liberty `when` condition, e.g. `A&!B`.
pub(crate) fn when_condition(fanin: usize, state: usize) -> String {
    let mut parts = Vec::with_capacity(fanin);
    for (bit, name) in PIN_NAMES.iter().enumerate().take(fanin) {
        if state & (1 << bit) != 0 {
            parts.push((*name).to_string());
        } else {
            parts.push(format!("!{name}"));
        }
    }
    parts.join("&")
}

/// Parses a `when` condition written by [`when_condition`] back into a
/// state bitmask, given the cell's fanin. Returns `None` for conditions
/// outside that subset (products of possibly-negated single pins).
pub(crate) fn when_to_state(when: &str, fanin: usize) -> Option<usize> {
    let mut state = 0usize;
    let mut seen = 0usize;
    for term in when.split('&') {
        let term = term.trim().trim_matches(|c| c == '(' || c == ')');
        let (neg, pin) = match term.strip_prefix('!') {
            Some(p) => (true, p.trim()),
            None => (false, term),
        };
        let bit = PIN_NAMES.iter().position(|&n| n == pin)?;
        if bit >= fanin {
            return None;
        }
        seen |= 1 << bit;
        if !neg {
            state |= 1 << bit;
        }
    }
    // Every pin must be constrained for the condition to name one state.
    if seen == (1 << fanin) - 1 {
        Some(state)
    } else {
        None
    }
}

/// Characterizes one cell from the closed-form models.
pub fn characterize(
    tech: &Technology,
    kind: GateKind,
    base: &str,
    fanin: usize,
    size: f64,
    vth: VthClass,
) -> LibertyCell {
    // Linear delay fit from two load points (the model *is* linear in
    // load, so two points are exact).
    let d0 = cell::gate_delay_nominal(tech, kind, fanin, size, vth, 0.0);
    let d10 = cell::gate_delay_nominal(tech, kind, fanin, size, vth, 10.0);
    LibertyCell {
        name: cell_name(base, fanin, size, vth),
        kind,
        fanin,
        size,
        vth,
        input_cap: cell::input_cap(tech, size),
        leakage_nw: cell::leakage_nominal(tech, kind, fanin, size, vth) * tech.vdd * 1e9,
        intrinsic_ps: d0,
        slope_ps_per_ff: (d10 - d0) / 10.0,
    }
}

/// The NLDM sample axes used by [`export`]: input transition (ps) ×
/// output load (fF).
const NLDM_INDEX_1: [f64; 3] = [10.0, 20.0, 40.0];
const NLDM_INDEX_2: [f64; 6] = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0];

/// Exports the whole dual-Vth library (all kinds × sizes × {L,H}) as
/// Liberty text with `when`-conditioned leakage and NLDM delay tables.
pub fn export(tech: &Technology, library_name: &str) -> String {
    let builtin = BuiltinLibrary::new(tech.clone());
    let mut out = String::new();
    out.push_str(&format!("library ({library_name}) {{\n"));
    out.push_str("  delay_model : table_lookup;\n");
    out.push_str("  time_unit : \"1ps\";\n");
    out.push_str("  leakage_power_unit : \"1nW\";\n");
    out.push_str("  capacitive_load_unit (1, ff);\n");
    out.push_str(&format!("  nom_voltage : {};\n", tech.vdd));
    out.push_str("  lu_table_template (delay_3x6) {\n");
    out.push_str("    variable_1 : input_net_transition;\n");
    out.push_str("    variable_2 : total_output_net_capacitance;\n");
    out.push_str(&format!(
        "    index_1 (\"{}\");\n",
        join_nums(&NLDM_INDEX_1)
    ));
    out.push_str(&format!(
        "    index_2 (\"{}\");\n",
        join_nums(&NLDM_INDEX_2)
    ));
    out.push_str("  }\n");
    for (kind, base, fanins) in EXPORT_KINDS {
        for &fanin in fanins {
            for &size in &tech.sizes {
                for vth in [VthClass::Low, VthClass::High] {
                    let c = characterize(tech, kind, base, fanin, size, vth);
                    out.push_str(&format!("  cell ({}) {{\n", c.name));
                    out.push_str(&format!("    cell_leakage_power : {:.6};\n", c.leakage_nw));
                    out.push_str(&format!("    drive_size : {};\n", c.size));
                    out.push_str(&format!("    fanin_count : {};\n", c.fanin));
                    out.push_str(&format!(
                        "    function_kind : {};\n",
                        c.kind.bench_keyword()
                    ));
                    out.push_str(&format!("    threshold_flavor : {};\n", vth_suffix(c.vth)));
                    // Per-state leakage: full precision so the typed
                    // parser round-trips the values bit-exactly.
                    for state in 0..(1usize << fanin) {
                        let i_state = builtin.leakage_by_state(kind, fanin, size, vth, state);
                        let nw = i_state * tech.vdd * 1e9;
                        out.push_str("    leakage_power () {\n");
                        out.push_str(&format!(
                            "      when : \"{}\";\n",
                            when_condition(fanin, state)
                        ));
                        out.push_str(&format!("      value : {nw};\n"));
                        out.push_str("    }\n");
                    }
                    for pin in PIN_NAMES.iter().take(fanin) {
                        out.push_str(&format!("    pin ({pin}) {{\n"));
                        out.push_str("      direction : input;\n");
                        out.push_str(&format!("      capacitance : {:.6};\n", c.input_cap));
                        out.push_str("    }\n");
                    }
                    out.push_str("    pin (Y) {\n");
                    out.push_str("      direction : output;\n");
                    out.push_str("      timing () {\n");
                    out.push_str("        related_pin : \"A\";\n");
                    out.push_str(&format!(
                        "        intrinsic_rise : {:.6};\n",
                        c.intrinsic_ps
                    ));
                    out.push_str(&format!(
                        "        rise_resistance : {:.6};\n",
                        c.slope_ps_per_ff
                    ));
                    for table in ["cell_rise", "cell_fall"] {
                        out.push_str(&format!("        {table} (delay_3x6) {{\n"));
                        out.push_str("          values ( \\\n");
                        for (i, _) in NLDM_INDEX_1.iter().enumerate() {
                            let row: Vec<String> = NLDM_INDEX_2
                                .iter()
                                .map(|&load| {
                                    let d = c.intrinsic_ps + c.slope_ps_per_ff * load;
                                    format!("{d}")
                                })
                                .collect();
                            let sep = if i + 1 < NLDM_INDEX_1.len() { "," } else { "" };
                            out.push_str(&format!("            \"{}\"{sep} \\\n", row.join(", ")));
                        }
                        out.push_str("          );\n");
                        out.push_str("        }\n");
                    }
                    out.push_str("      }\n");
                    out.push_str("    }\n");
                    out.push_str("  }\n");
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

fn join_nums(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liberty::decode::parse_library;

    #[test]
    fn export_contains_expected_cells() {
        let text = export(&Technology::ptm100(), "statleak100");
        assert!(text.contains("library (statleak100)"));
        assert!(text.contains("cell (INV_X1_LVT)"));
        assert!(text.contains("cell (NAND2_X4_HVT)"));
        assert!(text.contains("cell (XOR2_X16_LVT)"));
    }

    #[test]
    fn linear_fit_reproduces_model_delay() {
        let tech = Technology::ptm100();
        let c = characterize(&tech, GateKind::Nand, "NAND", 2, 2.0, VthClass::High);
        let builtin = BuiltinLibrary::new(tech);
        for load in [0.0, 5.0, 20.0, 50.0] {
            let model = builtin.delay_nominal(GateKind::Nand, 2, 2.0, VthClass::High, load);
            let fit = c.intrinsic_ps + c.slope_ps_per_ff * load;
            assert!((model - fit).abs() < 1e-9, "load {load}");
        }
    }

    #[test]
    fn when_conditions_round_trip() {
        for fanin in 1..=4usize {
            for state in 0..(1usize << fanin) {
                let cond = when_condition(fanin, state);
                assert_eq!(when_to_state(&cond, fanin), Some(state), "{cond}");
            }
        }
        assert_eq!(when_to_state("A", 2), None, "underconstrained");
        assert_eq!(when_to_state("A&!Z", 2), None, "unknown pin");
    }

    #[test]
    fn export_round_trips_state_leakage_bit_exactly() {
        let tech = Technology::ptm100();
        let builtin = BuiltinLibrary::new(tech.clone());
        let lib = parse_library(&export(&tech, "lib")).unwrap();
        let cell = lib
            .cells
            .iter()
            .find(|c| c.name == "NAND3_X2_HVT")
            .expect("exported cell present");
        assert_eq!(cell.leakage_power.len(), 8);
        for lp in &cell.leakage_power {
            let state = when_to_state(lp.when.as_deref().unwrap(), 3).unwrap();
            let expect = builtin.leakage_by_state(GateKind::Nand, 3, 2.0, VthClass::High, state)
                * tech.vdd
                * 1e9;
            assert_eq!(
                lp.value.to_bits(),
                expect.to_bits(),
                "state {state} must round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn nldm_tables_reproduce_linear_model() {
        let tech = Technology::ptm100();
        let lib = parse_library(&export(&tech, "lib")).unwrap();
        let cell = lib.cells.iter().find(|c| c.name == "NOR2_X4_LVT").unwrap();
        let y = cell.pins.iter().find(|p| p.name == "Y").unwrap();
        let rise = y.timings[0].cell_rise.as_ref().unwrap();
        let c = characterize(&tech, GateKind::Nor, "NOR", 2, 4.0, VthClass::Low);
        for load in [0.0, 3.0, 17.0, 60.0] {
            let table = rise.lookup(tech.input_slew, load);
            let linear = c.intrinsic_ps + c.slope_ps_per_ff * load;
            assert!(
                (table - linear).abs() < 1e-9,
                "load {load}: {table} vs {linear}"
            );
        }
    }

    #[test]
    fn export_round_trips_scalar_attributes() {
        let tech = Technology::ptm100();
        let lib = parse_library(&export(&tech, "lib")).unwrap();
        // 2 single-fanin kinds + 4 kinds × 3 fanins + 2 kinds × 1 fanin
        // = 16 variants × 9 sizes × 2 vth.
        assert_eq!(lib.cells.len(), 16 * tech.sizes.len() * 2);
        let find = |name: &str| lib.cells.iter().find(|c| c.name == name).unwrap();
        // Pin capacitance is written with six decimals.
        for (name, kind, base, fanin, size, vth) in [
            ("INV_X1_LVT", GateKind::Not, "INV", 1, 1.0, VthClass::Low),
            (
                "NAND2_X4_HVT",
                GateKind::Nand,
                "NAND",
                2,
                4.0,
                VthClass::High,
            ),
        ] {
            let expect = characterize(&tech, kind, base, fanin, size, vth).input_cap;
            let inputs: Vec<_> = find(name).pins.iter().filter(|p| p.name != "Y").collect();
            assert_eq!(inputs.len(), fanin, "{name}");
            for pin in inputs {
                let cap = pin.capacitance.expect("exported pin capacitance");
                assert!((cap - expect).abs() < 1e-4, "{name}/{}: {cap}", pin.name);
            }
        }
        let leak = |name: &str| find(name).cell_leakage_power.expect("scalar leakage");
        assert!(leak("NAND2_X1_LVT") >= 15.0 * leak("NAND2_X1_HVT"));
    }
}
