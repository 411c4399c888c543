//! [`LibertyLibrary`]: a [`CellLibrary`] backed by characterized `.lib`
//! values, with multi-corner loading.
//!
//! Nominal numbers (leakage per state, NLDM or linear delay, pin caps)
//! come from the parsed library; the *variational* structure around that
//! nominal — threshold roll-off coupling `ΔVth = vth_l_coeff·ΔL/L`,
//! alpha-power overdrive scaling of delay, exponential leakage in `ΔVth`
//! — comes from the base [`Technology`], so SSTA/MC/leakage analyses see
//! the same process physics regardless of where the nominal values came
//! from (that is what makes corner libraries comparable to the built-in
//! statistical model).
//!
//! Cells are classified by the exporter's self-describing attributes
//! (`function_kind`, `fanin_count`, `drive_size`, `threshold_flavor`)
//! when present, else by the `{BASE}{arity}_X{size}_{LVT|MVT|HVT}` naming
//! convention. Gates the netlist needs but the library does not provide
//! (e.g. a fanin-9 NOR when the library stops at fanin 4) are derived
//! from the nearest characterized variant via the closed-form stack
//! ratios, so analysis over arbitrary benchmarks is total.

use super::decode::{parse_library, Library, NldmTable};
use super::error::LibertyLoadError;
use super::export::{vth_from_suffix, when_to_state};
use crate::cell;
use crate::library::{fnv1a64, CellLibrary};
use crate::params::{Technology, VthClass};
use statleak_netlist::GateKind;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The delay view of one library cell.
#[derive(Debug, Clone)]
enum DelayModel {
    /// NLDM lookup table (input transition × output load).
    Table(NldmTable),
    /// Linear `intrinsic + slope · load` fit.
    Linear {
        intrinsic_ps: f64,
        slope_ps_per_ff: f64,
    },
}

#[derive(Debug, Clone)]
struct CellData {
    input_cap: f64,
    /// State-averaged leakage current (A).
    leak_avg: f64,
    /// Per-state leakage currents (A), indexed by input-state bitmask;
    /// empty when the library had no `when`-conditioned groups.
    leak_by_state: Vec<f64>,
    delay: DelayModel,
}

impl CellData {
    fn delay_nominal(&self, input_slew: f64, c_load: f64) -> f64 {
        match &self.delay {
            DelayModel::Table(t) => t.lookup(input_slew, c_load),
            DelayModel::Linear {
                intrinsic_ps,
                slope_ps_per_ff,
            } => intrinsic_ps + slope_ps_per_ff * c_load,
        }
    }
}

fn key(kind: GateKind, vth: VthClass, fanin: usize, size: f64) -> (u8, u8, u32, u64) {
    let k = kind as u8;
    let v = match vth {
        VthClass::Low => 0u8,
        VthClass::Mid => 1,
        VthClass::High => 2,
    };
    (k, v, fanin as u32, size.to_bits())
}

/// The corner variants discovered next to a base library file:
/// `<stem>_<corner>.lib` siblings (e.g. `mylib_ss.lib` next to
/// `mylib.lib`).
#[derive(Debug, Clone)]
pub struct CornerSet {
    /// The base (default/typical) library file.
    pub base: PathBuf,
    /// Discovered corner name → file, sorted by name.
    pub corners: Vec<(String, PathBuf)>,
}

impl CornerSet {
    /// Scans the base file's directory for `<stem>_<corner>.lib` siblings.
    pub fn discover(base: &Path) -> Self {
        let mut corners = Vec::new();
        let stem = base
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        if let Some(dir) = base.parent() {
            if let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            }) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().and_then(|e| e.to_str()) != Some("lib") {
                        continue;
                    }
                    let Some(sib_stem) = path.file_stem().and_then(|s| s.to_str()) else {
                        continue;
                    };
                    if let Some(corner) = sib_stem.strip_prefix(&format!("{stem}_")) {
                        if !corner.is_empty() && !corner.contains('_') {
                            corners.push((corner.to_ascii_lowercase(), path.clone()));
                        }
                    }
                }
            }
        }
        corners.sort();
        corners.dedup_by(|a, b| a.0 == b.0);
        Self {
            base: base.to_path_buf(),
            corners,
        }
    }

    /// The corner names available (the base file answers to `tt`,
    /// `default`, and `nom` in addition to any discovered siblings).
    pub fn names(&self) -> Vec<String> {
        self.corners.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Resolves a requested corner name (case-insensitive) to a file.
    pub fn resolve(&self, corner: &str) -> Option<&Path> {
        let want = corner.to_ascii_lowercase();
        if matches!(want.as_str(), "tt" | "default" | "nom" | "typical") {
            return Some(&self.base);
        }
        self.corners
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, p)| p.as_path())
    }
}

/// A [`CellLibrary`] built from a parsed Liberty `.lib`.
#[derive(Clone)]
pub struct LibertyLibrary {
    id: String,
    name: String,
    corner: String,
    tech: Technology,
    cells: BTreeMap<(u8, u8, u32, u64), CellData>,
    sizes: Vec<f64>,
    vth_classes: Vec<VthClass>,
}

impl fmt::Debug for LibertyLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LibertyLibrary")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("corner", &self.corner)
            .field("cells", &self.cells.len())
            .field("sizes", &self.sizes)
            .field("vth_classes", &self.vth_classes)
            .finish()
    }
}

impl LibertyLibrary {
    /// Loads a Liberty library from disk, optionally selecting a corner
    /// by name: `corner=ss` next to `mylib.lib` loads `mylib_ss.lib`.
    ///
    /// # Errors
    ///
    /// [`LibertyLoadError`] on unreadable files, parse failures (with
    /// line/column), unknown corners, or libraries with no usable cells.
    pub fn load(
        path: &Path,
        corner: Option<&str>,
        tech: Technology,
    ) -> Result<Self, LibertyLoadError> {
        let corners = CornerSet::discover(path);
        let (corner_name, target): (String, &Path) = match corner {
            None => ("tt".into(), path),
            Some(c) => {
                let resolved =
                    corners
                        .resolve(c)
                        .ok_or_else(|| LibertyLoadError::UnknownCorner {
                            requested: c.to_string(),
                            available: corners.names(),
                        })?;
                (c.to_ascii_lowercase(), resolved)
            }
        };
        let src = std::fs::read_to_string(target).map_err(|e| LibertyLoadError::Io {
            path: target.to_path_buf(),
            source: e,
        })?;
        let parsed = parse_library(&src).map_err(|e| LibertyLoadError::Parse {
            path: target.to_path_buf(),
            source: e,
        })?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("lib")
            .to_string();
        let id = format!("liberty:{stem}:{corner_name}:{:016x}", fnv1a64(&src));
        Self::from_parsed(parsed, tech, id, corner_name).ok_or(LibertyLoadError::NoUsableCells {
            path: target.to_path_buf(),
        })
    }

    /// Builds a library from already-parsed Liberty content. Returns
    /// `None` when no cell could be classified.
    pub fn from_library(parsed: Library, tech: Technology, id: String) -> Option<Self> {
        Self::from_parsed(parsed, tech, id, "tt".into())
    }

    fn from_parsed(parsed: Library, tech: Technology, id: String, corner: String) -> Option<Self> {
        tech.validate();
        let vdd = parsed.nom_voltage.unwrap_or(tech.vdd);
        let mut cells = BTreeMap::new();
        let mut sizes: Vec<f64> = Vec::new();
        let mut vth_present = [false; 3];
        for c in &parsed.cells {
            let Some((kind, fanin, size, vth)) = classify(c) else {
                continue;
            };
            let input_cap = c
                .pins
                .iter()
                .find(|p| p.direction.as_deref() != Some("output") && p.capacitance.is_some())
                .and_then(|p| p.capacitance)
                .unwrap_or_else(|| cell::input_cap(&tech, size));
            // Leakage: `when`-conditioned groups (power, library units =
            // nW) override the state-averaged scalar.
            let nw_to_amps = 1e-9 / vdd;
            let mut leak_by_state = Vec::new();
            if !c.leakage_power.is_empty() {
                let states = 1usize << fanin.min(12);
                let mut per_state = vec![f64::NAN; states];
                let mut unconditioned = None;
                for lp in &c.leakage_power {
                    match &lp.when {
                        Some(cond) => {
                            if let Some(s) = when_to_state(cond, fanin) {
                                per_state[s] = lp.value * nw_to_amps;
                            }
                        }
                        None => unconditioned = Some(lp.value * nw_to_amps),
                    }
                }
                let fallback = unconditioned
                    .or(c.cell_leakage_power.map(|v| v * nw_to_amps))
                    .unwrap_or_else(|| {
                        let known: Vec<f64> =
                            per_state.iter().copied().filter(|v| !v.is_nan()).collect();
                        known.iter().sum::<f64>() / known.len().max(1) as f64
                    });
                for v in &mut per_state {
                    if v.is_nan() {
                        *v = fallback;
                    }
                }
                leak_by_state = per_state;
            }
            let leak_avg = if leak_by_state.is_empty() {
                c.cell_leakage_power.unwrap_or(0.0) * nw_to_amps
            } else {
                leak_by_state.iter().sum::<f64>() / leak_by_state.len() as f64
            };
            // Delay: NLDM table if present, else the linear fit.
            let timing = c
                .pins
                .iter()
                .filter(|p| p.direction.as_deref() == Some("output") || p.name == "Y")
                .flat_map(|p| p.timings.iter())
                .next();
            let delay = match timing {
                Some(t) => {
                    if let Some(table) = t.cell_rise.clone().or_else(|| t.cell_fall.clone()) {
                        DelayModel::Table(table)
                    } else {
                        DelayModel::Linear {
                            intrinsic_ps: t.intrinsic_rise.unwrap_or(0.0),
                            slope_ps_per_ff: t.rise_resistance.unwrap_or(0.0),
                        }
                    }
                }
                None => continue,
            };
            vth_present[match vth {
                VthClass::Low => 0,
                VthClass::Mid => 1,
                VthClass::High => 2,
            }] = true;
            if !sizes.iter().any(|&s| (s - size).abs() < 1e-12) {
                sizes.push(size);
            }
            cells.insert(
                key(kind, vth, fanin, size),
                CellData {
                    input_cap,
                    leak_avg,
                    leak_by_state,
                    delay,
                },
            );
        }
        if cells.is_empty() {
            return None;
        }
        sizes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut vth_classes = Vec::new();
        for (i, class) in [VthClass::Low, VthClass::Mid, VthClass::High]
            .into_iter()
            .enumerate()
        {
            if vth_present[i] {
                vth_classes.push(class);
            }
        }
        Some(Self {
            id,
            name: parsed.name,
            corner,
            tech,
            cells,
            sizes,
            vth_classes,
        })
    }

    /// The library name from the `.lib` header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The corner this instance was loaded as (`tt` for the base file).
    pub fn corner(&self) -> &str {
        &self.corner
    }

    /// The base technology supplying the variational structure.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Looks up cell data with graceful degradation: exact → nearest
    /// characterized fanin (stack-ratio scaled) → nearest Vth flavor
    /// (closed-form ratio scaled). Returns the data plus delay/leakage
    /// scale factors, or `None` when the (kind, size) has no
    /// characterized variant at all.
    fn resolve(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
    ) -> Option<(&CellData, f64, f64)> {
        if let Some(d) = self.cells.get(&key(kind, vth, fanin, size)) {
            return Some((d, 1.0, 1.0));
        }
        // Nearest characterized fanin of the same kind/vth/size.
        let nearest_fanin = |v: VthClass| -> Option<(usize, &CellData)> {
            let (k, vb, _, sb) = key(kind, v, fanin, size);
            self.cells
                .range((k, vb, 0, sb)..=(k, vb, u32::MAX, sb))
                .filter(|((_, _, _, s), _)| *s == sb)
                .map(|((_, _, f, _), d)| (*f as usize, d))
                .min_by_key(|(f, _)| f.abs_diff(fanin))
        };
        if let Some((f0, d)) = nearest_fanin(vth) {
            let delay_scale =
                cell::stack_resistance(kind, fanin) / cell::stack_resistance(kind, f0);
            let leak_scale =
                cell::leak_state_factor(kind, fanin) / cell::leak_state_factor(kind, f0);
            return Some((d, delay_scale, leak_scale));
        }
        // Nearest present Vth flavor, re-scaled by the closed-form
        // threshold ratios.
        let order = |c: VthClass| match c {
            VthClass::Low => 0i32,
            VthClass::Mid => 1,
            VthClass::High => 2,
        };
        let mut flavors: Vec<VthClass> = self.vth_classes.clone();
        flavors.sort_by_key(|c| (order(*c) - order(vth)).abs());
        for v0 in flavors {
            if v0 == vth {
                continue;
            }
            if let Some((f0, d)) = nearest_fanin(v0) {
                let stack_d =
                    cell::stack_resistance(kind, fanin) / cell::stack_resistance(kind, f0);
                let stack_l =
                    cell::leak_state_factor(kind, fanin) / cell::leak_state_factor(kind, f0);
                let od = |c: VthClass| (self.tech.vdd - self.tech.vth(c)).max(0.05 * self.tech.vdd);
                let delay_scale = stack_d * (od(v0) / od(vth)).powf(self.tech.alpha);
                let leak_scale =
                    stack_l * ((self.tech.vth(v0) - self.tech.vth(vth)) / self.tech.n_vt()).exp();
                return Some((d, delay_scale, leak_scale));
            }
        }
        None
    }

    /// The variational delay factor around the library nominal: the exact
    /// alpha-power ratio `d(ΔL, ΔVth) / d(0, 0)` of the closed-form model
    /// (transit term × overdrive shift), which is what makes Liberty and
    /// builtin designs see identical *relative* process sensitivity.
    fn delay_variation_factor(&self, vth: VthClass, dl: f64, dv: f64) -> f64 {
        let t = &self.tech;
        let vth_nom = t.vth(vth);
        let od_nom = (t.vdd - vth_nom).max(0.05 * t.vdd);
        let od_eff = (t.vdd - (vth_nom + t.vth_l_coeff * dl + dv)).max(0.05 * t.vdd);
        (1.0 + dl) * (od_nom / od_eff).powf(t.alpha)
    }
}

impl CellLibrary for LibertyLibrary {
    fn id(&self) -> &str {
        &self.id
    }

    fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    fn vth_classes(&self) -> &[VthClass] {
        &self.vth_classes
    }

    fn input_cap(&self, kind: GateKind, fanin: usize, size: f64, vth: VthClass) -> f64 {
        match self.resolve(kind, fanin, size, vth) {
            Some((d, _, _)) => d.input_cap,
            None => cell::input_cap(&self.tech, size),
        }
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
        self.delay_nominal(kind, fanin, size, vth, c_load)
            * self.delay_variation_factor(vth, delta_l_rel, delta_vth_rand)
    }

    fn delay_nominal(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
    ) -> f64 {
        match self.resolve(kind, fanin, size, vth) {
            Some((d, delay_scale, _)) => {
                d.delay_nominal(self.tech.input_slew, c_load) * delay_scale
            }
            None => cell::gate_delay_nominal(&self.tech, kind, fanin, size, vth, c_load),
        }
    }

    fn delay_sensitivities(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        c_load: f64,
    ) -> (f64, f64, f64) {
        let d = self.delay_nominal(kind, fanin, size, vth, c_load);
        let overdrive = self.tech.vdd - self.tech.vth(vth);
        let dd_dvth = self.tech.alpha * d / overdrive;
        let dd_dl = d + dd_dvth * self.tech.vth_l_coeff;
        (d, dd_dl, dd_dvth)
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
        let shift = self.tech.vth_l_coeff * delta_l_rel + delta_vth_rand;
        self.leakage_nominal(kind, fanin, size, vth) * (-shift / self.tech.n_vt()).exp()
    }

    fn leakage_nominal(&self, kind: GateKind, fanin: usize, size: f64, vth: VthClass) -> f64 {
        match self.resolve(kind, fanin, size, vth) {
            Some((d, _, leak_scale)) => d.leak_avg * leak_scale,
            None => cell::leakage_nominal(&self.tech, kind, fanin, size, vth),
        }
    }

    fn ln_leakage(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
    ) -> (f64, f64, f64) {
        let ln_nom = self.leakage_nominal(kind, fanin, size, vth).ln();
        let dln_dvth = -1.0 / self.tech.n_vt();
        let dln_dl = dln_dvth * self.tech.vth_l_coeff;
        (ln_nom, dln_dl, dln_dvth)
    }

    fn leakage_by_state(
        &self,
        kind: GateKind,
        fanin: usize,
        size: f64,
        vth: VthClass,
        state: usize,
    ) -> f64 {
        if let Some((d, _, leak_scale)) = self.resolve(kind, fanin, size, vth) {
            if let Some(&v) = d.leak_by_state.get(state) {
                return v * leak_scale;
            }
            // No per-state data: apply the closed-form state profile to
            // the library's averaged current.
            let profile = cell::leak_state_factor_for_state(kind, fanin, state)
                / cell::leak_state_factor(kind, fanin);
            return d.leak_avg * leak_scale * profile;
        }
        let avg = cell::leakage_nominal(&self.tech, kind, fanin, size, vth);
        avg * cell::leak_state_factor_for_state(kind, fanin, state)
            / cell::leak_state_factor(kind, fanin)
    }
}

/// Classifies a decoded cell into `(kind, fanin, size, vth)` using the
/// self-describing attributes when present, else the
/// `{BASE}{arity}_X{size}_{VT}` naming convention.
fn classify(c: &super::decode::Cell) -> Option<(GateKind, usize, f64, VthClass)> {
    let from_attrs = (|| {
        let kind = GateKind::from_bench_keyword(c.function_kind.as_deref()?)?;
        let fanin = c.fanin_count?;
        let size = c.drive_size?;
        let vth = vth_from_suffix(c.threshold_flavor.as_deref()?)?;
        Some((kind, fanin, size, vth))
    })();
    if from_attrs.is_some() {
        return from_attrs;
    }
    classify_by_name(c)
}

fn classify_by_name(c: &super::decode::Cell) -> Option<(GateKind, usize, f64, VthClass)> {
    let name = c.name.as_str();
    let mut parts = name.split('_');
    let head = parts.next()?;
    let size_part = parts.next()?;
    let vth_part = parts.next()?;
    let vth = vth_from_suffix(vth_part)?;
    let size: f64 = size_part
        .strip_prefix('X')?
        .replace('p', ".")
        .parse()
        .ok()?;
    let arity: String = head.chars().filter(|c| c.is_ascii_digit()).collect();
    let base: String = head.chars().filter(|c| !c.is_ascii_digit()).collect();
    let kind = match base.as_str() {
        "INV" | "NOT" => GateKind::Not,
        "BUF" | "BUFF" => GateKind::Buff,
        "NAND" => GateKind::Nand,
        "NOR" => GateKind::Nor,
        "AND" => GateKind::And,
        "OR" => GateKind::Or,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        _ => return None,
    };
    let fanin = if arity.is_empty() {
        // Fall back to counting input pins.
        let n = c
            .pins
            .iter()
            .filter(|p| p.direction.as_deref() == Some("input"))
            .count();
        if n == 0 {
            1
        } else {
            n
        }
    } else {
        arity.parse().ok()?
    };
    Some((kind, fanin, size, vth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liberty::export::export;

    fn lib() -> LibertyLibrary {
        let tech = Technology::ptm100();
        let parsed = parse_library(&export(&tech, "demo")).unwrap();
        LibertyLibrary::from_library(parsed, tech, "liberty:test".into()).unwrap()
    }

    #[test]
    fn imported_nominals_match_the_models_they_sampled() {
        let tech = Technology::ptm100();
        let l = lib();
        for (kind, fanin) in [(GateKind::Nand, 2), (GateKind::Nor, 3), (GateKind::Not, 1)] {
            for vth in [VthClass::Low, VthClass::High] {
                for load in [0.0, 7.0, 23.0] {
                    let got = l.delay_nominal(kind, fanin, 2.0, vth, load);
                    let want = cell::gate_delay_nominal(&tech, kind, fanin, 2.0, vth, load);
                    assert!(
                        (got / want - 1.0).abs() < 1e-9,
                        "{kind:?}/{fanin}/{vth:?}@{load}: {got} vs {want}"
                    );
                }
                let got = l.leakage_nominal(kind, fanin, 2.0, vth);
                let want = cell::leakage_nominal(&tech, kind, fanin, 2.0, vth);
                assert!((got / want - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn uncharacterized_fanin_falls_back_to_stack_ratio() {
        let l = lib();
        // The export stops at fanin 4; c432-style fanin-9 gates must
        // still evaluate, scaled from the fanin-4 cell.
        let d9 = l.delay_nominal(GateKind::Nand, 9, 2.0, VthClass::Low, 10.0);
        let d4 = l.delay_nominal(GateKind::Nand, 4, 2.0, VthClass::Low, 10.0);
        let want =
            cell::stack_resistance(GateKind::Nand, 9) / cell::stack_resistance(GateKind::Nand, 4);
        assert!((d9 / d4 - want).abs() < 1e-9);
        let i9 = l.leakage_nominal(GateKind::Nand, 9, 2.0, VthClass::Low);
        assert!(i9 > 0.0 && i9.is_finite());
    }

    #[test]
    fn mid_vth_falls_back_with_threshold_scaling() {
        // The export writes only LVT/HVT; Mid must still evaluate and lie
        // strictly between the two flavors.
        let l = lib();
        let dl = l.delay_nominal(GateKind::Nand, 2, 2.0, VthClass::Low, 10.0);
        let dm = l.delay_nominal(GateKind::Nand, 2, 2.0, VthClass::Mid, 10.0);
        let dh = l.delay_nominal(GateKind::Nand, 2, 2.0, VthClass::High, 10.0);
        assert!(dl < dm && dm < dh, "{dl} {dm} {dh}");
        let il = l.leakage_nominal(GateKind::Nand, 2, 2.0, VthClass::Low);
        let im = l.leakage_nominal(GateKind::Nand, 2, 2.0, VthClass::Mid);
        let ih = l.leakage_nominal(GateKind::Nand, 2, 2.0, VthClass::High);
        assert!(il > im && im > ih, "{il} {im} {ih}");
    }

    #[test]
    fn variational_structure_matches_builtin_ratios() {
        let tech = Technology::ptm100();
        let l = lib();
        for &(dl, dv) in &[(0.05, 0.0), (-0.08, 0.01), (0.02, -0.015)] {
            let ratio_lib = l.delay(GateKind::Nor, 2, 4.0, VthClass::Low, 9.0, dl, dv)
                / l.delay_nominal(GateKind::Nor, 2, 4.0, VthClass::Low, 9.0);
            let ratio_builtin =
                cell::gate_delay(&tech, GateKind::Nor, 2, 4.0, VthClass::Low, 9.0, dl, dv)
                    / cell::gate_delay_nominal(&tech, GateKind::Nor, 2, 4.0, VthClass::Low, 9.0);
            assert!((ratio_lib / ratio_builtin - 1.0).abs() < 1e-12, "{dl}/{dv}");
            let lr_lib = l.leakage(GateKind::Nor, 2, 4.0, VthClass::Low, dl, dv)
                / l.leakage_nominal(GateKind::Nor, 2, 4.0, VthClass::Low);
            let lr_builtin =
                cell::leakage_current(&tech, GateKind::Nor, 2, 4.0, VthClass::Low, dl, dv)
                    / cell::leakage_nominal(&tech, GateKind::Nor, 2, 4.0, VthClass::Low);
            assert!((lr_lib / lr_builtin - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn state_leakage_comes_from_when_groups() {
        let tech = Technology::ptm100();
        let l = lib();
        let crate_builtin = crate::library::BuiltinLibrary::new(tech);
        for state in 0..4usize {
            let got = l.leakage_by_state(GateKind::Nand, 2, 1.0, VthClass::Low, state);
            let want = crate_builtin.leakage_by_state(GateKind::Nand, 2, 1.0, VthClass::Low, state);
            assert!((got / want - 1.0).abs() < 1e-9, "state {state}");
        }
    }

    #[test]
    fn classify_by_name_handles_convention() {
        use crate::liberty::decode::Cell;
        let cell = Cell {
            name: "NAND3_X2p5_HVT".into(),
            cell_leakage_power: Some(1.0),
            leakage_power: vec![],
            pins: vec![],
            drive_size: None,
            fanin_count: None,
            function_kind: None,
            threshold_flavor: None,
            line: 1,
        };
        let (kind, fanin, size, vth) = classify_by_name(&cell).unwrap();
        assert_eq!(kind, GateKind::Nand);
        assert_eq!(fanin, 3);
        assert!((size - 2.5).abs() < 1e-12);
        assert_eq!(vth, VthClass::High);
    }
}
