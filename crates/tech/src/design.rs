//! A circuit with its implementation choices: per-gate size and Vth flavor.

use crate::library::{BuiltinLibrary, CellLibrary};
use crate::params::{Technology, VthClass};
use statleak_netlist::{Circuit, NodeId};
use std::sync::Arc;

/// A gate-level design: a [`Circuit`], a [`Technology`], a
/// [`CellLibrary`], and the per-gate implementation state the optimizers
/// mutate (drive size and Vth flavor).
///
/// The library is resolved once when the design is built
/// ([`Design::new`] installs the [`BuiltinLibrary`] reference semantics;
/// [`Design::with_library`] installs e.g. a
/// [`crate::LibertyLibrary`]) and every evaluation path reads cell
/// numbers through it.
///
/// Node-indexed state vectors cover *all* nodes; entries for primary inputs
/// are inert (size 1.0, low Vth) and never read by the models.
#[derive(Debug, Clone)]
pub struct Design {
    circuit: Arc<Circuit>,
    tech: Technology,
    library: Arc<dyn CellLibrary>,
    sizes: Vec<f64>,
    vth: Vec<VthClass>,
    /// Optional per-net extra wire capacitance (fF), indexed by driver
    /// node; empty = the fixed-stub-only load model.
    wire_caps: Vec<f64>,
}

impl PartialEq for Design {
    fn eq(&self, other: &Self) -> bool {
        // Libraries compare by content identity (`CellLibrary::id`): two
        // designs are equal iff they would evaluate identically.
        self.circuit == other.circuit
            && self.tech == other.tech
            && self.library.id() == other.library.id()
            && self.sizes == other.sizes
            && self.vth == other.vth
            && self.wire_caps == other.wire_caps
    }
}

impl Design {
    /// Creates a design with every gate at minimum size and low Vth — the
    /// starting point of every optimization flow in the paper — using the
    /// technology's built-in closed-form library.
    pub fn new(circuit: Arc<Circuit>, tech: Technology) -> Self {
        let library: Arc<dyn CellLibrary> = Arc::new(BuiltinLibrary::new(tech.clone()));
        Self::with_library(circuit, tech, library)
    }

    /// Creates a design evaluating through an explicit [`CellLibrary`]
    /// (e.g. a [`crate::LibertyLibrary`] loaded from a `.lib` file). The
    /// technology still supplies the wire/load constants and the
    /// variation model; the library supplies all cell numbers.
    ///
    /// # Panics
    ///
    /// Panics if the technology is invalid or the library exposes no
    /// sizes.
    pub fn with_library(
        circuit: Arc<Circuit>,
        tech: Technology,
        library: Arc<dyn CellLibrary>,
    ) -> Self {
        tech.validate();
        assert!(
            !library.sizes().is_empty(),
            "library must expose at least one drive size"
        );
        let n = circuit.num_nodes();
        Self {
            circuit,
            tech,
            library,
            sizes: vec![1.0; n],
            vth: vec![VthClass::Low; n],
            wire_caps: Vec::new(),
        }
    }

    /// Creates a fresh minimum-size design over the same circuit, library,
    /// and wire loads as `self` but a (possibly modified) technology —
    /// used by ablation flows that perturb the technology while keeping
    /// everything else fixed. When `self` uses the builtin library, the
    /// new design wraps the *new* technology's builtin models.
    pub fn fresh_like(&self, tech: Technology) -> Self {
        let library: Arc<dyn CellLibrary> = if self.library.id().starts_with("builtin:") {
            Arc::new(BuiltinLibrary::new(tech.clone()))
        } else {
            Arc::clone(&self.library)
        };
        let mut d = Self::with_library(Arc::clone(&self.circuit), tech, library);
        if !self.wire_caps.is_empty() {
            d.set_wire_caps(self.wire_caps.clone());
        }
        d
    }

    /// Installs per-net extra wire capacitance (fF, indexed by driver
    /// node), typically from
    /// [`crate::wire::wire_caps_from_placement`]. Every analysis sees the
    /// extra load transparently through [`Design::load_cap`].
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the node count.
    pub fn set_wire_caps(&mut self, caps: Vec<f64>) {
        assert_eq!(
            caps.len(),
            self.circuit.num_nodes(),
            "wire caps must cover every node"
        );
        self.wire_caps = caps;
    }

    /// The underlying circuit.
    #[inline]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Shared handle to the underlying circuit.
    pub fn circuit_arc(&self) -> Arc<Circuit> {
        Arc::clone(&self.circuit)
    }

    /// The technology parameters.
    #[inline]
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The cell library every evaluation path reads through.
    #[inline]
    pub fn library(&self) -> &dyn CellLibrary {
        &*self.library
    }

    /// The drive size of a node.
    #[inline]
    pub fn size(&self, id: NodeId) -> f64 {
        self.sizes[id.index()]
    }

    /// The Vth flavor of a node.
    #[inline]
    pub fn vth(&self, id: NodeId) -> VthClass {
        self.vth[id.index()]
    }

    /// Sets the drive size of a gate.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not in the library's discrete size set.
    pub fn set_size(&mut self, id: NodeId, size: f64) {
        assert!(
            self.library
                .sizes()
                .iter()
                .any(|&s| (s - size).abs() < 1e-9),
            "size {size} not in the discrete size set"
        );
        self.sizes[id.index()] = size;
    }

    /// Sets the Vth flavor of a gate.
    pub fn set_vth(&mut self, id: NodeId, class: VthClass) {
        self.vth[id.index()] = class;
    }

    /// The next larger size in the library's discrete grid, if any. The
    /// optimizers step through this (not [`Technology::sizes`]) so a
    /// Liberty library with a sparser grid than the builtin models stays
    /// consistent with [`Design::set_size`] validation.
    pub fn size_up(&self, w: f64) -> Option<f64> {
        self.library
            .sizes()
            .iter()
            .copied()
            .find(|&s| s > w * 1.000_001)
    }

    /// The next smaller size in the library's discrete grid, if any.
    pub fn size_down(&self, w: f64) -> Option<f64> {
        self.library
            .sizes()
            .iter()
            .rev()
            .copied()
            .find(|&s| s < w * 0.999_999)
    }

    /// The capacitive load seen by a node's output (fF): fanin pins of the
    /// driven gates, wire stubs per branch, and the fixed primary-output
    /// load if the node is an output.
    pub fn load_cap(&self, id: NodeId) -> f64 {
        let node = self.circuit.node(id);
        let mut c = 0.0;
        for &f in node.fanout {
            let sink = self.circuit.node(f);
            c += self.library.input_cap(
                sink.kind,
                sink.fanin.len(),
                self.sizes[f.index()],
                self.vth[f.index()],
            ) + self.tech.c_wire;
        }
        if self.circuit.is_output(id) {
            c += self.tech.c_output_load;
        }
        if !self.wire_caps.is_empty() {
            c += self.wire_caps[id.index()];
        }
        c
    }

    /// Nominal (no-variation) delay of a gate (ps).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `id` is a primary input.
    pub fn gate_delay_nominal(&self, id: NodeId) -> f64 {
        let node = self.circuit.node(id);
        self.library.delay_nominal(
            node.kind,
            node.fanin.len(),
            self.sizes[id.index()],
            self.vth[id.index()],
            self.load_cap(id),
        )
    }

    /// Nominal leakage current of a gate (A).
    pub fn gate_leakage_nominal(&self, id: NodeId) -> f64 {
        let node = self.circuit.node(id);
        self.library.leakage_nominal(
            node.kind,
            node.fanin.len(),
            self.sizes[id.index()],
            self.vth[id.index()],
        )
    }

    /// Total nominal leakage power (W): `vdd · Σ I_gate`.
    pub fn total_leakage_power_nominal(&self) -> f64 {
        self.tech.vdd
            * self
                .circuit
                .gates()
                .map(|g| self.gate_leakage_nominal(g))
                .sum::<f64>()
    }

    /// Total gate width (area proxy, in minimum-width units).
    pub fn total_width(&self) -> f64 {
        self.circuit.gates().map(|g| self.sizes[g.index()]).sum()
    }

    /// Number of gates assigned the high-Vth flavor.
    pub fn high_vth_count(&self) -> usize {
        self.vth_count(VthClass::High)
    }

    /// Number of gates assigned a given Vth flavor.
    pub fn vth_count(&self, class: VthClass) -> usize {
        self.circuit
            .gates()
            .filter(|&g| self.vth[g.index()] == class)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statleak_netlist::benchmarks;

    fn design() -> Design {
        Design::new(Arc::new(benchmarks::c17()), Technology::ptm100())
    }

    #[test]
    fn starts_min_size_low_vth() {
        let d = design();
        for g in d.circuit().gates() {
            assert_eq!(d.size(g), 1.0);
            assert_eq!(d.vth(g), VthClass::Low);
        }
    }

    #[test]
    fn load_includes_output_cap() {
        let d = design();
        let out = d.circuit().outputs()[0];
        assert!(d.load_cap(out) >= d.tech().c_output_load);
    }

    #[test]
    fn upsizing_fanout_increases_driver_load() {
        let mut d = design();
        let g22 = d.circuit().find("G22").unwrap();
        let g10 = d.circuit().find("G10").unwrap(); // drives G22
        let before = d.load_cap(g10);
        d.set_size(g22, 4.0);
        assert!(d.load_cap(g10) > before);
    }

    #[test]
    fn high_vth_cuts_total_leakage() {
        let mut d = design();
        let base = d.total_leakage_power_nominal();
        let gates: Vec<_> = d.circuit().gates().collect();
        for g in gates {
            d.set_vth(g, VthClass::High);
        }
        assert!(d.total_leakage_power_nominal() < base / 10.0);
        assert_eq!(d.high_vth_count(), 6);
    }

    #[test]
    fn total_width_tracks_sizes() {
        let mut d = design();
        assert!((d.total_width() - 6.0).abs() < 1e-12);
        let g = d.circuit().gates().next().unwrap();
        d.set_size(g, 3.0);
        assert!((d.total_width() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not in the discrete size set")]
    fn rejects_off_grid_size() {
        let mut d = design();
        let g = d.circuit().gates().next().unwrap();
        d.set_size(g, 2.7);
    }

    #[test]
    fn equality_tracks_library_identity() {
        let a = design();
        let b = design();
        assert_eq!(a, b);
        let mut t = Technology::ptm100();
        t.vth_l_coeff = 0.0;
        let c = Design::new(Arc::new(benchmarks::c17()), t);
        assert_ne!(a, c);
    }

    #[test]
    fn fresh_like_keeps_wire_caps() {
        let mut a = design();
        let n = a.circuit().num_nodes();
        a.set_wire_caps(vec![0.5; n]);
        let b = a.fresh_like(Technology::ptm100());
        assert!(
            (b.load_cap(b.circuit().outputs()[0]) - a.load_cap(a.circuit().outputs()[0])).abs()
                < 1e-12
        );
    }
}
