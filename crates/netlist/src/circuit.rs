//! The combinational circuit DAG.

use std::collections::HashMap;
use std::fmt;

/// Index of a node (primary input or gate) inside a [`Circuit`].
///
/// Node ids are dense: `0..circuit.num_nodes()`. They index directly into
/// the per-node vectors kept by the analysis crates (arrival times, sizes,
/// threshold assignments, …), which is why the whole workspace uses plain
/// `Vec<T>` keyed by `NodeId` instead of hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The gate alphabet of the ISCAS85 benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// A primary input (no fanin).
    Input,
    /// Single-input buffer.
    Buff,
    /// Single-input inverter.
    Not,
    /// Multi-input AND.
    And,
    /// Multi-input NAND.
    Nand,
    /// Multi-input OR.
    Or,
    /// Multi-input NOR.
    Nor,
    /// Two-or-more-input XOR.
    Xor,
    /// Two-or-more-input XNOR.
    Xnor,
}

impl GateKind {
    /// All logic-gate kinds (excluding [`GateKind::Input`]).
    pub const LOGIC_KINDS: [GateKind; 8] = [
        GateKind::Buff,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// `true` if the node is a logic gate (has fanin).
    #[inline]
    pub fn is_gate(self) -> bool {
        !matches!(self, GateKind::Input)
    }

    /// The `.bench` keyword for this kind (upper case).
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Buff => "BUFF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
        }
    }

    /// Parses a `.bench` keyword (case-insensitive).
    pub fn from_bench_keyword(kw: &str) -> Option<GateKind> {
        Some(match kw.to_ascii_uppercase().as_str() {
            "BUFF" | "BUF" => GateKind::Buff,
            "NOT" | "INV" => GateKind::Not,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            _ => return None,
        })
    }

    /// Evaluates the boolean function on the fanin values.
    ///
    /// # Panics
    ///
    /// Panics if called on [`GateKind::Input`] or with an empty input slice.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(self.is_gate(), "cannot evaluate a primary input as a gate");
        assert!(!inputs.is_empty(), "gate must have at least one fanin");
        match self {
            GateKind::Input => unreachable!(),
            GateKind::Buff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |a, &b| a ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |a, &b| a ^ b),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

/// A borrowed view of one node: a primary input or a logic gate.
///
/// The circuit stores node attributes struct-of-arrays (parallel vectors
/// plus CSR adjacency) so the timing hot loops stream contiguous memory;
/// this view reassembles the familiar per-node shape on demand for the
/// cold paths. It is `Copy` — take it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node<'a> {
    /// Human-readable signal name (unique within the circuit).
    pub name: &'a str,
    /// The node's function.
    pub kind: GateKind,
    /// Driver nodes, in `.bench` argument order. Empty for inputs.
    pub fanin: &'a [NodeId],
    /// Nodes driven by this node (computed at build time).
    pub fanout: &'a [NodeId],
}

/// Structural statistics of a circuit, as reported in benchmark tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic gates (nodes that are not primary inputs).
    pub gates: usize,
    /// Logic depth: the longest input→output path counted in gates.
    pub depth: usize,
}

/// Errors produced while building a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two nodes were declared with the same name.
    DuplicateName(String),
    /// A fanin referenced a name that was never declared.
    UnknownSignal(String),
    /// A gate was declared with no fanin.
    MissingFanin(String),
    /// A primary output referenced an undeclared signal.
    UnknownOutput(String),
    /// The netlist contains a combinational cycle through the named node.
    Cycle(String),
    /// The circuit has no primary outputs.
    NoOutputs,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
            BuildError::UnknownSignal(n) => write!(f, "fanin references unknown signal `{n}`"),
            BuildError::MissingFanin(n) => write!(f, "gate `{n}` has no fanin"),
            BuildError::UnknownOutput(n) => write!(f, "output references unknown signal `{n}`"),
            BuildError::Cycle(n) => write!(f, "combinational cycle through `{n}`"),
            BuildError::NoOutputs => write!(f, "circuit has no primary outputs"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`Circuit`].
///
/// ```
/// use statleak_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("demo");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::Nand, &["a", "b"])?;
/// b.mark_output("y")?;
/// let c = b.build()?;
/// assert_eq!(c.num_gates(), 1);
/// # Ok::<(), statleak_netlist::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    nodes: Vec<(String, GateKind, Vec<String>)>,
    outputs: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl CircuitBuilder {
    /// Starts building a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Declares a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateName`] if the name is already used.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<(), BuildError> {
        let name = name.into();
        self.declare(name.clone(), GateKind::Input, Vec::new())
    }

    /// Declares a logic gate driven by the named signals.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::DuplicateName`] if the name is already used, or
    /// [`BuildError::MissingFanin`] if `fanin` is empty.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: &[&str],
    ) -> Result<(), BuildError> {
        let name = name.into();
        if fanin.is_empty() {
            return Err(BuildError::MissingFanin(name));
        }
        self.declare(name, kind, fanin.iter().map(|s| s.to_string()).collect())
    }

    /// Marks a declared signal as a primary output.
    ///
    /// Output marks may be issued before the signal is declared; existence
    /// is checked at [`CircuitBuilder::build`] time.
    pub fn mark_output(&mut self, name: impl Into<String>) -> Result<(), BuildError> {
        self.outputs.push(name.into());
        Ok(())
    }

    fn declare(
        &mut self,
        name: String,
        kind: GateKind,
        fanin: Vec<String>,
    ) -> Result<(), BuildError> {
        if self.by_name.contains_key(&name) {
            return Err(BuildError::DuplicateName(name));
        }
        self.by_name.insert(name.clone(), self.nodes.len());
        self.nodes.push((name, kind, fanin));
        Ok(())
    }

    /// Finalizes the circuit: resolves names, checks acyclicity, computes
    /// fanout lists and the topological order.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] on dangling references, cycles, or missing
    /// outputs.
    pub fn build(self) -> Result<Circuit, BuildError> {
        let CircuitBuilder {
            name: circuit_name,
            nodes: decls,
            outputs: output_names,
            by_name,
        } = self;
        let n = decls.len();
        let mut names = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        // Fanin adjacency in CSR form: row `i` is
        // `fanin_dat[fanin_off[i]..fanin_off[i+1]]`, in `.bench` argument
        // order.
        let mut fanin_off = Vec::with_capacity(n + 1);
        fanin_off.push(0u32);
        let mut fanin_dat: Vec<NodeId> = Vec::new();
        for (node_name, kind, fanin_names) in decls {
            for f in &fanin_names {
                let idx = by_name
                    .get(f)
                    .ok_or_else(|| BuildError::UnknownSignal(f.clone()))?;
                fanin_dat.push(NodeId(*idx as u32));
            }
            fanin_off.push(fanin_dat.len() as u32);
            names.push(node_name);
            kinds.push(kind);
        }
        let fanin_row = |off: &[u32], i: usize| -> std::ops::Range<usize> {
            off[i] as usize..off[i + 1] as usize
        };
        // Fanout adjacency via counting sort: consumers appear in
        // (consumer id, fanin position) order — the same order the old
        // per-node push construction produced.
        let mut fanout_off = vec![0u32; n + 1];
        for f in &fanin_dat {
            fanout_off[f.index() + 1] += 1;
        }
        for i in 0..n {
            fanout_off[i + 1] += fanout_off[i];
        }
        let mut cursor: Vec<u32> = fanout_off[..n].to_vec();
        let mut fanout_dat = vec![NodeId(0); fanin_dat.len()];
        for i in 0..n {
            for k in fanin_row(&fanin_off, i) {
                let f = fanin_dat[k];
                fanout_dat[cursor[f.index()] as usize] = NodeId(i as u32);
                cursor[f.index()] += 1;
            }
        }
        // Outputs.
        if output_names.is_empty() {
            return Err(BuildError::NoOutputs);
        }
        let mut outputs = Vec::with_capacity(output_names.len());
        for o in &output_names {
            let idx = by_name
                .get(o)
                .ok_or_else(|| BuildError::UnknownOutput(o.clone()))?;
            outputs.push(NodeId(*idx as u32));
        }
        // Kahn topological sort (also detects cycles).
        let mut indeg: Vec<u32> = (0..n).map(|i| fanin_off[i + 1] - fanin_off[i]).collect();
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo.push(u);
            let row = fanout_off[u.index()] as usize..fanout_off[u.index() + 1] as usize;
            for &v in &fanout_dat[row] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if topo.len() != n {
            let culprit = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| names[i].clone())
                .unwrap_or_default();
            return Err(BuildError::Cycle(culprit));
        }
        // Levels (longest path from any input, inputs at level 0).
        let mut level = vec![0u32; n];
        for &u in &topo {
            let lvl = fanin_row(&fanin_off, u.index())
                .map(|k| level[fanin_dat[k].index()] + 1)
                .max()
                .unwrap_or(0);
            level[u.index()] = lvl;
        }
        // Level blocks: the topological order bucketed by level, so the
        // parallel propagator can fan out one level at a time. Within a
        // level, nodes keep their topo-order relative ranks.
        let depth = level.iter().copied().max().unwrap_or(0) as usize;
        let mut level_start = vec![0u32; depth + 2];
        for &l in &level {
            level_start[l as usize + 1] += 1;
        }
        for l in 0..=depth {
            level_start[l + 1] += level_start[l];
        }
        let mut level_cursor: Vec<u32> = level_start[..=depth].to_vec();
        let mut level_order = vec![NodeId(0); n];
        for &id in &topo {
            let l = level[id.index()] as usize;
            level_order[level_cursor[l] as usize] = id;
            level_cursor[l] += 1;
        }
        let inputs: Vec<NodeId> = (0..n)
            .filter(|&i| kinds[i] == GateKind::Input)
            .map(|i| NodeId(i as u32))
            .collect();
        // Inverse permutation of `topo`: rank of each node in the order.
        let mut topo_rank = vec![0u32; n];
        for (r, &id) in topo.iter().enumerate() {
            topo_rank[id.index()] = r as u32;
        }
        let mut output_mask = vec![false; n];
        for &o in &outputs {
            output_mask[o.index()] = true;
        }
        let by_name = by_name.into_iter().map(|(k, v)| (k, v as u32)).collect();
        Ok(Circuit {
            name: circuit_name,
            names,
            kinds,
            fanin_off,
            fanin_dat,
            fanout_off,
            fanout_dat,
            by_name,
            inputs,
            outputs,
            topo,
            topo_rank,
            level,
            level_start,
            level_order,
            output_mask,
        })
    }
}

/// An immutable combinational circuit DAG.
///
/// Constructed via [`CircuitBuilder`] (or the [`crate::bench`] parser /
/// [`crate::generate`] generator). All derived structures — fanouts,
/// topological order, levels, level blocks — are precomputed at build time.
///
/// Storage is struct-of-arrays: per-node attributes live in parallel
/// vectors and the fanin/fanout adjacency in CSR offset+index arrays, so
/// million-gate propagation streams contiguous memory instead of chasing
/// per-node heap allocations. [`Circuit::node`] reassembles a borrowed
/// [`Node`] view for call sites that want the per-node shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    names: Vec<String>,
    kinds: Vec<GateKind>,
    fanin_off: Vec<u32>,
    fanin_dat: Vec<NodeId>,
    fanout_off: Vec<u32>,
    fanout_dat: Vec<NodeId>,
    by_name: HashMap<String, u32>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    topo: Vec<NodeId>,
    topo_rank: Vec<u32>,
    level: Vec<u32>,
    /// Offsets into `level_order`: level `l` spans
    /// `level_order[level_start[l]..level_start[l+1]]`.
    level_start: Vec<u32>,
    /// The topological order bucketed by level (topo-stable within a
    /// level).
    level_order: Vec<NodeId>,
    output_mask: Vec<bool>,
}

impl Circuit {
    /// The circuit's name (e.g. `"c432"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (inputs + gates).
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates.
    pub fn num_gates(&self) -> usize {
        self.names.len() - self.inputs.len()
    }

    /// A borrowed view of the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        Node {
            name: self.name_of(id),
            kind: self.kind(id),
            fanin: self.fanin(id),
            fanout: self.fanout(id),
        }
    }

    /// The node's function.
    #[inline]
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.kinds[id.index()]
    }

    /// The node's signal name.
    #[inline]
    pub fn name_of(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Driver nodes, in `.bench` argument order. Empty for inputs.
    #[inline]
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        &self.fanin_dat
            [self.fanin_off[id.index()] as usize..self.fanin_off[id.index() + 1] as usize]
    }

    /// Nodes driven by this node.
    #[inline]
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        &self.fanout_dat
            [self.fanout_off[id.index()] as usize..self.fanout_off[id.index() + 1] as usize]
    }

    /// All node ids, in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Primary input ids.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output ids.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Nodes in topological order (inputs first).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Nodes in reverse topological order (outputs first).
    pub fn reverse_topo(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topo.iter().rev().copied()
    }

    /// The level (longest distance from a primary input) of each node.
    pub fn level(&self, id: NodeId) -> usize {
        self.level[id.index()] as usize
    }

    /// The logic depth: the maximum level over all nodes. Level 0 holds
    /// exactly the primary inputs; every level ≥ 1 holds only gates.
    pub fn depth(&self) -> usize {
        self.level_start.len() - 2
    }

    /// The nodes of one level block, topo-stable. Every fanin of a node at
    /// level `l` sits at a level `< l`, so the nodes within a block can be
    /// evaluated in any order (or in parallel) once all earlier blocks are
    /// done.
    pub fn level_nodes(&self, lvl: usize) -> &[NodeId] {
        &self.level_order[self.level_start[lvl] as usize..self.level_start[lvl + 1] as usize]
    }

    /// Iterator over gate ids (skipping primary inputs) in topological
    /// order.
    pub fn gates(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topo
            .iter()
            .copied()
            .filter(move |&id| self.kinds[id.index()].is_gate())
    }

    /// Looks up a node by name. O(1): answered from the name index built
    /// at construction time.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).map(|&i| NodeId(i))
    }

    /// Whether the node is a primary output. O(1): answered from a
    /// membership mask built at construction time.
    pub fn is_output(&self, id: NodeId) -> bool {
        self.output_mask[id.index()]
    }

    /// The rank of a node in the topological order (the inverse of
    /// [`Circuit::topo_order`]). Sorting a node set by this key puts it in
    /// valid evaluation order without scanning the whole circuit.
    #[inline]
    pub fn topo_rank(&self, id: NodeId) -> u32 {
        self.topo_rank[id.index()]
    }

    /// Structural statistics (as reported in benchmark tables).
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            gates: self.num_gates(),
            depth: self.depth(),
        }
    }

    /// Simulates the circuit on a primary-input assignment, returning the
    /// value of every node.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len() != num_inputs()`.
    pub fn simulate(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "expected {} input values",
            self.inputs.len()
        );
        let mut value = vec![false; self.num_nodes()];
        for (i, &id) in self.inputs.iter().enumerate() {
            value[id.index()] = input_values[i];
        }
        let mut buf = Vec::new();
        for &id in &self.topo {
            let kind = self.kinds[id.index()];
            if kind == GateKind::Input {
                continue;
            }
            buf.clear();
            buf.extend(self.fanin(id).iter().map(|f| value[f.index()]));
            value[id.index()] = kind.eval(&buf);
        }
        value
    }

    /// The transitive fanout cone of a node (including the node itself),
    /// in topological order. Used for incremental timing updates.
    ///
    /// Convenience wrapper that allocates a fresh [`ConeScratch`] per call;
    /// hot loops should hold a scratch and use
    /// [`Circuit::collect_fanout_cone`] instead.
    pub fn fanout_cone(&self, root: NodeId) -> Vec<NodeId> {
        let mut scratch = ConeScratch::new();
        self.collect_fanout_cone(&[root], &mut scratch);
        scratch.cone().to_vec()
    }

    /// Collects the union of the transitive fanout cones of `seeds`
    /// (including the seeds themselves) into `scratch`, sorted
    /// topologically. Touches only cone nodes plus their immediate fanout
    /// edges — O(k log k) for a k-node cone — instead of scanning the full
    /// circuit, and reuses the scratch's buffers so steady-state calls do
    /// not allocate.
    pub fn collect_fanout_cone(&self, seeds: &[NodeId], scratch: &mut ConeScratch) {
        scratch.begin(self.num_nodes());
        for &s in seeds {
            scratch.push_if_new(s);
        }
        // DFS over fanout edges; `cone` doubles as the visit stack because
        // every discovered node is part of the result.
        let mut head = 0;
        while head < scratch.cone.len() {
            let u = scratch.cone[head];
            head += 1;
            for &v in self.fanout(u) {
                scratch.push_if_new(v);
            }
        }
        let ranks = &self.topo_rank;
        scratch.cone.sort_unstable_by_key(|id| ranks[id.index()]);
    }

    /// Required times against a clock period `t_clk` (indexed by
    /// [`NodeId::index`]): primary outputs are required at `t_clk`, and a
    /// gate's fanins by its own required time minus `delay(gate)`. Nodes
    /// that reach no output stay `+inf`.
    pub fn required_times(&self, t_clk: f64, delay: impl Fn(NodeId) -> f64) -> Vec<f64> {
        let mut required = vec![f64::INFINITY; self.num_nodes()];
        for &o in &self.outputs {
            required[o.index()] = t_clk;
        }
        for id in self.reverse_topo() {
            if self.kind(id).is_gate() {
                let req_at_input = required[id.index()] - delay(id);
                for &f in self.fanin(id) {
                    if req_at_input < required[f.index()] {
                        required[f.index()] = req_at_input;
                    }
                }
            }
        }
        required
    }

    /// The latest-arrival chain: from the output with the latest
    /// `arrival` back through each gate's latest fanin to a primary input.
    /// Returns node ids from input to output; ties go to the later node in
    /// the output or fanin list.
    pub fn latest_path(&self, arrival: impl Fn(NodeId) -> f64) -> Vec<NodeId> {
        let latest = |ids: &[NodeId]| {
            ids.iter()
                .copied()
                .max_by(|&a, &b| arrival(a).total_cmp(&arrival(b)))
        };
        let mut cur = latest(&self.outputs).expect("circuits have outputs");
        let mut path = vec![cur];
        while self.kind(cur).is_gate() {
            cur = latest(self.fanin(cur)).expect("gates have fanin");
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// Reusable scratch space for fanout-cone collection.
///
/// Visited marks are epoch-stamped: `stamp[i] == epoch` means node `i` is
/// in the current cone, and bumping the epoch invalidates every mark at
/// once, so repeated collections never clear (or reallocate) the
/// full-circuit array. One scratch serves circuits of any size — the stamp
/// vector grows to the largest circuit seen and sticks there.
#[derive(Debug, Clone, Default)]
pub struct ConeScratch {
    stamp: Vec<u32>,
    epoch: u32,
    cone: Vec<NodeId>,
}

impl ConeScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently collected cone, in topological order.
    pub fn cone(&self) -> &[NodeId] {
        &self.cone
    }

    fn begin(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            self.stamp.resize(num_nodes, 0);
        }
        // On wrap-around, stale stamps could alias the new epoch; clearing
        // once every u32::MAX collections keeps correctness without a
        // per-call cost.
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.cone.clear();
    }

    fn push_if_new(&mut self, id: NodeId) {
        if self.stamp[id.index()] != self.epoch {
            self.stamp[id.index()] = self.epoch;
            self.cone.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Circuit {
        let mut b = CircuitBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("g1", GateKind::Nand, &["a", "b"]).unwrap();
        b.add_gate("g2", GateKind::Not, &["g1"]).unwrap();
        b.mark_output("g2").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_counts_and_levels() {
        let c = small();
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.stats().depth, 2);
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.level(g2), 2);
    }

    #[test]
    fn fanout_computed() {
        let c = small();
        let a = c.find("a").unwrap();
        let g1 = c.find("g1").unwrap();
        assert_eq!(c.node(a).fanout, &[g1]);
        assert_eq!(c.fanout(a), &[g1]);
    }

    #[test]
    fn level_blocks_partition_topo_order() {
        let c = small();
        // Level blocks must cover every node exactly once, in ascending
        // level, topo-stable within a block; level 0 is exactly the inputs.
        let mut seen = Vec::new();
        for lvl in 0..=c.depth() {
            for &id in c.level_nodes(lvl) {
                assert_eq!(c.level(id), lvl);
                seen.push(id);
            }
        }
        assert_eq!(seen.len(), c.num_nodes());
        assert_eq!(c.level_nodes(0), c.inputs());
        for lvl in 1..=c.depth() {
            for &id in c.level_nodes(lvl) {
                assert!(c.kind(id).is_gate());
                for &f in c.fanin(id) {
                    assert!(c.level(f) < lvl);
                }
            }
        }
    }

    #[test]
    fn simulate_nand_not() {
        let c = small();
        let g2 = c.find("g2").unwrap();
        // g2 = NOT(NAND(a,b)) = AND(a,b)
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = c.simulate(&[a, b]);
            assert_eq!(v[g2.index()], a && b, "a={a} b={b}");
        }
    }

    #[test]
    fn topo_respects_edges() {
        let c = small();
        let pos: Vec<usize> = {
            let mut p = vec![0; c.num_nodes()];
            for (i, &id) in c.topo_order().iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for id in c.gates() {
            for &f in c.fanin(id) {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut b = CircuitBuilder::new("cyc");
        b.add_input("a").unwrap();
        b.add_gate("x", GateKind::And, &["a", "y"]).unwrap();
        b.add_gate("y", GateKind::Not, &["x"]).unwrap();
        b.mark_output("y").unwrap();
        assert!(matches!(b.build(), Err(BuildError::Cycle(_))));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = CircuitBuilder::new("d");
        b.add_input("a").unwrap();
        assert_eq!(b.add_input("a"), Err(BuildError::DuplicateName("a".into())));
    }

    #[test]
    fn unknown_fanin_rejected() {
        let mut b = CircuitBuilder::new("u");
        b.add_input("a").unwrap();
        b.add_gate("g", GateKind::Not, &["zzz"]).unwrap();
        b.mark_output("g").unwrap();
        assert!(matches!(b.build(), Err(BuildError::UnknownSignal(_))));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut b = CircuitBuilder::new("n");
        b.add_input("a").unwrap();
        assert!(matches!(b.build(), Err(BuildError::NoOutputs)));
    }

    #[test]
    fn fanout_cone_includes_reachable() {
        let c = small();
        let a = c.find("a").unwrap();
        let cone = c.fanout_cone(a);
        assert_eq!(cone.len(), 3); // a, g1, g2
    }

    #[test]
    fn topo_rank_is_inverse_of_topo_order() {
        let c = small();
        for (r, &id) in c.topo_order().iter().enumerate() {
            assert_eq!(c.topo_rank(id) as usize, r);
        }
    }

    #[test]
    fn output_mask_matches_output_list() {
        let c = small();
        for id in (0..c.num_nodes()).map(|i| NodeId(i as u32)) {
            assert_eq!(c.is_output(id), c.outputs().contains(&id));
        }
    }

    #[test]
    fn scratch_cone_matches_full_scan_and_reuses_buffers() {
        let c = small();
        let mut scratch = ConeScratch::new();
        for &id in c.topo_order() {
            // Reference: mark + full topo scan (the pre-scratch algorithm).
            let mut in_cone = vec![false; c.num_nodes()];
            in_cone[id.index()] = true;
            let mut expected = Vec::new();
            for &t in c.topo_order() {
                if in_cone[t.index()] {
                    expected.push(t);
                    for &f in c.fanout(t) {
                        in_cone[f.index()] = true;
                    }
                }
            }
            c.collect_fanout_cone(&[id], &mut scratch);
            assert_eq!(scratch.cone(), expected.as_slice(), "root {id}");
        }
    }

    #[test]
    fn scratch_cone_multi_seed_union() {
        let c = small();
        let a = c.find("a").unwrap();
        let b = c.find("b").unwrap();
        let mut scratch = ConeScratch::new();
        c.collect_fanout_cone(&[a, b], &mut scratch);
        // Union of both cones: a, b, g1, g2 — each exactly once.
        assert_eq!(scratch.cone().len(), 4);
        for w in scratch.cone().windows(2) {
            assert!(c.topo_rank(w[0]) < c.topo_rank(w[1]));
        }
    }

    #[test]
    fn gate_eval_truth_tables() {
        use GateKind::*;
        assert!(And.eval(&[true, true]));
        assert!(!And.eval(&[true, false]));
        assert!(!Nand.eval(&[true, true]));
        assert!(Or.eval(&[false, true]));
        assert!(!Nor.eval(&[false, true]));
        assert!(Nor.eval(&[false, false]));
        assert!(Xor.eval(&[true, false]));
        assert!(!Xor.eval(&[true, true]));
        assert!(Xnor.eval(&[true, true]));
        assert!(Not.eval(&[false]));
        assert!(Buff.eval(&[true]));
        // 3-input parity.
        assert!(Xor.eval(&[true, true, true]));
    }

    #[test]
    fn bench_keyword_round_trip() {
        for k in GateKind::LOGIC_KINDS {
            assert_eq!(GateKind::from_bench_keyword(k.bench_keyword()), Some(k));
        }
        assert_eq!(GateKind::from_bench_keyword("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::from_bench_keyword("FLIPFLOP"), None);
    }
}
