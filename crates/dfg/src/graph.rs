use std::fmt;
use std::ops::Deref;

use sna_interval::Interval;

use crate::DfgError;

/// Identifier of a node within a [`Dfg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of this node.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Reconstructs an id from a raw index.
    ///
    /// Ids are plain indices; validity against a particular graph is
    /// checked by [`Dfg::check_node`] at use sites.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The operation performed by a node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// External input; the payload is the index into the input vector.
    Input(usize),
    /// A compile-time constant.
    Const(f64),
    /// Two-operand addition.
    Add,
    /// Two-operand subtraction (`args[0] - args[1]`).
    Sub,
    /// Two-operand multiplication.
    Mul,
    /// Two-operand division (`args[0] / args[1]`).
    Div,
    /// Negation.
    Neg,
    /// Unit delay (`z⁻¹`): outputs its previous-cycle argument value;
    /// initial state is 0.  The only legal way to close feedback loops.
    Delay,
}

impl Op {
    /// Number of arguments the operation takes.
    pub fn arity(&self) -> usize {
        match self {
            Op::Input(_) | Op::Const(_) => 0,
            Op::Neg | Op::Delay => 1,
            Op::Add | Op::Sub | Op::Mul | Op::Div => 2,
        }
    }

    /// Whether this is an arithmetic operator that occupies a functional
    /// unit in hardware (inputs, constants and delays map to wires and
    /// registers instead).
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Neg)
    }

    /// Short mnemonic, used in DOT exports and debug output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input(_) => "in",
            Op::Const(_) => "const",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Neg => "neg",
            Op::Delay => "z⁻¹",
        }
    }
}

/// A node's argument ids, stored inline: every operation takes at most
/// two, so a node costs no heap allocation for them. Derefs to the
/// used prefix.
#[derive(Clone, Copy)]
pub(crate) struct Args {
    ids: [NodeId; 2],
    len: u8,
}

impl Args {
    /// No arguments.
    pub(crate) const NONE: Args = Args {
        ids: [NodeId(0); 2],
        len: 0,
    };

    /// The arguments `ids`, in order.
    ///
    /// # Panics
    ///
    /// Panics on more than two ids.
    pub(crate) fn from_slice(ids: &[NodeId]) -> Args {
        let mut args = Args::NONE;
        for &id in ids {
            args.push(id);
        }
        args
    }

    /// Appends one argument.
    ///
    /// # Panics
    ///
    /// Panics when the node already has two.
    pub(crate) fn push(&mut self, id: NodeId) {
        self.ids[usize::from(self.len)] = id;
        self.len += 1;
    }
}

impl Deref for Args {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A node: an operation plus its argument nodes. Its optional name
/// lives in the graph's name arena ([`Dfg::node_name`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    pub(crate) op: Op,
    pub(crate) args: Args,
    pub(crate) name: Option<NameSpan>,
}

impl Node {
    /// The node's operation.
    pub fn op(&self) -> Op {
        self.op
    }

    /// The node's arguments.
    pub fn args(&self) -> &[NodeId] {
        &self.args
    }
}

/// Where a node's name sits in its graph's name arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NameSpan {
    start: usize,
    end: usize,
}

impl NameSpan {
    /// Appends `name` to `arena` and returns its span there.
    pub(crate) fn push(arena: &mut String, name: &str) -> NameSpan {
        let start = arena.len();
        arena.push_str(name);
        NameSpan {
            start,
            end: arena.len(),
        }
    }

    /// The name this span covers in `arena`.
    pub(crate) fn of(self, arena: &str) -> &str {
        &arena[self.start..self.end]
    }
}

/// Per-operation node counts, as reported by [`Dfg::op_counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of input nodes.
    pub inputs: usize,
    /// Number of constant nodes.
    pub consts: usize,
    /// Number of additions.
    pub adds: usize,
    /// Number of subtractions.
    pub subs: usize,
    /// Number of multiplications.
    pub muls: usize,
    /// Number of divisions.
    pub divs: usize,
    /// Number of negations.
    pub negs: usize,
    /// Number of unit delays.
    pub delays: usize,
}

impl OpCounts {
    /// Total number of arithmetic operations (excluding inputs, constants
    /// and delays).
    pub fn arithmetic(&self) -> usize {
        self.adds + self.subs + self.muls + self.divs + self.negs
    }
}

/// A validated dataflow graph.
///
/// Construction goes through [`DfgBuilder`](crate::DfgBuilder), which
/// guarantees: all arguments exist, arities are correct, every delay is
/// bound, outputs are named uniquely, and every cycle passes through a
/// delay.  The graph caches a combinational topological order (delays act
/// as cycle-breaking sources).
#[derive(Clone, Debug)]
pub struct Dfg {
    pub(crate) nodes: Vec<Node>,
    /// Every node name, back to back: one allocation however many nodes
    /// are named ([`Node`] holds its span).
    pub(crate) names: String,
    pub(crate) outputs: Vec<(String, NodeId)>,
    pub(crate) input_names: Vec<String>,
    /// Topological order for combinational evaluation: delays excluded
    /// (their values are state, available at cycle start).
    pub(crate) topo: Vec<NodeId>,
    /// All delay nodes, in id order.
    pub(crate) delays: Vec<NodeId>,
    /// Per-node range overrides (the DSL's `range [lo, hi]` clause):
    /// every range engine reports the declared interval for an
    /// overridden node instead of its computed one.  Empty when no node
    /// is overridden.
    pub(crate) overrides: Vec<Option<Interval>>,
}

impl Dfg {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The optional name of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.0].name.map(|span| span.of(&self.names))
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Declared outputs as `(name, node)` pairs.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Number of external inputs.
    pub fn n_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Names of the inputs, in input-index order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// All delay nodes in id order.
    pub fn delay_nodes(&self) -> &[NodeId] {
        &self.delays
    }

    /// The cached combinational topological order (delays excluded).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Whether the graph is purely combinational (no delays).
    pub fn is_combinational(&self) -> bool {
        self.delays.is_empty()
    }

    /// The declared range override of a node (the DSL's
    /// `range [lo, hi]` clause), if any.  Every range engine in this
    /// crate reports the override for such a node instead of its
    /// computed range.
    pub fn range_override(&self, id: NodeId) -> Option<Interval> {
        self.overrides.get(id.0).copied().flatten()
    }

    /// Whether any node carries a range override.
    pub fn has_range_overrides(&self) -> bool {
        self.overrides.iter().any(Option::is_some)
    }

    /// Counts nodes per operation kind.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for n in &self.nodes {
            match n.op {
                Op::Input(_) => c.inputs += 1,
                Op::Const(_) => c.consts += 1,
                Op::Add => c.adds += 1,
                Op::Sub => c.subs += 1,
                Op::Mul => c.muls += 1,
                Op::Div => c.divs += 1,
                Op::Neg => c.negs += 1,
                Op::Delay => c.delays += 1,
            }
        }
        c
    }

    /// Longest path length counted in arithmetic operations (the
    /// combinational critical path in operator stages).
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.nodes.len()];
        for &id in &self.topo {
            let n = &self.nodes[id.0];
            let base = n.args.iter().map(|a| depth[a.0]).max().unwrap_or(0);
            depth[id.0] = base + usize::from(n.op.is_arithmetic());
        }
        self.outputs
            .iter()
            .map(|(_, id)| depth[id.0])
            .max()
            .unwrap_or(0)
    }

    /// A purely combinational copy in which every delay node is replaced by
    /// a fresh input — the "per-sample datapath" view used for scheduling
    /// and for range/noise analysis of one iteration.
    ///
    /// The fresh inputs are appended after the original ones, named
    /// `"<delay name or node id>.state"`, in delay id order.
    pub fn combinational_view(&self) -> Dfg {
        let mut nodes = self.nodes.clone();
        let mut names = self.names.clone();
        let mut input_names = self.input_names.clone();
        for &d in &self.delays {
            let idx = input_names.len();
            let name = match self.node_name(d) {
                Some(n) => format!("{n}.state"),
                None => format!("{d}.state"),
            };
            nodes[d.0] = Node {
                op: Op::Input(idx),
                args: Args::NONE,
                name: Some(NameSpan::push(&mut names, &name)),
            };
            input_names.push(name);
        }
        // All nodes are now combinational; recompute the topological order.
        let topo = combinational_topo(&nodes).expect("delay-free graph cannot have cycles");
        Dfg {
            nodes,
            names,
            outputs: self.outputs.clone(),
            input_names,
            topo,
            delays: Vec::new(),
            // A delay's override becomes its state input's override: the
            // per-sample view reports the same per-node ranges.
            overrides: self.overrides.clone(),
        }
    }

    /// The downstream cone of `id`: every node whose value can change when
    /// `id`'s value (or output format) changes, `id` included, in
    /// evaluation order.
    ///
    /// Reachability follows *all* consumer edges — including the
    /// sequential edge into a delay — so the cone is the full region an
    /// incremental analysis must re-propagate after a single-node change.
    /// Combinational nodes appear in [`Dfg::topo_order`] position; delay
    /// nodes (whose value is state, recomputed at cycle boundaries) are
    /// appended afterwards in id order.
    ///
    /// Cost is `O(#nodes + #edges)` per call; callers that need many cones
    /// should cache the results.
    pub fn downstream_cone(&self, id: NodeId) -> Vec<NodeId> {
        let reachable = self.downstream_mask(&[id]);
        let mut cone: Vec<NodeId> = self
            .topo
            .iter()
            .copied()
            .filter(|t| reachable[t.0])
            .collect();
        cone.extend(self.delays.iter().copied().filter(|d| reachable[d.0]));
        cone
    }

    /// The union downstream cone of several roots, as a per-node mask.
    ///
    /// Follows the same edges as [`Dfg::downstream_cone`], including the
    /// sequential edge into a delay.
    pub fn downstream_mask(&self, roots: &[NodeId]) -> Vec<bool> {
        let n = self.nodes.len();
        let mut reachable = vec![false; n];
        for r in roots {
            reachable[r.0] = true;
        }
        // Id order is not an evaluation order (a delay's argument may have
        // a larger id), so sweep to a fixpoint; combinational edges
        // resolve in one forward pass and each extra pass crosses at
        // least one delay, so this terminates quickly.
        loop {
            let mut changed = false;
            for (i, node) in self.nodes.iter().enumerate() {
                if reachable[i] {
                    continue;
                }
                if node.args.iter().any(|a| reachable[a.0]) {
                    reachable[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        reachable
    }

    /// The ids of every `Const` node, in id order — the coefficient slots
    /// of [`Dfg::with_const_values`].
    pub fn const_nodes(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| matches!(n.op(), Op::Const(_)))
            .map(|(id, _)| id)
            .collect()
    }

    /// The current constant values, in [`Dfg::const_nodes`] order — the
    /// graph's coefficient vector.
    pub fn const_values(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter_map(|n| match n.op {
                Op::Const(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    /// A copy of the graph with every `Const` value replaced, in
    /// [`Dfg::const_nodes`] order — the "same shape, new coefficients"
    /// skeleton reuse behind coefficient swaps.  Everything
    /// structural (node ids, arguments, names, topological order, delay
    /// inventory, outputs) is preserved verbatim.
    ///
    /// # Errors
    ///
    /// [`DfgError::WrongInputCount`] when `values.len()` differs from the
    /// number of constant nodes (reusing the counting error shape: the
    /// expected/got pair names the constant slots).
    pub fn with_const_values(&self, values: &[f64]) -> Result<Dfg, DfgError> {
        let n_consts = self
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Const(_)))
            .count();
        if values.len() != n_consts {
            return Err(DfgError::WrongInputCount {
                expected: n_consts,
                got: values.len(),
            });
        }
        let mut swapped = self.clone();
        let mut next = values.iter();
        for node in &mut swapped.nodes {
            if matches!(node.op, Op::Const(_)) {
                node.op = Op::Const(*next.next().expect("counted above"));
            }
        }
        Ok(swapped)
    }

    /// A canonical text rendering of the graph's *shape*: every node's
    /// operation (with `Const` **values masked out**), arguments and
    /// name, plus the declared outputs.  Two graphs share a signature
    /// exactly when one is [`Dfg::with_const_values`] of the other — the
    /// key of coefficient-level skeleton caches.
    ///
    /// Input ranges are not part of the graph and must be appended by
    /// the caller when they matter for the cached artifact.
    #[must_use]
    pub fn shape_signature(&self) -> String {
        // Built by hand rather than through `write!`: a cold cache lookup
        // renders this for every request, and the formatting machinery
        // cost more than the graph walk.
        let mut out = String::with_capacity(self.nodes.len() * 24 + self.outputs.len() * 16);
        for (i, node) in self.nodes.iter().enumerate() {
            push_node_ref(&mut out, i);
            out.push(' ');
            match node.op {
                Op::Input(k) => {
                    out.push_str("in");
                    push_decimal(&mut out, k);
                }
                Op::Const(_) => out.push_str("const#"), // value masked
                _ => out.push_str(node.op.mnemonic()),
            }
            for a in node.args.iter() {
                out.push(' ');
                push_node_ref(&mut out, a.0);
            }
            if let Some(span) = node.name {
                out.push_str(" \"");
                out.push_str(span.of(&self.names));
                out.push('"');
            }
            out.push('\n');
        }
        for (name, id) in &self.outputs {
            out.push_str("out \"");
            out.push_str(name);
            out.push_str("\" ");
            push_node_ref(&mut out, id.0);
            out.push('\n');
        }
        // Range overrides change every downstream analysis, so two
        // shapes that differ only in overrides must not alias.
        for (i, ov) in self.overrides.iter().enumerate() {
            if let Some(r) = ov {
                out.push_str("override ");
                push_node_ref(&mut out, i);
                out.push(' ');
                push_hex16(&mut out, r.lo().to_bits());
                out.push(' ');
                push_hex16(&mut out, r.hi().to_bits());
                out.push('\n');
            }
        }
        out
    }

    /// Validates that `id` belongs to this graph.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnknownNode`] otherwise.
    pub fn check_node(&self, id: NodeId) -> Result<(), DfgError> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(DfgError::UnknownNode { node: id })
        }
    }
}

/// Appends `n<index>`, the node spelling of [`NodeId`]'s `Display`.
fn push_node_ref(out: &mut String, index: usize) {
    out.push('n');
    push_decimal(out, index);
}

/// Appends `value` in decimal, exactly as `{}` formats it.
fn push_decimal(out: &mut String, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends `bits` as 16 lowercase hex digits, exactly as `{:016x}`
/// formats it.
fn push_hex16(out: &mut String, bits: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..16).rev() {
        out.push(char::from(HEX[((bits >> (shift * 4)) & 0xf) as usize]));
    }
}

/// Kahn topological sort over the combinational edges (delay nodes are
/// sources: their incoming edge is sequential, not combinational).
///
/// Successor lists live in one flat CSR array (`succ_start[i]..
/// succ_start[i + 1]` indexes `succs`), filled in the same node order a
/// per-node list would be, so the pop order — and the resulting
/// topological order — is the same.
pub(crate) fn combinational_topo(nodes: &[Node]) -> Result<Vec<NodeId>, DfgError> {
    let n = nodes.len();
    let mut indegree = vec![0usize; n];
    let mut succ_start = vec![0usize; n + 1];
    let combinational = |node: &Node| node.op != Op::Delay; // else a sequential edge
    for (i, node) in nodes.iter().enumerate() {
        if !combinational(node) {
            continue;
        }
        for a in node.args.iter() {
            succ_start[a.0 + 1] += 1;
            indegree[i] += 1;
        }
    }
    for i in 0..n {
        succ_start[i + 1] += succ_start[i];
    }
    let mut fill = succ_start[..n].to_vec();
    let mut succs = vec![0usize; succ_start[n]];
    for (i, node) in nodes.iter().enumerate() {
        if !combinational(node) {
            continue;
        }
        for a in node.args.iter() {
            succs[fill[a.0]] = i;
            fill[a.0] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(NodeId(i));
        for &s in &succs[succ_start[i]..succ_start[i + 1]] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() != n {
        let node = (0..n)
            .find(|&i| indegree[i] > 0)
            .map(NodeId)
            .expect("some node has positive indegree");
        return Err(DfgError::CombinationalCycle { node });
    }
    // Exclude delays from the evaluation order (their output is state).
    order.retain(|id| nodes[id.0].op != Op::Delay);
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    fn fir2() -> Dfg {
        // y[n] = x[n] + 0.5 x[n-1]
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let xd = b.delay(x);
        let c = b.constant(0.5);
        let t = b.mul(c, xd);
        let y = b.add(x, t);
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn op_metadata() {
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Neg.arity(), 1);
        assert_eq!(Op::Const(1.0).arity(), 0);
        assert!(Op::Mul.is_arithmetic());
        assert!(!Op::Delay.is_arithmetic());
        assert_eq!(Op::Div.mnemonic(), "div");
    }

    #[test]
    fn graph_queries() {
        let g = fir2();
        assert_eq!(g.len(), 5);
        assert_eq!(g.n_inputs(), 1);
        assert_eq!(g.input_names(), &["x".to_string()]);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.delay_nodes().len(), 1);
        assert!(!g.is_combinational());
        let c = g.op_counts();
        assert_eq!(c.adds, 1);
        assert_eq!(c.muls, 1);
        assert_eq!(c.delays, 1);
        assert_eq!(c.arithmetic(), 2);
    }

    #[test]
    fn depth_counts_arithmetic_stages() {
        let g = fir2();
        // x -> (mul) -> (add): depth 2.
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = fir2();
        let pos: Vec<usize> = {
            let mut pos = vec![usize::MAX; g.len()];
            for (k, id) in g.topo_order().iter().enumerate() {
                pos[id.index()] = k;
            }
            pos
        };
        for (id, node) in g.nodes() {
            if node.op() == Op::Delay {
                continue;
            }
            for a in node.args() {
                if g.node(*a).op() == Op::Delay {
                    continue;
                }
                assert!(pos[a.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn combinational_view_replaces_delays_with_inputs() {
        let g = fir2();
        let c = g.combinational_view();
        assert!(c.is_combinational());
        assert_eq!(c.n_inputs(), 2);
        assert_eq!(c.op_counts().delays, 0);
        // Same arithmetic structure.
        assert_eq!(c.op_counts().arithmetic(), g.op_counts().arithmetic());
        // Evaluating the view with explicit state matches a simulator step.
        let y = crate::Simulator::new(&g).step(&[2.0]).unwrap();
        let yv = c.evaluate(&[2.0, 0.0]).unwrap();
        assert_eq!(y, yv);
    }

    #[test]
    fn downstream_cone_follows_all_consumer_edges() {
        let g = fir2();
        // Node ids in build order: x=0, xd=1 (delay), c=2, t=3 (mul),
        // y=4 (add).
        let cone_of = |i: usize| {
            let mut v: Vec<usize> = g
                .downstream_cone(NodeId(i))
                .iter()
                .map(|n| n.index())
                .collect();
            v.sort_unstable();
            v
        };
        // x feeds the delay (sequential edge), the mul via the delay, and
        // the add directly: everything is downstream.
        assert_eq!(cone_of(0), vec![0, 1, 3, 4]);
        // The constant only feeds mul -> add.
        assert_eq!(cone_of(2), vec![2, 3, 4]);
        // The output add reaches only itself.
        assert_eq!(cone_of(4), vec![4]);
    }

    #[test]
    fn downstream_cone_is_in_evaluation_order() {
        let g = fir2();
        let pos: Vec<usize> = {
            let mut pos = vec![usize::MAX; g.len()];
            for (k, id) in g.topo_order().iter().enumerate() {
                pos[id.index()] = k;
            }
            pos
        };
        for (id, _) in g.nodes() {
            let cone = g.downstream_cone(id);
            let combinational: Vec<usize> = cone
                .iter()
                .filter(|n| g.node(**n).op() != Op::Delay)
                .map(|n| pos[n.index()])
                .collect();
            assert!(
                combinational.windows(2).all(|w| w[0] < w[1]),
                "cone of {id} not topo-sorted"
            );
            assert!(cone.contains(&id));
        }
    }

    #[test]
    fn downstream_cone_through_feedback_reaches_the_loop() {
        // y = x + 0.5·y[n-1]: the constant's cone crosses the delay and
        // covers the whole loop body.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let cone = g.downstream_cone(x);
        // x -> add -> delay -> mul -> add: all of the loop is reachable.
        assert!(cone.len() >= 4, "cone {cone:?}");
        assert!(cone.contains(&fb));
        assert!(cone.contains(&y));
    }

    #[test]
    fn const_values_round_trip_through_with_const_values() {
        let g = fir2();
        assert_eq!(g.const_values(), vec![0.5]);
        assert_eq!(g.const_nodes().len(), 1);
        let patched = g.with_const_values(&[0.25]).unwrap();
        assert_eq!(patched.const_values(), vec![0.25]);
        // Structure is untouched: same ids, args, topo order, outputs.
        assert_eq!(patched.len(), g.len());
        assert_eq!(patched.topo_order(), g.topo_order());
        assert_eq!(patched.delay_nodes(), g.delay_nodes());
        assert_eq!(patched.outputs(), g.outputs());
        // And the new coefficient is live.
        let mut sim = crate::Simulator::new(&patched);
        assert_eq!(sim.step(&[1.0]).unwrap(), vec![1.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.25]);
        // Wrong slot count is rejected.
        assert!(matches!(
            g.with_const_values(&[0.1, 0.2]),
            Err(DfgError::WrongInputCount { .. })
        ));
    }

    #[test]
    fn with_const_values_keeps_range_overrides() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(0.5, x);
        let y = b.add(x, t);
        let pinned = Interval::new(-1.25, 1.25).unwrap();
        b.override_range(y, pinned).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let swapped = g.with_const_values(&[0.25]).unwrap();
        assert_eq!(swapped.range_override(y), Some(pinned));
        assert_eq!(swapped.shape_signature(), g.shape_signature());
    }

    #[test]
    fn downstream_mask_unions_roots() {
        let g = fir2();
        // Roots {c=2, x=0}: everything but nothing extra beyond the two
        // single-root cones.
        let mask = g.downstream_mask(&[NodeId(2), NodeId(0)]);
        let expect: Vec<usize> = vec![0, 1, 2, 3, 4];
        let got: Vec<usize> = (0..g.len()).filter(|&i| mask[i]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn hand_written_digits_match_std_formatting() {
        for v in [0usize, 7, 10, 99, 100, 12_345, usize::MAX] {
            let mut out = String::new();
            push_decimal(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
        for bits in [
            0u64,
            1,
            0xf,
            0x3fe0_0000_0000_0000,
            u64::MAX,
            (-1.5f64).to_bits(),
        ] {
            let mut out = String::new();
            push_hex16(&mut out, bits);
            assert_eq!(out, format!("{bits:016x}"));
        }
    }

    #[test]
    fn combinational_topo_matches_per_node_successor_lists() {
        // The per-node-list Kahn sort the CSR version replaced: same
        // pop order, so the same topological order.
        fn reference(nodes: &[Node]) -> Vec<NodeId> {
            let n = nodes.len();
            let mut indegree = vec![0usize; n];
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, node) in nodes.iter().enumerate() {
                if node.op != Op::Delay {
                    for a in node.args.iter() {
                        succs[a.0].push(i);
                        indegree[i] += 1;
                    }
                }
            }
            let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
            let mut order = Vec::new();
            while let Some(i) = queue.pop() {
                order.push(NodeId(i));
                for &s in &succs[i] {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        queue.push(s);
                    }
                }
            }
            order.retain(|id| nodes[id.0].op != Op::Delay);
            order
        }
        // A diamond with a shared operand, a square, feedback and taps.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let u = b.input("u");
        let fb = b.delay_placeholder();
        let sq = b.mul(x, x);
        let t = b.mul_const(0.5, fb);
        let taps = b.delay_chain(u, 3);
        let s1 = b.add(sq, t);
        let s2 = b.sub(s1, taps[2]);
        let n = b.neg(s2);
        let y = b.add(n, x);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        b.output("z", s1);
        let g = b.build().unwrap();
        assert_eq!(g.topo_order(), reference(&g.nodes).as_slice());
        assert_eq!(fir2().topo_order(), reference(&fir2().nodes).as_slice());
    }

    #[test]
    fn check_node_rejects_foreign_ids() {
        let g = fir2();
        assert!(g.check_node(NodeId(0)).is_ok());
        assert!(matches!(
            g.check_node(NodeId(99)),
            Err(DfgError::UnknownNode { .. })
        ));
    }
}
