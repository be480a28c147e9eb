use sna_interval::Interval;

use crate::graph::{combinational_topo, Args, NameSpan, Node};
use crate::{Dfg, DfgError, NodeId, Op};

/// Incremental builder for [`Dfg`]s — the only way to construct one.
///
/// Arithmetic methods take already-created node ids, so a well-typed builder
/// program can only produce forward references through
/// [`DfgBuilder::delay_placeholder`] / [`DfgBuilder::bind_delay`], which is
/// exactly the legal way to express feedback.
///
/// # Example
///
/// ```
/// use sna_dfg::DfgBuilder;
///
/// # fn main() -> Result<(), sna_dfg::DfgError> {
/// let mut b = DfgBuilder::new();
/// let x = b.input("x");
/// let k = b.constant(3.0);
/// let y = b.mul(k, x);
/// b.output("y", y);
/// let dfg = b.build()?;
/// assert_eq!(dfg.evaluate(&[2.0])?, vec![6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DfgBuilder {
    nodes: Vec<Node>,
    /// The graph's name arena (see [`Dfg::node_name`]).
    names: String,
    outputs: Vec<(String, NodeId)>,
    input_names: Vec<String>,
    /// Delay nodes created via `delay_placeholder` that still need binding.
    pending_delays: Vec<NodeId>,
    /// Declared range overrides, `(node, interval)` in declaration order.
    overrides: Vec<(NodeId, Interval)>,
}

impl DfgBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: Op, args: &[NodeId]) -> NodeId {
        debug_assert_eq!(op.arity(), args.len());
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            op,
            args: Args::from_slice(args),
            name: None,
        });
        id
    }

    /// Declares an external input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let idx = self.input_names.len();
        let name = name.into();
        let id = self.push(Op::Input(idx), &[]);
        self.nodes[id.0].name = Some(NameSpan::push(&mut self.names, &name));
        self.input_names.push(name);
        id
    }

    /// Declares a constant.
    pub fn constant(&mut self, value: f64) -> NodeId {
        self.push(Op::Const(value), &[])
    }

    /// Adds `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Add, &[a, b])
    }

    /// Adds `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Sub, &[a, b])
    }

    /// Adds `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Mul, &[a, b])
    }

    /// Adds `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Op::Div, &[a, b])
    }

    /// Adds `-a`.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        self.push(Op::Neg, &[a])
    }

    /// Adds `k * a` for a scalar `k` (constant node plus multiply).
    pub fn mul_const(&mut self, k: f64, a: NodeId) -> NodeId {
        let c = self.constant(k);
        self.mul(c, a)
    }

    /// Adds a unit delay of an existing node.
    pub fn delay(&mut self, a: NodeId) -> NodeId {
        self.push(Op::Delay, &[a])
    }

    /// Adds a chain of `n` unit delays of `a`, returning all tap outputs
    /// (`result[0]` = `a` delayed once, …).
    pub fn delay_chain(&mut self, a: NodeId, n: usize) -> Vec<NodeId> {
        let mut taps = Vec::with_capacity(n);
        let mut prev = a;
        for _ in 0..n {
            prev = self.delay(prev);
            taps.push(prev);
        }
        taps
    }

    /// Declares a delay whose source will be bound later (feedback).
    pub fn delay_placeholder(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            op: Op::Delay,
            args: Args::NONE,
            name: None,
        });
        self.pending_delays.push(id);
        id
    }

    /// Binds a placeholder delay to its source node.
    ///
    /// # Errors
    ///
    /// * [`DfgError::UnknownNode`] if either id is foreign or `delay` is not
    ///   a delay;
    /// * [`DfgError::DelayAlreadyBound`] when called twice on the same
    ///   placeholder.
    pub fn bind_delay(&mut self, delay: NodeId, source: NodeId) -> Result<(), DfgError> {
        if delay.0 >= self.nodes.len() || self.nodes[delay.0].op != Op::Delay {
            return Err(DfgError::UnknownNode { node: delay });
        }
        if source.0 >= self.nodes.len() {
            return Err(DfgError::UnknownNode { node: source });
        }
        if !self.nodes[delay.0].args.is_empty() {
            return Err(DfgError::DelayAlreadyBound { node: delay });
        }
        self.nodes[delay.0].args.push(source);
        self.pending_delays.retain(|&d| d != delay);
        Ok(())
    }

    /// Names a node (shows up in DOT exports and diagnostics).  The
    /// text is copied into the graph's name arena; naming a node again
    /// replaces its name.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnknownNode`] for a foreign id.
    pub fn name(&mut self, node: NodeId, name: impl AsRef<str>) -> Result<(), DfgError> {
        if node.0 >= self.nodes.len() {
            return Err(DfgError::UnknownNode { node });
        }
        self.nodes[node.0].name = Some(NameSpan::push(&mut self.names, name.as_ref()));
        Ok(())
    }

    /// Declares a named output.
    pub fn output(&mut self, name: impl Into<String>, node: NodeId) {
        self.outputs.push((name.into(), node));
    }

    /// Declares a range override for a node: every range engine will
    /// report `interval` for it instead of the computed range — the
    /// designer-knowledge escape hatch behind the DSL's
    /// `range [lo, hi]` clause.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnknownNode`] for a foreign id.
    pub fn override_range(&mut self, node: NodeId, interval: Interval) -> Result<(), DfgError> {
        if node.0 >= self.nodes.len() {
            return Err(DfgError::UnknownNode { node });
        }
        self.overrides.retain(|(n, _)| *n != node);
        self.overrides.push((node, interval));
        Ok(())
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes were created yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Validates and finalizes the graph.
    ///
    /// # Errors
    ///
    /// * [`DfgError::UnboundDelay`] if a placeholder was never bound;
    /// * [`DfgError::NoOutputs`] / [`DfgError::DuplicateOutput`] for bad
    ///   output declarations;
    /// * [`DfgError::UnknownNode`] if an output references a foreign id;
    /// * [`DfgError::CombinationalCycle`] if a cycle avoids all delays.
    pub fn build(self) -> Result<Dfg, DfgError> {
        if let Some(&d) = self.pending_delays.first() {
            return Err(DfgError::UnboundDelay { node: d });
        }
        if self.outputs.is_empty() {
            return Err(DfgError::NoOutputs);
        }
        for (i, (name, node)) in self.outputs.iter().enumerate() {
            if node.0 >= self.nodes.len() {
                return Err(DfgError::UnknownNode { node: *node });
            }
            if self.outputs[..i].iter().any(|(n, _)| n == name) {
                return Err(DfgError::DuplicateOutput { name: name.clone() });
            }
        }
        let topo = combinational_topo(&self.nodes)?;
        let delays = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op == Op::Delay)
            .map(|(i, _)| NodeId(i))
            .collect();
        let mut overrides = vec![
            None;
            if self.overrides.is_empty() {
                0
            } else {
                self.nodes.len()
            }
        ];
        for (node, interval) in self.overrides {
            overrides[node.0] = Some(interval);
        }
        Ok(Dfg {
            nodes: self.nodes,
            names: self.names,
            outputs: self.outputs,
            input_names: self.input_names,
            topo,
            delays,
            overrides,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        b.output("s", s);
        let g = b.build().unwrap();
        assert_eq!(g.n_inputs(), 2);
        assert_eq!(g.evaluate(&[1.0, 2.0]).unwrap(), vec![3.0]);
    }

    #[test]
    fn no_outputs_is_an_error() {
        let mut b = DfgBuilder::new();
        b.input("x");
        assert!(matches!(b.build(), Err(DfgError::NoOutputs)));
    }

    #[test]
    fn duplicate_output_names_are_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        b.output("y", x);
        b.output("y", x);
        assert!(matches!(b.build(), Err(DfgError::DuplicateOutput { .. })));
    }

    #[test]
    fn unbound_delay_is_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay_placeholder();
        let s = b.add(x, d);
        b.output("y", s);
        assert!(matches!(b.build(), Err(DfgError::UnboundDelay { .. })));
    }

    #[test]
    fn double_binding_is_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay_placeholder();
        b.bind_delay(d, x).unwrap();
        assert!(matches!(
            b.bind_delay(d, x),
            Err(DfgError::DelayAlreadyBound { .. })
        ));
    }

    #[test]
    fn bind_delay_validates_ids() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        assert!(matches!(
            b.bind_delay(x, x),
            Err(DfgError::UnknownNode { .. })
        ));
        let d = b.delay_placeholder();
        assert!(matches!(
            b.bind_delay(d, NodeId(42)),
            Err(DfgError::UnknownNode { .. })
        ));
    }

    #[test]
    fn feedback_through_delay_is_legal() {
        // y = x + 0.9·z⁻¹(y)
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let g = b.mul_const(0.9, fb);
        let y = b.add(x, g);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        assert!(b.build().is_ok());
    }

    #[test]
    fn delay_chain_produces_taps() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let taps = b.delay_chain(x, 3);
        assert_eq!(taps.len(), 3);
        let y = b.add(taps[2], x);
        b.output("y", y);
        let g = b.build().unwrap();
        assert_eq!(g.delay_nodes().len(), 3);
        let mut sim = crate::Simulator::new(&g);
        // x delayed by 3: first three steps see only the direct path.
        assert_eq!(sim.step(&[1.0]).unwrap(), vec![1.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![1.0]);
    }

    #[test]
    fn naming_nodes() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.neg(x);
        b.name(y, "minus_x").unwrap();
        assert!(b.name(NodeId(9), "nope").is_err());
        b.output("y", y);
        let g = b.build().unwrap();
        assert_eq!(g.node_name(y), Some("minus_x"));
    }
}
