//! Binary serialization of a [`Dfg`] for the persistent artifact store.
//!
//! The encoding (built on `sna_store::wire`, see that module for the
//! primitive rules) captures exactly the builder's inputs — nodes with
//! operations/arguments/names, declared outputs, input names, range
//! overrides — and **recomputes** everything derived on decode: the
//! topological order comes back through the same Kahn sort the builder
//! uses and the delay inventory is re-collected in node order, so a
//! decoded graph is indistinguishable from a freshly built one and a
//! tampered frame can never smuggle in an inconsistent evaluation
//! order.
//!
//! Decoding validates every structural invariant the builder enforces
//! (argument arity and bounds, input-index bijection, output presence
//! and uniqueness, override intervals) and reports any violation as a
//! [`WireError`] — store consumers treat that exactly like a CRC
//! mismatch and recompile.

use sna_interval::Interval;
use sna_store::{WireError, WireReader, WireWriter};

use crate::graph::{combinational_topo, Args, Dfg, NameSpan, Node, NodeId, Op};

/// Per-node operation tags (stable across releases; append only).
const TAG_INPUT: u8 = 0;
const TAG_CONST: u8 = 1;
const TAG_ADD: u8 = 2;
const TAG_SUB: u8 = 3;
const TAG_MUL: u8 = 4;
const TAG_DIV: u8 = 5;
const TAG_NEG: u8 = 6;
const TAG_DELAY: u8 = 7;

impl Dfg {
    /// Encodes the graph for the artifact store. Constant values travel
    /// as exact bit patterns, so `from_wire(to_wire(g))` reproduces the
    /// graph bit-identically.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.len(self.nodes.len());
        for node in &self.nodes {
            match node.op {
                Op::Input(k) => {
                    w.u8(TAG_INPUT);
                    w.u64(k as u64);
                }
                Op::Const(c) => {
                    w.u8(TAG_CONST);
                    w.f64(c);
                }
                Op::Add => w.u8(TAG_ADD),
                Op::Sub => w.u8(TAG_SUB),
                Op::Mul => w.u8(TAG_MUL),
                Op::Div => w.u8(TAG_DIV),
                Op::Neg => w.u8(TAG_NEG),
                Op::Delay => w.u8(TAG_DELAY),
            }
            // Arity is determined by the op, so arguments need no count.
            for a in node.args.iter() {
                w.u64(a.index() as u64);
            }
            match node.name {
                Some(span) => {
                    w.u8(1);
                    w.str(span.of(&self.names));
                }
                None => w.u8(0),
            }
        }
        w.len(self.input_names.len());
        for name in &self.input_names {
            w.str(name);
        }
        w.len(self.outputs.len());
        for (name, id) in &self.outputs {
            w.str(name);
            w.u64(id.index() as u64);
        }
        let overrides: Vec<(usize, Interval)> = self
            .overrides
            .iter()
            .enumerate()
            .filter_map(|(i, ov)| ov.map(|r| (i, r)))
            .collect();
        w.len(overrides.len());
        for (i, r) in overrides {
            w.u64(i as u64);
            w.f64(r.lo());
            w.f64(r.hi());
        }
        w.finish()
    }

    /// Decodes a graph written by [`Dfg::to_wire`], re-validating every
    /// builder invariant and recomputing the derived structures.
    ///
    /// # Errors
    ///
    /// [`WireError`] on any malformed, truncated, out-of-bounds or
    /// invariant-violating input — never panics.
    pub fn from_wire(bytes: &[u8]) -> Result<Dfg, WireError> {
        let mut r = WireReader::new(bytes);
        let n_nodes = r.read_count(2)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut names = String::new();
        for _ in 0..n_nodes {
            let op = match r.u8()? {
                TAG_INPUT => Op::Input(usize::try_from(r.u64()?).map_err(wide)?),
                TAG_CONST => Op::Const(r.f64()?),
                TAG_ADD => Op::Add,
                TAG_SUB => Op::Sub,
                TAG_MUL => Op::Mul,
                TAG_DIV => Op::Div,
                TAG_NEG => Op::Neg,
                TAG_DELAY => Op::Delay,
                t => return Err(WireError::new(format!("unknown op tag {t}"))),
            };
            let mut args = Args::NONE;
            for _ in 0..op.arity() {
                args.push(node_ref(r.u64()?, n_nodes)?);
            }
            let name = match r.u8()? {
                0 => None,
                1 => Some(NameSpan::push(&mut names, &r.str()?)),
                f => return Err(WireError::new(format!("bad name flag {f}"))),
            };
            nodes.push(Node { op, args, name });
        }

        let n_inputs = r.read_count(8)?;
        let mut input_names = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            input_names.push(r.str()?);
        }
        // Input payloads must be a bijection onto the declared names,
        // exactly as the builder constructs them.
        let mut seen = vec![false; n_inputs];
        for node in &nodes {
            if let Op::Input(k) = node.op {
                if k >= n_inputs || seen[k] {
                    return Err(WireError::new(format!("bad input index {k}")));
                }
                seen[k] = true;
            }
        }
        if seen.iter().any(|s| !s) {
            return Err(WireError::new("declared input without an input node"));
        }

        let n_outputs = r.read_count(9)?;
        if n_outputs == 0 {
            return Err(WireError::new("graph declares no outputs"));
        }
        let mut outputs: Vec<(String, NodeId)> = Vec::with_capacity(n_outputs);
        for _ in 0..n_outputs {
            let name = r.str()?;
            if outputs.iter().any(|(n, _)| *n == name) {
                return Err(WireError::new(format!("duplicate output `{name}`")));
            }
            let id = node_ref(r.u64()?, n_nodes)?;
            outputs.push((name, id));
        }

        let n_overrides = r.read_count(24)?;
        let mut overrides = vec![None; n_nodes];
        for _ in 0..n_overrides {
            let id = node_ref(r.u64()?, n_nodes)?;
            let (lo, hi) = (r.f64()?, r.f64()?);
            let interval = Interval::new(lo, hi)
                .map_err(|e| WireError::new(format!("bad override interval: {e}")))?;
            overrides[id.index()] = Some(interval);
        }
        r.expect_end()?;

        let topo = combinational_topo(&nodes)
            .map_err(|e| WireError::new(format!("invalid graph: {e}")))?;
        let delays: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op == Op::Delay)
            .map(|(i, _)| NodeId(i))
            .collect();
        Ok(Dfg {
            nodes,
            names,
            outputs,
            input_names,
            topo,
            delays,
            overrides,
        })
    }
}

fn node_ref(raw: u64, n_nodes: usize) -> Result<NodeId, WireError> {
    let i = usize::try_from(raw).map_err(wide)?;
    if i < n_nodes {
        Ok(NodeId(i))
    } else {
        Err(WireError::new(format!(
            "node reference {i} out of range (graph has {n_nodes})"
        )))
    }
}

fn wide<E>(_: E) -> WireError {
    WireError::new("index exceeds usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    fn iir() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay_placeholder();
        let k = b.constant(0.5);
        let prod = b.mul(k, d);
        let y = b.add(x, prod);
        b.name(y, "y").unwrap();
        b.bind_delay(d, y).unwrap();
        b.override_range(y, Interval::new(-2.0, 2.0).unwrap())
            .unwrap();
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn round_trips_bit_identically() {
        let g = iir();
        let decoded = Dfg::from_wire(&g.to_wire()).unwrap();
        assert_eq!(decoded.shape_signature(), g.shape_signature());
        assert_eq!(decoded.const_values(), g.const_values());
        assert_eq!(decoded.topo_order(), g.topo_order());
        assert_eq!(decoded.delay_nodes(), g.delay_nodes());
        assert_eq!(decoded.input_names(), g.input_names());
        assert_eq!(decoded.outputs(), g.outputs());
        // And the round trip is a fixpoint at the byte level.
        assert_eq!(decoded.to_wire(), g.to_wire());
    }

    #[test]
    fn rejects_malformed_frames_without_panicking() {
        let good = iir().to_wire();
        // Truncations at every prefix length must error, never panic.
        for cut in 0..good.len() {
            assert!(Dfg::from_wire(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Flipping any single byte must never produce a *panic*; it may
        // produce a valid-but-different graph (e.g. a constant bit) or
        // an error, but nothing worse.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xA5;
            let _ = Dfg::from_wire(&bad);
        }
    }

    #[test]
    fn rejects_structural_violations() {
        // An out-of-range argument reference.
        let mut w = WireWriter::new();
        w.len(1);
        w.u8(TAG_NEG);
        w.u64(7); // arg out of range
        w.u8(0);
        w.len(0);
        w.len(0);
        w.len(0);
        assert!(Dfg::from_wire(&w.finish()).is_err());

        // A combinational self-loop (no delay on the cycle).
        let mut w = WireWriter::new();
        w.len(1);
        w.u8(TAG_NEG);
        w.u64(0); // self-reference
        w.u8(0);
        w.len(0); // inputs
        w.len(1); // outputs
        w.str("y");
        w.u64(0);
        w.len(0); // overrides
        assert!(Dfg::from_wire(&w.finish()).is_err());
    }
}
