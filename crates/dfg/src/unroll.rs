//! Time-unrolling: convert a sequential graph into a combinational one
//! computing `steps` consecutive iterations.
//!
//! Unrolling lets the purely combinational analyses (the symbolic
//! polynomial engine, the Cartesian sweep) reason about sequential
//! designs over a finite horizon — e.g. the transient error growth of an
//! IIR filter in its first `n` samples.

use crate::{Dfg, DfgBuilder, DfgError, NodeId, Op};

impl Dfg {
    /// Builds a combinational graph computing `steps` consecutive
    /// iterations of this graph.
    ///
    /// * inputs: `steps` copies of each original input, named
    ///   `"<name>@<t>"`, grouped by step (step-major order);
    /// * delays: step `0` reads the reset state (constant 0); step `t`
    ///   reads the delay's source value from step `t-1`;
    /// * outputs: `steps` copies of each original output, named
    ///   `"<name>@<t>"`;
    /// * range overrides: carried onto each step's copy of an
    ///   overridden *combinational* node. Overrides on delay nodes are
    ///   dropped (delay copies are aliases of other steps' nodes and
    ///   the shared reset constant — pinning those would corrupt
    ///   non-overridden ranges); only the sequential engines honor
    ///   delay-state overrides.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::NoOutputs`] when `steps == 0` (nothing to
    /// compute); construction errors cannot otherwise occur for a valid
    /// source graph.
    pub fn unroll(&self, steps: usize) -> Result<Dfg, DfgError> {
        if steps == 0 {
            return Err(DfgError::NoOutputs);
        }
        let mut b = DfgBuilder::new();
        // map[t][i] = node id of copy of node i at step t.
        let mut map: Vec<Vec<NodeId>> = Vec::with_capacity(steps);
        for t in 0..steps {
            let mut ids = vec![NodeId::from_index(usize::MAX); self.len()];
            // Delays first: they depend only on the previous step.
            //
            // A range override on a *delay* node is deliberately NOT
            // carried here: the delay's copy is a bare alias of the
            // previous step's source copy (or the shared reset
            // constant), so applying the override would pin a node the
            // designer never claimed anything about — narrowing input
            // copies or the reset constant below values the simulator
            // actually produces. Delay-state overrides are honored by
            // the sequential engines ([`Dfg::ranges_interval`] and the
            // LTI bound); the unrolled transient view has no node of
            // its own to attach them to.
            for &d in self.delay_nodes() {
                let src = self.node(d).args()[0];
                let value = if t == 0 {
                    b.constant(0.0) // reset state
                } else {
                    map[t - 1][src.index()]
                };
                ids[d.index()] = value;
            }
            // Combinational nodes in topological order.
            for &id in self.topo_order() {
                let node = self.node(id);
                let new_id = match node.op() {
                    Op::Input(i) => b.input(format!("{}@{t}", self.input_names()[i])),
                    Op::Const(c) => b.constant(c),
                    Op::Add => b.add(ids[node.args()[0].index()], ids[node.args()[1].index()]),
                    Op::Sub => b.sub(ids[node.args()[0].index()], ids[node.args()[1].index()]),
                    Op::Mul => b.mul(ids[node.args()[0].index()], ids[node.args()[1].index()]),
                    Op::Div => b.div(ids[node.args()[0].index()], ids[node.args()[1].index()]),
                    Op::Neg => b.neg(ids[node.args()[0].index()]),
                    Op::Delay => unreachable!("delays handled above"),
                };
                if let Some(name) = self.node_name(id) {
                    let _ = b.name(new_id, format!("{name}@{t}"));
                }
                // Each step's copy of an overridden combinational node
                // keeps the declared range (each copy is a node of its
                // own; see the delay caveat above).
                if let Some(r) = self.range_override(id) {
                    let _ = b.override_range(new_id, r);
                }
                ids[id.index()] = new_id;
            }
            for (name, out) in self.outputs() {
                b.output(format!("{name}@{t}"), ids[out.index()]);
            }
            map.push(ids);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    fn one_pole() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn unrolled_matches_simulation() {
        let g = one_pole();
        let n = 5;
        let u = g.unroll(n).unwrap();
        assert!(u.is_combinational());
        assert_eq!(u.n_inputs(), n);
        assert_eq!(u.outputs().len(), n);

        let inputs = [1.0, -0.5, 0.25, 0.0, 2.0];
        let flat: Vec<f64> = inputs.to_vec();
        let unrolled_out = u.evaluate(&flat).unwrap();

        let mut sim = Simulator::new(&g);
        for (t, &x) in inputs.iter().enumerate() {
            let expect = sim.step(&[x]).unwrap()[0];
            assert!(
                (unrolled_out[t] - expect).abs() < 1e-12,
                "step {t}: {} vs {expect}",
                unrolled_out[t]
            );
        }
    }

    #[test]
    fn unrolled_outputs_are_named_by_step() {
        let g = one_pole();
        let u = g.unroll(3).unwrap();
        let names: Vec<&str> = u.outputs().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["y@0", "y@1", "y@2"]);
        let inputs: Vec<&str> = u.input_names().iter().map(String::as_str).collect();
        assert_eq!(inputs, vec!["x@0", "x@1", "x@2"]);
    }

    #[test]
    fn zero_steps_is_rejected() {
        let g = one_pole();
        assert!(matches!(g.unroll(0), Err(DfgError::NoOutputs)));
    }

    #[test]
    fn combinational_overrides_are_carried_per_step_copy() {
        use sna_interval::Interval;
        let iv = |lo: f64, hi: f64| Interval::new(lo, hi).unwrap();

        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let s = b.mul_const(0.5, x);
        let d = b.delay(s);
        let y = b.add(s, d);
        b.override_range(s, iv(-0.25, 0.25)).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let u = g.unroll(2).unwrap();
        let muls: Vec<NodeId> = u
            .nodes()
            .filter(|(_, n)| n.op() == Op::Mul)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(muls.len(), 2);
        for m in muls {
            assert_eq!(u.range_override(m), Some(iv(-0.25, 0.25)));
        }
    }

    #[test]
    fn delay_overrides_never_leak_onto_aliased_copies() {
        use sna_interval::Interval;
        let iv = |lo: f64, hi: f64| Interval::new(lo, hi).unwrap();

        // d1 = delay x; d2 = delay d1 with the *d2 node* overridden to
        // [0.5, 1]. In the unrolled graph d2's copies alias the shared
        // reset constant (t ≤ 1) and x input copies (t ≥ 2); pinning
        // those would exclude values the simulator actually produces
        // (y@0 is exactly 0). The override is a sequential-engine
        // claim and must be dropped here.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d1 = b.delay(x);
        let d2 = b.delay(d1);
        let y = b.add(d1, d2);
        b.override_range(d2, iv(0.5, 1.0)).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();

        let u = g.unroll(3).unwrap();
        assert!(
            !u.has_range_overrides(),
            "no unrolled node may inherit the delay-state override"
        );
        let ranges = u
            .ranges_interval(&[iv(-1.0, 1.0); 3], &crate::RangeOptions::default())
            .unwrap();
        // y@0 = 0 exactly (both states are reset zeros); y@1 = x@0.
        let (_, y0) = &u.outputs()[0];
        assert_eq!(ranges[y0.index()], iv(0.0, 0.0));
        let (_, y1) = &u.outputs()[1];
        assert_eq!(ranges[y1.index()], iv(-1.0, 1.0));
        // The sequential engine still honors the claim on the graph
        // itself.
        let seq = g
            .ranges_interval(&[iv(-1.0, 1.0)], &crate::RangeOptions::default())
            .unwrap();
        assert_eq!(seq[d2.index()], iv(0.5, 1.0));
    }

    #[test]
    fn unrolling_a_combinational_graph_replicates_it() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul_const(3.0, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let u = g.unroll(2).unwrap();
        assert_eq!(u.evaluate(&[1.0, 2.0]).unwrap(), vec![3.0, 6.0]);
    }

    #[test]
    fn fir_unrolled_exposes_the_impulse_response() {
        // 3-tap FIR; unroll 4 steps, feed an impulse, read h on the outputs.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d1 = b.delay(x);
        let d2 = b.delay(d1);
        let t0 = b.mul_const(0.5, x);
        let t1 = b.mul_const(0.3, d1);
        let t2 = b.mul_const(0.2, d2);
        let s = b.add(t0, t1);
        let y = b.add(s, t2);
        b.output("y", y);
        let g = b.build().unwrap();
        let u = g.unroll(4).unwrap();
        let out = u.evaluate(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((out[0] - 0.5).abs() < 1e-12);
        assert!((out[1] - 0.3).abs() < 1e-12);
        assert!((out[2] - 0.2).abs() < 1e-12);
        assert!(out[3].abs() < 1e-12);
    }

    #[test]
    fn unrolled_graph_supports_interval_ranges() {
        // The whole point: combinational-only analyses now apply.
        let g = one_pole();
        let u = g.unroll(3).unwrap();
        let ranges = vec![sna_interval::Interval::UNIT; 3];
        let r = u
            .ranges_interval(&ranges, &crate::RangeOptions::default())
            .unwrap();
        // y@2 = x2 + 0.5(x1 + 0.5 x0): range ±1.75.
        let (_, yid) = u.outputs()[2].clone();
        let iv = r[yid.index()];
        assert!((iv.hi() - 1.75).abs() < 1e-9, "{iv}");
    }
}
