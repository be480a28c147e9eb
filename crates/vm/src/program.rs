//! Lowering a [`Dfg`] to a flat, register-allocated bytecode program.
//!
//! The compiler walks the graph's topological order once and emits one
//! instruction per arithmetic node.  Register allocation is a linear
//! scan with a free list: a node's register is recycled as soon as its
//! last reader has executed, so the register file stays small
//! (`examples/fir.sna`, 94 nodes, compiles to 71 registers, 44 of them
//! its constants and delay states).  Three classes of registers are
//! *pinned* — never recycled:
//!
//! * constants — loaded once per reset, not once per step;
//! * delay states — they carry values across steps;
//! * end-of-step reads — outputs and delay-latch sources must survive
//!   until after the instruction sweep.
//!
//! The program is **value-agnostic**: it stores node ids, not constant
//! values or quantizers, so one compiled program serves every
//! coefficient set and word-length configuration of the same graph
//! shape (see `Executable` in [`crate::exec`], which binds values).
//!
//! Division lowers to [`OpCode::Div`] with zero checks performed by the
//! executor per lane, mirroring the scalar simulators' errors.

use sna_dfg::{Dfg, NodeId, Op};

/// A virtual register index into the structure-of-arrays lane banks.
pub type Reg = u32;

/// The operation of one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCode {
    /// Load an input's lanes (the instruction's `a` field is the input
    /// index).
    In,
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a * b`
    Mul,
    /// `dst = a / b` (lanes with a zero divisor abort the run).
    Div,
    /// `dst = -a`
    Neg,
}

/// One flat instruction: opcode, destination, operands, and the
/// originating node (for quantizer lookup and error reporting).
#[derive(Clone, Copy, Debug)]
pub struct Inst {
    /// What to compute.
    pub op: OpCode,
    /// Destination register.
    pub dst: Reg,
    /// First operand register ([`OpCode::In`]: the input index).
    pub a: Reg,
    /// Second operand register (unary ops: unused, equal to `a`).
    pub b: Reg,
    /// The graph node this instruction computes, as a raw index.
    pub node: u32,
}

/// A compiled, register-allocated program for one graph *shape*.
///
/// Constant values and per-node quantizers are intentionally absent —
/// they are bound per run by `Executable` — so one `Program` cached on a
/// session serves every word-length configuration of its graph.
#[derive(Clone, Debug)]
pub struct Program {
    /// The instruction sweep, in topological order.
    pub(crate) insts: Vec<Inst>,
    /// Total registers (pinned + working).
    pub(crate) n_regs: usize,
    /// Pinned constant registers: `(register, node index)`.
    pub(crate) consts: Vec<(Reg, u32)>,
    /// Delay latches in [`Dfg::delay_nodes`] order:
    /// `(state register, source register, delay node index)`.
    pub(crate) latches: Vec<(Reg, Reg, u32)>,
    /// Output taps in declaration order: `(name, register)`.
    pub(crate) outputs: Vec<(String, Reg)>,
    /// Number of graph inputs the program expects per step.
    pub(crate) n_inputs: usize,
    /// Number of nodes in the source graph (quantizer table length).
    pub(crate) n_nodes: usize,
}

impl Program {
    /// Lowers a graph into a flat register-allocated program.
    ///
    /// Every [`Dfg`] compiles — the graph's own validation (arity,
    /// acyclicity through delays) already holds by construction.
    #[must_use]
    pub fn compile(dfg: &Dfg) -> Program {
        let n = dfg.len();
        let order = dfg.topo_order();

        // Which node registers must survive to the end of a step.
        let mut pinned = vec![false; n];
        for &(_, id) in dfg.outputs() {
            pinned[id.index()] = true;
        }
        for &d in dfg.delay_nodes() {
            pinned[d.index()] = true; // the state register itself
            pinned[dfg.node(d).args()[0].index()] = true; // latch source
        }
        for (id, node) in dfg.nodes() {
            if matches!(node.op(), Op::Const(_)) {
                pinned[id.index()] = true;
            }
        }

        // Last position in the instruction sweep at which each node's
        // register is read; pinned registers are never recycled.
        let mut last_use = vec![0usize; n];
        for (pos, &id) in order.iter().enumerate() {
            for arg in dfg.node(id).args() {
                last_use[arg.index()] = pos;
            }
        }

        let mut reg_of: Vec<Option<Reg>> = vec![None; n];
        let mut free: Vec<Reg> = Vec::new();
        let mut n_regs: Reg = 0;
        let mut alloc = |free: &mut Vec<Reg>| -> Reg {
            free.pop().unwrap_or_else(|| {
                let r = n_regs;
                n_regs += 1;
                r
            })
        };

        // Pinned allocations first: constants and delay states get the
        // low register numbers, so resets touch a contiguous prefix.
        let mut consts = Vec::new();
        for (id, node) in dfg.nodes() {
            if matches!(node.op(), Op::Const(_)) {
                let r = alloc(&mut free);
                reg_of[id.index()] = Some(r);
                consts.push((r, id.index() as u32));
            }
        }
        for &d in dfg.delay_nodes() {
            let r = alloc(&mut free);
            reg_of[d.index()] = Some(r);
        }

        let mut insts = Vec::with_capacity(order.len());
        for (pos, &id) in order.iter().enumerate() {
            let node = dfg.node(id);
            let (op, a, b) = match node.op() {
                Op::Input(i) => (OpCode::In, i as Reg, i as Reg),
                Op::Const(_) => continue, // pinned, loaded at reset
                Op::Add | Op::Sub | Op::Mul | Op::Div => {
                    let ra = reg_of[node.args()[0].index()].expect("operand allocated");
                    let rb = reg_of[node.args()[1].index()].expect("operand allocated");
                    let op = match node.op() {
                        Op::Add => OpCode::Add,
                        Op::Sub => OpCode::Sub,
                        Op::Mul => OpCode::Mul,
                        _ => OpCode::Div,
                    };
                    (op, ra, rb)
                }
                Op::Neg => {
                    let ra = reg_of[node.args()[0].index()].expect("operand allocated");
                    (OpCode::Neg, ra, ra)
                }
                Op::Delay => unreachable!("delays are excluded from the topo order"),
            };
            // Allocate the destination *before* recycling dead operands:
            // `dst` must never alias an operand register, which keeps the
            // executor's disjoint-borrow split trivially sound.
            let dst = alloc(&mut free);
            reg_of[id.index()] = Some(dst);
            insts.push(Inst {
                op,
                dst,
                a,
                b,
                node: id.index() as u32,
            });
            // Recycle operands whose last reader was this instruction.
            if !matches!(node.op(), Op::Input(_)) {
                for arg in node.args() {
                    let i = arg.index();
                    if !pinned[i] && last_use[i] == pos {
                        if let Some(r) = reg_of[i].take() {
                            free.push(r);
                        }
                    }
                }
            }
        }

        let latches = dfg
            .delay_nodes()
            .iter()
            .map(|&d| {
                let state = reg_of[d.index()].expect("delay state allocated");
                let src = reg_of[dfg.node(d).args()[0].index()].expect("latch source pinned");
                (state, src, d.index() as u32)
            })
            .collect();
        let outputs = dfg
            .outputs()
            .iter()
            .map(|(name, id)| (name.clone(), reg_of[id.index()].expect("output pinned")))
            .collect();

        Program {
            insts,
            n_regs: n_regs as usize,
            consts,
            latches,
            outputs,
            n_inputs: dfg.n_inputs(),
            n_nodes: n,
        }
    }

    /// Number of instructions in the per-step sweep.
    #[must_use]
    pub fn n_insts(&self) -> usize {
        self.insts.len()
    }

    /// Size of the register file (pinned + working registers).
    #[must_use]
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// Graph inputs expected per step.
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Output names in declaration order.
    #[must_use]
    pub fn output_names(&self) -> Vec<&str> {
        self.outputs.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The node a given instruction computes.
    #[must_use]
    pub fn inst_node(&self, i: usize) -> NodeId {
        NodeId::from_index(self.insts[i].node as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;

    #[test]
    fn registers_are_recycled_on_long_chains() {
        // A long dependent chain: y = (((x+1)+1)+...)+1. Working set is
        // tiny regardless of chain length.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let one = b.constant(1.0);
        let mut t = x;
        for _ in 0..50 {
            t = b.add(t, one);
        }
        b.output("y", t);
        let dfg = b.build().unwrap();
        let p = Program::compile(&dfg);
        assert_eq!(p.n_insts(), 51); // input + 50 adds
                                     // 1 const + in-flight chain value + output pin + scratch.
        assert!(p.n_regs() <= 6, "register file too large: {}", p.n_regs());
    }

    #[test]
    fn dst_never_aliases_operands() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let t = b.mul(s, s);
        let u = b.sub(t, x);
        b.output("u", u);
        let dfg = b.build().unwrap();
        let p = Program::compile(&dfg);
        for inst in &p.insts {
            if inst.op != OpCode::In {
                assert_ne!(inst.dst, inst.a, "{inst:?}");
                assert_ne!(inst.dst, inst.b, "{inst:?}");
            }
        }
    }

    #[test]
    fn feedback_graphs_pin_states_and_latch_sources() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let dfg = b.build().unwrap();
        let p = Program::compile(&dfg);
        assert_eq!(p.latches.len(), 1);
        let (state, src, _) = p.latches[0];
        // The latch source is the output register (y feeds the delay).
        assert_eq!(p.outputs[0].1, src);
        assert_ne!(state, src);
    }
}
