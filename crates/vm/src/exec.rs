//! The vectorized executor: a compiled [`Program`] bound to concrete
//! constant values and per-node quantizers, sweeping N sample paths per
//! instruction over contiguous f64 lanes.
//!
//! # Structure-of-arrays layout
//!
//! State is two *banks* of registers — one exact, one quantized — and
//! each register is a contiguous `Vec<f64>` of N lanes.  Every
//! instruction therefore runs as a tight loop over slices the compiler
//! can auto-vectorize; there is no per-sample dispatch anywhere.
//!
//! # Lane-kernel tiers
//!
//! The step body ([`Executable::sweep`]) and every lane kernel are
//! `#[inline(always)]`, and three wrappers compile that body at three
//! vector widths: the target's baseline (SSE2 on x86-64), AVX2 and
//! AVX-512.  [`Executable::new`] records the widest [`Isa`] the host
//! reports and [`Executable::step`] calls it — the crate's one `unsafe`
//! site.  Detection happens at run time rather than through a
//! compile-time `target-cpu`, so one binary runs on every x86-64 CPU.
//!
//! # Bit-exactness contract
//!
//! The quantized bank mirrors `sna_fixp::FixedSimulator` bit-for-bit
//! under the configurations the repo actually uses (see
//! `crates/vm/README.md` for the proof sketch and the documented
//! caveats around >27-bit multiplies, division, and `Overflow::Wrap`):
//! each op computes in f64 from the operands' *quantized* values and
//! requantizes the result through the exact same
//! `scale → round/floor → overflow-handle → rescale` pipeline as
//! `Quantizer::mantissa_of`.  The exact bank mirrors
//! `sna_dfg::Simulator` exactly — same f64 ops in the same order,
//! including the reference's incidental `-0.0 → +0.0` normalization
//! (its `v + injection` add): every exact kernel stores `… + 0.0`.

use std::sync::Arc;

use sna_dfg::{Dfg, NodeId, Op};
use sna_fixp::{Overflow, Quantizer, Rounding, WlConfig};

use crate::program::{Inst, OpCode, Program, Reg};
use crate::VmError;

/// Per-node quantization parameters flattened for the lane kernels.
///
/// Mantissa bounds are kept as f64 (they are ≤ 2⁴⁷ so exactly
/// representable); the whole requantize loop then runs without any
/// int↔float conversions.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LaneQuant {
    /// `Format::resolution()` — a power of two, so `x / res` is exact.
    res: f64,
    /// `1 / res`, also a power of two: `x * inv_res` is bit-identical
    /// to `x / res` (both scale the exponent exactly) and much cheaper
    /// in the lane loops.
    inv_res: f64,
    min_m: f64,
    max_m: f64,
    /// `max_m - min_m + 1`, the `Overflow::Wrap` modulus.
    modulus: f64,
    rounding: Rounding,
    overflow: Overflow,
}

/// 2⁵² — adding and subtracting it rounds a nonnegative f64 below 2⁵²
/// to the nearest integer (ties to even) using only two additions,
/// in the default round-to-nearest FP mode.
///
/// The baseline x86-64 target has no `roundpd` (that is SSE4.1), so
/// `f64::round`/`f64::floor` lower to one libm *call per lane* — the
/// magic-number forms below are pure add/sub/compare/bit ops that LLVM
/// auto-vectorizes at every tier's width, and they are bit-identical
/// to the std functions for every input (asserted exhaustively in the
/// tests).
const MAGIC: f64 = 4_503_599_627_370_496.0;

/// Round-half-away-from-zero, bit-identical to `f64::round`.
///
/// `|x| ≥ 2⁵²` (and NaN) pass through — such values are already
/// integral.  Below that, [`round_ties_away_small`] does the work.
#[inline(always)]
fn round_ties_away(x: f64) -> f64 {
    if x.abs() < MAGIC {
        round_ties_away_small(x)
    } else {
        x
    }
}

/// [`round_ties_away`] for `|x| < 2⁵²` (never NaN): the `Saturate`
/// arms clamp into the mantissa bounds (≤ 2⁴⁷) first, so the guard is
/// dead there.  `t = (|x| + 2⁵²) − 2⁵²` is nearest-ties-even; the tie
/// (`|x| − t == 0.5` — an exact subtraction, both operands share
/// scale) is then bumped away from zero.
#[inline(always)]
fn round_ties_away_small(x: f64) -> f64 {
    let a = x.abs();
    let t = (a + MAGIC) - MAGIC;
    let t = t + if a - t == 0.5 { 1.0 } else { 0.0 };
    t.copysign(x)
}

/// Bit-identical to `f64::floor`; `|x| ≥ 2⁵²` and NaN pass through,
/// [`floor_small`] handles the rest.
#[inline(always)]
fn floor_magic(x: f64) -> f64 {
    if x.abs() < MAGIC {
        floor_small(x)
    } else {
        x
    }
}

/// [`floor_magic`] for `|x| < 2⁵²` (never NaN), by sign-aware magic
/// rounding and a `-1` select when the rounding went up.  The final
/// `copysign` restores `-0.0` (the magic sum erases the sign of a
/// negative zero); it is a no-op everywhere else since `floor` never
/// changes sign.
#[inline(always)]
fn floor_small(x: f64) -> f64 {
    let s = MAGIC.copysign(x);
    let t = (x + s) - s;
    (t - if t > x { 1.0 } else { 0.0 }).copysign(x)
}

/// Clamps a scaled value into `[min_m, max_m]` with two selects: in
/// range `m` passes through unchanged, out of range the nearer bound
/// wins, and NaN fails the first comparison and lands on `min_m` —
/// the scalar overflow branch chain's outcomes, as vector compares and
/// blends.
#[inline(always)]
fn clamp(m: f64, min_m: f64, max_m: f64) -> f64 {
    let m = if m >= min_m { m } else { min_m };
    if m <= max_m {
        m
    } else {
        max_m
    }
}

impl LaneQuant {
    fn of(q: &Quantizer) -> LaneQuant {
        let res = q.format.resolution();
        // max/min mantissa reconstructed from the public surface; both
        // divisions are exact (integer × power-of-two ÷ power-of-two).
        let max_m = q.format.max_value() / res;
        let min_m = q.format.min_value() / res;
        LaneQuant {
            res,
            inv_res: 1.0 / res,
            min_m,
            max_m,
            modulus: max_m - min_m + 1.0,
            rounding: q.rounding,
            overflow: q.overflow,
        }
    }

    /// Requantizes lanes in place — the vector twin of
    /// `Quantizer::quantize`, decision-for-decision equivalent to
    /// `handle_overflow_f64` (including its treatment of non-finite
    /// scaled values).
    ///
    /// The `Saturate` arms [`clamp`] *before* they round.  Rounding and
    /// floor are monotone and map every integer to itself, and both
    /// bounds are integers, so clamp-then-round equals the scalar
    /// round-then-clamp on every real (and NaN lands on `min_m` either
    /// way); a clamped value is below 2⁵², so the round needs no
    /// pass-through guard.  The `Wrap` arms round first, as the scalar
    /// path does.
    ///
    /// The trailing `+ 0.0` in every store normalizes `-0.0` to `+0.0`:
    /// the scalar quantizer round-trips through an `i64` mantissa, which
    /// erases the sign of zero, and bit-identity with it is the VM's
    /// contract. It is a no-op for every other value (IEEE-754
    /// `x + (+0.0) == x` whenever `x != -0.0`) and stays inside the
    /// vectorized lane loop.
    #[inline(always)]
    fn requantize(&self, lanes: &mut [f64]) {
        let LaneQuant {
            res,
            inv_res,
            min_m,
            max_m,
            modulus,
            ..
        } = *self;
        match (self.rounding, self.overflow) {
            (Rounding::Nearest, Overflow::Saturate) => {
                for x in lanes {
                    let m = round_ties_away_small(clamp(*x * inv_res, min_m, max_m));
                    *x = m * res + 0.0;
                }
            }
            (Rounding::Truncate, Overflow::Saturate) => {
                for x in lanes {
                    let m = floor_small(clamp(*x * inv_res, min_m, max_m));
                    *x = m * res + 0.0;
                }
            }
            (Rounding::Nearest, Overflow::Wrap) => {
                for x in lanes {
                    let m = round_ties_away(*x * inv_res);
                    let m = if m >= min_m && m <= max_m {
                        m
                    } else {
                        (m - min_m).rem_euclid(modulus) + min_m
                    };
                    *x = m * res + 0.0;
                }
            }
            (Rounding::Truncate, Overflow::Wrap) => {
                for x in lanes {
                    let m = floor_magic(*x * inv_res);
                    let m = if m >= min_m && m <= max_m {
                        m
                    } else {
                        (m - min_m).rem_euclid(modulus) + min_m
                    };
                    *x = m * res + 0.0;
                }
            }
        }
    }

    /// One-pass `d[i] = requantize(f(x[i], y[i]))` — an arithmetic
    /// kernel fused with [`LaneQuant::requantize`], arm for arm the
    /// same decision chain.  Fusing saves a full read+write sweep of
    /// the destination row per instruction, which is most of what the
    /// separate requantize pass cost (the arithmetic itself is one or
    /// two machine ops per lane).
    #[inline(always)]
    fn map2_requant(&self, d: &mut [f64], x: &[f64], y: &[f64], f: impl Fn(f64, f64) -> f64) {
        let LaneQuant {
            res,
            inv_res,
            min_m,
            max_m,
            modulus,
            ..
        } = *self;
        match (self.rounding, self.overflow) {
            (Rounding::Nearest, Overflow::Saturate) => {
                for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                    let m = round_ties_away_small(clamp(f(x, y) * inv_res, min_m, max_m));
                    *d = m * res + 0.0;
                }
            }
            (Rounding::Truncate, Overflow::Saturate) => {
                for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                    let m = floor_small(clamp(f(x, y) * inv_res, min_m, max_m));
                    *d = m * res + 0.0;
                }
            }
            (Rounding::Nearest, Overflow::Wrap) => {
                for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                    let m = round_ties_away(f(x, y) * inv_res);
                    let m = if m >= min_m && m <= max_m {
                        m
                    } else {
                        (m - min_m).rem_euclid(modulus) + min_m
                    };
                    *d = m * res + 0.0;
                }
            }
            (Rounding::Truncate, Overflow::Wrap) => {
                for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                    let m = floor_magic(f(x, y) * inv_res);
                    let m = if m >= min_m && m <= max_m {
                        m
                    } else {
                        (m - min_m).rem_euclid(modulus) + min_m
                    };
                    *d = m * res + 0.0;
                }
            }
        }
    }

    /// One-pass `d[i] = requantize(f(s[i]))` — the unary twin, for
    /// inputs (`f` = identity) and negation.  Implemented on top of
    /// [`LaneQuant::map2_requant`] with `s` as both operands; the
    /// optimizer deletes the duplicate load.
    #[inline(always)]
    fn map1_requant(&self, d: &mut [f64], s: &[f64], f: impl Fn(f64) -> f64) {
        self.map2_requant(d, s, s, |x, _| f(x));
    }

    /// Scalar requantize for constants and single values.
    fn quantize(&self, x: f64) -> f64 {
        let mut one = [x];
        self.requantize(&mut one);
        one[0]
    }
}

/// Vectorized run state: two register banks of N lanes each.
///
/// Obtained from [`Executable::new_state`]; reusable across runs via
/// [`Executable::reset`].
#[derive(Clone, Debug)]
pub struct VmState {
    lanes: usize,
    /// Exact (reference) bank, register-major.
    exact: Vec<Vec<f64>>,
    /// Quantized (fixed-point) bank, register-major.
    quant: Vec<Vec<f64>>,
    /// Snapshot rows for cycle-breaking latches only (both banks
    /// interleaved as `[exact_0, quant_0, ...]`).  Most latches need no
    /// snapshot — the bind-time plan orders copies so every reader of a
    /// state runs before that state is overwritten; only register
    /// cycles (`a = delay c; c = delay a`) pre-copy one source here.
    latch_snap: Vec<Vec<f64>>,
}

impl VmState {
    /// Number of sample paths (lanes) this state carries.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// A [`Program`] bound to one graph's constant values and one
/// word-length configuration — everything the instruction sweep needs,
/// resolved to flat arrays up front.
pub struct Executable {
    program: Arc<Program>,
    /// Per-node requantization parameters, indexed by raw node id.
    quants: Vec<LaneQuant>,
    /// `(register, exact value, quantized value)` per constant.
    consts: Vec<(Reg, f64, f64)>,
    /// `(snapshot row pair, source register)` copies that run before
    /// the latch sweep — one per broken register cycle.
    snap_srcs: Vec<(usize, usize)>,
    /// The latch sweep, in an order where every latch reading another
    /// latch's state runs before that state is overwritten (see
    /// [`LatchStep`]).
    latch_plan: Vec<LatchStep>,
    /// The lane-kernel tier [`Executable::step`] runs.
    isa: Isa,
}

/// One scheduled latch update: `state ← requant?(src)`.
struct LatchStep {
    state_reg: usize,
    src: LatchSrc,
    /// `None` when the delay node's quantizer equals its source's —
    /// every value in the source register is then already a fixed
    /// point of the requantizer (an in-range multiple of `res`, or the
    /// NaN that `Overflow::Wrap` maps to itself), so the pass is the
    /// identity and is skipped.
    requant: Option<LaneQuant>,
}

enum LatchSrc {
    /// Read the live register (safe by schedule order).
    Reg(usize),
    /// Read a pre-sweep snapshot row pair (cycle breaker).
    Snap(usize),
}

impl Executable {
    /// Binds `program` to the constants of `dfg` and the per-node
    /// quantizers of `config`.
    ///
    /// `dfg` must be the graph the program was compiled from (or a
    /// `with_const_values` twin — same shape, different constants);
    /// `config` must cover every node, as `WlConfig` guarantees by
    /// construction.
    #[must_use]
    pub fn new(program: Arc<Program>, dfg: &Dfg, config: &WlConfig) -> Executable {
        let quants = (0..program.n_nodes)
            .map(|i| LaneQuant::of(config.quantizer(NodeId::from_index(i))))
            .collect();
        Executable::bind(program, dfg, quants)
    }

    /// [`Executable::new`] from already-flattened per-node quantizers.
    fn bind(program: Arc<Program>, dfg: &Dfg, quants: Vec<LaneQuant>) -> Executable {
        let consts = program
            .consts
            .iter()
            .map(|&(reg, node)| {
                let c = match dfg.node(NodeId::from_index(node as usize)).op() {
                    Op::Const(c) => c,
                    other => unreachable!("const register bound to {other:?}"),
                };
                (reg, c + 0.0, quants[node as usize].quantize(c))
            })
            .collect();
        let (snap_srcs, latch_plan) = plan_latches(&program, dfg, &quants);
        Executable {
            program,
            quants,
            consts,
            snap_srcs,
            latch_plan,
            isa: Isa::detect(),
        }
    }

    /// This executable on tier `isa`, which the host must support.
    #[cfg(test)]
    fn with_isa(self, isa: Isa) -> Executable {
        assert!(isa.supported(), "{isa:?} unsupported here");
        Executable { isa, ..self }
    }

    /// The lane-kernel tier this executable's [`Executable::step`] runs
    /// on: the widest one the host CPU reports.
    #[must_use]
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The compiled program this executable runs.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Allocates a fully initialized state with `lanes` sample paths:
    /// constants loaded, delay states and working registers zeroed.
    #[must_use]
    pub fn new_state(&self, lanes: usize) -> VmState {
        let mut state = VmState {
            lanes,
            exact: vec![vec![0.0; lanes]; self.program.n_regs],
            quant: vec![vec![0.0; lanes]; self.program.n_regs],
            latch_snap: vec![vec![0.0; lanes]; 2 * self.snap_srcs.len()],
        };
        self.reset(&mut state);
        state
    }

    /// Resets a state to time zero: delay states back to 0, constants
    /// re-splatted.  Working registers are left as-is — every one is
    /// written before it is read within a step.
    pub fn reset(&self, state: &mut VmState) {
        for &(state_reg, _, _) in &self.program.latches {
            state.exact[state_reg as usize].fill(0.0);
            state.quant[state_reg as usize].fill(0.0);
        }
        for &(reg, c, cq) in &self.consts {
            state.exact[reg as usize].fill(c);
            state.quant[reg as usize].fill(cq);
        }
    }

    /// Advances every lane by one step.
    ///
    /// `inputs[j]` holds the N lane values of graph input `j` for this
    /// step.  Outputs are read afterwards via [`Executable::exact_out`]
    /// / [`Executable::quant_out`]; delay latches update at the end of
    /// the sweep (two-phase, like the scalar simulators).
    ///
    /// # Errors
    ///
    /// [`VmError::InputArity`] on an input count mismatch;
    /// [`VmError::LaneCount`] when an input row does not hold
    /// `state.lanes()` values; [`VmError::DivisionByZero`] when any lane
    /// divides by an exact or quantized zero (matching `Simulator` /
    /// `FixedSimulator`).
    pub fn step(&self, state: &mut VmState, inputs: &[Vec<f64>]) -> Result<(), VmError> {
        if inputs.len() != self.program.n_inputs {
            return Err(VmError::InputArity {
                expected: self.program.n_inputs,
                got: inputs.len(),
            });
        }
        if let Some(row) = inputs.iter().find(|row| row.len() != state.lanes) {
            return Err(VmError::LaneCount {
                expected: state.lanes,
                got: row.len(),
            });
        }
        let sweep: Sweep = match self.isa {
            Isa::Portable => sweep_portable,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => sweep_avx2,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => sweep_avx512,
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => unreachable!("x86 tiers are only detected on x86_64"),
        };
        // SAFETY: `self.isa` comes from `Isa::detect` (or the test-only
        // `with_isa`, which asserts `Isa::supported`), so the host
        // supports every target feature the chosen wrapper enables.
        #[allow(unsafe_code)]
        unsafe {
            sweep(self, state, inputs)
        }
    }

    /// The body of [`Executable::step`] after its checks: the
    /// instruction sweep, then the latch sweep.  Always inlined, so each
    /// tier wrapper ([`sweep_portable`], `sweep_avx2`, `sweep_avx512`)
    /// compiles its own copy of every lane loop at its vector width.
    #[inline(always)]
    fn sweep(&self, state: &mut VmState, inputs: &[Vec<f64>]) -> Result<(), VmError> {
        for inst in &self.program.insts {
            let Inst {
                op,
                dst,
                a,
                b,
                node,
            } = *inst;
            let (dst, a, b) = (dst as usize, a as usize, b as usize);
            let q = &self.quants[node as usize];
            match op {
                OpCode::In => {
                    let lanes = &inputs[a];
                    for (d, &s) in state.exact[dst].iter_mut().zip(lanes) {
                        *d = s + 0.0;
                    }
                    q.map1_requant(&mut state.quant[dst], lanes, |x| x);
                }
                OpCode::Neg => {
                    let (d, s, _) = split_dst(&mut state.exact, dst, a, a);
                    for (d, &s) in d.iter_mut().zip(s) {
                        *d = -s + 0.0;
                    }
                    let (d, s, _) = split_dst(&mut state.quant, dst, a, a);
                    q.map1_requant(d, s, |x| -x);
                }
                OpCode::Add | OpCode::Sub | OpCode::Mul => {
                    let (d, x, y) = split_dst(&mut state.exact, dst, a, b);
                    arith(op, d, x, y);
                    let (d, x, y) = split_dst(&mut state.quant, dst, a, b);
                    match op {
                        OpCode::Add => q.map2_requant(d, x, y, |x, y| x + y),
                        OpCode::Sub => q.map2_requant(d, x, y, |x, y| x - y),
                        OpCode::Mul => q.map2_requant(d, x, y, |x, y| x * y),
                        _ => unreachable!(),
                    }
                }
                OpCode::Div => {
                    // Any zero divisor lane aborts the whole run — the
                    // scalar simulators fail the sample, and a batch
                    // cannot partially fail deterministically.
                    if let Some(_lane) = state.exact[b].iter().position(|&y| y == 0.0) {
                        return Err(VmError::DivisionByZero {
                            node: NodeId::from_index(node as usize),
                        });
                    }
                    if let Some(_lane) = state.quant[b].iter().position(|&y| y == 0.0) {
                        return Err(VmError::DivisionByZero {
                            node: NodeId::from_index(node as usize),
                        });
                    }
                    let (d, x, y) = split_dst(&mut state.exact, dst, a, b);
                    for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                        *d = x / y + 0.0;
                    }
                    let (d, x, y) = split_dst(&mut state.quant, dst, a, b);
                    q.map2_requant(d, x, y, |x, y| x / y);
                }
            }
        }

        // Latch sweep, semantically the two-phase update of
        // `Simulator::step` / `FixedSimulator::step` (every delay sees
        // its source's *pre-latch* value), realized without a full
        // snapshot: the bind-time plan orders copies so each state is
        // read by every dependent latch before being overwritten, and
        // only register cycles pre-copy one source row here.
        for &(row, src_reg) in &self.snap_srcs {
            state.latch_snap[2 * row].copy_from_slice(&state.exact[src_reg]);
            state.latch_snap[2 * row + 1].copy_from_slice(&state.quant[src_reg]);
        }
        for step in &self.latch_plan {
            let dst = step.state_reg;
            match step.src {
                LatchSrc::Reg(s) if s == dst => {
                    // Self-loop (`x = delay x`): the copy is a no-op;
                    // only a differing quantizer does anything.
                    if let Some(q) = &step.requant {
                        q.requantize(&mut state.quant[dst]);
                    }
                }
                LatchSrc::Reg(s) => {
                    let (d, src, _) = split_dst(&mut state.exact, dst, s, s);
                    d.copy_from_slice(src);
                    let (d, src, _) = split_dst(&mut state.quant, dst, s, s);
                    match &step.requant {
                        Some(q) => q.map1_requant(d, src, |x| x),
                        None => d.copy_from_slice(src),
                    }
                }
                LatchSrc::Snap(row) => {
                    state.exact[dst].copy_from_slice(&state.latch_snap[2 * row]);
                    let d = &mut state.quant[dst];
                    let src = &state.latch_snap[2 * row + 1];
                    match &step.requant {
                        Some(q) => q.map1_requant(d, src, |x| x),
                        None => d.copy_from_slice(src),
                    }
                }
            }
        }
        Ok(())
    }

    /// Exact (reference) lanes of output `k`, in declaration order.
    #[must_use]
    pub fn exact_out<'s>(&self, state: &'s VmState, k: usize) -> &'s [f64] {
        &state.exact[self.program.outputs[k].1 as usize]
    }

    /// Quantized (fixed-point) lanes of output `k`.
    #[must_use]
    pub fn quant_out<'s>(&self, state: &'s VmState, k: usize) -> &'s [f64] {
        &state.quant[self.program.outputs[k].1 as usize]
    }

    /// Output names in declaration order.
    #[must_use]
    pub fn output_names(&self) -> Vec<&str> {
        self.program.output_names()
    }
}

/// A lane-kernel tier: the instruction set one copy of the step sweep
/// is compiled for.
///
/// [`Executable::new`] picks the widest tier the host CPU reports at
/// run time, so one binary runs everywhere and uses the vector width
/// it finds.  Every tier runs the same IEEE-754 operations in the same
/// order per lane (no fused multiply-add), so all of them produce the
/// same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The compilation target's baseline (SSE2 on x86-64): two f64
    /// lanes per vector.  The only tier off x86-64.
    Portable,
    /// AVX2: four f64 lanes per vector.
    Avx2,
    /// AVX-512 F/DQ/VL: eight f64 lanes per vector.
    Avx512,
}

impl Isa {
    /// The widest tier this host supports.
    fn detect() -> Isa {
        [Isa::Avx512, Isa::Avx2]
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Portable)
    }

    /// Whether the host CPU has every target feature this tier's
    /// wrapper enables.
    fn supported(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }

    /// Short name: `portable`, `avx2` or `avx512`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// One tier's compiled sweep.  `unsafe` because the x86 wrappers may
/// only run on a CPU with their target features.
type Sweep = unsafe fn(&Executable, &mut VmState, &[Vec<f64>]) -> Result<(), VmError>;

/// [`Executable::sweep`] at the compilation target's baseline.
fn sweep_portable(
    exe: &Executable,
    state: &mut VmState,
    inputs: &[Vec<f64>],
) -> Result<(), VmError> {
    exe.sweep(state, inputs)
}

/// [`Executable::sweep`] compiled for AVX2.  Calling it is `unsafe`:
/// the caller guarantees the CPU has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(exe: &Executable, state: &mut VmState, inputs: &[Vec<f64>]) -> Result<(), VmError> {
    exe.sweep(state, inputs)
}

/// [`Executable::sweep`] compiled for AVX-512 (F, DQ and VL).  Calling
/// it is `unsafe`: the caller guarantees the CPU has all three.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn sweep_avx512(exe: &Executable, state: &mut VmState, inputs: &[Vec<f64>]) -> Result<(), VmError> {
    exe.sweep(state, inputs)
}

/// Schedules the latch updates: a topological order over the
/// "latch j reads latch i's state" relation (j must run before i
/// overwrites it), with register cycles broken by snapshotting one
/// member's source.  Each latch reads exactly one register, so every
/// node in the dependency graph has out-degree ≤ 1 and the leftovers
/// after Kahn's algorithm are simple cycles — snapshotting any one
/// member's source removes one edge and unravels its cycle.
///
/// Also resolves, per latch, whether the delay node's requantization
/// is the identity (its quantizer equals its source node's), in which
/// case the pass is dropped: every value the source register can hold
/// is already a fixed point of that quantizer.
fn plan_latches(
    program: &Program,
    dfg: &Dfg,
    quants: &[LaneQuant],
) -> (Vec<(usize, usize)>, Vec<LatchStep>) {
    let latches = &program.latches;
    let n = latches.len();

    // owner[r] = index of the latch whose state register is `r`.
    let mut owner = vec![usize::MAX; program.n_regs];
    for (i, &(state_reg, _, _)) in latches.iter().enumerate() {
        owner[state_reg as usize] = i;
    }
    // out_edge[j] = i  ⇔  latch j reads state_i  ⇔  j before i.
    let mut out_edge = vec![usize::MAX; n];
    let mut indeg = vec![0usize; n];
    for (j, &(_, src_reg, _)) in latches.iter().enumerate() {
        let i = owner[src_reg as usize];
        if i != usize::MAX && i != j {
            out_edge[j] = i;
            indeg[i] += 1;
        }
    }

    let mut order = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut snapped = vec![usize::MAX; n];
    let mut snap_srcs = Vec::new();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while order.len() < n {
        while let Some(j) = queue.pop() {
            done[j] = true;
            order.push(j);
            let i = out_edge[j];
            if i != usize::MAX {
                indeg[i] -= 1;
                if indeg[i] == 0 && !done[i] {
                    queue.push(i);
                }
            }
        }
        if order.len() == n {
            break;
        }
        // Everything left sits on a cycle; break one edge by giving
        // some pending latch a pre-sweep copy of its source.
        let j = (0..n)
            .find(|&j| !done[j] && out_edge[j] != usize::MAX)
            .expect("a stalled latch schedule always has a pending edge");
        let row = snap_srcs.len();
        snap_srcs.push((row, latches[j].1 as usize));
        snapped[j] = row;
        let i = out_edge[j];
        out_edge[j] = usize::MAX;
        indeg[i] -= 1;
        if indeg[i] == 0 && !done[i] {
            queue.push(i);
        }
    }

    let delay_nodes = dfg.delay_nodes();
    let plan = order
        .into_iter()
        .map(|k| {
            let (state_reg, src_reg, node) = latches[k];
            let d = delay_nodes[k];
            debug_assert_eq!(d.index() as u32, node);
            let src_node = dfg.node(d).args()[0];
            let q = quants[node as usize];
            LatchStep {
                state_reg: state_reg as usize,
                src: if snapped[k] != usize::MAX {
                    LatchSrc::Snap(snapped[k])
                } else {
                    LatchSrc::Reg(src_reg as usize)
                },
                requant: (q != quants[src_node.index()]).then_some(q),
            }
        })
        .collect();
    (snap_srcs, plan)
}

/// Splits one bank into `(&mut dst, &a, &b)`.  Sound because the
/// compiler never allocates `dst` to an operand register (operands are
/// recycled only *after* the destination is assigned).
#[inline(always)]
fn split_dst(
    bank: &mut [Vec<f64>],
    dst: usize,
    a: usize,
    b: usize,
) -> (&mut [f64], &[f64], &[f64]) {
    debug_assert!(dst != a && dst != b);
    let (lo, rest) = bank.split_at_mut(dst);
    let (d, hi) = rest.split_at_mut(1);
    let pick_a = if a < dst { &lo[a] } else { &hi[a - dst - 1] };
    let pick_b = if b < dst { &lo[b] } else { &hi[b - dst - 1] };
    (&mut d[0], pick_a.as_slice(), pick_b.as_slice())
}

/// The three reassociation-free binary kernels, one tight loop each so
/// the optimizer vectorizes them without per-lane dispatch.
#[inline(always)]
fn arith(op: OpCode, d: &mut [f64], x: &[f64], y: &[f64]) {
    match op {
        OpCode::Add => {
            for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                *d = x + y + 0.0;
            }
        }
        OpCode::Sub => {
            for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                *d = x - y + 0.0;
            }
        }
        OpCode::Mul => {
            for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
                *d = x * y + 0.0;
            }
        }
        _ => unreachable!("arith handles Add/Sub/Mul only"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sna_dfg::{DfgBuilder, Simulator};
    use sna_fixp::FixedSimulator;
    use sna_interval::Interval;

    /// Edge cases of the magic-number rounding: ties, ±0, the 2⁵²
    /// boundary, the extremes and a dense sweep of small magnitudes.
    fn magic_probes() -> Vec<f64> {
        let mut probes: Vec<f64> = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            f64::EPSILON,
            MAGIC - 1.0,
            MAGIC - 0.5,
            MAGIC,
            MAGIC + 1.0,
            -MAGIC,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        // Dense sweep around small magnitudes, including exact ties.
        for i in -2000i32..=2000 {
            probes.push(f64::from(i) / 8.0);
            probes.push(f64::from(i) / 7.0);
            probes.push(f64::from(i) * 1234.5678);
        }
        probes
    }

    /// The magic-number round/floor must be bit-identical to the std
    /// functions for *every* input class: the requantize loops lean on
    /// this to stay bit-exact against the scalar simulators.
    #[test]
    fn magic_round_and_floor_match_std_bitwise() {
        for p in magic_probes() {
            // f64::round is round-half-away-from-zero — the reference.
            assert_eq!(
                round_ties_away(p).to_bits(),
                p.round().to_bits(),
                "round_ties_away({p:e})"
            );
            assert_eq!(
                floor_magic(p).to_bits(),
                p.floor().to_bits(),
                "floor_magic({p:e})"
            );
        }
        assert!(round_ties_away(f64::NAN).is_nan());
        assert!(floor_magic(f64::NAN).is_nan());
    }

    /// The `Saturate` requantization as it was written before the
    /// clamp moved ahead of the rounding: round (with the 2⁵²
    /// pass-through guard), then clamp.  Kept as the oracle for
    /// [`saturate_clamp_before_round_matches_round_then_clamp`].
    fn round_then_clamp(q: &LaneQuant, x: f64) -> f64 {
        let m = match q.rounding {
            Rounding::Nearest => round_ties_away(x * q.inv_res),
            Rounding::Truncate => floor_magic(x * q.inv_res),
        };
        let m = if m >= q.min_m { m } else { q.min_m };
        let m = if m <= q.max_m { m } else { q.max_m };
        m * q.res + 0.0
    }

    /// An unsigned `bits`-wide format with `frac` fractional bits
    /// (`min_m = 0`) — not a `Format` the scalar path can express, but
    /// the lane kernels must get the clamp right for any integer
    /// bounds.
    fn unsigned_quant(bits: u32, frac: i32, rounding: Rounding, overflow: Overflow) -> LaneQuant {
        let res = 2f64.powi(-frac);
        let max_m = f64::from(2u32.pow(bits) - 1);
        LaneQuant {
            res,
            inv_res: 1.0 / res,
            min_m: 0.0,
            max_m,
            modulus: max_m + 1.0,
            rounding,
            overflow,
        }
    }

    /// Clamp-then-round equals round-then-clamp on every probe class:
    /// the magic-number edge cases, the values just outside (and on)
    /// `min_m`/`max_m`, ±2⁶⁰, ±∞, NaN, ±0 and subnormals — each taken
    /// both as a raw value and scaled by the resolution, through both
    /// the in-place and the fused kernel.
    #[test]
    fn saturate_clamp_before_round_matches_round_then_clamp() {
        use sna_fixp::Format;
        let mut quants: Vec<LaneQuant> = Vec::new();
        for rounding in [Rounding::Nearest, Rounding::Truncate] {
            for (w, f) in [(4, 0), (8, 6), (12, 11), (27, 20), (48, 0)] {
                let format = Format::new(w, f).unwrap();
                quants.push(LaneQuant::of(&Quantizer::new(
                    format,
                    rounding,
                    Overflow::Saturate,
                )));
            }
            quants.push(unsigned_quant(8, 4, rounding, Overflow::Saturate));
            quants.push(unsigned_quant(1, 0, rounding, Overflow::Saturate));
        }
        let subnormal = f64::from_bits(1);
        let mut raw = magic_probes();
        raw.extend([
            2f64.powi(60),
            -(2f64.powi(60)),
            f64::NAN,
            -f64::NAN,
            subnormal,
            -subnormal,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
        ]);
        for q in quants {
            let mut probes = raw.clone();
            for bound in [q.min_m, q.max_m] {
                for delta in [
                    -1.0,
                    -0.5,
                    -0.25,
                    -f64::EPSILON,
                    0.0,
                    f64::EPSILON,
                    0.25,
                    0.5,
                    1.0,
                ] {
                    probes.push(bound + delta);
                }
                probes.push(bound.next_down());
                probes.push(bound.next_up());
            }
            let scaled: Vec<f64> = probes.iter().map(|&p| p * q.res).collect();
            probes.extend(scaled);

            let mut lanes = probes.clone();
            q.requantize(&mut lanes);
            let mut fused = vec![0.0; probes.len()];
            q.map1_requant(&mut fused, &probes, |x| x);
            for ((&x, &got), &got_fused) in probes.iter().zip(&lanes).zip(&fused) {
                let want = round_then_clamp(&q, x);
                assert_eq!(got.to_bits(), want.to_bits(), "requantize({x:e}) on {q:?}");
                assert_eq!(
                    got_fused.to_bits(),
                    want.to_bits(),
                    "map1_requant({x:e}) on {q:?}"
                );
            }
        }
    }

    /// [`LaneQuant::requantize`] vs the scalar [`Quantizer::quantize`]
    /// at the places they historically diverged or could: the range
    /// endpoints `lo`/`hi`, one tick and one half-tick inside/outside
    /// them, and ±0.0 (the scalar path's i64 mantissa round-trip erases
    /// the sign of zero; the lane path must match bit-for-bit).
    #[test]
    fn requantize_matches_scalar_quantizer_at_endpoints_and_zero() {
        use sna_fixp::Format;
        let formats = [
            Format::new(4, 0).unwrap(),   // integers −8..=7
            Format::new(8, 6).unwrap(),   // fractional, hi ≠ |lo|
            Format::new(12, 11).unwrap(), // the default unit-range shape
            Format::new(27, 20).unwrap(), // widest exactly-mirrored WL
        ];
        for format in formats {
            let res = format.resolution();
            let (lo, hi) = (format.min_value(), format.max_value());
            let probes = [
                lo,
                hi,
                0.0,
                -0.0,
                lo + res,
                hi - res,
                lo - res,
                hi + res,
                lo - res / 2.0, // rounding tie straddling the endpoint
                hi + res / 2.0,
                res / 2.0, // tie at the origin
                -res / 2.0,
                2.0 * lo,
                2.0 * hi,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for rounding in [Rounding::Nearest, Rounding::Truncate] {
                for overflow in [Overflow::Saturate, Overflow::Wrap] {
                    let q = Quantizer::new(format, rounding, overflow);
                    let lane = LaneQuant::of(&q);
                    for &x in &probes {
                        if overflow == Overflow::Wrap && !x.is_finite() {
                            continue; // wrap of ±∞ is documented out of contract
                        }
                        let mut lanes = [x];
                        lane.requantize(&mut lanes);
                        let want = q.quantize(x);
                        assert_eq!(
                            lanes[0].to_bits(),
                            want.to_bits(),
                            "requantize({x:e}) with {rounding:?}/{overflow:?} on {format:?}: \
                             lane {:e} vs scalar {want:e}",
                            lanes[0]
                        );
                        let mut fused = [0.0];
                        lane.map2_requant(&mut fused, &[x], &[0.0], |a, b| a + b);
                        assert_eq!(
                            fused[0].to_bits(),
                            want.to_bits(),
                            "map2_requant({x:e}) with {rounding:?}/{overflow:?} on {format:?}"
                        );
                    }
                }
            }
        }
    }

    /// An endpoint-valued trace through the whole executor: inputs
    /// sitting exactly on `lo`, `hi`, ±0.0 and the half-tick ties must
    /// keep the VM bit-identical to both scalar simulators (the
    /// `neg`/`sub` paths produce `-0.0` internally, which the
    /// quantizers must normalize identically).
    #[test]
    fn endpoint_valued_traces_stay_bit_identical_to_the_scalar_simulators() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let p = b.mul(s, s);
        let d = b.sub(p, x);
        let n = b.neg(d);
        b.output("p", p);
        b.output("n", n);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-2.0, 2.0).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 12).unwrap();
        let res = 2.0 / ((1u64 << 11) as f64); // 12-bit format over [-2, 2)
        let edge = [
            0.0,
            -0.0,
            2.0,
            -2.0,
            2.0 - res,
            -2.0 + res,
            res / 2.0,
            -res / 2.0,
        ];
        // Every ordered pair of edge values, one lane per pair.
        let steps = 4;
        let traces: Vec<Vec<f64>> = edge
            .iter()
            .flat_map(|&a| edge.iter().map(move |&b| (a, b)))
            .map(|(a, b)| {
                (0..steps)
                    .flat_map(|t| [a, if t % 2 == 0 { b } else { -b }])
                    .collect()
            })
            .collect();
        lockstep_check(&dfg, &config, &traces, steps);
    }

    fn lockstep_check(dfg: &Dfg, config: &WlConfig, traces: &[Vec<f64>], steps: usize) {
        let program = Arc::new(Program::compile(dfg));
        let exe = Executable::new(Arc::clone(&program), dfg, config);
        let lanes = traces.len();
        let mut state = exe.new_state(lanes);

        let mut refs: Vec<Simulator> = (0..lanes).map(|_| Simulator::new(dfg)).collect();
        let mut fixes: Vec<FixedSimulator> = (0..lanes)
            .map(|_| FixedSimulator::new(dfg, config))
            .collect();

        for t in 0..steps {
            let inputs: Vec<Vec<f64>> = (0..dfg.n_inputs())
                .map(|j| traces.iter().map(|tr| tr[t * dfg.n_inputs() + j]).collect())
                .collect();
            exe.step(&mut state, &inputs).unwrap();
            for (lane, (r, f)) in refs.iter_mut().zip(fixes.iter_mut()).enumerate() {
                let per_lane: Vec<f64> = (0..dfg.n_inputs()).map(|j| inputs[j][lane]).collect();
                let want_exact = r.step(&per_lane).unwrap();
                let want_fixed = f.step(&per_lane).unwrap();
                for k in 0..dfg.outputs().len() {
                    let got_e = exe.exact_out(&state, k)[lane];
                    let got_q = exe.quant_out(&state, k)[lane];
                    assert_eq!(
                        got_e.to_bits(),
                        want_exact[k].to_bits(),
                        "exact t={t} k={k}"
                    );
                    assert_eq!(
                        got_q.to_bits(),
                        want_fixed[k].to_bits(),
                        "quant t={t} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn combinational_graph_matches_both_scalar_simulators_bitwise() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let p = b.mul(s, s);
        let d = b.sub(p, x);
        let n = b.neg(d);
        b.output("p", p);
        b.output("n", n);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-2.0, 2.0).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 12).unwrap();

        let traces: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                (0..2)
                    .map(|j| -1.5 + 0.17 * (i as f64) + 0.09 * (j as f64))
                    .collect()
            })
            .collect();
        lockstep_check(&dfg, &config, &traces, 1);
    }

    #[test]
    fn feedback_graph_matches_both_scalar_simulators_bitwise() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 10).unwrap();

        let steps = 32;
        let traces: Vec<Vec<f64>> = (0..8)
            .map(|lane| {
                (0..steps)
                    .map(|t| 0.8 * ((lane * 31 + t * 7) as f64 * 0.061).sin())
                    .collect()
            })
            .collect();
        lockstep_check(&dfg, &config, &traces, steps);
    }

    /// Regression: a delay *chain* (`x2 = delay x1`, `x1 = delay x`) is a
    /// latch whose source is another latch's state.  The latch phase must
    /// snapshot all sources before writing any state, or the shift
    /// register collapses (every tap sees the freshest sample).
    #[test]
    fn delay_chain_matches_both_scalar_simulators_bitwise() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let taps = b.delay_chain(x, 3);
        let t0 = b.mul_const(0.25, x);
        let t1 = b.mul_const(0.5, taps[0]);
        let t2 = b.mul_const(-0.3, taps[1]);
        let t3 = b.mul_const(0.55, taps[2]);
        let s1 = b.add(t0, t1);
        let s2 = b.add(t2, t3);
        let y = b.add(s1, s2);
        b.output("y", y);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 10).unwrap();

        let steps = 32;
        let traces: Vec<Vec<f64>> = (0..8)
            .map(|lane| {
                (0..steps)
                    .map(|t| 0.9 * ((lane * 17 + t * 5) as f64 * 0.083).cos())
                    .collect()
            })
            .collect();
        lockstep_check(&dfg, &config, &traces, steps);
    }

    /// Regression: two delays feeding each other (a swap register) — the
    /// fully cyclic case no latch ordering can fix; only a two-phase
    /// snapshot gives both delays their pre-latch sources.
    #[test]
    fn swap_register_matches_both_scalar_simulators_bitwise() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let a = b.delay_placeholder();
        let c = b.delay_placeholder();
        let half = b.mul_const(0.5, c);
        let ain = b.add(half, x);
        b.bind_delay(a, ain).unwrap();
        b.bind_delay(c, a).unwrap();
        let y = b.sub(a, c);
        b.output("y", y);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-0.25, 0.25).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 12).unwrap();

        let steps = 24;
        let traces: Vec<Vec<f64>> = (0..6)
            .map(|lane| {
                (0..steps)
                    .map(|t| 0.2 * ((lane * 13 + t * 3) as f64 * 0.107).sin())
                    .collect()
            })
            .collect();
        lockstep_check(&dfg, &config, &traces, steps);
    }

    /// A per-node quantizer drawn over both roundings, both overflow
    /// modes, and signed or (one time in four) unsigned bounds.
    fn random_quant(rng: &mut StdRng) -> LaneQuant {
        use sna_fixp::Format;
        let rounding = if rng.gen_bool(0.5) {
            Rounding::Nearest
        } else {
            Rounding::Truncate
        };
        let overflow = if rng.gen_bool(0.5) {
            Overflow::Saturate
        } else {
            Overflow::Wrap
        };
        let w = rng.gen_range(3..16u8);
        let f = rng.gen_range(0..w);
        if rng.gen_bool(0.25) {
            unsigned_quant(u32::from(w), i32::from(f), rounding, overflow)
        } else {
            LaneQuant::of(&Quantizer::new(
                Format::new(w, f).unwrap(),
                rounding,
                overflow,
            ))
        }
    }

    /// A seeded random graph and per-node quantizers: every opcode over
    /// randomly picked earlier nodes, delays and delay chains, a delay
    /// self-loop (`s = delay s`), a latch cycle (`a = delay c; c =
    /// delay a`) and a fed swap register.  Divisors are constants with
    /// a fine signed quantizer, so no lane divides by zero.
    fn random_graph(rng: &mut StdRng) -> (Dfg, Vec<LaneQuant>) {
        let mut b = DfgBuilder::new();
        let n_inputs = rng.gen_range(1..4usize);
        let mut pool: Vec<NodeId> = (0..n_inputs).map(|i| b.input(format!("x{i}"))).collect();
        let own = b.delay_placeholder();
        b.bind_delay(own, own).unwrap();
        let (ca, cc) = (b.delay_placeholder(), b.delay_placeholder());
        b.bind_delay(ca, cc).unwrap();
        b.bind_delay(cc, ca).unwrap();
        let (sa, sc) = (b.delay_placeholder(), b.delay_placeholder());
        b.bind_delay(sc, sa).unwrap();
        pool.extend([own, ca, sa, sc]);
        let mut divisors = Vec::new();
        for _ in 0..rng.gen_range(12..28usize) {
            let x = pool[rng.gen_range(0..pool.len())];
            let y = pool[rng.gen_range(0..pool.len())];
            let node = match rng.gen_range(0..7u32) {
                0 => b.add(x, y),
                1 => b.sub(x, y),
                2 => b.mul(x, y),
                3 => {
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    let k = b.constant(sign * rng.gen_range(0.5..2.0));
                    divisors.push(k);
                    b.div(x, k)
                }
                4 => b.neg(x),
                5 => b.mul_const(rng.gen_range(-1.5..1.5), x),
                _ => b.delay(x),
            };
            pool.push(node);
        }
        let last = *pool.last().unwrap();
        let fed = b.mul_const(0.25, last);
        b.bind_delay(sa, fed).unwrap();
        b.output("last", last);
        b.output("pick", pool[rng.gen_range(n_inputs..pool.len())]);
        let dfg = b.build().unwrap();
        let mut quants: Vec<LaneQuant> = (0..dfg.len()).map(|_| random_quant(rng)).collect();
        let fine = Quantizer::new(
            sna_fixp::Format::new(12, 8).unwrap(),
            Rounding::Nearest,
            Overflow::Saturate,
        );
        for k in divisors {
            quants[k.index()] = LaneQuant::of(&fine);
        }
        (dfg, quants)
    }

    /// Every tier the host supports runs bit-identical to the portable
    /// sweep: on seeded random graphs (every opcode, Nearest/Truncate ×
    /// Saturate/Wrap, unsigned bounds, self-loops, latch cycles) at
    /// lane counts that are not multiples of 8, both whole register
    /// banks agree bit for bit after every step.
    #[test]
    fn every_tier_matches_the_portable_sweep_bitwise() {
        let tiers: Vec<Isa> = [Isa::Portable, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|isa| isa.supported())
            .collect();
        println!(
            "lane-kernel tiers checked against portable: {:?}",
            tiers.iter().map(|t| t.name()).collect::<Vec<_>>()
        );
        let mut ops_seen = Vec::new();
        let mut modes_seen = Vec::new();
        let mut unsigned_seen = false;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dfg, quants) = random_graph(&mut rng);
            for q in &quants {
                if !modes_seen.contains(&(q.rounding, q.overflow)) {
                    modes_seen.push((q.rounding, q.overflow));
                }
                unsigned_seen |= q.min_m == 0.0;
            }
            let program = Arc::new(Program::compile(&dfg));
            for inst in &program.insts {
                if !ops_seen.contains(&inst.op) {
                    ops_seen.push(inst.op);
                }
            }
            let lanes = [1, 37, 515][seed as usize % 3];
            let portable = Executable::bind(Arc::clone(&program), &dfg, quants.clone())
                .with_isa(Isa::Portable);
            let wide: Vec<Executable> = tiers
                .iter()
                .map(|&isa| {
                    Executable::bind(Arc::clone(&program), &dfg, quants.clone()).with_isa(isa)
                })
                .collect();
            let mut want = portable.new_state(lanes);
            let mut got: Vec<VmState> = wide.iter().map(|e| e.new_state(lanes)).collect();
            for t in 0..12 {
                let inputs: Vec<Vec<f64>> = (0..dfg.n_inputs())
                    .map(|_| {
                        (0..lanes)
                            .map(|_| {
                                let x: f64 = rng.gen_range(-3.0..3.0);
                                // A quarter of the lanes sit on a 1/32 grid,
                                // where the rounding ties are.
                                if rng.gen_bool(0.25) {
                                    (x * 32.0).round() / 32.0
                                } else {
                                    x
                                }
                            })
                            .collect()
                    })
                    .collect();
                portable.step(&mut want, &inputs).unwrap();
                for ((exe, state), isa) in wide.iter().zip(&mut got).zip(&tiers) {
                    exe.step(state, &inputs).unwrap();
                    for (bank, w, g) in [
                        ("exact", &want.exact, &state.exact),
                        ("quant", &want.quant, &state.quant),
                    ] {
                        for (r, (w, g)) in w.iter().zip(g).enumerate() {
                            for (lane, (&w, &g)) in w.iter().zip(g).enumerate() {
                                assert!(
                                    w.to_bits() == g.to_bits(),
                                    "seed {seed} step {t}: {isa:?} {bank} r{r}[{lane}] = {g:e}, \
                                     portable {w:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(ops_seen.len(), 6, "opcodes covered: {ops_seen:?}");
        assert_eq!(modes_seen.len(), 4, "modes covered: {modes_seen:?}");
        assert!(unsigned_seen);
    }

    /// A row shorter or longer than the state's lane count is an error,
    /// not a silently stale or ignored tail.
    #[test]
    fn input_rows_must_hold_one_value_per_lane() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        b.output("s", s);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 12).unwrap();
        let exe = Executable::new(Arc::new(Program::compile(&dfg)), &dfg, &config);
        let mut state = exe.new_state(8);
        for bad in [7, 9] {
            let inputs = vec![vec![0.5; 8], vec![0.5; bad]];
            assert_eq!(
                exe.step(&mut state, &inputs),
                Err(VmError::LaneCount {
                    expected: 8,
                    got: bad
                })
            );
        }
        exe.step(&mut state, &[vec![0.5; 8], vec![0.25; 8]])
            .unwrap();
        assert_eq!(exe.quant_out(&state, 0), &[0.75; 8]);
    }

    #[test]
    fn division_by_zero_reports_the_offending_node() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let q = b.div(x, y);
        b.output("q", q);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(1.0, 2.0).unwrap(); dfg.n_inputs()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 12).unwrap();
        let exe = Executable::new(Arc::new(Program::compile(&dfg)), &dfg, &config);
        let mut state = exe.new_state(4);
        let inputs = vec![vec![1.0; 4], vec![1.0, 1.0, 0.0, 1.0]];
        let err = exe.step(&mut state, &inputs).unwrap_err();
        assert!(matches!(err, VmError::DivisionByZero { node } if node == q));
    }
}
