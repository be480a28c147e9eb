//! Range analysis: per-node value bounds given input ranges.
//!
//! Two engines are provided, matching the paper's "second category" of
//! error-analysis methods (Section 3):
//!
//! * **Interval analysis** ([`Dfg::ranges_interval`]) — fast, dependency
//!   blind; handles feedback by fixpoint iteration across delay states.
//! * **Affine analysis** ([`Dfg::ranges_affine`]) — first-order correlation
//!   aware, combinational graphs only (feedback would need unrolling).
//!
//! Range analysis determines the *integer* part of each node's fixed-point
//! format; the SNA machinery determines the fractional part.
//!
//! # Proving divergence early
//!
//! High-order recurrences such as the paper's Design I are stable, yet
//! their interval fixpoint diverges (`Σ|aₖ| ≥ 1`): it runs hundreds of
//! passes until a bound overflows, and only then does
//! [`Dfg::ranges_auto`] fall back to the LTI bound.
//! [`Dfg::ranges_interval_certified`] stops that run early with a proof.
//!
//! On a graph where every `Mul` has a `Const` operand and every `Div` a
//! `Const` divisor, interval widths propagate linearly: `w(a ± b) =
//! w(a) + w(b)`, `w(c·a) = |c|·w(a)`, `w(a / c) = w(a)/|c|`. One pass
//! therefore maps the widths `w_k` of the unpinned delay states through
//! a nonnegative matrix `M` (inputs add width, overridden nodes and
//! pinned delays only add constants, so cutting them gives a lower
//! bound), and the hull keeps what a state had: `w_{k+1} ≥ M·w_k`.
//!
//! After `n_delays + 2` passes without convergence, every state an input
//! can reach has positive width. Power iteration from those widths looks
//! for a `v ≥ 0` with `M·v ≥ (1+ε)·v` on `supp(v) ⊆ supp(w_k)`, which
//! proves `ρ(M) ≥ 1+ε` (Collatz–Wielandt). With `φ_k = min w_k/v` over
//! `supp(v)`, each pass gives `φ_{k+1} ≥ (1+ε)·φ_k`. A pass that changes
//! no state by more than the tolerance `t` (relative to `1 + width`)
//! needs `φ_k · v_d ≤ t / (ε − t(1+ε))` at the state `d` where `φ_k` is
//! attained. Once `φ_k · min v` is above that, no later pass can stop the
//! fixpoint: it ends in [`DfgError::RangeDivergence`] however long it
//! runs, so the proof answers the same error without running it. The
//! margin `ε = 1e-3` is far above the rounding of the widths the
//! fixpoint computes. The search gives up as soon as `v > 0` on every
//! unpinned state and `M·v < (1+ε)·v`, which bounds `ρ(M)` below `1+ε`,
//! so a slowly converging loop pays about one width pass for it.

use sna_interval::{AffineContext, AffineForm, Interval, IntervalError};

use crate::{Dfg, DfgError, NodeId, Op};

/// Options for fixpoint range analysis over sequential graphs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeOptions {
    /// Maximum fixpoint iterations across delay states.
    pub max_iterations: usize,
    /// Convergence tolerance on interval bounds, relative to width.
    pub tolerance: f64,
}

impl Default for RangeOptions {
    fn default() -> Self {
        RangeOptions {
            max_iterations: 4096,
            tolerance: 1e-9,
        }
    }
}

impl Op {
    /// The interval of a node applying this operator to operand
    /// intervals `a` and `b` (those past its arity are ignored):
    /// `input_ranges[i]` for `Input(i)`, the point for a constant, and
    /// the operand for a delay.  `square` marks a multiplication of a
    /// node by itself, evaluated as a dependent square.
    ///
    /// This is the one interval rule per operator that range analysis
    /// and every interval re-evaluation of a graph share.
    ///
    /// # Errors
    ///
    /// [`IntervalError`] for a division by a range that contains zero.
    pub fn eval_interval(
        self,
        input_ranges: &[Interval],
        a: Interval,
        b: Interval,
        square: bool,
    ) -> Result<Interval, IntervalError> {
        Ok(match self {
            Op::Input(i) => input_ranges[i],
            Op::Const(c) => Interval::point(c),
            Op::Add => a + b,
            Op::Sub => a - b,
            Op::Mul if square => a.sqr(),
            Op::Mul => a * b,
            Op::Div => a.checked_div(&b)?,
            Op::Neg => -a,
            Op::Delay => a,
        })
    }
}

impl Dfg {
    /// Node `id`'s interval from its operands' entries in `ranges`, or
    /// `None` for a delay, whose range is its widened state's.
    fn node_interval(
        &self,
        id: NodeId,
        ranges: &[Interval],
        input_ranges: &[Interval],
    ) -> Result<Option<Interval>, DfgError> {
        let node = self.node(id);
        if node.op() == Op::Delay {
            return Ok(None);
        }
        let args = node.args();
        let operand = |k: usize| args.get(k).map_or(Interval::ZERO, |a| ranges[a.index()]);
        // Self-multiplication is a dependent square.
        let square = args.len() == 2 && args[0] == args[1];
        node.op()
            .eval_interval(input_ranges, operand(0), operand(1), square)
            .map(Some)
            .map_err(|_| DfgError::RangeDivisionByZero { node: id })
    }

    /// Computes per-node value ranges with interval arithmetic.
    ///
    /// Sequential graphs are handled by iterating to a fixpoint: delay
    /// ranges start at `[0, 0]` (the reset state) and are widened with the
    /// hull of their source's range until stable.
    ///
    /// Nodes carrying a [range override](Dfg::range_override) report the
    /// declared interval instead of the computed one; overridden delays
    /// are pinned (never widened), which can make otherwise-divergent
    /// feedback converge.
    ///
    /// # Errors
    ///
    /// * [`DfgError::WrongInputCount`] for a mis-sized range slice;
    /// * [`DfgError::RangeDivisionByZero`] if a divisor range straddles 0;
    /// * [`DfgError::RangeDivergence`] when feedback does not converge
    ///   (loop gain ≥ 1).
    pub fn ranges_interval(
        &self,
        input_ranges: &[Interval],
        opts: &RangeOptions,
    ) -> Result<Vec<Interval>, DfgError> {
        self.interval_fixpoint(input_ranges, opts, false)
    }

    /// [`Dfg::ranges_interval`], stopped as soon as the fixpoint is
    /// proven divergent. The proof, a Collatz–Wielandt bound on how one
    /// pass grows the delay states' interval widths, is set out in the
    /// docs of `crates/dfg/src/range.rs`.
    ///
    /// The answer is `ranges_interval`'s, except that a
    /// [`DfgError::RangeDivergence`] the fixpoint would reach after many
    /// passes may come after `n_delays + 2` of them instead.
    ///
    /// # Errors
    ///
    /// As for [`Dfg::ranges_interval`].
    pub fn ranges_interval_certified(
        &self,
        input_ranges: &[Interval],
        opts: &RangeOptions,
    ) -> Result<Vec<Interval>, DfgError> {
        self.interval_fixpoint(input_ranges, opts, true)
    }

    /// The interval fixpoint; with `certify`, it tries the divergence
    /// proof once, after `n_delays + 2` passes.
    fn interval_fixpoint(
        &self,
        input_ranges: &[Interval],
        opts: &RangeOptions,
        certify: bool,
    ) -> Result<Vec<Interval>, DfgError> {
        if input_ranges.len() != self.n_inputs() {
            return Err(DfgError::WrongInputCount {
                expected: self.n_inputs(),
                got: input_ranges.len(),
            });
        }
        let mut ranges = vec![Interval::ZERO; self.len()];
        // Overridden delays are pinned at their declared range from the
        // start (the reset state is inside or outside — the override
        // wins either way).
        for &d in self.delay_nodes() {
            if let Some(r) = self.range_override(d) {
                ranges[d.index()] = r;
            }
        }
        let iterations = if self.is_combinational() {
            1
        } else {
            opts.max_iterations
        };
        for it in 0..iterations {
            for &id in self.topo_order() {
                let Some(v) = self.node_interval(id, &ranges, input_ranges)? else {
                    continue;
                };
                ranges[id.index()] = self.range_override(id).unwrap_or(v);
            }
            // Unbounded feedback blows ranges up geometrically; declare
            // divergence as soon as a bound stops being finite.
            if ranges
                .iter()
                .any(|r| !r.lo().is_finite() || !r.hi().is_finite())
            {
                return Err(DfgError::RangeDivergence { iterations: it + 1 });
            }
            // Widen delay states with their sources' ranges.  Combinational
            // nodes are pure functions of inputs and delay states, so the
            // fixpoint is reached exactly when no delay grows materially.
            let mut changed = false;
            for &d in self.delay_nodes() {
                if self.range_override(d).is_some() {
                    continue; // pinned by the override
                }
                let src = self.node(d).args()[0];
                let widened = ranges[d.index()].hull(&ranges[src.index()]);
                if !widened.width().is_finite() {
                    return Err(DfgError::RangeDivergence { iterations: it + 1 });
                }
                if widened != ranges[d.index()] {
                    let grown = widened.width() - ranges[d.index()].width();
                    if grown > opts.tolerance * (1.0 + widened.width()) {
                        changed = true;
                    }
                    ranges[d.index()] = widened;
                }
            }
            if !changed {
                return Ok(ranges);
            }
            if certify
                && it + 1 == self.delay_nodes().len() + 2
                && self.widths_diverge(&ranges, opts.tolerance)
            {
                return Err(DfgError::RangeDivergence { iterations: it + 1 });
            }
            if it + 1 == iterations && !self.is_combinational() {
                return Err(DfgError::RangeDivergence { iterations });
            }
        }
        Ok(ranges)
    }

    /// Whether every `Mul` has a `Const` operand and every `Div` a
    /// `Const` divisor, so that interval widths propagate linearly.
    fn widths_are_linear(&self) -> bool {
        let is_const = |id: NodeId| matches!(self.node(id).op(), Op::Const(_));
        self.nodes().all(|(_, node)| match node.op() {
            Op::Mul => node.args().iter().any(|&a| is_const(a)),
            Op::Div => is_const(node.args()[1]),
            _ => true,
        })
    }

    /// One application of the width map `M`: every combinational node's
    /// interval width with the delay states at the widths `w` holds for
    /// them, inputs and constants at width 0 and overridden nodes cut to
    /// 0. Only the delay entries of `w` are read before they are written.
    ///
    /// The width rules are spelled out here instead of running
    /// `node_interval` on `[-w/2, w/2]`: a second caller of that function
    /// costs the fixpoint loop its inlining (the plain diffeq fixpoint
    /// measured ~35% slower).
    fn propagate_widths(&self, w: &mut [f64]) {
        let factor = |id: NodeId| match self.node(id).op() {
            Op::Const(c) => Some(c.abs()),
            _ => None,
        };
        for &id in self.topo_order() {
            let node = self.node(id);
            let args = node.args();
            let width = |k: usize| w[args[k].index()];
            w[id.index()] = if self.range_override(id).is_some() {
                0.0
            } else {
                match node.op() {
                    Op::Input(_) | Op::Const(_) | Op::Delay => 0.0,
                    Op::Add | Op::Sub => width(0) + width(1),
                    Op::Neg => width(0),
                    Op::Mul => match factor(args[0]) {
                        Some(c) => c * width(1),
                        None => factor(args[1]).map_or(0.0, |c| c * width(0)),
                    },
                    Op::Div => factor(args[1]).map_or(0.0, |c| width(0) / c),
                }
            };
        }
    }

    /// The divergence proof of the [module docs](self) for the fixpoint
    /// state `ranges`, with convergence tolerance `tolerance`.
    fn widths_diverge(&self, ranges: &[Interval], tolerance: f64) -> bool {
        /// The growth factor `1 + ε` the proof asks of `M` on `v`.
        const GROWTH: f64 = 1.0 + 1e-3;
        /// Power iterations before the proof gives up.
        const ROUNDS: usize = 64;
        let margin = GROWTH - 1.0 - tolerance * GROWTH;
        if margin <= 0.0 || !self.widths_are_linear() {
            return false;
        }
        let delays = self.delay_nodes();
        let unpinned = |d: NodeId| self.range_override(d).is_none();
        let seed: Vec<f64> = delays
            .iter()
            .map(|&d| {
                if unpinned(d) {
                    ranges[d.index()].width()
                } else {
                    0.0
                }
            })
            .collect();
        let mut v = seed.clone();
        let mut w = vec![0.0; self.len()];
        for _ in 0..ROUNDS {
            let top = v.iter().copied().fold(0.0, f64::max);
            if !(top > 0.0 && top.is_finite()) {
                return false;
            }
            for (&d, x) in delays.iter().zip(&mut v) {
                *x /= top;
                w[d.index()] = *x;
            }
            self.propagate_widths(&mut w);
            let mv: Vec<f64> = delays
                .iter()
                .map(|&d| {
                    if unpinned(d) {
                        w[self.node(d).args()[0].index()]
                    } else {
                        0.0
                    }
                })
                .collect();
            let grows = v
                .iter()
                .zip(&mv)
                .zip(&seed)
                .all(|((&x, &y), &s)| x == 0.0 || (s > 0.0 && y >= GROWTH * x));
            if grows {
                // φ·min v: the smallest margin of the seed over v.
                let (phi, v_min) = v
                    .iter()
                    .zip(&seed)
                    .filter(|(&x, _)| x > 0.0)
                    .fold((f64::INFINITY, f64::INFINITY), |(phi, v_min), (&x, &s)| {
                        (phi.min(s / x), v_min.min(x))
                    });
                return phi * v_min > tolerance / margin;
            }
            // With v > 0 on every unpinned state, ρ(M) ≤ max M·v / v (the
            // other Collatz–Wielandt bound): below 1+ε no later v can
            // prove growth, so a converging loop stops trying here.
            let contracts = delays
                .iter()
                .zip(&v)
                .zip(&mv)
                .all(|((&d, &x), &y)| !unpinned(d) || (x > 0.0 && y < GROWTH * x));
            if contracts {
                return false;
            }
            v = mv;
        }
        false
    }

    /// Computes per-node ranges with affine arithmetic (combinational
    /// graphs only); returns the affine form of every node.
    ///
    /// A node carrying a [range override](Dfg::range_override) is
    /// replaced by a fresh independent form over the declared interval
    /// (correlations through it are deliberately cut — the override is
    /// the designer's bound, not a derived one).
    ///
    /// # Errors
    ///
    /// * [`DfgError::NonlinearNode`] if the graph contains delays (use
    ///   [`Dfg::combinational_view`] first);
    /// * [`DfgError::WrongInputCount`] / [`DfgError::RangeDivisionByZero`]
    ///   as for the interval engine.
    pub fn ranges_affine(&self, input_ranges: &[Interval]) -> Result<Vec<AffineForm>, DfgError> {
        if !self.is_combinational() {
            return Err(DfgError::NonlinearNode {
                node: self.delay_nodes()[0],
            });
        }
        if input_ranges.len() != self.n_inputs() {
            return Err(DfgError::WrongInputCount {
                expected: self.n_inputs(),
                got: input_ranges.len(),
            });
        }
        let ctx = AffineContext::new();
        let inputs: Vec<AffineForm> = input_ranges.iter().map(|&r| ctx.from_interval(r)).collect();
        let mut forms = vec![AffineForm::constant(0.0); self.len()];
        for &id in self.topo_order() {
            let node = self.node(id);
            let v = match node.op() {
                Op::Input(i) => inputs[i].clone(),
                Op::Const(c) => AffineForm::constant(c),
                Op::Add => {
                    forms[node.args()[0].index()].clone() + forms[node.args()[1].index()].clone()
                }
                Op::Sub => {
                    forms[node.args()[0].index()].clone() - forms[node.args()[1].index()].clone()
                }
                Op::Mul => {
                    if node.args()[0] == node.args()[1] {
                        forms[node.args()[0].index()].sqr(&ctx)
                    } else {
                        forms[node.args()[0].index()].mul(&forms[node.args()[1].index()], &ctx)
                    }
                }
                Op::Div => forms[node.args()[0].index()]
                    .div(&forms[node.args()[1].index()], &ctx)
                    .map_err(|_| DfgError::RangeDivisionByZero { node: id })?,
                Op::Neg => -forms[node.args()[0].index()].clone(),
                Op::Delay => unreachable!("combinational graph"),
            };
            forms[id.index()] = match self.range_override(id) {
                Some(r) => ctx.from_interval(r),
                None => v,
            };
        }
        Ok(forms)
    }

    /// Convenience: the interval range of each declared output.
    ///
    /// # Errors
    ///
    /// Same as [`Dfg::ranges_interval`].
    pub fn output_ranges(
        &self,
        input_ranges: &[Interval],
        opts: &RangeOptions,
    ) -> Result<Vec<(String, Interval)>, DfgError> {
        let ranges = self.ranges_interval(input_ranges, opts)?;
        Ok(self
            .outputs()
            .iter()
            .map(|(name, id)| (name.clone(), ranges[id.index()]))
            .collect())
    }
}

/// Checks whether a node of the graph is *signal dependent*, i.e. depends
/// (transitively, through combinational edges or delays) on any input.
pub(crate) fn signal_dependent(dfg: &Dfg) -> Vec<bool> {
    let mut dep = vec![false; dfg.len()];
    // Iterate until stable: delays can propagate dependency around loops.
    loop {
        let mut changed = false;
        for (id, node) in dfg.nodes() {
            let d = match node.op() {
                Op::Input(_) => true,
                Op::Const(_) => false,
                _ => node.args().iter().any(|a| dep[a.index()]),
            };
            if d && !dep[id.index()] {
                dep[id.index()] = true;
                changed = true;
            }
        }
        if !changed {
            return dep;
        }
    }
}

/// Returns the first node violating linearity, if any: a multiplication of
/// two signal-dependent operands, or a division with a signal-dependent
/// divisor.
pub(crate) fn first_nonlinear_node(dfg: &Dfg) -> Option<NodeId> {
    let dep = signal_dependent(dfg);
    for (id, node) in dfg.nodes() {
        match node.op() {
            Op::Mul if dep[node.args()[0].index()] && dep[node.args()[1].index()] => {
                return Some(id);
            }
            Op::Div if dep[node.args()[1].index()] => {
                return Some(id);
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn combinational_interval_ranges() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let sq = b.mul(x, x);
        let k = b.constant(2.0);
        let y = b.mul(k, sq);
        b.output("y", y);
        let g = b.build().unwrap();
        let r = g
            .ranges_interval(&[iv(-1.0, 1.0)], &RangeOptions::default())
            .unwrap();
        // Dependent square: [0, 1], not [-1, 1].
        assert_eq!(r[sq.index()], iv(0.0, 1.0));
        assert_eq!(r[y.index()], iv(0.0, 2.0));
    }

    #[test]
    fn stable_feedback_converges() {
        // y = x + 0.5 y[n-1]: range of y is [−2·|x|max, 2·|x|max].
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let half = b.mul_const(0.5, fb);
        let y = b.add(x, half);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let r = g
            .ranges_interval(&[iv(-1.0, 1.0)], &RangeOptions::default())
            .unwrap();
        let (_, yid) = g.outputs()[0].clone();
        let out = r[yid.index()];
        assert!(out.lo() <= -1.99 && out.lo() >= -2.01, "lo = {}", out.lo());
        assert!(out.hi() >= 1.99 && out.hi() <= 2.01, "hi = {}", out.hi());
    }

    #[test]
    fn unstable_feedback_diverges() {
        // y = x + 1.5 y[n-1] diverges.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let amp = b.mul_const(1.5, fb);
        let y = b.add(x, amp);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let err = g
            .ranges_interval(&[iv(-1.0, 1.0)], &RangeOptions::default())
            .unwrap_err();
        assert!(matches!(err, DfgError::RangeDivergence { .. }));
    }

    #[test]
    fn divisor_straddling_zero_is_reported() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let q = b.div(x, y);
        b.output("q", q);
        let g = b.build().unwrap();
        assert!(matches!(
            g.ranges_interval(&[iv(0.0, 1.0), iv(-1.0, 1.0)], &RangeOptions::default()),
            Err(DfgError::RangeDivisionByZero { .. })
        ));
        let ok = g
            .ranges_interval(&[iv(0.0, 1.0), iv(1.0, 2.0)], &RangeOptions::default())
            .unwrap();
        assert_eq!(ok[q.index()], iv(0.0, 1.0));
    }

    #[test]
    fn affine_is_tighter_on_correlated_paths() {
        // y = x - x: IA gives [-2, 2], AA gives exactly 0.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.sub(x, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ia = g
            .ranges_interval(&[iv(-1.0, 1.0)], &RangeOptions::default())
            .unwrap();
        assert_eq!(ia[y.index()], iv(-2.0, 2.0));
        let aa = g.ranges_affine(&[iv(-1.0, 1.0)]).unwrap();
        assert_eq!(aa[y.index()].to_interval(), iv(0.0, 0.0));
    }

    #[test]
    fn affine_rejects_sequential_graphs() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay(x);
        let y = b.add(x, d);
        b.output("y", y);
        let g = b.build().unwrap();
        assert!(matches!(
            g.ranges_affine(&[iv(-1.0, 1.0)]),
            Err(DfgError::NonlinearNode { .. })
        ));
        // The combinational view is accepted.
        let cv = g.combinational_view();
        assert!(cv.ranges_affine(&[iv(-1.0, 1.0), iv(-1.0, 1.0)]).is_ok());
    }

    #[test]
    fn linearity_detection() {
        // Linear: constant multiplies only.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(3.0, x);
        let y = b.add(t, x);
        b.output("y", y);
        let g = b.build().unwrap();
        assert_eq!(first_nonlinear_node(&g), None);

        // Nonlinear: x·x.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let sq = b.mul(x, x);
        b.output("y", sq);
        let g = b.build().unwrap();
        assert_eq!(first_nonlinear_node(&g), Some(sq));

        // Nonlinear: division by a signal.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.constant(1.0);
        let q = b.div(c, x);
        b.output("y", q);
        let g = b.build().unwrap();
        assert_eq!(first_nonlinear_node(&g), Some(q));
    }

    #[test]
    fn overrides_replace_computed_ranges_and_propagate_downstream() {
        // y = 2·(x + x): IA computes x+x as [-2, 2]; an override pins it
        // to [-1, 1] and downstream sees the override.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let s = b.add(x, x);
        let y = b.mul_const(2.0, s);
        b.output("y", y);
        b.override_range(s, iv(-1.0, 1.0)).unwrap();
        let g = b.build().unwrap();
        assert!(g.has_range_overrides());
        assert_eq!(g.range_override(s), Some(iv(-1.0, 1.0)));
        let r = g
            .ranges_interval(&[iv(-1.0, 1.0)], &RangeOptions::default())
            .unwrap();
        assert_eq!(r[s.index()], iv(-1.0, 1.0));
        assert_eq!(r[y.index()], iv(-2.0, 2.0));
        // Affine analysis respects it too (as a fresh independent form).
        let aa = g.ranges_affine(&[iv(-1.0, 1.0)]).unwrap();
        assert_eq!(aa[s.index()].to_interval(), iv(-1.0, 1.0));
    }

    #[test]
    fn overridden_delay_pins_divergent_feedback() {
        // y = x + 1.5·y[n-1] diverges — unless the designer bounds the
        // feedback state.
        let mk = |with_override: bool| {
            let mut b = DfgBuilder::new();
            let x = b.input("x");
            let fb = b.delay_placeholder();
            let amp = b.mul_const(1.5, fb);
            let y = b.add(x, amp);
            b.bind_delay(fb, y).unwrap();
            b.output("y", y);
            if with_override {
                b.override_range(fb, iv(-2.0, 2.0)).unwrap();
            }
            b.build().unwrap()
        };
        let opts = RangeOptions::default();
        assert!(matches!(
            mk(false).ranges_interval(&[iv(-1.0, 1.0)], &opts),
            Err(DfgError::RangeDivergence { .. })
        ));
        let g = mk(true);
        let r = g.ranges_interval(&[iv(-1.0, 1.0)], &opts).unwrap();
        let (_, yid) = g.outputs()[0].clone();
        // y = x + 1.5·[-2, 2] = [-4, 4].
        assert_eq!(r[yid.index()], iv(-4.0, 4.0));
    }

    #[test]
    fn lti_ranges_respect_overrides() {
        // Stable feedback via the LTI bound, with the accumulator pinned.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let half = b.mul_const(0.5, fb);
        let y = b.add(x, half);
        b.bind_delay(fb, y).unwrap();
        b.override_range(y, iv(-1.5, 1.5)).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let r = g
            .ranges_lti(&[iv(-1.0, 1.0)], &crate::LtiOptions::default())
            .unwrap();
        assert_eq!(r[y.index()], iv(-1.5, 1.5));
    }

    #[test]
    fn output_ranges_are_labelled() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul_const(2.0, x);
        b.output("twice", y);
        let g = b.build().unwrap();
        let out = g
            .output_ranges(&[iv(0.0, 3.0)], &RangeOptions::default())
            .unwrap();
        assert_eq!(out, vec![("twice".to_string(), iv(0.0, 6.0))]);
    }
}
