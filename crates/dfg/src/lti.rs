//! LTI (linear time-invariant) analysis: noise transfer gains.
//!
//! For a *linear* datapath (all multiplications have at least one
//! signal-independent operand; no signal-dependent divisors) the error
//! injected at any node propagates to each output through an LTI system.
//! Its impulse response `h[k]` gives the three gains SNA needs:
//!
//! * `l2²  = Σ h²` — scales the *variance* of a white noise source;
//! * `l1   = Σ|h|` — scales the worst-case *bounds* of a bounded source;
//! * `dc   = Σ h`  — scales the *mean* of a biased source (e.g. truncation).
//!
//! Gains are measured operationally: simulate the graph with zero inputs,
//! inject a unit impulse at the node, and record the outputs until the
//! response decays.  This works for feedback structures (IIR) without any
//! transfer-function algebra and is exact for linear graphs.
//!
//! Two implementations measure the same thing:
//!
//! * [`Dfg::impulse_response`] is the dense reference: per source, an
//!   injected [`Simulator`] runs in lockstep with a zero-input baseline
//!   simulator, and every node is evaluated on every step.
//! * [`Dfg::adjoint_gains`] is what gain models use.  It runs the
//!   transposed graph backwards from each output once: at lag `k` it holds
//!   every node's sensitivity μ_k of that output to a perturbation `k`
//!   steps earlier, and each node's gains are sums of its μ.  A pass ends
//!   when the carried state is exactly zero, or when `settle_steps` lags
//!   in a row leave every node's μ below `tolerance` times its own running
//!   ℓ1, so a node's first nonzero value always keeps it going.  Its gains
//!   are the reference's up to rounding and tail truncation.  It answers
//!   one node-major `nodes × outputs` matrix of [`OutputGain`]s, and each
//!   lag visits the argument-free nodes (inputs, constants) last among the
//!   combinational ones, so the carry into a FIR's input does not revisit
//!   its idle tap multipliers.
//!
//! The adjoint reads its partial derivatives from the zero-input run's
//! step-0 row, which must be finite.  That row holds for every step
//! unless some delay latches a nonzero value at step 0 (a constant
//! reaches it): then the nodes downstream of that delay *move*.  A partial
//! may read a moving node only on an edge into a node that no delay
//! reaches, because the reference perturbs such a node only at step 0
//! (rule R).  A FIR over `x + 0.25` obeys it: its moving taps are read
//! only by the partials into their constant coefficients.  A signal
//! scaled by a moving constant after a delay does not: that system is
//! time-varying.  Where the rule fails, or a pass does, the dense
//! reference answers every source.

use sna_interval::Interval;

use crate::range::{first_nonlinear_node, signal_dependent};
use crate::{Dfg, DfgError, NodeId, Op, Simulator};

/// Options for impulse-response gain extraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LtiOptions {
    /// Hard cap on simulated steps.
    pub max_steps: usize,
    /// The response is considered decayed when `Σ|h|` grows by less than
    /// `tolerance` relative for `settle_steps` consecutive steps.
    pub tolerance: f64,
    /// Consecutive quiet steps required to declare convergence.
    pub settle_steps: usize,
}

impl Default for LtiOptions {
    fn default() -> Self {
        LtiOptions {
            max_steps: 100_000,
            tolerance: 1e-12,
            settle_steps: 8,
        }
    }
}

/// Per-output gains of the error-transfer path from one injection node.
#[derive(Clone, Debug, PartialEq)]
pub struct ImpulseGains {
    /// The injection node.
    pub source: NodeId,
    /// Per declared output: `(l1, l2_squared, dc)`.
    pub per_output: Vec<OutputGain>,
}

/// Gains toward a single output.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct OutputGain {
    /// `Σ |h[k]|` — bound gain.
    pub l1: f64,
    /// `Σ h[k]²` — variance gain.
    pub l2_squared: f64,
    /// `Σ h[k]` — mean (DC) gain.
    pub dc: f64,
}

impl Dfg {
    /// Whether the datapath is linear in its signals (constant coefficient
    /// multiplies and divides only).
    pub fn is_linear(&self) -> bool {
        first_nonlinear_node(self).is_none()
    }

    /// Verifies linearity.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::NonlinearNode`] naming the first offending node.
    pub fn require_linear(&self) -> Result<(), DfgError> {
        match first_nonlinear_node(self) {
            None => Ok(()),
            Some(node) => Err(DfgError::NonlinearNode { node }),
        }
    }

    /// Measures the impulse-response gains from `source` to every output.
    ///
    /// # Errors
    ///
    /// * [`DfgError::NonlinearNode`] if the graph is not linear;
    /// * [`DfgError::UnknownNode`] for a foreign id;
    /// * [`DfgError::UnstableImpulse`] when the response does not decay
    ///   within `opts.max_steps` or its gains overflow (unstable
    ///   feedback);
    /// * simulation errors ([`DfgError::DivisionByZero`]) are propagated.
    pub fn impulse_gains(
        &self,
        source: NodeId,
        opts: &LtiOptions,
    ) -> Result<ImpulseGains, DfgError> {
        // One simulation core ([`Dfg::impulse_response`]) serves both
        // entry points, so the aggregates cannot drift apart.
        self.impulse_response(source, opts).map(|(g, _)| g)
    }

    /// Like [`Dfg::impulse_gains`], but also returns the raw per-output
    /// impulse-response *sequences* `h[k]` (one `Vec<f64>` per declared
    /// output, step-major truncated at the decay point).  The aggregate
    /// gains are accumulated by the identical code path, so they are
    /// bit-identical to [`Dfg::impulse_gains`]'s.
    ///
    /// Callers that keep the sequences (e.g. a gain model supporting
    /// incremental coefficient updates) can recombine them without
    /// re-simulating.
    ///
    /// This is the dense reference [`Dfg::adjoint_gains`] is checked
    /// against, and what answers the sources the adjoint cannot; callers
    /// that need many sources of one graph use the adjoint first, for
    /// less work.
    ///
    /// # Errors
    ///
    /// Same as [`Dfg::impulse_gains`].
    #[allow(clippy::type_complexity)]
    pub fn impulse_response(
        &self,
        source: NodeId,
        opts: &LtiOptions,
    ) -> Result<(ImpulseGains, Vec<Vec<f64>>), DfgError> {
        self.require_linear()?;
        self.check_node(source)?;
        let zeros = vec![0.0; self.n_inputs()];
        // Lockstep baseline: graphs with additive constants have a nonzero
        // zero-input response; the impulse response is the *difference*
        // between the injected run and the baseline run.
        let mut sim = Simulator::new(self);
        let mut baseline = Simulator::new(self);
        sim.inject(source, 1.0)?;
        let n_out = self.outputs().len();
        let mut gains = vec![OutputGain::default(); n_out];
        let mut seqs: Vec<Vec<f64>> = vec![Vec::new(); n_out];
        let mut quiet = 0usize;
        let feed_forward = self.feed_forward_delays();
        for step in 0..opts.max_steps {
            let out = sim.step(&zeros)?;
            let base = baseline.step(&zeros)?;
            let mut increment = 0.0;
            for (k, g) in gains.iter_mut().enumerate() {
                let h = out[k] - base[k];
                g.l1 += h.abs();
                g.l2_squared += h * h;
                g.dc += h;
                seqs[k].push(h);
                increment += h.abs();
            }
            let total: f64 = gains.iter().map(|g| g.l1).sum();
            if !total.is_finite() {
                // The response overflowed: it grows without bound.
                break;
            }
            let scale = total.max(1e-300);
            if increment / scale < opts.tolerance {
                quiet += 1;
                // Quiet outputs can hide an impulse still travelling down
                // a feed-forward delay line, so settling also needs those
                // states back on the baseline run's.
                if quiet >= opts.settle_steps {
                    let (a, b) = (sim.values(), baseline.values());
                    let drift: f64 = feed_forward
                        .iter()
                        .map(|d| (a[d.index()] - b[d.index()]).abs())
                        .sum();
                    if drift / scale < opts.tolerance {
                        return Ok((
                            ImpulseGains {
                                source,
                                per_output: gains,
                            },
                            seqs,
                        ));
                    }
                }
            } else {
                quiet = 0;
            }
            if self.is_combinational() && step == 0 {
                return Ok((
                    ImpulseGains {
                        source,
                        per_output: gains,
                    },
                    seqs,
                ));
            }
        }
        Err(DfgError::UnstableImpulse {
            node: source,
            steps: opts.max_steps,
        })
    }

    /// Impulse-response gains from every node at once: one adjoint
    /// (transposed) pass per output instead of one simulation per
    /// source.  `Ok(None)` where the dense reference answers instead: one
    /// [`Dfg::impulse_response`] per source.
    ///
    /// The gains come back as one node-major matrix: node `i`'s gain
    /// toward output `k` is entry `i * outputs + k`, so row `i` is the
    /// `per_output` of [`Dfg::impulse_response`] from node `i`.  Each
    /// pass writes its output's column in place.
    ///
    /// A pass runs the graph backwards from a unit seed on its output.
    /// At lag `k` it holds μ_k\[v\], the sensitivity of the output at the
    /// current step to a perturbation of node `v` `k` steps earlier; each
    /// delay carries its μ one lag back to its argument.  For a
    /// combinational source μ_k\[v\] is the impulse response's `h[k]`;
    /// an impulse at a delay lands one step later, so its response is
    /// the same sequence shifted by one lag.  Either way a node's ℓ1,
    /// ℓ2² and dc gains are sums of its μ over the lags.  Partial
    /// derivatives come from the zero-input run's step-0 row: a `Mul`'s
    /// partials are its operands' values there, crossed.
    ///
    /// That row must be finite, and a partial may read a node whose
    /// zero-input value moves (some delay upstream latches a nonzero
    /// value at step 0) only on an edge into a node that no delay
    /// reaches: the reference perturbs such a node only at step 0, when
    /// the row is exact.  Every other partial reads a value the
    /// zero-input run holds forever.  A graph that breaks this answers
    /// `None`, and so does a pass that runs into `opts.max_steps`: the
    /// dense reference then answers every source, and reports which one
    /// fails.  A pass whose gains overflow fails at once: some response
    /// grows without bound, as the dense reference would find too.
    ///
    /// A pass stops at the first of: the carried adjoint state is exactly
    /// zero; `opts.settle_steps` consecutive lags are not *loud*;
    /// `opts.max_steps` lags.  A lag is loud if some node's |μ_k\[v\]| is
    /// at least `opts.tolerance` times that node's running ℓ1 toward the
    /// output.  A node's first nonzero value is therefore always loud,
    /// and neither a run of zero taps nor a loop longer than
    /// `settle_steps` can end a pass early.
    ///
    /// The gains are [`Dfg::impulse_response`]'s up to rounding (sums of
    /// the same path products, associated differently) and up to where
    /// each method cuts a decaying tail.  A source for which a unit
    /// impulse is no small perturbation (a constant-only node that
    /// reaches a divisor, or both operands of a product in one step) is
    /// answered by [`Dfg::impulse_response`] instead; if that fails, so
    /// does the whole matrix (`None`).
    ///
    /// # Errors
    ///
    /// * [`DfgError::NonlinearNode`] if the graph is not linear;
    /// * [`DfgError::UnstableImpulse`] when a pass's gains overflow.
    ///
    /// # Example
    ///
    /// ```
    /// use sna_dfg::{DfgBuilder, LtiOptions};
    ///
    /// # fn main() -> Result<(), sna_dfg::DfgError> {
    /// // y = x + 0.5·x[n-3]
    /// let mut b = DfgBuilder::new();
    /// let x = b.input("x");
    /// let line = b.delay_chain(x, 3);
    /// let t = b.mul_const(0.5, line[2]);
    /// let y = b.add(x, t);
    /// b.output("y", y);
    /// let dfg = b.build()?;
    ///
    /// let opts = LtiOptions::default();
    /// let gains = dfg.adjoint_gains(&opts)?.expect("stationary baseline");
    /// let rows = gains.chunks_exact(dfg.outputs().len());
    /// for ((id, _), row) in dfg.nodes().zip(rows) {
    ///     let (dense, _) = dfg.impulse_response(id, &opts)?;
    ///     assert_eq!(row, dense.per_output);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn adjoint_gains(&self, opts: &LtiOptions) -> Result<Option<Vec<OutputGain>>, DfgError> {
        self.require_linear()?;
        let Some(adjoint) = Adjoint::new(self) else {
            return Ok(None);
        };
        let n_out = self.outputs.len();
        let mut gains = vec![OutputGain::default(); self.len() * n_out];
        let mut pass = Pass::new(self.len());
        for (k, (_, o)) in self.outputs.iter().enumerate() {
            if !pass.run(&adjoint, o.0, opts, &mut gains[k..], n_out)? {
                return Ok(None);
            }
        }
        for &s in &adjoint.curved {
            match self.impulse_response(s, opts) {
                Ok((g, _)) => gains[s.0 * n_out..][..n_out].copy_from_slice(&g.per_output),
                Err(_) => return Ok(None),
            }
        }
        Ok(Some(gains))
    }

    /// The delay nodes no feedback cycle feeds.  An impulse inside one of
    /// them is in transit and leaves within the line's length, while a
    /// state behind a loop may legitimately never return to the baseline
    /// (an integrator pinned by a range override), so only these states
    /// are worth waiting for.
    fn feed_forward_delays(&self) -> Vec<NodeId> {
        if self.delays.is_empty() {
            return Vec::new();
        }
        // Least fixpoint of "every argument is acyclic-fed": a node on a
        // cycle, or behind one, never gets there.  Like
        // [`Dfg::downstream_mask`], each extra sweep crosses a delay whose
        // argument has a larger id.
        let mut acyclic = vec![false; self.len()];
        loop {
            let mut changed = false;
            for (i, node) in self.nodes.iter().enumerate() {
                if !acyclic[i] && node.args.iter().all(|a| acyclic[a.0]) {
                    acyclic[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.delays
            .iter()
            .copied()
            .filter(|d| acyclic[d.0])
            .collect()
    }

    /// Per-node L1 impulse gains (`Σ|h|` at *every* node, not just the
    /// outputs) from one injection point.
    ///
    /// # Errors
    ///
    /// Same as [`Dfg::impulse_gains`].
    pub fn node_impulse_l1(&self, source: NodeId, opts: &LtiOptions) -> Result<Vec<f64>, DfgError> {
        self.require_linear()?;
        self.check_node(source)?;
        let zeros = vec![0.0; self.n_inputs()];
        let mut sim = Simulator::new(self);
        let mut baseline = Simulator::new(self);
        sim.inject(source, 1.0)?;
        let mut l1 = vec![0.0; self.len()];
        let mut quiet = 0usize;
        for _ in 0..opts.max_steps {
            sim.step(&zeros)?;
            baseline.step(&zeros)?;
            let mut increment = 0.0;
            for (acc, (&a, &b)) in l1
                .iter_mut()
                .zip(sim.values().iter().zip(baseline.values().iter()))
            {
                let h = (a - b).abs();
                *acc += h;
                increment += h;
            }
            let total: f64 = l1.iter().sum();
            if !total.is_finite() {
                break;
            }
            let scale = total.max(1e-300);
            if increment / scale < opts.tolerance {
                quiet += 1;
                if quiet >= opts.settle_steps {
                    return Ok(l1);
                }
            } else {
                quiet = 0;
            }
        }
        Err(DfgError::UnstableImpulse {
            node: source,
            steps: opts.max_steps,
        })
    }

    /// Per-node value ranges for *linear* sequential graphs via L1 impulse
    /// gains: sound and convergent even where the interval fixpoint
    /// diverges (e.g. high-order IIR filters with `Σ|aₖ| ≥ 1`).
    ///
    /// `range(n) = center(n) ± Σᵢ l1ᵢ(n)·rad(inputᵢ)` where `center` is the
    /// settled response to all inputs held at their midpoints.
    ///
    /// A node carrying a [range override](Dfg::range_override) reports
    /// the declared interval instead of its L1 bound (the override pins
    /// that node's reported range; other nodes keep their global
    /// impulse-based bounds).
    ///
    /// # Errors
    ///
    /// * [`DfgError::NonlinearNode`] for nonlinear graphs;
    /// * [`DfgError::WrongInputCount`] for mis-sized ranges;
    /// * [`DfgError::UnstableImpulse`] when a response fails to decay or a
    ///   bound overflows.
    pub fn ranges_lti(
        &self,
        input_ranges: &[Interval],
        opts: &LtiOptions,
    ) -> Result<Vec<Interval>, DfgError> {
        self.require_linear()?;
        if input_ranges.len() != self.n_inputs() {
            return Err(DfgError::WrongInputCount {
                expected: self.n_inputs(),
                got: input_ranges.len(),
            });
        }
        // Settled center response to midpoint inputs.
        let mids: Vec<f64> = input_ranges.iter().map(Interval::mid).collect();
        let mut sim = Simulator::new(self);
        let mut center = vec![0.0; self.len()];
        let mut quiet = 0usize;
        let mut settled = false;
        for _ in 0..opts.max_steps {
            sim.step(&mids)?;
            let mut delta = 0.0;
            let mut scale = 0.0;
            for (c, &v) in center.iter_mut().zip(sim.values().iter()) {
                delta += (v - *c).abs();
                scale += v.abs();
                *c = v;
            }
            if delta <= opts.tolerance * (1.0 + scale) {
                quiet += 1;
                if quiet >= opts.settle_steps {
                    settled = true;
                    break;
                }
            } else {
                quiet = 0;
            }
        }
        if !settled {
            return Err(DfgError::UnstableImpulse {
                node: NodeId(0),
                steps: opts.max_steps,
            });
        }
        // Radii from per-input L1 gains.
        let mut rad = vec![0.0; self.len()];
        for (id, node) in self.nodes() {
            if let crate::Op::Input(i) = node.op() {
                let r = input_ranges[i].rad();
                if r == 0.0 {
                    continue;
                }
                let l1 = self.node_impulse_l1(id, opts)?;
                for (acc, g) in rad.iter_mut().zip(l1.iter()) {
                    *acc += r * g;
                }
            }
        }
        center
            .iter()
            .zip(rad.iter())
            .enumerate()
            .map(|(i, (&c, &r))| match self.range_override(NodeId(i)) {
                Some(range) => Ok(range),
                // A bound past f64: the loop's gain is unbounded in practice.
                None => Interval::new(c - r, c + r).map_err(|_| DfgError::UnstableImpulse {
                    node: NodeId(i),
                    steps: opts.max_steps,
                }),
            })
            .collect()
    }

    /// Range analysis that works on any graph this crate supports: the
    /// interval fixpoint where it converges, the LTI L1 bound as a fallback
    /// for linear graphs whose fixpoint diverges.
    ///
    /// The fixpoint stops early where its divergence is proven
    /// ([`Dfg::ranges_interval_certified`]), so a stable high-order
    /// recurrence reaches the fallback without running into overflow.
    ///
    /// # Errors
    ///
    /// Failures of the fallback are propagated; nonlinear graphs whose
    /// interval fixpoint diverges are reported as divergent.
    pub fn ranges_auto(
        &self,
        input_ranges: &[Interval],
        ropts: &crate::RangeOptions,
        lopts: &LtiOptions,
    ) -> Result<Vec<Interval>, DfgError> {
        match self.ranges_interval_certified(input_ranges, ropts) {
            Ok(r) => Ok(r),
            Err(DfgError::RangeDivergence { .. }) if self.is_linear() => {
                self.ranges_lti(input_ranges, lopts)
            }
            Err(e) => Err(e),
        }
    }
}

/// Per-node lists in one buffer, each in the order its edges were given.
#[derive(Debug)]
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    fn new(n: usize, edges: &[(usize, T)]) -> Csr<T> {
        let mut start = vec![0u32; n + 1];
        for &(from, _) in edges {
            start[from + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut items = vec![T::default(); edges.len()];
        for &(from, item) in edges {
            items[fill[from] as usize] = item;
            fill[from] += 1;
        }
        Csr { start, items }
    }

    fn of(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// One operation as [`Simulator::step`] evaluates it, on zero inputs.
fn eval(op: Op, a: f64, b: f64, id: usize) -> Result<f64, DfgError> {
    Ok(match op {
        Op::Input(_) => 0.0,
        Op::Const(c) => c,
        Op::Add => a + b,
        Op::Sub => a - b,
        Op::Mul => a * b,
        Op::Div => {
            if b == 0.0 {
                return Err(DfgError::DivisionByZero { node: NodeId(id) });
            }
            a / b
        }
        Op::Neg => -a,
        Op::Delay => unreachable!("delays are excluded from the topo order"),
    })
}

/// One edge of the transposed graph: how μ flows from a combinational
/// consumer back to one of its arguments.
#[derive(Clone, Copy, Debug, Default)]
struct Edge {
    user: u32,
    /// The partial derivative, or the divisor when `divide` is set (a
    /// quotient's numerator, divided as the forward step divides).
    factor: f64,
    divide: bool,
}

/// The graph transposed around its zero-input baseline, for
/// [`Dfg::adjoint_gains`].  Edges whose partial derivative is zero (a
/// product's coefficient, when the signal it scales is zero on the
/// baseline) carry nothing and are left out.
#[derive(Debug)]
struct Adjoint {
    /// The nodes a pass visits each lag: combinational ones after all
    /// their consumers, argument-free ones (inputs, constants) last among
    /// them, then the delays in id order.  A node no edge, output or
    /// delay reaches stays at zero and is left out.
    ///
    /// Putting the leaves last is what keeps later lags short: a delay
    /// that carries μ into an input starts the next sweep at that input,
    /// just before the delays, instead of wherever the input falls in the
    /// topological order (a FIR's input would otherwise sit before its
    /// tap multipliers, which every lag would revisit at zero).  Any
    /// order in which each node follows its consumers gives the same
    /// bits: a node's μ sums its consumers' in CSR order.
    order: Vec<u32>,
    /// Each node's index in `order`.
    rank: Vec<u32>,
    /// Per node: the combinational consumers μ flows in from, in id order.
    users: Csr<Edge>,
    /// The delays, and the argument each one latches.
    delays: Vec<u32>,
    latched: Vec<u32>,
    /// Sources [`Dfg::impulse_response`] answers: constant-only nodes
    /// for which a unit impulse is no small perturbation.  The passes'
    /// values in their rows are overwritten.
    curved: Vec<NodeId>,
}

impl Adjoint {
    /// `None` unless the zero-input run's step-0 row is finite and every
    /// partial obeys rule R (see the module doc).
    fn new(dfg: &Dfg) -> Option<Adjoint> {
        let n = dfg.len();
        let mut base = vec![0.0; n];
        for &id in &dfg.topo {
            let node = &dfg.nodes[id.0];
            let arg = |slot: usize| node.args.get(slot).map_or(0.0, |a| base[a.0]);
            let v = eval(node.op, arg(0), arg(1), id.0).ok()?;
            base[id.0] = v + 0.0;
        }
        if base.iter().any(|v| !v.is_finite()) {
            return None;
        }
        // Step 1 reads each delay's argument from step 0, latched as the
        // simulator latches it: a delay that latches anything but +0.0
        // moves, and so does everything downstream of it.  On a stationary
        // run both masks stay empty.
        let latched: Vec<u32> = dfg
            .delays
            .iter()
            .map(|d| dfg.nodes[d.0].args[0].0 as u32)
            .collect();
        let movers: Vec<NodeId> = dfg
            .delays
            .iter()
            .zip(&latched)
            .filter(|&(_, &a)| (base[a as usize] + 0.0).to_bits() != 0)
            .map(|(&d, _)| d)
            .collect();
        let (moving, delayed) = if movers.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            (
                dfg.downstream_mask(&movers),
                dfg.downstream_mask(&dfg.delays),
            )
        };
        let mut reached = vec![false; n];
        for &a in &latched {
            reached[a as usize] = true;
        }
        for (_, o) in &dfg.outputs {
            reached[o.0] = true;
        }
        let mut user_edges = Vec::new();
        for (i, node) in dfg.nodes.iter().enumerate() {
            let [a, b] = [0, 1].map(|slot| node.args.get(slot).map_or(0.0, |x| base[x.0]));
            let partials = match node.op {
                Op::Delay => continue,
                Op::Sub => [(1.0, false), (-1.0, false)],
                Op::Mul => [(b, false), (a, false)],
                // Every source that reaches a divisor is curved: nothing
                // flows back into it.
                Op::Div => [(b, true), (0.0, false)],
                Op::Neg => [(-1.0, false); 2],
                _ => [(1.0, false); 2],
            };
            // The operand a partial reads, if it reads one.
            let reads = |slot: usize| match node.op {
                Op::Mul => Some(node.args[1 - slot]),
                Op::Div if slot == 0 => Some(node.args[1]),
                _ => None,
            };
            for (slot, (&x, (factor, divide))) in node.args.iter().zip(partials).enumerate() {
                if !delayed.is_empty() && delayed[x.0] && reads(slot).is_some_and(|r| moving[r.0]) {
                    return None;
                }
                if factor != 0.0 {
                    reached[x.0] = true;
                    let user = i as u32;
                    user_edges.push((
                        x.0,
                        Edge {
                            user,
                            factor,
                            divide,
                        },
                    ));
                }
            }
        }
        let users = Csr::new(n, &user_edges);
        let curved = Self::curved(dfg, &base);
        let leaf = |id: &&NodeId| dfg.nodes[id.0].args.is_empty();
        let order: Vec<u32> = dfg
            .topo
            .iter()
            .rev()
            .filter(|id| !leaf(id))
            .chain(dfg.topo.iter().rev().filter(leaf))
            .chain(&dfg.delays)
            .filter(|id| reached[id.0])
            .map(|id| id.0 as u32)
            .collect();
        let mut rank = vec![u32::MAX; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Some(Adjoint {
            order,
            rank,
            users,
            delays: dfg.delays.iter().map(|d| d.0 as u32).collect(),
            latched,
            curved,
        })
    }

    /// The sources whose forward response may be nonlinear in the unit
    /// impulse.  Only a node no input reaches can meet a divisor or both
    /// operands of a product, so every signal-dependent source is exact
    /// up to rounding.  So is a constant whose consumers are all
    /// signal-dependent products or sums, if it has one consumer or the
    /// signals' baseline is zero (its impulse then dies at the product).
    /// Everything else constant-only goes to the dense reference.
    fn curved(dfg: &Dfg, base: &[f64]) -> Vec<NodeId> {
        let dep = signal_dependent(dfg);
        let zero_signals = dep.iter().zip(base).all(|(&d, &v)| !d || v == 0.0);
        let mut consumers = vec![0usize; dfg.len()];
        let mut fit = vec![true; dfg.len()];
        for (u, node) in dfg.nodes.iter().enumerate() {
            for a in node.args.iter() {
                consumers[a.0] += 1;
                fit[a.0] &= dep[u] && !matches!(node.op, Op::Div | Op::Delay);
            }
        }
        (0..dfg.len())
            .filter(|&i| {
                let straight = matches!(dfg.nodes[i].op, Op::Const(_))
                    && fit[i]
                    && (consumers[i] <= 1 || zero_signals);
                !dep[i] && !straight
            })
            .map(NodeId)
            .collect()
    }
}

/// Buffers of the adjoint passes, reused across outputs.
struct Pass {
    /// Each node's μ in the current lag.
    mu: Vec<f64>,
    /// The μ each node starts the current lag with: the unit seed on the
    /// output at lag 0, then what the delays carry back.
    seed: Vec<f64>,
}

impl Pass {
    fn new(n: usize) -> Pass {
        Pass {
            mu: vec![0.0; n],
            seed: vec![0.0; n],
        }
    }

    /// One pass backwards from `output`; accumulates node `i`'s gains
    /// toward it into `gains[i * stride]`, which must start at zero.
    /// `false` when the pass ran out of lags; an `UnstableImpulse` error
    /// from the first node whose gains overflowed.
    ///
    /// Each lag sweeps `order` from the first seeded node on: everything
    /// before it has no seed and only consumers before it, so its μ is
    /// zero (a FIR's adder tree is idle after lag 0).
    fn run(
        &mut self,
        adj: &Adjoint,
        output: usize,
        opts: &LtiOptions,
        gains: &mut [OutputGain],
        stride: usize,
    ) -> Result<bool, DfgError> {
        let Pass { mu, seed } = self;
        mu.fill(0.0);
        seed.fill(0.0);
        seed[output] = 1.0;
        let mut start = adj.rank[output] as usize;
        let mut quiet = 0;
        for _ in 0..opts.max_steps {
            let mut loud = false;
            let mut finite = true;
            for &v in &adj.order[start..] {
                let i = v as usize;
                let mut m = seed[i];
                for e in adj.users.of(i) {
                    let x = mu[e.user as usize];
                    m += if e.divide { x / e.factor } else { x * e.factor };
                }
                mu[i] = m;
                if m != 0.0 {
                    let g = &mut gains[i * stride];
                    g.l1 += m.abs();
                    g.l2_squared += m * m;
                    g.dc += m;
                    finite &= (g.l1 + g.l2_squared).is_finite();
                    loud |= m.abs() >= opts.tolerance * g.l1;
                }
            }
            if !finite {
                let overflowed = adj.order[start..].iter().map(|&v| v as usize).find(|&i| {
                    let g = &gains[i * stride];
                    !(g.l1 + g.l2_squared).is_finite()
                });
                return Err(DfgError::UnstableImpulse {
                    node: NodeId(overflowed.unwrap_or(output)),
                    steps: opts.max_steps,
                });
            }
            seed[output] = 0.0;
            for &a in &adj.latched {
                seed[a as usize] = 0.0;
            }
            let mut next = adj.order.len();
            for (&d, &a) in adj.delays.iter().zip(&adj.latched) {
                let m = mu[d as usize];
                if m != 0.0 {
                    seed[a as usize] += m;
                    next = next.min(adj.rank[a as usize] as usize);
                }
            }
            if next == adj.order.len() {
                return Ok(true);
            }
            // The nodes the next sweep skips must read as zero.
            if next > start {
                for &v in &adj.order[start..next] {
                    mu[v as usize] = 0.0;
                }
            }
            start = next;
            quiet = if loud { 0 } else { quiet + 1 };
            if quiet >= opts.settle_steps {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;

    #[test]
    fn combinational_gain_is_path_gain() {
        // y = 3x + x = 4x; injecting at the "3x" node contributes 1.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(3.0, x);
        let y = b.add(t, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let gains = g.impulse_gains(t, &LtiOptions::default()).unwrap();
        assert_eq!(gains.per_output.len(), 1);
        let og = gains.per_output[0];
        assert!((og.l1 - 1.0).abs() < 1e-12);
        assert!((og.l2_squared - 1.0).abs() < 1e-12);
        assert!((og.dc - 1.0).abs() < 1e-12);
        // Injecting at the input sees the full gain 4.
        let gains = g.impulse_gains(x, &LtiOptions::default()).unwrap();
        assert!((gains.per_output[0].l1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn one_pole_iir_gains_match_geometric_series() {
        // y[n] = a·y[n-1] + x[n] with a = 0.5:
        // h = [1, a, a², …]; l1 = 1/(1-a) = 2; l2² = 1/(1-a²) = 4/3; dc = 2.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let gains = g.impulse_gains(y, &LtiOptions::default()).unwrap();
        let og = gains.per_output[0];
        assert!((og.l1 - 2.0).abs() < 1e-9, "l1 = {}", og.l1);
        assert!((og.l2_squared - 4.0 / 3.0).abs() < 1e-9);
        assert!((og.dc - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alternating_pole_has_smaller_dc_than_l1() {
        // a = -0.5: dc = 1/(1+0.5) = 2/3, l1 = 2, l2² = 4/3.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(-0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let og = g
            .impulse_gains(y, &LtiOptions::default())
            .unwrap()
            .per_output[0];
        assert!((og.dc - 2.0 / 3.0).abs() < 1e-9);
        assert!((og.l1 - 2.0).abs() < 1e-9);
        assert!((og.l2_squared - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unstable_loop_is_detected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(1.01, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let opts = LtiOptions {
            max_steps: 2_000,
            ..LtiOptions::default()
        };
        assert!(matches!(
            g.impulse_gains(y, &opts),
            Err(DfgError::UnstableImpulse { .. })
        ));
    }

    #[test]
    fn a_response_that_overflows_is_unstable_not_infinite() {
        // y = 0.5·x + 1.2·y[n-1]: the response passes f64::MAX after
        // ~3900 steps, and an infinite running sum must not read as quiet.
        for pinned in [false, true] {
            let mut b = DfgBuilder::new();
            let x = b.input("x");
            let fb = b.delay_placeholder();
            let t = b.mul_const(1.2, fb);
            let h = b.mul_const(0.5, x);
            let y = b.add(h, t);
            b.bind_delay(fb, y).unwrap();
            b.output("y", y);
            if pinned {
                b.override_range(y, Interval::new(-8.0, 8.0).unwrap())
                    .unwrap();
            }
            let g = b.build().unwrap();
            let opts = LtiOptions::default();
            let unstable = |r: Result<(), DfgError>| {
                assert!(
                    matches!(r, Err(DfgError::UnstableImpulse { .. })),
                    "pinned {pinned}: {r:?}"
                );
            };
            unstable(g.impulse_response(x, &opts).map(drop));
            unstable(g.node_impulse_l1(x, &opts).map(drop));
            unstable(g.adjoint_gains(&opts).map(drop));
            unstable(g.ranges_lti(&[Interval::UNIT], &opts).map(drop));
        }
    }

    #[test]
    fn nonlinear_graphs_are_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let sq = b.mul(x, x);
        b.output("y", sq);
        let g = b.build().unwrap();
        assert!(!g.is_linear());
        assert!(matches!(
            g.impulse_gains(x, &LtiOptions::default()),
            Err(DfgError::NonlinearNode { .. })
        ));
    }

    #[test]
    fn lti_ranges_match_interval_ranges_when_both_converge() {
        // y = x + 0.5·y[n-1]: both analyses give y ∈ ±2·|x|max.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let input = [Interval::new(-1.0, 1.0).unwrap()];
        let lti = g.ranges_lti(&input, &LtiOptions::default()).unwrap();
        let fix = g
            .ranges_interval(&input, &crate::RangeOptions::default())
            .unwrap();
        let (_, yid) = g.outputs()[0].clone();
        assert!((lti[yid.index()].lo() - fix[yid.index()].lo()).abs() < 1e-6);
        assert!((lti[yid.index()].hi() - fix[yid.index()].hi()).abs() < 1e-6);
    }

    #[test]
    fn lti_ranges_handle_fixpoint_divergent_but_stable_feedback() {
        // y = x + 1.2·y[n-1] − 0.5·y[n-2]: poles at ~0.6±0.37i (stable),
        // but Σ|aₖ| = 1.7 > 1 makes the interval fixpoint diverge.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d1 = b.delay_placeholder();
        let d2 = b.delay(d1);
        let t1 = b.mul_const(1.2, d1);
        let t2 = b.mul_const(-0.5, d2);
        let s = b.add(t1, t2);
        let y = b.add(x, s);
        b.bind_delay(d1, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let input = [Interval::new(-1.0, 1.0).unwrap()];
        assert!(matches!(
            g.ranges_interval(&input, &crate::RangeOptions::default()),
            Err(DfgError::RangeDivergence { .. })
        ));
        let auto = g
            .ranges_auto(
                &input,
                &crate::RangeOptions::default(),
                &LtiOptions::default(),
            )
            .unwrap();
        let (_, yid) = g.outputs()[0].clone();
        let out = auto[yid.index()];
        // Sound: must cover the actual simulated worst case.
        let mut sim = crate::Simulator::new(&g);
        let mut worst: f64 = 0.0;
        // Worst-case square-wave-ish excitation.
        for k in 0..500 {
            let v = if (k / 4) % 2 == 0 { 1.0 } else { -1.0 };
            let o = sim.step(&[v]).unwrap()[0];
            worst = worst.max(o.abs());
        }
        assert!(
            out.hi() >= worst && out.lo() <= -worst,
            "range {out} vs ±{worst}"
        );
        // Centered input ⇒ roughly symmetric range.
        assert!((out.hi() + out.lo()).abs() < 1e-6 * out.hi().abs());
    }

    #[test]
    fn centered_response_shifts_lti_ranges() {
        // y = x + 2 with x ∈ [0, 1]: center 2.5 ± 0.5.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.constant(2.0);
        let y = b.add(x, c);
        b.output("y", y);
        let g = b.build().unwrap();
        let input = [Interval::new(0.0, 1.0).unwrap()];
        let r = g.ranges_lti(&input, &LtiOptions::default()).unwrap();
        let (_, yid) = g.outputs()[0].clone();
        assert!((r[yid.index()].lo() - 2.0).abs() < 1e-9);
        assert!((r[yid.index()].hi() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fir_l2_gain_is_coefficient_energy() {
        // y = 0.5 x + 0.25 x[n-1]: from input, l2² = 0.5² + 0.25².
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let xd = b.delay(x);
        let t0 = b.mul_const(0.5, x);
        let t1 = b.mul_const(0.25, xd);
        let y = b.add(t0, t1);
        b.output("y", y);
        let g = b.build().unwrap();
        let og = g
            .impulse_gains(x, &LtiOptions::default())
            .unwrap()
            .per_output[0];
        assert!((og.l2_squared - (0.25 + 0.0625)).abs() < 1e-12);
        assert!((og.l1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn impulse_is_followed_across_a_gap_in_the_taps() {
        // y = 0.25·x[n-2] + 0.5·x[n-12]: between the taps the impulse
        // spends nine steps inside the delay line, invisible at y.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let line = b.delay_chain(x, 12);
        let t2 = b.mul_const(0.25, line[1]);
        let t12 = b.mul_const(0.5, line[11]);
        let y = b.add(t2, t12);
        b.output("y", y);
        let g = b.build().unwrap();
        let opts = LtiOptions::default();
        let (gains, seqs) = g.impulse_response(x, &opts).unwrap();
        assert_eq!(gains.per_output[0].l1, 0.75);
        // Like a gap-free FIR, it settles `settle_steps` after the last tap.
        assert_eq!(seqs[0].len(), 12 + 1 + opts.settle_steps);
    }

    #[test]
    fn unobserved_state_does_not_hold_up_settling() {
        // s = s[n-1] + x integrates forever, but no output reads it.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let s = b.add(x, fb);
        b.bind_delay(fb, s).unwrap();
        let y = b.mul_const(0.5, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let gains = g.impulse_gains(x, &LtiOptions::default()).unwrap();
        assert_eq!(gains.per_output[0].l1, 0.5);
    }

    #[test]
    fn held_integrator_state_does_not_hold_up_settling() {
        // Moving sum y = s − s[n-4] of the running sum s = x + s[n-1]:
        // after the impulse s (and every delay behind it) holds 1 forever,
        // while y is quiet after four steps.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let s = b.add(x, fb);
        b.bind_delay(fb, s).unwrap();
        let comb = b.delay_chain(s, 4);
        let y = b.sub(s, comb[3]);
        b.output("y", y);
        let g = b.build().unwrap();
        let opts = LtiOptions::default();
        let (gains, seqs) = g.impulse_response(x, &opts).unwrap();
        assert_eq!(gains.per_output[0].l1, 4.0);
        assert_eq!(seqs[0].len(), 4 + opts.settle_steps);
        // Four lags back from y, the comb's −1 and the integrator's +1
        // cancel on `s`, so the adjoint pass carries nothing further.
        let adjoint = g.adjoint_gains(&opts).unwrap().unwrap();
        // One output: the matrix has one gain per node.
        assert_eq!(adjoint[x.index()], gains.per_output[0]);
    }

    #[test]
    fn the_adjoint_visits_inputs_after_every_operator_and_before_the_delays() {
        // y = 0.5·x + 0.25·x[n-2]: the carry down the delay line reaches
        // x once per lag, and the sweep that starts there must not
        // revisit the multipliers.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let line = b.delay_chain(x, 2);
        let t0 = b.mul_const(0.5, x);
        let t2 = b.mul_const(0.25, line[1]);
        let y = b.add(t0, t2);
        b.output("y", y);
        let g = b.build().unwrap();
        let adj = Adjoint::new(&g).unwrap();
        let rank = |id: NodeId| adj.rank[id.0];
        for op in [t0, t2, y] {
            assert!(rank(op) < rank(x), "{op} after the input");
        }
        for d in line {
            assert!(rank(x) < rank(d), "{d} before the input");
        }
    }

    #[test]
    fn a_divisor_s_constants_take_the_forward_response() {
        // q = (x + 0.5) / (a + b): a unit impulse at `a` or `b` is no small
        // change of the divisor (0.5/3 − 0.5/2, not −0.5/2²), so those two
        // sources keep the dense reference's answer bit for bit.
        let mut bld = DfgBuilder::new();
        let x = bld.input("x");
        let half = bld.constant(0.5);
        let num = bld.add(x, half);
        let (a, b) = (bld.constant(1.5), bld.constant(0.5));
        let d = bld.add(a, b);
        let q = bld.div(num, d);
        bld.output("q", q);
        let g = bld.build().unwrap();
        let opts = LtiOptions::default();
        // One output: the matrix has one gain per node.
        let gains = g.adjoint_gains(&opts).unwrap().unwrap();
        for id in [a, b, d] {
            assert_eq!(
                gains[id.index()],
                g.impulse_gains(id, &opts).unwrap().per_output[0]
            );
        }
        assert_eq!(gains[a.index()].dc, 0.5 / 3.0 - 0.5 / 2.0);
        for id in [x, half, num] {
            assert_eq!(gains[id.index()].l1, 0.5);
        }
        assert_eq!(gains[q.index()].l1, 1.0);
    }
}
