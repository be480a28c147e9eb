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

use sna_interval::Interval;

use crate::range::first_nonlinear_node;
use crate::{Dfg, DfgError, NodeId, Simulator};

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
    ///   within `opts.max_steps` (unstable feedback);
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
            let scale: f64 = gains.iter().map(|g| g.l1).sum::<f64>().max(1e-300);
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

    /// Impulse gains from every arithmetic node (the usual noise-injection
    /// set: every rounding site), in node-id order.
    ///
    /// # Errors
    ///
    /// Same as [`Dfg::impulse_gains`].
    pub fn all_impulse_gains(&self, opts: &LtiOptions) -> Result<Vec<ImpulseGains>, DfgError> {
        self.nodes()
            .filter(|(_, n)| n.op().is_arithmetic() || matches!(n.op(), crate::Op::Input(_)))
            .map(|(id, _)| self.impulse_gains(id, opts))
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
            let scale: f64 = l1.iter().sum::<f64>().max(1e-300);
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
    /// * [`DfgError::UnstableImpulse`] when a response fails to decay.
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
        Ok(center
            .iter()
            .zip(rad.iter())
            .enumerate()
            .map(|(i, (&c, &r))| {
                self.range_override(NodeId(i))
                    .unwrap_or_else(|| Interval::centered(c, r))
            })
            .collect())
    }

    /// Range analysis that works on any graph this crate supports: the
    /// interval fixpoint where it converges, the LTI L1 bound as a fallback
    /// for linear graphs whose fixpoint diverges.
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
        match self.ranges_interval(input_ranges, ropts) {
            Ok(r) => Ok(r),
            Err(DfgError::RangeDivergence { .. }) if self.is_linear() => {
                self.ranges_lti(input_ranges, lopts)
            }
            Err(e) => Err(e),
        }
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
    fn all_gains_cover_arithmetic_and_inputs() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(0.25, x);
        let y = b.add(t, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let all = g.all_impulse_gains(&LtiOptions::default()).unwrap();
        // x (input), mul, add — the constant is excluded.
        assert_eq!(all.len(), 3);
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
    }
}
