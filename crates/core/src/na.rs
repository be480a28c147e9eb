//! The classical Noise Analysis (NA) baseline and the fast moment model
//! used inside optimization loops.
//!
//! NA treats every rounding site as an independent wide-sense-stationary
//! noise source with a uniform PDF and propagates only *moments* through
//! precomputed LTI gains (Section 3, first category).  The gains depend
//! only on the datapath's constant coefficients — not on word lengths — so
//! [`NaModel::build`] measures them once for every source and
//! [`NaModel::evaluate`] is `O(#sources)` per word-length configuration.
//! The build runs one adjoint pass per output ([`Dfg::adjoint_gains`])
//! when the zero-input run is stationary and finite (no constant reaches
//! a delay), and one shared forward impulse analysis ([`ImpulseAnalysis`])
//! otherwise.
//! That asymmetry is what makes noise-constrained word-length search
//! practical.
//!
//! Two effects beyond textbook NA are modelled, both of which bit-true
//! simulation exhibits:
//!
//! * **linear constant offsets** — a rounded additive constant shifts the
//!   output deterministically through its DC gain;
//! * **coefficient rounding** — a rounded multiplier coefficient `c+ec`
//!   produces the *signal-dependent* error `ec·x` at the multiplier (and
//!   analogously for constant divisors), modelled as a bounded source with
//!   mean `ec·mid(x)` and half-width `|ec|·rad(x)` injected at the
//!   multiplier's site.

use sna_dfg::{
    Dfg, ImpulseAnalysis, ImpulseGains, LtiOptions, NodeId, Op, OutputGain, RangeOptions,
};
use sna_fixp::WlConfig;
use sna_interval::Interval;

use crate::sources::{IntroducesNoise, NoiseSource};
use crate::{NoiseReport, SnaError};

/// How a rounded constant perturbs a consumer site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoeffKind {
    /// `(c+ec)·x − c·x = ec·x` at a multiplier.
    MulFactor,
    /// `x/(c+ec) − x/c = x·(1/(c+ec) − 1/c)` at a divider.
    DivDenominator,
}

/// A site where a rounded constant interacts bilinearly with a signal.
///
/// Exposed so incremental evaluators can recompute exactly the pseudo
/// source affected by one constant's word-length change instead of
/// re-collecting every source.
#[derive(Clone, Copy, Debug)]
pub struct CoeffSite {
    const_node: NodeId,
    constant: f64,
    /// The multiplier/divider whose gains the error propagates through.
    site: NodeId,
    kind: CoeffKind,
    /// Uniform-signal model of the other operand: midpoint and radius.
    other_mid: f64,
    other_rad: f64,
}

impl CoeffSite {
    /// The constant node whose rounding drives this pseudo source.
    pub fn const_node(&self) -> NodeId {
        self.const_node
    }

    /// The multiplier/divider through whose gains the error propagates.
    pub fn site(&self) -> NodeId {
        self.site
    }

    /// The effective coefficient perturbation under quantizer `q`:
    /// `ec` for a multiplier factor, `1/(c+ec) − 1/c` for a divisor.
    pub fn delta(&self, q: &sna_fixp::Quantizer) -> f64 {
        match self.kind {
            CoeffKind::MulFactor => q.quantize(self.constant) - self.constant,
            CoeffKind::DivDenominator => {
                let rounded = q.quantize(self.constant);
                if rounded == 0.0 || self.constant == 0.0 {
                    0.0
                } else {
                    1.0 / rounded - 1.0 / self.constant
                }
            }
        }
    }

    /// The pseudo source injected at [`CoeffSite::site`] for perturbation
    /// `delta`: mean `delta·mid(x)`, half-width `|delta|·rad(x)`.
    pub fn source_for_delta(&self, delta: f64) -> NoiseSource {
        NoiseSource {
            node: self.site,
            offset: delta * self.other_mid,
            half_width: delta.abs() * self.other_rad,
        }
    }
}

/// Precomputed noise-transfer gains from every node of a linear
/// datapath, plus the coefficient-site inventory.
///
/// Where the zero-input run is *stationary and finite* — its node values
/// after step 1 equal those after step 0 bit for bit and are finite, as
/// in every graph where no constant reaches a delay — the gains come from
/// [`Dfg::adjoint_gains`]: one backwards pass per output yields every
/// source's response at once.  A pass stops when its carried state is
/// exactly zero, or after `settle_steps` lags in which no node's
/// sensitivity reaches `tolerance` times its own running ℓ1 (so runs of
/// zero taps and loops longer than `settle_steps` are followed to the
/// end), or at `max_steps`.  The gains then equal one dense
/// [`Dfg::impulse_response`] per source up to rounding and tail
/// truncation (within 1e-12 relative on every shipped example).
///
/// Any other baseline, and any pass that fails, goes through one
/// [`ImpulseAnalysis`]: bit for bit the dense reference, errors included,
/// so an unstable or non-finite design reports the same error either way.
/// The dense reference stays the oracle the tests compare against.  Only
/// the aggregates are kept.
#[derive(Clone, Debug)]
pub struct NaModel {
    /// `gains[i]` = impulse gains from node `i` (every node is a
    /// potential source).
    gains: Vec<ImpulseGains>,
    output_names: Vec<String>,
    coeff_sites: Vec<CoeffSite>,
}

impl NaModel {
    /// Runs the one-off analyses: impulse gains from every potential
    /// source, signal ranges for the coefficient-site inventory.
    ///
    /// # Errors
    ///
    /// * [`SnaError::Dfg`] wrapping `NonlinearNode` for nonlinear graphs,
    ///   `UnstableImpulse` for unstable feedback, or range failures.
    pub fn build(
        dfg: &Dfg,
        input_ranges: &[Interval],
        opts: &LtiOptions,
    ) -> Result<Self, SnaError> {
        dfg.require_linear()?;
        let ranges = dfg.ranges_auto(input_ranges, &RangeOptions::default(), opts)?;
        Self::build_with_ranges(dfg, &ranges, opts)
    }

    /// [`NaModel::build`] over precomputed per-node ranges — the path for
    /// callers (a [`crate::Session`], an optimizer) that already ran range
    /// analysis and must not pay for (or drift from) a second run.  With
    /// `node_ranges` equal to `ranges_auto`'s output this is bit-identical
    /// to [`NaModel::build`].
    ///
    /// # Errors
    ///
    /// Same as [`NaModel::build`], minus the range-analysis failures.
    pub fn build_with_ranges(
        dfg: &Dfg,
        node_ranges: &[Interval],
        opts: &LtiOptions,
    ) -> Result<Self, SnaError> {
        let gains = match dfg.adjoint_gains(opts)? {
            Some(gains) => gains,
            None => {
                let mut analysis = ImpulseAnalysis::new(dfg, opts)?;
                dfg.nodes()
                    .map(|(id, _)| analysis.response(id).map(|(g, _)| g))
                    .collect::<Result<_, _>>()?
            }
        };
        Ok(NaModel {
            gains,
            output_names: dfg.outputs().iter().map(|(n, _)| n.clone()).collect(),
            coeff_sites: Self::collect_coeff_sites(dfg, node_ranges),
        })
    }

    /// Inventory of constant-coefficient interaction sites.
    fn collect_coeff_sites(dfg: &Dfg, ranges: &[Interval]) -> Vec<CoeffSite> {
        let mut coeff_sites = Vec::new();
        for (site, node) in dfg.nodes() {
            match node.op() {
                Op::Mul => {
                    for (slot, &arg) in node.args().iter().enumerate() {
                        if let Op::Const(c) = dfg.node(arg).op() {
                            let other = node.args()[1 - slot];
                            let r = ranges[other.index()];
                            coeff_sites.push(CoeffSite {
                                const_node: arg,
                                constant: c,
                                site,
                                kind: CoeffKind::MulFactor,
                                other_mid: r.mid(),
                                other_rad: r.rad(),
                            });
                        }
                    }
                }
                Op::Div => {
                    if let Op::Const(c) = dfg.node(node.args()[1]).op() {
                        let num = node.args()[0];
                        let r = ranges[num.index()];
                        coeff_sites.push(CoeffSite {
                            const_node: node.args()[1],
                            constant: c,
                            site,
                            kind: CoeffKind::DivDenominator,
                            other_mid: r.mid(),
                            other_rad: r.rad(),
                        });
                    }
                }
                _ => {}
            }
        }
        coeff_sites
    }

    /// Names of the outputs the gains refer to.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Number of outputs the per-node gains refer to.
    pub fn n_outputs(&self) -> usize {
        self.output_names.len()
    }

    /// The gains from one node; `None` for a node outside the graph.
    pub fn gains_from(&self, node: NodeId) -> Option<&ImpulseGains> {
        self.gains.get(node.index())
    }

    /// The constant-coefficient interaction sites, in inventory order —
    /// the per-node terms incremental evaluators key their updates on.
    pub fn coeff_sites(&self) -> &[CoeffSite] {
        &self.coeff_sites
    }

    /// All *random* bounded sources under `config`, each attached to the
    /// node whose gains it propagates through: the precision-losing
    /// quantization sites plus the coefficient pseudo-sources.
    pub fn shaped_sources(&self, dfg: &Dfg, config: &WlConfig) -> Vec<NoiseSource> {
        let mut out = Vec::new();
        for (id, node) in dfg.nodes() {
            if matches!(node.op(), Op::Const(_)) {
                continue;
            }
            if !dfg.introduces_noise(id, config) {
                continue;
            }
            out.push(NoiseSource::for_quantizer(id, config.quantizer(id)));
        }
        for cs in &self.coeff_sites {
            let delta = cs.delta(config.quantizer(cs.const_node));
            if delta == 0.0 {
                continue;
            }
            out.push(cs.source_for_delta(delta));
        }
        out
    }

    /// Deterministic constant offsets under `config`, attached to the
    /// constant node whose (linear) gains they propagate through.
    pub fn deterministic_offsets(&self, dfg: &Dfg, config: &WlConfig) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        for (id, node) in dfg.nodes() {
            if let Op::Const(c) = node.op() {
                let offset = config.quantizer(id).quantize(c) - c;
                if offset != 0.0 {
                    out.push((id, offset));
                }
            }
        }
        out
    }

    /// Evaluates output noise under a word-length configuration:
    /// moments-only reports (mean, variance, worst-case bounds), one per
    /// output.
    pub fn evaluate(&self, dfg: &Dfg, config: &WlConfig) -> Vec<(String, NoiseReport)> {
        let n_out = self.output_names.len();
        let mut mean = vec![0.0; n_out];
        let mut variance = vec![0.0; n_out];
        let mut lo = vec![0.0; n_out];
        let mut hi = vec![0.0; n_out];
        for src in self.shaped_sources(dfg, config) {
            let g = &self.gains[src.node.index()];
            for k in 0..n_out {
                let og = g.per_output[k];
                // Per-tap extremal split: P = Σ max(h,0), N = Σ min(h,0).
                let p = 0.5 * (og.l1 + og.dc);
                let n = 0.5 * (og.dc - og.l1);
                let a = src.offset - src.half_width;
                let b = src.offset + src.half_width;
                mean[k] += src.offset * og.dc;
                variance[k] += src.variance() * og.l2_squared;
                lo[k] += a * p + b * n;
                hi[k] += b * p + a * n;
            }
        }
        for (node, offset) in self.deterministic_offsets(dfg, config) {
            let g = &self.gains[node.index()];
            for k in 0..n_out {
                let contrib = offset * g.per_output[k].dc;
                mean[k] += contrib;
                lo[k] += contrib;
                hi[k] += contrib;
            }
        }
        self.output_names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                (
                    name.clone(),
                    NoiseReport::from_moments(mean[k], variance[k], (lo[k], hi[k])),
                )
            })
            .collect()
    }

    /// Total output noise power (`Σ power` across outputs) — the scalar the
    /// optimizer constrains.
    pub fn total_power(&self, dfg: &Dfg, config: &WlConfig) -> f64 {
        self.evaluate(dfg, config)
            .iter()
            .map(|(_, r)| r.power)
            .sum()
    }
}

// ----------------------------------------------------------------------
// Artifact-store serialization
// ----------------------------------------------------------------------

impl NaModel {
    /// Encodes the model for the persistent artifact store (see
    /// `sna_store::wire` for the encoding rules). Gains and coefficient
    /// sites travel as exact `f64` bit patterns, so a loaded model
    /// evaluates **bit-identically** to the one that was stored.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        use sna_store::WireWriter;
        let mut w = WireWriter::new();
        w.len(self.output_names.len());
        for name in &self.output_names {
            w.str(name);
        }
        w.len(self.gains.len());
        for g in &self.gains {
            for og in &g.per_output {
                w.f64(og.l1);
                w.f64(og.l2_squared);
                w.f64(og.dc);
            }
        }
        w.len(self.coeff_sites.len());
        for cs in &self.coeff_sites {
            w.u64(cs.const_node.index() as u64);
            w.f64(cs.constant);
            w.u64(cs.site.index() as u64);
            w.u8(match cs.kind {
                CoeffKind::MulFactor => 0,
                CoeffKind::DivDenominator => 1,
            });
            w.f64(cs.other_mid);
            w.f64(cs.other_rad);
        }
        w.finish()
    }

    /// Decodes a model written by [`NaModel::to_wire`], validating every
    /// node reference against the graph it will be attached to
    /// (`n_nodes` nodes, `n_outputs` declared outputs).
    ///
    /// # Errors
    ///
    /// `sna_store::WireError` on any malformed, truncated or
    /// out-of-bounds input — never panics.
    pub fn from_wire(
        bytes: &[u8],
        n_nodes: usize,
        n_outputs: usize,
    ) -> Result<NaModel, sna_store::WireError> {
        use sna_store::{WireError, WireReader};
        let node = |raw: u64| -> Result<NodeId, WireError> {
            let i = usize::try_from(raw).unwrap_or(usize::MAX);
            if i < n_nodes {
                Ok(NodeId::from_index(i))
            } else {
                Err(WireError::new(format!(
                    "node reference {raw} out of range ({n_nodes})"
                )))
            }
        };
        let mut r = WireReader::new(bytes);
        let count = r.read_count(8)?;
        if count != n_outputs {
            return Err(WireError::new(format!(
                "model names {count} output(s), graph declares {n_outputs}"
            )));
        }
        let mut output_names = Vec::with_capacity(count);
        for _ in 0..count {
            output_names.push(r.str()?);
        }
        // One (l1, l2², dc) triple per output per node.
        let count = r.read_count(24 * n_outputs)?;
        if count != n_nodes {
            return Err(WireError::new(format!(
                "model covers {count} node(s), graph has {n_nodes}"
            )));
        }
        let mut gains = Vec::with_capacity(count);
        for i in 0..count {
            let mut per_output = Vec::with_capacity(n_outputs);
            for _ in 0..n_outputs {
                per_output.push(OutputGain {
                    l1: r.f64()?,
                    l2_squared: r.f64()?,
                    dc: r.f64()?,
                });
            }
            gains.push(ImpulseGains {
                source: NodeId::from_index(i),
                per_output,
            });
        }
        let count = r.read_count(34)?;
        let mut coeff_sites = Vec::with_capacity(count);
        for _ in 0..count {
            let const_node = node(r.u64()?)?;
            let constant = r.f64()?;
            let site = node(r.u64()?)?;
            let kind = match r.u8()? {
                0 => CoeffKind::MulFactor,
                1 => CoeffKind::DivDenominator,
                k => return Err(WireError::new(format!("bad coeff kind {k}"))),
            };
            coeff_sites.push(CoeffSite {
                const_node,
                constant,
                site,
                kind,
                other_mid: r.f64()?,
                other_rad: r.f64()?,
            });
        }
        r.expect_end()?;
        Ok(NaModel {
            gains,
            output_names,
            coeff_sites,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;
    use sna_fixp::{monte_carlo_error, MonteCarloOptions};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn combinational_na_matches_monte_carlo() {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.3, x1);
        let t2 = b.mul_const(0.6, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let model = NaModel::build(&g, &ranges, &LtiOptions::default()).unwrap();
        let predicted = &model.evaluate(&g, &cfg)[0].1;
        let measured = &monte_carlo_error(
            &g,
            &cfg,
            &ranges,
            &MonteCarloOptions {
                samples: 50_000,
                ..Default::default()
            },
        )
        .unwrap()[0];
        let ratio = predicted.variance / measured.variance;
        assert!(ratio > 0.5 && ratio < 2.0, "variance ratio {ratio}");
        assert!(
            predicted.support.0 <= measured.min,
            "lo: predicted {} measured {}",
            predicted.support.0,
            measured.min
        );
        assert!(
            predicted.support.1 >= measured.max,
            "hi: predicted {} measured {}",
            predicted.support.1,
            measured.max
        );
    }

    #[test]
    fn coefficient_rounding_is_captured() {
        // y = 0.3·x with a *coarse* constant: the dominant error is ec·x.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul_const(0.3, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 6).unwrap();
        let model = NaModel::build(&g, &ranges, &LtiOptions::default()).unwrap();
        let predicted = &model.evaluate(&g, &cfg)[0].1;
        let measured = &monte_carlo_error(
            &g,
            &cfg,
            &ranges,
            &MonteCarloOptions {
                samples: 40_000,
                ..Default::default()
            },
        )
        .unwrap()[0];
        assert!(predicted.support.0 <= measured.min);
        assert!(predicted.support.1 >= measured.max);
        let ratio = predicted.variance / measured.variance;
        assert!(ratio > 0.4 && ratio < 2.5, "variance ratio {ratio}");
    }

    #[test]
    fn iir_feedback_amplifies_noise() {
        let mk = |pole: f64| {
            let mut b = DfgBuilder::new();
            let x = b.input("x");
            let fb = b.delay_placeholder();
            let t = b.mul_const(pole, fb);
            let y = b.add(x, t);
            b.bind_delay(fb, y).unwrap();
            b.output("y", y);
            b.build().unwrap()
        };
        let sharp = mk(0.9);
        let soft = mk(0.1);
        let ranges = [iv(-0.05, 0.05)];
        let cfg_sharp = WlConfig::from_ranges(&sharp, &ranges, 12).unwrap();
        let cfg_soft = WlConfig::from_ranges(&soft, &ranges, 12).unwrap();
        let m_sharp = NaModel::build(&sharp, &ranges, &LtiOptions::default()).unwrap();
        let m_soft = NaModel::build(&soft, &ranges, &LtiOptions::default()).unwrap();
        let v_sharp = m_sharp.evaluate(&sharp, &cfg_sharp)[0].1.variance;
        let v_soft = m_soft.evaluate(&soft, &cfg_soft)[0].1.variance;
        assert!(
            v_sharp > 2.0 * v_soft,
            "sharp pole must amplify noise: {v_sharp} vs {v_soft}"
        );
    }

    #[test]
    fn evaluate_is_cheap_after_build() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(0.5, x);
        let y = b.add(t, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let model = NaModel::build(&g, &ranges, &LtiOptions::default()).unwrap();
        let mut last = f64::INFINITY;
        for w in (6..=24).rev() {
            let cfg = WlConfig::from_ranges(&g, &ranges, w).unwrap();
            let p = model.total_power(&g, &cfg);
            if w < 24 {
                assert!(p > last, "power must grow as w shrinks (w={w})");
            }
            last = p;
        }
    }

    #[test]
    fn additive_constants_shift_the_output_deterministically() {
        // y = x + 0.3 at a very coarse format: the rounded 0.3 biases y.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.constant(0.3);
        let y = b.add(x, c);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 5).unwrap();
        let model = NaModel::build(&g, &ranges, &LtiOptions::default()).unwrap();
        let predicted = &model.evaluate(&g, &cfg)[0].1;
        // Constant offset: 0.3 in Q0.4 (the tight range-derived format)
        // rounds to 5/16 = 0.3125, a +0.0125 deterministic bias.
        assert!(
            (predicted.mean - 0.0125).abs() < 1e-9,
            "expected the +0.0125 constant bias, got {}",
            predicted.mean
        );
        let measured = &monte_carlo_error(
            &g,
            &cfg,
            &ranges,
            &MonteCarloOptions {
                samples: 20_000,
                ..Default::default()
            },
        )
        .unwrap()[0];
        assert!((predicted.mean - measured.mean).abs() < 0.02);
    }

    #[test]
    fn nonlinear_graph_is_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let sq = b.mul(x, x);
        b.output("y", sq);
        let g = b.build().unwrap();
        assert!(matches!(
            NaModel::build(&g, &[iv(-1.0, 1.0)], &LtiOptions::default()),
            Err(SnaError::Dfg(_))
        ));
    }

    #[test]
    fn wire_round_trip_evaluates_bit_identically() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        let scaled = b.mul_const(0.3, y);
        b.output("y", scaled);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let model = NaModel::build(&g, &ranges, &LtiOptions::default()).unwrap();
        let bytes = model.to_wire();
        let decoded = NaModel::from_wire(&bytes, g.len(), g.outputs().len()).unwrap();
        assert_eq!(decoded.to_wire(), bytes);
        let cfg = WlConfig::from_ranges(&g, &ranges, 9).unwrap();
        let a = &model.evaluate(&g, &cfg)[0].1;
        let b = &decoded.evaluate(&g, &cfg)[0].1;
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        assert_eq!(a.support.0.to_bits(), b.support.0.to_bits());
    }

    #[test]
    fn wire_rejects_damage_and_wrong_shape() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(0.25, x);
        b.output("y", t);
        let g = b.build().unwrap();
        let model = NaModel::build(&g, &[iv(-1.0, 1.0)], &LtiOptions::default()).unwrap();
        let good = model.to_wire();
        // A different node count must be rejected outright.
        assert!(NaModel::from_wire(&good, g.len() + 1, g.outputs().len()).is_err());
        assert!(NaModel::from_wire(&good, g.len(), g.outputs().len() + 1).is_err());
        for cut in 0..good.len() {
            assert!(
                NaModel::from_wire(&good[..cut], g.len(), g.outputs().len()).is_err(),
                "cut at {cut}"
            );
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            // may err, must not panic
            let _ = NaModel::from_wire(&bad, g.len(), g.outputs().len());
        }
    }

    #[test]
    fn pinned_integrator_comb_builds_with_full_gains() {
        // y = s − s[n-4] with s = x + s[n-1] range [-8, 8]: the override
        // lets range analysis converge, and the integrator's state never
        // returns to zero after an impulse.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let s = b.add(x, fb);
        b.bind_delay(fb, s).unwrap();
        b.override_range(s, iv(-8.0, 8.0)).unwrap();
        let comb = b.delay_chain(s, 4);
        let y = b.sub(s, comb[3]);
        b.output("y", y);
        let g = b.build().unwrap();
        let model = NaModel::build(&g, &[iv(-1.0, 1.0)], &LtiOptions::default()).unwrap();
        assert_eq!(model.gains_from(x).unwrap().per_output[0].l1, 4.0);
    }

    /// The oracle: one dense [`Dfg::impulse_response`] per node.
    fn reference_build(
        dfg: &Dfg,
        node_ranges: &[Interval],
        opts: &LtiOptions,
    ) -> Result<NaModel, SnaError> {
        dfg.require_linear()?;
        let gains = dfg
            .nodes()
            .map(|(id, _)| dfg.impulse_response(id, opts).map(|(g, _)| g))
            .collect::<Result<_, _>>()?;
        Ok(NaModel {
            gains,
            output_names: dfg.outputs().iter().map(|(n, _)| n.clone()).collect(),
            coeff_sites: NaModel::collect_coeff_sites(dfg, node_ranges),
        })
    }

    /// Every shipped `examples/*.sna`, by file name.
    fn examples() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("examples directory")
            .filter_map(|entry| {
                let path = entry.expect("directory entry").path();
                (path.extension().is_some_and(|e| e == "sna")).then(|| {
                    let name = path
                        .file_name()
                        .expect("file")
                        .to_string_lossy()
                        .into_owned();
                    (
                        name,
                        std::fs::read_to_string(&path).expect("readable example"),
                    )
                })
            })
            .collect();
        out.sort();
        assert!(out.len() >= 7, "expected the full example set, got {out:?}");
        out
    }

    /// One design per family of the e2e cold-sweep workload: a FIR with
    /// gaps in its taps, a biquad cascade with `range` overrides and a
    /// three-layer matrix-vector bank.
    fn cold_sweep_designs() -> Vec<(String, String)> {
        let mut fir = String::from("input x in [-1, 1];\n");
        let mut terms = Vec::new();
        let mut delay = 1;
        for i in 0..24 {
            let c = 0.02 + f64::from((i * 37) % 17) / 170.0;
            fir.push_str(&format!("let c{i} = {c:.6};\n"));
            terms.push(format!("c{i}*x[n-{delay}]"));
            delay += 1 + i % 2;
        }
        fir.push_str(&format!("output y = {};\n", terms.join(" + ")));

        let mut biquad = String::from("input x in [-0.5, 0.5];\n");
        let mut src = "x".to_string();
        for (s, (radius, angle, bound)) in
            [(0.5f64, 0.7f64, 2.5), (0.75, 1.9, 3.0), (0.35, 2.4, 1.75)]
                .into_iter()
                .enumerate()
        {
            let (a1, a2) = (2.0 * radius * angle.cos(), -radius * radius);
            biquad.push_str(&format!(
                "acc{s} = 0.2*{src} + 0.1*{src}[n-1] + 0.15*{src}[n-2] + {a1:.6}*y{s}[n-1] \
                 + {a2:.6}*y{s}[n-2] range [-{bound}, {bound}];\ny{s} = acc{s};\n"
            ));
            src = format!("y{s}");
        }
        biquad.push_str(&format!("output out = {src};\n"));

        vec![
            ("gapped fir".into(), fir),
            ("biquad cascade".into(), biquad),
            ("matrix-vector bank".into(), bank(3)),
        ]
    }

    /// A bank of `layers` matrix-vector layers over `v[8]`, four sums per
    /// layer with some terms left out.
    fn bank(layers: usize) -> String {
        let mut bank = String::from("input v[8] in [-1, 1];\n");
        let mut prev: Vec<String> = (0..8).map(|i| format!("v[{i}]")).collect();
        for l in 0..layers {
            let mut names = Vec::new();
            for j in 0..4 {
                let terms: Vec<String> = (0..prev.len())
                    .filter(|i| (i + j + l) % 4 != 0)
                    .map(|i| format!("{:.6}*{}", 0.1 + 0.05 * (i + j) as f64, prev[i]))
                    .collect();
                bank.push_str(&format!("h{l}_{j} = {};\n", terms.join(" + ")));
                names.push(format!("h{l}_{j}"));
            }
            prev = names;
        }
        for (j, name) in prev.iter().enumerate() {
            bank.push_str(&format!("output o{j} = {name};\n"));
        }
        bank
    }

    fn lower(name: &str, source: &str) -> sna_lang::Lowered {
        sna_lang::compile(source).unwrap_or_else(|e| panic!("{name}: {e:?}"))
    }

    #[test]
    fn shared_analysis_matches_impulse_response_bit_for_bit() {
        let mut designs = examples();
        designs.extend(cold_sweep_designs());
        // Its output difference is `inf − inf`: no source ever settles.
        designs.push((
            "overflowing constant".into(),
            "input x;\nlet c = 1e308;\noutput y = c*10 + x[n-2];\n".into(),
        ));
        let opts = LtiOptions::default();
        for (name, source) in designs {
            let dfg = lower(&name, &source).dfg;
            let mut analysis = ImpulseAnalysis::new(&dfg, &opts);
            for (id, _) in dfg.nodes() {
                let dense = dfg.impulse_response(id, &opts);
                let shared = match &mut analysis {
                    Ok(a) => a.response(id),
                    Err(e) => Err(e.clone()),
                };
                match (dense, shared) {
                    (Ok((dg, ds)), Ok((sg, ss))) => {
                        let bits = |g: &ImpulseGains| -> Vec<[u64; 3]> {
                            g.per_output
                                .iter()
                                .map(|o| [o.l1.to_bits(), o.l2_squared.to_bits(), o.dc.to_bits()])
                                .collect()
                        };
                        assert_eq!(dg.source, sg.source);
                        assert_eq!(bits(&dg), bits(&sg), "{name}: gains from {id}");
                        let bits = |seqs: &[Vec<f64>]| -> Vec<Vec<u64>> {
                            seqs.iter()
                                .map(|s| s.iter().map(|v| v.to_bits()).collect())
                                .collect()
                        };
                        assert_eq!(bits(&ds), bits(&ss), "{name}: sequences from {id}");
                    }
                    (Err(d), Err(s)) => assert_eq!(d, s, "{name}: error from {id}"),
                    (d, s) => panic!("{name}, node {id}: reference {d:?}, shared {s:?}"),
                }
            }
        }
    }

    /// Whether `got` is within `tol` of `want` (exactly equal for 0).
    fn close(got: f64, want: f64, tol: f64) -> bool {
        (got - want).abs() <= tol
    }

    #[test]
    fn adjoint_build_matches_the_dense_reference() {
        let mut designs: Vec<(String, String)> = examples()
            .into_iter()
            .filter(|(name, source)| lower(name, source).dfg.is_linear())
            .collect();
        designs.extend(cold_sweep_designs());
        // Two layers, like the e2e cold-sweep's banks.
        designs.push(("two-layer bank".into(), bank(2)));
        // A slow pole: thousands of steps per response.
        designs.push((
            "slow pole".into(),
            "input x in [-1, 1];\ns = x + 0.9995*s[n-1];\noutput y = 0.5*s + 0.25*s[n-1];\noutput z = s;\n"
                .into(),
        ));
        // Every source reaches each output through sums of products taken
        // in the order the forward run takes them: the same bits.  Deeper
        // banks and loops associate the products differently.
        let exact = [
            "fir.sna",
            "fir_taps.sna",
            "vec_dot.sna",
            "gapped fir",
            "two-layer bank",
        ];
        let opts = LtiOptions::default();
        for (name, source) in &designs {
            let lowered = lower(name, source);
            let dfg = &lowered.dfg;
            assert!(
                dfg.adjoint_gains(&opts).unwrap().is_some(),
                "{name}: the adjoint pass does not apply"
            );
            let ranges = dfg
                .ranges_auto(&lowered.input_ranges, &RangeOptions::default(), &opts)
                .unwrap();
            let model = NaModel::build_with_ranges(dfg, &ranges, &opts).unwrap();
            let reference = reference_build(dfg, &ranges, &opts).unwrap();
            if exact.contains(&name.as_str()) {
                assert!(model.to_wire() == reference.to_wire(), "{name}");
                continue;
            }
            for (id, _) in dfg.nodes() {
                let got = &model.gains_from(id).unwrap().per_output;
                let want = &reference.gains_from(id).unwrap().per_output;
                for (g, w) in got.iter().zip(want) {
                    assert!(
                        close(g.l1, w.l1, 1e-12 * w.l1)
                            && close(g.l2_squared, w.l2_squared, 1e-12 * w.l2_squared)
                            && close(g.dc, w.dc, 1e-12 * w.l1),
                        "{name}: gains from {id}: adjoint {g:?}, dense {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_loop_longer_than_the_settle_window_keeps_its_whole_response() {
        // s = x + 0.5·s[n-12]: the response from x is 1, 0.5, 0.25, … at
        // lags 0, 12, 24, …, so ℓ1 = 2 and ℓ2² = 4/3.  A rule that waits
        // for `settle_steps` quiet *outputs* stops after the first sample
        // and loses a quarter of ℓ2².
        let lowered = lower(
            "long loop",
            "input x in [-1, 1];\ns = x + 0.5*s[n-12];\noutput y = s;\n",
        );
        let dfg = &lowered.dfg;
        let x = dfg
            .nodes()
            .find(|(_, node)| matches!(node.op(), Op::Input(_)))
            .map(|(id, _)| id)
            .unwrap();
        let opts = LtiOptions::default();
        let model = NaModel::build(dfg, &lowered.input_ranges, &opts).unwrap();
        let g = model.gains_from(x).unwrap().per_output[0];
        assert!(close(g.l1, 2.0, 1e-11), "l1 = {}", g.l1);
        assert!(
            close(g.l2_squared, 4.0 / 3.0, 1e-11),
            "l2² = {}",
            g.l2_squared
        );
        assert!(close(g.dc, 2.0, 1e-11), "dc = {}", g.dc);

        // The dense reference agrees once its settle window covers the loop.
        let covering = LtiOptions {
            settle_steps: 16,
            ..opts
        };
        let ranges = dfg
            .ranges_auto(&lowered.input_ranges, &RangeOptions::default(), &opts)
            .unwrap();
        let reference = reference_build(dfg, &ranges, &covering).unwrap();
        for (id, _) in dfg.nodes() {
            let got = model.gains_from(id).unwrap().per_output[0];
            let want = reference.gains_from(id).unwrap().per_output[0];
            assert!(
                close(got.l1, want.l1, 1e-11 * want.l1)
                    && close(got.l2_squared, want.l2_squared, 1e-11 * want.l2_squared)
                    && close(got.dc, want.dc, 1e-11 * want.l1),
                "gains from {id}: adjoint {got:?}, dense {want:?}"
            );
        }
    }

    #[test]
    fn adjoint_build_reports_the_forward_errors() {
        let mut designs: Vec<(&str, Dfg)> = [
            (
                "unstable pole",
                "input x in [-1, 1];\ns = x + 1.01*s[n-1];\noutput y = s;\n",
            ),
            // Not finite on the baseline: `1e308·10` overflows.
            (
                "overflowing constant",
                "input x;\nlet c = 1e308;\noutput y = c*10 + x[n-2];\n",
            ),
        ]
        .into_iter()
        .map(|(name, source)| (name, lower(name, source).dfg))
        .collect();
        // `x / (a + b)` with a + b = −1: the impulse at `b` zeroes the
        // divisor, which the adjoint cannot see.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let (ca, cb) = (b.constant(-1.0), b.constant(0.0));
        let d = b.add(ca, cb);
        let q = b.div(x, d);
        b.output("q", q);
        designs.push(("zeroed divisor", b.build().unwrap()));
        let opts = LtiOptions {
            max_steps: 2_000,
            ..LtiOptions::default()
        };
        for (name, dfg) in &designs {
            let ranges = vec![iv(-1.0, 1.0); dfg.len()];
            let got = NaModel::build_with_ranges(dfg, &ranges, &opts).unwrap_err();
            let want = reference_build(dfg, &ranges, &opts).unwrap_err();
            assert_eq!(got, want, "{name}");
        }
    }

    /// A FIR whose only taps sit at delays 6 and 16.
    fn gapped_fir(c6: f64, c16: f64) -> (Dfg, NodeId) {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let line = b.delay_chain(x, 16);
        let t6 = b.mul_const(c6, line[5]);
        let t16 = b.mul_const(c16, line[15]);
        let y = b.add(t6, t16);
        b.output("y", y);
        (b.build().unwrap(), x)
    }

    #[test]
    fn zero_tap_runs_do_not_truncate_fresh_gains() {
        // Nine zero taps between delays 6 and 16 keep the impulse out of
        // the output's sight for longer than `settle_steps`.
        let (c6, c16) = (0.204, 0.915);
        let (g, x) = gapped_fir(c6, c16);
        let ranges = vec![iv(-1.0, 1.0)];
        let fresh = NaModel::build(&g, &ranges, &LtiOptions::default()).unwrap();
        let l1 = fresh.gains_from(x).unwrap().per_output[0].l1;
        assert!((l1 - (c6 + c16)).abs() <= 1e-12 * (c6 + c16), "l1 = {l1}");

        // A shape-hit re-spin builds its gains cold, so it must agree bit
        // for bit.
        let donor = crate::Session::new(gapped_fir(0.5, 0.25).0, ranges).unwrap();
        donor.na_model().unwrap();
        let coeffs: Vec<f64> = donor
            .coefficients()
            .iter()
            .map(|&c| if c == 0.5 { c6 } else { c16 })
            .collect();
        let respun = donor.with_coefficients(&coeffs).unwrap();
        let rebuilt = respun.na_model().unwrap();
        assert!(rebuilt.to_wire() == fresh.to_wire());
        assert_eq!(respun.stats().na_builds, 2);
    }
}
