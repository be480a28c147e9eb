//! The classical Noise Analysis (NA) baseline and the fast moment model
//! used inside optimization loops.
//!
//! NA treats every rounding site as an independent wide-sense-stationary
//! noise source with a uniform PDF and propagates only *moments* through
//! precomputed LTI gains (Section 3, first category).  The gains depend
//! only on the datapath's constant coefficients — not on word lengths — so
//! [`NaModel::build`] measures them once for every source and
//! [`NaModel::evaluate`] is `O(#sources)` per word-length configuration.
//! The build runs one adjoint pass per output ([`Dfg::adjoint_gains`]),
//! and where the adjoint declines (a signal scaled by a moving constant
//! after a delay, a non-finite zero-input run, a pass that fails) one
//! dense [`Dfg::impulse_response`] per source.  Either way the gains land
//! in one node-major `nodes × outputs` matrix ([`NaModel::gains_from`]
//! returns a row): one allocation however large the graph.
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

use sna_dfg::{Dfg, LtiOptions, NodeId, Op, OutputGain, RangeOptions};
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
/// The gains come from [`Dfg::adjoint_gains`]: one backwards pass per
/// output yields every source's response at once.  Its partials are read
/// from the zero-input run's step 0.  A constant that reaches a delay
/// makes that run move, which the adjoint takes as long as every moving
/// value it reads scales a node no delay reaches: a FIR over `x + c`
/// does, a signal scaled by a decaying constant after a delay does not
/// (that system is time-varying).  A pass stops when its carried state
/// is exactly zero, or after `settle_steps` lags in which no node's
/// sensitivity reaches `tolerance` times its own running ℓ1 (so runs of
/// zero taps and loops longer than `settle_steps` are followed to the
/// end), or at `max_steps`.  The gains then equal one dense
/// [`Dfg::impulse_response`] per source up to rounding and tail
/// truncation (within 1e-12 relative on every shipped example).
///
/// Any graph the adjoint declines, and any pass that fails, goes through
/// one dense [`Dfg::impulse_response`] per source, errors included, so an
/// unstable or non-finite design reports the same error either way.  The
/// dense reference stays the oracle the tests compare against.  Only the
/// aggregates are kept.
#[derive(Clone, Debug)]
pub struct NaModel {
    /// Node-major `nodes × outputs` matrix: entry `i * n_outputs + k` is
    /// the gain from node `i` (every node is a potential source) toward
    /// output `k`.  Graphs declare at least one output, so rows are
    /// never empty.
    gains: Vec<OutputGain>,
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
                let mut gains = Vec::with_capacity(dfg.len() * dfg.outputs().len());
                for (id, _) in dfg.nodes() {
                    gains.extend_from_slice(&dfg.impulse_response(id, opts)?.0.per_output);
                }
                gains
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

    /// The gains from one node, one per output; `None` for a node
    /// outside the graph.
    pub fn gains_from(&self, node: NodeId) -> Option<&[OutputGain]> {
        let n = self.n_outputs();
        let start = node.index().checked_mul(n)?;
        self.gains.get(start..start.checked_add(n)?)
    }

    /// The constant-coefficient interaction sites, in inventory order —
    /// the per-node terms incremental evaluators key their updates on.
    pub fn coeff_sites(&self) -> &[CoeffSite] {
        &self.coeff_sites
    }

    /// Whether `other` is this model bit for bit: the same output names,
    /// every node's gains and every coefficient site, each `f64` compared
    /// by its bit pattern. A coefficient respin's cold rebuild and a
    /// fresh build of the same program must agree this way.
    #[must_use]
    pub fn bit_identical(&self, other: &NaModel) -> bool {
        let gain_bits = |g: &OutputGain| [g.l1, g.l2_squared, g.dc].map(f64::to_bits);
        let site_bits = |c: &CoeffSite| {
            (
                c.const_node,
                c.site,
                c.kind,
                [c.constant, c.other_mid, c.other_rad].map(f64::to_bits),
            )
        };
        self.output_names == other.output_names
            && self
                .gains
                .iter()
                .map(gain_bits)
                .eq(other.gains.iter().map(gain_bits))
            && self
                .coeff_sites
                .iter()
                .map(site_bits)
                .eq(other.coeff_sites.iter().map(site_bits))
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
            let gains = self.gains_from(src.node).expect("sources are graph nodes");
            for (k, &og) in gains.iter().enumerate() {
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
            let gains = self.gains_from(node).expect("constants are graph nodes");
            for (k, og) in gains.iter().enumerate() {
                let contrib = offset * og.dc;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::tests::measure;
    use sna_dfg::DfgBuilder;

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
        let measured = &measure(&g, &cfg, &ranges, 50_000, 1, 0)[0];
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
        let measured = &measure(&g, &cfg, &ranges, 40_000, 1, 0)[0];
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
        let measured = &measure(&g, &cfg, &ranges, 20_000, 1, 0)[0];
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
        assert_eq!(model.gains_from(x).unwrap()[0].l1, 4.0);
    }

    /// The oracle: one dense [`Dfg::impulse_response`] per node.
    fn reference_build(
        dfg: &Dfg,
        node_ranges: &[Interval],
        opts: &LtiOptions,
    ) -> Result<NaModel, SnaError> {
        dfg.require_linear()?;
        let mut gains = Vec::new();
        for (id, _) in dfg.nodes() {
            gains.extend(dfg.impulse_response(id, opts)?.0.per_output);
        }
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
                assert!(model.bit_identical(&reference), "{name}");
                continue;
            }
            assert_gains_close(name, dfg, &model, &reference);
        }
    }

    /// Asserts that every gain of `got` is within 1e-12 of `want`'s,
    /// relative to its ℓ1 (ℓ2² for the variance gain).
    fn assert_gains_close(name: &str, dfg: &Dfg, got: &NaModel, want: &NaModel) {
        for (id, _) in dfg.nodes() {
            let got = got.gains_from(id).unwrap();
            let want = want.gains_from(id).unwrap();
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

    /// Designs whose zero-input run moves: a constant reaches a delay.
    /// The first two obey rule R (`lti.rs`), the third scales a delayed
    /// signal by a moving constant.
    fn moving_baseline_designs() -> Vec<(String, String)> {
        let taps = |n: usize| -> String {
            (0..n)
                .map(|i| format!("{:.6}*u[n-{i}]", 0.01 + 0.003 * i as f64))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        vec![
            (
                "dc-offset fir".into(),
                format!(
                    "input x in [-1, 1];\nu = x + 0.25;\noutput y = {};\n",
                    taps(64)
                ),
            ),
            (
                "recurrence beside a fir".into(),
                format!(
                    "input x in [-1, 1];\nu = x;\nk = 0.5 + 0.5*k[n-1];\noutput y = {} + k;\n",
                    taps(32)
                ),
            ),
            (
                "signal scaled by a recurrence".into(),
                "input x in [-1, 1];\nk = 0.5 + 0.5*k[n-1];\noutput y = k*x[n-1] + 0.25*x;\n"
                    .into(),
            ),
        ]
    }

    #[test]
    fn build_matches_the_dense_reference_on_every_design() {
        let mut designs: Vec<(String, Dfg)> = examples()
            .into_iter()
            .chain(cold_sweep_designs())
            .chain(moving_baseline_designs())
            .chain([
                // Not finite on the baseline: `1e308·10` overflows.
                (
                    "overflowing constant".into(),
                    "input x;\nlet c = 1e308;\noutput y = c*10 + x[n-2];\n".into(),
                ),
                // The integrator's state holds 1 forever after an impulse.
                (
                    "held integrator and comb".into(),
                    "input x;\ns = x + s[n-1];\noutput y = s - s[n-4];\n".into(),
                ),
            ])
            .map(|(name, source)| {
                let dfg = lower(&name, &source).dfg;
                (name, dfg)
            })
            .collect();
        designs.push(("gapped fir 6/16".into(), gapped_fir(0.204, 0.915).0));
        let opts = LtiOptions::default();
        for (name, dfg) in &designs {
            let adjoint = dfg.adjoint_gains(&opts).map(|g| g.is_some());
            match name.as_str() {
                "dc-offset fir" | "recurrence beside a fir" => {
                    assert_eq!(adjoint, Ok(true), "{name}")
                }
                "signal scaled by a recurrence" | "overflowing constant" => {
                    assert_eq!(adjoint, Ok(false), "{name}")
                }
                _ => {}
            }
            // Both sides collect their coefficient sites alike.
            let ranges = vec![iv(-1.0, 1.0); dfg.len()];
            match (
                NaModel::build_with_ranges(dfg, &ranges, &opts),
                reference_build(dfg, &ranges, &opts),
            ) {
                (Ok(got), Ok(want)) if adjoint == Ok(true) => {
                    assert_gains_close(name, dfg, &got, &want)
                }
                (Ok(got), Ok(want)) => assert!(got.bit_identical(&want), "{name}"),
                (Err(got), Err(want)) => assert_eq!(got, want, "{name}"),
                (got, want) => panic!("{name}: build {got:?}, reference {want:?}"),
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
        let g = model.gains_from(x).unwrap()[0];
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
            let got = model.gains_from(id).unwrap()[0];
            let want = reference.gains_from(id).unwrap()[0];
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
        let l1 = fresh.gains_from(x).unwrap()[0].l1;
        assert!((l1 - (c6 + c16)).abs() <= 1e-12 * (c6 + c16), "l1 = {l1}");

        // A respin of another design through `Dfg::with_const_values`
        // builds its gains cold, so it must agree bit for bit.
        let donor = gapped_fir(0.5, 0.25).0;
        let coeffs: Vec<f64> = donor
            .const_values()
            .iter()
            .map(|&c| if c == 0.5 { c6 } else { c16 })
            .collect();
        let respun =
            crate::Session::new(donor.with_const_values(&coeffs).unwrap(), ranges).unwrap();
        let rebuilt = respun.na_model().unwrap();
        assert!(rebuilt.bit_identical(&fresh));
        assert_eq!(respun.stats().na_builds, 1);
    }
}
