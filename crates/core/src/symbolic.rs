//! The symbolic engine: Eq. (1) made concrete.
//!
//! Every input uncertainty and every rounding site becomes a *noise symbol*
//! `ε ∈ [-1, 1]` with a PDF; each node's ideal value and computational
//! error are propagated as sparse multivariate **polynomials** over those
//! symbols ([`sna_expr::Poly`]).  At the outputs this yields:
//!
//! * **exact moments** (mean/variance from symbol moments, no sampling,
//!   no linearization);
//! * **guaranteed bounds** (interval evaluation of the polynomial);
//! * an **output PDF** by term-wise histogram evaluation and convolution
//!   (exact for affine error polynomials — every linear datapath — and an
//!   independence approximation across monomials sharing symbols).
//!
//! Polynomial growth through multiplications is kept in check by a degree
//! cap: truncated terms are *absorbed conservatively* into a fresh bounded
//! symbol spanning their interval hull, so bounds never become unsound.

use sna_dfg::{Dfg, Op};
use sna_expr::{HistEvalOptions, Poly, SymbolId, SymbolTable};
use sna_fixp::WlConfig;
use sna_hist::{DepositPolicy, Histogram, OpOptions};
use sna_interval::Interval;

use crate::sources::{IntroducesNoise, NoiseSource};
use crate::{Budget, NoiseReport, SnaError};

/// Options for [`SymbolicEngine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SymbolicOptions {
    /// Histogram bins per noise symbol (the granularity knob).
    pub symbol_bins: usize,
    /// Bins of derived/output histograms.
    pub out_bins: usize,
    /// Maximum polynomial degree before conservative absorption.
    pub max_degree: u32,
    /// Combination budget if exact Cartesian PDF evaluation is requested.
    pub max_combinations: u128,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        SymbolicOptions {
            symbol_bins: 32,
            out_bins: 128,
            max_degree: 3,
            max_combinations: 50_000_000,
        }
    }
}

/// The outcome of a symbolic analysis.
#[derive(Clone, Debug)]
pub struct SymbolicResult {
    /// Per output: `(name, report)` with exact moments, guaranteed bounds
    /// and a convolution-built PDF.
    pub reports: Vec<(String, NoiseReport)>,
    /// The symbol registry (inspect PDFs, names, moments).
    pub table: SymbolTable,
    /// Per output: the error polynomial (Eq. (1) numerator).
    pub error_polys: Vec<Poly>,
    /// Per output: the ideal-value polynomial over the input symbols.
    pub value_polys: Vec<Poly>,
}

impl SymbolicResult {
    /// Evaluates an output's error PDF by the *exact* Cartesian method
    /// instead of the default convolution (exponential in the symbol count
    /// — use on small polynomials).
    ///
    /// # Errors
    ///
    /// Propagates [`sna_expr::ExprError`] (combination budget, degenerate
    /// support).
    pub fn exact_pdf(&self, output: usize, opts: &HistEvalOptions) -> Result<Histogram, SnaError> {
        Ok(self.error_polys[output].eval_histogram(&self.table, opts)?)
    }
}

/// The Eq.(1) polynomial propagation engine (combinational graphs).
#[derive(Clone, Debug, Default)]
pub struct SymbolicEngine {
    opts: SymbolicOptions,
}

impl SymbolicEngine {
    /// Creates an engine with the given options.
    pub fn new(opts: SymbolicOptions) -> Self {
        SymbolicEngine { opts }
    }

    /// Runs the symbolic propagation, checking `budget` once per
    /// topo-order node and once per output-polynomial term convolved
    /// into the PDF.
    ///
    /// # Errors
    ///
    /// * [`SnaError::SequentialGraph`] for graphs with delays;
    /// * [`SnaError::UnsupportedOp`] for division by a signal-dependent
    ///   divisor (use [`crate::DfgEngine`] there);
    /// * input-count and histogram failures as usual;
    /// * budget overruns.
    pub fn analyze(
        &self,
        dfg: &Dfg,
        config: &WlConfig,
        input_ranges: &[Interval],
        budget: &Budget,
    ) -> Result<SymbolicResult, SnaError> {
        if !dfg.is_combinational() {
            return Err(SnaError::SequentialGraph);
        }
        if input_ranges.len() != dfg.n_inputs() {
            return Err(SnaError::Dfg(sna_dfg::DfgError::WrongInputCount {
                expected: dfg.n_inputs(),
                got: input_ranges.len(),
            }));
        }
        let mut table = SymbolTable::new();
        let mut values: Vec<Poly> = vec![Poly::zero(); dfg.len()];
        let mut errors: Vec<Poly> = vec![Poly::zero(); dfg.len()];
        // Noise symbols (as opposed to input-uncertainty symbols).
        let mut is_noise = Vec::<SymbolId>::new();
        let limited = !budget.is_unlimited();

        for &id in dfg.topo_order() {
            if limited {
                budget.check()?;
            }
            let node = dfg.node(id);
            let q = config.quantizer(id);
            let (value, mut error) = match node.op() {
                Op::Input(i) => {
                    let r = input_ranges[i];
                    let value = if r.is_point() {
                        Poly::constant(r.lo())
                    } else {
                        let sym = table.add_uniform(
                            format!("in:{}", dfg.input_names()[i]),
                            self.opts.symbol_bins,
                        )?;
                        Poly::affine(r.mid(), [(sym, r.rad())])
                    };
                    (value, Poly::zero())
                }
                Op::Const(c) => (Poly::constant(c), Poly::constant(q.quantize(c) - c)),
                Op::Add => {
                    let (a, b) = (node.args()[0].index(), node.args()[1].index());
                    (values[a].add(&values[b]), errors[a].add(&errors[b]))
                }
                Op::Sub => {
                    let (a, b) = (node.args()[0].index(), node.args()[1].index());
                    (values[a].sub(&values[b]), errors[a].sub(&errors[b]))
                }
                Op::Mul => {
                    let (a, b) = (node.args()[0].index(), node.args()[1].index());
                    let value = values[a].mul(&values[b]);
                    let error = values[a]
                        .mul(&errors[b])
                        .add(&values[b].mul(&errors[a]))
                        .add(&errors[a].mul(&errors[b]));
                    (
                        self.absorb(value, &mut table, id, "val")?,
                        self.absorb(error, &mut table, id, "err")?,
                    )
                }
                Op::Div => {
                    let (a, b) = (node.args()[0].index(), node.args()[1].index());
                    if !values[b].is_constant() || !errors[b].is_constant() {
                        return Err(SnaError::UnsupportedOp {
                            node: id,
                            reason: "symbolic engine requires a signal-independent divisor",
                        });
                    }
                    let den = values[b].constant_term() + errors[b].constant_term();
                    if den == 0.0 {
                        return Err(SnaError::Hist(sna_hist::HistError::DivisionByZero {
                            denominator: (0.0, 0.0),
                        }));
                    }
                    let ideal_den = values[b].constant_term();
                    let value = values[a].scale(1.0 / ideal_den);
                    // (va+ea)/(vb+eb) − va/vb, denominators constant.
                    let error = values[a]
                        .add(&errors[a])
                        .scale(1.0 / den)
                        .sub(&values[a].scale(1.0 / ideal_den));
                    (value, error)
                }
                Op::Neg => {
                    let a = node.args()[0].index();
                    (values[a].neg(), errors[a].neg())
                }
                Op::Delay => unreachable!("combinational graph"),
            };
            if dfg.introduces_noise(id, config) {
                let src = NoiseSource::for_quantizer(id, q);
                let sym = table.add_uniform(format!("q:{id}"), self.opts.symbol_bins)?;
                is_noise.push(sym);
                error = error.add(&Poly::affine(src.offset, [(sym, src.half_width)]));
            }
            values[id.index()] = value;
            errors[id.index()] = error;
        }

        let mut reports = Vec::new();
        let mut error_polys = Vec::new();
        let mut value_polys = Vec::new();
        for (name, out) in dfg.outputs() {
            let err = errors[out.index()].clone();
            let mean = err.mean(&table);
            let variance = err.variance(&table);
            let bounds = err.eval_interval(|_| Interval::UNIT);
            let pdf = self.convolve_pdf(&err, &table, budget)?;
            let mut report = match pdf {
                Some(h) => {
                    let mut r = NoiseReport::from_histogram(h);
                    // Moments are exact symbolically; prefer them.
                    r.mean = mean;
                    r.variance = variance;
                    r.power = variance + mean * mean;
                    r
                }
                None => NoiseReport::from_moments(mean, variance, (bounds.lo(), bounds.hi())),
            };
            report.support = (bounds.lo(), bounds.hi());
            reports.push((name.clone(), report));
            error_polys.push(err);
            value_polys.push(values[out.index()].clone());
        }
        Ok(SymbolicResult {
            reports,
            table,
            error_polys,
            value_polys,
        })
    }

    /// Caps polynomial degree, absorbing dropped terms into a fresh bounded
    /// symbol spanning their interval hull (keeps bounds sound).
    fn absorb(
        &self,
        poly: Poly,
        table: &mut SymbolTable,
        node: sna_dfg::NodeId,
        tag: &str,
    ) -> Result<Poly, SnaError> {
        let (kept, dropped) = poly.truncate_degree(self.opts.max_degree);
        if dropped.is_zero() {
            return Ok(kept);
        }
        let hull = dropped.eval_interval(|_| Interval::UNIT);
        if hull.rad() == 0.0 {
            return Ok(kept.shift(hull.mid()));
        }
        let sym = table.add_uniform(format!("abs:{node}:{tag}"), self.opts.symbol_bins)?;
        Ok(kept.add(&Poly::affine(hull.mid(), [(sym, hull.rad())])))
    }

    /// Builds the output PDF by term-wise histogram evaluation and
    /// convolution.  Returns `None` for a deterministic (constant) error.
    fn convolve_pdf(
        &self,
        poly: &Poly,
        table: &SymbolTable,
        budget: &Budget,
    ) -> Result<Option<Histogram>, SnaError> {
        let opts = OpOptions::default()
            .with_out_bins(self.opts.out_bins)
            .with_deposit(DepositPolicy::Exact);
        let mul_opts = OpOptions::default().with_out_bins(self.opts.out_bins);
        let mut acc: Option<Histogram> = None;
        let mut constant = 0.0;
        let limited = !budget.is_unlimited();
        for (mono, coeff) in poly.terms() {
            if limited {
                budget.check()?;
            }
            if mono.is_one() {
                constant += coeff;
                continue;
            }
            // Histogram of the monomial: product of per-symbol powers.
            let mut mh: Option<Histogram> = None;
            for (sym, e) in mono.factors() {
                let base = table.info(sym).pdf();
                let powed = if e == 1 { base.clone() } else { base.powi(e)? };
                mh = Some(match mh {
                    None => powed,
                    Some(h) => h.mul_with(&powed, &mul_opts)?,
                });
            }
            let term = mh
                .expect("non-constant monomial has factors")
                .scale(coeff)?;
            acc = Some(match acc {
                None => term,
                Some(h) => h.add_with(&term, &opts)?,
            });
        }
        match acc {
            None => Ok(None),
            Some(h) => {
                if constant != 0.0 {
                    Ok(Some(h.shift(constant)?))
                } else {
                    Ok(Some(h))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;
    use sna_fixp::{monte_carlo_error, MonteCarloOptions, Rounding};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn weighted_sum() -> Dfg {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.3, x1);
        let t2 = b.mul_const(0.6, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn linear_error_poly_is_affine_in_noise_symbols() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let res = SymbolicEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap();
        let err = &res.error_polys[0];
        assert!(err.degree() <= 2, "error poly degree {}", err.degree());
        // Error must not be identically zero and must have bounded range.
        assert!(!err.is_zero());
        let r = &res.reports[0].1;
        assert!(r.support.0 < 0.0 && r.support.1 > 0.0);
    }

    #[test]
    fn symbolic_moments_match_monte_carlo() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let res = SymbolicEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap();
        let predicted = &res.reports[0].1;
        let measured = &monte_carlo_error(
            &g,
            &cfg,
            &ranges,
            &MonteCarloOptions {
                samples: 60_000,
                ..Default::default()
            },
        )
        .unwrap()[0];
        let ratio = predicted.variance / measured.variance;
        assert!(ratio > 0.5 && ratio < 2.0, "variance ratio {ratio}");
        assert!(predicted.support.0 <= measured.min);
        assert!(predicted.support.1 >= measured.max);
    }

    #[test]
    fn truncation_bias_appears_in_the_mean() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let mut cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        cfg.set_rounding_all(Rounding::Truncate);
        let res = SymbolicEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap();
        assert!(res.reports[0].1.mean < 0.0);
    }

    #[test]
    fn nonlinear_square_keeps_sound_bounds() {
        // y = x², x ∈ [-1, 1]: value poly degree 2, error has symbol
        // products — bounds must still enclose Monte-Carlo errors.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul(x, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let res = SymbolicEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap();
        let predicted = &res.reports[0].1;
        let measured = &monte_carlo_error(
            &g,
            &cfg,
            &ranges,
            &MonteCarloOptions {
                samples: 30_000,
                ..Default::default()
            },
        )
        .unwrap()[0];
        assert!(predicted.support.0 <= measured.min + 1e-12);
        assert!(predicted.support.1 >= measured.max - 1e-12);
    }

    #[test]
    fn degree_cap_absorbs_terms_conservatively() {
        // Chain of multiplies: x⁴ would be degree 4; cap at 2.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let x2 = b.mul(x, x);
        let x4 = b.mul(x2, x2);
        b.output("y", x4);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 12).unwrap();
        let capped = SymbolicEngine::new(SymbolicOptions {
            max_degree: 2,
            ..Default::default()
        })
        .analyze(&g, &cfg, &ranges, &Budget::unlimited())
        .unwrap();
        let loose = SymbolicEngine::new(SymbolicOptions {
            max_degree: 8,
            ..Default::default()
        })
        .analyze(&g, &cfg, &ranges, &Budget::unlimited())
        .unwrap();
        // Capped value poly has low degree.
        assert!(capped.value_polys[0].degree() <= 2);
        // Capped bounds enclose the loose (tighter) ones.
        let (cl, ch) = capped.reports[0].1.support;
        let (ll, lh) = loose.reports[0].1.support;
        assert!(cl <= ll + 1e-12 && ch >= lh - 1e-12);
    }

    #[test]
    fn division_by_constant_is_supported() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.constant(4.0);
        let y = b.div(x, c);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let res = SymbolicEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap();
        assert!(res.reports[0].1.variance > 0.0);
    }

    #[test]
    fn division_by_signal_is_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let q = b.div(x, y);
        b.output("q", q);
        let g = b.build().unwrap();
        let ranges = [iv(0.0, 1.0), iv(1.0, 2.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        assert!(matches!(
            SymbolicEngine::default().analyze(&g, &cfg, &ranges, &Budget::unlimited()),
            Err(SnaError::UnsupportedOp { .. })
        ));
    }

    #[test]
    fn exact_pdf_matches_convolved_pdf_for_affine_error() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 8).unwrap();
        let res = SymbolicEngine::new(SymbolicOptions {
            symbol_bins: 8,
            out_bins: 64,
            ..Default::default()
        })
        .analyze(&g, &cfg, &ranges, &Budget::unlimited())
        .unwrap();
        let conv = res.reports[0].1.histogram.as_ref().unwrap();
        let exact = res
            .exact_pdf(0, &HistEvalOptions::default().with_out_bins(64))
            .unwrap();
        // Same support and similar shape.
        assert!((conv.support().0 - exact.support().0).abs() < 1e-9);
        assert!((conv.support().1 - exact.support().1).abs() < 1e-9);
        assert!(conv.kolmogorov_distance(&exact) < 0.05);
    }
}
