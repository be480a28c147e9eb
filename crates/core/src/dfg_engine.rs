//! Op-by-op histogram propagation over a combinational DFG.
//!
//! Every node carries an [`Uncertain`] pair: the distribution of its
//! *signal value* (inputs assumed uniform over their ranges, per the
//! paper's probabilistic reading of interval data) and the distribution of
//! its *computational error*.  Errors compose exactly through the algebra
//! of the operation — e.g. for a product,
//!
//! ```text
//! (va+ea)(vb+eb) − va·vb  =  va·eb + vb·ea + ea·eb
//! ```
//!
//! — and each precision-losing node convolves in its own quantization
//! noise (see [`crate::sources`]).  Operand independence is assumed (exact
//! on trees; an approximation on reconvergent fanout, as in the paper).

use sna_dfg::{Dfg, Op};
use sna_fixp::WlConfig;
use sna_hist::{DepositPolicy, Histogram, OpOptions};
use sna_interval::Interval;

use crate::sources::{IntroducesNoise, NoiseSource};
use crate::{Budget, NoiseReport, SnaError};

/// A scalar-or-distribution value.
///
/// Constants (and exactly-zero errors) stay symbolic scalars so that the
/// common cases `x + 0`, `c·h` cost nothing and lose nothing.
#[derive(Clone, Debug)]
pub enum Value {
    /// A deterministic value.
    Const(f64),
    /// A distributed value.
    Hist(Histogram),
}

impl Value {
    /// The exactly-zero value.
    pub fn zero() -> Self {
        Value::Const(0.0)
    }

    /// Whether this is exactly zero.
    pub fn is_zero(&self) -> bool {
        matches!(self, Value::Const(0.0))
    }

    /// Mean of the value.
    pub fn mean(&self) -> f64 {
        match self {
            Value::Const(c) => *c,
            Value::Hist(h) => h.mean(),
        }
    }

    /// Variance of the value.
    pub fn variance(&self) -> f64 {
        match self {
            Value::Const(_) => 0.0,
            Value::Hist(h) => h.variance(),
        }
    }

    /// Guaranteed range.
    pub fn support(&self) -> Interval {
        match self {
            Value::Const(c) => Interval::point(*c),
            Value::Hist(h) => {
                let (lo, hi) = h.support();
                Interval::new(lo, hi).expect("histogram support is valid")
            }
        }
    }

    fn add(&self, rhs: &Value, opts: &OpOptions) -> Result<Value, SnaError> {
        Ok(match (self, rhs) {
            (Value::Const(a), Value::Const(b)) => Value::Const(a + b),
            (Value::Const(a), Value::Hist(h)) | (Value::Hist(h), Value::Const(a)) => {
                if *a == 0.0 {
                    Value::Hist(h.clone())
                } else {
                    Value::Hist(h.shift(*a)?)
                }
            }
            (Value::Hist(a), Value::Hist(b)) => Value::Hist(a.add_with(b, opts)?),
        })
    }

    fn sub(&self, rhs: &Value, opts: &OpOptions) -> Result<Value, SnaError> {
        Ok(match (self, rhs) {
            (Value::Const(a), Value::Const(b)) => Value::Const(a - b),
            (Value::Hist(h), Value::Const(b)) => {
                if *b == 0.0 {
                    Value::Hist(h.clone())
                } else {
                    Value::Hist(h.shift(-*b)?)
                }
            }
            (Value::Const(a), Value::Hist(h)) => {
                let n = h.neg();
                if *a == 0.0 {
                    Value::Hist(n)
                } else {
                    Value::Hist(n.shift(*a)?)
                }
            }
            (Value::Hist(a), Value::Hist(b)) => Value::Hist(a.sub_with(b, opts)?),
        })
    }

    fn mul(&self, rhs: &Value, opts: &OpOptions) -> Result<Value, SnaError> {
        Ok(match (self, rhs) {
            (Value::Const(a), Value::Const(b)) => Value::Const(a * b),
            (Value::Const(a), Value::Hist(h)) | (Value::Hist(h), Value::Const(a)) => {
                if *a == 0.0 {
                    Value::Const(0.0)
                } else {
                    Value::Hist(h.scale(*a)?)
                }
            }
            (Value::Hist(a), Value::Hist(b)) => Value::Hist(a.mul_with(b, opts)?),
        })
    }

    fn div(&self, rhs: &Value, opts: &OpOptions) -> Result<Value, SnaError> {
        Ok(match (self, rhs) {
            (Value::Const(a), Value::Const(b)) => {
                if *b == 0.0 {
                    return Err(SnaError::Hist(sna_hist::HistError::DivisionByZero {
                        denominator: (0.0, 0.0),
                    }));
                }
                Value::Const(a / b)
            }
            (Value::Hist(h), Value::Const(b)) => {
                if *b == 0.0 {
                    return Err(SnaError::Hist(sna_hist::HistError::DivisionByZero {
                        denominator: (0.0, 0.0),
                    }));
                }
                Value::Hist(h.scale(1.0 / *b)?)
            }
            (Value::Const(a), Value::Hist(h)) => {
                if *a == 0.0 {
                    Value::Const(0.0)
                } else {
                    Value::Hist(h.recip()?.scale(*a)?)
                }
            }
            (Value::Hist(a), Value::Hist(b)) => Value::Hist(a.div_with(b, opts)?),
        })
    }

    fn neg(&self) -> Value {
        match self {
            Value::Const(c) => Value::Const(-c),
            Value::Hist(h) => Value::Hist(h.neg()),
        }
    }
}

/// The per-node analysis state: signal distribution + error distribution.
#[derive(Clone, Debug)]
pub struct Uncertain {
    /// Distribution of the (infinite-precision) signal value.
    pub value: Value,
    /// Distribution of the computational error at this node.
    pub error: Value,
}

/// A concurrent memo of per-node histogram states, keyed by
/// `(bins, node, widths of the node's upstream cone)`.
///
/// The key stores the widths themselves (not a hash), so a hit is
/// guaranteed to be the exact configuration and the returned state is
/// bit-equal to a recomputation.  The map sits behind an `RwLock` so the
/// evaluators of a multi-threaded nonlinear word-length search (annealing
/// restarts, exhaustive odometer chunks) — and successive searches over
/// one compiled session — share hits instead of each keeping a private
/// memo.  Entries are only ever *valid for one graph instance*: states
/// depend on constant values, so a coefficient swap needs a fresh memo.
#[derive(Debug, Default)]
pub struct HistMemo {
    map: std::sync::RwLock<std::collections::HashMap<MemoKey, Uncertain>>,
}

/// A memo key: `(bins, node, widths of the node's upstream cone)`.
pub type MemoKey = (u32, u32, Vec<u8>);

/// Entries kept before [`HistMemo`] sweeps itself clear (bounds memory on
/// long searches; the hot working set re-warms in one round of misses).
const HIST_MEMO_CAP: usize = 16_384;

impl HistMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized state for a `(bins, node, upstream widths)` key.
    /// Consumes the already-built widths key and, on a miss, hands it
    /// back so the caller can [`HistMemo::insert_key`] without a second
    /// allocation.
    ///
    /// # Errors
    ///
    /// The assembled key, on a miss.
    pub fn lookup(&self, bins: u32, node: u32, widths: Vec<u8>) -> Result<Uncertain, MemoKey> {
        let key = (bins, node, widths);
        match self.map.read().expect("memo lock").get(&key) {
            Some(state) => Ok(state.clone()),
            None => Err(key),
        }
    }

    /// Records a computed state under a key handed back by
    /// [`HistMemo::lookup`] (first writer wins; the cap triggers a
    /// clear-all sweep before insertion).
    pub fn insert_key(&self, key: MemoKey, state: Uncertain) {
        let mut map = self.map.write().expect("memo lock");
        if map.len() >= HIST_MEMO_CAP {
            map.clear();
        }
        map.entry(key).or_insert(state);
    }

    /// Bulk first-writer-wins insertion under one lock acquisition — the
    /// evaluator-construction path, where every thread of a parallel
    /// search seeds the same start-point states.
    pub fn insert_many(&self, entries: impl IntoIterator<Item = (MemoKey, Uncertain)>) {
        let mut map = self.map.write().expect("memo lock");
        for (key, state) in entries {
            if map.len() >= HIST_MEMO_CAP {
                map.clear();
            }
            map.entry(key).or_insert(state);
        }
    }

    /// Number of memoized states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().expect("memo lock").len()
    }

    /// Whether the memo holds no states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Options for [`DfgEngine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineOptions {
    /// Histogram resolution (bins) used throughout the propagation — the
    /// paper's granularity knob.
    pub bins: usize,
    /// Deposit policy for histogram operations.
    pub deposit: DepositPolicy,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            bins: 64,
            deposit: DepositPolicy::Uniform,
        }
    }
}

impl EngineOptions {
    /// Sets the histogram resolution.
    pub fn with_bins(mut self, bins: usize) -> Self {
        self.bins = bins;
        self
    }

    /// Sets the deposit policy.
    pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
        self.deposit = deposit;
        self
    }
}

/// The scalable SNA engine: one histogram operation per DFG node.
///
/// Requires a combinational graph (run
/// [`sna_dfg::Dfg::combinational_view`] first, or use
/// [`crate::LtiEngine`] for feedback structures).
#[derive(Clone, Debug, Default)]
pub struct DfgEngine {
    opts: EngineOptions,
}

impl DfgEngine {
    /// Creates an engine with the given options.
    pub fn new(opts: EngineOptions) -> Self {
        DfgEngine { opts }
    }

    /// Propagates value and error distributions through `dfg` under
    /// `config`, returning `(output name, error report)` pairs.
    ///
    /// The propagation checks `budget` between node steps (each is
    /// `O(bins²)`, so the check overhead is noise) and fails with
    /// [`SnaError::DeadlineExceeded`] / [`SnaError::Cancelled`] instead
    /// of finishing the sweep; pass [`Budget::unlimited`] to run to
    /// completion.
    ///
    /// # Errors
    ///
    /// * [`SnaError::SequentialGraph`] for graphs with delays;
    /// * [`SnaError::Dfg`] for input-count mismatches;
    /// * histogram failures (e.g. division by a zero-straddling signal);
    /// * budget overruns.
    pub fn analyze(
        &self,
        dfg: &Dfg,
        config: &WlConfig,
        input_ranges: &[Interval],
        budget: &Budget,
    ) -> Result<Vec<(String, NoiseReport)>, SnaError> {
        let states = self.propagate(dfg, config, input_ranges, budget)?;
        Ok(dfg
            .outputs()
            .iter()
            .map(|(name, id)| {
                let err = &states[id.index()].error;
                let report = match err {
                    Value::Const(c) => NoiseReport::from_moments(*c, 0.0, (*c, *c)),
                    Value::Hist(h) => NoiseReport::from_histogram(h.clone()),
                };
                (name.clone(), report)
            })
            .collect())
    }

    /// Full per-node propagation (exposed for inspection and for engines
    /// built on top), checking `budget` once per topo-order node step.
    ///
    /// # Errors
    ///
    /// Same as [`DfgEngine::analyze`].
    pub fn propagate(
        &self,
        dfg: &Dfg,
        config: &WlConfig,
        input_ranges: &[Interval],
        budget: &Budget,
    ) -> Result<Vec<Uncertain>, SnaError> {
        if !dfg.is_combinational() {
            return Err(SnaError::SequentialGraph);
        }
        if input_ranges.len() != dfg.n_inputs() {
            return Err(SnaError::Dfg(sna_dfg::DfgError::WrongInputCount {
                expected: dfg.n_inputs(),
                got: input_ranges.len(),
            }));
        }
        let limited = !budget.is_unlimited();
        let mut states: Vec<Uncertain> = vec![
            Uncertain {
                value: Value::zero(),
                error: Value::zero(),
            };
            dfg.len()
        ];
        for &id in dfg.topo_order() {
            if limited {
                budget.check()?;
            }
            states[id.index()] = self.node_state(dfg, config, input_ranges, id, &states)?;
        }
        Ok(states)
    }

    /// Computes the state of a single node from the (already computed)
    /// states of its arguments — the one-node step of [`propagate`],
    /// exposed so incremental evaluators can re-propagate just the
    /// downstream cone of a changed node.
    ///
    /// `states` must hold valid entries for every argument of `id`; the
    /// result is bit-identical to what a full [`propagate`] would place at
    /// `id` under the same configuration.
    ///
    /// [`propagate`]: DfgEngine::propagate
    ///
    /// # Errors
    ///
    /// [`SnaError::SequentialGraph`] for a delay node (its value is
    /// state, not a combinational function of its argument); histogram
    /// failures otherwise, as in [`DfgEngine::analyze`].
    pub fn node_state(
        &self,
        dfg: &Dfg,
        config: &WlConfig,
        input_ranges: &[Interval],
        id: sna_dfg::NodeId,
        states: &[Uncertain],
    ) -> Result<Uncertain, SnaError> {
        let op_opts = OpOptions::default()
            .with_out_bins(self.opts.bins)
            .with_deposit(self.opts.deposit);
        {
            let node = dfg.node(id);
            let q = config.quantizer(id);
            let (value, mut error) = match node.op() {
                Op::Input(i) => {
                    let r = *input_ranges.get(i).ok_or(SnaError::Dfg(
                        sna_dfg::DfgError::WrongInputCount {
                            expected: dfg.n_inputs(),
                            got: input_ranges.len(),
                        },
                    ))?;
                    let value = if r.is_point() {
                        Value::Const(r.lo())
                    } else {
                        Value::Hist(Histogram::uniform(r.lo(), r.hi(), self.opts.bins)?)
                    };
                    (value, Value::zero())
                }
                Op::Const(c) => {
                    // Deterministic rounding offset of the constant.
                    let rounded = q.quantize(c);
                    (Value::Const(c), Value::Const(rounded - c))
                }
                Op::Add => {
                    let (a, b) = (
                        &states[node.args()[0].index()],
                        &states[node.args()[1].index()],
                    );
                    (
                        a.value.add(&b.value, &op_opts)?,
                        a.error.add(&b.error, &op_opts)?,
                    )
                }
                Op::Sub => {
                    let (a, b) = (
                        &states[node.args()[0].index()],
                        &states[node.args()[1].index()],
                    );
                    (
                        a.value.sub(&b.value, &op_opts)?,
                        a.error.sub(&b.error, &op_opts)?,
                    )
                }
                Op::Mul => {
                    let (a, b) = (
                        &states[node.args()[0].index()],
                        &states[node.args()[1].index()],
                    );
                    let value = a.value.mul(&b.value, &op_opts)?;
                    // (va+ea)(vb+eb) − va·vb = va·eb + vb·ea + ea·eb.
                    let t1 = a.value.mul(&b.error, &op_opts)?;
                    let t2 = b.value.mul(&a.error, &op_opts)?;
                    let t3 = a.error.mul(&b.error, &op_opts)?;
                    let error = t1.add(&t2, &op_opts)?.add(&t3, &op_opts)?;
                    (value, error)
                }
                Op::Div => {
                    let (a, b) = (
                        &states[node.args()[0].index()],
                        &states[node.args()[1].index()],
                    );
                    let value = a.value.div(&b.value, &op_opts)?;
                    // First-order: e ≈ ea/vb − va·eb/vb².
                    let t1 = a.error.div(&b.value, &op_opts)?;
                    let vb2 = b.value.mul(&b.value, &op_opts)?;
                    let t2 = a.value.mul(&b.error, &op_opts)?.div(&vb2, &op_opts)?;
                    let error = t1.sub(&t2, &op_opts)?;
                    (value, error)
                }
                Op::Neg => {
                    let a = &states[node.args()[0].index()];
                    (a.value.neg(), a.error.neg())
                }
                // Never reached from `propagate` (the topo order excludes
                // delays); external callers get the contract error.
                Op::Delay => return Err(SnaError::SequentialGraph),
            };
            // Convolve in this node's own quantization noise when its
            // format loses precision.
            if dfg.introduces_noise(id, config) {
                let src = NoiseSource::for_quantizer(id, q);
                let noise = Value::Hist(Histogram::uniform(
                    src.interval().lo(),
                    src.interval().hi(),
                    self.opts.bins,
                )?);
                error = error.add(&noise, &op_opts)?;
            }
            Ok(Uncertain { value, error })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::tests::measure;
    use sna_dfg::DfgBuilder;
    use sna_fixp::{Format, Overflow, Rounding};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    fn weighted_sum() -> Dfg {
        // y = 0.3 x1 + 0.6 x2
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
    fn prediction_matches_monte_carlo_for_linear_dfg() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        let predicted = &DfgEngine::new(EngineOptions::default().with_bins(128))
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap()[0]
            .1;
        let measured = &measure(&g, &cfg, &ranges, 60_000, 1, 0)[0];
        assert!(
            (predicted.mean - measured.mean).abs() < 3.0 * measured.variance.sqrt() / 50.0,
            "mean: predicted {} measured {}",
            predicted.mean,
            measured.mean
        );
        let ratio = predicted.variance / measured.variance;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "variance ratio {ratio}: predicted {} measured {}",
            predicted.variance,
            measured.variance
        );
        // Guaranteed bounds must cover the observed errors.
        assert!(predicted.support.0 <= measured.min + 1e-12);
        assert!(predicted.support.1 >= measured.max - 1e-12);
    }

    #[test]
    fn truncation_shifts_the_error_mean() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let mut cfg = WlConfig::from_ranges(&g, &ranges, 10).unwrap();
        cfg.set_rounding_all(Rounding::Truncate);
        let r = &DfgEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap()[0]
            .1;
        assert!(
            r.mean < 0.0,
            "truncation bias should be negative: {}",
            r.mean
        );
    }

    #[test]
    fn coefficient_rounding_appears_as_deterministic_offset() {
        // y = 0.3·x with x restricted to a point: the only random noise is
        // input/multiplier rounding; constant error is deterministic.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul_const(0.3, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(1.0, 1.0)]; // point input
        let cfg = WlConfig::from_ranges(&g, &[iv(-2.0, 2.0)], 8).unwrap();
        let states = DfgEngine::default()
            .propagate(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap();
        // Find the constant node and check its error is Const.
        let const_id = g
            .nodes()
            .find(|(_, n)| matches!(n.op(), Op::Const(_)))
            .unwrap()
            .0;
        match &states[const_id.index()].error {
            Value::Const(e) => assert!(e.abs() < cfg.format(const_id).resolution()),
            Value::Hist(_) => panic!("constant error must stay deterministic"),
        }
    }

    #[test]
    fn nonlinear_product_error_includes_signal_scaling() {
        // y = x1 · x2 with wide signals: error ≈ x1·e2 + x2·e1 + q-noise;
        // the variance should grow with the signal amplitude.
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let y = b.mul(x1, x2);
        b.output("y", y);
        let g = b.build().unwrap();
        let narrow = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let wide = [iv(-4.0, 4.0), iv(-4.0, 4.0)];
        let cfg_n = WlConfig::from_ranges(&g, &narrow, 12).unwrap();
        let cfg_w = WlConfig::from_ranges(&g, &wide, 12).unwrap();
        let rn = &DfgEngine::default()
            .analyze(&g, &cfg_n, &narrow, &Budget::unlimited())
            .unwrap()[0]
            .1;
        let rw = &DfgEngine::default()
            .analyze(&g, &cfg_w, &wide, &Budget::unlimited())
            .unwrap()[0]
            .1;
        assert!(rw.variance > rn.variance);
    }

    #[test]
    fn sequential_graphs_are_rejected() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay(x);
        let y = b.add(x, d);
        b.output("y", y);
        let g = b.build().unwrap();
        let cfg = WlConfig::uniform(
            &g,
            Format::new(8, 6).unwrap(),
            Rounding::Nearest,
            Overflow::Saturate,
        );
        assert!(matches!(
            DfgEngine::default().analyze(&g, &cfg, &[iv(-1.0, 1.0)], &Budget::unlimited()),
            Err(SnaError::SequentialGraph)
        ));
    }

    #[test]
    fn exact_adders_contribute_no_noise() {
        // x1 + x2 with a *uniform* format: the adder keeps every fractional
        // bit, so the error is exactly the two input quantizations.
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let y = b.add(x1, x2);
        b.output("y", y);
        let g = b.build().unwrap();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let fmt = Format::new(12, 9).unwrap();
        let cfg = WlConfig::uniform(&g, fmt, Rounding::Nearest, Overflow::Saturate);
        let r = &DfgEngine::default()
            .analyze(&g, &cfg, &ranges, &Budget::unlimited())
            .unwrap()[0]
            .1;
        let q = fmt.resolution();
        let expected = 2.0 * q * q / 12.0;
        assert!(
            (r.variance - expected).abs() < 0.25 * expected,
            "var {} vs {expected}",
            r.variance
        );
    }

    #[test]
    fn node_state_rejects_delay_nodes() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d = b.delay(x);
        let y = b.add(x, d);
        b.output("y", y);
        let g = b.build().unwrap();
        let cfg = WlConfig::uniform(
            &g,
            Format::new(8, 6).unwrap(),
            Rounding::Nearest,
            Overflow::Saturate,
        );
        let engine = DfgEngine::default();
        let states = vec![
            Uncertain {
                value: Value::zero(),
                error: Value::zero(),
            };
            g.len()
        ];
        assert!(matches!(
            engine.node_state(&g, &cfg, &[iv(-1.0, 1.0)], d, &states),
            Err(SnaError::SequentialGraph)
        ));
    }

    #[test]
    fn error_grows_as_wordlength_shrinks() {
        let g = weighted_sum();
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let mut powers = Vec::new();
        for w in [16u8, 12, 8] {
            let cfg = WlConfig::from_ranges(&g, &ranges, w).unwrap();
            let r = &DfgEngine::default()
                .analyze(&g, &cfg, &ranges, &Budget::unlimited())
                .unwrap()[0]
                .1;
            powers.push(r.power);
        }
        assert!(powers[0] < powers[1] && powers[1] < powers[2]);
        assert!(powers[2] / powers[0] > 100.0);
    }
}
