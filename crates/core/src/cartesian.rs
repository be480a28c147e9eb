//! The exact SNA algorithm of Section 4, for closed-form expressions over
//! a handful of uncertain inputs.
//!
//! Every uncertain input is a histogram; the expression is evaluated with
//! interval arithmetic over the full Cartesian product of input bins
//! (`∏ binsᵢ` combinations), and each partial result deposits the product
//! probability into the output histogram.  Exponential in the number of
//! inputs — exactly what the paper prescribes, and practical for the
//! quadratic/table examples it evaluates.
//!
//! # One sweep
//!
//! One odometer walks the product, input 0 as its fastest digit, and
//! evaluates each sub-box once for every output: each output deposits
//! into its own accumulator.  A combinational graph is compiled once
//! into a flat interval program over one reused slot buffer, on the
//! first sub-box (after the combination check).  When digit `d` moves,
//! only the instructions downstream of inputs `0..=d` re-run: ordered by
//! the lowest input they read, those are a suffix of the one instruction
//! list, so the program stays one instruction per node however many
//! inputs there are.  Nodes fed by constants alone are evaluated at
//! compile time, and a `range` override pins its node, cutting it off
//! from its operands.  Each node is evaluated by
//! [`Op::eval_interval`], the rule range analysis uses.
//! When an output's interval and the sub-box mass are bitwise equal to
//! the ones it deposited last, it replays a record of that deposit
//! ([`MassAccumulator::replay`]) instead of computing it again — an
//! override that hides the fast digits makes long runs of such boxes.
//! Nothing is memoized.  Every mass is bit-identical to evaluating each
//! sub-box from scratch and sweeping once per output: the same interval
//! operations on the same operands, the same deposit arithmetic, in the
//! same order per accumulator.

use sna_dfg::{Dfg, Op, RangeOptions};
use sna_hist::{DepositPolicy, Grid, Histogram, MassAccumulator};
use sna_interval::Interval;

use crate::{Budget, NoiseReport, SnaError};

/// Sub-boxes the Section-4 sweep evaluates between budget checks.
const BUDGET_STRIDE: usize = 1024;

/// One uncertain input of a [`CartesianEngine`] analysis.
#[derive(Clone, Debug)]
pub struct UncertainInput {
    /// Display name.
    pub name: String,
    /// The input's distribution over its own support (e.g. uniform on
    /// `[9, 10]` for the paper's coefficient `a`).
    pub pdf: Histogram,
}

impl UncertainInput {
    /// Uniformly distributed input over `[lo, hi]` with `bins` bins — the
    /// paper's standard noise-symbol assumption applied to an input range.
    ///
    /// # Errors
    ///
    /// Propagates histogram construction failures.
    pub fn uniform(
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Result<Self, SnaError> {
        Ok(UncertainInput {
            name: name.into(),
            pdf: Histogram::uniform(lo, hi, bins)?,
        })
    }

    /// Input with an arbitrary PDF (the paper's "practically extracted or
    /// stimulus based model" option).
    pub fn with_pdf(name: impl Into<String>, pdf: Histogram) -> Self {
        UncertainInput {
            name: name.into(),
            pdf,
        }
    }
}

/// Exact Cartesian SNA evaluation of a user-supplied interval function.
///
/// # Example
///
/// The paper's quadratic `y = a·x² + b·x + c`:
///
/// ```
/// use sna_core::{Budget, CartesianEngine, UncertainInput};
///
/// # fn main() -> Result<(), sna_core::SnaError> {
/// let g = 16; // bins per symbol
/// let inputs = vec![
///     UncertainInput::uniform("x", -1.0, 1.0, g)?,
///     UncertainInput::uniform("a", 9.0, 10.0, g)?,
///     UncertainInput::uniform("b", -6.0, -4.0, g)?,
///     UncertainInput::uniform("c", 6.0, 7.0, g)?,
/// ];
/// let engine = CartesianEngine::new(128);
/// let report = engine.analyze(
///     &inputs,
///     |v| v[1] * v[0].sqr() + v[2] * v[0] + v[3],
///     &Budget::unlimited(),
/// )?;
/// // Converges toward the true range [5, 23] as g grows.
/// assert!(report.support.0 >= -0.1 && report.support.1 <= 23.1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CartesianEngine {
    out_bins: usize,
    deposit: DepositPolicy,
    max_combinations: u128,
}

impl CartesianEngine {
    /// Creates an engine producing `out_bins`-bin output histograms.
    pub fn new(out_bins: usize) -> Self {
        CartesianEngine {
            out_bins,
            deposit: DepositPolicy::Uniform,
            max_combinations: 1_000_000_000,
        }
    }

    /// Sets the deposit policy ([`DepositPolicy::Uniform`] is the paper's
    /// basic histogram method; [`DepositPolicy::Midpoint`] produces inner
    /// bounds).
    pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
        self.deposit = deposit;
        self
    }

    /// Sets the combination budget.
    pub fn with_max_combinations(mut self, max: u128) -> Self {
        self.max_combinations = max;
        self
    }

    /// Runs the Section-4 algorithm on `f` over the Cartesian product of
    /// the input bins.
    ///
    /// `f` receives one interval per input (same order as `inputs`) and
    /// must be inclusion-isotonic — every composition of
    /// [`Interval`] primitives is.
    ///
    /// The sweep checks `budget` every 1024 sub-boxes, starting with the
    /// first.
    ///
    /// # Errors
    ///
    /// * [`SnaError::Expr`] ([`sna_expr::ExprError::TooManyCombinations`])
    ///   when the bin product exceeds the combination budget;
    /// * [`SnaError::Hist`] when the output histogram cannot be built
    ///   (degenerate support);
    /// * [`SnaError::DeadlineExceeded`] / [`SnaError::Cancelled`] when
    ///   `budget` runs out mid-sweep.
    pub fn analyze(
        &self,
        inputs: &[UncertainInput],
        f: impl Fn(&[Interval]) -> Interval,
        budget: &Budget,
    ) -> Result<NoiseReport, SnaError> {
        let mut hists = self.sweep(inputs, 1, budget, |ranges, _, out| out[0] = f(ranges))?;
        Ok(NoiseReport::from_histogram(
            hists.pop().expect("one output, one histogram"),
        ))
    }

    /// The Section-4 odometer: one pass over the product of the input
    /// bins that builds the histograms of `n_out` outputs at once.
    ///
    /// `eval(ranges, stale, out)` writes the outputs' intervals over the
    /// box `ranges` into `out`.  Only `ranges[..stale]` can differ from
    /// the box of the previous call; the first call gets the full input
    /// supports, with `stale == inputs.len()`.  Boxes of zero mass are
    /// not evaluated.
    ///
    /// Each output gets a grid over its full-support interval.  A grid
    /// failure is reported after the outputs before it are swept and
    /// finished, the order an output-by-output sweep fails in.
    ///
    /// # Errors
    ///
    /// As [`CartesianEngine::analyze`].
    fn sweep(
        &self,
        inputs: &[UncertainInput],
        n_out: usize,
        budget: &Budget,
        mut eval: impl FnMut(&[Interval], usize, &mut [Interval]),
    ) -> Result<Vec<Histogram>, SnaError> {
        if n_out == 0 {
            return Ok(Vec::new());
        }
        let mut combos: u128 = 1;
        for i in inputs {
            combos = combos.saturating_mul(i.pdf.n_bins() as u128);
        }
        if combos > self.max_combinations {
            return Err(SnaError::Expr(sna_expr::ExprError::TooManyCombinations {
                required: combos,
                budget: self.max_combinations,
            }));
        }

        // Output grids from the full-range interval evaluation.
        let n = inputs.len();
        let mut ranges: Vec<Interval> = inputs
            .iter()
            .map(|i| {
                let (lo, hi) = i.pdf.support();
                Interval::new(lo, hi).expect("pdf support is valid")
            })
            .collect();
        let mut out = vec![Interval::ZERO; n_out];
        eval(&ranges, n, &mut out);
        let mut sinks = Vec::with_capacity(n_out);
        let mut grid_err = None;
        for &full in &out {
            match Grid::over(full, self.out_bins) {
                Ok(grid) => sinks.push(Sink::new(grid)),
                Err(e) => {
                    grid_err = Some(SnaError::Hist(e));
                    break;
                }
            }
        }
        if sinks.is_empty() {
            return Err(grid_err.expect("a grid failed"));
        }

        let limited = !budget.is_unlimited();
        let mut visited: usize = 0;
        let mut idx = vec![0usize; n];
        for (r, input) in ranges.iter_mut().zip(inputs) {
            *r = input.pdf.grid().bin_interval(0);
        }
        let mut stale = n;
        'boxes: loop {
            if limited && visited.is_multiple_of(BUDGET_STRIDE) {
                budget.check()?;
            }
            visited += 1;
            let mut mass = 1.0;
            for (input, &i) in inputs.iter().zip(&idx) {
                mass *= input.pdf.prob(i);
            }
            if mass > 0.0 {
                eval(&ranges, stale, &mut out);
                stale = 0;
                for (sink, &iv) in sinks.iter_mut().zip(&out) {
                    sink.deposit(iv, mass, self.deposit);
                }
            }
            // Odometer: digit `d` moves, the digits below it wrap to 0.
            let mut d = 0;
            loop {
                if d == n {
                    break 'boxes;
                }
                idx[d] += 1;
                if idx[d] < inputs[d].pdf.n_bins() {
                    break;
                }
                idx[d] = 0;
                d += 1;
            }
            for (k, input) in inputs.iter().enumerate().take(d + 1) {
                ranges[k] = input.pdf.grid().bin_interval(idx[k]);
            }
            stale = stale.max(d + 1);
        }
        let hists = sinks
            .into_iter()
            .map(|s| s.acc.finish().map_err(SnaError::Hist))
            .collect::<Result<Vec<_>, _>>()?;
        match grid_err {
            Some(e) => Err(e),
            None => Ok(hists),
        }
    }
}

/// One output's accumulator and its last deposit.  A box that repeats
/// the last deposit's interval and mass bitwise records that deposit,
/// and the boxes after it that repeat it too replay the record; a
/// deposit that is never repeated is never recorded.
struct Sink {
    acc: MassAccumulator,
    /// Bits of the last deposit's interval bounds and mass.
    last: Option<[u64; 3]>,
    /// The adds of the last deposit, when `recorded`.
    adds: Vec<(usize, f64)>,
    recorded: bool,
}

impl Sink {
    fn new(grid: Grid) -> Self {
        Sink {
            acc: MassAccumulator::new(grid),
            last: None,
            adds: Vec::new(),
            recorded: false,
        }
    }

    fn deposit(&mut self, iv: Interval, mass: f64, policy: DepositPolicy) {
        let key = [iv.lo().to_bits(), iv.hi().to_bits(), mass.to_bits()];
        if self.last != Some(key) {
            self.acc.deposit(iv, mass, policy);
            self.last = Some(key);
            self.recorded = false;
        } else if self.recorded {
            self.acc.replay(&self.adds);
        } else {
            self.acc.deposit_recorded(iv, mass, policy, &mut self.adds);
            self.recorded = true;
        }
    }
}

/// A combinational graph compiled for repeated interval evaluation: one
/// slot per node in a reused buffer, and the instructions to re-run per
/// number of stale leading inputs.
struct IntervalProgram {
    slots: Vec<Interval>,
    /// Every instruction, by descending lowest input read and in
    /// topological order among equals: each instruction's operands read
    /// the same or higher inputs, so they come before it.
    instrs: Vec<Instr>,
    /// `starts[s]`: the first instruction that reads one of the inputs
    /// `0..s`, directly or through other instructions.  The suffix from
    /// there is all of them.
    starts: Vec<usize>,
    /// The output nodes' slots.
    outputs: Vec<usize>,
}

/// One node's evaluation: `op` over the slots `a` and `b` (unused
/// operands are 0) into slot `dst`.
#[derive(Clone, Copy)]
struct Instr {
    op: Op,
    dst: usize,
    a: usize,
    b: usize,
}

impl Instr {
    /// The node's interval, by the rule range analysis uses.
    fn eval(&self, slots: &[Interval], ranges: &[Interval]) -> Interval {
        self.op
            .eval_interval(ranges, slots[self.a], slots[self.b], self.a == self.b)
            .expect("sub-box of a checked input box evaluates")
    }
}

impl IntervalProgram {
    /// Compiles a combinational `dfg` whose interval evaluation succeeds
    /// on some input box — constant-only nodes are evaluated here.
    fn compile(dfg: &Dfg) -> Self {
        let n = dfg.n_inputs();
        let mut slots = vec![Interval::ZERO; dfg.len()];
        // The lowest input index each node reads (`n`: none).
        let mut lowest = vec![n; dfg.len()];
        let mut instrs = Vec::new();
        for &id in dfg.topo_order() {
            let node = dfg.node(id);
            let dst = id.index();
            if let Some(r) = dfg.range_override(id) {
                slots[dst] = r;
                continue;
            }
            let args = node.args();
            let instr = Instr {
                op: node.op(),
                dst,
                a: args.first().map_or(0, |a| a.index()),
                b: args.get(1).map_or(0, |b| b.index()),
            };
            lowest[dst] = match node.op() {
                Op::Input(i) => i,
                _ => args.iter().map(|a| lowest[a.index()]).min().unwrap_or(n),
            };
            if lowest[dst] == n {
                slots[dst] = instr.eval(&slots, &[]);
            } else {
                instrs.push((lowest[dst], instr));
            }
        }
        // A stable sort: topological order survives among equals.
        instrs.sort_by_key(|&(low, _)| std::cmp::Reverse(low));
        let starts = (0..=n)
            .map(|s| instrs.partition_point(|&(low, _)| low >= s))
            .collect();
        IntervalProgram {
            slots,
            instrs: instrs.into_iter().map(|(_, instr)| instr).collect(),
            starts,
            outputs: dfg.outputs().iter().map(|(_, id)| id.index()).collect(),
        }
    }

    /// Evaluates the box `ranges`, of which only `ranges[..stale]` differ
    /// from the previous call's, and writes the outputs into `out`.
    fn eval(&mut self, ranges: &[Interval], stale: usize, out: &mut [Interval]) {
        for instr in &self.instrs[self.starts[stale]..] {
            let v = instr.eval(&self.slots, ranges);
            self.slots[instr.dst] = v;
        }
        for (o, &slot) in out.iter_mut().zip(&self.outputs) {
            *o = self.slots[slot];
        }
    }
}

/// The Section-4 algorithm over a combinational graph's *value*
/// uncertainty: every input uniform over its declared range with `bins`
/// bins, every output's PDF from one sweep over the inputs' Cartesian
/// product.  Word lengths play no part.
///
/// # Errors
///
/// [`SnaError::CombinationalOnly`] for sequential graphs,
/// [`SnaError::InvalidInput`] for an input range no histogram can
/// cover, range-analysis failures over the full input box, and
/// [`CartesianEngine::analyze`]'s failures.
pub(crate) fn value_pdfs(
    dfg: &Dfg,
    input_ranges: &[Interval],
    bins: usize,
    budget: &Budget,
) -> Result<Vec<(String, NoiseReport)>, SnaError> {
    if !dfg.is_combinational() {
        return Err(SnaError::CombinationalOnly {
            engine: "cartesian",
        });
    }
    let inputs: Vec<UncertainInput> = dfg
        .input_names()
        .iter()
        .zip(input_ranges)
        .map(|(name, range)| {
            UncertainInput::uniform(name.clone(), range.lo(), range.hi(), bins).map_err(|e| {
                SnaError::InvalidInput {
                    name: name.clone(),
                    message: e.to_string(),
                }
            })
        })
        .collect::<Result<_, _>>()?;
    // Fail early (and only once) if interval evaluation cannot cover
    // the full input box — sub-boxes are subsets, so they inherit
    // success.
    dfg.output_ranges(input_ranges, &RangeOptions::default())?;

    // Compiled on the first box, after the sweep's combination check.
    let mut program = None;
    let hists = CartesianEngine::new(bins.max(2) * 2).sweep(
        &inputs,
        dfg.outputs().len(),
        budget,
        |ranges, stale, out| {
            program
                .get_or_insert_with(|| IntervalProgram::compile(dfg))
                .eval(ranges, stale, out)
        },
    )?;
    Ok(dfg
        .outputs()
        .iter()
        .zip(hists)
        .map(|((name, _), h)| (name.clone(), NoiseReport::from_histogram(h)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_inputs(g: usize) -> Vec<UncertainInput> {
        vec![
            UncertainInput::uniform("x", -1.0, 1.0, g).unwrap(),
            UncertainInput::uniform("a", 9.0, 10.0, g).unwrap(),
            UncertainInput::uniform("b", -6.0, -4.0, g).unwrap(),
            UncertainInput::uniform("c", 6.0, 7.0, g).unwrap(),
        ]
    }

    fn quadratic(v: &[Interval]) -> Interval {
        v[1] * v[0].sqr() + v[2] * v[0] + v[3]
    }

    #[test]
    fn quadratic_bounds_tighten_with_granularity() {
        // The paper's Table 2: bounds converge monotonically toward the
        // true range [5, 23] (error range [-1.5, 16.5] around center 6.5).
        let mut widths = Vec::new();
        for g in [2usize, 4, 8, 16] {
            let report = CartesianEngine::new(64)
                .analyze(&quadratic_inputs(g), quadratic, &Budget::unlimited())
                .unwrap();
            // Bounds always enclose the true range.
            assert!(
                report.support.0 <= 5.0 + 1e-9,
                "g={g}: {:?}",
                report.support
            );
            assert!(
                report.support.1 >= 23.0 - 1e-9,
                "g={g}: {:?}",
                report.support
            );
            widths.push(report.support.1 - report.support.0);
        }
        for w in widths.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "widths must shrink: {widths:?}");
        }
        // At g=16 the overestimate is below one coarse bin.
        assert!(*widths.last().unwrap() < 18.0 + 1.5);
    }

    #[test]
    fn quadratic_moments_approach_analytic_values() {
        // E[y] = E[a]E[x²] + E[b]E[x] + E[c] = 9.5/3 + 6.5.
        // Var(y) = 16.5667 (see the paper's "Actual Values" row).
        let report = CartesianEngine::new(128)
            .analyze(&quadratic_inputs(32), quadratic, &Budget::unlimited())
            .unwrap();
        let expected_mean = 9.5 / 3.0 + 6.5;
        assert!(
            (report.mean - expected_mean).abs() < 0.05,
            "mean {} vs {expected_mean}",
            report.mean
        );
        assert!(
            (report.variance - 16.5667).abs() < 0.9,
            "variance {}",
            report.variance
        );
    }

    #[test]
    fn sna_is_tighter_than_affine_on_the_quadratic() {
        // AA yields [-10, 23]; SNA support at g>=8 must beat its width 33.
        let report = CartesianEngine::new(64)
            .analyze(&quadratic_inputs(8), quadratic, &Budget::unlimited())
            .unwrap();
        let width = report.support.1 - report.support.0;
        assert!(width < 33.0 - 5.0, "width {width}");
    }

    #[test]
    fn budget_is_enforced() {
        let inputs = quadratic_inputs(64);
        let err = CartesianEngine::new(64)
            .with_max_combinations(1000)
            .analyze(&inputs, quadratic, &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, SnaError::Expr(_)));
    }

    #[test]
    fn midpoint_deposit_gives_inner_bounds() {
        let outer = CartesianEngine::new(64)
            .analyze(&quadratic_inputs(8), quadratic, &Budget::unlimited())
            .unwrap();
        let inner = CartesianEngine::new(64)
            .with_deposit(DepositPolicy::Midpoint)
            .analyze(&quadratic_inputs(8), quadratic, &Budget::unlimited())
            .unwrap();
        assert!(inner.support.0 >= outer.support.0 - 1e-9);
        assert!(inner.support.1 <= outer.support.1 + 1e-9);
    }

    #[test]
    fn custom_pdfs_shift_the_output() {
        // A triangular x concentrates mass near 0 ⇒ y concentrates near c.
        let g = 16;
        let tri =
            UncertainInput::with_pdf("x", sna_hist::Histogram::triangular(-1.0, 1.0, g).unwrap());
        let mut inputs = quadratic_inputs(g);
        inputs[0] = tri;
        let report = CartesianEngine::new(64)
            .analyze(&inputs, quadratic, &Budget::unlimited())
            .unwrap();
        let uniform_report = CartesianEngine::new(64)
            .analyze(&quadratic_inputs(g), quadratic, &Budget::unlimited())
            .unwrap();
        // x² smaller in expectation ⇒ smaller mean.
        assert!(report.mean < uniform_report.mean);
    }

    #[test]
    fn a_wide_sum_compiles_to_one_instruction_per_node() {
        // A left-folded sum: every running total reads input 0, so each
        // is downstream of every digit, and is still stored once.
        let n = 4096;
        let mut b = sna_dfg::DfgBuilder::new();
        let mut acc = b.input("v0");
        for i in 1..n {
            let v = b.input(format!("v{i}"));
            acc = b.add(acc, v);
        }
        b.output("y", acc);
        let dfg = b.build().unwrap();
        let program = IntervalProgram::compile(&dfg);
        assert_eq!(program.instrs.len(), dfg.len());
        assert_eq!(program.starts.len(), n + 1);
        assert_eq!(program.starts[0], dfg.len());
        assert_eq!(program.starts[n], 0);
        // Input 0 and the n - 1 running totals.
        assert_eq!(dfg.len() - program.starts[1], n);

        // One bin per input is one box; two per input fail the
        // combination check before anything is compiled.
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); n];
        let reports = value_pdfs(&dfg, &ranges, 1, &Budget::unlimited()).unwrap();
        assert_eq!(reports[0].1.support, (-(n as f64), n as f64));
        let err = value_pdfs(&dfg, &ranges, 2, &Budget::unlimited()).unwrap_err();
        assert!(matches!(
            err,
            SnaError::Expr(sna_expr::ExprError::TooManyCombinations { .. })
        ));
    }

    #[test]
    fn single_input_identity() {
        let inputs = vec![UncertainInput::uniform("x", 2.0, 4.0, 32).unwrap()];
        let report = CartesianEngine::new(32)
            .analyze(&inputs, |v| v[0], &Budget::unlimited())
            .unwrap();
        assert!((report.mean - 3.0).abs() < 1e-9);
        assert!((report.variance - 4.0 / 12.0).abs() < 1e-9);
        assert_eq!(report.support, (2.0, 4.0));
    }
}
