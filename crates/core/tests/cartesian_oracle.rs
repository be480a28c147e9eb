//! Bit-identity oracle for the Cartesian engine's one-pass sweep.
//!
//! `reference` keeps the per-output formulation the sweep replaced,
//! verbatim: one odometer per output, every sub-box evaluated with a full
//! `Dfg::output_ranges`, and multi-output graphs sharing a bounded memo of
//! per-box output vectors.  `engine:cartesian` must produce the same
//! outputs, the same grids and the same bits in every mass and moment —
//! or the same error.

use std::path::PathBuf;
use std::time::Duration;

use sna_core::{
    AnalysisRequest, Budget, CartesianEngine, EngineKind, NoiseReport, Session, SnaError,
    UncertainInput,
};
use sna_hist::{DepositPolicy, Histogram};
use sna_interval::Interval;
use sna_lang::{BinaryOp, Expr, ExprKind, Ident, IndexKind, InputRange, Program, Span, Stmt};

/// The per-output sweep, verbatim apart from the engine becoming a
/// local struct.
mod reference {
    use std::cell::RefCell;
    use std::collections::HashMap;

    use sna_core::{Budget, NoiseReport, SnaError, UncertainInput};
    use sna_dfg::{Dfg, RangeOptions};
    use sna_hist::{DepositPolicy, Grid, MassAccumulator};
    use sna_interval::Interval;

    const BUDGET_STRIDE: usize = 1024;

    pub struct CartesianEngine {
        out_bins: usize,
        deposit: DepositPolicy,
        max_combinations: u128,
    }

    impl CartesianEngine {
        pub fn new(out_bins: usize) -> Self {
            CartesianEngine {
                out_bins,
                deposit: DepositPolicy::Uniform,
                max_combinations: 1_000_000_000,
            }
        }

        pub fn with_deposit(mut self, deposit: DepositPolicy) -> Self {
            self.deposit = deposit;
            self
        }

        pub fn analyze(
            &self,
            inputs: &[UncertainInput],
            f: impl Fn(&[Interval]) -> Interval,
            budget: &Budget,
        ) -> Result<NoiseReport, SnaError> {
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

            // Output grid from the full-range interval evaluation.
            let full_ranges: Vec<Interval> = inputs
                .iter()
                .map(|i| {
                    let (lo, hi) = i.pdf.support();
                    Interval::new(lo, hi).expect("pdf support is valid")
                })
                .collect();
            let full = f(&full_ranges);
            let grid = Grid::over(full, self.out_bins).map_err(SnaError::Hist)?;
            let mut acc = MassAccumulator::new(grid);

            let limited = !budget.is_unlimited();
            let mut visited: usize = 0;
            let mut idx = vec![0usize; inputs.len()];
            let mut ranges = full_ranges.clone();
            loop {
                if limited && visited.is_multiple_of(BUDGET_STRIDE) {
                    budget.check()?;
                }
                visited += 1;
                let mut mass = 1.0;
                for (k, input) in inputs.iter().enumerate() {
                    ranges[k] = input.pdf.grid().bin_interval(idx[k]);
                    mass *= input.pdf.prob(idx[k]);
                }
                if mass > 0.0 {
                    acc.deposit(f(&ranges), mass, self.deposit);
                }
                // Odometer.
                let mut k = 0;
                loop {
                    if k == idx.len() {
                        let hist = acc.finish().map_err(SnaError::Hist)?;
                        return Ok(NoiseReport::from_histogram(hist));
                    }
                    idx[k] += 1;
                    if idx[k] < inputs[k].pdf.n_bins() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
            }
        }
    }

    pub fn value_pdfs(
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

        let engine = CartesianEngine::new(bins.max(2) * 2);
        // The engine sweeps every input sub-box once *per analyzed output*,
        // and each interval evaluation computes all outputs at once.
        // Memoize the per-sub-box output vector (bounded) so multi-output
        // datapaths pay for one sweep's worth of interval evaluations, not k.
        const MEMO_CAP: usize = 1 << 20;
        let multi_output = dfg.outputs().len() > 1;
        let memo: RefCell<HashMap<Vec<u64>, Vec<Interval>>> = RefCell::new(HashMap::new());
        let eval_outputs = |ranges: &[Interval]| -> Vec<Interval> {
            let compute = || {
                dfg.output_ranges(ranges, &RangeOptions::default())
                    .expect("sub-box of a checked input box evaluates")
                    .into_iter()
                    .map(|(_, iv)| iv)
                    .collect::<Vec<_>>()
            };
            if !multi_output {
                return compute();
            }
            let key: Vec<u64> = ranges
                .iter()
                .flat_map(|r| [r.lo().to_bits(), r.hi().to_bits()])
                .collect();
            if let Some(cached) = memo.borrow().get(&key) {
                return cached.clone();
            }
            let value = compute();
            let mut memo = memo.borrow_mut();
            if memo.len() < MEMO_CAP {
                memo.insert(key, value.clone());
            }
            value
        };
        dfg.outputs()
            .iter()
            .enumerate()
            .map(|(k, (name, _))| {
                let report = engine.analyze(&inputs, |ranges| eval_outputs(ranges)[k], budget)?;
                Ok((name.clone(), report))
            })
            .collect()
    }
}

/// Everything a report carries, as bits: moments, support, grid and
/// masses.
fn report_bits(r: &NoiseReport) -> Vec<u64> {
    let mut bits = vec![
        r.mean.to_bits(),
        r.variance.to_bits(),
        r.power.to_bits(),
        r.support.0.to_bits(),
        r.support.1.to_bits(),
    ];
    let h = r.histogram.as_ref().expect("cartesian reports carry a PDF");
    bits.extend([
        h.n_bins() as u64,
        h.grid().lo().to_bits(),
        h.grid().hi().to_bits(),
    ]);
    bits.extend(h.probs().iter().map(|m| m.to_bits()));
    bits
}

type Outcome = Result<Vec<(String, Vec<u64>)>, String>;

fn outcome(result: Result<Vec<(String, NoiseReport)>, SnaError>) -> Outcome {
    result
        .map(|reports| {
            reports
                .iter()
                .map(|(name, r)| (name.clone(), report_bits(r)))
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// `engine:cartesian` through a session, and the reference, on the same
/// graph and request.
fn both(session: &Session, bins: usize, budget: Budget) -> (Outcome, Outcome) {
    let req = AnalysisRequest {
        engine: EngineKind::Cartesian,
        bins,
        include_pdf: true,
        budget: budget.clone(),
        ..AnalysisRequest::default()
    };
    let swept = session.analyze(&req).map(|r| r.reports);
    let reference = reference::value_pdfs(session.dfg(), session.input_ranges(), bins, &budget);
    (outcome(swept), outcome(reference))
}

// ----------------------------------------------------------------------
// Random combinational programs: the DSL proptest generator without
// delays and taps, dividing by nonzero literals only, with point ranges
// among the input ranges and override clauses.
// ----------------------------------------------------------------------

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn number(&mut self) -> f64 {
        (self.below(4001) as f64 - 2000.0) / 16.0
    }
}

fn ident(name: &str) -> Ident {
    Ident {
        name: name.to_string(),
        span: Span::default(),
    }
}

fn expr(kind: ExprKind) -> Expr {
    Expr {
        kind,
        span: Span::default(),
    }
}

/// Scalar names in scope, and vector banks as `(name, width)`.
struct Scope {
    names: Vec<String>,
    vectors: Vec<(String, usize)>,
}

fn random_expr(g: &mut Gen, scope: &Scope, depth: usize) -> Expr {
    if depth == 0 || g.below(3) == 0 {
        return match g.below(5) {
            0 => expr(ExprKind::Number(g.number())),
            1 if !scope.vectors.is_empty() => {
                let (name, width) = &scope.vectors[g.below(scope.vectors.len() as u64) as usize];
                expr(ExprKind::Index {
                    base: name.clone(),
                    index: IndexKind::Element(g.below(*width as u64) as usize),
                })
            }
            _ if !scope.names.is_empty() => {
                let k = g.below(scope.names.len() as u64) as usize;
                expr(ExprKind::Var(scope.names[k].clone()))
            }
            _ => expr(ExprKind::Number(g.number())),
        };
    }
    let (op, rhs) = match g.below(5) {
        0 => (BinaryOp::Add, random_expr(g, scope, depth - 1)),
        1 => (BinaryOp::Sub, random_expr(g, scope, depth - 1)),
        2 | 3 => (BinaryOp::Mul, random_expr(g, scope, depth - 1)),
        _ => {
            // Division by a nonzero constant.
            let d = g.number();
            let d = if d == 0.0 { 0.5 } else { d };
            (BinaryOp::Div, expr(ExprKind::Number(d)))
        }
    };
    let lhs = random_expr(g, scope, depth - 1);
    expr(ExprKind::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    })
}

/// A random range, a point one time in `point_odds`.
fn random_range(g: &mut Gen, point_odds: u64) -> InputRange {
    let (lo, hi) = if g.below(point_odds) == 0 {
        let c = g.number() / 8.0;
        (c, c)
    } else {
        (
            -(1.0 + g.below(8) as f64) / 2.0,
            (1.0 + g.below(8) as f64) / 2.0,
        )
    };
    InputRange {
        lo,
        hi,
        span: Span::default(),
    }
}

fn random_program(seed: u64) -> Program {
    let mut g = Gen::new(seed);
    let mut stmts = Vec::new();
    let mut scope = Scope {
        names: Vec::new(),
        vectors: Vec::new(),
    };
    for k in 0..1 + g.below(3) {
        let name = format!("x{k}");
        let range = (g.below(3) != 0).then(|| random_range(&mut g, 16));
        stmts.push(Stmt::Input {
            name: ident(&name),
            width: None,
            range,
        });
        scope.names.push(name);
    }
    if g.below(2) == 0 {
        let width = 2 + g.below(3) as usize;
        let range = (g.below(2) == 0).then(|| random_range(&mut g, 16));
        stmts.push(Stmt::Input {
            name: ident("vec"),
            width: Some((width, Span::default())),
            range,
        });
        scope.vectors.push(("vec".into(), width));
    }
    for k in 0..g.below(5) {
        let name = format!("v{k}");
        let e = random_expr(&mut g, &scope, 3);
        // An override clause needs a node of its own: a binary root.
        let range = (matches!(e.kind, ExprKind::Binary { .. }) && g.below(2) == 0)
            .then(|| random_range(&mut g, 6));
        stmts.push(Stmt::Let {
            name: ident(&name),
            expr: e,
            range,
        });
        scope.names.push(name);
    }
    for k in 0..1 + g.below(3) {
        // An output depends on something besides literals, mostly: a
        // point output has no grid and fails the whole analysis.
        let e = match random_expr(&mut g, &scope, 2) {
            Expr {
                kind: ExprKind::Number(_),
                ..
            } => expr(ExprKind::Var(
                scope.names[g.below(scope.names.len() as u64) as usize].clone(),
            )),
            e => e,
        };
        let range = (matches!(e.kind, ExprKind::Binary { .. }) && g.below(4) == 0)
            .then(|| random_range(&mut g, 6));
        stmts.push(Stmt::Output {
            name: ident(&format!("out{k}")),
            expr: Some(e),
            range,
        });
    }
    Program { stmts }
}

#[test]
fn random_programs_sweep_bit_identically() {
    let (mut compared, mut multi_output, mut overridden, mut vectors) = (0, 0, 0, 0);
    let mut errors = 0;
    for seed in 0..240u64 {
        let program = random_program(seed);
        let Ok(lowered) = sna_lang::lower(&program) else {
            continue;
        };
        let dfg = &lowered.dfg;
        // 1–6 bins, fewer where the input count makes the product large.
        let mut bins = 1 + (seed % 6) as usize;
        while bins > 1 && bins.pow(dfg.n_inputs() as u32) > 20_000 {
            bins -= 1;
        }
        let has_override = dfg.nodes().any(|(id, _)| dfg.range_override(id).is_some());
        let has_vector = dfg.input_names().iter().any(|n| n.contains('['));
        let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
        let (swept, reference) = both(&session, bins, Budget::unlimited());
        assert_eq!(swept, reference, "seed {seed}, {bins} bins:\n{program}");
        compared += 1;
        if swept.is_err() {
            errors += 1;
            continue;
        }
        multi_output += usize::from(session.dfg().outputs().len() > 1);
        overridden += usize::from(has_override);
        vectors += usize::from(has_vector);
    }
    assert!(compared >= 200, "only {compared} programs lowered");
    assert!(errors < compared / 4, "{errors} of {compared} failed");
    assert!(multi_output >= 60, "{multi_output} multi-output programs");
    assert!(overridden >= 60, "{overridden} programs with overrides");
    assert!(vectors >= 40, "{vectors} programs with vector banks");
}

/// `CartesianEngine::analyze` with non-uniform input PDFs, so box masses
/// vary: a function blind to the fastest input repeats its interval from
/// box to box while the mass changes.
#[test]
fn analyze_with_custom_pdfs_matches_the_reference() {
    type F = fn(&[Interval]) -> Interval;
    let functions: [F; 3] = [
        |v| v[1] * v[0].sqr() + v[2] * v[0],
        |v| v[1] * v[2] + v[1],
        |v| v[2] - v[1].sqr(),
    ];
    for g in [1, 3, 8] {
        let inputs = vec![
            UncertainInput::with_pdf("x", Histogram::triangular(-1.0, 1.0, g).unwrap()),
            UncertainInput::uniform("a", 9.0, 10.0, g).unwrap(),
            UncertainInput::with_pdf("b", Histogram::triangular(-6.0, -4.0, g + 1).unwrap()),
        ];
        for policy in [DepositPolicy::Uniform, DepositPolicy::Midpoint] {
            for f in functions {
                let swept = CartesianEngine::new(24)
                    .with_deposit(policy)
                    .analyze(&inputs, f, &Budget::unlimited())
                    .unwrap();
                let reference = reference::CartesianEngine::new(24)
                    .with_deposit(policy)
                    .analyze(&inputs, f, &Budget::unlimited())
                    .unwrap();
                assert_eq!(
                    report_bits(&swept),
                    report_bits(&reference),
                    "{g} {policy:?}"
                );
            }
        }
    }
}

/// The shipped combinational examples.
fn example_sessions() -> Vec<(String, Session)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut out: Vec<(String, Session)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "sna") {
                return None;
            }
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let lowered = sna_lang::compile(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|d| panic!("{name}: {d:?}"));
            lowered.dfg.is_combinational().then(|| {
                let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
                (name, session)
            })
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    let names: Vec<&str> = out.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["quadratic.sna", "rgb.sna", "vec_dot.sna"]);
    out
}

#[test]
fn shipped_examples_sweep_bit_identically_at_16_bins() {
    for (name, session) in example_sessions() {
        let (swept, reference) = both(&session, 16, Budget::unlimited());
        assert!(swept.is_ok(), "{name}: {swept:?}");
        assert_eq!(swept, reference, "{name}");
    }
}

#[test]
fn an_overrun_budget_still_fails_as_deadline_exceeded() {
    for (name, session) in example_sessions() {
        let (swept, reference) = both(&session, 16, Budget::with_timeout(Duration::ZERO));
        let deadline = Err(SnaError::DeadlineExceeded.to_string());
        assert_eq!(swept, deadline, "{name}");
        assert_eq!(reference, deadline, "{name}");
    }
}

/// A point output has no grid: the error surfaces after the outputs
/// before it, as in the per-output sweep.
#[test]
fn a_point_output_fails_as_the_per_output_sweep_does() {
    let src = "input x in [-1, 1];\ny = 2*x;\nz = x*x range [1, 1];\noutput y;\noutput z;\n";
    let lowered = sna_lang::compile(src).unwrap();
    let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
    let (swept, reference) = both(&session, 8, Budget::unlimited());
    assert!(swept.is_err());
    assert_eq!(swept, reference);
}
