//! Property-based tests for the DSL pipeline.
//!
//! The central invariant is the round trip: pretty-printing a random
//! program and re-parsing it must reproduce the same canonical form, and
//! lowering both must produce structurally identical graphs with
//! bit-identical simulation traces.
//!
//! A second invariant backs `Dfg::shape_signature`, the shape part of a
//! sweep checkpoint's identity: when two programs that differ only in
//! literal values lower to graphs with equal signatures, the second
//! graph *is* the first one's with the constants swapped, node for node.

use proptest::prelude::*;
use sna_lang::{
    canonical_fingerprint, compile, lower, parse, BinaryOp, Expr, ExprKind, Ident, IndexKind,
    InputRange, Program, Span, Stmt, UnaryOp,
};

// ----------------------------------------------------------------------
// Random program generation (seed-driven, so it composes with the
// proptest strategies without needing recursive combinators)
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

    /// Dyadic rationals keep the printed forms short; any f64 would
    /// round-trip, this just keeps failure output readable.
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

/// What a random expression may reference: scalar names, *tappable*
/// scalar sources (`s[n-k]` sugar), and vector input banks (`v[i]`).
struct Scope {
    names: Vec<String>,
    /// Names whose delay chain the generator may tap (scalar inputs —
    /// always defined before use).
    tappable: Vec<String>,
    /// Vector banks as `(name, width)`.
    vectors: Vec<(String, usize)>,
}

/// A random expression over `scope`, with all six operators plus the
/// index forms reachable.
fn random_expr(g: &mut Gen, scope: &Scope, depth: usize) -> Expr {
    if depth == 0 || g.below(3) == 0 {
        // Leaves: literals, scalar refs, vector elements, tap indices.
        return match g.below(6) {
            0 | 1 => expr(ExprKind::Number(g.number())),
            2 if !scope.vectors.is_empty() => {
                let (name, width) = &scope.vectors[g.below(scope.vectors.len() as u64) as usize];
                expr(ExprKind::Index {
                    base: name.clone(),
                    index: IndexKind::Element(g.below(*width as u64) as usize),
                })
            }
            3 if !scope.tappable.is_empty() => {
                let name = &scope.tappable[g.below(scope.tappable.len() as u64) as usize];
                expr(ExprKind::Index {
                    base: name.clone(),
                    index: IndexKind::Tap(g.below(4) as usize),
                })
            }
            _ if !scope.names.is_empty() => {
                let k = g.below(scope.names.len() as u64) as usize;
                expr(ExprKind::Var(scope.names[k].clone()))
            }
            _ => expr(ExprKind::Number(g.number())),
        };
    }
    match g.below(6) {
        0..=3 => {
            let op = match g.below(4) {
                0 => BinaryOp::Add,
                1 => BinaryOp::Sub,
                2 => BinaryOp::Mul,
                _ => BinaryOp::Div,
            };
            let lhs = random_expr(g, scope, depth - 1);
            let rhs = random_expr(g, scope, depth - 1);
            expr(ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        }
        4 => {
            let operand = random_expr(g, scope, depth - 1);
            // `-literal` folds to a literal at parse time; fold here too
            // so printing stays canonical.
            if let ExprKind::Number(v) = operand.kind {
                expr(ExprKind::Number(-v))
            } else {
                expr(ExprKind::Unary {
                    op: UnaryOp::Neg,
                    operand: Box::new(operand),
                })
            }
        }
        _ => {
            let operand = random_expr(g, scope, depth - 1);
            expr(ExprKind::Unary {
                op: UnaryOp::Delay,
                operand: Box::new(operand),
            })
        }
    }
}

/// A random `[lo, hi]` pair with `lo < 0 < hi`.
fn random_range(g: &mut Gen) -> InputRange {
    InputRange {
        lo: -(1.0 + g.below(8) as f64) / 2.0,
        hi: (1.0 + g.below(8) as f64) / 2.0,
        span: Span::default(),
    }
}

/// A random well-formed program: scalar and vector inputs (some with
/// ranges), straight-line bindings (some with `range` override clauses,
/// some using tap-index sugar), optional `delay`-feedback, one or two
/// outputs.
fn random_program(seed: u64) -> Program {
    let mut g = Gen::new(seed);
    let mut stmts = Vec::new();
    let mut scope = Scope {
        names: Vec::new(),
        tappable: Vec::new(),
        vectors: Vec::new(),
    };

    let n_inputs = 1 + g.below(3) as usize;
    for k in 0..n_inputs {
        let name = format!("x{k}");
        let range = if g.below(2) == 0 {
            Some(random_range(&mut g))
        } else {
            None
        };
        stmts.push(Stmt::Input {
            name: ident(&name),
            width: None,
            range,
        });
        scope.tappable.push(name.clone());
        scope.names.push(name);
    }

    // Optionally a vector input bank.
    if g.below(2) == 0 {
        let width = 2 + g.below(3) as usize;
        let range = if g.below(2) == 0 {
            Some(random_range(&mut g))
        } else {
            None
        };
        stmts.push(Stmt::Input {
            name: ident("vec"),
            width: Some((width, Span::default())),
            range,
        });
        scope.vectors.push(("vec".into(), width));
    }

    // Optional feedback: a forward `delay` reference to the final `out`.
    let feedback = g.below(2) == 0;
    if feedback {
        stmts.push(Stmt::Let {
            name: ident("fb"),
            expr: expr(ExprKind::Unary {
                op: UnaryOp::Delay,
                operand: Box::new(expr(ExprKind::Var("out".into()))),
            }),
            range: None,
        });
        scope.names.push("fb".into());
    }

    let n_lets = g.below(5) as usize;
    for k in 0..n_lets {
        let name = format!("v{k}");
        let e = random_expr(&mut g, &scope, 3);
        // A `range` override clause needs a node of its own, which a
        // binary root always creates (aliases and shared literals are
        // rejected by lowering).
        let range = if matches!(e.kind, ExprKind::Binary { .. }) && g.below(3) == 0 {
            Some(random_range(&mut g))
        } else {
            None
        };
        // `v = w;` aliases are legal but print-canonical only when the
        // alias target is not itself renamed; keep them (they round-trip).
        stmts.push(Stmt::Let {
            name: ident(&name),
            expr: e,
            range,
        });
        scope.names.push(name);
    }

    // The mandatory output closes any feedback loop.
    let closing = random_expr(&mut g, &scope, 2);
    let closing = if feedback {
        // Keep the loop gain bounded so traces stay finite: out depends
        // on fb through a contracting multiply.
        expr(ExprKind::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(expr(ExprKind::Binary {
                op: BinaryOp::Mul,
                lhs: Box::new(expr(ExprKind::Number(0.25))),
                rhs: Box::new(expr(ExprKind::Var("fb".into()))),
            })),
            rhs: Box::new(closing),
        })
    } else {
        closing
    };
    let out_range = if matches!(closing.kind, ExprKind::Binary { .. }) && g.below(4) == 0 {
        Some(random_range(&mut g))
    } else {
        None
    };
    stmts.push(Stmt::Output {
        name: ident("out"),
        expr: Some(closing),
        range: out_range,
    });
    if g.below(2) == 0 {
        let e = random_expr(&mut g, &scope, 2);
        stmts.push(Stmt::Output {
            name: ident("out2"),
            expr: Some(e),
            range: None,
        });
    }
    Program { stmts }
}

/// Division can produce non-finite values or simulator errors (division
/// by zero); compare traces bit-for-bit and stop at the first error —
/// both graphs must fail identically.
fn trace_bits(dfg: &sna_dfg::Dfg, frames: &[Vec<f64>]) -> Vec<Result<Vec<u64>, String>> {
    let mut sim = sna_dfg::Simulator::new(dfg);
    let mut out = Vec::new();
    for frame in frames {
        match sim.step(frame) {
            Ok(values) => out.push(Ok(values.into_iter().map(f64::to_bits).collect())),
            Err(e) => {
                out.push(Err(e.to_string()));
                break;
            }
        }
    }
    out
}

/// `program` with every literal (bare and `let`-bound) replaced by
/// `perturb(literal)`.
fn perturb_literals(program: &Program, perturb: &mut dyn FnMut(f64) -> f64) -> Program {
    fn walk(e: &mut Expr, perturb: &mut dyn FnMut(f64) -> f64) {
        match &mut e.kind {
            ExprKind::Number(v) => *v = perturb(*v),
            ExprKind::Unary { operand, .. } => walk(operand, perturb),
            ExprKind::Binary { lhs, rhs, .. } => {
                walk(lhs, perturb);
                walk(rhs, perturb);
            }
            ExprKind::Var(_) | ExprKind::Index { .. } => {}
        }
    }
    let mut out = program.clone();
    for stmt in &mut out.stmts {
        match stmt {
            Stmt::Let { expr, .. }
            | Stmt::Output {
                expr: Some(expr), ..
            } => walk(expr, perturb),
            Stmt::ConstLet { value, .. } => *value = perturb(*value),
            Stmt::Input { .. } | Stmt::Output { expr: None, .. } => {}
        }
    }
    out
}

/// Every literal of `program`, in statement order.
fn literals(program: &Program) -> Vec<f64> {
    let mut seen = Vec::new();
    perturb_literals(program, &mut |v| {
        seen.push(v);
        v
    });
    seen
}

/// Asserts that two graphs agree node for node — op (constants by bit
/// pattern), arguments, names — and in topological order, delays,
/// outputs, input names and range overrides.
fn assert_same_graph(a: &sna_dfg::Dfg, b: &sna_dfg::Dfg, seed: u64) {
    assert_eq!(a.len(), b.len(), "seed {seed}");
    for ((id, na), (_, nb)) in a.nodes().zip(b.nodes()) {
        let same_op = match (na.op(), nb.op()) {
            (sna_dfg::Op::Const(x), sna_dfg::Op::Const(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        };
        assert!(
            same_op,
            "seed {seed}: {id} is {:?} vs {:?}",
            na.op(),
            nb.op()
        );
        assert_eq!(na.args(), nb.args(), "seed {seed}: args of {id}");
        assert_eq!(
            a.node_name(id),
            b.node_name(id),
            "seed {seed}: name of {id}"
        );
        assert_eq!(
            a.range_override(id),
            b.range_override(id),
            "seed {seed}: override of {id}"
        );
    }
    assert_eq!(a.topo_order(), b.topo_order(), "seed {seed}");
    assert_eq!(a.delay_nodes(), b.delay_nodes(), "seed {seed}");
    assert_eq!(a.outputs(), b.outputs(), "seed {seed}");
    assert_eq!(a.input_names(), b.input_names(), "seed {seed}");
}

/// Lowers a random program and a literal-perturbed copy; checks that
/// their shape signatures agree exactly when the literal pattern
/// survives, and that an equal signature means a constant swap (see the
/// module docs).
fn check_constant_swap(seed: u64) {
    let base_program = random_program(seed);
    let Ok(base) = lower(&base_program) else {
        return; // a randomly degenerate program
    };
    // An affine map keeps the literal pattern (which literals are
    // equal) unless it folds `0.0` and `-0.0` together; collapsing
    // every literal onto one of two values usually breaks it, so
    // both branches of the invariant are exercised.
    let mut g = Gen::new(seed ^ 0x5eed);
    let scale = [1.5, -2.0, 0.5, 3.0][g.below(4) as usize];
    let shift = g.number() / 64.0;
    let collapse = g.below(4) == 0;
    let mut perturb = |v: f64| {
        if collapse {
            0.25 + g.below(2) as f64
        } else {
            v * scale + shift
        }
    };
    let perturbed_program = perturb_literals(&base_program, &mut perturb);
    let perturbed = lower(&perturbed_program)
        .unwrap_or_else(|e| panic!("seed {seed}: literal change broke lowering: {e:?}"));

    let same_pattern = {
        let (old, new) = (literals(&base_program), literals(&perturbed_program));
        old.len() == new.len()
            && (0..old.len()).all(|i| {
                (0..old.len()).all(|j| {
                    (old[i].to_bits() == old[j].to_bits()) == (new[i].to_bits() == new[j].to_bits())
                })
            })
    };
    let same_key = base.dfg.shape_signature() == perturbed.dfg.shape_signature();
    // Lowering dedups constants by value and nothing else depends
    // on values, so the shape moves exactly when the pattern does.
    assert_eq!(same_key, same_pattern, "seed {seed}");
    if same_key {
        let swapped = base
            .dfg
            .with_const_values(&perturbed.dfg.const_values())
            .expect("equal shapes have equal constant counts");
        assert_same_graph(&perturbed.dfg, &swapped, seed);
        assert_eq!(perturbed.input_ranges, base.input_ranges, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_printing_reaches_a_fixpoint_after_one_parse(seed in 0u64..1_000_000_000) {
        let program = random_program(seed);
        let printed = program.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: canonical form does not parse: {e:?}\n{printed}"));
        prop_assert_eq!(reparsed.to_string(), printed.clone());
        // The canonical fingerprint is stable across the round trip …
        prop_assert_eq!(
            canonical_fingerprint(&program),
            canonical_fingerprint(&reparsed),
            "seed {}", seed
        );
        // … and a second parse reproduces the identical AST (spans
        // included: the canonical form *is* the parsed source now).
        let reparsed2 = parse(&reparsed.to_string()).expect("canonical form parses");
        prop_assert_eq!(reparsed2, reparsed, "seed {}", seed);
    }

    #[test]
    fn lowering_is_invariant_under_the_round_trip(seed in 0u64..1_000_000_000) {
        let program = random_program(seed);
        let printed = program.to_string();
        let original = lower(&program);
        let reparsed = compile(&printed);
        match (original, reparsed) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.dfg.op_counts(), b.dfg.op_counts(), "seed {}", seed);
                prop_assert_eq!(a.dfg.len(), b.dfg.len(), "seed {}", seed);
                prop_assert_eq!(&a.input_ranges, &b.input_ranges, "seed {}", seed);
                let mut g = Gen::new(seed ^ 0xdead_beef);
                let frames: Vec<Vec<f64>> = (0..20)
                    .map(|_| (0..a.dfg.n_inputs()).map(|_| g.number() / 100.0).collect())
                    .collect();
                prop_assert_eq!(
                    trace_bits(&a.dfg, &frames),
                    trace_bits(&b.dfg, &frames),
                    "seed {}",
                    seed
                );
            }
            (Err(ea), Err(eb)) => {
                // Both reject (e.g. a randomly-degenerate program): the
                // round trip must at least agree on rejection.
                prop_assert_eq!(ea.len(), eb.len(), "seed {}", seed);
            }
            (a, b) => panic!("seed {seed}: lowering disagreement: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn random_numbers_round_trip_exactly(bits in 0u64..u64::MAX) {
        // Any finite f64 literal printed canonically must re-parse to the
        // same bits (the foundation of the designs-equivalence tests).
        let v = f64::from_bits(bits);
        if v.is_finite() && v >= 0.0 {
            let src = format!("input x;\noutput y = x + {v};\n");
            let lowered = compile(&src).unwrap();
            let consts: Vec<f64> = lowered
                .dfg
                .nodes()
                .filter_map(|(_, n)| match n.op() {
                    sna_dfg::Op::Const(c) => Some(c),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(consts.len(), 1);
            prop_assert_eq!(consts[0].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn equal_shape_keys_mean_the_graph_is_a_constant_swap(seed in 0u64..1_000_000_000) {
        check_constant_swap(seed);
    }
}
