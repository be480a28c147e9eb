use std::collections::hash_map::Entry;
use std::collections::HashMap;

use sna_dfg::{Dfg, DfgBuilder, NodeId};
use sna_interval::Interval;

use crate::ast::{BinaryOp, Expr, ExprKind, Ident, IndexKind, InputRange, Program, Stmt, UnaryOp};
use crate::{Diagnostic, Span};

/// Total delay nodes tap-index sugar may create in one program. Each
/// reference is already depth-capped by the parser
/// ([`crate::parser::MAX_TAP_DEPTH`]); this bounds the *sum* over all
/// sources, so a small untrusted source cannot amplify into millions of
/// nodes.
pub const MAX_SUGAR_DELAYS: usize = 16_384;

/// Total input nodes (scalars plus vector-bank elements) one program may
/// declare; same amplification reasoning as [`MAX_SUGAR_DELAYS`].
pub const MAX_PROGRAM_INPUTS: usize = 16_384;

/// The product of lowering: a validated graph plus per-input ranges, in
/// input-declaration order — exactly the pair every analysis entry point
/// (`Session`, `Optimizer`, `synthesize`) takes.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The validated dataflow graph.
    pub dfg: Dfg,
    /// Value range of each input, in input order (defaults to `[-1, 1]`).
    pub input_ranges: Vec<Interval>,
}

/// Lowers a parsed program onto [`DfgBuilder`].
///
/// Names resolve in statement order; a name may only be referenced
/// *before* its definition as the direct operand of `delay`, which is the
/// textual form of feedback and lowers to
/// [`DfgBuilder::delay_placeholder`] + [`DfgBuilder::bind_delay`].
///
/// # Errors
///
/// Spanned diagnostics for: duplicate definitions, undefined references,
/// empty/invalid input ranges, duplicate or missing outputs, and any
/// graph-validation failure surfaced by [`DfgBuilder::build`].
pub fn lower(program: &Program) -> Result<Lowered, Vec<Diagnostic>> {
    Lowering::default().run(program)
}

/// Parses and lowers in one call — the usual entry point.
///
/// # Errors
///
/// See [`parse`](crate::parse) and [`lower`].
pub fn compile(source: &str) -> Result<Lowered, Vec<Diagnostic>> {
    lower(&crate::parse(source)?)
}

#[derive(Default)]
struct Lowering<'p> {
    builder: DfgBuilder,
    /// Every name the program mentions, keyed by its text in the
    /// [`Program`]: what it is bound to and its tap chain, found with one
    /// lookup. (The map keeps the std keyed hasher: names come from
    /// untrusted sources.)
    names: HashMap<&'p str, Name>,
    /// One `Const` node per distinct literal value (keyed by bit pattern,
    /// so `-0.0` and `0.0` stay distinct): repeated coefficients — ubiquitous
    /// in symmetric filters — share a node instead of multiplying the
    /// constant count.
    consts: HashMap<u64, NodeId>,
    /// Delay nodes created by tap sugar so far (bounded by
    /// [`MAX_SUGAR_DELAYS`]).
    sugar_delays: usize,
    input_ranges: Vec<Interval>,
    /// Forward references created by `delay name` or a tap of a
    /// not-yet-defined source: placeholder node plus the name and span to
    /// resolve once all statements are lowered.
    pending: Vec<(&'p str, NodeId, Span)>,
    outputs: Vec<&'p str>,
    errors: Vec<Diagnostic>,
}

/// Everything one name stands for.
#[derive(Default)]
struct Name {
    binding: Binding,
    /// The shared delay chain of the name as a tapped source: `taps[k-1]`
    /// is `name[n-k]`. All tap references of one source share one chain,
    /// so `x[n-3]` after `x[n-1]` adds two delays, not three.
    taps: Vec<NodeId>,
}

/// What a name is defined as; each name is defined at most once.
#[derive(Default)]
enum Binding {
    /// Not (yet) defined: only referenced, through `delay` or a tap.
    #[default]
    Undefined,
    /// A scalar: an input or a statement's node.
    Scalar(NodeId),
    /// A vector input bank: element nodes `x[0]` … `x[w-1]`.
    Bank(Vec<NodeId>),
}

/// The diagnostic for a second definition of `name`.
fn defined_twice(name: &Ident) -> Diagnostic {
    Diagnostic::new(format!("`{}` is defined twice", name.name), name.span)
}

impl<'p> Lowering<'p> {
    fn run(mut self, program: &'p Program) -> Result<Lowered, Vec<Diagnostic>> {
        for stmt in &program.stmts {
            self.stmt(stmt);
        }
        // Bind the feedback placeholders now that every name is defined.
        for (name, placeholder, span) in std::mem::take(&mut self.pending) {
            match self.names.get(name).map(|n| &n.binding) {
                Some(&Binding::Scalar(source)) => {
                    self.builder
                        .bind_delay(placeholder, source)
                        .expect("placeholder ids are valid and bound once");
                }
                Some(Binding::Bank(_)) => self.errors.push(Diagnostic::new(
                    format!(
                        "`{name}` is a vector input bank — bind an element to a name \
                         (`e = {name}[0];`) before delaying or tapping it"
                    ),
                    span,
                )),
                _ => self.errors.push(Diagnostic::new(
                    format!("undefined name `{name}` (referenced through `delay` or a tap index)"),
                    span,
                )),
            }
        }
        if self.outputs.is_empty() {
            self.errors.push(Diagnostic::new(
                "program declares no outputs (add `output <name>;`)",
                Span::point(0),
            ));
        }
        if !self.errors.is_empty() {
            return Err(self.errors);
        }
        match self.builder.build() {
            Ok(dfg) => Ok(Lowered {
                dfg,
                input_ranges: self.input_ranges,
            }),
            Err(e) => Err(vec![Diagnostic::new(
                format!("invalid datapath: {e}"),
                Span::point(0),
            )]),
        }
    }

    /// Binds `name` to the scalar `node`, reporting a duplicate (the
    /// first definition stays).
    fn define(&mut self, name: &'p Ident, node: NodeId) {
        let entry = self.names.entry(&name.name).or_default();
        match entry.binding {
            Binding::Undefined => entry.binding = Binding::Scalar(node),
            _ => self.errors.push(defined_twice(name)),
        }
    }

    /// The `Const` node for `value`, creating it on first use; whether
    /// this call created it.
    fn const_node(&mut self, value: f64) -> (NodeId, bool) {
        match self.consts.entry(value.to_bits()) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => (*e.insert(self.builder.constant(value)), true),
        }
    }

    /// Lowers the expression a statement binds, and whether that created
    /// the node — not so for a plain alias of a name, a literal whose
    /// `Const` node already exists, or an index reference (vector
    /// elements and tap chains are shared infrastructure). Such
    /// statements must not (re)name the shared node, and cannot carry a
    /// `range` override.
    fn bound_node(&mut self, expr: &'p Expr) -> (NodeId, bool) {
        match &expr.kind {
            ExprKind::Number(v) => self.const_node(*v),
            ExprKind::Var(_) | ExprKind::Index { .. } => (self.expr(expr), false),
            _ => (self.expr(expr), true),
        }
    }

    /// Resolves a scalar name reference, with recovery.
    fn resolve_var(&mut self, name: &str, span: Span) -> NodeId {
        match self.names.get(name).map(|n| &n.binding) {
            Some(&Binding::Scalar(node)) => return node,
            Some(Binding::Bank(_)) => self.errors.push(Diagnostic::new(
                format!("`{name}` is a vector input bank — reference an element like `{name}[0]`"),
                span,
            )),
            _ => self.errors.push(Diagnostic::new(
                format!(
                    "undefined name `{name}` (only `delay {name}` or a tap index like \
                     `{name}[n-1]` may refer to a name defined later)"
                ),
                span,
            )),
        }
        // Recovery placeholder so lowering can continue.
        self.builder.constant(0.0)
    }

    /// Grows the shared delay chain of `base` to at least `k` taps, so a
    /// later `base[n-k]` resolves to its `k`-th tap.
    ///
    /// Chains are *hoisted*: every statement's tap references are
    /// collected before its expression is lowered, in reference order,
    /// so the created delay nodes occupy exactly the node ids a
    /// hand-written `x1 = delay x; x2 = delay x1; …` preamble would —
    /// the invariant the differential (sugared vs. desugared) test suite
    /// pins byte-for-byte.
    fn ensure_taps(&mut self, base: &'p str, k: usize, span: Span) {
        let Lowering {
            builder,
            names,
            sugar_delays,
            pending,
            errors,
            ..
        } = self;
        let name = names.entry(base).or_default();
        if let Binding::Bank(_) = name.binding {
            errors.push(Diagnostic::new(
                format!(
                    "`{base}` is a vector input bank — bind an element to a name \
                     (`e = {base}[0];`) before tapping it"
                ),
                span,
            ));
            return;
        }
        let have = name.taps.len();
        if k > have && *sugar_delays + (k - have) > MAX_SUGAR_DELAYS {
            errors.push(Diagnostic::new(
                format!(
                    "tap indices would create more than {MAX_SUGAR_DELAYS} delay nodes \
                     in total"
                ),
                span,
            ));
            return;
        }
        for _ in have..k {
            let node = match (name.taps.last(), &name.binding) {
                (Some(&prev), _) => builder.delay(prev),
                (None, &Binding::Scalar(src)) => builder.delay(src),
                (None, _) => {
                    // Tap of a name defined later: the feedback form,
                    // rooted at a placeholder bound after all
                    // statements (exactly like `delay name`).
                    let placeholder = builder.delay_placeholder();
                    pending.push((base, placeholder, span));
                    placeholder
                }
            };
            name.taps.push(node);
            *sugar_delays += 1;
        }
    }

    /// Pre-pass over a statement's expression: create/extend the delay
    /// chains its tap references need (see [`Lowering::ensure_taps`]).
    fn hoist_taps(&mut self, expr: &'p Expr) {
        match &expr.kind {
            ExprKind::Index {
                base,
                index: IndexKind::Tap(k),
            } if *k >= 1 => self.ensure_taps(base, *k, expr.span),
            ExprKind::Unary { operand, .. } => self.hoist_taps(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.hoist_taps(lhs);
                self.hoist_taps(rhs);
            }
            _ => {}
        }
    }

    /// Applies a `range [lo, hi]` override clause to the node a binding
    /// just produced. Rejected on literal bindings (a constant's range
    /// *is* its value, and `Const` nodes are deduped — an override on
    /// the first use of a literal would silently leak into every later
    /// use) and on bindings that reuse a shared node (alias, re-bound
    /// literal, index reference), where overriding would retroactively
    /// change every other use.
    fn apply_range_clause(
        &mut self,
        name: &str,
        node: NodeId,
        expr: &Expr,
        fresh: bool,
        clause: &InputRange,
    ) {
        if matches!(expr.kind, ExprKind::Number(_)) {
            self.errors.push(Diagnostic::new(
                format!(
                    "a `range` override cannot attach to the constant binding `{name}` — a \
                     literal's range is its value, and the shared `Const` node may be \
                     reused by other statements"
                ),
                clause.span,
            ));
            return;
        }
        if !fresh {
            self.errors.push(Diagnostic::new(
                format!(
                    "a `range` override needs a node of its own — `{name}` re-binds an \
                     existing node (alias, shared literal, or index reference)"
                ),
                clause.span,
            ));
            return;
        }
        match Interval::new(clause.lo, clause.hi) {
            Ok(interval) => self
                .builder
                .override_range(node, interval)
                .expect("the binding's node id is from this builder"),
            Err(e) => self.errors.push(Diagnostic::new(
                format!("invalid range override: {e}"),
                clause.span,
            )),
        }
    }

    fn stmt(&mut self, stmt: &'p Stmt) {
        match stmt {
            Stmt::Input { name, width, range } => {
                let interval = match range {
                    Some(r) => match Interval::new(r.lo, r.hi) {
                        Ok(iv) => iv,
                        Err(e) => {
                            self.errors
                                .push(Diagnostic::new(format!("invalid input range: {e}"), r.span));
                            Interval::UNIT
                        }
                    },
                    None => Interval::UNIT,
                };
                let declared = width.as_ref().map_or(1, |(w, _)| *w);
                if self.input_ranges.len() + declared > MAX_PROGRAM_INPUTS {
                    self.errors.push(Diagnostic::new(
                        format!("program declares more than {MAX_PROGRAM_INPUTS} inputs"),
                        name.span,
                    ));
                    return;
                }
                match width {
                    None => {
                        let node = self.builder.input(name.name.clone());
                        self.input_ranges.push(interval);
                        self.define(name, node);
                    }
                    Some((w, _)) => {
                        let Lowering {
                            builder,
                            names,
                            input_ranges,
                            errors,
                            ..
                        } = self;
                        let entry = names.entry(&name.name).or_default();
                        if !matches!(entry.binding, Binding::Undefined) {
                            errors.push(defined_twice(name));
                            return;
                        }
                        // A bank of `w` inputs named `name[0]` …
                        // `name[w-1]`, all with the declared range.
                        let bank: Vec<NodeId> = (0..*w)
                            .map(|i| {
                                input_ranges.push(interval);
                                builder.input(format!("{}[{i}]", name.name))
                            })
                            .collect();
                        entry.binding = Binding::Bank(bank);
                    }
                }
            }
            Stmt::Let { name, expr, range } => {
                self.hoist_taps(expr);
                // Name the node when this statement created it (pure
                // aliases `a = b;`, re-bound literals and index
                // references must not rename the shared node).
                let (node, fresh) = self.bound_node(expr);
                if fresh {
                    let _ = self.builder.name(node, &name.name);
                }
                if let Some(clause) = range {
                    self.apply_range_clause(&name.name, node, expr, fresh, clause);
                }
                self.define(name, node);
            }
            Stmt::ConstLet { name, value, .. } => {
                // Same dedup as a bare literal: the first binding of a
                // value creates (and names) the shared `Const` node,
                // later re-binds must not rename it.
                let (node, fresh) = self.const_node(*value);
                if fresh {
                    let _ = self.builder.name(node, &name.name);
                }
                self.define(name, node);
            }
            Stmt::Output { name, expr, range } => {
                let node = match expr {
                    Some(e) => {
                        self.hoist_taps(e);
                        let (node, fresh) = self.bound_node(e);
                        if fresh {
                            let _ = self.builder.name(node, &name.name);
                        }
                        if let Some(clause) = range {
                            self.apply_range_clause(&name.name, node, e, fresh, clause);
                        }
                        self.define(name, node);
                        node
                    }
                    None => match self.names.get(name.name.as_str()).map(|n| &n.binding) {
                        Some(&Binding::Scalar(node)) => node,
                        _ => {
                            self.errors.push(Diagnostic::new(
                                format!("undefined name `{}`", name.name),
                                name.span,
                            ));
                            return;
                        }
                    },
                };
                if self.outputs.contains(&name.name.as_str()) {
                    self.errors.push(Diagnostic::new(
                        format!("output `{}` is declared twice", name.name),
                        name.span,
                    ));
                    return;
                }
                self.outputs.push(&name.name);
                self.builder.output(name.name.clone(), node);
            }
        }
    }

    fn expr(&mut self, expr: &'p Expr) -> NodeId {
        match &expr.kind {
            ExprKind::Number(v) => self.const_node(*v).0,
            ExprKind::Var(name) => self.resolve_var(name, expr.span),
            ExprKind::Index { base, index } => match index {
                IndexKind::Element(i) => match self.names.get(base.as_str()).map(|n| &n.binding) {
                    Some(Binding::Bank(bank)) if *i < bank.len() => bank[*i],
                    Some(Binding::Bank(bank)) => {
                        let w = bank.len();
                        self.errors.push(Diagnostic::new(
                            format!(
                                "element index {i} is out of bounds for the vector input \
                                 `{base}[{w}]`"
                            ),
                            expr.span,
                        ));
                        self.builder.constant(0.0)
                    }
                    _ => {
                        self.errors.push(Diagnostic::new(
                            format!("`{base}` is not a vector input bank"),
                            expr.span,
                        ));
                        self.builder.constant(0.0)
                    }
                },
                // `x[n]` is the current sample: a plain reference.
                IndexKind::Tap(0) => self.resolve_var(base, expr.span),
                IndexKind::Tap(k) => match self
                    .names
                    .get(base.as_str())
                    .and_then(|n| n.taps.get(*k - 1))
                {
                    Some(&tap) => tap,
                    // The hoisting pre-pass already diagnosed why the
                    // chain is missing (vector bank, cap exceeded);
                    // recover without a duplicate error.
                    None => self.builder.constant(0.0),
                },
            },
            ExprKind::Unary { op, operand } => match op {
                UnaryOp::Neg => {
                    let inner = self.expr(operand);
                    self.builder.neg(inner)
                }
                UnaryOp::Delay => {
                    // `delay name` with `name` not yet defined is the
                    // feedback form: create a placeholder bound after all
                    // statements.
                    if let ExprKind::Var(name) = &operand.kind {
                        let bound = self.names.get(name.as_str()).map(|n| &n.binding);
                        if !matches!(bound, Some(Binding::Scalar(_))) {
                            let placeholder = self.builder.delay_placeholder();
                            self.pending.push((name, placeholder, operand.span));
                            return placeholder;
                        }
                    }
                    let inner = self.expr(operand);
                    self.builder.delay(inner)
                }
            },
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                match op {
                    BinaryOp::Add => self.builder.add(l, r),
                    BinaryOp::Sub => self.builder.sub(l, r),
                    BinaryOp::Mul => self.builder.mul(l, r),
                    BinaryOp::Div => self.builder.div(l, r),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::{Op, Simulator};

    fn compile_ok(src: &str) -> Lowered {
        match compile(src) {
            Ok(l) => l,
            Err(e) => panic!("compile failed: {e:?}"),
        }
    }

    #[test]
    fn lowers_the_issue_example_with_feedback() {
        let l = compile_ok(
            "input x in [-1, 1];\n\
             t = 0.3*x;\n\
             y_prev = delay y;\n\
             y = t + 0.5*y_prev;\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.inputs, 1);
        assert_eq!(c.delays, 1);
        assert_eq!(c.muls, 2);
        assert_eq!(c.adds, 1);
        assert_eq!(c.consts, 2);
        assert!(!l.dfg.is_combinational());
        // y[n] = 0.3 x[n] + 0.5 y[n-1]
        let mut sim = Simulator::new(&l.dfg);
        assert_eq!(sim.step(&[1.0]).unwrap(), vec![0.3]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.15]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.075]);
    }

    #[test]
    fn every_op_variant_is_expressible() {
        let l = compile_ok(
            "input a;\n\
             input b in [0.5, 2];\n\
             s = a + b;\n\
             d = a - b;\n\
             p = a * b;\n\
             q = a / b;\n\
             n = -s;\n\
             z = delay p;\n\
             k = 2.5;\n\
             y = s + d + p + q + n + z + k;\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.inputs, 2);
        assert_eq!(c.adds, 7);
        assert_eq!(c.subs, 1);
        assert_eq!(c.muls, 1);
        assert_eq!(c.divs, 1);
        assert_eq!(c.negs, 1);
        assert_eq!(c.delays, 1);
        assert_eq!(c.consts, 1);
        assert_eq!(l.input_ranges[0], Interval::UNIT);
        assert_eq!(l.input_ranges[1], Interval::new(0.5, 2.0).unwrap());
    }

    #[test]
    fn aliases_do_not_create_nodes() {
        let l = compile_ok("input x;\ny = x;\noutput y;\n");
        assert_eq!(l.dfg.len(), 1);
        assert_eq!(l.dfg.node(l.dfg.outputs()[0].1).op(), Op::Input(0));
    }

    #[test]
    fn named_outputs_with_inline_expressions() {
        let l = compile_ok("input x;\noutput y = 2 * x;\noutput z = y + 1;\n");
        assert_eq!(l.dfg.outputs().len(), 2);
        assert_eq!(l.dfg.outputs()[0].0, "y");
        assert_eq!(l.dfg.evaluate(&[3.0]).unwrap(), vec![6.0, 7.0]);
    }

    #[test]
    fn undefined_name_is_a_spanned_error() {
        let src = "input x;\ny = x + oops;\noutput y;\n";
        let errs = compile(src).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("undefined name `oops`"));
        assert_eq!(&src[errs[0].span.start..errs[0].span.end], "oops");
    }

    #[test]
    fn forward_reference_outside_delay_is_rejected() {
        let errs = compile("input x;\ny = z + x;\nz = x;\noutput y;\n").unwrap_err();
        assert!(errs[0].message.contains("undefined name `z`"));
        assert!(errs[0].message.contains("delay"));
    }

    #[test]
    fn unresolved_delay_target_is_reported() {
        let errs = compile("input x;\ny = x + delay ghost;\noutput y;\n").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].message.contains("undefined name `ghost`"),
            "{errs:?}"
        );
    }

    #[test]
    fn duplicate_definitions_and_outputs_are_rejected() {
        let errs = compile("input x;\nx = 1;\noutput x;\n").unwrap_err();
        assert!(errs[0].message.contains("defined twice"));
        let errs = compile("input x;\noutput x;\noutput x;\n").unwrap_err();
        assert!(errs[0].message.contains("declared twice"));
    }

    #[test]
    fn empty_range_is_rejected_with_the_range_span() {
        let src = "input x in [2, 1];\noutput x;\n";
        let errs = compile(src).unwrap_err();
        assert!(errs[0].message.contains("invalid input range"));
        assert_eq!(&src[errs[0].span.start..errs[0].span.end], "[2, 1]");
    }

    #[test]
    fn missing_outputs_are_rejected() {
        let errs = compile("input x;\ny = x + 1;\n").unwrap_err();
        assert!(errs[0].message.contains("no outputs"));
    }

    #[test]
    fn delay_of_expression_lowers_inline() {
        let l = compile_ok("input x;\ny = delay (x + 1);\noutput y;\n");
        let c = l.dfg.op_counts();
        assert_eq!(c.delays, 1);
        assert_eq!(c.adds, 1);
        let mut sim = Simulator::new(&l.dfg);
        assert_eq!(sim.step(&[5.0]).unwrap(), vec![0.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![6.0]);
    }

    #[test]
    fn delay_chain_feedback_matches_designs_idiom() {
        // Two-tap feedback like the diff-eq builders: taps of y.
        let l = compile_ok(
            "input x;\n\
             t1 = delay y;\n\
             t2 = delay t1;\n\
             y = x + 0.5*t1 + 0.25*t2;\n\
             output y;\n",
        );
        assert_eq!(l.dfg.op_counts().delays, 2);
        let mut sim = Simulator::new(&l.dfg);
        assert_eq!(sim.step(&[1.0]).unwrap(), vec![1.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.5]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.5]);
    }

    #[test]
    fn repeated_literals_share_one_const_node() {
        // A symmetric 3-tap FIR: 0.25 appears twice, 0.5 once.
        let l = compile_ok(
            "input x;\n\
             x1 = delay x;\n\
             x2 = delay x1;\n\
             y = 0.25*x + 0.5*x1 + 0.25*x2;\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.consts, 2, "identical literals must dedupe");
        assert_eq!((c.muls, c.adds, c.delays), (3, 2, 2));
        let mut sim = Simulator::new(&l.dfg);
        assert_eq!(sim.step(&[1.0]).unwrap(), vec![0.25]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.5]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.25]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.0]);
    }

    #[test]
    fn negative_zero_stays_distinct_from_zero() {
        let l = compile_ok("input x;\ny = 0.0*x + -0.0*x;\noutput y;\n");
        assert_eq!(l.dfg.op_counts().consts, 2);
    }

    #[test]
    fn rebinding_an_existing_literal_does_not_rename_the_shared_node() {
        // `k = 2.5;` reuses the Const created for the first `2.5` and so
        // must not steal its name; both uses still evaluate correctly.
        let l = compile_ok(
            "input x;\n\
             a = 2.5*x;\n\
             k = 2.5;\n\
             y = a + k;\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.consts, 1);
        assert_eq!(l.dfg.evaluate(&[2.0]).unwrap(), vec![7.5]);
    }

    #[test]
    fn let_bindings_lower_to_named_deduped_consts() {
        let l = compile_ok(
            "input x;\n\
             let k = 0.65328125;\n\
             y = k*x + 0.65328125;\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.consts, 1, "the let and the literal share one node");
        let (id, _) = l
            .dfg
            .nodes()
            .find(|(_, n)| matches!(n.op(), Op::Const(_)))
            .unwrap();
        assert_eq!(
            l.dfg.node_name(id),
            Some("k"),
            "the let names the shared node"
        );
        assert!(matches!(l.dfg.node(id).op(), Op::Const(v) if v == 0.65328125));
        let y = 0.65328125 * 2.0 + 0.65328125;
        assert_eq!(l.dfg.evaluate(&[2.0]).unwrap(), vec![y]);
    }

    #[test]
    fn let_accepts_negative_literals_and_rejects_expressions() {
        let l = compile_ok("input x;\nlet g = -0.5;\noutput y = g*x;\n");
        assert_eq!(l.dfg.evaluate(&[2.0]).unwrap(), vec![-1.0]);
        let errs = crate::parse("let k = 1 + 2;").unwrap_err();
        assert!(errs[0].message.contains("named constant"), "{:?}", errs[0]);
        let errs = crate::parse("let k = x;").unwrap_err();
        assert!(errs[0].message.contains("named constant"), "{:?}", errs[0]);
    }

    #[test]
    fn let_re_binding_an_existing_literal_does_not_rename_it() {
        let l = compile_ok(
            "input x;\n\
             a = 2.5*x;\n\
             let k = 2.5;\n\
             y = a + k;\n\
             output y;\n",
        );
        assert_eq!(l.dfg.op_counts().consts, 1);
        assert_eq!(l.dfg.evaluate(&[2.0]).unwrap(), vec![7.5]);
    }

    #[test]
    fn let_canonical_form_round_trips() {
        let src = "input x;\nlet k = -0.25;\ny = k * x;\noutput y;\n";
        let program = crate::parse(src).unwrap();
        let canon = program.to_string();
        assert!(canon.contains("let k = -0.25;"), "{canon}");
        let reparsed = crate::parse(&canon).unwrap();
        assert_eq!(reparsed.to_string(), canon);
    }

    #[test]
    fn shape_fingerprints_mask_constants_only() {
        let base = compile_ok("input x;\nlet k = 0.25;\noutput y = k*x;\n");
        let swapped = compile_ok("input x;\nlet k = 0.75;\noutput y = k*x;\n");
        let reshaped = compile_ok("input x;\nlet k = 0.25;\noutput y = k*x + x;\n");
        let renamed = compile_ok("input x;\nlet q = 0.25;\noutput y = q*x;\n");
        let reranged = compile_ok("input x in [-2, 2];\nlet k = 0.25;\noutput y = k*x;\n");
        // The graph's shape signature (the shape part of a sweep
        // checkpoint's identity) masks constant values only.
        let shape = |l: &Lowered| l.dfg.shape_signature();
        assert_eq!(shape(&base), shape(&swapped));
        assert_ne!(shape(&base), shape(&reshaped));
        assert_ne!(shape(&base), shape(&renamed));
        // Input ranges live beside the graph, not in its signature.
        assert_eq!(shape(&base), shape(&reranged));
        assert_ne!(base.input_ranges, reranged.input_ranges);
        // The coefficient vectors map slot for slot.
        assert_eq!(base.dfg.const_values(), vec![0.25]);
        assert_eq!(swapped.dfg.const_values(), vec![0.75]);
    }

    #[test]
    fn vector_inputs_declare_a_bank_of_ranged_elements() {
        let l = compile_ok(
            "input v[3] in [-2, 2];\n\
             input x;\n\
             y = v[0] + v[1] + v[2] + x;\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.inputs, 4);
        assert_eq!(
            l.dfg.input_names(),
            &["v[0]", "v[1]", "v[2]", "x"].map(String::from)
        );
        assert_eq!(l.input_ranges[0], Interval::new(-2.0, 2.0).unwrap());
        assert_eq!(l.input_ranges[2], Interval::new(-2.0, 2.0).unwrap());
        assert_eq!(l.input_ranges[3], Interval::UNIT);
        assert_eq!(l.dfg.evaluate(&[1.0, 2.0, 3.0, 4.0]).unwrap(), vec![10.0]);
    }

    #[test]
    fn vector_misuse_is_diagnosed() {
        let errs = compile("input v[2];\noutput y = v[5];\n").unwrap_err();
        assert!(errs[0].message.contains("out of bounds"), "{:?}", errs[0]);
        let errs = compile("input v[2];\noutput y = v;\n").unwrap_err();
        assert!(
            errs[0].message.contains("vector input bank"),
            "{:?}",
            errs[0]
        );
        let errs = compile("input x;\noutput y = x[1];\n").unwrap_err();
        assert!(errs[0].message.contains("not a vector"), "{:?}", errs[0]);
        let errs = compile("input v[2];\noutput y = v[n-1];\n").unwrap_err();
        assert!(errs[0].message.contains("before tapping"), "{:?}", errs[0]);
        let errs = compile("input v[2];\nv = 1;\noutput v;\n").unwrap_err();
        assert!(errs[0].message.contains("defined twice"), "{:?}", errs[0]);
    }

    #[test]
    fn tap_sugar_matches_an_explicit_delay_chain_bit_for_bit() {
        let sugar = compile_ok(
            "input x;\n\
             y = 0.25*x + 0.5*x[n-1] + 0.25*x[n-2];\n\
             output y;\n",
        );
        let explicit = compile_ok(
            "input x;\n\
             x1 = delay x;\n\
             x2 = delay x1;\n\
             y = 0.25*x + 0.5*x1 + 0.25*x2;\n\
             output y;\n",
        );
        assert_eq!(sugar.dfg.op_counts(), explicit.dfg.op_counts());
        assert_eq!(sugar.dfg.len(), explicit.dfg.len());
        let mut a = Simulator::new(&sugar.dfg);
        let mut b = Simulator::new(&explicit.dfg);
        for step in [1.0, 0.5, -0.25, 0.0, 0.75] {
            assert_eq!(a.step(&[step]).unwrap(), b.step(&[step]).unwrap());
        }
    }

    #[test]
    fn taps_of_one_source_share_a_single_chain() {
        // x[n-3] and x[n-1] together need exactly 3 delays; repeating a
        // tap adds nothing; x[n] is the input itself.
        let l = compile_ok(
            "input x;\n\
             y = x[n-3] + x[n-1] + x[n-1] + x[n];\n\
             output y;\n",
        );
        let c = l.dfg.op_counts();
        assert_eq!(c.delays, 3, "shared chain");
        assert_eq!(c.adds, 3);
        let mut sim = Simulator::new(&l.dfg);
        // y[n] = x[n-3] + 2·x[n-1] + x[n]
        assert_eq!(sim.step(&[1.0]).unwrap(), vec![1.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![2.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![1.0]);
        assert_eq!(sim.step(&[0.0]).unwrap(), vec![0.0]);
    }

    #[test]
    fn tap_feedback_matches_the_delay_idiom() {
        // y = x + 0.5·y[n-1] + 0.25·y[n-2] via taps of a later-defined
        // name must equal the explicit two-delay feedback form.
        let sugar = compile_ok(
            "input x;\n\
             y = x + 0.5*y[n-1] + 0.25*y[n-2];\n\
             output y;\n",
        );
        let explicit = compile_ok(
            "input x;\n\
             t1 = delay y;\n\
             t2 = delay t1;\n\
             y = x + 0.5*t1 + 0.25*t2;\n\
             output y;\n",
        );
        assert_eq!(sugar.dfg.op_counts().delays, 2);
        let mut a = Simulator::new(&sugar.dfg);
        let mut b = Simulator::new(&explicit.dfg);
        for step in [1.0, 0.0, 0.0, 0.5, -1.0] {
            assert_eq!(a.step(&[step]).unwrap(), b.step(&[step]).unwrap());
        }
    }

    #[test]
    fn chains_extend_incrementally_across_statements() {
        let l = compile_ok(
            "input x;\n\
             a = x[n-1];\n\
             b = x[n-3];\n\
             output y = a + b;\n",
        );
        assert_eq!(l.dfg.op_counts().delays, 3);
        // `a = x[n-1];` aliases the chain tap: no extra node, no rename.
        let tap1 = l
            .dfg
            .nodes()
            .find(|(_, n)| matches!(n.op(), Op::Delay))
            .unwrap();
        assert_eq!(l.dfg.node_name(tap1.0), None);
    }

    #[test]
    fn range_overrides_reach_the_graph() {
        let l = compile_ok(
            "input x;\n\
             acc = x + x range [-0.5, 0.5];\n\
             output y = 2 * acc;\n",
        );
        let acc = l
            .dfg
            .nodes()
            .find(|&(id, _)| l.dfg.node_name(id) == Some("acc"))
            .unwrap()
            .0;
        assert_eq!(
            l.dfg.range_override(acc),
            Some(Interval::new(-0.5, 0.5).unwrap())
        );
        let ranges = l
            .dfg
            .ranges_interval(&l.input_ranges, &sna_dfg::RangeOptions::default())
            .unwrap();
        assert_eq!(ranges[acc.index()], Interval::new(-0.5, 0.5).unwrap());
        // Output form too.
        let l = compile_ok("input x;\noutput y = x * x range [0, 1];\n");
        let (yid, _) = l
            .dfg
            .nodes()
            .find(|&(id, _)| l.dfg.node_name(id) == Some("y"))
            .unwrap();
        assert_eq!(
            l.dfg.range_override(yid),
            Some(Interval::new(0.0, 1.0).unwrap())
        );
    }

    #[test]
    fn range_overrides_on_shared_nodes_are_rejected() {
        // Alias.
        let errs = compile("input x;\ny = x range [0, 1];\noutput y;\n").unwrap_err();
        assert!(errs[0].message.contains("node of its own"), "{:?}", errs[0]);
        // Re-bound literal.
        let errs = compile("input x;\na = 0.5*x;\nk = 0.5 range [0, 1];\noutput y = a + k;\n")
            .unwrap_err();
        assert!(
            errs[0].message.contains("constant binding"),
            "{:?}",
            errs[0]
        );
        // Tap reference.
        let errs = compile("input x;\na = x[n-1] range [0, 1];\noutput y = a;\n").unwrap_err();
        assert!(errs[0].message.contains("node of its own"), "{:?}", errs[0]);
        // Invalid bounds.
        let errs = compile("input x;\ny = x + x range [1, -1];\noutput y;\n").unwrap_err();
        assert!(
            errs[0].message.contains("invalid range override"),
            "{:?}",
            errs[0]
        );
    }

    #[test]
    fn range_overrides_on_literal_bindings_are_rejected_in_both_orders() {
        // A literal binding may *create* the shared Const node (first
        // use); accepting an override there would silently leak it into
        // every later use of the same literal through dedup. Both
        // statement orders must reject identically.
        let first_use = "input x in [-1, 1];\nk = 0.5 range [0, 0.25];\ny = x * 0.5;\noutput y;\n";
        let errs = compile(first_use).unwrap_err();
        assert!(
            errs[0].message.contains("constant binding"),
            "{:?}",
            errs[0]
        );
        let later_use = "input x in [-1, 1];\ny = x * 0.5;\nk = 0.5 range [0, 0.25];\noutput y;\n";
        let errs = compile(later_use).unwrap_err();
        assert!(
            errs[0].message.contains("constant binding"),
            "{:?}",
            errs[0]
        );
        // Without the clause the program compiles, with the literal's
        // true (unoverridden) range reaching the product.
        let l = compile_ok("input x in [-1, 1];\nk = 0.5;\noutput y = x * 0.5;\n");
        let ranges = l
            .dfg
            .ranges_interval(&l.input_ranges, &sna_dfg::RangeOptions::default())
            .unwrap();
        let (yid, _) = l
            .dfg
            .nodes()
            .find(|&(id, _)| l.dfg.node_name(id) == Some("y"))
            .unwrap();
        assert_eq!(ranges[yid.index()], Interval::new(-0.5, 0.5).unwrap());
    }

    #[test]
    fn range_override_shapes_do_not_alias_plain_shapes() {
        let plain = compile_ok("input x;\nlet k = 0.5;\ny = k*x + x;\noutput y;\n");
        let bounded = compile_ok("input x;\nlet k = 0.5;\ny = k*x + x range [-1, 1];\noutput y;\n");
        let rebounded =
            compile_ok("input x;\nlet k = 0.5;\ny = k*x + x range [-2, 2];\noutput y;\n");
        let shape = |l: &Lowered| l.dfg.shape_signature();
        assert_ne!(shape(&plain), shape(&bounded));
        assert_ne!(shape(&bounded), shape(&rebounded));
        // Same overrides, different coefficients: still one shape.
        let swapped =
            compile_ok("input x;\nlet k = 0.25;\ny = k*x + x range [-1, 1];\noutput y;\n");
        assert_eq!(shape(&bounded), shape(&swapped));
    }

    #[test]
    fn sugar_delay_and_input_budgets_are_enforced() {
        // 17 sources tapped at depth 1024 each would cross the 16384
        // sugar-delay budget.
        let mut src = String::from("input x;\n");
        for k in 0..17 {
            src.push_str(&format!("s{k} = x + {};\n", k + 1));
        }
        let refs: Vec<String> = (0..17).map(|k| format!("s{k}[n-1024]")).collect();
        src.push_str(&format!("output y = {};\n", refs.join(" + ")));
        let errs = compile(&src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("delay nodes")),
            "{:?}",
            errs.first()
        );

        // 17 maximal vector banks cross the input budget.
        let mut src = String::new();
        for k in 0..17 {
            src.push_str(&format!("input v{k}[1024];\n"));
        }
        src.push_str("output y = v0[0];\n");
        let errs = compile(&src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("inputs")),
            "{:?}",
            errs.first()
        );
    }

    #[test]
    fn self_delay_is_legal_and_silent() {
        // `s = delay s` is a register feeding itself: constant zero.
        let l = compile_ok("input x;\ns = delay s;\ny = x + s;\noutput y;\n");
        let mut sim = Simulator::new(&l.dfg);
        assert_eq!(sim.step(&[3.0]).unwrap(), vec![3.0]);
        assert_eq!(sim.step(&[4.0]).unwrap(), vec![4.0]);
    }
}
