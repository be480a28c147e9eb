use std::fmt;

use crate::Span;

/// An identifier with its source location.
#[derive(Clone, Debug, PartialEq)]
pub struct Ident {
    /// The name.
    pub name: String,
    /// Where it was written.
    pub span: Span,
}

/// A binary operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// Binding strength: higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Add | BinaryOp::Sub => 1,
            BinaryOp::Mul | BinaryOp::Div => 2,
        }
    }

    /// The operator's surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

/// A unary operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-` (negation)
    Neg,
    /// `delay` (unit delay, `z⁻¹`)
    Delay,
}

/// An expression node.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source range of the whole expression.
    pub span: Span,
}

/// The payload of an `x[...]` reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// `x[i]` — element `i` of a vector input bank.
    Element(usize),
    /// `x[n-k]` — the signal `k` samples ago (`x[n]` is `k == 0`, the
    /// current sample). Lowers onto the shared, deduped delay chain of
    /// `x`.
    Tap(usize),
}

/// Expression shapes.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// A numeric constant. Unary minus applied directly to a literal is
    /// folded into the value at parse time, so coefficients like `-0.5`
    /// lower to a single `Const` node.
    Number(f64),
    /// A reference to a named value.
    Var(String),
    /// `base[i]` (vector-element reference) or `base[n-k]` (tap-index
    /// sugar for the deduped delay chain of `base`).
    Index {
        /// The indexed name.
        base: String,
        /// Which element or tap.
        index: IndexKind,
    },
    /// `-e` or `delay e`.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: Box<Expr>,
    },
    /// `lhs op rhs`.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// One statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `input x in [lo, hi];` — declares an external input. Without the
    /// range annotation the input defaults to `[-1, 1]`.
    ///
    /// `input x[8] in [lo, hi];` declares a *bank* of 8 inputs, each
    /// with the same range, addressable as `x[0]` … `x[7]`.
    Input {
        /// The input's name.
        name: Ident,
        /// Bank width for `input x[8];` (with the span of the `[8]`
        /// text); `None` declares a plain scalar input.
        width: Option<(usize, Span)>,
        /// Optional `[lo, hi]` annotation (with its span).
        range: Option<InputRange>,
    },
    /// `name = expr;` — binds a name to the value of an expression.
    ///
    /// `name = expr range [lo, hi];` additionally *overrides* range
    /// analysis at the bound node: every engine reports the declared
    /// interval for it instead of the computed one.
    Let {
        /// The bound name.
        name: Ident,
        /// The defining expression.
        expr: Expr,
        /// Optional `range [lo, hi]` override clause.
        range: Option<InputRange>,
    },
    /// `let name = number;` — a *named constant binding*.  Semantically a
    /// plain binding to a literal, but syntactically marked: the one
    /// obvious mutation site of a coefficient-swept design (see
    /// `Dfg::with_const_values` in `sna-dfg`).  Lowers to the same
    /// deduped `Const` node a bare literal would.
    ConstLet {
        /// The bound name.
        name: Ident,
        /// The constant value (sign folded in at parse time).
        value: f64,
        /// Source range of the value literal.
        value_span: Span,
    },
    /// `output name;` or `output name = expr;` — declares an output. The
    /// second form also binds `name` like a `let`, and accepts the same
    /// `range [lo, hi]` override clause.
    Output {
        /// The output's name.
        name: Ident,
        /// Present in the `output name = expr;` form.
        expr: Option<Expr>,
        /// Optional `range [lo, hi]` override clause (only legal in the
        /// `= expr` form).
        range: Option<InputRange>,
    },
}

/// The `in [lo, hi]` annotation of an input declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct InputRange {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Source range of the `[lo, hi]` text.
    pub span: Span,
}

/// A parsed `.sna` program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// The statements, in source order.
    pub stmts: Vec<Stmt>,
}

// ----------------------------------------------------------------------
// Pretty-printing (the canonical form used by round-trip tests)
// ----------------------------------------------------------------------

fn fmt_number(v: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // `{}` on f64 prints the shortest string that round-trips, so the
    // canonical form re-parses to bit-identical constants.
    write!(f, "{v}")
}

impl Expr {
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        match &self.kind {
            ExprKind::Number(v) => fmt_number(*v, f),
            ExprKind::Var(name) => f.write_str(name),
            ExprKind::Index { base, index } => match index {
                IndexKind::Element(i) => write!(f, "{base}[{i}]"),
                IndexKind::Tap(0) => write!(f, "{base}[n]"),
                IndexKind::Tap(k) => write!(f, "{base}[n-{k}]"),
            },
            ExprKind::Unary { op, operand } => {
                // Unary binds tighter than any binary operator.
                let needs_parens = min_prec > 3;
                if needs_parens {
                    f.write_str("(")?;
                }
                match op {
                    UnaryOp::Neg => f.write_str("-")?,
                    UnaryOp::Delay => f.write_str("delay ")?,
                }
                operand.fmt_prec(f, 4)?;
                if needs_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let prec = op.precedence();
                let needs_parens = prec < min_prec;
                if needs_parens {
                    f.write_str("(")?;
                }
                lhs.fmt_prec(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Left-associative: the right child needs one more level.
                rhs.fmt_prec(f, prec + 1)?;
                if needs_parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Prints ` range [lo, hi]` when a clause is present.
fn fmt_range_clause(range: &Option<InputRange>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if let Some(r) = range {
        f.write_str(" range [")?;
        fmt_number(r.lo, f)?;
        f.write_str(", ")?;
        fmt_number(r.hi, f)?;
        f.write_str("]")?;
    }
    Ok(())
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Input { name, width, range } => {
                write!(f, "input {}", name.name)?;
                if let Some((w, _)) = width {
                    write!(f, "[{w}]")?;
                }
                if let Some(r) = range {
                    f.write_str(" in [")?;
                    fmt_number(r.lo, f)?;
                    f.write_str(", ")?;
                    fmt_number(r.hi, f)?;
                    f.write_str("]")?;
                }
                f.write_str(";")
            }
            Stmt::Let { name, expr, range } => {
                write!(f, "{} = {expr}", name.name)?;
                fmt_range_clause(range, f)?;
                f.write_str(";")
            }
            Stmt::ConstLet { name, value, .. } => {
                write!(f, "let {} = ", name.name)?;
                fmt_number(*value, f)?;
                f.write_str(";")
            }
            Stmt::Output { name, expr, range } => match expr {
                Some(e) => {
                    write!(f, "output {} = {e}", name.name)?;
                    fmt_range_clause(range, f)?;
                    f.write_str(";")
                }
                None => write!(f, "output {};", name.name),
            },
        }
    }
}

/// Prints the canonical source form: one statement per line.
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stmt in &self.stmts {
            writeln!(f, "{stmt}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: f64) -> Expr {
        Expr {
            kind: ExprKind::Number(v),
            span: Span::default(),
        }
    }

    fn var(name: &str) -> Expr {
        Expr {
            kind: ExprKind::Var(name.into()),
            span: Span::default(),
        }
    }

    fn bin(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr {
            kind: ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span: Span::default(),
        }
    }

    #[test]
    fn printing_inserts_minimal_parens() {
        // (a + b) * c needs parens; a + b * c does not.
        let sum = bin(BinaryOp::Add, var("a"), var("b"));
        let e = bin(BinaryOp::Mul, sum.clone(), var("c"));
        assert_eq!(e.to_string(), "(a + b) * c");
        let e2 = bin(
            BinaryOp::Add,
            var("a"),
            bin(BinaryOp::Mul, var("b"), var("c")),
        );
        assert_eq!(e2.to_string(), "a + b * c");
    }

    #[test]
    fn printing_respects_left_associativity() {
        // a - (b - c) keeps its parens; (a - b) - c drops them.
        let inner = bin(BinaryOp::Sub, var("b"), var("c"));
        let right_nested = bin(BinaryOp::Sub, var("a"), inner.clone());
        assert_eq!(right_nested.to_string(), "a - (b - c)");
        let left_nested = bin(
            BinaryOp::Sub,
            bin(BinaryOp::Sub, var("a"), var("b")),
            var("c"),
        );
        assert_eq!(left_nested.to_string(), "a - b - c");
    }

    #[test]
    fn unary_and_delay_print_compactly() {
        let e = Expr {
            kind: ExprKind::Unary {
                op: UnaryOp::Delay,
                operand: Box::new(var("y")),
            },
            span: Span::default(),
        };
        assert_eq!(e.to_string(), "delay y");
        let neg_sum = Expr {
            kind: ExprKind::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(bin(BinaryOp::Add, var("a"), var("b"))),
            },
            span: Span::default(),
        };
        assert_eq!(neg_sum.to_string(), "-(a + b)");
        assert_eq!(num(-0.5).to_string(), "-0.5");
    }

    #[test]
    fn index_and_range_forms_print_canonically() {
        let elem = Expr {
            kind: ExprKind::Index {
                base: "v".into(),
                index: IndexKind::Element(3),
            },
            span: Span::default(),
        };
        assert_eq!(elem.to_string(), "v[3]");
        let tap = |k: usize| Expr {
            kind: ExprKind::Index {
                base: "x".into(),
                index: IndexKind::Tap(k),
            },
            span: Span::default(),
        };
        assert_eq!(tap(0).to_string(), "x[n]");
        assert_eq!(tap(2).to_string(), "x[n-2]");

        let stmt = Stmt::Let {
            name: Ident {
                name: "acc".into(),
                span: Span::default(),
            },
            expr: bin(BinaryOp::Add, var("a"), var("b")),
            range: Some(InputRange {
                lo: -0.5,
                hi: 1.25,
                span: Span::default(),
            }),
        };
        assert_eq!(stmt.to_string(), "acc = a + b range [-0.5, 1.25];");
        let bank = Stmt::Input {
            name: Ident {
                name: "v".into(),
                span: Span::default(),
            },
            width: Some((4, Span::default())),
            range: Some(InputRange {
                lo: -1.0,
                hi: 1.0,
                span: Span::default(),
            }),
        };
        assert_eq!(bank.to_string(), "input v[4] in [-1, 1];");
    }
}
