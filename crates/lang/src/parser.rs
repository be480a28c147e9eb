use crate::ast::{BinaryOp, Expr, ExprKind, Ident, IndexKind, InputRange, Program, Stmt, UnaryOp};
use crate::token::{lex, Token, TokenKind};
use crate::{Diagnostic, Span};

/// Parses `.sna` source into a [`Program`].
///
/// The parser recovers at statement boundaries (`;`), so several errors
/// can be reported in one pass.
///
/// # Errors
///
/// All lexical and syntactic diagnostics collected, each with a span.
pub fn parse(source: &str) -> Result<Program, Vec<Diagnostic>> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        errors: Vec::new(),
    };
    let program = p.program();
    if p.errors.is_empty() {
        Ok(program)
    } else {
        Err(p.errors)
    }
}

/// The widest vector input bank accepted (`input x[W];`). Each element
/// is a full input node, and the server feeds this parser untrusted
/// source text — a handful of bytes must not declare millions of nodes.
pub const MAX_VECTOR_WIDTH: usize = 1024;

/// The deepest tap index accepted (`x[n-K]`). Each tap lowers to a delay
/// node in the shared chain; same untrusted-input reasoning as
/// [`MAX_VECTOR_WIDTH`].
pub const MAX_TAP_DEPTH: usize = 1024;

/// The deepest expression nesting accepted. The expression grammar
/// recurses per level (`(`-chains through `primary`, `-`/`delay`-chains
/// through `unary`), and the server feeds this parser untrusted source
/// text: without a bound, a megabyte of `((((…` or `----…` overflows the
/// parsing thread's stack and aborts the process. Real datapaths nest a
/// few levels.
const MAX_EXPR_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    errors: Vec<Diagnostic>,
}

/// Signals "diagnostic already recorded; unwind to statement level".
struct Recover;

type PResult<T> = Result<T, Recover>;

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// Consumes the current token (never past the final `Eof`) and
    /// returns its span. Consumed tokens are never read again.
    fn advance(&mut self) -> Span {
        let span = self.tokens[self.pos].span;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        span
    }

    /// Consumes the current token, which the caller has just seen to be
    /// an identifier, moving its name out instead of copying it.
    fn take_ident(&mut self) -> Ident {
        let TokenKind::Ident(name) = &mut self.tokens[self.pos].kind else {
            unreachable!("take_ident is only called at an identifier");
        };
        let name = std::mem::take(name);
        let span = self.advance();
        Ident { name, span }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn error_here(&mut self, message: impl Into<String>) -> Recover {
        let span = self.peek().span;
        self.errors.push(Diagnostic::new(message, span));
        Recover
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> PResult<Span> {
        if self.at(kind) {
            Ok(self.advance())
        } else {
            let found = self.peek().kind.describe();
            Err(self.error_here(format!("expected {what}, found {found}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> PResult<Ident> {
        if matches!(self.peek().kind, TokenKind::Ident(_)) {
            return Ok(self.take_ident());
        }
        let found = self.peek().kind.describe();
        Err(self.error_here(format!("expected {what}, found {found}")))
    }

    /// Skips ahead to just past the next `;` (or to EOF) after an error.
    fn recover_to_semi(&mut self) {
        loop {
            match self.peek().kind {
                TokenKind::Semi => {
                    self.advance();
                    return;
                }
                TokenKind::Eof => return,
                _ => {
                    self.advance();
                }
            }
        }
    }

    fn program(&mut self) -> Program {
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::Eof) {
            match self.statement() {
                Ok(stmt) => stmts.push(stmt),
                Err(Recover) => self.recover_to_semi(),
            }
        }
        Program { stmts }
    }

    fn statement(&mut self) -> PResult<Stmt> {
        match self.peek().kind {
            TokenKind::KwInput => self.input_stmt(),
            TokenKind::KwOutput => self.output_stmt(),
            TokenKind::KwLet => self.const_let_stmt(),
            TokenKind::Ident(_) => self.let_stmt(),
            _ => {
                let found = self.peek().kind.describe();
                Err(self.error_here(format!(
                    "expected a statement (`input`, `output`, `let`, or `name = ...`), \
                     found {found}"
                )))
            }
        }
    }

    /// `[num, num]` — the bracketed bound pair shared by `in` range
    /// annotations and `range` override clauses.
    fn bracket_range(&mut self) -> PResult<InputRange> {
        let open = self.expect(&TokenKind::LBracket, "`[` to open the range")?;
        let lo = self.signed_number("the range's lower bound")?;
        self.expect(&TokenKind::Comma, "`,` between the range bounds")?;
        let hi = self.signed_number("the range's upper bound")?;
        let close = self.expect(&TokenKind::RBracket, "`]` to close the range")?;
        Ok(InputRange {
            lo,
            hi,
            span: open.to(close),
        })
    }

    /// `(range [num, num])?` — the optional override clause of a binding.
    fn range_clause(&mut self) -> PResult<Option<InputRange>> {
        if self.eat(&TokenKind::KwRange) {
            Ok(Some(self.bracket_range()?))
        } else {
            Ok(None)
        }
    }

    /// `input NAME ([WIDTH])? (in [num, num])? ;`
    fn input_stmt(&mut self) -> PResult<Stmt> {
        self.advance(); // `input`
        let name = self.expect_ident("an input name")?;
        let width = if self.at(&TokenKind::LBracket) {
            let open = self.advance();
            let w = self.integer("the vector width", 1, MAX_VECTOR_WIDTH)?;
            let close = self.expect(&TokenKind::RBracket, "`]` to close the vector width")?;
            Some((w, open.to(close)))
        } else {
            None
        };
        let range = if self.at(&TokenKind::KwIn) {
            self.advance();
            Some(self.bracket_range()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi, "`;` after the input declaration")?;
        Ok(Stmt::Input { name, width, range })
    }

    /// `output NAME (= expr (range [num, num])?)? ;`
    fn output_stmt(&mut self) -> PResult<Stmt> {
        self.advance(); // `output`
        let name = self.expect_ident("an output name")?;
        let (expr, range) = if self.eat(&TokenKind::Eq) {
            let e = self.expr()?;
            let r = self.range_clause()?;
            (Some(e), r)
        } else {
            (None, None)
        };
        self.expect(&TokenKind::Semi, "`;` after the output declaration")?;
        Ok(Stmt::Output { name, expr, range })
    }

    /// `let NAME = '-'? NUMBER ;` — a named constant binding.
    fn const_let_stmt(&mut self) -> PResult<Stmt> {
        self.advance(); // `let`
        let name = self.expect_ident("a constant name after `let`")?;
        self.expect(&TokenKind::Eq, "`=` after the constant name")?;
        let start = self.peek().span;
        let negate = self.eat(&TokenKind::Minus);
        let value = match self.peek().kind {
            TokenKind::Number(v) => {
                let end = self.advance();
                Some((if negate { -v } else { v }, start.to(end)))
            }
            _ => None,
        };
        let Some((value, value_span)) = value else {
            let found = self.peek().kind.describe();
            return Err(self.error_here(format!(
                "`let` binds a named constant — expected a number, found {found}"
            )));
        };
        if matches!(
            self.peek().kind,
            TokenKind::Plus | TokenKind::Minus | TokenKind::Star | TokenKind::Slash
        ) {
            return Err(self.error_here(
                "`let` binds a named constant (a single number) — bind an expression \
                 with `name = ...;` instead",
            ));
        }
        self.expect(&TokenKind::Semi, "`;` after the constant binding")?;
        Ok(Stmt::ConstLet {
            name,
            value,
            value_span,
        })
    }

    /// `NAME = expr (range [num, num])? ;`
    fn let_stmt(&mut self) -> PResult<Stmt> {
        let name = self.expect_ident("a name")?;
        self.expect(&TokenKind::Eq, "`=` after the name")?;
        let expr = self.expr()?;
        let range = self.range_clause()?;
        self.expect(&TokenKind::Semi, "`;` after the statement")?;
        Ok(Stmt::Let { name, expr, range })
    }

    /// A possibly-signed numeric literal (used only in range annotations).
    fn signed_number(&mut self, what: &str) -> PResult<f64> {
        let negate = self.eat(&TokenKind::Minus);
        match self.peek().kind {
            TokenKind::Number(v) => {
                self.advance();
                Ok(if negate { -v } else { v })
            }
            _ => {
                let found = self.peek().kind.describe();
                Err(self.error_here(format!("expected {what} (a number), found {found}")))
            }
        }
    }

    /// An unsigned integer literal in `[min, max]` (vector widths,
    /// element indices, tap offsets).
    fn integer(&mut self, what: &str, min: usize, max: usize) -> PResult<usize> {
        match self.peek().kind {
            TokenKind::Number(v) if v.fract() == 0.0 && v >= 0.0 && v <= max as f64 => {
                let v = v as usize;
                if v < min {
                    return Err(
                        self.error_here(format!("expected {what} of at least {min}, found {v}"))
                    );
                }
                self.advance();
                Ok(v)
            }
            TokenKind::Number(v) => Err(self.error_here(format!(
                "expected {what} (an integer in {min}..={max}), found `{v}`"
            ))),
            _ => {
                let found = self.peek().kind.describe();
                Err(self.error_here(format!("expected {what} (an integer), found {found}")))
            }
        }
    }

    /// `expr := term (('+'|'-') term)*`
    fn expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.term()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
    }

    /// `term := unary (('*'|'/') unary)*`
    fn term(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.unary()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            };
        }
    }

    /// `unary := '-' unary | 'delay' unary | primary`
    ///
    /// Every nesting level of the expression grammar passes through here
    /// (parenthesised sub-expressions via `primary`, operator chains
    /// directly), so this is the one recursion-depth checkpoint.
    fn unary(&mut self) -> PResult<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.error_here(format!(
                "expression nesting is deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let result = self.unary_inner();
        self.depth -= 1;
        result
    }

    fn unary_inner(&mut self) -> PResult<Expr> {
        match self.peek().kind {
            TokenKind::Minus => {
                let minus = self.advance();
                let operand = self.unary()?;
                let span = minus.to(operand.span);
                // Fold `-literal` into the literal so negative
                // coefficients lower to a single constant node.
                if let ExprKind::Number(v) = operand.kind {
                    return Ok(Expr {
                        kind: ExprKind::Number(-v),
                        span,
                    });
                }
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnaryOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                })
            }
            TokenKind::KwDelay => {
                let kw = self.advance();
                let operand = self.unary()?;
                let span = kw.to(operand.span);
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnaryOp::Delay,
                        operand: Box::new(operand),
                    },
                    span,
                })
            }
            _ => self.primary(),
        }
    }

    /// `primary := NUMBER | IDENT index? | '(' expr ')'`
    /// `index   := '[' (INT | 'n' ('-' INT)?) ']'`
    fn primary(&mut self) -> PResult<Expr> {
        match self.peek().kind {
            TokenKind::Number(v) => {
                let span = self.advance();
                Ok(Expr {
                    kind: ExprKind::Number(v),
                    span,
                })
            }
            TokenKind::Ident(_) => {
                let Ident { name, span } = self.take_ident();
                if self.at(&TokenKind::LBracket) {
                    return self.index_suffix(name, span);
                }
                Ok(Expr {
                    kind: ExprKind::Var(name),
                    span,
                })
            }
            TokenKind::LParen => {
                let open = self.advance();
                let inner = self.expr()?;
                let close = self.expect(&TokenKind::RParen, "`)` to close the parenthesis")?;
                Ok(Expr {
                    kind: inner.kind,
                    span: open.to(close),
                })
            }
            _ => {
                let found = self.peek().kind.describe();
                Err(self.error_here(format!("expected an expression, found {found}")))
            }
        }
    }

    /// The bracketed index after `base`: `[i]` (vector element) or
    /// `[n]` / `[n-k]` (tap-index sugar, current sample / `k` samples
    /// ago).
    fn index_suffix(&mut self, base: String, base_span: Span) -> PResult<Expr> {
        self.advance(); // `[`
        let index = match &self.peek().kind {
            // `x[n]` / `x[n-k]`: inside an index, `n` is the time index.
            TokenKind::Ident(n) if n == "n" => {
                self.advance();
                if self.eat(&TokenKind::Minus) {
                    IndexKind::Tap(self.integer("the tap offset", 0, MAX_TAP_DEPTH)?)
                } else {
                    IndexKind::Tap(0)
                }
            }
            TokenKind::Number(_) => {
                IndexKind::Element(self.integer("the element index", 0, MAX_VECTOR_WIDTH - 1)?)
            }
            other => {
                let found = other.describe();
                return Err(self.error_here(format!(
                    "expected an element index (`{base}[2]`) or a tap index \
                     (`{base}[n-1]`), found {found}"
                )));
            }
        };
        let close = self.expect(&TokenKind::RBracket, "`]` to close the index")?;
        Ok(Expr {
            kind: ExprKind::Index { base, index },
            span: base_span.to(close),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn parse_one(src: &str) -> Stmt {
        let p = parse(src).unwrap();
        assert_eq!(p.stmts.len(), 1, "{src}");
        p.stmts.into_iter().next().unwrap()
    }

    #[test]
    fn parses_the_issue_example() {
        let src = "input x in [-1, 1];\n\
                   t = 0.3*x;\n\
                   y_prev = delay y;\n\
                   y = t + 0.5*y_prev;\n\
                   output y;\n";
        let p = parse(src).unwrap();
        assert_eq!(p.stmts.len(), 5);
        match &p.stmts[0] {
            Stmt::Input { name, width, range } => {
                assert_eq!(name.name, "x");
                assert!(width.is_none());
                let r = range.as_ref().unwrap();
                assert_eq!((r.lo, r.hi), (-1.0, 1.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.stmts[2] {
            Stmt::Let { name, expr, .. } => {
                assert_eq!(name.name, "y_prev");
                assert_eq!(expr.to_string(), "delay y");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_and_parens() {
        let s = parse_one("y = (a + b) * c - d / -e;");
        match s {
            Stmt::Let { expr, .. } => {
                assert_eq!(expr.to_string(), "(a + b) * c - d / -e");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let s = parse_one("y = -0.5 * x;");
        match s {
            Stmt::Let { expr, .. } => match expr.kind {
                ExprKind::Binary { op, lhs, .. } => {
                    assert_eq!(op, BinaryOp::Mul);
                    assert_eq!(lhs.kind, ExprKind::Number(-0.5));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn output_with_inline_expression() {
        let s = parse_one("output y = a + 1;");
        match s {
            Stmt::Output { name, expr, range } => {
                assert_eq!(name.name, "y");
                assert_eq!(expr.unwrap().to_string(), "a + 1");
                assert!(range.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vector_input_widths_parse_and_are_bounded() {
        match parse_one("input v[8] in [-2, 2];") {
            Stmt::Input { name, width, range } => {
                assert_eq!(name.name, "v");
                assert_eq!(width.unwrap().0, 8);
                assert_eq!(range.unwrap().lo, -2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_one("input v[1];"),
            Stmt::Input {
                width: Some((1, _)),
                ..
            }
        ));
        let errs = parse("input v[0];").unwrap_err();
        assert!(errs[0].message.contains("at least 1"), "{:?}", errs[0]);
        let errs = parse("input v[100000];").unwrap_err();
        assert!(errs[0].message.contains("integer in"), "{:?}", errs[0]);
        let errs = parse("input v[2.5];").unwrap_err();
        assert!(errs[0].message.contains("integer"), "{:?}", errs[0]);
    }

    #[test]
    fn index_forms_parse() {
        let s = parse_one("y = v[2] + x[n-3] + x[n];");
        let Stmt::Let { expr, .. } = s else {
            panic!("not a let");
        };
        assert_eq!(expr.to_string(), "v[2] + x[n-3] + x[n]");
        // `n - 0` canonicalizes to the current sample.
        let s = parse_one("y = x[n - 0];");
        let Stmt::Let { expr, .. } = s else {
            panic!("not a let");
        };
        assert_eq!(expr.to_string(), "x[n]");
    }

    #[test]
    fn bad_indices_are_diagnosed() {
        let errs = parse("y = x[m];").unwrap_err();
        assert!(errs[0].message.contains("element index"), "{:?}", errs[0]);
        let errs = parse("y = x[n-1.5];").unwrap_err();
        assert!(errs[0].message.contains("tap offset"), "{:?}", errs[0]);
        let errs = parse("y = x[n-99999];").unwrap_err();
        assert!(errs[0].message.contains("tap offset"), "{:?}", errs[0]);
        let errs = parse("y = x[n+1];").unwrap_err();
        assert!(errs[0].message.contains("`]`"), "{:?}", errs[0]);
    }

    #[test]
    fn range_clauses_parse_on_bindings_and_outputs() {
        match parse_one("acc = a + b range [-1.5, 1.5];") {
            Stmt::Let { expr, range, .. } => {
                assert_eq!(expr.to_string(), "a + b");
                let r = range.unwrap();
                assert_eq!((r.lo, r.hi), (-1.5, 1.5));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_one("output y = a * b range [0, 4];") {
            Stmt::Output { range, .. } => assert_eq!(range.unwrap().hi, 4.0),
            other => panic!("unexpected {other:?}"),
        }
        // `range` is a keyword now: not a statement head, not a name.
        let errs = parse("range = 1;").unwrap_err();
        assert!(errs[0].message.contains("expected a statement"));
        // A bare output takes no range clause.
        let errs = parse("output y range [0, 1];").unwrap_err();
        assert!(errs[0].message.contains("`;`"), "{:?}", errs[0]);
    }

    #[test]
    fn reports_multiple_errors_with_recovery() {
        let errs = parse("t = ;\nu = 1 +;\nv = 2;").unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].message.contains("expected an expression"));
        assert!(errs[1].message.contains("expected an expression"));
    }

    #[test]
    fn error_spans_point_at_the_offender() {
        let src = "y = 1 + ;";
        let errs = parse(src).unwrap_err();
        assert_eq!(errs[0].span, Span::new(8, 9));
    }

    #[test]
    fn missing_semicolon_is_reported() {
        let errs = parse("y = 1").unwrap_err();
        assert!(errs[0].message.contains("`;`"), "{:?}", errs[0]);
    }

    #[test]
    fn input_range_variants() {
        assert!(matches!(
            parse_one("input x;"),
            Stmt::Input { range: None, .. }
        ));
        let errs = parse("input x in [1 2];").unwrap_err();
        assert!(errs[0].message.contains("`,`"));
    }

    #[test]
    fn pathological_nesting_is_a_diagnostic_not_a_stack_overflow() {
        // A megabyte of `(` (as the server may receive from an untrusted
        // peer) must report, not recurse per byte until the stack dies.
        for deep in [
            format!("y = {}x{};", "(".repeat(1 << 20), ")".repeat(1 << 20)),
            format!("y = {}x;", "-".repeat(1 << 20)),
            format!("y = {}x;", "delay ".repeat(1 << 19)),
        ] {
            let errs = parse(&deep).unwrap_err();
            assert!(
                errs.iter().any(|e| e.message.contains("nesting")),
                "{:?}",
                errs.first()
            );
        }
        // Recovery still works: a later statement parses after the
        // too-deep one is skipped.
        let src = format!("y = {}x;\nz = 1;", "-".repeat(1 << 12));
        let errs = parse(&src).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    #[test]
    fn realistic_nesting_stays_accepted() {
        let src = format!("y = {}x{};", "(".repeat(100), ")".repeat(100));
        assert!(parse(&src).is_ok());
        let src = format!("y = {}x;", "-".repeat(200));
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn spans_cover_expressions() {
        let src = "y = a + b * c;";
        let p = parse(src).unwrap();
        match &p.stmts[0] {
            Stmt::Let { expr, .. } => {
                assert_eq!(&src[expr.span.start..expr.span.end], "a + b * c");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
