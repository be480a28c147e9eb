//! `sna-lang` — the textual datapath DSL of the SNA toolchain.
//!
//! Every workload this reproduction can analyze used to require hand-coded
//! Rust against [`sna_dfg::DfgBuilder`]. This crate turns any filter,
//! transform or feedback datapath into a few lines of text:
//!
//! ```text
//! # A one-pole low-pass filter.
//! input x in [-1, 1];
//! t = 0.3 * x;
//! y_prev = delay y;        # feedback: `y` is defined below
//! y = t + 0.5 * y_prev;
//! output y;
//! ```
//!
//! [`compile`] turns that source into a [`Lowered`] — a validated
//! [`sna_dfg::Dfg`] plus per-input ranges — ready for every analysis
//! entry point in the workspace (`Session`, `Optimizer`,
//! `synthesize`). The `sna` CLI (crate `sna-cli`) wraps exactly this
//! pipeline.
//!
//! # Grammar
//!
//! ```text
//! program  := stmt*
//! stmt     := input | constlet | binding | output
//! input    := "input" IDENT ("[" INT "]")? ("in" "[" signed "," signed "]")? ";"
//! constlet := "let" IDENT "=" signed ";"
//! binding  := IDENT "=" expr override? ";"
//! output   := "output" IDENT ("=" expr override?)? ";"
//! override := "range" "[" signed "," signed "]"
//!
//! expr     := term (("+" | "-") term)*          // left-associative
//! term     := unary (("*" | "/") unary)*        // left-associative
//! unary    := "-" unary | "delay" unary | primary
//! primary  := NUMBER | IDENT index? | "(" expr ")"
//! index    := "[" (INT | "n" ("-" INT)?) "]"
//! signed   := "-"? NUMBER
//!
//! NUMBER   := [0-9]+ ("." [0-9]+)? ([eE] [+-]? [0-9]+)?
//! INT      := [0-9]+
//! IDENT    := [A-Za-z_][A-Za-z0-9_]*            // except keywords
//! ```
//!
//! Comments run from `#` or `//` to end of line. The six keywords are
//! `input`, `output`, `in`, `delay`, `let` and `range`.
//!
//! `let k = 0.70710678;` is a *named constant binding*: semantically the
//! same as `k = 0.70710678;` (it lowers to the shared, deduped `Const`
//! node), but it marks the one obvious mutation site of a
//! coefficient-swept design — the values `Session::with_coefficients`
//! swaps without recompiling.
//!
//! `input v[8] in [-1, 1];` declares a *vector input bank*: eight
//! inputs addressable as `v[0]` … `v[7]`, each with the declared range.
//!
//! `x[n-3]` is *tap-index sugar*: the value of `x` three samples ago.
//! Taps of one source share a single deduped delay chain (`x[n-1]` and
//! `x[n-3]` together create three delay nodes, not four), and a tap of
//! a name defined later expresses feedback exactly like `delay name`.
//! `x[n]` is the current sample.
//!
//! `acc = a + b range [-1, 1];` *overrides range analysis* at the bound
//! node: the range engines behind every analysis path — the interval
//! fixpoint, the LTI L1 fallback, and the per-sample combinational view
//! (where a delay's override becomes its state input's) — report the
//! declared interval for `acc` instead of the computed one.  This is the escape
//! hatch for designer knowledge interval arithmetic cannot see, and a
//! way to bound feedback state that would otherwise diverge.  (The one
//! exception is the standalone `Dfg::unroll` transient view, which
//! carries overrides per step for computed nodes but drops delay-state
//! overrides — see its docs.)  Full reference in
//! `crates/lang/README.md`.
//!
//! # Semantics
//!
//! * Every operator maps 1:1 onto an [`sna_dfg::Op`]: `+` → `Add`, `-` →
//!   `Sub`, `*` → `Mul`, `/` → `Div`, unary `-` → `Neg`, `delay` →
//!   `Delay`, literals → `Const`, `input` → `Input`. Unary minus on a
//!   literal folds into the constant (`-0.5 * x` is one `Const` and one
//!   `Mul`, exactly like `DfgBuilder::mul_const(-0.5, x)`). Identical
//!   literals within one datapath share a single `Const` node (compared
//!   by bit pattern, so `-0.0` and `0.0` stay distinct) — symmetric
//!   filter coefficients do not inflate the node count.
//! * Names must be defined before use, with one exception: the direct
//!   operand of `delay` may be defined *later*, which expresses feedback
//!   and lowers to `delay_placeholder`/`bind_delay`. Every cycle must
//!   pass through a `delay` — the builder rejects anything else.
//! * `name = other_name;` is a pure alias (no node is created).
//! * Inputs take their declared `[lo, hi]` range, defaulting to
//!   `[-1, 1]`; ranges reach the analyses via [`Lowered::input_ranges`]
//!   in declaration order.
//! * `output name = expr;` both declares the output and binds `name`.
//!
//! # Diagnostics
//!
//! All phases report [`Diagnostic`]s carrying byte spans;
//! [`Diagnostic::render`] produces caret-style snippets with line and
//! column numbers. The parser recovers at `;`, so one run reports
//! multiple errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod diag;
mod fingerprint;
mod lower;
mod parser;
mod span;
mod token;

pub use ast::{BinaryOp, Expr, ExprKind, Ident, IndexKind, InputRange, Program, Stmt, UnaryOp};
pub use diag::{render_all, Diagnostic};
pub use fingerprint::{canonical_fingerprint, fnv1a_64, source_fingerprint};
pub use lower::{compile, lower, Lowered, MAX_PROGRAM_INPUTS, MAX_SUGAR_DELAYS};
pub use parser::{parse, MAX_TAP_DEPTH, MAX_VECTOR_WIDTH};
pub use span::Span;
pub use token::{lex, Token, TokenKind};
