//! `sna-cli` — the `sna` command-line tool.
//!
//! One binary drives the whole analyze → optimize → synthesize pipeline
//! of the DAC'08 reproduction over textual `.sna` datapaths (see the
//! `sna-lang` crate for the language), plus the batch and server modes
//! built on the `sna-service` execution layer:
//!
//! ```text
//! sna parse    <file>.sna [--dot | --canon] [--format human|json]
//! sna analyze  <file>.sna... [--manifest list.txt] [--jobs N]
//!                         [--engine auto|na|dfg|lti|symbolic|cartesian]
//!                         [--bits N] [--bins N] [--format human|json]
//! sna optimize <file>.sna... [--manifest list.txt] [--jobs N]
//!                         [--method greedy|waterfill|anneal|group-greedy|
//!                          exhaustive|uniform|all]
//!                         [--ref-bits W] [--budget X] [--start W]
//!                         [--radius R] [--format human|json]
//!                         [--pareto [--points N] [--checkpoint-every K]
//!                          [--w-lo W] [--w-hi W] [--store-dir DIR]]
//! sna simulate <file>.sna... [--manifest list.txt] [--jobs N]
//!                         [--bits N] [--bins N] [--paths N] [--seed N]
//!                         [--steps N] [--warmup N] [--workers N]
//!                         [--format human|json]
//! sna synth    <file>.sna [--bits N] [--clock NS] [--format human|json]
//! sna trace    <fit|replay|report> <file>.sna... --trace data.csv
//!                         [--manifest list.txt] [--jobs N] [--bits N]
//!                         [--bins N] [--warmup N] [--workers N]
//!                         [--store-dir DIR] [--format human|json]
//! sna serve    [--listen addr:port] [--max-conns N]
//! sna store    <ls|gc|verify> --store-dir DIR [--budget BYTES] [--repair]
//! ```
//!
//! # Examples
//!
//! ```text
//! $ sna analyze examples/fir.sna --engine dfg --bits 8 --format json
//! $ sna analyze examples/*.sna --jobs 4 --format json
//! $ sna optimize examples/diffeq.sna --method all --ref-bits 12
//! $ sna simulate examples/fir.sna --bits 10 --paths 200000 --seed 7
//! $ sna synth examples/rgb.sna --bits 10
//! $ echo '{"cmd":"analyze","path":"examples/fir.sna"}' | sna serve
//! ```
//!
//! `analyze`, `simulate`, and `optimize` accept many files (and/or a `--manifest`
//! file listing one path per line). In batch mode the files fan out
//! across `--jobs` worker threads sharing one compile cache; per-file
//! output is byte-identical to the single-file invocation, failures are
//! reported inline without stopping the batch, and a trailing summary
//! line carries file/ok/err counts, cache hits/misses, and timing.
//! `serve` keeps that cache alive across requests — the line-oriented
//! JSON protocol is documented in `crates/service/README.md`.
//!
//! `--store-dir DIR` names a persistent content-addressed artifact store
//! (`crates/store`): `optimize --pareto` checkpoints its sweep there so
//! an interrupted exploration resumes bit-identically, and `trace`
//! keeps its fitted input ranges there. `sna store` inspects and
//! maintains such a directory. Compiled models live in memory only.
//!
//! All commands exit 0 on success, 1 on analysis/compile failures (with
//! caret-style diagnostics on stderr), and 2 on usage errors. A batch
//! where some files failed also exits 1 — its full output (per-file
//! documents, inline errors, summary) still goes to stdout, so scripts
//! detect partial failure from the exit code without parsing the
//! summary. The library surface ([`run`]) returns the rendered output
//! instead of printing, so integration tests drive the CLI in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze_cmd;
mod common;
mod optimize_cmd;
mod parse_cmd;
mod serve_cmd;
mod simulate_cmd;
mod store_cmd;
mod synth_cmd;
mod trace_cmd;

pub use common::CliError;
/// The JSON document model, re-exported from `sna-service` — the single
/// authority for JSON in this workspace. Every CLI module consumes this
/// re-export (`crate::Json`); there are no private copies or conversion
/// shims.
pub use sna_service::Json;

const USAGE: &str = "usage: sna <parse|analyze|simulate|optimize|synth|trace|serve|store> [<file>.sna...] [options]\n\
                     \n\
                     commands:\n\
                     \x20 parse     validate a .sna file; dump a summary, DOT, or canonical form\n\
                     \x20 analyze   per-output noise reports (engines: auto, na, dfg, lti,\n\
                     \x20           symbolic, cartesian); many files fan out across --jobs workers\n\
                     \x20 simulate  Monte-Carlo simulation on the bytecode VM; empirical error\n\
                     \x20           statistics next to the analytic prediction\n\
                     \x20 optimize  noise-constrained word-length search (greedy, waterfill,\n\
                     \x20           anneal, group-greedy, exhaustive, uniform, all); --pareto\n\
                     \x20           runs the resumable multi-objective design-space sweep\n\
                     \x20 synth     schedule + bind + cost report for one configuration\n\
                     \x20 trace     trace-driven noise analysis: fit input ranges from a\n\
                     \x20           recorded CSV, replay it through the VM, report measured\n\
                     \x20           output noise next to the empirical-range prediction\n\
                     \x20 serve     long-running line-oriented JSON server (stdin/stdout or\n\
                     \x20           --listen addr:port) with compiled-model caching\n\
                     \x20 store     ls/gc/verify a persistent artifact store (--store-dir on\n\
                     \x20           optimize --pareto and trace writes to it)\n\
                     \n\
                     run `sna <command>` with no arguments for command-specific usage";

/// Dispatches a full argument vector (without the program name) and
/// returns what should be printed on stdout.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations (exit code 2),
/// [`CliError::Failed`] for compile/analysis failures (exit code 1),
/// [`CliError::BatchFailed`] for a batch with at least one failed file
/// (exit code 1; the payload is the full batch output, stdout-bound).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "parse" => parse_cmd::run(rest),
        "analyze" => analyze_cmd::run(rest),
        "simulate" => simulate_cmd::run(rest),
        "optimize" => optimize_cmd::run(rest),
        "synth" => synth_cmd::run(rest),
        "trace" => trace_cmd::run(rest),
        "serve" => serve_cmd::run(rest),
        "store" => store_cmd::run(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}
