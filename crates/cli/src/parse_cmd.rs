//! `sna parse` — validate a `.sna` file; dump a summary, DOT, or the
//! canonical source form.

use sna_lang::Lowered;
use sna_service::exec;

use crate::common::{json_doc, load, parse_format, unknown_flag, Args, CliError, Format};

const USAGE: &str = "sna parse <file>.sna [--dot | --canon] [--format human|json]";

/// Runs the subcommand.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new(argv);
    let mut format = Format::Human;
    let mut dot = false;
    let mut canon = false;
    while let Some(flag) = args.next_flag() {
        match flag {
            "format" => format = parse_format(args.value("format")?)?,
            "dot" => dot = true,
            "canon" => canon = true,
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    if dot && canon {
        return Err(CliError::Usage(format!(
            "--dot and --canon are mutually exclusive\nusage: {USAGE}"
        )));
    }
    if (dot || canon) && format == Format::Json {
        return Err(CliError::Usage(format!(
            "--format json cannot combine with --dot/--canon (their output is not JSON)\n\
             usage: {USAGE}"
        )));
    }
    let path = args.file(USAGE)?;
    let (lowered, source) = load(path)?;

    if dot {
        return Ok(lowered.dfg.to_dot());
    }
    if canon {
        // Re-parse only (lowering already validated the semantics).
        let program = sna_lang::parse(&source).expect("already compiled");
        return Ok(program.to_string());
    }
    Ok(match format {
        Format::Human => human(path, &lowered),
        Format::Json => json_doc(
            "parse",
            path,
            exec::parse_result(&lowered.dfg, &lowered.input_ranges),
        ),
    })
}

fn human(path: &str, lowered: &Lowered) -> String {
    let dfg = &lowered.dfg;
    let c = dfg.op_counts();
    let mut out = format!("{path}: ok\n");
    out.push_str(&format!(
        "  {} node(s): {} input(s), {} const(s), {} add, {} sub, {} mul, {} div, {} neg, {} delay\n",
        dfg.len(),
        c.inputs,
        c.consts,
        c.adds,
        c.subs,
        c.muls,
        c.divs,
        c.negs,
        c.delays
    ));
    out.push_str(&format!(
        "  depth {} · {} · {}\n",
        dfg.depth(),
        if dfg.is_combinational() {
            "combinational"
        } else {
            "sequential"
        },
        if dfg.is_linear() {
            "linear"
        } else {
            "nonlinear"
        },
    ));
    for (name, range) in dfg.input_names().iter().zip(&lowered.input_ranges) {
        out.push_str(&format!(
            "  input  {name} in [{}, {}]\n",
            range.lo(),
            range.hi()
        ));
    }
    for (name, node) in dfg.outputs() {
        out.push_str(&format!("  output {name} = node {node}\n"));
    }
    out
}
