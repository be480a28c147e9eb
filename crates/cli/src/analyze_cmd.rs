//! `sna analyze` — run a noise analysis engine over one or many `.sna`
//! datapaths and report per-output [`NoiseReport`]s.
//!
//! Engines `auto`, `na`, `lti` work on the graph as written (including
//! linear feedback). `dfg` and `symbolic` are combinational engines: on a
//! sequential graph they analyze the *per-sample combinational view*
//! (delays become state inputs whose ranges come from range analysis).
//! `cartesian` runs the paper's Section-4 exact algorithm on the *value*
//! uncertainty of the inputs — it characterizes the output PDF rather
//! than quantization noise.
//!
//! With several files (or `--manifest`) the command runs in batch mode:
//! the files fan out across `--jobs` workers sharing one compile cache,
//! per-file output is byte-identical to the single-file invocation, and a
//! trailing summary line reports counts, cache hits, and timing.

use sna_core::NoiseReport;
use sna_service::exec::{self, AnalyzeEngine, AnalyzeParams};

use crate::common::{
    collect_files, json_doc, parse_format, parse_jobs, report_human, run_batch, unknown_flag, Args,
    CliError, Format,
};

const USAGE: &str = "sna analyze <file>.sna... [--manifest list.txt] [--jobs N] \
                     [--engine auto|na|dfg|lti|symbolic|cartesian] \
                     [--bits N] [--bins N] [--format human|json]";

/// Runs the subcommand.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new_multi(argv);
    let mut format = Format::Human;
    let mut engine = AnalyzeEngine::Auto;
    let mut bits: u8 = 12;
    let mut bins: usize = 64;
    let mut jobs: usize = sna_vm::default_workers();
    let mut manifest: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "format" => format = parse_format(args.value("format")?)?,
            "engine" => {
                engine = AnalyzeEngine::parse(args.value("engine")?).map_err(CliError::Usage)?;
            }
            "bits" => bits = args.parse_value("bits")?,
            "bins" => bins = args.parse_value("bins")?,
            "jobs" => jobs = parse_jobs(&mut args)?,
            "manifest" => manifest = Some(args.value("manifest")?.to_string()),
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    let (files, batch) = collect_files(args.files(), manifest.as_deref(), USAGE)?;
    let params = AnalyzeParams { engine, bits, bins };
    run_batch("analyze", files, batch, jobs, format, |path, entry| {
        let report = exec::analyze_report(entry, &params).map_err(CliError::Failed)?;
        Ok(match format {
            Format::Human => human(path, &params, &report.reports),
            Format::Json => json_doc(
                "analyze",
                path,
                exec::analyze_result(&report, &params, true),
            ),
        })
    })
}

/// One file's terminal output. The header names the *requested* engine
/// (the JSON document names the one that ran).
fn human(path: &str, params: &AnalyzeParams, reports: &[(String, NoiseReport)]) -> String {
    let mut out = format!(
        "{path}: engine {} · {} bits · {} bins\n",
        params.engine.name(),
        params.bits,
        params.bins
    );
    if params.engine == AnalyzeEngine::Cartesian {
        out.push_str("(value-uncertainty PDF of the outputs, not quantization noise)\n");
    }
    for (name, report) in reports {
        out.push('\n');
        out.push_str(&report_human(name, report, true));
    }
    out
}
