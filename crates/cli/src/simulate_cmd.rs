//! `sna simulate` — Monte-Carlo simulation of one or many `.sna`
//! datapaths on the `sna-vm` bytecode backend, reporting empirical
//! per-output error statistics next to the analytic model's prediction
//! (the paper's Table-2 "Actual Values" cross-check).
//!
//! The report is a pure function of the file and the request: the same
//! `--seed` produces bit-identical numbers whatever `--workers` says.
//! Linear graphs carry an NA prediction, nonlinear combinational ones a
//! histogram-propagation prediction; nonlinear sequential graphs have
//! no model column — the simulation is the only number anyone has.
//!
//! With several files (or `--manifest`) the command runs in batch mode
//! exactly like `analyze`: files fan out across `--jobs` workers
//! sharing one compile cache, per-file output stays byte-identical to
//! the single-file invocation.

use sna_core::SimReport;
use sna_service::exec::{self, SimulateParams};

use crate::common::{
    collect_files, json_doc, open_store, outputs_human, parse_format, parse_jobs, run_batch,
    unknown_flag, Args, CliError, Format,
};

const USAGE: &str = "sna simulate <file>.sna... [--manifest list.txt] [--jobs N] \
                     [--bits N] [--bins N] [--paths N] [--seed N] [--steps N] \
                     [--warmup N] [--workers N] [--store-dir DIR] [--format human|json]";

/// Runs the subcommand.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new_multi(argv);
    let mut format = Format::Human;
    let mut params = SimulateParams::default();
    let mut jobs: usize = sna_vm::default_workers();
    let mut manifest: Option<String> = None;
    let mut store_dir: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "format" => format = parse_format(args.value("format")?)?,
            "bits" => params.bits = args.parse_value("bits")?,
            "bins" => params.bins = args.parse_value("bins")?,
            "paths" => params.paths = args.parse_value("paths")?,
            "seed" => params.seed = args.parse_value("seed")?,
            "steps" => params.steps = Some(args.parse_value("steps")?),
            "warmup" => params.warmup = Some(args.parse_value("warmup")?),
            "workers" => params.workers = args.parse_value("workers")?,
            "jobs" => jobs = parse_jobs(&mut args)?,
            "manifest" => manifest = Some(args.value("manifest")?.to_string()),
            "store-dir" => store_dir = Some(args.value("store-dir")?.to_string()),
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    let (files, batch) = collect_files(args.files(), manifest.as_deref(), USAGE)?;
    let store = store_dir.as_deref().map(open_store).transpose()?;
    run_batch(
        "simulate",
        files,
        batch,
        jobs,
        format,
        store,
        |path, entry| {
            let report = exec::simulate(entry, &params).map_err(CliError::Failed)?;
            Ok(match format {
                Format::Human => human(path, &params, &report),
                Format::Json => json_doc(
                    "simulate",
                    path,
                    exec::simulate_result(&report, &params, true),
                ),
            })
        },
    )
}

/// One file's terminal output.
fn human(path: &str, params: &SimulateParams, report: &SimReport) -> String {
    let mut out = format!(
        "{path}: simulate · {} bits · {} paths × {} steps ({} warmup) · seed {:#x}\n",
        params.bits, report.paths, report.steps, report.warmup, report.seed
    );
    match report.predicted_by {
        Some(engine) => out.push_str(&format!(
            "predicted by the `{}` engine; gaps are empirical − predicted\n",
            engine.name()
        )),
        None => out.push_str("no analytic model applies; empirical numbers only\n"),
    }
    out.push_str(&outputs_human(&report.outputs));
    out
}
