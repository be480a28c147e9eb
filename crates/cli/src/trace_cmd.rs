//! `sna trace` — trace-driven noise analysis: recorded input signals
//! in, empirical noise reports out.
//!
//! Three modes share one ingestion path (streaming CSV → per-column
//! `OnlineStats` → fitted ranges and histograms):
//!
//! * `fit` — bind the CSV columns to the datapath's inputs and report
//!   the measured ranges/moments that replace the declared ranges.
//! * `replay` — drive the VM's paired exact/quantized lanes with the
//!   recorded rows and report the *measured* output noise alone.
//! * `report` — `replay` plus the analytic prediction computed from the
//!   *fitted* (empirical) input ranges, with abs/rel gaps per output.
//!
//! The replay is deterministic: the trace is cut into fixed segments
//! that map onto VM lanes, so the numbers are bit-identical whatever
//! `--workers` says. With `--store-dir` the fitted input ranges are
//! spilled to the artifact store as `tracefit` objects (keyed by
//! program fingerprint × trace content).

use sna_core::TraceReport;
use sna_service::exec::{self, TraceParams};
use sna_store::{fnv1a_64, Store, WireWriter};
use sna_trace::TraceLimits;

use crate::common::{
    collect_files, json_doc, open_store, outputs_human, parse_format, parse_jobs, run_batch,
    unknown_flag, Args, CliError, Format,
};

const USAGE: &str = "sna trace <fit|replay|report> <file>.sna... --trace data.csv \
                     [--manifest list.txt] [--jobs N] [--bits N] [--bins N] \
                     [--warmup N] [--workers N] [--store-dir DIR] [--format human|json]";

/// Object kind of a spilled fitted-range artifact.
const TRACEFIT_KIND: &str = "tracefit";

/// Version tag leading every `tracefit` payload.
const TRACEFIT_VERSION: u32 = 1;

/// Runs the subcommand.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new_multi(argv);
    let mut format = Format::Human;
    let mut params = TraceParams::default();
    let mut jobs: usize = sna_vm::default_workers();
    let mut manifest: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "format" => format = parse_format(args.value("format")?)?,
            "trace" => trace_path = Some(args.value("trace")?.to_string()),
            "bits" => params.bits = args.parse_value("bits")?,
            "bins" => params.bins = args.parse_value("bins")?,
            "warmup" => params.warmup = Some(args.parse_value("warmup")?),
            "workers" => params.workers = args.parse_value("workers")?,
            "jobs" => jobs = parse_jobs(&mut args)?,
            "manifest" => manifest = Some(args.value("manifest")?.to_string()),
            "store-dir" => store_dir = Some(args.value("store-dir")?.to_string()),
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    let Some((&mode, file_args)) = args.files().split_first() else {
        return Err(CliError::Usage(format!(
            "missing <fit|replay|report> mode\nusage: {USAGE}"
        )));
    };
    if !matches!(mode, "fit" | "replay" | "report") {
        return Err(CliError::Usage(format!(
            "unknown trace mode `{mode}` (expected fit, replay or report)\nusage: {USAGE}"
        )));
    }
    params.predict = mode == "report";
    let Some(trace_path) = trace_path else {
        return Err(CliError::Usage(format!(
            "missing --trace data.csv\nusage: {USAGE}"
        )));
    };
    let csv = std::fs::read_to_string(&trace_path)
        .map_err(|e| CliError::failed(format!("cannot read `{trace_path}`: {e}")))?;
    let (files, batch) = collect_files(file_args, manifest.as_deref(), USAGE)?;
    // One handle for every file: each handle persists its own index on
    // `put`, so a second one on the directory would clobber its entries.
    let fit_store = store_dir.as_deref().map(open_store).transpose()?;
    let csv_key = fnv1a_64(csv.as_bytes());
    run_batch("trace", files, batch, jobs, format, |path, entry| {
        let budget = sna_core::Budget::unlimited();
        let trace = exec::ingest_trace(&csv, &entry.session, &TraceLimits::default(), &budget)
            .map_err(CliError::Failed)?;
        let fit = exec::trace_fit(&entry.session, &trace, params.bins).map_err(CliError::Failed)?;
        if let Some(store) = &fit_store {
            spill_fit(store, entry.fingerprint ^ csv_key, &fit);
        }
        if mode == "fit" {
            return Ok(match format {
                Format::Human => fit_human(path, &trace, params.bins, &fit),
                Format::Json => json_doc(
                    "trace",
                    path,
                    exec::trace_fit_result(&trace, params.bins, &fit, true),
                ),
            });
        }
        let report =
            exec::trace_report(entry, &trace, &params, &budget, true).map_err(CliError::Failed)?;
        Ok(match format {
            Format::Human => human(path, mode, &params, &report),
            Format::Json => json_doc("trace", path, exec::trace_result(&report, &params, true)),
        })
    })
}

/// Writes the fitted ranges/moments to the artifact store, keyed by
/// `program fingerprint ⊕ trace-content hash` so re-runs over the same
/// pair land on the same object. Spill failures are non-fatal — the
/// store is an accelerator, never a correctness dependency.
fn spill_fit(store: &Store, key: u64, fit: &[sna_core::TraceInputFit]) {
    let mut w = WireWriter::new();
    w.u32(TRACEFIT_VERSION);
    w.len(fit.len());
    for f in fit {
        w.str(&f.name);
        w.u64(f.samples as u64);
        w.f64(f.mean);
        w.f64(f.variance);
        w.f64(f.range.lo());
        w.f64(f.range.hi());
    }
    let _ = store.put(TRACEFIT_KIND, key, &w.finish());
}

/// One file's `fit` output in terminal form.
fn fit_human(
    path: &str,
    trace: &sna_trace::Trace,
    bins: usize,
    fit: &[sna_core::TraceInputFit],
) -> String {
    let mut out = format!(
        "{path}: trace fit · {} row(s) · {} skipped · {} bins\n",
        trace.rows(),
        trace.skipped(),
        bins
    );
    for f in fit {
        out.push_str(&format!(
            "input `{}`\n  samples   {:>13}\n  mean      {:>13.6e}\n  \
             variance  {:>13.6e}\n  range     [{:.6e}, {:.6e}]\n",
            f.name,
            f.samples,
            f.mean,
            f.variance,
            f.range.lo(),
            f.range.hi(),
        ));
    }
    out
}

/// One file's `replay`/`report` output in terminal form.
fn human(path: &str, mode: &str, params: &TraceParams, report: &TraceReport) -> String {
    let mut out = format!(
        "{path}: trace {mode} · {} bits · {} row(s) · {} skipped · {} warmup\n",
        params.bits, report.rows, report.skipped, report.warmup
    );
    match report.predicted_by {
        Some(engine) => out.push_str(&format!(
            "predicted by the `{}` engine over the fitted ranges; \
             gaps are measured − predicted\n",
            engine.name()
        )),
        None => out.push_str("measured numbers only (no analytic prediction)\n"),
    }
    out.push_str(&outputs_human(&report.outputs));
    out
}
