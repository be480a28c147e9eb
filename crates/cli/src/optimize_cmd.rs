//! `sna optimize` — noise-constrained word-length optimization of one or
//! many `.sna` datapaths with the five `sna_opt::Optimizer` search
//! methods.
//!
//! The budget defaults to the noise power of the uniform `--ref-bits`
//! reference design (the paper's "Fixed WL" column); `--budget` overrides
//! it with an explicit noise power. `--method all` runs every budgeted
//! method and prints a comparison. Several files (or `--manifest`) run in
//! batch mode across `--jobs` workers with a trailing summary line.
//!
//! `--pareto` switches to the resumable design-space explorer instead:
//! a geometric ladder of `--points` noise budgets between the noise of
//! the uniform `--w-hi` and `--w-lo` designs is swept once per cost
//! objective (area, power, latency), and the non-dominated frontier is
//! reported. With `--store-dir` the sweep checkpoints its frontier every
//! `--checkpoint-every` candidates into the persistent artifact store,
//! and an interrupted sweep resumes from the last checkpoint — the
//! resumed frontier is bit-identical to an uninterrupted run.

use sna_hls::SynthesisConstraints;
use sna_opt::{pareto_explore, Evaluation, ParetoOutcome, ParetoSweepSpec};
use sna_service::exec::{self, OptimizeOutcome, OptimizeParams};
use sna_service::CompileCache;

use crate::common::{
    collect_files, json_doc, open_store, parse_format, parse_jobs, run_batch, unknown_flag, Args,
    CliError, Format,
};
use crate::Json;

const USAGE: &str = "sna optimize <file>.sna... [--manifest list.txt] [--jobs N] \
                     [--method greedy|waterfill|anneal|group-greedy|exhaustive|uniform|all] \
                     [--ref-bits W] [--budget X] [--start W] [--radius R] \
                     [--restarts N] [--threads N] [--format human|json]\n\
                     \x20      --pareto [--points N] [--checkpoint-every K] [--w-lo W] [--w-hi W] \
                     [--store-dir DIR]";

/// Runs the subcommand.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new_multi(argv);
    let mut format = Format::Human;
    let mut params = OptimizeParams::default();
    let mut jobs: usize = sna_vm::default_workers();
    let mut manifest: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut pareto = false;
    let mut spec = ParetoSweepSpec::default();
    while let Some(flag) = args.next_flag() {
        match flag {
            "format" => format = parse_format(args.value("format")?)?,
            "method" => params.method = args.value("method")?.to_string(),
            "ref-bits" => params.ref_bits = args.parse_value("ref-bits")?,
            "budget" => params.budget = Some(args.parse_value("budget")?),
            "start" => params.start = args.parse_value("start")?,
            "radius" => params.radius = args.parse_value("radius")?,
            "restarts" => params.restarts = args.parse_value("restarts")?,
            "threads" => {
                params.threads = args.parse_value("threads")?;
                spec.threads = params.threads;
            }
            "jobs" => jobs = parse_jobs(&mut args)?,
            "manifest" => manifest = Some(args.value("manifest")?.to_string()),
            "store-dir" => store_dir = Some(args.value("store-dir")?.to_string()),
            "pareto" => pareto = true,
            "points" => spec.noise_points = args.parse_value("points")?,
            "checkpoint-every" => spec.checkpoint_every = args.parse_value("checkpoint-every")?,
            "w-lo" => spec.w_lo = args.parse_value("w-lo")?,
            "w-hi" => spec.w_hi = args.parse_value("w-hi")?,
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    if pareto {
        return run_pareto(
            &args,
            manifest.as_deref(),
            store_dir.as_deref(),
            &spec,
            format,
        );
    }
    let d = ParetoSweepSpec::default();
    if (
        spec.noise_points,
        spec.checkpoint_every,
        spec.w_lo,
        spec.w_hi,
    ) != (d.noise_points, d.checkpoint_every, d.w_lo, d.w_hi)
    {
        return Err(CliError::Usage(format!(
            "--points/--checkpoint-every/--w-lo/--w-hi only apply with --pareto\nusage: {USAGE}"
        )));
    }
    if store_dir.is_some() {
        return Err(CliError::Usage(format!(
            "--store-dir only applies with --pareto (it holds the sweep's checkpoints)\n\
             usage: {USAGE}"
        )));
    }
    exec::validate_method(&params.method)
        .map_err(|e| CliError::Usage(format!("{e}\nusage: {USAGE}")))?;
    let (files, batch) = collect_files(args.files(), manifest.as_deref(), USAGE)?;
    run_batch("optimize", files, batch, jobs, format, |path, entry| {
        let out = exec::optimize(&entry.session, &params).map_err(CliError::Failed)?;
        Ok(match format {
            Format::Human => human(path, &out),
            Format::Json => json_doc("optimize", path, exec::optimize_result(&out)),
        })
    })
}

/// The `--pareto` mode: one file, one resumable sweep.
fn run_pareto(
    args: &Args,
    manifest: Option<&str>,
    store_dir: Option<&str>,
    spec: &ParetoSweepSpec,
    format: Format,
) -> Result<String, CliError> {
    if manifest.is_some() || args.files().len() > 1 {
        return Err(CliError::Usage(format!(
            "--pareto sweeps a single file (no --manifest / batch)\nusage: {USAGE}"
        )));
    }
    let path = args.file(USAGE)?;
    let store = store_dir.map(open_store).transpose()?;
    let entry = crate::common::load_cached(&CompileCache::new(), path)?;
    let outcome = pareto_explore(
        &entry.session,
        SynthesisConstraints::default(),
        spec,
        store.as_deref(),
    )
    .map_err(|e| CliError::failed(format!("pareto sweep failed: {e}")))?;
    Ok(match format {
        Format::Human => pareto_human(path, spec, &outcome),
        Format::Json => pareto_json(path, spec, &outcome).to_string(),
    })
}

fn pareto_human(path: &str, spec: &ParetoSweepSpec, outcome: &ParetoOutcome) -> String {
    let mut out = format!(
        "{path}: pareto sweep · widths {}..{} · {} noise point(s) × 3 objective(s) = \
         {} candidate(s)\n\
         evaluated {} (resumed at {}) · {} checkpoint(s) written · frontier {} point(s)\n\n",
        spec.w_lo,
        spec.w_hi,
        spec.noise_points,
        outcome.total,
        outcome.evaluated,
        outcome.resumed_at,
        outcome.checkpoints,
        outcome.frontier.len()
    );
    for p in &outcome.frontier {
        out.push_str(&eval_human(p.objective.as_str(), &p.eval));
    }
    out
}

fn pareto_json(path: &str, spec: &ParetoSweepSpec, outcome: &ParetoOutcome) -> Json {
    Json::Obj(vec![
        ("command".into(), Json::str("optimize")),
        ("mode".into(), Json::str("pareto")),
        ("file".into(), Json::str(path)),
        ("w_lo".into(), Json::int(spec.w_lo as usize)),
        ("w_hi".into(), Json::int(spec.w_hi as usize)),
        ("points".into(), Json::int(spec.noise_points)),
        ("total".into(), Json::int(outcome.total)),
        ("evaluated".into(), Json::int(outcome.evaluated)),
        ("resumed_at".into(), Json::int(outcome.resumed_at)),
        ("checkpoints".into(), Json::int(outcome.checkpoints)),
        (
            "frontier".into(),
            Json::Arr(
                outcome
                    .frontier
                    .iter()
                    .map(|p| {
                        let Json::Obj(mut fields) = exec::eval_json(&p.eval) else {
                            unreachable!("eval_json returns an object");
                        };
                        fields.insert(0, ("objective".into(), Json::str(p.objective.as_str())));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn eval_human(tag: &str, e: &Evaluation) -> String {
    format!(
        "{tag:<14} noise {:>12.6e}  area {:>10.1} µm²  power {:>9.1} µW  \
         latency {:>3} cyc  weighted {:>12.1}\n",
        e.noise_power, e.cost.area_um2, e.cost.power_uw, e.cost.latency_cycles, e.weighted_cost
    )
}

fn human(path: &str, outcome: &OptimizeOutcome) -> String {
    let OptimizeOutcome {
        budget,
        reference,
        results,
    } = outcome;
    let mut out = format!("{path}: noise budget {budget:.6e}\n\n");
    out.push_str(&eval_human("reference", reference));
    for (name, e) in results {
        out.push_str(&eval_human(name, e));
    }
    if let Some((_, best)) = results
        .iter()
        .min_by(|a, b| a.1.weighted_cost.total_cmp(&b.1.weighted_cost))
    {
        out.push_str(&format!(
            "\nbest: {:.1}% of reference weighted cost · word lengths {:?}\n",
            100.0 * best.weighted_cost / reference.weighted_cost,
            best.word_lengths
        ));
    }
    out
}
