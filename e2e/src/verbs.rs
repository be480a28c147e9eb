//! In-process execution of the benchmark's request bodies through the
//! repository's public entry points, split into the steps the traced
//! replay times: parameters from the decoded request, execution against
//! a compiled entry, and rendering of the `result` member exactly as
//! `sna serve` renders it.

use sna_core::{AnalysisReport, SimReport};
use sna_service::exec::{self, AnalyzeParams, OptimizeOutcome, OptimizeParams, SimulateParams};
use sna_service::{CompiledEntry, Json};

#[derive(Clone, Debug)]
pub enum Params {
    Analyze(AnalyzeParams, bool),
    Simulate(SimulateParams, bool),
    Optimize(OptimizeParams),
}

impl Params {
    pub fn verb(&self) -> &'static str {
        match self {
            Params::Analyze(..) => "analyze",
            Params::Simulate(..) => "simulate",
            Params::Optimize(_) => "optimize",
        }
    }
}

pub enum Outcome {
    Analyze(AnalysisReport),
    Simulate(SimReport),
    Optimize(OptimizeOutcome),
}

/// The source text and parameters of a decoded request, with the
/// server's defaults for absent members.
pub fn params(doc: &Json) -> Result<(&str, Params), String> {
    let source = doc
        .get("source")
        .and_then(Json::as_str)
        .ok_or("request without `source`")?;
    let num = |key: &str, default: usize| -> usize {
        doc.get(key)
            .and_then(Json::as_f64)
            .map_or(default, |v| v as usize)
    };
    let pdf = doc.get("pdf").and_then(Json::as_bool).unwrap_or(true);
    let params = match doc.get("cmd").and_then(Json::as_str) {
        Some("analyze") => Params::Analyze(
            AnalyzeParams {
                engine: exec::AnalyzeEngine::parse(
                    doc.get("engine").and_then(Json::as_str).unwrap_or("auto"),
                )?,
                bits: num("bits", 12) as u8,
                bins: num("bins", 64),
            },
            pdf,
        ),
        Some("simulate") => Params::Simulate(
            SimulateParams {
                bits: num("bits", 12) as u8,
                bins: num("bins", 64),
                paths: num("paths", 100_000),
                seed: num("seed", 0x5eed_cafe) as u64,
                steps: None,
                warmup: None,
                workers: num("workers", 0),
            },
            pdf,
        ),
        Some("optimize") => Params::Optimize(OptimizeParams {
            method: doc
                .get("method")
                .and_then(Json::as_str)
                .unwrap_or("greedy")
                .to_string(),
            ..OptimizeParams::default()
        }),
        other => return Err(format!("unsupported cmd {other:?}")),
    };
    Ok((source, params))
}

pub fn execute(entry: &CompiledEntry, params: &Params) -> Result<Outcome, String> {
    Ok(match params {
        Params::Analyze(p, _) => Outcome::Analyze(exec::analyze_report(entry, p)?),
        Params::Simulate(p, _) => Outcome::Simulate(exec::simulate(entry, p)?),
        Params::Optimize(p) => Outcome::Optimize(exec::optimize(&entry.session, p)?),
    })
}

/// The response's `result` member.
pub fn render(outcome: &Outcome, params: &Params) -> Json {
    match (outcome, params) {
        (Outcome::Analyze(report), Params::Analyze(p, pdf)) => Json::Obj(vec![
            ("engine".into(), Json::str(report.engine.name())),
            ("bits".into(), Json::int(p.bits.into())),
            ("bins".into(), Json::int(p.bins)),
            ("kind".into(), Json::str(report.kind.as_str())),
            (
                "reports".into(),
                Json::Arr(
                    report
                        .reports
                        .iter()
                        .map(|(name, r)| exec::report_json(name, r, *pdf))
                        .collect(),
                ),
            ),
        ]),
        (Outcome::Simulate(report), Params::Simulate(p, pdf)) => {
            let mut fields = vec![
                ("engine".into(), Json::str("simulate")),
                ("bits".into(), Json::int(p.bits.into())),
                ("bins".into(), Json::int(p.bins)),
            ];
            fields.extend(exec::simulate_json_fields(report, *pdf));
            Json::Obj(fields)
        }
        (Outcome::Optimize(out), Params::Optimize(_)) => Json::Obj(vec![
            ("budget".into(), Json::Num(out.budget)),
            ("reference".into(), exec::eval_json(&out.reference)),
            (
                "results".into(),
                Json::Obj(
                    out.results
                        .iter()
                        .map(|(name, e)| (name.clone(), exec::eval_json(e)))
                        .collect(),
                ),
            ),
        ]),
        _ => unreachable!("outcomes come from execute() on the same params"),
    }
}

/// A fresh, uncached compile of `source`: no cache, no transport.
pub fn fresh_entry(source: &str) -> Result<CompiledEntry, String> {
    let lowered = sna_lang::compile(source).map_err(|d| format!("compile failed: {}", d.len()))?;
    Ok(CompiledEntry::new(lowered, 0))
}

/// `a` and `b` are equal, ignoring `elapsed_us` members; numbers may
/// differ by `rel_tol` relative.
pub fn same(a: &Json, b: &Json, rel_tol: f64) -> bool {
    first_difference(a, b, rel_tol).is_none()
}

/// The path and values of the first difference [`same`] would reject.
pub fn first_difference(a: &Json, b: &Json, rel_tol: f64) -> Option<String> {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => {
            let close = x == y || (x - y).abs() <= rel_tol * x.abs().max(y.abs());
            (!close).then(|| format!(": {x:e} vs {y:e}"))
        }
        (Json::Arr(xs), Json::Arr(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).enumerate().find_map(|(i, (x, y))| {
                first_difference(x, y, rel_tol).map(|d| format!("[{i}]{d}"))
            })
        }
        (Json::Obj(xs), Json::Obj(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).find_map(|((kx, x), (ky, y))| {
                if kx != ky {
                    Some(format!(": member {kx} vs {ky}"))
                } else if kx == "elapsed_us" {
                    None
                } else {
                    first_difference(x, y, rel_tol).map(|d| format!(".{kx}{d}"))
                }
            })
        }
        _ => (a != b).then(|| format!(": {a} vs {b}")),
    }
}
