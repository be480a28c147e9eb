//! Request execution, shared between the CLI subcommands and the server
//! loop so both front ends produce identical numbers — and identical
//! JSON — for the same request.
//!
//! Each verb has one runner ([`analyze_report`], [`simulate`],
//! [`trace_fit`], [`trace_report`], [`optimize`], [`synth`]) and one
//! renderer of the protocol's `result` object ([`parse_result`],
//! [`analyze_result`], [`simulate_result`], [`trace_fit_result`],
//! [`trace_result`], [`optimize_result`], [`synth_result`]). The server
//! ships a renderer's object as `result`; the CLI's `--format json`
//! prints the same object with `command` and `file` in front.
//!
//! Runners take a [`CompiledEntry`] (whose [`Session`] holds the
//! artifact chain) and plain parameter structs; errors are rendered
//! strings, which the CLI wraps in its exit-code-bearing error type and
//! the server ships in `"error"` fields.

use sna_core::{
    AnalysisReport, AnalysisRequest, Budget, EngineKind, Gap, NoiseReport, Session, SimOutput,
    SimReport, SimRequest, SnaError, TraceInputFit, TraceReport, WlChoice,
};
use sna_hls::{synthesize, Implementation, SynthesisConstraints};
use sna_opt::{AnnealOptions, Evaluation, OptError, Optimizer};
use sna_trace::{Trace, TraceError, TraceLimits};

use crate::cache::CompiledEntry;
use crate::json::Json;

/// The analysis engine selector — the unified [`EngineKind`] from
/// `sna-core` (kept under its historical service-layer name).
pub type AnalyzeEngine = EngineKind;

/// Parameters of an `analyze` request, with the CLI's defaults.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeParams {
    /// Engine selector.
    pub engine: AnalyzeEngine,
    /// Uniform word length of the analyzed configuration.
    pub bits: u8,
    /// Histogram resolution.
    pub bins: usize,
}

impl Default for AnalyzeParams {
    fn default() -> Self {
        AnalyzeParams {
            engine: AnalyzeEngine::Auto,
            bits: 12,
            bins: 64,
        }
    }
}

/// Hard ceiling on histogram resolution. Several engines are quadratic
/// (or, for `cartesian`, exponential in the input count) in the bin
/// count, and the allocation itself must not be attacker-sized: one
/// huge-`bins` request through `sna serve` would otherwise abort the
/// whole process.
pub const MAX_BINS: usize = 4096;

/// Rejects a histogram resolution outside `1..=`[`MAX_BINS`].
fn check_bins(bins: usize) -> Result<(), String> {
    if bins == 0 || bins > MAX_BINS {
        return Err(format!("bins must be in 1..={MAX_BINS}, got {bins}"));
    }
    Ok(())
}

/// Renders an analysis failure. Self-describing diagnostics keep their
/// exact wording; everything else gets the generic prefix. The budget
/// overruns pass through verbatim — the protocol layer classifies
/// responses into the `timeouts`/`cancelled` counters by matching the
/// exact strings `deadline exceeded` and `request cancelled`.
fn render_analysis_error(e: &SnaError) -> String {
    match e {
        SnaError::CombinationalOnly { .. }
        | SnaError::InvalidInput { .. }
        | SnaError::DeadlineExceeded
        | SnaError::Cancelled => e.to_string(),
        other => format!("analysis failed: {other}"),
    }
}

/// Runs an analysis request against a compiled entry through
/// [`Session::analyze`](sna_core::Session::analyze), returning the full
/// structured report (provenance + timing included).
///
/// # Errors
///
/// Engine or configuration failures, rendered; `bins` outside
/// `1..=`[`MAX_BINS`] is rejected up front.
pub fn analyze_report(
    entry: &CompiledEntry,
    params: &AnalyzeParams,
) -> Result<AnalysisReport, String> {
    analyze_report_budgeted(entry, params, &Budget::unlimited(), true)
}

/// [`analyze_report`] under a cooperative execution [`Budget`]: an
/// overrun stops the engine at its next checkpoint and renders the
/// structured `deadline exceeded` / `request cancelled` error. With
/// `include_pdf` false the engines skip the PDF work they can (see
/// [`AnalysisRequest::include_pdf`]) and the reports carry no
/// histograms.
///
/// # Errors
///
/// Same as [`analyze_report`], plus the budget overruns.
pub fn analyze_report_budgeted(
    entry: &CompiledEntry,
    params: &AnalyzeParams,
    budget: &Budget,
    include_pdf: bool,
) -> Result<AnalysisReport, String> {
    let AnalyzeParams { engine, bits, bins } = *params;
    check_bins(bins)?;
    let req = AnalysisRequest {
        engine,
        words: WlChoice::Uniform(bits),
        bins,
        include_pdf,
        budget: budget.clone(),
    };
    entry
        .session
        .analyze(&req)
        .map_err(|e| render_analysis_error(&e))
}

/// The `analyze` result: the engine that actually ran (`auto` resolves
/// before this point — the provenance of the numbers), the request's
/// resolution, and one [`report_json`] per output.
#[must_use]
pub fn analyze_result(report: &AnalysisReport, params: &AnalyzeParams, include_pdf: bool) -> Json {
    Json::Obj(vec![
        ("engine".into(), Json::str(report.engine.name())),
        ("bits".into(), Json::int(params.bits as usize)),
        ("bins".into(), Json::int(params.bins)),
        ("kind".into(), Json::str(report.kind.as_str())),
        (
            "reports".into(),
            Json::Arr(
                report
                    .reports
                    .iter()
                    .map(|(name, r)| report_json(name, r, include_pdf))
                    .collect(),
            ),
        ),
    ])
}

/// Hard ceiling on Monte-Carlo sample paths per request. Simulation
/// cost is `paths × steps`; like [`MAX_BINS`], an untrusted peer must
/// not be able to size the server's work arbitrarily.
pub const MAX_PATHS: usize = 4_000_000;

/// Hard ceiling on steps per sample path (same rationale).
pub const MAX_STEPS: usize = 4096;

/// Parameters of a `simulate` request, with the CLI's defaults.
#[derive(Clone, Copy, Debug)]
pub struct SimulateParams {
    /// Uniform word length of the simulated configuration.
    pub bits: u8,
    /// Bins of the empirical error histogram.
    pub bins: usize,
    /// Independent Monte-Carlo sample paths.
    pub paths: usize,
    /// RNG seed (the report is a pure function of request + seed).
    pub seed: u64,
    /// Steps per path; `None` = 1 combinational / 64 sequential.
    pub steps: Option<usize>,
    /// Warmup steps discarded per path; `None` = 0 / 16.
    pub warmup: Option<usize>,
    /// Worker threads (0 = available parallelism); wall-clock only,
    /// never the numbers.
    pub workers: usize,
}

impl Default for SimulateParams {
    fn default() -> Self {
        SimulateParams {
            bits: 12,
            bins: 64,
            paths: 100_000,
            seed: 0x5eed_cafe,
            steps: None,
            warmup: None,
            workers: 0,
        }
    }
}

/// Runs a Monte-Carlo simulation request against a compiled entry — the
/// empirical cross-check of the analytic engines, through the session's
/// cached bytecode program.
///
/// # Errors
///
/// Configuration and simulation failures, rendered; `bins`, `paths`,
/// and `steps` outside their ceilings are rejected up front.
pub fn simulate(entry: &CompiledEntry, params: &SimulateParams) -> Result<SimReport, String> {
    simulate_budgeted(entry, params, &Budget::unlimited(), true)
}

/// [`simulate`] under a cooperative execution [`Budget`]: the VM checks
/// it before every Monte-Carlo chunk claim, so an overrun request stops
/// within one chunk's work and renders the structured `deadline
/// exceeded` / `request cancelled` error. `include_pdf` is passed to
/// the analytic prediction (see [`SimRequest::include_pdf`]).
///
/// # Errors
///
/// Same as [`simulate`], plus the budget overruns.
pub fn simulate_budgeted(
    entry: &CompiledEntry,
    params: &SimulateParams,
    budget: &Budget,
    include_pdf: bool,
) -> Result<SimReport, String> {
    let SimulateParams {
        bits,
        bins,
        paths,
        seed,
        steps,
        warmup,
        workers,
    } = *params;
    check_bins(bins)?;
    if paths == 0 || paths > MAX_PATHS {
        return Err(format!("paths must be in 1..={MAX_PATHS}, got {paths}"));
    }
    if let Some(s) = steps {
        if s == 0 || s > MAX_STEPS {
            return Err(format!("steps must be in 1..={MAX_STEPS}, got {s}"));
        }
        if warmup.unwrap_or(0) >= s {
            return Err(format!(
                "warmup must be below steps ({}, got {})",
                s,
                warmup.unwrap_or(0)
            ));
        }
    }
    let req = SimRequest {
        words: WlChoice::Uniform(bits),
        paths,
        seed,
        steps,
        warmup,
        workers,
        bins,
        include_pdf,
        budget: budget.clone(),
    };
    entry.session.simulate(&req).map_err(|e| match e {
        // Pass budget overruns through verbatim for the protocol layer's
        // exact-string classification.
        SnaError::DeadlineExceeded | SnaError::Cancelled => e.to_string(),
        other => format!("simulation failed: {other}"),
    })
}

/// A [`SimReport`] as JSON fields — the body of [`simulate_result`].
#[must_use]
pub fn simulate_json_fields(report: &SimReport, include_pdf: bool) -> Vec<(String, Json)> {
    vec![
        ("paths".into(), Json::int(report.paths)),
        ("steps".into(), Json::int(report.steps)),
        ("warmup".into(), Json::int(report.warmup)),
        ("seed".into(), Json::int(report.seed as usize)),
        ("predicted_by".into(), engine_or_null(report.predicted_by)),
        ("elapsed_us".into(), micros(report.elapsed)),
        (
            "outputs".into(),
            outputs_json(&report.outputs, "empirical", include_pdf),
        ),
    ]
}

/// The `simulate` result.
#[must_use]
pub fn simulate_result(report: &SimReport, params: &SimulateParams, include_pdf: bool) -> Json {
    let mut fields = vec![
        ("engine".into(), Json::str("simulate")),
        ("bits".into(), Json::int(params.bits as usize)),
        ("bins".into(), Json::int(params.bins)),
    ];
    fields.extend(simulate_json_fields(report, include_pdf));
    Json::Obj(fields)
}

fn engine_or_null(kind: Option<EngineKind>) -> Json {
    kind.map_or(Json::Null, |k| Json::str(k.name()))
}

fn micros(elapsed: std::time::Duration) -> Json {
    Json::int(usize::try_from(elapsed.as_micros()).unwrap_or(usize::MAX))
}

/// Per-output empirical-vs-predicted rows, shared by `simulate` (the
/// measurement under `empirical`) and `trace` (under `measured`).
fn outputs_json(outputs: &[SimOutput], empirical_key: &str, include_pdf: bool) -> Json {
    let gap_json = |gap: &Option<Gap>| match gap {
        Some(g) => Json::Obj(vec![
            ("abs".into(), Json::Num(g.abs)),
            ("rel".into(), g.rel.map_or(Json::Null, Json::Num)),
        ]),
        None => Json::Null,
    };
    Json::Arr(
        outputs
            .iter()
            .map(|out| {
                Json::Obj(vec![
                    ("output".into(), Json::str(out.name.clone())),
                    ("samples".into(), Json::int(out.samples)),
                    (
                        empirical_key.into(),
                        report_json(&out.name, &out.empirical, include_pdf),
                    ),
                    (
                        "predicted".into(),
                        out.predicted
                            .as_ref()
                            .map_or(Json::Null, |p| report_json(&out.name, p, include_pdf)),
                    ),
                    ("mean_gap".into(), gap_json(&out.mean_gap)),
                    ("variance_gap".into(), gap_json(&out.variance_gap)),
                ])
            })
            .collect(),
    )
}

/// Hard ceiling on bytes of trace CSV ingested per request (same
/// rationale as [`MAX_PATHS`]: an untrusted peer must not size the
/// server's memory).
pub const MAX_TRACE_BYTES: usize = 1 << 24;

/// Hard ceiling on accepted trace rows per request (replay cost is
/// `rows × instructions`).
pub const MAX_TRACE_ROWS: usize = 1 << 20;

/// Parameters of a `trace` request, with the CLI's defaults.
#[derive(Clone, Copy, Debug)]
pub struct TraceParams {
    /// Uniform word length of the replayed configuration.
    pub bits: u8,
    /// Bins of the fitted input grids and the empirical error histograms.
    pub bins: usize,
    /// Segment warmup rows; `None` = 0 combinational / 64 sequential.
    pub warmup: Option<usize>,
    /// Worker threads (0 = available parallelism); wall-clock only,
    /// never the numbers.
    pub workers: usize,
    /// Attempt the analytic prediction (the `report` verb); `false`
    /// replays without a model column (the `replay` verb).
    pub predict: bool,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            bits: 12,
            bins: 64,
            warmup: None,
            workers: 0,
            predict: true,
        }
    }
}

/// Streams a CSV trace bound to the session's input names, under the
/// given caps and with ingestion checked against the budget every few
/// hundred rows — the shared front door for the CLI verbs and the
/// server's `trace` verb.
///
/// # Errors
///
/// Structured ingestion failures, rendered; budget overruns keep their
/// exact `deadline exceeded` / `request cancelled` strings.
pub fn ingest_trace(
    csv: &str,
    session: &Session,
    limits: &TraceLimits,
    budget: &Budget,
) -> Result<Trace, String> {
    if csv.len() > limits.max_bytes {
        return Err(format!(
            "trace exceeds the byte cap ({} bytes)",
            limits.max_bytes
        ));
    }
    let cancelled = || !budget.is_unlimited() && budget.check().is_err();
    Trace::read_with(
        csv.as_bytes(),
        session.dfg().input_names(),
        limits,
        &cancelled,
    )
    .map_err(|e| match e {
        TraceError::Cancelled => budget.overrun_error().to_string(),
        other => format!("trace ingestion failed: {other}"),
    })
}

/// Fits per-input ranges, moments and histogram grids from an ingested
/// trace — the `fit` verb, no replay.
///
/// # Errors
///
/// Binding or histogram failures, rendered; `bins` outside
/// `1..=`[`MAX_BINS`] is rejected up front.
pub fn trace_fit(
    session: &Session,
    trace: &Trace,
    bins: usize,
) -> Result<Vec<TraceInputFit>, String> {
    check_bins(bins)?;
    session
        .fit_trace(trace, bins)
        .map_err(|e| format!("trace fit failed: {e}"))
}

/// Replays an ingested trace against a compiled entry — measured
/// output noise next to the analytic prediction under the fitted
/// ranges. The VM checks the cooperative execution [`Budget`] before
/// every replay chunk claim, so an overrun request stops within one
/// chunk's work and renders the structured `deadline exceeded` /
/// `request cancelled` error. `include_pdf` is passed to the analytic
/// prediction (see [`sna_core::TraceRequest::include_pdf`]).
///
/// # Errors
///
/// Configuration and replay failures, rendered; `bins` and `warmup`
/// outside their ceilings are rejected up front.
pub fn trace_report(
    entry: &CompiledEntry,
    trace: &Trace,
    params: &TraceParams,
    budget: &Budget,
    include_pdf: bool,
) -> Result<TraceReport, String> {
    let TraceParams {
        bits,
        bins,
        warmup,
        workers,
        predict,
    } = *params;
    check_bins(bins)?;
    if let Some(w) = warmup {
        if w > MAX_STEPS {
            return Err(format!("warmup must be at most {MAX_STEPS}, got {w}"));
        }
    }
    let req = sna_core::TraceRequest {
        words: WlChoice::Uniform(bits),
        bins,
        warmup,
        workers,
        predict,
        include_pdf,
        budget: budget.clone(),
    };
    entry.session.trace(trace, &req).map_err(|e| match e {
        // Pass budget overruns through verbatim for the protocol layer's
        // exact-string classification.
        SnaError::DeadlineExceeded | SnaError::Cancelled => e.to_string(),
        other => format!("trace replay failed: {other}"),
    })
}

/// Per-input trace fits as a JSON array.
fn trace_fit_json(fit: &[TraceInputFit], include_pdf: bool) -> Json {
    Json::Arr(
        fit.iter()
            .map(|f| {
                let mut fields = vec![
                    ("input".into(), Json::str(f.name.clone())),
                    ("samples".into(), Json::int(f.samples)),
                    ("mean".into(), Json::Num(f.mean)),
                    ("variance".into(), Json::Num(f.variance)),
                    ("range".into(), Json::pair(f.range.lo(), f.range.hi())),
                ];
                if include_pdf {
                    fields.push((
                        "histogram".into(),
                        Json::Obj(vec![
                            ("bins".into(), Json::int(f.grid.n_bins())),
                            ("lo".into(), Json::Num(f.grid.lo())),
                            ("hi".into(), Json::Num(f.grid.hi())),
                        ]),
                    ));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}

/// The `trace` result in `fit` mode.
#[must_use]
pub fn trace_fit_result(
    trace: &Trace,
    bins: usize,
    fit: &[TraceInputFit],
    include_pdf: bool,
) -> Json {
    Json::Obj(vec![
        ("engine".into(), Json::str("trace")),
        ("mode".into(), Json::str("fit")),
        ("bins".into(), Json::int(bins)),
        ("rows".into(), Json::int(trace.rows())),
        ("skipped".into(), Json::int(trace.skipped())),
        ("fit".into(), trace_fit_json(fit, include_pdf)),
    ])
}

/// The `trace` result in `replay` / `report` mode (`params.predict`
/// picks the mode name).
#[must_use]
pub fn trace_result(report: &TraceReport, params: &TraceParams, include_pdf: bool) -> Json {
    let mode = if params.predict { "report" } else { "replay" };
    Json::Obj(vec![
        ("engine".into(), Json::str("trace")),
        ("mode".into(), Json::str(mode)),
        ("bits".into(), Json::int(params.bits as usize)),
        ("bins".into(), Json::int(params.bins)),
        ("rows".into(), Json::int(report.rows)),
        ("skipped".into(), Json::int(report.skipped)),
        ("warmup".into(), Json::int(report.warmup)),
        ("predicted_by".into(), engine_or_null(report.predicted_by)),
        ("elapsed_us".into(), micros(report.elapsed)),
        ("fit".into(), trace_fit_json(&report.fit, false)),
        (
            "outputs".into(),
            outputs_json(&report.outputs, "measured", include_pdf),
        ),
    ])
}

/// The word-length search methods (`exhaustive` is opt-in because its
/// search space is exponential in the node count).
pub const METHODS: [&str; 5] = [
    "greedy",
    "waterfill",
    "anneal",
    "group-greedy",
    "exhaustive",
];

/// `--method all` runs the methods that scale to real designs.
pub const ALL_METHODS: [&str; 4] = ["greedy", "waterfill", "anneal", "group-greedy"];

/// Validates a method selector (including `all` and `uniform`).
///
/// # Errors
///
/// A usage-style message for unknown methods.
pub fn validate_method(method: &str) -> Result<(), String> {
    if method == "all" || method == "uniform" || METHODS.contains(&method) {
        Ok(())
    } else {
        Err(format!("unknown method `{method}`"))
    }
}

/// Parameters of an `optimize` request, with the CLI's defaults.
#[derive(Clone, Debug)]
pub struct OptimizeParams {
    /// Search method (one of [`METHODS`], `uniform`, or `all`).
    pub method: String,
    /// Uniform word length of the reference design supplying the default
    /// budget.
    pub ref_bits: u8,
    /// Explicit noise-power budget (defaults to the reference design's).
    pub budget: Option<f64>,
    /// Starting word length for the descent methods.
    pub start: u8,
    /// Search radius of the exhaustive method.
    pub radius: u8,
    /// Independent annealing restarts (run in parallel, deterministic
    /// winner).
    pub restarts: usize,
    /// Worker threads for the parallel searches (exhaustive chunks,
    /// anneal restarts); 0 means available parallelism.
    pub threads: usize,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        OptimizeParams {
            method: "greedy".to_string(),
            ref_bits: 12,
            budget: None,
            start: 16,
            radius: 1,
            restarts: 1,
            threads: 0,
        }
    }
}

/// The product of an `optimize` request.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// The noise budget actually used.
    pub budget: f64,
    /// The uniform reference design.
    pub reference: Evaluation,
    /// Per-method results, in run order.
    pub results: Vec<(String, Evaluation)>,
}

/// Runs a word-length optimization request.
///
/// The optimizer is built with [`Optimizer::new`] *on top of the
/// session*: the NA gain model, node ranges and histogram memo come
/// from the shared artifact chain, so a server (or batch) that analyzed
/// a program first never rebuilds them to optimize it — and repeated
/// optimize requests share the nonlinear searches' histogram memo.
///
/// # Errors
///
/// Optimizer construction or per-method failures, rendered.
pub fn optimize(session: &Session, params: &OptimizeParams) -> Result<OptimizeOutcome, String> {
    optimize_budgeted(session, params, &Budget::unlimited())
}

/// Renders a search-method failure. Budget overruns pass through
/// verbatim (see [`render_analysis_error`]); everything else names the
/// method that failed.
fn render_opt_error(name: &str, e: &OptError) -> String {
    match e {
        OptError::Sna(inner @ (SnaError::DeadlineExceeded | SnaError::Cancelled)) => {
            inner.to_string()
        }
        other => format!("method `{name}` failed: {other}"),
    }
}

/// [`optimize`] under a cooperative execution [`Budget`]: the search
/// loops poll it at strided checkpoints (exhaustive candidates,
/// annealing proposals, greedy trim rounds), so an overrun request
/// stops mid-search and renders the structured `deadline exceeded` /
/// `request cancelled` error.
///
/// # Errors
///
/// Same as [`optimize`], plus the budget overruns.
pub fn optimize_budgeted(
    session: &Session,
    params: &OptimizeParams,
    exec_budget: &Budget,
) -> Result<OptimizeOutcome, String> {
    validate_method(&params.method)?;
    // Pre-flight: the reference synthesis below is not checkpointed, so
    // an already-overrun budget must fail before paying for it.
    exec_budget.check().map_err(|e| e.to_string())?;
    let optimizer = Optimizer::new(session, SynthesisConstraints::default())
        .map_err(|e| format!("cannot build the optimizer: {e}"))?
        .with_exec_budget(exec_budget.clone());

    // The reference design also supplies the default budget.
    let reference = optimizer
        .uniform(params.ref_bits)
        .map_err(|e| format!("reference synthesis failed: {e}"))?;
    let budget = params.budget.unwrap_or(reference.noise_power);

    let run_one = |name: &str| -> Result<Evaluation, String> {
        let r = match name {
            "uniform" => optimizer.uniform(params.start),
            "greedy" => optimizer.greedy(budget, params.start),
            "waterfill" => optimizer.waterfill(budget),
            "anneal" => optimizer.anneal(
                budget,
                params.start,
                &AnnealOptions {
                    restarts: params.restarts.max(1),
                    // Honour the request's thread bound here too — the
                    // knob exists so a server can cap client-driven
                    // parallelism, and anneal restarts are exactly such
                    // fan-out.
                    threads: params.threads,
                    ..AnnealOptions::default()
                },
            ),
            "group-greedy" => optimizer.group_greedy(budget, params.start),
            "exhaustive" => optimizer.exhaustive(
                budget,
                params.ref_bits,
                params.radius,
                2_000_000,
                params.threads,
            ),
            _ => unreachable!("validated above"),
        };
        r.map_err(|e| render_opt_error(name, &e))
    };
    let mut results: Vec<(String, Evaluation)> = Vec::new();
    if params.method == "all" {
        for name in ALL_METHODS {
            results.push((name.to_string(), run_one(name)?));
        }
    } else {
        results.push((params.method.clone(), run_one(&params.method)?));
    }
    Ok(OptimizeOutcome {
        budget,
        reference,
        results,
    })
}

/// Runs the HLS flow for one uniform configuration.
///
/// # Errors
///
/// Configuration or synthesis failures, rendered.
pub fn synth(session: &Session, bits: u8, clock_ns: f64) -> Result<Implementation, String> {
    let config = session
        .wl_config(&WlChoice::Uniform(bits))
        .map_err(|e| format!("cannot build a {bits}-bit configuration: {e}"))?;
    let constraints = SynthesisConstraints {
        clock_ns,
        ..SynthesisConstraints::default()
    };
    synthesize(session.dfg(), &config, &constraints).map_err(|e| format!("synthesis failed: {e}"))
}

/// The `optimize` result.
#[must_use]
pub fn optimize_result(out: &OptimizeOutcome) -> Json {
    Json::Obj(vec![
        ("budget".into(), Json::Num(out.budget)),
        ("reference".into(), eval_json(&out.reference)),
        (
            "results".into(),
            Json::Obj(
                out.results
                    .iter()
                    .map(|(name, e)| (name.clone(), eval_json(e)))
                    .collect(),
            ),
        ),
    ])
}

/// The `synth` result.
#[must_use]
pub fn synth_result(bits: u8, clock_ns: f64, imp: &Implementation) -> Json {
    Json::Obj(vec![
        ("bits".into(), Json::int(bits as usize)),
        ("clock_ns".into(), Json::Num(clock_ns)),
        ("cost".into(), cost_json(&imp.cost)),
        ("scheduled_ops".into(), Json::int(imp.schedule.n_ops())),
    ])
}

/// The `parse` result: the structural facts of a compiled program.
#[must_use]
pub fn parse_result(dfg: &sna_dfg::Dfg, input_ranges: &[sna_interval::Interval]) -> Json {
    let c = dfg.op_counts();
    Json::Obj(vec![
        (
            "inputs".into(),
            Json::Arr(
                dfg.input_names()
                    .iter()
                    .zip(input_ranges)
                    .map(|(name, range)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(name.clone())),
                            ("range".into(), Json::pair(range.lo(), range.hi())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "outputs".into(),
            Json::Arr(
                dfg.outputs()
                    .iter()
                    .map(|(name, _)| Json::str(name.clone()))
                    .collect(),
            ),
        ),
        (
            "op_counts".into(),
            Json::Obj(vec![
                ("inputs".into(), Json::int(c.inputs)),
                ("consts".into(), Json::int(c.consts)),
                ("adds".into(), Json::int(c.adds)),
                ("subs".into(), Json::int(c.subs)),
                ("muls".into(), Json::int(c.muls)),
                ("divs".into(), Json::int(c.divs)),
                ("negs".into(), Json::int(c.negs)),
                ("delays".into(), Json::int(c.delays)),
            ]),
        ),
        ("nodes".into(), Json::int(dfg.len())),
        ("depth".into(), Json::int(dfg.depth())),
        ("is_linear".into(), Json::Bool(dfg.is_linear())),
        (
            "is_combinational".into(),
            Json::Bool(dfg.is_combinational()),
        ),
    ])
}

/// One noise report as a JSON object (an element of the `analyze`
/// result's `reports`).
///
/// With `include_pdf`, `credible95` comes from the PDF when the report
/// carries one and `histogram` holds its bins, range and masses.
/// Without it the object is rendered from the moments and support
/// alone, whether or not a histogram exists: `credible95` is the
/// Chebyshev interval ([`NoiseReport::chebyshev_interval`]) and
/// `histogram` is `null`.
#[must_use]
pub fn report_json(name: &str, report: &NoiseReport, include_pdf: bool) -> Json {
    let mut fields = vec![
        ("output".to_string(), Json::str(name)),
        ("mean".to_string(), Json::Num(report.mean)),
        ("variance".to_string(), Json::Num(report.variance)),
        ("std_dev".to_string(), Json::Num(report.std_dev())),
        ("power".to_string(), Json::Num(report.power)),
        (
            "support".to_string(),
            Json::pair(report.support.0, report.support.1),
        ),
    ];
    let (lo95, hi95) = if include_pdf {
        report.credible_interval(0.95)
    } else {
        report.chebyshev_interval(0.95)
    };
    fields.push(("credible95".to_string(), Json::pair(lo95, hi95)));
    let histogram = match &report.histogram {
        Some(h) if include_pdf => Json::Obj(vec![
            ("bins".to_string(), Json::int(h.n_bins())),
            ("lo".to_string(), Json::Num(h.grid().lo())),
            ("hi".to_string(), Json::Num(h.grid().hi())),
            (
                "masses".to_string(),
                Json::Arr(h.probs().iter().map(|&m| Json::Num(m)).collect()),
            ),
        ]),
        _ => Json::Null,
    };
    fields.push(("histogram".to_string(), histogram));
    Json::Obj(fields)
}

/// One optimizer evaluation as a JSON object (the `optimize` result's
/// `reference` and `results` entries).
#[must_use]
pub fn eval_json(e: &Evaluation) -> Json {
    Json::Obj(vec![
        (
            "word_lengths".into(),
            Json::Arr(
                e.word_lengths
                    .iter()
                    .map(|&w| Json::int(w as usize))
                    .collect(),
            ),
        ),
        ("noise_power".into(), Json::Num(e.noise_power)),
        ("weighted_cost".into(), Json::Num(e.weighted_cost)),
        (
            "cost".into(),
            Json::Obj(vec![
                ("area_um2".into(), Json::Num(e.cost.area_um2)),
                ("power_uw".into(), Json::Num(e.cost.power_uw)),
                (
                    "latency_cycles".into(),
                    Json::int(e.cost.latency_cycles as usize),
                ),
                ("fu_area_um2".into(), Json::Num(e.cost.fu_area_um2)),
                ("reg_area_um2".into(), Json::Num(e.cost.reg_area_um2)),
                ("mux_area_um2".into(), Json::Num(e.cost.mux_area_um2)),
                (
                    "energy_per_sample_pj".into(),
                    Json::Num(e.cost.energy_per_sample_pj),
                ),
            ]),
        ),
    ])
}

/// A synthesis cost report as a JSON object (the `synth` result's
/// `cost`).
fn cost_json(cost: &sna_hls::CostReport) -> Json {
    Json::Obj(vec![
        ("area_um2".into(), Json::Num(cost.area_um2)),
        ("fu_area_um2".into(), Json::Num(cost.fu_area_um2)),
        ("reg_area_um2".into(), Json::Num(cost.reg_area_um2)),
        ("mux_area_um2".into(), Json::Num(cost.mux_area_um2)),
        ("power_uw".into(), Json::Num(cost.power_uw)),
        (
            "latency_cycles".into(),
            Json::int(cost.latency_cycles as usize),
        ),
        (
            "energy_per_sample_pj".into(),
            Json::Num(cost.energy_per_sample_pj),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(source: &str) -> CompiledEntry {
        let program = sna_lang::parse(source).unwrap();
        let fp = sna_lang::canonical_fingerprint(&program);
        CompiledEntry::new(sna_lang::lower(&program).unwrap(), fp)
    }

    #[test]
    fn na_analysis_through_the_cached_model_matches_a_fresh_build() {
        let src = "input x in [-1, 1];\nt = delay y;\ny = 0.4*x + 0.5*t;\noutput y;\n";
        let e = entry(src);
        let params = AnalyzeParams {
            engine: AnalyzeEngine::Na,
            ..AnalyzeParams::default()
        };
        let first = analyze_report(&e, &params).unwrap().reports;
        assert!(e.session.na_model_built());
        let again = analyze_report(&e, &params).unwrap().reports;
        assert_eq!(first.len(), again.len());
        for ((n1, r1), (n2, r2)) in first.iter().zip(&again) {
            assert_eq!(n1, n2);
            assert_eq!(r1.variance.to_bits(), r2.variance.to_bits());
        }
    }

    #[test]
    fn every_engine_answers_on_a_suitable_graph() {
        let comb = entry("input x in [-1, 1];\noutput y = 0.5*x + 0.25*x;\n");
        for engine in [
            AnalyzeEngine::Auto,
            AnalyzeEngine::Na,
            AnalyzeEngine::Dfg,
            AnalyzeEngine::Lti,
            AnalyzeEngine::Symbolic,
            AnalyzeEngine::Cartesian,
        ] {
            let params = AnalyzeParams {
                engine,
                bits: 10,
                bins: 32,
            };
            let report =
                analyze_report(&comb, &params).unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            assert_eq!(report.reports[0].0, "y");
        }
    }

    #[test]
    fn report_json_without_pdf_ignores_an_attached_histogram() {
        // A reference built with histograms and rendered with `pdf:false`
        // must equal the moments-only answer the server computes.
        let e = entry("input x in [-1, 1];\noutput y = 0.5*x + 0.25*x;\n");
        for engine in [
            AnalyzeEngine::Lti,
            AnalyzeEngine::Dfg,
            AnalyzeEngine::Symbolic,
        ] {
            let params = AnalyzeParams {
                engine,
                bits: 8,
                bins: 32,
            };
            let with = analyze_report(&e, &params).unwrap().reports;
            let without = analyze_report_budgeted(&e, &params, &Budget::unlimited(), false)
                .unwrap()
                .reports;
            for ((name, a), (_, b)) in with.iter().zip(&without) {
                assert!(a.histogram.is_some() && b.histogram.is_none());
                let rendered = report_json(name, a, false);
                assert_eq!(rendered, report_json(name, b, false), "{}", engine.name());
                assert_eq!(rendered.get("histogram"), Some(&Json::Null));
                let (lo, hi) = a.chebyshev_interval(0.95);
                assert_eq!(rendered.get("credible95"), Some(&Json::pair(lo, hi)));
            }
        }
    }

    #[test]
    fn optimize_runs_and_respects_the_reference_budget() {
        let e = entry("input x in [-1, 1];\noutput y = 0.5*x + 0.25*x;\n");
        let out = optimize(&e.session, &OptimizeParams::default()).unwrap();
        assert_eq!(out.results[0].0, "greedy");
        assert!(out.results[0].1.noise_power <= out.budget * 1.000001);
    }

    #[test]
    fn synth_produces_costs() {
        let e = entry("input x;\noutput y = 0.5*x;\n");
        let imp = synth(&e.session, 10, SynthesisConstraints::default().clock_ns).unwrap();
        assert!(imp.cost.area_um2 > 0.0);
    }

    #[test]
    fn analyze_report_carries_provenance_and_timing() {
        let e = entry("input x in [-1, 1];\noutput y = 0.5*x + 0.25*x;\n");
        let report = analyze_report(&e, &AnalyzeParams::default()).unwrap();
        // Auto on a linear combinational graph resolves to LTI.
        assert_eq!(report.engine, EngineKind::Lti);
        assert_eq!(report.kind.as_str(), "quantization-noise");
        assert_eq!(report.reports[0].0, "y");
    }

    #[test]
    fn selector_parsing_round_trips_and_rejects_unknowns() {
        for name in ["auto", "na", "dfg", "lti", "symbolic", "cartesian"] {
            assert_eq!(AnalyzeEngine::parse(name).unwrap().name(), name);
        }
        assert!(AnalyzeEngine::parse("warp").is_err());
        assert!(validate_method("greedy").is_ok());
        assert!(validate_method("all").is_ok());
        assert!(validate_method("uniform").is_ok());
        assert!(validate_method("magic").is_err());
    }
}
