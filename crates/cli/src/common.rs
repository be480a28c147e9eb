//! Shared plumbing for the `sna` subcommands: error type, argument
//! helpers, program loading, batch fan-out, and the report formatting
//! used by more than one command.

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sna_core::{NoiseReport, SimOutput};
use sna_hist::RenderOptions;
use sna_lang::{render_all, Lowered};
use sna_service::{CompileCache, CompiledEntry};
use sna_store::Store;

use crate::Json;

/// A CLI failure: what to print, and the exit code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// Bad command line; prints usage advice on stderr. Exit code 2.
    Usage(String),
    /// Source diagnostics (already rendered) or runtime failures; prints
    /// on stderr. Exit code 1.
    Failed(String),
    /// A batch where at least one file failed. The payload is the full
    /// batch output (per-file documents, inline errors, and the trailing
    /// summary) and belongs on *stdout* exactly as on success — only the
    /// exit code (1) differs, so scripts and CI can detect partial
    /// failure without parsing the summary line.
    BatchFailed(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) | CliError::BatchFailed(_) => 1,
        }
    }

    /// Convenience for `Failed` with a formatted message.
    pub fn failed(message: impl Into<String>) -> Self {
        CliError::Failed(message.into())
    }

    /// For [`CliError::BatchFailed`], the batch output that belongs on
    /// stdout; `None` for the stderr-bound variants.
    #[must_use]
    pub fn stdout_output(&self) -> Option<&str> {
        match self {
            CliError::BatchFailed(out) => Some(out),
            _ => None,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) | CliError::BatchFailed(m) => f.write_str(m),
        }
    }
}

/// Output format selector (`--format`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Format {
    /// Prose + tables for terminals.
    #[default]
    Human,
    /// A single JSON document on stdout (per file, in batch mode).
    Json,
}

/// The diagnostics origin for a path: its file name.
fn origin_of(path: &str) -> String {
    Path::new(path)
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Reads and compiles a `.sna` file, rendering diagnostics on failure.
pub fn load(path: &str) -> Result<(Lowered, String), CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::failed(format!("cannot read `{path}`: {e}")))?;
    match sna_lang::compile(&source) {
        Ok(lowered) => Ok((lowered, source)),
        Err(diags) => Err(CliError::Failed(render_all(
            &diags,
            &source,
            &origin_of(path),
        ))),
    }
}

/// Reads a `.sna` file and compiles it through the shared cache —
/// repeated paths (and repeated *contents*) in one batch compile once.
pub fn load_cached(cache: &CompileCache, path: &str) -> Result<Arc<CompiledEntry>, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::failed(format!("cannot read `{path}`: {e}")))?;
    cache
        .get_or_compile(&source)
        .map(|(entry, _)| entry)
        .map_err(|diags| CliError::Failed(render_all(&diags, &source, &origin_of(path))))
}

/// Simple flag cursor over the argument list.
pub struct Args<'a> {
    argv: &'a [String],
    pos: usize,
    files: Vec<&'a str>,
    /// Whether more than one positional (file) argument is legal.
    allow_many: bool,
}

impl<'a> Args<'a> {
    /// Wraps the arguments following a single-file subcommand's name.
    pub fn new(argv: &'a [String]) -> Self {
        Args {
            argv,
            pos: 0,
            files: Vec::new(),
            allow_many: false,
        }
    }

    /// Wraps the arguments of a batch-capable subcommand: any number of
    /// positional files.
    pub fn new_multi(argv: &'a [String]) -> Self {
        Args {
            allow_many: true,
            ..Args::new(argv)
        }
    }

    /// Steps to the next flag, collecting positional arguments (the
    /// files) along the way. Returns `None` when exhausted.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        while self.pos < self.argv.len() {
            let arg = self.argv[self.pos].as_str();
            self.pos += 1;
            if let Some(flag) = arg.strip_prefix("--") {
                return Some(flag);
            }
            self.files.push(arg);
            if !self.allow_many && self.files.len() > 1 {
                // Second positional: report through the usage path.
                return Some("__extra_positional__");
            }
        }
        None
    }

    /// The value following the current flag.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        if self.pos < self.argv.len() && !self.argv[self.pos].starts_with("--") {
            let v = self.argv[self.pos].as_str();
            self.pos += 1;
            Ok(v)
        } else {
            Err(CliError::Usage(format!("--{flag} needs a value")))
        }
    }

    /// Parses the current flag's value.
    pub fn parse_value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("--{flag}: cannot parse `{raw}`")))
    }

    /// The positional file argument, required.
    pub fn file(&self, usage: &str) -> Result<&'a str, CliError> {
        self.files
            .first()
            .copied()
            .ok_or_else(|| CliError::Usage(format!("missing <file>.sna argument\nusage: {usage}")))
    }

    /// All positional file arguments, in order (may be empty when a
    /// manifest supplies the files).
    pub fn files(&self) -> &[&'a str] {
        &self.files
    }
}

/// Parses and validates a `--jobs` value (shared by every batch-capable
/// subcommand).
pub fn parse_jobs(args: &mut Args) -> Result<usize, CliError> {
    let jobs: usize = args.parse_value("jobs")?;
    if jobs == 0 {
        return Err(CliError::Usage("--jobs must be at least 1".to_string()));
    }
    Ok(jobs)
}

/// Parses `--format` values.
pub fn parse_format(raw: &str) -> Result<Format, CliError> {
    match raw {
        "human" => Ok(Format::Human),
        "json" => Ok(Format::Json),
        other => Err(CliError::Usage(format!(
            "--format must be `human` or `json`, got `{other}`"
        ))),
    }
}

/// Opens (creating if absent) the persistent artifact store behind
/// `--store-dir` (Pareto checkpoints).
pub fn open_store(dir: &str) -> Result<Arc<Store>, CliError> {
    Store::open(dir)
        .map(Arc::new)
        .map_err(|e| CliError::failed(format!("cannot open store `{dir}`: {e}")))
}

/// Rejects unknown flags uniformly (also catches stray positionals).
pub fn unknown_flag(flag: &str, usage: &str) -> CliError {
    if flag == "__extra_positional__" {
        CliError::Usage(format!("more than one <file> given\nusage: {usage}"))
    } else {
        CliError::Usage(format!("unknown flag `--{flag}`\nusage: {usage}"))
    }
}

/// The file list of a batch-capable subcommand: the positionals plus the
/// optional manifest (one path per line; blank lines and `#` comments
/// skipped). The boolean is `true` when the invocation is *batch mode* —
/// more than one file, or any manifest — which switches on per-file
/// error recovery and the trailing summary.
pub fn collect_files(
    positionals: &[&str],
    manifest: Option<&str>,
    usage: &str,
) -> Result<(Vec<String>, bool), CliError> {
    let mut files: Vec<String> = positionals.iter().map(|s| s.to_string()).collect();
    if let Some(path) = manifest {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::failed(format!("cannot read manifest `{path}`: {e}")))?;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            files.push(line.to_string());
        }
    }
    if files.is_empty() {
        return Err(CliError::Usage(format!(
            "missing <file>.sna argument\nusage: {usage}"
        )));
    }
    let batch = manifest.is_some() || files.len() > 1;
    Ok((files, batch))
}

/// Total attempts per file in batch mode: one try plus two retries.
const BATCH_ATTEMPTS: u32 = 3;

/// First-retry backoff; doubles per further attempt, plus jitter.
const BACKOFF_BASE_MS: u64 = 10;

/// Whether a per-file failure is worth retrying: I/O-level read
/// failures (a network filesystem blip, a file mid-rsync) — never
/// compile diagnostics or analysis errors, which are deterministic and
/// would fail identically on every attempt.
fn is_transient(e: &CliError) -> bool {
    matches!(e, CliError::Failed(m) if m.starts_with("cannot read "))
}

/// The batch fault hook: `SNA_FAULT_BATCH=fail@N:K` makes the `N`-th
/// file (1-based, input order) fail its first `K` attempts with a
/// transient read error. This is how the retry path is exercised
/// deterministically in tests and CI; malformed specs are ignored (the
/// hook is not a user-facing interface).
fn parse_batch_fault() -> Option<(usize, u32)> {
    let spec = std::env::var("SNA_FAULT_BATCH").ok()?;
    let (n, k) = spec.strip_prefix("fail@")?.split_once(':')?;
    Some((n.parse().ok()?, k.parse().ok()?))
}

/// Sleeps the exponential-backoff pause before retry number `attempt`
/// (1-based). The jitter is drawn from a generator seeded by the path,
/// so a rerun backs off identically while concurrent files
/// desynchronize instead of thundering back together.
fn backoff_sleep(path: &str, attempt: u32) {
    let base = BACKOFF_BASE_MS << (attempt - 1);
    let mut h = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a over the path bytes
    for b in path.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = StdRng::seed_from_u64(h ^ u64::from(attempt));
    let jitter = rng.gen_range(0..base);
    std::thread::sleep(Duration::from_millis(base + jitter));
}

/// Fans `per_file` out over `files` on `jobs` workers through one shared
/// [`CompileCache`], concatenating the per-file outputs in input order.
///
/// Single-file invocations (`batch == false`) behave exactly like the
/// historical CLI: the file's output alone, errors propagated with exit
/// code 1. In batch mode each file's failure is reported inline (and as
/// an `"error"` document under `--format json`), the remaining files
/// still run, and a trailing summary line reports file/ok/err counts,
/// retry count, cache hit/miss counts, and total/cached time. A batch
/// with any failed file returns [`CliError::BatchFailed`] carrying that
/// same output, so the process exits 1 while stdout stays identical to
/// the all-ok case.
///
/// Transient failures (see [`is_transient`]) are retried up to
/// [`BATCH_ATTEMPTS`] times with exponential backoff and deterministic
/// per-path jitter before counting as errors; the summary's `retries`
/// field reports how many retry attempts the whole batch spent.
pub fn run_batch<F>(
    command: &str,
    files: Vec<String>,
    batch: bool,
    jobs: usize,
    format: Format,
    per_file: F,
) -> Result<String, CliError>
where
    F: Fn(&str, &Arc<CompiledEntry>) -> Result<String, CliError> + Sync,
{
    let cache = CompileCache::new();
    let started = Instant::now();
    let n_files = files.len();
    let fault = parse_batch_fault();
    let retries = AtomicU64::new(0);
    let outcomes: Vec<(&str, Result<String, CliError>, f64)> =
        sna_vm::run_ordered(n_files, jobs, |index| {
            let path = files[index].as_str();
            let job_started = Instant::now();
            let mut attempt = 0u32;
            let result = loop {
                let injected = fault.is_some_and(|(n, k)| index + 1 == n && attempt < k);
                let result = if injected {
                    Err(CliError::failed(format!(
                        "cannot read `{path}`: injected transient fault"
                    )))
                } else {
                    load_cached(&cache, path).and_then(|entry| per_file(path, &entry))
                };
                match result {
                    Err(ref e) if batch && attempt + 1 < BATCH_ATTEMPTS && is_transient(e) => {
                        attempt += 1;
                        retries.fetch_add(1, Ordering::Relaxed);
                        backoff_sleep(path, attempt);
                    }
                    other => break other,
                }
            };
            let elapsed_ms = job_started.elapsed().as_secs_f64() * 1e3;
            (path, result, elapsed_ms)
        });
    if !batch {
        let (_, result, _) = outcomes.into_iter().next().expect("one file");
        return result;
    }

    let stats = cache.stats();
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let ok = outcomes.iter().filter(|(_, r, _)| r.is_ok()).count();
    let errors = n_files - ok;
    let mut out = String::new();
    for (path, result, _) in &outcomes {
        match result {
            Ok(text) => {
                out.push_str(text);
                if !text.ends_with('\n') {
                    out.push('\n');
                }
            }
            Err(e) => match format {
                Format::Human => {
                    out.push_str(&format!("{e}\n"));
                }
                Format::Json => {
                    // Self-describing error documents: consumers must be
                    // able to attribute a failure to its file without
                    // counting positions against the input list.
                    let doc = Json::Obj(vec![
                        ("command".into(), Json::str(command)),
                        ("file".into(), Json::str(*path)),
                        ("error".into(), Json::str(e.to_string())),
                    ]);
                    out.push_str(&doc.to_string());
                    out.push('\n');
                }
            },
        }
        if format == Format::Human {
            out.push('\n');
        }
    }
    let job_ms: f64 = outcomes.iter().map(|(_, _, ms)| ms).sum();
    let retries = retries.load(Ordering::Relaxed);
    match format {
        Format::Human => {
            out.push_str(&format!(
                "batch: {n_files} file(s) · {ok} ok · {errors} err · {retries} retried · \
                 {jobs} job(s) · \
                 cache {} hit(s) / {} miss(es) · \
                 {total_ms:.1} ms wall ({job_ms:.1} ms in jobs)\n",
                stats.hits, stats.misses
            ));
        }
        Format::Json => {
            let mut fields = vec![
                ("command".into(), Json::str(command)),
                ("files".into(), Json::int(n_files)),
                ("ok".into(), Json::int(ok)),
                ("errors".into(), Json::int(errors)),
                (
                    "retries".into(),
                    Json::int(usize::try_from(retries).unwrap_or(usize::MAX)),
                ),
                ("jobs".into(), Json::int(jobs)),
                (
                    "cache_hits".into(),
                    Json::int(usize::try_from(stats.hits).unwrap_or(usize::MAX)),
                ),
                (
                    "cache_misses".into(),
                    Json::int(usize::try_from(stats.misses).unwrap_or(usize::MAX)),
                ),
            ];
            fields.push(("total_ms".into(), Json::Num(total_ms)));
            fields.push(("job_ms".into(), Json::Num(job_ms)));
            let summary = Json::Obj(vec![("summary".into(), Json::Obj(fields))]);
            out.push_str(&summary.to_compact());
            out.push('\n');
        }
    }
    if errors > 0 {
        return Err(CliError::BatchFailed(out));
    }
    Ok(out)
}

/// A verb's `--format json` document: the server's `result` object for
/// the same request (rendered by `sna_service::exec`), with `command`
/// and `file` in front.
pub fn json_doc(command: &str, path: &str, result: Json) -> String {
    let Json::Obj(fields) = result else {
        unreachable!("exec renderers return objects");
    };
    let mut doc = vec![
        ("command".into(), Json::str(command)),
        ("file".into(), Json::str(path)),
    ];
    doc.extend(fields);
    Json::Obj(doc).to_string()
}

/// Measured-vs-predicted outputs (of `simulate` and `trace`) in terminal
/// form: each measured report with its PDF, then the prediction and the
/// gaps where there are any.
pub fn outputs_human(outputs: &[SimOutput]) -> String {
    let rel_suffix =
        |rel: Option<f64>| rel.map_or(String::new(), |r| format!(" ({:.2}% rel)", r * 100.0));
    let mut out = String::new();
    for output in outputs {
        out.push('\n');
        out.push_str(&report_human(&output.name, &output.empirical, true));
        if let Some(predicted) = &output.predicted {
            out.push_str(&format!(
                "  predicted mean {:>13.6e} · variance {:>13.6e}\n",
                predicted.mean, predicted.variance
            ));
        }
        if let (Some(mg), Some(vg)) = (&output.mean_gap, &output.variance_gap) {
            out.push_str(&format!(
                "  gap       mean {:>13.6e}{} · variance {:>13.6e}{}\n",
                mg.abs,
                rel_suffix(mg.rel),
                vg.abs,
                rel_suffix(vg.rel),
            ));
        }
    }
    out
}

/// One noise report in terminal form, optionally with the ASCII PDF.
pub fn report_human(name: &str, report: &NoiseReport, plot: bool) -> String {
    let (lo95, hi95) = report.credible_interval(0.95);
    let mut out = format!(
        "output `{name}`\n  mean      {:>13.6e}\n  variance  {:>13.6e}\n  \
         std dev   {:>13.6e}\n  power     {:>13.6e}\n  bounds    [{:.6e}, {:.6e}]\n  \
         95% cred. [{:.6e}, {:.6e}]\n",
        report.mean,
        report.variance,
        report.std_dev(),
        report.power,
        report.support.0,
        report.support.1,
        lo95,
        hi95,
    );
    if plot {
        if let Some(h) = &report.histogram {
            out.push_str("  pdf:\n");
            let rendered = h.render_ascii(&RenderOptions {
                bar_width: 40,
                max_rows: 16,
                show_cdf: false,
            });
            for line in rendered.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}
