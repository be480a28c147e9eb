//! The line-oriented JSON wire protocol and the serve loop.
//!
//! One request per line in, one response per line out (compact JSON, no
//! interior newlines). One [`Handler`] backs `sna serve` on stdin/stdout
//! ([`Handler::serve`]), `--listen addr:port` over TCP (the
//! [`crate::event_loop`] reactor's workers call [`Handler::handle`], all
//! connections sharing one [`CompileCache`] and one [`StatsRegistry`]),
//! and the in-process tests. Each verb's `result` object comes from its
//! [`exec`] renderer, the same one the CLI prints. See
//! `crates/service/README.md` for the full request/response schema.
//!
//! Malformed input — bytes that are not UTF-8, unparsable JSON, a missing
//! `cmd`, a bad parameter — answers with an `"ok": false` response on the
//! same line; the server never dies on bad input.
//!
//! Every handled request is recorded in the registry: the `requests` /
//! `errors` counters plus the verb's latency histogram (and, for
//! `analyze`, the *resolved* engine's histogram, timed at the engine
//! level). The `stats` verb serializes the whole registry alongside the
//! compile-cache counters.

use std::borrow::Cow;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

use sna_core::Budget;
use sna_lang::render_all;

use crate::cache::{CompileCache, Lookup};
use crate::exec::{
    self, AnalyzeEngine, AnalyzeParams, OptimizeParams, SimulateParams, TraceParams,
};
use crate::json::Json;
use crate::stats::{Counter, StatsRegistry};

/// Upper bound on a request's `timeout_ms` field (one hour) — the field
/// exists to let clients *shorten* their deadline, not to schedule work
/// into next week.
pub const MAX_TIMEOUT_MS: usize = 3_600_000;

/// Server-side execution limits applied to every request on a
/// transport (the `--request-timeout` flag).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecLimits {
    /// Hard cap on request execution time, enforced via a cooperative
    /// [`Budget`]; also the effective deadline when a request passes no
    /// `timeout_ms`. A request's own `timeout_ms` may only shorten it.
    /// `None` = unlimited.
    pub request_timeout: Option<Duration>,
    /// Start the request's budget already cancelled, so it stops at its
    /// first cooperative checkpoint (fault injection only — see
    /// [`crate::FaultPlan`]).
    pub pre_cancelled: bool,
}

impl ExecLimits {
    /// The effective [`Budget`] of one request: the request's
    /// `timeout_ms` clamped by the server cap (`min` of the two).
    ///
    /// # Errors
    ///
    /// A malformed `timeout_ms` field.
    fn request_budget(&self, doc: &Json) -> Result<Budget, String> {
        if self.pre_cancelled {
            return Ok(Budget::pre_cancelled());
        }
        let requested = match doc.get("timeout_ms") {
            None => None,
            Some(_) => Some(Duration::from_millis(bounded_usize_field(
                doc,
                "timeout_ms",
                0,
                MAX_TIMEOUT_MS,
            )? as u64)),
        };
        Ok(match (requested, self.request_timeout) {
            (None, None) => Budget::unlimited(),
            (Some(d), None) | (None, Some(d)) => Budget::with_timeout(d),
            (Some(a), Some(b)) => Budget::with_timeout(a.min(b)),
        })
    }
}

/// What a serve loop processed, for the caller's logging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Lines answered (including error responses).
    pub requests: u64,
    /// Responses with `"ok": false`.
    pub errors: u64,
}

/// Who is on the other end of the transport — controls which request
/// fields are honoured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Peer {
    /// The operator's own pipe (stdin/stdout): `path` may read files.
    Trusted,
    /// A network client: `path` is refused — a remote peer must not be
    /// able to read (and, via diagnostics, exfiltrate) server-side files.
    Untrusted,
}

/// The request handler of one transport: the shared compile cache and
/// stats registry it answers from, the server's execution limits, and
/// who the peer is. Everything is borrowed or `Copy`, so an event-loop
/// worker builds one per job for free.
#[derive(Clone, Copy)]
pub struct Handler<'a> {
    /// The compile cache every request resolves its program through.
    pub cache: &'a CompileCache,
    /// Where requests, errors and latencies are recorded.
    pub stats: &'a StatsRegistry,
    /// Server-side execution limits (the `--request-timeout` cap).
    pub limits: ExecLimits,
    /// Whether `path` / `trace_path` may read server-side files.
    pub peer: Peer,
}

impl Handler<'_> {
    /// Handles one request line and returns the full response document.
    #[must_use]
    pub fn handle(&self, line: &str) -> Json {
        let started = Instant::now();
        // Received-request count, bumped up front so the `stats` verb's
        // own response includes itself; its latency histogram entry
        // (recorded after the response is built) lands one request
        // behind.
        self.stats.bump(Counter::Requests);
        let _in_flight = self.stats.begin_request();
        let response = self.respond(line, started);
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            self.stats.bump(Counter::Errors);
            // Budget overruns render as exactly these strings (the exec
            // layer passes them through verbatim for this
            // classification).
            match response.get("error").and_then(Json::as_str) {
                Some("deadline exceeded") => self.stats.bump(Counter::Timeouts),
                Some("request cancelled") => self.stats.bump(Counter::Cancelled),
                _ => {}
            }
        }
        response
    }

    fn respond(&self, line: &str, started: Instant) -> Json {
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => return error_response(None, format!("malformed request: {e}")),
        };
        let id = doc.get("id").cloned();
        let Some(cmd) = doc.get("cmd").and_then(Json::as_str) else {
            return error_response(id, "request needs a string `cmd` field".to_string());
        };
        let outcome = self.dispatch(cmd, &doc);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.stats.record_verb(cmd, elapsed_us);
        match outcome {
            Ok(Dispatched {
                result,
                lookup,
                engine,
            }) => {
                if let Some((engine, engine_us)) = engine {
                    self.stats.record_engine(engine, engine_us);
                }
                let mut fields = Vec::new();
                if let Some(id) = id {
                    fields.push(("id".to_string(), id));
                }
                fields.push(("ok".to_string(), Json::Bool(true)));
                fields.push(("cmd".to_string(), Json::str(cmd)));
                if let Some(lookup) = lookup {
                    fields.push(("cache".to_string(), Json::str(lookup.as_str())));
                }
                fields.push((
                    "elapsed_us".to_string(),
                    Json::int(usize::try_from(elapsed_us).unwrap_or(usize::MAX)),
                ));
                fields.push(("result".to_string(), result));
                Json::Obj(fields)
            }
            Err(message) => error_response(id, message),
        }
    }

    /// Runs one verb.
    fn dispatch(&self, cmd: &str, doc: &Json) -> Result<Dispatched, String> {
        if cmd == "stats" {
            return Ok(Dispatched {
                result: self.stats_result(),
                lookup: None,
                engine: None,
            });
        }
        if !matches!(
            cmd,
            "parse" | "analyze" | "optimize" | "synth" | "simulate" | "trace"
        ) {
            return Err(format!(
                "unknown cmd `{cmd}` (expected parse, analyze, optimize, synth, simulate, trace or stats)"
            ));
        }

        let (source, origin) = request_source(doc, self.peer)?;
        // The execution budget starts here, *before* compilation — a
        // cached entry makes compilation ~free, but the deadline covers
        // the whole request either way.
        let budget = self.limits.request_budget(doc)?;
        let (entry, lookup) = self
            .cache
            .get_or_compile(&source)
            .map_err(|diags| render_all(&diags, &source, &origin))?;

        // The resolved engine and the time it spent, for the per-engine
        // latency histograms.
        let mut engine: Option<(&'static str, u64)> = None;
        let result = match cmd {
            "parse" => exec::parse_result(entry.session.dfg(), entry.session.input_ranges()),
            "analyze" => {
                let params = AnalyzeParams {
                    engine: match doc.get("engine").map(|v| field_str(v, "engine")) {
                        Some(raw) => AnalyzeEngine::parse(raw?)?,
                        None => AnalyzeEngine::Auto,
                    },
                    bits: bounded_usize_field(doc, "bits", 12, 255)? as u8,
                    bins: usize_field(doc, "bins", 64)?,
                };
                let include_pdf = bool_field(doc, "pdf", true)?;
                let report = exec::analyze_report_budgeted(&entry, &params, &budget, include_pdf)?;
                engine = Some((report.engine.name(), micros(report.elapsed)));
                exec::analyze_result(&report, &params, include_pdf)
            }
            "simulate" => {
                let params = SimulateParams {
                    bits: bounded_usize_field(doc, "bits", 12, 255)? as u8,
                    bins: usize_field(doc, "bins", 64)?,
                    // Bounded: paths × steps sizes server-side work, and
                    // workers fans out threads — an untrusted peer must
                    // not pick arbitrary values.
                    paths: bounded_usize_field(doc, "paths", 100_000, exec::MAX_PATHS)?,
                    seed: usize_field(doc, "seed", 0x5eed_cafe)? as u64,
                    steps: doc
                        .get("steps")
                        .map(|_| bounded_usize_field(doc, "steps", 0, exec::MAX_STEPS))
                        .transpose()?,
                    warmup: doc
                        .get("warmup")
                        .map(|_| bounded_usize_field(doc, "warmup", 0, exec::MAX_STEPS))
                        .transpose()?,
                    workers: bounded_usize_field(doc, "workers", 0, sna_vm::MAX_WORKERS)?,
                };
                let include_pdf = bool_field(doc, "pdf", true)?;
                let report = exec::simulate_budgeted(&entry, &params, &budget, include_pdf)?;
                engine = Some(("simulate", micros(report.elapsed)));
                exec::simulate_result(&report, &params, include_pdf)
            }
            "trace" => {
                let mode = match doc.get("mode") {
                    Some(v) => field_str(v, "mode")?,
                    None => "report",
                };
                if !matches!(mode, "fit" | "replay" | "report") {
                    return Err(format!(
                        "unknown trace mode `{mode}` (expected fit, replay or report)"
                    ));
                }
                let csv = trace_csv(doc, self.peer)?;
                // Byte/row caps + budget-checked ingestion: an untrusted
                // peer must not size the server's memory or stall it
                // with an endless upload.
                let trace_limits = sna_trace::TraceLimits {
                    max_bytes: exec::MAX_TRACE_BYTES,
                    max_rows: exec::MAX_TRACE_ROWS,
                };
                let trace = exec::ingest_trace(&csv, &entry.session, &trace_limits, &budget)?;
                let include_pdf = bool_field(doc, "pdf", true)?;
                let bins = usize_field(doc, "bins", 64)?;
                if mode == "fit" {
                    let fit = exec::trace_fit(&entry.session, &trace, bins)?;
                    exec::trace_fit_result(&trace, bins, &fit, include_pdf)
                } else {
                    let params = TraceParams {
                        bits: bounded_usize_field(doc, "bits", 12, 255)? as u8,
                        bins,
                        warmup: doc
                            .get("warmup")
                            .map(|_| bounded_usize_field(doc, "warmup", 0, exec::MAX_STEPS))
                            .transpose()?,
                        workers: bounded_usize_field(doc, "workers", 0, sna_vm::MAX_WORKERS)?,
                        predict: mode == "report",
                    };
                    let report = exec::trace_report(&entry, &trace, &params, &budget, include_pdf)?;
                    engine = Some(("trace", micros(report.elapsed)));
                    exec::trace_result(&report, &params, include_pdf)
                }
            }
            "optimize" => {
                let params = OptimizeParams {
                    method: match doc.get("method") {
                        Some(v) => field_str(v, "method")?.to_string(),
                        None => "greedy".to_string(),
                    },
                    ref_bits: bounded_usize_field(doc, "ref_bits", 12, 255)? as u8,
                    budget: match doc.get("budget") {
                        Some(v) => Some(
                            v.as_f64()
                                .ok_or_else(|| "`budget` must be a number".to_string())?,
                        ),
                        None => None,
                    },
                    start: bounded_usize_field(doc, "start", 16, 255)? as u8,
                    radius: bounded_usize_field(doc, "radius", 1, 255)? as u8,
                    // Bounded: these fan out server-side work, so an
                    // untrusted peer must not pick arbitrary values.
                    restarts: bounded_usize_field(doc, "restarts", 1, 64)?,
                    threads: bounded_usize_field(doc, "threads", 0, sna_vm::MAX_WORKERS)?,
                };
                let out = exec::optimize_budgeted(&entry.session, &params, &budget)?;
                exec::optimize_result(&out)
            }
            "synth" => {
                let bits = bounded_usize_field(doc, "bits", 12, 255)? as u8;
                let clock = match doc.get("clock") {
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| "`clock` must be a number".to_string())?,
                    None => sna_hls::SynthesisConstraints::default().clock_ns,
                };
                let imp = exec::synth(&entry.session, bits, clock)?;
                exec::synth_result(bits, clock, &imp)
            }
            _ => unreachable!("verbs matched above"),
        };
        Ok(Dispatched {
            result,
            lookup: Some(lookup),
            engine,
        })
    }

    /// The `stats` result: the compile-cache counters, with
    /// the registry's counters and histograms merged in beside them.
    fn stats_result(&self) -> Json {
        let as_int = |v: u64| Json::int(usize::try_from(v).unwrap_or(usize::MAX));
        let s = self.cache.stats();
        let mut fields = vec![(
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".into(), as_int(s.hits)),
                ("misses".into(), as_int(s.misses)),
                ("entries".into(), Json::int(s.entries)),
                ("evictions".into(), as_int(s.evictions)),
            ]),
        )];
        if let Json::Obj(registry_fields) = self.stats.to_json() {
            fields.extend(registry_fields);
        }
        Json::Obj(fields)
    }

    /// Serves the line protocol until EOF: one compact JSON response per
    /// request line, flushed immediately so pipes and sockets see answers
    /// without buffering delays. Lines are framed exactly as the TCP
    /// transport frames them: only the terminator is stripped, blank
    /// lines get no answer, and bytes that are not UTF-8 decode lossily
    /// (answering as a malformed request). This is the stdin/stdout
    /// transport behind `sna serve`.
    ///
    /// # Errors
    ///
    /// Only transport failures (reading the input, writing the output);
    /// protocol-level problems become `"ok": false` responses.
    pub fn serve<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<ServeReport> {
        let mut report = ServeReport::default();
        let mut buf = Vec::new();
        let mut out = String::new();
        loop {
            buf.clear();
            // Cap each line read: without the bound a newline-less stream
            // accumulates into one unbounded buffer.
            let n = io::Read::take(&mut reader, MAX_LINE_BYTES).read_until(b'\n', &mut buf)?;
            if n == 0 {
                break; // EOF
            }
            if !buf.ends_with(b"\n") && n as u64 == MAX_LINE_BYTES {
                // Oversized request: answer once and hang up — the rest
                // of the stream is the middle of the same over-long line.
                report.requests += 1;
                report.errors += 1;
                self.stats.bump(Counter::Requests);
                self.stats.bump(Counter::Errors);
                writer.write_all(oversize_error_line().as_bytes())?;
                writer.flush()?;
                break;
            }
            let Some(line) = request_line(&buf) else {
                continue;
            };
            let response = self.handle(&line);
            report.requests += 1;
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                report.errors += 1;
            }
            out.clear();
            response.write_compact(&mut out);
            out.push('\n');
            writer.write_all(out.as_bytes())?;
            writer.flush()?;
        }
        Ok(report)
    }
}

fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

fn error_response(id: Option<Json>, message: String) -> Json {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), id));
    }
    fields.push(("ok".to_string(), Json::Bool(false)));
    fields.push(("error".to_string(), Json::Str(message)));
    Json::Obj(fields)
}

/// A successful verb run: the `result` payload, the cache outcome when
/// the verb compiled something, and — for the engine-running verbs —
/// the resolved engine plus the time the engine itself spent (for the
/// per-engine latency histograms).
struct Dispatched {
    result: Json,
    lookup: Option<Lookup>,
    engine: Option<(&'static str, u64)>,
}

/// The program text of a request: inline `source`, or `path` read from
/// disk (trusted transports only). The second element is the origin used
/// in diagnostics.
fn request_source(doc: &Json, peer: Peer) -> Result<(String, String), String> {
    if let Some(v) = doc.get("source") {
        return Ok((field_str(v, "source")?.to_string(), "request".to_string()));
    }
    if let Some(v) = doc.get("path") {
        if peer == Peer::Untrusted {
            return Err(
                "`path` is not available over TCP (it reads server-side files); \
                 send the program inline via `source`"
                    .to_string(),
            );
        }
        let path = field_str(v, "path")?;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        return Ok((text, path.to_string()));
    }
    Err("request needs a `source` (inline text) or `path` (file) field".to_string())
}

/// The recorded-signal CSV of a `trace` request: inline `trace`, or
/// `trace_path` read from disk (trusted transports only, and only up to
/// the byte cap — a path must not smuggle in an unbounded file).
fn trace_csv(doc: &Json, peer: Peer) -> Result<String, String> {
    if let Some(v) = doc.get("trace") {
        return Ok(field_str(v, "trace")?.to_string());
    }
    if let Some(v) = doc.get("trace_path") {
        if peer == Peer::Untrusted {
            return Err(
                "`trace_path` is not available over TCP (it reads server-side files); \
                 send the CSV inline via `trace`"
                    .to_string(),
            );
        }
        let path = field_str(v, "trace_path")?;
        let meta = std::fs::metadata(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        if meta.len() > exec::MAX_TRACE_BYTES as u64 {
            return Err(format!(
                "trace exceeds the byte cap ({} bytes)",
                exec::MAX_TRACE_BYTES
            ));
        }
        return std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"));
    }
    Err("trace request needs a `trace` (inline CSV) or `trace_path` (file) field".to_string())
}

fn field_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("`{key}` must be a string"))
}

/// An integer field in `0..=cap` (word lengths, and parallelism knobs: a
/// remote peer must not spawn unbounded server-side work).
fn bounded_usize_field(doc: &Json, key: &str, default: usize, cap: usize) -> Result<usize, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("`{key}` must be a number"))?;
            if n.fract() == 0.0 && (0.0..=cap as f64).contains(&n) {
                Ok(n as usize)
            } else {
                Err(format!("`{key}` must be an integer in 0..={cap}"))
            }
        }
    }
}

fn bool_field(doc: &Json, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn usize_field(doc: &Json, key: &str, default: usize) -> Result<usize, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("`{key}` must be a number"))?;
            if n.fract() == 0.0 && n >= 0.0 && n <= usize::MAX as f64 {
                Ok(n as usize)
            } else {
                Err(format!("`{key}` must be a non-negative integer"))
            }
        }
    }
}

/// Upper bound on one request line. Real `.sna` sources are kilobytes;
/// the bound exists so a peer streaming bytes with no newline cannot
/// grow the line buffer until the process is OOM-killed.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// The request text of one raw line, framed the same way by both
/// transports: the line terminator (trailing `\n` and `\r` bytes) is
/// stripped and nothing else, so the byte offset of a parse error
/// indexes the line the client sent; bytes that are not UTF-8 decode
/// lossily (and answer as a malformed request); a line that is empty or
/// only whitespace is `None` and gets no answer.
pub(crate) fn request_line(raw: &[u8]) -> Option<Cow<'_, str>> {
    let end = raw
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |last| last + 1);
    let text = String::from_utf8_lossy(&raw[..end]);
    (!text.trim().is_empty()).then_some(text)
}

/// An error response as one wire line, for the answers the event loop
/// gives without running a handler: `server at capacity` (before the
/// connection closes), `server draining` (a request after a graceful
/// drain began), and the internal error a worker's completion guard
/// delivers when execution panicked — so the peer always sees a
/// structured failure, never a silent drop. The `id` of `request`, when
/// it parses far enough, keeps the answer correlated.
pub(crate) fn error_line(request: Option<&str>, message: &str) -> String {
    let id = request
        .and_then(|line| Json::parse(line).ok())
        .and_then(|doc| doc.get("id").cloned());
    let mut line = error_response(id, message.to_string()).to_compact();
    line.push('\n');
    line
}

/// The answer to a request line that exceeded [`MAX_LINE_BYTES`] (the
/// connection closes after it flushes).
pub(crate) fn oversize_error_line() -> String {
    error_line(
        None,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "input x in [-1, 1];\\noutput y = 0.5*x;\\n";

    fn handler<'a>(cache: &'a CompileCache, stats: &'a StatsRegistry, peer: Peer) -> Handler<'a> {
        Handler {
            cache,
            stats,
            limits: ExecLimits::default(),
            peer,
        }
    }

    fn error(response: &Json) -> &str {
        response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("not an error response: {response}"))
    }

    fn handle_line(cache: &CompileCache, line: &str) -> Json {
        handler(cache, &StatsRegistry::new(), Peer::Trusted).handle(line)
    }

    fn handle_line_untrusted(cache: &CompileCache, line: &str) -> Json {
        handler(cache, &StatsRegistry::new(), Peer::Untrusted).handle(line)
    }

    fn handle_line_stats(cache: &CompileCache, stats: &StatsRegistry, line: &str) -> Json {
        handler(cache, stats, Peer::Trusted).handle(line)
    }

    fn request(fields: &str) -> String {
        format!("{{{fields}}}")
    }

    #[test]
    fn analyze_request_answers_with_reports_and_cache_state() {
        let cache = CompileCache::new();
        let line = request(&format!(
            r#""id": 1, "cmd": "analyze", "source": "{SRC}", "bits": 8"#
        ));
        let first = handle_line(&cache, &line);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(first.get("id").unwrap().as_f64(), Some(1.0));
        assert!(first.get("result").unwrap().get("reports").is_some());
        let second = handle_line(&cache, &line);
        assert_eq!(second.get("cache").unwrap().as_str(), Some("hit"));
    }

    #[test]
    fn malformed_lines_and_unknown_cmds_answer_with_errors() {
        let cache = CompileCache::new();
        let bad = handle_line(&cache, "this is not json");
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&bad).contains("malformed"));

        let unknown = handle_line(&cache, r#"{"id": 9, "cmd": "frobnicate", "source": "x"}"#);
        assert_eq!(unknown.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(unknown.get("id").unwrap().as_f64(), Some(9.0));
        assert!(error(&unknown).contains("unknown cmd"));

        let no_source = handle_line(&cache, r#"{"cmd": "parse"}"#);
        assert!(error(&no_source).contains("`source`"));
    }

    #[test]
    fn compile_diagnostics_travel_in_the_error_field() {
        let cache = CompileCache::new();
        let resp = handle_line(
            &cache,
            r#"{"cmd": "parse", "source": "input x;\ny = ;\noutput y;\n"}"#,
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        let message = error(&resp);
        assert!(message.contains("expected an expression"), "{message}");
    }

    #[test]
    fn stats_requests_report_cache_counters_and_the_registry() {
        let cache = CompileCache::new();
        let registry = StatsRegistry::new();
        let line = request(&format!(r#""cmd": "synth", "source": "{SRC}", "bits": 10"#));
        let _ = handle_line_stats(&cache, &registry, &line);
        let _ = handle_line_stats(&cache, &registry, &line);
        let stats = handle_line_stats(&cache, &registry, r#"{"cmd": "stats"}"#);
        let result = stats.get("result").unwrap();
        let cache_counters = result.get("cache").unwrap();
        assert_eq!(cache_counters.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache_counters.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache_counters.get("entries").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache_counters.get("evictions").unwrap().as_f64(), Some(0.0));
        // The registry rode along: both synth requests and the stats
        // request itself are counted (requests bumps on receipt)…
        let counters = result.get("counters").unwrap();
        assert_eq!(counters.get("requests").unwrap().as_f64(), Some(3.0));
        assert_eq!(counters.get("errors").unwrap().as_f64(), Some(0.0));
        // …and the synth verb has a latency histogram with both entries.
        let synth = result.get("verbs").unwrap().get("synth").unwrap();
        assert_eq!(synth.get("count").unwrap().as_f64(), Some(2.0));
        assert!(synth.get("p99_us").unwrap().as_f64().is_some());
    }

    #[test]
    fn analyze_records_the_resolved_engine_not_auto() {
        let cache = CompileCache::new();
        let registry = StatsRegistry::new();
        // Auto on a linear combinational graph resolves to LTI.
        let line = request(&format!(
            r#""cmd": "analyze", "source": "{SRC}", "bits": 8"#
        ));
        let resp = handle_line_stats(&cache, &registry, &line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            resp.get("result").unwrap().get("engine").unwrap().as_str(),
            Some("lti"),
            "the response reports the engine that actually ran"
        );
        assert_eq!(registry.engine("lti").unwrap().snapshot().count, 1);
        let stats = handle_line_stats(&cache, &registry, r#"{"cmd": "stats"}"#);
        let engines = stats.get("result").unwrap().get("engines").unwrap();
        assert_eq!(
            engines.get("lti").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn errors_are_counted_in_the_registry() {
        let cache = CompileCache::new();
        let registry = StatsRegistry::new();
        let _ = handle_line_stats(&cache, &registry, "not json");
        let _ = handle_line_stats(&cache, &registry, r#"{"cmd": "frobnicate", "source": "x"}"#);
        assert_eq!(registry.get(Counter::Requests), 2);
        assert_eq!(registry.get(Counter::Errors), 2);
    }

    #[test]
    fn oversized_bins_are_rejected_instead_of_aborting_the_process() {
        let cache = CompileCache::new();
        let resp = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "analyze", "source": "{SRC}", "bins": 40000000000"#
            )),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("bins"), "{resp}");
        // A zero is equally out of range.
        let resp = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "analyze", "source": "{SRC}", "bins": 0"#
            )),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn pathological_nesting_answers_with_an_error_not_an_abort() {
        let cache = CompileCache::new();
        // A line of `[[[[…` (well under MAX_LINE_BYTES) must get an
        // error response, not overflow the handler's stack.
        let deep_json = "[".repeat(200_000);
        let resp = handle_line_untrusted(&cache, &deep_json);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("nesting"), "{resp}");
        // Same for a deeply nested `.sna` expression inside a valid
        // request: a compile diagnostic, not a crash.
        let line = format!(
            r#"{{"cmd": "parse", "source": "y = {}x;"}}"#,
            "-".repeat(100_000)
        );
        let resp = handle_line_untrusted(&cache, &line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("nesting"), "{resp}");
    }

    #[test]
    fn untrusted_peers_cannot_read_files_via_path() {
        let cache = CompileCache::new();
        let line = r#"{"cmd": "parse", "path": "/etc/hostname"}"#;
        let resp = handle_line_untrusted(&cache, line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("not available over TCP"), "{resp}");
        // Inline source still works for the same peer.
        let ok = handle_line_untrusted(
            &cache,
            &request(&format!(r#""cmd": "parse", "source": "{SRC}""#)),
        );
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parameter_validation_is_spelled_out() {
        let cache = CompileCache::new();
        let resp = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "analyze", "source": "{SRC}", "bits": 4096"#
            )),
        );
        assert!(error(&resp).contains("0..=255"));
        let resp = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "analyze", "source": "{SRC}", "engine": "warp""#
            )),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("unknown engine"));
    }

    const CSV: &str = "x\\n0.9\\n-0.9\\n0.45\\n-0.45\\n0.1\\n-0.7\\n0.3\\n-0.2\\n";

    fn first(v: &Json) -> &Json {
        match v {
            Json::Arr(items) => &items[0],
            other => panic!("expected an array, got {other}"),
        }
    }

    #[test]
    fn trace_report_answers_with_measured_and_predicted_noise() {
        let cache = CompileCache::new();
        let registry = StatsRegistry::new();
        let line = request(&format!(
            r#""cmd": "trace", "source": "{SRC}", "trace": "{CSV}", "bits": 8"#
        ));
        let resp = handle_line_stats(&cache, &registry, &line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        let result = resp.get("result").unwrap();
        assert_eq!(result.get("engine").unwrap().as_str(), Some("trace"));
        assert_eq!(result.get("mode").unwrap().as_str(), Some("report"));
        assert_eq!(result.get("rows").unwrap().as_f64(), Some(8.0));
        let y = first(result.get("outputs").unwrap());
        assert_eq!(y.get("output").unwrap().as_str(), Some("y"));
        assert!(y.get("measured").unwrap().get("variance").is_some());
        assert!(y.get("predicted").unwrap().get("variance").is_some());
        assert!(y.get("variance_gap").is_some());
        // The verb and engine both land in the registry as `trace`.
        assert_eq!(registry.verb("trace").unwrap().snapshot().count, 1);
        assert_eq!(registry.engine("trace").unwrap().snapshot().count, 1);
    }

    #[test]
    fn trace_fit_reports_measured_ranges_not_declared_ones() {
        let cache = CompileCache::new();
        let line = request(&format!(
            r#""cmd": "trace", "source": "{SRC}", "trace": "{CSV}", "mode": "fit""#
        ));
        let resp = handle_line(&cache, &line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        let result = resp.get("result").unwrap();
        assert_eq!(result.get("mode").unwrap().as_str(), Some("fit"));
        let fit = first(result.get("fit").unwrap());
        assert_eq!(fit.get("input").unwrap().as_str(), Some("x"));
        // Declared range is [-1, 1]; the recorded signal only spans
        // [-0.9, 0.9] and the fit reflects the data.
        match fit.get("range").unwrap() {
            Json::Arr(pair) => {
                assert_eq!(pair[0].as_f64(), Some(-0.9));
                assert_eq!(pair[1].as_f64(), Some(0.9));
            }
            other => panic!("expected a [lo, hi] pair, got {other}"),
        }
    }

    #[test]
    fn trace_replay_mode_skips_the_analytic_prediction() {
        let cache = CompileCache::new();
        let line = request(&format!(
            r#""cmd": "trace", "source": "{SRC}", "trace": "{CSV}", "mode": "replay""#
        ));
        let resp = handle_line(&cache, &line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp}");
        let y = first(resp.get("result").unwrap().get("outputs").unwrap());
        assert!(y.get("measured").unwrap().get("variance").is_some());
        assert!(matches!(y.get("predicted"), Some(Json::Null)));
    }

    #[test]
    fn trace_requests_validate_mode_and_payload() {
        let cache = CompileCache::new();
        let bad_mode = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "trace", "source": "{SRC}", "trace": "{CSV}", "mode": "warp""#
            )),
        );
        assert!(error(&bad_mode).contains("unknown trace mode"));
        let no_trace = handle_line(
            &cache,
            &request(&format!(r#""cmd": "trace", "source": "{SRC}""#)),
        );
        assert!(error(&no_trace).contains("`trace`"));
        let bad_column = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "trace", "source": "{SRC}", "trace": "z\\n1\\n""#
            )),
        );
        assert!(error(&bad_column).contains("no column for input"));
    }

    #[test]
    fn untrusted_peers_cannot_read_files_via_trace_path() {
        let cache = CompileCache::new();
        let line = request(&format!(
            r#""cmd": "trace", "source": "{SRC}", "trace_path": "/etc/hostname""#
        ));
        let resp = handle_line_untrusted(&cache, &line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("not available over TCP"));
        // The same request with the CSV inline works for that peer.
        let ok = handle_line_untrusted(
            &cache,
            &request(&format!(
                r#""cmd": "trace", "source": "{SRC}", "trace": "{CSV}""#
            )),
        );
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true), "{ok}");
    }

    #[test]
    fn trace_row_cap_rejects_oversized_recordings() {
        let cache = CompileCache::new();
        let mut csv = String::from("x\\n");
        for _ in 0..=exec::MAX_TRACE_ROWS {
            csv.push_str("0\\n");
        }
        let resp = handle_line(
            &cache,
            &request(&format!(
                r#""cmd": "trace", "source": "{SRC}", "trace": "{csv}""#
            )),
        );
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        assert!(error(&resp).contains("row cap"), "{resp}");
    }
}
