//! The traced run: the same seeded request lines, replayed in-process
//! through each layer's public entry points with a span around every
//! call, against a cache of its own.
//!
//! Each request is replayed twice, alternating which goes first: once
//! with spans recorded and once without (on a second cache that sees the
//! identical sequence, so both meet the same cache tiers). The ratio of
//! the two totals is the tracing overhead.
//!
//! `get_or_compile` parses and lowers internally, so the `lang` layer is
//! timed by *probes*: `sna_lang::parse`/`lower` run again, outside the
//! request span, on every lookup that compiled; their time moves from the
//! cache's self time to `lang`. `vm.compile` is probed the same way on
//! a fresh session.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use sna_core::{EngineKind, SessionStats};
use sna_service::{CompileCache, Json, Lookup};

use crate::stats::{mean, median};
use crate::verbs::{self, Outcome, Params};

#[derive(Clone, Debug)]
pub struct Span {
    pub req: u32,
    pub layer: &'static str,
    pub call: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a request's root and for
    /// probes (which run outside the request).
    pub parent: Option<u32>,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store; written out once at the end.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    req: u32,
    root: Option<u32>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: &'static str, call: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req: self.req,
            layer,
            call,
            start_ns,
            end_ns: start_ns,
            parent: self.root,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }
}

/// Runs `f` inside a span when a recorder is present.
fn timed<T>(
    rec: &mut Option<Recorder>,
    layer: &'static str,
    call: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => {
            let span = r.begin(layer, call);
            let out = f();
            r.end(span);
            out
        }
        None => f(),
    }
}

/// What one replayed request did, beyond its spans.
struct Replayed {
    result: Json,
    lookup: Lookup,
    bytes_out: usize,
    /// Stage counters after the request, for per-layer "did it build"
    /// accounting.
    before: SessionStats,
    after: SessionStats,
    shape_fingerprint: u64,
    /// paths × steps of a simulate request.
    samples: usize,
}

fn replay_one(
    cache: &CompileCache,
    id: u64,
    body: &str,
    rec: &mut Option<Recorder>,
) -> Result<Replayed, String> {
    let line = format!("{{\"id\":{id},{body}}}");
    let started = Instant::now();
    let doc = timed(rec, "service.json", "decode", || Json::parse(&line))?;
    let (source, params) = verbs::params(&doc)?;
    let (entry, lookup) = timed(rec, "service.cache", "get_or_compile", || {
        cache.get_or_compile(source)
    })
    .map_err(|d| format!("compile failed ({} diagnostics)", d.len()))?;
    let session = &entry.session;
    let before = session.stats();
    timed(rec, "dfg", "node_ranges", || session.node_ranges())
        .map_err(|e| format!("ranges: {e}"))?;
    let engine = match &params {
        Params::Analyze(p, _) => Some(
            session
                .resolve_engine(p.engine)
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };
    let needs_na = matches!(engine, Some(EngineKind::Na | EngineKind::Lti))
        || (matches!(params, Params::Optimize(_)) && session.dfg().is_linear());
    if needs_na {
        timed(rec, "core.na", "na_model", || session.na_model()).map_err(|e| e.to_string())?;
    }
    if let (Some(EngineKind::Lti), Params::Analyze(p, _)) = (engine, &params) {
        timed(rec, "core.engine", "lti_engine", || {
            session.lti_engine(p.bins)
        })
        .map_err(|e| e.to_string())?;
    }
    if let Params::Simulate(..) = params {
        timed(rec, "vm", "vm_program", || session.vm_program());
    }
    let (layer, call) = match (&params, engine) {
        (Params::Simulate(..), _) => ("vm", "simulate"),
        (Params::Optimize(_), _) => ("opt", "optimize"),
        (Params::Analyze(..), Some(kind)) => ("core.engine", engine_call(kind)),
        (Params::Analyze(..), None) => unreachable!("analyze resolves an engine"),
    };
    let outcome = timed(rec, layer, call, || verbs::execute(&entry, &params))?;
    let samples = match &outcome {
        Outcome::Simulate(r) => r.paths * r.steps,
        _ => 0,
    };
    let (result, bytes_out) = timed(rec, "service.json", "render", || {
        let result = verbs::render(&outcome, &params);
        let elapsed = started.elapsed().as_micros() as usize;
        let response = Json::Obj(vec![
            ("id".into(), Json::int(id as usize)),
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str(params.verb())),
            ("cache".into(), Json::str(lookup.as_str())),
            ("elapsed_us".into(), Json::int(elapsed)),
            ("result".into(), result),
        ]);
        let bytes = response.to_compact().len() + 1;
        let Json::Obj(mut fields) = response else {
            unreachable!()
        };
        (fields.pop().expect("result member").1, bytes)
    });
    Ok(Replayed {
        result,
        lookup,
        bytes_out,
        before,
        after: session.stats(),
        shape_fingerprint: entry.shape_fingerprint,
        samples,
    })
}

fn engine_call(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Na => "na",
        EngineKind::Lti => "lti",
        EngineKind::Dfg => "dfg",
        EngineKind::Symbolic => "symbolic",
        EngineKind::Cartesian => "cartesian",
        EngineKind::Simulate => "simulate",
        EngineKind::Auto => "auto",
    }
}

/// Compile-layer probes of one lookup that compiled.
struct Probe {
    lookup: Lookup,
    parse_us: f64,
    lower_us: f64,
    vm_compile_us: f64,
    tokens: usize,
    nodes: usize,
}

fn probe(source: &str, lookup: Lookup, rec: &mut Recorder) -> Option<Probe> {
    let span = rec.begin("lang", "parse");
    let program = sna_lang::parse(source).ok()?;
    rec.end(span);
    let parse_us = rec.spans[span].us();
    let span = rec.begin("lang", "lower");
    let lowered = sna_lang::lower(&program).ok()?;
    rec.end(span);
    let lower_us = rec.spans[span].us();
    let nodes = lowered.dfg.len();
    let fresh = sna_core::Session::new(lowered.dfg, lowered.input_ranges).ok()?;
    let span = rec.begin("vm", "compile");
    let _ = fresh.vm_program();
    rec.end(span);
    let vm_compile_us = rec.spans[span].us();
    Some(Probe {
        lookup,
        parse_us,
        lower_us,
        vm_compile_us,
        tokens: sna_lang::lex(source).map_or(0, |t| t.len()),
        nodes,
    })
}

pub struct TraceResult {
    /// Declared per-layer metrics, by name.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Per-layer numbers of layers this workload does not exercise on
    /// every run (reported, not declared).
    pub extra: BTreeMap<String, (f64, &'static str)>,
    pub replayed: usize,
    /// Replayed results that differ from the reference.
    pub mismatched: u64,
    pub notes: Vec<String>,
}

/// Replays `requests` (id, body, reference result) for at most `budget`
/// of wall time and [`MAX_REPLAYED`] requests, and summarizes the spans.
/// `transport_us` are the TCP run's per-request round trip minus server
/// time.
pub fn replay(
    requests: &[(u64, &str, Option<&Json>)],
    budget: Duration,
    transport_us: &[f64],
    spans_out: &Path,
) -> Result<TraceResult, String> {
    let plain_cache = CompileCache::new();
    let traced_cache = CompileCache::new();
    let mut rec = Some(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        req: 0,
        root: None,
    });
    let mut plain_total = Duration::ZERO;
    let mut traced_total = Duration::ZERO;
    let mut records = Vec::new();
    let mut mismatched = 0;
    let mut notes = Vec::new();
    let mut probes = Vec::new();
    let started = Instant::now();
    for (k, &(id, body, reference)) in requests.iter().enumerate().take(MAX_REPLAYED) {
        if started.elapsed() > budget {
            break;
        }
        let plain = || -> Result<Duration, String> {
            let t = Instant::now();
            replay_one(&plain_cache, id, body, &mut None)?;
            Ok(t.elapsed())
        };
        let traced = |rec: &mut Option<Recorder>| -> Result<(Duration, Replayed), String> {
            let r = rec.as_mut().expect("recorder");
            r.req = k as u32;
            let root = r.begin("request", "request");
            r.root = Some(root as u32);
            let t = Instant::now();
            let out = replay_one(&traced_cache, id, body, rec)?;
            let took = t.elapsed();
            let r = rec.as_mut().expect("recorder");
            r.end(root);
            r.root = None;
            Ok((took, out))
        };
        let (p, (t, out)) = if k % 2 == 0 {
            let p = plain()?;
            (p, traced(&mut rec)?)
        } else {
            let t = traced(&mut rec)?;
            (plain()?, t)
        };
        plain_total += p;
        traced_total += t;
        if let Some(reference) = reference {
            let tol = if out.lookup == Lookup::ShapeHit {
                crate::gate::SHAPE_HIT_TOL
            } else {
                0.0
            };
            let wire = Json::parse(&out.result.to_compact())?;
            if let Some(diff) = verbs::first_difference(&wire, reference, tol) {
                mismatched += 1;
                if notes.len() < 20 {
                    notes.push(format!("replayed request {id} differs at result{diff}"));
                }
            }
        }
        let compiled = matches!(
            out.lookup,
            Lookup::Miss | Lookup::ShapeHit | Lookup::CanonHit
        );
        if compiled {
            let source = Json::parse(&format!("{{{body}}}"))?;
            let source = source.get("source").and_then(Json::as_str).unwrap_or("");
            let r = rec.as_mut().expect("recorder");
            r.req = k as u32;
            probes.extend(probe(source, out.lookup, r));
        }
        records.push(out);
    }
    let rec = rec.expect("recorder");
    write_spans(&rec.spans, requests, spans_out)?;
    Ok(summarize(
        &rec.spans,
        &records,
        &probes,
        &traced_cache,
        transport_us,
        plain_total,
        traced_total,
        mismatched,
        notes,
    ))
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    spans: &[Span],
    records: &[Replayed],
    probes: &[Probe],
    cache: &CompileCache,
    transport_us: &[f64],
    plain_total: Duration,
    traced_total: Duration,
    mismatched: u64,
    notes: Vec<String>,
) -> TraceResult {
    let n = records.len().max(1) as f64;
    // Self time per layer: a span's duration minus its children's.
    let mut child_us: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.us();
        }
    }
    let mut self_us: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = s.us() - child_us.get(&(i as u32)).copied().unwrap_or(0.0);
        if s.parent.is_some() {
            *self_us.entry(s.layer).or_default() += own;
        }
        calls.entry((s.layer, s.call)).or_default().push(s.us());
    }
    // `get_or_compile` parsed and lowered inside its span: move the
    // probes' time from the cache to `lang`.
    let lang_us: f64 = probes
        .iter()
        .map(|p| {
            if p.lookup == Lookup::CanonHit {
                p.parse_us
            } else {
                p.parse_us + p.lower_us
            }
        })
        .sum();
    let cache_self = self_us.entry("service.cache").or_default();
    let moved = lang_us.min(*cache_self);
    *cache_self -= moved;
    *self_us.entry("lang").or_default() += moved;

    // Spans of stage calls that actually built the stage.
    let built = |layer: &str, call: &str, did: &dyn Fn(&Replayed) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.parent.is_some() && s.layer == layer && s.call == call)
            .filter(|s| did(&records[s.req as usize]))
            .map(Span::us)
            .collect()
    };
    let ranges_us = built("dfg", "node_ranges", &|r| {
        r.after.range_builds > r.before.range_builds
    });
    let na_us = built("core.na", "na_model", &|r| {
        r.after.na_builds > r.before.na_builds
    });
    let lti_build_us = built("core.engine", "lti_engine", &|r| {
        r.after.lti_builds > r.before.lti_builds
    });

    // Gain-patch counters: per shape family, the delta each shape hit
    // added over the family's previous snapshot.
    let mut family: HashMap<u64, SessionStats> = HashMap::new();
    let (mut rebuilt, mut derived, mut reused) = (0u64, 0u64, 0u64);
    for r in records {
        if r.lookup == Lookup::ShapeHit {
            if let Some(prev) = family.get(&r.shape_fingerprint) {
                rebuilt += r.after.gains_rebuilt.saturating_sub(prev.gains_rebuilt);
                derived += r.after.gains_derived.saturating_sub(prev.gains_derived);
                reused += r.after.gains_reused.saturating_sub(prev.gains_reused);
            }
        }
        family.insert(r.shape_fingerprint, r.after);
    }

    let med = |layer: &str, call: &str| calls.get(&(layer, call)).and_then(|v| median(v));
    let probe_col = |f: fn(&Probe) -> f64| -> Vec<f64> { probes.iter().map(f).collect() };
    let stats = cache.stats();
    let lookups = (stats.hits + stats.misses).max(1) as f64;
    let sim_us: f64 = calls
        .get(&("vm", "simulate"))
        .map_or(0.0, |v| v.iter().sum());
    let sim_samples: usize = records.iter().map(|r| r.samples).sum();

    // Only what was measured; a declared metric never measured reads 0.
    let mut all: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: Option<f64>, unit: &'static str| {
        if let Some(v) = value {
            all.insert(name.to_string(), (v, unit));
        }
    };
    put("json.decode_us", med("service.json", "decode"), "us");
    put("json.render_us", med("service.json", "render"), "us");
    put(
        "json.bytes_out",
        mean(
            &records
                .iter()
                .map(|r| r.bytes_out as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    put(
        "cache.lookup_us",
        med("service.cache", "get_or_compile"),
        "us",
    );
    put(
        "cache.hit_ratio",
        Some(stats.hits as f64 / lookups),
        "ratio",
    );
    put(
        "cache.shape_hit_ratio",
        Some(stats.shape_hits as f64 / lookups),
        "ratio",
    );
    put("cache.evictions", Some(stats.evictions as f64), "count");
    put("cache.entries", Some(stats.entries as f64), "count");
    put("lang.parse_us", median(&probe_col(|p| p.parse_us)), "us");
    put("lang.lower_us", median(&probe_col(|p| p.lower_us)), "us");
    put(
        "lang.tokens",
        mean(&probe_col(|p| p.tokens as f64)),
        "count",
    );
    put("dfg.ranges_us", median(&ranges_us), "us");
    put("dfg.nodes", mean(&probe_col(|p| p.nodes as f64)), "count");
    put("na.build_us", median(&na_us), "us");
    put("na.gains_rebuilt", Some(rebuilt as f64), "count");
    put("na.gains_derived", Some(derived as f64), "count");
    put("na.gains_reused", Some(reused as f64), "count");
    put(
        "vm.compile_us",
        median(&probe_col(|p| p.vm_compile_us)),
        "us",
    );
    put("vm.simulate_us", med("vm", "simulate"), "us");
    put(
        "vm.samples_per_s",
        (sim_us > 0.0).then(|| sim_samples as f64 / (sim_us / 1e6)),
        "1/s",
    );
    put("opt.search_us", med("opt", "optimize"), "us");
    for engine in ["na", "lti", "dfg", "symbolic", "cartesian"] {
        put(
            &format!("engine.{engine}_us"),
            med("core.engine", engine),
            "us",
        );
    }
    put("engine.lti_build_us", median(&lti_build_us), "us");
    put("transport.overhead_us", median(transport_us), "us");
    for (layer, total) in &self_us {
        put(&format!("layer.self_us.{layer}"), Some(total / n), "us");
    }
    put("layer.self_us.service.event_loop", mean(transport_us), "us");
    let plain = plain_total.as_secs_f64();
    put(
        "trace.overhead_pct",
        (plain > 0.0).then(|| (traced_total.as_secs_f64() / plain - 1.0) * 100.0),
        "%",
    );

    let mut metrics = BTreeMap::new();
    for (name, unit) in crate::PER_LAYER {
        let value = all.remove(name).unwrap_or((0.0, unit));
        metrics.insert(name.to_string(), value);
    }
    TraceResult {
        metrics,
        extra: all,
        replayed: records.len(),
        mismatched,
        notes,
    }
}

/// Requests replayed at most, which bounds the spans held in memory
/// (tiny-pipelined sends a million requests in a run).
const MAX_REPLAYED: usize = 50_000;

/// Requests whose spans are written out (all are summarized).
const SPANS_WRITTEN: u32 = 4096;

fn write_spans(
    spans: &[Span],
    requests: &[(u64, &str, Option<&Json>)],
    path: &Path,
) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans.iter().filter(|s| s.req < SPANS_WRITTEN) {
        let line = Json::Obj(vec![
            ("req".into(), Json::int(s.req as usize)),
            ("id".into(), Json::int(requests[s.req as usize].0 as usize)),
            ("layer".into(), Json::str(s.layer)),
            ("call".into(), Json::str(s.call)),
            ("start_ns".into(), Json::int(s.start_ns as usize)),
            ("end_ns".into(), Json::int(s.end_ns as usize)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::int(p as usize)),
            ),
        ]);
        writeln!(out, "{}", line.to_compact()).map_err(|e| format!("writing spans: {e}"))?;
    }
    out.flush().map_err(|e| format!("writing spans: {e}"))
}
