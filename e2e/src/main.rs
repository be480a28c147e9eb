//! One end-to-end benchmark of `sna serve`.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload warm-mix|cold-sweep|tiny-pipelined --seed N --seconds S --trace 0|1
//! ```
//!
//! It builds the release `sna` binary from this checkout, starts `sna
//! serve --listen 127.0.0.1:0 --workers <nproc>`, warms the workload's
//! working set, drives the server over TCP from closed-loop connections
//! for `--seconds`, and checks every response against an in-process
//! reference. With `--trace 1` it then replays the same request lines
//! in-process with spans around each layer's entry points.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or the
//! per-layer ones with `--trace 1`). The line before it, prefixed
//! `report `, carries sample counts, request property shares and the
//! metrics that only some workloads have. See `e2e/README.md`.

mod client;
mod gate;
mod rng;
mod server;
mod stats;
mod trace;
mod verbs;
mod workload;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sna_service::Json;

use client::{Fixed, Phase, Source, Tier};
use server::Server;
use stats::{beyond, median, quantile};
use workload::{Stream, Workload};

/// End-to-end metrics, each printed on every untraced run (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("analyze_p50_us", "us"),
    ("server_cpu_us_per_req", "us"),
    ("server_peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics printed on every traced run (the `per_layer` list
/// of `BENCHMARK.json`): the ones every workload exercises.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("json.decode_us", "us"),
    ("json.render_us", "us"),
    ("json.bytes_out", "bytes"),
    ("transport.overhead_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.shape_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.entries", "count"),
    ("lang.parse_us", "us"),
    ("lang.lower_us", "us"),
    ("lang.tokens", "count"),
    ("dfg.ranges_us", "us"),
    ("dfg.nodes", "count"),
    ("na.build_us", "us"),
    ("na.gains_rebuilt", "count"),
    ("na.gains_derived", "count"),
    ("na.gains_reused", "count"),
    ("vm.compile_us", "us"),
    ("engine.na_us", "us"),
    ("layer.self_us.service.json", "us"),
    ("layer.self_us.service.cache", "us"),
    ("layer.self_us.lang", "us"),
    ("layer.self_us.dfg", "us"),
    ("layer.self_us.core.na", "us"),
    ("layer.self_us.core.engine", "us"),
    ("layer.self_us.service.event_loop", "us"),
    ("trace.overhead_pct", "%"),
];

/// Servers started one after another in an untraced run, each driven
/// for an equal share of `--seconds`; the end-to-end metrics are medians
/// over them, which damps a noisy neighbour or an unlucky thread
/// placement in one server's life.
const LIVES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sna-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// The timed phase's request source: the seeded stream, until the
/// deadline.
struct Timed {
    stream: Mutex<Stream>,
    deadline: Instant,
}

impl Source for Timed {
    fn claim(&self, depth: usize) -> Vec<(u64, String)> {
        if Instant::now() >= self.deadline {
            return Vec::new();
        }
        let mut stream = self.stream.lock().expect("stream lock");
        (0..depth).map(|_| stream.next()).collect()
    }
}

/// One server life: set-up (spawn + warm-up), then its share of the
/// timed phase, with its resource readings.
struct Life {
    setup_s: f64,
    warm: Phase,
    timed: Phase,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// `counters.requests` of the final `stats` verb, and the requests
    /// the client sent this server (the `stats` request included).
    stats_requests: (u64, u64),
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/sna-e2e
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?
        .to_path_buf();
    let sna = server::build_sna(&repo, &target_dir)?;
    let out_dir = target_dir.join("e2e-out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let w = args.workload;
    let mut stream = Stream::new(w, args.seed, &repo.join("examples"))?;
    let warmup = stream.warmup();
    let lives = if args.trace { 1 } else { LIVES };
    let seconds = Duration::from_secs(args.seconds);
    let (lives, stream) = serve(&sna, stream, &warmup, lives, seconds, nproc)?;

    let refs = gate::references(&stream, nproc);
    let phases: Vec<&Phase> = lives.iter().flat_map(|l| [&l.warm, &l.timed]).collect();
    let gate::Verdict {
        mut failed,
        broken_checks: mut broken,
        mut notes,
    } = gate::check(&stream, &phases, &refs);
    for life in &lives {
        let (counted, sent) = life.stats_requests;
        if counted != sent {
            broken += 1;
            notes.push(format!(
                "stats counted {counted} requests, the client sent {sent}"
            ));
        }
    }
    let attempted: u64 = lives.iter().map(|l| l.stats_requests.1 - 1).sum();

    let mut report = describe(&stream, &lives, nproc, &args);
    let metrics = if args.trace {
        let transport: Vec<f64> = lives
            .iter()
            .flat_map(|l| &l.timed.samples)
            .map(|s| s.rtt_us - s.server_us)
            .collect();
        let requests: Vec<(u64, &str, Option<&Json>)> = (0..stream.ids.len() as u64)
            .map(|id| {
                let b = stream.ids[id as usize];
                (
                    id,
                    stream.bodies[b as usize].text.as_str(),
                    refs.get(&b).and_then(|r| r.result.as_ref().ok()),
                )
            })
            .collect();
        let spans = out_dir.join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        let traced = trace::replay(&requests, seconds, &transport, &spans)?;
        failed += traced.mismatched;
        notes.extend(traced.notes);
        report.push(("replayed".into(), Json::int(traced.replayed)));
        report.push(("spans_file".into(), Json::str(spans.display().to_string())));
        report.push((
            "layers_not_on_every_workload".into(),
            metric_obj(&traced.extra),
        ));
        traced.metrics
    } else {
        end_to_end(&stream, &lives)
    };
    let designs = out_dir.join(format!("designs-{}-{}.jsonl", w.name(), args.seed));
    report.push(("designs".into(), write_designs(&stream, &refs, &designs)?));

    let correct = failed == 0 && broken == 0;
    report.push((
        "failed_ratio".into(),
        Json::Num(failed as f64 / attempted.max(1) as f64),
    ));
    report.push((
        "notes".into(),
        Json::Arr(notes.into_iter().map(Json::Str).collect()),
    ));
    println!("report {}", Json::Obj(report).to_compact());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::int(attempted as usize)),
        ("failed".into(), Json::int(failed as usize)),
        ("metrics".into(), metric_obj(&metrics)),
    ]);
    println!("{}", result.to_compact());
    Ok(correct)
}

/// Runs `lives` servers one after another; each is set up, warmed and
/// then driven for its share of `seconds` with the next requests of the
/// stream.
fn serve(
    sna: &Path,
    stream: Stream,
    warmup: &[(u64, String)],
    lives: usize,
    seconds: Duration,
    nproc: usize,
) -> Result<(Vec<Life>, Stream), String> {
    let w = stream.workload;
    let (conns, depth) = (workload::connections(nproc), w.depth());
    let share = seconds / lives as u32;
    let mut source = Timed {
        stream: Mutex::new(stream),
        deadline: Instant::now(),
    };
    let mut out = Vec::new();
    for _ in 0..lives {
        let started = Instant::now();
        let server = Server::spawn(sna, nproc)?;
        let warm = client::run(server.addr, conns, depth, &Fixed::new(warmup));
        let setup_s = started.elapsed().as_secs_f64();

        let pid = server.pid();
        let before = source.stream.get_mut().expect("stream lock").ids.len();
        source.deadline = Instant::now() + share;
        let cpu0 = server::cpu_seconds(pid)?;
        let timed = client::run(server.addr, conns, depth, &source);
        let cpu_s = server::cpu_seconds(pid)? - cpu0;
        let peak_rss_mb = server::peak_rss_mb(pid)?;
        let after = source.stream.get_mut().expect("stream lock").ids.len();
        let stats = client::roundtrip(server.addr, "{\"cmd\":\"stats\"}\n")?;
        server.stop();
        let counted = Json::parse(&stats)
            .ok()
            .and_then(|s| s.get("result")?.get("counters")?.get("requests")?.as_f64())
            .unwrap_or(-1.0) as u64;
        let sent = (warmup.len() + after - before) as u64 + 1;
        out.push(Life {
            setup_s,
            warm,
            timed,
            cpu_s,
            peak_rss_mb,
            stats_requests: (counted, sent),
        });
    }
    Ok((out, source.stream.into_inner().expect("stream lock")))
}

/// Each metric is the median over server lives. Tail latencies are only
/// in the report: on a shared two-core VM they follow the host's
/// scheduling stalls and did not repeat from run to run.
fn end_to_end(stream: &Stream, lives: &[Life]) -> BTreeMap<String, (f64, &'static str)> {
    let per_life = |f: &dyn Fn(&Life, &[&client::Sample]) -> Option<f64>| -> f64 {
        let values: Vec<f64> = lives
            .iter()
            .filter_map(|l| {
                let ok: Vec<_> = l.timed.samples.iter().filter(|s| s.ok).collect();
                f(l, &ok)
            })
            .collect();
        median(&values).unwrap_or(0.0)
    };
    let values = [
        per_life(&|l, ok| Some(ok.len() as f64 / l.timed.wall_s)),
        per_life(&|_, ok| median(&ok.iter().map(|s| s.rtt_us).collect::<Vec<_>>())),
        per_life(&|_, ok| {
            let analyze: Vec<f64> = ok
                .iter()
                .filter(|s| stream.body_of(s.id).verb == "analyze")
                .map(|s| s.rtt_us)
                .collect();
            median(&analyze)
        }),
        per_life(&|l, ok| (!ok.is_empty()).then(|| l.cpu_s * 1e6 / ok.len() as f64)),
        per_life(&|l, _| Some(l.peak_rss_mb)),
        median(&lives.iter().map(|l| l.setup_s).collect::<Vec<_>>()).unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), (v, unit)))
        .collect()
}

/// Sample counts, property shares and the workload-specific latencies.
fn describe(stream: &Stream, lives: &[Life], nproc: usize, args: &Args) -> Vec<(String, Json)> {
    let timed: Vec<client::Sample> = lives
        .iter()
        .flat_map(|l| l.timed.samples.iter().copied())
        .collect();
    let n = timed.len().max(1) as f64;
    let share = |count: usize| Json::Num(count as f64 / n);
    let p50 = |keep: &dyn Fn(&client::Sample) -> bool| {
        let v: Vec<f64> = timed.iter().filter(|s| keep(s)).map(|s| s.rtt_us).collect();
        Json::Obj(vec![
            ("samples".into(), Json::int(v.len())),
            ("p50_us".into(), median(&v).map_or(Json::Null, Json::Num)),
        ])
    };
    let mut verbs = Vec::new();
    let mut by_verb = Vec::new();
    for verb in ["analyze", "simulate", "optimize"] {
        let is = |s: &client::Sample| stream.body_of(s.id).verb == verb;
        let count = timed.iter().filter(|s| is(s)).count();
        if count > 0 {
            verbs.push((verb.to_string(), share(count)));
            by_verb.push((format!("{verb}_p50"), p50(&is)));
        }
    }
    let mut tiers = Vec::new();
    for tier in Tier::ALL {
        let count = timed.iter().filter(|s| s.tier == tier).count();
        if count > 0 {
            tiers.push((tier.name().to_string(), share(count)));
        }
    }
    let pdf_false = timed
        .iter()
        .filter(|s| stream.body_of(s.id).text.contains("\"pdf\":false"))
        .count();
    let rtt: Vec<f64> = timed.iter().map(|s| s.rtt_us).collect();
    vec![
        (
            "req_per_s_by_server".into(),
            Json::Arr(
                lives
                    .iter()
                    .map(|l| Json::Num(l.timed.samples.len() as f64 / l.timed.wall_s))
                    .collect(),
            ),
        ),
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::int(args.seed as usize)),
        ("seconds".into(), Json::int(args.seconds as usize)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::int(nproc)),
        (
            "connections".into(),
            Json::int(workload::connections(nproc)),
        ),
        ("depth".into(), Json::int(args.workload.depth())),
        ("servers".into(), Json::int(lives.len())),
        (
            "warmup_requests".into(),
            Json::int(lives[0].warm.samples.len()),
        ),
        ("samples".into(), Json::int(timed.len())),
        (
            "samples_beyond_p99".into(),
            Json::int(beyond(timed.len(), 0.99)),
        ),
        (
            "latency_p90_us".into(),
            quantile(&rtt, 0.9).map_or(Json::Null, Json::Num),
        ),
        (
            "latency_p99_us".into(),
            quantile(&rtt, 0.99).map_or(Json::Null, Json::Num),
        ),
        ("verb_mix".into(), Json::Obj(verbs)),
        ("pdf_false_share".into(), share(pdf_false)),
        ("cache_tiers".into(), Json::Obj(tiers)),
        ("by_verb".into(), Json::Obj(by_verb)),
        ("miss_p50".into(), p50(&|s| s.tier == Tier::Miss)),
        ("shape_hit_p50".into(), p50(&|s| s.tier == Tier::ShapeHit)),
        (
            "stats_requests".into(),
            Json::Arr(
                lives
                    .iter()
                    .map(|l| Json::int(l.stats_requests.0 as usize))
                    .collect(),
            ),
        ),
    ]
}

fn metric_obj(metrics: &BTreeMap<String, (f64, &'static str)>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, &(value, unit))| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Writes one line per distinct design the run sent (family, nodes,
/// delays, inputs, linearity) and returns a per-family summary.
fn write_designs(
    stream: &Stream,
    refs: &HashMap<u32, gate::Reference>,
    path: &Path,
) -> Result<Json, String> {
    let mut seen = HashSet::new();
    let mut out = String::new();
    let mut families: BTreeMap<&str, Vec<gate::Facts>> = BTreeMap::new();
    for (k, body) in stream.bodies.iter().enumerate() {
        let Some(facts) = refs.get(&(k as u32)).and_then(|r| r.facts) else {
            continue;
        };
        let doc = Json::parse(&format!("{{{}}}", body.text))?;
        let source = doc.get("source").and_then(Json::as_str).unwrap_or("");
        if !seen.insert(source.to_string()) {
            continue;
        }
        let line = Json::Obj(vec![
            ("class".into(), Json::str(body.class.clone())),
            ("nodes".into(), Json::int(facts.nodes)),
            ("delays".into(), Json::int(facts.delays)),
            ("inputs".into(), Json::int(facts.inputs)),
            ("linear".into(), Json::Bool(facts.linear)),
        ]);
        out.push_str(&line.to_compact());
        out.push('\n');
        families.entry(&body.class).or_default().push(facts);
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let max = |v: &[gate::Facts], f: fn(&gate::Facts) -> usize| {
        Json::int(v.iter().map(f).max().unwrap_or(0))
    };
    Ok(Json::Obj(
        families
            .into_iter()
            .map(|(class, v)| {
                (
                    class.to_string(),
                    Json::Obj(vec![
                        ("designs".into(), Json::int(v.len())),
                        ("nodes_max".into(), max(&v, |f| f.nodes)),
                        ("delays_max".into(), max(&v, |f| f.delays)),
                        ("inputs_max".into(), max(&v, |f| f.inputs)),
                        ("linear".into(), Json::Bool(v.iter().all(|f| f.linear))),
                    ]),
                )
            })
            .collect(),
    ))
}
