//! Protocol round-trips: a scripted client feeds request lines through
//! [`sna_service::Handler::serve`] exactly as `sna serve` does over
//! stdin/stdout (the CLI passes locked stdio to this same method), and
//! over a real TCP socket via the event-loop transport
//! ([`sna_service::spawn_server`]).
//! Every response line must parse as JSON; malformed requests must answer
//! with an error instead of killing the server. The transport-specific
//! behaviours (backpressure, drain, idle eviction, capacity) live in
//! `tests/event_loop.rs`.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::sync::Arc;

use sna_service::{
    spawn_server, CompileCache, ExecLimits, Handler, Json, Peer, ServeReport, ServerConfig,
    StatsRegistry,
};

const SRC: &str = r"input x in [-1, 1];\ny = 0.5*x;\noutput y;\n";

/// The stdio transport of `sna serve`, over in-memory pipes.
fn serve(input: impl BufRead, output: &mut Vec<u8>, cache: &CompileCache) -> ServeReport {
    let handler = Handler {
        cache,
        stats: &StatsRegistry::new(),
        limits: ExecLimits::default(),
        peer: Peer::Trusted,
    };
    handler.serve(input, output).unwrap()
}

fn run_session(lines: &[String]) -> (Vec<Json>, ServeReport) {
    let input = lines.join("\n") + "\n";
    let cache = CompileCache::new();
    let mut output = Vec::new();
    let report = serve(Cursor::new(input.into_bytes()), &mut output, &cache);
    let text = String::from_utf8(output).unwrap();
    let responses = text
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("unparsable response {line}: {e}")))
        .collect();
    (responses, report)
}

#[test]
fn unstable_loops_answer_structured_errors_and_serving_continues() {
    // The unpinned loop overflows its LTI range bound, the pinned one
    // its NA gains: both must answer errors, and serving goes on.
    let unstable = r"input x in [-1, 1];\ny = 0.5*x + 1.2*y[n-1];\noutput y;\n";
    let pinned = r"input x in [-1, 1];\ny = 0.5*x + 1.2*y[n-1] range [-8, 8];\noutput y;\n";
    let mut lines = Vec::new();
    for engine in ["auto", "na", "lti"] {
        for source in [unstable, pinned] {
            lines.push(format!(
                r#"{{"cmd": "analyze", "source": "{source}", "engine": "{engine}", "pdf": false}}"#
            ));
        }
    }
    lines.push(format!(
        r#"{{"id": 9, "cmd": "analyze", "source": "{SRC}", "pdf": false}}"#
    ));
    let (responses, report) = run_session(&lines);
    assert_eq!(responses.len(), lines.len());
    assert_eq!(report.errors, (lines.len() - 1) as u64);
    let (last, failed) = responses.split_last().unwrap();
    for resp in failed {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{resp}"
        );
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("did not decay"), "{error}");
    }
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true), "{last}");
    assert_eq!(last.get("id").and_then(Json::as_f64), Some(9.0));
}

#[test]
fn full_round_trip_covers_every_verb_and_reports_cache_transitions() {
    let lines = vec![
        format!(r#"{{"id": 1, "cmd": "parse", "source": "{SRC}"}}"#),
        format!(r#"{{"id": 2, "cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": false}}"#),
        format!(r#"{{"id": 3, "cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": false}}"#),
        format!(r#"{{"id": 4, "cmd": "optimize", "source": "{SRC}", "method": "waterfill"}}"#),
        format!(r#"{{"id": 5, "cmd": "synth", "source": "{SRC}", "bits": 10}}"#),
        format!(
            r#"{{"id": 6, "cmd": "simulate", "source": "{SRC}", "bits": 8, "paths": 20000, "seed": 7, "pdf": false}}"#
        ),
        r#"{"id": 7, "cmd": "stats"}"#.to_string(),
    ];
    let (responses, report) = run_session(&lines);
    assert_eq!(responses.len(), 7);
    assert_eq!(report.requests, 7);
    assert_eq!(report.errors, 0);

    for (k, resp) in responses.iter().enumerate() {
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_eq!(resp.get("id").and_then(Json::as_f64), Some((k + 1) as f64));
        assert!(resp.get("elapsed_us").is_some());
    }
    // parse → structural facts; it also warms the cache (miss)…
    let parse = responses[0].get("result").unwrap();
    assert_eq!(
        parse.get("is_combinational").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        responses[0].get("cache").and_then(Json::as_str),
        Some("miss")
    );
    // …so both analyzes hit, and the repeat returns identical reports.
    assert_eq!(
        responses[1].get("cache").and_then(Json::as_str),
        Some("hit")
    );
    assert_eq!(
        responses[2].get("cache").and_then(Json::as_str),
        Some("hit")
    );
    assert_eq!(
        responses[1].get("result").unwrap().to_compact(),
        responses[2].get("result").unwrap().to_compact(),
        "cached analyze must be bit-identical to the cold one"
    );
    // optimize → word lengths under budget
    let opt = responses[3].get("result").unwrap();
    assert!(opt.get("budget").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(opt.get("results").unwrap().get("waterfill").is_some());
    // synth → a cost report
    let synth = responses[4].get("result").unwrap();
    assert!(
        synth
            .get("cost")
            .unwrap()
            .get("area_um2")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    // simulate → empirical statistics next to the analytic prediction,
    // served from the same cached model (hit, not a recompile).
    let sim = responses[5].get("result").unwrap();
    assert_eq!(sim.get("engine").and_then(Json::as_str), Some("simulate"));
    assert_eq!(sim.get("paths").and_then(Json::as_f64), Some(20000.0));
    assert_eq!(sim.get("seed").and_then(Json::as_f64), Some(7.0));
    assert_eq!(
        responses[5].get("cache").and_then(Json::as_str),
        Some("hit")
    );
    let Json::Arr(sim_outputs) = sim.get("outputs").unwrap() else {
        panic!("outputs must be an array");
    };
    let sim_out = &sim_outputs[0];
    assert_eq!(sim_out.get("output").and_then(Json::as_str), Some("y"));
    assert!(
        sim_out
            .get("empirical")
            .unwrap()
            .get("variance")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(sim_out.get("mean_gap").unwrap().get("abs").is_some());
    // stats → cache block: one entry, exactly one miss for the shared
    // source; and the registry's per-verb histograms ride along.
    let stats = responses[6].get("result").unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(5.0));
    let counters = stats.get("counters").unwrap();
    assert_eq!(counters.get("requests").and_then(Json::as_f64), Some(7.0));
    let verbs = stats.get("verbs").unwrap();
    assert_eq!(
        verbs
            .get("analyze")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(
        verbs
            .get("simulate")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
    // The engine-time bucket proves the simulate engine itself ran.
    assert!(
        stats.get("engines").unwrap().get("simulate").is_some(),
        "simulate must appear in the engines bucket: {stats}"
    );
}

#[test]
fn malformed_requests_get_json_errors_and_the_server_keeps_serving() {
    let lines = vec![
        "this is not json at all".to_string(),
        r#"{"cmd": 42}"#.to_string(),
        r#"{"id": "later", "cmd": "analyze"}"#.to_string(),
        format!(r#"{{"cmd": "analyze", "source": "{SRC}", "engine": "warp"}}"#),
        r#"{"cmd": "parse", "source": "input x;\noutput y = x +;\n"}"#.to_string(),
        // After five bad requests, a good one still works.
        format!(r#"{{"id": "ok", "cmd": "parse", "source": "{SRC}"}}"#),
    ];
    let (responses, report) = run_session(&lines);
    assert_eq!(responses.len(), 6);
    assert_eq!(report.errors, 5);

    for resp in &responses[..5] {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(false),
            "{resp}"
        );
        assert!(resp.get("error").and_then(Json::as_str).is_some(), "{resp}");
    }
    assert!(responses[0]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("malformed request"));
    assert!(responses[2]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("`source`"));
    // The id travels even on errors, so clients can correlate.
    assert_eq!(responses[2].get("id").and_then(Json::as_str), Some("later"));
    // Compile diagnostics arrive rendered, with their caret snippet.
    assert!(responses[4]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains('^'));

    let last = &responses[5];
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(last.get("id").and_then(Json::as_str), Some("ok"));
}

#[test]
fn empty_lines_are_ignored_not_answered() {
    let cache = CompileCache::new();
    let mut output = Vec::new();
    let input = "\n\n{\"cmd\": \"stats\"}\n   \n".to_string();
    let report = serve(Cursor::new(input.into_bytes()), &mut output, &cache);
    assert_eq!(report.requests, 1);
    assert_eq!(String::from_utf8(output).unwrap().lines().count(), 1);
}

#[test]
fn non_utf8_lines_answer_as_malformed_and_the_server_keeps_serving() {
    let cache = CompileCache::new();
    let mut output = Vec::new();
    let mut input = b"{\"cmd\":\"stats\"}\n\xff\xfe\n".to_vec();
    input.extend_from_slice(br#"{"id":2,"cmd":"parse","source":"input x;\noutput y = x;\n"}"#);
    input.push(b'\n');
    let report = serve(Cursor::new(input), &mut output, &cache);
    assert_eq!(
        report,
        ServeReport {
            requests: 3,
            errors: 1
        }
    );
    let text = String::from_utf8(output).unwrap();
    let responses: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 3, "{text}");
    let ok = |r: &Json| r.get("ok").and_then(Json::as_bool);
    assert_eq!(ok(&responses[0]), Some(true));
    assert_eq!(ok(&responses[1]), Some(false));
    assert!(responses[1]
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("malformed request"));
    assert_eq!(ok(&responses[2]), Some(true));
    assert_eq!(responses[2].get("id").and_then(Json::as_f64), Some(2.0));
}

/// The response text with every `"elapsed_us":N` removed (the only
/// field that differs between two runs of the same request).
fn strip_elapsed(text: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    out.push_str(rest);
    out
}

#[test]
fn both_transports_frame_a_line_the_same_way() {
    // Surrounding whitespace stays part of the request (only the line
    // terminator is stripped), so error offsets index the line as sent;
    // blank lines get no answer on either transport.
    let lines: [&[u8]; 12] = [
        b"   nonsense  ",
        b"\tnull\r",
        b"",
        b" \t ",
        b"\xff\xfe",
        b"  {\"id\":3,\"cmd\":\"parse\",\"source\":\"input x;\\noutput y = x;\\n\"}  \r",
        "\u{3000}{\"id\":4,\"cmd\":\"parse\"}".as_bytes(),
        br#"{"id":5,"cmd":"parse","source":"input x;\ny = \"\t\u0001;\noutput y;\n"} "#,
        b"[1, 2",
        b"\r\r",
        "\u{3000}".as_bytes(),
        br#"{"id":"last","cmd":"parse","source":"input x;\noutput y = x;\n"}"#,
    ];
    let mut input = Vec::new();
    for line in lines {
        input.extend_from_slice(line);
        input.push(b'\n');
    }

    let cache = CompileCache::new();
    let mut stdio = Vec::new();
    let report = serve(Cursor::new(input.clone()), &mut stdio, &cache);
    assert_eq!(report.requests, 8);
    let stdio = String::from_utf8(stdio).unwrap();
    assert!(
        stdio
            .lines()
            .next()
            .unwrap()
            .contains("invalid literal at byte 3"),
        "{stdio}"
    );
    assert!(stdio.contains(r#"{"id":3,"ok":true"#), "{stdio}");
    assert!(stdio.contains(r#"{"id":"last","ok":true"#), "{stdio}");

    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("skipping the TCP half (bind failed: {e})");
            return;
        }
    };
    // One worker answers the burst in order, so request 3 compiles and
    // `last` hits, as on stdio; two workers may run them at once.
    let handle = spawn_server(
        listener,
        Arc::new(CompileCache::new()),
        Arc::new(StatsRegistry::new()),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&input).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut tcp = String::new();
    for _ in 0..report.requests {
        assert!(reader.read_line(&mut tcp).unwrap() > 0, "server hung up");
    }
    drop((stream, reader));
    handle.shutdown_and_join().unwrap();
    assert_eq!(strip_elapsed(&tcp), strip_elapsed(&stdio));
}

#[test]
fn exhaustive_radius_255_answers_the_cap_error_and_the_server_keeps_serving() {
    let lines = vec![
        r#"{"id":1,"cmd":"optimize","source":"input x in [-1, 1];\ny = 0.5*x + 0.25*x;\noutput y;\n","method":"exhaustive","ref_bits":4,"radius":255}"#.to_string(),
        r#"{"id":2,"cmd":"stats"}"#.to_string(),
    ];
    let (responses, report) = run_session(&lines);
    assert_eq!(responses.len(), 2);
    assert_eq!(report.errors, 1);
    assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
    let error = responses[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("exceeds cap 2000000"), "{error}");
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
    assert!(responses[1]
        .get("result")
        .and_then(|r| r.get("counters"))
        .is_some());
}

#[test]
fn oversized_request_lines_get_one_error_then_hangup_not_oom() {
    let cache = CompileCache::new();
    let mut output = Vec::new();
    // 2 MiB of bytes with no newline: past the 1 MiB line bound.
    let input = vec![b'a'; 2 << 20];
    let report = serve(Cursor::new(input), &mut output, &cache);
    assert_eq!(report.requests, 1);
    assert_eq!(report.errors, 1);
    let text = String::from_utf8(output).unwrap();
    assert_eq!(text.lines().count(), 1);
    let resp = Json::parse(text.trim()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("exceeds"));
}

#[test]
fn capacity_zero_rejects_every_peer_with_an_error_line() {
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(_) => return,
    };
    let cache = Arc::new(CompileCache::new());
    let stats = Arc::new(StatsRegistry::new());
    let config = ServerConfig {
        max_conns: 0,
        ..ServerConfig::default()
    };
    let handle = spawn_server(listener, cache, Arc::clone(&stats), config).unwrap();
    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("server at capacity")
    );
    // …and then EOF: the server hung up.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    handle.shutdown_and_join().unwrap();
    assert_eq!(stats.get(sna_service::Counter::Rejected), 1);
    assert_eq!(stats.get(sna_service::Counter::Accepted), 0);
}

#[test]
fn tcp_round_trip_shares_the_cache_across_connections() {
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        // Sandboxed environments may forbid binding; the stdio transport
        // above already covers the protocol itself.
        Err(e) => {
            eprintln!("skipping TCP round-trip (bind failed: {e})");
            return;
        }
    };
    let cache = Arc::new(CompileCache::new());
    let stats = Arc::new(StatsRegistry::new());
    let handle =
        spawn_server(listener, Arc::clone(&cache), stats, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut lookups = Vec::new();
    for _ in 0..2 {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        writeln!(
            stream,
            r#"{{"cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": false}}"#
        )
        .unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        lookups.push(
            resp.get("cache")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
        // Dropping the stream closes this connection; the server carries on.
    }
    handle.shutdown_and_join().unwrap();
    assert_eq!(
        lookups,
        ["miss", "hit"],
        "second connection must reuse the model"
    );
    assert_eq!(cache.stats().entries, 1);
}

/// The shipped examples with each applicable analyze engine and the
/// two word lengths the warm-mix benchmark sends them at.
const EXAMPLES: [(&str, &[&str], [usize; 2]); 7] = [
    ("biquad", &["auto", "na", "lti", "dfg", "symbolic"], [8, 12]),
    ("diffeq", &["auto", "na", "lti", "dfg", "symbolic"], [8, 12]),
    ("fir", &["auto", "na", "lti", "dfg", "symbolic"], [8, 12]),
    (
        "fir_taps",
        &["auto", "na", "lti", "dfg", "symbolic"],
        [8, 12],
    ),
    (
        "quadratic",
        &["auto", "dfg", "symbolic", "cartesian"],
        [8, 12],
    ),
    // The constant 128 needs more than 8 bits.
    (
        "rgb",
        &["auto", "na", "lti", "dfg", "symbolic", "cartesian"],
        [12, 16],
    ),
    (
        "vec_dot",
        &["auto", "na", "lti", "dfg", "symbolic", "cartesian"],
        [8, 12],
    ),
];

fn example_source(stem: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(format!("{stem}.sna"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `json` with every `elapsed_us` member removed.
fn without_elapsed(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "elapsed_us")
                .map(|(k, v)| (k.clone(), without_elapsed(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_elapsed).collect()),
        other => other.clone(),
    }
}

/// A `pdf:true` report object as `pdf:false` renders it: `credible95`
/// is the Chebyshev interval of the moments, clipped to the support,
/// and `histogram` is `null`. `null` (no prediction) stays `null`.
fn moments_only(report: &Json) -> Json {
    let Json::Obj(fields) = report else {
        return report.clone();
    };
    let num = |key: &str| report.get(key).and_then(Json::as_f64).unwrap();
    let support = |i: usize| match report.get("support") {
        Some(Json::Arr(pair)) => pair[i].as_f64().unwrap(),
        other => panic!("support must be a pair, got {other:?}"),
    };
    let k = (1.0 / (1.0 - 0.95_f64)).sqrt();
    let (mean, sd) = (num("mean"), num("variance").sqrt());
    let lo = (mean - k * sd).max(support(0));
    let hi = (mean + k * sd).min(support(1));
    Json::Obj(
        fields
            .iter()
            .map(|(key, v)| {
                let v = match key.as_str() {
                    "credible95" => Json::Arr(vec![Json::Num(lo), Json::Num(hi)]),
                    "histogram" => Json::Null,
                    _ => v.clone(),
                };
                (key.clone(), v)
            })
            .collect(),
    )
}

/// The `result` of a `pdf:true` response as the `pdf:false` request
/// must answer it: every report object rendered from moments alone.
fn expected_without_pdf(cmd: &str, result: &Json) -> Json {
    let Json::Obj(fields) = without_elapsed(result) else {
        panic!("result must be an object: {result}");
    };
    let measured = if cmd == "trace" {
        "measured"
    } else {
        "empirical"
    };
    Json::Obj(
        fields
            .into_iter()
            .map(|(key, v)| match (key.as_str(), v) {
                ("reports", Json::Arr(reports)) => {
                    (key, Json::Arr(reports.iter().map(moments_only).collect()))
                }
                ("outputs", Json::Arr(outputs)) => {
                    let outputs = outputs
                        .into_iter()
                        .map(|out| {
                            let Json::Obj(members) = out else {
                                panic!("output rows are objects");
                            };
                            Json::Obj(
                                members
                                    .into_iter()
                                    .map(|(k, v)| {
                                        let v = if k == measured || k == "predicted" {
                                            moments_only(&v)
                                        } else {
                                            v
                                        };
                                        (k, v)
                                    })
                                    .collect(),
                            )
                        })
                        .collect();
                    (key, Json::Arr(outputs))
                }
                (_, v) => (key, v),
            })
            .collect(),
    )
}

/// A deterministic CSV trace of `columns`, each drawn inside `[-0.9, 0.9]`
/// around `offset`.
fn trace_csv(columns: &[(&str, f64)], rows: usize) -> String {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut csv = columns
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(",");
    csv.push('\n');
    for _ in 0..rows {
        let row: Vec<String> = columns
            .iter()
            .map(|&(_, offset)| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                format!("{:.6}", offset + 1.8 * unit - 0.9)
            })
            .collect();
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    csv
}

#[test]
fn pdf_false_renders_the_pdf_true_result_from_moments_on_every_example() {
    // Each request goes out twice, `pdf:true` then `pdf:false`.
    let mut requests: Vec<(String, Vec<(&str, Json)>)> = Vec::new();
    for (stem, engines, bits) in EXAMPLES {
        let source = example_source(stem);
        for engine in engines {
            for b in bits {
                let mut fields = vec![
                    ("cmd", Json::str("analyze")),
                    ("source", Json::str(source.clone())),
                    ("engine", Json::str(*engine)),
                    ("bits", Json::int(b)),
                ];
                if *engine == "cartesian" {
                    fields.push(("bins", Json::int(16)));
                }
                requests.push((format!("{stem} {engine} {b}"), fields));
            }
        }
        for b in bits {
            requests.push((
                format!("{stem} simulate {b}"),
                vec![
                    ("cmd", Json::str("simulate")),
                    ("source", Json::str(source.clone())),
                    ("bits", Json::int(b)),
                    ("paths", Json::int(2048)),
                    ("seed", Json::int(7)),
                    ("workers", Json::int(1)),
                ],
            ));
        }
    }
    // Trace reports with an LTI (fir, diffeq) and a DFG (quadratic)
    // prediction.
    for (stem, columns) in [
        ("fir", vec![("x", 0.0)]),
        ("diffeq", vec![("x", 0.0)]),
        (
            "quadratic",
            vec![("x", 0.0), ("a", 9.5), ("b", -5.0), ("c", 6.5)],
        ),
    ] {
        requests.push((
            format!("{stem} trace"),
            vec![
                ("cmd", Json::str("trace")),
                ("source", Json::str(example_source(stem))),
                ("trace", Json::str(trace_csv(&columns, 1500))),
                ("workers", Json::int(1)),
            ],
        ));
    }

    let lines: Vec<String> = requests
        .iter()
        .flat_map(|(_, fields)| {
            [true, false].map(|pdf| {
                let mut members: Vec<(String, Json)> = fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect();
                members.push(("pdf".into(), Json::Bool(pdf)));
                Json::Obj(members).to_compact()
            })
        })
        .collect();
    let (responses, report) = run_session(&lines);
    assert_eq!(report.errors, 0);
    assert_eq!(responses.len(), lines.len());

    let mut without_pdf: std::collections::HashMap<String, Json> = Default::default();
    for ((label, fields), pair) in requests.iter().zip(responses.chunks(2)) {
        let cmd = fields[0].1.as_str().unwrap();
        let result = |resp: &Json| {
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(true),
                "{label}: {resp}"
            );
            resp.get("result").unwrap().clone()
        };
        let (with, without) = (result(&pair[0]), result(&pair[1]));
        assert_eq!(
            without_elapsed(&without),
            expected_without_pdf(cmd, &with),
            "{label}: pdf:false is not the pdf:true result rendered from moments"
        );
        without_pdf.insert(label.clone(), without);
    }

    // LTI without a PDF is the NA answer, byte for byte.
    for (stem, engines, bits) in EXAMPLES {
        if !engines.contains(&"lti") {
            continue;
        }
        for b in bits {
            let reports = |engine: &str| {
                without_pdf[&format!("{stem} {engine} {b}")]
                    .get("reports")
                    .unwrap()
                    .to_compact()
            };
            assert_eq!(reports("lti"), reports("na"), "{stem} at {b} bits");
        }
    }
}

/// A design of the end-to-end benchmark's cold-sweep kind, with the
/// coefficients of `draw`: a FIR whose taps skip at most one delay, a
/// biquad cascade with `range` overrides, or a two-layer matrix-vector
/// bank. None has an additive constant, and every draw of a family has
/// the same shape.
fn cold_sweep_design(family: &str, draw: u32) -> String {
    let coeff = |i: usize, scale: f64| {
        let k = (i as u32 * 37 + draw * 101) % 89;
        let sign = if (i as u32 + draw).is_multiple_of(3) {
            -1.0
        } else {
            1.0
        };
        sign * (0.2 + f64::from(k) / 111.0) * scale
    };
    let mut out = String::new();
    match family {
        "fir" => {
            out.push_str("input x in [-1, 1];\n");
            let terms: Vec<String> = (0..12)
                .map(|i| {
                    out.push_str(&format!("let c{i} = {:.6};\n", coeff(i, 0.2)));
                    format!("c{i}*x[n-{}]", i + i / 3)
                })
                .collect();
            out.push_str(&format!("output y = {};\n", terms.join(" + ")));
        }
        "biquad" => {
            out.push_str("input x in [-0.5, 0.5];\n");
            let mut src = "x".to_string();
            for s in 0..2 {
                let radius = 0.3 + 0.1 * f64::from((draw + s) % 5);
                let angle = 0.4 + 0.5 * f64::from((draw * 3 + s) % 4);
                let (a1, a2) = (2.0 * radius * angle.cos(), -radius * radius);
                let b = |k: usize| coeff(3 * s as usize + k, 0.3).abs();
                out.push_str(&format!(
                    "acc{s} = {:.6}*{src} + {:.6}*{src}[n-1] + {:.6}*{src}[n-2] \
                     + {a1:.6}*y{s}[n-1] + {a2:.6}*y{s}[n-2] range [-3, 3];\ny{s} = acc{s};\n",
                    b(0),
                    b(1),
                    b(2)
                ));
                src = format!("y{s}");
            }
            out.push_str(&format!("output out = {src};\n"));
        }
        _ => {
            out.push_str("input v[4] in [-1, 1];\n");
            let mut prev: Vec<String> = (0..4).map(|i| format!("v[{i}]")).collect();
            for l in 0..2 {
                let names: Vec<String> = (0..3).map(|j| format!("h{l}_{j}")).collect();
                for (j, name) in names.iter().enumerate() {
                    let terms: Vec<String> = (0..prev.len())
                        .filter(|i| !(i + j + l).is_multiple_of(3))
                        .map(|i| format!("{:.6}*{}", coeff(10 * l + 4 * j + i, 0.5), prev[i]))
                        .collect();
                    out.push_str(&format!("{name} = {};\n", terms.join(" + ")));
                }
                prev = names;
            }
            for (j, name) in prev.iter().enumerate() {
                out.push_str(&format!("output o{j} = {name};\n"));
            }
        }
    }
    out
}

#[test]
fn shape_hit_results_equal_a_cold_compile_on_cold_sweep_designs() {
    let request = |source: &str, engine: &str, bits: usize, pdf: bool| {
        Json::Obj(vec![
            ("cmd".into(), Json::str("analyze")),
            ("source".into(), Json::str(source)),
            ("engine".into(), Json::str(engine)),
            ("bits".into(), Json::int(bits)),
            ("pdf".into(), Json::Bool(pdf)),
        ])
        .to_compact()
    };
    let answer = |lines: &[String], cache: &CompileCache| -> Vec<Json> {
        let mut output = Vec::new();
        let report = serve(Cursor::new(lines.join("\n") + "\n"), &mut output, cache);
        assert_eq!(report.errors, 0);
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .collect()
    };
    for family in ["fir", "biquad", "matvec"] {
        let warm = CompileCache::new();
        let donor = cold_sweep_design(family, 0);
        let first = answer(&[request(&donor, "na", 12, false)], &warm);
        assert_eq!(first[0].get("cache").and_then(Json::as_str), Some("miss"));
        for draw in 1..=2 {
            let respin = cold_sweep_design(family, draw);
            assert_ne!(respin, donor);
            let lines = [
                request(&respin, "na", 12, false),
                request(&respin, "na", 16, false),
                request(&respin, "auto", 10, true),
            ];
            let swapped = answer(&lines, &warm);
            assert_eq!(
                swapped[0].get("cache").and_then(Json::as_str),
                Some("shape-hit"),
                "{family} draw {draw}"
            );
            for (line, got) in lines.iter().zip(&swapped) {
                let cold = answer(std::slice::from_ref(line), &CompileCache::new());
                assert_eq!(
                    without_elapsed(got.get("result").unwrap()).to_compact(),
                    without_elapsed(cold[0].get("result").unwrap()).to_compact(),
                    "{family} draw {draw}: {line}"
                );
            }

            // The shape hit's gain model itself: gains and coefficient
            // sites.
            let (hit, _) = warm.get_or_compile(&respin).unwrap();
            let (fresh, _) = CompileCache::new().get_or_compile(&respin).unwrap();
            assert!(
                hit.session
                    .na_model()
                    .unwrap()
                    .bit_identical(&fresh.session.na_model().unwrap()),
                "{family} draw {draw}: shape-hit model differs from a cold build"
            );
        }
        let stats = warm.get_or_compile(&donor).unwrap().0.session.stats();
        // One cold build per distinct program: the donor and two re-spins.
        assert_eq!(stats.na_builds, 3, "{family}: {stats:?}");
    }
}
