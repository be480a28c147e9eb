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
