//! Transport-level tests for the `poll(2)` event loop behind
//! `sna serve --listen`: concurrency, slow-client backpressure,
//! graceful drain, idle-timeout eviction, capacity rejection, and
//! completion wakeups under pipelined bursts —
//! each reconciled against the [`StatsRegistry`] lifecycle counters.
//!
//! Every test binds `127.0.0.1:0`; sandboxes that forbid binding skip
//! (the stdio-protocol tests in `serve_protocol.rs` still run there).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sna_service::{
    spawn_server, CompileCache, Counter, Json, ServerConfig, ServerHandle, StatsRegistry,
};

const SRC: &str = r"input x in [-1, 1];\ny = 0.5*x;\noutput y;\n";

fn start(config: ServerConfig) -> Option<(ServerHandle, Arc<StatsRegistry>)> {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("skipping event-loop test (bind failed: {e})");
            return None;
        }
    };
    let stats = Arc::new(StatsRegistry::new());
    let handle = spawn_server(
        listener,
        Arc::new(CompileCache::new()),
        Arc::clone(&stats),
        config,
    )
    .unwrap();
    Some((handle, stats))
}

/// One request, one `write(2)`: splitting the line across syscalls lets
/// Nagle + delayed-ACK park the tail for ~40ms, which would blur the
/// timing the drain test depends on.
fn send_line(stream: &mut TcpStream, line: &str) {
    let framed = format!("{line}\n");
    stream.write_all(framed.as_bytes()).unwrap();
    stream.flush().unwrap();
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).unwrap() > 0,
        "server hung up before answering"
    );
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("unparsable response {line}: {e}"))
}

#[test]
fn sixty_four_concurrent_peers_and_the_registry_reconciles() {
    const PEERS: usize = 64;
    const PER_PEER: usize = 6; // parse, analyze, stats, trace, analyze, parse
    let Some((handle, stats)) = start(ServerConfig::default()) else {
        return;
    };
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..PEERS)
        .map(|peer| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let requests = [
                    format!(r#"{{"id": {peer}, "cmd": "parse", "source": "{SRC}"}}"#),
                    format!(r#"{{"cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": false}}"#),
                    r#"{"cmd": "stats"}"#.to_string(),
                    format!(
                        r#"{{"cmd": "trace", "source": "{SRC}", "trace": "x\n0.5\n-0.5\n0.25\n", "pdf": false}}"#
                    ),
                    format!(r#"{{"cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": false}}"#),
                    format!(r#"{{"cmd": "parse", "source": "{SRC}"}}"#),
                ];
                for request in &requests {
                    send_line(&mut stream, request);
                    let resp = read_json(&mut reader);
                    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    // One more connection asks for the registry over the wire.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_line(&mut stream, r#"{"cmd": "stats"}"#);
    let resp = read_json(&mut reader);
    let result = resp.get("result").unwrap();
    let counters = result.get("counters").unwrap();
    let total = (PEERS * PER_PEER + 1) as f64; // the stats request counts itself
    assert_eq!(counters.get("requests").and_then(Json::as_f64), Some(total));
    assert_eq!(counters.get("errors").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        counters.get("accepted").and_then(Json::as_f64),
        Some((PEERS + 1) as f64)
    );
    assert_eq!(counters.get("rejected").and_then(Json::as_f64), Some(0.0));
    // No faults were injected and no budgets were set: the failure
    // counters stay zero, and the only request in flight while `stats`
    // renders is the `stats` request itself.
    assert_eq!(counters.get("timeouts").and_then(Json::as_f64), Some(0.0));
    assert_eq!(counters.get("cancelled").and_then(Json::as_f64), Some(0.0));
    assert_eq!(counters.get("panics").and_then(Json::as_f64), Some(0.0));
    assert_eq!(result.get("in_flight").and_then(Json::as_f64), Some(1.0));
    assert!(result.get("uptime_us").and_then(Json::as_f64).unwrap() > 0.0);
    drop((stream, reader));

    handle.shutdown_and_join().unwrap();

    // Server-side reconciliation: every request sent landed in exactly
    // one verb histogram, and every analyze resolved to the linear
    // engine for this combinational source.
    assert_eq!(stats.get(Counter::Requests), (PEERS * PER_PEER + 1) as u64);
    assert_eq!(stats.get(Counter::Errors), 0);
    assert_eq!(stats.in_flight(), 0, "the gauge reconciles after drain");
    let verb_total: u64 = sna_service::VERBS
        .iter()
        .filter_map(|v| stats.verb(v))
        .map(|h| h.snapshot().count)
        .sum();
    assert_eq!(verb_total, (PEERS * PER_PEER + 1) as u64);
    let lti = stats.engine("lti").unwrap().snapshot();
    assert_eq!(lti.count, (PEERS * 2) as u64, "two analyzes per peer");
    // The trace verb reconciles in both tables: one row per peer in the
    // verb histogram and one replay in the engine histogram.
    let trace_verb = stats.verb("trace").unwrap().snapshot();
    assert_eq!(trace_verb.count, PEERS as u64, "one trace per peer");
    let trace_engine = stats.engine("trace").unwrap().snapshot();
    assert_eq!(trace_engine.count, PEERS as u64);
    assert_eq!(stats.get(Counter::Accepted), (PEERS + 1) as u64);
    assert_eq!(
        stats.get(Counter::Closed),
        (PEERS + 1) as u64,
        "every accepted connection was closed exactly once"
    );
}

#[test]
fn pipelined_flood_hits_backpressure_and_responses_stay_ordered() {
    const BURST: usize = 64;
    let config = ServerConfig {
        max_pipeline: 2,
        write_buf_cap: 2048,
        workers: 2,
        ..ServerConfig::default()
    };
    let Some((handle, stats)) = start(config) else {
        return;
    };

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // One burst, one write: the reactor sees a deep pipeline at once
    // and must pause this peer at 2 in-flight instead of queueing all 64.
    let mut burst = String::new();
    for i in 0..BURST {
        burst.push_str(&format!(
            r#"{{"id": {i}, "cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": true}}"#
        ));
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();

    // Responses arrive complete, valid, and in request order even though
    // workers finish out of order.
    for i in 0..BURST {
        let resp = read_json(&mut reader);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_eq!(resp.get("id").and_then(Json::as_f64), Some(i as f64));
    }
    drop((stream, reader));
    handle.shutdown_and_join().unwrap();

    assert_eq!(stats.get(Counter::Requests), BURST as u64);
    assert!(
        stats.get(Counter::Backpressured) >= 1,
        "a 64-deep pipeline against a 2-deep cap must pause reads at least once \
         (got {})",
        stats.get(Counter::Backpressured)
    );
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_late_requests() {
    // A deep-enough design that one single-threaded 64-restart anneal
    // takes ~100ms even in release builds: the request is reliably
    // still in flight when the drain begins 30ms after submission.
    const DEEP: &str = r"input x in [-1, 1];\ninput w in [-1, 1];\na = 0.5*x + 0.25*w;\nb = 0.75*a + 0.125*x;\nc = 0.5*b + 0.25*a;\nd = 0.375*c + 0.5*b;\ny = 0.25*d + 0.125*c;\noutput y;\n";
    let Some((handle, stats)) = start(ServerConfig::default()) else {
        return;
    };
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Warm round-trip proves the connection is live.
    send_line(
        &mut stream,
        &format!(r#"{{"cmd": "parse", "source": "{SRC}"}}"#),
    );
    let warm = read_json(&mut reader);
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));

    // In-flight at shutdown: sent (and, 30ms later, certainly being
    // executed on a worker) before the drain begins…
    send_line(
        &mut stream,
        &format!(
            r#"{{"id": "inflight", "cmd": "optimize", "source": "{DEEP}", "method": "anneal", "restarts": 64, "threads": 1}}"#
        ),
    );
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    // …and a straggler sent strictly after shutdown(): the drain flag is
    // already visible, so the reactor must refuse it whichever poll
    // round it lands in.
    send_line(&mut stream, r#"{"id": "late", "cmd": "stats"}"#);

    let inflight = read_json(&mut reader);
    assert_eq!(
        inflight.get("id").and_then(Json::as_str),
        Some("inflight"),
        "{inflight}"
    );
    assert_eq!(
        inflight.get("ok").and_then(Json::as_bool),
        Some(true),
        "the request that was in flight when the drain began must complete: {inflight}"
    );
    let late = read_json(&mut reader);
    assert_eq!(late.get("id").and_then(Json::as_str), Some("late"));
    assert_eq!(late.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        late.get("error").and_then(Json::as_str),
        Some("server draining")
    );
    // Then the server hangs up and the reactor exits on its own.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF");
    handle.join().unwrap();
    assert_eq!(stats.get(Counter::Drained), 1);
    assert_eq!(stats.get(Counter::Closed), 1);
}

#[test]
fn idle_connections_are_evicted_and_counted() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let Some((handle, stats)) = start(config) else {
        return;
    };
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_line(
        &mut stream,
        &format!(r#"{{"cmd": "parse", "source": "{SRC}"}}"#),
    );
    let resp = read_json(&mut reader);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    // Go quiet; the server must hang up on us, not the other way round.
    let started = Instant::now();
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(100),
        "evicted suspiciously fast ({waited:?})"
    );
    assert!(
        waited < Duration::from_secs(10),
        "idle eviction took too long ({waited:?})"
    );
    handle.shutdown_and_join().unwrap();
    assert_eq!(stats.get(Counter::TimedOut), 1);
    assert_eq!(stats.get(Counter::Closed), 1);
}

#[test]
fn over_capacity_peers_get_the_reason_then_eof() {
    let config = ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    };
    let Some((handle, stats)) = start(config) else {
        return;
    };
    let addr = handle.local_addr();

    // Two peers hold their seats (a round-trip each pins the accept).
    let mut seats = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        send_line(&mut stream, r#"{"cmd": "stats"}"#);
        let resp = read_json(&mut reader);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        seats.push((stream, reader));
    }

    // The third is told why, then hung up on.
    let third = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(third);
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("server at capacity")
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

    drop(seats);
    handle.shutdown_and_join().unwrap();
    assert_eq!(stats.get(Counter::Accepted), 2);
    assert_eq!(stats.get(Counter::Rejected), 1);
}

#[test]
fn a_never_reading_client_cannot_block_other_peers() {
    // The slow client floods pipelined big-pdf requests and never reads;
    // with a small write cap the reactor pauses it. A healthy peer on the
    // same server must keep getting sub-second round-trips throughout.
    let config = ServerConfig {
        write_buf_cap: 4096,
        max_pipeline: 4,
        workers: 2,
        ..ServerConfig::default()
    };
    let Some((handle, stats)) = start(config) else {
        return;
    };
    let addr = handle.local_addr();

    let mut slow = TcpStream::connect(addr).unwrap();
    let mut burst = String::new();
    for i in 0..128 {
        burst.push_str(&format!(
            r#"{{"id": {i}, "cmd": "analyze", "source": "{SRC}", "bits": 8, "pdf": true}}"#
        ));
        burst.push('\n');
    }
    slow.write_all(burst.as_bytes()).unwrap();
    slow.flush().unwrap();
    // Never read `slow`; its responses must back up server-side, capped.

    let mut healthy = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(healthy.try_clone().unwrap());
    for _ in 0..5 {
        let started = Instant::now();
        send_line(&mut healthy, r#"{"cmd": "stats"}"#);
        let resp = read_json(&mut reader);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "healthy peer starved behind the slow one"
        );
    }
    drop((healthy, reader));
    // Shutdown with the slow client still wedged: the drain deadline
    // bounds how long its unflushed responses may hold the reactor.
    let shutdown_started = Instant::now();
    handle.shutdown_and_join().unwrap();
    assert!(shutdown_started.elapsed() < Duration::from_secs(10));
    assert!(stats.get(Counter::Backpressured) >= 1);
    // Drain the slow socket so the OS can reclaim it cleanly.
    let _ = slow.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 16 * 1024];
    while matches!(slow.read(&mut sink), Ok(n) if n > 0) {}
}

#[test]
fn coalesced_wakeups_lose_no_completion_under_a_pipelined_burst() {
    // Four workers finishing tiny requests as fast as they can, four
    // connections each writing 512 pipelined requests in one burst, then
    // a tail of one-at-a-time round trips (each completion alone on the
    // queue): a completion whose wakeup went missing would leave its
    // response (and every later one on that connection) stuck until the
    // deadline.
    const CONNS: usize = 4;
    const BURST: usize = 512;
    const TAIL: usize = 32;
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let Some((handle, stats)) = start(config) else {
        return;
    };
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..CONNS)
        .map(|conn| {
            std::thread::spawn(move || {
                let request = |i: usize| {
                    format!(
                        r#"{{"id": {i}, "cmd": "analyze", "source": "{SRC}", "engine": "na", "bits": 8, "pdf": false}}"#
                    )
                };
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let expect = |reader: &mut BufReader<TcpStream>, i: usize| {
                    let resp = read_json(reader);
                    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
                    assert_eq!(
                        resp.get("id").and_then(Json::as_f64),
                        Some(i as f64),
                        "connection {conn}: response out of order"
                    );
                };
                let burst: String = (0..BURST).map(|i| request(i) + "\n").collect();
                stream.write_all(burst.as_bytes()).unwrap();
                stream.flush().unwrap();
                for i in 0..BURST {
                    expect(&mut reader, i);
                }
                for i in BURST..BURST + TAIL {
                    send_line(&mut stream, &request(i));
                    expect(&mut reader, i);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    handle.shutdown_and_join().unwrap();
    let total = (CONNS * (BURST + TAIL)) as u64;
    assert_eq!(stats.get(Counter::Requests), total);
    assert_eq!(stats.get(Counter::Errors), 0);
    assert_eq!(stats.in_flight(), 0);
    assert_eq!(stats.engine("na").unwrap().snapshot().count, total);
}
