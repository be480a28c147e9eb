//! `sna serve` — the long-running server mode.
//!
//! By default the line-oriented JSON protocol runs over stdin/stdout:
//! one request per line, one compact JSON response per line (see
//! `crates/service/README.md` for the schema). With `--listen addr:port`
//! the same protocol runs over TCP on the `poll(2)` event-loop
//! transport: one reactor thread multiplexes every connection (bounded
//! accept, slow-client backpressure, idle timeouts), a worker pool runs
//! the requests, and all connections share one compile cache — so a
//! model built for one client serves every later request for the same
//! datapath. SIGTERM (and `shutdown` via the protocol's EOF) drains
//! gracefully: in-flight requests finish, late ones are refused.

use std::sync::Arc;
use std::time::Duration;

use sna_service::{
    CompileCache, Counter, ExecLimits, FaultPlan, Handler, Peer, ServerConfig, StatsRegistry,
};

use crate::common::{unknown_flag, Args, CliError};

const USAGE: &str = "sna serve [--listen addr:port] [--max-conns N] [--idle-timeout SECS] \
                     [--drain-timeout SECS] [--write-buf-cap BYTES] [--workers N] \
                     [--request-timeout MS] [--fault-plan SPEC]";

/// Runs the subcommand. Returns when stdin reaches EOF (stdio mode) or
/// the server finishes draining after SIGTERM (TCP mode).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut args = Args::new(argv);
    let mut listen: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut tcp_flag_seen: Option<&'static str> = None;
    while let Some(flag) = args.next_flag() {
        match flag {
            "listen" => listen = Some(args.value("listen")?.to_string()),
            "max-conns" => {
                config.max_conns = args.parse_value("max-conns")?;
                tcp_flag_seen = Some("--max-conns");
            }
            "idle-timeout" => {
                config.idle_timeout = Duration::from_secs(args.parse_value("idle-timeout")?);
                tcp_flag_seen = Some("--idle-timeout");
            }
            "drain-timeout" => {
                config.drain_timeout = Duration::from_secs(args.parse_value("drain-timeout")?);
                tcp_flag_seen = Some("--drain-timeout");
            }
            "write-buf-cap" => {
                config.write_buf_cap = args.parse_value("write-buf-cap")?;
                tcp_flag_seen = Some("--write-buf-cap");
            }
            "workers" => {
                config.workers = args.parse_value("workers")?;
                tcp_flag_seen = Some("--workers");
            }
            // Applies to both transports, so it never trips the
            // `--listen`-only guard below.
            "request-timeout" => {
                let ms: u64 = args.parse_value("request-timeout")?;
                if ms == 0 {
                    return Err(CliError::Usage(
                        "--request-timeout must be at least 1 ms".to_string(),
                    ));
                }
                config.request_timeout = Some(Duration::from_millis(ms));
            }
            "fault-plan" => {
                let spec = args.value("fault-plan")?;
                let plan = FaultPlan::parse(spec)
                    .map_err(|e| CliError::Usage(format!("--fault-plan: {e}")))?;
                config.fault_plan = Some(Arc::new(plan));
                tcp_flag_seen = Some("--fault-plan");
            }
            other => return Err(unknown_flag(other, USAGE)),
        }
    }
    if let Some(stray) = args.files().first() {
        return Err(CliError::Usage(format!(
            "serve takes no file argument (got `{stray}`); send requests over the protocol\n\
             usage: {USAGE}"
        )));
    }
    if listen.is_none() {
        if let Some(flag) = tcp_flag_seen {
            return Err(CliError::Usage(format!(
                "{flag} only applies with --listen\nusage: {USAGE}"
            )));
        }
    }

    match listen {
        None => {
            let cache = CompileCache::new();
            let handler = Handler {
                cache: &cache,
                stats: &StatsRegistry::new(),
                limits: ExecLimits {
                    request_timeout: config.request_timeout,
                    pre_cancelled: false,
                },
                peer: Peer::Trusted,
            };
            let report = handler
                .serve(std::io::stdin().lock(), std::io::stdout().lock())
                .map_err(|e| CliError::failed(format!("serve failed: {e}")))?;
            let cache_stats = cache.stats();
            // The protocol owns stdout; the sign-off goes to stderr.
            eprintln!(
                "served {} request(s), {} error(s) · cache {} hit(s) / {} miss(es)",
                report.requests, report.errors, cache_stats.hits, cache_stats.misses,
            );
            Ok(String::new())
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .map_err(|e| CliError::failed(format!("cannot listen on `{addr}`: {e}")))?;
            let cache = Arc::new(CompileCache::new());
            let stats = Arc::new(StatsRegistry::new());
            let handle =
                sna_service::spawn_server(listener, Arc::clone(&cache), Arc::clone(&stats), config)
                    .map_err(|e| CliError::failed(format!("serve failed: {e}")))?;
            eprintln!("sna serve: listening on {}", handle.local_addr());
            handle
                .install_termination_handler()
                .map_err(|e| CliError::failed(format!("cannot install SIGTERM handler: {e}")))?;
            // Blocks until SIGTERM triggers the drain and the reactor
            // (plus its workers) exits.
            handle
                .join()
                .map_err(|e| CliError::failed(format!("serve failed: {e}")))?;
            let cache_stats = cache.stats();
            eprintln!(
                "sna serve: drained · {} request(s), {} error(s) \
                 ({} timeout(s) / {} cancelled / {} panic(s)) · \
                 conns {} accepted / {} rejected / {} timed out / {} drained · \
                 cache {} hit(s) / {} miss(es)",
                stats.get(Counter::Requests),
                stats.get(Counter::Errors),
                stats.get(Counter::Timeouts),
                stats.get(Counter::Cancelled),
                stats.get(Counter::Panics),
                stats.get(Counter::Accepted),
                stats.get(Counter::Rejected),
                stats.get(Counter::TimedOut),
                stats.get(Counter::Drained),
                cache_stats.hits,
                cache_stats.misses,
            );
            Ok(String::new())
        }
    }
}
