//! `sna-service` — the batch + server execution layer of the SNA
//! toolchain.
//!
//! The paper's economics are: building a noise model is the one-off cost,
//! evaluating it is `O(#sources)`. This crate is where that asymmetry
//! becomes operational. It provides the pieces both the batched CLI
//! (`sna analyze a.sna b.sna …`) and the long-running server (`sna
//! serve`) stand on:
//!
//! * [`CompileCache`] — a hash-keyed source → compiled-model cache.
//!   Raw-byte FNV for the fast path, the canonical fingerprint from
//!   `sna-lang` for spelling-insensitive aliasing; entries share the
//!   lowered [`Dfg`](sna_dfg::Dfg) and the lazily built
//!   [`NaModel`](sna_core::NaModel) behind `Arc`s.
//! * [`WorkerPool`] — the std-only (`std::thread` + channels; the
//!   build environment has no network, so no tokio), panic-isolated,
//!   long-lived pool the server's event loop executes requests on.
//!   One-shot fan-outs such as a CLI batch use [`sna_vm::run_ordered`],
//!   which collects results in input order.
//! * [`exec`] — one runner and one `result` renderer per verb (parse,
//!   analyze, simulate, trace, optimize, synth), shared by the CLI
//!   subcommands and the server so both produce identical numbers and
//!   identical JSON for the same request.
//! * [`Handler`] / [`spawn_server`] — the line-oriented JSON protocol:
//!   one request per line in, one compact JSON response per line out.
//!   [`Handler::serve`] drives a trusted stdio peer; `spawn_server` runs
//!   the `poll(2)` event-loop transport for TCP peers (its workers call
//!   [`Handler::handle`]), with bounded accept, slow-client
//!   backpressure, idle timeouts and graceful drain. Documented in
//!   `crates/service/README.md`.
//! * [`StatsRegistry`] — the observability plane: connection-lifecycle
//!   counters plus log-spaced latency histograms per verb and per
//!   resolved engine, reported in full by the `stats` verb.
//! * [`Json`] — the document model, writer (pretty + compact) and parser
//!   the protocol and the CLI share. It moved here from `crates/cli`,
//!   which re-exports it.

// `deny` rather than `forbid`: the event loop's `sys` module is the one
// place allowed (via a scoped `#[allow]`) to use unsafe — the thin FFI
// shim over poll(2)/pipe(2), reviewed syscall-by-syscall. Everything
// else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod event_loop;
pub mod exec;
mod fault;
mod json;
mod pool;
mod proto;
mod stats;

pub use cache::{CacheLimits, CacheStats, CompileCache, CompiledEntry, Lookup};
pub use event_loop::{spawn_server, ServerConfig, ServerHandle};
pub use fault::{FaultPlan, IoFault, JobFault};
pub use json::Json;
pub use pool::WorkerPool;
pub use proto::{ExecLimits, Handler, Peer, ServeReport, MAX_TIMEOUT_MS};
pub use stats::{
    bin_hi, bin_lo, Counter, HistogramSnapshot, InFlightGuard, LatencyHistogram, StatsRegistry,
    COUNTERS, ENGINES, N_BINS, VERBS,
};
