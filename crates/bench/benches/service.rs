//! Cached-vs-cold request latency through the service layer — the number
//! the `CompileCache` exists to move.
//!
//! `cold` pays the full pipeline per request (lex + parse + lower +
//! NA-model build + evaluate) by using a fresh cache every iteration;
//! `cached` keeps one warm cache, so repeats skip straight to the
//! `O(#sources)` evaluation. Run on the order-18 difference equation
//! (`diffeq.sna`), whose feedback makes the impulse-response model build
//! the dominant cost, and on the protocol handler end-to-end.

use criterion::{criterion_group, criterion_main, Criterion};
use sna_service::exec::{analyze_report, AnalyzeEngine, AnalyzeParams};
use sna_service::{CompileCache, ExecLimits, Handler, Peer, StatsRegistry};

fn diffeq_source() -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join("diffeq.sna");
    std::fs::read_to_string(path).expect("diffeq.sna exists")
}

fn na_params() -> AnalyzeParams {
    AnalyzeParams {
        engine: AnalyzeEngine::Na,
        bits: 12,
        bins: 64,
    }
}

fn bench_cold_vs_cached_analyze(c: &mut Criterion) {
    let source = diffeq_source();
    let params = na_params();

    let mut group = c.benchmark_group("service_analyze_diffeq_na");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let cache = CompileCache::new();
            let (entry, _) = cache.get_or_compile(&source).unwrap();
            std::hint::black_box(analyze_report(&entry, &params).unwrap())
        })
    });
    let warm = CompileCache::new();
    warm.get_or_compile(&source)
        .unwrap()
        .0
        .session
        .na_model()
        .unwrap();
    group.bench_function("cached", |b| {
        b.iter(|| {
            let (entry, lookup) = warm.get_or_compile(&source).unwrap();
            assert!(lookup.is_hit());
            std::hint::black_box(analyze_report(&entry, &params).unwrap())
        })
    });
    group.finish();
}

/// One request through the stdio handler, recording into a throwaway
/// registry.
fn handle(cache: &CompileCache, line: &str) -> sna_service::Json {
    let handler = Handler {
        cache,
        stats: &StatsRegistry::new(),
        limits: ExecLimits::default(),
        peer: Peer::Trusted,
    };
    handler.handle(line)
}

fn bench_protocol_handler(c: &mut Criterion) {
    let source = diffeq_source().replace('\n', "\\n");
    let line =
        format!(r#"{{"cmd": "analyze", "source": "{source}", "engine": "na", "pdf": false}}"#);

    let mut group = c.benchmark_group("service_handle_line_diffeq");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let cache = CompileCache::new();
            std::hint::black_box(handle(&cache, &line))
        })
    });
    let warm = CompileCache::new();
    let _ = handle(&warm, &line);
    group.bench_function("cached", |b| {
        b.iter(|| std::hint::black_box(handle(&warm, &line)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_vs_cached_analyze,
    bench_protocol_handler
);
criterion_main!(benches);
