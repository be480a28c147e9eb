//! Coefficient-swap recompilation vs full compilation through the
//! [`sna_core::Session`] API — the incremental-recompilation number the
//! unified-session redesign exists to move.
//!
//! Workload: FIR-25 (the paper's Design II), the design-space-exploration
//! inner loop of "retune one tap coefficient, re-derive the noise model".
//! `full` compiles the swapped graph from scratch (range analysis + one
//! impulse-response analysis per source); `swap` goes through
//! [`Session::with_coefficients`], which re-evaluates ranges only inside
//! the changed constant's downstream cone and re-simulates gains only for
//! sources whose transfer path crosses the changed coefficient.
//!
//! `main` verifies swap-vs-scratch agreement to 1e-12, measures both
//! paths, and writes `BENCH_session.json` at the workspace root so CI
//! tracks the speedup (the ISSUE acceptance floor is ≥5×).  A second
//! record measures the same loop end-to-end through the service compile
//! cache (`shape-hit` vs cold miss), which additionally pays parse+lower.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use sna_core::{AnalysisRequest, EngineKind, Session, WlChoice};
use sna_designs::fir;
use sna_service::exec::{self, AnalyzeParams};
use sna_service::{CompileCache, Lookup};

/// The center-tap coefficient vector variant `i` (one slot retuned per
/// iteration, every value distinct so no request is a byte-level repeat).
fn variant(base: &[f64], i: usize) -> Vec<f64> {
    let mut v = base.to_vec();
    let k = v.len() / 2;
    v[k] = 0.5 + (i as f64 + 1.0) * 1e-6;
    v
}

fn na_power(session: &Session) -> f64 {
    let report = session
        .analyze(&AnalysisRequest {
            engine: EngineKind::Na,
            words: WlChoice::Uniform(12),
            bins: 32,
            include_pdf: false,
            ..AnalysisRequest::default()
        })
        .expect("NA analysis succeeds");
    report.reports.iter().map(|(_, r)| r.power).sum()
}

struct SessionNumbers {
    full_ms: f64,
    swap_ms: f64,
    speedup: f64,
    max_rel_err: f64,
    gains_rebuilt: u64,
    gains_reused: u64,
}

/// Session-level measurement: `iters` single-tap swaps, each timed as a
/// from-scratch compile and as an incremental swap, with agreement
/// checked on every iteration.
fn measure_session(iters: usize) -> SessionNumbers {
    let design = fir(25);
    let base =
        Session::new(design.dfg.clone(), design.input_ranges.clone()).expect("session opens");
    base.na_model().expect("FIR-25 gain model builds");
    let coeffs = base.coefficients();

    let mut full_s = 0.0;
    let mut swap_s = 0.0;
    let mut max_rel_err = 0.0f64;
    for i in 0..iters {
        let v = variant(&coeffs, i);

        let t0 = Instant::now();
        let cold = Session::new(
            design
                .dfg
                .with_const_values(&v)
                .expect("slot count matches"),
            design.input_ranges.clone(),
        )
        .expect("session opens");
        cold.na_model().expect("gain model builds");
        full_s += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let swapped = base.with_coefficients(&v).expect("swap succeeds");
        swap_s += t0.elapsed().as_secs_f64();

        let (a, b) = (na_power(&swapped), na_power(&cold));
        let rel = (a - b).abs() / b.abs().max(1e-300);
        max_rel_err = max_rel_err.max(rel);
        assert!(
            rel <= 1e-12,
            "swap {a:e} diverged from scratch {b:e} (rel {rel:e})"
        );
    }
    let stats = base.stats();
    SessionNumbers {
        full_ms: full_s * 1e3 / iters as f64,
        swap_ms: swap_s * 1e3 / iters as f64,
        speedup: full_s / swap_s,
        max_rel_err,
        gains_rebuilt: stats.gains_rebuilt / iters as u64,
        gains_reused: stats.gains_reused / iters as u64,
    }
}

/// The FIR-25 source with the center tap retuned (same shape, one new
/// constant) — the request stream a parameter sweep sends a server.
fn fir_source(i: usize) -> String {
    let source = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join("fir.sna");
    std::fs::read_to_string(source)
        .expect("fir.sna exists")
        .replace(
            "0.5008473037200887",
            &format!("{}", 0.5 + (i as f64 + 1.0) * 1e-6),
        )
}

struct CacheNumbers {
    miss_ms: f64,
    shape_hit_ms: f64,
    speedup: f64,
}

/// Cache-level measurement: every request is a *new* program text; the
/// cold side uses a fresh cache per request (full compile + model), the
/// warm side rides one cache's shape tier.
fn measure_cache(iters: usize) -> CacheNumbers {
    let params = AnalyzeParams {
        engine: EngineKind::Na,
        bits: 12,
        bins: 32,
    };

    let mut miss_s = 0.0;
    for i in 0..iters {
        let source = fir_source(i);
        let t0 = Instant::now();
        let cache = CompileCache::new();
        let (entry, lookup) = cache.get_or_compile(&source).unwrap();
        assert_eq!(lookup, Lookup::Miss);
        std::hint::black_box(exec::analyze_report(&entry, &params).unwrap());
        miss_s += t0.elapsed().as_secs_f64();
    }

    let warm = CompileCache::new();
    let (donor, _) = warm.get_or_compile(&fir_source(10_000_000)).unwrap();
    donor.session.na_model().unwrap();
    let mut hit_s = 0.0;
    for i in 0..iters {
        let source = fir_source(i);
        let t0 = Instant::now();
        let (entry, lookup) = warm.get_or_compile(&source).unwrap();
        assert_eq!(lookup, Lookup::ShapeHit);
        std::hint::black_box(exec::analyze_report(&entry, &params).unwrap());
        hit_s += t0.elapsed().as_secs_f64();
    }

    CacheNumbers {
        miss_ms: miss_s * 1e3 / iters as f64,
        shape_hit_ms: hit_s * 1e3 / iters as f64,
        speedup: miss_s / hit_s,
    }
}

fn bench_session_recompile(c: &mut Criterion) {
    let design = fir(25);
    let base = Session::new(design.dfg.clone(), design.input_ranges.clone()).unwrap();
    base.na_model().unwrap();
    let coeffs = base.coefficients();

    let mut group = c.benchmark_group("session_fir25_recompile");
    group.sample_size(10);
    let mut k = 0usize;
    group.bench_function("full", |b| {
        b.iter(|| {
            k += 1;
            let v = variant(&coeffs, k);
            let cold = Session::new(
                design.dfg.with_const_values(&v).unwrap(),
                design.input_ranges.clone(),
            )
            .unwrap();
            cold.na_model().unwrap();
            cold
        })
    });
    let mut k = 0usize;
    group.bench_function("coefficient_swap", |b| {
        b.iter(|| {
            k += 1;
            base.with_coefficients(&variant(&coeffs, k)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_session_recompile);

fn main() {
    benches();

    let session = measure_session(60);
    let cache = measure_cache(40);
    assert!(
        session.speedup >= 5.0,
        "coefficient-swap recompile must be ≥5× a cold FIR-25 compile, measured {:.2}×",
        session.speedup
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"session\",\n",
            "  \"fir25_session\": {{\"full_compile_ms\": {:.3}, ",
            "\"coefficient_swap_ms\": {:.3}, \"speedup\": {:.2}, ",
            "\"gains_rebuilt\": {}, \"gains_reused\": {}, ",
            "\"max_rel_err\": {:e}}},\n",
            "  \"fir25_cache\": {{\"miss_ms\": {:.3}, ",
            "\"shape_hit_ms\": {:.3}, \"speedup\": {:.2}}}\n",
            "}}\n"
        ),
        session.full_ms,
        session.swap_ms,
        session.speedup,
        session.gains_rebuilt,
        session.gains_reused,
        session.max_rel_err,
        cache.miss_ms,
        cache.shape_hit_ms,
        cache.speedup,
    );
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_session.json");
    std::fs::write(&path, &json).expect("write BENCH_session.json");
    println!("{json}");
    println!("wrote {}", path.display());
}
