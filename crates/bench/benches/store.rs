//! Persistent-store warm load vs cold compile, plus the Pareto-filter
//! scaling guard.
//!
//! Workload 1: FIR-25 (the paper's Design II). `cold` builds the full
//! stage set from scratch — range analysis, NA gain model, VM program.
//! `warm` reads the serialized skeleton back through
//! [`sna_store::Store::get`] and [`sna_core::Session::import_wire`],
//! which is what `sna serve --store-dir` pays after a restart. The
//! ISSUE acceptance floor is ≥5×.
//!
//! Workload 2: [`sna_opt::pareto_front`] over tens of thousands of
//! synthetic evaluations. The filter sorts into the canonical total
//! order and tests each point against the kept frontier only, so big
//! sweeps stay near `n log n` in practice; the absolute bound here is
//! the regression guard.
//!
//! `main` writes `BENCH_store.json` at the workspace root so CI tracks
//! both numbers.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use sna_core::Session;
use sna_designs::fir;
use sna_hls::SynthesisConstraints;
use sna_opt::{pareto_front, Evaluation, Optimizer};
use sna_store::Store;

/// One fully built FIR-25 session (every stage forced).
fn built_session() -> Session {
    let design = fir(25);
    let session = Session::new(design.dfg, design.input_ranges).expect("session opens");
    session.na_model().expect("gain model builds");
    let _ = session.vm_program();
    session
}

struct WarmNumbers {
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    skeleton_bytes: usize,
}

/// Measures `iters` cold full-stage builds against `iters` store-backed
/// warm loads of the same design.
fn measure_warm_load(iters: usize) -> WarmNumbers {
    let dir = std::env::temp_dir().join(format!("sna-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("store opens");
    let bytes = built_session().export_wire();
    store.put("skel", 1, &bytes).expect("skeleton stored");

    let design = fir(25);
    let mut cold_s = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        let session =
            Session::new(design.dfg.clone(), design.input_ranges.clone()).expect("session opens");
        session.na_model().expect("gain model builds");
        let _ = session.vm_program();
        cold_s += t0.elapsed().as_secs_f64();
        std::hint::black_box(session);
    }

    let mut warm_s = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        let payload = store.get("skel", 1).expect("skeleton loads");
        let session = Session::import_wire(&payload).expect("skeleton decodes");
        warm_s += t0.elapsed().as_secs_f64();
        // The imported session must answer without rebuilding anything.
        let stats = session.stats();
        assert_eq!(
            (stats.range_builds, stats.na_builds, stats.vm_compiles),
            (0, 0, 0),
            "warm load rebuilt a stage"
        );
        std::hint::black_box(session);
    }

    let _ = std::fs::remove_dir_all(&dir);
    WarmNumbers {
        cold_ms: cold_s * 1e3 / iters as f64,
        warm_ms: warm_s * 1e3 / iters as f64,
        speedup: cold_s / warm_s,
        skeleton_bytes: bytes.len(),
    }
}

/// `n` synthetic evaluations with pseudo-random (deterministic)
/// objectives, cloned off one real FIR-7 evaluation so every field is a
/// value the HLS flow could produce.
fn synthetic_points(template: &Evaluation, n: usize) -> Vec<Evaluation> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        // xorshift64* — deterministic across runs and platforms.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let mut e = template.clone();
            e.cost.area_um2 = 1e3 + 1e4 * next();
            e.cost.power_uw = 1e2 + 1e3 * next();
            e.cost.latency_cycles = 1 + (next() * 64.0) as u32;
            e.noise_power = 1e-9 * (1.0 + next());
            e
        })
        .collect()
}

struct FrontNumbers {
    n: usize,
    front_ms: f64,
    front_len: usize,
}

fn measure_front(template: &Evaluation, n: usize) -> FrontNumbers {
    let points = synthetic_points(template, n);
    let t0 = Instant::now();
    let front = pareto_front(points);
    let front_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!front.is_empty());
    FrontNumbers {
        n,
        front_ms,
        front_len: front.len(),
    }
}

fn bench_store_warm_load(c: &mut Criterion) {
    let bytes = built_session().export_wire();
    let mut group = c.benchmark_group("store_fir25");
    group.sample_size(10);
    group.bench_function("import_wire", |b| {
        b.iter(|| Session::import_wire(std::hint::black_box(&bytes)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_store_warm_load);

fn main() {
    benches();

    let warm = measure_warm_load(30);
    assert!(
        warm.speedup >= 5.0,
        "store warm load must be ≥5× a cold FIR-25 stage build, measured {:.2}×",
        warm.speedup
    );

    let design = fir(7);
    let session = Session::new(design.dfg, design.input_ranges).expect("session opens");
    let template = Optimizer::new(&session, SynthesisConstraints::default())
        .expect("optimizer builds")
        .uniform(10)
        .expect("uniform evaluation");
    let front20 = measure_front(&template, 20_000);
    let front40 = measure_front(&template, 40_000);
    assert!(
        front40.front_ms < 1500.0,
        "pareto_front over 40k points took {:.1} ms — the skyline filter regressed",
        front40.front_ms
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"store\",\n",
            "  \"fir25_warm_load\": {{\"cold_build_ms\": {:.3}, ",
            "\"warm_load_ms\": {:.3}, \"speedup\": {:.2}, ",
            "\"skeleton_bytes\": {}}},\n",
            "  \"pareto_front\": [",
            "{{\"points\": {}, \"front_ms\": {:.3}, \"front_len\": {}}}, ",
            "{{\"points\": {}, \"front_ms\": {:.3}, \"front_len\": {}}}]\n",
            "}}\n"
        ),
        warm.cold_ms,
        warm.warm_ms,
        warm.speedup,
        warm.skeleton_bytes,
        front20.n,
        front20.front_ms,
        front20.front_len,
        front40.n,
        front40.front_ms,
        front40.front_len,
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json");
    std::fs::write(&path, &json).expect("write BENCH_store.json");
    println!("{json}");
    println!("wrote {}", path.display());
}
