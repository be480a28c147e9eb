//! The Pareto-filter scaling guard: [`sna_opt::pareto_front`] over tens
//! of thousands of synthetic evaluations. The filter sorts into the
//! canonical total order and tests each point against the kept frontier
//! only, so big sweeps stay near `n log n` in practice; the absolute
//! bound here is the regression guard. The sweep it serves checkpoints
//! into the persistent store (`optimize --pareto --store-dir`), hence
//! the bench's name.
//!
//! `main` writes `BENCH_store.json` at the workspace root so CI tracks
//! the numbers.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use sna_core::Session;
use sna_designs::fir;
use sna_hls::SynthesisConstraints;
use sna_opt::{pareto_front, Evaluation, Optimizer};

/// A real FIR-7 evaluation, the template every synthetic point is
/// cloned from.
fn template() -> Evaluation {
    let design = fir(7);
    let session = Session::new(design.dfg, design.input_ranges).expect("session opens");
    Optimizer::new(&session, SynthesisConstraints::default())
        .expect("optimizer builds")
        .uniform(10)
        .expect("uniform evaluation")
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

fn bench_pareto_front(c: &mut Criterion) {
    let points = synthetic_points(&template(), 20_000);
    let mut group = c.benchmark_group("pareto_front");
    group.sample_size(10);
    group.bench_function("20k_points", |b| {
        b.iter(|| pareto_front(std::hint::black_box(points.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_pareto_front);

fn main() {
    benches();

    let template = template();
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
            "  \"pareto_front\": [",
            "{{\"points\": {}, \"front_ms\": {:.3}, \"front_len\": {}}}, ",
            "{{\"points\": {}, \"front_ms\": {:.3}, \"front_len\": {}}}]\n",
            "}}\n"
        ),
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
