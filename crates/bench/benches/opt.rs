//! Candidate-evaluation throughput of the word-length search loops: the
//! incremental [`sna_opt::NoiseEval`] against the from-scratch
//! [`sna_opt::Optimizer::noise_of`], on both noise backends.
//!
//! * `opt_na_candidate` — FIR-25 (linear, NA moment model): a candidate is
//!   one single-bit probe, the access pattern of greedy / annealing /
//!   exhaustive search.
//! * `opt_hist_candidate` — the paper's nonlinear quadratic (histogram
//!   fallback): scratch pays a full 64-bin propagation per candidate, the
//!   incremental path re-propagates only the moved node's downstream cone
//!   (memoized).
//!
//! Besides the Criterion groups, `main` measures sustained candidates/sec
//! for each mode, verifies incremental-vs-scratch agreement to 1e-12, and
//! writes `BENCH_opt.json` at the workspace root so CI tracks the
//! speedups over time.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use sna_core::Session;
use sna_designs::{fir, quadratic, Design};
use sna_hls::SynthesisConstraints;
use sna_opt::Optimizer;

/// A compiled session over one design.
fn session_of(design: &Design) -> Session {
    Session::new(design.dfg.clone(), design.input_ranges.clone()).expect("session opens")
}

/// Deterministic move sequence: `(node, width)` pairs from an LCG.
fn move_sequence(opt: &Optimizer<'_>, n_nodes: usize, len: usize) -> Vec<(usize, u8)> {
    let min_w = opt.min_word_lengths().to_vec();
    let mut state: u64 = 0x5EED_CAFE_F00D_D00D;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..len)
        .map(|_| {
            let i = (lcg() as usize) % n_nodes;
            let span = 28u8.saturating_sub(min_w[i]).max(1);
            let w = min_w[i] + (lcg() % u64::from(span)) as u8;
            (i, w)
        })
        .collect()
}

struct Throughput {
    incremental: f64,
    scratch: f64,
    max_rel_err: f64,
}

/// Measures candidates/sec for both modes on one design and checks the
/// incremental results match the from-scratch reference within 1e-12.
fn measure(design: &Design, n_inc: usize, n_scr: usize, n_check: usize) -> Throughput {
    let session = session_of(design);
    let opt = Optimizer::new(&session, SynthesisConstraints::default()).expect("optimizer builds");
    let n_nodes = design.dfg.len();
    let start: Vec<u8> = opt.min_word_lengths().iter().map(|&m| m.max(16)).collect();
    let seq = move_sequence(&opt, n_nodes, n_inc.max(n_scr).max(n_check));

    // Equivalence: committed walk, compared against scratch every step.
    let mut ev = opt.evaluator(&start).expect("evaluator builds");
    let mut w = start.clone();
    let mut max_rel_err = 0.0f64;
    for &(i, nw) in &seq[..n_check] {
        let p = ev.set(i, nw).expect("incremental move");
        w[i] = nw;
        let scratch = opt.noise_of(&w).expect("scratch evaluation");
        let rel = (p - scratch).abs() / scratch.abs().max(1e-300);
        max_rel_err = max_rel_err.max(rel);
        assert!(
            rel <= 1e-12,
            "incremental {p:e} diverged from scratch {scratch:e} (rel {rel:e})"
        );
    }

    // Incremental throughput: probes (set + undo) from a fixed base — the
    // hot pattern of the search loops.
    let mut ev = opt.evaluator(&start).expect("evaluator builds");
    let t0 = Instant::now();
    for &(i, nw) in &seq[..n_inc] {
        std::hint::black_box(ev.probe(i, nw).expect("probe"));
    }
    let incremental = n_inc as f64 / t0.elapsed().as_secs_f64();

    // Scratch throughput: the same probes as full evaluations.
    let mut w = start.clone();
    let t0 = Instant::now();
    for &(i, nw) in &seq[..n_scr] {
        let old = w[i];
        w[i] = nw;
        std::hint::black_box(opt.noise_of(&w).expect("scratch evaluation"));
        w[i] = old;
    }
    let scratch = n_scr as f64 / t0.elapsed().as_secs_f64();

    Throughput {
        incremental,
        scratch,
        max_rel_err,
    }
}

fn bench_na_candidate(c: &mut Criterion) {
    let design = fir(25);
    let session = session_of(&design);
    let opt = Optimizer::new(&session, SynthesisConstraints::default()).expect("optimizer builds");
    let start: Vec<u8> = opt.min_word_lengths().iter().map(|&m| m.max(16)).collect();
    let seq = move_sequence(&opt, design.dfg.len(), 4096);

    let mut group = c.benchmark_group("opt_na_candidate");
    let mut k = 0usize;
    let mut w = start.clone();
    group.bench_function("scratch", |b| {
        b.iter(|| {
            let (i, nw) = seq[k % seq.len()];
            k += 1;
            let old = w[i];
            w[i] = nw;
            let p = opt.noise_of(&w).expect("scratch");
            w[i] = old;
            p
        })
    });
    let mut ev = opt.evaluator(&start).expect("evaluator builds");
    let mut k = 0usize;
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let (i, nw) = seq[k % seq.len()];
            k += 1;
            ev.probe(i, nw).expect("probe")
        })
    });
    group.finish();
}

fn bench_hist_candidate(c: &mut Criterion) {
    let design = quadratic();
    let session = session_of(&design);
    let opt = Optimizer::new(&session, SynthesisConstraints::default()).expect("optimizer builds");
    assert!(opt.na_model().is_none(), "quadratic uses the hist fallback");
    let start: Vec<u8> = opt.min_word_lengths().iter().map(|&m| m.max(16)).collect();
    let seq = move_sequence(&opt, design.dfg.len(), 512);

    let mut group = c.benchmark_group("opt_hist_candidate");
    group.sample_size(10);
    let mut k = 0usize;
    let mut w = start.clone();
    group.bench_function("scratch", |b| {
        b.iter(|| {
            let (i, nw) = seq[k % seq.len()];
            k += 1;
            let old = w[i];
            w[i] = nw;
            let p = opt.noise_of(&w).expect("scratch");
            w[i] = old;
            p
        })
    });
    let mut ev = opt.evaluator(&start).expect("evaluator builds");
    let mut k = 0usize;
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let (i, nw) = seq[k % seq.len()];
            k += 1;
            ev.probe(i, nw).expect("probe")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_na_candidate, bench_hist_candidate);

fn main() {
    benches();

    // Smoke numbers for the perf trajectory (BENCH_opt.json).
    let na = measure(&fir(25), 100_000, 2_000, 200);
    let hist = measure(&quadratic(), 4_000, 250, 100);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"opt\",\n",
            "  \"na_fir25\": {{\"incremental_cands_per_s\": {:.0}, ",
            "\"scratch_cands_per_s\": {:.0}, \"speedup\": {:.2}, ",
            "\"max_rel_err\": {:e}}},\n",
            "  \"hist_quadratic\": {{\"incremental_cands_per_s\": {:.0}, ",
            "\"scratch_cands_per_s\": {:.0}, \"speedup\": {:.2}, ",
            "\"max_rel_err\": {:e}}}\n",
            "}}\n"
        ),
        na.incremental,
        na.scratch,
        na.incremental / na.scratch,
        na.max_rel_err,
        hist.incremental,
        hist.scratch,
        hist.incremental / hist.scratch,
        hist.max_rel_err,
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_opt.json");
    std::fs::write(&path, &json).expect("write BENCH_opt.json");
    println!("{json}");
    println!("wrote {}", path.display());
}
