//! Front-end throughput: lex + parse + lower for `.sna` sources — the
//! per-request cost every future batch/server mode pays before any
//! analysis runs.
//!
//! Benchmarked on the largest shipped example (`fir.sna`, 99 nodes) and
//! on synthetically scaled FIR programs (256/1024 taps) to expose the
//! scaling behaviour.
//!
//! The `front_end` group times, stage by stage, what a compile-cache
//! lookup past the source tier runs — parse, canonical text, lower,
//! shape key — on the two design families of the end-to-end
//! benchmark's cold sweep: a 64-tap sparse FIR and a 16×8×2 mat-vec
//! bank. It is a per-layer probe with no floor and no JSON output; run
//! `cargo bench -p sna-bench --bench lang` and read its `front_end/`
//! lines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn fir_example_source() -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join("fir.sna");
    std::fs::read_to_string(path).expect("fir.sna exists")
}

/// A synthetic direct-form FIR of `taps` taps, mirroring `fir.sna`.
fn synthetic_fir(taps: usize) -> String {
    let mut out = String::from("input x in [-1, 1];\n");
    for k in 1..taps {
        let prev = if k == 1 {
            "x".to_string()
        } else {
            format!("x{}", k - 1)
        };
        out.push_str(&format!("x{k} = delay {prev};\n"));
    }
    out.push_str("y = 0.125*x");
    for k in 1..taps {
        out.push_str(&format!("\n  + 0.125*x{k}"));
    }
    out.push_str(";\noutput y;\n");
    out
}

/// A deterministic coefficient in `±[0.2, 1.0) · scale`, varied by `k`.
fn coefficient(k: usize, scale: f64) -> f64 {
    let u = (k.wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0;
    let sign = if k.is_multiple_of(3) { -1.0 } else { 1.0 };
    sign * (0.2 + 0.8 * u) * scale
}

/// A `taps`-tap FIR with named coefficients and every third delay
/// skipped, written with tap sugar like the cold-sweep FIRs.
fn sparse_fir(taps: usize) -> String {
    let mut out = String::from("input x in [-1, 1];\n");
    let mut terms = Vec::new();
    let mut delay = 0;
    for i in 0..taps {
        out.push_str(&format!(
            "let c{i} = {:.6};\n",
            coefficient(i, 2.0 / taps as f64)
        ));
        terms.push(if delay == 0 {
            format!("c{i}*x")
        } else {
            format!("c{i}*x[n-{delay}]")
        });
        delay += if i % 3 == 2 { 2 } else { 1 };
    }
    out.push_str(&format!("output y = {};\n", terms.join(" + ")));
    out
}

/// A `layers`-deep mat-vec bank over `input v[width]`, `height` outputs
/// per layer, each summing three of every four inputs of its layer.
fn matvec_bank(width: usize, height: usize, layers: usize) -> String {
    let mut out = format!("input v[{width}] in [-1, 1];\n");
    let mut prev: Vec<String> = (0..width).map(|i| format!("v[{i}]")).collect();
    for l in 0..layers {
        let mut names = Vec::new();
        for j in 0..height {
            let kept: Vec<usize> = (0..prev.len())
                .filter(|i| !(i + j).is_multiple_of(4))
                .collect();
            let terms: Vec<String> = kept
                .iter()
                .map(|&i| {
                    let c = coefficient(l * 1000 + j * 100 + i, 1.0 / kept.len() as f64);
                    format!("{c:.6}*{}", prev[i])
                })
                .collect();
            let name = format!("h{l}_{j}");
            out.push_str(&format!("{name} = {};\n", terms.join(" + ")));
            names.push(name);
        }
        prev = names;
    }
    for (j, name) in prev.iter().enumerate() {
        out.push_str(&format!("output o{j} = {name};\n"));
    }
    out
}

fn bench_front_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("front_end");
    group.sample_size(20);
    for (design, source) in [
        ("fir64_sparse", sparse_fir(64)),
        ("matvec16x8x2", matvec_bank(16, 8, 2)),
    ] {
        let program = sna_lang::parse(&source).expect("generated source parses");
        let lowered = sna_lang::lower(&program).expect("generated source lowers");
        group.bench_function(format!("{design}/parse"), |b| {
            b.iter(|| std::hint::black_box(sna_lang::parse(&source).unwrap()))
        });
        group.bench_function(format!("{design}/canonical"), |b| {
            b.iter(|| std::hint::black_box(program.to_string()))
        });
        group.bench_function(format!("{design}/lower"), |b| {
            b.iter(|| std::hint::black_box(sna_lang::lower(&program).unwrap()))
        });
        group.bench_function(format!("{design}/shape_key"), |b| {
            b.iter(|| std::hint::black_box(sna_lang::fnv1a_64(lowered.shape_key().as_bytes())))
        });
        group.bench_function(format!("{design}/lookup"), |b| {
            b.iter(|| {
                let program = sna_lang::parse(&source).unwrap();
                let canon = program.to_string();
                let lowered = sna_lang::lower(&program).unwrap();
                let key = lowered.shape_key();
                std::hint::black_box((canon, sna_lang::fnv1a_64(key.as_bytes()), lowered))
            })
        });
    }
    group.finish();
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let source = fir_example_source();
    let mut group = c.benchmark_group("lang_fir25");
    group.sample_size(20);
    group.bench_function("lex", |b| {
        b.iter(|| std::hint::black_box(sna_lang::lex(&source).unwrap()))
    });
    group.bench_function("parse", |b| {
        b.iter(|| std::hint::black_box(sna_lang::parse(&source).unwrap()))
    });
    let program = sna_lang::parse(&source).unwrap();
    group.bench_function("lower", |b| {
        b.iter(|| std::hint::black_box(sna_lang::lower(&program).unwrap()))
    });
    group.bench_function("compile", |b| {
        b.iter(|| std::hint::black_box(sna_lang::compile(&source).unwrap()))
    });
    group.finish();
}

fn bench_compile_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("lang_compile_scaling");
    group.sample_size(10);
    for taps in [256usize, 1024] {
        let source = synthetic_fir(taps);
        group.bench_with_input(BenchmarkId::from_parameter(taps), &source, |b, src| {
            b.iter(|| std::hint::black_box(sna_lang::compile(src).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline_stages,
    bench_compile_scaling,
    bench_front_end
);
criterion_main!(benches);
