//! Performance of the histogram-arithmetic kernels versus granularity —
//! the computational trade-off the paper highlights ("higher granularity
//! produces higher precision results but with more calculation
//! overheads").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sna_hist::Histogram;

fn bench_binary_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hist_binary");
    for &bins in &[16usize, 64, 256] {
        let a = Histogram::uniform(0.0, 1.0, bins).unwrap();
        let b = Histogram::triangular(-1.0, 1.0, bins).unwrap();
        group.bench_with_input(BenchmarkId::new("add_exact", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(a.add(&b).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("mul", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(a.mul(&b).unwrap()))
        });
    }
    // A uniform addend (a noise symbol) deposits one trapezoid per lhs
    // bin; `add_exact` above, with a non-uniform addend, is the per-pair
    // loop.
    for &(lhs_bins, rhs_bins) in &[(64usize, 64usize), (128, 32)] {
        let a = Histogram::triangular(-1.0, 1.0, lhs_bins).unwrap();
        let b = Histogram::uniform(0.0, 1.0, rhs_bins).unwrap();
        let id = BenchmarkId::new("add_exact_uniform_addend", format!("{lhs_bins}x{rhs_bins}"));
        group.bench_with_input(id, &lhs_bins, |bench, _| {
            bench.iter(|| std::hint::black_box(a.add(&b).unwrap()))
        });
    }
    group.finish();
}

fn bench_unary_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hist_unary");
    for &bins in &[64usize, 256] {
        let x = Histogram::unit_symbol(bins).unwrap();
        group.bench_with_input(BenchmarkId::new("sqr_exact", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(x.sqr().unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("quantile", bins), &bins, |bench, _| {
            bench.iter(|| std::hint::black_box(x.quantile(0.99)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_binary_ops, bench_unary_ops);
criterion_main!(benches);
