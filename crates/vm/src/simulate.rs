//! The Monte-Carlo driver: K×N sampled paths through an [`Executable`]
//! with deterministic seed fan-out and a deterministic merge.
//!
//! # Determinism contract
//!
//! The lane population is split into fixed-size *chunks*; chunk `i`
//! seeds its own `StdRng` from
//! `seed + (i+1) · 0x9E3779B97F4A7C15` (wrapping), and workers pull
//! chunk indices from an atomic cursor exactly like the service's
//! `run_ordered` pool.  Results are merged in chunk-index order, so the
//! output is a pure function of `(program, ranges, options)` — the
//! worker count only changes wall-clock time, never a single bit of the
//! report.  This is asserted across 1/4/8 workers in the core test
//! suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sna_hist::Histogram;
use sna_interval::Interval;

use crate::exec::Executable;
use crate::VmError;

/// Lanes per chunk: big enough to amortize the instruction sweep, small
/// enough that a design's full register file (two f64 banks × lanes)
/// stays cache-resident — per-lane step cost rises measurably past this
/// (see `benches/eval.rs`) — and that chunk-level work stealing
/// balances uneven core counts.
pub(crate) const CHUNK_LANES: usize = 512;

/// Golden-ratio increment for per-chunk seed derivation (SplitMix64's
/// gamma) — consecutive chunk seeds land far apart in the seed space.
const SEED_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Options for [`simulate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOptions {
    /// Number of independent sample paths (lanes across all chunks).
    pub paths: usize,
    /// Base RNG seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Steps to simulate per path (use 1 for combinational designs).
    pub steps: usize,
    /// Leading steps discarded from each path before collecting errors.
    pub warmup: usize,
    /// Worker threads; 0 means available hardware parallelism.
    pub workers: usize,
    /// Bins of the empirical per-output error histogram.
    pub bins: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            paths: 100_000,
            seed: 0x5eed_cafe,
            steps: 64,
            warmup: 16,
            workers: 0,
            bins: 64,
        }
    }
}

/// Empirical error statistics of one output (error = quantized − exact,
/// matching `sna_fixp::OutputErrorStats` conventions: population
/// variance, `power = E[e²]`).
#[derive(Clone, Debug)]
pub struct OutputStats {
    /// Output name as declared on the graph.
    pub name: String,
    /// Mean error.
    pub mean: f64,
    /// Error variance (population).
    pub variance: f64,
    /// Smallest observed error.
    pub min: f64,
    /// Largest observed error.
    pub max: f64,
    /// Mean squared error (noise power).
    pub power: f64,
    /// Number of collected error samples.
    pub samples: usize,
    /// Histogram of the observed errors.
    pub histogram: Histogram,
}

/// One chunk's collected error samples, per output.
pub(crate) type ChunkSamples = Vec<Vec<f64>>;

/// Runs `opts.paths` Monte-Carlo sample paths and returns per-output
/// empirical error statistics.
///
/// `input_ranges[j]` is the range input `j` is drawn from (uniformly;
/// point ranges pin the input, mirroring `sna_fixp::monte_carlo_error`).
/// Each path runs `opts.steps` steps with fresh draws every step and
/// collects `quantized − exact` per output from step `opts.warmup`
/// onward.
///
/// `cancelled` is a cooperative cancellation check, consulted before
/// every chunk claim (a chunk is the smallest unit of work — at most
/// 512 lanes × `steps` instruction sweeps). When it returns `true` the
/// remaining chunks are abandoned and the call fails with
/// [`VmError::Cancelled`]; chunks already computed are discarded. The
/// check must be cheap (an atomic load, a deadline comparison): with
/// many workers it runs once per chunk per worker. A check that never
/// fires (`&|| false`) leaves the result bit-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// * [`VmError::NoSamples`] when `paths == 0` or `steps <= warmup`;
/// * [`VmError::InputArity`] on a range/input count mismatch;
/// * [`VmError::DivisionByZero`] propagated from any lane;
/// * [`VmError::Histogram`] if collected errors are non-finite;
/// * [`VmError::Cancelled`] when the check fires.
pub fn simulate(
    exe: &Executable,
    input_ranges: &[Interval],
    opts: &SimOptions,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Result<Vec<OutputStats>, VmError> {
    if opts.paths == 0 || opts.steps <= opts.warmup {
        return Err(VmError::NoSamples);
    }
    if input_ranges.len() != exe.program().n_inputs() {
        return Err(VmError::InputArity {
            expected: exe.program().n_inputs(),
            got: input_ranges.len(),
        });
    }
    let n_out = exe.output_names().len();
    let n_chunks = opts.paths.div_ceil(CHUNK_LANES);

    let run_chunk = |i: usize| -> Result<ChunkSamples, VmError> {
        let lanes = (opts.paths - i * CHUNK_LANES).min(CHUNK_LANES);
        let seed = opts
            .seed
            .wrapping_add((i as u64 + 1).wrapping_mul(SEED_GAMMA));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = exe.new_state(lanes);
        let mut inputs: Vec<Vec<f64>> = vec![vec![0.0; lanes]; input_ranges.len()];
        let collected = opts.steps - opts.warmup;
        let mut samples: ChunkSamples = vec![Vec::with_capacity(lanes * collected); n_out];
        for step in 0..opts.steps {
            for (lane_values, r) in inputs.iter_mut().zip(input_ranges) {
                if r.is_point() {
                    lane_values.fill(r.lo());
                } else {
                    for v in lane_values.iter_mut() {
                        *v = rng.gen_range(r.lo()..r.hi());
                    }
                }
            }
            exe.step(&mut state, &inputs)?;
            if step >= opts.warmup {
                for (k, out) in samples.iter_mut().enumerate() {
                    let exact = exe.exact_out(&state, k);
                    let quant = exe.quant_out(&state, k);
                    out.extend(quant.iter().zip(exact).map(|(&q, &e)| q - e));
                }
            }
        }
        Ok(samples)
    };

    let chunks = run_chunks(n_chunks, opts.workers, cancelled, &run_chunk);
    merge_stats(exe, n_out, chunks, opts.bins)
}

/// Deterministic fan-out shared by [`simulate`] and the trace replay
/// driver: workers steal chunk indices from a cursor; results are
/// reassembled in chunk order before merging. `workers == 0` means
/// available hardware parallelism, and no more workers than chunks
/// ever run. The cancellation check gates every chunk claim; a chunk
/// abandoned to cancellation leaves its slot empty, which the caller's
/// merge reads as `Cancelled` (never a panic).
pub(crate) fn run_chunks(
    n_chunks: usize,
    workers: usize,
    cancelled: &(dyn Fn() -> bool + Sync),
    run_chunk: &(dyn Fn(usize) -> Result<ChunkSamples, VmError> + Sync),
) -> Vec<Result<ChunkSamples, VmError>> {
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    }
    .clamp(1, n_chunks);
    if workers == 1 {
        (0..n_chunks)
            .map(|i| {
                if cancelled() {
                    Err(VmError::Cancelled)
                } else {
                    run_chunk(i)
                }
            })
            .collect()
    } else {
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<std::sync::Mutex<Option<Result<ChunkSamples, VmError>>>> =
            (0..n_chunks).map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if cancelled() {
                        break;
                    }
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    *results[i].lock().expect("chunk slot lock") = Some(run_chunk(i));
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("chunk slot lock")
                    .unwrap_or(Err(VmError::Cancelled))
            })
            .collect()
    }
}

/// Merges chunk results in chunk-index order — the sample sequence
/// (and therefore every statistic) is identical for any worker count —
/// and reduces them to per-output statistics.
pub(crate) fn merge_stats(
    exe: &Executable,
    n_out: usize,
    chunks: Vec<Result<ChunkSamples, VmError>>,
    bins: usize,
) -> Result<Vec<OutputStats>, VmError> {
    let mut merged: Vec<Vec<f64>> = vec![Vec::new(); n_out];
    for chunk in chunks {
        let chunk = chunk?;
        for (into, from) in merged.iter_mut().zip(chunk) {
            into.extend(from);
        }
    }

    exe.output_names()
        .iter()
        .zip(&merged)
        .map(|(name, samples)| stats_of(name, samples, bins))
        .collect()
}

fn stats_of(name: &str, samples: &[f64], bins: usize) -> Result<OutputStats, VmError> {
    if samples.is_empty() {
        return Err(VmError::NoSamples);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let variance = samples.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
    let power = samples.iter().map(|e| e * e).sum::<f64>() / n;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let histogram = Histogram::from_samples(samples.iter().copied(), bins)?;
    Ok(OutputStats {
        name: name.to_string(),
        mean,
        variance,
        min,
        max,
        power,
        samples: samples.len(),
        histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use sna_dfg::DfgBuilder;
    use sna_fixp::WlConfig;
    use std::sync::Arc;

    fn toy_exe() -> (Executable, Vec<Interval>) {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let p = b.mul(s, s);
        b.output("p", p);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); 2];
        let config = WlConfig::from_ranges(&dfg, &ranges, 10).unwrap();
        let exe = Executable::new(Arc::new(Program::compile(&dfg)), &dfg, &config);
        (exe, ranges)
    }

    #[test]
    fn worker_count_never_changes_a_bit() {
        let (exe, ranges) = toy_exe();
        let opts = SimOptions {
            paths: 10_000,
            steps: 1,
            warmup: 0,
            workers: 1,
            ..SimOptions::default()
        };
        let base = simulate(&exe, &ranges, &opts, &|| false).unwrap();
        for workers in [2, 4, 8] {
            let alt = simulate(&exe, &ranges, &SimOptions { workers, ..opts }, &|| false).unwrap();
            for (a, b) in base.iter().zip(&alt) {
                assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                assert_eq!(a.variance.to_bits(), b.variance.to_bits());
                assert_eq!(a.min.to_bits(), b.min.to_bits());
                assert_eq!(a.max.to_bits(), b.max.to_bits());
                assert_eq!(a.samples, b.samples);
            }
        }
    }

    #[test]
    fn different_seeds_differ_same_seed_repeats() {
        let (exe, ranges) = toy_exe();
        let opts = SimOptions {
            paths: 2_000,
            steps: 1,
            warmup: 0,
            ..SimOptions::default()
        };
        let a = simulate(&exe, &ranges, &opts, &|| false).unwrap();
        let b = simulate(&exe, &ranges, &opts, &|| false).unwrap();
        assert_eq!(a[0].mean.to_bits(), b[0].mean.to_bits());
        let c = simulate(&exe, &ranges, &SimOptions { seed: 1, ..opts }, &|| false).unwrap();
        assert_ne!(a[0].mean.to_bits(), c[0].mean.to_bits());
    }

    #[test]
    fn cancellation_stops_the_fan_out() {
        let (exe, ranges) = toy_exe();
        let opts = SimOptions {
            paths: 10_000,
            steps: 1,
            warmup: 0,
            workers: 4,
            ..SimOptions::default()
        };
        // Already-cancelled: both the serial and parallel paths fail.
        for workers in [1, 4] {
            let opts = SimOptions { workers, ..opts };
            assert!(matches!(
                simulate(&exe, &ranges, &opts, &|| true),
                Err(VmError::Cancelled)
            ));
        }
        // A check that is polled but never fires leaves the report
        // bit-identical.
        let polls = std::sync::atomic::AtomicUsize::new(0);
        let a = simulate(&exe, &ranges, &opts, &|| false).unwrap();
        let b = simulate(&exe, &ranges, &opts, &|| {
            polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            false
        })
        .unwrap();
        assert!(polls.into_inner() >= 1);
        assert_eq!(a[0].mean.to_bits(), b[0].mean.to_bits());
        assert_eq!(a[0].variance.to_bits(), b[0].variance.to_bits());
    }

    #[test]
    fn degenerate_options_are_rejected() {
        let (exe, ranges) = toy_exe();
        let opts = SimOptions {
            paths: 0,
            ..SimOptions::default()
        };
        assert!(matches!(
            simulate(&exe, &ranges, &opts, &|| false),
            Err(VmError::NoSamples)
        ));
        let opts = SimOptions {
            steps: 4,
            warmup: 4,
            ..SimOptions::default()
        };
        assert!(matches!(
            simulate(&exe, &ranges, &opts, &|| false),
            Err(VmError::NoSamples)
        ));
        assert!(matches!(
            simulate(&exe, &ranges[..1], &SimOptions::default(), &|| false),
            Err(VmError::InputArity {
                expected: 2,
                got: 1
            })
        ));
    }
}
