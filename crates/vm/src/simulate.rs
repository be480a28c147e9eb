//! The Monte-Carlo driver: K×N sampled paths through an [`Executable`]
//! with deterministic seed fan-out and a deterministic merge.
//!
//! # Determinism contract
//!
//! The lane population is split into fixed-size *chunks*; chunk `i`
//! seeds its own `StdRng` from
//! `seed + (i+1) · 0x9E3779B97F4A7C15` (wrapping), and the chunks fan
//! out through [`crate::run_ordered`], whose workers pull chunk indices
//! from an atomic cursor.  Results are merged in chunk-index order, so
//! the output is a pure function of `(program, ranges, options)` — the
//! worker count only changes wall-clock time, never a single bit of the
//! report.  This is asserted across 1/4/8 workers in the core test
//! suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sna_hist::{Grid, HistError, Histogram};
use sna_interval::Interval;

use crate::exec::Executable;
use crate::VmError;

/// Lanes per chunk: big enough to amortize the instruction sweep, small
/// enough that a design's full register file (two f64 banks × lanes;
/// ~580 KB for FIR-25's 71 registers) stays in a per-core L2, and that
/// chunk-level work stealing balances uneven core counts.
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
    /// Worker threads; 0 means available hardware parallelism, and at
    /// most [`MAX_WORKERS`](crate::MAX_WORKERS) run.
    pub workers: usize,
    /// Bins of the empirical per-output error histogram; `None` builds
    /// no histogram.
    pub bins: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            paths: 100_000,
            seed: 0x5eed_cafe,
            steps: 64,
            warmup: 16,
            workers: 0,
            bins: Some(64),
        }
    }
}

/// Empirical error statistics of one output (error = quantized − exact;
/// population variance, `power = E[e²]`).
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
    /// Histogram of the observed errors, when bins were asked for.
    pub histogram: Option<Histogram>,
}

/// One chunk's collected error samples, per output.
pub(crate) type ChunkSamples = Vec<Vec<f64>>;

/// Runs `opts.paths` Monte-Carlo sample paths and returns per-output
/// empirical error statistics.
///
/// `input_ranges[j]` is the range input `j` is drawn from (uniformly;
/// point ranges pin the input).
/// Each path runs `opts.steps` steps with fresh draws every step and
/// collects `quantized − exact` per output from step `opts.warmup`
/// onward.
///
/// `cancelled` is a cooperative cancellation check, consulted before
/// every chunk (a chunk is the smallest unit of work — at most 512
/// lanes × `steps` instruction sweeps). Once it returns `true` the
/// remaining chunks are skipped and the call fails with
/// [`VmError::Cancelled`]; chunks already computed are discarded. The
/// check must be cheap (an atomic load, a deadline comparison): it runs
/// once per chunk, on whichever worker claims the chunk. A check that
/// never fires (`&|| false`) leaves the result bit-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// * [`VmError::NoSamples`] when `paths == 0` or `steps <= warmup`;
/// * [`VmError::InputArity`] on a range/input count mismatch;
/// * [`VmError::DivisionByZero`] propagated from any lane;
/// * [`VmError::Histogram`] if collected errors are non-finite (with
///   or without a histogram);
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
        let mut samples: ChunkSamples = (0..n_out)
            .map(|_| Vec::with_capacity(lanes * collected))
            .collect();
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

    let chunks = crate::run_ordered(n_chunks, opts.workers, |i| {
        if cancelled() {
            Err(VmError::Cancelled)
        } else {
            run_chunk(i)
        }
    });
    merge_stats(exe, chunks, opts.bins)
}

/// Reduces chunk results to per-output statistics, reading every
/// output's samples chunk by chunk in chunk-index order — the sample
/// sequence (and therefore every statistic, summation order included)
/// is identical for any worker count, and no merged copy is made.
pub(crate) fn merge_stats(
    exe: &Executable,
    chunks: Vec<Result<ChunkSamples, VmError>>,
    bins: Option<usize>,
) -> Result<Vec<OutputStats>, VmError> {
    let chunks = chunks.into_iter().collect::<Result<Vec<_>, _>>()?;
    exe.output_names()
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let slices: Vec<&[f64]> = chunks.iter().map(|c| c[k].as_slice()).collect();
            stats_of(name, &slices, bins)
        })
        .collect()
}

/// One output's statistics over its samples, stored in `slices` and
/// read in order, with their histogram when `bins` is given.
///
/// Two passes: the first sums the samples and their squares, tracks the
/// extremes and stops at the first non-finite sample; the second sums
/// the squared deviations from the mean and bins the samples.  Each sum
/// adds in sample order from `-0.0`, as `Iterator::sum` does.
fn stats_of(name: &str, slices: &[&[f64]], bins: Option<usize>) -> Result<OutputStats, VmError> {
    let samples = || slices.iter().flat_map(|s| s.iter().copied());
    let count: usize = slices.iter().map(|s| s.len()).sum();
    if count == 0 {
        return Err(VmError::NoSamples);
    }
    let (mut sum, mut squares) = (-0.0, -0.0);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in samples() {
        if !e.is_finite() {
            return Err(HistError::NonFinite { value: e }.into());
        }
        sum += e;
        squares += e * e;
        min = min.min(e);
        max = max.max(e);
    }
    let n = count as f64;
    let mean = sum / n;
    let mut binned = match bins {
        Some(bins) => Some((Grid::spanning_samples(min, max, bins)?, vec![0.0; bins])),
        None => None,
    };
    let mut deviations = -0.0;
    for e in samples() {
        deviations += (e - mean) * (e - mean);
        if let Some((grid, masses)) = &mut binned {
            masses[grid.bin_of(e)] += 1.0;
        }
    }
    let histogram = binned
        .map(|(grid, masses)| Histogram::from_masses(grid, masses))
        .transpose()?;
    Ok(OutputStats {
        name: name.to_string(),
        mean,
        variance: deviations / n,
        min,
        max,
        power: squares / n,
        samples: count,
        histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use sna_dfg::{Dfg, DfgBuilder};
    use sna_fixp::{Format, Overflow, Rounding, WlConfig};
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

    /// `paths` one-step paths of a combinational `dfg` under `config`,
    /// inputs on `[-1, 1]`.
    fn measure(dfg: &Dfg, config: &WlConfig, paths: usize) -> Vec<OutputStats> {
        let exe = Executable::new(Arc::new(Program::compile(dfg)), dfg, config);
        let ranges = vec![Interval::UNIT; dfg.n_inputs()];
        let opts = SimOptions {
            paths,
            steps: 1,
            warmup: 0,
            ..SimOptions::default()
        };
        simulate(&exe, &ranges, &opts, &|| false).unwrap()
    }

    /// `y = x + 0`: the input quantization is the only error source.
    fn pass_through() -> Dfg {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let zero = b.constant(0.0);
        let y = b.add(x, zero);
        b.output("y", y);
        b.build().unwrap()
    }

    #[test]
    fn rounding_error_statistics_match_theory() {
        // y = x quantized to Q1.6: error ~ U[-q/2, q/2], var = q²/12.
        let g = pass_through();
        let fmt = Format::new(8, 6).unwrap();
        let cfg = WlConfig::uniform(&g, fmt, Rounding::Nearest, Overflow::Saturate);
        let s = &measure(&g, &cfg, 40_000)[0];
        let q = fmt.resolution();
        assert!(s.mean.abs() < q / 10.0, "mean {}", s.mean);
        let expected_var = q * q / 12.0;
        assert!(
            (s.variance - expected_var).abs() < 0.15 * expected_var,
            "variance {} vs {expected_var}",
            s.variance
        );
        assert!(s.min >= -q / 2.0 - 1e-12 && s.max <= q / 2.0 + 1e-12);
    }

    #[test]
    fn truncation_biases_mean_negative() {
        let g = pass_through();
        let fmt = Format::new(8, 6).unwrap();
        let cfg = WlConfig::uniform(&g, fmt, Rounding::Truncate, Overflow::Saturate);
        let s = &measure(&g, &cfg, 20_000)[0];
        // Truncation error mean ≈ -q/2.
        let q = fmt.resolution();
        assert!((s.mean + q / 2.0).abs() < q / 8.0, "mean {}", s.mean);
    }

    #[test]
    fn error_grows_as_word_length_shrinks() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let t = b.mul_const(0.9, x);
        let y = b.add(t, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let powers: Vec<f64> = [16u8, 12, 8]
            .iter()
            .map(|&w| {
                let cfg = WlConfig::from_ranges(&g, &[Interval::UNIT], w).unwrap();
                measure(&g, &cfg, 5_000)[0].power
            })
            .collect();
        assert!(powers[0] < powers[1] && powers[1] < powers[2]);
        // At least two orders of magnitude across 8 bits.
        assert!(powers[2] / powers[0] > 100.0);
    }

    #[test]
    fn sequential_errors_are_collected_after_warmup() {
        // One-pole IIR: errors accumulate through feedback.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let fb = b.delay_placeholder();
        let t = b.mul_const(0.5, fb);
        let y = b.add(x, t);
        b.bind_delay(fb, y).unwrap();
        b.output("y", y);
        let g = b.build().unwrap();
        let cfg = WlConfig::from_ranges(&g, &[Interval::UNIT], 12).unwrap();
        let exe = Executable::new(Arc::new(Program::compile(&g)), &g, &cfg);
        let opts = SimOptions {
            paths: 125,
            steps: 48,
            warmup: 16,
            ..SimOptions::default()
        };
        let stats = simulate(&exe, &[Interval::UNIT], &opts, &|| false).unwrap();
        assert_eq!(stats[0].samples, 125 * 32);
        assert!(stats[0].variance > 0.0);
        let again = simulate(&exe, &[Interval::UNIT], &opts, &|| false).unwrap();
        assert_eq!(stats[0].variance.to_bits(), again[0].variance.to_bits());
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
