//! The trace replay driver: recorded sample rows through an
//! [`Executable`]'s paired exact/quantized lane banks, instead of RNG
//! draws — the measured-signal counterpart of [`crate::simulate`].
//!
//! # Replay scheme
//!
//! The trace is cut into *segments* of [`ReplayOptions::seg`]
//! consecutive rows; each segment becomes one VM lane. Before a
//! segment's rows are collected, the lane replays the
//! [`ReplayOptions::warmup`] rows preceding the segment (zero-filled
//! where the trace does not reach back far enough) so delay registers
//! carry realistic state across segment boundaries. For a
//! combinational design use `seg = 1, warmup = 0`: rows map straight
//! onto lanes. For an FIR-style design whose memory is at most
//! `warmup` steps deep, the segmented replay is *exactly* the
//! continuous single-lane replay; for feedback designs with longer
//! memory it is an overlap approximation — raise `warmup` to tighten
//! it.
//!
//! # Determinism contract
//!
//! Segments are grouped into fixed-size chunks and fanned out through
//! [`crate::run_ordered`], like [`crate::simulate`], with results
//! merged in chunk-index order. There is no RNG anywhere: the collected
//! error sequence is the trace's row order, and the report is a pure
//! function of `(program, trace, options)` — the worker count never
//! changes a single bit.

use crate::exec::Executable;
use crate::simulate::{merge_stats, ChunkSamples, OutputStats, CHUNK_LANES};
use crate::VmError;

/// Options for [`replay`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayOptions {
    /// Rows collected per lane segment (1 maps rows straight onto
    /// lanes; 0 is treated as 1).
    pub seg: usize,
    /// Overlap rows replayed before each segment to warm delay state.
    pub warmup: usize,
    /// Worker threads; 0 means available hardware parallelism, and at
    /// most [`MAX_WORKERS`](crate::MAX_WORKERS) run.
    pub workers: usize,
    /// Bins of the empirical per-output error histogram; `None` builds
    /// no histogram.
    pub bins: Option<usize>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            seg: 512,
            warmup: 64,
            workers: 0,
            bins: Some(64),
        }
    }
}

/// Replays a recorded trace through the executable and returns
/// per-output empirical error statistics over exactly the trace's
/// rows, in row order.
///
/// `columns[j]` holds input `j`'s recorded samples; all columns must
/// be the same length (the row count).
///
/// `cancelled` is consulted before every chunk exactly like
/// [`crate::simulate`]'s check; one that never fires (`&|| false`)
/// leaves the result bit-identical to an uninterrupted replay.
///
/// # Errors
///
/// * [`VmError::InputArity`] on a column/input count mismatch or
///   unequal column lengths;
/// * [`VmError::NoSamples`] when the trace has no rows (or the design
///   has no inputs to drive);
/// * [`VmError::DivisionByZero`] propagated from any lane;
/// * [`VmError::Histogram`] if collected errors are non-finite;
/// * [`VmError::Cancelled`] when the check fires.
pub fn replay(
    exe: &Executable,
    columns: &[Vec<f64>],
    opts: &ReplayOptions,
    cancelled: &(dyn Fn() -> bool + Sync),
) -> Result<Vec<OutputStats>, VmError> {
    let n_inputs = exe.program().n_inputs();
    if columns.len() != n_inputs {
        return Err(VmError::InputArity {
            expected: n_inputs,
            got: columns.len(),
        });
    }
    let rows = columns.first().map_or(0, Vec::len);
    if let Some(bad) = columns.iter().find(|c| c.len() != rows) {
        return Err(VmError::InputArity {
            expected: rows,
            got: bad.len(),
        });
    }
    if rows == 0 {
        return Err(VmError::NoSamples);
    }
    let seg = opts.seg.max(1);
    let warmup = opts.warmup;
    let n_out = exe.output_names().len();
    let n_segments = rows.div_ceil(seg);
    let n_chunks = n_segments.div_ceil(CHUNK_LANES);

    let run_chunk = |i: usize| -> Result<ChunkSamples, VmError> {
        let seg_first = i * CHUNK_LANES;
        let lanes = (n_segments - seg_first).min(CHUNK_LANES);
        let mut state = exe.new_state(lanes);
        let mut inputs: Vec<Vec<f64>> = vec![vec![0.0; lanes]; n_inputs];
        // Per-output, per-lane buffers: concatenating lanes in order at
        // the end restores the trace's global row order.
        let mut per_lane: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); lanes]; n_out];
        for t in 0..warmup + seg {
            for (lane_values, col) in inputs.iter_mut().zip(columns) {
                for (l, v) in lane_values.iter_mut().enumerate() {
                    // Lane l replays rows [start − warmup, start + seg)
                    // of its segment; rows before the trace are
                    // zero-filled (a fresh, silent signal — identical
                    // to the VM's own zeroed delay state).
                    let start = (seg_first + l) * seg;
                    let r = (start + t) as i64 - warmup as i64;
                    *v = if (0..rows as i64).contains(&r) {
                        col[r as usize]
                    } else {
                        0.0
                    };
                }
            }
            exe.step(&mut state, &inputs)?;
            if t >= warmup {
                let c = t - warmup;
                for (k, out) in per_lane.iter_mut().enumerate() {
                    let exact = exe.exact_out(&state, k);
                    let quant = exe.quant_out(&state, k);
                    for l in 0..lanes {
                        // The final segment is short: collect only
                        // rows that exist.
                        if (seg_first + l) * seg + c < rows {
                            out[l].push(quant[l] - exact[l]);
                        }
                    }
                }
            }
        }
        Ok(per_lane
            .into_iter()
            .map(|lanes_vec| lanes_vec.into_iter().flatten().collect())
            .collect())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use sna_dfg::DfgBuilder;
    use sna_fixp::WlConfig;
    use sna_interval::Interval;
    use std::sync::Arc;

    fn comb_exe() -> Executable {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let p = b.mul(s, s);
        b.output("p", p);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap(); 2];
        let config = WlConfig::from_ranges(&dfg, &ranges, 10).unwrap();
        Executable::new(Arc::new(Program::compile(&dfg)), &dfg, &config)
    }

    /// A 3-tap moving average: memory two delays deep.
    fn fir_exe() -> Executable {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let d1 = b.delay(x);
        let d2 = b.delay(d1);
        let s = b.add(x, d1);
        let s = b.add(s, d2);
        let y = b.mul_const(1.0 / 3.0, s);
        b.output("y", y);
        let dfg = b.build().unwrap();
        let ranges = vec![Interval::new(-1.0, 1.0).unwrap()];
        let config = WlConfig::from_ranges(&dfg, &ranges, 12).unwrap();
        Executable::new(Arc::new(Program::compile(&dfg)), &dfg, &config)
    }

    /// A deterministic pseudo-signal in (-1, 1).
    fn wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let s = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64;
                s / (1u64 << 53) as f64 * 1.9 - 0.95
            })
            .collect()
    }

    #[test]
    fn combinational_replay_collects_every_row_in_order() {
        let exe = comb_exe();
        let cols = vec![wave(1000), wave(1000).iter().map(|v| -v).collect()];
        let opts = ReplayOptions {
            seg: 1,
            warmup: 0,
            workers: 1,
            bins: Some(32),
        };
        let stats = replay(&exe, &cols, &opts, &|| false).unwrap();
        assert_eq!(stats[0].samples, 1000);
        assert!(stats[0].variance >= 0.0);
    }

    #[test]
    fn worker_count_never_changes_a_bit() {
        let exe = fir_exe();
        let cols = vec![wave(40_000)];
        let opts = ReplayOptions {
            seg: 16,
            warmup: 8,
            workers: 1,
            bins: Some(32),
        };
        let base = replay(&exe, &cols, &opts, &|| false).unwrap();
        assert_eq!(base[0].samples, 40_000);
        for workers in [2, 4, 8] {
            let alt = replay(&exe, &cols, &ReplayOptions { workers, ..opts }, &|| false).unwrap();
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
    fn segmented_replay_matches_continuous_when_warmup_covers_the_memory() {
        let exe = fir_exe();
        let cols = vec![wave(3000)];
        // Continuous: one segment spanning the whole trace.
        let continuous = replay(
            &exe,
            &cols,
            &ReplayOptions {
                seg: 3000,
                warmup: 0,
                workers: 1,
                bins: Some(32),
            },
            &|| false,
        )
        .unwrap();
        // Segmented with warmup ≥ the FIR's two-delay memory.
        let segmented = replay(
            &exe,
            &cols,
            &ReplayOptions {
                seg: 64,
                warmup: 2,
                workers: 1,
                bins: Some(32),
            },
            &|| false,
        )
        .unwrap();
        assert_eq!(continuous[0].samples, segmented[0].samples);
        assert_eq!(
            continuous[0].mean.to_bits(),
            segmented[0].mean.to_bits(),
            "overlap replay must reproduce the continuous run exactly"
        );
        assert_eq!(
            continuous[0].variance.to_bits(),
            segmented[0].variance.to_bits()
        );
    }

    #[test]
    fn shape_mismatches_and_empty_traces_are_structured_errors() {
        let exe = comb_exe();
        let opts = ReplayOptions::default();
        assert!(matches!(
            replay(&exe, &[vec![1.0]], &opts, &|| false),
            Err(VmError::InputArity {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            replay(&exe, &[vec![1.0, 2.0], vec![1.0]], &opts, &|| false),
            Err(VmError::InputArity { .. })
        ));
        assert!(matches!(
            replay(&exe, &[vec![], vec![]], &opts, &|| false),
            Err(VmError::NoSamples)
        ));
    }

    #[test]
    fn cancellation_stops_the_fan_out() {
        let exe = comb_exe();
        let cols = vec![wave(2000), wave(2000)];
        let opts = ReplayOptions {
            seg: 1,
            warmup: 0,
            workers: 4,
            bins: Some(32),
        };
        for workers in [1, 4] {
            let opts = ReplayOptions { workers, ..opts };
            assert!(matches!(
                replay(&exe, &cols, &opts, &|| true),
                Err(VmError::Cancelled)
            ));
        }
        let polls = std::sync::atomic::AtomicUsize::new(0);
        let a = replay(&exe, &cols, &opts, &|| false).unwrap();
        let b = replay(&exe, &cols, &opts, &|| {
            polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            false
        })
        .unwrap();
        assert!(polls.into_inner() >= 1);
        assert_eq!(a[0].mean.to_bits(), b[0].mean.to_bits());
    }
}
