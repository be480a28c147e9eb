//! Acceptance suite for the `sna-vm` simulation backend over every
//! shipped `examples/*.sna` datapath:
//!
//! 1. **Differential**: the VM's paired exact/quantized lanes are
//!    **bit-identical** to the scalar `Simulator` / `FixedSimulator`
//!    on 64-step traces — sequential graphs, feedback, and
//!    range-overridden nodes included.  Bit-identical, not "within
//!    1e-12": the VM executes the same operations in the same order
//!    per lane (one instruction per node, no reassociation), so any
//!    divergence is a real semantics bug.
//! 2. **Statistical**: empirical (mean, variance) from ≥1e5 sampled
//!    paths agree with the analytic prediction within
//!    `5·standard-error + documented model tolerance`, across five
//!    different seeds (the flake check).
//! 3. **Determinism**: the same seed produces bit-identical reports
//!    whatever the worker count.
//! 4. **Golden**: seeded reports match recorded bit patterns, so a
//!    lane-kernel change that drifts by one ulp on any CPU tier fails
//!    here even though every in-process comparison would agree.

use std::path::PathBuf;
use std::sync::Arc;

use sna_core::{Session, SimRequest, WlChoice};
use sna_dfg::Simulator;
use sna_fixp::{FixedSimulator, WlConfig};
use sna_vm::{Executable, Program};

fn examples() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().is_some_and(|e| e == "sna")).then(|| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let source = std::fs::read_to_string(&path).unwrap();
                (name, source)
            })
        })
        .collect();
    out.sort();
    assert!(out.len() >= 7, "expected the full example set, got {out:?}");
    out
}

/// A tiny deterministic generator for in-range input traces (the test
/// needs reproducible streams, not statistical quality).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn vm_lanes_are_bit_identical_to_the_scalar_simulators_on_every_example() {
    const LANES: usize = 8;
    const STEPS: usize = 64;
    for (name, source) in examples() {
        let lowered = sna_lang::compile(&source).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let dfg = &lowered.dfg;
        // 9 bits is the floor for `rgb.sna` (its `+128` constants need
        // 8 integer bits + sign).
        for bits in [9u8, 12, 20] {
            let config = WlConfig::from_ranges(dfg, &lowered.input_ranges, bits)
                .unwrap_or_else(|e| panic!("{name} @ {bits} bits: {e}"));
            let program = Arc::new(Program::compile(dfg));
            let exe = Executable::new(Arc::clone(&program), dfg, &config);
            let mut state = exe.new_state(LANES);

            let mut refs: Vec<Simulator> = (0..LANES).map(|_| Simulator::new(dfg)).collect();
            let mut fixes: Vec<FixedSimulator> = (0..LANES)
                .map(|_| FixedSimulator::new(dfg, &config))
                .collect();
            let mut rng = Lcg(0xD1F * u64::from(bits));

            for t in 0..STEPS {
                // One frame per input, lane-major — fresh draws each
                // step, uniform over the declared range.
                let frames: Vec<Vec<f64>> = lowered
                    .input_ranges
                    .iter()
                    .map(|r| {
                        (0..LANES)
                            .map(|_| r.lo() + (r.hi() - r.lo()) * rng.next_unit())
                            .collect()
                    })
                    .collect();
                exe.step(&mut state, &frames).unwrap();
                for lane in 0..LANES {
                    let inputs: Vec<f64> = (0..dfg.n_inputs()).map(|j| frames[j][lane]).collect();
                    let want_exact = refs[lane].step(&inputs).unwrap();
                    let want_fixed = fixes[lane].step(&inputs).unwrap();
                    for k in 0..dfg.outputs().len() {
                        assert_eq!(
                            exe.exact_out(&state, k)[lane].to_bits(),
                            want_exact[k].to_bits(),
                            "{name} @ {bits} bits: exact lane diverged (t={t}, output {k})"
                        );
                        assert_eq!(
                            exe.quant_out(&state, k)[lane].to_bits(),
                            want_fixed[k].to_bits(),
                            "{name} @ {bits} bits: quant lane diverged (t={t}, output {k})"
                        );
                    }
                }
            }
        }
    }
}

/// Per-example *model* tolerance on top of the pure sampling error.
///
/// The analytic predictions are models, not ground truth, and their
/// known gaps (all pre-dating the VM — the scalar Monte-Carlo harness
/// measures the same numbers) set the floor here:
///
/// * **Variance** (relative): the NA/LTI source model injects
///   independent uniform rounding noise per node.  The sequential
///   designs violate independence: the feedback filters (`biquad`,
///   `diffeq`) recirculate requantization errors, and the FIRs (`fir`,
///   `fir_taps`) reuse each delayed sample, rounding error included, in
///   every tap — either way the errors correlate — so the model
///   *under*-predicts their variance by a design-dependent constant
///   factor (the paper's own predicted-vs-actual tables show the same
///   effect).
/// * **Mean** (in units of the error std-dev): coefficient rounding
///   `δc` is a deterministic offset whose output contribution is
///   `δc·x`.  With non-zero-mean inputs (`rgb`: [70,100] pixels,
///   `quadratic`: coefficient inputs in [9,10] etc.) that bias is not
///   captured by the gain model, which predicts a zero mean.
fn model_tolerance(example: &str) -> (f64, f64) {
    // (variance_rel_tol, mean_tol_in_stddevs)
    match example {
        "biquad.sna" => (3.5, 0.5),
        "fir.sna" => (1.2, 0.5),
        "fir_taps.sna" => (1.0, 0.5),
        "diffeq.sna" => (0.6, 0.5),
        "quadratic.sna" => (0.4, 2.5),
        "rgb.sna" => (0.4, 1.0),
        "vec_dot.sna" => (0.3, 0.5),
        other => panic!("no tolerance calibrated for {other}"),
    }
}

#[test]
fn empirical_statistics_match_the_prediction_within_documented_bounds() {
    const PATHS: usize = 100_000;
    const SEEDS: [u64; 5] = [0x5eed_cafe, 1, 42, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF];
    for (name, source) in examples() {
        let lowered = sna_lang::compile(&source).unwrap();
        let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
        let (var_tol, mean_tol) = model_tolerance(&name);
        for seed in SEEDS {
            let report = session
                .simulate(&SimRequest {
                    paths: PATHS,
                    seed,
                    ..Default::default()
                })
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.paths >= PATHS, "{name}: {} paths", report.paths);
            for out in &report.outputs {
                let n = out.samples as f64;
                let std = out.empirical.variance.sqrt();
                let Some(predicted) = &out.predicted else {
                    continue; // nonlinear sequential: nothing to check against
                };

                // Mean: 5·(sampling std error) + the documented bias
                // allowance.  Consecutive samples of one trajectory are
                // correlated, so inflate the iid standard error by a
                // conservative 3×.
                let se_mean = 3.0 * std / n.sqrt();
                let bound = 5.0 * se_mean + mean_tol * std;
                let gap = out.mean_gap.as_ref().unwrap();
                assert!(
                    gap.abs <= bound,
                    "{name} `{}` seed {seed:#x}: mean gap {:.3e} > bound {bound:.3e} \
                     (empirical {:.3e}, predicted {:.3e})",
                    out.name,
                    gap.abs,
                    out.empirical.mean,
                    predicted.mean
                );

                // Variance: 5·(relative sampling error of s², ~√(2/n),
                // same 3× correlation inflation) + the model allowance.
                let rel_bound = var_tol + 5.0 * 3.0 * (2.0 / n).sqrt();
                let vgap = out.variance_gap.as_ref().unwrap();
                let rel = vgap.rel.unwrap_or(f64::INFINITY);
                assert!(
                    rel <= rel_bound,
                    "{name} `{}` seed {seed:#x}: variance off by {:.1}% > {:.1}% \
                     (empirical {:.3e}, predicted {:.3e})",
                    out.name,
                    rel * 100.0,
                    rel_bound * 100.0,
                    out.empirical.variance,
                    predicted.variance
                );
            }
        }
    }
}

#[test]
fn same_seed_is_bit_identical_across_worker_counts() {
    for name in ["fir.sna", "rgb.sna"] {
        let (_, source) = examples().into_iter().find(|(n, _)| n == name).unwrap();
        let lowered = sna_lang::compile(&source).unwrap();
        let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
        let reference = session
            .simulate(&SimRequest {
                paths: 30_000,
                workers: 1,
                ..Default::default()
            })
            .unwrap();
        for workers in [4usize, 8] {
            let report = session
                .simulate(&SimRequest {
                    paths: 30_000,
                    workers,
                    ..Default::default()
                })
                .unwrap();
            for (a, b) in reference.outputs.iter().zip(&report.outputs) {
                assert_eq!(
                    a.empirical.mean.to_bits(),
                    b.empirical.mean.to_bits(),
                    "{name}: mean diverged at {workers} workers"
                );
                assert_eq!(
                    a.empirical.variance.to_bits(),
                    b.empirical.variance.to_bits(),
                    "{name}: variance diverged at {workers} workers"
                );
                assert_eq!(
                    a.empirical.support, b.empirical.support,
                    "{name}: support diverged at {workers} workers"
                );
            }
        }
    }
}

/// Word lengths each example is simulated at by the end-to-end
/// benchmark's warm-mix workload (`rgb`'s `+128` constants need more
/// than 8 bits).
fn warm_mix_bits(example: &str) -> [u8; 2] {
    if example == "rgb.sna" {
        [12, 16]
    } else {
        [8, 12]
    }
}

/// The `to_bits` of every output's mean, variance, power, min and max
/// for every example × warm-mix word length × seed {1, 12345}, 4096
/// paths on one worker, as recorded in `fixtures/simulate_golden.txt`.
/// The fixture was taken before the lane kernels gained their
/// clamp-before-round form and their AVX2/AVX-512 tiers; every tier
/// must still reproduce it exactly.
#[test]
fn seeded_simulate_reports_match_the_golden_fixture() {
    let golden = include_str!("fixtures/simulate_golden.txt");
    let mut got = String::new();
    for (name, source) in examples() {
        let lowered = sna_lang::compile(&source).unwrap();
        let session = Session::new(lowered.dfg, lowered.input_ranges).unwrap();
        for bits in warm_mix_bits(&name) {
            for seed in [1u64, 12345] {
                let report = session
                    .simulate(&SimRequest {
                        words: WlChoice::Uniform(bits),
                        paths: 4096,
                        seed,
                        workers: 1,
                        include_pdf: false,
                        ..Default::default()
                    })
                    .unwrap_or_else(|e| panic!("{name} @ {bits} bits: {e}"));
                for out in &report.outputs {
                    let e = &out.empirical;
                    got.push_str(&format!(
                        "{name} {bits} {seed} {} {:016x} {:016x} {:016x} {:016x} {:016x}\n",
                        out.name,
                        e.mean.to_bits(),
                        e.variance.to_bits(),
                        e.power.to_bits(),
                        e.support.0.to_bits(),
                        e.support.1.to_bits(),
                    ));
                }
            }
        }
    }
    for (line, (want, got)) in golden.lines().zip(got.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", line + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "line count");
}
