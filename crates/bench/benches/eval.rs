//! Per-sample error-evaluation throughput: the scalar simulator pair
//! (`Simulator` + `FixedSimulator` in lockstep, the Monte-Carlo
//! harness's inner loop) against the `sna-vm` bytecode interpreter
//! sweeping `LANES` contiguous sample paths per instruction, on
//! FIR-25.
//!
//! Both sides do identical numerical work per sample — one exact and
//! one quantized evaluation of every node, error = quantized − exact —
//! so samples/sec is directly comparable.  The VM is bit-identical to
//! the scalar pair (asserted here on the first lane, and exhaustively
//! in `sna-core`'s differential suite); the win is purely layout:
//! flat registers, no per-step allocation, auto-vectorizable lane
//! loops.
//!
//! Besides the Criterion groups, `main` measures sustained samples/sec
//! for both backends plus the VM's cold compile+bind time, asserts the
//! ≥10× speedup the backend exists for, and writes `BENCH_eval.json`
//! at the workspace root so CI tracks the numbers over time.  The JSON
//! names the lane-kernel tier that ran (`"isa"`: `avx512`, `avx2` or
//! `portable`, the widest the host CPU reports), since the VM figure
//! depends on it.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use sna_designs::{fir, Design};
use sna_dfg::Simulator;
use sna_fixp::{FixedSimulator, WlConfig};
use sna_vm::{Executable, Program};

const BITS: u8 = 12;
const LANES: usize = 512;

/// Deterministic in-range input frames (statistical quality is
/// irrelevant here; both backends consume the same distribution).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn frame(&mut self, design: &Design, lanes: usize) -> Vec<Vec<f64>> {
        design
            .input_ranges
            .iter()
            .map(|r| {
                (0..lanes)
                    .map(|_| r.lo() + (r.hi() - r.lo()) * self.next_unit())
                    .collect()
            })
            .collect()
    }
}

struct Measured {
    isa: &'static str,
    vm_samples_per_s: f64,
    scalar_samples_per_s: f64,
    compile_us: f64,
}

fn measure(design: &Design) -> Measured {
    let config = WlConfig::from_ranges(&design.dfg, &design.input_ranges, BITS)
        .expect("FIR-25 fits at 12 bits");

    // Cold compile+bind: graph → register-allocated bytecode → bound
    // executable, averaged over enough repeats to resolve microseconds.
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        let program = Arc::new(Program::compile(&design.dfg));
        std::hint::black_box(Executable::new(program, &design.dfg, &config));
    }
    let compile_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let program = Arc::new(Program::compile(&design.dfg));
    let exe = Executable::new(Arc::clone(&program), &design.dfg, &config);

    // Sanity: first VM lane bit-identical to the scalar pair before
    // timing anything.
    {
        let mut state = exe.new_state(LANES);
        let mut reference = Simulator::new(&design.dfg);
        let mut fixed = FixedSimulator::new(&design.dfg, &config);
        let mut rng = Lcg(0x0BEC);
        for _ in 0..16 {
            let frames = rng.frame(design, LANES);
            exe.step(&mut state, &frames).unwrap();
            let inputs: Vec<f64> = frames.iter().map(|f| f[0]).collect();
            let want_exact = reference.step(&inputs).unwrap();
            let want_fixed = fixed.step(&inputs).unwrap();
            assert_eq!(
                exe.exact_out(&state, 0)[0].to_bits(),
                want_exact[0].to_bits()
            );
            assert_eq!(
                exe.quant_out(&state, 0)[0].to_bits(),
                want_fixed[0].to_bits()
            );
        }
    }

    // VM throughput: samples = lanes × steps (one error observation per
    // lane per step).
    let steps = 256;
    let mut state = exe.new_state(LANES);
    let mut rng = Lcg(0x5EED);
    let frames: Vec<Vec<Vec<f64>>> = (0..8).map(|_| rng.frame(design, LANES)).collect();
    let t0 = Instant::now();
    for t in 0..steps {
        exe.step(&mut state, &frames[t % frames.len()]).unwrap();
        std::hint::black_box(exe.quant_out(&state, 0)[0]);
    }
    let vm_samples_per_s = (LANES * steps) as f64 / t0.elapsed().as_secs_f64();

    // Scalar-pair throughput: the Monte-Carlo inner loop, one sample
    // per step.
    let scalar_steps = 50_000;
    let mut reference = Simulator::new(&design.dfg);
    let mut fixed = FixedSimulator::new(&design.dfg, &config);
    let mut rng = Lcg(0x5EED);
    let inputs: Vec<Vec<f64>> = (0..64)
        .map(|_| {
            design
                .input_ranges
                .iter()
                .map(|r| r.lo() + (r.hi() - r.lo()) * rng.next_unit())
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    for t in 0..scalar_steps {
        let frame = &inputs[t % inputs.len()];
        let e = reference.step(frame).unwrap();
        let q = fixed.step(frame).unwrap();
        std::hint::black_box(q[0] - e[0]);
    }
    let scalar_samples_per_s = scalar_steps as f64 / t0.elapsed().as_secs_f64();

    Measured {
        isa: exe.isa().name(),
        vm_samples_per_s,
        scalar_samples_per_s,
        compile_us,
    }
}

fn bench_eval(c: &mut Criterion) {
    let design = fir(25);
    let config = WlConfig::from_ranges(&design.dfg, &design.input_ranges, BITS).unwrap();

    let mut group = c.benchmark_group("eval_fir25");
    {
        let mut reference = Simulator::new(&design.dfg);
        let mut fixed = FixedSimulator::new(&design.dfg, &config);
        let mut rng = Lcg(1);
        let frame: Vec<f64> = design
            .input_ranges
            .iter()
            .map(|r| r.lo() + (r.hi() - r.lo()) * rng.next_unit())
            .collect();
        group.bench_function("scalar_pair_step", |b| {
            b.iter(|| {
                let e = reference.step(&frame).unwrap();
                let q = fixed.step(&frame).unwrap();
                q[0] - e[0]
            })
        });
    }
    {
        let program = Arc::new(Program::compile(&design.dfg));
        let exe = Executable::new(program, &design.dfg, &config);
        let mut state = exe.new_state(LANES);
        let mut rng = Lcg(1);
        let frames = rng.frame(&design, LANES);
        group.bench_function("vm_step_512_lanes", |b| {
            b.iter(|| {
                exe.step(&mut state, &frames).unwrap();
                exe.quant_out(&state, 0)[0]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval);

fn main() {
    benches();

    let m = measure(&fir(25));
    let speedup = m.vm_samples_per_s / m.scalar_samples_per_s;
    assert!(
        speedup >= 10.0,
        "VM speedup {speedup:.1}× below the 10× floor \
         (vm {:.0}/s, scalar {:.0}/s)",
        m.vm_samples_per_s,
        m.scalar_samples_per_s
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"eval\",\n",
            "  \"fir25\": {{\"isa\": \"{}\", \"vm_samples_per_s\": {:.0}, ",
            "\"scalar_samples_per_s\": {:.0}, \"speedup\": {:.2}, ",
            "\"compile_us\": {:.1}}}\n",
            "}}\n"
        ),
        m.isa, m.vm_samples_per_s, m.scalar_samples_per_s, speedup, m.compile_us,
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json");
    std::fs::write(&path, &json).expect("write BENCH_eval.json");
    println!("{json}");
    println!("wrote {}", path.display());
}
