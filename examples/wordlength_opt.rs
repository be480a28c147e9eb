//! Noise-constrained word-length optimization of the FIR-25 case study —
//! one row of the paper's Table 4, live.
//!
//! Run with: `cargo run --release --example wordlength_opt`

use sna::core::Session;
use sna::designs::fir25;
use sna::hls::SynthesisConstraints;
use sna::opt::Optimizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = fir25();
    println!("{}\n", design.description);

    let session = Session::new(design.dfg.clone(), design.input_ranges.clone())?;
    let opt = Optimizer::new(&session, SynthesisConstraints::default())?;

    let w = 12;
    let fixed = opt.uniform(w)?;
    println!(
        "fixed W={w}:   area {:>9.0} µm², power {:>9.1} µW, latency {:>4} cycles, noise {:.3e}",
        fixed.cost.area_um2, fixed.cost.power_uw, fixed.cost.latency_cycles, fixed.noise_power
    );

    // Optimize with the uniform design's noise as the constraint.
    let tuned = opt.greedy(fixed.noise_power, w + 8)?;
    println!(
        "optimized:   area {:>9.0} µm², power {:>9.1} µW, latency {:>4} cycles, noise {:.3e}",
        tuned.cost.area_um2, tuned.cost.power_uw, tuned.cost.latency_cycles, tuned.noise_power
    );

    let imp = |a: f64, b: f64| 100.0 * (a - b) / a;
    println!(
        "improvement: area {:.1}%, power {:.1}%, latency {:.1}%",
        imp(fixed.cost.area_um2, tuned.cost.area_um2),
        imp(fixed.cost.power_uw, tuned.cost.power_uw),
        imp(
            fixed.cost.latency_cycles as f64,
            tuned.cost.latency_cycles as f64
        )
    );

    // Show the mixed word-length assignment the optimizer found.
    let mut hist = std::collections::BTreeMap::new();
    for &wl in &tuned.word_lengths {
        *hist.entry(wl).or_insert(0usize) += 1;
    }
    println!("\nword-length histogram of the optimized design:");
    for (wl, count) in hist {
        println!("  {wl:>2} bits × {count}");
    }
    Ok(())
}
