//! Design-space exploration: sweep uniform word lengths over the RGB
//! converter, extract the Pareto front over (area, power, latency,
//! noise), and show the accuracy/cost trade curve a designer picks from.
//!
//! Run with: `cargo run --release --example design_space`

use sna::core::Session;
use sna::designs::rgb_to_ycrcb;
use sna::hls::SynthesisConstraints;
use sna::opt::Optimizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = rgb_to_ycrcb();
    println!("{} — uniform word-length sweep\n", design.description);

    let session = Session::new(design.dfg.clone(), design.input_ranges.clone())?;
    let opt = Optimizer::new(&session, SynthesisConstraints::default())?;
    let front = opt.pareto_sweep(6..=20)?;

    println!(
        "{:>4} | {:>10} | {:>9} | {:>7} | {:>11} | {:>9}",
        "W", "area µm²", "power µW", "cycles", "noise", "SQNR dB"
    );
    println!("{}", "-".repeat(66));
    let signal_power = 85.0f64.powi(2); // mid-scale video level
    for e in &front {
        let w = e.word_lengths.iter().max().unwrap();
        let sqnr = 10.0 * (signal_power / e.noise_power).log10();
        println!(
            "{w:>4} | {:>10.0} | {:>9.1} | {:>7} | {:>11.3e} | {:>9.1}",
            e.cost.area_um2, e.cost.power_uw, e.cost.latency_cycles, e.noise_power, sqnr
        );
    }
    println!(
        "\n{} non-dominated points (every sweep point survives: noise falls\n\
         and cost rises monotonically with W — the textbook trade curve).",
        front.len()
    );

    // Pick the cheapest point above 60 dB SQNR and refine it.
    if let Some(e) = front
        .iter()
        .find(|e| 10.0 * (signal_power / e.noise_power).log10() >= 60.0)
    {
        let w = *e.word_lengths.iter().max().unwrap();
        println!("\ncheapest ≥60 dB point: W = {w}; optimizing at its noise budget…");
        let tuned = opt.greedy(e.noise_power, w + 6)?;
        println!(
            "  fixed:     area {:>8.0}, power {:>8.1}, latency {}",
            e.cost.area_um2, e.cost.power_uw, e.cost.latency_cycles
        );
        println!(
            "  optimized: area {:>8.0}, power {:>8.1}, latency {}",
            tuned.cost.area_um2, tuned.cost.power_uw, tuned.cost.latency_cycles
        );
    }
    Ok(())
}
