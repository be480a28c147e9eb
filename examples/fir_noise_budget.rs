//! Designing to an SQNR target: find the smallest uniform word length that
//! meets a signal-to-quantization-noise requirement, validate the analytic
//! prediction against bit-true Monte-Carlo simulation, then recover area
//! with mixed word lengths.
//!
//! Run with: `cargo run --release --example fir_noise_budget`

use sna::core::{NaModel, Session, SimRequest, WlChoice};
use sna::designs::fir;
use sna::dfg::LtiOptions;
use sna::fixp::WlConfig;
use sna::hls::SynthesisConstraints;
use sna::opt::Optimizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = fir(11);
    let target_sqnr_db = 50.0;
    // Uniform input on [-1, 1]: signal power 1/3 at the filter input; the
    // low-pass keeps most of it, so use the input power as the reference.
    let signal_power = 1.0 / 3.0;

    println!("{} — target SQNR {target_sqnr_db} dB\n", design.description);

    let model = NaModel::build(&design.dfg, &design.input_ranges, &LtiOptions::default())?;
    let mut chosen = None;
    println!("{:>4} | {:>12} | {:>9}", "W", "noise power", "SQNR dB");
    println!("{}", "-".repeat(32));
    for w in 6..=24u8 {
        let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, w)?;
        let power = model.total_power(&design.dfg, &cfg);
        let sqnr = 10.0 * (signal_power / power).log10();
        println!("{w:>4} | {power:>12.3e} | {sqnr:>9.1}");
        if sqnr >= target_sqnr_db && chosen.is_none() {
            chosen = Some((w, cfg, power));
        }
    }
    let (w, cfg, predicted) = chosen.expect("24 bits always meets 50 dB here");
    println!("\nsmallest uniform W meeting the target: {w}");

    // Validate against bit-true simulation: 30 000 error samples, each
    // path collecting 48 of its 64 steps.
    let session = Session::new(design.dfg.clone(), design.input_ranges.clone())?;
    let measured = session.simulate(&SimRequest {
        words: WlChoice::Config(cfg),
        paths: 30_000usize.div_ceil(64 - 16),
        steps: Some(64),
        warmup: Some(16),
        include_pdf: false,
        ..SimRequest::default()
    })?;
    let measured_power = measured.outputs[0].empirical.power;
    println!(
        "predicted noise power {predicted:.3e}, measured {measured_power:.3e} (ratio {:.2})",
        predicted / measured_power
    );

    // Recover cost with mixed word lengths at the same noise budget.
    let opt = Optimizer::new(&session, SynthesisConstraints::default())?;
    let fixed = opt.uniform(w)?;
    let tuned = opt.waterfill(fixed.noise_power)?;
    println!(
        "\nuniform  W={w}: area {:.0} µm², power {:.1} µW",
        fixed.cost.area_um2, fixed.cost.power_uw
    );
    println!(
        "waterfill:    area {:.0} µm², power {:.1} µW  (noise {:.3e} ≤ budget {:.3e})",
        tuned.cost.area_um2, tuned.cost.power_uw, tuned.noise_power, fixed.noise_power
    );
    Ok(())
}
