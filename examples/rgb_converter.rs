//! Error PDFs of the ITU RGB→YCrCb converter at a given word length —
//! the paper's Figure 3 in miniature.
//!
//! Run with: `cargo run --release --example rgb_converter`

use sna::core::{AnalysisRequest, EngineKind, Session, WlChoice};
use sna::designs::rgb_to_ycrcb;
use sna::fixp::WlConfig;
use sna::hist::RenderOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = rgb_to_ycrcb();
    println!("{} — inputs ∈ [70, 100]\n", design.description);

    let w = 12;
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, w)?;
    let session = Session::new(design.dfg, design.input_ranges)?;
    let reports = session
        .analyze(&AnalysisRequest {
            engine: EngineKind::Auto,
            words: WlChoice::Config(cfg),
            bins: 64,
            ..AnalysisRequest::default()
        })?
        .reports;

    for (name, r) in &reports {
        println!(
            "output {name}: mean {:.3e}, σ {:.3e}, bounds [{:.3e}, {:.3e}]",
            r.mean,
            r.std_dev(),
            r.support.0,
            r.support.1
        );
        if let Some(pdf) = &r.histogram {
            print!(
                "{}",
                pdf.render_ascii(&RenderOptions {
                    max_rows: 12,
                    bar_width: 40,
                    ..RenderOptions::default()
                })
            );
        }
        println!();
    }

    // How the three channels compare: Cr/Cb carry the 0.5 coefficient
    // paths, so their noise profile differs from Y's.
    let y = &reports[0].1;
    let cb = &reports[1].1;
    println!(
        "SQNR for a unit-power signal: Y {:.1} dB, Cb {:.1} dB",
        y.sqnr_db(1.0),
        cb.sqnr_db(1.0)
    );
    Ok(())
}
