//! Quickstart: analyze the rounding noise of a small weighted-sum datapath
//! and print its error PDF.
//!
//! Run with: `cargo run --example quickstart`

use sna::core::{AnalysisRequest, EngineKind, Session, WlChoice};
use sna::dfg::DfgBuilder;
use sna::fixp::WlConfig;
use sna::hist::RenderOptions;
use sna::interval::Interval;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // y = 0.3·x1 + 0.6·x2 − 0.1·x3
    let mut b = DfgBuilder::new();
    let x1 = b.input("x1");
    let x2 = b.input("x2");
    let x3 = b.input("x3");
    let t1 = b.mul_const(0.3, x1);
    let t2 = b.mul_const(0.6, x2);
    let t3 = b.mul_const(0.1, x3);
    let s = b.add(t1, t2);
    let y = b.sub(s, t3);
    b.output("y", y);
    let dfg = b.build()?;

    let ranges = vec![Interval::new(-1.0, 1.0)?; 3];
    let session = Session::new(dfg.clone(), ranges.clone())?;
    let analyze = |cfg: WlConfig| {
        session.analyze(&AnalysisRequest {
            engine: EngineKind::Auto,
            words: WlChoice::Config(cfg),
            bins: 128,
            ..AnalysisRequest::default()
        })
    };

    println!("datapath: y = 0.3·x1 + 0.6·x2 − 0.1·x3, inputs ∈ [-1, 1]\n");
    println!(
        "{:>4} | {:>12} | {:>12} | {:>24}",
        "W", "mean", "std dev", "guaranteed bounds"
    );
    println!("{}", "-".repeat(64));
    for w in [8u8, 12, 16] {
        let cfg = WlConfig::from_ranges(&dfg, &ranges, w)?;
        let reports = analyze(cfg)?.reports;
        let r = &reports[0].1;
        println!(
            "{w:>4} | {:>12.3e} | {:>12.3e} | [{:>10.3e}, {:>10.3e}]",
            r.mean,
            r.std_dev(),
            r.support.0,
            r.support.1
        );
    }

    // Show the full error PDF at W = 8.
    let cfg = WlConfig::from_ranges(&dfg, &ranges, 8)?;
    let reports = analyze(cfg)?.reports;
    if let Some(pdf) = &reports[0].1.histogram {
        println!("\nerror PDF at W = 8:\n");
        print!(
            "{}",
            pdf.render_ascii(&RenderOptions {
                max_rows: 24,
                ..RenderOptions::default()
            })
        );
    }
    Ok(())
}
