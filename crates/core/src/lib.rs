//! Symbolic Noise Analysis (SNA) — the core contribution of
//! Ahmadi & Zwolinski, *"Symbolic Noise Analysis Approach to Computational
//! Hardware Optimization"*, DAC 2008.
//!
//! SNA models every finite-precision error in a datapath as a *noise
//! symbol*: a bounded random variable on `[-1, 1]` carrying a probability
//! density represented as a histogram.  Error propagation combines the two
//! classical schools — range analysis (IA/AA: guaranteed bounds, no
//! distribution) and statistical noise analysis (NA: distributions under
//! LTI + white-noise assumptions) — into one mechanism that yields bounds
//! *and* full output PDFs without restrictive statistical assumptions.
//!
//! Four engines cover the practical trade-off space:
//!
//! | engine | inputs | cost | produces |
//! |---|---|---|---|
//! | [`CartesianEngine`] | closed-form expression | exponential in #symbols | exact Section-4 algorithm |
//! | [`DfgEngine`] | combinational [`sna_dfg::Dfg`] | per-op `O(bins²)` | value + error histograms per node |
//! | [`LtiEngine`] | linear (incl. feedback) DFG | gains once, then `O(#sources)` | moments exact, PDF by CLT + convolution |
//! | [`SymbolicEngine`] | combinational polynomial DFG | term growth bounded | Eq.(1) polynomials; exact moments |
//!
//! The classical NA baseline ([`NaModel`]) and the shared noise-source
//! model ([`NoiseSource`], [`noise_sources`]) live here too.
//!
//! # Example
//!
//! Analyze the rounding noise of `y = 0.3·x₁ + 0.6·x₂` at 8 bits:
//!
//! ```
//! use sna_core::{DfgEngine, EngineOptions};
//! use sna_dfg::DfgBuilder;
//! use sna_fixp::WlConfig;
//! use sna_interval::Interval;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DfgBuilder::new();
//! let x1 = b.input("x1");
//! let x2 = b.input("x2");
//! let t1 = b.mul_const(0.3, x1);
//! let t2 = b.mul_const(0.6, x2);
//! let y = b.add(t1, t2);
//! b.output("y", y);
//! let dfg = b.build()?;
//!
//! let ranges = [Interval::new(-1.0, 1.0)?, Interval::new(-1.0, 1.0)?];
//! let cfg = WlConfig::from_ranges(&dfg, &ranges, 8)?;
//! let reports = DfgEngine::new(EngineOptions::default())
//!     .analyze(&dfg, &cfg, &ranges)?;
//! let y_noise = &reports[0].1;
//! assert!(y_noise.variance > 0.0);
//! assert!(y_noise.support.0 < 0.0 && y_noise.support.1 > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cartesian;
mod dfg_engine;
pub mod engine;
mod error;
mod lti_engine;
mod na;
mod report;
mod session;
mod simulate;
mod sources;
mod symbolic;
mod trace;

pub use budget::Budget;
pub use cartesian::{CartesianEngine, UncertainInput};
pub use dfg_engine::{DfgEngine, EngineOptions, HistMemo, Uncertain, Value};
pub use engine::{
    AnalysisReport, AnalysisRequest, Engine, EngineKind, ReportKind, SimulateEngine, WlChoice,
};
pub use error::SnaError;
pub use lti_engine::LtiEngine;
pub use na::{CoeffKind, CoeffSite, GainPatch, NaModel};
pub use report::NoiseReport;
pub use session::{PerSample, Session, SessionStats};
pub use simulate::{Gap, SimOutput, SimReport, SimRequest};
pub use sources::{noise_sources, IntroducesNoise, NoiseSource};
pub use symbolic::{SymbolicEngine, SymbolicOptions, SymbolicResult};
pub use trace::{TraceInputFit, TraceReport, TraceRequest};
