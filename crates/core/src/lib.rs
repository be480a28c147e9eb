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
//! Six engines cover the practical trade-off space. Each is one
//! [`EngineKind`] that [`Session::analyze`] dispatches on, and each
//! takes the request's cooperative [`Budget`]:
//!
//! | [`EngineKind`] | engine | inputs | cost | produces |
//! |---|---|---|---|---|
//! | `Na` | [`NaModel`] | linear (incl. feedback) DFG | gains once, then `O(#sources)` | exact moments, no PDF |
//! | `Lti` | [`LtiEngine`] | linear (incl. feedback) DFG | gains once, then `O(#sources · bins²)` (a uniform contribution: `bins` deposits) | moments exact, PDF by CLT + convolution |
//! | `Dfg` | [`DfgEngine`] | combinational [`sna_dfg::Dfg`] (or a per-sample view) | per-op `O(bins²)` | value + error histograms per node |
//! | `Symbolic` | [`SymbolicEngine`] | combinational polynomial DFG (or a per-sample view) | term growth bounded | Eq.(1) polynomials; exact moments |
//! | `Cartesian` | [`CartesianEngine`] | combinational DFG or closed-form expression | `bins^#inputs` | exact Section-4 value PDF |
//! | `Simulate` | [`Session::simulate`] on the `sna_vm` bytecode | any DFG | `paths × steps` | empirical error statistics |
//!
//! `EngineKind::Auto` picks LTI for linear graphs and the DFG engine for
//! nonlinear combinational ones.
//!
//! The shared noise-source model ([`NoiseSource`], [`loses_precision`])
//! lives here too.
//!
//! # Example
//!
//! Analyze the rounding noise of `y = 0.3·x₁ + 0.6·x₂` at 8 bits:
//!
//! ```
//! use sna_core::{Budget, DfgEngine, EngineOptions};
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
//!     .analyze(&dfg, &cfg, &ranges, &Budget::unlimited())?;
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
pub use engine::{AnalysisReport, AnalysisRequest, EngineKind, ReportKind, WlChoice};
pub use error::SnaError;
pub use lti_engine::LtiEngine;
pub use na::{CoeffKind, CoeffSite, NaModel};
pub use report::NoiseReport;
pub use session::{PerSample, Session, SessionStats};
pub use simulate::{Gap, SimOutput, SimReport, SimRequest};
pub use sources::{loses_precision, IntroducesNoise, NoiseSource};
pub use symbolic::{SymbolicEngine, SymbolicOptions, SymbolicResult};
pub use trace::{TraceInputFit, TraceReport, TraceRequest};
