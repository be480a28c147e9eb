//! # sna — Symbolic Noise Analysis for computational hardware optimization
//!
//! A from-scratch Rust reproduction of Ahmadi & Zwolinski, *"Symbolic Noise
//! Analysis Approach to Computational Hardware Optimization"* (DAC 2008):
//! finite-precision errors modelled as noise symbols with histogram PDFs,
//! propagated symbolically through datapaths, and used to drive
//! noise-constrained word-length optimization inside a high-level synthesis
//! flow.
//!
//! This facade re-exports the workspace crates as modules:
//!
//! | module | contents |
//! |---|---|
//! | [`interval`] | interval arithmetic (the IA baseline) |
//! | [`hist`] | histogram PDFs and Berleant-style histogram arithmetic |
//! | [`expr`] | noise symbols, multivariate polynomials |
//! | [`dfg`] | dataflow graphs, simulation, range/LTI analysis |
//! | [`fixp`] | fixed-point formats, bit-true scalar simulation |
//! | [`core`] | the SNA engines + classical NA baseline |
//! | [`hls`] | technology models, scheduling, binding, cost reports |
//! | [`designs`] | the paper's six case-study datapaths |
//! | [`opt`] | noise-constrained word-length optimizers |
//! | [`lang`] | the textual `.sna` datapath DSL |
//! | [`trace`] | streaming CSV trace ingestion + empirical input fitting |
//! | [`service`] | batch/server execution: compile cache, worker pool, wire protocol |
//!
//! # Quickstart
//!
//! ```
//! use sna::core::{AnalysisRequest, Budget, EngineKind, Session, WlChoice};
//! use sna::dfg::DfgBuilder;
//! use sna::interval::Interval;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A toy datapath: y = 0.3·x1 + 0.6·x2.
//! let mut b = DfgBuilder::new();
//! let x1 = b.input("x1");
//! let x2 = b.input("x2");
//! let t1 = b.mul_const(0.3, x1);
//! let t2 = b.mul_const(0.6, x2);
//! let y = b.add(t1, t2);
//! b.output("y", y);
//! let dfg = b.build()?;
//!
//! // One session per compiled datapath: ranges, gain models and views
//! // build lazily and are shared across requests.
//! let ranges = vec![Interval::new(-1.0, 1.0)?; 2];
//! let session = Session::new(dfg, ranges)?;
//!
//! // Symbolic noise analysis at 12 bits: full error PDF + exact
//! // moments + bounds, plus which engine actually ran and the timing.
//! let report = session.analyze(&AnalysisRequest {
//!     engine: EngineKind::Auto,
//!     words: WlChoice::Uniform(12),
//!     bins: 64,
//!     include_pdf: true,
//!     budget: Budget::unlimited(),
//! })?;
//! let noise = &report.reports[0].1;
//! println!("[{}] error ∈ [{:.2e}, {:.2e}], σ = {:.2e}",
//!          report.engine.name(),
//!          noise.support.0, noise.support.1, noise.std_dev());
//!
//! // A coefficient respin: the same graph with new constants is a new
//! // session, whose stages build cold on first use.
//! let respun = session.dfg().with_const_values(&[0.25, 0.65])?;
//! let respun = Session::new(respun, session.input_ranges().to_vec())?;
//! assert_eq!(respun.dfg().const_values(), vec![0.25, 0.65]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sna_core as core;
pub use sna_designs as designs;
pub use sna_dfg as dfg;
pub use sna_expr as expr;
pub use sna_fixp as fixp;
pub use sna_hist as hist;
pub use sna_hls as hls;
pub use sna_interval as interval;
pub use sna_lang as lang;
pub use sna_opt as opt;
pub use sna_service as service;
pub use sna_trace as trace;
