//! Noise-constrained word-length optimization — the paper's
//! Multi-Objective Optimization stage (Tables 3–6).
//!
//! The problem: choose a word length for every node of a datapath so that
//! a weighted implementation cost (area, power, latency from the
//! [`sna_hls`] flow) is minimized subject to the output noise power
//! staying at or below a budget — typically the noise of the uniform-WL
//! reference design, exactly how the paper's tables are set up.
//!
//! Five optimizers share one [`Optimizer`] facade, built with
//! [`Optimizer::new`] on top of a compiled [`sna_core::Session`] so the
//! searches reuse its NA model, node ranges and histogram memo:
//!
//! | method | strategy | role |
//! |---|---|---|
//! | [`Optimizer::uniform`] | all nodes at `w` | the "Fixed WL" reference column |
//! | [`Optimizer::greedy`] | start wide, trim the bit with the best cost/noise ratio | the paper's main loop |
//! | [`Optimizer::waterfill`] | analytic Lagrangian allocation (Han/Evans-style sensitivity) | fast baseline |
//! | [`Optimizer::anneal`] | simulated annealing over ±1-bit moves (Lee et al. style) | refinement |
//! | [`Optimizer::group_greedy`] | one shared width per node class (Kum/Sung grouping) | coarse baseline |
//! | [`Optimizer::exhaustive`] | full search over a small neighbourhood | optimality reference on toy designs |
//!
//! Inner-loop noise evaluations go through the incremental [`NoiseEval`]
//! state machine: O(1) coordinate moves against the precomputed
//! [`sna_core::NaModel`] gain terms on linear graphs, cone-limited
//! histogram re-propagation with memoization on the nonlinear fallback
//! (see the [`eval`](NoiseEval) module docs for the complexity model).
//! Implementation costs use a per-node proxy for move ranking and the
//! real HLS flow for reported numbers.  Exhaustive odometer chunks,
//! annealing restarts and Pareto sweep candidates fan out through
//! [`sna_vm::run_ordered`], so every result is identical for any thread
//! count.
//!
//! # Example
//!
//! ```
//! use sna_core::Session;
//! use sna_dfg::DfgBuilder;
//! use sna_hls::SynthesisConstraints;
//! use sna_interval::Interval;
//! use sna_opt::Optimizer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DfgBuilder::new();
//! let x = b.input("x");
//! let t = b.mul_const(0.25, x);
//! let y = b.add(t, x);
//! b.output("y", y);
//! let session = Session::new(b.build()?, vec![Interval::new(-1.0, 1.0)?])?;
//!
//! let opt = Optimizer::new(&session, SynthesisConstraints::default())?;
//! let fixed = opt.uniform(12)?;
//! let tuned = opt.greedy(fixed.noise_power, 16)?;
//! assert!(tuned.noise_power <= fixed.noise_power * (1.0 + 1e-9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod error;
mod eval;
mod greedy;
mod optimizer;
mod pareto;
mod sweep;
mod waterfill;

pub use anneal::AnnealOptions;
pub use error::OptError;
pub use eval::NoiseEval;
pub use optimizer::{CostWeights, Evaluation, Optimizer};
pub use pareto::pareto_front;
pub use sweep::{
    pareto_explore, FrontPoint, ParetoOutcome, ParetoSweepSpec, SweepObjective, CKPT_KIND,
};
