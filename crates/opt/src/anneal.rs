//! Simulated annealing over ±1-bit moves (in the spirit of the ASA
//! heuristic of Lee et al., which the paper cites).
//!
//! The walk is feasibility-preserving: candidate configurations violating
//! the noise budget are rejected outright, so every visited point is a
//! valid design.  The objective is the cost proxy; the best-ever point is
//! synthesized for real at the end.  Every proposal is a
//! single-coordinate [`crate::NoiseEval`] move — O(1) on linear graphs —
//! and independent restarts fan out through [`sna_vm::run_ordered`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::optimizer::MAX_WIDTH;
use crate::{Evaluation, OptError, Optimizer};

/// A finished walk: best-ever proxy cost and its width vector.
type WalkResult = Result<(f64, Vec<u8>), OptError>;

/// A worker's best walk, tagged with its restart index for tie-breaking.
type PartialBest = Result<Option<(f64, usize, Vec<u8>)>, OptError>;

/// Annealing schedule parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnealOptions {
    /// Proposal count (per restart).
    pub iterations: usize,
    /// Initial temperature as a fraction of the starting proxy cost.
    pub initial_temp_fraction: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
    /// Independent restarts, run in parallel with seeds `seed`,
    /// `seed + 1`, …; the best result (ties to the lowest restart index)
    /// wins, so the outcome does not depend on the worker count.
    pub restarts: usize,
    /// Worker-thread cap for the parallel restarts; `0` means available
    /// parallelism, and at most [`sna_vm::MAX_WORKERS`] run. The result
    /// is identical for every value (the merge is worker-count
    /// independent) — this only bounds concurrency, e.g. for a server
    /// enforcing a client-supplied `threads` knob.
    pub threads: usize,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            iterations: 4000,
            initial_temp_fraction: 0.05,
            cooling: 0.999,
            seed: 0xA11EA1,
            restarts: 1,
            threads: 0,
        }
    }
}

impl Optimizer<'_> {
    /// Simulated annealing under a noise budget, starting from the
    /// uniform width `start_w`.
    ///
    /// # Errors
    ///
    /// [`OptError::Infeasible`] when the start violates the budget;
    /// evaluation failures are propagated.
    pub fn anneal(
        &self,
        budget: f64,
        start_w: u8,
        opts: &AnnealOptions,
    ) -> Result<Evaluation, OptError> {
        let restarts = opts.restarts.max(1);
        // Every walk costs the same iteration count, so static striding
        // (job `t` runs restarts `t, t+workers, …`) partitions the work
        // evenly, one job per worker, and keeps memory bounded by the
        // worker count; partial bests merge by `(cost, restart index)`,
        // making the winner independent of worker count and scheduling.
        let workers = sna_vm::worker_count(restarts, opts.threads);
        let partials: Vec<PartialBest> = sna_vm::run_ordered(workers, workers, |t| {
            let mut best: Option<(f64, usize, Vec<u8>)> = None;
            for r in (t..restarts).step_by(workers) {
                let (cost, w) = self.anneal_walk(budget, start_w, opts, r as u64)?;
                if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
                    best = Some((cost, r, w));
                }
            }
            Ok(best)
        });
        let mut best: Option<(f64, usize, Vec<u8>)> = None;
        for partial in partials {
            if let Some((cost, r, w)) = partial? {
                let better = best
                    .as_ref()
                    .map(|(c, br, _)| cost < *c || (cost == *c && r < *br))
                    .unwrap_or(true);
                if better {
                    best = Some((cost, r, w));
                }
            }
        }
        let (_, _, w) = best.expect("restarts >= 1");
        self.evaluate(w)
    }

    /// One annealing walk with seed `opts.seed + restart`, returning the
    /// best-ever `(proxy cost, widths)`.
    fn anneal_walk(
        &self,
        budget: f64,
        start_w: u8,
        opts: &AnnealOptions,
        restart: u64,
    ) -> WalkResult {
        let mut w = self.uniform_vector(start_w);
        let mut ev = self.evaluator(&w)?;
        let noise = ev.power();
        if noise > budget {
            return Err(OptError::Infeasible {
                budget,
                best_noise: noise,
            });
        }
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(restart));
        let mut scratch = self.proxy_scratch();
        let mut cost = self.proxy_cost_with(&w, &mut scratch);
        let mut best = (cost, w.clone());
        let mut temp = cost * opts.initial_temp_fraction;
        let limited = !self.exec_budget.is_unlimited();
        for it in 0..opts.iterations {
            // Execution-budget checkpoint every 256 proposals; a budget
            // that never fires changes nothing (the RNG stream is
            // untouched).
            if limited && it & 255 == 0 {
                self.exec_budget.check()?;
            }
            let i = rng.gen_range(0..w.len());
            let down = rng.gen_bool(0.7); // bias toward trimming
            let old = w[i];
            let new = if down {
                old.saturating_sub(1).max(self.min_w[i])
            } else {
                (old + 1).min(MAX_WIDTH)
            };
            if new == old {
                temp *= opts.cooling;
                continue;
            }
            if ev.set(i, new)? > budget {
                ev.undo();
                temp *= opts.cooling;
                continue;
            }
            w[i] = new;
            let trial_cost = self.proxy_cost_with(&w, &mut scratch);
            let delta = trial_cost - cost;
            let accept = delta <= 0.0 || {
                let p = (-delta / temp.max(1e-12)).exp();
                rng.gen_bool(p.clamp(0.0, 1.0))
            };
            if accept {
                cost = trial_cost;
                if cost < best.0 {
                    best = (cost, w.clone());
                }
            } else {
                w[i] = old;
                ev.undo();
            }
            temp *= opts.cooling;
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_core::Session;
    use sna_dfg::DfgBuilder;
    use sna_hls::SynthesisConstraints;
    use sna_interval::Interval;

    fn setup() -> Session {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.7, x1);
        let t2 = b.mul_const(0.02, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        Session::new(
            b.build().unwrap(),
            vec![
                Interval::new(-1.0, 1.0).unwrap(),
                Interval::new(-1.0, 1.0).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn anneal_meets_budget_and_improves_on_start() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(12).unwrap();
        let annealed = opt
            .anneal(
                fixed.noise_power,
                16,
                &AnnealOptions {
                    iterations: 1500,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(annealed.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        let start_proxy = opt.proxy_cost(&opt.uniform_vector(16));
        assert!(opt.proxy_cost(&annealed.word_lengths) < start_proxy);
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(10).unwrap();
        let opts = AnnealOptions {
            iterations: 800,
            seed: 42,
            ..Default::default()
        };
        let a = opt.anneal(fixed.noise_power, 14, &opts).unwrap();
        let b = opt.anneal(fixed.noise_power, 14, &opts).unwrap();
        assert_eq!(a.word_lengths, b.word_lengths);
        // A different seed may differ (not asserted), but must be feasible.
        let c = opt
            .anneal(
                fixed.noise_power,
                14,
                &AnnealOptions {
                    iterations: 800,
                    seed: 43,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(c.noise_power <= fixed.noise_power * (1.0 + 1e-12));
    }

    #[test]
    fn parallel_restarts_match_the_best_serial_restart() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(10).unwrap();
        let multi = AnnealOptions {
            iterations: 500,
            seed: 7,
            restarts: 4,
            ..Default::default()
        };
        let a = opt.anneal(fixed.noise_power, 14, &multi).unwrap();
        let b = opt.anneal(fixed.noise_power, 14, &multi).unwrap();
        // Restart fan-out is deterministic across runs (and therefore
        // across scheduling orders).
        assert_eq!(a.word_lengths, b.word_lengths);
        // The multi-restart result is never worse than the single-restart
        // walk with the same base seed.
        let single = opt
            .anneal(
                fixed.noise_power,
                14,
                &AnnealOptions {
                    iterations: 500,
                    seed: 7,
                    restarts: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(opt.proxy_cost(&a.word_lengths) <= opt.proxy_cost(&single.word_lengths) + 1e-9);
        assert!(a.noise_power <= fixed.noise_power * (1.0 + 1e-12));
    }

    #[test]
    fn infeasible_start_is_rejected() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        assert!(opt.anneal(1e-300, 12, &AnnealOptions::default()).is_err());
    }
}
