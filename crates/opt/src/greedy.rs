//! Greedy bit-trimming: the paper's main optimization loop.
//!
//! Start from a deliberately wide configuration (noise far below budget)
//! and repeatedly remove the single bit with the best cost-saving per unit
//! of noise added, while the budget holds.  Mixed word-length solutions
//! emerge naturally: bits survive only where the noise transfer gain makes
//! them worth their area.

use crate::optimizer::{MAX_WIDTH, MIN_WIDTH};
use crate::{Evaluation, NoiseEval, OptError, Optimizer};

impl Optimizer<'_> {
    /// Greedy descent under a noise budget, starting from the uniform
    /// width `start_w` (clamped per node).
    ///
    /// # Errors
    ///
    /// [`OptError::Infeasible`] when even the starting configuration
    /// exceeds the budget (try a larger `start_w`); evaluation failures
    /// are propagated.
    pub fn greedy(&self, budget: f64, start_w: u8) -> Result<Evaluation, OptError> {
        let mut w = self.uniform_vector(start_w);
        let mut ev = self.evaluator(&w)?;
        let start_noise = ev.power();
        if start_noise > budget {
            return Err(OptError::Infeasible {
                budget,
                best_noise: start_noise,
            });
        }
        // Analytic per-node sensitivities make the move ranking
        // noise-aware without per-candidate noise evaluations.
        let sens = self.sensitivities_with(&mut ev)?;
        let mut scratch = self.proxy_scratch();
        loop {
            // Rank candidate single-bit trims by proxy gain per unit of
            // estimated noise increase; spend exact noise evaluations only
            // to find the best feasible one.
            let current_proxy = self.proxy_cost_with(&w, &mut scratch);
            let mut cands: Vec<(f64, usize)> = Vec::with_capacity(w.len());
            for i in 0..w.len() {
                if w[i] <= self.min_w[i] {
                    continue;
                }
                w[i] -= 1;
                let gain = current_proxy - self.proxy_cost_with(&w, &mut scratch);
                w[i] += 1;
                if gain > 0.0 {
                    let dn_est = 3.0 * sens[i] * 4f64.powi(-(w[i] as i32));
                    cands.push((gain / dn_est.max(1e-300), i));
                }
            }
            cands.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            let mut accepted = false;
            for &(_, i) in &cands {
                if ev.set(i, w[i] - 1)? <= budget {
                    w[i] -= 1;
                    accepted = true;
                    break;
                }
                ev.undo();
            }
            if !accepted {
                break;
            }
        }
        // Escape the single-move local optimum with compensating pairs:
        // widen one node (buying noise headroom on a sensitive path) to
        // narrow another (cashing it in where bits are cheap).
        let trimmed_only = w.clone();
        self.refine_pairs(budget, &mut w, &mut ev)?;
        // Pick the best candidate by *real* synthesized weighted cost: the
        // refined configuration, the purely-trimmed one (pair refinement
        // trades proxy terms that the binder may model differently), and
        // the best feasible uniform.
        let mut best = self.evaluate(w)?;
        if trimmed_only != best.word_lengths {
            let e = self.evaluate(trimmed_only)?;
            if e.weighted_cost < best.weighted_cost {
                best = e;
            }
        }
        if let Some(uniform) = self.best_feasible_uniform(budget, start_w)? {
            if uniform != best.word_lengths {
                let e = self.evaluate(uniform)?;
                if e.weighted_cost < best.weighted_cost {
                    best = e;
                }
            }
        }
        Ok(best)
    }

    /// Local search over `(+1 on j, −1 on i…)` move pairs, guided by the
    /// analytic sensitivities: widening a *high*-sensitivity node buys the
    /// most noise headroom per bit, which is then spent narrowing
    /// *low*-sensitivity nodes.  Each accepted pair strictly reduces the
    /// proxy while keeping the budget, so the search terminates.
    ///
    /// `ev` must be positioned at `w`; it tracks every move and ends
    /// positioned at the refined `w`.
    fn refine_pairs(
        &self,
        budget: f64,
        w: &mut [u8],
        ev: &mut NoiseEval<'_>,
    ) -> Result<(), OptError> {
        let n = w.len();
        let sens = self.sensitivities_with(ev)?;
        let mut scratch = self.proxy_scratch();
        // Proposal shortlists, refreshed each round.
        let k = 24.min(n);
        let max_rounds = 16 * n;
        let mut eval_budget: u64 = 200_000;
        for _ in 0..max_rounds {
            let current = self.proxy_cost_with(w, &mut scratch);
            // j candidates: most noise headroom freed per +1 bit.
            let mut js: Vec<usize> = (0..n).filter(|&j| w[j] < MAX_WIDTH).collect();
            js.sort_by(|&a, &b| {
                let ha = sens[a] * 4f64.powi(-(w[a] as i32));
                let hb = sens[b] * 4f64.powi(-(w[b] as i32));
                hb.partial_cmp(&ha).expect("finite headroom")
            });
            js.truncate(k);
            // i candidates: cheapest noise per trimmed bit.
            let mut is: Vec<usize> = (0..n).filter(|&i| w[i] > self.min_w[i]).collect();
            is.sort_by(|&a, &b| {
                let na = sens[a] * 4f64.powi(-(w[a] as i32));
                let nb = sens[b] * 4f64.powi(-(w[b] as i32));
                na.partial_cmp(&nb).expect("finite noise")
            });
            is.truncate(k);

            let mut improved = false;
            'outer: for &j in &js {
                w[j] += 1;
                ev.set(j, w[j])?;
                for &i in &is {
                    if i == j || w[i] <= self.min_w[i] {
                        continue;
                    }
                    // Narrow i as far as the budget allows in one go.
                    let original = w[i];
                    let mut accepted = false;
                    while w[i] > self.min_w[i] {
                        if eval_budget == 0 {
                            // Out of evaluations: roll back and stop.
                            if w[i] != original {
                                w[i] = original;
                                ev.set(i, original)?;
                            }
                            w[j] -= 1;
                            ev.set(j, w[j])?;
                            return Ok(());
                        }
                        eval_budget -= 1;
                        if ev.set(i, w[i] - 1)? > budget {
                            ev.undo();
                            break;
                        }
                        w[i] -= 1;
                        accepted = true;
                    }
                    if accepted && self.proxy_cost_with(w, &mut scratch) < current {
                        improved = true;
                        break 'outer;
                    }
                    if w[i] != original {
                        w[i] = original;
                        ev.set(i, original)?;
                    }
                }
                w[j] -= 1;
                ev.set(j, w[j])?;
            }
            if !improved {
                return Ok(());
            }
        }
        Ok(())
    }

    /// The narrowest uniform configuration meeting the budget, if any
    /// exists at or below `start_w`.
    fn best_feasible_uniform(&self, budget: f64, start_w: u8) -> Result<Option<Vec<u8>>, OptError> {
        let mut best = None;
        for w in (MIN_WIDTH..=start_w).rev() {
            let v = self.uniform_vector(w);
            if self.noise_of(&v)? <= budget {
                best = Some(v);
            } else {
                break; // noise is monotone in w: narrower only gets worse
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use crate::Optimizer;
    use sna_core::Session;
    use sna_dfg::DfgBuilder;
    use sna_hls::SynthesisConstraints;
    use sna_interval::Interval;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// A design with wildly different path gains: noise through `hot` is
    /// amplified ×64, noise through `cold` is attenuated ×1/64 — exactly
    /// the situation where mixed word lengths beat uniform ones.
    fn skewed_design() -> Session {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let hot = b.mul_const(0.9, x1);
        let cold = b.mul_const(0.9, x2);
        let hot2 = b.mul_const(0.2, hot);
        let cold2 = b.mul_const(0.01, cold);
        let y = b.add(hot2, cold2);
        b.output("y", y);
        Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0), iv(-1.0, 1.0)]).unwrap()
    }

    #[test]
    fn greedy_meets_budget_and_beats_uniform_proxy() {
        let s = skewed_design();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(12).unwrap();
        let tuned = opt.greedy(fixed.noise_power, 20).unwrap();
        assert!(tuned.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        // The cost proxy (move-ranking metric) must improve on uniform.
        let fixed_proxy = opt.proxy_cost(&fixed.word_lengths);
        let tuned_proxy = opt.proxy_cost(&tuned.word_lengths);
        assert!(
            tuned_proxy <= fixed_proxy,
            "tuned {tuned_proxy} vs fixed {fixed_proxy}"
        );
    }

    #[test]
    fn greedy_with_slack_never_loses_to_uniform() {
        // With headroom above the uniform reference, the result must be at
        // least as cheap as every feasible uniform configuration (mixing is
        // design-dependent; see the FIR-like test below for that).
        let s = skewed_design();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(12).unwrap();
        let budget = 4.0 * fixed.noise_power;
        let tuned = opt.greedy(budget, 20).unwrap();
        assert!(tuned.noise_power <= budget * (1.0 + 1e-12));
        // Direct comparison against the uniform reference itself.
        assert!(opt.proxy_cost(&tuned.word_lengths) <= opt.proxy_cost(&fixed.word_lengths));
    }

    #[test]
    fn greedy_exploits_structural_gain_asymmetry() {
        // Noise injected before the 0.01 attenuator reaches the output
        // 10⁴× weaker (in power) than noise injected next to it — nodes in
        // the attenuated subtree can go very narrow.
        //   y = 0.01·(x1 + x2) + (x3 + x4)
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let x3 = b.input("x3");
        let x4 = b.input("x4");
        let quiet = b.add(x1, x2);
        let attenuated = b.mul_const(0.01, quiet);
        let loud = b.add(x3, x4);
        let y = b.add(attenuated, loud);
        b.output("y", y);
        let s = Session::new(b.build().unwrap(), vec![iv(-1.0, 1.0); 4]).unwrap();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(12).unwrap();
        let tuned = opt.greedy(fixed.noise_power, 20).unwrap();
        assert!(tuned.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        assert!(
            tuned.weighted_cost < fixed.weighted_cost,
            "structural asymmetry should beat uniform on real cost: {} vs {} ({:?})",
            tuned.weighted_cost,
            fixed.weighted_cost,
            tuned.word_lengths
        );
        // The attenuated inputs run narrower than the loud-path inputs.
        let quiet_w = tuned.word_lengths[x1.index()];
        let loud_w = tuned.word_lengths[x3.index()];
        assert!(
            quiet_w <= loud_w,
            "quiet input {quiet_w} should not exceed loud input {loud_w}: {:?}",
            tuned.word_lengths
        );
        let _ = (quiet, loud, x2, x4, y);
    }

    #[test]
    fn infeasible_start_is_reported() {
        let s = skewed_design();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        assert!(opt.greedy(1e-300, 20).is_err());
    }

    #[test]
    fn looser_budget_gives_cheaper_designs() {
        let s = skewed_design();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let tight = opt.uniform(16).unwrap().noise_power;
        let loose = opt.uniform(8).unwrap().noise_power;
        let a = opt.greedy(tight, 20).unwrap();
        let b = opt.greedy(loose, 20).unwrap();
        assert!(opt.proxy_cost(&b.word_lengths) <= opt.proxy_cost(&a.word_lengths));
    }
}
