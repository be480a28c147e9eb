//! Analytic sensitivity allocation (Han/Evans-style).
//!
//! With the uniform-quantization model, node `i` at width `wᵢ` contributes
//! `cᵢ·4^(−wᵢ)` to the output noise power, where `cᵢ` folds the
//! quantization-step scaling and the L2 transfer gain.  Minimizing a
//! linearized cost `Σ sᵢ·wᵢ` under `Σ cᵢ·4^(−wᵢ) ≤ B` gives the
//! closed-form waterfilling solution
//!
//! ```text
//! wᵢ = log₄(λ·ln4·cᵢ / sᵢ)
//! ```
//!
//! with `λ` found by bisection.  After integer rounding, a repair pass
//! adds bits where they buy the most noise until the budget holds.

use crate::optimizer::MAX_WIDTH;
use crate::{Evaluation, OptError, Optimizer};

impl Optimizer<'_> {
    /// Analytic waterfilling allocation under a noise budget.
    ///
    /// # Errors
    ///
    /// [`OptError::Infeasible`] when the budget is unreachable within the
    /// bounds; evaluation failures are propagated.
    pub fn waterfill(&self, budget: f64) -> Result<Evaluation, OptError> {
        let n = self.dfg.len();
        // Sensitivities cᵢ measured empirically from the model: noise
        // delta when node i moves from wide to wide-1 ≈ (3/4)·cᵢ·4^(−w).
        let wide = self.uniform_vector(MAX_WIDTH);
        let mut ev = self.evaluator(&wide)?;
        let base_noise = ev.power();
        if base_noise > budget {
            return Err(OptError::Infeasible {
                budget,
                best_noise: base_noise,
            });
        }
        let c = self.sensitivities_with(&mut ev)?;
        let mut probe = wide.clone();
        let mut scratch = self.proxy_scratch();
        // Cost slopes sᵢ: proxy delta per bit at the wide point.
        let mut s = vec![0.0f64; n];
        let base_proxy = self.proxy_cost_with(&wide, &mut scratch);
        for i in 0..n {
            if wide[i] <= self.min_w[i] {
                s[i] = f64::INFINITY; // pinned nodes never move
                continue;
            }
            probe[i] -= 1;
            s[i] = (base_proxy - self.proxy_cost_with(&probe, &mut scratch)).max(1e-12);
            probe[i] += 1;
        }

        // Bisection on log₄λ; larger λ ⇒ wider words ⇒ less noise.
        let assign = |lambda_log4: f64, this: &Self| -> Vec<u8> {
            let mut w: Vec<u8> = (0..n)
                .map(|i| {
                    if !s[i].is_finite() {
                        // Pinned at the minimum (cannot widen anyway).
                        return this.min_w[i];
                    }
                    if c[i] <= 0.0 {
                        // No measurable sensitivity: either truly exact
                        // (adders — fixed below) or a constant whose
                        // rounding error is not a smooth function of width
                        // — keep it wide, the final trim pass shrinks it.
                        return MAX_WIDTH;
                    }
                    let ideal = lambda_log4 + ((4f64.ln()) * c[i] / s[i]).log(4.0);
                    (ideal.ceil().clamp(0.0, 64.0) as u8).clamp(this.min_w[i], MAX_WIDTH)
                })
                .collect();
            // Zero-sensitivity exact ops (adders etc.) must keep all
            // argument bits, otherwise the separable model's premise
            // collapses.
            this.widen_exact_nodes(&mut w);
            w
        };
        let (mut lo, mut hi) = (-32.0f64, 64.0f64);
        // Ensure the high end is feasible (evaluated once — the former
        // code here paid the full evaluation twice on the error path).
        let hi_noise = ev.set_vector(&assign(hi, self))?;
        if hi_noise > budget {
            return Err(OptError::Infeasible {
                budget,
                best_noise: hi_noise,
            });
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if ev.set_vector(&assign(mid, self))? <= budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let mut w = assign(hi, self);
        let mut noise = ev.set_vector(&w)?;

        // Repair: if rounding left us above budget, widen the node with
        // the best noise reduction per cost until feasible.
        let mut guard = 0;
        while noise > budget {
            let mut best: Option<(f64, usize)> = None;
            for i in 0..n {
                if w[i] >= MAX_WIDTH {
                    continue;
                }
                let dn = noise - ev.probe(i, w[i] + 1)?;
                if dn > 0.0 {
                    let score = dn / s[i].max(1e-12);
                    if best.as_ref().map(|(sc, _)| score > *sc).unwrap_or(true) {
                        best = Some((score, i));
                    }
                }
            }
            match best {
                Some((_, i)) => {
                    w[i] += 1;
                    noise = ev.set(i, w[i])?;
                }
                None => {
                    return Err(OptError::Infeasible {
                        budget,
                        best_noise: noise,
                    })
                }
            }
            guard += 1;
            if guard > 64 * n {
                return Err(OptError::Infeasible {
                    budget,
                    best_noise: noise,
                });
            }
        }
        // Final trim: nodes the analytic formula kept conservatively wide
        // (constants, rounding slack) shed bits while the budget holds.
        loop {
            let mut changed = false;
            #[allow(clippy::needless_range_loop)] // `w[i]` is mutated in the loop body
            for i in 0..n {
                while w[i] > self.min_w[i] {
                    if ev.set(i, w[i] - 1)? <= budget {
                        w[i] -= 1;
                        changed = true;
                    } else {
                        ev.undo();
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.evaluate(w)
    }
}

#[cfg(test)]
mod tests {
    use crate::Optimizer;
    use sna_core::Session;
    use sna_dfg::DfgBuilder;
    use sna_hls::SynthesisConstraints;
    use sna_interval::Interval;

    #[test]
    fn waterfill_meets_budget() {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let t1 = b.mul_const(0.8, x1);
        let t2 = b.mul_const(0.01, x2);
        let y = b.add(t1, t2);
        b.output("y", y);
        let r = vec![
            Interval::new(-1.0, 1.0).unwrap(),
            Interval::new(-1.0, 1.0).unwrap(),
        ];
        let s = Session::new(b.build().unwrap(), r).unwrap();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let fixed = opt.uniform(12).unwrap();
        let wf = opt.waterfill(fixed.noise_power).unwrap();
        assert!(wf.noise_power <= fixed.noise_power * (1.0 + 1e-12));
        // High-gain path keeps at least as many bits as the low-gain one.
        let hot = wf.word_lengths[t1.index()];
        let cold = wf.word_lengths[t2.index()];
        assert!(hot >= cold, "hot {hot} < cold {cold}");
    }

    #[test]
    fn waterfill_is_not_wasteful() {
        // At a loose budget the allocation should sit well below max.
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let y = b.mul_const(0.5, x);
        b.output("y", y);
        let r = vec![Interval::new(-1.0, 1.0).unwrap()];
        let s = Session::new(b.build().unwrap(), r).unwrap();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let loose = opt.uniform(6).unwrap();
        let wf = opt.waterfill(loose.noise_power).unwrap();
        assert!(wf.word_lengths.iter().all(|&w| w < 20));
    }
}
