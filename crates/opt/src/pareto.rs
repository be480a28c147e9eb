//! Multi-objective design-space exploration: uniform word-length sweeps
//! and Pareto-front extraction over (area, power, latency, noise).
//!
//! The paper frames word-length selection as a Multi-Objective
//! Optimization; its tables fix the noise axis and optimize a weighted
//! cost.  This module exposes the complementary view: the set of
//! non-dominated implementations across the whole word-length range, from
//! which a designer picks an operating point.

use crate::{Evaluation, OptError, Optimizer};

/// The four objectives of a design point, smaller-is-better.
fn objectives(e: &Evaluation) -> [f64; 4] {
    [
        e.cost.area_um2,
        e.cost.power_uw,
        e.cost.latency_cycles as f64,
        e.noise_power,
    ]
}

/// `a` dominates `b` iff it is no worse on every objective and strictly
/// better on at least one.
pub(crate) fn dominates(a: &Evaluation, b: &Evaluation) -> bool {
    let (oa, ob) = (objectives(a), objectives(b));
    let mut strictly = false;
    for (x, y) in oa.iter().zip(ob.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// The canonical total order of the front: objectives lexicographically
/// (via `total_cmp`, so even exotic floats order consistently), then the
/// word-length vector as a tiebreak.  Two points comparing `Equal` are
/// exact duplicates of the same configuration.
pub(crate) fn canonical_cmp(a: &Evaluation, b: &Evaluation) -> std::cmp::Ordering {
    let (oa, ob) = (objectives(a), objectives(b));
    for (x, y) in oa.iter().zip(ob.iter()) {
        let o = x.total_cmp(y);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    a.word_lengths.cmp(&b.word_lengths)
}

/// Filters a set of evaluations down to its non-dominated subset in a
/// canonical total order (objective tuple, then the word-length vector
/// as a tiebreak); exact duplicates (same
/// objectives *and* same word lengths) collapse to one point.
///
/// The canonical sort makes the result a pure function of the input
/// *set* — independent of arrival order, thread interleaving or
/// checkpoint boundaries — which is what lets a resumed sweep reproduce
/// an uninterrupted one bit for bit: `front(front(a) ∪ b) = front(a ∪
/// b)`.  It also carries the skyline property that a dominator sorts
/// strictly earlier (it is no worse on every objective and better on
/// one, hence lexicographically smaller), so each point only needs
/// checking against the *already kept* prefix — `O(n·k)` for a front of
/// size `k` instead of the all-pairs `O(n²)`.
pub fn pareto_front(mut points: Vec<Evaluation>) -> Vec<Evaluation> {
    points.sort_by(canonical_cmp);
    points.dedup_by(|a, b| canonical_cmp(a, b) == std::cmp::Ordering::Equal);
    let mut kept: Vec<Evaluation> = Vec::new();
    'points: for p in points {
        for k in &kept {
            if dominates(k, &p) {
                continue 'points;
            }
        }
        kept.push(p);
    }
    kept
}

impl Optimizer<'_> {
    /// Sweeps uniform word lengths over `w_range`, evaluating each with
    /// the real synthesis flow, and returns the non-dominated set over
    /// (area, power, latency, noise).
    ///
    /// # Errors
    ///
    /// Synthesis failures are propagated; word lengths whose formats
    /// cannot represent the ranges are widened per node as usual.
    pub fn pareto_sweep(
        &self,
        w_range: impl IntoIterator<Item = u8>,
    ) -> Result<Vec<Evaluation>, OptError> {
        let mut evals = Vec::new();
        for w in w_range {
            evals.push(self.uniform(w)?);
        }
        Ok(pareto_front(evals))
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
        let x = b.input("x");
        let t = b.mul_const(0.6, x);
        let y = b.add(t, x);
        b.output("y", y);
        Session::new(b.build().unwrap(), vec![Interval::new(-1.0, 1.0).unwrap()]).unwrap()
    }

    #[test]
    fn uniform_sweep_is_its_own_pareto_front() {
        // For a uniform sweep, noise strictly decreases with w and cost
        // strictly increases, so no point dominates another.
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let front = opt.pareto_sweep(6..=14).unwrap();
        assert_eq!(front.len(), 9);
        // Sorted by construction: noise decreasing, area nondecreasing.
        for pair in front.windows(2) {
            assert!(pair[1].noise_power < pair[0].noise_power);
            assert!(pair[1].cost.area_um2 >= pair[0].cost.area_um2);
        }
    }

    #[test]
    fn dominated_points_are_filtered() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let a = opt.uniform(8).unwrap();
        let b = opt.uniform(12).unwrap();
        // Fabricate a point strictly worse than `a` in noise with `a`'s
        // cost: a uniform 8 evaluated again but with its noise bumped.
        let mut worse = a.clone();
        worse.noise_power *= 2.0;
        let front = pareto_front(vec![a.clone(), worse, b]);
        assert_eq!(front.len(), 2);
        assert!(front
            .iter()
            .all(|e| (e.noise_power - a.noise_power).abs() < 1e-15
                || e.cost.area_um2 != a.cost.area_um2
                || e.noise_power <= a.noise_power));
    }

    #[test]
    fn front_is_order_independent_and_collapses_duplicates() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let evals: Vec<Evaluation> = (6..=14).map(|w| opt.uniform(w).unwrap()).collect();
        let forward = pareto_front(evals.clone());
        let mut reversed: Vec<Evaluation> = evals.iter().rev().cloned().collect();
        // Exact duplicates must collapse to one canonical point.
        reversed.push(evals[3].clone());
        reversed.push(evals[3].clone());
        let backward = pareto_front(reversed);
        assert_eq!(forward.len(), backward.len());
        for (a, b) in forward.iter().zip(backward.iter()) {
            assert_eq!(a.word_lengths, b.word_lengths);
            assert_eq!(a.noise_power.to_bits(), b.noise_power.to_bits());
            assert_eq!(a.cost.area_um2.to_bits(), b.cost.area_um2.to_bits());
        }
        // Idempotent and absorbing: front(front(a) ∪ b) == front(a ∪ b).
        let split = {
            let mut partial = pareto_front(evals[..5].to_vec());
            partial.extend(evals[5..].iter().cloned());
            pareto_front(partial)
        };
        assert_eq!(split.len(), forward.len());
        for (a, b) in forward.iter().zip(split.iter()) {
            assert_eq!(a.word_lengths, b.word_lengths);
        }
    }

    #[test]
    fn domination_is_irreflexive_and_needs_strictness() {
        let s = setup();
        let opt = Optimizer::new(&s, SynthesisConstraints::default()).unwrap();
        let a = opt.uniform(10).unwrap();
        assert!(!dominates(&a, &a));
        let twin = a.clone();
        assert!(!dominates(&a, &twin) && !dominates(&twin, &a));
    }
}
