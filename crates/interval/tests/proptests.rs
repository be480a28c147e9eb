//! Property-based tests for interval arithmetic.
//!
//! The fundamental soundness property of IA is *inclusion isotonicity*:
//! for any points chosen inside the operand ranges, the result of the real
//! operation lies inside the computed range.

use proptest::prelude::*;
use sna_interval::Interval;

const BOUND: f64 = 1e6;

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (-BOUND..BOUND, -BOUND..BOUND)
        .prop_map(|(a, b): (f64, f64)| Interval::new(a.min(b), a.max(b)).unwrap())
}

/// A point inside a given interval, parameterized by t in [0,1].
fn point_in(iv: &Interval, t: f64) -> f64 {
    iv.lerp(t.clamp(0.0, 1.0))
}

proptest! {
    #[test]
    fn add_is_inclusion_isotonic(a in interval_strategy(), b in interval_strategy(),
                                 ta in 0.0..1.0f64, tb in 0.0..1.0f64) {
        let (x, y) = (point_in(&a, ta), point_in(&b, tb));
        let r = a + b;
        prop_assert!(r.lo() - 1e-6 <= x + y && x + y <= r.hi() + 1e-6);
    }

    #[test]
    fn sub_is_inclusion_isotonic(a in interval_strategy(), b in interval_strategy(),
                                 ta in 0.0..1.0f64, tb in 0.0..1.0f64) {
        let (x, y) = (point_in(&a, ta), point_in(&b, tb));
        let r = a - b;
        prop_assert!(r.lo() - 1e-6 <= x - y && x - y <= r.hi() + 1e-6);
    }

    #[test]
    fn mul_is_inclusion_isotonic(a in interval_strategy(), b in interval_strategy(),
                                 ta in 0.0..1.0f64, tb in 0.0..1.0f64) {
        let (x, y) = (point_in(&a, ta), point_in(&b, tb));
        let r = a * b;
        let tol = 1e-6 * (1.0 + r.mag());
        prop_assert!(r.lo() - tol <= x * y && x * y <= r.hi() + tol);
    }

    #[test]
    fn sqr_is_inclusion_isotonic_and_subset_of_mul(a in interval_strategy(), t in 0.0..1.0f64) {
        let x = point_in(&a, t);
        let s = a.sqr();
        let tol = 1e-6 * (1.0 + s.mag());
        prop_assert!(s.lo() - tol <= x * x && x * x <= s.hi() + tol);
        let naive = a * a;
        prop_assert!(naive.lo() <= s.lo() + tol && s.hi() <= naive.hi() + tol);
    }

    #[test]
    fn hull_contains_both(a in interval_strategy(), b in interval_strategy()) {
        let h = a.hull(&b);
        prop_assert!(h.contains_interval(&a));
        prop_assert!(h.contains_interval(&b));
    }

    #[test]
    fn split_partitions_width(a in interval_strategy(), n in 1usize..16) {
        let parts = a.split(n);
        prop_assert_eq!(parts.len(), n);
        let total: f64 = parts.iter().map(|p| p.width()).sum();
        prop_assert!((total - a.width()).abs() <= 1e-9 * (1.0 + a.width()));
    }
}
