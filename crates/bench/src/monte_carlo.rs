//! Monte-Carlo ground truth for the quadratic example: Table 2's
//! "Actual Values" row.

use sna_designs::quadratic_reference;

use crate::Error;

/// Samples `y = a·x² + b·x + c` over its input box `samples` times with a
/// splitmix-style deterministic stream and returns the error about
/// `centre` as `(mean, variance, lo, hi)`.
///
/// Zero samples is an error: there is no statistic to report.
pub(crate) fn quadratic_actuals(
    samples: usize,
    centre: f64,
) -> Result<(f64, f64, f64, f64), Error> {
    if samples == 0 {
        return Err("Monte-Carlo actuals need at least one sample".into());
    }
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z = z ^ (z >> 31);
        z as f64 / u64::MAX as f64
    };
    let mut mean = 0.0;
    let mut m2 = 0.0;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for n in 1..=samples {
        let x = -1.0 + 2.0 * next();
        let a = 9.0 + next();
        let b = -6.0 + 2.0 * next();
        let c = 6.0 + next();
        let y = quadratic_reference(x, a, b, c) - centre;
        let delta = y - mean;
        mean += delta / n as f64;
        m2 += delta * (y - mean);
        lo = lo.min(y);
        hi = hi.max(y);
    }
    Ok((mean, m2 / samples as f64, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_samples_is_rejected() {
        assert!(quadratic_actuals(0, 6.5).is_err());
        let (mean, variance, lo, hi) = quadratic_actuals(1, 6.5).unwrap();
        assert_eq!(variance, 0.0);
        assert_eq!((lo, hi), (mean, mean));
    }
}
