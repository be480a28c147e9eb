//! The quantization noise-source model shared by all engines.
//!
//! A node introduces a noise source only when its output format *loses
//! precision* relative to the exact result of its operation — an adder whose
//! output keeps `max(fa, fb)` fractional bits is exact and contributes no
//! noise, while a multiplier almost always rounds (exact product needs
//! `fa + fb` bits).  Matching the bit-true simulator, which requantizes
//! after every operation, this rule is what makes analytical predictions
//! line up with Monte-Carlo measurements.

use sna_dfg::{Dfg, NodeId, Op};
use sna_fixp::{Quantizer, Rounding, WlConfig};
use sna_interval::Interval;

/// One quantization noise source: `error = offset + half_width·ε`,
/// `ε ~ U[-1, 1]`.
///
/// * round-to-nearest: `offset = 0`, `half_width = q/2`;
/// * truncation: `offset = -q/2`, `half_width = q/2` (error in `(-q, 0]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseSource {
    /// The node whose output rounding generates this source.
    pub node: NodeId,
    /// Deterministic bias of the error.
    pub offset: f64,
    /// Half-width of the error range (the ε scale factor).
    pub half_width: f64,
}

impl NoiseSource {
    /// Builds the source for a quantizer (uniform error model).
    pub fn for_quantizer(node: NodeId, q: &Quantizer) -> Self {
        let step = q.format.resolution();
        match q.rounding {
            Rounding::Nearest => NoiseSource {
                node,
                offset: 0.0,
                half_width: step / 2.0,
            },
            Rounding::Truncate => NoiseSource {
                node,
                offset: -step / 2.0,
                half_width: step / 2.0,
            },
        }
    }

    /// Error variance of the source (`half_width²/3` for the uniform
    /// model).
    pub fn variance(&self) -> f64 {
        self.half_width * self.half_width / 3.0
    }

    /// Guaranteed error interval.
    pub fn interval(&self) -> Interval {
        Interval::centered(self.offset, self.half_width)
    }
}

/// The precision-loss rule, written once for every engine and the
/// optimizer's evaluator: whether a node with operation `op` and `frac`
/// fractional bits drops bits of its operation's exact result, given its
/// arguments' fractional bits (`arg_frac(k)` for argument `k`).  Such a
/// node rounds, and so introduces a noise source.
pub fn loses_precision(op: Op, frac: u8, arg_frac: impl Fn(usize) -> u8) -> bool {
    let frac = u16::from(frac);
    let arg = |k: usize| u16::from(arg_frac(k));
    match op {
        // External inputs arrive with unbounded precision.
        Op::Input(_) => true,
        // Constant rounding is a deterministic offset, not a random
        // source; it is handled separately by the engines.
        Op::Const(_) => false,
        Op::Add | Op::Sub => frac < arg(0).max(arg(1)),
        // A multiply by an exactly-representable power of two is exact
        // when no fractional bits are dropped; the general rule treats
        // the full product width as required.
        Op::Mul => frac < arg(0) + arg(1),
        // Quotients are generically non-terminating.
        Op::Div => true,
        Op::Neg | Op::Delay => frac < arg(0),
    }
}

/// Whether a node's format loses precision relative to the exact result of
/// its operation (and therefore introduces rounding noise).
pub trait IntroducesNoise {
    /// Evaluates [`loses_precision`] for `node` under `config`.
    fn introduces_noise(&self, node: NodeId, config: &WlConfig) -> bool;
}

impl IntroducesNoise for Dfg {
    fn introduces_noise(&self, node: NodeId, config: &WlConfig) -> bool {
        let n = self.node(node);
        loses_precision(n.op(), config.format(node).frac_bits(), |k| {
            config.format(n.args()[k]).frac_bits()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_dfg::DfgBuilder;
    use sna_fixp::{Format, Overflow};

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    /// How many nodes of `g` introduce noise under `cfg`.
    fn sources(g: &Dfg, cfg: &WlConfig) -> usize {
        g.nodes()
            .filter(|&(id, _)| g.introduces_noise(id, cfg))
            .count()
    }

    #[test]
    fn nearest_source_is_centred() {
        let fmt = Format::new(8, 6).unwrap();
        let q = Quantizer::new(fmt, Rounding::Nearest, Overflow::Saturate);
        let s = NoiseSource::for_quantizer(NodeId::from_index(0), &q);
        assert_eq!(s.offset, 0.0);
        assert_eq!(s.half_width, fmt.resolution() / 2.0);
        let step = fmt.resolution();
        assert!((s.variance() - step * step / 12.0).abs() < 1e-18);
    }

    #[test]
    fn truncation_source_is_biased() {
        let fmt = Format::new(8, 6).unwrap();
        let q = Quantizer::new(fmt, Rounding::Truncate, Overflow::Saturate);
        let s = NoiseSource::for_quantizer(NodeId::from_index(0), &q);
        let step = fmt.resolution();
        assert_eq!(s.offset, -step / 2.0);
        let iv = s.interval();
        assert_eq!(iv.lo(), -step);
        assert_eq!(iv.hi(), 0.0);
    }

    #[test]
    fn adders_with_enough_bits_are_exact() {
        // y = x1 + x2 with all formats equal: the adder drops no bits.
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let y = b.add(x1, x2);
        b.output("y", y);
        let g = b.build().unwrap();
        let fmt = Format::new(12, 8).unwrap();
        let cfg = WlConfig::uniform(&g, fmt, Rounding::Nearest, Overflow::Saturate);
        assert!(!g.introduces_noise(y, &cfg));
        // Inputs always introduce noise.
        assert!(g.introduces_noise(x1, &cfg));
        assert_eq!(sources(&g, &cfg), 2); // the two inputs only
    }

    #[test]
    fn multipliers_almost_always_round() {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let y = b.mul(x1, x2);
        b.output("y", y);
        let g = b.build().unwrap();
        let fmt = Format::new(12, 8).unwrap();
        let cfg = WlConfig::uniform(&g, fmt, Rounding::Nearest, Overflow::Saturate);
        assert!(g.introduces_noise(y, &cfg));
    }

    #[test]
    fn adder_that_narrows_rounds() {
        let mut b = DfgBuilder::new();
        let x1 = b.input("x1");
        let x2 = b.input("x2");
        let y = b.add(x1, x2);
        b.output("y", y);
        let g = b.build().unwrap();
        // Uniform format: all nodes share the fraction width, so the adder
        // is exact.
        let fmt = Format::new(16, 12).unwrap();
        let mut cfg = WlConfig::uniform(&g, fmt, Rounding::Nearest, Overflow::Saturate);
        assert!(!g.introduces_noise(y, &cfg));
        // Narrow only the adder: now it loses bits.
        cfg.set_word_length(y, 8).unwrap();
        assert!(g.introduces_noise(y, &cfg));
        // Range-derived formats grow the integer part at the adder (range
        // [-2, 2]), trading away one LSB — that *is* a rounding site.
        let ranges = [iv(-1.0, 1.0), iv(-1.0, 1.0)];
        let cfg = WlConfig::from_ranges(&g, &ranges, 16).unwrap();
        assert!(g.introduces_noise(y, &cfg));
    }

    #[test]
    fn constants_are_not_random_sources() {
        let mut b = DfgBuilder::new();
        let x = b.input("x");
        let c = b.constant(0.3);
        let y = b.mul(c, x);
        b.output("y", y);
        let g = b.build().unwrap();
        let fmt = Format::new(8, 6).unwrap();
        let cfg = WlConfig::uniform(&g, fmt, Rounding::Nearest, Overflow::Saturate);
        assert!(!g.introduces_noise(c, &cfg));
        // input + multiplier.
        assert_eq!(sources(&g, &cfg), 2);
    }
}
