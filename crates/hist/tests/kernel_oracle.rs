//! Bit-identity oracle for the flat histogram kernels.
//!
//! `reference` is the per-pair formulation the kernels replaced, kept
//! verbatim: every operand bin pair rebuilds its intervals through
//! `Grid::bin_interval`, finds bins through `Grid::bin_of` and deposits
//! through per-call CDF closures.  The kernels must produce the same grid
//! and the same bits in every mass.
//!
//! The exact sum or difference with an equal-probability addend deposits
//! one trapezoid per bin of the other operand instead of one per bin
//! pair.  `reference::per_bin_linear` keeps that loop in the same
//! per-call style and is the bit-for-bit oracle on such addends;
//! `reference::per_pair_linear` stays the oracle on every other addend,
//! and the two are cross-checked against each other to within rounding.

use proptest::prelude::*;
use sna_hist::{DepositPolicy, Grid, HistError, Histogram, OpOptions};
use sna_interval::Interval;

/// The per-pair loops, verbatim apart from `self` becoming an operand.
mod reference {
    use sna_hist::{DepositPolicy, Grid, HistError, Histogram, OpOptions};
    use sna_interval::Interval;

    pub fn add_with(
        lhs: &Histogram,
        rhs: &Histogram,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        if opts.deposit == DepositPolicy::Exact {
            linear_exact(lhs, rhs, 1.0, opts)
        } else {
            apply_binary(lhs, rhs, |a, b| a + b, opts)
        }
    }

    pub fn sub_with(
        lhs: &Histogram,
        rhs: &Histogram,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        if opts.deposit == DepositPolicy::Exact {
            linear_exact(lhs, rhs, -1.0, opts)
        } else {
            apply_binary(lhs, rhs, |a, b| a - b, opts)
        }
    }

    pub fn mul_with(
        lhs: &Histogram,
        rhs: &Histogram,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        apply_binary(lhs, rhs, |a, b| a * b, opts)
    }

    pub fn div_with(
        lhs: &Histogram,
        rhs: &Histogram,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let (lo, hi) = rhs.support();
        if lo <= 0.0 && 0.0 <= hi {
            return Err(HistError::DivisionByZero {
                denominator: (lo, hi),
            });
        }
        apply_binary(
            lhs,
            rhs,
            |a, b| a.checked_div(&b).expect("denominator excludes zero"),
            opts,
        )
    }

    pub fn apply_binary(
        lhs: &Histogram,
        rhs: &Histogram,
        f: impl Fn(Interval, Interval) -> Interval,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = f(lhs.grid().support(), rhs.grid().support());
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| lhs.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let mut masses = vec![0.0; grid.n_bins()];
        for (ia, pa) in lhs.bins() {
            if pa == 0.0 {
                continue;
            }
            for (ib, pb) in rhs.bins() {
                let mass = pa * pb;
                if mass == 0.0 {
                    continue;
                }
                let out = f(ia, ib);
                match opts.deposit {
                    DepositPolicy::Midpoint => masses[grid.bin_of(out.mid())] += mass,
                    _ => deposit_uniform(&grid, &mut masses, out, mass),
                }
            }
        }
        Histogram::from_masses(grid, masses)
    }

    fn linear_exact(
        lhs: &Histogram,
        rhs: &Histogram,
        sign: f64,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        if rhs.probs().iter().all(|&p| p == rhs.probs()[0]) {
            per_bin_linear(lhs, rhs, sign, opts)
        } else {
            per_pair_linear(lhs, rhs, sign, opts)
        }
    }

    /// `lhs + sign·rhs` with one trapezoid per bin pair.
    pub fn per_pair_linear(
        lhs: &Histogram,
        rhs: &Histogram,
        sign: f64,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let rhs_support = rhs.grid().support().scale(sign);
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = lhs.grid().support() + rhs_support;
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| lhs.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let w1 = lhs.grid().bin_width();
        let w2 = rhs.grid().bin_width();
        let mut masses = vec![0.0; grid.n_bins()];
        for (ia, pa) in lhs.bins() {
            if pa == 0.0 {
                continue;
            }
            for (ib, pb) in rhs.bins() {
                let mass = pa * pb;
                if mass == 0.0 {
                    continue;
                }
                let ib = ib.scale(sign);
                let lo = ia.lo() + ib.lo();
                deposit_trapezoid(&grid, &mut masses, lo, w1, w2, mass);
            }
        }
        Histogram::from_masses(grid, masses)
    }

    /// `lhs + sign·rhs` for an `rhs` read as one uniform density on its
    /// support: one trapezoid per `lhs` bin.
    pub fn per_bin_linear(
        lhs: &Histogram,
        rhs: &Histogram,
        sign: f64,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let rhs_support = rhs.grid().support().scale(sign);
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = lhs.grid().support() + rhs_support;
                let bins = opts
                    .out_bins
                    .unwrap_or_else(|| lhs.n_bins().max(rhs.n_bins()));
                Grid::over(sup, bins)?
            }
        };
        let w1 = lhs.grid().bin_width();
        let w2 = rhs_support.width();
        let mut masses = vec![0.0; grid.n_bins()];
        for (ia, pa) in lhs.bins() {
            if pa == 0.0 {
                continue;
            }
            let lo = ia.lo() + rhs_support.lo();
            deposit_trapezoid(&grid, &mut masses, lo, w1, w2, pa);
        }
        Histogram::from_masses(grid, masses)
    }

    pub fn sqr_with(h: &Histogram, opts: &OpOptions) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = h.grid().support().sqr();
                let bins = opts.out_bins.unwrap_or_else(|| h.n_bins());
                Grid::over(sup, bins)?
            }
        };
        let mut masses = vec![0.0; grid.n_bins()];
        for (iv, p) in h.bins() {
            if p == 0.0 {
                continue;
            }
            match opts.deposit {
                DepositPolicy::Exact => deposit_sqr(&grid, &mut masses, iv, p),
                DepositPolicy::Midpoint => masses[grid.bin_of(iv.sqr().mid())] += p,
                DepositPolicy::Uniform => deposit_uniform(&grid, &mut masses, iv.sqr(), p),
            }
        }
        Histogram::from_masses(grid, masses)
    }

    pub fn apply_unary(
        h: &Histogram,
        f: impl Fn(Interval) -> Interval,
        opts: &OpOptions,
    ) -> Result<Histogram, HistError> {
        let grid = match opts.grid {
            Some(g) => g,
            None => {
                let sup = f(h.grid().support());
                let bins = opts.out_bins.unwrap_or_else(|| h.n_bins());
                Grid::over(sup, bins)?
            }
        };
        let mut masses = vec![0.0; grid.n_bins()];
        for (iv, p) in h.bins() {
            if p == 0.0 {
                continue;
            }
            let out = f(iv);
            match opts.deposit {
                DepositPolicy::Midpoint => masses[grid.bin_of(out.mid())] += p,
                _ => deposit_uniform(&grid, &mut masses, out, p),
            }
        }
        Histogram::from_masses(grid, masses)
    }

    pub fn from_interval_masses(
        grid: Grid,
        pairs: impl IntoIterator<Item = (Interval, f64)>,
    ) -> Result<Histogram, HistError> {
        let mut masses = vec![0.0; grid.n_bins()];
        for (iv, m) in pairs {
            if !m.is_finite() {
                return Err(HistError::NonFinite { value: m });
            }
            if m < 0.0 {
                return Err(HistError::NegativeMass { value: m });
            }
            deposit_uniform(&grid, &mut masses, iv, m);
        }
        Histogram::from_masses(grid, masses)
    }

    fn deposit_uniform(grid: &Grid, masses: &mut [f64], iv: Interval, mass: f64) {
        if mass == 0.0 {
            return;
        }
        let w = iv.width();
        if w == 0.0 {
            masses[grid.bin_of(iv.mid())] += mass;
            return;
        }
        let lo_bin = grid.bin_of(iv.lo());
        let hi_bin = grid.bin_of(iv.hi());
        // Clamp: portions outside the grid go to the boundary bins.
        let below = (grid.lo() - iv.lo()).max(0.0).min(w);
        let above = (iv.hi() - grid.hi()).max(0.0).min(w);
        if below > 0.0 {
            masses[0] += mass * below / w;
        }
        if above > 0.0 {
            masses[grid.n_bins() - 1] += mass * above / w;
        }
        for (i, m) in masses.iter_mut().enumerate().take(hi_bin + 1).skip(lo_bin) {
            let overlap = grid.bin_interval(i).overlap_len(&iv);
            if overlap > 0.0 {
                *m += mass * overlap / w;
            }
        }
    }

    fn deposit_cdf(
        grid: &Grid,
        masses: &mut [f64],
        lo: f64,
        hi: f64,
        mass: f64,
        cdf: impl Fn(f64) -> f64,
    ) {
        if hi <= lo {
            masses[grid.bin_of(lo)] += mass;
            return;
        }
        // Mass outside the grid clamps to boundary bins.
        let glo = grid.lo();
        let ghi = grid.hi();
        if lo < glo {
            masses[0] += mass * cdf(glo.min(hi));
        }
        if hi > ghi {
            masses[grid.n_bins() - 1] += mass * (1.0 - cdf(ghi.max(lo)));
        }
        let start = grid.bin_of(lo.max(glo));
        let end = grid.bin_of(hi.min(ghi));
        for (i, m) in masses.iter_mut().enumerate().take(end + 1).skip(start) {
            let edge_lo = grid.bin_lo(i).max(lo);
            let edge_hi = (grid.bin_lo(i) + grid.bin_width()).min(hi);
            if edge_hi > edge_lo {
                *m += mass * (cdf(edge_hi) - cdf(edge_lo));
            }
        }
    }

    fn deposit_trapezoid(grid: &Grid, masses: &mut [f64], lo: f64, w1: f64, w2: f64, mass: f64) {
        let m = w1.min(w2);
        let big = w1.max(w2);
        let total = w1 + w2;
        if total <= 0.0 {
            masses[grid.bin_of(lo)] += mass;
            return;
        }
        let cdf = move |x: f64| -> f64 {
            let t = (x - lo).clamp(0.0, total);
            if m == 0.0 {
                // One operand is (numerically) a point: plain uniform CDF.
                return t / total;
            }
            if t <= m {
                t * t / (2.0 * w1 * w2)
            } else if t <= big {
                (2.0 * t - m) / (2.0 * big)
            } else {
                1.0 - (total - t) * (total - t) / (2.0 * w1 * w2)
            }
        };
        deposit_cdf(grid, masses, lo, lo + total, mass, cdf);
    }

    fn deposit_sqr(grid: &Grid, masses: &mut [f64], iv: Interval, mass: f64) {
        let (a, b) = (iv.lo(), iv.hi());
        let w = b - a;
        if w <= 0.0 {
            masses[grid.bin_of(a * a)] += mass;
            return;
        }
        // Split a sign-straddling interval at zero; each side is monotone.
        if a < 0.0 && b > 0.0 {
            let left_mass = mass * (-a) / w;
            let right_mass = mass * b / w;
            deposit_sqr_monotone(grid, masses, 0.0, -a, left_mass);
            deposit_sqr_monotone(grid, masses, 0.0, b, right_mass);
        } else if b <= 0.0 {
            deposit_sqr_monotone(grid, masses, -b, -a, mass);
        } else {
            deposit_sqr_monotone(grid, masses, a, b, mass);
        }
    }

    fn deposit_sqr_monotone(grid: &Grid, masses: &mut [f64], a: f64, b: f64, mass: f64) {
        debug_assert!(0.0 <= a && a <= b);
        if mass == 0.0 {
            return;
        }
        if b == a {
            masses[grid.bin_of(a * a)] += mass;
            return;
        }
        let cdf = move |v: f64| -> f64 { ((v.max(0.0).sqrt() - a) / (b - a)).clamp(0.0, 1.0) };
        deposit_cdf(grid, masses, a * a, b * b, mass, cdf);
    }
}

/// Asserts that the kernel's result has the reference's grid and the same
/// bits in every mass (or the same error).
fn assert_same(what: &str, got: Result<Histogram, HistError>, want: Result<Histogram, HistError>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.n_bins(), w.n_bins(), "{what}: bin count");
            assert_eq!(
                g.grid().lo().to_bits(),
                w.grid().lo().to_bits(),
                "{what}: grid lo"
            );
            assert_eq!(
                g.grid().bin_width().to_bits(),
                w.grid().bin_width().to_bits(),
                "{what}: bin width"
            );
            for (i, (x, y)) in g.probs().iter().zip(w.probs()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: bin {i}: {x:e} vs {y:e}");
            }
        }
        (Err(g), Err(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}"),
        (g, w) => panic!("{what}: kernel {g:?} vs reference {w:?}"),
    }
}

/// Largest `|Δmass|` allowed between the one-trapezoid-per-bin and the
/// per-pair sums, relative to the peak mass: the two are the same exact
/// model and differ only by rounding.
const UNIFORM_ADDEND_TOLERANCE: f64 = 1e-12;

/// Asserts that the per-bin sum has the per-pair sum's grid, bit for bit,
/// and every mass within [`UNIFORM_ADDEND_TOLERANCE`] of the peak mass
/// (or the same error).  Returns the largest `|Δmass| / peak` seen.
fn assert_close(
    what: &str,
    per_bin: Result<Histogram, HistError>,
    per_pair: Result<Histogram, HistError>,
) -> f64 {
    match (per_bin, per_pair) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.n_bins(), w.n_bins(), "{what}: bin count");
            assert_eq!(
                g.grid().lo().to_bits(),
                w.grid().lo().to_bits(),
                "{what}: grid lo"
            );
            assert_eq!(
                g.grid().bin_width().to_bits(),
                w.grid().bin_width().to_bits(),
                "{what}: bin width"
            );
            let peak = w.probs().iter().fold(0.0f64, |a, &p| a.max(p));
            let worst = g
                .probs()
                .iter()
                .zip(w.probs())
                .fold(0.0f64, |a, (x, y)| a.max((x - y).abs()))
                / peak;
            assert!(
                worst <= UNIFORM_ADDEND_TOLERANCE,
                "{what}: |Δmass| {worst:e} × peak {peak:e}"
            );
            worst
        }
        (Err(g), Err(w)) => {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}");
            0.0
        }
        (g, w) => panic!("{what}: per-bin {g:?} vs per-pair {w:?}"),
    }
}

/// Checks `lhs ± rhs` for an equal-probability `rhs` under `opts`: the
/// kernel bit for bit against the per-bin reference, and that reference
/// against the per-pair sum.  Returns the largest `|Δmass| / peak`.
fn check_uniform_addend(what: &str, lhs: &Histogram, rhs: &Histogram, opts: &OpOptions) -> f64 {
    let mut worst = 0.0f64;
    let ops: [(&str, f64, BinaryOp); 2] = [
        ("add", 1.0, Histogram::add_with),
        ("sub", -1.0, Histogram::sub_with),
    ];
    for (name, sign, kernel) in ops {
        let what = format!("{what}: {name}");
        let per_bin = reference::per_bin_linear(lhs, rhs, sign, opts);
        assert_same(&what, kernel(lhs, rhs, opts), per_bin.clone());
        let per_pair = reference::per_pair_linear(lhs, rhs, sign, opts);
        worst = worst.max(assert_close(&what, per_bin, per_pair));
    }
    worst
}

/// Equal-probability operands: `Histogram::uniform` with 1–128 bins over
/// supports spanning seven decades.
fn uniform_operand() -> impl Strategy<Value = Histogram> {
    (1usize..129, -3i32..4, -5.0..5.0f64, 1.0..10.0f64).prop_map(
        |(bins, decade, offset, mantissa)| {
            let lo = offset * 10f64.powi(decade);
            Histogram::uniform(lo, lo + mantissa * 10f64.powi(decade), bins).unwrap()
        },
    )
}

/// Operands with 1–128 bins, about a quarter of them empty, supports
/// spanning seven decades (so operand bin-width ratios run past 1e-6 and
/// 1e6), plus a dyadic family whose partial results land exactly on
/// output bin edges and a family of uniform masses.
fn operand() -> impl Strategy<Value = Histogram> {
    (
        1usize..129,
        -3i32..4,
        (-5.0..5.0f64, 1.0..10.0f64),
        0u32..4,
        proptest::collection::vec(0.0..1.0f64, 128),
    )
        .prop_map(|(bins, decade, (offset, mantissa), family, raw)| {
            let (lo, span) = match family {
                0 => (
                    (offset * 4.0).round() * 2f64.powi(decade),
                    2f64.powi(decade + 3),
                ),
                _ => (offset * 10f64.powi(decade), mantissa * 10f64.powi(decade)),
            };
            let grid = Grid::new(lo, lo + span, bins).unwrap();
            let mut masses: Vec<f64> = match family {
                1 => vec![1.0; bins],
                _ => raw[..bins]
                    .iter()
                    .map(|&m| if m < 0.25 { 0.0 } else { m })
                    .collect(),
            };
            if masses.iter().all(|&m| m == 0.0) {
                masses[bins / 2] = 1.0;
            }
            Histogram::from_masses(grid, masses).unwrap()
        })
}

const POLICIES: [DepositPolicy; 3] = [
    DepositPolicy::Uniform,
    DepositPolicy::Exact,
    DepositPolicy::Midpoint,
];

/// `out_bins == 0` keeps the operation's default bin count.
fn options(policy: usize, out_bins: usize) -> OpOptions {
    let opts = OpOptions::default().with_deposit(POLICIES[policy]);
    if out_bins == 0 {
        opts
    } else {
        opts.with_out_bins(out_bins)
    }
}

/// The natural result's grid cut inward (positive `cut`) or grown outward
/// (negative) at each end, forcing mass into the boundary bins.
fn forced(
    natural: &Result<Histogram, HistError>,
    cut: (f64, f64),
    opts: OpOptions,
) -> Option<OpOptions> {
    let (lo, hi) = natural.as_ref().ok()?.support();
    let w = hi - lo;
    let n = natural.as_ref().ok()?.n_bins();
    let grid = Grid::new(lo + cut.0 * w, hi - cut.1 * w, n).ok()?;
    Some(opts.with_grid(grid))
}

type BinaryOp = fn(&Histogram, &Histogram, &OpOptions) -> Result<Histogram, HistError>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn binary_kernels_match_the_per_pair_loops(
        a in operand(),
        b in operand(),
        policy in 0usize..3,
        out_bins in 0usize..129,
        cut in (-0.25..0.45f64, -0.25..0.45f64),
    ) {
        let opts = options(policy, out_bins);
        // A denominator whose support excludes zero, so `div` runs too.
        let (blo, bhi) = b.support();
        let den = if blo <= 0.0 && 0.0 <= bhi {
            b.shift(0.5 * (bhi - blo) - blo).unwrap()
        } else {
            b.clone()
        };
        let ops: [(&str, BinaryOp, BinaryOp, &Histogram); 5] = [
            ("add", Histogram::add_with, reference::add_with, &b),
            ("sub", Histogram::sub_with, reference::sub_with, &b),
            ("mul", Histogram::mul_with, reference::mul_with, &b),
            ("div", Histogram::div_with, reference::div_with, &den),
            ("div by a zero-straddling support", Histogram::div_with, reference::div_with, &b),
        ];
        for (name, kernel, oracle, rhs) in ops {
            let want = oracle(&a, rhs, &opts);
            assert_same(name, kernel(&a, rhs, &opts), want.clone());
            if let Some(forced) = forced(&want, cut, opts) {
                assert_same(
                    &format!("{name} on a forced grid"),
                    kernel(&a, rhs, &forced),
                    oracle(&a, rhs, &forced),
                );
            }
        }
    }

    #[test]
    fn uniform_addends_match_the_per_pair_sum(
        a in operand(),
        u in uniform_operand(),
        out_bins in 0usize..129,
        cut in (-0.25..0.45f64, -0.25..0.45f64),
    ) {
        let opts = options(1, out_bins);
        for (name, lhs) in [("operand ± uniform", &a), ("uniform ± uniform", &u)] {
            check_uniform_addend(name, lhs, &u, &opts);
            let natural = reference::per_pair_linear(lhs, &u, 1.0, &opts);
            if let Some(forced) = forced(&natural, cut, opts) {
                check_uniform_addend(&format!("{name} on a forced grid"), lhs, &u, &forced);
            }
        }
    }

    #[test]
    fn unary_kernels_match_the_per_pair_loops(
        h in operand(),
        policy in 0usize..3,
        out_bins in 0usize..129,
        cut in (-0.25..0.45f64, -0.25..0.45f64),
    ) {
        let opts = options(policy, out_bins);
        let want = reference::sqr_with(&h, &opts);
        assert_same("sqr", h.sqr_with(&opts), want.clone());
        if let Some(forced) = forced(&want, cut, opts) {
            assert_same(
                "sqr on a forced grid",
                h.sqr_with(&forced),
                reference::sqr_with(&h, &forced),
            );
        }
        let cube = |iv: Interval| iv.powi(3);
        assert_same("powi(3)", h.apply_unary(cube, &opts), reference::apply_unary(&h, cube, &opts));
        let abs = |iv: Interval| iv.abs();
        assert_same("abs", h.apply_unary(abs, &opts), reference::apply_unary(&h, abs, &opts));
        let (lo, hi) = h.support();
        let w = hi - lo;
        if let Ok(grid) = Grid::new(lo + cut.0 * w, hi - cut.1 * w, out_bins.max(1)) {
            assert_same(
                "rebin",
                h.rebin(grid),
                reference::from_interval_masses(grid, h.bins()),
            );
        }
    }
}

/// A subnormal span makes the bin width underflow to zero: the operand is
/// a point, `min(w1, w2) == 0`, and the exact deposit takes its plain
/// uniform-CDF branch.
#[test]
fn point_width_operands_match() {
    let point = Histogram::uniform(0.0, 5e-324, 2).unwrap();
    assert_eq!(point.grid().bin_width(), 0.0);
    let spread = Histogram::triangular(-1.0, 3.0, 24).unwrap();
    for out_bins in [0, 1, 7, 64] {
        let opts = options(1, out_bins);
        for (x, y) in [(&spread, &point), (&point, &spread), (&point, &point)] {
            assert_same(
                "add",
                x.add_with(y, &opts),
                reference::add_with(x, y, &opts),
            );
            assert_same(
                "sub",
                x.sub_with(y, &opts),
                reference::sub_with(x, y, &opts),
            );
        }
    }
}

/// Exact and uniform sums and differences across operand bin-width ratios
/// from about 1e-6 to 1e6.
#[test]
fn width_ratio_sweep_matches() {
    let base = Histogram::gaussian(0.3, 0.2, 64).unwrap();
    for decade in -6..=6 {
        let w = 10f64.powi(decade);
        let other = Histogram::triangular(-w, 2.0 * w, 48).unwrap();
        for (policy, out_bins) in [(1, 0), (1, 128), (0, 0), (2, 32)] {
            let opts = options(policy, out_bins);
            for (x, y) in [(&base, &other), (&other, &base)] {
                assert_same(
                    "add",
                    x.add_with(y, &opts),
                    reference::add_with(x, y, &opts),
                );
                assert_same(
                    "sub",
                    x.sub_with(y, &opts),
                    reference::sub_with(x, y, &opts),
                );
            }
        }
    }
}

/// Uniform addends at the edges of the per-bin deposit: 1-bin operands,
/// point-width operands (the trapezoid's `m == 0` branch, and on a forced
/// grid its `total <= 0` point branch) and LTI's degenerate-contribution
/// ε-spike on either side of a sum.
#[test]
fn uniform_addend_edge_cases_match_the_per_pair_sum() {
    let point = Histogram::uniform(0.0, 5e-324, 2).unwrap();
    let one_bin = Histogram::uniform(-0.3, 0.7, 1).unwrap();
    let spread = Histogram::triangular(-1.0, 3.0, 24).unwrap();
    let noise = Histogram::uniform(-2f64.powi(-13), 2f64.powi(-13), 64).unwrap();
    let shaped = Histogram::gaussian(0.25, 1e-3, 64).unwrap();
    // `shape_contribution`'s spike around a mean.  Both sums round the
    // deposit location, so they differ by about ulp(location) / output
    // bin width: beside noise of width 2^-12 the spike sits at a rounding
    // offset of that scale, as in the engines (a spike at 0.25 there
    // differs by 1.1e-12 × peak).
    let spike = |mean: f64| {
        let eps = 1e-18 + mean.abs() * 1e-15;
        Histogram::uniform(mean - eps, mean + eps, 64).unwrap()
    };
    let pairs = [
        ("1-bin ± 1-bin", &one_bin, &one_bin),
        ("spread ± 1-bin", &spread, &one_bin),
        ("1-bin ± noise", &one_bin, &noise),
        ("spread ± point", &spread, &point),
        ("point ± noise", &point, &noise),
        ("point ± point", &point, &point),
        ("shaped ± spike", &shaped, &spike(0.25)),
        ("shaped ± spike at 0", &shaped, &spike(0.0)),
        ("spike ± noise", &spike(-2f64.powi(-13)), &noise),
        ("noise ± spike", &noise, &spike(-2f64.powi(-13))),
        ("spike ± spike", &spike(0.0), &spike(0.0)),
    ];
    let forced_grid = OpOptions::default()
        .with_deposit(DepositPolicy::Exact)
        .with_grid(Grid::new(-0.5, 0.5, 16).unwrap());
    let mut worst = 0.0f64;
    for (name, lhs, rhs) in pairs {
        for out_bins in [0, 1, 7, 64] {
            worst = worst.max(check_uniform_addend(name, lhs, rhs, &options(1, out_bins)));
        }
        worst = worst.max(check_uniform_addend(name, lhs, rhs, &forced_grid));
    }
    println!("largest |Δmass| / peak on the edge cases: {worst:e}");
}
