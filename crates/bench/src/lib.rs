//! Reproduction harness for the DAC'08 SNA paper: one runner per table /
//! figure, shared by the `table*`/`figure*`/`repro` binaries, the
//! integration tests and the Criterion benches.
//!
//! | paper artifact | runner |
//! |---|---|
//! | Table 1 (quadratic ranges, IA/AA/SNA) | [`table1`] |
//! | Table 2 (SNA statistics vs granularity) | [`table2`] |
//! | Figure 1 (quadratic error histograms) | [`figure1`] |
//! | Figure 3 (RGB→YCrCb error PDFs) | [`figure3`] |
//! | Tables 3–6 (fixed vs optimized WL costs) | [`design_table`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use sna_core::{Budget, CartesianEngine, NoiseReport, UncertainInput};
use sna_designs::{quadratic_reference, rgb_to_ycrcb, Design};
use sna_fixp::WlConfig;
use sna_hist::{DepositPolicy, Histogram};
use sna_hls::SynthesisConstraints;
use sna_interval::{AffineContext, Interval};
use sna_opt::Optimizer;

/// Convenience error type for the harness.
pub type Error = Box<dyn std::error::Error>;

// ----------------------------------------------------------------------
// The quadratic example shared by Tables 1–2 / Figure 1
// ----------------------------------------------------------------------

/// The quadratic `y = a·x² + b·x + c` over interval operands.
pub fn quadratic_fn(v: &[Interval]) -> Interval {
    v[1] * v[0].sqr() + v[2] * v[0] + v[3]
}

/// The four uncertain inputs of the quadratic at granularity `g`.
///
/// # Errors
///
/// Histogram construction failures are propagated.
pub fn quadratic_inputs(g: usize) -> Result<Vec<UncertainInput>, Error> {
    Ok(vec![
        UncertainInput::uniform("x", -1.0, 1.0, g)?,
        UncertainInput::uniform("a", 9.0, 10.0, g)?,
        UncertainInput::uniform("b", -6.0, -4.0, g)?,
        UncertainInput::uniform("c", 6.0, 7.0, g)?,
    ])
}

// ----------------------------------------------------------------------
// Table 1
// ----------------------------------------------------------------------

/// The three rows of Table 1.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Interval-arithmetic output range.
    pub ia: Interval,
    /// Affine form `center ± radius`.
    pub aa_center: f64,
    /// Affine radius.
    pub aa_radius: f64,
    /// SNA output range at the given granularity.
    pub sna: Interval,
    /// Granularity used for the SNA row.
    pub sna_granularity: usize,
}

/// Reproduces Table 1: the quadratic's output range by IA, AA and SNA.
///
/// # Errors
///
/// Propagates engine failures.
pub fn table1(sna_granularity: usize) -> Result<Table1, Error> {
    let x = Interval::new(-1.0, 1.0)?;
    let a = Interval::new(9.0, 10.0)?;
    let b = Interval::new(-6.0, -4.0)?;
    let c = Interval::new(6.0, 7.0)?;
    let ia = a * x.sqr() + b * x + c;

    let ctx = AffineContext::new();
    let xa = ctx.from_interval(x);
    let fa = ctx.from_interval(a);
    let fb = ctx.from_interval(b);
    let fc = ctx.from_interval(c);
    let x2 = xa.mul(&xa.clone(), &ctx);
    let y = fa.mul(&x2, &ctx) + fb.mul(&xa, &ctx) + fc;

    let report = CartesianEngine::new(256).analyze(
        &quadratic_inputs(sna_granularity)?,
        quadratic_fn,
        &Budget::unlimited(),
    )?;
    Ok(Table1 {
        ia,
        aa_center: y.center(),
        aa_radius: y.radius(),
        sna: Interval::new(report.support.0, report.support.1)?,
        sna_granularity,
    })
}

// ----------------------------------------------------------------------
// Table 2
// ----------------------------------------------------------------------

/// One granularity row of Table 2 (error statistics about the centre 6.5).
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Granularity (bins per noise symbol).
    pub g: usize,
    /// Mean error.
    pub mean: f64,
    /// Error variance.
    pub variance: f64,
    /// Guaranteed (outer) lower bound `xl`.
    pub xl: f64,
    /// Guaranteed (outer) upper bound `xh`.
    pub xh: f64,
    /// Inner (midpoint-deposit) lower bound, the paper's convention.
    pub xl_inner: f64,
    /// Inner (midpoint-deposit) upper bound.
    pub xh_inner: f64,
}

/// Table 2 plus the Monte-Carlo "Actual Values" row.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Per-granularity SNA statistics.
    pub rows: Vec<Table2Row>,
    /// Monte-Carlo actuals: `(mean, variance, xl, xh)`.
    pub actual: (f64, f64, f64, f64),
}

/// Reproduces Table 2: SNA statistics of the quadratic error versus
/// granularity, with outer (uniform-deposit) and inner (midpoint-deposit)
/// bounds, against `samples` Monte-Carlo trials.
///
/// # Errors
///
/// Propagates engine failures.
pub fn table2(granularities: &[usize], samples: usize) -> Result<Table2, Error> {
    const CENTRE: f64 = 6.5;
    let mut rows = Vec::new();
    for &g in granularities {
        let outer = CartesianEngine::new(256).analyze(
            &quadratic_inputs(g)?,
            quadratic_fn,
            &Budget::unlimited(),
        )?;
        let inner = CartesianEngine::new(256)
            .with_deposit(DepositPolicy::Midpoint)
            .analyze(&quadratic_inputs(g)?, quadratic_fn, &Budget::unlimited())?;
        rows.push(Table2Row {
            g,
            mean: outer.mean - CENTRE,
            variance: outer.variance,
            xl: outer.support.0 - CENTRE,
            xh: outer.support.1 - CENTRE,
            xl_inner: inner.support.0 - CENTRE,
            xh_inner: inner.support.1 - CENTRE,
        });
    }

    // Monte-Carlo ground truth with a splitmix-style deterministic stream.
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
    for n in 1..=samples.max(1) {
        let x = -1.0 + 2.0 * next();
        let a = 9.0 + next();
        let b = -6.0 + 2.0 * next();
        let c = 6.0 + next();
        let y = quadratic_reference(x, a, b, c) - CENTRE;
        let delta = y - mean;
        mean += delta / n as f64;
        m2 += delta * (y - mean);
        lo = lo.min(y);
        hi = hi.max(y);
    }
    let variance = m2 / samples.max(1) as f64;
    Ok(Table2 {
        rows,
        actual: (mean, variance, lo, hi),
    })
}

// ----------------------------------------------------------------------
// Figures 1 and 3
// ----------------------------------------------------------------------

/// Reproduces Figure 1: the quadratic output-error histogram at each
/// granularity.
///
/// # Errors
///
/// Propagates engine failures.
pub fn figure1(granularities: &[usize]) -> Result<Vec<(usize, Histogram)>, Error> {
    let mut out = Vec::new();
    for &g in granularities {
        let report = CartesianEngine::new(64).analyze(
            &quadratic_inputs(g)?,
            quadratic_fn,
            &Budget::unlimited(),
        )?;
        let hist = report.histogram.expect("cartesian engine returns a PDF");
        out.push((g, hist));
    }
    Ok(out)
}

/// Reproduces Figure 3: error PDFs of the RGB→YCrCb outputs at word
/// length `w` with `bins` histogram bins.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn figure3(w: u8, bins: usize) -> Result<Vec<(String, NoiseReport)>, Error> {
    let design = rgb_to_ycrcb();
    let cfg = WlConfig::from_ranges(&design.dfg, &design.input_ranges, w)?;
    let session = sna_core::Session::new(design.dfg, design.input_ranges)?;
    let report = session.analyze(&sna_core::AnalysisRequest {
        words: sna_core::WlChoice::Config(cfg),
        bins,
        ..sna_core::AnalysisRequest::default()
    })?;
    Ok(report.reports)
}

// ----------------------------------------------------------------------
// Tables 3–6
// ----------------------------------------------------------------------

/// One word-length block of a design table (the paper prints one block
/// per `W ∈ {8, 16, 24, 32}`).
#[derive(Clone, Debug)]
pub struct DesignRow {
    /// The uniform reference word length.
    pub w: u8,
    /// Fixed-WL cost: `(area µm², power µW, latency cycles)`.
    pub fixed: (f64, f64, u32),
    /// Optimized cost.
    pub optimized: (f64, f64, u32),
    /// Improvements in percent: `(area, power, latency)`.
    pub improvement: (f64, f64, f64),
    /// The noise constraint (total output noise power of the fixed
    /// design).
    pub noise: f64,
}

/// Reproduces one of Tables 3–6 for a design with default constraints.
///
/// # Errors
///
/// Propagates optimizer and synthesis failures.
pub fn design_table(design: &Design, word_lengths: &[u8]) -> Result<Vec<DesignRow>, Error> {
    design_table_with(design, word_lengths, resources_for(design))
}

/// Resource allocation used for the paper tables: the wide, combinational
/// transform blocks (FFT, DCT) get two units per kind — which also lands
/// their latencies in the paper's regime — while the serial filters share
/// a single unit per kind.
pub fn resources_for(design: &Design) -> SynthesisConstraints {
    let ops = design.dfg.op_counts().arithmetic();
    let mut constraints = SynthesisConstraints {
        // The paper's flow builds on multiple-width bus partitioning
        // (their ref. [19]), whose area scales linearly in width — exactly
        // what Tables 3–4 show.  Use the matching library preset.
        tech: sna_hls::TechLibrary::st012_partitioned(),
        ..SynthesisConstraints::default()
    };
    if design.dfg.is_combinational() && ops > 100 {
        constraints.resources.adders = 2;
        constraints.resources.multipliers = 2;
    }
    constraints
}

/// [`design_table`] with explicit synthesis constraints.
///
/// # Errors
///
/// Propagates optimizer and synthesis failures.
pub fn design_table_with(
    design: &Design,
    word_lengths: &[u8],
    constraints: SynthesisConstraints,
) -> Result<Vec<DesignRow>, Error> {
    let opt = Optimizer::new(&design.dfg, &design.input_ranges, constraints)?;
    let mut rows = Vec::new();
    for &w in word_lengths {
        let fixed = opt.uniform(w)?;
        let tuned = opt.greedy(fixed.noise_power, w.saturating_add(8).min(40))?;
        let imp = |a: f64, b: f64| if a > 0.0 { 100.0 * (a - b) / a } else { 0.0 };
        rows.push(DesignRow {
            w,
            fixed: (
                fixed.cost.area_um2,
                fixed.cost.power_uw,
                fixed.cost.latency_cycles,
            ),
            optimized: (
                tuned.cost.area_um2,
                tuned.cost.power_uw,
                tuned.cost.latency_cycles,
            ),
            improvement: (
                imp(fixed.cost.area_um2, tuned.cost.area_um2),
                imp(fixed.cost.power_uw, tuned.cost.power_uw),
                imp(
                    fixed.cost.latency_cycles as f64,
                    tuned.cost.latency_cycles as f64,
                ),
            ),
            noise: fixed.noise_power,
        });
    }
    Ok(rows)
}

/// Formats a design table in the paper's layout.
pub fn render_design_table(name: &str, rows: &[DesignRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Optimization results for {name}.");
    let _ = writeln!(
        out,
        "{:<6} {:<7} | {:>12} | {:>12} | {:>8}",
        "WL", "Cost", "Fixed WL", "Optimized", "Improv.%"
    );
    let _ = writeln!(out, "{}", "-".repeat(56));
    for r in rows {
        let lines = [
            ("Area", r.fixed.0, r.optimized.0, r.improvement.0),
            ("Power", r.fixed.1, r.optimized.1, r.improvement.1),
            (
                "Delay",
                r.fixed.2 as f64,
                r.optimized.2 as f64,
                r.improvement.2,
            ),
        ];
        for (i, (label, f, o, imp)) in lines.iter().enumerate() {
            let head = if i == 1 {
                format!("WL={}", r.w)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{head:<6} {label:<7} | {f:>12.2} | {o:>12.2} | {imp:>8.2}"
            );
        }
        let _ = writeln!(
            out,
            "{:<6} {:<7} | {:>12.3e} | {:>12} |",
            "", "Noise", r.noise, "constrained"
        );
        let _ = writeln!(out, "{}", "-".repeat(56));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let t = table1(16).unwrap();
        assert_eq!(t.ia, Interval::new(0.0, 23.0).unwrap());
        assert!((t.aa_center - 6.5).abs() < 1e-12);
        assert!((t.aa_radius - 16.5).abs() < 1e-12);
        // SNA encloses the true range [5, 23] and beats AA's width.
        assert!(t.sna.lo() <= 5.0 && t.sna.hi() >= 23.0);
        assert!(t.sna.width() < 33.0);
    }

    #[test]
    fn table2_converges_toward_actuals() {
        let t = table2(&[4, 8, 16], 200_000).unwrap();
        let (am, av, al, ah) = t.actual;
        // Actuals match the analytic values (3.17, 16.57, -1.5, 16.5).
        assert!((am - 3.1667).abs() < 0.02, "actual mean {am}");
        assert!((av - 16.567).abs() < 0.2, "actual var {av}");
        assert!(al > -1.51 && al < -1.40, "actual lo {al}");
        // The supremum 16.5 sits at a box corner; random sampling
        // approaches it slowly.
        assert!(ah > 16.0 && ah < 16.51, "actual hi {ah}");
        // Monotone convergence of the SNA rows toward them.
        for pair in t.rows.windows(2) {
            assert!(pair[1].variance <= pair[0].variance + 1e-9);
            assert!((pair[1].mean - am).abs() <= (pair[0].mean - am).abs() + 1e-9);
        }
        // Outer bounds enclose actuals; inner bounds are enclosed by them.
        for r in &t.rows {
            assert!(r.xl <= al && r.xh >= ah, "outer bounds at g={}", r.g);
            assert!(r.xl_inner >= r.xl && r.xh_inner <= r.xh);
        }
    }

    #[test]
    fn figure1_histograms_sharpen() {
        let figs = figure1(&[8, 16]).unwrap();
        assert_eq!(figs.len(), 2);
        // Higher granularity concentrates more mass near the mode.
        let peak8 = figs[0].1.probs().iter().cloned().fold(0.0, f64::max);
        let peak16 = figs[1].1.probs().iter().cloned().fold(0.0, f64::max);
        assert!(peak16 >= peak8 * 0.8, "peaks {peak8} vs {peak16}");
    }

    #[test]
    fn figure3_produces_three_bounded_pdfs() {
        let reports = figure3(10, 64).unwrap();
        assert_eq!(reports.len(), 3);
        for (name, r) in &reports {
            assert!(r.histogram.is_some(), "{name} missing pdf");
            assert!(r.support.0 < 0.0 && r.support.1 > 0.0, "{name}");
        }
    }

    #[test]
    fn design_table_shape_smoke() {
        // One small design, two word lengths — the full suite runs in the
        // repro binary.
        let design = sna_designs::fir(7);
        let rows = design_table(&design, &[8, 16]).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // The optimizer is multi-objective: individual metrics may
            // trade against each other, but the equal-weight sum must
            // never regress.
            let fixed_sum = r.fixed.0 + r.fixed.1 + r.fixed.2 as f64;
            let opt_sum = r.optimized.0 + r.optimized.1 + r.optimized.2 as f64;
            assert!(
                opt_sum <= fixed_sum * (1.0 + 1e-9),
                "weighted cost regressed at W={}: {opt_sum} vs {fixed_sum}",
                r.w
            );
        }
        // Noise scales roughly ×2⁻²ᵂ.
        assert!(rows[0].noise / rows[1].noise > 1.0e3);
        let rendered = render_design_table("Design II (FIR-7)", &rows);
        assert!(rendered.contains("WL=8"));
        assert!(rendered.contains("constrained"));
    }
}
