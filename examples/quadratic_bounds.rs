//! The paper's quadratic example: compare IA, AA and SNA bounds, and watch
//! the SNA estimate converge as granularity grows (Tables 1–2 in miniature).
//!
//! Run with: `cargo run --release --example quadratic_bounds`

use sna::core::{Budget, CartesianEngine, UncertainInput};
use sna::expr::{Poly, SymbolTable};
use sna::interval::Interval;

fn quadratic(v: &[Interval]) -> Interval {
    // y = a·x² + b·x + c with v = [x, a, b, c].
    v[1] * v[0].sqr() + v[2] * v[0] + v[3]
}

fn inputs(g: usize) -> Result<Vec<UncertainInput>, Box<dyn std::error::Error>> {
    Ok(vec![
        UncertainInput::uniform("x", -1.0, 1.0, g)?,
        UncertainInput::uniform("a", 9.0, 10.0, g)?,
        UncertainInput::uniform("b", -6.0, -4.0, g)?,
        UncertainInput::uniform("c", 6.0, 7.0, g)?,
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("y = a·x² + b·x + c,  x∈[-1,1], a∈[9,10], b∈[-6,-4], c∈[6,7]\n");

    // Interval arithmetic (Table 1, IA row).
    let x = Interval::new(-1.0, 1.0)?;
    let a = Interval::new(9.0, 10.0)?;
    let b = Interval::new(-6.0, -4.0)?;
    let c = Interval::new(6.0, 7.0)?;
    let ia = a * x.sqr() + b * x + c;
    println!("IA : y ∈ {ia}");

    // Affine arithmetic (Table 1, AA row): one noise symbol ε ∈ [-1, 1]
    // per input; the constant term is the centre, and every other
    // monomial of the polynomial counts its |coefficient| to the radius.
    let mut symbols = SymbolTable::new();
    let mut affine = |name: &str, v: Interval| -> Result<Poly, Box<dyn std::error::Error>> {
        Ok(Poly::affine(
            v.mid(),
            [(symbols.add_uniform(name, 2)?, v.rad())],
        ))
    };
    let (px, pa, pb, pc) = (
        affine("x", x)?,
        affine("a", a)?,
        affine("b", b)?,
        affine("c", c)?,
    );
    let y = pa.mul(&px.sqr()).add(&pb.mul(&px)).add(&pc);
    let center = y.constant_term();
    let radius: f64 = y
        .terms()
        .filter(|(m, _)| !m.is_one())
        .map(|(_, k)| k.abs())
        .sum();
    println!(
        "AA : y = {center:.1} ± {radius:.1}  ⇒  y ∈ {}",
        Interval::new(center - radius, center + radius)?
    );

    // SNA at increasing granularity (Table 2).
    println!("\nSNA (Cartesian histogram method):");
    println!(
        "{:>4} | {:>9} | {:>9} | {:>9} | {:>9}",
        "g", "mean", "variance", "xl", "xh"
    );
    println!("{}", "-".repeat(52));
    for g in [2usize, 4, 8, 16, 32, 64] {
        let report =
            CartesianEngine::new(256).analyze(&inputs(g)?, quadratic, &Budget::unlimited())?;
        println!(
            "{g:>4} | {:>9.4} | {:>9.4} | {:>9.4} | {:>9.4}",
            report.mean - 6.5, // error around the AA centre, as in Table 2
            report.variance,
            report.support.0 - 6.5,
            report.support.1 - 6.5
        );
    }
    println!("\ntrue range: y ∈ [5, 23] (error ∈ [-1.5, 16.5] about centre 6.5)");
    Ok(())
}
