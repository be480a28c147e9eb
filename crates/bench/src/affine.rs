//! Affine arithmetic for Table 1's AA row, as the first-order view of a
//! noise-symbol polynomial: one symbol ε ∈ [-1, 1] per input, the constant
//! term as the centre and every other monomial bounded by its
//! coefficient's magnitude.

use sna_expr::{Poly, SymbolTable};
use sna_interval::Interval;

use crate::Error;

/// Bounds `y = a·x² + b·x + c` in affine arithmetic, returning
/// `(center, radius)`.
pub(crate) fn quadratic(
    x: Interval,
    a: Interval,
    b: Interval,
    c: Interval,
) -> Result<(f64, f64), Error> {
    let mut symbols = SymbolTable::new();
    let mut affine = |name: &str, v: Interval| -> Result<Poly, Error> {
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
    let radius = y
        .terms()
        .filter(|(m, _)| !m.is_one())
        .map(|(_, k)| k.abs())
        .sum();
    Ok((y.constant_term(), radius))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn paper_table1_aa_row() {
        // y = a x² + b x + c: the paper reports y = 6.5 + 16.5·ε ⇒ [-10, 23].
        let (center, radius) =
            quadratic(iv(-1.0, 1.0), iv(9.0, 10.0), iv(-6.0, -4.0), iv(6.0, 7.0)).unwrap();
        assert_eq!(center, 6.5);
        assert!((radius - 16.5).abs() < 1e-12);
        assert_eq!(iv(center - radius, center + radius), iv(-10.0, 23.0));
    }
}
