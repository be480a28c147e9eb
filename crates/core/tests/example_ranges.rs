//! Range analysis on every shipped `examples/*.sna` datapath: the
//! divergence proof inside [`Dfg::ranges_auto`] changes no bit of any
//! example's ranges, and it fires on the paper's Design I
//! (`diffeq.sna`) alone, whose interval fixpoint overflows after
//! hundreds of passes.

use std::path::PathBuf;

use sna_dfg::{Dfg, DfgError, LtiOptions, RangeOptions};
use sna_interval::Interval;

fn examples() -> Vec<(String, sna_lang::Lowered)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut out: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sna"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("readable example");
            (name, sna_lang::compile(&source).expect("example compiles"))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Ranges as bit patterns.
fn bits(ranges: Result<Vec<Interval>, DfgError>) -> Result<Vec<(u64, u64)>, DfgError> {
    ranges.map(|r| {
        r.iter()
            .map(|i| (i.lo().to_bits(), i.hi().to_bits()))
            .collect()
    })
}

/// The interval fixpoint run to the end, then the LTI bound where it
/// diverges on a linear graph.
fn reference(g: &Dfg, input: &[Interval]) -> Result<Vec<Interval>, DfgError> {
    match g.ranges_interval(input, &RangeOptions::default()) {
        Err(DfgError::RangeDivergence { .. }) if g.is_linear() => {
            g.ranges_lti(input, &LtiOptions::default())
        }
        other => other,
    }
}

#[test]
fn ranges_auto_is_the_full_fixpoint_on_every_example() {
    let mut fired = Vec::new();
    for (name, lowered) in examples() {
        let (g, input) = (&lowered.dfg, &lowered.input_ranges);
        let auto = g.ranges_auto(input, &RangeOptions::default(), &LtiOptions::default());
        assert_eq!(bits(auto), bits(reference(g, input)), "{name}");
        let opts = RangeOptions::default();
        match (
            g.ranges_interval(input, &opts),
            g.ranges_interval_certified(input, &opts),
        ) {
            (
                Err(DfgError::RangeDivergence { iterations: ran }),
                Err(DfgError::RangeDivergence { iterations: cut }),
            ) if cut < ran => {
                assert_eq!(cut, g.delay_nodes().len() + 2, "{name}");
                fired.push(name);
            }
            (full, certified) => assert_eq!(bits(full), bits(certified), "{name}"),
        }
    }
    assert_eq!(fired, ["diffeq"]);
}
