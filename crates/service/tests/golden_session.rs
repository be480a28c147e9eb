//! Golden equivalence suite for the `Session`/`Engine` redesign: every
//! engine's output through the new unified path must be **byte-identical
//! (as JSON)** to the pre-redesign dispatch on all shipped
//! `examples/*.sna` datapaths.
//!
//! The reference below is a faithful port of the old `exec::analyze`
//! logic — per-engine hand-rolled dispatch, direct engine entry points,
//! its own range analysis and per-sample view construction — kept here
//! (and only here) as the frozen behavioral baseline.

use std::path::PathBuf;

use sna_core::{
    Budget, CartesianEngine, DfgEngine, EngineKind, EngineOptions, LtiEngine, NaModel, NoiseReport,
    SymbolicEngine, SymbolicOptions, UncertainInput,
};
use sna_dfg::{Dfg, LtiOptions, RangeOptions};
use sna_fixp::WlConfig;
use sna_interval::Interval;
use sna_lang::Lowered;
use sna_service::exec::{self, AnalyzeParams};
use sna_service::{CompileCache, Json};

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

// ----------------------------------------------------------------------
// The frozen pre-redesign dispatch
// ----------------------------------------------------------------------

fn reference_view(lowered: &Lowered) -> (Dfg, Vec<Interval>) {
    if lowered.dfg.is_combinational() {
        return (lowered.dfg.clone(), lowered.input_ranges.clone());
    }
    let node_ranges = lowered
        .dfg
        .ranges_auto(
            &lowered.input_ranges,
            &RangeOptions::default(),
            &LtiOptions::default(),
        )
        .expect("range analysis succeeds on the examples");
    let mut ranges = lowered.input_ranges.clone();
    ranges.extend(
        lowered
            .dfg
            .delay_nodes()
            .iter()
            .map(|d| node_ranges[d.index()]),
    );
    (lowered.dfg.combinational_view(), ranges)
}

fn reference_cartesian(lowered: &Lowered, bins: usize) -> Vec<(String, NoiseReport)> {
    assert!(lowered.dfg.is_combinational());
    let inputs: Vec<UncertainInput> = lowered
        .dfg
        .input_names()
        .iter()
        .zip(&lowered.input_ranges)
        .map(|(name, range)| {
            UncertainInput::uniform(name.clone(), range.lo(), range.hi(), bins).unwrap()
        })
        .collect();
    let engine = CartesianEngine::new(bins.max(2) * 2);
    lowered
        .dfg
        .outputs()
        .iter()
        .enumerate()
        .map(|(k, (name, _))| {
            let report = engine
                .analyze(
                    &inputs,
                    |ranges| {
                        lowered
                            .dfg
                            .output_ranges(ranges, &RangeOptions::default())
                            .expect("interval evaluation succeeds")[k]
                            .1
                    },
                    &Budget::unlimited(),
                )
                .unwrap();
            (name.clone(), report)
        })
        .collect()
}

fn reference_analyze(
    lowered: &Lowered,
    engine: EngineKind,
    bits: u8,
    bins: usize,
) -> Vec<(String, NoiseReport)> {
    let dfg = &lowered.dfg;
    let ranges = &lowered.input_ranges;
    match engine {
        EngineKind::Cartesian => reference_cartesian(lowered, bins),
        EngineKind::Na => {
            let model = NaModel::build(dfg, ranges, &LtiOptions::default()).unwrap();
            let config = WlConfig::from_ranges(dfg, ranges, bits).unwrap();
            model.evaluate(dfg, &config)
        }
        EngineKind::Auto => {
            let config = WlConfig::from_ranges(dfg, ranges, bits).unwrap();
            if dfg.is_linear() {
                LtiEngine::build(dfg, ranges, &LtiOptions::default(), bins)
                    .unwrap()
                    .analyze(dfg, &config, &Budget::unlimited())
                    .unwrap()
            } else {
                assert!(dfg.is_combinational());
                DfgEngine::new(EngineOptions::default().with_bins(bins))
                    .analyze(dfg, &config, ranges, &Budget::unlimited())
                    .unwrap()
            }
        }
        EngineKind::Lti => {
            let config = WlConfig::from_ranges(dfg, ranges, bits).unwrap();
            LtiEngine::build(dfg, ranges, &LtiOptions::default(), bins)
                .unwrap()
                .analyze(dfg, &config, &Budget::unlimited())
                .unwrap()
        }
        EngineKind::Dfg => {
            let (view, vranges) = reference_view(lowered);
            let config = WlConfig::from_ranges(&view, &vranges, bits).unwrap();
            DfgEngine::new(EngineOptions::default().with_bins(bins))
                .analyze(&view, &config, &vranges, &Budget::unlimited())
                .unwrap()
        }
        EngineKind::Symbolic => {
            let (view, vranges) = reference_view(lowered);
            let config = WlConfig::from_ranges(&view, &vranges, bits).unwrap();
            SymbolicEngine::new(SymbolicOptions {
                symbol_bins: bins,
                out_bins: bins * 2,
                ..Default::default()
            })
            .analyze(&view, &config, &vranges, &Budget::unlimited())
            .unwrap()
            .reports
        }
        // Monte-Carlo simulation has no independent scalar reference to
        // golden-compare against here; its own differential suite (in
        // `sna-core`) checks it bit-for-bit against the scalar
        // simulators instead.
        EngineKind::Simulate => unreachable!("simulate is not part of the golden matrix"),
    }
}

/// Renders a report list exactly like the CLI/server do — the byte-level
/// contract of this suite.
fn render(reports: &[(String, NoiseReport)]) -> String {
    Json::Arr(
        reports
            .iter()
            .map(|(name, r)| exec::report_json(name, r, true))
            .collect(),
    )
    .to_string()
}

/// Which engines each example supports (matrix mirrors the engines'
/// structural requirements: na/lti need linearity, cartesian needs a
/// combinational graph).
fn engine_matrix() -> Vec<(&'static str, Vec<EngineKind>)> {
    use EngineKind::*;
    vec![
        ("fir.sna", vec![Auto, Na, Lti, Dfg]),
        ("diffeq.sna", vec![Auto, Na, Lti, Dfg]),
        ("quadratic.sna", vec![Auto, Dfg, Symbolic, Cartesian]),
        ("rgb.sna", vec![Auto, Na, Lti, Dfg, Symbolic, Cartesian]),
    ]
}

#[test]
fn every_engine_is_byte_identical_to_the_pre_redesign_path_on_all_examples() {
    let bits = 9u8;
    let bins = 24usize;
    let cache = CompileCache::new();
    for (file, engines) in engine_matrix() {
        let source = example(file);
        let (entry, _) = cache.get_or_compile(&source).unwrap();
        let lowered = sna_lang::compile(&source).unwrap();
        for engine in engines {
            let new_path = exec::analyze_report(&entry, &AnalyzeParams { engine, bits, bins })
                .unwrap_or_else(|e| panic!("{file} {}: {e}", engine.name()))
                .reports;
            let old_path = reference_analyze(&lowered, engine, bits, bins);
            assert_eq!(
                render(&new_path),
                render(&old_path),
                "{file} {}: JSON diverged from the pre-redesign path",
                engine.name()
            );
        }
    }
}

#[test]
fn auto_provenance_is_reported_per_structure() {
    let cache = CompileCache::new();
    let (fir, _) = cache.get_or_compile(&example("fir.sna")).unwrap();
    let report = exec::analyze_report(&fir, &AnalyzeParams::default()).unwrap();
    assert_eq!(
        report.engine,
        EngineKind::Lti,
        "linear graphs auto-pick LTI"
    );

    let (quad, _) = cache.get_or_compile(&example("quadratic.sna")).unwrap();
    let report = exec::analyze_report(&quad, &AnalyzeParams::default()).unwrap();
    assert_eq!(
        report.engine,
        EngineKind::Dfg,
        "nonlinear combinational graphs fall back to histograms"
    );
}

#[test]
fn repeated_requests_reuse_the_session_artifacts() {
    // Two engines that share the gain model (na + lti) against one
    // cached entry: the model must build exactly once.
    let cache = CompileCache::new();
    let (entry, _) = cache.get_or_compile(&example("fir.sna")).unwrap();
    for engine in [EngineKind::Na, EngineKind::Lti, EngineKind::Auto] {
        exec::analyze_report(
            &entry,
            &AnalyzeParams {
                engine,
                bits: 10,
                bins: 32,
            },
        )
        .unwrap();
    }
    let stats = entry.session.stats();
    assert_eq!(stats.na_builds, 1, "{stats:?}");
    assert_eq!(stats.range_builds, 1, "{stats:?}");
}
