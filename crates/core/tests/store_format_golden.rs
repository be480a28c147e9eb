//! Frozen bytes of the persistent store's skeleton format.
//!
//! A server spills each compiled program as [`Session::export_wire`] and
//! a later process imports it instead of recompiling, so a layout change
//! anywhere below it (graph, node names, ranges, the NA gain matrix, VM
//! bytecode) would make stored skeletons decode into different sessions.
//! The hashes below pin the full export, with ranges, the gain model and
//! the VM program built, of every shipped example and of one generated
//! design per family of the cold-sweep workload: a gapped FIR, a biquad
//! cascade with `range` overrides and a matrix-vector bank.

use sna_core::Session;
use sna_lang::{compile, fnv1a_64};

/// The skeleton of `source` with every stage built that builds.
fn export_hash(name: &str, source: &str) -> u64 {
    let lowered = compile(source).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let session = Session::new(lowered.dfg, lowered.input_ranges).expect("consistent inputs");
    session.node_ranges().expect("ranges build");
    // Nonlinear designs have no gain model; the export then says so.
    assert_eq!(
        session.na_model().is_ok(),
        session.dfg().is_linear(),
        "{name}"
    );
    let _ = session.vm_program();
    fnv1a_64(&session.export_wire())
}

/// A 64-tap FIR with gaps in its delays and named coefficients.
fn gapped_fir() -> String {
    let mut s = String::from("input x in [-1, 1];\n");
    let mut terms = Vec::new();
    let mut delay = 0;
    for i in 0..64 {
        let c = 0.01 + f64::from((i * 29) % 23) / 230.0;
        s.push_str(&format!("let c{i} = {c:.6};\n"));
        terms.push(if delay == 0 {
            format!("c{i}*x")
        } else {
            format!("c{i}*x[n-{delay}]")
        });
        delay += 1 + usize::from(i % 5 == 4);
    }
    s.push_str(&format!("output y = {};\n", terms.join(" + ")));
    s
}

/// Three biquad sections with `range` overrides on their accumulators.
fn biquad_cascade() -> String {
    let mut s = String::from("input x in [-0.5, 0.5];\n");
    let mut src = "x".to_string();
    for (k, (radius, angle, bound)) in [(0.6f64, 0.9f64, 2.5), (0.8, 1.7, 3.5), (0.4, 2.2, 1.5)]
        .into_iter()
        .enumerate()
    {
        let (a1, a2) = (2.0 * radius * angle.cos(), -radius * radius);
        s.push_str(&format!(
            "acc{k} = 0.25*{src} + 0.125*{src}[n-1] + 0.0625*{src}[n-2] + {a1:.6}*y{k}[n-1] \
             + {a2:.6}*y{k}[n-2] range [-{bound}, {bound}];\ny{k} = acc{k};\n"
        ));
        src = format!("y{k}");
    }
    s.push_str(&format!("output out = {src};\n"));
    s
}

/// Two matrix-vector layers over `v[8]`, four sums per layer with some
/// terms left out.
fn matvec_bank() -> String {
    let mut s = String::from("input v[8] in [-1, 1];\n");
    let mut prev: Vec<String> = (0..8).map(|i| format!("v[{i}]")).collect();
    for l in 0..2 {
        let mut names = Vec::new();
        for j in 0..4 {
            let terms: Vec<String> = (0..prev.len())
                .filter(|i| (i + 2 * j + l) % 5 != 0)
                .map(|i| format!("{:.6}*{}", 0.05 + 0.03 * (i + j) as f64, prev[i]))
                .collect();
            s.push_str(&format!("h{l}_{j} = {};\n", terms.join(" + ")));
            names.push(format!("h{l}_{j}"));
        }
        prev = names;
    }
    for (j, name) in prev.iter().enumerate() {
        s.push_str(&format!("output o{j} = {name};\n"));
    }
    s
}

#[test]
fn skeletons_of_the_examples_are_frozen() {
    let golden: &[(&str, u64)] = &[
        ("biquad.sna", 0x5f0e_0683_39fa_baa8),
        ("diffeq.sna", 0x2096_8fd0_2d6b_21ac),
        ("fir.sna", 0x0a0a_4e17_818b_2cd9),
        ("fir_taps.sna", 0x7e6f_ef13_4a7b_b640),
        ("quadratic.sna", 0xedb4_a7f8_4d67_d802),
        ("rgb.sna", 0x65c2_b2f3_726d_5ac4),
        ("vec_dot.sna", 0x384a_9acf_eab5_48dd),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut shipped: Vec<String> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".sna"))
        .collect();
    shipped.sort();
    let frozen: Vec<&str> = golden.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        shipped, frozen,
        "every shipped example needs a frozen skeleton"
    );
    let moved: Vec<String> = golden
        .iter()
        .filter_map(|&(name, hash)| {
            let source = std::fs::read_to_string(format!("{dir}/{name}")).expect("example");
            let got = export_hash(name, &source);
            (got != hash).then(|| format!("{name}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "skeleton bytes moved: {moved:#?}");
}

#[test]
fn skeletons_of_generated_designs_are_frozen() {
    let moved: Vec<String> = [
        ("gapped fir", gapped_fir(), 0x6825_76e4_d8bb_7924),
        ("biquad cascade", biquad_cascade(), 0xff17_c491_51de_1b8f),
        ("matrix-vector bank", matvec_bank(), 0x3b7b_9532_65f5_9492),
    ]
    .into_iter()
    .filter_map(|(name, source, hash)| {
        let got = export_hash(name, &source);
        (got != hash).then(|| format!("{name}: {got:#018x}"))
    })
    .collect();
    assert!(moved.is_empty(), "skeleton bytes moved: {moved:#?}");
}
