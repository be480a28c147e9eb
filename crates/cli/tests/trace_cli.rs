//! In-process integration tests for `sna trace` — the acceptance path:
//! a recorded signal for `examples/fir.sna` replayed through the paired
//! exact/quantized VM lanes, measured noise next to the analytic
//! prediction, bit-identical across worker counts.

use sna_cli::{run, CliError, Json};

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Resolves a path under the repo's `examples/` directory.
fn example(name: &str) -> String {
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("examples");
    path.push(name);
    path.to_string_lossy().into_owned()
}

/// Writes a deterministic recorded trace (the Weyl sequence from
/// `examples/gen_trace.rs`) to a temp CSV and returns its path.
fn temp_trace(tag: &str, rows: usize, amp: f64) -> String {
    let mut csv = String::from("x\n");
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rows {
        state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        csv.push_str(&format!("{}\n", amp * (2.0 * u - 1.0)));
    }
    let path = std::env::temp_dir().join(format!("sna-trace-cli-{tag}-{}.csv", std::process::id()));
    std::fs::write(&path, csv).unwrap();
    path.to_string_lossy().into_owned()
}

/// The acceptance command: `trace report` on the FIR example must put
/// the measured output variance within tolerance of the NA prediction.
#[test]
fn trace_report_measured_variance_tracks_the_prediction() {
    let csv = temp_trace("accept", 8192, 0.8);
    let out = run(&argv(&[
        "trace",
        "report",
        &example("fir.sna"),
        "--trace",
        &csv,
        "--format",
        "json",
    ]))
    .unwrap();
    let doc = Json::parse(&out).unwrap();
    assert_eq!(doc.get("command").unwrap().as_str(), Some("trace"));
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("report"));
    // The FIR has delays, so the analytic side is the LTI engine.
    assert_eq!(doc.get("predicted_by").unwrap().as_str(), Some("lti"));
    let Some(Json::Arr(outputs)) = doc.get("outputs") else {
        panic!("no outputs array in {out}");
    };
    assert_eq!(outputs.len(), 1);
    let y = &outputs[0];
    assert_eq!(y.get("output").unwrap().as_str(), Some("y"));
    let measured = y.get("measured").unwrap().get("variance").unwrap();
    let predicted = y.get("predicted").unwrap().get("variance").unwrap();
    assert!(measured.as_f64().unwrap() > 0.0, "{out}");
    assert!(predicted.as_f64().unwrap() > 0.0, "{out}");
    // The documented tolerance: relative variance gap under 1.5 — the
    // measured noise stays within the prediction's order of magnitude.
    // The analytic model treats the 25 taps' quantization errors as
    // independent, but they are delayed copies of the *same* rounded
    // signal, so it stably under-predicts this FIR by roughly 1.85×
    // (rel ≈ 0.85 across 4k–20k-row traces) — exactly the model-vs-
    // measurement gap the trace verbs exist to expose.
    let rel = y
        .get("variance_gap")
        .unwrap()
        .get("rel")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        rel.abs() < 1.5,
        "relative variance gap {rel} too wide:\n{out}"
    );
}

/// The replay is segmented deterministically, so the worker count must
/// never change a bit of the report.
#[test]
fn trace_report_is_bit_identical_across_worker_counts() {
    let csv = temp_trace("workers", 4096, 0.8);
    let report = |workers: &str| {
        run(&argv(&[
            "trace",
            "report",
            &example("fir.sna"),
            "--trace",
            &csv,
            "--workers",
            workers,
            "--format",
            "json",
        ]))
        .unwrap()
    };
    // Everything from `fit` on is the payload; the skipped prefix holds
    // only the wall-clock `elapsed_us` field.
    let payload = |s: &str| s.split("\"fit\"").nth(1).unwrap().to_string();
    let one = report("1");
    assert_eq!(payload(&one), payload(&report("4")));
    assert_eq!(payload(&one), payload(&report("8")));
}

/// `fit` reports the measured ranges, which are strictly tighter than
/// the declared `[-1, 1]` for an amplitude-0.8 recording.
#[test]
fn trace_fit_reports_measured_ranges() {
    let csv = temp_trace("fit", 2048, 0.8);
    let out = run(&argv(&[
        "trace",
        "fit",
        &example("fir.sna"),
        "--trace",
        &csv,
        "--format",
        "json",
    ]))
    .unwrap();
    let doc = Json::parse(&out).unwrap();
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("fit"));
    assert_eq!(doc.get("rows").unwrap().as_f64(), Some(2048.0));
    let Some(Json::Arr(fit)) = doc.get("fit") else {
        panic!("no fit array in {out}");
    };
    assert_eq!(fit.len(), 1);
    assert_eq!(fit[0].get("input").unwrap().as_str(), Some("x"));
    let Some(Json::Arr(range)) = fit[0].get("range") else {
        panic!("no range pair in {out}");
    };
    let (lo, hi) = (range[0].as_f64().unwrap(), range[1].as_f64().unwrap());
    assert!((-0.8..-0.7).contains(&lo), "{out}");
    assert!((0.7..=0.8).contains(&hi), "{out}");

    // The human rendering carries the same numbers.
    let human = run(&argv(&[
        "trace",
        "fit",
        &example("fir.sna"),
        "--trace",
        &csv,
    ]))
    .unwrap();
    assert!(human.contains("trace fit"), "{human}");
    assert!(human.contains("input `x`"), "{human}");
}

/// `replay` is the measurement alone — no analytic engine, no gaps.
#[test]
fn trace_replay_skips_the_prediction() {
    let csv = temp_trace("replay", 1024, 0.8);
    let out = run(&argv(&[
        "trace",
        "replay",
        &example("fir.sna"),
        "--trace",
        &csv,
        "--format",
        "json",
    ]))
    .unwrap();
    let doc = Json::parse(&out).unwrap();
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("replay"));
    assert!(matches!(doc.get("predicted_by"), Some(Json::Null)), "{out}");
    let Some(Json::Arr(outputs)) = doc.get("outputs") else {
        panic!("no outputs array in {out}");
    };
    assert!(
        matches!(outputs[0].get("predicted"), Some(Json::Null)),
        "{out}"
    );
    assert!(
        matches!(outputs[0].get("variance_gap"), Some(Json::Null)),
        "{out}"
    );

    let human = run(&argv(&[
        "trace",
        "replay",
        &example("fir.sna"),
        "--trace",
        &csv,
    ]))
    .unwrap();
    assert!(human.contains("measured numbers only"), "{human}");
}

/// `--store-dir` spills the fitted ranges as `tracefit` objects.
#[test]
fn trace_store_dir_spills_fitted_ranges() {
    let csv = temp_trace("spill", 512, 0.8);
    let dir = std::env::temp_dir().join(format!("sna-trace-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();
    run(&argv(&[
        "trace",
        "fit",
        &example("fir.sna"),
        "--trace",
        &csv,
        "--store-dir",
        &dir,
    ]))
    .unwrap();
    let ls = run(&argv(&["store", "ls", "--store-dir", &dir])).unwrap();
    assert!(ls.contains("tracefit"), "{ls}");
    assert!(!ls.contains("skel"), "{ls}");
}

#[test]
fn trace_usage_errors() {
    let csv = temp_trace("usage", 4, 0.8);
    let file = example("fir.sna");
    // Missing mode entirely.
    match run(&argv(&["trace", "--trace", &csv])) {
        Err(CliError::Usage(m)) => assert!(m.contains("missing <fit|replay|report>"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // Unknown mode.
    match run(&argv(&["trace", "frobnicate", &file, "--trace", &csv])) {
        Err(CliError::Usage(m)) => assert!(m.contains("unknown trace mode"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // Missing the recording itself.
    match run(&argv(&["trace", "report", &file])) {
        Err(CliError::Usage(m)) => assert!(m.contains("missing --trace"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // A CSV with no column for the design's input is a per-file failure.
    let bad = std::env::temp_dir().join(format!("sna-trace-cli-bad-{}.csv", std::process::id()));
    std::fs::write(&bad, "z\n1.0\n").unwrap();
    match run(&argv(&[
        "trace",
        "report",
        &file,
        "--trace",
        &bad.to_string_lossy(),
    ])) {
        Err(CliError::Failed(m)) => assert!(m.contains("no column for input"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}
