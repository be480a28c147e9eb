//! In-process integration tests for the `sna` CLI: every subcommand is
//! driven through `sna_cli::run`, against both inline programs and the
//! shipped `examples/*.sna` files.

use std::path::PathBuf;

use sna_cli::{run, CliError};
use sna_service::{CompileCache, ExecLimits, Handler, Json, Peer, StatsRegistry};

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Path to a shipped example, independent of the test's working dir.
fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Writes an inline program to a temp file and returns its path.
fn temp_program(tag: &str, source: &str) -> String {
    let path = std::env::temp_dir().join(format!("sna-cli-test-{tag}.sna"));
    std::fs::write(&path, source).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn help_and_usage_errors() {
    assert!(run(&argv(&["help"])).unwrap().contains("sna <parse"));
    match run(&argv(&[])) {
        Err(e @ CliError::Usage(_)) => assert_eq!(e.exit_code(), 2),
        other => panic!("unexpected {other:?}"),
    }
    match run(&argv(&["frobnicate"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("unknown command")),
        other => panic!("unexpected {other:?}"),
    }
    match run(&argv(&["analyze", "--bits"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("--bits needs a value")),
        other => panic!("unexpected {other:?}"),
    }
    match run(&argv(&["analyze", "x.sna", "--engine", "warp"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("unknown engine")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn parse_reports_structure_in_both_formats() {
    let file = temp_program(
        "parse",
        "input x in [-2, 2];\ny = 0.5*x + delay y;\noutput y;\n",
    );
    let human = run(&argv(&["parse", &file])).unwrap();
    assert!(human.contains("sequential"), "{human}");
    assert!(human.contains("input  x in [-2, 2]"), "{human}");
    let json = run(&argv(&["parse", &file, "--format", "json"])).unwrap();
    assert!(json.contains("\"delays\": 1"), "{json}");
    assert!(json.contains("\"is_combinational\": false"), "{json}");
}

#[test]
fn parse_dot_and_canonical_dumps() {
    let file = temp_program("dot", "input x;\noutput y = x * x;\n");
    let dot = run(&argv(&["parse", &file, "--dot"])).unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    let canon = run(&argv(&["parse", &file, "--canon"])).unwrap();
    assert_eq!(canon, "input x;\noutput y = x * x;\n");
}

#[test]
fn parse_dump_flags_reject_contradictory_combinations() {
    let file = temp_program("combo", "input x;\noutput y = -x;\n");
    match run(&argv(&["parse", &file, "--dot", "--canon"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("mutually exclusive"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    match run(&argv(&["parse", &file, "--canon", "--format", "json"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("cannot combine"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn analyze_emits_noise_reports_on_the_acceptance_command() {
    // The ISSUE acceptance criterion, in-process:
    // `sna analyze examples/fir.sna --engine dfg --bits 8 --format json`.
    let out = run(&argv(&[
        "analyze",
        &example("fir.sna"),
        "--engine",
        "dfg",
        "--bits",
        "8",
        "--format",
        "json",
    ]))
    .unwrap();
    for key in [
        "\"variance\"",
        "\"support\"",
        "\"histogram\"",
        "\"masses\"",
        "\"quantization-noise\"",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
}

#[test]
fn analyze_runs_every_engine_on_a_suitable_example() {
    for (engine, file) in [
        ("auto", "fir.sna"),
        ("na", "diffeq.sna"),
        ("dfg", "rgb.sna"),
        ("lti", "fir.sna"),
        ("symbolic", "quadratic.sna"),
        ("cartesian", "quadratic.sna"),
    ] {
        let out = run(&argv(&[
            "analyze",
            &example(file),
            "--engine",
            engine,
            "--bins",
            "32",
        ]))
        .unwrap_or_else(|e| panic!("{engine} on {file}: {e}"));
        assert!(out.contains("output `"), "{engine}: {out}");
    }
}

#[test]
fn analyze_combinational_engines_handle_feedback_via_the_view() {
    let file = temp_program("iir", "input x;\nt = delay y;\ny = x + 0.5*t;\noutput y;\n");
    let out = run(&argv(&[
        "analyze", &file, "--engine", "dfg", "--bits", "10",
    ]))
    .unwrap();
    assert!(out.contains("output `y`"), "{out}");
}

#[test]
fn optimize_greedy_meets_the_reference_budget() {
    let out = run(&argv(&[
        "optimize",
        &example("rgb.sna"),
        "--format",
        "json",
    ]))
    .unwrap();
    assert!(out.contains("\"budget\""), "{out}");
    assert!(out.contains("\"greedy\""), "{out}");
    assert!(out.contains("\"word_lengths\""), "{out}");
}

#[test]
fn optimize_falls_back_to_histogram_noise_for_nonlinear_graphs() {
    let out = run(&argv(&[
        "optimize",
        &example("quadratic.sna"),
        "--method",
        "waterfill",
        "--ref-bits",
        "10",
    ]))
    .unwrap();
    assert!(out.contains("waterfill"), "{out}");
}

#[test]
fn synth_reports_costs_in_both_formats() {
    let human = run(&argv(&["synth", &example("quadratic.sna"), "--bits", "10"])).unwrap();
    assert!(human.contains("µm²"), "{human}");
    assert!(human.contains("latency"), "{human}");
    let json = run(&argv(&[
        "synth",
        &example("quadratic.sna"),
        "--bits",
        "10",
        "--format",
        "json",
    ]))
    .unwrap();
    assert!(json.contains("\"area_um2\""), "{json}");
    assert!(json.contains("\"latency_cycles\""), "{json}");
}

#[test]
fn diagnostics_render_carets_with_file_location() {
    let file = temp_program("bad", "input x;\ny = x +;\noutput y;\n");
    match run(&argv(&["parse", &file])) {
        Err(e @ CliError::Failed(_)) => {
            let msg = e.to_string();
            assert!(msg.contains("expected an expression"), "{msg}");
            assert!(msg.contains("-->"), "{msg}");
            assert!(msg.contains(":2:8"), "{msg}");
            assert!(msg.contains('^'), "{msg}");
            assert_eq!(e.exit_code(), 1);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn missing_file_is_a_runtime_failure() {
    match run(&argv(&["synth", "/nonexistent/x.sna"])) {
        Err(CliError::Failed(m)) => assert!(m.contains("cannot read"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}

/// The ISSUE acceptance criterion: batch `analyze` over all the shipped
/// examples produces byte-identical per-file JSON to N single-file
/// invocations, plus one trailing summary line.
#[test]
fn batch_analyze_matches_single_invocations_byte_for_byte() {
    let files: Vec<String> = ["diffeq.sna", "fir.sna", "quadratic.sna", "rgb.sna"]
        .iter()
        .map(|n| example(n))
        .collect();

    let mut singles = String::new();
    for f in &files {
        let out = run(&argv(&["analyze", f, "--format", "json"])).unwrap();
        singles.push_str(&out);
        if !out.ends_with('\n') {
            singles.push('\n');
        }
    }

    let mut batch_argv = vec!["analyze".to_string()];
    batch_argv.extend(files.iter().cloned());
    batch_argv.extend(["--format", "json", "--jobs", "4"].map(String::from));
    let batch = run(&batch_argv).unwrap();

    let summary_at = batch.rfind("{\"summary\"").expect("summary line present");
    let (body, summary) = batch.split_at(summary_at);
    let summary = summary.trim_end();
    assert_eq!(body, singles, "per-file JSON must be byte-identical");
    assert!(summary.starts_with("{\"summary\":"), "{summary}");
    assert!(summary.contains("\"files\":4"), "{summary}");
    assert!(summary.contains("\"ok\":4"), "{summary}");
    assert!(summary.contains("\"cache_misses\":4"), "{summary}");
    assert!(summary.contains("\"total_ms\":"), "{summary}");
}

#[test]
fn batch_analyze_dedupes_repeated_files_through_the_cache() {
    let file = example("rgb.sna");
    let out = run(&argv(&[
        "analyze", &file, &file, &file, "--format", "json", "--jobs", "2",
    ]))
    .unwrap();
    let summary = out.lines().last().unwrap();
    assert!(summary.contains("\"files\":3"), "{summary}");
    assert!(summary.contains("\"cache_hits\":2"), "{summary}");
    assert!(summary.contains("\"cache_misses\":1"), "{summary}");
    // Three identical documents precede the summary.
    assert_eq!(out.matches("\"command\": \"analyze\"").count(), 3);
}

#[test]
fn batch_mode_recovers_per_file_and_counts_errors() {
    let good = example("quadratic.sna");
    let bad = temp_program("batch-bad", "input x;\ny = ;\noutput y;\n");
    // A partially failed batch exits 1 (`BatchFailed`) but still carries
    // the full per-file output + summary for stdout.
    let err = run(&argv(&["analyze", &good, &bad, "--format", "json"])).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    let out = err.stdout_output().expect("batch output").to_string();
    assert!(
        out.contains("\"reports\""),
        "good file still analyzed: {out}"
    );
    assert!(out.contains("\"error\""), "bad file reported inline: {out}");
    assert!(
        out.lines().last().unwrap().contains("\"errors\":1"),
        "{out}"
    );

    // Human format: diagnostics inline, summary line at the end.
    let err = run(&argv(&["analyze", &good, &bad])).unwrap_err();
    let human = err.stdout_output().expect("batch output").to_string();
    assert!(human.contains("expected an expression"), "{human}");
    assert!(
        human.lines().last().unwrap().starts_with("batch:"),
        "{human}"
    );

    // An all-ok batch still succeeds.
    assert!(run(&argv(&["analyze", &good, &good])).is_ok());
}

#[test]
fn manifests_supply_batch_files() {
    let manifest_path = std::env::temp_dir().join("sna-cli-test-manifest.txt");
    std::fs::write(
        &manifest_path,
        format!(
            "# the two sequential examples\n{}\n\n{}\n",
            example("fir.sna"),
            example("diffeq.sna")
        ),
    )
    .unwrap();
    let out = run(&argv(&[
        "analyze",
        "--manifest",
        &manifest_path.to_string_lossy(),
        "--format",
        "json",
    ]))
    .unwrap();
    assert!(out.lines().last().unwrap().contains("\"files\":2"), "{out}");
    // A one-file manifest is still batch mode (summary present).
    std::fs::write(&manifest_path, example("rgb.sna")).unwrap();
    let out = run(&argv(&[
        "analyze",
        "--manifest",
        &manifest_path.to_string_lossy(),
    ]))
    .unwrap();
    assert!(out.lines().last().unwrap().starts_with("batch:"), "{out}");
}

#[test]
fn batch_optimize_carries_the_same_plumbing() {
    let out = run(&argv(&[
        "optimize",
        &example("rgb.sna"),
        &example("quadratic.sna"),
        "--method",
        "waterfill",
        "--format",
        "json",
        "--jobs",
        "2",
    ]))
    .unwrap();
    assert_eq!(out.matches("\"command\": \"optimize\"").count(), 2);
    let summary = out.lines().last().unwrap();
    assert!(summary.contains("\"command\":\"optimize\""), "{summary}");
    assert!(summary.contains("\"ok\":2"), "{summary}");
}

#[test]
fn jobs_flag_is_validated() {
    match run(&argv(&["analyze", "x.sna", "--jobs", "0"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("--jobs"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    match run(&argv(&["analyze", "x.sna", "--jobs", "many"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("cannot parse"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn serve_rejects_stray_arguments_but_appears_in_help() {
    match run(&argv(&["serve", "x.sna"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("no file argument"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    match run(&argv(&["serve", "--max-conns", "3"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("--listen"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(run(&argv(&["help"])).unwrap().contains("serve"));
}

/// `json` without the members named in `drop` at the top level and
/// without `elapsed_us` (wall-clock time) at any depth.
fn without(json: Json, drop: &[&str]) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "elapsed_us" && !drop.contains(&k.as_str()))
                .map(|(k, v)| (k, without(v, &[])))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(|v| without(v, &[])).collect()),
        other => other,
    }
}

#[test]
fn cli_json_is_the_server_result_on_every_example() {
    let cache = CompileCache::new();
    let stats = StatsRegistry::new();
    let handler = Handler {
        cache: &cache,
        stats: &stats,
        limits: ExecLimits::default(),
        peer: Peer::Trusted,
    };
    let csv = "x\n0.5\n-0.25\n0.75\n-0.5\n0.125\n-0.875\n0.25\n0.0\n";
    let csv_path = std::env::temp_dir().join("sna-cli-test-server-parity.csv");
    std::fs::write(&csv_path, csv).unwrap();
    let csv_path = csv_path.to_string_lossy().into_owned();

    let mut names: Vec<String> = std::fs::read_dir(example(""))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".sna"))
        .collect();
    names.sort();
    assert!(names.len() >= 4, "{names:?}");
    for name in names {
        let path = example(&name);
        let source = std::fs::read_to_string(&path).unwrap();
        // (CLI argv before the file, CLI flags after it, the request
        // without its source).
        let mut cases = vec![
            (vec!["parse"], vec![], r#"{"cmd":"parse"}"#.to_string()),
            (vec!["analyze"], vec![], r#"{"cmd":"analyze"}"#.to_string()),
            (
                vec!["analyze"],
                vec!["--engine", "dfg", "--bits", "10"],
                r#"{"cmd":"analyze","engine":"dfg","bits":10}"#.to_string(),
            ),
            (
                vec!["simulate"],
                vec!["--paths", "2000", "--seed", "7"],
                r#"{"cmd":"simulate","paths":2000,"seed":7}"#.to_string(),
            ),
            (
                vec!["optimize"],
                vec!["--method", "greedy"],
                r#"{"cmd":"optimize","method":"greedy"}"#.to_string(),
            ),
            (vec!["synth"], vec![], r#"{"cmd":"synth"}"#.to_string()),
        ];
        if name == "fir.sna" {
            let trace = Json::str(csv).to_compact();
            cases.push((
                vec!["trace", "report"],
                vec!["--trace", &csv_path],
                format!(r#"{{"cmd":"trace","mode":"report","trace":{trace}}}"#),
            ));
        }
        for (verb, flags, request) in cases {
            let cli_args = [&verb[..], &[path.as_str()], &flags, &["--format", "json"]].concat();
            let Json::Obj(mut request) = Json::parse(&request).unwrap() else {
                unreachable!("requests are objects");
            };
            request.push(("source".into(), Json::str(source.clone())));
            let response = handler.handle(&Json::Obj(request).to_compact());
            let response = Json::parse(&response.to_compact()).unwrap();
            let tag = format!("{name} {verb:?} {flags:?}");
            let out = run(&argv(&cli_args)).unwrap_or_else(|e| panic!("{tag}: {e}"));
            let cli = without(Json::parse(&out).unwrap(), &["command", "file"]);
            let result = response
                .get("result")
                .unwrap_or_else(|| panic!("{tag}: {response}"));
            assert_eq!(
                cli.to_compact(),
                without(result.clone(), &[]).to_compact(),
                "{tag}"
            );
        }
    }
}

#[test]
fn huge_worker_counts_are_clamped_without_changing_the_output() {
    // 20000 paths are 40 lane chunks; asking for 100000 workers must run
    // on at most 64 threads and report the same bytes as one worker.
    let fir = example("fir.sna");
    let simulate = |workers: &str| {
        let out = run(&argv(&[
            "simulate",
            &fir,
            "--paths",
            "20000",
            "--seed",
            "7",
            "--workers",
            workers,
            "--format",
            "json",
        ]))
        .unwrap();
        without(Json::parse(&out).unwrap(), &[]).to_compact()
    };
    assert_eq!(simulate("100000"), simulate("1"));
}
