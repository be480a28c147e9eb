//! In-process integration tests for the persistent-store surface of the
//! CLI: the `sna store` maintenance verbs, the resumable `optimize
//! --pareto` sweep that writes checkpoints there, and the commands that
//! do not take `--store-dir`.

use std::path::PathBuf;

use sna_cli::{run, CliError};

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Writes an inline program to a temp file and returns its path.
fn temp_program(tag: &str, source: &str) -> String {
    let path = std::env::temp_dir().join(format!("sna-store-cli-{tag}.sna"));
    std::fs::write(&path, source).unwrap();
    path.to_string_lossy().into_owned()
}

/// A fresh store directory for one test.
fn store_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("sna-store-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

const FIR: &str = "input x in [-1, 1];\noutput y = 0.5*x + 0.25*delay x;\n";

/// Fills `dir` with the checkpoints of a finished Pareto sweep of `file`.
fn checkpoint_into(file: &str, dir: &str) {
    run(&argv(&[
        "optimize",
        file,
        "--pareto",
        "--points",
        "2",
        "--checkpoint-every",
        "2",
        "--store-dir",
        dir,
    ]))
    .unwrap();
}

#[test]
fn store_verbs_list_collect_and_verify() {
    let file = temp_program("verbs", FIR);
    let dir = store_dir("verbs");
    checkpoint_into(&file, &dir);

    let ls = run(&argv(&["store", "ls", "--store-dir", &dir])).unwrap();
    assert!(ls.contains("pareto-ckpt"), "{ls}");
    assert!(ls.contains("byte(s) in"), "{ls}");
    let ls_json = run(&argv(&[
        "store",
        "ls",
        "--store-dir",
        &dir,
        "--format",
        "json",
    ]))
    .unwrap();
    assert!(ls_json.contains("\"kind\": \"pareto-ckpt\""), "{ls_json}");

    let verify = run(&argv(&["store", "verify", "--store-dir", &dir])).unwrap();
    assert!(verify.contains("0 corrupt"), "{verify}");

    // A generous budget keeps everything; a zero budget clears the store.
    let keep = run(&argv(&[
        "store",
        "gc",
        "--store-dir",
        &dir,
        "--budget",
        "1000000",
    ]))
    .unwrap();
    assert!(keep.contains("removed 0 object(s)"), "{keep}");
    let clear = run(&argv(&[
        "store",
        "gc",
        "--store-dir",
        &dir,
        "--budget",
        "0",
    ]))
    .unwrap();
    assert!(clear.contains("kept 0 object(s)"), "{clear}");
}

#[test]
fn store_verify_reports_and_repairs_corruption() {
    let file = temp_program("corrupt", FIR);
    let dir = store_dir("corrupt");
    checkpoint_into(&file, &dir);

    // Truncate one object on disk.
    let objects: Vec<PathBuf> = walk(&PathBuf::from(&dir))
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "obj"))
        .collect();
    assert!(!objects.is_empty());
    let victim = &objects[0];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() - 3]).unwrap();

    // Corruption found → exit-1 style error carrying the report.
    match run(&argv(&["store", "verify", "--store-dir", &dir])) {
        Err(e @ CliError::BatchFailed(_)) => {
            assert_eq!(e.exit_code(), 1);
            let out = e.stdout_output().unwrap();
            assert!(out.contains("corrupt:"), "{out}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Repair deletes it; a second verify is clean.
    let _ = run(&argv(&["store", "verify", "--store-dir", &dir, "--repair"]));
    assert!(!victim.exists());
    let clean = run(&argv(&["store", "verify", "--store-dir", &dir])).unwrap();
    assert!(clean.contains("0 corrupt"), "{clean}");
}

#[test]
fn store_usage_errors() {
    for bad in [
        vec!["store"],
        vec!["store", "ls"],
        vec!["store", "frobnicate", "--store-dir", "/tmp/x"],
        vec!["store", "gc", "--store-dir", "/tmp/x"],
        vec!["store", "ls", "--store-dir", "/tmp/x", "--repair"],
        vec!["store", "verify", "--store-dir", "/tmp/x", "--budget", "1"],
    ] {
        match run(&argv(&bad)) {
            Err(CliError::Usage(_)) => {}
            other => panic!("{bad:?}: unexpected {other:?}"),
        }
    }
}

/// Compiled models are not stored: `--store-dir` is an unknown flag to
/// `analyze`, `simulate` and `serve`, and `optimize` takes it only for
/// the sweep's checkpoints.
#[test]
fn store_dir_is_refused_where_nothing_is_stored() {
    let file = temp_program("refused", FIR);
    for cmd in ["analyze", "simulate"] {
        match run(&argv(&[cmd, &file, "--store-dir", "/tmp/x"])) {
            Err(CliError::Usage(m)) => assert!(m.contains("unknown flag `--store-dir`"), "{m}"),
            other => panic!("{cmd}: unexpected {other:?}"),
        }
    }
    match run(&argv(&["serve", "--store-dir", "/tmp/x"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("unknown flag `--store-dir`"), "{m}"),
        other => panic!("serve: unexpected {other:?}"),
    }
    match run(&argv(&["optimize", &file, "--store-dir", "/tmp/x"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("only applies with --pareto"), "{m}"),
        other => panic!("optimize: unexpected {other:?}"),
    }
}

/// Fitted trace ranges are not stored either: `trace --store-dir` is an
/// unknown flag, refused before the CSV is read.
#[test]
fn trace_store_dir_is_refused() {
    let file = temp_program("trace-refused", FIR);
    for mode in ["fit", "replay", "report"] {
        let args = [
            "trace",
            mode,
            &file,
            "--trace",
            "missing.csv",
            "--store-dir",
            "/tmp/x",
        ];
        match run(&argv(&args)) {
            Err(CliError::Usage(m)) => assert!(m.contains("unknown flag `--store-dir`"), "{m}"),
            other => panic!("trace {mode}: unexpected {other:?}"),
        }
    }
}

#[test]
fn pareto_sweep_reports_a_frontier() {
    let file = temp_program("pareto", FIR);
    let human = run(&argv(&[
        "optimize",
        &file,
        "--pareto",
        "--points",
        "2",
        "--checkpoint-every",
        "3",
    ]))
    .unwrap();
    assert!(human.contains("pareto sweep"), "{human}");
    assert!(human.contains("= 6 candidate(s)"), "{human}");
    assert!(human.contains("resumed at 0"), "{human}");

    let json = run(&argv(&[
        "optimize", &file, "--pareto", "--points", "2", "--format", "json",
    ]))
    .unwrap();
    assert!(json.contains("\"mode\": \"pareto\""), "{json}");
    assert!(json.contains("\"objective\""), "{json}");
    assert!(json.contains("\"word_lengths\""), "{json}");
}

#[test]
fn pareto_resumes_from_the_store_checkpoint() {
    let file = temp_program("pareto-resume", FIR);
    let dir = store_dir("pareto-resume");
    let args = |d: &str| {
        argv(&[
            "optimize",
            &file,
            "--pareto",
            "--points",
            "2",
            "--checkpoint-every",
            "2",
            "--store-dir",
            d,
            "--format",
            "json",
        ])
    };
    let first = run(&args(&dir)).unwrap();
    assert!(first.contains("\"resumed_at\": 0"), "{first}");
    // The finished checkpoint short-circuits the rerun entirely, and the
    // frontier is byte-identical.
    let second = run(&args(&dir)).unwrap();
    assert!(second.contains("\"resumed_at\": 6"), "{second}");
    assert!(second.contains("\"evaluated\": 0"), "{second}");
    let frontier = |s: &str| s.split("\"frontier\"").nth(1).unwrap().to_string();
    assert_eq!(frontier(&first), frontier(&second));
}

#[test]
fn pareto_flags_are_guarded() {
    let file = temp_program("pareto-guard", FIR);
    // Sweep flags without --pareto.
    match run(&argv(&["optimize", &file, "--points", "4"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("only apply with --pareto"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // Batch + --pareto.
    match run(&argv(&["optimize", &file, &file, "--pareto"])) {
        Err(CliError::Usage(m)) => assert!(m.contains("single file"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
    // Invalid spec surfaces the opt-layer error.
    match run(&argv(&["optimize", &file, "--pareto", "--points", "0"])) {
        Err(CliError::Failed(m)) => assert!(m.contains("invalid pareto sweep"), "{m}"),
        other => panic!("unexpected {other:?}"),
    }
}

/// Recursively collects every file under `dir`.
fn walk(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
