//! A short run of every workload, untraced and traced: the command must
//! pass its correctness gate (`failed_ratio` 0) and print exactly the
//! metrics `BENCHMARK.json` declares, under valid names.
//!
//! ```text
//! cargo test --release --manifest-path e2e/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use sna_service::Json;

/// Runs share two cores and a build directory: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_sna-e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result is JSON");
    let report = lines
        .next()
        .and_then(|l| l.strip_prefix("report "))
        .expect("a report line before the result");
    let report = Json::parse(report).expect("report is JSON");

    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    assert_eq!(report.get("failed_ratio").and_then(Json::as_f64), Some(0.0));

    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {stdout}");
    };
    let mut printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(valid_name(name), "invalid metric name `{name}`");
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} has no value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    let mut expected = declared(if trace { "per_layer" } else { "end_to_end" });
    printed.sort();
    expected.sort();
    assert_eq!(
        printed, expected,
        "printed metrics differ from BENCHMARK.json"
    );
}

#[test]
fn warm_mix() {
    run("warm-mix", false);
    run("warm-mix", true);
}

#[test]
fn cold_sweep() {
    run("cold-sweep", false);
    run("cold-sweep", true);
}

#[test]
fn tiny_pipelined() {
    run("tiny-pipelined", false);
    run("tiny-pipelined", true);
}

#[test]
fn metric_names_are_valid() {
    assert!(valid_name("layer.self_us.service.event_loop"));
    assert!(valid_name("req_per_s"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}
