//! Smoke test of the benchmark at tiny sizes: on every workload, each
//! metric `BENCHMARK.json` names is emitted with its unit, the outputs
//! pass their checks, and the traced run computes `trace.coverage`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["table1", "long-prologue", "campaign"];

fn repo_file(name: &str) -> String {
    let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|error| panic!("{path}: {error}"))
}

/// The `"key": "value"` string field of a flat JSON object's text.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\": \"");
    let start = object
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {object}"))
        + pattern.len();
    object[start..].split('"').next().expect("closing quote")
}

/// `(name, unit)` of each metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = repo_file("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").to_owned(),
                field(entry, "unit").to_owned(),
            )
        })
        .collect()
}

/// Runs the benchmark binary and returns the last line of its output.
fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

/// The value of metric `name` in a result line, checking its unit.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let pattern = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + pattern.len();
    let rest = &line[start..];
    let (value, rest) = rest.split_at(rest.find(',').expect("value ends"));
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a number in {line}"));
    assert!(value.is_finite(), "{name} is not finite");
    assert!(
        rest.starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} lacks unit {unit} in {line}"
    );
    value
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{workload}: {line}"
        );
        for (name, unit) in declared(section) {
            metric(&line, &name, &unit);
        }
        if trace == "1" {
            let coverage = metric(&line, "trace.coverage", "ratio");
            assert!(
                coverage > 0.0 && coverage <= 1.0 + 1e-9,
                "{workload}: coverage {coverage}"
            );
        } else {
            assert!(metric(&line, "wall_s", "s") > 0.0);
        }
    }
}

#[test]
fn table1_emits_every_metric() {
    check(WORKLOADS[0]);
}

#[test]
fn long_prologue_emits_every_metric() {
    check(WORKLOADS[1]);
}

#[test]
fn campaign_emits_every_metric() {
    check(WORKLOADS[2]);
}

#[test]
fn every_per_layer_metric_has_a_stated_interaction() {
    let interactions = repo_file("e2e/interactions.json");
    for (name, _) in declared("per_layer") {
        assert!(
            interactions.contains(&format!("\"{name}\"")),
            "e2e/interactions.json does not state what {name} should move"
        );
    }
    for workload in WORKLOADS {
        assert!(repo_file("BENCHMARK.json").contains(&format!("\"name\": \"{workload}\"")));
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
