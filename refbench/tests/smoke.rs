//! A tiny run of every workload, untraced and traced, through the
//! benchmark's command line: each passes its gates, and its last stdout
//! line is the result object with exactly the metrics `BENCHMARK.json`
//! declares, in their units.

use std::process::Command;

/// The entries of one section of `BENCHMARK.json`.
fn entries<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = json[start..].find(']').expect("section closes") + start;
    json[start..end].split('{').skip(1).collect()
}

/// The string value of `key` in one entry.
fn field(entry: &str, key: &str) -> String {
    let from = entry
        .find(&format!("\"{key}\": \""))
        .expect("field present")
        + key.len()
        + 5;
    entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    entries(json, section)
        .into_iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The value of metric `name` with unit `unit` in a result line.
fn value(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let from = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {result}"))
        + key.len();
    let rest = &result[from..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} not in {unit}"
    );
    rest[..end].parse().expect("a number")
}

#[test]
fn tiny_runs_pass_their_gates_and_emit_every_declared_metric() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let json = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let (e2e, layers) = (declared(&json, "end_to_end"), declared(&json, "per_layer"));
    // Every workload the benchmark knows runs; `BENCHMARK.json` declares
    // some of them (not `dna-de-uniform`, see the README).
    let known = ["dict-dc-uniform", "dna-de-uniform", "hot-mixed"];
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|entry| field(entry, "name"))
        .collect();
    assert!(workloads.len() >= 2, "{workloads:?}");
    assert!(workloads.iter().all(|w| known.contains(&w.as_str())));
    for workload in known {
        for (trace, metrics) in [("0", &e2e), ("1", &layers)] {
            let out = Command::new(env!("CARGO_BIN_EXE_cned-refbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "3"])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(dir)
                .output()
                .expect("run the benchmark");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            assert!(
                result.contains(", \"failed\": 0, \"metrics\": {"),
                "{result}"
            );
            assert_eq!(
                result.matches("\"value\"").count(),
                metrics.len(),
                "{result}"
            );
            for (name, unit) in metrics {
                let v = value(result, name, unit);
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if trace == "0" {
                    assert!(v > 0.0, "{workload}: {name} must never be 0");
                }
            }
        }
    }
}
