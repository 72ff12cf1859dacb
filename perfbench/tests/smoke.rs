//! Tiny-scale smoke run of every workload, untraced and traced: the
//! result line must carry exactly the metrics `BENCHMARK.json` declares
//! for that mode, each finite and with its declared unit.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// `(name, value, unit)` of every metric in a result line.
fn printed(line: &str) -> Vec<(String, f64, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let mut out = Vec::new();
    for entry in metrics
        .split("}, \"")
        .map(|e| e.trim_start_matches("\"metrics\": {\""))
    {
        let name = entry[..entry.find('"').expect("name")].to_string();
        let value_at = entry.find("\"value\": ").expect("value") + 9;
        let value_end = entry[value_at..].find(',').expect("value ends") + value_at;
        let value: f64 = entry[value_at..value_end].parse().expect("numeric value");
        let unit_at = entry.find("\"unit\": \"").expect("unit") + 9;
        let unit_end = entry[unit_at..].find('"').expect("unit ends") + unit_at;
        out.push((name, value, entry[unit_at..unit_end].to_string()));
    }
    out
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_declared_metric_is_printed_finite_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty(), "{section} declares metrics");
        for workload in ["study", "chaos-crawl", "reanalyse", "query"] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            let got = printed(&line);
            let names: Vec<&str> = got.iter().map(|(n, _, _)| n.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, want_names, "{workload} --trace {trace}");
            for ((name, value, unit), (_, want_unit)) in got.iter().zip(&want) {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                assert_eq!(unit, want_unit, "{workload}: unit of {name}");
            }
        }
    }
}

#[test]
fn ambient_behaviour_variables_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "study", "--seconds", "1", "--scale", "tiny"])
        .env("GAUGENN_JOURNAL_DIR", "journal")
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line when refusing");
}
