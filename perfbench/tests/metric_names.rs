//! Every metric is named in `BENCHMARK.json` with its unit, and smoke mode
//! prints every metric name with its unit.

use aft_perfbench::metrics::{end_to_end, per_layer, MetricDef};
use std::process::Command;

fn entry(d: &MetricDef) -> String {
    format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit)
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for d in end_to_end().iter().chain(per_layer().iter()) {
        let e = entry(d);
        assert!(json.contains(&e), "BENCHMARK.json lacks {e}");
        assert!(
            json.contains(&format!("{e}, \"better\": \"{}\"", d.better)),
            "{e}"
        );
    }
    let named = json.matches("\"name\":").count();
    let workloads = aft_perfbench::workloads::Workload::ALL.len();
    assert_eq!(
        named,
        workloads + end_to_end().len() + per_layer().len(),
        "BENCHMARK.json names exactly the workloads and metrics"
    );
}

#[test]
fn smoke_prints_every_metric_with_its_unit() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        // The deployment leg needs the daemon binary, which this package
        // does not build; the in-process workloads cover every name.
        .env("AFT_PARTYD", "/nonexistent/aft-partyd")
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for d in end_to_end().iter().chain(per_layer().iter()) {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        let at = stdout
            .find(&key)
            .unwrap_or_else(|| panic!("smoke output lacks {}", d.name));
        let entry = &stdout[at..];
        let entry = &entry[..=entry.find('}').expect("closed entry")];
        assert!(
            entry.contains(&format!("\"unit\": \"{}\"", d.unit)),
            "{entry} should carry unit {}",
            d.unit
        );
    }
    let results = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .count();
    assert_eq!(
        results, 6,
        "three in-process workloads, untraced and traced"
    );
}
