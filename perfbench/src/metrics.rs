//! The benchmark's metric tables and the JSON result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! `tests/metric_names.rs` keeps the two in step.

/// One reported metric: name, unit, and which direction is better.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name in the result line.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("runs_per_s", "1/s", "higher"),
        def("ns_per_delivery", "ns", "lower"),
        def("run_ms_p50", "ms", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// Leaf session kinds whose send counts the traced run reports, as
/// `network.sent_by_kind.<kind>` (the union over the workloads; a kind a
/// workload does not use reads 0).
pub const KINDS: &[&str] = &[
    "ba",
    "bacoin",
    "bav1",
    "bav2",
    "bav3",
    "cf-final",
    "cf-rec",
    "cf-share",
    "cs-ba",
    "fba-in",
    "svss-core",
    "wc-rec",
    "wc-share",
];

/// Per-layer metrics, printed by every traced run. Metrics of a layer a
/// workload does not pass through read 0.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("scheduler.pick_ns", "ns", "lower"),
        def("scheduler.picks_per_delivery", "ratio", "lower"),
        def("scheduler.pick_share", "ratio", "lower"),
        def("queue.batches_at_pick", "count", "lower"),
        def("queue.msgs_per_batch", "count", "higher"),
        def("network.step_ns_per_delivery", "ns", "lower"),
        def("network.self_ns_per_delivery", "ns", "lower"),
        def("network.sent", "count", "lower"),
        def("network.delivered", "count", "lower"),
    ];
    for kind in KINDS {
        defs.push(def(
            &format!("network.sent_by_kind.{kind}"),
            "count",
            "lower",
        ));
    }
    defs.extend([
        def("network.pool_hit_ratio", "ratio", "higher"),
        def("net.virtual_ms", "ms", "lower"),
        def("wire.ns_per_delivery", "ns", "lower"),
        def("wire.bytes_per_delivery", "bytes", "lower"),
        def("wire.frames_per_delivery", "ratio", "lower"),
        def("wire.malformed_or_decode_miss", "count", "lower"),
        def("deployment.spawn_ms", "ms", "lower"),
        def("deployment.mesh_ms", "ms", "lower"),
        def("deployment.decide_ms", "ms", "lower"),
        def("deployment.shutdown_ms", "ms", "lower"),
        def("deployment.sent", "count", "lower"),
        def("deployment.delivered", "count", "lower"),
        def("deployment.party_rss_mb", "MB", "lower"),
        def("trace.overhead", "ratio", "lower"),
        def("fail_ratio", "ratio", "lower"),
        def("run_ms_p90", "ms", "lower"),
        def("run_samples", "count", "higher"),
    ]);
    defs
}

/// Formats a number for JSON: non-finite values (an empty ratio) become 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and each metric of
/// `defs` with its value from `value` (missing values read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    value: impl Fn(&str) -> Option<f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&d.name),
                number(value(&d.name).unwrap_or(0.0)),
                json_string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
