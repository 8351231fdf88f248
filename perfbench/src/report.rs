//! The metric catalog and the benchmark's output.
//!
//! Every metric the benchmark can print is declared here with its unit
//! and better direction; `BENCHMARK.json` at the repository root lists
//! the same names (a unit test keeps the two in step). An untraced run
//! prints every end-to-end metric and a traced run every per-layer
//! metric, for every workload.

use std::collections::BTreeMap;

use microfaas_workloads::FunctionId;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn metric(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
    }
}

/// The end-to-end metrics, measured on untraced runs.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("setup_s", "s", "lower"),
        metric("ops_per_s", "1/s", "higher"),
        metric("op_ms_p50", "ms", "lower"),
        metric("op_ms_p99", "ms", "lower"),
        metric("peak_rss_mb", "MB", "lower"),
        metric("allocs_per_op", "count", "lower"),
        metric("alloc_bytes_per_op", "bytes", "lower"),
        metric("paper_err_pct", "%", "lower"),
    ]
}

/// Span names whose self time the traced run reports as
/// `span.<name>.self_us`.
pub const SELF_TIME_SPANS: [&str; 6] = [
    "op",
    "engine.open_loop",
    "micro.run",
    "conventional.run",
    "gateway.handle",
    "gateway.encode",
];

/// The per-layer metrics, measured on traced runs.
pub fn per_layer() -> Vec<Metric> {
    let mut out = vec![
        metric("arrivals.next_gap_ns", "ns", "lower"),
        metric("arrivals.pick_ns", "ns", "lower"),
        metric("queue.op_ns", "ns", "lower"),
        metric("queue.cancel_ns", "ns", "lower"),
        metric("sched.place_ns", "ns", "lower"),
        metric("sched.drain_ns", "ns", "lower"),
        metric("hw.job_cycle_ns", "ns", "lower"),
        metric("energy.set_power_ns", "ns", "lower"),
        metric("stats.sketch_record_ns", "ns", "lower"),
        metric("cache.lookup_ns", "ns", "lower"),
        metric("cache.served_free_ratio", "ratio", "higher"),
        metric("cache.coalesced_ratio", "ratio", "higher"),
        metric("attribution.ns_per_op", "ns", "lower"),
        metric("telemetry.ns_per_op", "ns", "lower"),
        metric("trace.events_per_op", "count", "lower"),
        metric("trace.overhead_pct", "%", "lower"),
        metric("sim.boots_per_op", "count", "lower"),
        metric("sim.powered_on_mean", "count", "lower"),
        metric("sim.queue_share", "ratio", "lower"),
        metric("sim.boot_share", "ratio", "lower"),
        metric("sim.exec_share", "ratio", "higher"),
        metric("micro.run_ms", "ms", "lower"),
        metric("conventional.run_ms", "ms", "lower"),
        metric("gateway.parse_ns", "ns", "lower"),
        metric("gateway.encode_ns", "ns", "lower"),
        metric("gateway.self_us", "us", "lower"),
        metric("interp.compile_us", "us", "lower"),
        metric("interp.run_us", "us", "lower"),
        metric("fail_ratio", "ratio", "lower"),
    ];
    for f in FunctionId::ALL {
        out.push(metric(&format!("workloads.{}_us", f.name()), "us", "lower"));
    }
    for span in SELF_TIME_SPANS {
        out.push(metric(&format!("span.{span}.self_us"), "us", "lower"));
    }
    out
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts `n` ops, of which `failed` failed their check.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The run's result line: one JSON object with the keys `correct`,
    /// `attempted`, `failed` and `metrics`, holding every metric of
    /// `catalog`. A metric that was not measured, or is not finite, is
    /// an error.
    pub fn result_json(&self, catalog: &[Metric]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalog.len());
        for m in catalog {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {}", m.name));
            }
            let value = self
                .values
                .get(&m.name)
                .copied()
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microfaas_sim::chrome::JsonValue;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(valid_name(&m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn result_json_needs_every_metric() {
        let catalog = end_to_end();
        let mut outcome = Outcome::default();
        outcome.tally(3, 0);
        assert!(outcome.result_json(&catalog).is_err());
        for m in &catalog {
            outcome.set(&m.name, 1.5);
        }
        let line = outcome.result_json(&catalog).expect("complete");
        let doc = microfaas_sim::chrome::parse_json(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics");
        for m in &catalog {
            let entry = metrics.get(&m.name).expect("metric printed");
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(m.unit));
        }
        outcome.set("setup_s", f64::NAN);
        assert!(outcome.result_json(&catalog).is_err());
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = microfaas_sim::chrome::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let declared = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(declared.len(), catalog.len(), "{key}: count differs");
            for (entry, m) in declared.iter().zip(&catalog) {
                assert_eq!(
                    entry.get("name").and_then(|v| v.as_str()),
                    Some(m.name.as_str())
                );
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(m.unit));
                assert_eq!(entry.get("better").and_then(|v| v.as_str()), Some(m.better));
            }
        }
    }
}
