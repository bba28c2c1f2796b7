//! Every workload at a tiny size with its output checks on, both passes,
//! plus a consistency check between the code and `BENCHMARK.json`.

use exacml_benchmark::trace::LAYER_METRICS;
use exacml_benchmark::{run, trace, Params, Scale, Workload};
use std::path::PathBuf;

const END_TO_END: [&str; 4] = ["setup_s", "latency_p50_us", "throughput_per_s", "peak_rss_mb"];

fn params(workload: Workload, pass: &str) -> Params {
    Params {
        seed: 7,
        seconds: 0.05,
        scale: Scale::Tiny,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{pass}", workload.name())),
    }
}

#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    for workload in Workload::ALL {
        let report = run(workload, &params(workload, "e2e"));
        assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
        assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
        assert!(report.attempted > 0);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "{}", workload.name());
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_traces_every_layer_metric() {
    for workload in Workload::ALL {
        let report = trace::run(workload, &params(workload, "trace"));
        assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
        assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{}: {} = {}", workload.name(), m.name, m.value);
        }
    }
}

#[test]
fn benchmark_json_names_what_the_code_emits() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(serde_json::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(serde_json::Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let end_to_end: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(end_to_end, END_TO_END);
    let per_layer = names("per_layer");
    let expected: Vec<(String, String)> =
        LAYER_METRICS.iter().map(|(n, u)| ((*n).to_string(), (*u).to_string())).collect();
    assert_eq!(per_layer, expected);
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(serde_json::Value::as_array)
        .expect("workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(serde_json::Value::as_str).map(String::from))
        .collect();
    // Every workload but replicated-churn is gated; replicated-churn stays
    // runnable by hand (see README.md for why it is not gated).
    let gated: Vec<&str> = Workload::ALL
        .iter()
        .filter(|w| **w != Workload::ReplicatedChurn)
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, gated);
}
