//! Seconds-long, tiny-scale runs of every workload in both modes: each
//! must pass its output checks, fail no operation and report exactly
//! the metrics `BENCHMARK.json` declares.

use perfbench::run::{run, RunOpts, RunOutcome};
use perfbench::spec::WORKLOADS;
use std::path::PathBuf;
use std::time::Duration;

fn tiny(name: &str, trace: bool) -> RunOutcome {
    let def = perfbench::spec::workload(name)
        .expect("known workload")
        .with_keys(4_000);
    run(&RunOpts {
        workload: def,
        seed: 7,
        measure: Duration::from_millis(700),
        warmup: Duration::from_millis(200),
        trace,
        clusters: 2,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{trace}")),
    })
}

/// Metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = tiny(w.name, trace);
            assert!(
                out.violations.is_empty(),
                "{} trace={trace}: {:?}",
                w.name,
                out.violations
            );
            assert!(out.attempted > 0, "{}: nothing attempted", w.name);
            assert_eq!(out.failed, 0, "{} trace={trace}: operations failed", w.name);
            let want = if trace { &layers } else { &e2e };
            assert_eq!(
                &out.metrics.names(),
                want,
                "{} trace={trace}: metric set",
                w.name
            );
            if !trace {
                for (name, value, _) in out.metrics.iter() {
                    assert!(value > 0.0, "{}: end-to-end {name} = {value}", w.name);
                }
            }
        }
    }
}
