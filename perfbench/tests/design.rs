//! Checks that the workloads stress the layers they were chosen for, on
//! the code as it stands: only `write_heavy`'s traced replay fsyncs a
//! write-ahead log, only the geo-replicated workload ships replication
//! batches, and the GC pass over `read_mostly`'s key count is several
//! times `write_heavy`'s.

use perfbench::run::{gc_pass_ms, run, RunOpts};
use perfbench::spec::workload;
use std::path::PathBuf;
use std::time::Duration;

fn traced(name: &str) -> perfbench::stats::Metrics {
    let out = run(&RunOpts {
        workload: workload(name).expect("known workload").with_keys(4_000),
        seed: 11,
        measure: Duration::from_millis(700),
        warmup: Duration::from_millis(200),
        trace: true,
        clusters: 1,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("design-{name}")),
    });
    assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
    out.metrics
}

#[test]
fn workloads_stress_the_layers_they_were_chosen_for() {
    let rm = traced("read_mostly");
    let wh = traced("write_heavy");
    let geo = traced("geo_replicated");
    let get =
        |m: &perfbench::stats::Metrics, n: &str| m.get(n).unwrap_or_else(|| panic!("{n} missing"));

    assert_eq!(get(&rm, "storage.wal_fsyncs_per_tx"), 0.0);
    assert_eq!(get(&geo, "storage.wal_fsyncs_per_tx"), 0.0);
    assert!(get(&wh, "storage.wal_fsyncs_per_tx") > 0.0);

    assert_eq!(get(&rm, "core.repl_batch_txs_mean"), 0.0);
    assert_eq!(get(&wh, "core.repl_batch_txs_mean"), 0.0);
    assert!(get(&geo, "core.repl_batch_txs_mean") > 0.0);

    let keys = |name: &str| workload(name).expect("known workload").keys;
    let big = gc_pass_ms(keys("read_mostly"));
    let small = gc_pass_ms(keys("write_heavy"));
    assert!(
        big > 3.0 * small,
        "GC pass {big} ms at read_mostly's keys vs {small} ms at write_heavy's"
    );
}
