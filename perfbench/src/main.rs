//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, the run fingerprint, and as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 2 (after printing the result with `"correct": false`) when an
//! output check fails, naming the check on stderr, and 1 on bad usage.

use perfbench::run::{run, RunOpts};
use perfbench::spec::{workload, WORKLOADS};
use perfbench::stats::{json_number, json_object, result_json};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Unmeasured load before the measured phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Clusters an end-to-end run builds and measures in turn; `setup_s`
/// is the median of their set-ups.
const CLUSTERS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let Some(def) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(1);
    };
    let opts = RunOpts {
        workload: def,
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds),
        warmup: WARMUP,
        trace: args.trace,
        clusters: CLUSTERS,
        scratch: PathBuf::from(".perfbench_tmp"),
    };
    let out = run(&opts);
    let _ = std::fs::remove_dir(&opts.scratch);

    println!(
        "# perfbench {} (seed {}, {} run)",
        def.name,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    for (name, value, unit) in out.metrics.iter() {
        println!("{name:<40} {:>20} {unit}", json_number(value));
    }
    for (name, value, unit) in out.unbounded.iter() {
        println!(
            "{name:<40} {:>20} {unit}  (not bounded)",
            json_number(value)
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!("fingerprint {}", json_object(&out.fingerprint));
    for v in &out.violations {
        eprintln!("perfbench: CHECK FAILED {}: {}", v.check, v.detail);
    }
    let correct = out.violations.is_empty();
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
