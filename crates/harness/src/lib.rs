//! Experiment harness for the Wren reproduction.
//!
//! This crate turns the sans-io protocol crates into running clusters on
//! the deterministic simulator and extracts the metrics behind every
//! figure in the paper's evaluation (§V):
//!
//! * [`Topology`] — deployment shape: the paper's AWS regions (latency
//!   matrix), `m4.large`-like 2-core servers, NTP-style clock skew, tick
//!   intervals, and a calibrated CPU [`ServiceModel`];
//! * [`ExperimentSpec`] + [`run`] — one closed-loop experiment for
//!   [`SystemKind::Wren`], [`SystemKind::Cure`] or [`SystemKind::HCure`],
//!   with warm-up exclusion and deterministic seeding;
//! * [`RunResult`] — throughput, latency percentiles, per-transaction
//!   blocking times (Fig. 3b), bytes on the wire by category (Fig. 7a)
//!   and update-visibility samples (Fig. 7b);
//! * [`RtSpec`] + [`run_rt`] — the same closed-loop client model against
//!   the **real runtime** (`wren-rt`), over in-process channels
//!   or loopback TCP ([`RtTransport`]), measuring wall-clock throughput
//!   and latency including every serialization and socket cost.
//!
//! # Example
//!
//! ```no_run
//! use wren_harness::{run, ExperimentSpec, SystemKind};
//!
//! let mut spec = ExperimentSpec::default_paper();
//! spec.threads_per_client = 2;
//! let result = run(SystemKind::Wren, &spec);
//! println!("{:.0} TX/s at {:.2} ms mean", result.throughput, result.latency.mean_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod csv;
mod cure_cluster;
mod experiment;
mod metrics;
mod rt_run;
mod topology;
mod wren_cluster;

pub use cure_cluster::{CureClientNode, CureServerNode};
pub use experiment::{run, ExperimentSpec, SystemKind};
pub use rt_run::{run_rt, RtRunResult, RtSpec, RtTransport};
pub use wren_rt::FsyncPolicy;
pub use metrics::{cdf, BlockingSummary, BytesSummary, Histogram, LatencySummary, RunResult};
pub use topology::{aws_latency_matrix, ServiceModel, Topology, AWS_REGIONS};
pub use wren_cluster::{Ticks, WrenClientNode, WrenServerNode};
