//! Closed-loop benchmark of the Wren runtime over loopback TCP.
//!
//! One run builds a workload's cluster inside this process
//! ([`spec::WORKLOADS`]), preloads it, drives it from two closed-loop
//! sessions for a fixed time, checks every value read ([`checks`]) and
//! reports either the end-to-end metrics or, in a traced run, the
//! per-layer ones ([`run`]). See `README.md` beside this crate for what
//! each metric means and where it comes from.

#![forbid(unsafe_code)]

pub mod checks;
pub mod procfs;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
