//! Output checks run inside every benchmark run, and the visibility
//! probe's bookkeeping.
//!
//! * every value read decodes to a `(client, seq)` some session actually
//!   wrote (its `seq` was handed out before the read), or to the preload
//!   marker;
//! * the probe key's sequence number never goes backwards for its
//!   reader (monotonic reads);
//! * a session that reads a key it last wrote never sees an older write
//!   of its own, nor the preload (read-your-writes);
//! * no visibility sample is negative when measured from the commit
//!   request (see [`visibility_samples`]).
//!
//! A failed check is named, so the run's nonzero exit says which
//! guarantee broke.

use crate::spec::PRELOAD_CLIENT;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use wren_protocol::{Key, Value};
use wren_workload::decode_value;

/// The checks, by the name a failure reports.
pub const VALUE_WRITTEN: &str = "value_written";
/// Probe reader's sequence numbers never decrease.
pub const MONOTONIC_READS: &str = "monotonic_reads";
/// A session sees its own latest write (or something newer by another).
pub const READ_YOUR_WRITES: &str = "read_your_writes";
/// No probe value is seen before its commit was requested.
pub const VISIBILITY_NONNEGATIVE: &str = "visibility_nonnegative";

/// One failed check: its name and the first offending observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed.
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

/// Per-session high-water marks of handed-out sequence numbers, shared
/// by every session: a write's `seq` is published *before* its commit
/// is sent, so any value a reader can observe is at or below its
/// writer's mark.
#[derive(Debug)]
pub struct Issued {
    max_seq: Vec<AtomicU32>,
}

impl Issued {
    /// Marks for `sessions` sessions, all at 0 (nothing written yet).
    pub fn new(sessions: usize) -> Self {
        Issued {
            max_seq: (0..sessions).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Session `client` is about to commit writes up to `seq`.
    pub fn publish(&self, client: usize, seq: u32) {
        self.max_seq[client].fetch_max(seq, Ordering::SeqCst);
    }

    /// Whether `(client, seq)` names a value some session wrote.
    pub fn was_written(&self, client: u32, seq: u32) -> bool {
        self.max_seq
            .get(client as usize)
            .is_some_and(|m| seq >= 1 && seq <= m.load(Ordering::SeqCst))
    }
}

/// One session's view: what it wrote last per key, and the first
/// violation of each check it found.
#[derive(Debug)]
pub struct SessionChecker {
    client: u32,
    own_last: HashMap<Key, u32>,
    /// Violations found, first of each check.
    pub violations: Vec<Violation>,
}

impl SessionChecker {
    /// A checker for session `client`.
    pub fn new(client: u32) -> Self {
        SessionChecker {
            client,
            own_last: HashMap::new(),
            violations: Vec::new(),
        }
    }

    fn fail(&mut self, check: &'static str, detail: String) {
        if self.violations.iter().all(|v| v.check != check) {
            self.violations.push(Violation { check, detail });
        }
    }

    /// This session committed (or is committing) `seq` to `key`.
    pub fn wrote(&mut self, key: Key, seq: u32) {
        self.own_last.insert(key, seq);
    }

    /// A commit failed with its outcome unknown: the session no longer
    /// knows what it last wrote to these keys.
    pub fn forget(&mut self, keys: impl IntoIterator<Item = Key>) {
        for k in keys {
            self.own_last.remove(&k);
        }
    }

    /// Checks one value read from `key`; returns the decoded marker.
    pub fn check_read(
        &mut self,
        issued: &Issued,
        key: Key,
        value: Option<&Value>,
    ) -> Option<(u32, u32)> {
        let Some(v) = value else {
            self.fail(
                VALUE_WRITTEN,
                format!("{key:?} read as missing, but every key is preloaded"),
            );
            return None;
        };
        let Some((client, seq)) = decode_value(v) else {
            self.fail(
                VALUE_WRITTEN,
                format!("{key:?} read an undecodable {}-byte value", v.len()),
            );
            return None;
        };
        let preload = client == PRELOAD_CLIENT && seq == 0;
        if !preload && !issued.was_written(client, seq) {
            self.fail(
                VALUE_WRITTEN,
                format!("{key:?} read (client {client}, seq {seq}), which no session wrote"),
            );
        }
        if let Some(&mine) = self.own_last.get(&key) {
            if preload || (client == self.client && seq < mine) {
                self.fail(
                    READ_YOUR_WRITES,
                    format!(
                        "session {} wrote seq {mine} to {key:?} but read {}",
                        self.client,
                        if preload {
                            "the preload".to_string()
                        } else {
                            format!("its own older seq {seq}")
                        }
                    ),
                );
            }
        }
        Some((client, seq))
    }

    /// Records a violation found outside value checks (probe, samples).
    pub fn record(&mut self, v: Violation) {
        self.fail(v.check, v.detail);
    }
}

/// The probe reader's state: the highest probe sequence number seen and
/// the instant each new one was first seen.
#[derive(Debug, Default)]
pub struct ProbeReader {
    last_seen: u32,
    /// `(seq, first sight)` in sight order.
    pub sights: Vec<(u32, Instant)>,
}

impl ProbeReader {
    /// The reader saw probe sequence number `seq` (0 = the preload) at
    /// `at`. Returns a monotonic-reads violation if it went backwards.
    pub fn saw(&mut self, seq: u32, at: Instant) -> Option<Violation> {
        if seq < self.last_seen {
            return Some(Violation {
                check: MONOTONIC_READS,
                detail: format!("probe read seq {seq} after seq {}", self.last_seen),
            });
        }
        if seq > self.last_seen {
            self.last_seen = seq;
            self.sights.push((seq, at));
        }
        None
    }
}

/// The writer's record of one probe commit: the sequence number it
/// wrote, when `commit()` was called and when it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCommit {
    /// Probe sequence number written.
    pub seq: u32,
    /// `Session::commit` was called.
    pub requested: Instant,
    /// `Session::commit` returned.
    pub returned: Instant,
}

/// Visibility samples in microseconds, each with the instant of its
/// sight: for every first sight of a probe sequence number whose commit
/// returned, the time from that return to the sight. Sights of sequence numbers the writer has no
/// return for (commit failed) are skipped.
///
/// A sample can be slightly negative and still correct: the coordinator
/// acknowledges a commit before the writer's thread gets to run again,
/// and the write may stabilise and be read in that gap. What can never
/// happen is a sight *before the commit was requested* — the value
/// would have been read before anyone asked to commit it. That is the
/// violation this returns.
pub fn visibility_samples(
    commits: &[ProbeCommit],
    sights: &[(u32, Instant)],
) -> (Vec<(Instant, f64)>, Option<Violation>) {
    let by_seq: HashMap<u32, ProbeCommit> = commits.iter().map(|c| (c.seq, *c)).collect();
    let micros = |later: Instant, earlier: Instant| {
        if later >= earlier {
            (later - earlier).as_nanos() as f64 / 1_000.0
        } else {
            -((earlier - later).as_nanos() as f64 / 1_000.0)
        }
    };
    let mut samples = Vec::with_capacity(sights.len());
    let mut violation = None;
    for &(seq, seen) in sights {
        let Some(c) = by_seq.get(&seq) else {
            continue;
        };
        samples.push((seen, micros(seen, c.returned)));
        if seen < c.requested {
            violation.get_or_insert(Violation {
                check: VISIBILITY_NONNEGATIVE,
                detail: format!(
                    "probe seq {seq} seen {:.1} µs before its commit was requested",
                    -micros(seen, c.requested)
                ),
            });
        }
    }
    (samples, violation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wren_workload::{Workload, WorkloadSpec};

    fn value(client: u32, seq: u32) -> Value {
        Workload::compile(
            WorkloadSpec {
                keys_per_partition: 1,
                partitions_per_tx: 1,
                ..WorkloadSpec::default()
            },
            1,
        )
        .make_value(client, seq)
    }

    #[test]
    fn values_must_have_been_written() {
        let issued = Issued::new(2);
        let mut c = SessionChecker::new(0);
        c.check_read(&issued, Key(1), Some(&value(PRELOAD_CLIENT, 0)));
        assert!(c.violations.is_empty());
        c.check_read(&issued, Key(1), Some(&value(1, 1)));
        assert_eq!(c.violations[0].check, VALUE_WRITTEN);
        issued.publish(1, 3);
        let mut c = SessionChecker::new(0);
        c.check_read(&issued, Key(1), Some(&value(1, 3)));
        assert!(c.violations.is_empty());
        c.check_read(&issued, Key(1), None);
        c.check_read(&issued, Key(1), Some(&value(7, 1)));
        assert_eq!(c.violations.len(), 1, "one entry per check");
    }

    #[test]
    fn read_your_writes() {
        let issued = Issued::new(2);
        issued.publish(0, 5);
        issued.publish(1, 9);
        let mut c = SessionChecker::new(0);
        c.wrote(Key(4), 5);
        c.check_read(&issued, Key(4), Some(&value(0, 5)));
        c.check_read(&issued, Key(4), Some(&value(1, 9))); // another session's: allowed
        assert!(c.violations.is_empty());
        c.check_read(&issued, Key(4), Some(&value(0, 4)));
        assert_eq!(c.violations[0].check, READ_YOUR_WRITES);
        let mut c = SessionChecker::new(0);
        c.wrote(Key(4), 5);
        c.check_read(&issued, Key(4), Some(&value(PRELOAD_CLIENT, 0)));
        assert_eq!(c.violations[0].check, READ_YOUR_WRITES);
        let mut c = SessionChecker::new(0);
        c.wrote(Key(4), 5);
        c.forget([Key(4)]);
        c.check_read(&issued, Key(4), Some(&value(PRELOAD_CLIENT, 0)));
        assert!(c.violations.is_empty());
    }

    #[test]
    fn probe_reader_keeps_first_sights_and_flags_regressions() {
        let t0 = Instant::now();
        let mut r = ProbeReader::default();
        assert!(r.saw(0, t0).is_none()); // preload: no sight
        assert!(r.saw(2, t0 + Duration::from_micros(10)).is_none());
        assert!(r.saw(2, t0 + Duration::from_micros(20)).is_none()); // not a new sight
        assert!(r.saw(5, t0 + Duration::from_micros(30)).is_none());
        assert_eq!(r.sights.iter().map(|s| s.0).collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(r.saw(4, t0).unwrap().check, MONOTONIC_READS);
    }

    #[test]
    fn visibility_samples_pair_commits_with_sights() {
        let t0 = Instant::now();
        let us = |n| t0 + Duration::from_micros(n);
        let commit = |seq, req, ret| ProbeCommit {
            seq,
            requested: us(req),
            returned: us(ret),
        };
        let commits = [commit(1, 50, 100), commit(2, 150, 200), commit(3, 250, 300)];
        // seq 2 was skipped by the reader; seq 4's commit never returned.
        let sights = [(1, us(1100)), (3, us(300)), (4, us(900))];
        let (samples, v) = visibility_samples(&commits, &sights);
        assert_eq!(samples, vec![(us(1100), 1000.0), (us(300), 0.0)]);
        assert!(v.is_none());
        // Seen after the request but before the return: negative, allowed.
        let (samples, v) = visibility_samples(&commits, &[(2, us(170))]);
        assert_eq!(samples, vec![(us(170), -30.0)]);
        assert!(v.is_none());
        // Seen before the commit was even requested: a violation.
        let (_, v) = visibility_samples(&commits, &[(2, us(120))]);
        assert_eq!(v.unwrap().check, VISIBILITY_NONNEGATIVE);
    }
}
