//! The benchmark's workloads: cluster shape, transaction mix
//! and key count, one entry per `--workload` name.

use wren_protocol::Key;
use wren_workload::TxMix;

/// Closed-loop sessions driving every workload (one connection each).
pub const SESSIONS: usize = 2;

/// The key the visibility probe runs on, for a writer coordinated by
/// partition `writer_partition`: the first id from 2^62 up (far outside
/// every workload's key pool, so only the probe writes it) that lives on
/// another partition, so the writer's probe commits take the same
/// remote 2PC hop as most of its other writes.
pub fn probe_key(writer_partition: u16, n_partitions: u16) -> Key {
    (1u64 << 62..)
        .map(Key)
        .find(|k| n_partitions == 1 || k.partition(n_partitions).0 != writer_partition)
        .expect("some id lands on another partition")
}

/// The `client` id preloaded values carry (`seq` 0): no session has it.
pub const PRELOAD_CLIENT: u32 = u32::MAX;

/// One workload: what cluster it builds and what load it drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    /// The `--workload` name.
    pub name: &'static str,
    /// Data centers.
    pub dcs: u8,
    /// Partitions per DC.
    pub partitions: u16,
    /// Whether the traced run's replay ([`crate::replay`]) gives every
    /// partition a write-ahead log under fsync policy `Always` (the
    /// runtime's default), so the log's per-layer metrics come from this
    /// workload. The measured cluster keeps no log: on a shared disk an
    /// fsync's latency swings between runs by far more than any bound
    /// the benchmark may set.
    pub replay_wal: bool,
    /// Reads and writes per transaction.
    pub mix: TxMix,
    /// Keys preloaded before timing (spread evenly over partitions).
    pub keys: u64,
}

impl WorkloadDef {
    /// The DC session `i` runs in: both in DC 0 on one DC, one per DC
    /// otherwise.
    pub fn session_dc(&self, i: usize) -> u8 {
        (i % self.dcs as usize) as u8
    }

    /// The same workload at another key count (the self-tests run every
    /// workload at a tiny scale).
    pub fn with_keys(self, keys: u64) -> Self {
        WorkloadDef { keys, ..self }
    }
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "read_mostly",
        dcs: 1,
        partitions: 4,
        replay_wal: false,
        mix: TxMix::R95_W5,
        keys: 1_000_000,
    },
    WorkloadDef {
        name: "write_heavy",
        dcs: 1,
        partitions: 4,
        replay_wal: true,
        mix: TxMix::R50_W50,
        keys: 100_000,
    },
    WorkloadDef {
        name: "geo_replicated",
        dcs: 2,
        partitions: 2,
        replay_wal: false,
        mix: TxMix::R90_W10,
        keys: 200_000,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The keys `wren_workload::Workload::compile` puts in its pools for
/// `keys_per_partition` keys on each of `n_partitions` partitions: ids
/// are scanned upward and each lands in its hash partition until every
/// partition is full. The preload writes exactly this set, so every key
/// a transaction samples exists before timing starts.
pub fn pool_keys(keys_per_partition: u64, n_partitions: u16) -> Vec<Key> {
    let mut fill = vec![0u64; n_partitions as usize];
    let mut full = 0usize;
    let mut out = Vec::with_capacity((keys_per_partition * n_partitions as u64) as usize);
    let mut id = 0u64;
    while full < n_partitions as usize {
        let key = Key(id);
        let p = key.partition(n_partitions).index();
        if fill[p] < keys_per_partition {
            fill[p] += 1;
            out.push(key);
            if fill[p] == keys_per_partition {
                full += 1;
            }
        }
        id += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wren_workload::{Workload, WorkloadSpec};

    #[test]
    fn workload_names_are_valid_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(w.name));
            assert_eq!(workload(w.name), Some(*w));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
        assert_eq!(workload("nope"), None);
    }

    #[test]
    fn sessions_spread_over_dcs() {
        let geo = workload("geo_replicated").unwrap();
        assert_eq!((geo.session_dc(0), geo.session_dc(1)), (0, 1));
        let rm = workload("read_mostly").unwrap();
        assert_eq!((rm.session_dc(0), rm.session_dc(1)), (0, 0));
    }

    #[test]
    fn pool_keys_cover_every_sampled_key() {
        let spec = WorkloadSpec {
            keys_per_partition: 50,
            partitions_per_tx: 4,
            ..WorkloadSpec::default()
        };
        let w = Workload::compile(spec, 4);
        let pool: std::collections::HashSet<Key> = pool_keys(50, 4).into_iter().collect();
        assert_eq!(pool.len(), 200);
        for p in 0..4 {
            let probe = probe_key(p, 4);
            assert!(!pool.contains(&probe));
            assert_ne!(probe.partition(4).0, p);
        }
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..500 {
            let tx = w.sample_tx(&mut rng);
            assert!(tx.reads.iter().chain(&tx.writes).all(|k| pool.contains(k)));
        }
    }
}
