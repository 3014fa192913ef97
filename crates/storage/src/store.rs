use crate::{FxBuildHasher, SnapshotBound, VersionChain, Versioned};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// Aggregate statistics of a store, for capacity and GC reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of keys with at least one version.
    pub keys: usize,
    /// Total versions currently retained.
    pub versions: usize,
    /// Total versions removed by garbage collection since creation.
    pub collected: u64,
    /// Keys whose chain holds at least two versions: the chains the next
    /// [`collect`](MvStore::collect) visits.
    pub gc_candidates: usize,
}

/// One partition's worth of multi-versioned data: a map from key to
/// [`VersionChain`].
///
/// Generic over the key and the version type so Wren items (two scalar
/// timestamps) and Cure items (dependency vectors) share the same storage.
///
/// The map hashes with [`FxHasher`](crate::FxHasher) rather than the
/// standard library's SipHash: keys are workload integers, and the read
/// path is the system's hottest loop. The retained-version count is
/// maintained incrementally on [`insert`](MvStore::insert) /
/// [`collect`](MvStore::collect), so [`stats`](MvStore::stats) is O(1)
/// instead of a scan over every chain.
///
/// # Write-driven garbage collection
///
/// A chain with one version has nothing to collect, so GC only ever
/// needs the multi-version chains. The store keeps them on a candidate
/// list with one invariant: **a key is on the list exactly when its
/// chain holds ≥ 2 versions, and at most once**. The write paths
/// ([`insert`](MvStore::insert), [`insert_if_new`](MvStore::insert_if_new),
/// [`apply_batch`](MvStore::apply_batch)) push a key when they take its
/// chain from fewer than two versions to two or more;
/// [`collect`](MvStore::collect) visits only the list and drops each key
/// whose chain it prunes back to one version. A GC pass therefore costs
/// O(keys written since they were last collected), not O(keys stored),
/// and the list never holds more than one entry per key, GC or no GC.
#[derive(Clone, Debug)]
pub struct MvStore<K, V> {
    chains: HashMap<K, VersionChain<V>, FxBuildHasher>,
    /// Keys whose chain holds ≥ 2 versions (see the type docs).
    gc_candidates: Vec<K>,
    versions: usize,
    collected: u64,
    /// Reusable buffer for one key's run during [`apply_batch`]
    /// (capacity survives across calls, so steady-state batch apply
    /// allocates nothing).
    ///
    /// [`apply_batch`]: MvStore::apply_batch
    run_scratch: Vec<V>,
}

impl<K, V> Default for MvStore<K, V> {
    fn default() -> Self {
        MvStore {
            chains: HashMap::default(),
            gc_candidates: Vec::new(),
            versions: 0,
            collected: 0,
            run_scratch: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Versioned> MvStore<K, V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        MvStore::default()
    }

    /// Inserts a new version of `key`.
    pub fn insert(&mut self, key: K, version: V) {
        match self.chains.entry(key) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                chain.insert(version);
                if chain.len() == 2 {
                    self.gc_candidates.push(e.key().clone());
                }
            }
            Entry::Vacant(e) => e.insert(VersionChain::new()).insert(version),
        }
        self.versions += 1;
    }

    /// Applies a batch of versions, splicing each key's run into its
    /// chain with one binary search and at most one bulk shift
    /// ([`VersionChain::apply_batch`]).
    ///
    /// `items` is drained (capacity kept for reuse). The batch is sorted
    /// once by `(key, order key)`; replication batches share one commit
    /// timestamp, so a key written by several transactions in the batch
    /// pays a single chain search instead of one per version. Returns the
    /// number of versions applied.
    pub fn apply_batch(&mut self, items: &mut Vec<(K, V)>) -> usize
    where
        K: Ord,
    {
        if items.is_empty() {
            return 0;
        }
        let applied = items.len();
        items.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.order_key().cmp(&b.1.order_key()))
        });
        let mut run = std::mem::take(&mut self.run_scratch);
        debug_assert!(run.is_empty());
        let mut drain = items.drain(..);
        let (mut cur_key, first) = drain.next().expect("non-empty checked");
        run.push(first);
        for (k, v) in drain {
            if k == cur_key {
                run.push(v);
            } else {
                let done_key = std::mem::replace(&mut cur_key, k);
                self.apply_run(done_key, &mut run);
                run.push(v);
            }
        }
        self.apply_run(cur_key, &mut run);
        self.run_scratch = run;
        self.versions += applied;
        applied
    }

    /// Splices one key's sorted run into its chain, enlisting the key as
    /// a GC candidate if the run takes the chain to two or more versions.
    fn apply_run(&mut self, key: K, run: &mut Vec<V>) {
        match self.chains.entry(key) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                let before = chain.len();
                chain.apply_batch(run);
                if before < 2 && chain.len() >= 2 {
                    self.gc_candidates.push(e.key().clone());
                }
            }
            Entry::Vacant(e) => {
                if run.len() >= 2 {
                    self.gc_candidates.push(e.key().clone());
                }
                e.insert(VersionChain::new()).apply_batch(run);
            }
        }
    }

    /// Inserts a version of `key` only if no version with the same LWW
    /// order key exists ([`VersionChain::insert_if_new`]). Returns
    /// whether the insert happened. Used by WAL replay, which may
    /// re-apply already-applied replication records.
    pub fn insert_if_new(&mut self, key: K, version: V) -> bool {
        let inserted = match self.chains.entry(key) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                let inserted = chain.insert_if_new(version);
                if inserted && chain.len() == 2 {
                    self.gc_candidates.push(e.key().clone());
                }
                inserted
            }
            Entry::Vacant(e) => {
                e.insert(VersionChain::new()).insert(version);
                true
            }
        };
        if inserted {
            self.versions += 1;
        }
        inserted
    }

    /// The newest version of `key` inside the snapshot `bound`, or `None`
    /// if the key has no visible version.
    pub fn latest_visible(&self, key: &K, bound: &SnapshotBound<'_>) -> Option<&V> {
        self.chains.get(key).and_then(|c| c.latest_visible(bound))
    }

    /// The newest version of `key` outright.
    pub fn newest(&self, key: &K) -> Option<&V> {
        self.chains.get(key).and_then(|c| c.newest())
    }

    /// The full chain for `key`, if any version exists.
    pub fn chain(&self, key: &K) -> Option<&VersionChain<V>> {
        self.chains.get(key)
    }

    /// Runs garbage collection with the oldest-active-snapshot bound (see
    /// [`VersionChain::collect`]) over the GC candidates — the chains
    /// holding ≥ 2 versions; single-version chains have nothing to drop
    /// and are never visited. A candidate stays listed while its chain
    /// still holds more than one version. Returns the number of versions
    /// removed by this call.
    pub fn collect(&mut self, oldest_snapshot: &SnapshotBound<'_>) -> usize {
        let mut removed = 0;
        let chains = &mut self.chains;
        self.gc_candidates.retain(|key| {
            let chain = chains.get_mut(key).expect("GC candidates name stored keys");
            removed += chain.collect(oldest_snapshot);
            chain.len() > 1
        });
        self.versions -= removed;
        self.collected += removed as u64;
        removed
    }

    /// Current statistics (O(1): counters are maintained incrementally).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            keys: self.chains.len(),
            versions: self.versions,
            collected: self.collected,
            gc_candidates: self.gc_candidates.len(),
        }
    }

    /// Iterates over all `(key, chain)` pairs (e.g. for convergence
    /// checks in tests).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &VersionChain<V>)> {
        self.chains.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wren_clock::Timestamp;

    #[derive(Clone, Debug)]
    struct V(u64);
    impl Versioned for V {
        fn order_key(&self) -> (Timestamp, u8, u64) {
            (Timestamp::from_micros(self.0), 0, 0)
        }
    }

    fn at_most(ct: u64) -> SnapshotBound<'static> {
        SnapshotBound::at_most(Timestamp::from_micros(ct))
    }

    #[test]
    fn insert_and_read_across_keys() {
        let mut s: MvStore<u64, V> = MvStore::new();
        s.insert(1, V(10));
        s.insert(1, V(20));
        s.insert(2, V(5));
        assert_eq!(s.newest(&1).unwrap().0, 20);
        assert_eq!(s.latest_visible(&1, &at_most(15)).unwrap().0, 10);
        assert!(s.latest_visible(&3, &SnapshotBound::all()).is_none());
        assert_eq!(s.stats().keys, 2);
        assert_eq!(s.stats().versions, 3);
    }

    #[test]
    fn collect_reports_removed() {
        let mut s: MvStore<u64, V> = MvStore::new();
        for ct in [10, 20, 30] {
            s.insert(1, V(ct));
        }
        for ct in [15, 25] {
            s.insert(2, V(ct));
        }
        let removed = s.collect(&at_most(26));
        // key 1: visible=20, drop 10 → 1 removed. key 2: visible=25, drop 15 → 1 removed.
        assert_eq!(removed, 2);
        assert_eq!(s.stats().collected, 2);
        assert_eq!(s.stats().versions, 3);
    }

    #[test]
    fn stats_stay_consistent_across_interleaved_inserts_and_collects() {
        let mut s: MvStore<u64, V> = MvStore::new();
        let mut expected_live = 0usize;
        let mut expected_collected = 0u64;
        for round in 0u64..8 {
            // Grow a few chains…
            for k in 0..4u64 {
                for i in 0..5u64 {
                    s.insert(k, V(round * 100 + i * 10));
                    expected_live += 1;
                }
            }
            // …then GC at a watermark inside this round's versions.
            let removed = s.collect(&at_most(round * 100 + 25));
            expected_live -= removed;
            expected_collected += removed as u64;
            let stats = s.stats();
            assert_eq!(stats.versions, expected_live, "round {round}");
            assert_eq!(stats.collected, expected_collected, "round {round}");
            // The incremental count must equal a full recount.
            let recount: usize = s.iter().map(|(_, c)| c.len()).sum();
            assert_eq!(stats.versions, recount, "round {round}");
            let multi = s.iter().filter(|(_, c)| c.len() >= 2).count();
            assert_eq!(stats.gc_candidates, multi, "round {round}");
        }
    }

    #[test]
    fn iter_visits_all_chains() {
        let mut s: MvStore<u64, V> = MvStore::new();
        s.insert(1, V(1));
        s.insert(2, V(2));
        assert_eq!(s.iter().count(), 2);
    }
}
