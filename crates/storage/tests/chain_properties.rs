//! Property-based tests for version chains: LWW ordering, visibility and
//! GC invariants under arbitrary insertion orders.
//!
//! The binary-search read path is checked against a **naive linear-scan
//! oracle** (`iter().filter(admits).max_by_key(order_key)`): for every
//! randomized insertion order — including commit-timestamp ties broken by
//! `(dc, tx)` — and every bound shape (`at_most`, `bist`, `vector`), the
//! indexed `latest_visible`/`collect` must agree with the oracle exactly.
//!
//! The store's write-driven GC (a pass visits only the chains holding
//! ≥ 2 versions) is checked against a **full-sweep oracle** that collects
//! every chain, the way the store did before it kept a candidate list.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wren_clock::{Timestamp, VersionVector};
use wren_storage::{MvStore, SnapshotBound, VersionChain, Versioned};

#[derive(Clone, Debug, PartialEq)]
struct V {
    ct: u64,
    sr: u8,
    tx: u64,
    rdt: u64,
}

impl Versioned for V {
    fn order_key(&self) -> (Timestamp, u8, u64) {
        (Timestamp::from_micros(self.ct), self.sr, self.tx)
    }

    fn remote_dep(&self) -> Timestamp {
        Timestamp::from_micros(self.rdt)
    }
}

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_micros(micros)
}

/// Narrow domains on purpose: commit-timestamp ties (resolved by `(dc,
/// tx)`) must actually occur. A strategy-level post-pass makes every
/// transaction id unique, as in the real system — `(ct, sr, tx)` is a
/// globally unique key there, and full-key duplicates would make "which
/// equal-key twin survives" observable noise in the oracle comparison.
fn arb_versions(max: usize) -> impl Strategy<Value = Vec<V>> {
    proptest::collection::vec(
        (0u64..500, 0u8..3, 0u64..8, 0u64..500)
            .prop_map(|(ct, sr, tx, rdt)| V { ct, sr, tx, rdt: rdt.min(ct) }),
        1..max,
    )
    .prop_map(|mut versions| {
        for (i, v) in versions.iter_mut().enumerate() {
            // Keep the low bits random (ties exercised), high bits unique.
            v.tx += (i as u64) << 3;
        }
        versions
    })
}

/// The linear-scan oracle: the LWW-max among versions a bound admits.
fn oracle<'a>(versions: &'a [V], bound: &SnapshotBound<'_>) -> Option<&'a V> {
    versions
        .iter()
        .filter(|v| bound.admits(&v.order_key(), v.remote_dep()))
        .max_by_key(|v| v.order_key())
}

fn build_chain(versions: &[V]) -> VersionChain<V> {
    let mut chain = VersionChain::new();
    for v in versions {
        chain.insert(v.clone());
    }
    chain
}

/// One step of a random store history.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, V),
    InsertIfNew(u64, V),
    /// Re-applies the write of an earlier step (index taken modulo the
    /// writes so far) through `insert_if_new`, as WAL replay does.
    Replay(usize),
    ApplyBatch(Vec<(u64, V)>),
    /// GC at the BiST bound `(local dc, lt, rt)`.
    Collect(u8, u64, u64),
}

/// Few keys and a ct domain the watermarks can overtake, so chains are
/// collected back to one version and then overwritten again.
fn arb_version() -> impl Strategy<Value = V> {
    (0u64..300, 0u8..3, 0u64..8, 0u64..300).prop_map(|(ct, sr, tx, rdt)| V {
        ct,
        sr,
        tx,
        rdt: rdt.min(ct),
    })
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u64..6, arb_version()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..6, arb_version()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..6, arb_version()).prop_map(|(k, v)| Op::InsertIfNew(k, v)),
        (0usize..64).prop_map(Op::Replay),
        proptest::collection::vec((0u64..6, arb_version()), 1..6).prop_map(Op::ApplyBatch),
        (0u8..3, 0u64..400, 0u64..400).prop_map(|(dc, lt, rt)| Op::Collect(dc, lt, rt)),
    ];
    proptest::collection::vec(op, 1..max).prop_map(|mut ops| {
        // Unique transaction ids, as in `arb_versions`.
        let mut n = 0u64;
        let mut unique = |v: &mut V| {
            v.tx += n << 3;
            n += 1;
        };
        for op in &mut ops {
            match op {
                Op::Insert(_, v) | Op::InsertIfNew(_, v) => unique(v),
                Op::ApplyBatch(items) => items.iter_mut().for_each(|(_, v)| unique(v)),
                Op::Replay(_) | Op::Collect(..) => {}
            }
        }
        ops
    })
}

/// The full-sweep oracle: the same chains, collected by visiting every
/// one of them on each pass.
#[derive(Default)]
struct FullSweep {
    chains: BTreeMap<u64, VersionChain<V>>,
    collected: u64,
}

impl FullSweep {
    fn collect(&mut self, bound: &SnapshotBound<'_>) -> usize {
        let removed: usize = self.chains.values_mut().map(|c| c.collect(bound)).sum();
        self.collected += removed as u64;
        removed
    }
}

fn assert_matches_full_sweep(store: &MvStore<u64, V>, oracle: &FullSweep, step: usize) {
    for (k, chain) in &oracle.chains {
        let got: Vec<&V> = store.chain(k).expect("key present").iter().collect();
        let want: Vec<&V> = chain.iter().collect();
        assert_eq!(got, want, "step {step}: chain of key {k}");
    }
    let stats = store.stats();
    assert_eq!(stats.keys, oracle.chains.len(), "step {step}: keys");
    let versions: usize = oracle.chains.values().map(VersionChain::len).sum();
    assert_eq!(stats.versions, versions, "step {step}: versions");
    assert_eq!(stats.collected, oracle.collected, "step {step}: collected");
    let multi = oracle.chains.values().filter(|c| c.len() >= 2).count();
    assert_eq!(stats.gc_candidates, multi, "step {step}: gc_candidates");
}

proptest! {
    /// Write-driven GC is observationally a full sweep: after every step
    /// of a random interleaving of `insert`, `insert_if_new` (fresh and
    /// replayed), `apply_batch` and `collect`, the store's chains,
    /// removal counts and `collected` equal the full-sweep oracle's, and
    /// exactly the keys with ≥ 2 versions are GC candidates.
    #[test]
    fn write_driven_collect_matches_full_sweep(ops in arb_ops(80)) {
        let mut store: MvStore<u64, V> = MvStore::new();
        let mut oracle = FullSweep::default();
        let mut writes: Vec<(u64, V)> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k, v) => {
                    store.insert(k, v.clone());
                    oracle.chains.entry(k).or_default().insert(v.clone());
                    writes.push((k, v));
                }
                Op::InsertIfNew(k, v) => {
                    let got = store.insert_if_new(k, v.clone());
                    let want = oracle.chains.entry(k).or_default().insert_if_new(v.clone());
                    prop_assert_eq!(got, want, "step {}: insert_if_new", step);
                    writes.push((k, v));
                }
                Op::Replay(i) => {
                    if writes.is_empty() {
                        continue;
                    }
                    let (k, v) = writes[i % writes.len()].clone();
                    let got = store.insert_if_new(k, v.clone());
                    let want = oracle.chains.entry(k).or_default().insert_if_new(v);
                    prop_assert_eq!(got, want, "step {}: replay", step);
                }
                Op::ApplyBatch(mut items) => {
                    for (k, v) in &items {
                        oracle.chains.entry(*k).or_default().insert(v.clone());
                    }
                    writes.extend(items.iter().cloned());
                    let n = items.len();
                    prop_assert_eq!(store.apply_batch(&mut items), n);
                }
                Op::Collect(dc, lt, rt) => {
                    let bound = SnapshotBound::bist(dc, ts(lt), ts(rt));
                    prop_assert_eq!(store.collect(&bound), oracle.collect(&bound), "step {}", step);
                }
            }
            assert_matches_full_sweep(&store, &oracle, step);
        }
    }
}

/// A key collected back to one version leaves the candidate list, and a
/// later overwrite lists it again (once), whichever write path makes it.
#[test]
fn collected_key_reenters_candidates_when_overwritten() {
    let v = |ct: u64| V {
        ct,
        sr: 0,
        tx: ct,
        rdt: 0,
    };
    let mut store: MvStore<u64, V> = MvStore::new();
    store.insert(1, v(10));
    store.insert(2, v(10));
    assert_eq!(store.stats().gc_candidates, 0);
    store.insert(1, v(20));
    store.insert(1, v(30));
    assert_eq!(
        store.stats().gc_candidates,
        1,
        "listed once, not per version"
    );

    assert_eq!(store.collect(&SnapshotBound::at_most(ts(40))), 2);
    assert_eq!(store.stats().gc_candidates, 0);
    assert_eq!(store.collect(&SnapshotBound::at_most(ts(40))), 0);

    store.insert(1, v(50));
    assert_eq!(store.stats().gc_candidates, 1);
    assert!(store.insert_if_new(2, v(50)));
    assert!(!store.insert_if_new(2, v(50)));
    assert_eq!(store.stats().gc_candidates, 2);
    store.collect(&SnapshotBound::at_most(ts(60)));
    assert_eq!(store.stats().gc_candidates, 0);

    let mut batch = vec![(1, v(70)), (3, v(70)), (3, v(80))];
    store.apply_batch(&mut batch);
    assert_eq!(
        store.stats().gc_candidates,
        2,
        "key 1 re-listed, new key 3 listed"
    );
}

proptest! {
    /// Whatever the insertion order, the chain is sorted newest-first by
    /// the LWW key, and `newest` is the global maximum.
    #[test]
    fn chain_is_always_lww_sorted(versions in arb_versions(40)) {
        let chain = build_chain(&versions);
        let keys: Vec<_> = chain.iter().map(Versioned::order_key).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] >= w[1], "chain out of order: {:?}", keys);
        }
        let max = versions.iter().map(Versioned::order_key).max().unwrap();
        prop_assert_eq!(chain.newest().unwrap().order_key(), max);
    }

    /// Binary-search `latest_visible` matches the linear-scan oracle for
    /// plain commit-timestamp cutoffs.
    #[test]
    fn latest_visible_matches_oracle_at_most(
        versions in arb_versions(40),
        cutoff in 0u64..500,
    ) {
        let chain = build_chain(&versions);
        let bound = SnapshotBound::at_most(ts(cutoff));
        let visible = chain.latest_visible(&bound);
        let expected = oracle(&versions, &bound);
        match (visible, expected) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert_eq!(a.order_key(), b.order_key()),
            (a, b) => prop_assert!(false, "mismatch: {:?} vs {:?}", a, b),
        }
    }

    /// Binary-search `latest_visible` matches the oracle for Wren's BiST
    /// bounds, whose per-origin refinement is *not* a pure key prefix.
    #[test]
    fn latest_visible_matches_oracle_bist(
        versions in arb_versions(40),
        local_dc in 0u8..3,
        lt in 0u64..500,
        rt in 0u64..500,
    ) {
        let chain = build_chain(&versions);
        let bound = SnapshotBound::bist(local_dc, ts(lt), ts(rt));
        let visible = chain.latest_visible(&bound);
        let expected = oracle(&versions, &bound);
        match (visible, expected) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert_eq!(a.order_key(), b.order_key()),
            (a, b) => prop_assert!(false, "mismatch: {:?} vs {:?}", a, b),
        }
    }

    /// Binary-search `latest_visible` matches the oracle for Cure's
    /// vector bounds.
    #[test]
    fn latest_visible_matches_oracle_vector(
        versions in arb_versions(40),
        e0 in 0u64..500,
        e1 in 0u64..500,
        e2 in 0u64..500,
    ) {
        let chain = build_chain(&versions);
        let vv = VersionVector::from_entries(vec![ts(e0), ts(e1), ts(e2)]);
        let bound = SnapshotBound::vector(&vv);
        let visible = chain.latest_visible(&bound);
        let expected = oracle(&versions, &bound);
        match (visible, expected) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert_eq!(a.order_key(), b.order_key()),
            (a, b) => prop_assert!(false, "mismatch: {:?} vs {:?}", a, b),
        }
    }

    /// `collect` drops exactly the versions older than the oracle's
    /// newest-visible version, for every bound shape.
    #[test]
    fn collect_matches_oracle(
        versions in arb_versions(40),
        local_dc in 0u8..3,
        lt in 0u64..500,
        rt in 0u64..500,
    ) {
        let mut chain = build_chain(&versions);
        let bound = SnapshotBound::bist(local_dc, ts(lt), ts(rt));
        let expected_keep = match oracle(&versions, &bound) {
            // Keep the newest visible and everything newer.
            Some(newest_visible) => {
                let pivot = newest_visible.order_key();
                versions.iter().filter(|v| v.order_key() >= pivot).count()
            }
            // Nothing visible: everything is retained.
            None => versions.len(),
        };
        let removed = chain.collect(&bound);
        prop_assert_eq!(chain.len(), expected_keep);
        prop_assert_eq!(removed, versions.len() - expected_keep);
    }

    /// After GC at any watermark, every read at a snapshot at or above the
    /// watermark returns the same result as before GC.
    #[test]
    fn gc_preserves_reads_at_or_above_watermark(
        versions in arb_versions(40),
        watermark in 0u64..500,
        probe in 0u64..500,
    ) {
        let mut chain = build_chain(&versions);
        let probe = probe.max(watermark); // only snapshots ≥ watermark are promised
        let before = chain.latest_visible(&SnapshotBound::at_most(ts(probe))).cloned();
        chain.collect(&SnapshotBound::at_most(ts(watermark)));
        let after = chain.latest_visible(&SnapshotBound::at_most(ts(probe))).cloned();
        prop_assert_eq!(before, after);
    }

    /// GC never removes the newest version and never leaves the chain in
    /// an unsorted state.
    #[test]
    fn gc_keeps_newest_and_order(
        versions in arb_versions(40),
        watermark in 0u64..500,
    ) {
        let mut chain = build_chain(&versions);
        let newest_before = chain.newest().unwrap().order_key();
        chain.collect(&SnapshotBound::at_most(ts(watermark)));
        prop_assert_eq!(chain.newest().unwrap().order_key(), newest_before);
        let keys: Vec<_> = chain.iter().map(Versioned::order_key).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// Store-level: stats track contents; collect sums per-chain removals.
    #[test]
    fn store_stats_are_consistent(
        keys in proptest::collection::vec(0u64..8, 1..60),
        versions in arb_versions(60),
        watermark in 0u64..500,
    ) {
        let inserts: Vec<(u64, V)> = keys
            .iter()
            .zip(versions.iter().cycle())
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let mut store: MvStore<u64, V> = MvStore::new();
        for (k, v) in &inserts {
            store.insert(*k, v.clone());
        }
        let before = store.stats();
        prop_assert_eq!(before.versions, inserts.len());
        let removed = store.collect(&SnapshotBound::at_most(ts(watermark)));
        let after = store.stats();
        prop_assert_eq!(after.versions + removed, before.versions);
        prop_assert_eq!(after.collected, removed as u64);
        let recount: usize = store.iter().map(|(_, c)| c.len()).sum();
        prop_assert_eq!(after.versions, recount);
    }
}
