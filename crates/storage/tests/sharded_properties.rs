//! Property tests for the striped store and the batched write path.
//!
//! Two oracles:
//!
//! * **sharded vs flat** — a [`ShardedStore`] fed the same inserts,
//!   batch applies and GC sweeps as a flat [`MvStore`] must be
//!   observationally identical under every snapshot bound (striping is
//!   pure layout);
//! * **batched vs one-at-a-time** — `apply_batch` must leave every chain
//!   exactly as repeated `insert` calls would, including
//!   commit-timestamp ties (the replication case: a batch shares one
//!   commit timestamp, ties resolved by `(dc, tx)`).

use proptest::prelude::*;
use wren_clock::Timestamp;
use wren_storage::{MvStore, ShardedStore, SnapshotBound, VersionChain, Versioned};

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

/// Keyed inserts over a small key domain with commit-timestamp ties
/// (few distinct cts, `(sr, tx)` breaking them). Transaction ids are
/// made unique in a post-pass, as in the real system, so "which
/// identical twin survives" never becomes observable oracle noise.
fn arb_keyed(max: usize) -> impl Strategy<Value = Vec<(u64, V)>> {
    proptest::collection::vec(
        (0u64..12, 0u64..40, 0u8..3, 0u64..8, 0u64..40)
            .prop_map(|(k, ct, sr, tx, rdt)| (k, V { ct, sr, tx, rdt: rdt.min(ct) })),
        1..max,
    )
    .prop_map(|mut items| {
        for (i, (_, v)) in items.iter_mut().enumerate() {
            v.tx += (i as u64) << 3;
        }
        items
    })
}

fn chain_keys(c: &VersionChain<V>) -> Vec<(Timestamp, u8, u64)> {
    c.iter().map(Versioned::order_key).collect()
}

/// Every chain of `a` appears identically in `b` and vice versa.
fn assert_same_contents(a: &ShardedStore<u64, V>, b: &MvStore<u64, V>) {
    assert_eq!(a.stats().keys, b.stats().keys);
    assert_eq!(a.stats().versions, b.stats().versions);
    for (k, chain) in b.iter() {
        let sharded = a.chain(k).expect("key present in sharded store");
        assert_eq!(chain_keys(sharded), chain_keys(chain), "key {k}");
    }
}

proptest! {
    /// Sharded and flat stores agree on every read, under every bound
    /// shape, for the same random insert sequence.
    #[test]
    fn sharded_reads_match_flat_store(
        items in arb_keyed(60),
        stripes in 1usize..10,
        cutoff in 0u64..40,
        local_dc in 0u8..3,
        lt in 0u64..40,
        rt in 0u64..40,
    ) {
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat: MvStore<u64, V> = MvStore::new();
        for (k, v) in &items {
            sharded.insert(*k, v.clone());
            flat.insert(*k, v.clone());
        }
        assert_same_contents(&sharded, &flat);
        for bound in [
            SnapshotBound::all(),
            SnapshotBound::at_most(ts(cutoff)),
            SnapshotBound::bist(local_dc, ts(lt), ts(rt)),
        ] {
            for k in 0u64..12 {
                let s = sharded.latest_visible(&k, &bound).map(Versioned::order_key);
                let f = flat.latest_visible(&k, &bound).map(Versioned::order_key);
                prop_assert_eq!(s, f, "bound {:?}, key {}", bound, k);
                prop_assert_eq!(
                    sharded.newest(&k).map(Versioned::order_key),
                    flat.newest(&k).map(Versioned::order_key)
                );
            }
        }
    }

    /// GC on the sharded store removes exactly what the flat store
    /// removes.
    #[test]
    fn sharded_collect_matches_flat_store(
        items in arb_keyed(60),
        stripes in 1usize..10,
        watermark in 0u64..40,
    ) {
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat: MvStore<u64, V> = MvStore::new();
        for (k, v) in &items {
            sharded.insert(*k, v.clone());
            flat.insert(*k, v.clone());
        }
        let bound = SnapshotBound::at_most(ts(watermark));
        let removed_flat = flat.collect(&bound);
        let removed_sharded = sharded.collect(&bound);
        prop_assert_eq!(removed_sharded, removed_flat);
        prop_assert_eq!(sharded.stats().collected, flat.stats().collected);
        assert_same_contents(&sharded, &flat);
    }

    /// Store-level `apply_batch` (which sorts internally) leaves every
    /// chain exactly as one-at-a-time `insert` calls would — including
    /// commit-timestamp ties within and across batches.
    #[test]
    fn apply_batch_matches_insert_oracle(
        batches in proptest::collection::vec(arb_keyed(40), 1..4),
        stripes in 1usize..10,
    ) {
        let mut batched: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat_batched: MvStore<u64, V> = MvStore::new();
        let mut oracle: MvStore<u64, V> = MvStore::new();
        for batch in &batches {
            let mut items = batch.clone();
            let mut flat_items = batch.clone();
            let applied = batched.apply_batch(&mut items);
            prop_assert_eq!(applied, batch.len());
            prop_assert!(items.is_empty(), "apply_batch must drain its input");
            flat_batched.apply_batch(&mut flat_items);
            for (k, v) in batch {
                oracle.insert(*k, v.clone());
            }
        }
        assert_same_contents(&batched, &oracle);
        prop_assert_eq!(flat_batched.stats().versions, oracle.stats().versions);
        for (k, chain) in oracle.iter() {
            let b = flat_batched.chain(k).expect("key present");
            prop_assert_eq!(chain_keys(b), chain_keys(chain));
        }
    }

    /// Chain-level `apply_batch` on a **replication-shaped run** — every
    /// version sharing one commit timestamp, landing mid-chain — equals
    /// the insert oracle, whatever already sits in the chain (including
    /// same-ct entries from other DCs, which interleave the run).
    #[test]
    fn chain_apply_batch_matches_insert_with_shared_ct(
        existing in proptest::collection::vec(
            // The tx range overlaps the batch's on purpose: an existing
            // same-ct same-origin entry can then land strictly *inside*
            // the run's key span, exercising the post-splice resort.
            (0u64..40, 0u8..3, 0u64..1000, 0u64..40)
                .prop_map(|(ct, sr, tx, rdt)| V { ct, sr, tx, rdt: rdt.min(ct) }),
            0..30,
        ),
        batch_ct in 0u64..40,
        batch_txs in proptest::collection::vec(0u64..1000, 1..16),
    ) {
        // The batch: one shared ct, origin DC 1, distinct tx ids.
        let mut batch_txs = batch_txs;
        batch_txs.sort_unstable();
        batch_txs.dedup();
        let run: Vec<V> = batch_txs
            .iter()
            .map(|&tx| V { ct: batch_ct, sr: 1, tx, rdt: 0 })
            .collect();

        let mut chain = VersionChain::new();
        let mut oracle = VersionChain::new();
        for v in &existing {
            chain.insert(v.clone());
            oracle.insert(v.clone());
        }
        let mut sorted = run.clone();
        sorted.sort_unstable_by_key(Versioned::order_key);
        chain.apply_batch(&mut sorted);
        prop_assert!(sorted.is_empty());
        for v in &run {
            oracle.insert(v.clone());
        }
        prop_assert_eq!(chain_keys(&chain), chain_keys(&oracle));
        prop_assert_eq!(chain.len(), existing.len() + run.len());
    }

    /// Interleaving batch applies with GC keeps sharded and flat stores
    /// in lockstep (the server's real access pattern: replicate → read →
    /// collect → replicate …).
    #[test]
    fn interleaved_apply_and_collect_stay_in_lockstep(
        rounds in proptest::collection::vec(
            (arb_keyed(24), 0u64..40),
            1..4,
        ),
        stripes in 1usize..10,
    ) {
        let mut sharded: ShardedStore<u64, V> = ShardedStore::with_stripes(stripes);
        let mut flat: MvStore<u64, V> = MvStore::new();
        for (batch, watermark) in &rounds {
            let mut items = batch.clone();
            sharded.apply_batch(&mut items);
            for (k, v) in batch {
                flat.insert(*k, v.clone());
            }
            let bound = SnapshotBound::at_most(ts(*watermark));
            prop_assert_eq!(sharded.collect(&bound), flat.collect(&bound));
            assert_same_contents(&sharded, &flat);
        }
    }
}
