use std::collections::{BTreeMap, HashMap};
use wren_clock::Timestamp;
use wren_protocol::{ClientId, Key, ServerId, TxId, Value, WrenMsg};

/// Client-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Transactions started.
    pub txs_started: u64,
    /// Update transactions committed (non-empty write set).
    pub txs_committed: u64,
    /// Keys answered from the write-set (read-your-writes within the tx).
    pub hits_write_set: u64,
    /// Keys answered from the read-set (repeatable reads).
    pub hits_read_set: u64,
    /// Keys answered from the client-side cache (the CANToR component).
    pub hits_cache: u64,
    /// Keys fetched from servers.
    pub server_reads: u64,
    /// Cache entries pruned because the stable snapshot caught up.
    pub cache_pruned: u64,
}

/// What a [`WrenClient::read`] call produced: values served locally plus
/// an optional request for the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOutcome {
    /// Keys answered from the write-set, read-set or client-side cache.
    pub local: Vec<(Key, Option<Value>)>,
    /// Request to forward to the coordinator for the remaining keys, if
    /// any.
    pub request: Option<WrenMsg>,
}

/// The phase of the in-flight transaction, used to validate the driver's
/// call sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for `StartTxResp`.
    Starting,
    /// Between operations.
    Idle,
    /// Waiting for `TxReadResp`.
    Reading,
    /// Waiting for `CommitResp`.
    Committing,
}

#[derive(Debug)]
struct ActiveTx {
    id: TxId,
    phase: Phase,
    /// Write set `WS_c`: buffered writes, last value per key wins.
    ws: BTreeMap<Key, Value>,
    /// Read set `RS_c`: values observed in this transaction.
    rs: HashMap<Key, Option<Value>>,
}

/// A cached own-write: the CANToR client-side cache entry (`WC_c`).
#[derive(Debug, Clone, PartialEq)]
struct CacheEntry {
    value: Value,
    ct: Timestamp,
}

/// A Wren client session: Algorithm 1 of the paper.
///
/// CANToR makes transaction snapshots *older* than the freshest local data
/// (everything up to the LST), and compensates with a **private cache** of
/// the client's own writes that the stable snapshot does not cover yet:
/// reads check the write-set, then the read-set, then the cache, and only
/// then go to a server — so a client always observes its own writes even
/// though the snapshot lags.
///
/// The client is sans-io: methods return [`WrenMsg`]s for the driver to
/// deliver to the coordinator, and `on_*` methods consume the responses.
///
/// # Example (driver loop shape)
///
/// ```no_run
/// use wren_core::WrenClient;
/// use wren_protocol::{ClientId, Key, ServerId};
///
/// let mut client = WrenClient::new(ClientId(0), ServerId::new(0, 0));
/// let _start_msg = client.start();
/// // deliver to coordinator, receive resp...
/// // client.on_start_resp(resp);
/// let outcome = client.read(&[Key(1), Key(2)]);
/// // forward outcome.request (if Some) to the coordinator...
/// ```
#[derive(Debug)]
pub struct WrenClient {
    id: ClientId,
    coordinator: ServerId,
    /// Snapshot components of the current/last transaction.
    lst: Timestamp,
    rst: Timestamp,
    /// Commit time of the client's last update transaction (`hwt_c`).
    hwt: Timestamp,
    tx: Option<ActiveTx>,
    cache: HashMap<Key, CacheEntry>,
    /// Set while migrating to another DC: the timestamp the new DC's
    /// remote snapshot must reach before this session may resume.
    migration_floor: Option<Timestamp>,
    stats: ClientStats,
}

impl WrenClient {
    /// Creates a session that uses `coordinator` for every transaction
    /// (the evaluation collocates each client with its coordinator
    /// partition, §V-A).
    pub fn new(id: ClientId, coordinator: ServerId) -> Self {
        WrenClient {
            id,
            coordinator,
            lst: Timestamp::ZERO,
            rst: Timestamp::ZERO,
            hwt: Timestamp::ZERO,
            tx: None,
            cache: HashMap::new(),
            migration_floor: None,
            stats: ClientStats::default(),
        }
    }

    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The coordinator this session talks to.
    pub fn coordinator(&self) -> ServerId {
        self.coordinator
    }

    /// Client statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Commit time of this client's last update transaction.
    pub fn hwt(&self) -> Timestamp {
        self.hwt
    }

    /// Number of own-writes currently held in the client-side cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Whether a transaction is currently active.
    pub fn in_tx(&self) -> bool {
        self.tx.is_some()
    }

    /// Begins migrating this session to a coordinator in (potentially)
    /// another DC — the extension the paper sketches in §II-A footnote 1:
    /// the client blocks until the last snapshot it has seen (and its own
    /// writes) are installed in the new DC.
    ///
    /// After calling this, drive `start()` / `on_start_resp()` until
    /// [`WrenClient::migration_ready`] returns `true`; until then the
    /// started transactions are not safe and must be committed empty
    /// (which also clears the coordinator's context). The old DC's stable
    /// times are *not* piggybacked to the new coordinator — they describe
    /// a different DC's partitions and would poison its watermarks.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is active.
    pub fn migrate_to(&mut self, new_coordinator: ServerId) {
        assert!(self.tx.is_none(), "cannot migrate inside a transaction");
        // Everything this session causally depends on, as one scalar: its
        // old snapshot (lst covers old-DC items, rst the rest) and its own
        // writes (hwt). In the new DC all of these are "remote", so the
        // assigned remote snapshot must reach this floor.
        // A migration abandoned part-way has already zeroed lst/rst;
        // the floor it was waiting for still binds this one.
        let floor = self
            .lst
            .max(self.rst)
            .max(self.hwt)
            .max(self.migration_floor.unwrap_or(Timestamp::ZERO));
        self.migration_floor = Some(floor);
        self.coordinator = new_coordinator;
        self.lst = Timestamp::ZERO;
        self.rst = Timestamp::ZERO;
    }

    /// `true` once a post-[`migrate_to`](WrenClient::migrate_to) snapshot
    /// covered the migration floor; the session is then safe to use.
    /// Always `true` when no migration is in progress.
    pub fn migration_ready(&self) -> bool {
        self.migration_floor.is_none()
    }

    /// Begins a transaction: returns the `StartTxReq` to send to the
    /// coordinator (Algorithm 1 lines 1–7).
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn start(&mut self) -> WrenMsg {
        assert!(self.tx.is_none(), "transaction already active");
        self.tx = Some(ActiveTx {
            id: TxId::from_raw(0),
            phase: Phase::Starting,
            ws: BTreeMap::new(),
            rs: HashMap::new(),
        });
        self.stats.txs_started += 1;
        WrenMsg::StartTxReq {
            lst: self.lst,
            rst: self.rst,
        }
    }

    /// Consumes the coordinator's `StartTxResp`: adopts the snapshot and
    /// prunes cache entries the stable snapshot now covers.
    pub fn on_start_resp(&mut self, msg: WrenMsg) {
        let WrenMsg::StartTxResp { tx, lst, rst } = msg else {
            panic!("expected StartTxResp, got {msg:?}");
        };
        let active = self.tx.as_mut().expect("no transaction active");
        assert_eq!(active.phase, Phase::Starting, "unexpected StartTxResp");
        active.id = tx;
        active.phase = Phase::Idle;
        self.lst = lst;
        self.rst = rst;
        if let Some(floor) = self.migration_floor {
            // Migration completes when the new DC's remote snapshot covers
            // everything the session saw or wrote in its old DC. The cache
            // is then fully covered by the snapshot (as remote versions)
            // and can be dropped wholesale.
            if rst >= floor {
                self.migration_floor = None;
                self.stats.cache_pruned += self.cache.len() as u64;
                self.cache.clear();
            }
            return;
        }
        // Algorithm 1 line 6: drop own-writes with ct ≤ lst — they are in
        // the stable snapshot now, so servers will serve them.
        let before = self.cache.len();
        self.cache.retain(|_, e| e.ct > lst);
        self.stats.cache_pruned += (before - self.cache.len()) as u64;
    }

    /// Reads `keys` within the active transaction (Algorithm 1 lines
    /// 8–20): serves what it can from the write-set, read-set and cache
    /// (in that order) and returns a `TxReadReq` for the rest.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or another operation is in
    /// flight.
    pub fn read(&mut self, keys: &[Key]) -> ReadOutcome {
        assert!(
            self.migration_floor.is_none(),
            "session is migrating: wait for migration_ready()"
        );
        let active = self.tx.as_mut().expect("no transaction active");
        assert_eq!(active.phase, Phase::Idle, "operation already in flight");

        let mut local = Vec::new();
        let mut remote = Vec::new();
        for &k in keys {
            if let Some(v) = active.ws.get(&k) {
                self.stats.hits_write_set += 1;
                local.push((k, Some(v.clone())));
            } else if let Some(v) = active.rs.get(&k) {
                self.stats.hits_read_set += 1;
                local.push((k, v.clone()));
            } else if let Some(e) = self.cache.get(&k) {
                self.stats.hits_cache += 1;
                local.push((k, Some(e.value.clone())));
            } else {
                remote.push(k);
            }
        }
        // Locally-served keys still enter the read set (repeatable reads).
        for (k, v) in &local {
            active.rs.insert(*k, v.clone());
        }
        let request = if remote.is_empty() {
            None
        } else {
            self.stats.server_reads += remote.len() as u64;
            active.phase = Phase::Reading;
            Some(WrenMsg::TxReadReq {
                tx: active.id,
                keys: remote,
            })
        };
        ReadOutcome { local, request }
    }

    /// Consumes a `TxReadResp`, returning the `(key, value)` pairs it
    /// carried after recording them in the read set.
    pub fn on_read_resp(&mut self, msg: WrenMsg) -> Vec<(Key, Option<Value>)> {
        let WrenMsg::TxReadResp { tx, items } = msg else {
            panic!("expected TxReadResp, got {msg:?}");
        };
        let active = self.tx.as_mut().expect("no transaction active");
        assert_eq!(active.id, tx, "response for a different transaction");
        assert_eq!(active.phase, Phase::Reading, "unexpected TxReadResp");
        active.phase = Phase::Idle;
        let mut out = Vec::with_capacity(items.len());
        for (k, version) in items {
            let value = version.map(|d| d.value);
            active.rs.insert(k, value.clone());
            out.push((k, value));
        }
        out
    }

    /// Buffers writes in the write-set (Algorithm 1 lines 21–25).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or another operation is in
    /// flight.
    pub fn write<I: IntoIterator<Item = (Key, Value)>>(&mut self, kvs: I) {
        assert!(
            self.migration_floor.is_none(),
            "session is migrating: wait for migration_ready()"
        );
        let active = self.tx.as_mut().expect("no transaction active");
        assert_eq!(active.phase, Phase::Idle, "operation already in flight");
        for (k, v) in kvs {
            active.ws.insert(k, v);
        }
    }

    /// Commits the transaction (Algorithm 1 lines 26–32): returns the
    /// `CommitReq` carrying the write-set and the client's highest write
    /// time.
    ///
    /// A read-only transaction also sends the (empty) request so the
    /// coordinator tears down its per-transaction context; the reply
    /// carries a zero timestamp in that case.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active or another operation is in
    /// flight.
    pub fn commit(&mut self) -> WrenMsg {
        let active = self.tx.as_mut().expect("no transaction active");
        assert_eq!(active.phase, Phase::Idle, "operation already in flight");
        active.phase = Phase::Committing;
        WrenMsg::CommitReq {
            tx: active.id,
            hwt: self.hwt,
            writes: active.ws.iter().map(|(k, v)| (*k, v.clone())).collect(),
        }
    }

    /// Consumes the `CommitResp`: tags the write-set with the commit
    /// timestamp and moves it into the client-side cache, overwriting
    /// older entries for the same keys. Returns the commit timestamp
    /// (zero for a read-only transaction).
    pub fn on_commit_resp(&mut self, msg: WrenMsg) -> Timestamp {
        let WrenMsg::CommitResp { tx, ct } = msg else {
            panic!("expected CommitResp, got {msg:?}");
        };
        let active = self.tx.take().expect("no transaction active");
        assert_eq!(active.id, tx, "response for a different transaction");
        assert_eq!(active.phase, Phase::Committing, "unexpected CommitResp");
        if ct.is_zero() {
            // Read-only transaction: nothing to cache, hwt unchanged.
            return ct;
        }
        self.hwt = ct;
        for (k, value) in active.ws {
            self.cache.insert(k, CacheEntry { value, ct });
        }
        self.stats.txs_committed += 1;
        ct
    }

    /// Abandons the active transaction client-side (used by drivers on
    /// shutdown; the coordinator context, if any, is reclaimed lazily).
    pub fn abort(&mut self) {
        self.tx = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn val(s: &'static str) -> Value {
        Bytes::from_static(s.as_bytes())
    }

    fn respond_start(client: &mut WrenClient, lst: u64, rst: u64) {
        let tx = TxId::new(ServerId::new(0, 0), 1);
        client.on_start_resp(WrenMsg::StartTxResp {
            tx,
            lst: Timestamp::from_micros(lst),
            rst: Timestamp::from_micros(rst),
        });
    }

    #[test]
    fn start_carries_snapshot_and_prunes_cache() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        // Seed the cache through a committed tx.
        let _ = c.start();
        respond_start(&mut c, 0, 0);
        c.write([(Key(1), val("a")), (Key(2), val("b"))]);
        let commit = c.commit();
        assert!(matches!(commit, WrenMsg::CommitReq { ref writes, .. } if writes.len() == 2));
        let tx = TxId::new(ServerId::new(0, 0), 1);
        c.on_commit_resp(WrenMsg::CommitResp {
            tx,
            ct: Timestamp::from_micros(100),
        });
        assert_eq!(c.cache_len(), 2);

        // Next start: snapshot still below ct → cache kept.
        let msg = c.start();
        assert!(matches!(msg, WrenMsg::StartTxReq { .. }));
        respond_start(&mut c, 50, 40);
        assert_eq!(c.cache_len(), 2);
        let _ = c.commit();
        c.on_commit_resp(WrenMsg::CommitResp {
            tx,
            ct: Timestamp::ZERO,
        });

        // Snapshot catches up → cache pruned (Algorithm 1 line 6).
        let _ = c.start();
        respond_start(&mut c, 100, 90);
        assert_eq!(c.cache_len(), 0);
        assert_eq!(c.stats().cache_pruned, 2);
    }

    #[test]
    fn read_checks_ws_then_rs_then_cache() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let _ = c.start();
        respond_start(&mut c, 0, 0);
        c.write([(Key(1), val("ws"))]);

        let outcome = c.read(&[Key(1), Key(9)]);
        assert_eq!(outcome.local, vec![(Key(1), Some(val("ws")))]);
        let Some(WrenMsg::TxReadReq { tx, keys }) = outcome.request else {
            panic!("expected a server read");
        };
        assert_eq!(keys, vec![Key(9)]);

        // Server answers; value lands in the read set.
        let fetched = c.on_read_resp(WrenMsg::TxReadResp {
            tx,
            items: vec![(Key(9), None)],
        });
        assert_eq!(fetched, vec![(Key(9), None)]);

        // Second read of key 9 is a read-set hit (repeatable reads).
        let outcome = c.read(&[Key(9)]);
        assert_eq!(outcome.local, vec![(Key(9), None)]);
        assert!(outcome.request.is_none());
        assert_eq!(c.stats().hits_read_set, 1);
        assert_eq!(c.stats().hits_write_set, 1);
    }

    #[test]
    fn cache_serves_own_writes_across_transactions() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let tx = TxId::new(ServerId::new(0, 0), 1);
        let _ = c.start();
        respond_start(&mut c, 0, 0);
        c.write([(Key(7), val("mine"))]);
        let _ = c.commit();
        c.on_commit_resp(WrenMsg::CommitResp {
            tx,
            ct: Timestamp::from_micros(500),
        });

        // New tx with a snapshot that does NOT include ct=500.
        let _ = c.start();
        respond_start(&mut c, 100, 99);
        let outcome = c.read(&[Key(7)]);
        assert_eq!(outcome.local, vec![(Key(7), Some(val("mine")))]);
        assert!(outcome.request.is_none(), "cache hit needs no server read");
        assert_eq!(c.stats().hits_cache, 1);
    }

    #[test]
    fn read_only_commit_keeps_hwt() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let tx = TxId::new(ServerId::new(0, 0), 1);
        let _ = c.start();
        respond_start(&mut c, 0, 0);
        let msg = c.commit();
        assert!(matches!(msg, WrenMsg::CommitReq { ref writes, .. } if writes.is_empty()));
        let ct = c.on_commit_resp(WrenMsg::CommitResp {
            tx,
            ct: Timestamp::ZERO,
        });
        assert!(ct.is_zero());
        assert_eq!(c.hwt(), Timestamp::ZERO);
        assert_eq!(c.stats().txs_committed, 0, "read-only txs are not updates");
    }

    #[test]
    fn write_overwrites_within_write_set() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let _ = c.start();
        respond_start(&mut c, 0, 0);
        c.write([(Key(1), val("first"))]);
        c.write([(Key(1), val("second"))]);
        let WrenMsg::CommitReq { writes, .. } = c.commit() else {
            panic!()
        };
        assert_eq!(writes, vec![(Key(1), val("second"))]);
    }

    #[test]
    #[should_panic(expected = "transaction already active")]
    fn double_start_panics() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let _ = c.start();
        let _ = c.start();
    }

    #[test]
    #[should_panic(expected = "no transaction active")]
    fn read_without_tx_panics() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let _ = c.read(&[Key(1)]);
    }

    #[test]
    fn migrating_again_keeps_the_pending_floor() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        c.start();
        respond_start(&mut c, 10, 50);
        c.abort();
        c.migrate_to(ServerId::new(1, 0)); // floor 50
        c.start();
        respond_start(&mut c, 5, 20); // not there yet
        c.abort(); // the migration is abandoned here...
        c.migrate_to(ServerId::new(2, 0)); // ...and retried elsewhere
        c.start();
        respond_start(&mut c, 5, 30);
        c.abort();
        assert!(
            !c.migration_ready(),
            "a snapshot below the first migration's floor must not end the retry"
        );
        c.start();
        respond_start(&mut c, 5, 50);
        c.abort();
        assert!(c.migration_ready());
    }

    #[test]
    fn abort_clears_transaction() {
        let mut c = WrenClient::new(ClientId(1), ServerId::new(0, 0));
        let _ = c.start();
        assert!(c.in_tx());
        c.abort();
        assert!(!c.in_tx());
        let _ = c.start(); // can start again
    }
}
