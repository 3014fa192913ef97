//! Single-threaded replay of a run's sampled transactions through the
//! public sans-io layers, to split a transaction's time by layer.
//!
//! The traced run records every few transactions' keys and values and
//! the instant each began. After the cluster is torn down, this module
//! rebuilds the same shape as plain [`WrenServer`] state machines and
//! [`WrenClient`]s on one thread and runs those transactions again, in
//! virtual time, with zero network delay. Every message a transaction
//! causes is
//!
//! * framed with `wren_protocol::frame::frame_wren` (timed: *encode*),
//! * reassembled with `FrameDecoder` and parsed with `WrenMsg::decode`
//!   (timed: *decode*),
//! * handled by `WrenServer::handle` (timed per message kind: *handle*);
//!   a `SliceReq`'s keys are also read once more through
//!   `SliceReader::read_slice` (timed: the storage share of *slice*).
//!
//! Replication, gossip and GC ticks run at their real intervals in
//! virtual time between transactions, so snapshots advance as in the
//! run; their traffic is not charged to any transaction.
//!
//! With a log directory, every server is built by `WrenServer::recover`
//! with a write-ahead log under `FsyncPolicy::Always`, and a group-commit
//! point (`WrenServer::log_commit_point`, timed: *wal*) follows each
//! handled message, as the runtime's engine does after each burst.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Instant;
use wren_clock::SkewedClock;
use wren_core::{FsyncPolicy, WrenClient, WrenConfig, WrenServer};
use wren_obs::MetricsSnapshot;
use wren_protocol::frame::{frame_wren, FrameDecoder};
use wren_protocol::{ClientId, Dest, Key, Outgoing, ServerId, Value, WrenMsg};

/// One transaction the traced run sampled for replay.
#[derive(Debug, Clone)]
pub struct SampledTx {
    /// Which session ran it.
    pub session: usize,
    /// When it began, µs after the traced phase started.
    pub at_us: u64,
    /// Keys read, in one multi-key read.
    pub reads: Vec<Key>,
    /// Writes buffered before commit.
    pub writes: Vec<(Key, Value)>,
}

/// Message kinds the per-kind handle times are split into.
pub const KINDS: [&str; 5] = ["start", "read", "slice", "prepare", "commit"];

fn kind_of(msg: &WrenMsg) -> Option<&'static str> {
    Some(match msg {
        WrenMsg::StartTxReq { .. } => "start",
        WrenMsg::TxReadReq { .. } | WrenMsg::SliceResp { .. } => "read",
        WrenMsg::SliceReq { .. } => "slice",
        WrenMsg::CommitReq { .. } | WrenMsg::PrepareReq { .. } | WrenMsg::PrepareResp { .. } => {
            "prepare"
        }
        WrenMsg::Commit { .. } => "commit",
        _ => return None,
    })
}

/// What the replay measured, summed over the replayed transactions.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    /// Transactions replayed.
    pub txs: u64,
    /// Framed bytes of the messages the transactions caused (client and
    /// server messages).
    pub bytes: u64,
    /// Time framing them, µs.
    pub encode_us: f64,
    /// Time reassembling and decoding them, µs.
    pub decode_us: f64,
    /// `WrenServer::handle` time by [`KINDS`] entry; `other` for kinds
    /// outside it.
    pub handle_us: BTreeMap<&'static str, f64>,
    /// Per `SliceReq`: the `SliceReader::read_slice` time, µs.
    pub read_slice_us: Vec<f64>,
    /// Time in group-commit points (WAL writes and fsyncs), µs; 0
    /// without a log.
    pub wal_us: f64,
    /// Every server's metrics over the replayed transactions, merged
    /// (the WAL histograms among them).
    pub servers: MetricsSnapshot,
}

impl ReplayStats {
    /// `WrenServer::handle` time over every kind, µs.
    pub fn handle_total_us(&self) -> f64 {
        self.handle_us.values().sum()
    }
}

/// Tick intervals the replay runs, in µs (the runtime's defaults).
const REPLICATION_TICK: u64 = 1_000;
const GOSSIP_TICK: u64 = 5_000;
const GC_TICK: u64 = 50_000;
/// Virtual time the replay starts at (HLC physical parts must be > 0).
const EPOCH_US: u64 = 1_000_000;
/// Preload writes per replay transaction.
const PRELOAD_BATCH: usize = 1_000;

struct Replayer {
    servers: Vec<WrenServer>,
    n_partitions: u16,
    queue: VecDeque<(Dest, Dest, WrenMsg)>,
    client_inbox: VecDeque<WrenMsg>,
    decoder: FrameDecoder,
    now: u64,
    next_repl: u64,
    next_gossip: u64,
    next_gc: u64,
    stats: ReplayStats,
    scratch: Vec<Outgoing<WrenMsg>>,
    /// Whether the servers keep a write-ahead log.
    logging: bool,
}

fn secs_us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1_000.0
}

impl Replayer {
    fn new(dcs: u8, partitions: u16, wal_dir: Option<&Path>) -> Self {
        let cfg = WrenConfig {
            n_dcs: dcs,
            n_partitions: partitions,
            replication_tick_micros: REPLICATION_TICK,
            gossip_tick_micros: GOSSIP_TICK,
            gc_tick_micros: GC_TICK,
            visibility_sample_every: 0,
            gossip_fanout: 0,
        };
        let servers = (0..dcs)
            .flat_map(|dc| (0..partitions).map(move |p| ServerId::new(dc, p)))
            .map(|id| match wal_dir {
                Some(dir) => {
                    let dir = dir.join(format!("p{}", id.dc_major_index(partitions)));
                    WrenServer::recover(id, cfg, SkewedClock::perfect(), &dir, FsyncPolicy::Always)
                        .expect("replay WAL directory opens")
                }
                None => WrenServer::new(id, cfg, SkewedClock::perfect()),
            })
            .collect();
        Replayer {
            servers,
            n_partitions: partitions,
            queue: VecDeque::new(),
            client_inbox: VecDeque::new(),
            decoder: FrameDecoder::new(),
            now: EPOCH_US,
            next_repl: EPOCH_US + REPLICATION_TICK,
            next_gossip: EPOCH_US + GOSSIP_TICK,
            next_gc: EPOCH_US + GC_TICK,
            stats: ReplayStats::default(),
            scratch: Vec::new(),
            logging: wal_dir.is_some(),
        }
    }

    fn index(&self, id: ServerId) -> usize {
        id.dc_major_index(self.n_partitions)
    }

    /// Delivers every queued message. With `charge`, each one is framed,
    /// decoded and handled under the clock and charged to the replayed
    /// transactions; without, it is handled directly (tick traffic).
    fn pump(&mut self, charge: bool) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let msg = if charge { self.wire(msg) } else { msg };
            match to {
                Dest::Client(_) => self.client_inbox.push_back(msg),
                Dest::Server(id) => {
                    let idx = self.index(id);
                    let kind = kind_of(&msg);
                    if charge {
                        if let WrenMsg::SliceReq { lt, rt, keys, .. } = &msg {
                            let reader = self.servers[idx].reader();
                            let started = Instant::now();
                            std::hint::black_box(reader.read_slice(keys, *lt, *rt));
                            self.stats.read_slice_us.push(secs_us(started));
                        }
                    }
                    let mut out = std::mem::take(&mut self.scratch);
                    let started = Instant::now();
                    self.servers[idx].handle(from, msg, self.now, &mut out);
                    if charge {
                        *self
                            .stats
                            .handle_us
                            .entry(kind.unwrap_or("other"))
                            .or_default() += secs_us(started);
                    }
                    if self.logging {
                        let started = Instant::now();
                        self.servers[idx]
                            .log_commit_point()
                            .expect("replay WAL commit point");
                        if charge {
                            self.stats.wal_us += secs_us(started);
                        }
                    }
                    for Outgoing { to, msg } in out.drain(..) {
                        self.queue.push_back((Dest::Server(id), to, msg));
                    }
                    self.scratch = out;
                }
            }
        }
    }

    /// Frames and decodes `msg` the way the TCP fabric does, timing both.
    fn wire(&mut self, msg: WrenMsg) -> WrenMsg {
        let started = Instant::now();
        let framed = frame_wren(&msg);
        self.stats.encode_us += secs_us(started);
        self.stats.bytes += framed.len() as u64;
        let started = Instant::now();
        self.decoder.extend(&framed);
        let payload = self
            .decoder
            .next_frame()
            .expect("replayed frames are within the frame limit")
            .expect("a whole frame was fed");
        let decoded = WrenMsg::decode(&payload).expect("replayed frames decode");
        self.stats.decode_us += secs_us(started);
        decoded
    }

    /// Runs every periodic tick due at or before `t` (virtual µs).
    fn advance_to(&mut self, t: u64) {
        loop {
            let next = self.next_repl.min(self.next_gossip).min(self.next_gc);
            if next > t {
                break;
            }
            self.now = next;
            let mut out = Vec::new();
            for idx in 0..self.servers.len() {
                let id = self.servers[idx].id();
                if next == self.next_repl {
                    self.servers[idx].on_replication_tick(next, &mut out);
                }
                if next == self.next_gossip {
                    self.servers[idx].on_gossip_tick(next, &mut out);
                }
                if next == self.next_gc {
                    self.servers[idx].on_gc_tick(next, &mut out);
                }
                self.servers[idx]
                    .log_commit_point()
                    .expect("replay WAL commit point");
                for Outgoing { to, msg } in out.drain(..) {
                    self.queue.push_back((Dest::Server(id), to, msg));
                }
            }
            if next == self.next_repl {
                self.next_repl += REPLICATION_TICK;
            }
            if next == self.next_gossip {
                self.next_gossip += GOSSIP_TICK;
            }
            if next == self.next_gc {
                self.next_gc += GC_TICK;
            }
            self.pump(false);
        }
        self.now = self.now.max(t);
    }

    /// One client round trip: send `msg` from `client`, deliver until
    /// quiet, return the reply.
    fn round_trip(&mut self, client: &WrenClient, msg: WrenMsg, charge: bool) -> WrenMsg {
        self.queue.push_back((
            Dest::Client(client.id()),
            Dest::Server(client.coordinator()),
            msg,
        ));
        self.pump(charge);
        self.client_inbox
            .pop_front()
            .expect("the coordinator replies")
    }

    /// Every server's metrics now, merged.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut all = MetricsSnapshot::default();
        for s in &self.servers {
            all.merge(&s.registry().snapshot());
        }
        all
    }

    /// Runs one whole transaction for `client`.
    fn transact(
        &mut self,
        client: &mut WrenClient,
        reads: &[Key],
        writes: &[(Key, Value)],
        charge: bool,
    ) {
        let start = client.start();
        let resp = self.round_trip(client, start, charge);
        client.on_start_resp(resp);
        if !reads.is_empty() {
            if let Some(req) = client.read(reads).request {
                let resp = self.round_trip(client, req, charge);
                client.on_read_resp(resp);
            }
        }
        client.write(writes.iter().cloned());
        let commit = client.commit();
        let resp = self.round_trip(client, commit, charge);
        client.on_commit_resp(resp);
    }
}

/// Replays `txs` (in `at_us` order) on a `dcs` × `partitions` cluster
/// whose sessions run in `session_dc(i)`, logging to a write-ahead log
/// per server under `wal_dir` when given. Every key the transactions
/// touch is first preloaded with `preload_value`, uncharged.
pub fn replay(
    dcs: u8,
    partitions: u16,
    session_dc: impl Fn(usize) -> u8,
    txs: &[SampledTx],
    preload_value: &Value,
    wal_dir: Option<&Path>,
) -> ReplayStats {
    let mut r = Replayer::new(dcs, partitions, wal_dir);
    let mut keys: Vec<Key> = txs
        .iter()
        .flat_map(|t| {
            t.reads
                .iter()
                .copied()
                .chain(t.writes.iter().map(|(k, _)| *k))
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut loader = WrenClient::new(ClientId(u32::MAX), ServerId::new(0, 0));
    for chunk in keys.chunks(PRELOAD_BATCH) {
        let writes: Vec<(Key, Value)> = chunk.iter().map(|k| (*k, preload_value.clone())).collect();
        r.transact(&mut loader, &[], &writes, false);
    }
    // Let the preload replicate and stabilise everywhere.
    r.advance_to(r.now + 4 * GOSSIP_TICK);

    let n_sessions = txs.iter().map(|t| t.session + 1).max().unwrap_or(0);
    let mut clients: Vec<WrenClient> = (0..n_sessions)
        .map(|i| {
            let coordinator = ServerId::new(session_dc(i), (i % partitions as usize) as u16);
            WrenClient::new(ClientId(i as u32), coordinator)
        })
        .collect();
    let base = r.now;
    let before = r.snapshot();
    let mut order: Vec<&SampledTx> = txs.iter().collect();
    order.sort_by_key(|t| t.at_us);
    for tx in order {
        r.advance_to(base + tx.at_us);
        r.transact(&mut clients[tx.session], &tx.reads, &tx.writes, true);
        r.stats.txs += 1;
    }
    r.stats.servers = r.snapshot().diff(&before);
    r.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn replay_charges_every_layer() {
        let v = Bytes::from_static(b"12345678");
        let txs: Vec<SampledTx> = (0..40u64)
            .map(|i| SampledTx {
                session: (i % 2) as usize,
                at_us: i * 700,
                reads: (0..6).map(|k| Key(k * 7 + i % 3)).collect(),
                writes: vec![(Key(100 + i % 5), v.clone())],
            })
            .collect();
        let s = replay(2, 2, |i| i as u8, &txs, &v, None);
        assert_eq!(s.txs, 40);
        // Three round trips at least (start, read, commit), each a request
        // and a reply framed as a 4-byte header and a tagged payload.
        assert!(s.bytes >= 40 * 6 * 5, "{} bytes", s.bytes);
        assert!(s.encode_us > 0.0 && s.decode_us > 0.0);
        for kind in KINDS {
            assert!(
                s.handle_us.get(kind).copied().unwrap_or(0.0) > 0.0,
                "no {kind} time"
            );
        }
        assert!(!s.read_slice_us.is_empty());
        assert_eq!(s.wal_us, 0.0);
        assert_eq!(
            s.servers
                .histogram("wal_fsync_micros")
                .map_or(0, |h| h.count),
            0
        );
    }

    #[test]
    fn a_log_directory_logs_every_commit() {
        let v = Bytes::from_static(b"12345678");
        let txs: Vec<SampledTx> = (0..10u64)
            .map(|i| SampledTx {
                session: 0,
                at_us: i * 500,
                reads: vec![Key(i)],
                writes: vec![(Key(i), v.clone()), (Key(i + 1), v.clone())],
            })
            .collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/replay-wal");
        let _ = std::fs::remove_dir_all(&dir);
        let s = replay(1, 2, |_| 0, &txs, &v, Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
        let fsyncs = s
            .servers
            .histogram("wal_fsync_micros")
            .map_or(0, |h| h.count);
        assert!(fsyncs >= 10, "{fsyncs} fsyncs for 10 transactions");
        assert!(s.wal_us > 0.0);
        assert!(s
            .servers
            .histogram("wal_append_bytes")
            .is_some_and(|h| h.sum > 0));
    }
}
