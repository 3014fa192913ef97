//! One benchmark run: build and preload the workload's cluster, drive it
//! closed-loop from two sessions, check every output, and turn what was
//! measured into metrics.
//!
//! Everything is observed from outside the program: spans around
//! `wren_rt::Session` calls, diffs of `Cluster::metrics()` taken at the
//! measured phase's edges, `/proc/self` counters, and (traced runs) a
//! single-threaded replay of sampled transactions ([`crate::replay`]).

use crate::checks::{
    visibility_samples, Issued, ProbeCommit, ProbeReader, SessionChecker, Violation,
};
use crate::procfs::{self, ProcSample};
use crate::replay::{self, SampledTx, KINDS};
use crate::spec::{pool_keys, probe_key, WorkloadDef, PRELOAD_CLIENT, SESSIONS};
use crate::stats::{mean, median, per_tx, percentile, sorted, Metrics};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use wren_obs::MetricsSnapshot;
use wren_protocol::{Key, Value};
use wren_rt::{Cluster, ClusterBuilder, FsyncPolicy, RtError, Session};
use wren_storage::{ConcurrentShardedStore, SnapshotBound};
use wren_workload::{decode_value, Workload, WorkloadSpec};

/// Keys written per preload transaction.
const PRELOAD_BATCH: usize = 2_000;
/// Bytes a user write carries: the 8-byte key plus the 8-byte value.
const USER_BYTES_PER_WRITE: f64 = 16.0;
/// A traced run samples one transaction in this many for the replay…
const REPLAY_EVERY: u64 = 4;
/// …and replays at most this many of them, the earliest: with a
/// write-ahead log every handled message ends in an fsync, so the
/// replay's length must not grow with the run's throughput.
const REPLAY_MAX_TXS: usize = 1_000;
/// End-to-end figures are taken over slices of this length of each
/// cluster's measured phase ([`end_to_end_run`]).
const SLICE: Duration = Duration::from_millis(250);
/// Calm slices a run keeps at least ([`calm_slices`]): 4 s of load.
const MIN_CALM: usize = 16;
/// The least share of a slice counted as run, however much of it was
/// stolen.
const MIN_RAN: f64 = 0.1;
/// `collect` passes timed for `storage.gc_pass_ms` (median reported).
const GC_PASSES: usize = 3;

/// How to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload (its `keys` may be scaled down for self-tests).
    pub workload: WorkloadDef,
    /// Seed for every random choice the sessions make.
    pub seed: u64,
    /// Total measured time. An end-to-end run splits it evenly over its
    /// clusters; a traced run measures an untraced and a traced half.
    pub measure: Duration,
    /// Unmeasured load on each cluster before its measured phase.
    pub warmup: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Clusters an end-to-end run builds, preloads and measures in turn
    /// (≥ 1). Each build lays out threads, connections and timer phases
    /// afresh, which moves throughput by up to ~15% on a 2-core host;
    /// averaging over several keeps one layout from deciding the run.
    pub clusters: usize,
    /// Directory the write-ahead logs go under (created and removed).
    pub scratch: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Further end-to-end figures too noisy on a shared 2-core host to
    /// hold to a bound (tail latencies, `fail_ratio`): printed, not gated.
    pub unbounded: Metrics,
    /// Session operations (begin, read, commit) attempted while measured.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Failed checks, the first of each kind (empty on a correct run).
    pub violations: Vec<Violation>,
    /// Machine and cluster shape the numbers came from.
    pub fingerprint: BTreeMap<String, String>,
    /// Human-readable diagnostics (per-slice counts, host steal).
    pub notes: Vec<String>,
}

/// Measured-phase states the sessions see.
const WARMUP: u8 = 0;
const MEASURED: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;

/// One window's worth of session samples (µs).
#[derive(Debug, Default)]
struct Window {
    /// When each committed transaction finished.
    done: Vec<Instant>,
    tx: Vec<f64>,
    begin: Vec<f64>,
    read: Vec<f64>,
    commit: Vec<f64>,
    committed: u64,
    attempted: u64,
    failed: u64,
    gen_us: f64,
    sampled: Vec<SampledTx>,
}

impl Window {
    /// Both sessions' samples of window `w`, pooled.
    fn merged(outs: &[SessionOut], w: usize) -> Window {
        let mut all = Window::default();
        for x in outs.iter().map(|o| &o.windows[w]) {
            all.done.extend(&x.done);
            all.tx.extend(&x.tx);
            all.begin.extend(&x.begin);
            all.read.extend(&x.read);
            all.commit.extend(&x.commit);
            all.committed += x.committed;
            all.attempted += x.attempted;
            all.failed += x.failed;
            all.gen_us += x.gen_us;
            all.sampled.extend(x.sampled.iter().cloned());
        }
        all
    }
}

/// What a session thread hands back.
#[derive(Debug)]
struct SessionOut {
    windows: [Window; 2],
    checker: SessionChecker,
    probe_commits: Vec<ProbeCommit>,
    probe_reader: ProbeReader,
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

/// The workload's inputs, shared by every cluster of a run.
struct Inputs {
    workload: Workload,
    keys: Vec<Key>,
    preload: Value,
}

impl Inputs {
    fn new(def: &WorkloadDef) -> Inputs {
        let n = def.partitions;
        let keys_per_partition = (def.keys / n as u64).max(1);
        let spec = WorkloadSpec {
            keys_per_partition,
            value_size: 8,
            mix: def.mix,
            partitions_per_tx: n as usize,
            zipf_theta: 0.99,
        };
        let workload = Workload::compile(spec, n);
        let preload = workload.make_value(PRELOAD_CLIENT, 0);
        Inputs {
            workload,
            keys: pool_keys(keys_per_partition, n),
            preload,
        }
    }
}

/// A built, preloaded cluster and what building it cost.
struct Built {
    cluster: Arc<Cluster>,
    /// The measured sessions, opened before the preload so their
    /// coordinators are the same on every run.
    sessions: Vec<Session>,
    probe: Key,
    setup: Duration,
    rss_growth: u64,
}

impl Built {
    fn teardown(self) {
        drop(self.sessions);
        self.cluster.shutdown();
    }
}

fn build(def: &WorkloadDef, inputs: &Inputs) -> Built {
    let rss_before = procfs::rss_bytes();
    let started = Instant::now();
    let cluster = Arc::new(
        ClusterBuilder::new()
            .dcs(def.dcs)
            .partitions(def.partitions)
            .tcp()
            .build(),
    );
    let sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| cluster.session(def.session_dc(i)))
        .collect();
    let probe = probe_key(sessions[0].coordinator().partition.0, def.partitions);
    preload_keys(&cluster, def, &inputs.keys, probe, &inputs.preload);
    Built {
        cluster,
        sessions,
        probe,
        setup: started.elapsed(),
        rss_growth: procfs::rss_bytes().saturating_sub(rss_before),
    }
}

/// Writes `value` to every key and to `probe` from two loader sessions
/// (one per DC on two DCs) in parallel, then waits until every DC
/// serves the last key of each loader.
fn preload_keys(
    cluster: &Arc<Cluster>,
    def: &WorkloadDef,
    keys: &[Key],
    probe: Key,
    value: &Value,
) {
    let loaders = def.dcs.max(2) as usize;
    let chunks: Vec<Vec<Key>> = keys.chunks(PRELOAD_BATCH).map(<[Key]>::to_vec).collect();
    let mut handles = Vec::new();
    for l in 0..loaders {
        let cluster = Arc::clone(cluster);
        let mut mine: Vec<Vec<Key>> = chunks.iter().skip(l).step_by(loaders).cloned().collect();
        if l == 0 {
            mine.insert(0, vec![probe]);
        }
        let value = value.clone();
        let dc = (l % def.dcs as usize) as u8;
        handles.push(std::thread::spawn(move || {
            let mut s = cluster.session(dc);
            for chunk in &mine {
                s.begin().expect("preload begin");
                s.write_many(chunk.iter().map(|k| (*k, value.clone())));
                s.commit().expect("preload commit");
            }
            mine.last().and_then(|c| c.last().copied())
        }));
    }
    let lasts: Vec<Key> = handles
        .into_iter()
        .filter_map(|h| h.join().expect("preload thread"))
        .collect();
    for dc in 0..def.dcs {
        let mut s = cluster.session(dc);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            s.begin().expect("preload check begin");
            let seen = s.read(&lasts).expect("preload check read");
            s.commit().expect("preload check commit");
            if seen.iter().all(|(_, v)| v.is_some()) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "preload never became visible in DC {dc}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Everything a session thread needs.
struct SessionCtx {
    idx: usize,
    session: Session,
    probe: Key,
    seed: u64,
    workload: Workload,
    phase: Arc<AtomicU8>,
    issued: Arc<Issued>,
    epoch: Arc<OnceLock<Instant>>,
}

fn window_of(phase: u8) -> Option<usize> {
    match phase {
        MEASURED => Some(0),
        TRACED => Some(1),
        _ => None,
    }
}

/// Spans of one committed transaction's operations, µs.
struct OpSpans {
    begin: f64,
    read: f64,
    commit: f64,
}

/// A failed transaction: how many operations it attempted, which one
/// failed, and why.
struct TxFailure {
    attempted: u64,
    op: &'static str,
    error: RtError,
}

fn session_loop(ctx: SessionCtx) -> SessionOut {
    let SessionCtx {
        idx,
        mut session,
        probe,
        seed,
        workload,
        phase: shared_phase,
        issued,
        epoch,
    } = ctx;
    let mut rng =
        SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1));
    let mut out = SessionOut {
        windows: [Window::default(), Window::default()],
        checker: SessionChecker::new(idx as u32),
        probe_commits: Vec::new(),
        probe_reader: ProbeReader::default(),
    };
    let (writer, reader) = (idx == 0, idx == 1);
    let mut seq = 0u32;
    let mut n = 0u64;
    loop {
        let phase = shared_phase.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        n += 1;
        let gen_started = Instant::now();
        let mut shape = workload.sample_tx(&mut rng);
        if writer && !shape.writes.is_empty() {
            shape.writes[0] = probe;
        }
        if reader && !shape.reads.is_empty() {
            shape.reads[0] = probe;
        }
        let first_seq = seq + 1;
        let writes: Vec<(Key, Value)> = shape
            .writes
            .iter()
            .map(|k| {
                seq += 1;
                (*k, workload.make_value(idx as u32, seq))
            })
            .collect();
        let gen = us(gen_started.elapsed());
        issued.publish(idx, seq);

        let tx_started = Instant::now();
        let mut one_tx = || -> Result<OpSpans, TxFailure> {
            let fail = |attempted, op, error| TxFailure {
                attempted,
                op,
                error,
            };
            let t = Instant::now();
            session.begin().map_err(|e| fail(1, "begin", e))?;
            let begin = us(t.elapsed());
            let t = Instant::now();
            let values = session.read(&shape.reads).map_err(|e| fail(2, "read", e))?;
            let seen_at = Instant::now();
            let read = us(seen_at - t);
            for (k, v) in &values {
                let marker = out.checker.check_read(&issued, *k, v.as_ref());
                if let (true, Some((client, s))) = (reader && *k == probe, marker) {
                    let s = if client == PRELOAD_CLIENT { 0 } else { s };
                    if let Some(v) = out.probe_reader.saw(s, seen_at) {
                        out.checker.record(v);
                    }
                }
            }
            for (i, (k, _)) in writes.iter().enumerate() {
                out.checker.wrote(*k, first_seq + i as u32);
            }
            session.write_many(writes.iter().cloned());
            let t = Instant::now();
            if let Err(e) = session.commit() {
                out.checker.forget(writes.iter().map(|(k, _)| *k));
                return Err(fail(3, "commit", e));
            }
            let returned = Instant::now();
            if let Some((_, v)) = writes.iter().find(|(k, _)| writer && *k == probe) {
                let (_, seq) = decode_value(v).expect("own value decodes");
                out.probe_commits.push(ProbeCommit {
                    seq,
                    requested: t,
                    returned,
                });
            }
            Ok(OpSpans {
                begin,
                read,
                commit: us(returned - t),
            })
        };
        let result = one_tx();
        let done = Instant::now();

        // Only transactions that began and ended inside one window count.
        let Some(w) = window_of(phase).filter(|_| shared_phase.load(Ordering::Acquire) == phase)
        else {
            continue;
        };
        let win = &mut out.windows[w];
        let spans = match result {
            Ok(spans) => spans,
            Err(f) => {
                eprintln!("perfbench: session {idx} {} failed: {}", f.op, f.error);
                win.attempted += f.attempted;
                win.failed += 1;
                continue;
            }
        };
        win.attempted += 3;
        win.committed += 1;
        win.done.push(done);
        win.tx.push(us(done - tx_started));
        win.begin.push(spans.begin);
        win.read.push(spans.read);
        win.commit.push(spans.commit);
        if phase == TRACED {
            win.gen_us += gen;
            if n.is_multiple_of(REPLAY_EVERY) {
                let epoch = *epoch.get().expect("traced phase has an epoch");
                win.sampled.push(SampledTx {
                    session: idx,
                    at_us: tx_started.saturating_duration_since(epoch).as_micros() as u64,
                    reads: shape.reads,
                    writes,
                });
            }
        }
    }
    out
}

/// The cluster-side view at one edge of a measured window.
struct Edge {
    at: Instant,
    metrics: MetricsSnapshot,
    proc: ProcSample,
}

impl Edge {
    fn now(cluster: &Cluster) -> Edge {
        Edge {
            at: Instant::now(),
            metrics: cluster.metrics(),
            proc: ProcSample::now(),
        }
    }
}

/// One measured window of a drive.
struct Measured {
    start: Edge,
    end: Edge,
    slices: usize,
    slice_len: Duration,
    /// Ticks stolen from the host's CPUs in each slice.
    steal: Vec<u64>,
}

/// What driving one cluster produced.
struct Driven {
    outs: Vec<SessionOut>,
    windows: Vec<Measured>,
    rss_after: u64,
}

impl Driven {
    /// Visibility samples whose sight fell inside window `w`, and the
    /// violation if any sight preceded its commit request.
    fn visibility(&self, w: usize) -> (Vec<(Instant, f64)>, Option<Violation>) {
        let m = &self.windows[w];
        let sights: Vec<(u32, Instant)> = self.outs[1]
            .probe_reader
            .sights
            .iter()
            .copied()
            .filter(|(_, at)| *at >= m.start.at && *at <= m.end.at)
            .collect();
        visibility_samples(&self.outs[0].probe_commits, &sights)
    }

    /// Every check's first violation in this drive.
    fn violations(&self) -> Vec<Violation> {
        let mut all: Vec<Violation> = self
            .outs
            .iter()
            .flat_map(|o| o.checker.violations.clone())
            .collect();
        all.extend((0..self.windows.len()).filter_map(|w| self.visibility(w).1));
        all
    }
}

/// Keeps the first violation of each check.
fn dedup(violations: &mut Vec<Violation>) {
    let mut seen = Vec::new();
    violations.retain(|v| {
        let first = !seen.contains(&v.check);
        seen.push(v.check);
        first
    });
}

/// Runs both sessions against `built`: `warmup` unmeasured, then each of
/// `windows` (a session phase and its length) in turn, sliced by
/// [`SLICE`].
fn drive(
    built: &mut Built,
    inputs: &Inputs,
    seed: u64,
    warmup: Duration,
    windows: &[(u8, Duration)],
) -> Driven {
    let phase = Arc::new(AtomicU8::new(WARMUP));
    let issued = Arc::new(Issued::new(SESSIONS));
    let epoch = Arc::new(OnceLock::new());
    let handles: Vec<_> = std::mem::take(&mut built.sessions)
        .into_iter()
        .enumerate()
        .map(|(idx, session)| {
            let ctx = SessionCtx {
                idx,
                session,
                probe: built.probe,
                seed,
                workload: inputs.workload.clone(),
                phase: Arc::clone(&phase),
                issued: Arc::clone(&issued),
                epoch: Arc::clone(&epoch),
            };
            std::thread::spawn(move || session_loop(ctx))
        })
        .collect();

    std::thread::sleep(warmup);
    let mut measured = Vec::new();
    for (i, &(w, len)) in windows.iter().enumerate() {
        let slices = ((len.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(1);
        let slice_len = len / slices as u32;
        let start = Edge::now(&built.cluster);
        if w == TRACED {
            let _ = epoch.set(start.at);
        }
        phase.store(w, Ordering::Release);
        let mut steal = vec![procfs::steal_ticks()];
        for k in 1..=slices as u32 {
            std::thread::sleep(
                (start.at + slice_len * k).saturating_duration_since(Instant::now()),
            );
            steal.push(procfs::steal_ticks());
        }
        // Close the window before sampling its end, so every recorded
        // transaction finished inside [start, end].
        phase.store(
            if i + 1 == windows.len() { STOP } else { WARMUP },
            Ordering::Release,
        );
        let end = Edge::now(&built.cluster);
        measured.push(Measured {
            start,
            end,
            slices,
            slice_len,
            steal: steal.windows(2).map(|p| p[1] - p[0]).collect(),
        });
    }
    let outs = handles
        .into_iter()
        .map(|h| h.join().expect("session thread"))
        .collect();
    Driven {
        outs,
        windows: measured,
        rss_after: procfs::rss_bytes(),
    }
}

/// Runs the benchmark once.
pub fn run(opts: &RunOpts) -> RunOutcome {
    let def = opts.workload;
    let inputs = Inputs::new(&def);
    let _ = std::fs::create_dir_all(&opts.scratch);
    let mut out = if opts.trace {
        traced_run(opts, &inputs)
    } else {
        end_to_end_run(opts, &inputs)
    };
    for (k, v) in [
        ("workload", def.name.to_string()),
        (
            "fsync",
            if def.replay_wal {
                format!("none (replay: {:?})", FsyncPolicy::Always)
            } else {
                "none".into()
            },
        ),
        (
            "shape",
            format!("{} DC x {} partitions", def.dcs, def.partitions),
        ),
        ("sessions", SESSIONS.to_string()),
        ("read_workers", "2 (runtime default)".into()),
        ("reactor_threads", "2 (runtime default)".into()),
        ("keys", inputs.keys.len().to_string()),
        ("seed", opts.seed.to_string()),
    ] {
        out.fingerprint.insert(k.into(), v);
    }
    out.fingerprint.extend(procfs::machine_fingerprint());
    out
}

fn backend_of(cluster: &Cluster) -> String {
    cluster
        .tcp_backend()
        .map_or("none".into(), |b| format!("{b:?}"))
}

/// Seed of cluster `k` of a run: distinct inputs per cluster, all fixed
/// by the run's seed.
fn cluster_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// End-to-end figures, from the run's calm slices ([`calm_slices`]):
/// `tps` is the median of their throughputs, each percentile is taken
/// over every sample of those slices pooled. Throughputs and times
/// count only the share of each slice the hypervisor did not steal
/// (all of it in an unstolen slice). The first [`E2E_BOUNDED`] are held
/// to a bound.
const E2E_NAMES: [&str; 9] = [
    "tps",
    "tx_p50_us",
    "read_p50_us",
    "commit_p50_us",
    "visibility_p50_us",
    "tx_p99_us",
    "read_p99_us",
    "commit_p99_us",
    "visibility_p99_us",
];
const E2E_BOUNDED: usize = 5;

fn end_to_end_run(opts: &RunOpts, inputs: &Inputs) -> RunOutcome {
    let clusters = opts.clusters.max(1);
    let per_cluster = opts.measure / clusters as u32;
    let mut slices: Vec<Slice> = Vec::new();
    let mut setups = Vec::new();
    let (mut attempted, mut failed, mut rss) = (0, 0, 0);
    let mut violations = Vec::new();
    let mut notes = Vec::new();
    let mut fingerprint = BTreeMap::new();
    for k in 0..clusters {
        let mut built = build(&opts.workload, inputs);
        let setup = built.setup.as_secs_f64();
        setups.push(setup);
        fingerprint.insert("tcp_backend".to_string(), backend_of(&built.cluster));
        let d = drive(
            &mut built,
            inputs,
            cluster_seed(opts.seed, k),
            opts.warmup,
            &[(MEASURED, per_cluster)],
        );
        built.teardown();
        if k == 0 {
            // Later clusters reuse memory the allocator kept from earlier
            // ones, so only the first shows what a cluster costs.
            rss = d.rss_after;
        }
        let w = Window::merged(&d.outs, 0);
        let m = &d.windows[0];
        violations.extend(d.violations());
        attempted += w.attempted;
        failed += w.failed;
        let slice = |at: Instant| slice_of(at, m.start.at, m.slice_len, m.slices);
        let mut members = vec![Vec::new(); m.slices];
        for (i, done) in w.done.iter().enumerate() {
            members[slice(*done)].push(i);
        }
        let mut sights = vec![Vec::new(); m.slices];
        for (at, v) in d.visibility(0).0 {
            sights[slice(at)].push(v);
        }
        let counts: Vec<usize> = members.iter().map(Vec::len).collect();
        let secs = m.slice_len.as_secs_f64();
        for ((ids, vis), &stolen) in members.iter().zip(sights).zip(&m.steal) {
            // The share of the slice's CPU time the hypervisor left to
            // this machine: times count only that share, as if the
            // stolen ticks had not been taken.
            let ran = (1.0 - procfs::stolen_share(stolen, secs)).max(MIN_RAN);
            let of = |values: &[f64]| ids.iter().map(|&i| values[i] * ran).collect();
            slices.push(Slice {
                stolen,
                tps: ids.len() as f64 / (secs * ran),
                tx: of(&w.tx),
                read: of(&w.read),
                commit: of(&w.commit),
                vis: vis.iter().map(|v| v * ran).collect(),
            });
        }
        let cpu_us =
            (m.end.proc.user_us + m.end.proc.sys_us) - (m.start.proc.user_us + m.start.proc.sys_us);
        notes.push(format!(
            "cluster {k}: setup {setup:.3} s, {} tx, {:.0} CPU us/tx; \
             per slice: committed {counts:?}, stolen ticks {:?}",
            w.committed,
            per_tx(cpu_us, w.committed),
            m.steal,
        ));
    }
    let total = slices.len();
    let calm = calm_slices(slices);
    notes.push(format!(
        "figures from {} calm slices of {total}, {} transactions and {} visibility samples",
        calm.len(),
        calm.iter().map(|s| s.tx.len()).sum::<usize>(),
        calm.iter().map(|s| s.vis.len()).sum::<usize>(),
    ));
    let pooled = |part: fn(&Slice) -> &Vec<f64>| {
        sorted(calm.iter().flat_map(|s| part(s).iter().copied()).collect())
    };
    let (tx, read, commit, vis) = (
        pooled(|s| &s.tx),
        pooled(|s| &s.read),
        pooled(|s| &s.commit),
        pooled(|s| &s.vis),
    );
    let tps: Vec<f64> = calm.iter().map(|s| s.tps).collect();
    let figures = [
        median(&tps),
        percentile(&tx, 0.50),
        percentile(&read, 0.50),
        percentile(&commit, 0.50),
        percentile(&vis, 0.50),
        percentile(&tx, 0.99),
        percentile(&read, 0.99),
        percentile(&commit, 0.99),
        percentile(&vis, 0.99),
    ];
    let mut metrics = Metrics::default();
    let mut unbounded = Metrics::default();
    for (i, (name, value)) in E2E_NAMES.iter().zip(figures).enumerate() {
        let unit = if *name == "tps" { "1/s" } else { "us" };
        let into = if i < E2E_BOUNDED {
            &mut metrics
        } else {
            &mut unbounded
        };
        into.put(name, value, unit);
    }
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("rss_mb", rss as f64 / (1024.0 * 1024.0), "MiB");
    unbounded.put("fail_ratio", per_tx(failed as f64, attempted), "ratio");
    dedup(&mut violations);
    RunOutcome {
        metrics,
        unbounded,
        attempted,
        failed,
        violations,
        fingerprint,
        notes,
    }
}

/// One slice of a cluster's measured phase: the ticks stolen in it,
/// its throughput and the samples that fell in it (µs).
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Ticks the hypervisor stole from this machine during the slice.
    pub stolen: u64,
    /// Transactions committed in the slice, per second.
    pub tps: f64,
    /// Spans of the transactions committed in the slice.
    pub tx: Vec<f64>,
    /// Their `Session::read` spans.
    pub read: Vec<f64>,
    /// Their `Session::commit` spans.
    pub commit: Vec<f64>,
    /// Probe visibility samples whose sight fell in the slice.
    pub vis: Vec<f64>,
}

/// The slices the hypervisor stole no tick from, or, when there are
/// fewer than [`MIN_CALM`] of those, the [`MIN_CALM`] it stole least
/// from. A stolen tick is time another guest ran while this machine
/// wanted its CPU, so a stolen-from slice measures the neighbours too.
pub fn calm_slices(mut slices: Vec<Slice>) -> Vec<Slice> {
    slices.sort_by_key(|s| s.stolen);
    let unstolen = slices.iter().take_while(|s| s.stolen == 0).count();
    slices.truncate(unstolen.max(MIN_CALM));
    slices
}

/// The slice of `n`, each `len` long from `start`, that `at` falls in
/// (the last one for instants at or past its end).
fn slice_of(at: Instant, start: Instant, len: Duration, n: usize) -> usize {
    let k = at.saturating_duration_since(start).as_nanos() / len.as_nanos().max(1);
    (k as usize).min(n - 1)
}

fn traced_run(opts: &RunOpts, inputs: &Inputs) -> RunOutcome {
    let def = opts.workload;
    let half = opts.measure / 2;
    let mut built = build(&def, inputs);
    let backend = backend_of(&built.cluster);
    let rss_growth = built.rss_growth;
    let d = drive(
        &mut built,
        inputs,
        opts.seed,
        opts.warmup,
        &[(MEASURED, half), (TRACED, half)],
    );
    built.teardown();

    let untraced = Window::merged(&d.outs, 0);
    let traced = Window::merged(&d.outs, 1);
    let (u, t) = (&d.windows[0], &d.windows[1]);
    let vis: Vec<f64> = d.visibility(1).0.into_iter().map(|(_, v)| v).collect();
    let mut violations = d.violations();
    dedup(&mut violations);
    let x = LayerInputs {
        def: &def,
        untraced: &untraced,
        untraced_secs: (u.end.at - u.start.at).as_secs_f64(),
        traced: &traced,
        traced_secs: (t.end.at - t.start.at).as_secs_f64(),
        cluster: t.end.metrics.diff(&t.start.metrics),
        cluster_now: &t.end.metrics,
        proc_start: t.start.proc,
        proc_end: t.end.proc,
        visibility: &vis,
        rss_growth,
        keys: inputs.keys.len() as u64,
        preload: &inputs.preload,
        scratch: &opts.scratch,
    };
    let mut metrics = Metrics::default();
    per_layer(&mut metrics, &x);
    RunOutcome {
        metrics,
        unbounded: Metrics::default(),
        attempted: traced.attempted,
        failed: traced.failed,
        violations,
        fingerprint: BTreeMap::from([("tcp_backend".to_string(), backend)]),
        notes: vec![format!(
            "traced half: {} tx, {} sampled for replay",
            traced.committed,
            traced.sampled.len()
        )],
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    def: &'a WorkloadDef,
    untraced: &'a Window,
    untraced_secs: f64,
    traced: &'a Window,
    traced_secs: f64,
    cluster: MetricsSnapshot,
    cluster_now: &'a MetricsSnapshot,
    proc_start: ProcSample,
    proc_end: ProcSample,
    /// Probe visibility samples of the traced half, µs.
    visibility: &'a [f64],
    rss_growth: u64,
    keys: u64,
    preload: &'a Value,
    /// Where the replay's write-ahead logs go.
    scratch: &'a std::path::Path,
}

fn hist_q(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histogram(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.quantile(q) as f64)
}

fn hist_mean(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.mean())
}

fn hist_count(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histogram(name).map_or(0, |h| h.count)
}

fn hist_sum(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64)
}

fn per_layer(m: &mut Metrics, x: &LayerInputs<'_>) {
    let w = x.traced;
    let txs = w.committed;
    let c = &x.cluster;

    // Harness.
    m.put("gen.sample_us", per_tx(w.gen_us, txs), "us");

    // wren-rt: session spans and process counters.
    let begin = sorted(w.begin.clone());
    m.put("rt.begin_p50_us", percentile(&begin, 0.50), "us");
    m.put("rt.begin_p99_us", percentile(&begin, 0.99), "us");
    // The tails the end-to-end run prints but cannot hold to a bound.
    m.put(
        "rt.tx_p99_us",
        percentile(&sorted(w.tx.clone()), 0.99),
        "us",
    );
    m.put(
        "rt.read_p99_us",
        percentile(&sorted(w.read.clone()), 0.99),
        "us",
    );
    m.put(
        "rt.commit_p99_us",
        percentile(&sorted(w.commit.clone()), 0.99),
        "us",
    );
    m.put(
        "rt.visibility_p99_us",
        percentile(&sorted(x.visibility.to_vec()), 0.99),
        "us",
    );
    let ctxsw = x.proc_end.ctxsw.saturating_sub(x.proc_start.ctxsw) as f64;
    m.put("rt.ctxsw_per_tx", per_tx(ctxsw, txs), "count");
    let user = x.proc_end.user_us - x.proc_start.user_us;
    let sys = x.proc_end.sys_us - x.proc_start.sys_us;
    m.put("rt.cpu_us_per_tx", per_tx(user + sys, txs), "us");
    m.put(
        "rt.sys_cpu_share",
        if user + sys > 0.0 {
            sys / (user + sys)
        } else {
            0.0
        },
        "ratio",
    );

    // wren-net: socket-boundary counters.
    m.put(
        "net.frames_per_tx",
        per_tx(c.counter("tcp_frames_in") as f64, txs),
        "count",
    );
    m.put(
        "net.bytes_per_tx",
        per_tx(c.counter("tcp_bytes_in") as f64, txs),
        "bytes",
    );
    m.put(
        "net.frames_per_writev",
        hist_mean(c, "fabric_writev_frames_per_call"),
        "count",
    );
    m.put(
        "net.outbox_depth_max_bytes",
        x.cluster_now
            .gauges
            .get("tcp_outbox_depth_bytes")
            .copied()
            .unwrap_or(0) as f64,
        "bytes",
    );

    // wren-protocol / wren-core / wren-storage, replayed.
    let def = *x.def;
    let wal_dir = x
        .scratch
        .join(format!("replay-{}-{}", def.name, std::process::id()));
    let mut sampled = w.sampled.clone();
    sampled.sort_by_key(|t| t.at_us);
    sampled.truncate(REPLAY_MAX_TXS);
    let r = replay::replay(
        def.dcs,
        def.partitions,
        |i| def.session_dc(i),
        &sampled,
        x.preload,
        def.replay_wal.then_some(wal_dir.as_path()),
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    m.put(
        "protocol.encode_us_per_tx",
        per_tx(r.encode_us, r.txs),
        "us",
    );
    m.put(
        "protocol.decode_us_per_tx",
        per_tx(r.decode_us, r.txs),
        "us",
    );
    m.put(
        "protocol.bytes_per_tx",
        per_tx(r.bytes as f64, r.txs),
        "bytes",
    );
    m.put("protocol.replayed_txs", r.txs as f64, "count");
    m.put(
        "core.handle_us_per_tx",
        per_tx(r.handle_total_us(), r.txs),
        "us",
    );
    for kind in KINDS {
        let t = r.handle_us.get(kind).copied().unwrap_or(0.0);
        m.put(&format!("core.handle_us.{kind}"), per_tx(t, r.txs), "us");
    }
    m.put(
        "core.commit_prepare_p50_us",
        hist_q(c, "commit_prepare_micros", 0.5),
        "us",
    );
    m.put(
        "core.commit_decide_p50_us",
        hist_q(c, "commit_decide_micros", 0.5),
        "us",
    );
    m.put(
        "core.slices_per_tx",
        per_tx(c.counter("slices_served") as f64, txs),
        "count",
    );
    m.put(
        "core.visibility_lag_local_p50_us",
        hist_q(c, "visibility_lag_local_micros", 0.5),
        "us",
    );
    m.put(
        "core.visibility_lag_remote_p50_us",
        hist_q(c, "visibility_lag_remote_micros", 0.5),
        "us",
    );
    // Batches a sibling DC received (one replication-lag sample each):
    // the server's own batch histogram also counts local apply batches
    // on a single DC, where nothing is shipped.
    let delivered = hist_count(c, "replication_lag_micros");
    let shipped_txs = hist_sum(c, "replication_batch_txs") * (def.dcs as f64 - 1.0);
    m.put(
        "core.repl_batch_txs_mean",
        per_tx(shipped_txs, delivered),
        "count",
    );
    m.put(
        "core.repl_lag_p50_us",
        hist_q(c, "replication_lag_micros", 0.5),
        "us",
    );

    m.put(
        "storage.read_slice_p50_us",
        hist_q(c, "read_slice_micros", 0.5),
        "us",
    );
    let slice = sorted(r.read_slice_us.clone());
    m.put(
        "storage.read_slice_replay_p50_us",
        percentile(&slice, 0.5),
        "us",
    );
    m.put(
        "storage.keys_read_per_tx",
        per_tx(c.counter("keys_read") as f64, txs),
        "count",
    );
    m.put("storage.gc_pass_ms", gc_pass_ms(x.keys), "ms");
    m.put(
        "storage.bytes_per_key",
        per_tx(x.rss_growth as f64, x.keys),
        "bytes",
    );
    // The write-ahead log, from the replay (only `replay_wal` workloads
    // log; the measured cluster never does).
    let log = &r.servers;
    let fsyncs = hist_count(log, "wal_fsync_micros");
    m.put(
        "storage.wal_fsyncs_per_tx",
        per_tx(fsyncs as f64, r.txs),
        "count",
    );
    m.put(
        "storage.wal_fsync_p50_us",
        hist_q(log, "wal_fsync_micros", 0.5),
        "us",
    );
    m.put(
        "storage.wal_commit_us_per_tx",
        per_tx(r.wal_us, r.txs),
        "us",
    );
    m.put(
        "storage.wal_group_commit_size_mean",
        hist_mean(log, "wal_group_commit_size"),
        "count",
    );
    let user_bytes = r.txs as f64 * def.mix.writes as f64 * USER_BYTES_PER_WRITE;
    m.put(
        "storage.wal_bytes_per_user_byte",
        if user_bytes > 0.0 {
            hist_sum(log, "wal_append_bytes") / user_bytes
        } else {
            0.0
        },
        "ratio",
    );

    // The time no replayed layer accounts for.
    let layers = per_tx(r.encode_us + r.decode_us + r.handle_total_us(), r.txs);
    m.put("rt.unattributed_us_per_tx", mean(&w.tx) - layers, "us");

    // Tracing's own cost: the traced half against the untraced half.
    let tps_untraced = x.untraced.committed as f64 / x.untraced_secs;
    let tps_traced = txs as f64 / x.traced_secs;
    m.put(
        "trace.overhead_pct",
        if tps_untraced > 0.0 {
            100.0 * (1.0 - tps_traced / tps_untraced)
        } else {
            0.0
        },
        "%",
    );
    let p50_untraced = percentile(&sorted(x.untraced.tx.clone()), 0.5);
    let p50_traced = percentile(&sorted(w.tx.clone()), 0.5);
    m.put(
        "trace.p50_overhead_pct",
        if p50_untraced > 0.0 {
            100.0 * (p50_traced / p50_untraced - 1.0)
        } else {
            0.0
        },
        "%",
    );
}

/// Median time of one `ConcurrentShardedStore::collect` pass over a
/// store holding one version of each of `keys` keys, in ms.
pub fn gc_pass_ms(keys: u64) -> f64 {
    use wren_clock::Timestamp;
    use wren_protocol::{DcId, TxId, WrenVersion};
    let store: ConcurrentShardedStore<Key, WrenVersion> = ConcurrentShardedStore::new();
    let value = Value::from_static(b"preload!");
    for k in 0..keys {
        store.insert(
            Key(k),
            WrenVersion {
                value: value.clone(),
                ut: Timestamp::from_micros(1 + k),
                rdt: Timestamp::ZERO,
                tx: TxId::from_raw(k),
                sr: DcId(0),
            },
        );
    }
    let bound = SnapshotBound::at_most(Timestamp::from_micros(keys + 1));
    let passes: Vec<f64> = (0..GC_PASSES)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(store.collect(&bound));
            started.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    median(&passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_slices_are_the_unstolen_ones_or_the_least_stolen() {
        let stolen = |ticks: &[u64]| -> Vec<Slice> {
            ticks
                .iter()
                .map(|&stolen| Slice {
                    stolen,
                    ..Slice::default()
                })
                .collect()
        };
        let ticks = |slices: Vec<Slice>| -> Vec<u64> { slices.iter().map(|s| s.stolen).collect() };
        let mut many = vec![0; MIN_CALM + 4];
        many.extend([3, 1, 9]);
        assert_eq!(ticks(calm_slices(stolen(&many))), vec![0; MIN_CALM + 4]);
        let mut few = vec![5; MIN_CALM];
        few.extend([0, 0, 7, 1]);
        let mut want = vec![0, 0, 1];
        want.extend(vec![5; MIN_CALM - 3]);
        assert_eq!(ticks(calm_slices(stolen(&few))), want);
        assert_eq!(ticks(calm_slices(stolen(&[4, 2]))), vec![2, 4]);
        assert!(calm_slices(Vec::new()).is_empty());
    }

    #[test]
    fn instants_fall_in_their_slice() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let len = Duration::from_millis(100);
        assert_eq!(slice_of(at(0), t0, len, 4), 0);
        assert_eq!(slice_of(at(99), t0, len, 4), 0);
        assert_eq!(slice_of(at(100), t0, len, 4), 1);
        assert_eq!(slice_of(at(1_000), t0, len, 4), 3);
    }
}
