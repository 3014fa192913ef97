use crate::cluster::Router;
use crate::metrics::SessionMetrics;
use crate::tcp::TcpLink;
use crate::RtError;
use crossbeam_channel::Receiver;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wren_clock::Timestamp;
use wren_core::{ClientStats, WrenClient};
use wren_protocol::{ClientId, Dest, Key, ServerId, Value, WrenMsg};

/// Dial-retry budget for sessions created without a cluster handle
/// ([`Session::connect_tcp`]); in-cluster sessions inherit the
/// [`ClusterBuilder::dial_retry_budget`](crate::ClusterBuilder::dial_retry_budget)
/// knob instead.
const DEFAULT_DIAL_BUDGET: Duration = Duration::from_millis(100);

/// Pause between failover retries of one operation, letting a killed
/// coordinator's restart make progress instead of spinning on refused
/// dials.
const RETRY_PAUSE: Duration = Duration::from_millis(2);

/// The transport a session speaks: in-process channels (through the
/// cluster's router) or framed TCP to the coordinators' listeners.
/// Either way the protocol bytes and the state machine are identical.
enum Link {
    Channel {
        router: Arc<Router>,
        rx: Receiver<WrenMsg>,
        timeout: Duration,
    },
    Tcp(TcpLink),
}

/// A blocking client session against a running [`Cluster`](crate::Cluster).
///
/// Wraps the sans-io [`WrenClient`] state machine: every method sends the
/// message the state machine produces and blocks on the reply. One
/// transaction may be active at a time, exactly as in the paper's client
/// model ("c does not issue another operation until it receives the reply
/// to the current one", §II-A).
///
/// Sessions come in two transports with one API: [`Cluster::session`]
/// hands out a channel- or TCP-backed session to match the cluster, and
/// [`Session::connect_tcp`] joins a TCP cluster from anywhere — another
/// thread, another process, another machine — knowing only socket
/// addresses.
///
/// [`Cluster::session`]: crate::Cluster::session
pub struct Session {
    client: WrenClient,
    link: Link,
    /// The cluster's shared session-op metric handles; `None` for
    /// sessions joined from outside ([`Session::connect_tcp`]), which
    /// have no cluster registry to record into.
    metrics: Option<SessionMetrics>,
}

impl Session {
    pub(crate) fn channel(
        id: ClientId,
        coordinator: ServerId,
        router: Arc<Router>,
        rx: Receiver<WrenMsg>,
        timeout: Duration,
        metrics: Option<SessionMetrics>,
    ) -> Self {
        Session {
            client: WrenClient::new(id, coordinator),
            link: Link::Channel {
                router,
                rx,
                timeout,
            },
            metrics,
        }
    }

    pub(crate) fn tcp(
        id: ClientId,
        coordinator: ServerId,
        addrs: Arc<Vec<SocketAddr>>,
        n_partitions: u16,
        timeout: Duration,
        dial_budget: Duration,
        metrics: Option<SessionMetrics>,
    ) -> Self {
        Session {
            client: WrenClient::new(id, coordinator),
            link: Link::Tcp(TcpLink::new(id, addrs, n_partitions, timeout, dial_budget)),
            metrics,
        }
    }

    /// Joins a TCP-mode cluster over the network, with no handle to the
    /// [`Cluster`](crate::Cluster) object at all — only its listener
    /// addresses ([`Cluster::server_addrs`], DC-major partition order).
    /// This is how a session in a *different process* participates.
    ///
    /// `id` must be unique across every session of the cluster (the
    /// cluster's own sessions count up from 0, so remote processes
    /// should use a disjoint range). The connection is dialed lazily on
    /// the first operation.
    ///
    /// [`Cluster::server_addrs`]: crate::Cluster::server_addrs
    pub fn connect_tcp(
        addrs: Vec<SocketAddr>,
        n_partitions: u16,
        id: ClientId,
        coordinator: ServerId,
        timeout: Duration,
    ) -> Self {
        assert!(
            !addrs.is_empty() && addrs.len().is_multiple_of(n_partitions as usize),
            "need every server's address, DC-major partition order"
        );
        Session::tcp(
            id,
            coordinator,
            Arc::new(addrs),
            n_partitions,
            timeout,
            DEFAULT_DIAL_BUDGET,
            None,
        )
    }

    /// This session's client id.
    pub fn id(&self) -> ClientId {
        self.client.id()
    }

    /// The coordinator partition this session talks to.
    pub fn coordinator(&self) -> ServerId {
        self.client.coordinator()
    }

    /// Client-side statistics (cache hits etc.).
    pub fn stats(&self) -> ClientStats {
        self.client.stats()
    }

    fn send(&mut self, msg: WrenMsg) -> Result<(), RtError> {
        let coordinator = self.client.coordinator();
        match &mut self.link {
            Link::Channel { router, .. } => {
                router.send_to_server(Dest::Client(self.client.id()), coordinator, msg);
                Ok(())
            }
            Link::Tcp(link) => link.send(coordinator, &msg),
        }
    }

    fn recv(&mut self) -> Result<WrenMsg, RtError> {
        match &mut self.link {
            Link::Channel { rx, timeout, .. } => {
                rx.recv_timeout(*timeout).map_err(|_| RtError::Timeout)
            }
            Link::Tcp(link) => link.recv(),
        }
    }

    fn round_trip(&mut self, msg: WrenMsg) -> Result<WrenMsg, RtError> {
        self.send(msg)?;
        self.recv()
    }

    fn timeout(&self) -> Duration {
        match &self.link {
            Link::Channel { timeout, .. } => *timeout,
            Link::Tcp(link) => link.timeout(),
        }
    }

    /// Whether an error is worth retrying over a fresh connection: the
    /// TCP fabric surfaces a killed (or restarting) coordinator as
    /// `Shutdown` (severed socket) or `Unreachable` (dials refused past
    /// their budget). `Timeout` is final — a silent server may have
    /// processed the request, so only idempotent requests may be
    /// re-sent, and those go through [`Self::retry_round_trip`]'s
    /// deadline instead.
    fn retryable(e: &RtError) -> bool {
        matches!(e, RtError::Shutdown | RtError::Unreachable(_))
    }

    /// One request with failover retries: on a severed connection or
    /// exhausted dials the *same* message is re-sent over a fresh
    /// socket until the session timeout drains. Only for idempotent
    /// requests (start, read — the coordinator answers them without
    /// side effects a duplicate would compound); commits must NOT come
    /// through here. `expects` tag-matches the response so a stale
    /// reply to an earlier, timed-out request can never be paired with
    /// this one (a mismatch resets the link and retries).
    fn retry_round_trip(
        &mut self,
        msg: WrenMsg,
        expects: impl Fn(&WrenMsg) -> bool,
    ) -> Result<WrenMsg, RtError> {
        let deadline = Instant::now() + self.timeout();
        loop {
            match self.round_trip(msg.clone()) {
                Ok(resp) if expects(&resp) => return Ok(resp),
                Ok(_) if Instant::now() < deadline => self.reset_link(),
                Ok(_) => return Err(RtError::Timeout),
                Err(e) if Self::retryable(&e) && Instant::now() < deadline => {
                    self.reset_link();
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drops cached TCP connections so the next operation redials
    /// (no-op on the channel transport, which cannot lose links).
    fn reset_link(&mut self) {
        if let Link::Tcp(link) = &mut self.link {
            link.reset();
        }
    }

    /// Abandons the active transaction after a failed operation and
    /// kills the connection it ran on, so a late response to the failed
    /// request dies with the socket instead of surfacing as a stale
    /// reply to the session's next operation.
    fn fail_op(&mut self, e: RtError) -> RtError {
        self.client.abort();
        self.reset_link();
        e
    }

    /// One request whose reply must pass `expects`, sent once (never
    /// retried). Both ways of failing — a transport error, or a reply
    /// that is not the one expected (stale, from an earlier timed-out
    /// request: the pairing is lost, same as a dead connection) — go
    /// through [`Self::fail_op`], so no stale reply ever reaches the
    /// client state machine and the next operation starts clean.
    fn expect_round_trip(
        &mut self,
        msg: WrenMsg,
        expects: impl Fn(&WrenMsg) -> bool,
    ) -> Result<WrenMsg, RtError> {
        match self.round_trip(msg) {
            Ok(resp) if expects(&resp) => Ok(resp),
            Ok(_) => Err(self.fail_op(RtError::Shutdown)),
            Err(e) => Err(self.fail_op(e)),
        }
    }

    /// Starts an interactive transaction (the paper's `START`).
    ///
    /// Over TCP this retries transparently across coordinator failover:
    /// a severed connection or refused dial re-sends the same request
    /// on a fresh socket until the session timeout drains.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] if the coordinator does not reply in time,
    /// [`RtError::Shutdown`] if the connection failed; over TCP, a
    /// coordinator that stays unreachable past the session timeout
    /// surfaces as [`RtError::Unreachable`] naming the address.
    pub fn begin(&mut self) -> Result<(), RtError> {
        let started = Instant::now();
        let msg = self.client.start();
        match self.retry_round_trip(msg, |m| matches!(m, WrenMsg::StartTxResp { .. })) {
            Ok(resp) => {
                self.client.on_start_resp(resp);
                if let Some(m) = &self.metrics {
                    m.begin_micros.record(started.elapsed().as_micros() as u64);
                }
                Ok(())
            }
            Err(e) => Err(self.fail_op(e)),
        }
    }

    /// Reads a set of keys within the active transaction (the paper's
    /// multi-key `READ`). Values come from the write-set, read-set,
    /// client-side cache or the servers — never blocking server-side.
    ///
    /// # Errors
    ///
    /// Over TCP this retries transparently across coordinator failover
    /// (reads are idempotent — see [`Self::begin`]); the response is
    /// tag-matched to the transaction, so a stale reply from an earlier
    /// request can never be adopted.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] if the coordinator does not reply in time,
    /// [`RtError::Shutdown`] if the connection failed. Over TCP,
    /// [`RtError::Unreachable`] if the coordinator stayed unreachable
    /// past the session timeout, and [`RtError::TooLarge`] if more than
    /// 512 keys need a server fetch in one call (the transport bounds
    /// response sizes).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn read(&mut self, keys: &[Key]) -> Result<Vec<(Key, Option<Value>)>, RtError> {
        let started = Instant::now();
        let outcome = self.client.read(keys);
        let mut results = outcome.local;
        if let Some(req) = outcome.request {
            let WrenMsg::TxReadReq { tx, .. } = &req else {
                unreachable!("WrenClient::read requests with TxReadReq");
            };
            let tx = *tx;
            let resp = self
                .retry_round_trip(
                    req,
                    move |m| matches!(m, WrenMsg::TxReadResp { tx: rt, .. } if *rt == tx),
                )
                .map_err(|e| self.fail_op(e))?;
            results.extend(self.client.on_read_resp(resp));
        }
        if let Some(m) = &self.metrics {
            m.read_micros.record(started.elapsed().as_micros() as u64);
        }
        // Return in the caller's key order.
        let mut ordered = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(pos) = results.iter().position(|(rk, _)| rk == k) {
                ordered.push(results[pos].clone());
            }
        }
        Ok(ordered)
    }

    /// Reads a single key.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] if the coordinator does not reply in time,
    /// [`RtError::Shutdown`] if the connection failed; over TCP, a
    /// coordinator address that refuses connections beyond the dial's
    /// bounded retries surfaces as [`RtError::Unreachable`] naming the
    /// address.
    pub fn read_one(&mut self, key: Key) -> Result<Option<Value>, RtError> {
        Ok(self.read(&[key])?.pop().and_then(|(_, v)| v))
    }

    /// Buffers writes in the transaction's write-set (the paper's
    /// multi-key `WRITE`).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn write_many<I: IntoIterator<Item = (Key, Value)>>(&mut self, kvs: I) {
        self.client.write(kvs);
    }

    /// Buffers a single write.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn write(&mut self, key: Key, value: Value) {
        self.client.write([(key, value)]);
    }

    /// Moves this session to a coordinator in another DC (the paper's
    /// §II-A footnote-1 extension), blocking until the new DC has
    /// installed everything the session has seen or written. Returns the
    /// number of probe transactions it took. Over TCP, this dials the
    /// new coordinator's listener.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] if a probe gets no reply, or if the new DC
    /// does not catch up within the session timeout; the transport
    /// errors of [`Self::begin`] if a probe's connection fails. After an
    /// error no transaction is active, but the session is still
    /// migrating: call `migrate` again before reading or writing.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is active or `coordinator` is invalid.
    pub fn migrate(&mut self, coordinator: ServerId) -> Result<u32, RtError> {
        self.client.migrate_to(coordinator);
        let timeout = match &mut self.link {
            Link::Channel { timeout, .. } => *timeout,
            Link::Tcp(link) => {
                // Helloing the new coordinator severs this client's old
                // registration cluster-side; drop every cached conn so
                // a later migration back redials instead of hitting the
                // dead socket.
                link.reset();
                link.timeout()
            }
        };
        let deadline = std::time::Instant::now() + timeout;
        let mut probes = 0;
        loop {
            probes += 1;
            let msg = self.client.start();
            let resp = self.expect_round_trip(msg, |m| matches!(m, WrenMsg::StartTxResp { .. }))?;
            self.client.on_start_resp(resp);
            // Tear the probe transaction down either way.
            let msg = self.client.commit();
            let WrenMsg::CommitReq { tx, .. } = &msg else {
                unreachable!("WrenClient::commit requests with CommitReq");
            };
            let tx = *tx;
            let resp = self.expect_round_trip(
                msg,
                move |m| matches!(m, WrenMsg::CommitResp { tx: rt, .. } if *rt == tx),
            )?;
            let _ = self.client.on_commit_resp(resp);
            if self.client.migration_ready() {
                return Ok(probes);
            }
            if std::time::Instant::now() > deadline {
                return Err(RtError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Commits the transaction, returning its commit timestamp (zero for
    /// a read-only transaction).
    ///
    /// Commits are **never retried**: a commit is not idempotent, and a
    /// request that died with its coordinator may or may not have been
    /// applied. An error here means the outcome is unknown — the
    /// transaction is abandoned client-side and the caller decides
    /// whether to re-issue it as a new transaction. The one exception is
    /// [`RtError::Aborted`]: the coordinator replied with an explicit
    /// abort verdict (its 2PC round was left in doubt by a cohort
    /// crash), so the outcome is *known* — nothing was applied — and the
    /// caller may safely re-issue the transaction.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] if the coordinator does not reply in time,
    /// [`RtError::Shutdown`] if the connection failed,
    /// [`RtError::Aborted`] if the coordinator explicitly aborted the
    /// in-doubt transaction; over TCP, a coordinator address that
    /// refuses connections beyond the dial's retry budget surfaces as
    /// [`RtError::Unreachable`] naming the address.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self) -> Result<Timestamp, RtError> {
        let started = Instant::now();
        let msg = self.client.commit();
        let WrenMsg::CommitReq { tx, writes, .. } = &msg else {
            unreachable!("WrenClient::commit requests with CommitReq");
        };
        let tx = *tx;
        // A zero commit timestamp is normal for a read-only transaction
        // but is the coordinator's explicit abort verdict for one that
        // shipped writes — remember which we sent.
        let wrote = !writes.is_empty();
        let resp = self.expect_round_trip(
            msg,
            move |m| matches!(m, WrenMsg::CommitResp { tx: rt, .. } if *rt == tx),
        )?;
        let WrenMsg::CommitResp { ct, .. } = resp else {
            unreachable!("tag-matched as CommitResp");
        };
        if wrote && ct == Timestamp::ZERO {
            // The coordinator aborted the in-doubt round and said so;
            // the transaction is over, the link is fine.
            self.client.abort();
            if let Some(m) = &self.metrics {
                m.tx_aborted.inc();
            }
            return Err(RtError::Aborted);
        }
        let ct = self.client.on_commit_resp(WrenMsg::CommitResp { tx, ct });
        if let Some(m) = &self.metrics {
            m.commit_micros.record(started.elapsed().as_micros() as u64);
        }
        Ok(ct)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        match &self.link {
            Link::Channel { router, .. } => router.unregister_client(self.client.id()),
            // TCP: dropping the sockets closes the connections; the
            // server side unregisters on EOF.
            Link::Tcp(_) => {}
        }
    }
}
