//! Socket front-end: the [`crate::proto`] frame protocol served over TCP or
//! unix-domain sockets by a fixed-size reader-thread pool, with admission
//! control and adaptive update batching.
//!
//! The wire format — length-prefixed frames, a version byte, typed
//! request/response opcodes — lives in [`crate::proto`]; this module is the
//! *serving* side: listeners, the worker pool, backpressure, and the
//! blocking [`NetClient`]. Both address families speak identical frames
//! through one read loop ([`NetStream`] abstracts the socket), so
//! `--listen unix:/path` and `--listen host:port` differ only in how the
//! listener binds. Every connection, on either side, reads a frame with one
//! `read` into its own receive buffer and writes one with one `write` from
//! its own transmit buffer, so a round trip costs four syscalls
//! ([`NetStats::socket_reads`] counts the server's reads).
//!
//! A **malformed frame** — oversized length prefix, wrong protocol version,
//! unknown opcode, body shorter or longer than its opcode requires, or a
//! connection cut mid-frame — draws a best-effort `ERROR` response and
//! closes **that connection only**; the server and every other connection
//! keep serving. A well-formed request with bad arguments (e.g. a query for
//! an out-of-range vertex, or an out-of-order `APPLY`) gets an `ERROR`
//! response and the connection stays open.
//!
//! ## Threading and backpressure
//!
//! One acceptor thread admits connections into a queue drained by
//! [`NetConfig::reader_threads`] worker threads; each worker serves one
//! connection at a time and re-grabs an `Arc<Snapshot>` **per request**, so
//! queries always answer from the latest published epoch without ever
//! blocking the writer. Overload sheds instead of piling up, at two gates:
//!
//! * **Connections** — beyond [`NetConfig::max_connections`] open or
//!   [`NetConfig::accept_queue`] waiting for a worker, new connections get a
//!   `BUSY` frame and are closed immediately.
//! * **Updates** — the shared [`AdaptiveBatcher`] bounds pending updates
//!   ([`crate::BatcherConfig::max_queued`]); requests beyond it come back
//!   `rejected` with an explicit `overloaded` reason.
//!
//! `UPDATE`/`UPDATE_KEYED` flow through the batcher: a worker blocks its
//! connection until the merged batch containing its request is applied and
//! published (or rejected), so an `applied` response is a
//! **read-your-writes guarantee** — any later query on any connection sees
//! the update. `APPLY` (router→worker replication) deliberately **bypasses
//! the batcher**: coalescing would break the `seq == generation` lockstep
//! the router's replay ring depends on. An `APPLY` whose `seq` is not
//! exactly `generation + 1` (and not already applied — workers dedup on
//! `seq`) is answered `ERROR` so a replication gap fails loudly instead of
//! desynchronising replicas.
//!
//! ## Idempotent retries
//!
//! A client that sends `UPDATE` and loses the connection before the `BATCH`
//! response cannot tell whether its update applied — resending may
//! double-apply. `UPDATE_KEYED` closes that window: the client attaches an
//! **idempotency key** (any `u64` it will not reuse for a different update),
//! and the server deduplicates through the batcher's in-flight set and the
//! [`crate::DedupWindow`] — a retried key that already applied is
//! acknowledged with its original sequence number instead of re-applied.
//! [`NetClient::update_keyed_retry`] packages the full loop: send, and on a
//! connection-level failure reconnect and resend the same key under a
//! [`RetryPolicy`] (exponential backoff, full jitter).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stl_graph::{Dist, EdgeUpdate, VertexId};

use crate::batcher::{AdaptiveBatcher, BatcherConfig, BatcherStats};
use crate::frame::{Framed, ReadEnd};
use crate::proto::{Endpoint, RemoteOutcome, RemoteStats, Request, Response};
use crate::server::{BatchOutcome, StlServer};

/// Transport configuration (see the module docs for the backpressure model).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker threads serving connections. Each worker owns one connection
    /// at a time and refreshes its snapshot per request.
    pub reader_threads: usize,
    /// Hard cap on connections open at once (serving + waiting); beyond it,
    /// accepts are shed with a `BUSY` frame.
    pub max_connections: usize,
    /// Cap on accepted connections waiting for a free worker; beyond it,
    /// accepts are shed with a `BUSY` frame.
    pub accept_queue: usize,
    /// Knobs of the shared [`AdaptiveBatcher`] all update requests flow
    /// through.
    pub batcher: BatcherConfig,
    /// Close a connection after this many milliseconds without a complete
    /// request (`0` = never). Protects the fixed-size pool from idle or
    /// stalled clients.
    pub idle_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            reader_threads: 4,
            max_connections: 256,
            accept_queue: 64,
            batcher: BatcherConfig::default(),
            idle_timeout_ms: 10_000,
        }
    }
}

/// Transport-level counters (monotone; see [`NetServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and admitted to the worker queue.
    pub connections_accepted: u64,
    /// Connections shed at accept time by admission control.
    pub connections_shed: u64,
    /// Malformed frames (each one closed its connection).
    pub frames_rejected: u64,
    /// Requests served over all connections (queries, updates, stats).
    pub requests_served: u64,
    /// Socket `read` calls that returned bytes. A frame is read whole in
    /// one call when it has fully arrived, so sequential request/response
    /// traffic reads once per request.
    pub socket_reads: u64,
    /// `ONE_TO_MANY` requests answered from a worker's reusable distance
    /// buffer without growing it — the steady state once each worker's
    /// scratch has seen its largest target set.
    pub many_scratch_reuses: u64,
    /// Counters of the shared update batcher.
    pub batcher: BatcherStats,
}

#[derive(Default)]
struct NetCounters {
    connections_accepted: AtomicU64,
    connections_shed: AtomicU64,
    frames_rejected: AtomicU64,
    requests_served: AtomicU64,
    socket_reads: AtomicU64,
    many_scratch_reuses: AtomicU64,
}

// ---- address-family abstraction -----------------------------------------

/// A bound listener in either address family, always nonblocking.
pub(crate) enum NetListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl NetListener {
    /// Bind `endpoint` and return the listener plus the concrete bound
    /// address (the ephemeral port resolved, for TCP). A stale socket file
    /// at a unix path — debris of a process that did not exit cleanly — is
    /// removed before binding; live servers hold the listener open, so the
    /// file being bindable-over means nobody is accepting on it.
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<(Self, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let local = listener.local_addr()?;
                Ok((NetListener::Tcp(listener), Endpoint::Tcp(local)))
            }
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok((NetListener::Unix(listener), Endpoint::Unix(path.clone())))
            }
        }
    }

    pub(crate) fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetStream::Unix(s)),
        }
    }
}

/// A connected stream in either address family. Implements `Read`/`Write`,
/// so one frame loop serves both; the TCP-only knobs (`TCP_NODELAY`) are
/// no-ops on unix sockets.
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    Unix(UnixStream),
}

impl NetStream {
    pub(crate) fn set_nodelay(&self) {
        if let NetStream::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }

    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(dur),
            NetStream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_write_timeout(dur),
            NetStream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// Dial `endpoint` in its family.
pub(crate) fn dial(endpoint: &Endpoint) -> io::Result<NetStream> {
    let stream = match endpoint {
        Endpoint::Tcp(addr) => NetStream::Tcp(TcpStream::connect(addr)?),
        Endpoint::Unix(path) => NetStream::Unix(UnixStream::connect(path)?),
    };
    stream.set_nodelay();
    Ok(stream)
}

// ---- server -------------------------------------------------------------

struct NetShared {
    server: Arc<StlServer>,
    batcher: AdaptiveBatcher,
    cfg: NetConfig,
    stop: AtomicBool,
    /// Connections accepted but not yet picked up by a worker.
    queued: AtomicUsize,
    /// Connections currently being served by a worker.
    active: AtomicUsize,
    counters: NetCounters,
}

/// The socket front-end. Binds in [`NetServer::start`], serves until
/// [`NetServer::shutdown`]. All state is shared through `Arc`s, so the
/// handle is cheap to move across threads.
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: Endpoint,
    /// Socket file to unlink on shutdown when listening on a unix path.
    unix_path: Option<PathBuf>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Keeps the queue sender alive until shutdown; dropping it releases the
    /// workers blocked on `recv`.
    conn_tx: Mutex<Option<Sender<NetStream>>>,
}

impl NetServer {
    /// Parse `listen` (`host:port`, or `unix:/path` — see
    /// [`Endpoint::parse`]), bind it, and start the acceptor and worker
    /// threads. Use port 0 for an ephemeral TCP port; the bound address is
    /// [`NetServer::local_addr`].
    pub fn start(server: Arc<StlServer>, listen: &str, cfg: NetConfig) -> io::Result<Self> {
        assert!(cfg.reader_threads >= 1, "need at least one reader thread");
        let endpoint = Endpoint::parse(listen)?;
        let (listener, local_addr) = NetListener::bind(&endpoint)?;
        let unix_path = match &local_addr {
            Endpoint::Unix(p) => Some(p.clone()),
            Endpoint::Tcp(_) => None,
        };
        let batcher = AdaptiveBatcher::start(Arc::clone(&server), cfg.batcher.clone());
        let shared = Arc::new(NetShared {
            server,
            batcher,
            cfg,
            stop: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            counters: NetCounters::default(),
        });
        let (conn_tx, conn_rx) = mpsc::channel::<NetStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(shared.cfg.reader_threads);
        for i in 0..shared.cfg.reader_threads {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&conn_rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("stl-net-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn net worker"),
            );
        }
        let acceptor_shared = Arc::clone(&shared);
        let acceptor_tx = conn_tx.clone();
        let acceptor = std::thread::Builder::new()
            .name("stl-net-accept".into())
            .spawn(move || accept_loop(&acceptor_shared, &listener, &acceptor_tx))
            .expect("spawn net acceptor");
        Ok(Self {
            shared,
            local_addr,
            unix_path,
            acceptor: Some(acceptor),
            workers,
            conn_tx: Mutex::new(Some(conn_tx)),
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> Endpoint {
        self.local_addr.clone()
    }

    /// Point-in-time transport counters.
    pub fn stats(&self) -> NetStats {
        let c = &self.shared.counters;
        NetStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_shed: c.connections_shed.load(Ordering::Relaxed),
            frames_rejected: c.frames_rejected.load(Ordering::Relaxed),
            requests_served: c.requests_served.load(Ordering::Relaxed),
            socket_reads: c.socket_reads.load(Ordering::Relaxed),
            many_scratch_reuses: c.many_scratch_reuses.load(Ordering::Relaxed),
            batcher: self.shared.batcher.stats(),
        }
    }

    /// Stop accepting, finish in-flight requests, flush the batcher, join
    /// every thread, and return the final counters. Also runs on drop.
    pub fn shutdown(mut self) -> NetStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Release workers blocked on the queue, then join them; they abandon
        // held connections at the next frame boundary (the read poll sees
        // the stop flag within ~100 ms).
        drop(self.conn_tx.lock().unwrap().take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Deterministic teardown so callers can Arc::try_unwrap the
        // StlServer afterwards: the flusher thread holds the only other
        // reference and shutdown() joins it.
        self.shared.batcher.shutdown();
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop(shared: &NetShared, listener: &NetListener, tx: &Sender<NetStream>) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok(stream) => {
                let queued = shared.queued.load(Ordering::Relaxed);
                let open = queued + shared.active.load(Ordering::Relaxed);
                if open >= shared.cfg.max_connections || queued >= shared.cfg.accept_queue {
                    shared.counters.connections_shed.fetch_add(1, Ordering::Relaxed);
                    // Best-effort BUSY so the client learns it was shed, not
                    // dropped; a short write timeout keeps a dead peer from
                    // stalling the acceptor.
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = Framed::new(stream)
                        .send_response(&Response::Busy("server overloaded".into()));
                    continue; // drop closes the stream
                }
                shared.counters.connections_accepted.fetch_add(1, Ordering::Relaxed);
                shared.queued.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    return; // workers gone: shutdown raced us
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &NetShared, rx: &Mutex<Receiver<NetStream>>) {
    // Per-worker distance scratch for ONE_TO_MANY responses: it outlives
    // connections, so the steady state is one allocation per worker for the
    // largest target set that worker has ever seen, instead of one per
    // request.
    let mut many_scratch: Vec<Dist> = Vec::new();
    loop {
        // Hold the receiver lock only for the dequeue, not while serving.
        let conn = match rx.lock().unwrap().recv() {
            Ok(c) => c,
            Err(_) => return, // sender dropped: shutdown
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        shared.active.fetch_add(1, Ordering::Relaxed);
        // A panic while serving (a failpoint, or a bug in a handler) kills
        // that connection, not the worker: the pool keeps its full size and
        // every other connection keeps being served.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = serve_connection(shared, conn, &mut many_scratch);
        }));
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

fn serve_connection(
    shared: &NetShared,
    stream: NetStream,
    many_scratch: &mut Vec<Dist>,
) -> io::Result<()> {
    stream.set_nodelay();
    // Poll in 100 ms slices so the stop flag and the idle deadline are
    // checked even while the peer is silent.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let idle = match shared.cfg.idle_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut conn = Framed::new(stream);
    loop {
        let payload =
            match conn.recv_polling(&shared.stop, idle, Some(&shared.counters.socket_reads)) {
                Ok(p) => p,
                Err(ReadEnd::Closed) | Err(ReadEnd::Stopped) | Err(ReadEnd::TimedOut) => {
                    return Ok(());
                }
                Err(ReadEnd::Malformed(why)) => {
                    shared.counters.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.send_response(&Response::Error(why.into()));
                    return Ok(());
                }
                Err(ReadEnd::Io(_)) => return Ok(()),
            };
        shared.counters.requests_served.fetch_add(1, Ordering::Relaxed);
        // Refresh the snapshot per request: each answer comes from the
        // latest published epoch at the moment the request is handled.
        let snap = shared.server.snapshot();
        let n = snap.graph().num_vertices() as u64;
        let response = match Request::decode(payload) {
            Err(why) => {
                // Malformed at the payload level (including a protocol
                // version this build does not speak): answer and close,
                // exactly like a malformed frame.
                shared.counters.frames_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = conn.send_response(&Response::Error(why.into()));
                return Ok(());
            }
            Ok(Request::Query { s, t }) => {
                if u64::from(s) >= n || u64::from(t) >= n {
                    Response::Error("vertex out of range".into())
                } else {
                    shared.server.record_queries(1);
                    Response::Dist(snap.query(s, t))
                }
            }
            Ok(Request::OneToMany { s, targets }) => {
                if u64::from(s) >= n || targets.iter().any(|&t| u64::from(t) >= n) {
                    Response::Error("vertex out of range".into())
                } else {
                    shared.server.record_queries(targets.len() as u64);
                    if many_scratch.capacity() >= targets.len() {
                        shared.counters.many_scratch_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    snap.stl().one_to_many_into(s, &targets, many_scratch);
                    // Moved into the response, not cloned; the scratch comes
                    // back once the response is encoded.
                    Response::Many(std::mem::take(many_scratch))
                }
            }
            Ok(Request::Update(batch)) => {
                // Blocks this connection (not the worker pool's siblings'
                // queues — each worker owns one connection) until the merged
                // batch publishes: read-your-writes for the client.
                let outcome = shared.batcher.submit(batch).wait();
                batch_response(&outcome, shared.server.generation())
            }
            Ok(Request::UpdateKeyed { key, batch }) => {
                let outcome = shared.batcher.submit_keyed(Some(key), batch).wait();
                batch_response(&outcome, shared.server.generation())
            }
            Ok(Request::Apply { seq, batch }) => {
                // Router→worker replication. Bypasses the batcher (coalescing
                // would break seq == generation lockstep) and keys the dedup
                // window on `seq` itself, so a catch-up resend of an
                // already-applied batch is acknowledged idempotently.
                if let Some(applied_seq) = shared.server.dedup_lookup(seq) {
                    Response::Batch {
                        applied: true,
                        generation: applied_seq,
                        reason: String::new(),
                    }
                } else {
                    let generation = shared.server.generation();
                    if seq != generation + 1 {
                        // A gap means this replica missed a batch the router
                        // can no longer assume it has; failing loudly forces
                        // a catch-up instead of a silent desync.
                        Response::Error(format!(
                            "apply out of order: at generation {generation}, got seq {seq}"
                        ))
                    } else {
                        let ticket = shared.server.submit_with_keys(vec![seq], batch);
                        let outcome = shared.server.wait_for(ticket);
                        batch_response(&outcome, shared.server.generation())
                    }
                }
            }
            Ok(Request::Stats) => Response::Stats(stats_fields(shared)),
        };
        response.encode_into(conn.frame());
        if let Response::Many(dists) = response {
            *many_scratch = dists;
        }
        // The ack-loss window the keyed-retry machinery exists for: the
        // update has applied (and hit the WAL, on durable servers) but the
        // response is not yet on the wire. The crash suite kills here and
        // proves a keyed resend is acknowledged without re-applying.
        stl_core::failpoint::fire("frame-write");
        if conn.send().is_err() {
            return Ok(()); // peer gone mid-response; nothing to salvage
        }
    }
}

/// Map a writer outcome onto the wire representation.
fn batch_response(outcome: &BatchOutcome, generation: u64) -> Response {
    match outcome {
        BatchOutcome::Applied { seq } => Response::Batch {
            applied: true,
            // The batch's own sequence number (== the generation its epoch
            // published); falls back to the server's current generation in
            // the rare aged-out case where the exact seq is unknown.
            generation: if *seq > 0 { *seq } else { generation },
            reason: String::new(),
        },
        BatchOutcome::Rejected(reason) => {
            Response::Batch { applied: false, generation, reason: reason.clone() }
        }
    }
}

/// The `STATS` field list, in [`RemoteStats`] order.
fn stats_fields(shared: &NetShared) -> Vec<u64> {
    let server = shared.server.stats();
    let batcher = shared.batcher.stats();
    let c = &shared.counters;
    vec![
        shared.server.generation(),
        server.queries_served,
        server.batches_applied,
        server.batches_rejected,
        server.updates_submitted,
        c.connections_accepted.load(Ordering::Relaxed),
        c.connections_shed.load(Ordering::Relaxed),
        c.frames_rejected.load(Ordering::Relaxed),
        batcher.batches_submitted,
        batcher.requests_coalesced,
        batcher.requests_shed,
        c.many_scratch_reuses.load(Ordering::Relaxed),
    ]
}

// ---- blocking client -----------------------------------------------------

/// Retry schedule for client-side reconnects and keyed-update resends:
/// **exponential backoff with full jitter**.
///
/// Attempt `i` (zero-based) draws its sleep uniformly from
/// `[0, min(base_ms × 2^i, cap_ms)]` milliseconds. Full jitter — rather than
/// a fixed exponential ladder — decorrelates a herd of clients that all lost
/// the same server at the same instant (a restart), so the recovered server
/// sees a spread-out trickle instead of synchronized thundering waves. The
/// jitter source is a tiny splitmix-style mixer over a process-global
/// counter: no dependencies, no clock reads, distinct streams per policy
/// instance.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Backoff ceiling of the first retry, in milliseconds; doubles per
    /// attempt until [`RetryPolicy::cap_ms`].
    pub base_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub cap_ms: u64,
    /// Total attempts before giving up (the initial try counts as one; `1`
    /// means no retries).
    pub max_attempts: u32,
    /// Private jitter stream state.
    rng: u64,
}

impl Default for RetryPolicy {
    /// 5 attempts backing off through ceilings 25 → 50 → 100 → 200 ms.
    fn default() -> Self {
        Self::new(25, 200, 5)
    }
}

impl RetryPolicy {
    /// Build a policy; see the type docs for what the knobs mean.
    pub fn new(base_ms: u64, cap_ms: u64, max_attempts: u32) -> Self {
        // Seed each policy from a striding global counter: distinct policy
        // instances (and distinct threads) get distinct jitter streams
        // without any clock or OS entropy.
        static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
        let rng = SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        Self { base_ms, cap_ms, max_attempts: max_attempts.max(1), rng }
    }

    /// The sleep before retry number `attempt` (zero-based): uniform in
    /// `[0, min(base × 2^attempt, cap)]` ms.
    pub fn backoff(&mut self, attempt: u32) -> Duration {
        let ceiling = self
            .base_ms
            .saturating_mul(1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        if ceiling == 0 {
            return Duration::ZERO;
        }
        // splitmix64 finalizer: full-period, passes the bar for jitter.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Duration::from_millis(z % (ceiling + 1))
    }
}

/// Whether an I/O failure is worth retrying: connection-level trouble is
/// (the server may be restarting), protocol-level rejection is not.
pub(crate) fn retryable(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::NotConnected
    )
}

/// Minimal blocking client for the protocol — one request in flight per
/// connection, over TCP or unix sockets ([`Endpoint`]). Used by
/// `stl bench-net`, the router's worker connections, the loopback tests,
/// and the net bench; also a reference implementation of the frame flow.
#[derive(Debug)]
pub struct NetClient {
    /// The connection with its frame buffers, replaced as one value on
    /// reconnect: no byte buffered from a dead connection can be parsed as
    /// part of the next connection's response.
    conn: Framed<NetStream>,
    /// Peer endpoint, kept so the retry paths can reconnect.
    peer: Endpoint,
}

impl NetClient {
    /// Connect once.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Self> {
        let conn = Framed::new(dial(endpoint)?);
        Ok(Self { conn, peer: endpoint.clone() })
    }

    /// Connect with retries until `timeout` elapses — for racing a server
    /// that is still binding (CI smoke tests, freshly spawned processes).
    /// Backoff follows a default [`RetryPolicy`] schedule re-armed until the
    /// deadline.
    pub fn connect_retry(endpoint: &Endpoint, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        let mut policy = RetryPolicy::default();
        let mut attempt = 0u32;
        loop {
            match Self::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt = (attempt + 1).min(policy.max_attempts - 1);
                }
            }
        }
    }

    /// The endpoint this client dials.
    pub fn peer(&self) -> &Endpoint {
        &self.peer
    }

    /// One request → one decoded response.
    fn request(&mut self, req: &Request) -> io::Result<Response> {
        req.encode_into(self.conn.frame());
        self.conn.send()?;
        match self.conn.recv()? {
            Some([]) => Err(io::Error::new(io::ErrorKind::InvalidData, "empty response frame")),
            Some(payload) => {
                Response::decode(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
            None => {
                Err(io::Error::new(io::ErrorKind::ConnectionAborted, "server closed connection"))
            }
        }
    }

    /// Map a response the caller did not ask for to an error.
    fn unexpected(resp: Response) -> io::Error {
        match resp {
            Response::Error(reason) => {
                io::Error::new(io::ErrorKind::InvalidInput, format!("server error: {reason}"))
            }
            Response::Busy(reason) => {
                io::Error::new(io::ErrorKind::ConnectionRefused, format!("shed: {reason}"))
            }
            other => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response: {other:?}"),
            ),
        }
    }

    /// Distance query `s → t` against the latest published epoch.
    pub fn query(&mut self, s: VertexId, t: VertexId) -> io::Result<Dist> {
        match self.request(&Request::Query { s, t })? {
            Response::Dist(d) => Ok(d),
            other => Err(Self::unexpected(other)),
        }
    }

    /// One-to-many distances from `s`, in `targets` order.
    pub fn one_to_many(&mut self, s: VertexId, targets: &[VertexId]) -> io::Result<Vec<Dist>> {
        match self.request(&Request::OneToMany { s, targets: targets.to_vec() })? {
            Response::Many(dists) => Ok(dists),
            other => Err(Self::unexpected(other)),
        }
    }

    fn expect_batch(resp: Response) -> io::Result<RemoteOutcome> {
        match resp {
            Response::Batch { applied, generation, reason } => {
                Ok(RemoteOutcome { applied, generation, reason })
            }
            other => Err(Self::unexpected(other)),
        }
    }

    /// Submit an update batch; blocks until the server reports its outcome
    /// (applied and published, or rejected with a reason).
    ///
    /// If the connection dies before the response arrives, the caller cannot
    /// know whether the batch applied — resending may double-apply. Use
    /// [`NetClient::update_keyed`] (and [`NetClient::update_keyed_retry`])
    /// when that matters.
    pub fn update(&mut self, batch: &[EdgeUpdate]) -> io::Result<RemoteOutcome> {
        let resp = self.request(&Request::Update(batch.to_vec()))?;
        Self::expect_batch(resp)
    }

    /// Submit an update batch under idempotency key `key` (single attempt).
    /// The server deduplicates on `key`: if a batch with this key already
    /// applied (or is still in flight), the response acknowledges the
    /// *original* application instead of applying again. Never reuse a key
    /// for a different batch.
    pub fn update_keyed(&mut self, key: u64, batch: &[EdgeUpdate]) -> io::Result<RemoteOutcome> {
        let resp = self.request(&Request::UpdateKeyed { key, batch: batch.to_vec() })?;
        Self::expect_batch(resp)
    }

    /// Router→worker replication: apply `batch` as generation `seq` exactly
    /// (see [`Request::Apply`]). An out-of-order sequence is reported as an
    /// `InvalidInput` error with the worker's reason — the router's cue to
    /// run catch-up — while connection-level failures surface as the usual
    /// retryable I/O errors.
    pub fn apply(&mut self, seq: u64, batch: &[EdgeUpdate]) -> io::Result<RemoteOutcome> {
        let resp = self.request(&Request::Apply { seq, batch: batch.to_vec() })?;
        Self::expect_batch(resp)
    }

    /// [`NetClient::update_keyed`] wrapped in the full at-least-once-send /
    /// at-most-once-apply loop: on a connection-level failure (reset, EOF
    /// before the ack, refused reconnect while the server restarts), back
    /// off per `policy`, reconnect to the same peer, and resend the same
    /// key. Protocol-level failures (a rejected batch, a malformed-response
    /// error) are returned immediately — retrying cannot fix those.
    pub fn update_keyed_retry(
        &mut self,
        key: u64,
        batch: &[EdgeUpdate],
        mut policy: RetryPolicy,
    ) -> io::Result<RemoteOutcome> {
        let mut attempt = 0u32;
        loop {
            let err = match self.update_keyed(key, batch) {
                Ok(outcome) => return Ok(outcome),
                Err(e) if retryable(e.kind()) => e,
                Err(e) => return Err(e),
            };
            if attempt + 1 >= policy.max_attempts {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt));
            attempt += 1;
            // Reconnect before the resend; failure to connect just burns
            // this attempt and falls through to the next backoff.
            if let Ok(stream) = dial(&self.peer) {
                self.conn = Framed::new(stream);
            }
        }
    }

    /// Fetch the peer's counters, decoded into the known field set.
    pub fn stats(&mut self) -> io::Result<RemoteStats> {
        RemoteStats::from_fields(&self.stats_fields()?)
    }

    /// Fetch the peer's raw `STATS` field list — everything it reported,
    /// including fields appended past the [`RemoteStats`] set (the router
    /// appends deployment counters there).
    pub fn stats_fields(&mut self) -> io::Result<Vec<u64>> {
        match self.request(&Request::Stats)? {
            Response::Stats(fields) => Ok(fields),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Send `payload` as one raw frame without awaiting a response. Test
    /// hook for malformed-input coverage.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        self.conn.frame().extend_from_slice(payload);
        self.conn.send()
    }

    /// Send arbitrary bytes, bypassing framing entirely. Test hook for
    /// truncated-frame coverage.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.stream.write_all(bytes)
    }

    /// Read one raw response frame (`None` on clean EOF). Test hook.
    pub fn recv_raw(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.conn.recv()?.map(<[u8]>::to_vec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{put_u32, MAX_FRAME_BYTES, OP_QUERY, OP_UPDATE, PROTO_VERSION};
    use crate::server::ServerConfig;
    use stl_core::{Stl, StlConfig};
    use stl_graph::builder::from_edges;
    use stl_graph::CsrGraph;

    fn diamond() -> CsrGraph {
        from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)])
    }

    fn start_net(g: &CsrGraph, cfg: NetConfig) -> (Arc<StlServer>, NetServer) {
        start_net_on(g, "127.0.0.1:0", cfg)
    }

    fn start_net_on(g: &CsrGraph, listen: &str, cfg: NetConfig) -> (Arc<StlServer>, NetServer) {
        let stl = Stl::build(g, &StlConfig::default());
        let server = Arc::new(StlServer::start(g.clone(), stl, ServerConfig::default()));
        let net = NetServer::start(Arc::clone(&server), listen, cfg).expect("bind");
        (server, net)
    }

    fn fast_cfg() -> NetConfig {
        NetConfig {
            batcher: BatcherConfig { latency_ms: 0, ..Default::default() },
            ..Default::default()
        }
    }

    fn is_error_frame(payload: &[u8]) -> bool {
        matches!(Response::decode(payload), Ok(Response::Error(_)))
    }

    #[test]
    fn query_update_stats_roundtrip() {
        let g = diamond();
        let (_server, net) = start_net(&g, fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();
        assert_eq!(client.query(0, 3).unwrap(), 12);
        assert_eq!(client.one_to_many(0, &[1, 2, 3]).unwrap(), vec![3, 7, 12]);
        // Second ONE_TO_MANY no larger than the first: the worker's scratch
        // buffer already fits it, which the reuse counter must record.
        assert_eq!(client.one_to_many(0, &[3, 1]).unwrap(), vec![12, 3]);
        assert!(client.stats().unwrap().many_scratch_reuses >= 1);

        let out = client.update(&[EdgeUpdate::new(0, 3, 2)]).unwrap();
        assert!(out.applied);
        assert!(out.generation >= 1);
        assert!(out.reason.is_empty());
        // Read-your-writes: the ack came after publish.
        assert_eq!(client.query(0, 3).unwrap(), 2);

        let stats = client.stats().unwrap();
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.batches_rejected, 0);
        assert!(stats.queries_served >= 5);
        assert_eq!(stats.connections_accepted, 1);
        let net_stats = net.shutdown();
        assert_eq!(net_stats.connections_accepted, 1);
        assert!(net_stats.requests_served >= 4);
    }

    #[test]
    fn unix_socket_shares_the_frame_protocol() {
        // The UDS satellite end to end: same frames, same client, different
        // listener family. The socket file must also be gone after shutdown.
        let g = diamond();
        let path = std::env::temp_dir().join(format!("stl-uds-{}.sock", std::process::id()));
        let listen = format!("unix:{}", path.display());
        let (_server, net) = start_net_on(&g, &listen, fast_cfg());
        assert_eq!(net.local_addr().to_string(), listen, "display round-trips the CLI flag");
        let mut client = NetClient::connect(&net.local_addr()).unwrap();
        assert_eq!(client.query(0, 3).unwrap(), 12);
        assert!(client.update(&[EdgeUpdate::new(0, 3, 2)]).unwrap().applied);
        assert_eq!(client.query(0, 3).unwrap(), 2);
        assert_eq!(client.one_to_many(0, &[1, 3]).unwrap(), vec![3, 2]);
        assert!(client.stats().unwrap().generation >= 1);
        net.shutdown();
        assert!(!path.exists(), "socket file must be unlinked on shutdown");
    }

    #[test]
    fn apply_enforces_generation_lockstep_and_dedups_on_seq() {
        let g = diamond();
        let (server, net) = start_net(&g, fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();

        // In-order APPLY publishes exactly seq.
        let out = client.apply(1, &[EdgeUpdate::new(0, 3, 2)]).unwrap();
        assert!(out.applied);
        assert_eq!(out.generation, 1);
        assert_eq!(client.query(0, 3).unwrap(), 2);

        // Resend of an applied seq (catch-up path) acks idempotently.
        let out = client.apply(1, &[EdgeUpdate::new(0, 3, 2)]).unwrap();
        assert!(out.applied);
        assert_eq!(out.generation, 1);
        assert_eq!(server.generation(), 1, "resend must not re-apply");

        // A gap fails loudly and leaves the connection usable.
        let err = client.apply(5, &[EdgeUpdate::new(0, 3, 3)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("apply out of order"), "got: {err}");
        assert_eq!(client.query(0, 3).unwrap(), 2, "state untouched, connection open");
        assert_eq!(server.generation(), 1);
        net.shutdown();
    }

    #[test]
    fn bad_edge_over_tcp_rejects_but_keeps_serving() {
        // The acceptance scenario, over the wire: a nonexistent edge comes
        // back rejected with a reason, then the same connection keeps
        // querying and a valid batch still publishes a new generation.
        let g = diamond();
        let (server, net) = start_net(&g, fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();

        let out = client.update(&[EdgeUpdate::new(0, 2, 9)]).unwrap();
        assert!(!out.applied);
        assert!(out.reason.contains("no edge between 0 and 2"), "got: {}", out.reason);
        assert_eq!(client.query(0, 3).unwrap(), 12, "state must be untouched");

        let out = client.update(&[EdgeUpdate::new(1, 2, 1)]).unwrap();
        assert!(out.applied, "writer must be alive after a rejection");
        assert_eq!(client.query(0, 3).unwrap(), 9);

        let stats = client.stats().unwrap();
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.batches_applied, 1);
        net.shutdown();
        assert_eq!(server.generation(), 1);
    }

    #[test]
    fn malformed_frame_closes_only_that_connection() {
        let g = diamond();
        let (_server, net) = start_net(&g, fast_cfg());
        let addr = net.local_addr();

        // Unknown opcode: ERROR response, then EOF on this connection.
        let mut bad = NetClient::connect(&addr).unwrap();
        bad.send_raw(&[PROTO_VERSION, 0x7F, 1, 2, 3]).unwrap();
        let resp = bad.recv_raw().unwrap().expect("error frame before close");
        assert!(is_error_frame(&resp));
        assert!(bad.recv_raw().unwrap().is_none(), "connection must be closed");

        // Wrong protocol version: rejected before the opcode is looked at.
        let mut versioned = NetClient::connect(&addr).unwrap();
        let mut payload = Request::Query { s: 0, t: 3 }.encode();
        payload[0] = PROTO_VERSION + 1;
        versioned.send_raw(&payload).unwrap();
        let resp = versioned.recv_raw().unwrap().expect("error frame before close");
        match Response::decode(&resp) {
            Ok(Response::Error(reason)) => {
                assert!(reason.contains("protocol version"), "got: {reason}")
            }
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(versioned.recv_raw().unwrap().is_none());

        // Length/count mismatch inside an UPDATE payload: same treatment.
        let mut mismatched = NetClient::connect(&addr).unwrap();
        let mut payload = vec![PROTO_VERSION, OP_UPDATE];
        put_u32(&mut payload, 5); // claims 5 updates, carries none
        mismatched.send_raw(&payload).unwrap();
        let resp = mismatched.recv_raw().unwrap().expect("error frame before close");
        assert!(is_error_frame(&resp));
        assert!(mismatched.recv_raw().unwrap().is_none());

        // Oversized length prefix: rejected before allocating.
        let mut oversized = NetClient::connect(&addr).unwrap();
        oversized.send_bytes(&(MAX_FRAME_BYTES + 1).to_le_bytes()).unwrap();
        let resp = oversized.recv_raw().unwrap().expect("error frame before close");
        assert!(is_error_frame(&resp));

        // The server survives all four: a fresh connection still works.
        let mut fine = NetClient::connect(&addr).unwrap();
        assert_eq!(fine.query(0, 3).unwrap(), 12);
        let net_stats = net.shutdown();
        assert!(net_stats.frames_rejected >= 4);
    }

    #[test]
    fn client_disconnect_mid_frame_is_survived() {
        let g = diamond();
        // One reader serves connections in accept order, so it has counted
        // the hangup before it can answer the follow-up connection.
        let (_server, net) = start_net(&g, NetConfig { reader_threads: 1, ..fast_cfg() });
        {
            let mut quitter = NetClient::connect(&net.local_addr()).unwrap();
            // Announce a 10-byte frame, deliver 4 bytes, vanish.
            quitter.send_bytes(&10u32.to_le_bytes()).unwrap();
            quitter.send_bytes(&[PROTO_VERSION, OP_QUERY, 0, 0]).unwrap();
        } // drop closes the socket mid-frame
          // The worker notices, counts it, and moves on to the next client.
        let mut fine = NetClient::connect(&net.local_addr()).unwrap();
        assert_eq!(fine.query(0, 2).unwrap(), 7);
        let stats = net.shutdown();
        assert_eq!(stats.frames_rejected, 1, "mid-frame hangup counts as malformed");
    }

    #[test]
    fn well_formed_bad_arguments_keep_the_connection_open() {
        let g = diamond();
        let (_server, net) = start_net(&g, fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();
        let err = client.query(0, 99).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Same connection, next request still answered.
        assert_eq!(client.query(0, 3).unwrap(), 12);
        net.shutdown();
    }

    #[test]
    fn overload_sheds_connections_with_busy() {
        // One worker, room for one waiting connection: while the worker is
        // pinned by an open connection, the next connection waits and any
        // further one must be shed with BUSY instead of queueing without
        // bound.
        let g = diamond();
        let (_server, net) = start_net(
            &g,
            NetConfig {
                reader_threads: 1,
                max_connections: 2,
                accept_queue: 1,
                idle_timeout_ms: 30_000,
                ..fast_cfg()
            },
        );
        let addr = net.local_addr();

        // Pin the only worker: a reader owns its connection until the client
        // closes it, and an answered request proves the worker holds it.
        let mut pinned = NetClient::connect(&addr).unwrap();
        assert_eq!(pinned.query(0, 3).unwrap(), 12);

        // The worker is busy; this connection waits in the accept queue. The
        // acceptor takes connections in arrival order, so it is queued
        // before the next one is looked at.
        let mut waiting = NetClient::connect(&addr).unwrap();
        // Queue full (1 waiting) and at the connection cap: shed.
        let mut shed = NetClient::connect(&addr).unwrap();
        let err = shed.query(0, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "expected BUSY, got {err}");

        // Closing the pinned connection frees the worker for the waiting one.
        drop(pinned);
        assert_eq!(waiting.query(0, 3).unwrap(), 12);
        let stats = net.shutdown();
        assert_eq!(stats.connections_shed, 1, "admission control must have shed exactly one");
    }

    #[test]
    fn keyed_update_over_tcp_is_idempotent() {
        let g = diamond();
        let (server, net) = start_net(&g, fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();

        let first = client.update_keyed(77, &[EdgeUpdate::new(0, 1, 5)]).unwrap();
        assert!(first.applied);
        assert_eq!(first.generation, 1, "BATCH carries the batch's own seq");

        // Simulated retry after a lost ack: same key, fresh connection.
        let mut retry = NetClient::connect(&net.local_addr()).unwrap();
        let second = retry.update_keyed(77, &[EdgeUpdate::new(0, 1, 5)]).unwrap();
        assert!(second.applied);
        assert_eq!(second.generation, 1, "ack must carry the original seq, not a new one");
        assert_eq!(client.query(0, 1).unwrap(), 5);

        net.shutdown();
        assert_eq!(server.generation(), 1, "the retry must not have re-applied");
        assert_eq!(server.stats().dedup_hits, 1);
    }

    #[test]
    fn update_keyed_retry_succeeds_on_a_healthy_server() {
        let g = diamond();
        let (_server, net) = start_net(&g, fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();
        let out = client
            .update_keyed_retry(5, &[EdgeUpdate::new(2, 3, 1)], RetryPolicy::default())
            .unwrap();
        assert!(out.applied);
        assert_eq!(client.query(0, 3).unwrap(), 8);
        net.shutdown();
    }

    /// A reconnect must not carry buffered bytes over: the first connection
    /// dies after three bytes of its response, and the retry on the second
    /// connection must parse the second response from its first byte.
    #[test]
    fn update_keyed_retry_drops_bytes_buffered_from_the_dead_connection() {
        use std::os::unix::net::UnixListener;
        let path = std::env::temp_dir().join(format!("stl-retry-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let answer = |applied: bool, generation: u64| {
            let mut conn = Framed::new(Vec::new());
            let reason = String::new();
            conn.send_response(&Response::Batch { applied, generation, reason }).unwrap();
            conn.stream
        };
        let first = answer(false, 1);
        let second = answer(true, 7);
        let peer = std::thread::spawn(move || {
            for reply in [&first[..3], &second[..]] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut len = [0u8; 4];
                stream.read_exact(&mut len).unwrap();
                let mut request = vec![0u8; u32::from_le_bytes(len) as usize];
                stream.read_exact(&mut request).unwrap();
                assert!(matches!(Request::decode(&request), Ok(Request::UpdateKeyed { .. })));
                stream.write_all(reply).unwrap();
            } // each stream closes here
        });
        let mut client = NetClient::connect(&Endpoint::Unix(path.clone())).unwrap();
        let out = client
            .update_keyed_retry(9, &[EdgeUpdate::new(0, 1, 2)], RetryPolicy::new(1, 1, 3))
            .unwrap();
        assert_eq!(out, RemoteOutcome { applied: true, generation: 7, reason: String::new() });
        peer.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// One socket read per request on sequential traffic: each request frame
    /// is written whole and read whole, prefix and payload together.
    #[test]
    fn sequential_requests_take_one_socket_read_each() {
        let g = diamond();
        let path = std::env::temp_dir().join(format!("stl-reads-{}.sock", std::process::id()));
        let (_server, net) = start_net_on(&g, &format!("unix:{}", path.display()), fast_cfg());
        let mut client = NetClient::connect(&net.local_addr()).unwrap();
        for i in 0..100 {
            assert_eq!(client.query(i % 4, 3).unwrap(), [12, 9, 5, 0][i as usize % 4]);
        }
        drop(client);
        let stats = net.shutdown();
        assert_eq!(stats.requests_served, 100);
        assert_eq!(stats.socket_reads, 100);
    }

    #[test]
    fn retry_policy_backoffs_respect_ceiling_and_cap() {
        let mut p = RetryPolicy::new(10, 40, 8);
        for attempt in 0..8 {
            let ceiling = (10u64 << attempt).min(40);
            for _ in 0..32 {
                let d = p.backoff(attempt);
                assert!(
                    d <= Duration::from_millis(ceiling),
                    "attempt {attempt}: {d:?} exceeds {ceiling} ms"
                );
            }
        }
        // Full jitter actually varies (not a constant schedule).
        let samples: Vec<Duration> = (0..16).map(|_| p.backoff(7)).collect();
        assert!(samples.iter().any(|d| *d != samples[0]), "jitter must vary");
        // max_attempts is clamped to at least one try.
        assert_eq!(RetryPolicy::new(1, 1, 0).max_attempts, 1);
    }

    #[test]
    fn stop_releases_workers_holding_idle_connections() {
        let g = diamond();
        let (_server, net) = start_net(&g, fast_cfg());
        let _idle = NetClient::connect(&net.local_addr()).unwrap();
        let t0 = Instant::now();
        net.shutdown(); // must not wait for the idle client to hang up
        assert!(t0.elapsed() < Duration::from_secs(5), "shutdown stalled on an idle connection");
    }
}
