//! Process-sharded deployment: a scatter-gather **router** in front of N
//! shard-worker processes.
//!
//! ## Replication model
//!
//! Every worker is a *full replica* running the ordinary serving stack
//! ([`StlServer`](crate::StlServer) + WAL + transport) with one twist:
//! [`crate::ServerConfig::owned_shards`] restricts label repair to the spine
//! plus a closed set of subtree shards ([`ShardSet::for_worker`] —
//! worker `k` of `n` owns subtree `s` iff `(s − 1) mod n == k`). Every
//! update batch is **broadcast to all workers**; each applies every weight
//! change (so graphs stay identical) but repairs only its owned label
//! units. The resulting invariant, pinned by `stl_core::shard`'s tests:
//!
//! * **spine label entries are exact on every replica** — any worker can
//!   answer any query whose common-ancestor scan stays on the spine
//!   (cross-tree pairs, spine endpoints);
//! * **deep (subtree) entries are exact on the owner** — a same-tree query
//!   must go to the tree's owner, and to nobody else.
//!
//! ## Sequence-number lockstep
//!
//! The router owns the cluster's update order. Batches are validated once
//! against topology (deterministic, so workers would agree anyway), stamped
//! with sequence number `cluster_generation + 1`, and replicated serially
//! under the sequencer lock via the `APPLY` opcode — which bypasses worker
//! batching precisely so that *batch seq == worker generation* stays true
//! on every replica. Workers refuse a gap (`apply out of order`) instead of
//! silently diverging; the router heals a refusal by replaying its bounded
//! **catch-up ring** of recent `(seq, batch)` pairs, the same mechanism
//! that re-synchronises a respawned worker after WAL recovery
//! ([`Router::reattach`]).
//!
//! ## Failure semantics
//!
//! A dead worker degrades the deployment, it does not take it down:
//! queries that *must* touch the dead worker's subtrees **fail fast** with
//! an explicit error; everything else is re-routed to live replicas.
//! Updates keep flowing (applied iff at least one replica acked — the
//! router's ring + the worker WALs re-converge the rest). Once a
//! supervisor respawns the worker, [`Router::reattach`] verifies its
//! recovered generation, replays the ring tail, and only then marks it
//! live again.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use stl_core::{Hierarchy, ShardSet, StlConfig, SPINE_SHARD};
use stl_graph::{CsrGraph, Dist, EdgeUpdate, VertexId};

use crate::frame::{Framed, ReadEnd};
use crate::proto::{Endpoint, RemoteOutcome, RemoteStats, Request, Response};
use crate::server::validate_batch;
use crate::transport::{retryable, NetClient, NetListener, NetStream};
use crate::DedupWindow;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Capacity of the catch-up ring: how many recent `(seq, batch)` pairs
    /// the router retains to re-synchronise a lagging or respawned worker.
    /// A worker that falls further behind than this cannot be caught up and
    /// stays down.
    pub catchup_ring: usize,
    /// Capacity of the idempotency-key window for keyed updates routed
    /// through the deployment.
    pub dedup_window: usize,
    /// How long to keep retrying the initial connection to each worker.
    pub connect_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { catchup_ring: 4096, dedup_window: 4096, connect_timeout_ms: 10_000 }
    }
}

/// Router-local counters (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries (including one-to-many) dispatched to a worker.
    pub queries_routed: u64,
    /// Update batches replicated across the deployment.
    pub updates_routed: u64,
    /// Requests refused because the only worker that could answer exactly
    /// is down.
    pub failfast_errors: u64,
    /// Catch-up replays that brought a worker back in step (inline heals
    /// and [`Router::reattach`] both count).
    pub respawn_catchups: u64,
}

struct WorkerSlot {
    endpoint: Endpoint,
    /// The router's persistent connection to this worker; `None` while the
    /// worker is down.
    conn: Mutex<Option<NetClient>>,
    live: AtomicBool,
}

struct Sequencer {
    /// Number of batches applied cluster-wide; the next batch is `+ 1`.
    cluster_gen: u64,
    /// Recent `(seq, batch)` pairs for catch-up, oldest first.
    ring: VecDeque<(u64, Vec<EdgeUpdate>)>,
    /// Client idempotency key → the seq that applied it.
    dedup: DedupWindow,
}

struct Counters {
    queries_routed: AtomicU64,
    updates_routed: AtomicU64,
    failfast_errors: AtomicU64,
    respawn_catchups: AtomicU64,
}

/// The scatter-gather front of a process-sharded deployment. See the
/// module docs for the replication and routing model.
pub struct Router {
    hier: Hierarchy,
    graph: CsrGraph,
    workers: Vec<WorkerSlot>,
    seq: Mutex<Sequencer>,
    cfg: RouterConfig,
    counters: Counters,
}

impl Router {
    /// Connect to a deployment of `workers` (worker `k`'s endpoint at index
    /// `k` — the index defines shard ownership). Builds the same stable
    /// tree hierarchy the workers built (it is weight-independent and
    /// deterministic for a given graph), so router and workers agree on
    /// `tree_of` without exchanging it.
    ///
    /// Fails if any worker is unreachable within the connect timeout or if
    /// the workers disagree on their generation — a deployment must start
    /// from a consistent cut (fresh, or all recovered from the same
    /// sequence of batches).
    pub fn connect(graph: CsrGraph, workers: &[Endpoint], cfg: RouterConfig) -> io::Result<Self> {
        assert!(!workers.is_empty(), "a deployment needs at least one worker");
        let hier = Hierarchy::build(&graph, &StlConfig::default());
        let timeout = Duration::from_millis(cfg.connect_timeout_ms);
        let mut slots = Vec::with_capacity(workers.len());
        let mut generations = Vec::with_capacity(workers.len());
        for endpoint in workers {
            let mut client = NetClient::connect_retry(endpoint, timeout)?;
            generations.push(client.stats()?.generation);
            slots.push(WorkerSlot {
                endpoint: endpoint.clone(),
                conn: Mutex::new(Some(client)),
                live: AtomicBool::new(true),
            });
        }
        let gen0 = generations[0];
        if generations.iter().any(|&g| g != gen0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("workers disagree on generation: {generations:?}"),
            ));
        }
        Ok(Self {
            hier,
            graph,
            workers: slots,
            seq: Mutex::new(Sequencer {
                cluster_gen: gen0,
                ring: VecDeque::new(),
                dedup: DedupWindow::new(cfg.dedup_window),
            }),
            cfg,
            counters: Counters {
                queries_routed: AtomicU64::new(0),
                updates_routed: AtomicU64::new(0),
                failfast_errors: AtomicU64::new(0),
                respawn_catchups: AtomicU64::new(0),
            },
        })
    }

    /// Number of workers in the deployment (live or not).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Workers currently marked live.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.live.load(Ordering::Relaxed)).count()
    }

    /// The cluster generation: how many batches have been applied through
    /// this router (on top of whatever the workers recovered at attach).
    pub fn generation(&self) -> u64 {
        self.seq.lock().unwrap().cluster_gen
    }

    /// Router-local counters.
    pub fn local_stats(&self) -> RouterStats {
        RouterStats {
            queries_routed: self.counters.queries_routed.load(Ordering::Relaxed),
            updates_routed: self.counters.updates_routed.load(Ordering::Relaxed),
            failfast_errors: self.counters.failfast_errors.load(Ordering::Relaxed),
            respawn_catchups: self.counters.respawn_catchups.load(Ordering::Relaxed),
        }
    }

    fn failfast(&self, what: &str, shard: u32, owner: usize) -> io::Error {
        self.counters.failfast_errors.fetch_add(1, Ordering::Relaxed);
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("{what} requires subtree {shard}, owned by dead worker {owner}"),
        )
    }

    /// Pick the worker a `s → t` query must (or may best) go to.
    ///
    /// * same subtree on both ends → the owner, **exactly** — its deep
    ///   labels are the only exact copies; fail fast if it is down;
    /// * anything else (cross-tree, spine endpoint) is answered by spine
    ///   label prefixes, exact on every replica → prefer a live owner of an
    ///   endpoint's tree, else any live worker.
    fn route_query(&self, s: VertexId, t: VertexId) -> io::Result<usize> {
        let n = self.workers.len();
        let ts = self.hier.tree_of(s);
        let tt = self.hier.tree_of(t);
        if ts == tt && ts != SPINE_SHARD {
            let owner = ShardSet::owner_of(ts, n).expect("subtree shard has an owner");
            if !self.workers[owner].live.load(Ordering::Relaxed) {
                return Err(self.failfast("query", ts, owner));
            }
            return Ok(owner);
        }
        for shard in [ts, tt] {
            if let Some(owner) = ShardSet::owner_of(shard, n) {
                if self.workers[owner].live.load(Ordering::Relaxed) {
                    return Ok(owner);
                }
            }
        }
        self.any_live().ok_or_else(|| {
            self.counters.failfast_errors.fetch_add(1, Ordering::Relaxed);
            io::Error::new(io::ErrorKind::ConnectionAborted, "no live workers")
        })
    }

    fn any_live(&self) -> Option<usize> {
        self.workers.iter().position(|w| w.live.load(Ordering::Relaxed))
    }

    fn check_vertex(&self, v: VertexId) -> io::Result<()> {
        if u64::from(v) >= self.graph.num_vertices() as u64 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "vertex out of range"));
        }
        Ok(())
    }

    /// Run `op` on worker `idx`'s connection; an I/O-level failure marks
    /// the worker down (protocol-level errors do not).
    fn with_worker<R>(
        &self,
        idx: usize,
        op: impl FnOnce(&mut NetClient) -> io::Result<R>,
    ) -> io::Result<R> {
        let slot = &self.workers[idx];
        let mut guard = slot.conn.lock().unwrap();
        let client = guard.as_mut().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, format!("worker {idx} is down"))
        })?;
        match op(client) {
            Ok(r) => Ok(r),
            Err(e) => {
                if retryable(e.kind()) {
                    slot.live.store(false, Ordering::Relaxed);
                    *guard = None;
                }
                Err(e)
            }
        }
    }

    /// Exact distance query, routed per the ownership rules.
    pub fn query(&self, s: VertexId, t: VertexId) -> io::Result<Dist> {
        self.check_vertex(s)?;
        self.check_vertex(t)?;
        let idx = self.route_query(s, t)?;
        self.counters.queries_routed.fetch_add(1, Ordering::Relaxed);
        self.with_worker(idx, |c| c.query(s, t))
    }

    /// Exact one-to-many, routed to the one worker that is exact for the
    /// whole target set: the owner of `s`'s subtree answers everything
    /// (deep labels for same-tree targets, spine prefixes for the rest); a
    /// spine source needs only spine prefixes, so any live replica does.
    /// If the owner is down and any target shares `s`'s subtree, the
    /// request fails fast.
    pub fn one_to_many(&self, s: VertexId, targets: &[VertexId]) -> io::Result<Vec<Dist>> {
        self.check_vertex(s)?;
        for &t in targets {
            self.check_vertex(t)?;
        }
        let n = self.workers.len();
        let ts = self.hier.tree_of(s);
        let idx = match ShardSet::owner_of(ts, n) {
            Some(owner) if self.workers[owner].live.load(Ordering::Relaxed) => owner,
            Some(owner) => {
                if targets.iter().any(|&t| self.hier.tree_of(t) == ts) {
                    return Err(self.failfast("one_to_many", ts, owner));
                }
                // Same-tree deep labels unused: target trees ≠ source tree,
                // so every distance runs through the replicated spine.
                self.any_live().ok_or_else(|| {
                    self.counters.failfast_errors.fetch_add(1, Ordering::Relaxed);
                    io::Error::new(io::ErrorKind::ConnectionAborted, "no live workers")
                })?
            }
            None => self.any_live().ok_or_else(|| {
                self.counters.failfast_errors.fetch_add(1, Ordering::Relaxed);
                io::Error::new(io::ErrorKind::ConnectionAborted, "no live workers")
            })?,
        };
        self.counters.queries_routed.fetch_add(1, Ordering::Relaxed);
        self.with_worker(idx, |c| c.one_to_many(s, targets))
    }

    /// Replicate an update batch to every worker as the next cluster
    /// sequence number. Applied iff at least one replica acknowledged;
    /// rejected batches (validated once here, deterministically) consume no
    /// sequence number anywhere, keeping replicas in lockstep.
    pub fn update(&self, batch: Vec<EdgeUpdate>) -> io::Result<RemoteOutcome> {
        self.update_inner(None, batch)
    }

    /// [`Router::update`] under a client idempotency key: a key that
    /// already applied through this router is acknowledged with its
    /// original sequence number instead of re-replicated.
    pub fn update_keyed(&self, key: u64, batch: Vec<EdgeUpdate>) -> io::Result<RemoteOutcome> {
        self.update_inner(Some(key), batch)
    }

    fn update_inner(&self, key: Option<u64>, batch: Vec<EdgeUpdate>) -> io::Result<RemoteOutcome> {
        // The sequencer lock is held across the whole broadcast: batches
        // reach every worker in one global order, the invariant the whole
        // seq == generation scheme rests on.
        let mut seqr = self.seq.lock().unwrap();
        if let Some(k) = key {
            if let Some(seq) = seqr.dedup.get(k) {
                return Ok(RemoteOutcome { applied: true, generation: seq, reason: String::new() });
            }
        }
        if let Err(reason) = validate_batch(&self.graph, &batch) {
            // No seq consumed: every replica's generation is untouched.
            return Ok(RemoteOutcome { applied: false, generation: seqr.cluster_gen, reason });
        }
        let seq = seqr.cluster_gen + 1;
        self.counters.updates_routed.fetch_add(1, Ordering::Relaxed);
        let mut acked = 0usize;
        for idx in 0..self.workers.len() {
            if !self.workers[idx].live.load(Ordering::Relaxed) {
                continue;
            }
            if self.apply_to(idx, seq, &batch, &seqr.ring) {
                acked += 1;
            }
        }
        if acked == 0 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "no worker acknowledged the batch",
            ));
        }
        seqr.cluster_gen = seq;
        seqr.ring.push_back((seq, batch));
        while seqr.ring.len() > self.cfg.catchup_ring {
            seqr.ring.pop_front();
        }
        if let Some(k) = key {
            seqr.dedup.insert(k, seq);
        }
        Ok(RemoteOutcome { applied: true, generation: seq, reason: String::new() })
    }

    /// Apply `(seq, batch)` on worker `idx`, healing an out-of-order
    /// refusal by replaying the ring tail once. Returns whether the worker
    /// acknowledged; failures mark it down.
    fn apply_to(
        &self,
        idx: usize,
        seq: u64,
        batch: &[EdgeUpdate],
        ring: &VecDeque<(u64, Vec<EdgeUpdate>)>,
    ) -> bool {
        let first = self.with_worker(idx, |c| c.apply(seq, batch));
        match first {
            Ok(outcome) => outcome.applied,
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                // The worker refused the seq (gap): replay the ring tail,
                // then retry this batch once.
                let healed = self.with_worker(idx, |c| {
                    catch_up(c, ring)?;
                    c.apply(seq, batch)
                });
                match healed {
                    Ok(outcome) if outcome.applied => {
                        self.counters.respawn_catchups.fetch_add(1, Ordering::Relaxed);
                        true
                    }
                    _ => {
                        // Beyond the ring, or refusing still: this replica
                        // cannot converge — keep it out of the deployment.
                        self.workers[idx].live.store(false, Ordering::Relaxed);
                        *self.workers[idx].conn.lock().unwrap() = None;
                        false
                    }
                }
            }
            Err(_) => false, // with_worker already marked it down
        }
    }

    /// Re-admit worker `idx` after a supervisor respawned it: reconnect,
    /// let WAL recovery finish (retrying while the socket is still coming
    /// up), replay the catch-up ring over whatever generation it recovered
    /// to, and verify it landed exactly on the cluster generation before
    /// marking it live. Queries route to it again only after this returns
    /// `Ok`. A worker that is still marked live and answers on its current
    /// link is left alone, so a supervisor may call this for every worker
    /// whenever any of them is down.
    pub fn reattach(&self, idx: usize) -> io::Result<()> {
        // The probe goes through `with_worker`: a stale link (the process
        // was replaced before any request noticed) is marked down here and
        // falls through to the re-dial.
        if self.workers[idx].live.load(Ordering::Relaxed)
            && self.with_worker(idx, |c| c.stats()).is_ok()
        {
            return Ok(());
        }
        let endpoint = self.workers[idx].endpoint.clone();
        let timeout = Duration::from_millis(self.cfg.connect_timeout_ms);
        let mut client = NetClient::connect_retry(&endpoint, timeout)?;
        // Hold the sequencer lock across verification: no new batch may be
        // sequenced between the ring replay and the generation check.
        let seqr = self.seq.lock().unwrap();
        let recovered = client.stats()?.generation;
        if recovered > seqr.cluster_gen {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "worker {idx} recovered to generation {recovered}, ahead of cluster {}",
                    seqr.cluster_gen
                ),
            ));
        }
        if recovered < seqr.cluster_gen {
            let oldest_needed = recovered + 1;
            if seqr.ring.front().is_some_and(|(s, _)| *s > oldest_needed) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker {idx} at generation {recovered} is beyond the catch-up ring"),
                ));
            }
            catch_up(&mut client, &seqr.ring)?;
            let caught = client.stats()?.generation;
            if caught != seqr.cluster_gen {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "worker {idx} caught up to generation {caught}, cluster is at {}",
                        seqr.cluster_gen
                    ),
                ));
            }
            self.counters.respawn_catchups.fetch_add(1, Ordering::Relaxed);
        }
        *self.workers[idx].conn.lock().unwrap() = Some(client);
        self.workers[idx].live.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Deployment-wide `STATS`: worker counters summed (generation replaced
    /// by the cluster generation), with the router's own fields appended —
    /// `[.., workers_total, workers_live, queries_routed, updates_routed,
    /// failfast_errors, respawn_catchups]`. Decodes with
    /// [`RemoteStats::from_fields`], which ignores the appended tail.
    pub fn stats_fields(&self) -> io::Result<Vec<u64>> {
        let mut sum = vec![0u64; 12];
        let mut any = false;
        for idx in 0..self.workers.len() {
            if !self.workers[idx].live.load(Ordering::Relaxed) {
                continue;
            }
            if let Ok(fields) = self.with_worker(idx, |c| c.stats_fields()) {
                for (i, f) in fields.iter().take(12).enumerate() {
                    sum[i] += f;
                }
                any = true;
            }
        }
        if !any {
            return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "no live workers"));
        }
        sum[0] = self.generation();
        let local = self.local_stats();
        sum.push(self.workers.len() as u64);
        sum.push(self.live_workers() as u64);
        sum.push(local.queries_routed);
        sum.push(local.updates_routed);
        sum.push(local.failfast_errors);
        sum.push(local.respawn_catchups);
        Ok(sum)
    }

    /// [`Router::stats_fields`] decoded into the shared counter set.
    pub fn stats(&self) -> io::Result<RemoteStats> {
        RemoteStats::from_fields(&self.stats_fields()?)
    }
}

/// Replay every ring entry newer than the worker's generation, in order.
/// Entries at or below it ack idempotently through the worker's dedup
/// window, so replaying "too much" is harmless.
fn catch_up(client: &mut NetClient, ring: &VecDeque<(u64, Vec<EdgeUpdate>)>) -> io::Result<()> {
    let generation = client.stats()?.generation;
    for (seq, batch) in ring.iter().filter(|(s, _)| *s > generation) {
        let outcome = client.apply(*seq, batch)?;
        if !outcome.applied {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("catch-up batch {seq} rejected: {}", outcome.reason),
            ));
        }
    }
    Ok(())
}

// ---- protocol front ------------------------------------------------------

/// Serves the [`Router`] over the same wire protocol the workers speak, so
/// [`NetClient`] (and `stl bench-net`) cannot tell a deployment from a
/// single process. Thread-per-connection: the router fan-out itself is the
/// bottleneck, not connection handling, and the front is expected to carry
/// a handful of load generators, not thousands of sockets.
pub struct RouterServer {
    router: Arc<Router>,
    local_addr: Endpoint,
    unix_path: Option<PathBuf>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl RouterServer {
    /// Bind `listen` (same grammar as the worker transport) and serve
    /// `router` until [`RouterServer::shutdown`].
    pub fn start(router: Arc<Router>, listen: &str) -> io::Result<Self> {
        let endpoint = Endpoint::parse(listen)?;
        let (listener, local_addr) = NetListener::bind(&endpoint)?;
        let unix_path = match &local_addr {
            Endpoint::Unix(p) => Some(p.clone()),
            Endpoint::Tcp(_) => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("stl-route-accept".into())
                .spawn(move || accept_front(&listener, &router, &stop))
                .expect("spawn router acceptor")
        };
        Ok(Self { router, local_addr, unix_path, stop, acceptor: Some(acceptor) })
    }

    /// The address the front actually bound.
    pub fn local_addr(&self) -> Endpoint {
        self.local_addr.clone()
    }

    /// The routed deployment behind this front.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stop accepting and join every connection thread.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Returns once every connection thread has seen the stop flag.
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Accept front connections until `stop`, one thread each. The threads are
/// scoped to this loop: a dropped scoped handle detaches its thread, so an
/// exited one frees its stack at once, and the scope still waits for every
/// connection before the acceptor returns.
fn accept_front(listener: &NetListener, router: &Router, stop: &AtomicBool) {
    std::thread::scope(|scope| {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(stream) => {
                    std::thread::Builder::new()
                        .name("stl-route-conn".into())
                        .spawn_scoped(scope, move || serve_front(router, stream, stop))
                        .expect("spawn router connection thread");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
}

fn serve_front(router: &Router, stream: NetStream, stop: &AtomicBool) {
    stream.set_nodelay();
    if stream.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    let idle = Some(Duration::from_secs(30));
    let mut conn = Framed::new(stream);
    loop {
        let payload = match conn.recv_polling(stop, idle, None) {
            Ok(p) => p,
            Err(ReadEnd::Malformed(why)) => {
                let _ = conn.send_response(&Response::Error(why.into()));
                return;
            }
            Err(_) => return,
        };
        let response = match Request::decode(payload) {
            Err(why) => {
                let _ = conn.send_response(&Response::Error(why.into()));
                return;
            }
            Ok(Request::Query { s, t }) => reply(router.query(s, t), Response::Dist),
            Ok(Request::OneToMany { s, targets }) => {
                reply(router.one_to_many(s, &targets), Response::Many)
            }
            Ok(Request::Update(batch)) => reply(router.update(batch), outcome_response),
            Ok(Request::UpdateKeyed { key, batch }) => {
                reply(router.update_keyed(key, batch), outcome_response)
            }
            // The router *originates* APPLY; accepting one would let a
            // client desequence the deployment.
            Ok(Request::Apply { .. }) => Response::Error("router does not accept APPLY".into()),
            Ok(Request::Stats) => reply(router.stats_fields(), Response::Stats),
        };
        if conn.send_response(&response).is_err() {
            return;
        }
    }
}

/// Fold a routed result into a wire response: fail-fast and transport
/// errors become explicit `ERROR` frames, never silent drops.
fn reply<T>(result: io::Result<T>, ok: impl FnOnce(T) -> Response) -> Response {
    match result {
        Ok(v) => ok(v),
        Err(e) => Response::Error(e.to_string()),
    }
}

fn outcome_response(outcome: RemoteOutcome) -> Response {
    Response::Batch {
        applied: outcome.applied,
        generation: outcome.generation,
        reason: outcome.reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, StlServer};
    use crate::transport::{NetConfig, NetServer};
    use crate::BatcherConfig;
    use stl_core::Stl;
    use stl_workloads::{generate, RoadNetConfig};

    /// One worker process-equivalent: a full NetServer whose ServerConfig
    /// owns worker `k`'s shard slice.
    fn spawn_worker(g: &CsrGraph, hier: &Hierarchy, k: usize, n: usize, listen: &str) -> NetServer {
        worker_transport(worker_server(g, hier, k, n), listen)
    }

    fn worker_server(g: &CsrGraph, hier: &Hierarchy, k: usize, n: usize) -> Arc<StlServer> {
        let stl = Stl::build(g, &StlConfig::default());
        let cfg = ServerConfig {
            owned_shards: Some(ShardSet::for_worker(hier, k, n)),
            ..ServerConfig::default()
        };
        Arc::new(StlServer::start(g.clone(), stl, cfg))
    }

    fn worker_transport(server: Arc<StlServer>, listen: &str) -> NetServer {
        let net_cfg = NetConfig {
            batcher: BatcherConfig { latency_ms: 0, ..Default::default() },
            ..Default::default()
        };
        NetServer::start(server, listen, net_cfg).expect("bind worker")
    }

    /// An in-process n-worker deployment; `mk_listen(k)` picks each
    /// worker's listen spec (loopback TCP or a unix path).
    fn deployment_on(
        g: &CsrGraph,
        n: usize,
        mk_listen: impl Fn(usize) -> String,
    ) -> (Vec<NetServer>, Router) {
        let hier = Hierarchy::build(g, &StlConfig::default());
        let mut nets = Vec::new();
        let mut endpoints = Vec::new();
        for k in 0..n {
            let net = spawn_worker(g, &hier, k, n, &mk_listen(k));
            endpoints.push(net.local_addr());
            nets.push(net);
        }
        let router = Router::connect(g.clone(), &endpoints, RouterConfig::default()).unwrap();
        (nets, router)
    }

    fn deployment(g: &CsrGraph, n: usize) -> (Vec<NetServer>, Router) {
        deployment_on(g, n, |_| "127.0.0.1:0".into())
    }

    fn oracle(g: &CsrGraph, s: VertexId, t: VertexId) -> Dist {
        stl_pathfinding::dijkstra::distance(g, s, t)
    }

    #[test]
    fn routed_queries_match_the_oracle_after_updates() {
        let g = generate(&RoadNetConfig::sized(180, 7));
        let (nets, router) = deployment(&g, 2);

        // A few update rounds touching many trees, each broadcast.
        let mut live = g.clone();
        for (round, (a, b, w)) in g.edges().take(6).enumerate() {
            let nw = if round % 2 == 0 { w * 3 } else { (w / 2).max(1) };
            let out = router.update(vec![EdgeUpdate::new(a, b, nw)]).unwrap();
            assert!(out.applied, "round {round}: {}", out.reason);
            assert_eq!(out.generation, round as u64 + 1, "cluster seq must be dense");
            live.set_weight(a, b, nw).unwrap();
        }
        assert_eq!(router.generation(), 6);

        // Every pair class (same-tree, cross-tree, spine) against Dijkstra.
        let n = g.num_vertices() as VertexId;
        for s in (0..n).step_by(13) {
            for t in (0..n).step_by(17) {
                assert_eq!(router.query(s, t).unwrap(), oracle(&live, s, t), "query({s},{t})");
            }
        }
        // One-to-many through the same routing.
        let targets: Vec<VertexId> = (0..n).step_by(11).collect();
        let many = router.one_to_many(3, &targets).unwrap();
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(many[i], oracle(&live, 3, t), "one_to_many(3 -> {t})");
        }

        let fields = router.stats_fields().unwrap();
        assert_eq!(fields[0], 6, "aggregated generation is the cluster generation");
        assert_eq!(fields[12], 2, "workers_total");
        assert_eq!(fields[13], 2, "workers_live");
        assert!(fields[14] > 0, "queries_routed");
        assert_eq!(fields[15], 6, "updates_routed");
        drop(nets);
    }

    #[test]
    fn dead_worker_fails_fast_and_reattaches_through_catchup() {
        let g = generate(&RoadNetConfig::sized(150, 5));
        let hier = Hierarchy::build(&g, &StlConfig::default());
        // Unix sockets: the "respawned" worker can rebind the exact same
        // endpoint, as a supervisor-restarted process would.
        let dir = std::env::temp_dir().join(format!("stl-router-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |k: usize| format!("unix:{}", dir.join(format!("w{k}.sock")).display());
        let (mut nets, router) = deployment_on(&g, 2, mk);

        // Kill worker 1 (simulated: shut its transport down).
        let dead = nets.remove(1);
        dead.shutdown();
        // The router notices on the next I/O touching it.
        let _ = router
            .update(g.edges().take(1).map(|(a, b, w)| EdgeUpdate::new(a, b, w * 2)).collect());
        assert_eq!(router.live_workers(), 1);

        // Same-tree queries inside worker-1 trees fail fast; everything
        // else keeps answering.
        let n = g.num_vertices() as VertexId;
        let mut dead_pair = None;
        let mut live_pair = None;
        'outer: for s in 0..n {
            for t in 0..n {
                let ts = hier.tree_of(s);
                if ts == hier.tree_of(t) && ts != SPINE_SHARD {
                    match ShardSet::owner_of(ts, 2) {
                        Some(1) => dead_pair = dead_pair.or(Some((s, t))),
                        Some(0) => live_pair = live_pair.or(Some((s, t))),
                        _ => {}
                    }
                    if dead_pair.is_some() && live_pair.is_some() {
                        break 'outer;
                    }
                }
            }
        }
        let (ds, dt) = dead_pair.expect("some tree owned by worker 1");
        let err = router.query(ds, dt).unwrap_err();
        assert!(err.to_string().contains("dead worker 1"), "got: {err}");
        let (ls, lt) = live_pair.expect("some tree owned by worker 0");
        assert_eq!(router.query(ls, lt).unwrap(), oracle(&g_after(&g, &router), ls, lt));
        assert!(router.local_stats().failfast_errors >= 1);

        // Updates keep flowing on the surviving replica.
        let (a, b, w) = g.edges().nth(3).unwrap();
        assert!(router.update(vec![EdgeUpdate::new(a, b, w + 9)]).unwrap().applied);

        // "Respawn": a fresh worker process at generation 0 on the same
        // endpoint; reattach must replay the ring to the cluster
        // generation before marking it live.
        let listen = router.workers[1].endpoint.to_string();
        let net = spawn_worker(&g, &hier, 1, 2, &listen);
        router.reattach(1).expect("reattach after respawn");
        assert_eq!(router.live_workers(), 2);
        assert!(router.local_stats().respawn_catchups >= 1, "ring replay must have run");

        // The reattached worker is exact again for its own trees.
        let live_g = g_after(&g, &router);
        assert_eq!(router.query(ds, dt).unwrap(), oracle(&live_g, ds, dt));
        nets.push(net);
        drop(nets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The idle-deployment failure: a worker whose *process is fine* drops
    /// the router's link (an idle timeout, a transport restart). The next
    /// request touching it marks it down; `reattach` on the same, still
    /// running worker must bring it back with nothing to replay.
    #[test]
    fn lost_link_to_a_running_worker_reattaches_without_catchup() {
        let g = generate(&RoadNetConfig::sized(150, 5));
        let hier = Hierarchy::build(&g, &StlConfig::default());
        let dir = std::env::temp_dir().join(format!("stl-router-link-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listen = |k: usize| format!("unix:{}", dir.join(format!("w{k}.sock")).display());
        let servers: Vec<Arc<StlServer>> = (0..2).map(|k| worker_server(&g, &hier, k, 2)).collect();
        let mut nets: Vec<NetServer> =
            (0..2).map(|k| worker_transport(Arc::clone(&servers[k]), &listen(k))).collect();
        let endpoints: Vec<Endpoint> = nets.iter().map(|n| n.local_addr()).collect();
        let router = Router::connect(g.clone(), &endpoints, RouterConfig::default()).unwrap();
        let (a, b, w) = g.edges().next().unwrap();
        assert!(router.update(vec![EdgeUpdate::new(a, b, w * 2)]).unwrap().applied);

        // Worker 1 keeps its StlServer (generation 1, labels, dedup window);
        // only its transport goes away and comes back on the same endpoint.
        nets.remove(1).shutdown();
        nets.push(worker_transport(Arc::clone(&servers[1]), &listen(1)));

        // A query only worker 1 may answer finds the dead link: an I/O error
        // that marks the worker down, then explicit fail-fast.
        let n = g.num_vertices() as VertexId;
        let (s, t) = (0..n)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .find(|&(s, t)| {
                let ts = hier.tree_of(s);
                s != t && ts == hier.tree_of(t) && ShardSet::owner_of(ts, 2) == Some(1)
            })
            .expect("some tree owned by worker 1");
        assert!(router.query(s, t).is_err(), "the old link is gone");
        assert_eq!(router.live_workers(), 1);
        let err = router.query(s, t).unwrap_err();
        assert!(err.to_string().contains("dead worker 1"), "got: {err}");

        // The supervisor re-dials every running worker; a live one is a no-op.
        router.reattach(0).expect("worker 0 is live");
        assert_eq!(router.live_workers(), 1);
        router.reattach(1).expect("worker 1 never stopped; only the link did");
        assert_eq!(router.live_workers(), 2);
        let out = router.update(vec![EdgeUpdate::new(a, b, w * 3)]).unwrap();
        assert!(out.applied, "{}", out.reason);
        assert_eq!((out.generation, router.generation()), (2, 2));
        for (k, server) in servers.iter().enumerate() {
            assert_eq!(server.generation(), 2, "worker {k} must have acknowledged the batch");
        }
        assert_eq!(router.local_stats().respawn_catchups, 0, "nothing was missed, nothing replays");
        assert_eq!(router.query(s, t).unwrap(), oracle(&g_after(&g, &router), s, t));
        drop(nets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rebuild the current graph by replaying the router's ring over `g` —
    /// test-side bookkeeping for oracle checks.
    fn g_after(g: &CsrGraph, router: &Router) -> CsrGraph {
        let mut live = g.clone();
        for (_, batch) in router.seq.lock().unwrap().ring.iter() {
            for u in batch {
                live.set_weight(u.a, u.b, u.new_weight).unwrap();
            }
        }
        live
    }

    #[test]
    fn router_front_speaks_the_worker_protocol() {
        let g = generate(&RoadNetConfig::sized(120, 3));
        let (nets, router) = deployment(&g, 2);
        let front = RouterServer::start(Arc::new(router), "127.0.0.1:0").unwrap();
        let mut client = NetClient::connect(&front.local_addr()).unwrap();

        let (a, b, w) = g.edges().next().unwrap();
        let out = client.update(&[EdgeUpdate::new(a, b, w * 2)]).unwrap();
        assert!(out.applied);
        assert_eq!(out.generation, 1);
        let mut live = g.clone();
        live.set_weight(a, b, w * 2).unwrap();
        assert_eq!(client.query(0, 60).unwrap(), oracle(&live, 0, 60));
        assert_eq!(
            client.one_to_many(0, &[10, 20, 30]).unwrap(),
            vec![oracle(&live, 0, 10), oracle(&live, 0, 20), oracle(&live, 0, 30)]
        );

        // Keyed dedup at the router: same key acks the original seq.
        let k1 = client.update_keyed(42, &[EdgeUpdate::new(a, b, w * 4)]).unwrap();
        assert!(k1.applied);
        let k2 = client.update_keyed(42, &[EdgeUpdate::new(a, b, w * 4)]).unwrap();
        assert!(k2.applied);
        assert_eq!(k2.generation, k1.generation, "retry acks the original seq");

        // APPLY from a client is refused.
        let err = client.apply(99, &[EdgeUpdate::new(a, b, w)]).unwrap_err();
        assert!(err.to_string().contains("does not accept APPLY"), "got: {err}");

        // Aggregated stats flow through the same STATS opcode, tail intact.
        let fields = client.stats_fields().unwrap();
        assert!(fields.len() >= 18, "router must append its fields");
        assert_eq!(fields[12], 2, "workers_total");
        let decoded = RemoteStats::from_fields(&fields).unwrap();
        assert_eq!(decoded.generation, 2);

        // A rejected batch consumes no cluster generation.
        let out = client.update(&[EdgeUpdate::new(0, 0, 5)]).unwrap();
        assert!(!out.applied);
        assert_eq!(front.router().generation(), 2);
        // Shutdown returns while the client still holds its idle connection:
        // the connection thread exits on its stop-flag poll and closes it.
        front.shutdown();
        assert!(client.query(0, 1).is_err());
        drop(nets);
    }
}
