//! The service: one supervised writer thread, any number of snapshot readers.
//!
//! The writer validates, logs, and applies each batch — label repair runs
//! inline on the writer thread, one stable tree after another
//! (`Stl::apply_batch_sharded_owned`) — then publishes the new epoch with
//! one pointer swap. The epoch it replaces is dropped after the swap lock
//! is released and the waiters are woken, so readers never wait on it.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use stl_core::{failpoint, EnginePool, Maintenance, ShardSet, Stl};
use stl_graph::{CsrGraph, Dist, EdgeUpdate, VertexId, INF};

use crate::durable::{self, DedupWindow, DurabilityConfig, QuietStreak, RecoveryReport};
use crate::snapshot::Snapshot;
use crate::stats::{ServerStats, StatsCells};
use crate::wal::WalWriter;

/// Lock a mutex, recovering from poisoning: the writer thread can die at an
/// injected failpoint while holding any of the shared locks, and the state
/// they guard stays consistent (every multi-step transition is finished or
/// rolled back by the supervisor), so the poison flag carries no information
/// here.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_ok<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_ok<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// What happened to a submitted batch (see [`Ticket::wait`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The batch validated, was applied, and its epoch is published: every
    /// snapshot taken after `wait_for` returned reflects it.
    Applied {
        /// The batch's **sequence number**, equal to the generation its epoch
        /// published (and, on a durable server, to its WAL record's sequence
        /// number) — the handle a client stores to correlate snapshots,
        /// checkpoints, and idempotent retries. Sequence numbers start at 1.
        seq: u64,
    },
    /// The batch failed validation and was dropped **before any mutation** —
    /// graph, labels, and generation are exactly as if it was never
    /// submitted, and the writer keeps serving later batches. The payload is
    /// a human-readable reason naming the first offending update.
    ///
    /// A batch in flight when the writer died is also reported here, with
    /// reason `"writer restarted"` — it was rolled back (including its WAL
    /// record) and can be resubmitted, idempotently if keyed.
    Rejected(String),
}

impl BatchOutcome {
    /// Whether the batch was applied and published.
    pub fn is_applied(&self) -> bool {
        matches!(self, BatchOutcome::Applied { .. })
    }
}

/// Validate a batch against the (immutable) topology of `g` without applying
/// anything: every update must target an existing edge between distinct
/// in-range vertices with a finite weight. Returns the first violation as a
/// human-readable reason.
///
/// This is the gate that makes the serving path total: `Stl::apply_batch`
/// panics on a missing edge (its documented in-process contract), so the
/// writer — and the transport's [`crate::AdaptiveBatcher`] in front of it —
/// run this check first and turn bad input into
/// [`BatchOutcome::Rejected`] instead of a dead writer thread. Validation is
/// purely topological (road-network structure is fixed, §8), so a batch that
/// passes here never panics in the apply path regardless of concurrent
/// weight changes. The write-ahead log records only batches that passed this
/// gate, which is what makes replay infallible on an unchanged graph file.
pub fn validate_batch(g: &CsrGraph, batch: &[EdgeUpdate]) -> Result<(), String> {
    let n = g.num_vertices() as u64;
    for (i, u) in batch.iter().enumerate() {
        if u64::from(u.a) >= n || u64::from(u.b) >= n {
            return Err(format!(
                "update {i}: vertex out of range (({}, {}) in a {n}-vertex graph)",
                u.a, u.b
            ));
        }
        if u.a == u.b {
            return Err(format!("update {i}: self-loop update on vertex {}", u.a));
        }
        if u.new_weight == INF {
            return Err(format!(
                "update {i}: weight INF is reserved for unreachability; road closures are \
                 structural updates, not weight updates"
            ));
        }
        if !g.has_edge(u.a, u.b) {
            return Err(format!("update {i}: no edge between {} and {}", u.a, u.b));
        }
    }
    Ok(())
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maintenance family the writer uses for every batch.
    pub algo: Maintenance,
    /// Read by nothing: label repair runs inline on the writer thread. The
    /// field stays only so the frozen benchmark harness keeps compiling —
    /// delete with the next `[benchmark]` issue.
    #[doc(hidden)]
    pub repair_threads: usize,
    /// Read by nothing: epoch compaction is gone, and a durable server's
    /// checkpoint schedule is fixed ([`crate::durable::CHECKPOINT_QUIET_EPOCHS`]).
    /// The field stays only so the frozen benchmark harness keeps compiling
    /// — delete with the next `[benchmark]` issue.
    #[doc(hidden)]
    pub compact_after_quiet_epochs: u32,
    /// How many idempotency keys the server remembers (default 4096; `0`
    /// disables dedup). A keyed update whose key is still in the window is
    /// acknowledged with its original sequence number instead of being
    /// re-applied — the guarantee that makes client retries after a timeout,
    /// dropped connection, or writer restart safe. Eviction is FIFO.
    pub dedup_window: usize,
    /// How many times the supervisor respawns a dead writer thread before
    /// giving up and failing outstanding waiters (default 8). Writer deaths
    /// are internal bugs or injected faults — bad input is rejected by
    /// validation, never fatal — so a low ceiling suffices to distinguish
    /// "survived an injected crash" from "crashing in a loop".
    pub max_writer_restarts: u32,
    /// Shard-ownership filter for process-sharded deployments (`None` = own
    /// everything, the default). A shard worker serving a subset of the
    /// subtrees sets this to its [`ShardSet`]: every batch still applies all
    /// weight changes (the graph replica stays exact), but label repair runs
    /// only for the spine and the owned subtrees — on apply *and* on WAL
    /// replay during recovery, so a respawned worker comes back in exactly
    /// its serving state.
    pub owned_shards: Option<ShardSet>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            algo: Maintenance::ParetoSearch,
            repair_threads: 1,
            compact_after_quiet_epochs: 0,
            dedup_window: 4096,
            max_writer_restarts: 8,
            owned_shards: None,
        }
    }
}

/// A submitted batch's outcome slot, resolved exactly once and read any
/// number of times; clones share the slot. The server resolves it by the
/// writer after the publish, by the supervisor after a writer death, or by
/// the batch's drop guard if the queue is torn down. An
/// [`crate::AdaptiveBatcher`] request's ticket takes the outcome of the
/// merged batch it rode in, or is resolved at once if refused up front.
#[derive(Debug, Clone)]
pub struct Ticket(Arc<Slot>);

#[derive(Debug, Default)]
struct Slot {
    outcome: Mutex<Option<BatchOutcome>>,
    ready: Condvar,
}

impl Ticket {
    /// An unresolved ticket.
    pub(crate) fn pending() -> Self {
        Self(Arc::default())
    }

    /// A ticket already resolved to `outcome`.
    pub(crate) fn resolved(outcome: BatchOutcome) -> Self {
        let ticket = Self::pending();
        ticket.resolve(outcome);
        ticket
    }

    /// Resolve to `outcome` unless already resolved (first wins); returns
    /// whether this call resolved it.
    pub(crate) fn resolve(&self, outcome: BatchOutcome) -> bool {
        let mut slot = lock_ok(&self.0.outcome);
        if slot.is_some() {
            return false;
        }
        *slot = Some(outcome);
        drop(slot);
        self.0.ready.notify_all();
        true
    }

    /// Block until the batch is resolved and report what happened to it.
    /// Repeated calls, on this ticket or a clone, return the same outcome.
    pub fn wait(&self) -> BatchOutcome {
        let slot = lock_ok(&self.0.outcome);
        let slot =
            self.0.ready.wait_while(slot, |o| o.is_none()).unwrap_or_else(|e| e.into_inner());
        slot.clone().expect("wait_while returns once resolved")
    }
}

/// A submitted batch travelling the queue to the writer. A job dropped
/// unresolved — still queued when the supervisor gives up, or sent after it
/// exited — resolves its ticket `Rejected`, so no waiter hangs.
struct Job {
    ticket: Ticket,
    /// Idempotency keys of the client requests merged into this batch;
    /// recorded in the WAL and the dedup window at publish.
    keys: Vec<u64>,
    batch: Vec<EdgeUpdate>,
}

impl Drop for Job {
    fn drop(&mut self) {
        self.ticket.resolve(BatchOutcome::Rejected(
            "stl-writer thread terminated before the batch was processed".into(),
        ));
    }
}

/// The writer queue and its newest ticket, under one lock: `drain` waits on
/// the batch that is last in queue order.
struct Queue {
    sender: Sender<Job>,
    last: Option<Ticket>,
}

/// The durability half of the shared state: where checkpoints live and the
/// open write-ahead log.
struct DurableShared {
    cfg: DurabilityConfig,
    wal: Mutex<WalWriter>,
}

/// The batch the writer is processing right now. It lives here, never only
/// on the writer's stack, so after a writer death the supervisor is its one
/// resolver: roll it back (annulling its WAL record) and reject, or — if
/// the epoch was already published — finish its bookkeeping.
struct InFlight {
    job: Job,
    seq: u64,
    /// Byte offset of this batch's WAL record, once appended; truncating the
    /// log back to it annuls the record on rollback.
    wal_start: Option<u64>,
}

struct Shared {
    /// The publish slot. Writers hold the write half only for the pointer
    /// swap; readers clone the `Arc` out under the read half.
    current: RwLock<Arc<Snapshot>>,
    stats: StatsCells,
    /// Idempotency keys → the sequence that applied them.
    dedup: Mutex<DedupWindow>,
    in_flight: Mutex<Option<InFlight>>,
    /// `Some` on servers started with [`StlServer::start_durable`].
    durable: Option<DurableShared>,
}

/// Epoch-snapshot query service over an [`Stl`] index.
///
/// See the crate docs for the protocol and its consistency guarantee. The
/// server starts a supervisor thread in [`StlServer::start`] (or
/// [`StlServer::start_durable`]) which in turn runs the writer thread,
/// respawning it from the last published state if it dies; everything is
/// joined in [`StlServer::shutdown`] (or on drop).
pub struct StlServer {
    shared: Arc<Shared>,
    /// `None` after shutdown.
    tx: Mutex<Option<Queue>>,
    supervisor: Option<JoinHandle<()>>,
}

impl StlServer {
    /// Take ownership of the world (graph + index) and start serving,
    /// **without** durability: state lives in memory only.
    ///
    /// The initial state is published immediately as generation 0.
    pub fn start(graph: CsrGraph, stl: Stl, cfg: ServerConfig) -> Self {
        let dedup = DedupWindow::new(cfg.dedup_window);
        Self::start_inner(graph, stl, cfg, 0, dedup, None)
    }

    /// Start serving **durably**: recover from `durability.state_dir`
    /// (checkpoint + WAL replay — see [`crate::durable`]), then serve with
    /// every accepted batch logged before it is applied.
    ///
    /// `graph`/`stl` are the freshly built or loaded generation-0 world the
    /// recovered state overlays; the graph file remains the topology's
    /// source of truth, the state dir holds only weights, labels, and the
    /// dedup window. Returns the server and a [`RecoveryReport`] describing
    /// what was restored. Fails if the state dir is unusable or holds a
    /// corrupt checkpoint (booting fresh over a corrupt checkpoint would
    /// silently resurrect stale distances — the operator must decide).
    pub fn start_durable(
        graph: CsrGraph,
        stl: Stl,
        cfg: ServerConfig,
        durability: DurabilityConfig,
    ) -> io::Result<(Self, RecoveryReport)> {
        let rec = durable::recover(&durability, &cfg, graph, stl)?;
        let report = rec.report;
        let durable = DurableShared { cfg: durability, wal: Mutex::new(rec.wal) };
        let server =
            Self::start_inner(rec.graph, rec.stl, cfg, rec.generation, rec.dedup, Some(durable));
        let stats = &server.shared.stats;
        stats.wal_records_replayed.store(report.wal_records_replayed, Ordering::Relaxed);
        stats.wal_torn_tail.store(u64::from(report.wal_torn_tail), Ordering::Relaxed);
        Ok((server, report))
    }

    fn start_inner(
        graph: CsrGraph,
        stl: Stl,
        cfg: ServerConfig,
        base_generation: u64,
        dedup: DedupWindow,
        durable: Option<DurableShared>,
    ) -> Self {
        let first = Arc::new(Snapshot::new(base_generation, graph, stl));
        let shared = Arc::new(Shared {
            current: RwLock::new(first),
            stats: StatsCells::default(),
            dedup: Mutex::new(dedup),
            in_flight: Mutex::new(None),
            durable,
        });
        shared.stats.batches_applied.store(base_generation, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("stl-supervisor".into())
            .spawn(move || {
                // Returning drops the queue's receiver, and with it every
                // job still queued: their drop guards reject them.
                let mut restarts = 0u32;
                loop {
                    // The writer's working state is (re)derived from the
                    // last *published* snapshot — cheap COW clones — which
                    // is exactly the state every acknowledged batch is in.
                    let (graph, stl, generation) = {
                        let snap = read_ok(&sup_shared.current);
                        (snap.graph().clone(), snap.stl().clone(), snap.generation())
                    };
                    let w_shared = Arc::clone(&sup_shared);
                    let w_rx = Arc::clone(&rx);
                    let w_cfg = cfg.clone();
                    let writer = std::thread::Builder::new()
                        .name("stl-writer".into())
                        .spawn(move || {
                            writer_loop(graph, stl, generation, &w_shared, &w_rx, &w_cfg)
                        })
                        .expect("spawn stl-writer thread");
                    match writer.join() {
                        // Clean exit: the queue was closed and drained.
                        Ok(()) => break,
                        // The writer panicked (an internal bug or an
                        // injected failpoint). Resolve whatever was in
                        // flight, then respawn from the published state.
                        Err(_) => {
                            sup_shared.stats.writer_restarts.fetch_add(1, Ordering::Relaxed);
                            resolve_orphan(&sup_shared);
                            restarts += 1;
                            if restarts > cfg.max_writer_restarts {
                                eprintln!(
                                    "stl-server: writer died {restarts} times \
                                     (max {}); giving up",
                                    cfg.max_writer_restarts
                                );
                                break;
                            }
                        }
                    }
                }
            })
            .expect("spawn stl-supervisor thread");
        let queue = Queue { sender: tx, last: None };
        Self { shared, tx: Mutex::new(Some(queue)), supervisor: Some(supervisor) }
    }

    /// Enqueue a batch of edge-weight updates for the writer thread.
    ///
    /// Returns the batch's [`Ticket`] immediately. The writer validates the
    /// batch against the graph before applying it: a valid batch is applied
    /// and published (visible to readers once [`Ticket::wait`] returns
    /// [`BatchOutcome::Applied`]), an invalid one is dropped
    /// whole with [`BatchOutcome::Rejected`] — the writer stays alive and
    /// later submissions are unaffected. Panics only if called after
    /// [`StlServer::shutdown`] (unreachable through the owned API).
    pub fn submit(&self, batch: Vec<EdgeUpdate>) -> Ticket {
        self.submit_with_keys(Vec::new(), batch)
    }

    /// [`StlServer::submit`] carrying the idempotency keys of the client
    /// requests merged into `batch`. On a durable server the keys travel in
    /// the batch's WAL record and checkpoint, so [`StlServer::dedup_lookup`]
    /// keeps answering across restarts.
    pub fn submit_with_keys(&self, keys: Vec<u64>, batch: Vec<EdgeUpdate>) -> Ticket {
        let ticket = Ticket::pending();
        let mut tx = lock_ok(&self.tx);
        let queue = tx.as_mut().expect("server already shut down");
        // A failed send means the supervisor gave up (an internal bug or an
        // exhausted restart budget — bad input is rejected, not fatal). The
        // returned job's drop guard rejects the ticket instead of panicking
        // here.
        let _ = queue.sender.send(Job { ticket: ticket.clone(), keys, batch });
        queue.last = Some(ticket.clone());
        ticket
    }

    /// The sequence number that already applied idempotency key `key`, if it
    /// is still inside the dedup window. A hit (counted in
    /// [`ServerStats::dedup_hits`]) means a retry carrying this key must be
    /// acknowledged as `Applied { seq }` without re-submitting.
    pub fn dedup_lookup(&self, key: u64) -> Option<u64> {
        let hit = lock_ok(&self.shared.dedup).get(key);
        if hit.is_some() {
            self.shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`Ticket::wait`]: block until the batch behind `ticket` is resolved
    /// and report what happened to it. Never panics: a batch that failed
    /// validation — or one in flight when the writer died — is reported as
    /// [`BatchOutcome::Rejected`] with the reason.
    pub fn wait_for(&self, ticket: Ticket) -> BatchOutcome {
        ticket.wait()
    }

    /// Block until everything submitted so far has been processed (applied
    /// and published, or rejected).
    pub fn drain(&self) {
        let last = lock_ok(&self.tx).as_ref().expect("server already shut down").last.clone();
        if let Some(ticket) = last {
            ticket.wait();
        }
    }

    /// Clone out the latest published epoch. O(1); never blocks the writer
    /// beyond the duration of a pointer swap.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&read_ok(&self.shared.current))
    }

    /// One-shot query against the latest epoch, counted in the stats.
    ///
    /// Sustained readers should hold a [`StlServer::snapshot`] instead and
    /// batch-report with [`StlServer::record_queries`].
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        self.shared.stats.queries_served.fetch_add(1, Ordering::Relaxed);
        self.snapshot().query(s, t)
    }

    /// Fold `n` externally served queries into [`ServerStats::queries_served`].
    pub fn record_queries(&self, n: u64) {
        self.shared.stats.queries_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Latest published generation. Advances per *applied* batch — rejected
    /// tickets consume no generation. On a durable server this starts at the
    /// recovered generation, not 0.
    pub fn generation(&self) -> u64 {
        read_ok(&self.shared.current).generation()
    }

    /// Count a batch rejected before it reached the writer (the adaptive
    /// batcher pre-validates so one bad client request cannot poison a
    /// merged batch); keeps [`ServerStats::batches_rejected`] covering both
    /// rejection sites.
    pub(crate) fn note_rejected_batch(&self) {
        self.shared.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.load()
    }

    /// Close the queue, drain outstanding batches, join the writer (which
    /// on a durable server fsyncs the WAL and writes a final checkpoint),
    /// and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        drop(lock_ok(&self.tx).take());
        if let Some(s) = self.supervisor.take() {
            // The writer drains remaining batches then sees the closed
            // channel. A panic inside it already printed its message; the
            // join error adds nothing.
            let _ = s.join();
        }
    }
}

impl Drop for StlServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Resolve the in-flight batch to `outcome` and clear the slot.
fn settle(shared: &Shared, outcome: BatchOutcome) {
    if let Some(inf) = lock_ok(&shared.in_flight).take() {
        resolve(shared, &inf.job.ticket, outcome);
    }
}

/// Resolve `ticket` to `outcome`; a rejection is counted only by the resolve
/// that wins.
fn resolve(shared: &Shared, ticket: &Ticket, outcome: BatchOutcome) {
    let rejected = !outcome.is_applied();
    if ticket.resolve(outcome) && rejected {
        shared.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
    }
}

/// Supervisor-side cleanup after a writer death: decide what happened to the
/// batch that was in flight and make the world consistent with it.
///
/// The publish pointer swap is the commit point. If the dead writer got past
/// it (`published ≥ seq`), the batch **landed** — finish its bookkeeping
/// (dedup keys, applied counter) idempotently and resolve it `Applied`. If
/// not, the batch is **rolled back**: its WAL record (appended before apply)
/// is annulled by truncation so a crash right after the restart cannot
/// replay a batch that was reported `Rejected`, and the ticket resolves
/// `Rejected("writer restarted")`.
fn resolve_orphan(shared: &Shared) {
    let Some(inf) = lock_ok(&shared.in_flight).take() else { return };
    let published = read_ok(&shared.current).generation();
    let outcome = if published >= inf.seq {
        if !inf.job.keys.is_empty() {
            let mut dedup = lock_ok(&shared.dedup);
            for k in &inf.job.keys {
                dedup.insert(*k, inf.seq);
            }
        }
        shared.stats.batches_applied.store(published, Ordering::Relaxed);
        BatchOutcome::Applied { seq: inf.seq }
    } else {
        if let (Some(d), Some(start)) = (&shared.durable, inf.wal_start) {
            let mut wal = lock_ok(&d.wal);
            if let Err(e) = wal.truncate_to(start) {
                eprintln!("stl-server: failed to annul wal record {}: {e}", inf.seq);
            }
        }
        BatchOutcome::Rejected("writer restarted".into())
    };
    resolve(shared, &inf.job.ticket, outcome);
}

/// Checkpoint the served world and reset the WAL. Failure is logged, not
/// fatal: the WAL keeps every batch since the last successful checkpoint,
/// so durability is unaffected — the next trigger retries.
fn do_checkpoint(shared: &Shared, graph: &CsrGraph, stl: &Stl, generation: u64) {
    let Some(d) = &shared.durable else { return };
    // Hold the dedup lock across the dump so the serialized window is a
    // consistent cut with `generation`.
    let dedup = lock_ok(&shared.dedup);
    match durable::write_checkpoint(&d.cfg, graph, stl, generation, &dedup) {
        Ok(_) => {
            drop(dedup);
            let mut wal = lock_ok(&d.wal);
            match wal.reset_atomic() {
                Ok(()) => {
                    shared.stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                }
                // The checkpoint covers everything in the log, so a stale
                // log is redundancy, not corruption: replay skips covered
                // sequence numbers.
                Err(e) => eprintln!("stl-server: wal reset after checkpoint failed: {e}"),
            }
        }
        Err(e) => eprintln!(
            "stl-server: checkpoint at generation {generation} failed: {e} \
             (will retry on next trigger)"
        ),
    }
}

/// The writer: drains the queue, logs (durable servers), applies, and
/// publishes — one epoch per accepted batch. Runs under the supervisor;
/// returning means the queue closed and everything (including the final
/// checkpoint) is done.
fn writer_loop(
    mut graph: CsrGraph,
    mut stl: Stl,
    mut generation: u64,
    shared: &Arc<Shared>,
    rx: &Mutex<Receiver<Job>>,
    cfg: &ServerConfig,
) {
    let mut pool = EnginePool::new();
    // The checkpoint schedule; only a durable server has one.
    let mut streak = shared.durable.as_ref().map(|_| QuietStreak::default());
    // Held for the writer's whole life: exactly one writer drains the queue
    // at a time, and a respawned writer takes over atomically.
    let rx = lock_ok(rx);
    while let Ok(mut job) = rx.recv() {
        let stats = &shared.stats;
        let batch = std::mem::take(&mut job.batch);
        let keys = job.keys.clone();
        stats.updates_submitted.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // The sequence this batch will publish as, fixed before any
        // fallible step so the supervisor can tell "landed" from "rolled
        // back" by comparing it with the published generation.
        let seq = generation + 1;
        *lock_ok(&shared.in_flight) = Some(InFlight { job, seq, wal_start: None });
        // The bugfix that makes remote serving survivable: a bad update
        // used to kill the writer (apply_batch's panic contract), turning
        // one malformed client batch into a total outage. Validate first;
        // reject without mutating — and without logging: the WAL holds only
        // accepted batches.
        if let Err(reason) = validate_batch(&graph, &batch) {
            settle(shared, BatchOutcome::Rejected(reason));
            continue;
        }
        // Log before apply: once the record is (policy-permitting) synced,
        // a crash at any later point replays the batch instead of losing
        // it. The acknowledgement (resolving the ticket) happens only after
        // publish, so under `fsync=always` no acknowledged batch
        // can be lost.
        if let Some(d) = &shared.durable {
            let mut wal = lock_ok(&d.wal);
            // Record the pre-append offset *before* touching the file: if
            // the writer dies mid-append, the supervisor truncates the torn
            // bytes away so the next record starts on a clean boundary.
            if let Some(inf) = lock_ok(&shared.in_flight).as_mut() {
                inf.wal_start = Some(wal.len());
            }
            match wal.append(seq, &keys, &batch) {
                Ok(start) => {
                    stats.wal_records_appended.fetch_add(1, Ordering::Relaxed);
                    match wal.maybe_sync() {
                        Ok(true) => {
                            stats.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(false) => {}
                        Err(e) => {
                            // The record may not be durable; treat the batch
                            // as not accepted: annul the record and reject.
                            let _ = wal.truncate_to(start);
                            drop(wal);
                            settle(
                                shared,
                                BatchOutcome::Rejected(format!("wal fsync failed: {e}")),
                            );
                            continue;
                        }
                    }
                }
                Err(e) => {
                    // A failed append may have left partial bytes past the
                    // last complete record; cut them off.
                    let len = wal.len();
                    let _ = wal.truncate_to(len);
                    drop(wal);
                    settle(shared, BatchOutcome::Rejected(format!("wal append failed: {e}")));
                    continue;
                }
            }
        }
        let t_apply = Instant::now();
        let (ustats, _) = stl.apply_batch_sharded_owned(
            &mut graph,
            &batch,
            cfg.algo,
            &mut pool,
            cfg.owned_shards.as_ref(),
        );
        stats.apply_ns_total.fetch_add(t_apply.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.trees_touched_total.fetch_add(ustats.trees_touched, Ordering::Relaxed);
        stats.trees_skipped_total.fetch_add(ustats.trees_skipped, Ordering::Relaxed);
        // Applying the batch COW-promoted exactly the chunks it wrote (the
        // previous snapshot pinned everything else); drain the copy
        // accounting into the public counters.
        let cow = stl.take_cow_stats() + graph.take_cow_stats();
        stats.publish_bytes_copied.fetch_add(cow.bytes_copied, Ordering::Relaxed);
        stats.chunks_copied_last.store(cow.chunks_copied, Ordering::Relaxed);
        // A durable server checkpoints after the publish below once enough
        // consecutive epochs were quiet (traffic is quiet, copying the world
        // is cheapest).
        let checkpoint_due = streak.as_mut().is_some_and(|s| {
            s.checkpoint_due(cow.chunks_copied, stl.num_chunks() + graph.num_weight_chunks())
        });
        // Publish: O(touched) — the clone below copies one pointer per page
        // of the label and weight chunk tables (and of the escape tables);
        // every byte not written by this batch is shared with the previous
        // epoch. Every *valid* batch publishes — even one normalised away to
        // a no-op — so an applied ticket always carries the sequence it
        // published.
        generation = seq;
        let t_pub = Instant::now();
        let snap = Arc::new(Snapshot::new(generation, graph.clone(), stl.clone()));
        // Fires *before* the pointer swap: a batch killed here is rolled
        // back (WAL record annulled), so readers must never have seen it.
        failpoint::fire("publish");
        // The replaced epoch is dropped only after the guard is released and
        // the waiters are woken: its drop walks every page `Arc` (and every
        // chunk of the pages this batch copied), and readers taking a
        // snapshot must not wait for that.
        let retired = std::mem::replace(&mut *write_ok(&shared.current), snap);
        let pub_ns = t_pub.elapsed().as_nanos() as u64;
        stats.publish_ns_total.fetch_add(pub_ns, Ordering::Relaxed);
        stats.publish_ns_last.store(pub_ns, Ordering::Relaxed);
        stats.batches_applied.store(generation, Ordering::Relaxed);
        if !keys.is_empty() {
            let mut dedup = lock_ok(&shared.dedup);
            for k in &keys {
                dedup.insert(*k, seq);
            }
        }
        settle(shared, BatchOutcome::Applied { seq });
        drop(retired);
        if checkpoint_due {
            do_checkpoint(shared, &graph, &stl, generation);
        }
    }
    // Clean shutdown: make everything in the log durable, then fold it into
    // a final checkpoint so the next boot skips replay entirely.
    if let Some(d) = &shared.durable {
        let dirty = {
            let mut wal = lock_ok(&d.wal);
            if let Err(e) = wal.sync() {
                eprintln!("stl-server: final wal sync failed: {e}");
            }
            !wal.is_empty()
        };
        if dirty {
            do_checkpoint(shared, &graph, &stl, generation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_core::StlConfig;
    use stl_graph::builder::from_edges;
    use stl_pathfinding::dijkstra;
    use stl_workloads::{generate, RoadNetConfig};

    fn diamond() -> CsrGraph {
        from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)])
    }

    fn start(g: &CsrGraph) -> StlServer {
        let stl = Stl::build(g, &StlConfig::default());
        StlServer::start(g.clone(), stl, ServerConfig::default())
    }

    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::AtomicU64;
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "stl-server-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn generation_zero_matches_initial_index() {
        let g = diamond();
        let server = start(&g);
        let snap = server.snapshot();
        assert_eq!(snap.generation(), 0);
        assert_eq!(snap.query(0, 3), 12);
        assert_eq!(server.generation(), 0);
    }

    #[test]
    fn publishes_one_generation_per_batch() {
        let g = diamond();
        let server = start(&g);
        let t1 = server.submit(vec![EdgeUpdate::new(1, 2, 40)]);
        let t2 = server.submit(vec![EdgeUpdate::new(1, 2, 4)]);
        let t3 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
        assert_eq!(server.wait_for(t3), BatchOutcome::Applied { seq: 3 });
        assert_eq!(server.wait_for(t1), BatchOutcome::Applied { seq: 1 });
        assert_eq!(server.wait_for(t2), BatchOutcome::Applied { seq: 2 });
        let snap = server.snapshot();
        assert_eq!(snap.generation(), 3);
        assert_eq!(snap.query(0, 3), 2);
        let stats = server.shutdown();
        assert_eq!(stats.batches_applied, 3);
        assert_eq!(stats.updates_submitted, 3);
        assert!(stats.publish_ns_total >= stats.publish_ns_last);
    }

    #[test]
    fn applied_outcome_carries_the_publish_seq() {
        // Sequence numbers are generations: rejections consume none.
        let g = diamond();
        let server = start(&g);
        let t1 = server.submit(vec![EdgeUpdate::new(1, 2, 7)]); // valid -> seq 1
        let t2 = server.submit(vec![EdgeUpdate::new(1, 3, 7)]); // no such edge
        let t3 = server.submit(vec![EdgeUpdate::new(2, 3, 9)]); // valid -> seq 2
        let t4 = server.submit(vec![EdgeUpdate::new(0, 3, 8)]); // valid -> seq 3
        assert_eq!(server.wait_for(t1), BatchOutcome::Applied { seq: 1 });
        assert!(!server.wait_for(t2).is_applied());
        assert_eq!(server.wait_for(t3), BatchOutcome::Applied { seq: 2 });
        assert_eq!(server.wait_for(t4), BatchOutcome::Applied { seq: 3 });
        assert_eq!(server.generation(), 3);
        server.shutdown();
    }

    #[test]
    fn old_snapshots_stay_self_consistent() {
        let g = diamond();
        let server = start(&g);
        let old = server.snapshot();
        let t = server.submit(vec![EdgeUpdate::new(2, 3, 50)]);
        server.wait_for(t);
        // The pre-update epoch still answers with pre-update distances.
        assert_eq!(old.generation(), 0);
        assert_eq!(old.query(0, 3), 12);
        assert_eq!(server.snapshot().query(0, 3), 20);
    }

    #[test]
    fn noop_batches_still_publish() {
        let g = diamond();
        let server = start(&g);
        let t = server.submit(vec![EdgeUpdate::new(0, 1, 3)]); // already 3
        server.wait_for(t);
        assert_eq!(server.generation(), 1);
    }

    #[test]
    fn drain_waits_for_everything_submitted() {
        let g = generate(&RoadNetConfig::sized(150, 11));
        let server = start(&g);
        let edges: Vec<_> = g.edges().take(20).collect();
        for (i, &(a, b, w)) in edges.iter().enumerate() {
            server.submit(vec![EdgeUpdate::new(a, b, w + i as u32 % 7)]);
        }
        server.drain();
        assert_eq!(server.generation(), edges.len() as u64);
    }

    #[test]
    fn served_queries_match_dijkstra_across_epochs() {
        let mut g = generate(&RoadNetConfig::sized(200, 13));
        let server = start(&g);
        let edges: Vec<_> = g.edges().step_by(5).take(8).collect();
        for &(a, b, w) in &edges {
            let t = server.submit(vec![EdgeUpdate::new(a, b, w * 3)]);
            server.wait_for(t);
            g.set_weight(a, b, w * 3).unwrap();
            let snap = server.snapshot();
            for (s, dst) in [(0u32, 7u32), (3, 199), (50, 120)] {
                assert_eq!(snap.query(s, dst), dijkstra::distance(&g, s, dst));
            }
        }
        assert_eq!(server.generation(), 8);
    }

    #[test]
    fn publish_shares_untouched_chunks_across_generations() {
        // The COW publish contract: a batch that writes nothing leaves every
        // chunk of the new generation physically identical (Arc::ptr_eq) to
        // the previous one, and a real batch unshares only what it wrote.
        let g = generate(&RoadNetConfig::sized(200, 33));
        let server = start(&g);
        let snap0 = server.snapshot();

        // No-op batch (same weight): generation bumps, zero bytes copied,
        // all chunks shared.
        let (a, b, w) = g.edges().next().unwrap();
        server.wait_for(server.submit(vec![EdgeUpdate::new(a, b, w)]));
        let snap1 = server.snapshot();
        assert_eq!(snap1.generation(), 1);
        assert!(snap0.graph().shares_topology(snap1.graph()));
        let labels0 = snap0.stl().labels();
        let labels1 = snap1.stl().labels();
        assert_eq!(labels0.shared_chunks_with(labels1), labels0.num_chunks());
        for c in 0..labels0.num_chunks() {
            assert!(labels0.shares_chunk(labels1, c), "label chunk {c} must stay shared");
        }
        assert_eq!(
            snap0.graph().shared_weight_chunks(snap1.graph()),
            snap0.graph().num_weight_chunks()
        );
        assert_eq!(server.stats().publish_bytes_copied, 0);

        // Real batch: something is copied, but strictly less than the whole
        // world (the full-clone cost).
        server.wait_for(server.submit(vec![EdgeUpdate::new(a, b, w * 7)]));
        let snap2 = server.snapshot();
        let stats = server.stats();
        assert!(stats.publish_bytes_copied > 0, "a real update must copy its chunks");
        let full = snap2.stl().labels().memory_bytes() + snap2.graph().memory_bytes();
        assert!(
            (stats.publish_bytes_copied as usize) < full,
            "copied {} of {} — COW must not degenerate to a full clone",
            stats.publish_bytes_copied,
            full
        );
        assert!(stats.chunks_copied_last > 0);
        assert!(snap1.graph().shares_topology(snap2.graph()));
        server.shutdown();
    }

    #[test]
    fn label_search_writer_matches_oracle_and_counts_trees() {
        // Label-search writer: every published epoch must still match
        // Dijkstra exactly, and the tree counters must reach ServerStats.
        let mut g = generate(&RoadNetConfig::sized(220, 21));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig { algo: stl_core::Maintenance::LabelSearch, ..Default::default() },
        );
        let edges: Vec<_> = g.edges().step_by(7).take(6).collect();
        for &(a, b, w) in &edges {
            let t = server.submit(vec![EdgeUpdate::new(a, b, w * 5)]);
            server.wait_for(t);
            g.set_weight(a, b, w * 5).unwrap();
            let snap = server.snapshot();
            for (s, dst) in [(0u32, 150u32), (9, 201), (60, 130)] {
                assert_eq!(snap.query(s, dst), dijkstra::distance(&g, s, dst));
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.trees_touched_total, edges.len() as u64, "one owning tree per update");
        assert!(stats.trees_skipped_total > 0, "single-edge batches must skip most stable trees");
    }

    #[test]
    fn pareto_writer_matches_oracle_and_counts_trees() {
        // The default (Pareto) writer: every published epoch must match
        // Dijkstra exactly and the tree counters must reach ServerStats.
        let mut g = generate(&RoadNetConfig::sized(220, 27));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig { algo: stl_core::Maintenance::ParetoSearch, ..Default::default() },
        );
        let edges: Vec<_> = g.edges().step_by(9).take(5).collect();
        for &(a, b, w) in &edges {
            let t = server.submit(vec![EdgeUpdate::new(a, b, w * 4)]);
            server.wait_for(t);
            g.set_weight(a, b, w * 4).unwrap();
            let snap = server.snapshot();
            for (s, dst) in [(0u32, 150u32), (9, 201), (60, 130)] {
                assert_eq!(snap.query(s, dst), dijkstra::distance(&g, s, dst));
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.trees_touched_total, edges.len() as u64, "one owning tree per update");
        assert!(stats.trees_skipped_total > 0, "single-edge batches must skip most stable trees");
    }

    #[test]
    fn rejected_batch_leaves_server_serving() {
        // The regression this PR exists for: a batch with a nonexistent edge
        // must come back Rejected — writer alive, queries exact, and later
        // valid batches applied and published as new generations.
        let g = diamond();
        let server = start(&g);
        let bad = server.submit(vec![EdgeUpdate::new(0, 2, 9)]); // no such edge
        match server.wait_for(bad) {
            BatchOutcome::Rejected(reason) => {
                assert!(reason.contains("no edge between 0 and 2"), "got: {reason}");
            }
            BatchOutcome::Applied { .. } => panic!("nonexistent edge must be rejected"),
        }
        // No generation consumed, state untouched.
        assert_eq!(server.generation(), 0);
        assert_eq!(server.snapshot().query(0, 3), 12);
        // The writer is still alive: a valid batch publishes a new epoch.
        let good = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
        assert_eq!(server.wait_for(good), BatchOutcome::Applied { seq: 1 });
        assert_eq!(server.generation(), 1);
        assert_eq!(server.snapshot().query(0, 3), 2);
        let stats = server.shutdown();
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.batches_applied, 1);
    }

    #[test]
    fn validation_names_the_offense() {
        let g = diamond();
        assert!(validate_batch(&g, &[EdgeUpdate::new(0, 1, 5)]).is_ok());
        let oob = validate_batch(&g, &[EdgeUpdate::new(0, 99, 5)]).unwrap_err();
        assert!(oob.contains("out of range"), "got: {oob}");
        let selfloop = validate_batch(&g, &[EdgeUpdate::new(2, 2, 5)]).unwrap_err();
        assert!(selfloop.contains("self-loop"), "got: {selfloop}");
        let inf = validate_batch(&g, &[EdgeUpdate::new(0, 1, stl_graph::INF)]).unwrap_err();
        assert!(inf.contains("INF"), "got: {inf}");
        // The index of the offending update is part of the reason.
        let second =
            validate_batch(&g, &[EdgeUpdate::new(0, 1, 5), EdgeUpdate::new(1, 3, 5)]).unwrap_err();
        assert!(second.starts_with("update 1:"), "got: {second}");
    }

    #[test]
    fn rejections_interleave_with_applies() {
        // Every ticket reports its own outcome; rejections consume no
        // generation.
        let g = diamond();
        let server = start(&g);
        let t1 = server.submit(vec![EdgeUpdate::new(1, 2, 7)]); // valid
        let t2 = server.submit(vec![EdgeUpdate::new(1, 3, 7)]); // no such edge
        let t3 = server.submit(vec![EdgeUpdate::new(2, 3, 9)]); // valid
        assert_eq!(server.wait_for(t1), BatchOutcome::Applied { seq: 1 });
        assert!(!server.wait_for(t2.clone()).is_applied());
        assert_eq!(server.wait_for(t3), BatchOutcome::Applied { seq: 2 });
        // Re-reading an outcome is stable.
        assert!(!server.wait_for(t2).is_applied());
        assert_eq!(server.generation(), 2);
        let stats = server.shutdown();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.updates_submitted, 3);
    }

    #[test]
    fn every_ticket_keeps_its_own_outcome() {
        // However many rejections follow it, a rejected batch reports its
        // own reason, and the next valid batch takes sequence 1.
        let g = diamond();
        let server = start(&g);
        let bad = || vec![EdgeUpdate::new(1, 3, 7)]; // no such edge
        let t1 = server.submit(bad());
        for _ in 0..1100 {
            server.submit(bad());
        }
        let good = server.submit(vec![EdgeUpdate::new(0, 1, 9)]);
        assert_eq!(server.wait_for(good.clone()), BatchOutcome::Applied { seq: 1 });
        let first = server.wait_for(t1.clone());
        match &first {
            BatchOutcome::Rejected(reason) => {
                assert!(reason.contains("no edge between 1 and 3"), "got: {reason}");
            }
            BatchOutcome::Applied { .. } => panic!("a rejected batch must stay rejected"),
        }
        // Waiting again on a clone returns the same outcome.
        assert_eq!(server.wait_for(t1), first);
        assert_eq!(server.wait_for(good), BatchOutcome::Applied { seq: 1 });
        let stats = server.shutdown();
        assert_eq!(stats.batches_rejected, 1101);
        assert_eq!(stats.batches_applied, 1);
    }

    #[test]
    fn dedup_window_maps_keys_to_sequences() {
        let g = diamond();
        let server = start(&g);
        assert_eq!(server.dedup_lookup(77), None);
        let t = server.submit_with_keys(vec![77], vec![EdgeUpdate::new(0, 1, 5)]);
        assert_eq!(server.wait_for(t), BatchOutcome::Applied { seq: 1 });
        assert_eq!(server.dedup_lookup(77), Some(1));
        // A rejected batch records no keys.
        let t = server.submit_with_keys(vec![88], vec![EdgeUpdate::new(1, 3, 5)]);
        assert!(!server.wait_for(t).is_applied());
        assert_eq!(server.dedup_lookup(88), None);
        let stats = server.shutdown();
        assert_eq!(stats.dedup_hits, 1);
    }

    #[test]
    fn durable_server_persists_across_clean_restarts() {
        let s = Scratch::new("clean-restart");
        let mut g = generate(&RoadNetConfig::sized(140, 23));
        let stl = Stl::build(&g, &StlConfig::default());
        let edges: Vec<_> = g.edges().step_by(4).take(5).collect();
        let (server, report) = StlServer::start_durable(
            g.clone(),
            stl.clone(),
            ServerConfig::default(),
            DurabilityConfig::new(&s.0),
        )
        .unwrap();
        assert_eq!(report.generation, 0);
        for (i, &(a, b, w)) in edges.iter().enumerate() {
            let t =
                server.submit_with_keys(vec![900 + i as u64], vec![EdgeUpdate::new(a, b, w + 3)]);
            assert_eq!(server.wait_for(t), BatchOutcome::Applied { seq: i as u64 + 1 });
            g.set_weight(a, b, w + 3).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.wal_records_appended, 5);
        assert!(stats.wal_fsyncs >= 5, "fsync=always must sync every append");
        assert!(stats.checkpoints_written >= 1, "clean shutdown must checkpoint");

        // Reboot from the state dir over a *fresh* generation-0 world.
        let fresh = Stl::build(&generate(&RoadNetConfig::sized(140, 23)), &StlConfig::default());
        let (server, report) = StlServer::start_durable(
            generate(&RoadNetConfig::sized(140, 23)),
            fresh,
            ServerConfig::default(),
            DurabilityConfig::new(&s.0),
        )
        .unwrap();
        assert_eq!(report.generation, 5);
        assert_eq!(report.checkpoint_generation, Some(5));
        assert_eq!(report.wal_records_replayed, 0, "final checkpoint must cover the whole log");
        assert_eq!(server.generation(), 5);
        // The dedup window survived the restart (via the checkpoint).
        assert_eq!(server.dedup_lookup(900), Some(1));
        assert_eq!(server.dedup_lookup(904), Some(5));
        // Distances match the in-memory twin, and serving continues: the
        // next batch takes sequence 6.
        let snap = server.snapshot();
        for (a, b, _) in g.edges().step_by(17).take(10) {
            assert_eq!(snap.query(a, b), dijkstra::distance(&g, a, b));
        }
        let (a, b, w) = g.edges().next().unwrap();
        let t = server.submit(vec![EdgeUpdate::new(a, b, w + 1)]);
        assert_eq!(server.wait_for(t), BatchOutcome::Applied { seq: 6 });
        server.shutdown();
    }

    #[test]
    fn durable_writer_checkpoints_after_twelve_quiet_epochs_and_at_shutdown() {
        // A batch re-setting an edge to its current weight is normalised
        // away and copies no chunk, so every such epoch is quiet; a real
        // weight change copies chunks and is not. Each `wait_for` of a later
        // ticket also waits out any checkpoint the writer ran before it.
        use crate::durable::CHECKPOINT_QUIET_EPOCHS;
        let s = Scratch::new("quiet-streak");
        let g = generate(&RoadNetConfig::sized(140, 29));
        let stl = Stl::build(&g, &StlConfig::default());
        let durability = DurabilityConfig::new(&s.0);
        let (server, _) =
            StlServer::start_durable(g.clone(), stl, ServerConfig::default(), durability.clone())
                .unwrap();
        let (a, b, w) = g.edges().next().unwrap();
        let apply = |batch: &[EdgeUpdate], n: u32| {
            for _ in 0..n {
                assert!(server.wait_for(server.submit(batch.to_vec())).is_applied());
            }
        };
        apply(&[EdgeUpdate::new(a, b, w)], CHECKPOINT_QUIET_EPOCHS - 1);
        apply(&[EdgeUpdate::new(a, b, w + 5)], 1);
        assert_eq!(server.stats().checkpoints_written, 0, "11 quiet epochs do not checkpoint");
        assert!(server.stats().chunks_copied_last > 0, "a real change copies chunks");
        let noop = [EdgeUpdate::new(a, b, w + 5)];
        apply(&noop, CHECKPOINT_QUIET_EPOCHS - 1);
        assert_eq!(server.stats().checkpoints_written, 0, "a copying epoch restarts the count");
        apply(&noop, 2); // the 12th quiet epoch, then one more
        assert_eq!(server.stats().checkpoints_written, 1, "the 12th quiet epoch checkpoints");
        let wal = crate::wal::replay(&durability.wal_path()).unwrap();
        let seqs: Vec<u64> = wal.records.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            [2 * u64::from(CHECKPOINT_QUIET_EPOCHS) + 1],
            "the checkpoint reset the WAL"
        );
        let stats = server.shutdown();
        assert_eq!(stats.checkpoints_written, 2, "clean shutdown folds the last record in");
        assert_eq!(stats.batches_applied, 2 * u64::from(CHECKPOINT_QUIET_EPOCHS) + 1);
    }

    #[test]
    fn query_and_record_feed_stats() {
        let g = diamond();
        let server = start(&g);
        assert_eq!(server.query(0, 2), 7);
        server.record_queries(41);
        assert_eq!(server.stats().queries_served, 42);
    }

    #[test]
    fn concurrent_readers_see_only_published_epochs() {
        // Small always-on variant of tests/concurrent_consistency.rs that is
        // cheap enough for debug runs: readers race a live writer and every
        // observation must match the oracle of its stamped generation.
        let g0 = generate(&RoadNetConfig::sized(120, 17));
        let edges: Vec<_> = g0.edges().step_by(3).take(6).collect();
        // Oracle per generation for a fixed pair pool.
        let pool: Vec<(u32, u32)> = vec![(0, 60), (5, 110), (33, 90), (2, 40)];
        let mut oracles: Vec<Vec<Dist>> = Vec::new();
        let mut g = g0.clone();
        oracles.push(pool.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect());
        for &(a, b, w) in &edges {
            g.set_weight(a, b, w * 4).unwrap();
            oracles.push(pool.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect());
        }
        let server = start(&g0);
        let stop_flag = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = &stop_flag;
            let server_ref = &server;
            let pool_ref = &pool;
            let oracles_ref = &oracles;
            for reader in 0..3 {
                scope.spawn(move || {
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = server_ref.snapshot();
                        let (s, t) = pool_ref[i % pool_ref.len()];
                        let expect = oracles_ref[snap.generation() as usize][i % pool_ref.len()];
                        assert_eq!(snap.query(s, t), expect, "gen {}", snap.generation());
                        i += 1;
                    }
                });
            }
            for &(a, b, w) in &edges {
                let t = server.submit(vec![EdgeUpdate::new(a, b, w * 4)]);
                server.wait_for(t);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(server.generation(), edges.len() as u64);
    }
}
