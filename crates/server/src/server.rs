//! The service: one supervised writer thread, any number of snapshot readers.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use stl_core::{failpoint, DynamicDistanceIndex, EnginePool, Maintenance, ShardSet, Stl};
use stl_graph::{CsrGraph, Dist, EdgeUpdate, VertexId, INF};

use crate::durable::{self, DedupWindow, DurabilityConfig, RecoveryReport};
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

/// What happened to a submitted batch, per ticket (see [`StlServer::wait_for`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The batch validated, was applied, and its epoch is published: every
    /// snapshot taken after `wait_for` returned reflects it.
    Applied {
        /// The batch's **sequence number**, equal to the generation its epoch
        /// published (and, on a durable server, to its WAL record's sequence
        /// number) — the handle a client stores to correlate snapshots,
        /// checkpoints, and idempotent retries.
        ///
        /// `0` means the true sequence is no longer resolvable: the ticket
        /// predates the retained rejection window *and* reasons have been
        /// evicted, so the exact count of earlier rejections is unknown (see
        /// [`StlServer::wait_for`]). Real sequence numbers start at 1.
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
    /// Worker threads for tree-sharded batch repair
    /// (`Stl::apply_batch_sharded`). `1` runs the sharded schedule on one
    /// worker; higher values fan label repair out by owning stable tree.
    /// Both families parallelise: Label Search by per-ancestor ownership,
    /// Pareto Search by clamping validity intervals at the spine boundary.
    /// Labels are byte-identical to the serial drivers at any setting.
    /// Defaults to the machine's available parallelism.
    pub repair_threads: usize,
    /// Quiescence window for epoch compaction: after this many
    /// *consecutive* epochs whose dirty-chunk ratio stayed at or below
    /// [`ServerConfig::compact_dirty_ratio`], the writer re-flattens the
    /// label arena and CSR weights into contiguous aligned allocations,
    /// switching readers onto direct-offset label reads from the next
    /// published snapshot on. On a durable server
    /// the same trigger also writes a checkpoint and resets the WAL — the
    /// quiet moment when copying the world is cheapest. `0` disables the
    /// trigger entirely. The default (12 epochs) is deliberately
    /// conservative: compaction copies the whole arena, so it should fire
    /// when traffic has genuinely gone quiet, not between two bursts.
    pub compact_after_quiet_epochs: u32,
    /// An epoch counts as *quiet* when `chunks copied / total chunks` is at
    /// or below this ratio (no-op batches have ratio 0). Default `0.02` —
    /// under 2% of the world rewritten per batch.
    pub compact_dirty_ratio: f64,
    /// How many rejection reasons [`StlServer::wait_for`] can still resolve,
    /// i.e. the depth of the bounded reason window (default 1024, minimum
    /// 1). Rejections are an error path: retaining every reason forever
    /// would let a misbehaving client grow server memory without bound, so
    /// only the most recent window is kept and evictions are counted in
    /// [`ServerStats::rejection_reasons_evicted`]. A ticket that predates
    /// every retained reason *after* evictions have occurred resolves as
    /// [`BatchOutcome::Applied`] with `seq == 0` — the "absent ⇒ Applied"
    /// ambiguity is inherent to bounding the window; clients that wait
    /// promptly (everything in this crate does) always see the exact
    /// outcome.
    pub rejection_window: usize,
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

impl ServerConfig {
    /// [`ServerConfig::default`] with environment overrides:
    ///
    /// * `STL_REPAIR_THREADS` (positive integer) — `repair_threads`; the
    ///   hook the CI release-stress matrix uses to exercise the repair
    ///   pipeline at both 1 and 4 workers.
    /// * `STL_COMPACT_QUIET_EPOCHS` (integer, `0` disables) —
    ///   [`ServerConfig::compact_after_quiet_epochs`].
    /// * `STL_COMPACT_DIRTY_RATIO` (float in `0.0..=1.0`) —
    ///   [`ServerConfig::compact_dirty_ratio`].
    /// * `STL_REJECTION_WINDOW` (positive integer) —
    ///   [`ServerConfig::rejection_window`].
    /// * `STL_DEDUP_WINDOW` (integer, `0` disables) —
    ///   [`ServerConfig::dedup_window`].
    ///
    /// A set-but-malformed variable is an **error**, not a silent default:
    /// `STL_REPAIR_THREADS=abc` (or `=0`) used to fall back to the default
    /// without a word, which meant a typo in the CI matrix quietly tested
    /// the wrong configuration. Callers decide how loud to be — the test
    /// harnesses `expect` the result so a bad matrix entry fails the run.
    /// (A value that is not valid unicode is read lossily, so it fails to
    /// parse and errors too.)
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`ServerConfig::from_env`] over any variable source: `lookup(key)`
    /// is the value of `key`, `None` if unset.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Some(t) = parsed_var::<usize>(&lookup, "STL_REPAIR_THREADS")? {
            if t == 0 {
                return Err("STL_REPAIR_THREADS must be at least 1".into());
            }
            cfg.repair_threads = t;
        }
        if let Some(q) = parsed_var::<u32>(&lookup, "STL_COMPACT_QUIET_EPOCHS")? {
            cfg.compact_after_quiet_epochs = q;
        }
        if let Some(r) = parsed_var::<f64>(&lookup, "STL_COMPACT_DIRTY_RATIO")? {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("STL_COMPACT_DIRTY_RATIO must be within 0.0..=1.0, got {r}"));
            }
            cfg.compact_dirty_ratio = r;
        }
        if let Some(w) = parsed_var::<usize>(&lookup, "STL_REJECTION_WINDOW")? {
            if w == 0 {
                return Err("STL_REJECTION_WINDOW must be at least 1".into());
            }
            cfg.rejection_window = w;
        }
        if let Some(d) = parsed_var::<usize>(&lookup, "STL_DEDUP_WINDOW")? {
            cfg.dedup_window = d;
        }
        Ok(cfg)
    }
}

/// Look up and parse a variable, distinguishing "absent" (fine, `None`)
/// from "present but unparsable" (an error worth surfacing).
fn parsed_var<T: std::str::FromStr>(
    lookup: impl Fn(&str) -> Option<String>,
    key: &str,
) -> Result<Option<T>, String> {
    let Some(raw) = lookup(key) else { return Ok(None) };
    raw.trim()
        .parse::<T>()
        .map(Some)
        .map_err(|_| format!("{key}={raw:?} is not a valid {}", std::any::type_name::<T>()))
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            algo: Maintenance::ParetoSearch,
            repair_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            compact_after_quiet_epochs: 12,
            compact_dirty_ratio: 0.02,
            rejection_window: 1024,
            dedup_window: 4096,
            max_writer_restarts: 8,
            owned_shards: None,
        }
    }
}

/// Position of a submitted batch in the writer's processing sequence: the
/// batch's [`BatchOutcome`] is available — and, if applied, its epoch is
/// visible to readers — once the writer has processed the ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// A submitted batch travelling the queue to the writer. The ticket rides
/// with the batch (instead of being recounted writer-side) so a writer
/// restart mid-queue cannot shift later tickets.
struct Job {
    ticket: u64,
    /// Idempotency keys of the client requests merged into this batch;
    /// recorded in the WAL and the dedup window at publish.
    keys: Vec<u64>,
    batch: Vec<EdgeUpdate>,
}

/// Writer progress guarded by the publish barrier. `processed` counts every
/// ticket the writer finished (applied *or* rejected); `generation` is the
/// latest published generation (it starts at the recovered base on a durable
/// server), so the two diverge exactly by base + rejections.
#[derive(Debug, Clone, Copy, Default)]
struct Progress {
    processed: u64,
    generation: u64,
    exited: bool,
}

/// Rejection reasons of the most recent `cap` rejected tickets, plus the
/// running arithmetic [`StlServer::wait_for`] needs to map an *applied*
/// ticket to its sequence number without retaining anything per applied
/// ticket: each entry stores the cumulative count of rejections at-or-before
/// its ticket, so `seq = base + ticket − rejections_before(ticket)` is exact
/// for any ticket not older than the whole retained window.
struct RejectionWindow {
    /// `(ticket, cumulative rejections ≤ ticket, reason)`, ticket-ascending.
    entries: VecDeque<(u64, u64, Arc<str>)>,
    cap: usize,
    /// Rejections ever pushed (monotone; the cum of the newest entry).
    total: u64,
    /// Entries dropped to respect `cap`.
    evicted: u64,
}

/// What [`RejectionWindow::resolve`] can say about a processed ticket.
enum Resolution {
    /// The ticket was rejected with this reason.
    Rejected(Arc<str>),
    /// The ticket was applied; this many earlier tickets were rejected.
    Applied { rejected_before: u64 },
    /// The ticket predates the retained window and reasons have been
    /// evicted: it was applied or rejected, but which — and with what
    /// sequence — is no longer resolvable.
    AgedOut,
}

impl RejectionWindow {
    fn new(cap: usize) -> Self {
        Self { entries: VecDeque::new(), cap: cap.max(1), total: 0, evicted: 0 }
    }

    fn contains(&self, ticket: u64) -> bool {
        self.entries.iter().any(|(t, _, _)| *t == ticket)
    }

    /// Record a rejection. Idempotent per ticket (the supervisor and the
    /// writer can race to reject the same in-flight ticket). Returns how
    /// many old reasons were evicted to make room.
    fn push(&mut self, ticket: u64, reason: Arc<str>) -> u64 {
        if self.contains(ticket) {
            return 0;
        }
        self.total += 1;
        self.entries.push_back((ticket, self.total, reason));
        let mut dropped = 0;
        while self.entries.len() > self.cap {
            self.entries.pop_front();
            self.evicted += 1;
            dropped += 1;
        }
        dropped
    }

    fn resolve(&self, ticket: u64) -> Resolution {
        for (t, cum, reason) in self.entries.iter().rev() {
            if *t == ticket {
                return Resolution::Rejected(Arc::clone(reason));
            }
            if *t < ticket {
                // `cum` counts rejections ≤ *t; everything in (*t, ticket)
                // was applied, so it is also the count strictly before
                // `ticket` — exact even when older entries were evicted,
                // because cum is cumulative since server start.
                return Resolution::Applied { rejected_before: *cum };
            }
        }
        if self.evicted == 0 {
            Resolution::Applied { rejected_before: 0 }
        } else {
            Resolution::AgedOut
        }
    }
}

/// The durability half of the shared state: where checkpoints live and the
/// open write-ahead log.
struct DurableShared {
    cfg: DurabilityConfig,
    wal: Mutex<WalWriter>,
}

/// The batch the writer is processing right now, tracked so the supervisor
/// can resolve it if the writer dies mid-flight: roll it back (annulling its
/// WAL record) and reject, or — if the epoch was already published — finish
/// its bookkeeping.
struct InFlight {
    ticket: u64,
    seq: u64,
    keys: Vec<u64>,
    /// Byte offset of this batch's WAL record, once appended; truncating the
    /// log back to it annuls the record on rollback.
    wal_start: Option<u64>,
}

struct Shared<I: DynamicDistanceIndex> {
    /// The publish slot. Writers hold the write half only for the pointer
    /// swap; readers clone the `Arc` out under the read half.
    current: RwLock<Arc<Snapshot<I>>>,
    stats: StatsCells,
    progress: Mutex<Progress>,
    published: Condvar,
    rejections: Mutex<RejectionWindow>,
    /// Idempotency keys → the sequence that applied them.
    dedup: Mutex<DedupWindow>,
    in_flight: Mutex<Option<InFlight>>,
    /// `Some` on servers started with [`StlServer::start_durable`].
    durable: Option<DurableShared>,
    /// Generation the server booted at (0, or the recovered generation) —
    /// the offset in the ticket → sequence arithmetic of `wait_for`.
    base_generation: u64,
}

/// Epoch-snapshot query service over a [`DynamicDistanceIndex`] (an [`Stl`]
/// by default).
///
/// See the crate docs for the protocol and its consistency guarantee. The
/// server starts a supervisor thread in [`StlServer::start`] (or
/// [`StlServer::start_durable`]) which in turn runs the writer thread,
/// respawning it from the last published state if it dies; everything is
/// joined in [`StlServer::shutdown`] (or on drop).
pub struct StlServer<I: DynamicDistanceIndex = Stl> {
    shared: Arc<Shared<I>>,
    /// Queue handle plus the ticket counter, under one lock: assigning a
    /// ticket and enqueueing its batch must be atomic together, or channel
    /// order could diverge from ticket order under concurrent submitters
    /// (and `wait_for` would then report a not-yet-applied batch as
    /// published). `None` after shutdown.
    tx: Mutex<Option<(Sender<Job>, u64)>>,
    supervisor: Option<JoinHandle<()>>,
}

impl<I: DynamicDistanceIndex> StlServer<I> {
    /// Take ownership of the world (graph + index) and start serving,
    /// **without** durability: state lives in memory only.
    ///
    /// The initial state is published immediately as generation 0.
    pub fn start(graph: CsrGraph, stl: I, cfg: ServerConfig) -> Self {
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
        stl: I,
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
        stl: I,
        cfg: ServerConfig,
        base_generation: u64,
        dedup: DedupWindow,
        durable: Option<DurableShared>,
    ) -> Self {
        let first = Arc::new(Snapshot::new(base_generation, graph, stl));
        let shared = Arc::new(Shared {
            current: RwLock::new(first),
            stats: StatsCells::default(),
            progress: Mutex::new(Progress {
                processed: 0,
                generation: base_generation,
                exited: false,
            }),
            published: Condvar::new(),
            rejections: Mutex::new(RejectionWindow::new(cfg.rejection_window)),
            dedup: Mutex::new(dedup),
            in_flight: Mutex::new(None),
            durable,
            base_generation,
        });
        shared.stats.batches_applied.store(base_generation, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("stl-supervisor".into())
            .spawn(move || {
                // Flag service exit (clean drain, or the supervisor giving
                // up on a crash-looping writer) so `wait_for` never blocks
                // forever. Lives at supervisor scope: a writer death that
                // will be followed by a respawn must NOT look like exit.
                struct ExitFlag<I: DynamicDistanceIndex>(Arc<Shared<I>>);
                impl<I: DynamicDistanceIndex> Drop for ExitFlag<I> {
                    fn drop(&mut self) {
                        lock_ok(&self.0.progress).exited = true;
                        self.0.published.notify_all();
                    }
                }
                let _flag = ExitFlag(Arc::clone(&sup_shared));
                let mut restarts = 0u32;
                loop {
                    // The writer's working state is (re)derived from the
                    // last *published* snapshot — cheap COW clones — which
                    // is exactly the state every acknowledged batch is in.
                    let (graph, stl, generation) = {
                        let snap = read_ok(&sup_shared.current);
                        (snap.graph().clone(), snap.index().clone(), snap.generation())
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
        Self { shared, tx: Mutex::new(Some((tx, 0))), supervisor: Some(supervisor) }
    }

    /// Enqueue a batch of edge-weight updates for the writer thread.
    ///
    /// Returns immediately. The writer validates the batch against the graph
    /// before applying it: a valid batch is applied and published (visible
    /// to readers once [`StlServer::wait_for`] returns
    /// [`BatchOutcome::Applied`] for the ticket), an invalid one is dropped
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
        let mut tx = lock_ok(&self.tx);
        let (sender, count) = tx.as_mut().expect("server already shut down");
        *count += 1;
        let ticket = *count;
        // A failed send means the supervisor gave up (an internal bug or an
        // exhausted restart budget — bad input is rejected, not fatal).
        // Still hand out the ticket: wait_for reports the death as a
        // Rejected outcome instead of panicking here.
        let _ = sender.send(Job { ticket, keys, batch });
        Ticket(ticket)
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

    /// Block until the writer has processed the batch behind `ticket`, and
    /// report what happened to it.
    ///
    /// Never panics: a batch that failed validation — or one in flight when
    /// the writer died — is reported as [`BatchOutcome::Rejected`] with the
    /// reason, and the server keeps answering queries either way. Rejection
    /// reasons are retained for the most recent
    /// [`ServerConfig::rejection_window`] rejections; a ticket that predates
    /// the whole retained window after evictions resolves as
    /// `Applied { seq: 0 }` (sequence unknown). Waiting promptly — as every
    /// caller in this workspace does — always observes the exact outcome.
    pub fn wait_for(&self, ticket: Ticket) -> BatchOutcome {
        let guard = lock_ok(&self.shared.progress);
        let guard = self
            .shared
            .published
            .wait_while(guard, |p| p.processed < ticket.0 && !p.exited)
            .unwrap_or_else(|e| e.into_inner());
        if guard.processed < ticket.0 {
            return BatchOutcome::Rejected(format!(
                "stl-writer thread terminated before ticket {} (processed {})",
                ticket.0, guard.processed
            ));
        }
        drop(guard);
        match lock_ok(&self.shared.rejections).resolve(ticket.0) {
            Resolution::Rejected(reason) => BatchOutcome::Rejected(reason.to_string()),
            Resolution::Applied { rejected_before } => BatchOutcome::Applied {
                seq: self.shared.base_generation + ticket.0 - rejected_before,
            },
            Resolution::AgedOut => BatchOutcome::Applied { seq: 0 },
        }
    }

    /// Block until everything submitted so far has been processed (applied
    /// and published, or rejected).
    pub fn drain(&self) {
        let count = lock_ok(&self.tx).as_ref().expect("server already shut down").1;
        self.wait_for(Ticket(count));
    }

    /// Clone out the latest published epoch. O(1); never blocks the writer
    /// beyond the duration of a pointer swap.
    pub fn snapshot(&self) -> Arc<Snapshot<I>> {
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
        lock_ok(&self.shared.progress).generation
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

impl<I: DynamicDistanceIndex> Drop for StlServer<I> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Reject `ticket` with `reason`: count it, retain the reason, advance
/// progress, and clear the in-flight slot.
fn reject<I: DynamicDistanceIndex>(shared: &Shared<I>, ticket: u64, reason: String) {
    let stats = &shared.stats;
    stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
    let evicted = lock_ok(&shared.rejections).push(ticket, reason.into());
    if evicted > 0 {
        stats.rejection_reasons_evicted.fetch_add(evicted, Ordering::Relaxed);
    }
    let mut p = lock_ok(&shared.progress);
    p.processed = p.processed.max(ticket);
    drop(p);
    shared.published.notify_all();
    *lock_ok(&shared.in_flight) = None;
}

/// Supervisor-side cleanup after a writer death: decide what happened to the
/// batch that was in flight and make the world consistent with it.
///
/// The publish pointer swap is the commit point. If the dead writer got past
/// it (`published ≥ seq`), the batch **landed** — finish its bookkeeping
/// (dedup keys, applied counter) idempotently. If not, the batch is **rolled
/// back**: its WAL record (appended before apply) is annulled by truncation
/// so a crash right after the restart cannot replay a batch that was
/// reported `Rejected`, and the ticket resolves `Rejected("writer
/// restarted")`.
fn resolve_orphan<I: DynamicDistanceIndex>(shared: &Arc<Shared<I>>) {
    let Some(inf) = lock_ok(&shared.in_flight).take() else { return };
    let published = read_ok(&shared.current).generation();
    if published >= inf.seq {
        if !inf.keys.is_empty() {
            let mut dedup = lock_ok(&shared.dedup);
            for k in &inf.keys {
                dedup.insert(*k, inf.seq);
            }
        }
        shared.stats.batches_applied.store(published, Ordering::Relaxed);
    } else {
        if let (Some(d), Some(start)) = (&shared.durable, inf.wal_start) {
            let mut wal = lock_ok(&d.wal);
            if let Err(e) = wal.truncate_to(start) {
                eprintln!("stl-server: failed to annul wal record {}: {e}", inf.seq);
            }
        }
        let mut rejections = lock_ok(&shared.rejections);
        if !rejections.contains(inf.ticket) {
            shared.stats.batches_rejected.fetch_add(1, Ordering::Relaxed);
            let evicted = rejections.push(inf.ticket, "writer restarted".into());
            if evicted > 0 {
                shared.stats.rejection_reasons_evicted.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }
    let mut p = lock_ok(&shared.progress);
    p.processed = p.processed.max(inf.ticket);
    p.generation = p.generation.max(published);
    drop(p);
    shared.published.notify_all();
}

/// Checkpoint the served world and reset the WAL. Failure is logged, not
/// fatal: the WAL keeps every batch since the last successful checkpoint,
/// so durability is unaffected — the next trigger retries.
fn do_checkpoint<I: DynamicDistanceIndex>(
    shared: &Shared<I>,
    graph: &CsrGraph,
    stl: &I,
    generation: u64,
) {
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
fn writer_loop<I: DynamicDistanceIndex>(
    mut graph: CsrGraph,
    mut stl: I,
    mut generation: u64,
    shared: &Arc<Shared<I>>,
    rx: &Mutex<Receiver<Job>>,
    cfg: &ServerConfig,
) {
    let mut pool = EnginePool::new();
    // Consecutive epochs at or below the quiet dirty ratio — the
    // compaction/checkpoint trigger's streak counter.
    let mut quiet_epochs = 0u32;
    // Held for the writer's whole life: exactly one writer drains the queue
    // at a time, and a respawned writer takes over atomically.
    let rx = lock_ok(rx);
    while let Ok(Job { ticket, keys, batch }) = rx.recv() {
        let stats = &shared.stats;
        stats.updates_submitted.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // The sequence this batch will publish as, fixed before any
        // fallible step so the supervisor can tell "landed" from "rolled
        // back" by comparing it with the published generation.
        let seq = generation + 1;
        *lock_ok(&shared.in_flight) =
            Some(InFlight { ticket, seq, keys: keys.clone(), wal_start: None });
        // The bugfix that makes remote serving survivable: a bad update
        // used to kill the writer (apply_batch's panic contract), turning
        // one malformed client batch into a total outage. Validate first;
        // reject without mutating — and without logging: the WAL holds only
        // accepted batches.
        if let Err(reason) = validate_batch(&graph, &batch) {
            reject(shared, ticket, reason);
            continue;
        }
        // Log before apply: once the record is (policy-permitting) synced,
        // a crash at any later point replays the batch instead of losing
        // it. The acknowledgement (wait_for observing `processed`) happens
        // only after publish, so under `fsync=always` no acknowledged batch
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
                            reject(shared, ticket, format!("wal fsync failed: {e}"));
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
                    reject(shared, ticket, format!("wal append failed: {e}"));
                    continue;
                }
            }
        }
        let t_apply = Instant::now();
        let (ustats, report) = stl.apply_batch(
            &mut graph,
            &batch,
            cfg.algo,
            &mut pool,
            cfg.repair_threads,
            cfg.owned_shards.as_ref(),
        );
        stats.apply_ns_total.fetch_add(t_apply.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.repair_shards_last.store(report.shards_touched as u64, Ordering::Relaxed);
        stats.repair_shard_ns_max_last.store(report.max_ns(), Ordering::Relaxed);
        stats.repair_shard_ns_sum_last.store(report.sum_ns(), Ordering::Relaxed);
        stats.trees_touched_total.fetch_add(ustats.trees_touched, Ordering::Relaxed);
        stats.trees_skipped_total.fetch_add(ustats.trees_skipped, Ordering::Relaxed);
        // Applying the batch COW-promoted exactly the chunks it wrote (the
        // previous snapshot pinned everything else); drain the copy
        // accounting into the public counters.
        let cow = stl.take_cow_stats() + graph.take_cow_stats();
        stats.publish_bytes_copied.fetch_add(cow.bytes_copied, Ordering::Relaxed);
        stats.chunks_copied_last.store(cow.chunks_copied, Ordering::Relaxed);
        // Quiescence trigger: when the dirty-chunk rate has stayed below
        // the threshold for enough consecutive epochs, re-flatten labels +
        // CSR weights so the snapshot published below serves direct-offset
        // label reads — and, on a durable server, checkpoint
        // after the publish (traffic is quiet, copying is cheapest).
        let mut checkpoint_due = false;
        if cfg.compact_after_quiet_epochs > 0 {
            let total_chunks = (stl.num_chunks() + graph.num_weight_chunks()).max(1);
            let ratio = cow.chunks_copied as f64 / total_chunks as f64;
            quiet_epochs = if ratio <= cfg.compact_dirty_ratio { quiet_epochs + 1 } else { 0 };
            if quiet_epochs >= cfg.compact_after_quiet_epochs {
                if !(stl.is_flat() && graph.weights_flat()) {
                    let bytes = stl.compact() + graph.compact_weights();
                    // Drop the compaction pass out of the next epoch's COW
                    // window — it is accounted here, in the dedicated
                    // counters.
                    stl.take_cow_stats();
                    graph.take_cow_stats();
                    if bytes > 0 {
                        stats.compactions_total.fetch_add(1, Ordering::Relaxed);
                        stats.bytes_flattened_total.fetch_add(bytes, Ordering::Relaxed);
                    }
                }
                checkpoint_due = shared.durable.is_some();
                quiet_epochs = 0;
            }
        }
        // Publish: O(touched) — the clone below copies only the Arc chunk
        // tables; every byte not written by this batch is shared with the
        // previous epoch. Every *valid* batch publishes — even one
        // normalised away to a no-op — so applied tickets always resolve to
        // a sequence number.
        generation = seq;
        let t_pub = Instant::now();
        let snap = Arc::new(Snapshot::new(generation, graph.clone(), stl.clone()));
        let snap_flat = snap.is_flat();
        // Fires *before* the pointer swap: a batch killed here is rolled
        // back (WAL record annulled), so readers must never have seen it.
        failpoint::fire("publish");
        *write_ok(&shared.current) = snap;
        // Stored only *after* the pointer swap: storing before it opened a
        // window where stats() reported a flat snapshot while readers still
        // held the chunked one.
        stats.snapshot_is_flat.store(u64::from(snap_flat), Ordering::Relaxed);
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
        let mut p = lock_ok(&shared.progress);
        p.processed = p.processed.max(ticket);
        p.generation = p.generation.max(generation);
        drop(p);
        shared.published.notify_all();
        *lock_ok(&shared.in_flight) = None;
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
        assert!((t1, t2, t3) < (t2, t3, Ticket(4)));
        server.wait_for(t3);
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
        // Sequence numbers are generations: rejections consume none, so the
        // ticket → seq mapping shifts by exactly the rejections before it.
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
    fn sharded_writer_matches_oracle_and_reports_shard_timings() {
        // Label-search writer with a multi-thread repair fan-out: every
        // published epoch must still match Dijkstra exactly, and the
        // per-shard repair accounting must reach ServerStats.
        let mut g = generate(&RoadNetConfig::sized(220, 21));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig {
                algo: stl_core::Maintenance::LabelSearch,
                repair_threads: 3,
                ..Default::default()
            },
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
            let stats = server.stats();
            assert!(stats.repair_shards_last >= 1, "sharded repair must report its shards");
            assert!(stats.repair_shard_ns_sum_last >= stats.repair_shard_ns_max_last);
        }
        let stats = server.shutdown();
        assert!(stats.trees_touched_total >= edges.len() as u64);
        assert!(stats.trees_skipped_total > 0, "single-edge batches must skip most stable trees");
    }

    #[test]
    fn pareto_sharded_writer_matches_oracle_and_reports_shard_timings() {
        // The default (Pareto) writer with a multi-thread repair fan-out:
        // every published epoch must match Dijkstra exactly and the shard
        // accounting must reach ServerStats — Pareto is no longer the
        // serial-only family.
        let mut g = generate(&RoadNetConfig::sized(220, 27));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig {
                algo: stl_core::Maintenance::ParetoSearch,
                repair_threads: 3,
                ..Default::default()
            },
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
            let stats = server.stats();
            assert!(stats.repair_shards_last >= 1, "pareto repair must report its shards");
            assert!(stats.repair_shard_ns_sum_last >= stats.repair_shard_ns_max_last);
        }
        let stats = server.shutdown();
        assert!(stats.trees_touched_total >= edges.len() as u64);
        assert!(stats.trees_skipped_total > 0, "single-edge batches must skip most stable trees");
    }

    /// [`ServerConfig::from_vars`] over a fixed set of variables — no
    /// process-global environment involved, so tests cannot race.
    fn config_from(vars: &[(&str, &str)]) -> Result<ServerConfig, String> {
        ServerConfig::from_vars(|key| {
            vars.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn config_from_env_overrides_repair_threads() {
        let key = "STL_REPAIR_THREADS";
        assert_eq!(config_from(&[(key, "2")]).unwrap().repair_threads, 2);
        // Malformed or out-of-range values are errors now, not silent
        // defaults — a CI-matrix typo must fail the run, loudly.
        let err = config_from(&[(key, "not a number")]).unwrap_err();
        assert!(err.contains("STL_REPAIR_THREADS"), "error must name the variable: {err}");
        let err = config_from(&[(key, "0")]).unwrap_err();
        assert!(err.contains("at least 1"), "zero threads must be rejected: {err}");
    }

    #[test]
    fn config_from_env_overrides_durability_windows() {
        let cfg = config_from(&[("STL_REJECTION_WINDOW", "7"), ("STL_DEDUP_WINDOW", "0")]).unwrap();
        assert_eq!(cfg.rejection_window, 7);
        assert_eq!(cfg.dedup_window, 0, "0 must be accepted (disables dedup)");
        let err = config_from(&[("STL_REJECTION_WINDOW", "0")]).unwrap_err();
        assert!(err.contains("at least 1"), "zero-deep rejection window must error: {err}");
    }

    #[test]
    fn quiescence_triggers_compaction_and_flat_snapshots() {
        // With the trigger wound down to "compact after every epoch", the
        // writer must flatten the arena, report it in ServerStats, and keep
        // serving exact distances from the flat read path.
        let mut g = generate(&RoadNetConfig::sized(180, 41));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig {
                compact_after_quiet_epochs: 1,
                compact_dirty_ratio: 1.0,
                ..Default::default()
            },
        );
        let edges: Vec<_> = g.edges().step_by(11).take(4).collect();
        for &(a, b, w) in &edges {
            server.wait_for(server.submit(vec![EdgeUpdate::new(a, b, w * 3)]));
            g.set_weight(a, b, w * 3).unwrap();
            let snap = server.snapshot();
            for (s, t) in [(0u32, 140u32), (7, 101), (33, 90)] {
                assert_eq!(snap.query(s, t), dijkstra::distance(&g, s, t));
            }
        }
        let stats = server.shutdown();
        assert!(stats.compactions_total >= 1, "every-epoch trigger must have compacted");
        assert!(stats.bytes_flattened_total > 0);
        assert!(stats.snapshot_is_flat, "last published snapshot must be flat");
    }

    #[test]
    fn compaction_never_mutates_pinned_snapshots() {
        // A reader holding an Arc<Snapshot> across a compaction (and further
        // batches) must observe the exact distances of its own generation —
        // compaction re-points the *writer's* chunks, never a published epoch.
        let mut g = generate(&RoadNetConfig::sized(160, 53));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig {
                compact_after_quiet_epochs: 1,
                compact_dirty_ratio: 1.0,
                ..Default::default()
            },
        );
        let pairs = [(0u32, 120u32), (5, 99), (41, 77), (12, 150)];
        let pinned = server.snapshot();
        let oracle: Vec<_> = pairs.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect();
        assert_eq!(pinned.generation(), 0);

        let edges: Vec<_> = g.edges().step_by(13).take(5).collect();
        for &(a, b, w) in &edges {
            server.wait_for(server.submit(vec![EdgeUpdate::new(a, b, w + 9)]));
            g.set_weight(a, b, w + 9).unwrap();
        }
        let stats = server.stats();
        assert!(stats.compactions_total >= 1, "trigger must have fired mid-run");

        // The pinned generation-0 snapshot still answers generation-0 truth.
        assert_eq!(pinned.generation(), 0);
        for (&(s, t), &d) in pairs.iter().zip(&oracle) {
            assert_eq!(pinned.query(s, t), d, "pinned snapshot changed under compaction");
        }
        // And the current snapshot answers the updated graph, from a flat arena.
        let snap = server.snapshot();
        assert!(snap.is_flat());
        for &(s, t) in &pairs {
            assert_eq!(snap.query(s, t), dijkstra::distance(&g, s, t));
        }
        server.shutdown();
    }

    #[test]
    fn config_from_env_overrides_compaction_knobs() {
        let cfg =
            config_from(&[("STL_COMPACT_QUIET_EPOCHS", "3"), ("STL_COMPACT_DIRTY_RATIO", "0.5")])
                .unwrap();
        assert_eq!(cfg.compact_after_quiet_epochs, 3);
        assert!((cfg.compact_dirty_ratio - 0.5).abs() < 1e-9);
        let err = config_from(&[("STL_COMPACT_DIRTY_RATIO", "1.5")]).unwrap_err();
        assert!(err.contains("0.0..=1.0"), "out-of-range ratio must error: {err}");
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
        // Tickets and generations diverge by exactly the rejections, and
        // every ticket reports its own outcome.
        let g = diamond();
        let server = start(&g);
        let t1 = server.submit(vec![EdgeUpdate::new(1, 2, 7)]); // valid
        let t2 = server.submit(vec![EdgeUpdate::new(1, 3, 7)]); // no such edge
        let t3 = server.submit(vec![EdgeUpdate::new(2, 3, 9)]); // valid
        assert_eq!(server.wait_for(t1), BatchOutcome::Applied { seq: 1 });
        assert!(!server.wait_for(t2).is_applied());
        assert_eq!(server.wait_for(t3), BatchOutcome::Applied { seq: 2 });
        // Re-reading an outcome is stable (the window retains it).
        assert!(!server.wait_for(t2).is_applied());
        assert_eq!(server.generation(), 2);
        let stats = server.shutdown();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.batches_rejected, 1);
        assert_eq!(stats.updates_submitted, 3);
    }

    #[test]
    fn rejection_window_evicts_and_ages_out_to_ambiguous_applied() {
        // With a 2-deep window, the third rejection evicts the first
        // reason: the evicted ticket resolves to the documented ambiguous
        // Applied { seq: 0 }, the eviction is counted, and retained tickets
        // still resolve exactly.
        let g = diamond();
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig { rejection_window: 2, ..Default::default() },
        );
        let bad = || vec![EdgeUpdate::new(1, 3, 7)]; // no such edge
        let t1 = server.submit(bad());
        let t2 = server.submit(bad());
        let t3 = server.submit(bad());
        let t4 = server.submit(vec![EdgeUpdate::new(0, 1, 9)]); // valid -> seq 1
        server.wait_for(t4);
        assert!(!server.wait_for(t2).is_applied());
        assert!(!server.wait_for(t3).is_applied());
        // t1's reason aged out: absent ⇒ Applied, with the unknown-seq marker.
        assert_eq!(server.wait_for(t1), BatchOutcome::Applied { seq: 0 });
        // t4 is after retained rejections, so its seq is exact.
        assert_eq!(server.wait_for(t4), BatchOutcome::Applied { seq: 1 });
        let stats = server.shutdown();
        assert_eq!(stats.rejection_reasons_evicted, 1);
        assert_eq!(stats.batches_rejected, 3);
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
    fn query_and_record_feed_stats() {
        let g = diamond();
        let server = start(&g);
        assert_eq!(server.query(0, 2), 7);
        server.record_queries(41);
        assert_eq!(server.stats().queries_served, 42);
    }

    #[test]
    fn flat_flag_tracks_the_published_snapshot() {
        // Regression for the ordering bug: snapshot_is_flat used to be
        // stored *before* the pointer swap, so stats() could claim a flat
        // snapshot while readers still got the chunked one. Pin the
        // invariant: after every wait_for, the flag equals the published
        // snapshot's own is_flat() — across epochs that flip it both ways
        // (chunked → compacted/flat → written/chunked again).
        let mut g = generate(&RoadNetConfig::sized(160, 47));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(
            g.clone(),
            stl,
            ServerConfig {
                compact_after_quiet_epochs: 2,
                compact_dirty_ratio: 1.0,
                ..Default::default()
            },
        );
        let mut seen_flat = false;
        let mut seen_chunked = false;
        let edges: Vec<_> = g.edges().step_by(9).take(6).collect();
        for &(a, b, w) in &edges {
            server.wait_for(server.submit(vec![EdgeUpdate::new(a, b, w + 5)]));
            g.set_weight(a, b, w + 5).unwrap();
            let snap = server.snapshot();
            let stats = server.stats();
            assert_eq!(
                stats.snapshot_is_flat,
                snap.is_flat(),
                "stats flag diverged from the published snapshot at generation {}",
                snap.generation()
            );
            seen_flat |= snap.is_flat();
            seen_chunked |= !snap.is_flat();
        }
        assert!(seen_flat && seen_chunked, "test must cover both flag states");
        server.shutdown();
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
