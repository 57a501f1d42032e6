//! Adaptive update batching between request producers and the writer.
//!
//! The paper's batch experiments (§7) quantify the trade-off this module
//! makes user-facing: larger batches amortise label repair (one search pass,
//! one publish for many updates) at the cost of update visibility latency. The [`AdaptiveBatcher`] sits between any number of
//! producers — the TCP transport's reader pool, or in-process callers — and
//! [`StlServer::submit`]: it submits accumulated update requests as one
//! writer batch and fans the resulting [`BatchOutcome`] back to every
//! contributing request.
//!
//! The flush rule is **group commit**. A request that finds the batcher
//! idle — nothing pending and no merged batch with the writer — is flushed
//! at once, so a lone update is never delayed; requests that land before
//! the flusher grabs it ride along. Requests that arrive while a batch is
//! with the writer accumulate instead, and flush when either a **latency
//! budget** ([`BatcherConfig::latency_ms`]) or a **size budget**
//! ([`BatcherConfig::max_updates`]) trips. Amortisation therefore happens
//! exactly when there is a batch to amortise over, and idle costs nothing.
//!
//! Two properties keep bad input and overload survivable:
//!
//! * **Pre-validation.** Every request is validated against the (immutable)
//!   topology before it may join a merged batch
//!   ([`crate::server::validate_batch`]); an invalid request is answered
//!   [`BatchOutcome::Rejected`] on its own and can never poison the merged
//!   batch of innocent co-submitters. Since validation is purely structural
//!   and structure never changes, the pre-check is exact — the writer's own
//!   validation (the backstop for direct `submit` callers) never fires for
//!   batched traffic.
//! * **Admission control.** At most [`BatcherConfig::max_queued`] updates
//!   may be pending; beyond that, new requests are shed immediately with an
//!   explicit `Rejected("overloaded: …")` instead of growing the queue
//!   without bound.
//!
//! A third makes client *retries* survivable: **idempotency keys**
//! ([`AdaptiveBatcher::submit_keyed`]). A keyed request that already applied
//! is answered from the server's dedup window without re-applying, and a
//! keyed request whose twin is still pending *joins* the pending request's
//! outcome slot instead of enqueueing a duplicate — so a client that times
//! out and retries (or reconnects after a writer restart) can never
//! double-apply its update.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stl_graph::{CsrGraph, EdgeUpdate};

use crate::server::{validate_batch, BatchOutcome, StlServer};

/// Batching knobs (see the module docs for the trade-off they control).
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Latency budget in milliseconds: how long a request may wait for
    /// company **while the writer is busy**. A request that finds the
    /// batcher idle is flushed at once whatever this says; a set opened
    /// behind a busy writer is flushed once its oldest update has waited
    /// this long. `0` flushes such a set as soon as the writer is free
    /// (minimal added latency, minimal amortisation).
    pub latency_ms: u64,
    /// Size budget: a pending batch is flushed as soon as it holds at least
    /// this many updates, regardless of age.
    pub max_updates: usize,
    /// Admission bound: requests arriving while this many updates are
    /// already pending are shed with an explicit rejection instead of
    /// queued. Bounds both memory and worst-case flush size.
    pub max_queued: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self { latency_ms: 10, max_updates: 256, max_queued: 4096 }
    }
}

/// Counters of one batcher's lifetime, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Merged batches handed to the writer.
    pub batches_submitted: u64,
    /// Client requests folded into those batches (≥ `batches_submitted`
    /// whenever coalescing happened).
    pub requests_coalesced: u64,
    /// Requests shed by admission control (queue full).
    pub requests_shed: u64,
    /// Requests rejected by pre-validation (bad edge, INF weight, …).
    pub requests_rejected: u64,
    /// Keyed retries that joined an already-pending request with the same
    /// idempotency key instead of enqueueing a duplicate (dedup-window hits
    /// for already-*applied* keys are counted in
    /// [`crate::ServerStats::dedup_hits`] instead).
    pub requests_joined: u64,
    /// Flushes of a set opened while the batcher was idle (nothing pending,
    /// no batch with the writer), sent to the writer without waiting.
    pub flushes_idle: u64,
    /// Flushes tripped by the size budget.
    pub flushes_by_size: u64,
    /// Flushes tripped by the latency budget.
    pub flushes_by_timer: u64,
}

#[derive(Debug, Default)]
struct OutcomeSlot {
    outcome: Mutex<Option<BatchOutcome>>,
    ready: Condvar,
}

impl OutcomeSlot {
    fn resolve(&self, outcome: BatchOutcome) {
        *self.outcome.lock().unwrap() = Some(outcome);
        self.ready.notify_all();
    }
}

/// Handle to one enqueued update request; [`PendingUpdate::wait`] blocks
/// until the request's merged batch has been applied (or the request was
/// rejected/shed up front) and returns the outcome.
#[derive(Debug)]
pub struct PendingUpdate(Arc<OutcomeSlot>);

impl PendingUpdate {
    fn resolved(outcome: BatchOutcome) -> Self {
        let slot = OutcomeSlot::default();
        *slot.outcome.lock().unwrap() = Some(outcome);
        Self(Arc::new(slot))
    }

    /// Block until the outcome is known. Idempotent — repeated calls return
    /// the same outcome.
    pub fn wait(&self) -> BatchOutcome {
        let guard = self.0.outcome.lock().unwrap();
        let guard = self.0.ready.wait_while(guard, |o| o.is_none()).unwrap();
        guard.clone().expect("wait_while guarantees Some")
    }
}

#[derive(Default)]
struct FlushState {
    pending: Vec<EdgeUpdate>,
    /// One entry per enqueued request: its idempotency key (if any) and the
    /// slot its outcome resolves into.
    waiters: Vec<(Option<u64>, Arc<OutcomeSlot>)>,
    /// Keys currently pending or in a submitted-but-unresolved batch; a
    /// retry carrying one of these joins the existing slot.
    in_flight: HashMap<u64, Arc<OutcomeSlot>>,
    /// When the pending set's first request arrived; `None` while no
    /// request is pending.
    opened_at: Option<Instant>,
    /// The pending set was opened while the batcher was idle, so it goes to
    /// the writer without waiting for company.
    opened_idle: bool,
    /// The flusher holds a taken set: from the take until its waiters are
    /// resolved. A set opened meanwhile waits out the latency budget.
    busy: bool,
    stop: bool,
}

/// Why the flusher takes the pending set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flush {
    /// The set was opened while the batcher was idle.
    Idle,
    /// The set holds at least [`BatcherConfig::max_updates`] updates.
    Size,
    /// The set, opened behind a busy writer, used up its latency budget.
    Timer,
    /// Shutdown drains whatever is pending.
    Shutdown,
}

/// The flush rule, a pure function of the batcher state: `None` means keep
/// waiting. The size budget and an idle-opened set flush at once; otherwise
/// shutdown drains, and a set opened behind a busy writer waits out its
/// latency budget.
fn flush_due(st: &FlushState, now: Instant, cfg: &BatcherConfig) -> Option<Flush> {
    let opened_at = st.opened_at?;
    if st.pending.len() >= cfg.max_updates {
        Some(Flush::Size)
    } else if st.opened_idle {
        Some(Flush::Idle)
    } else if st.stop {
        Some(Flush::Shutdown)
    } else if now.saturating_duration_since(opened_at) >= Duration::from_millis(cfg.latency_ms) {
        Some(Flush::Timer)
    } else {
        None
    }
}

struct BatcherShared {
    server: Arc<StlServer>,
    /// Topology reference for pre-validation. Weights are irrelevant to
    /// validation and structure is immutable, so a COW clone taken at
    /// construction stays accurate forever.
    graph: CsrGraph,
    cfg: BatcherConfig,
    state: Mutex<FlushState>,
    kick: Condvar,
    batches_submitted: AtomicU64,
    requests_coalesced: AtomicU64,
    requests_shed: AtomicU64,
    requests_rejected: AtomicU64,
    requests_joined: AtomicU64,
    flushes_idle: AtomicU64,
    flushes_by_size: AtomicU64,
    flushes_by_timer: AtomicU64,
}

/// The accumulating middleman between producers and the writer (see the
/// module docs). Cheap to share behind an `Arc`; submission is `&self`.
pub struct AdaptiveBatcher {
    shared: Arc<BatcherShared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl AdaptiveBatcher {
    /// Start the flusher thread in front of `server`.
    pub fn start(server: Arc<StlServer>, cfg: BatcherConfig) -> Self {
        let graph = server.snapshot().graph().clone();
        let shared = Arc::new(BatcherShared {
            server,
            graph,
            cfg,
            state: Mutex::new(FlushState::default()),
            kick: Condvar::new(),
            batches_submitted: AtomicU64::new(0),
            requests_coalesced: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            requests_rejected: AtomicU64::new(0),
            requests_joined: AtomicU64::new(0),
            flushes_idle: AtomicU64::new(0),
            flushes_by_size: AtomicU64::new(0),
            flushes_by_timer: AtomicU64::new(0),
        });
        let flusher_shared = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("stl-batcher".into())
            .spawn(move || flusher_loop(&flusher_shared))
            .expect("spawn stl-batcher thread");
        Self { shared, flusher: Mutex::new(Some(flusher)) }
    }

    /// Enqueue one update request.
    ///
    /// Returns immediately with a [`PendingUpdate`]; call
    /// [`PendingUpdate::wait`] for the outcome. Invalid requests and
    /// requests shed by admission control come back already resolved to
    /// [`BatchOutcome::Rejected`] without touching the queue.
    pub fn submit(&self, updates: Vec<EdgeUpdate>) -> PendingUpdate {
        self.submit_keyed(None, updates)
    }

    /// [`AdaptiveBatcher::submit`] with an optional client-supplied
    /// **idempotency key**, the safe-retry contract:
    ///
    /// * If `key` already **applied** (it is in the server's dedup window),
    ///   the request resolves immediately to the original
    ///   `Applied { seq }` — nothing is re-applied.
    /// * If a request with `key` is still **pending or in flight**, this
    ///   request joins its outcome slot — both callers see the one outcome
    ///   of the one enqueued copy.
    /// * Otherwise the request enqueues normally and its key travels with
    ///   the merged batch into the writer (and, on a durable server, into
    ///   the WAL record and checkpoints).
    ///
    /// Keys are client-chosen `u64`s; callers must make them unique per
    /// logical update (a random 64-bit value per request is fine).
    pub fn submit_keyed(&self, key: Option<u64>, updates: Vec<EdgeUpdate>) -> PendingUpdate {
        if let Err(reason) = validate_batch(&self.shared.graph, &updates) {
            self.shared.requests_rejected.fetch_add(1, Ordering::Relaxed);
            self.shared.server.note_rejected_batch();
            return PendingUpdate::resolved(BatchOutcome::Rejected(reason));
        }
        if let Some(k) = key {
            if let Some(seq) = self.shared.server.dedup_lookup(k) {
                return PendingUpdate::resolved(BatchOutcome::Applied { seq });
            }
        }
        let mut st = self.shared.state.lock().unwrap();
        if st.stop {
            return PendingUpdate::resolved(BatchOutcome::Rejected(
                "batcher shut down before the request was accepted".into(),
            ));
        }
        if let Some(slot) = key.and_then(|k| st.in_flight.get(&k).cloned()) {
            drop(st);
            self.shared.requests_joined.fetch_add(1, Ordering::Relaxed);
            return PendingUpdate(slot);
        }
        if st.pending.len() + updates.len() > self.shared.cfg.max_queued {
            let queued = st.pending.len();
            drop(st);
            self.shared.requests_shed.fetch_add(1, Ordering::Relaxed);
            return PendingUpdate::resolved(BatchOutcome::Rejected(format!(
                "overloaded: {queued} updates queued (admission limit {})",
                self.shared.cfg.max_queued
            )));
        }
        if st.waiters.is_empty() {
            st.opened_at = Some(Instant::now());
            st.opened_idle = !st.busy;
        }
        st.pending.extend(updates);
        let slot = Arc::new(OutcomeSlot::default());
        if let Some(k) = key {
            st.in_flight.insert(k, Arc::clone(&slot));
        }
        st.waiters.push((key, Arc::clone(&slot)));
        drop(st);
        self.shared.kick.notify_all();
        PendingUpdate(slot)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            batches_submitted: self.shared.batches_submitted.load(Ordering::Relaxed),
            requests_coalesced: self.shared.requests_coalesced.load(Ordering::Relaxed),
            requests_shed: self.shared.requests_shed.load(Ordering::Relaxed),
            requests_rejected: self.shared.requests_rejected.load(Ordering::Relaxed),
            requests_joined: self.shared.requests_joined.load(Ordering::Relaxed),
            flushes_idle: self.shared.flushes_idle.load(Ordering::Relaxed),
            flushes_by_size: self.shared.flushes_by_size.load(Ordering::Relaxed),
            flushes_by_timer: self.shared.flushes_by_timer.load(Ordering::Relaxed),
        }
    }

    /// Flush whatever is pending, resolve every outstanding waiter, and join
    /// the flusher thread. Idempotent; also runs on drop. Requests arriving
    /// after shutdown are rejected immediately.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.stop = true;
        }
        self.shared.kick.notify_all();
        if let Some(handle) = self.flusher.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AdaptiveBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn flusher_loop(shared: &BatcherShared) {
    let budget = Duration::from_millis(shared.cfg.latency_ms);
    let mut st = shared.state.lock().unwrap();
    loop {
        let now = Instant::now();
        let Some(why) = flush_due(&st, now, &shared.cfg) else {
            st = match st.opened_at {
                // A set opened behind a busy writer: sleep out the rest of
                // its budget, re-checking whenever a new request lands (it
                // may trip the size budget).
                Some(t) => {
                    shared
                        .kick
                        .wait_timeout(st, (t + budget).saturating_duration_since(now))
                        .unwrap()
                        .0
                }
                None if st.stop => return,
                None => shared.kick.wait(st).unwrap(),
            };
            continue;
        };
        st.opened_at = None;
        st.opened_idle = false;
        st.busy = true;
        let batch = std::mem::take(&mut st.pending);
        let waiters = std::mem::take(&mut st.waiters);
        drop(st);
        // Submit outside the lock: requests arriving while the writer
        // applies this batch open the next set behind a busy writer, and
        // their wait is exactly where repair amortisation comes from under
        // load.
        let keys: Vec<u64> = waiters.iter().filter_map(|(k, _)| *k).collect();
        let ticket = shared.server.submit_with_keys(keys, batch);
        let outcome = shared.server.wait_for(ticket);
        shared.batches_submitted.fetch_add(1, Ordering::Relaxed);
        shared.requests_coalesced.fetch_add(waiters.len() as u64, Ordering::Relaxed);
        let counter = match why {
            Flush::Idle => Some(&shared.flushes_idle),
            Flush::Size => Some(&shared.flushes_by_size),
            Flush::Timer => Some(&shared.flushes_by_timer),
            Flush::Shutdown => None,
        };
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        // Resolve, release the keys and go idle under one lock: a keyed
        // retry either joins a resolved slot (PendingUpdate::wait is
        // idempotent) or hits the server's dedup window, and a caller that
        // submits again right after its outcome finds the batcher idle.
        st = shared.state.lock().unwrap();
        for (key, waiter) in &waiters {
            waiter.resolve(outcome.clone());
            if let Some(k) = key {
                st.in_flight.remove(k);
            }
        }
        st.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use stl_core::{Stl, StlConfig};
    use stl_graph::builder::from_edges;

    fn diamond_server() -> Arc<StlServer> {
        let g = from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)]);
        let stl = Stl::build(&g, &StlConfig::default());
        Arc::new(StlServer::start(g, stl, ServerConfig::default()))
    }

    /// Mark the batcher busy as if a merged batch were with the writer, so
    /// the next requests open a set that waits for company. The flusher
    /// clears the mark once it has resolved that set.
    fn hold_writer_busy(batcher: &AdaptiveBatcher) {
        batcher.shared.state.lock().unwrap().busy = true;
    }

    #[test]
    fn flush_due_decides_by_size_idleness_shutdown_and_budget() {
        let cfg = BatcherConfig { latency_ms: 5, max_updates: 3, ..Default::default() };
        let budget = Duration::from_millis(cfg.latency_ms);
        let t0 = Instant::now();
        let set = |updates: usize, opened_idle: bool, stop: bool| FlushState {
            pending: vec![EdgeUpdate::new(0, 1, 1); updates],
            waiters: vec![(None, Arc::default()); updates],
            opened_at: Some(t0),
            opened_idle,
            stop,
            ..Default::default()
        };
        let cases = [
            ("nothing pending", FlushState::default(), t0 + budget, None),
            ("idle-opened", set(1, true, false), t0, Some(Flush::Idle)),
            ("busy-opened under the budget", set(1, false, false), t0 + budget / 2, None),
            (
                "busy-opened past the budget",
                set(1, false, false),
                t0 + 2 * budget,
                Some(Flush::Timer),
            ),
            ("size trip", set(3, false, false), t0, Some(Flush::Size)),
            ("size trip on an idle-opened set", set(3, true, false), t0, Some(Flush::Size)),
            ("shutdown with a non-empty set", set(1, false, true), t0, Some(Flush::Shutdown)),
            (
                "shutdown with nothing pending",
                FlushState { stop: true, ..Default::default() },
                t0,
                None,
            ),
        ];
        for (name, st, now, want) in cases {
            assert_eq!(flush_due(&st, now, &cfg), want, "{name}");
        }
    }

    #[test]
    fn lone_update_is_not_held_by_the_window() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 10_000, ..Default::default() },
        );
        let p = batcher.submit(vec![EdgeUpdate::new(0, 1, 5)]);
        assert_eq!(p.wait(), BatchOutcome::Applied { seq: 1 });
        let stats = batcher.stats();
        assert_eq!(stats.flushes_idle, 1);
        assert_eq!(stats.flushes_by_timer, 0);
        // The outcome is resolved only once the batcher is idle again, so a
        // caller's next update is not held either.
        let p = batcher.submit(vec![EdgeUpdate::new(0, 1, 6)]);
        assert_eq!(p.wait(), BatchOutcome::Applied { seq: 2 });
        assert_eq!(batcher.stats().flushes_idle, 2);
        batcher.shutdown();
    }

    #[test]
    fn coalesces_concurrent_requests_into_one_writer_batch() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 250, ..Default::default() },
        );
        // The first request finds the batcher idle; the others ride along
        // or wait behind it, depending on when the flusher grabs the set.
        let pends: Vec<PendingUpdate> = vec![
            batcher.submit(vec![EdgeUpdate::new(0, 1, 5)]),
            batcher.submit(vec![EdgeUpdate::new(1, 2, 6)]),
            batcher.submit(vec![EdgeUpdate::new(2, 3, 7)]),
        ];
        for p in &pends {
            assert!(p.wait().is_applied());
        }
        assert_eq!(batcher.stats().requests_coalesced, 3);
        batcher.shutdown();
        assert_eq!(server.snapshot().query(0, 2), 11);
        assert_eq!(server.snapshot().query(0, 3), 18);
    }

    #[test]
    fn size_budget_trips_before_the_timer() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 10_000, max_updates: 2, ..Default::default() },
        );
        hold_writer_busy(&batcher);
        let a = batcher.submit(vec![EdgeUpdate::new(0, 1, 9)]);
        let b = batcher.submit(vec![EdgeUpdate::new(1, 2, 9)]);
        assert_eq!(a.wait(), BatchOutcome::Applied { seq: 1 });
        assert_eq!(b.wait(), BatchOutcome::Applied { seq: 1 });
        let stats = batcher.stats();
        assert_eq!(stats.flushes_by_size, 1);
        assert_eq!(stats.batches_submitted, 1);
        batcher.shutdown();
    }

    #[test]
    fn invalid_request_is_rejected_alone_without_poisoning_the_batch() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 250, ..Default::default() },
        );
        let good = batcher.submit(vec![EdgeUpdate::new(0, 1, 8)]);
        let bad = batcher.submit(vec![EdgeUpdate::new(0, 2, 8)]); // no such edge
        match bad.wait() {
            BatchOutcome::Rejected(reason) => assert!(reason.contains("no edge"), "{reason}"),
            BatchOutcome::Applied { .. } => panic!("invalid request must not be applied"),
        }
        assert_eq!(
            good.wait(),
            BatchOutcome::Applied { seq: 1 },
            "co-submitter must be unaffected"
        );
        assert_eq!(server.snapshot().query(0, 1), 8);
        assert_eq!(batcher.stats().requests_rejected, 1);
        assert_eq!(server.stats().batches_rejected, 1, "pre-check rejections reach ServerStats");
        batcher.shutdown();
    }

    #[test]
    fn admission_control_sheds_beyond_the_queue_bound() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 300, max_updates: 1000, max_queued: 3 },
        );
        // Fill the queue behind a busy writer, then overflow it.
        hold_writer_busy(&batcher);
        let fill: Vec<PendingUpdate> =
            (0..3).map(|i| batcher.submit(vec![EdgeUpdate::new(0, 1, 10 + i)])).collect();
        let shed = batcher.submit(vec![EdgeUpdate::new(2, 3, 9)]);
        match shed.wait() {
            BatchOutcome::Rejected(reason) => {
                assert!(reason.contains("overloaded"), "shed must be explicit: {reason}")
            }
            BatchOutcome::Applied { .. } => panic!("requests beyond the bound must shed"),
        }
        assert_eq!(batcher.stats().requests_shed, 1);
        for p in fill {
            assert_eq!(p.wait(), BatchOutcome::Applied { seq: 1 }, "queued requests still apply");
        }
        batcher.shutdown();
    }

    #[test]
    fn keyed_retry_after_apply_is_answered_from_the_dedup_window() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 0, ..Default::default() },
        );
        let first = batcher.submit_keyed(Some(42), vec![EdgeUpdate::new(0, 1, 7)]);
        assert_eq!(first.wait(), BatchOutcome::Applied { seq: 1 });
        // Same key again — e.g. the client timed out and retried after the
        // batch already landed. Must be acknowledged with the *original*
        // sequence number, without submitting a second batch.
        let retry = batcher.submit_keyed(Some(42), vec![EdgeUpdate::new(0, 1, 7)]);
        assert_eq!(retry.wait(), BatchOutcome::Applied { seq: 1 });
        assert_eq!(batcher.stats().batches_submitted, 1, "retry must not re-apply");
        assert_eq!(server.stats().dedup_hits, 1);
        assert_eq!(server.generation(), 1);
        batcher.shutdown();
    }

    #[test]
    fn concurrent_keyed_retry_joins_the_pending_slot() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig { latency_ms: 250, ..Default::default() },
        );
        // Two submissions with the same key behind a busy writer: the second
        // joins the first's outcome slot instead of enqueueing a duplicate
        // update.
        hold_writer_busy(&batcher);
        let a = batcher.submit_keyed(Some(7), vec![EdgeUpdate::new(1, 2, 9)]);
        let b = batcher.submit_keyed(Some(7), vec![EdgeUpdate::new(1, 2, 9)]);
        assert_eq!(a.wait(), BatchOutcome::Applied { seq: 1 });
        assert_eq!(b.wait(), BatchOutcome::Applied { seq: 1 });
        let stats = batcher.stats();
        assert_eq!(stats.requests_joined, 1, "second submission must join, not enqueue");
        assert_eq!(stats.batches_submitted, 1);
        assert_eq!(server.snapshot().query(1, 2), 9, "the update applied exactly once");
        assert_eq!(server.stats().updates_submitted, 1);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_flushes_pending_and_rejects_new() {
        let server = diamond_server();
        let batcher = AdaptiveBatcher::start(
            Arc::clone(&server),
            BatcherConfig {
                latency_ms: 10_000, // would never flush by timer within the test
                ..Default::default()
            },
        );
        hold_writer_busy(&batcher);
        let p = batcher.submit(vec![EdgeUpdate::new(0, 3, 2)]);
        batcher.shutdown();
        assert_eq!(p.wait(), BatchOutcome::Applied { seq: 1 }, "shutdown must flush, not drop");
        let stats = batcher.stats();
        assert_eq!(
            (stats.batches_submitted, stats.flushes_idle, stats.flushes_by_timer),
            (1, 0, 0)
        );
        assert_eq!(server.snapshot().query(0, 3), 2);
        assert!(!batcher.submit(vec![EdgeUpdate::new(0, 1, 4)]).wait().is_applied());
    }
}
