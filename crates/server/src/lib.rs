//! # Concurrent snapshot query service
//!
//! The maintenance algorithms of the paper mutate labels in place: a
//! [`stl_core::Stl`] cannot answer queries *while* a batch is being applied.
//! This crate closes that gap with an **epoch-snapshot read/write split**,
//! the mixed query/update regime the paper's traffic scenario implies (and
//! the one BatchHL and the dual-hierarchy follow-up evaluate explicitly):
//!
//! * **Readers** query an immutable [`Snapshot`] — an `Arc` holding a graph,
//!   its STL index, and a **generation** number. Obtaining one is a single
//!   `RwLock` read acquisition plus an `Arc` clone; queries then run with no
//!   synchronisation at all, at full single-index speed, on any number of
//!   threads.
//! * **One writer thread** owns the only mutable copy of the world. It
//!   drains a queue of update batches, applies each with the existing
//!   maintenance machinery (`Stl::apply_batch` + [`stl_core::UpdateEngine`]),
//!   then **publishes**: it clones the repaired state into a fresh
//!   `Arc<Snapshot>` with `generation + 1` and swaps it into the
//!   `RwLock<Arc<Snapshot>>` slot. The write lock is held only for the
//!   pointer swap, never during label repair.
//!
//! Publishing is **O(touched)**, not O(world): the label arena and the CSR
//! weight array are chunked copy-on-write stores (`stl_graph::cow`), and
//! hierarchy + topology are immutable `Arc`s. The per-epoch clone copies
//! one pointer per page of each chunk table; a chunk's bytes move exactly
//! when the batch writes it while the previous snapshot still shares it.
//! [`ServerStats`] exposes the resulting `publish_bytes_copied` /
//! `chunks_copied_last` counters, and `benches/publish.rs` measures COW
//! against the old full-clone publish.
//!
//! ## The snapshot/epoch protocol and its consistency guarantee
//!
//! Publication is atomic at `Arc` granularity, which yields **snapshot
//! consistency**: every distance a reader ever observes is the *exact*
//! shortest-path distance in the graph of some published generation — the
//! one stamped on the snapshot it holds. There are no torn reads (readers
//! never see a half-repaired label arena, because repairs happen on the
//! writer's private copy) and no stale-past-publish answers (a snapshot
//! obtained after generation `i` was published has generation ≥ `i`).
//! Readers holding an old `Arc` keep a self-consistent past epoch alive
//! until they drop it; memory is bounded by the number of concurrently held
//! epochs.
//!
//! `tests/concurrent_consistency.rs` (repo root) checks exactly this
//! guarantee against a per-generation Dijkstra oracle.
//!
//! ## Quick start
//!
//! ```
//! use stl_core::{Maintenance, Stl, StlConfig};
//! use stl_graph::builder::from_edges;
//! use stl_graph::EdgeUpdate;
//! use stl_server::{ServerConfig, StlServer};
//!
//! let g = from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)]);
//! let stl = Stl::build(&g, &StlConfig::default());
//! let server = StlServer::start(g, stl, ServerConfig::default());
//!
//! assert_eq!(server.snapshot().query(0, 3), 12);
//! let ticket = server.submit(vec![EdgeUpdate::new(1, 2, 40)]); // congestion
//! assert!(server.wait_for(ticket).is_applied());
//! let snap = server.snapshot();
//! assert_eq!(snap.query(0, 3), 20); // direct road now wins
//! assert!(snap.generation() >= 1);
//! let stats = server.shutdown();
//! assert_eq!(stats.batches_applied, 1);
//! ```
//!
//! ## Surviving bad input
//!
//! The apply path is **fallible**: every batch is validated against the
//! graph's topology before `apply_batch_sharded_owned` runs, and a batch
//! naming a nonexistent edge (or an out-of-range vertex, a self-loop, or an
//! `INF` weight) is **rejected, not fatal**. Every submitted batch gets its own
//! [`Ticket`], resolved once to a [`BatchOutcome`] — `Applied { seq }` or
//! `Rejected(reason)` — that [`Ticket::wait`] (or [`StlServer::wait_for`])
//! returns however long after the fact it is read. The writer stays alive,
//! rejected batches consume no generation, and
//! [`ServerStats::batches_rejected`] counts them. `submit`/`wait_for` never
//! panic, even if the writer thread is gone: a batch it can no longer
//! process resolves `Rejected`.
//!
//! ## Surviving crashes
//!
//! The server can also survive its *own* death. [`StlServer::start_durable`]
//! adds a durability layer rooted in a state directory: every accepted
//! batch is appended to a CRC-framed **write-ahead log** ([`wal`]) before it
//! is applied, a streak of quiet epochs (and clean shutdown) folds the log
//! into an atomic **checkpoint** ([`durable`]), and boot **recovers** by
//! overlaying the checkpoint and replaying the WAL tail through the normal
//! sharded-repair path — truncating, never panicking on, torn crash debris.
//! In-process, a **supervisor** respawns a dead writer thread from the last
//! published snapshot, resolving whatever batch was in flight as rolled
//! back (`Rejected("writer restarted")`) or landed. Clients retry safely
//! with **idempotency keys** ([`DedupWindow`]): a key that already applied
//! is acknowledged with its original sequence number instead of re-applied.
//! `stl_core::failpoint` lets the crash-recovery suites kill the process at
//! every step of this machinery and prove recovery is bit-identical to a
//! run that never crashed.
//!
//! ## Network serving
//!
//! The [`proto`] module defines the wire protocol once — versioned,
//! length-prefixed frames with typed [`Request`]/[`Response`] enums — and
//! the [`transport`] module serves it over TCP or unix-domain sockets: a
//! fixed-size reader pool that refreshes its `Arc<Snapshot>` per request,
//! and connection/queue admission control so overload sheds instead of
//! piling up. Incoming updates flow through the [`batcher`] module's
//! [`AdaptiveBatcher`], which sends a lone update to the writer at once and
//! accumulates updates that arrive behind a busy writer until a latency or
//! size budget trips. A merged batch amortises one WAL append and fsync and
//! one snapshot publish over its updates; repair still runs one update at a
//! time.
//!
//! ## Distributed serving
//!
//! The in-process shard router survives only as a benchmark-harness fixture.
//!
//! No dependencies beyond `std`: the swap slot is `RwLock<Arc<Snapshot>>`,
//! the queue is `std::sync::mpsc`, and each ticket is a `Mutex` + `Condvar`
//! slot; the transport is `std::net` with a thread pool.

pub mod batcher;
pub mod durable;
mod frame;
pub mod proto;
pub mod replay;
#[doc(hidden)] // compat; sole reader benchmark/src/deploy.rs; delete with ROADMAP item 1(b)
pub mod router;
pub mod server;
pub mod snapshot;
pub mod stats;
pub mod transport;
pub mod wal;

pub use batcher::{AdaptiveBatcher, BatcherConfig, BatcherStats};
pub use durable::{
    DedupWindow, DurabilityConfig, RecoveryReport, CHECKPOINT_QUIET_EPOCHS, CHECKPOINT_QUIET_RATIO,
};
pub use proto::{Endpoint, RemoteOutcome, RemoteStats, Request, Response};
pub use replay::replay_mixed;
#[doc(hidden)] // compat; sole reader benchmark/src/deploy.rs; delete with ROADMAP item 1(b)
pub use router::{Router, RouterConfig, RouterServer, RouterStats};
pub use server::{validate_batch, BatchOutcome, ServerConfig, StlServer, Ticket};
pub use snapshot::Snapshot;
pub use stats::ServerStats;
pub use transport::{NetClient, NetConfig, NetServer, NetStats, RetryPolicy};
pub use wal::FsyncPolicy;
