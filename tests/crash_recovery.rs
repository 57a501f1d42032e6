//! Crash-recovery twin matrix for the durable `stl_server`: inject a crash
//! at every fallible step of the write path (WAL append, WAL fsync, publish,
//! checkpoint rename), let the supervisor / recovery machinery do its thing,
//! then prove the survivor is **bit-identical** — `persist::save` bytes and
//! sampled distances — to a twin server that applied the same accepted
//! batches and never crashed.
//!
//! Process death is simulated two ways:
//!
//! * **Writer-thread death** (failpoint `panic` action): the supervisor must
//!   respawn the writer from the last published state, roll the in-flight
//!   batch back (WAL record annulled, ticket `Rejected("writer restarted")`),
//!   and keep serving.
//! * **Whole-process death** (`std::mem::forget` of the server — no clean
//!   shutdown, no final checkpoint, exactly what `kill -9` leaves behind):
//!   the next `start_durable` on the same state dir must recover from
//!   checkpoint + WAL tail. The out-of-process variant (a real SIGKILL of
//!   `stl serve`) lives in `crates/cli/tests/crash_recovery.rs`.
//!
//! Failpoints are process-global, so every test here serialises on one lock.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use stable_tree_labelling::core::failpoint::{self, Action};
use stable_tree_labelling::core::{persist, Stl, StlConfig};
use stable_tree_labelling::prelude::*;
use stable_tree_labelling::server::{
    BatchOutcome, DurabilityConfig, FsyncPolicy, ServerConfig, StlServer, CHECKPOINT_QUIET_EPOCHS,
};
use stable_tree_labelling::workloads::{generate, RoadNetConfig};

const SEED: u64 = 0xC4A5_11FE;

fn fp_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Unique scratch dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("stl-crash-{tag}-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn durability(&self) -> DurabilityConfig {
        DurabilityConfig { state_dir: self.0.clone(), fsync: FsyncPolicy::Always }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn road() -> CsrGraph {
    generate(&RoadNetConfig::sized(180, SEED))
}

/// Deterministic single-edge batches over existing edges.
fn batches(g: &CsrGraph, count: usize) -> Vec<Vec<EdgeUpdate>> {
    let edges: Vec<(u32, u32, u32)> = g.edges().collect();
    (0..count)
        .map(|i| {
            let (a, b, w) = edges[(i * 17 + 3) % edges.len()];
            vec![EdgeUpdate::new(a, b, (w % 89) + 1 + i as u32)]
        })
        .collect()
}

fn start(dir: &Scratch, cfg: ServerConfig) -> (StlServer, stl_server::RecoveryReport) {
    let g = road();
    let stl = Stl::build(&g, &StlConfig::default());
    StlServer::start_durable(g, stl, cfg, dir.durability()).expect("start durable server")
}

/// Apply `accepted` batches on a fresh durable server rooted at `dir` with
/// no faults at all; return its label bytes and sampled distances.
fn clean_twin(cfg: ServerConfig, accepted: &[Vec<EdgeUpdate>]) -> (Vec<u8>, Vec<Dist>) {
    let dir = Scratch::new("twin");
    let (server, _) = start(&dir, cfg);
    for batch in accepted {
        let t = server.submit(batch.clone());
        assert!(server.wait_for(t).is_applied(), "twin must accept every batch");
    }
    let snap = server.snapshot();
    let bytes = persist::save(snap.stl());
    let dists = sample(&snap);
    drop(snap);
    server.shutdown();
    (bytes, dists)
}

fn sample(snap: &stl_server::Snapshot) -> Vec<Dist> {
    let n = snap.graph().num_vertices() as u32;
    (0..64u32).map(|i| snap.query((i * 13) % n, (i * 29 + 7) % n)).collect()
}

/// Panic-inject at each write-path failpoint: the batch in flight when the
/// writer dies must roll back (rejected, WAL record annulled), a resubmit
/// must apply, and after a simulated `kill -9` + reboot the recovered state
/// must be bit-identical to a never-crashed twin over the same accepted
/// batches. fsync=always ⇒ zero acknowledged batches lost.
#[test]
fn writer_crash_at_every_failpoint_recovers_bit_identical() {
    let _serial = fp_lock();
    let cfg = ServerConfig::default();
    for fp in ["wal-append", "fsync", "publish"] {
        failpoint::disarm_all();
        let dir = Scratch::new(fp);
        let (server, report) = start(&dir, cfg.clone());
        assert_eq!(report.generation, 0, "{fp}: fresh dir must boot at generation 0");

        let plan = batches(&server.snapshot().graph().clone(), 5);
        let mut accepted: Vec<Vec<EdgeUpdate>> = Vec::new();
        for batch in &plan[..3] {
            let t = server.submit(batch.clone());
            assert!(server.wait_for(t).is_applied(), "{fp}: warm-up batch must apply");
            accepted.push(batch.clone());
        }

        failpoint::arm(fp, Action::Panic, 1);
        let t = server.submit(plan[3].clone());
        match server.wait_for(t) {
            BatchOutcome::Rejected(reason) => assert!(
                reason.contains("writer restarted"),
                "{fp}: in-flight batch must be rolled back, got {reason:?}"
            ),
            BatchOutcome::Applied { seq } => {
                panic!("{fp}: batch must not survive the injected crash (seq {seq})")
            }
        }
        assert!(!failpoint::is_armed(fp), "{fp}: failpoint is one-shot");
        assert_eq!(server.generation(), 3, "{fp}: rolled-back batch consumes no generation");
        assert_eq!(server.stats().writer_restarts, 1, "{fp}: supervisor must have respawned");

        // The respawned writer accepts the resubmit and more work after it.
        for batch in &plan[3..] {
            let t = server.submit(batch.clone());
            assert!(server.wait_for(t).is_applied(), "{fp}: post-restart batch must apply");
            accepted.push(batch.clone());
        }
        let wal_appended = server.stats().wal_records_appended;
        assert!(wal_appended >= 5, "{fp}: accepted batches must hit the WAL, saw {wal_appended}");

        // kill -9: no shutdown, no final checkpoint — just the state dir.
        std::mem::forget(server);

        let (reborn, report) = start(&dir, cfg.clone());
        assert_eq!(
            report.generation, 5,
            "{fp}: every acknowledged batch must survive fsync=always ({report})"
        );
        assert_eq!(report.wal_records_replayed, 5, "{fp}: {report}");
        let snap = reborn.snapshot();
        let (twin_bytes, twin_dists) = clean_twin(cfg.clone(), &accepted);
        assert_eq!(sample(&snap), twin_dists, "{fp}: recovered distances diverge from the twin");
        assert_eq!(
            persist::save(snap.stl()),
            twin_bytes,
            "{fp}: recovered labels are not bit-identical to the never-crashed twin"
        );
        drop(snap);
        reborn.shutdown();
    }
}

/// Poll `done` for up to 10 s: a checkpoint runs after the ack of the batch
/// that triggers it, so only the server's counters show when it is over.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Kill the writer between writing the checkpoint temp file and the atomic
/// rename: the half-written checkpoint must be invisible (the rename never
/// happened), the WAL must keep its records, and recovery must still land on
/// the exact twin state.
#[test]
fn crash_during_checkpoint_rename_leaves_a_consistent_state_dir() {
    let _serial = fp_lock();
    failpoint::disarm_all();
    let cfg = ServerConfig::default();
    let dir = Scratch::new("ckpt");
    let (server, _) = start(&dir, cfg.clone());
    let g = server.snapshot().graph().clone();
    let plan = batches(&g, 3);
    // A batch re-setting an edge no plan batch touches to its weight is
    // normalised away and copies no chunk: a quiet epoch. Twelve in a row
    // checkpoint after the twelfth's ack.
    let (a, b, w) = g
        .edges()
        .find(|&(a, b, _)| plan.iter().flatten().all(|u| (u.a, u.b) != (a, b)))
        .expect("an edge outside the plan");
    let noop = vec![EdgeUpdate::new(a, b, w)];
    // Every batch the server saw, in order: the twin replays these.
    let mut accepted: Vec<Vec<EdgeUpdate>> = Vec::new();
    // One plan batch, then a quiet streak: the writer checkpoints after the
    // streak's last ack.
    let mut round = |server: &StlServer, batch: &Vec<EdgeUpdate>| {
        let streak = std::iter::repeat_n(&noop, CHECKPOINT_QUIET_EPOCHS as usize);
        for b in std::iter::once(batch).chain(streak) {
            assert!(server.wait_for(server.submit(b.clone())).is_applied());
            accepted.push(b.clone());
        }
    };

    round(&server, &plan[0]);
    wait_until(|| server.stats().checkpoints_written >= 1);
    assert_eq!(server.stats().checkpoints_written, 1, "the quiet streak must checkpoint");

    // This round's checkpoint dies mid-rename. Every ack came from publish,
    // so every batch must survive regardless.
    failpoint::arm("checkpoint-rename", Action::Panic, 1);
    round(&server, &plan[1]);
    // The writer died after resolving the ticket; wait for the supervisor.
    wait_until(|| server.stats().writer_restarts > 0);
    assert_eq!(server.stats().writer_restarts, 1, "supervisor must respawn after the rename crash");

    // A round on the respawned writer.
    round(&server, &plan[2]);
    let generation = 3 * (1 + u64::from(CHECKPOINT_QUIET_EPOCHS));
    assert_eq!(server.generation(), generation);

    // `mem::forget` leaks the writer thread alive, unlike a real kill -9.
    // Wait for the last checkpoint (the second counted one; the one before
    // died mid-rename) so the leaked writer is done touching the state dir
    // before the reborn server reads it.
    wait_until(|| server.stats().checkpoints_written >= 2);
    assert_eq!(server.stats().checkpoints_written, 2, "the last round must checkpoint");

    std::mem::forget(server); // kill -9

    let (reborn, report) = start(&dir, cfg.clone());
    assert_eq!(report.generation, generation, "every acknowledged batch must survive ({report})");
    let snap = reborn.snapshot();
    let (twin_bytes, twin_dists) = clean_twin(cfg, &accepted);
    assert_eq!(sample(&snap), twin_dists, "recovered distances diverge from the twin");
    assert_eq!(persist::save(snap.stl()), twin_bytes, "labels must be bit-identical");
    drop(snap);
    reborn.shutdown();
}

/// Crash debris: a torn record at the WAL tail (half-written by a dying
/// process) must be truncated — counted, never a panic — and everything
/// before it must recover exactly.
#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let _serial = fp_lock();
    failpoint::disarm_all();
    let cfg = ServerConfig::default();
    let dir = Scratch::new("torn");
    let (server, _) = start(&dir, cfg.clone());
    let plan = batches(&server.snapshot().graph().clone(), 4);
    for batch in &plan {
        let t = server.submit(batch.clone());
        assert!(server.wait_for(t).is_applied());
    }
    std::mem::forget(server); // kill -9

    // A dying process got half a record out: length prefix + partial body.
    let wal_path = dir.durability().wal_path();
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).expect("open wal");
        f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad, 0xbe]).expect("append torn tail");
    }

    let (reborn, report) = start(&dir, cfg.clone());
    assert!(report.wal_torn_tail, "the torn tail must be detected: {report}");
    assert_eq!(report.wal_records_replayed, 4, "intact records must all replay: {report}");
    assert_eq!(report.generation, 4);
    assert_eq!(reborn.stats().wal_torn_tail, 1, "the counter must surface in ServerStats");
    let snap = reborn.snapshot();
    let (twin_bytes, twin_dists) = clean_twin(cfg, &plan);
    assert_eq!(sample(&snap), twin_dists);
    assert_eq!(persist::save(snap.stl()), twin_bytes);
    drop(snap);
    reborn.shutdown();
}
