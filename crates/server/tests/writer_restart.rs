//! Supervised-writer restarts, driven by the process-global `publish`
//! failpoint.
//!
//! These tests live in their own test binary: an armed failpoint fires in
//! whichever thread of the process reaches it first, so sharing a process
//! with unrelated server tests would let one of them consume the arming.
//! Within this binary the tests serialise on [`FP_LOCK`].

use std::sync::{Mutex, MutexGuard};

use stl_core::failpoint::{self, Action};
use stl_core::{Stl, StlConfig};
use stl_graph::builder::from_edges;
use stl_graph::{CsrGraph, EdgeUpdate};
use stl_server::{BatchOutcome, ServerConfig, StlServer};

static FP_LOCK: Mutex<()> = Mutex::new(());

fn fp_locked() -> MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn diamond() -> CsrGraph {
    from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)])
}

fn start(g: &CsrGraph, cfg: ServerConfig) -> StlServer {
    let stl = Stl::build(g, &StlConfig::default());
    StlServer::start(g.clone(), stl, cfg)
}

#[test]
fn writer_restart_rolls_back_the_in_flight_batch() {
    // Kill the writer at the publish failpoint (before the pointer swap):
    // the in-flight batch must come back Rejected("writer restarted") with
    // no state change, and the respawned writer must serve later batches
    // with an unbroken sequence.
    let _l = fp_locked();
    failpoint::disarm_all();
    let server = start(&diamond(), ServerConfig::default());
    failpoint::arm("publish", Action::Panic, 1);
    let t1 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
    match server.wait_for(t1) {
        BatchOutcome::Rejected(reason) => {
            assert!(reason.contains("writer restarted"), "got: {reason}");
        }
        BatchOutcome::Applied { .. } => panic!("killed-at-publish batch must be rejected"),
    }
    // Rolled back: no generation consumed, distances untouched.
    assert_eq!(server.generation(), 0);
    assert_eq!(server.snapshot().query(0, 3), 12);
    // The respawned writer picks up exactly where the dead one left.
    let t2 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
    assert_eq!(server.wait_for(t2), BatchOutcome::Applied { seq: 1 });
    assert_eq!(server.snapshot().query(0, 3), 2);
    let stats = server.shutdown();
    assert_eq!(stats.writer_restarts, 1);
    assert_eq!(stats.batches_applied, 1);
    assert_eq!(stats.batches_rejected, 1);
}

#[test]
fn supervisor_gives_up_after_max_restarts() {
    let _l = fp_locked();
    failpoint::disarm_all();
    let server = start(&diamond(), ServerConfig { max_writer_restarts: 0, ..Default::default() });
    failpoint::arm("publish", Action::Panic, 1);
    let t1 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
    assert!(!server.wait_for(t1).is_applied());
    // Zero restarts allowed: the service is down, but waiters must still
    // resolve (as Rejected) instead of hanging.
    let t2 = server.submit(vec![EdgeUpdate::new(0, 3, 2)]);
    match server.wait_for(t2) {
        BatchOutcome::Rejected(reason) => {
            assert!(reason.contains("terminated"), "got: {reason}");
        }
        BatchOutcome::Applied { .. } => panic!("dead service cannot apply"),
    }
    // Reads keep working from the last published snapshot.
    assert_eq!(server.snapshot().query(0, 3), 12);
    server.shutdown();
}
