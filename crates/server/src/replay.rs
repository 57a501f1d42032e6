//! Mixed-trace replay driver.
//!
//! `stl serve` and `examples/live_service.rs` run the same experiment: split
//! a pre-generated trace into queries (sharded across reader threads that
//! hammer the latest snapshot until told to stop) and batches (fed to the
//! writer one publish at a time). This is that driver, shared so the
//! concurrency scaffolding exists exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stl_graph::{EdgeUpdate, VertexId};

use crate::server::StlServer;

/// Replay an interleaved workload: `readers` threads sweep their shard of
/// `queries` against fresh snapshots in a loop while every batch in
/// `batches` flows through the writer (submitted, then awaited, so readers
/// span every published generation). Returns the wall-clock time of the run;
/// queries served are folded into [`crate::ServerStats::queries_served`].
///
/// Readers re-grab the snapshot per query on purpose: the swap-slot
/// acquisition is part of the serving cost this driver exists to measure.
pub fn replay_mixed(
    server: &StlServer,
    queries: &[(VertexId, VertexId)],
    batches: &[Vec<EdgeUpdate>],
    readers: usize,
) -> Duration {
    assert!(readers >= 1, "need at least one reader thread");
    let t0 = Instant::now();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let done = &done;
        for r in 0..readers {
            scope.spawn(move || {
                // An empty shard (more readers than queries) would otherwise
                // hot-spin against the stop flag for the whole writer run.
                if r >= queries.len() {
                    return;
                }
                let mut served = 0u64;
                let mut acc = 0u64;
                // The flag is checked per query, not per sweep: a sweep-level
                // check would append a full writer-idle shard pass to the
                // measured window (and to the reported queries/s).
                'outer: loop {
                    for &(s, t) in queries.iter().skip(r).step_by(readers) {
                        if done.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        acc = acc.wrapping_add(server.snapshot().query(s, t) as u64);
                        served += 1;
                    }
                }
                std::hint::black_box(acc);
                server.record_queries(served);
            });
        }
        for batch in batches {
            let ticket = server.submit(batch.clone());
            server.wait_for(ticket);
        }
        done.store(true, Ordering::Relaxed);
    });
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use stl_core::{Stl, StlConfig};
    use stl_workloads::{generate, RoadNetConfig};

    #[test]
    fn replay_serves_queries_and_publishes_all_batches() {
        let g = generate(&RoadNetConfig::sized(150, 3));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(g.clone(), stl, ServerConfig::default());
        let queries = [(0u32, 100u32), (5, 60), (20, 140)];
        let batches: Vec<Vec<EdgeUpdate>> =
            g.edges().take(5).map(|(a, b, w)| vec![EdgeUpdate::new(a, b, w * 2)]).collect();
        let wall = replay_mixed(&server, &queries, &batches, 2);
        assert!(wall > Duration::ZERO);
        let stats = server.shutdown();
        assert_eq!(stats.batches_applied, 5);
        // No lower bound on queries_served: readers stop per-query, and a
        // reader scheduled after the writer drains may legitimately serve 0.
    }

    #[test]
    fn replay_with_no_batches_terminates() {
        let g = generate(&RoadNetConfig::sized(100, 4));
        let stl = Stl::build(&g, &StlConfig::default());
        let server = StlServer::start(g, stl, ServerConfig::default());
        replay_mixed(&server, &[(0, 50)], &[], 1);
        assert_eq!(server.generation(), 0);
    }
}
