//! Generational isolation under copy-on-write publishing.
//!
//! The COW epoch stores (`stl_graph::cow`, chunked `Labels`) share label and
//! weight chunks between consecutive published snapshots and promote a chunk
//! only on first write. The hazard class this introduces is *write leakage*:
//! a bug in chunk promotion (writing a shared chunk in place) would silently
//! rewrite history inside snapshots readers already hold. This test pins one
//! `Arc<Snapshot>` per early generation, lets the writer apply ≥50 further
//! batches while every pin stays alive, and then re-queries **all** pinned
//! epochs against their own generation's Dijkstra oracle — every answer must
//! still be the exact distance of the epoch it was published as. Reader
//! threads hammer the live slot throughout so pins coexist with real
//! concurrent traffic.
//!
//! Gated to release builds (`cargo test --release`), like the PR-2 stress
//! suites: debug-mode maintenance would stretch 75+ epochs into minutes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stable_tree_labelling::core::{Stl, StlConfig};
use stable_tree_labelling::pathfinding::dijkstra;
use stable_tree_labelling::prelude::*;
use stable_tree_labelling::server::{ServerConfig, Snapshot, StlServer};
use stable_tree_labelling::workloads::mixed::{mixed_trace, split_trace, MixedConfig};
use stable_tree_labelling::workloads::queries::random_pairs;
use stable_tree_labelling::workloads::{generate, RoadNetConfig};

const SEED: u64 = 0xC0_FFEE; // arbitrary but fixed; printed on failure
/// Generations pinned while the writer keeps going.
const PINNED: usize = 25;
/// Batches applied *after* the last pin — the isolation window.
const EXTRA: usize = 50;
const POOL: usize = 24;
const READERS: usize = 2;

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn pinned_epochs_survive_later_batches_unchanged() {
    let g0 = generate(&RoadNetConfig::sized(600, SEED));
    let n = g0.num_vertices();
    let stl0 = Stl::build(&g0, &StlConfig::default());

    let (_, batches) = split_trace(mixed_trace(
        &g0,
        &MixedConfig {
            ops: 2 * (PINNED + EXTRA) + 40,
            update_fraction: 0.7,
            batch_size: 5,
            seed: SEED,
            ..Default::default()
        },
    ));
    assert!(
        batches.len() >= PINNED + EXTRA,
        "seed {SEED:#x}: trace produced only {} batches",
        batches.len()
    );
    let batches = &batches[..PINNED + EXTRA];

    // Per-generation ground truth. Applying the raw updates in submission
    // order reproduces the writer's normalised batch application: last
    // update per edge wins either way.
    let pool = random_pairs(n, POOL, SEED ^ 0x1234);
    let mut oracle: Vec<Vec<Dist>> = Vec::with_capacity(batches.len() + 1);
    let mut g = g0.clone();
    oracle.push(pool.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect());
    for batch in batches {
        g.apply_updates(batch).expect("batches target existing edges");
        oracle.push(pool.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect());
    }

    // The default writer, with any `STL_*` overrides from the environment.
    let server = StlServer::start(
        g0,
        stl0,
        ServerConfig::from_env().expect("env-driven server config must parse"),
    );
    let stop = AtomicBool::new(false);
    let pinned: Vec<Arc<Snapshot>> = std::thread::scope(|scope| {
        let stop = &stop;
        let server = &server;
        let pool = &pool;
        let oracle = &oracle;
        // Live readers: pins must hold up under real concurrent snapshot
        // traffic, not in a quiesced server.
        let handles: Vec<_> = (0..READERS)
            .map(|reader| {
                scope.spawn(move || {
                    let mut i = reader;
                    let mut observed = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = server.snapshot();
                        let gen = snap.generation() as usize;
                        let (s, t) = pool[i % pool.len()];
                        assert_eq!(
                            snap.query(s, t),
                            oracle[gen][i % pool.len()],
                            "seed {SEED:#x}: live reader {reader} at generation {gen}"
                        );
                        observed += 1;
                        i += 1;
                    }
                    server.record_queries(observed);
                })
            })
            .collect();

        // Pin one snapshot per early generation...
        let mut pins = vec![server.snapshot()];
        for batch in &batches[..PINNED] {
            server.wait_for(server.submit(batch.clone()));
            pins.push(server.snapshot());
        }
        // ...then keep publishing with every pin still alive.
        for batch in &batches[PINNED..] {
            server.wait_for(server.submit(batch.clone()));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("reader thread");
        }
        pins
    });

    assert_eq!(server.generation(), (PINNED + EXTRA) as u64);
    assert_eq!(pinned.len(), PINNED + 1);

    // Every pinned epoch must still answer with its own generation's exact
    // distances: COW sharing never leaks later writes into published epochs.
    for snap in &pinned {
        let gen = snap.generation() as usize;
        assert!(gen <= PINNED, "seed {SEED:#x}: pin raced past its own submit barrier");
        for (j, &(s, t)) in pool.iter().enumerate() {
            assert_eq!(
                snap.query(s, t),
                oracle[gen][j],
                "seed {SEED:#x}: pinned generation {gen}, pair {j} ({s},{t}) — \
                 a later batch leaked into a published epoch"
            );
        }
    }

    // The sharing that makes pins cheap is real: immutable topology is one
    // allocation across every epoch (chunk-level ptr_eq assertions live in
    // stl_server's unit tests, where chunk counts are controlled).
    let last = server.snapshot();
    for snap in &pinned {
        assert!(snap.graph().shares_topology(last.graph()));
    }

    let stats = server.shutdown();
    assert_eq!(stats.batches_applied, (PINNED + EXTRA) as u64);
    assert!(
        stats.publish_bytes_copied > 0,
        "seed {SEED:#x}: a 75-epoch update stream must have promoted some chunks"
    );
}
