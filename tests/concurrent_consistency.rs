//! Snapshot-consistency check for `stl_server`: N reader threads race one
//! live writer over a seeded road-like network, and **every** distance any
//! reader ever observes must equal the exact Dijkstra distance of the
//! published snapshot generation it was read from — no torn reads, no
//! stale-past-publish answers.
//!
//! The oracle is computed up front: the batch sequence is deterministic, so
//! the graph state of every future generation is known before the server
//! starts, and Dijkstra gives per-generation ground truth for a fixed pool
//! of query pairs.
//!
//! Gated to release builds (`cargo test --release`): debug-mode label
//! maintenance would turn the 50+ epochs into minutes of runtime.

use std::sync::atomic::{AtomicBool, Ordering};

use stable_tree_labelling::core::{Stl, StlConfig};
use stable_tree_labelling::pathfinding::dijkstra;
use stable_tree_labelling::prelude::*;
use stable_tree_labelling::server::{ServerConfig, StlServer};
use stable_tree_labelling::workloads::mixed::{mixed_trace, split_trace, MixedConfig};
use stable_tree_labelling::workloads::queries::random_pairs;
use stable_tree_labelling::workloads::{generate, RoadNetConfig};

const SEED: u64 = 0x5157_C0DE; // arbitrary but fixed; printed on failure
const MIN_GENERATIONS: u64 = 50;
const READERS: usize = 3;
const POOL: usize = 32;

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn readers_never_observe_unpublished_state() {
    let g0 = generate(&RoadNetConfig::sized(600, SEED));
    let n = g0.num_vertices();
    let stl0 = Stl::build(&g0, &StlConfig::default());

    // Deterministic batch sequence: at least MIN_GENERATIONS batches.
    let (_, batches) = split_trace(mixed_trace(
        &g0,
        &MixedConfig {
            ops: 2 * MIN_GENERATIONS as usize + 20,
            update_fraction: 0.6,
            batch_size: 6,
            seed: SEED,
            ..Default::default()
        },
    ));
    assert!(
        batches.len() as u64 >= MIN_GENERATIONS,
        "seed {SEED}: trace produced only {} batches",
        batches.len()
    );

    // Per-generation ground truth for a fixed pool of pairs. Applying the
    // raw updates in submission order reproduces the writer's normalised
    // batch application: last update per edge wins either way.
    let pool = random_pairs(n, POOL, SEED ^ 0xABCD);
    let mut oracle: Vec<Vec<Dist>> = Vec::with_capacity(batches.len() + 1);
    let mut g = g0.clone();
    oracle.push(pool.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect());
    for batch in &batches {
        g.apply_updates(batch).expect("batches target existing edges");
        oracle.push(pool.iter().map(|&(s, t)| dijkstra::distance(&g, s, t)).collect());
    }

    // The default (Pareto) writer.
    let server = StlServer::start(g0, stl0, ServerConfig::default());
    let stop = AtomicBool::new(false);
    let violations: Vec<String> = std::thread::scope(|scope| {
        let stop = &stop;
        let server = &server;
        let pool = &pool;
        let oracle = &oracle;
        let handles: Vec<_> = (0..READERS)
            .map(|reader| {
                scope.spawn(move || {
                    let mut bad = Vec::new();
                    let mut observed = 0u64;
                    let mut generations_seen = std::collections::BTreeSet::new();
                    let mut i = reader; // stagger readers across the pool
                    while !stop.load(Ordering::Relaxed) {
                        let snap = server.snapshot();
                        let gen = snap.generation() as usize;
                        let (s, t) = pool[i % pool.len()];
                        let got = snap.query(s, t);
                        let want = oracle[gen][i % pool.len()];
                        if got != want {
                            bad.push(format!(
                                "seed {SEED}: reader {reader} at generation {gen}: \
                                 d({s},{t}) = {got}, oracle says {want}"
                            ));
                        }
                        generations_seen.insert(gen);
                        observed += 1;
                        i += 1;
                    }
                    server.record_queries(observed);
                    (bad, observed, generations_seen.len())
                })
            })
            .collect();

        // The writer feed: publish every epoch while readers hammer away.
        for batch in &batches {
            let ticket = server.submit(batch.clone());
            server.wait_for(ticket);
        }
        stop.store(true, Ordering::Relaxed);

        let mut all = Vec::new();
        let mut total_observed = 0u64;
        let mut max_gens_seen = 0usize;
        for h in handles {
            let (bad, observed, gens) = h.join().expect("reader thread");
            all.extend(bad);
            total_observed += observed;
            max_gens_seen = max_gens_seen.max(gens);
        }
        // Readers must have really run during the epochs, not just before
        // and after: at least one of them saw more than one generation.
        assert!(total_observed > 0, "seed {SEED}: readers served no queries at all");
        assert!(
            max_gens_seen >= 2,
            "seed {SEED}: no reader ever saw more than one generation — \
             the race this test exists for never happened"
        );
        all
    });

    assert!(
        violations.is_empty(),
        "seed {SEED}: {} consistency violations:\n{}",
        violations.len(),
        violations.join("\n")
    );
    let final_gen = server.generation();
    assert!(final_gen >= MIN_GENERATIONS, "seed {SEED}: only {final_gen} generations published");
    // The final epoch matches the oracle's final graph, end to end.
    let final_snap = server.snapshot();
    assert_eq!(final_snap.generation(), batches.len() as u64);
    for (&(s, t), &want) in pool.iter().zip(oracle.last().expect("generation 0 exists")) {
        assert_eq!(final_snap.query(s, t), want, "seed {SEED}: final epoch d({s},{t})");
    }
    let stats = server.shutdown();
    assert_eq!(stats.batches_applied, batches.len() as u64);
}
