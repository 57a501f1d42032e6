//! Property tests for tree-grouped batch repair.
//!
//! For random road networks and seeded mixed batches, for **both**
//! maintenance families (Label Search by per-ancestor ownership, Pareto
//! Search by the interval-clamped decomposition):
//! * the set of label entries written by shard `i` never intersects shard
//!   `j`'s (instrumented with the grouped driver's entry-level write log,
//!   which records every `ShardLabels::set` — strictly finer than the COW
//!   `DirtyTracker` chunk sets, which legitimately overlap because one
//!   ~16 KiB chunk interleaves entries of many shards);
//! * every write lands in the region `Hierarchy::shard_of_entry` assigns to
//!   the writing shard — the proof behind the router's `owned` filter,
//!   which repairs only the units a worker owns;
//! * the grouped index is byte-identical to the per-update serial
//!   repair — search-effort counters included for Label Search; Pareto's
//!   clamped searches re-explore some vertices per unit, so its guarantee
//!   is label equality, not counter equality;
//! * and both match a fresh Dijkstra oracle on the maintained graph.
//!
//! Every assertion carries the stream seed for replay.

use std::collections::HashMap;

use stable_tree_labelling::core::{verify, EnginePool, Maintenance, Stl, StlConfig, UpdateEngine};
use stable_tree_labelling::pathfinding::dijkstra;
use stable_tree_labelling::prelude::*;
use stable_tree_labelling::workloads::mixed::{mixed_trace, MixedConfig, MixedOp};
use stable_tree_labelling::workloads::queries::random_pairs;
use stable_tree_labelling::workloads::{generate, RoadNetConfig};

fn batches_for(g: &CsrGraph, seed: u64, ops: usize) -> Vec<Vec<EdgeUpdate>> {
    mixed_trace(
        g,
        &MixedConfig { ops, update_fraction: 0.5, batch_size: 6, seed, ..Default::default() },
    )
    .into_iter()
    .filter_map(|op| if let MixedOp::Batch(b) = op { Some(b) } else { None })
    .collect()
}

#[test]
fn shard_write_sets_are_disjoint_and_merge_matches_serial_and_oracle() {
    for seed in [0x5AD, 42u64, 0xC0FFEE] {
        let g0 = generate(&RoadNetConfig::sized(260, seed));
        let cfg = StlConfig { leaf_size: 4, ..Default::default() };
        let stl0 = Stl::build(&g0, &cfg);
        assert!(stl0.hierarchy().num_shards() > 2, "seed {seed}: want a real shard split");

        let mut g_serial = g0.clone();
        let mut g_shard = g0.clone();
        let mut serial = stl0.clone();
        let mut sharded = stl0;
        let mut eng = UpdateEngine::new(g0.num_vertices());
        let mut pool = EnginePool::new();
        let pool_pairs = random_pairs(g0.num_vertices(), 12, seed ^ 0x77);

        for (round, batch) in batches_for(&g0, seed, 40).iter().enumerate() {
            let st_serial =
                serial.apply_batch(&mut g_serial, batch, Maintenance::LabelSearch, &mut eng);
            let (mut st_shard, report, log) = sharded.apply_batch_sharded_logged(
                &mut g_shard,
                batch,
                Maintenance::LabelSearch,
                &mut pool,
            );

            // Disjointness: no entry appears under two shards, and each
            // entry belongs to the shard that wrote it.
            let mut owner: HashMap<(VertexId, u32), u32> = HashMap::new();
            for (shard, entries) in &log {
                for &(v, i) in entries {
                    assert_eq!(
                        sharded.hierarchy().shard_of_entry(v, i),
                        *shard,
                        "seed {seed} round {round}: shard {shard} wrote foreign entry ({v},{i})"
                    );
                    if let Some(prev) = owner.insert((v, i), *shard) {
                        assert_eq!(
                            prev, *shard,
                            "seed {seed} round {round}: entry ({v},{i}) written by two shards"
                        );
                    }
                }
            }

            // Grouping is an accounting refinement, never extra work: the
            // same searches run, so effort counters match serial exactly.
            assert!(report.shards_touched as u64 == st_shard.trees_touched);
            st_shard.trees_touched = 0;
            st_shard.trees_skipped = 0;
            assert_eq!(st_serial, st_shard, "seed {seed} round {round}: stats diverged");

            // Merged index equals serial repair entry-for-entry…
            for v in 0..g0.num_vertices() as VertexId {
                assert_eq!(
                    serial.labels().slice(v),
                    sharded.labels().slice(v),
                    "seed {seed} round {round}: labels diverged at vertex {v}"
                );
            }
            // …and both match the Dijkstra oracle on the maintained graph.
            for &(s, t) in &pool_pairs {
                assert_eq!(
                    sharded.query(s, t),
                    dijkstra::distance(&g_shard, s, t),
                    "seed {seed} round {round}: d({s},{t}) wrong after merge"
                );
            }
        }
        verify::check_all(&sharded, &g_shard)
            .unwrap_or_else(|e| panic!("seed {seed}: invariant broken: {e}"));
    }
}

#[test]
fn pareto_shard_write_sets_are_disjoint_and_merge_matches_serial_and_oracle() {
    // The Pareto twin of the write-log property test: interval-clamped
    // decomposition instead of per-ancestor filtering, same disjointness
    // and merge contract (labels + oracle; counters measure the grouped
    // schedule and are checked for plausibility, not serial equality).
    for seed in [0x5AD, 42u64, 0xC0FFEE] {
        let g0 = generate(&RoadNetConfig::sized(260, seed));
        let cfg = StlConfig { leaf_size: 4, ..Default::default() };
        let stl0 = Stl::build(&g0, &cfg);
        assert!(stl0.hierarchy().num_shards() > 2, "seed {seed}: want a real shard split");

        let mut g_serial = g0.clone();
        let mut g_shard = g0.clone();
        let mut serial = stl0.clone();
        let mut sharded = stl0;
        let mut eng = UpdateEngine::new(g0.num_vertices());
        let mut pool = EnginePool::new();
        let pool_pairs = random_pairs(g0.num_vertices(), 12, seed ^ 0x77);

        for (round, batch) in batches_for(&g0, seed, 40).iter().enumerate() {
            let st_serial =
                serial.apply_batch(&mut g_serial, batch, Maintenance::ParetoSearch, &mut eng);
            let (st_shard, report, log) = sharded.apply_batch_sharded_logged(
                &mut g_shard,
                batch,
                Maintenance::ParetoSearch,
                &mut pool,
            );

            let mut owner: HashMap<(VertexId, u32), u32> = HashMap::new();
            for (shard, entries) in &log {
                for &(v, i) in entries {
                    assert_eq!(
                        sharded.hierarchy().shard_of_entry(v, i),
                        *shard,
                        "seed {seed} round {round}: shard {shard} wrote foreign entry ({v},{i})"
                    );
                    if let Some(prev) = owner.insert((v, i), *shard) {
                        assert_eq!(
                            prev, *shard,
                            "seed {seed} round {round}: entry ({v},{i}) written by two shards"
                        );
                    }
                }
            }

            assert_eq!(st_serial.updates, st_shard.updates, "seed {seed} round {round}");
            assert_eq!(report.shards_touched as u64, st_shard.trees_touched);
            assert!(
                st_shard.trees_touched > 0 || st_serial.updates == 0,
                "seed {seed} round {round}: pareto path must fill tree counters"
            );

            // Merged index equals serial Pareto repair entry-for-entry…
            for v in 0..g0.num_vertices() as VertexId {
                assert_eq!(
                    serial.labels().slice(v),
                    sharded.labels().slice(v),
                    "seed {seed} round {round}: labels diverged at vertex {v}"
                );
            }
            // …and both match the Dijkstra oracle on the maintained graph.
            for &(s, t) in &pool_pairs {
                assert_eq!(
                    sharded.query(s, t),
                    dijkstra::distance(&g_shard, s, t),
                    "seed {seed} round {round}: d({s},{t}) wrong after merge"
                );
            }
        }
        verify::check_all(&sharded, &g_shard)
            .unwrap_or_else(|e| panic!("seed {seed}: invariant broken: {e}"));
    }
}

/// Long-stream twin shared by both families; release-gated.
fn long_stream_twin(algo: Maintenance) {
    // The differential-fuzz twin for the grouped driver: long mixed streams;
    // every round must stay byte-identical to the serial path for the whole
    // stream, and every epoch must satisfy the oracle.
    for seed in [0xFACE, 9001u64] {
        let g0 = generate(&RoadNetConfig::sized(400, seed));
        let stl0 = Stl::build(&g0, &StlConfig::default());
        let mut g_serial = g0.clone();
        let mut g_shard = g0.clone();
        let mut serial = stl0.clone();
        let mut sharded = stl0;
        let mut eng = UpdateEngine::new(g0.num_vertices());
        let mut pool = EnginePool::new();
        let pool_pairs = random_pairs(g0.num_vertices(), 15, seed);
        for (round, batch) in batches_for(&g0, seed, 220).iter().enumerate() {
            serial.apply_batch(&mut g_serial, batch, algo, &mut eng);
            sharded.apply_batch_sharded(&mut g_shard, batch, algo, &mut pool, 1);
            for v in 0..g0.num_vertices() as VertexId {
                assert_eq!(
                    serial.labels().slice(v),
                    sharded.labels().slice(v),
                    "seed {seed} {algo:?} round {round}: vertex {v}"
                );
            }
            for &(s, t) in &pool_pairs {
                assert_eq!(
                    sharded.query(s, t),
                    dijkstra::distance(&g_shard, s, t),
                    "seed {seed} {algo:?} round {round}: d({s},{t})"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn sharded_survives_long_mixed_streams() {
    long_stream_twin(Maintenance::LabelSearch);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn pareto_sharded_survives_long_mixed_streams() {
    long_stream_twin(Maintenance::ParetoSearch);
}
