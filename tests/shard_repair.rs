//! Property tests for batch repair in stable-tree units.
//!
//! For random road networks and seeded mixed batches, for **both**
//! maintenance families (Label Search by per-ancestor ownership, Pareto
//! Search by the interval-clamped decomposition):
//! * the set of label entries written by shard `i` never intersects shard
//!   `j`'s (instrumented with the driver's entry-level write log, which
//!   records every `ShardLabels::set` — strictly finer than the COW
//!   `DirtyTracker` chunk sets, which legitimately overlap because one
//!   ~16 KiB chunk interleaves entries of many shards);
//! * every write lands in the region `Hierarchy::shard_of_entry` assigns to
//!   the writing shard — the proof behind the router's `owned` filter,
//!   which repairs only the units a worker owns;
//! * the maintained arena equals, entry for entry, a rebuild over the same
//!   hierarchy on the updated graph (labels are canonical subgraph
//!   distances, so a rebuild is the exact expected arena);
//! * and queries match a fresh Dijkstra oracle on the maintained graph.
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

/// The write-log property test shared by both families.
fn write_sets_are_disjoint_and_match_rebuild(algo: Maintenance) {
    for seed in [0x5AD, 42u64, 0xC0FFEE] {
        let g0 = generate(&RoadNetConfig::sized(260, seed));
        let cfg = StlConfig { leaf_size: 4, ..Default::default() };
        let mut stl = Stl::build(&g0, &cfg);
        assert!(stl.hierarchy().num_shards() > 2, "seed {seed}: want a real shard split");
        let mut g = g0.clone();
        let mut pool = EnginePool::new();
        let pool_pairs = random_pairs(g0.num_vertices(), 12, seed ^ 0x77);

        for (round, batch) in batches_for(&g0, seed, 40).iter().enumerate() {
            let (stats, report, log) =
                stl.apply_batch_sharded_logged(&mut g, batch, algo, &mut pool);

            // Disjointness: no entry appears under two shards, and each
            // entry belongs to the shard that wrote it.
            let mut owner: HashMap<(VertexId, u32), u32> = HashMap::new();
            for (shard, entries) in &log {
                for &(v, i) in entries {
                    assert_eq!(
                        stl.hierarchy().shard_of_entry(v, i),
                        *shard,
                        "seed {seed} {algo:?} round {round}: shard {shard} wrote foreign entry \
                         ({v},{i})"
                    );
                    if let Some(prev) = owner.insert((v, i), *shard) {
                        assert_eq!(
                            prev, *shard,
                            "seed {seed} {algo:?} round {round}: entry ({v},{i}) written by two \
                             shards"
                        );
                    }
                }
            }
            assert_eq!(report.shards_touched as u64, stats.trees_touched);
            assert!(
                stats.trees_touched > 0 || stats.updates == 0,
                "seed {seed} {algo:?} round {round}: a batch with updates must touch a tree"
            );

            verify::check_matches_rebuild(&stl, &g)
                .unwrap_or_else(|e| panic!("seed {seed} {algo:?} round {round}: {e}"));
            for &(s, t) in &pool_pairs {
                assert_eq!(
                    stl.query(s, t),
                    dijkstra::distance(&g, s, t),
                    "seed {seed} {algo:?} round {round}: d({s},{t}) wrong"
                );
            }
        }
        verify::check_all(&stl, &g)
            .unwrap_or_else(|e| panic!("seed {seed} {algo:?}: invariant broken: {e}"));
    }
}

#[test]
fn shard_write_sets_are_disjoint_and_labels_match_rebuild_and_oracle() {
    write_sets_are_disjoint_and_match_rebuild(Maintenance::LabelSearch);
}

#[test]
fn pareto_shard_write_sets_are_disjoint_and_labels_match_rebuild_and_oracle() {
    write_sets_are_disjoint_and_match_rebuild(Maintenance::ParetoSearch);
}

/// Long-stream rebuild twin shared by both families; release-gated.
fn long_stream_twin(algo: Maintenance) {
    // Long mixed streams: after every batch the arena must equal a rebuild
    // and the sampled queries the oracle.
    for seed in [0xFACE, 9001u64] {
        let g0 = generate(&RoadNetConfig::sized(400, seed));
        let mut stl = Stl::build(&g0, &StlConfig::default());
        let mut g = g0.clone();
        let mut eng = UpdateEngine::new(g0.num_vertices());
        let pool_pairs = random_pairs(g0.num_vertices(), 15, seed);
        for (round, batch) in batches_for(&g0, seed, 220).iter().enumerate() {
            stl.apply_batch(&mut g, batch, algo, &mut eng);
            verify::check_matches_rebuild(&stl, &g)
                .unwrap_or_else(|e| panic!("seed {seed} {algo:?} round {round}: {e}"));
            for &(s, t) in &pool_pairs {
                assert_eq!(
                    stl.query(s, t),
                    dijkstra::distance(&g, s, t),
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
