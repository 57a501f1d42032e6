//! Property tests for batch repair on random road networks.
//!
//! For seeded mixed batches, for **both** maintenance families, after every
//! batch:
//! * the maintained arena equals, entry for entry, a rebuild over the same
//!   hierarchy on the updated graph (labels are canonical subgraph
//!   distances, so a rebuild is the exact expected arena);
//! * and queries match a fresh Dijkstra oracle on the maintained graph.
//!
//! Every assertion carries the stream seed for replay.

use stable_tree_labelling::core::{verify, Maintenance, Stl, StlConfig, UpdateEngine};
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

/// The per-batch rebuild and oracle check shared by both families, on
/// hierarchies split into several stable trees.
fn batches_match_rebuild_and_oracle(algo: Maintenance) {
    for seed in [0x5AD, 42u64, 0xC0FFEE] {
        let g0 = generate(&RoadNetConfig::sized(260, seed));
        let cfg = StlConfig { leaf_size: 4, ..Default::default() };
        let mut stl = Stl::build(&g0, &cfg);
        assert!(stl.hierarchy().num_shards() > 2, "seed {seed}: want a real shard split");
        let mut g = g0.clone();
        let mut eng = UpdateEngine::new(g0.num_vertices());
        let pool_pairs = random_pairs(g0.num_vertices(), 12, seed ^ 0x77);

        for (round, batch) in batches_for(&g0, seed, 40).iter().enumerate() {
            let stats = stl.apply_batch(&mut g, batch, algo, &mut eng);
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
fn label_search_batches_match_rebuild_and_oracle() {
    batches_match_rebuild_and_oracle(Maintenance::LabelSearch);
}

#[test]
fn pareto_batches_match_rebuild_and_oracle() {
    batches_match_rebuild_and_oracle(Maintenance::ParetoSearch);
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
