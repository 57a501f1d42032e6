//! Differential fuzzing of the maintenance algorithms: long seeded mixed
//! update streams (increases and decreases, factor 2–10 per §7, repeated
//! edges allowed), cross-checked **after every batch** against a rebuild of
//! the labels over the same hierarchy (entry for entry) and fresh Dijkstra
//! runs on the maintained graph, for both `Maintenance::LabelSearch` and
//! `Maintenance::ParetoSearch`.
//!
//! Every assertion message carries the stream seed, so any failure is
//! replayable by pasting the seed into `SEEDS` (or into a one-off call of
//! `differential_replay`).
//!
//! Gated to release builds: each stream applies dozens of batches and runs
//! hundreds of Dijkstra cross-checks, which debug-mode binaries turn into
//! minutes.

use stable_tree_labelling::core::{verify, Maintenance, Stl, StlConfig, UpdateEngine};
use stable_tree_labelling::pathfinding::dijkstra;
use stable_tree_labelling::prelude::*;
use stable_tree_labelling::workloads::mixed::{mixed_trace, MixedConfig, MixedOp};
use stable_tree_labelling::workloads::queries::random_pairs;
use stable_tree_labelling::workloads::{generate, RoadNetConfig};

const SEEDS: [u64; 3] = [0xFACE, 9001, 0xD15C0];

/// Replay one seeded mixed stream against one algorithm family.
fn differential_replay(seed: u64, algo: Maintenance) {
    let mut g = generate(&RoadNetConfig::sized(400, seed));
    let n = g.num_vertices();
    let mut stl = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(n);

    // Interleaved trace: queries are checked where they fall in the stream,
    // and a fixed pair pool is re-checked after every batch. Factors 2..=10
    // and with-replacement edge sampling are the mixed-module defaults.
    let trace = mixed_trace(
        &g,
        &MixedConfig { ops: 600, update_fraction: 0.08, batch_size: 8, seed, ..Default::default() },
    );
    let pool = random_pairs(n, 20, seed ^ 0x9E37);
    let mut batches_done = 0u32;
    for op in trace {
        match op {
            MixedOp::Query(s, t) => {
                assert_eq!(
                    stl.query(s, t),
                    dijkstra::distance(&g, s, t),
                    "replay seed {seed}, {algo:?}: d({s},{t}) after {batches_done} batches"
                );
            }
            // Default config: many_fraction 0.0, so no one-to-many ops here.
            MixedOp::Many(..) => unreachable!("trace generated without one-to-many ops"),
            MixedOp::Batch(batch) => {
                stl.apply_batch(&mut g, &batch, algo, &mut eng);
                batches_done += 1;
                verify::check_matches_rebuild(&stl, &g).unwrap_or_else(|e| {
                    panic!("replay seed {seed}, {algo:?}: after batch {batches_done}: {e}")
                });
                for &(s, t) in &pool {
                    assert_eq!(
                        stl.query(s, t),
                        dijkstra::distance(&g, s, t),
                        "replay seed {seed}, {algo:?}: pool d({s},{t}) \
                         after batch {batches_done}"
                    );
                }
            }
        }
    }
    assert!(batches_done >= 30, "replay seed {seed}: stream too short ({batches_done} batches)");
    verify::check_all(&stl, &g)
        .unwrap_or_else(|e| panic!("replay seed {seed}, {algo:?}: invariant broken: {e}"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn label_search_survives_long_mixed_streams() {
    for seed in SEEDS {
        differential_replay(seed, Maintenance::LabelSearch);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn pareto_search_survives_long_mixed_streams() {
    for seed in SEEDS {
        differential_replay(seed, Maintenance::ParetoSearch);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "stress test: run with --release")]
fn alternating_families_share_one_index() {
    // The two families must be freely interleavable on the same index: what
    // LabelSearch repaired, ParetoSearch must maintain, and vice versa.
    for seed in SEEDS {
        let mut g = generate(&RoadNetConfig::sized(300, seed ^ 0xA17));
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let batches: Vec<Vec<EdgeUpdate>> = mixed_trace(
            &g,
            &MixedConfig {
                ops: 80,
                update_fraction: 0.8,
                batch_size: 5,
                seed,
                ..Default::default()
            },
        )
        .into_iter()
        .filter_map(|op| if let MixedOp::Batch(b) = op { Some(b) } else { None })
        .collect();
        let pool = random_pairs(g.num_vertices(), 15, seed);
        for (i, batch) in batches.iter().enumerate() {
            let algo =
                if i % 2 == 0 { Maintenance::LabelSearch } else { Maintenance::ParetoSearch };
            stl.apply_batch(&mut g, batch, algo, &mut eng);
            verify::check_matches_rebuild(&stl, &g)
                .unwrap_or_else(|e| panic!("replay seed {seed}: batch {i} ({algo:?}): {e}"));
            for &(s, t) in &pool {
                assert_eq!(
                    stl.query(s, t),
                    dijkstra::distance(&g, s, t),
                    "replay seed {seed}: alternating families, batch {i} ({algo:?})"
                );
            }
        }
    }
}
