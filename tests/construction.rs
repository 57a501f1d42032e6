//! Label construction against an independent oracle.
//!
//! `verify::check_matches_rebuild` compares with a rebuild by the same
//! construction kernel, so it cannot catch a fault in that kernel. These
//! tests check every entry with `verify::check_labels_exact`, whose
//! reference search is one plain Dijkstra per cut vertex restricted by the
//! `precedes` predicate, on synthetic road networks with closed roads
//! (`INF` arcs) and leaf sizes from 1 to 64, and require every thread count
//! to build the same label arena.

use stable_tree_labelling::core::{verify, Stl, StlConfig};
use stable_tree_labelling::workloads::roadnet::{generate, RoadNetConfig};

/// `(vertices, closed-road probability, leaf size, seed)`.
const CASES: [(usize, f64, usize, u64); 4] =
    [(900, 0.0, 1, 11), (1400, 0.02, 8, 12), (2000, 0.05, 32, 13), (2500, 0.1, 64, 14)];

#[test]
fn labels_exact_on_road_networks_at_every_thread_count() {
    for (n, closed, leaf_size, seed) in CASES {
        let case = format!("n={n} closed={closed} leaf_size={leaf_size}");
        let g = generate(&RoadNetConfig {
            target_vertices: n,
            seed,
            closed_road_prob: closed,
            ..Default::default()
        });
        let cfg = StlConfig { leaf_size, ..Default::default() };
        let serial = Stl::build_parallel(&g, &cfg, 1);
        verify::check_labels_exact(&serial, &g).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert!(serial.labels().flat().is_some(), "{case}: a fresh build is flat");
        for threads in [2, 3] {
            let par = Stl::build_parallel(&g, &cfg, threads);
            assert_eq!(par.labels().flat(), serial.labels().flat(), "{case}, threads={threads}");
            verify::check_labels_exact(&par, &g)
                .unwrap_or_else(|e| panic!("{case}, threads={threads}: {e}"));
        }
    }
}

/// A graph the size of the `update_inproc` benchmark workload: deep cuts,
/// many units per block, escapes. Release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn labels_exact_at_16k_vertices() {
    let g = generate(&RoadNetConfig::sized(16_384, 0x0057_AB1E));
    let stl = Stl::build_parallel(&g, &StlConfig::default(), 2);
    verify::check_labels_exact(&stl, &g).unwrap();
}
