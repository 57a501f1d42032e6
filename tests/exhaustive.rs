//! Bounded-exhaustive maintenance check.
//!
//! Every connected labelled graph on 4 vertices, under every assignment of
//! edge weights from a small set, gets every single-edge update to
//! `{0, 1, 2, 3, 5, INF}` — each applied to the freshly built index, under
//! both maintenance families — and after each update the labels must pass
//! `verify::check_labels_exact` (an independent restricted Dijkstra per cut
//! vertex) and `verify::check_matches_rebuild` (the canonical block
//! encoding, escape tables included). The weight sets cover zero-weight
//! edges, closed roads (`INF`), plain positive weights, and `{1, 70 000}`,
//! whose labels mix entries more than `0xFFFD` apart in one block and so
//! exercise escaped lanes. One `UpdateEngine` serves the whole sweep, so
//! scratch state left behind by one update cannot hide from the next.
//!
//! Leaf size 1 bisects down to single vertices, the deepest hierarchy a
//! graph this small has. Debug builds run the `{1, 70 000}` sweep only;
//! the three-weight sweeps (~15 s each unoptimised) and the 5-vertex sweep
//! are release-only, like the 16k case of `tests/construction.rs`.

use stable_tree_labelling::core::{verify, Maintenance, Stl, StlConfig, UpdateEngine};
use stable_tree_labelling::graph::builder::from_edges;
use stable_tree_labelling::prelude::{CsrGraph, EdgeUpdate, VertexId, Weight, INF};

/// The weights every edge update moves an edge to.
const TARGETS: [Weight; 6] = [0, 1, 2, 3, 5, INF];

/// Whether the edges of `mask` (bit `e` = `pairs[e]`) connect all `n`
/// vertices.
fn connected(n: usize, pairs: &[(VertexId, VertexId)], mask: u32) -> bool {
    let mut reached = 1u32;
    loop {
        let before = reached;
        for (e, &(a, b)) in pairs.iter().enumerate() {
            if mask >> e & 1 == 1 && (reached >> a | reached >> b) & 1 == 1 {
                reached |= 1 << a | 1 << b;
            }
        }
        if reached == before {
            return reached == (1 << n) - 1;
        }
    }
}

/// Check one update applied to the built state `(g0, stl0)`.
fn check_update(g0: &CsrGraph, stl0: &Stl, u: EdgeUpdate, eng: &mut UpdateEngine) {
    for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
        let (mut g, mut stl) = (g0.clone(), stl0.clone());
        stl.apply_batch(&mut g, &[u], algo, eng);
        let edges: Vec<_> = g0.edges().collect();
        let case = || format!("{algo:?}, edges {edges:?}, update {u:?}");
        verify::check_labels_exact(&stl, &g).unwrap_or_else(|e| panic!("{}: {e}", case()));
        verify::check_matches_rebuild(&stl, &g).unwrap_or_else(|e| panic!("{}: {e}", case()));
    }
}

/// Sweep every connected labelled graph on `n` vertices with weights from
/// `weights`; returns the number of weighted graphs checked.
fn sweep(n: usize, weights: &[Weight]) -> usize {
    let pairs: Vec<(VertexId, VertexId)> =
        (0..n as VertexId).flat_map(|a| (a + 1..n as VertexId).map(move |b| (a, b))).collect();
    let cfg = StlConfig { leaf_size: 1, ..Default::default() };
    let mut eng = UpdateEngine::new(n);
    let mut graphs = 0;
    for mask in 1..1u32 << pairs.len() {
        if !connected(n, &pairs, mask) {
            continue;
        }
        let edges: Vec<_> =
            pairs.iter().enumerate().filter(|(e, _)| mask >> e & 1 == 1).map(|(_, &p)| p).collect();
        // Every weight assignment, as a base-`weights.len()` counter.
        let mut digits = vec![0usize; edges.len()];
        loop {
            let weighted = edges.iter().zip(&digits).map(|(&(a, b), &d)| (a, b, weights[d]));
            let g = from_edges(n, weighted);
            let stl = Stl::build(&g, &cfg);
            for &(a, b) in &edges {
                for t in TARGETS {
                    check_update(&g, &stl, EdgeUpdate::new(a, b, t), &mut eng);
                }
            }
            graphs += 1;
            let Some(e) = digits.iter().position(|&d| d + 1 < weights.len()) else {
                break;
            };
            digits[e] += 1;
            digits[..e].fill(0);
        }
    }
    graphs
}

/// 38 connected labelled graphs on 4 vertices, with 3^m weightings each.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_update_on_4_vertices_with_weights_0_1_2() {
    assert_eq!(sweep(4, &[0, 1, 2]), 3834);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_update_on_4_vertices_with_weights_0_1_inf() {
    assert_eq!(sweep(4, &[0, 1, INF]), 3834);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_update_on_4_vertices_with_weights_1_2_3() {
    assert_eq!(sweep(4, &[1, 2, 3]), 3834);
}

/// Escaped lanes: `70 001 − 1 > 0xFFFD`.
#[test]
fn every_update_on_4_vertices_with_weights_1_70000() {
    assert_eq!(sweep(4, &[1, 70_000]), 624);
}

/// 728 connected labelled graphs on 5 vertices. Release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_update_on_5_vertices_with_weights_1_3() {
    assert_eq!(sweep(5, &[1, 3]), 55_248);
}
