//! Property-based tests over random graphs and update streams.
//!
//! The generator produces connected-ish sparse graphs (a random spanning
//! backbone plus random chords — the same family as road networks but
//! unconstrained), then each test asserts one of the paper's core invariants
//! across many generated cases.
//!
//! Cases are driven by the workspace's deterministic seeded PRNG rather than
//! a shrinking framework (the build environment is offline, see
//! `vendor/README.md`); every assertion message carries the failing case
//! seed so a failure replays exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stable_tree_labelling::core::{verify, Maintenance, Stl, StlConfig, UpdateEngine};
use stable_tree_labelling::graph::builder::from_edges;
use stable_tree_labelling::partition::{find_separator, is_valid_separator, PartitionConfig};
use stable_tree_labelling::pathfinding::dijkstra;
use stable_tree_labelling::prelude::*;

const CASES: u64 = 40;

/// Random sparse graph: spanning backbone + chords. Returns `(n, edges)`.
fn arb_graph(rng: &mut StdRng) -> (usize, Vec<(u32, u32, u32)>) {
    let n = rng.random_range(4usize..40);
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for v in 1..n as u32 {
        let parent = rng.random_range(0..v);
        edges.push((parent, v, rng.random_range(1u32..1000)));
    }
    let chords = rng.random_range(0..2 * n);
    for _ in 0..chords {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a != b {
            edges.push((a, b, rng.random_range(1u32..1000)));
        }
    }
    (n, edges)
}

/// Run `body` over [`CASES`] independently seeded cases.
fn for_cases(test_tag: u64, mut body: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = test_tag * 1_000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        body(seed, &mut rng);
    }
}

#[test]
fn two_hop_cover_holds_on_random_graphs() {
    for_cases(1, |seed, rng| {
        let (n, edges) = arb_graph(rng);
        let g = from_edges(n, edges);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 3, ..Default::default() });
        verify::check_all(&stl, &g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
}

#[test]
fn queries_exact_after_random_update_stream() {
    for_cases(2, |seed, rng| {
        let (n, edges) = arb_graph(rng);
        let mut g = from_edges(n, edges);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(n);
        let edge_list: Vec<_> = g.edges().collect();
        for _ in 0..rng.random_range(1usize..12) {
            let ei = rng.random_range(0usize..64);
            let w = rng.random_range(1u32..2000);
            let (a, b, _) = edge_list[ei % edge_list.len()];
            let algo = if rng.random_bool(0.5) {
                Maintenance::ParetoSearch
            } else {
                Maintenance::LabelSearch
            };
            stl.apply_batch(&mut g, &[EdgeUpdate::new(a, b, w)], algo, &mut eng);
            verify::check_matches_rebuild(&stl, &g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        verify::check_labels_exact(&stl, &g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        verify::check_two_hop_cover(&stl, &g).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
}

#[test]
fn separators_always_valid() {
    for_cases(3, |seed, rng| {
        let (n, edges) = arb_graph(rng);
        let g = from_edges(n, edges);
        // find_separator requires a connected graph; arb_graph guarantees a
        // spanning backbone.
        let sep = find_separator(&g, &PartitionConfig::default());
        assert!(is_valid_separator(&g, &sep), "seed {seed}: invalid separator");
        assert!(
            !sep.separator.is_empty() || g.num_edges() == 0,
            "seed {seed}: empty separator on non-empty graph"
        );
    });
}

#[test]
fn edge_endpoints_always_comparable() {
    for_cases(4, |seed, rng| {
        let (n, edges) = arb_graph(rng);
        let g = from_edges(n, edges);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let h = stl.hierarchy();
        for (u, v, _) in g.edges() {
            assert!(
                h.precedes(u, v) || h.precedes(v, u),
                "seed {seed}: Lemma 5.3 violated on edge ({u},{v})"
            );
        }
    });
}

#[test]
fn query_is_triangle_consistent() {
    for_cases(5, |seed, rng| {
        // d(s,t) <= d(s,m) + d(m,t) for sampled triples.
        let (n, edges) = arb_graph(rng);
        let g = from_edges(n, edges);
        let stl = Stl::build(&g, &StlConfig::default());
        let n = g.num_vertices() as u32;
        for s in 0..n.min(8) {
            for t in 0..n.min(8) {
                for m in 0..n.min(8) {
                    let st = stl.query(s, t);
                    let via = stl.query(s, m).saturating_add(stl.query(m, t));
                    assert!(st <= via, "seed {seed}: triangle violated: d({s},{t})={st} > {via}");
                }
            }
        }
    });
}

#[test]
fn batch_matches_sequential_application() {
    for_cases(6, |seed, rng| {
        // Applying a (duplicate-free) batch at once must equal applying its
        // updates one by one.
        let (n, edges) = arb_graph(rng);
        let g0 = from_edges(n, edges);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let (mut g1, mut g2) = (g0.clone(), g0.clone());
        let mut one = Stl::build(&g0, &cfg);
        let mut two = one.clone();
        let mut eng = UpdateEngine::new(n);
        let edge_list: Vec<_> = g0.edges().collect();
        let mut batch: Vec<EdgeUpdate> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.random_range(2usize..8) {
            let ei = rng.random_range(0usize..64);
            let w = rng.random_range(1u32..2000);
            let (a, b, _) = edge_list[ei % edge_list.len()];
            if seen.insert((a, b)) {
                batch.push(EdgeUpdate::new(a, b, w));
            }
        }
        one.apply_batch(&mut g1, &batch, Maintenance::LabelSearch, &mut eng);
        for &u in &batch {
            two.apply_batch(&mut g2, &[u], Maintenance::ParetoSearch, &mut eng);
        }
        verify::check_matches_rebuild(&one, &g1).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        verify::check_matches_rebuild(&two, &g2).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for s in 0..(n as u32).min(12) {
            for t in 0..(n as u32).min(12) {
                assert_eq!(one.query(s, t), two.query(s, t), "seed {seed}: d({s},{t}) diverged");
            }
        }
    });
}

#[test]
fn oracle_agreement_sampled() {
    for_cases(7, |seed, rng| {
        let (n, edges) = arb_graph(rng);
        let g = from_edges(n, edges);
        let stl = Stl::build(&g, &StlConfig::default());
        for s in 0..(n as u32).min(10) {
            let d = dijkstra::single_source(&g, s);
            for t in 0..n as u32 {
                assert_eq!(stl.query(s, t), d[t as usize], "seed {seed}: d({s},{t}) != oracle");
            }
        }
    });
}
