//! Long randomized update/query stress runs for the maintenance algorithms,
//! including failure injection: deletions (INF), re-openings, zero-weight
//! roads, duplicate updates, and alternating algorithm families on the same
//! index.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stable_tree_labelling::core::{verify, Maintenance, Stl, StlConfig, UpdateEngine};
use stable_tree_labelling::pathfinding::dijkstra;
use stable_tree_labelling::prelude::*;
use stable_tree_labelling::workloads::{generate, RoadNetConfig};

fn spot_check(g: &CsrGraph, stl: &Stl, rng: &mut StdRng, samples: usize) {
    let n = g.num_vertices() as VertexId;
    for _ in 0..samples {
        let s = rng.random_range(0..n);
        let t = rng.random_range(0..n);
        assert_eq!(stl.query(s, t), dijkstra::distance(g, s, t), "query({s},{t})");
    }
}

#[test]
fn long_mixed_stream_alternating_algorithms() {
    let mut g = generate(&RoadNetConfig::sized(600, 41));
    let mut stl = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(g.num_vertices());
    let mut rng = StdRng::seed_from_u64(7);
    let edges: Vec<_> = g.edges().collect();
    for round in 0..40 {
        let algo =
            if round % 2 == 0 { Maintenance::ParetoSearch } else { Maintenance::LabelSearch };
        // Batch of 1-8 random retargets, possibly duplicated edges.
        let k = rng.random_range(1..=8);
        let batch: Vec<EdgeUpdate> = (0..k)
            .map(|_| {
                let (a, b, w) = edges[rng.random_range(0..edges.len())];
                let new = match rng.random_range(0..5u32) {
                    0 => (w / 3).max(1),
                    1 => w.saturating_mul(4),
                    2 => rng.random_range(1..5000),
                    3 => 0, // zero-weight road (toll-free teleport lane)
                    _ => w,
                };
                EdgeUpdate::new(a, b, new)
            })
            .collect();
        stl.apply_batch(&mut g, &batch, algo, &mut eng);
        verify::check_matches_rebuild(&stl, &g).unwrap_or_else(|e| panic!("round {round}: {e}"));
        spot_check(&g, &stl, &mut rng, 30);
    }
    verify::check_all(&stl, &g).unwrap();
}

#[test]
fn closure_and_reopen_cycle() {
    let mut g = generate(&RoadNetConfig::sized(400, 17));
    let mut stl = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(g.num_vertices());
    let mut rng = StdRng::seed_from_u64(23);
    let edges: Vec<_> = g.edges().collect();
    let mut closed: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    for round in 0..20 {
        if !closed.is_empty() && rng.random_bool(0.4) {
            // Re-open a closed road.
            let (a, b, w) = closed.swap_remove(rng.random_range(0..closed.len()));
            stl.insert_closed_edge(&mut g, a, b, w, Maintenance::ParetoSearch, &mut eng);
        } else {
            let (a, b, _) = edges[rng.random_range(0..edges.len())];
            let w = g.weight(a, b).unwrap();
            if w != INF {
                closed.push((a, b, w));
                stl.delete_edge(&mut g, a, b, Maintenance::LabelSearch, &mut eng);
            }
        }
        spot_check(&g, &stl, &mut rng, 20);
        if round % 5 == 4 {
            verify::check_labels_exact(&stl, &g).unwrap();
        }
    }
}

#[test]
fn heavy_batch_equivalence_with_rebuild() {
    // A single huge mixed batch must leave the labels identical to a
    // rebuild on the final graph, and the answers identical to building
    // from scratch.
    let mut g = generate(&RoadNetConfig::sized(500, 29));
    let mut stl = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(g.num_vertices());
    let mut rng = StdRng::seed_from_u64(31);
    let edges: Vec<_> = g.edges().collect();
    let mut batch: Vec<EdgeUpdate> = Vec::new();
    for &(a, b, w) in &edges {
        if !rng.random_bool(0.5) {
            continue;
        }
        let new = if rng.random_bool(0.5) { w * 2 } else { (w / 2).max(1) };
        batch.push(EdgeUpdate::new(a, b, new));
    }
    assert!(batch.len() > 50, "want a heavy batch");
    stl.apply_batch(&mut g, &batch, Maintenance::ParetoSearch, &mut eng);
    verify::check_matches_rebuild(&stl, &g).unwrap();
    let fresh = Stl::build(&g, &StlConfig::default());
    for s in (0..g.num_vertices() as VertexId).step_by(17) {
        for t in (0..g.num_vertices() as VertexId).step_by(13) {
            assert_eq!(stl.query(s, t), fresh.query(s, t), "({s},{t})");
        }
    }
}

#[test]
fn repeated_updates_to_same_edge_converge() {
    let mut g = generate(&RoadNetConfig::sized(300, 37));
    let mut stl = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(g.num_vertices());
    let (a, b, w0) = g.edges().nth(42).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..30 {
        let w = rng.random_range(1..10_000);
        stl.apply_batch(&mut g, &[EdgeUpdate::new(a, b, w)], Maintenance::ParetoSearch, &mut eng);
    }
    stl.apply_batch(&mut g, &[EdgeUpdate::new(a, b, w0)], Maintenance::LabelSearch, &mut eng);
    verify::check_all(&stl, &g).unwrap();
}

#[test]
fn stress_on_closed_road_network() {
    // Networks that ship with pre-declared INF edges must behave.
    let cfg = RoadNetConfig { closed_road_prob: 0.05, ..RoadNetConfig::sized(400, 43) };
    let mut g = generate(&cfg);
    let mut stl = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(g.num_vertices());
    let mut rng = StdRng::seed_from_u64(47);
    let closed: Vec<_> = g.edges().filter(|&(_, _, w)| w == INF).collect();
    assert!(!closed.is_empty());
    for &(a, b, _) in closed.iter().take(10) {
        stl.insert_closed_edge(&mut g, a, b, 333, Maintenance::ParetoSearch, &mut eng);
        spot_check(&g, &stl, &mut rng, 15);
        stl.delete_edge(&mut g, a, b, Maintenance::ParetoSearch, &mut eng);
        spot_check(&g, &stl, &mut rng, 15);
    }
    verify::check_all(&stl, &g).unwrap();
}
