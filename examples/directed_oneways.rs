//! Directed road networks (§8 extension): one-way streets and asymmetric
//! travel times.
//!
//! Builds a directed city (one-way avenues, slower uphill directions),
//! indexes it with [`DirectedStl`], and shows query asymmetry
//! `d(s→t) ≠ d(t→s)` verified against a directed Dijkstra — before and
//! after a batch that slows one arc and speeds up another.
//!
//! ```sh
//! cargo run --release --example directed_oneways
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use stable_tree_labelling::core::directed::DirectedStl;
use stable_tree_labelling::core::{StlConfig, UpdateEngine};
use stable_tree_labelling::graph::DiGraph;
use stable_tree_labelling::prelude::*;

fn directed_city(side: u32) -> DiGraph {
    let idx = |x: u32, y: u32| y * side + x;
    let mut arcs = Vec::new();
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                // Eastbound always exists; westbound only off-avenue rows.
                arcs.push((idx(x, y), idx(x + 1, y), 80 + (x * 31 + y * 17) % 160));
                if y % 4 != 0 {
                    arcs.push((idx(x + 1, y), idx(x, y), 90 + (x * 13 + y * 7) % 160));
                }
            }
            if y + 1 < side {
                // North-south: downhill faster than uphill.
                arcs.push((idx(x, y), idx(x, y + 1), 70 + (x * 11 + y * 3) % 120));
                arcs.push((idx(x, y + 1), idx(x, y), 110 + (x * 5 + y * 19) % 120));
            }
        }
    }
    DiGraph::from_arcs((side * side) as usize, arcs)
}

fn directed_dijkstra(dg: &DiGraph, s: VertexId, t: VertexId) -> Dist {
    let mut dist = vec![INF; dg.num_vertices()];
    let mut heap = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0, s)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if v == t {
            return d;
        }
        if d > dist[v as usize] {
            continue;
        }
        for (n, w) in dg.out_neighbors(v) {
            let nd = d.saturating_add(w);
            if nd < dist[n as usize] {
                dist[n as usize] = nd;
                heap.push(Reverse((nd, n)));
            }
        }
    }
    INF
}

/// Query each pair both ways and check it against a directed Dijkstra.
fn verify_pairs(stl: &DirectedStl, dg: &DiGraph, pairs: &[(VertexId, VertexId)]) {
    for &(s, t) in pairs {
        let fwd = stl.query(s, t);
        let bwd = stl.query(t, s);
        assert_eq!(fwd, directed_dijkstra(dg, s, t));
        assert_eq!(bwd, directed_dijkstra(dg, t, s));
        println!("d({s}→{t}) = {fwd},  d({t}→{s}) = {bwd}  (both verified)");
    }
}

fn main() {
    let side = 48u32;
    let mut dg = directed_city(side);
    println!("directed city: {} vertices, {} arcs", dg.num_vertices(), dg.num_arcs());
    let t0 = std::time::Instant::now();
    let mut stl = DirectedStl::build(&dg, &StlConfig::default());
    println!(
        "directed STL built in {:.2?} ({} entries over both directions)",
        t0.elapsed(),
        stl.num_entries()
    );
    let pairs = [(0u32, side * side - 1), (side - 1, side * (side - 1)), (17, 2000)];
    verify_pairs(&stl, &dg, &pairs);

    // Roadworks slow the eastbound arc out of the corner; the first
    // northbound arc gets a green wave. Only these two directions change.
    let (slow, fast) = ((0, 1), (0, side));
    let batch = [
        EdgeUpdate::new(slow.0, slow.1, 10 * dg.arc_weight(slow.0, slow.1).unwrap()),
        EdgeUpdate::new(fast.0, fast.1, 1),
    ];
    let mut eng = UpdateEngine::new(dg.num_vertices());
    let stats = stl.apply_batch(&mut dg, &batch, &mut eng);
    println!("applied {} arc updates ({} label writes)", stats.updates, stats.label_writes);
    verify_pairs(&stl, &dg, &pairs);
}
