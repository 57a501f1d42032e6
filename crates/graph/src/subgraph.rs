//! Induced-subgraph extraction with vertex re-labelling.

use crate::csr::CsrGraph;
use crate::types::{VertexId, Weight};

/// Extract the subgraph induced by `members` (must be duplicate-free).
///
/// Returns `(subgraph, old_id)` where the new vertex `i` corresponds to the
/// original vertex `old_id[i] == members[i]`. Coordinates are carried over.
///
/// The CSR is written row by row from `g`'s own sorted, loop-free rows, so
/// the cost is `O(Σ deg(members))` plus one `O(|V(g)|)` id map — and that
/// map is skipped when `members` is sorted (hierarchy frames always are):
/// ids are then found by binary search and every row stays sorted as read.
pub fn induced_subgraph(g: &CsrGraph, members: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
    let sorted = members.windows(2).all(|w| w[0] < w[1]);
    let mut local = Vec::new();
    if !sorted {
        local = vec![u32::MAX; g.num_vertices()];
        for (i, &v) in members.iter().enumerate() {
            debug_assert_eq!(local[v as usize], u32::MAX, "duplicate member {v}");
            local[v as usize] = i as u32;
        }
    }
    let mut offsets = Vec::with_capacity(members.len() + 1);
    offsets.push(0u32);
    let mut targets: Vec<VertexId> = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    let mut row: Vec<(VertexId, Weight)> = Vec::new();
    for &v in members {
        let (ts, ws) = g.neighbor_slices(v);
        row.clear();
        for (&u, &w) in ts.iter().zip(ws) {
            let lu = if sorted {
                members.binary_search(&u).map_or(u32::MAX, |i| i as u32)
            } else {
                local[u as usize]
            };
            if lu != u32::MAX {
                row.push((lu, w));
            }
        }
        if !sorted {
            row.sort_unstable_by_key(|&(t, _)| t);
        }
        targets.extend(row.iter().map(|&(t, _)| t));
        weights.extend(row.iter().map(|&(_, w)| w));
        offsets.push(targets.len() as u32);
    }
    let num_edges = targets.len() / 2;
    let mut sub = CsrGraph::from_parts(
        offsets.into_boxed_slice(),
        targets.into_boxed_slice(),
        weights,
        num_edges,
    );
    if let Some(coords) = g.coords() {
        sub.set_coords(members.iter().map(|&v| coords[v as usize]).collect());
    }
    (sub, members.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, GraphBuilder};

    /// The edge-list construction `induced_subgraph` replaced: map, collect
    /// each edge once, then sort and de-duplicate in `GraphBuilder`.
    fn via_builder(g: &CsrGraph, members: &[VertexId]) -> CsrGraph {
        let mut local = vec![u32::MAX; g.num_vertices()];
        for (i, &v) in members.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut b = GraphBuilder::new(members.len());
        for (i, &v) in members.iter().enumerate() {
            for (u, w) in g.neighbors(v) {
                let lu = local[u as usize];
                if lu != u32::MAX && lu > i as u32 {
                    b.add_edge(i as VertexId, lu, w);
                }
            }
        }
        let mut sub = b.build();
        if let Some(coords) = g.coords() {
            sub.set_coords(members.iter().map(|&v| coords[v as usize]).collect());
        }
        sub
    }

    /// Same rows (hence offsets), targets, weights, edge count and coords.
    fn assert_matches_builder(g: &CsrGraph, members: &[VertexId]) {
        let (sub, map) = induced_subgraph(g, members);
        let want = via_builder(g, members);
        assert_eq!(map, members);
        assert_eq!(sub.num_vertices(), want.num_vertices());
        assert_eq!(sub.num_edges(), want.num_edges());
        assert_eq!(sub.num_arcs(), want.num_arcs());
        for v in 0..sub.num_vertices() as VertexId {
            assert_eq!(sub.neighbor_slices(v), want.neighbor_slices(v), "row {v}");
        }
        assert_eq!(sub.coords(), want.coords());
    }

    /// A seeded random multigraph with coordinates (parallel edges and
    /// self-loops are merged/dropped by the builder).
    fn random_graph(n: u32, m: usize, seed: u64) -> CsrGraph {
        let mut state = seed;
        let mut next = |k: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % k as u64) as u32
        };
        let edges: Vec<_> = (0..m).map(|_| (next(n), next(n), 1 + next(100))).collect();
        let mut g = from_edges(n as usize, edges);
        g.set_coords((0..n).map(|i| (i as f32, (i * 7 % 13) as f32)).collect());
        g
    }

    #[test]
    fn direct_csr_matches_builder_on_sorted_members() {
        let g = random_graph(200, 700, 11);
        let all: Vec<VertexId> = (0..200).collect();
        assert_matches_builder(&g, &all);
        let evens: Vec<VertexId> = (0..200).filter(|v| v % 2 == 0).collect();
        assert_matches_builder(&g, &evens);
        let band: Vec<VertexId> = (37..151).collect();
        assert_matches_builder(&g, &band);
    }

    #[test]
    fn direct_csr_matches_builder_on_unsorted_members() {
        let g = random_graph(200, 700, 12);
        let rev: Vec<VertexId> = (0..200).rev().collect();
        assert_matches_builder(&g, &rev);
        let scrambled: Vec<VertexId> = (0..200u32).map(|i| (i * 73) % 200).step_by(3).collect();
        assert_matches_builder(&g, &scrambled);
    }

    #[test]
    fn direct_csr_matches_builder_on_seeded_random_graphs() {
        for seed in 0..20u64 {
            let g = random_graph(60, 150, seed);
            let mut state = seed ^ 0x9E37_79B9;
            let members: Vec<VertexId> = (0..60u32)
                .filter(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 40) % 3 != 0
                })
                .collect();
            assert_matches_builder(&g, &members);
            let mut shuffled = members.clone();
            shuffled.rotate_left(members.len() / 3);
            assert_matches_builder(&g, &shuffled);
        }
    }

    #[test]
    fn path_subgraph() {
        let g = from_edges(5, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]);
        let (sub, map) = induced_subgraph(&g, &[1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!(sub.weight(0, 1), Some(2));
        assert_eq!(sub.weight(1, 2), Some(3));
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn non_adjacent_members_yield_empty_edges() {
        let g = from_edges(4, vec![(0, 1, 1), (2, 3, 1)]);
        let (sub, _) = induced_subgraph(&g, &[0, 2]);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn coords_carried_over() {
        let mut g = from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        g.set_coords(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let (sub, _) = induced_subgraph(&g, &[2, 0]);
        assert_eq!(sub.coords().unwrap(), &[(2.0, 2.0), (0.0, 0.0)]);
    }

    #[test]
    fn member_order_defines_ids() {
        let g = from_edges(3, vec![(0, 1, 5)]);
        let (sub, map) = induced_subgraph(&g, &[1, 0]);
        assert_eq!(map, vec![1, 0]);
        assert_eq!(sub.weight(0, 1), Some(5));
    }
}
