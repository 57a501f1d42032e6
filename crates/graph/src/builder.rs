//! Edge-list ingestion and CSR construction.

use crate::csr::CsrGraph;
use crate::types::{VertexId, Weight};

/// Accumulates undirected edges, then builds a [`CsrGraph`].
///
/// * Self-loops are ignored (they never lie on a shortest path with
///   non-negative weights).
/// * Parallel edges are merged keeping the minimum weight, matching how the
///   DIMACS road graphs are normalised in the literature.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Builder with an edge-capacity hint.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self { n, edges: Vec::with_capacity(m) }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Add the undirected edge `{u, v}` with weight `w`.
    ///
    /// Panics in debug builds if an endpoint is out of range; self-loops are
    /// silently dropped.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        debug_assert!((u as usize) < self.n, "vertex {u} out of range");
        debug_assert!((v as usize) < self.n, "vertex {v} out of range");
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Bulk-add edges.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (VertexId, VertexId, Weight)>) {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
    }

    /// Build the CSR graph, de-duplicating parallel edges (minimum weight).
    pub fn build(mut self) -> CsrGraph {
        // De-duplicate: sort canonical pairs, keep min weight.
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                kept.2 = kept.2.min(next.2);
                true
            } else {
                false
            }
        });
        let m = self.edges.len();
        let n = self.n;

        // Counting sort into CSR with both arc directions.
        let mut degree = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            degree[u as usize + 1] += 1;
            degree[v as usize + 1] += 1;
        }
        for i in 0..n {
            degree[i + 1] += degree[i];
        }
        let offsets = degree; // now prefix sums: offsets[v]..offsets[v+1]
        let total = offsets[n] as usize;
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; total];
        let mut weights = vec![0 as Weight; total];
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        // Edges were sorted by (u, v) so each vertex's out-list is sorted for
        // arcs coming from the `u` role; arcs from the `v` role arrive in
        // sorted `u` order too, but interleaved. Re-sort each bucket.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            // Small buckets: insertion-style sort via index pairing.
            let mut pairs: Vec<(VertexId, Weight)> =
                targets[lo..hi].iter().copied().zip(weights[lo..hi].iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(t, _)| t);
            for (i, (t, w)) in pairs.into_iter().enumerate() {
                targets[lo + i] = t;
                weights[lo + i] = w;
            }
        }
        CsrGraph::from_parts(offsets.into_boxed_slice(), targets.into_boxed_slice(), weights, m)
    }
}

/// Build a graph directly from an edge list.
pub fn from_edges(
    n: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_min_weight() {
        let g = from_edges(2, vec![(0, 1, 9), (1, 0, 4), (0, 1, 7)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(0, 1), Some(4));
    }

    #[test]
    fn self_loops_dropped() {
        let g = from_edges(2, vec![(0, 0, 1), (0, 1, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = from_edges(5, vec![(0, 1, 1)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(3).count(), 0);
    }

    #[test]
    fn neighbor_lists_sorted() {
        let g = from_edges(6, vec![(3, 5, 1), (3, 1, 2), (3, 4, 3), (3, 0, 4), (3, 2, 5)]);
        let ts: Vec<_> = g.neighbors(3).map(|(t, _)| t).collect();
        assert_eq!(ts, vec![0, 1, 2, 4, 5]);
        assert_eq!(g.weight(3, 0), Some(4));
        assert_eq!(g.weight(3, 5), Some(1));
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn larger_random_graph_consistent() {
        // Deterministic pseudo-random edges; validate arc symmetry.
        let n = 200usize;
        let mut edges = Vec::new();
        let mut state = 12345u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((state >> 16) % n as u64) as VertexId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 16) % n as u64) as VertexId;
            let w = ((state >> 40) % 1000 + 1) as Weight;
            edges.push((u, v, w));
        }
        let g = from_edges(n, edges);
        for (u, v, w) in g.edges() {
            assert_eq!(g.weight(v, u), Some(w), "arc symmetry broken at ({u},{v})");
        }
        let arc_count: usize = (0..n as VertexId).map(|v| g.degree(v)).sum();
        assert_eq!(arc_count, 2 * g.num_edges());
    }
}
