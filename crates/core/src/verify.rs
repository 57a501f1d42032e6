//! Invariant verification for hierarchies and labellings.
//!
//! These checks are the safety net for the maintenance algorithms: every
//! stress test runs them after update batches. They are deliberately
//! independent of the construction code paths (reference searches use the
//! `precedes` predicate on bitstrings, not the τ shortcut).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use stl_graph::{dist_add, CsrGraph, DiGraph, Dist, VertexId, INF};
use stl_pathfinding::dijkstra;

use crate::directed::DirectedStl;
use crate::labelling::{Labels, Stl};

/// Check structural invariants of the hierarchy against the graph:
/// Lemma 5.3 (edge endpoints comparable) and cut coverage.
pub fn check_hierarchy(stl: &Stl, g: &CsrGraph) -> Result<(), String> {
    let h = stl.hierarchy();
    if h.num_vertices() != g.num_vertices() {
        return Err("vertex count mismatch".into());
    }
    for (u, v, _) in g.edges() {
        if !h.precedes(u, v) && !h.precedes(v, u) {
            return Err(format!("edge ({u},{v}) endpoints are not ⪯-comparable"));
        }
    }
    Ok(())
}

/// Recompute every label entry with an independent reference search and
/// compare. O(Σ_r |Desc(r)| log) — small graphs only.
pub fn check_labels_exact(stl: &Stl, g: &CsrGraph) -> Result<(), String> {
    let h = stl.hierarchy();
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    let mut heap: BinaryHeap<Reverse<(Dist, VertexId)>> = BinaryHeap::new();
    for node in 0..h.num_nodes() as u32 {
        for &r in h.cut(node) {
            // Reference restricted Dijkstra over G[Desc(r)] using `precedes`.
            dist.fill(INF);
            heap.clear();
            dist[r as usize] = 0;
            heap.push(Reverse((0, r)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                for (nb, w) in g.neighbors(v) {
                    if w == INF || nb == r || !h.precedes(r, nb) {
                        continue;
                    }
                    let nd = dist_add(d, w);
                    if nd < dist[nb as usize] {
                        dist[nb as usize] = nd;
                        heap.push(Reverse((nd, nb)));
                    }
                }
            }
            let tr = h.tau(r);
            for v in 0..n as VertexId {
                if !h.precedes(r, v) {
                    continue;
                }
                let expect = dist[v as usize];
                let got = stl.labels().get(v, tr);
                if got != expect {
                    return Err(format!(
                        "label mismatch: L({v})[τ({r})={tr}] = {got}, expected {expect}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Compare the label arena, entry for entry, with a rebuild over the same
/// hierarchy on `g` — the oracle for maintenance. Labels are canonical:
/// `L(v)[τ(r)]` is the distance from `r` inside `G[Desc(r)]`, fixed by the
/// graph and the weight-independent hierarchy alone, so whatever schedule
/// repaired them must land on what construction computes. Costs one build,
/// so unlike [`check_labels_exact`] it can run after every batch of a long
/// stream on a few hundred vertices.
///
/// The comparison is of the encoding itself: every label block and every
/// chunk's escape table must equal the rebuild's exactly, since the block
/// encoding is canonical too.
pub fn check_matches_rebuild(stl: &Stl, g: &CsrGraph) -> Result<(), String> {
    let fresh = Stl::build_with_hierarchy(g, stl.hierarchy().clone());
    labels_match(stl.labels(), fresh.labels())
}

/// [`check_matches_rebuild`] for a directed index: both label families,
/// `up` and `down`, must equal a rebuild of each over the same hierarchy on
/// `dg`, block for block and escape table for escape table.
pub fn check_directed_matches_rebuild(stl: &DirectedStl, dg: &DiGraph) -> Result<(), String> {
    let fresh = DirectedStl::build_with_hierarchy(dg, stl.hierarchy().clone());
    labels_match(&stl.up, &fresh.up).map_err(|e| format!("up: {e}"))?;
    labels_match(&stl.down, &fresh.down).map_err(|e| format!("down: {e}"))
}

/// Whether `got` encodes exactly the labels of `want`: every vertex's label
/// blocks and every chunk's escape table.
pub(crate) fn labels_match(got: &Labels, want: &Labels) -> Result<(), String> {
    for v in 0..got.num_vertices() as VertexId {
        if got.blocks(v) == want.blocks(v) {
            continue;
        }
        let (a, b) = (got.slice(v), want.slice(v));
        return Err(match (0..a.len()).find(|&i| a[i] != b[i]) {
            Some(i) => format!("L({v})[{i}] = {}, rebuild has {}", a[i], b[i]),
            None => format!("L({v}) decodes like the rebuild but its blocks differ"),
        });
    }
    for c in 0..got.num_chunks() {
        if got.chunk_escapes(c) != want.chunk_escapes(c) {
            return Err(format!("escape table of chunk {c} differs from the rebuild"));
        }
    }
    Ok(())
}

/// All-pairs query vs Dijkstra oracle. O(n · m log n) — small graphs only.
pub fn check_two_hop_cover(stl: &Stl, g: &CsrGraph) -> Result<(), String> {
    let n = g.num_vertices() as VertexId;
    for s in 0..n {
        let oracle = dijkstra::single_source(g, s);
        for t in 0..n {
            let got = stl.query(s, t);
            if got != oracle[t as usize] {
                return Err(format!("query({s},{t}) = {got}, expected {}", oracle[t as usize]));
            }
        }
    }
    Ok(())
}

/// Run all checks; convenience for tests.
pub fn check_all(stl: &Stl, g: &CsrGraph) -> Result<(), String> {
    check_hierarchy(stl, g)?;
    check_labels_exact(stl, g)?;
    check_two_hop_cover(stl, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StlConfig;
    use stl_graph::builder::from_edges;

    #[test]
    fn fresh_index_passes_all_checks() {
        let g = from_edges(
            9,
            vec![
                (0, 1, 4),
                (1, 2, 2),
                (3, 4, 7),
                (4, 5, 1),
                (6, 7, 3),
                (7, 8, 9),
                (0, 3, 5),
                (3, 6, 2),
                (1, 4, 8),
                (4, 7, 2),
                (2, 5, 6),
                (5, 8, 1),
            ],
        );
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        check_all(&stl, &g).unwrap();
        check_matches_rebuild(&stl, &g).unwrap();
    }

    #[test]
    fn corrupted_label_detected() {
        let g = from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 9)]);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        // Corrupt one non-self entry.
        let victim =
            (0..4u32).find(|&v| stl.hierarchy().tau(v) > 0).expect("some vertex has an ancestor");
        stl.labels.set(victim, 0, 12345);
        assert!(check_labels_exact(&stl, &g).is_err());
        assert!(check_matches_rebuild(&stl, &g).is_err());
    }

    #[test]
    fn corrupted_directed_label_detected() {
        let dg = DiGraph::from_arcs(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 9), (0, 3, 9)]);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 1, ..Default::default() });
        check_directed_matches_rebuild(&stl, &dg).unwrap();
        // Corrupt one non-self entry of the `up` family only.
        let victim =
            (0..4u32).find(|&v| stl.hierarchy().tau(v) > 0).expect("some vertex has an ancestor");
        stl.up.set(victim, 0, 12345);
        let err = check_directed_matches_rebuild(&stl, &dg).unwrap_err();
        assert!(err.starts_with("up: "), "{err}");
    }

    #[test]
    fn checks_pass_on_disconnected_graph() {
        let g = from_edges(6, vec![(0, 1, 3), (1, 2, 4), (3, 4, 5), (4, 5, 1)]);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        check_all(&stl, &g).unwrap();
    }
}
