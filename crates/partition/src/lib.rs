//! Balanced vertex separators for stable tree hierarchies.
//!
//! Given a connected graph, [`find_separator`] produces a vertex set `C`
//! whose removal splits the remaining vertices into sides `A`, `B` with **no
//! edge between `A` and `B`** and `|A|, |B| ≤ (1 − β)·|V|`. This is exactly
//! the cut primitive of Definition 4.1 in the paper (the recursive
//! bi-partitioning of \[12\] *without* shortcut insertion, per Remark 1).
//!
//! Pipeline (the stages are private modules; [`find_separator`] is the
//! crate's one entry point):
//! 1. initial bisection — inertial sweep when coordinates exist
//!    (`inertial`), else pseudo-peripheral BFS split (`bisect`);
//! 2. `fm` — Fiduccia–Mattheyses passes minimising the edge cut under the
//!    balance constraint. The move queue is one min-heap of vertex ids per
//!    gain value (gains are bounded by the maximum degree): each move takes
//!    the largest gain, ties going to the smallest vertex id, so the result
//!    is a pure function of the graph and its vertex ids;
//! 3. `separator` — minimum vertex cover of the cut edges via
//!    Hopcroft–Karp + Kőnig, turning the edge cut into a (locally minimal)
//!    vertex separator.

mod bisect;
mod config;
mod fm;
mod inertial;
mod separator;

pub use config::PartitionConfig;
pub use separator::Separator;

use stl_graph::{CsrGraph, VertexId};

/// Compute a balanced vertex separator of a **connected** graph.
///
/// For disconnected graphs use component handling in the caller (the
/// hierarchy builder splits components with an empty separator first).
pub fn find_separator(g: &CsrGraph, cfg: &PartitionConfig) -> Separator {
    let n = g.num_vertices();
    assert!(n >= 2, "separator needs at least two vertices");
    // 1. Initial side assignment.
    let mut side = match g.coords() {
        Some(_) => inertial::inertial_bisection(g, cfg),
        None => bisect::bfs_bisection(g, cfg),
    };
    // 2. Refine the edge cut.
    fm::refine(g, &mut side, cfg);
    // 3. Edge cut -> vertex separator (minimum vertex cover of cut edges).
    separator::cover_separator(g, &side)
}

/// Validate that `sep`, `a`, `b` partition `0..n` and that no edge joins
/// `a` to `b`. Used by tests and by debug assertions in the hierarchy.
pub fn is_valid_separator(g: &CsrGraph, sep: &Separator) -> bool {
    let n = g.num_vertices();
    let mut mark = vec![0u8; n]; // 1 = sep, 2 = a, 3 = b
    for &v in &sep.separator {
        if mark[v as usize] != 0 {
            return false;
        }
        mark[v as usize] = 1;
    }
    for &v in &sep.side_a {
        if mark[v as usize] != 0 {
            return false;
        }
        mark[v as usize] = 2;
    }
    for &v in &sep.side_b {
        if mark[v as usize] != 0 {
            return false;
        }
        mark[v as usize] = 3;
    }
    if mark.contains(&0) {
        return false;
    }
    for v in 0..n as VertexId {
        if mark[v as usize] == 2 {
            for (u, _) in g.neighbors(v) {
                if mark[u as usize] == 3 {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;

    fn grid(side: u32) -> CsrGraph {
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 1));
                }
            }
        }
        from_edges((side * side) as usize, edges)
    }

    #[test]
    fn separator_on_grid_is_valid_and_balanced() {
        let g = grid(12);
        let cfg = PartitionConfig::default();
        let sep = find_separator(&g, &cfg);
        assert!(is_valid_separator(&g, &sep));
        let n = g.num_vertices() as f64;
        let cap = ((1.0 - cfg.beta) * n).ceil() as usize;
        assert!(sep.side_a.len() <= cap, "side A too large: {}", sep.side_a.len());
        assert!(sep.side_b.len() <= cap, "side B too large: {}", sep.side_b.len());
        // A 12x12 grid has a ~12-vertex separator; allow slack but demand
        // it's far below n.
        assert!(sep.separator.len() <= 30, "separator too fat: {}", sep.separator.len());
        assert!(!sep.side_a.is_empty() && !sep.side_b.is_empty());
    }

    #[test]
    fn separator_on_grid_with_coords_uses_inertial() {
        let side = 10u32;
        let mut g = grid(side);
        g.set_coords((0..side * side).map(|i| ((i % side) as f32, (i / side) as f32)).collect());
        let sep = find_separator(&g, &PartitionConfig::default());
        assert!(is_valid_separator(&g, &sep));
        assert!(sep.separator.len() <= 14);
    }

    #[test]
    fn path_graph_separator_is_single_vertex() {
        let g = from_edges(9, (0..8).map(|i| (i, i + 1, 1)).collect::<Vec<_>>());
        let sep = find_separator(&g, &PartitionConfig::default());
        assert!(is_valid_separator(&g, &sep));
        assert_eq!(sep.separator.len(), 1);
    }

    #[test]
    fn two_vertices() {
        let g = from_edges(2, vec![(0, 1, 1)]);
        let sep = find_separator(&g, &PartitionConfig::default());
        assert!(is_valid_separator(&g, &sep));
        // One endpoint must become the separator (cover of the single cut edge).
        assert_eq!(sep.separator.len(), 1);
        assert_eq!(sep.side_a.len() + sep.side_b.len(), 1);
    }

    #[test]
    fn complete_graph_has_valid_separator() {
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v, 1));
            }
        }
        let g = from_edges(8, edges);
        let sep = find_separator(&g, &PartitionConfig::default());
        assert!(is_valid_separator(&g, &sep));
    }

    #[test]
    fn validity_checker_rejects_crossing_edge() {
        let g = from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let bad = Separator { separator: vec![], side_a: vec![0, 1], side_b: vec![2] };
        assert!(!is_valid_separator(&g, &bad));
        let good = Separator { separator: vec![1], side_a: vec![0], side_b: vec![2] };
        assert!(is_valid_separator(&g, &good));
    }

    #[test]
    fn validity_checker_rejects_missing_vertex() {
        let g = from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let bad = Separator { separator: vec![1], side_a: vec![0], side_b: vec![] };
        assert!(!is_valid_separator(&g, &bad));
    }
}
