//! Initial balanced bisection by BFS sweep from a pseudo-peripheral vertex.
//!
//! BFS orders from far-apart vertices cut road-like graphs along narrow
//! "waists"; taking a prefix of the order as side A yields a connected,
//! balanced starting point for FM refinement.

use stl_graph::{CsrGraph, VertexId};
use stl_pathfinding::bfs;

use crate::config::PartitionConfig;

/// Assign each vertex a side (`0` / `1`); side 0 is a BFS-order prefix.
pub(crate) fn bfs_bisection(g: &CsrGraph, cfg: &PartitionConfig) -> Vec<u8> {
    let n = g.num_vertices();
    let (start, _) = bfs::pseudo_peripheral(g, 0);
    let order = bfs::bfs_order(g, start);
    debug_assert_eq!(order.len(), n, "bfs_bisection requires a connected graph");
    let mut side = vec![1u8; n];
    let half = (n / 2).clamp(1, cfg.max_side(n));
    for &v in order.iter().take(half) {
        side[v as usize] = 0;
    }
    side
}

/// Count edges whose endpoints lie on different sides.
pub(crate) fn cut_size(g: &CsrGraph, side: &[u8]) -> usize {
    let mut cut = 0usize;
    for v in 0..g.num_vertices() as VertexId {
        if side[v as usize] == 0 {
            for &u in g.neighbor_ids(v) {
                if side[u as usize] == 1 {
                    cut += 1;
                }
            }
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;

    #[test]
    fn path_split_in_half() {
        let g = from_edges(10, (0..9).map(|i| (i, i + 1, 1)).collect::<Vec<_>>());
        let side = bfs_bisection(&g, &PartitionConfig::default());
        let zeros = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(zeros, 5);
        // A BFS prefix of a path is contiguous -> cut size exactly 1.
        assert_eq!(cut_size(&g, &side), 1);
    }

    #[test]
    fn sides_nonempty_and_balanced() {
        let mut edges = Vec::new();
        for u in 0..30u32 {
            edges.push((u, (u + 1) % 30, 1));
            edges.push((u, (u + 7) % 30, 1));
        }
        let g = from_edges(30, edges);
        let cfg = PartitionConfig::default();
        let side = bfs_bisection(&g, &cfg);
        let zeros = side.iter().filter(|&&s| s == 0).count();
        assert!(zeros > 0 && zeros < 30);
        assert!(zeros <= cfg.max_side(30));
        assert!(30 - zeros <= cfg.max_side(30));
    }

    #[test]
    fn cut_size_counts_each_edge_once() {
        let g = from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]);
        let side = vec![0, 0, 1, 1];
        assert_eq!(cut_size(&g, &side), 2);
    }
}
