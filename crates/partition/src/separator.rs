//! Edge cut → vertex separator via minimum vertex cover (Kőnig's theorem).
//!
//! The cut edges form a bipartite graph between side-0 and side-1 endpoints;
//! a minimum vertex cover of that bipartite graph is a minimum vertex set
//! whose removal destroys every crossing edge — i.e. a vertex separator no
//! larger than the edge cut and usually much smaller. We compute a maximum
//! matching with Hopcroft–Karp and extract the cover by Kőnig's alternating
//! reachability argument.

use stl_graph::hash::FxHashMap;
use stl_graph::{CsrGraph, VertexId};

/// A balanced vertex separator: `separator ∪ side_a ∪ side_b` partitions the
/// vertex set and no edge joins `side_a` to `side_b`.
#[derive(Debug, Clone)]
pub struct Separator {
    /// The cut vertices (tree-node content in the hierarchy).
    pub separator: Vec<VertexId>,
    /// Vertices strictly on side A (may be empty for tiny graphs).
    pub side_a: Vec<VertexId>,
    /// Vertices strictly on side B (may be empty for tiny graphs).
    pub side_b: Vec<VertexId>,
}

/// Derive a vertex separator from a two-sided assignment.
pub(crate) fn cover_separator(g: &CsrGraph, side: &[u8]) -> Separator {
    // Collect cut edges and the distinct endpoints per side.
    let mut left_ids: Vec<VertexId> = Vec::new(); // side 0 endpoints
    let mut right_ids: Vec<VertexId> = Vec::new(); // side 1 endpoints
    let mut left_index: FxHashMap<VertexId, u32> = FxHashMap::default();
    let mut right_index: FxHashMap<VertexId, u32> = FxHashMap::default();
    let mut adj: Vec<Vec<u32>> = Vec::new(); // left -> rights
    for v in 0..g.num_vertices() as VertexId {
        if side[v as usize] != 0 {
            continue;
        }
        for &u in g.neighbor_ids(v) {
            if side[u as usize] == 1 {
                let li = *left_index.entry(v).or_insert_with(|| {
                    left_ids.push(v);
                    adj.push(Vec::new());
                    (left_ids.len() - 1) as u32
                });
                let ri = *right_index.entry(u).or_insert_with(|| {
                    right_ids.push(u);
                    (right_ids.len() - 1) as u32
                });
                adj[li as usize].push(ri);
            }
        }
    }
    let (match_l, match_r) = hopcroft_karp(&adj, right_ids.len());
    let cover = koenig_cover(&adj, &match_l, &match_r);
    // Build the partition: cover vertices leave their side.
    let mut in_sep = vec![false; g.num_vertices()];
    let mut separator = Vec::with_capacity(cover.left.len() + cover.right.len());
    for &li in &cover.left {
        let v = left_ids[li as usize];
        in_sep[v as usize] = true;
        separator.push(v);
    }
    for &ri in &cover.right {
        let v = right_ids[ri as usize];
        in_sep[v as usize] = true;
        separator.push(v);
    }
    let mut side_a = Vec::new();
    let mut side_b = Vec::new();
    for v in 0..g.num_vertices() as VertexId {
        if in_sep[v as usize] {
            continue;
        }
        if side[v as usize] == 0 {
            side_a.push(v);
        } else {
            side_b.push(v);
        }
    }
    Separator { separator, side_a, side_b }
}

const NONE: u32 = u32::MAX;

/// Maximum bipartite matching (Hopcroft–Karp). Returns `(match_l, match_r)`.
fn hopcroft_karp(adj: &[Vec<u32>], nr: usize) -> (Vec<u32>, Vec<u32>) {
    let nl = adj.len();
    let mut match_l = vec![NONE; nl];
    let mut match_r = vec![NONE; nr];
    let mut layer = vec![u32::MAX; nl];
    let mut queue: Vec<u32> = Vec::new();
    loop {
        // BFS: layer free left vertices at 0.
        queue.clear();
        for (l, &m) in match_l.iter().enumerate() {
            if m == NONE {
                layer[l] = 0;
                queue.push(l as u32);
            } else {
                layer[l] = u32::MAX;
            }
        }
        let mut found_free_right = false;
        let mut qi = 0;
        while qi < queue.len() {
            let l = queue[qi] as usize;
            qi += 1;
            for &r in &adj[l] {
                let ml = match_r[r as usize];
                if ml == NONE {
                    found_free_right = true;
                } else if layer[ml as usize] == u32::MAX {
                    layer[ml as usize] = layer[l] + 1;
                    queue.push(ml);
                }
            }
        }
        if !found_free_right {
            break;
        }
        // DFS augmenting along layers.
        fn try_augment(
            l: usize,
            adj: &[Vec<u32>],
            layer: &mut [u32],
            match_l: &mut [u32],
            match_r: &mut [u32],
        ) -> bool {
            for i in 0..adj[l].len() {
                let r = adj[l][i] as usize;
                let ml = match_r[r];
                if ml == NONE
                    || (layer[ml as usize] == layer[l] + 1
                        && try_augment(ml as usize, adj, layer, match_l, match_r))
                {
                    match_l[l] = r as u32;
                    match_r[r] = l as u32;
                    return true;
                }
            }
            layer[l] = u32::MAX; // dead end
            false
        }
        let mut progress = false;
        for l in 0..nl {
            if match_l[l] == NONE && try_augment(l, adj, &mut layer, &mut match_l, &mut match_r) {
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    (match_l, match_r)
}

struct Cover {
    left: Vec<u32>,
    right: Vec<u32>,
}

/// Kőnig: cover = (L \ Z) ∪ (R ∩ Z) where Z = vertices reachable from free
/// left vertices along alternating (unmatched L→R, matched R→L) paths.
fn koenig_cover(adj: &[Vec<u32>], match_l: &[u32], match_r: &[u32]) -> Cover {
    let nl = adj.len();
    let nr = match_r.len();
    let mut z_l = vec![false; nl];
    let mut z_r = vec![false; nr];
    let mut stack: Vec<u32> = (0..nl as u32).filter(|&l| match_l[l as usize] == NONE).collect();
    for &l in &stack {
        z_l[l as usize] = true;
    }
    while let Some(l) = stack.pop() {
        for &r in &adj[l as usize] {
            if match_l[l as usize] == r {
                continue; // only unmatched edges L -> R
            }
            if !z_r[r as usize] {
                z_r[r as usize] = true;
                let ml = match_r[r as usize];
                if ml != NONE && !z_l[ml as usize] {
                    z_l[ml as usize] = true;
                    stack.push(ml);
                }
            }
        }
    }
    Cover {
        left: (0..nl as u32).filter(|&l| !z_l[l as usize]).collect(),
        right: (0..nr as u32).filter(|&r| z_r[r as usize]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;

    #[test]
    fn single_cut_edge_covered_by_one_vertex() {
        let g = from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let side = vec![0, 0, 1, 1];
        let sep = cover_separator(&g, &side);
        assert_eq!(sep.separator.len(), 1);
        assert!(crate::is_valid_separator(&g, &sep));
    }

    #[test]
    fn star_cut_covered_by_center() {
        // Center 0 on side 0 adjacent to 4 side-1 leaves: cover = {0}.
        let g = from_edges(5, vec![(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]);
        let side = vec![0, 1, 1, 1, 1];
        let sep = cover_separator(&g, &side);
        assert_eq!(sep.separator, vec![0]);
        assert!(crate::is_valid_separator(&g, &sep));
        assert!(sep.side_a.is_empty());
        assert_eq!(sep.side_b.len(), 4);
    }

    #[test]
    fn matching_lower_bounds_cover() {
        // Two disjoint cut edges need a 2-vertex cover.
        let g = from_edges(4, vec![(0, 2, 1), (1, 3, 1)]);
        let side = vec![0, 0, 1, 1];
        let sep = cover_separator(&g, &side);
        assert_eq!(sep.separator.len(), 2);
        assert!(crate::is_valid_separator(&g, &sep));
    }

    #[test]
    fn grid_band_cover_is_min() {
        // 3x4 grid split between columns 1 and 2: 3 cut edges, disjoint -> cover 3.
        let cols = 4u32;
        let idx = |x: u32, y: u32| y * cols + x;
        let mut edges = Vec::new();
        for y in 0..3 {
            for x in 0..cols {
                if x + 1 < cols {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < 3 {
                    edges.push((idx(x, y), idx(x, y + 1), 1));
                }
            }
        }
        let g = from_edges(12, edges);
        let side: Vec<u8> = (0..12u32).map(|i| if i % cols < 2 { 0 } else { 1 }).collect();
        let sep = cover_separator(&g, &side);
        assert_eq!(sep.separator.len(), 3);
        assert!(crate::is_valid_separator(&g, &sep));
    }

    #[test]
    fn no_cut_edges_gives_empty_separator() {
        let g = from_edges(4, vec![(0, 1, 1), (2, 3, 1)]);
        let side = vec![0, 0, 1, 1];
        let sep = cover_separator(&g, &side);
        assert!(sep.separator.is_empty());
        assert_eq!(sep.side_a.len(), 2);
        assert_eq!(sep.side_b.len(), 2);
    }

    #[test]
    fn hopcroft_karp_on_bipartite_cycle() {
        // Perfect matching on C8 as bipartite 4+4.
        let adj = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]];
        let (ml, mr) = hopcroft_karp(&adj, 4);
        assert!(ml.iter().all(|&m| m != NONE));
        assert!(mr.iter().all(|&m| m != NONE));
        for (l, &r) in ml.iter().enumerate() {
            assert_eq!(mr[r as usize] as usize, l);
        }
    }
}
