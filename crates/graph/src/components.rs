//! Connectivity utilities.

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Label each vertex with a component id (`0..k`); returns `(labels, k)`.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut k = 0u32;
    for s in 0..n as VertexId {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = k;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbor_ids(v) {
                if comp[u as usize] == u32::MAX {
                    comp[u as usize] = k;
                    stack.push(u);
                }
            }
        }
        k += 1;
    }
    (comp, k as usize)
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &CsrGraph) -> bool {
    let (_, k) = connected_components(g);
    k <= 1
}

/// Extract the largest connected component.
///
/// Returns the component as a new graph plus `old_id[new] = old` mapping.
/// Coordinates are carried over when present.
pub fn largest_component(g: &CsrGraph) -> (CsrGraph, Vec<VertexId>) {
    let (comp, k) = connected_components(g);
    if k <= 1 {
        return (g.clone(), (0..g.num_vertices() as VertexId).collect());
    }
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    let best = sizes.iter().enumerate().max_by_key(|&(_, s)| *s).map(|(i, _)| i as u32).unwrap();
    let members: Vec<VertexId> =
        (0..g.num_vertices() as VertexId).filter(|&v| comp[v as usize] == best).collect();
    let (sub, map) = crate::subgraph::induced_subgraph(g, &members);
    (sub, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn single_component() {
        let g = from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert!(is_connected(&g));
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 1);
        assert!(labels.iter().all(|&c| c == 0));
    }

    #[test]
    fn multiple_components_counted() {
        let g = from_edges(6, vec![(0, 1, 1), (2, 3, 1), (3, 4, 1)]);
        let (_, k) = connected_components(&g);
        assert_eq!(k, 3); // {0,1}, {2,3,4}, {5}
        assert!(!is_connected(&g));
    }

    #[test]
    fn largest_component_extracted() {
        let g = from_edges(6, vec![(0, 1, 7), (2, 3, 1), (3, 4, 2)]);
        let (sub, map) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(map, vec![2, 3, 4]);
        assert_eq!(sub.weight(0, 1), Some(1)); // old (2,3)
        assert_eq!(sub.weight(1, 2), Some(2)); // old (3,4)
    }

    #[test]
    fn connected_graph_returned_as_is() {
        let g = from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let (sub, map) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(map, vec![0, 1, 2]);
    }

    #[test]
    fn empty_graph_connected() {
        let g = from_edges(0, Vec::new());
        assert!(is_connected(&g));
    }
}
