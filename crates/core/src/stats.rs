//! Index size and shape statistics (the Table 4 columns).

use crate::labelling::Stl;

/// Size/shape summary of a built STL index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Total label entries `Σ_v (τ(v)+1)` ("# Label Entries" in Table 4).
    pub label_entries: u64,
    /// Bytes held by the label blocks, escape tables and location arrays.
    pub label_bytes: usize,
    /// Bytes held by hierarchy metadata (bitstrings, cuts, offsets).
    pub hierarchy_bytes: usize,
    /// Maximum label length ("Tree Height" in Table 4).
    pub height: u32,
    /// Number of tree nodes in the hierarchy.
    pub tree_nodes: usize,
}

impl IndexStats {
    /// Gather statistics from a built index.
    pub fn of(stl: &Stl) -> Self {
        Self {
            label_entries: stl.labels().num_entries(),
            label_bytes: stl.labels().memory_bytes(),
            hierarchy_bytes: stl.hierarchy().memory_bytes(),
            height: stl.hierarchy().height(),
            tree_nodes: stl.hierarchy().num_nodes(),
        }
    }

    /// Total index footprint in bytes ("Labelling Size" in Table 4).
    pub fn total_bytes(&self) -> usize {
        self.label_bytes + self.hierarchy_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StlConfig;
    use stl_graph::builder::from_edges;

    #[test]
    fn stats_consistent_with_index() {
        let g = from_edges(
            8,
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1)],
        );
        let stl = crate::Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let s = IndexStats::of(&stl);
        assert_eq!(s.label_entries, stl.hierarchy().total_label_entries());
        assert_eq!(s.height, stl.hierarchy().height());
        assert!(s.total_bytes() >= s.label_bytes);
        assert!(s.label_bytes as u64 >= s.label_entries * 4);
    }

    #[test]
    fn smaller_beta_changes_shape_not_correctness() {
        let g = from_edges(6, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]);
        let a = IndexStats::of(&crate::Stl::build(&g, &StlConfig::with_beta(0.1)));
        let b = IndexStats::of(&crate::Stl::build(&g, &StlConfig::with_beta(0.5)));
        assert!(a.label_entries > 0 && b.label_entries > 0);
    }
}
