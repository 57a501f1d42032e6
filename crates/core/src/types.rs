//! Configuration and instrumentation types for STL.

use stl_partition::PartitionConfig;

/// Parameters controlling stable-tree-hierarchy and labelling construction.
#[derive(Debug, Clone)]
pub struct StlConfig {
    /// Balanced-cut parameters (β etc.); the paper uses β = 0.2.
    pub partition: PartitionConfig,
    /// Stop bisecting once a subgraph has at most this many vertices; all of
    /// them become one tree node. Smaller leaves → fewer mutual-ancestor
    /// label entries, more tree nodes.
    pub leaf_size: usize,
    /// Hard depth cap (bitstrings hold 128 levels); subgraphs still larger
    /// than `leaf_size` at this depth become leaves. Balanced cuts keep real
    /// depths far below this for any feasible input.
    pub max_depth: u32,
}

impl Default for StlConfig {
    fn default() -> Self {
        Self { partition: PartitionConfig::default(), leaf_size: 8, max_depth: 120 }
    }
}

impl StlConfig {
    /// Config with a custom balance parameter β.
    pub fn with_beta(beta: f64) -> Self {
        Self { partition: PartitionConfig::with_beta(beta), ..Self::default() }
    }
}

/// Instrumentation counters reported by every maintenance call.
///
/// These power the search-space ablation (`ablation_search` bench) that
/// contrasts Label Search and Pareto Search, mirroring the discussion around
/// Theorem 6.6 ("the factors h and |L_Δ| tend to be over-estimates").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Number of edge updates processed.
    pub updates: u64,
    /// Searches started: one per seeded ancestor (Label Search), or one per
    /// endpoint of each update (Pareto Search).
    pub searches: u64,
    /// Priority-queue pops across all search phases.
    pub pops: u64,
    /// Label entries written (improvements, bumps and repairs).
    pub label_writes: u64,
    /// Affected (vertex, ancestor) pairs identified in increase searches.
    pub affected: u64,
    /// Priority-queue pops in repair phases.
    pub repair_pops: u64,
    /// Distinct owning trees ([`Hierarchy::tree_of_edge`]) of the batch's
    /// normalised updates. Filled by `Stl::apply_batch`; the directed driver
    /// leaves it 0.
    ///
    /// [`Hierarchy::tree_of_edge`]: crate::Hierarchy::tree_of_edge
    pub trees_touched: u64,
    /// Trees that own none of the batch's normalised updates: the stable
    /// trees, plus the spine when it has cut vertices, less `trees_touched`.
    pub trees_skipped: u64,
}

impl std::ops::AddAssign for UpdateStats {
    fn add_assign(&mut self, o: Self) {
        self.updates += o.updates;
        self.searches += o.searches;
        self.pops += o.pops;
        self.label_writes += o.label_writes;
        self.affected += o.affected;
        self.repair_pops += o.repair_pops;
        self.trees_touched += o.trees_touched;
        self.trees_skipped += o.trees_skipped;
    }
}

/// Which maintenance algorithm family to use for a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// Ancestor-centric Label Search (Algorithms 1–2), `STL-L∓` in the paper.
    LabelSearch,
    /// Update-centric Pareto Search (Algorithms 3–5), `STL-P∓` in the paper.
    ParetoSearch,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_sane() {
        let c = StlConfig::default();
        assert!(c.leaf_size >= 1);
        assert!(c.max_depth <= 128);
        assert!((c.partition.beta - 0.2).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = UpdateStats { updates: 1, pops: 10, ..Default::default() };
        a += UpdateStats { updates: 2, pops: 5, label_writes: 7, ..Default::default() };
        assert_eq!(a.updates, 3);
        assert_eq!(a.pops, 15);
        assert_eq!(a.label_writes, 7);
    }
}
