//! Partitioning parameters.

/// Parameters controlling balanced bi-partitioning.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Balance threshold β of Definition 4.1: each side holds at most
    /// `(1 − β)·n` vertices. The paper selects `β = 0.2` (§7).
    pub beta: f64,
    /// Maximum number of Fiduccia–Mattheyses refinement passes.
    pub fm_passes: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self { beta: 0.2, fm_passes: 6 }
    }
}

impl PartitionConfig {
    /// Config with a custom β (clamped to `(0, 0.5]`).
    pub fn with_beta(beta: f64) -> Self {
        Self { beta: beta.clamp(1e-6, 0.5), ..Self::default() }
    }

    /// Largest admissible side size for an `n`-vertex (sub)graph.
    pub(crate) fn max_side(&self, n: usize) -> usize {
        (((1.0 - self.beta) * n as f64).floor() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = PartitionConfig::default();
        assert!((c.beta - 0.2).abs() < 1e-12);
    }

    #[test]
    fn max_side_bounds() {
        let c = PartitionConfig::with_beta(0.2);
        assert_eq!(c.max_side(100), 80);
        assert_eq!(c.max_side(10), 8);
        assert_eq!(c.max_side(2), 1);
        assert_eq!(c.max_side(1), 1);
    }

    #[test]
    fn beta_clamped() {
        assert!(PartitionConfig::with_beta(0.9).beta <= 0.5);
        assert!(PartitionConfig::with_beta(-1.0).beta > 0.0);
    }
}
