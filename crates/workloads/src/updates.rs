//! Update workloads: the batch protocol of §7 ("Test input generation").
//!
//! For each batch, the harness first **increases** each sampled edge's
//! weight to `factor × φ` and then **decreases** (restores) it to `φ`,
//! measuring both directions. Figure 8 varies `factor` from 2 to 10.
//!
//! [`hotspot_batches`] additionally generates **tree-targeted** streams,
//! keyed by each edge's owning stable tree: updates concentrated in the `k`
//! stable trees owning the most edges (an incident, e.g. one closed bridge
//! ramp — all work lands on few shards) versus uniformly scattered
//! (city-wide rush hour — work spread over many). Both reuse the
//! mixed-trace congestion ledger so decreases are real recoveries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stl_graph::hash::FxHashSet;
use stl_graph::{CsrGraph, EdgeUpdate, VertexId, Weight, INF};

/// One sampled update target: an edge and its original weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateTarget {
    /// Edge endpoint.
    pub a: VertexId,
    /// Edge endpoint.
    pub b: VertexId,
    /// The weight before any update (restored by the decrease phase).
    pub original: Weight,
}

/// Sample `batches` batches of `per_batch` distinct finite-weight edges.
pub fn sample_batches(
    g: &CsrGraph,
    batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<Vec<UpdateTarget>> {
    let edges: Vec<(VertexId, VertexId, Weight)> =
        g.edges().filter(|&(_, _, w)| w != INF).collect();
    assert!(!edges.is_empty(), "graph has no updatable edges");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            let mut picked = std::collections::HashSet::new();
            let mut batch = Vec::with_capacity(per_batch);
            // Reject duplicates within a batch (the paper's batches are
            // sampled without replacement).
            let mut guard = 0;
            while batch.len() < per_batch && guard < per_batch * 50 {
                guard += 1;
                let (a, b, w) = edges[rng.random_range(0..edges.len())];
                if picked.insert((a, b)) {
                    batch.push(UpdateTarget { a, b, original: w });
                }
            }
            batch
        })
        .collect()
}

/// The increase phase: each edge goes to `factor × original` (capped).
pub fn increase_batch(targets: &[UpdateTarget], factor: u32) -> Vec<EdgeUpdate> {
    targets
        .iter()
        .map(|t| EdgeUpdate::new(t.a, t.b, t.original.saturating_mul(factor).min(INF - 1)))
        .collect()
}

/// The restore phase: each edge returns to its original weight.
pub fn restore_batch(targets: &[UpdateTarget]) -> Vec<EdgeUpdate> {
    targets.iter().map(|t| EdgeUpdate::new(t.a, t.b, t.original)).collect()
}

/// Parameters for [`hotspot_batches`].
#[derive(Debug, Clone)]
pub struct HotspotConfig {
    /// Number of batches to generate.
    pub batches: usize,
    /// Updates per batch (sampled with replacement, like mixed traces).
    pub batch_size: usize,
    /// Concentrate sampling in this many stable trees — the ones owning the
    /// most edges. `0` means uniformly scattered over the whole network.
    pub hot_trees: usize,
    /// Congestion factor range, inclusive (§7 varies 2..=10).
    pub min_factor: u32,
    /// Upper end of the factor range, inclusive.
    pub max_factor: u32,
    /// RNG seed; equal configs over equal graphs yield identical batches.
    pub seed: u64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            batches: 16,
            batch_size: 16,
            hot_trees: 0,
            min_factor: 2,
            max_factor: 10,
            seed: 0x407,
        }
    }
}

/// Seeded update batches targeted at stable trees.
///
/// `tree_of_edge` assigns each edge to its owning tree (shard) — pass
/// `stl_core::Hierarchy::tree_of_edge` of the index under test; taking a
/// closure keeps this crate independent of the index stack. With
/// `cfg.hot_trees == 0` edges are sampled uniformly; otherwise only from the
/// `hot_trees` trees owning the most finite edges (ties broken by tree id,
/// so the choice is deterministic). Weights follow the mixed-trace
/// congestion ledger: a sampled edge is congested to `factor × original`,
/// or restored to `original` if it is currently congested (coin flip) —
/// replaying batches in order always yields valid mixed batches.
pub fn hotspot_batches(
    g: &CsrGraph,
    tree_of_edge: impl Fn(VertexId, VertexId) -> u32,
    cfg: &HotspotConfig,
) -> Vec<Vec<EdgeUpdate>> {
    assert!(cfg.batch_size >= 1 && cfg.min_factor >= 2 && cfg.min_factor <= cfg.max_factor);
    let mut edges: Vec<(VertexId, VertexId, Weight)> =
        g.edges().filter(|&(_, _, w)| w != INF).collect();
    assert!(!edges.is_empty(), "graph has no updatable edges");
    if cfg.hot_trees > 0 {
        let mut per_tree: Vec<(u32, usize)> = Vec::new();
        for &(a, b, _) in &edges {
            let t = tree_of_edge(a, b);
            match per_tree.binary_search_by_key(&t, |&(id, _)| id) {
                Ok(i) => per_tree[i].1 += 1,
                Err(i) => per_tree.insert(i, (t, 1)),
            }
        }
        per_tree.sort_by_key(|&(id, count)| (std::cmp::Reverse(count), id));
        per_tree.truncate(cfg.hot_trees);
        let hot: FxHashSet<u32> = per_tree.into_iter().map(|(id, _)| id).collect();
        edges.retain(|&(a, b, _)| hot.contains(&tree_of_edge(a, b)));
        assert!(!edges.is_empty(), "hot trees own no updatable edges");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut congested: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
    (0..cfg.batches)
        .map(|_| {
            (0..cfg.batch_size)
                .map(|_| {
                    let (a, b, original) = edges[rng.random_range(0..edges.len())];
                    if congested.contains(&(a, b)) && rng.random_bool(0.5) {
                        congested.remove(&(a, b));
                        EdgeUpdate::new(a, b, original)
                    } else {
                        let f = rng.random_range(cfg.min_factor..=cfg.max_factor);
                        congested.insert((a, b));
                        EdgeUpdate::new(a, b, original.saturating_mul(f).min(INF - 1))
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roadnet::{generate, RoadNetConfig};

    #[test]
    fn batches_have_requested_shape() {
        let g = generate(&RoadNetConfig::sized(500, 2));
        let batches = sample_batches(&g, 4, 25, 7);
        assert_eq!(batches.len(), 4);
        for b in &batches {
            assert_eq!(b.len(), 25);
            // No duplicate edges within a batch.
            let mut keys: Vec<_> = b.iter().map(|t| (t.a, t.b)).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 25);
        }
    }

    #[test]
    fn targets_match_graph_weights() {
        let g = generate(&RoadNetConfig::sized(300, 4));
        for b in sample_batches(&g, 2, 10, 1) {
            for t in b {
                assert_eq!(g.weight(t.a, t.b), Some(t.original));
            }
        }
    }

    #[test]
    fn increase_then_restore_roundtrip() {
        let g = generate(&RoadNetConfig::sized(300, 6));
        let batch = &sample_batches(&g, 1, 10, 3)[0];
        let inc = increase_batch(batch, 2);
        let res = restore_batch(batch);
        for (t, (i, r)) in batch.iter().zip(inc.iter().zip(&res)) {
            assert_eq!(i.new_weight, t.original * 2);
            assert_eq!(r.new_weight, t.original);
        }
    }

    #[test]
    fn factor_capped_below_inf() {
        let targets = [UpdateTarget { a: 0, b: 1, original: INF - 2 }];
        let inc = increase_batch(&targets, 10);
        assert!(inc[0].new_weight < INF);
    }

    #[test]
    fn deterministic_sampling() {
        let g = generate(&RoadNetConfig::sized(300, 8));
        assert_eq!(sample_batches(&g, 2, 5, 9), sample_batches(&g, 2, 5, 9));
    }

    /// A fake tree map for hotspot tests: vertex id ranges as "trees".
    fn fake_tree(n: u32) -> impl Fn(VertexId, VertexId) -> u32 {
        move |a: VertexId, b: VertexId| a.min(b) * 8 / n
    }

    #[test]
    fn hotspot_batches_deterministic_and_shaped() {
        let g = generate(&RoadNetConfig::sized(400, 5));
        let cfg = HotspotConfig { batches: 3, batch_size: 7, ..Default::default() };
        let a = hotspot_batches(&g, fake_tree(400), &cfg);
        let b = hotspot_batches(&g, fake_tree(400), &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|batch| batch.len() == 7));
    }

    #[test]
    fn hotspot_batches_concentrate_in_hot_trees() {
        let g = generate(&RoadNetConfig::sized(400, 6));
        let tree = fake_tree(400);
        let cfg = HotspotConfig { batches: 8, batch_size: 10, hot_trees: 2, ..Default::default() };
        let mut trees_hit: Vec<u32> =
            hotspot_batches(&g, &tree, &cfg).iter().flatten().map(|u| tree(u.a, u.b)).collect();
        trees_hit.sort_unstable();
        trees_hit.dedup();
        assert!(trees_hit.len() <= 2, "hotspot stream leaked into {trees_hit:?}");
        // Scattered mode reaches strictly more trees on this graph.
        let scattered = HotspotConfig { hot_trees: 0, ..cfg };
        let mut all: Vec<u32> = hotspot_batches(&g, &tree, &scattered)
            .iter()
            .flatten()
            .map(|u| tree(u.a, u.b))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert!(all.len() > trees_hit.len());
    }

    #[test]
    fn hotspot_ledger_produces_real_restores_and_valid_targets() {
        let g = generate(&RoadNetConfig::sized(300, 9));
        let cfg = HotspotConfig { batches: 40, batch_size: 6, hot_trees: 1, ..Default::default() };
        let batches = hotspot_batches(&g, fake_tree(300), &cfg);
        let mut restores = 0;
        for u in batches.iter().flatten() {
            let w = g.weight(u.a, u.b).expect("update targets a real edge");
            assert_ne!(w, INF);
            assert_ne!(u.new_weight, INF);
            if u.new_weight == w {
                restores += 1;
            }
        }
        assert!(restores > 0, "long congested streams must contain recoveries");
    }
}
