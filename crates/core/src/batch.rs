//! Mixed-batch update driver.
//!
//! Real traffic feeds mix increases and decreases and may repeat edges.
//! [`Stl::apply_batch`] normalises a batch (last update per edge wins,
//! no-ops dropped), splits it into a decrease phase and an increase phase,
//! and dispatches to the selected algorithm family.
//! [`DirectedStl::apply_batch`] is the §8 directed counterpart: there the
//! normalisation key is the **ordered** arc `(a, b)`, so updates to the two
//! directions of a road never collapse into one.

use stl_graph::hash::FxHashMap;
use stl_graph::{CsrGraph, DiGraph, EdgeUpdate, VertexId, Weight};

use crate::directed::DirectedStl;
use crate::engine::UpdateEngine;
use crate::labelling::Stl;
use crate::types::{Maintenance, UpdateStats};
use crate::{label_search, pareto};

impl Stl {
    /// Apply a mixed batch of edge-weight updates with the given algorithm
    /// family, keeping graph and labels consistent.
    ///
    /// Panics if an update references a non-existent edge (road-network
    /// structure is fixed; see `structural` for insertions/deletions).
    pub fn apply_batch(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let (dec, inc) = split_batch(g, updates);
        let mut stats = UpdateStats::default();
        match algo {
            Maintenance::LabelSearch => {
                stats += label_search::decrease(self, g, &dec, eng);
                stats += label_search::increase(self, g, &inc, eng);
            }
            Maintenance::ParetoSearch => {
                stats += pareto::decrease(self, g, &dec, eng);
                stats += pareto::increase(self, g, &inc, eng);
            }
        }
        stats
    }
}

impl DirectedStl {
    /// Apply a mixed batch of **arc**-weight updates, keeping graph and both
    /// label families consistent.
    ///
    /// Unlike the undirected driver, normalisation keys on the ordered pair
    /// `(a, b)`: a batch updating both `a → b` and `b → a` applies both, and
    /// only repeats of the *same* direction collapse last-wins.
    ///
    /// Panics if an update references a non-existent arc.
    pub fn apply_batch(
        &mut self,
        dg: &mut DiGraph,
        updates: &[EdgeUpdate],
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let (dec, inc) = normalise_batch(updates, true, |a, b| dg.arc_weight(a, b));
        let mut stats = UpdateStats::default();
        for u in dec {
            stats += self.decrease_arc(dg, u.a, u.b, u.new_weight, eng);
        }
        for u in inc {
            stats += self.increase_arc(dg, u.a, u.b, u.new_weight, eng);
        }
        stats
    }
}

/// Normalise a batch: last update per edge wins; classify against current
/// weights; drop no-ops. Shared with the tree-sharded driver
/// (`crate::shard`) so serial and sharded paths see identical batches.
pub(crate) fn split_batch(
    g: &CsrGraph,
    updates: &[EdgeUpdate],
) -> (Vec<EdgeUpdate>, Vec<EdgeUpdate>) {
    normalise_batch(updates, false, |a, b| g.weight(a, b))
}

/// Shared batch normalisation.
///
/// `directed` selects the dedup key: ordered arcs `(a, b)` for directed
/// graphs, unordered `{a, b}` (canonicalised `min ≤ max`) for undirected
/// ones. Keying undirected edges on the ordered pair would make
/// `(a,b,w1), (b,a,w2)` both survive and race on one physical edge; keying
/// directed arcs unordered would collapse two independent arcs — each
/// representation gets exactly its own key.
fn normalise_batch(
    updates: &[EdgeUpdate],
    directed: bool,
    weight_of: impl Fn(VertexId, VertexId) -> Option<Weight>,
) -> (Vec<EdgeUpdate>, Vec<EdgeUpdate>) {
    let mut last: FxHashMap<(VertexId, VertexId), EdgeUpdate> = FxHashMap::default();
    for &u in updates {
        let key = if directed || u.a < u.b { (u.a, u.b) } else { (u.b, u.a) };
        last.insert(key, u);
    }
    let mut dec = Vec::new();
    let mut inc = Vec::new();
    for (_, u) in last {
        let cur = weight_of(u.a, u.b).unwrap_or_else(|| {
            panic!(
                "update targets missing {} ({}, {})",
                if directed { "arc" } else { "edge" },
                u.a,
                u.b
            )
        });
        match u.new_weight.cmp(&cur) {
            std::cmp::Ordering::Less => dec.push(u),
            std::cmp::Ordering::Greater => inc.push(u),
            std::cmp::Ordering::Equal => {}
        }
    }
    (dec, inc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StlConfig;
    use crate::verify;
    use stl_graph::builder::from_edges;

    fn ladder(n: u32) -> CsrGraph {
        // Two parallel paths with rungs: plenty of alternative routes.
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((2 * i, 2 * (i + 1), 4 + i % 5));
            edges.push((2 * i + 1, 2 * (i + 1) + 1, 5 + i % 3));
        }
        for i in 0..n {
            edges.push((2 * i, 2 * i + 1, 2 + i % 4));
        }
        from_edges(2 * n as usize, edges)
    }

    #[test]
    fn mixed_batch_both_algorithms() {
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            let mut g = ladder(10);
            let mut stl = Stl::build(&g, &StlConfig { leaf_size: 3, ..Default::default() });
            let mut eng = UpdateEngine::new(g.num_vertices());
            let edges: Vec<_> = g.edges().collect();
            let batch: Vec<_> = edges
                .iter()
                .step_by(2)
                .enumerate()
                .map(|(i, &(a, b, w))| {
                    let nw = if i % 2 == 0 { w * 3 } else { (w / 2).max(1) };
                    EdgeUpdate::new(a, b, nw)
                })
                .collect();
            let stats = stl.apply_batch(&mut g, &batch, algo, &mut eng);
            assert!(stats.updates > 0);
            verify::check_all(&stl, &g).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
        }
    }

    #[test]
    fn duplicate_edge_updates_last_wins() {
        let mut g = ladder(6);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, _) = g.edges().next().unwrap();
        let batch =
            vec![EdgeUpdate::new(a, b, 100), EdgeUpdate::new(b, a, 7), EdgeUpdate::new(a, b, 9)];
        stl.apply_batch(&mut g, &batch, Maintenance::ParetoSearch, &mut eng);
        assert_eq!(g.weight(a, b), Some(9));
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn noop_batch_is_cheap() {
        let mut g = ladder(5);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let batch: Vec<_> = g.edges().map(|(a, b, w)| EdgeUpdate::new(a, b, w)).collect();
        let stats = stl.apply_batch(&mut g, &batch, Maintenance::LabelSearch, &mut eng);
        assert_eq!(stats.pops, 0);
        assert_eq!(stats.label_writes, 0);
    }

    #[test]
    fn compaction_is_invisible_across_epochs() {
        // Property: a compacted index and a never-compacted twin fed the
        // same batch stream stay byte-identical, label slice by label slice,
        // across ≥ 25 epochs — compaction changes memory layout, never
        // content. A second compaction mid-stream must also be absorbed.
        let mut g_a = ladder(12);
        let mut g_b = g_a.clone();
        let cfg = StlConfig { leaf_size: 3, ..Default::default() };
        let mut twin_a = Stl::build(&g_a, &cfg);
        let mut twin_b = Stl::build(&g_b, &cfg);
        let mut eng = UpdateEngine::new(g_a.num_vertices());
        let edges: Vec<_> = g_a.edges().collect();
        let mut state = 0xC0FFEEu64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let n = g_a.num_vertices() as VertexId;
        for epoch in 0..28 {
            let (a, b, _) = edges[next(edges.len() as u64) as usize];
            let w = (next(25) + 1) as Weight;
            let batch = [EdgeUpdate::new(a, b, w)];
            twin_a.apply_batch(&mut g_a, &batch, Maintenance::ParetoSearch, &mut eng);
            twin_b.apply_batch(&mut g_b, &batch, Maintenance::ParetoSearch, &mut eng);
            // Compact only twin A, twice, at different points in the stream.
            if epoch == 9 || epoch == 19 {
                assert!(twin_a.compact() > 0, "epoch {epoch}: compaction moved nothing");
                assert!(twin_a.is_flat());
                assert!(!twin_b.is_flat(), "twin B must stay chunked as the control");
            }
            for v in 0..n {
                assert_eq!(
                    twin_a.labels().slice(v),
                    twin_b.labels().slice(v),
                    "epoch {epoch}: label slices of vertex {v} diverged"
                );
            }
            for s in (0..n).step_by(5) {
                for t in (0..n).step_by(7) {
                    assert_eq!(twin_a.query(s, t), twin_b.query(s, t), "epoch {epoch}: ({s},{t})");
                }
            }
        }
        verify::check_all(&twin_a, &g_a).unwrap();
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn missing_edge_panics() {
        let mut g = ladder(4);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        stl.apply_batch(&mut g, &[EdgeUpdate::new(0, 7, 3)], Maintenance::LabelSearch, &mut eng);
    }

    use crate::testutil::assert_directed_exact;

    fn two_way_ring(n: u32) -> DiGraph {
        // Both directions of every road exist with distinct weights.
        let mut arcs = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            arcs.push((i, j, 3 + i % 4));
            arcs.push((j, i, 5 + i % 3));
        }
        arcs.push((0, n / 2, 11));
        arcs.push((n / 2, 0, 13));
        DiGraph::from_arcs(n as usize, arcs)
    }

    #[test]
    fn directed_batch_keeps_opposite_arcs_distinct() {
        // Regression: the undirected normalisation key `{min, max}` used to
        // be the only one available — a directed batch touching `(a, b)` and
        // `(b, a)` would collapse to whichever came last. Both arcs must
        // survive normalisation and both weights must land.
        let mut dg = two_way_ring(8);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let batch = vec![EdgeUpdate::new(2, 3, 40), EdgeUpdate::new(3, 2, 1)];
        let stats = stl.apply_batch(&mut dg, &batch, &mut eng);
        assert_eq!(dg.arc_weight(2, 3), Some(40), "forward arc must keep its own update");
        assert_eq!(dg.arc_weight(3, 2), Some(1), "reverse arc must keep its own update");
        assert_eq!(stats.updates, 2, "both orientations count as real updates");
        assert_directed_exact(&dg, &stl);
    }

    #[test]
    fn directed_batch_same_arc_still_last_wins() {
        let mut dg = two_way_ring(8);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let w_rev = dg.arc_weight(5, 4).unwrap();
        let batch = vec![
            EdgeUpdate::new(4, 5, 100),
            EdgeUpdate::new(4, 5, 2), // same direction: supersedes the first
        ];
        stl.apply_batch(&mut dg, &batch, &mut eng);
        assert_eq!(dg.arc_weight(4, 5), Some(2));
        assert_eq!(dg.arc_weight(5, 4), Some(w_rev), "reverse arc untouched");
        assert_directed_exact(&dg, &stl);
    }

    #[test]
    fn directed_mixed_batch_exact_after_split() {
        let mut dg = two_way_ring(10);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 3, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        // Mixed increases and decreases over both orientations, plus a no-op.
        let keep = dg.arc_weight(7, 6).unwrap();
        let batch = vec![
            EdgeUpdate::new(0, 1, 50),
            EdgeUpdate::new(1, 0, 1),
            EdgeUpdate::new(5, 0, 2),
            EdgeUpdate::new(0, 5, 60),
            EdgeUpdate::new(7, 6, keep),
        ];
        let stats = stl.apply_batch(&mut dg, &batch, &mut eng);
        assert_eq!(stats.updates, 4, "the no-op must be dropped");
        assert_directed_exact(&dg, &stl);
    }

    #[test]
    #[should_panic(expected = "missing arc")]
    fn directed_missing_arc_panics() {
        // A one-way street: the reverse arc does not exist.
        let mut dg = DiGraph::from_arcs(3, vec![(0, 1, 2), (1, 2, 3), (2, 0, 4)]);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 1, ..Default::default() });
        let mut eng = UpdateEngine::new(3);
        stl.apply_batch(&mut dg, &[EdgeUpdate::new(1, 0, 9)], &mut eng);
    }
}
