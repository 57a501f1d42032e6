//! Dynamic maintenance for directed STL (§8).
//!
//! "Our Label Search and Pareto Search algorithms can maintain STL using two
//! Dijkstra's searches, namely forward and backward search."
//!
//! For an arc update `a → b`, [`DirectedStl::apply_batch`] runs
//! `label_search`'s seed and search functions — the ones the undirected
//! driver runs — once per label family, each over one direction of the
//! arcs:
//! * **down labels** (`d(r_i → v)`) change along paths
//!   `r_i → … → a → b → … → v`: seeded by the pair `(a, b)`, searched along
//!   out-arcs;
//! * **up labels** (`d(v → r_i)`) change along `v → … → a → b → … → r_i`:
//!   seeded by the pair `(b, a)`, searched along in-arcs.
//!
//! A batch is normalised on the **ordered** arc `(a, b)`, so updates to the
//! two directions of a road never collapse into one, and then repaired one
//! update at a time in batch order, each family in one pass over every
//! ancestor of the arc's lower endpoint. A batch is exactly its normalised
//! updates applied one by one.

use stl_graph::{DiGraph, EdgeUpdate};

use crate::directed::{DirectedStl, Oriented};
use crate::engine::UpdateEngine;
use crate::label_search;
use crate::shard::normalise_batch;
use crate::types::UpdateStats;

impl DirectedStl {
    /// Apply a mixed batch of **arc**-weight updates, keeping graph and both
    /// label families consistent: the batch is normalised and each
    /// surviving update is repaired on its own, in batch order.
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
        const NORMALISED: &str = "normalised updates target existing arcs";
        // Every ancestor index is repaired: no directed deployment shards.
        const ALL: u32 = u32::MAX;
        eng.ensure_capacity(dg.num_vertices());
        let updates = normalise_batch(updates, true, |a, b| dg.arc_weight(a, b));
        let mut stats = UpdateStats { updates: updates.len() as u64, ..Default::default() };
        let DirectedStl { ref hier, ref mut up, ref mut down } = *self;
        // Family `f`: 0 is `down`, searched along out-arcs; 1 is `up`,
        // searched along in-arcs.
        let mut writers = [down.phase_writer(), up.phase_writer()];
        for &u in &updates {
            let pairs = [[(u.a, u.b)], [(u.b, u.a)]];
            let w_old = dg.arc_weight(u.a, u.b).expect(NORMALISED);
            if u.new_weight < w_old {
                // A decrease: apply the weight, then search each family.
                dg.set_arc_weight(u.a, u.b, u.new_weight).expect(NORMALISED);
                for (f, labels) in writers.iter_mut().enumerate() {
                    let g = Oriented { dg, forward: f == 0 };
                    label_search::seed_decrease(hier, labels, &pairs[f], u.new_weight, ALL, eng);
                    label_search::run_decrease_searches(hier, labels, &g, eng, &mut stats);
                }
                continue;
            }
            // An increase: identify both families' affected entries on the
            // old weight, apply the weight, then repair them. The engine
            // buffer holds the identifications back to back.
            eng.aff_per_r.clear();
            let mut ends = [0; 2];
            for (f, end) in ends.iter_mut().enumerate() {
                let g = Oriented { dg, forward: f == 0 };
                label_search::seed_increase(hier, &writers[f], &pairs[f], w_old, ALL, eng);
                label_search::collect_affected(hier, &writers[f], &g, eng, &mut stats);
                *end = eng.aff_per_r.len();
            }
            dg.set_arc_weight(u.a, u.b, u.new_weight).expect(NORMALISED);
            let mut start = 0;
            for (f, labels) in writers.iter_mut().enumerate() {
                let (g, rev) = (Oriented { dg, forward: f == 0 }, Oriented { dg, forward: f != 0 });
                let end = ends[f];
                label_search::run_repairs(hier, labels, &g, &rev, start..end, eng, &mut stats);
                start = end;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use stl_graph::{VertexId, INF};

    use super::*;
    use crate::testutil::assert_directed_exact as assert_exact;
    use crate::types::StlConfig;
    use crate::verify;

    fn directed_grid(side: u32) -> DiGraph {
        let idx = |x: u32, y: u32| y * side + x;
        let mut arcs = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    arcs.push((idx(x, y), idx(x + 1, y), 3 + (x * 7 + y) % 9));
                    if (x + y) % 3 != 0 {
                        arcs.push((idx(x + 1, y), idx(x, y), 4 + (x + y * 5) % 9));
                    }
                }
                if y + 1 < side {
                    arcs.push((idx(x, y), idx(x, y + 1), 2 + (x * 3 + y * 2) % 9));
                    arcs.push((idx(x, y + 1), idx(x, y), 5 + (x + y) % 9));
                }
            }
        }
        DiGraph::from_arcs((side * side) as usize, arcs)
    }

    /// Apply `batch`; both label families must equal a rebuild.
    fn apply(
        stl: &mut DirectedStl,
        dg: &mut DiGraph,
        batch: &[EdgeUpdate],
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let stats = stl.apply_batch(dg, batch, eng);
        verify::check_directed_matches_rebuild(stl, dg).unwrap();
        stats
    }

    #[test]
    fn directed_decrease_exact() {
        let mut dg = directed_grid(6);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 4, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let (a, b) = (7u32, 8u32);
        let w = dg.arc_weight(a, b).unwrap();
        apply(&mut stl, &mut dg, &[EdgeUpdate::new(a, b, (w / 2).max(1))], &mut eng);
        assert_exact(&dg, &stl);
    }

    #[test]
    fn directed_increase_exact() {
        let mut dg = directed_grid(6);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 4, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let (a, b) = (14u32, 15u32);
        let w = dg.arc_weight(a, b).unwrap();
        apply(&mut stl, &mut dg, &[EdgeUpdate::new(a, b, w * 4)], &mut eng);
        assert_exact(&dg, &stl);
    }

    #[test]
    fn one_direction_update_leaves_reverse_intact() {
        let mut dg = directed_grid(5);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let (a, b) = (6u32, 7u32);
        let (w_fwd, w_rev) = (dg.arc_weight(a, b).unwrap(), dg.arc_weight(b, a).unwrap());
        apply(&mut stl, &mut dg, &[EdgeUpdate::new(a, b, w_fwd * 10)], &mut eng);
        assert_eq!(dg.arc_weight(b, a), Some(w_rev), "reverse arc untouched");
        assert_exact(&dg, &stl);
    }

    #[test]
    fn randomized_directed_stress() {
        let mut dg = directed_grid(5);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 3, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let arcs: Vec<(u32, u32)> = (0..dg.num_vertices() as u32)
            .flat_map(|v| dg.out_neighbors(v).map(move |(n, _)| (v, n)).collect::<Vec<_>>())
            .collect();
        let mut state = 3141u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for round in 0..30 {
            let (a, b) = arcs[next(arcs.len() as u64) as usize];
            let t = (next(30) + 1) as u32;
            apply(&mut stl, &mut dg, &[EdgeUpdate::new(a, b, t)], &mut eng);
            if round % 6 == 5 {
                assert_exact(&dg, &stl);
            }
        }
        assert_exact(&dg, &stl);
    }

    #[test]
    fn arc_deletion_via_inf_increase() {
        let mut dg = DiGraph::from_arcs(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)]);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 1, ..Default::default() });
        let mut eng = UpdateEngine::new(4);
        assert_eq!(stl.query(0, 3), 3);
        apply(&mut stl, &mut dg, &[EdgeUpdate::new(1, 2, INF)], &mut eng);
        assert_eq!(stl.query(0, 3), 10);
        assert_exact(&dg, &stl);
    }

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
        let stats = apply(&mut stl, &mut dg, &batch, &mut eng);
        assert_eq!(dg.arc_weight(2, 3), Some(40), "forward arc must keep its own update");
        assert_eq!(dg.arc_weight(3, 2), Some(1), "reverse arc must keep its own update");
        assert_eq!(stats.updates, 2, "both orientations count as real updates");
        assert_exact(&dg, &stl);
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
        apply(&mut stl, &mut dg, &batch, &mut eng);
        assert_eq!(dg.arc_weight(4, 5), Some(2));
        assert_eq!(dg.arc_weight(5, 4), Some(w_rev), "reverse arc untouched");
        assert_exact(&dg, &stl);
    }

    #[test]
    fn directed_batch_equals_its_updates_applied_singly() {
        let mut dg = two_way_ring(10);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 3, ..Default::default() });
        let (mut dg1, mut stl1) = (dg.clone(), stl.clone());
        let mut eng = UpdateEngine::new(dg.num_vertices());
        // Mixed increases and decreases over both orientations of two roads,
        // a superseded update and a no-op.
        let batch = vec![
            EdgeUpdate::new(0, 1, 50),
            EdgeUpdate::new(1, 0, 1),
            EdgeUpdate::new(5, 0, 30),
            EdgeUpdate::new(5, 0, 2), // supersedes the update above
            EdgeUpdate::new(0, 5, 60),
            EdgeUpdate::new(7, 6, dg.arc_weight(7, 6).unwrap()),
        ];
        let batched = apply(&mut stl, &mut dg, &batch, &mut eng);
        assert_eq!(batched.updates, 4, "the superseded update and the no-op must be dropped");
        assert_exact(&dg, &stl);
        let mut singly = UpdateStats::default();
        for u in normalise_batch(&batch, true, |a, b| dg1.arc_weight(a, b)) {
            singly += apply(&mut stl1, &mut dg1, &[u], &mut eng);
        }
        assert_eq!(batched, singly);
        for v in 0..dg.num_vertices() as VertexId {
            assert!(dg.out_neighbors(v).eq(dg1.out_neighbors(v)), "arcs out of {v} differ");
        }
        verify::labels_match(&stl.up, &stl1.up).unwrap();
        verify::labels_match(&stl.down, &stl1.down).unwrap();
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

    #[test]
    fn zero_weight_arcs_safe() {
        let mut dg =
            DiGraph::from_arcs(4, vec![(0, 1, 0), (1, 0, 0), (1, 2, 5), (2, 3, 0), (3, 1, 2)]);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 1, ..Default::default() });
        let mut eng = UpdateEngine::new(4);
        apply(&mut stl, &mut dg, &[EdgeUpdate::new(0, 1, 3)], &mut eng);
        assert_exact(&dg, &stl);
        apply(&mut stl, &mut dg, &[EdgeUpdate::new(0, 1, 0)], &mut eng);
        assert_exact(&dg, &stl);
    }
}
