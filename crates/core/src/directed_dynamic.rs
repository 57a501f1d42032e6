//! Dynamic maintenance for directed STL (§8).
//!
//! "Our Label Search and Pareto Search algorithms can maintain STL using two
//! Dijkstra's searches, namely forward and backward search."
//!
//! For an arc update `a → b`:
//! * **down labels** (`d(r_i → v)`) change along new/old paths
//!   `r_i → … → a → b → … → v` — seeded from the `down` entries of `a`,
//!   repaired by *forward* searches (relaxing out-arcs);
//! * **up labels** (`d(v → r_i)`) change along `v → … → a → b → … → r_i` —
//!   seeded from the `up` entries of `b`, repaired by *backward* searches
//!   (relaxing in-arcs).
//!
//! Each direction is the directed analogue of Algorithms 1–2, with the same
//! τ-restriction (`τ(n) > τ(r)` keeps the search inside `G[Desc(r_i)]`) and
//! the same self-entry guard derived from the zero-weight-cycle analysis
//! (see `pareto.rs`).
//!
//! [`DirectedStl::apply_batch`] is the mixed-batch driver: its
//! normalisation key is the **ordered** arc `(a, b)`, so updates to the two
//! directions of a road never collapse into one.

use std::cmp::Reverse;

use stl_graph::{dist_add, DiGraph, EdgeUpdate, VertexId, Weight, INF};

use crate::directed::DirectedStl;
use crate::engine::UpdateEngine;
use crate::hierarchy::Hierarchy;
use crate::labelling::Labels;
use crate::shard::normalise_batch;
use crate::types::UpdateStats;

/// Which label family a directed search maintains.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// `down`: distances *from* ancestors; searches relax out-arcs.
    Forward,
    /// `up`: distances *to* ancestors; searches relax in-arcs.
    Backward,
}

impl DirectedStl {
    /// Apply a mixed batch of **arc**-weight updates, keeping graph and both
    /// label families consistent: the decreases, then the increases, one
    /// arc at a time.
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
        let (dec, inc): (Vec<_>, Vec<_>) =
            normalise_batch(updates, true, |a, b| dg.arc_weight(a, b))
                .into_iter()
                .partition(|u| Some(u.new_weight) < dg.arc_weight(u.a, u.b));
        let mut stats = UpdateStats::default();
        for u in dec {
            stats += self.decrease_arc(dg, u.a, u.b, u.new_weight, eng);
        }
        for u in inc {
            stats += self.increase_arc(dg, u.a, u.b, u.new_weight, eng);
        }
        stats
    }

    /// Decrease the weight of arc `a → b` and repair both label families.
    pub fn decrease_arc(
        &mut self,
        dg: &mut DiGraph,
        a: VertexId,
        b: VertexId,
        w_new: Weight,
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let mut stats = UpdateStats { updates: 1, ..Default::default() };
        eng.ensure_capacity(dg.num_vertices());
        let old = dg.set_arc_weight(a, b, w_new).expect("arc must exist");
        debug_assert!(w_new <= old, "decrease got an increase");
        // down: new paths r → a → b → v.
        decrease_family(&self.hier, &mut self.down, dg, a, b, w_new, Dir::Forward, eng, &mut stats);
        // up: new paths v → a → b → r (seeded at a, searched backwards).
        decrease_family(&self.hier, &mut self.up, dg, b, a, w_new, Dir::Backward, eng, &mut stats);
        stats
    }

    /// Increase the weight of arc `a → b` and repair both label families.
    pub fn increase_arc(
        &mut self,
        dg: &mut DiGraph,
        a: VertexId,
        b: VertexId,
        w_new: Weight,
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let mut stats = UpdateStats { updates: 1, ..Default::default() };
        eng.ensure_capacity(dg.num_vertices());
        let w_old = dg.arc_weight(a, b).expect("arc must exist");
        debug_assert!(w_new >= w_old, "increase got a decrease");
        if w_new == w_old {
            return stats;
        }
        // Identify affected sets on the old graph for both families.
        let aff_down = collect_affected(
            &self.hier,
            &self.down,
            dg,
            a,
            b,
            w_old,
            Dir::Forward,
            eng,
            &mut stats,
        );
        let aff_up =
            collect_affected(&self.hier, &self.up, dg, b, a, w_old, Dir::Backward, eng, &mut stats);
        dg.set_arc_weight(a, b, w_new).expect("validated above");
        for (r, list) in &aff_down {
            repair_family(&self.hier, &mut self.down, dg, *r, list, Dir::Forward, eng, &mut stats);
        }
        for (r, list) in &aff_up {
            repair_family(&self.hier, &mut self.up, dg, *r, list, Dir::Backward, eng, &mut stats);
        }
        stats
    }
}

/// Arcs to relax from `v` for the given family during repair/decrease
/// (downstream direction of the search).
#[inline]
fn arcs_of(
    dg: &DiGraph,
    v: VertexId,
    dir: Dir,
) -> Box<dyn Iterator<Item = (VertexId, Weight)> + '_> {
    match dir {
        Dir::Forward => Box::new(dg.out_neighbors(v)),
        Dir::Backward => Box::new(dg.in_neighbors(v)),
    }
}

/// Arcs *into* `v` for the family (used for boundary bounds).
#[inline]
fn rev_arcs_of(
    dg: &DiGraph,
    v: VertexId,
    dir: Dir,
) -> Box<dyn Iterator<Item = (VertexId, Weight)> + '_> {
    match dir {
        Dir::Forward => Box::new(dg.in_neighbors(v)),
        Dir::Backward => Box::new(dg.out_neighbors(v)),
    }
}

/// Directed Algorithm 1: seeds from `tail`'s labels, searched onward from
/// `head` in the family direction, repairing immediately.
#[allow(clippy::too_many_arguments)]
fn decrease_family(
    hier: &Hierarchy,
    labels: &mut Labels,
    dg: &DiGraph,
    tail: VertexId,
    head: VertexId,
    w_new: Weight,
    dir: Dir,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    // Seeds per common ancestor of the arc endpoints.
    eng.seeds.clear();
    let lower = if hier.tau(tail) <= hier.tau(head) { tail } else { head };
    hier.for_each_ancestor_inclusive(lower, |r, tr| {
        let lt = labels.get(tail, tr);
        if lt == INF {
            return;
        }
        let cand = dist_add(lt, w_new);
        if cand < labels.get(head, tr) {
            eng.seeds.entry(r).or_default().push((cand, head));
        }
    });
    let seeds = std::mem::take(&mut eng.seeds);
    for (&r, queue) in seeds.iter() {
        stats.searches += 1;
        let tr = hier.tau(r);
        eng.heap.clear();
        for &(d, v) in queue {
            eng.heap.push(Reverse((d, v)));
        }
        while let Some(Reverse((d, v))) = eng.heap.pop() {
            stats.pops += 1;
            if d >= labels.get(v, tr) {
                continue;
            }
            labels.set(v, tr, d);
            stats.label_writes += 1;
            for (n, w) in arcs_of(dg, v, dir) {
                if w == INF || hier.tau(n) <= tr {
                    continue;
                }
                let nd = dist_add(d, w);
                if nd < labels.get(n, tr) {
                    eng.heap.push(Reverse((nd, n)));
                }
            }
        }
    }
    eng.seeds = seeds;
}

/// Directed Algorithm 2, search phase: affected vertices per ancestor along
/// the old shortest-path DAG (equality test), on the old graph.
#[allow(clippy::too_many_arguments)]
fn collect_affected(
    hier: &Hierarchy,
    labels: &Labels,
    dg: &DiGraph,
    tail: VertexId,
    head: VertexId,
    w_old: Weight,
    dir: Dir,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) -> Vec<(VertexId, Vec<VertexId>)> {
    eng.seeds.clear();
    let lower = if hier.tau(tail) <= hier.tau(head) { tail } else { head };
    let t_head = hier.tau(head);
    hier.for_each_ancestor_inclusive(lower, |r, tr| {
        // Self-entry guard: the head's own entry (reachable via zero-weight
        // cycles when head == r) is always 0 and never affected.
        if tr == t_head {
            return;
        }
        let lt = labels.get(tail, tr);
        let lh = labels.get(head, tr);
        if lt != INF && lh != INF && dist_add(lt, w_old) == lh {
            eng.seeds.entry(r).or_default().push((lh, head));
        }
    });
    let seeds = std::mem::take(&mut eng.seeds);
    let mut out = Vec::with_capacity(seeds.len());
    for (&r, queue) in seeds.iter() {
        stats.searches += 1;
        let tr = hier.tau(r);
        eng.heap.clear();
        eng.in_aff.reset();
        for &(d, v) in queue {
            eng.heap.push(Reverse((d, v)));
        }
        let mut list = Vec::new();
        while let Some(Reverse((d, v))) = eng.heap.pop() {
            stats.pops += 1;
            if eng.in_aff.get(v as usize) {
                continue;
            }
            eng.in_aff.set(v as usize, true);
            list.push(v);
            for (n, w) in arcs_of(dg, v, dir) {
                if w == INF || hier.tau(n) <= tr || eng.in_aff.get(n as usize) {
                    continue;
                }
                let ln = labels.get(n, tr);
                if ln != INF && dist_add(d, w) == ln {
                    eng.heap.push(Reverse((ln, n)));
                }
            }
        }
        stats.affected += list.len() as u64;
        out.push((r, list));
    }
    eng.seeds = seeds;
    out
}

/// Directed Algorithm 2, repair phase: boundary bounds then Dijkstra, in
/// the family direction, on the new graph.
#[allow(clippy::too_many_arguments)]
fn repair_family(
    hier: &Hierarchy,
    labels: &mut Labels,
    dg: &DiGraph,
    r: VertexId,
    v_aff: &[VertexId],
    dir: Dir,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    let tr = hier.tau(r);
    eng.in_aff.reset();
    for &v in v_aff {
        eng.in_aff.set(v as usize, true);
        labels.set(v, tr, INF);
    }
    eng.heap.clear();
    for &v in v_aff {
        let mut bound = INF;
        for (n, w) in rev_arcs_of(dg, v, dir) {
            if w == INF || eng.in_aff.get(n as usize) {
                continue;
            }
            let tn = hier.tau(n);
            if tn > tr || n == r {
                bound = bound.min(dist_add(labels.get(n, tr), w));
            }
        }
        if bound != INF {
            eng.heap.push(Reverse((bound, v)));
        }
    }
    while let Some(Reverse((d, v))) = eng.heap.pop() {
        stats.repair_pops += 1;
        if d >= labels.get(v, tr) {
            continue;
        }
        labels.set(v, tr, d);
        stats.label_writes += 1;
        for (n, w) in arcs_of(dg, v, dir) {
            if w == INF || hier.tau(n) <= tr {
                continue;
            }
            let nd = dist_add(d, w);
            if nd < labels.get(n, tr) {
                eng.heap.push(Reverse((nd, n)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_directed_exact as assert_exact;
    use crate::types::StlConfig;

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

    #[test]
    fn directed_decrease_exact() {
        let mut dg = directed_grid(6);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 4, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let (a, b) = (7u32, 8u32);
        let w = dg.arc_weight(a, b).unwrap();
        stl.decrease_arc(&mut dg, a, b, (w / 2).max(1), &mut eng);
        assert_exact(&dg, &stl);
    }

    #[test]
    fn directed_increase_exact() {
        let mut dg = directed_grid(6);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 4, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let (a, b) = (14u32, 15u32);
        let w = dg.arc_weight(a, b).unwrap();
        stl.increase_arc(&mut dg, a, b, w * 4, &mut eng);
        assert_exact(&dg, &stl);
    }

    #[test]
    fn one_direction_update_leaves_reverse_intact() {
        let mut dg = directed_grid(5);
        let mut stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(dg.num_vertices());
        let (a, b) = (6u32, 7u32);
        let w_fwd = dg.arc_weight(a, b).unwrap();
        let before_rev = stl.query(b, a);
        stl.increase_arc(&mut dg, a, b, w_fwd * 10, &mut eng);
        assert_exact(&dg, &stl);
        // The reverse arc b->a was not touched; its direct distance holds
        // unless its old path used a->b (possible but rare on this grid).
        let _ = before_rev;
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
            let cur = dg.arc_weight(a, b).unwrap();
            let t = (next(30) + 1) as u32;
            match t.cmp(&cur) {
                std::cmp::Ordering::Less => {
                    stl.decrease_arc(&mut dg, a, b, t, &mut eng);
                }
                std::cmp::Ordering::Greater => {
                    stl.increase_arc(&mut dg, a, b, t, &mut eng);
                }
                std::cmp::Ordering::Equal => {}
            }
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
        stl.increase_arc(&mut dg, 1, 2, INF, &mut eng);
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
        let stats = stl.apply_batch(&mut dg, &batch, &mut eng);
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
        stl.apply_batch(&mut dg, &batch, &mut eng);
        assert_eq!(dg.arc_weight(4, 5), Some(2));
        assert_eq!(dg.arc_weight(5, 4), Some(w_rev), "reverse arc untouched");
        assert_exact(&dg, &stl);
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
        assert_exact(&dg, &stl);
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
        stl.increase_arc(&mut dg, 0, 1, 3, &mut eng);
        assert_exact(&dg, &stl);
        stl.decrease_arc(&mut dg, 0, 1, 0, &mut eng);
        assert_exact(&dg, &stl);
    }
}
