//! Label Search maintenance — the ancestor-centric algorithms, run by the
//! batch driver (`crate::shard`) once per update in each unit it reaches:
//!
//! * decreases — Algorithm 1: per affected ancestor `r`, a pruned Dijkstra
//!   restricted to `G[Desc(r)]` repairs labels immediately (new distances
//!   are known as soon as a vertex is settled);
//! * increases — Algorithm 2: per ancestor, first identify the affected set
//!   `V_aff` along the old shortest-path DAG (Lemma 5.2 equality test), then
//!   repair all labels in one pass from distance bounds computed at the
//!   unaffected boundary (Definition 5.4, Lemma 5.5).
//!
//! Paper-fidelity note: Algorithm 2's `Repair` (line 19) restricts boundary
//! neighbours to `τ(n) > τ(r)`; that would exclude the ancestor `r` itself
//! and lose repairs for its direct neighbours, so we use `τ(n) ≥ τ(r)` —
//! along an ancestor chain the only vertex with `τ(n) = τ(r)` is `r`.
//!
//! Every phase runs on a `ShardLabels` view and seeds only the ancestors
//! its shard owns: a per-ancestor search reads and writes only entries
//! `(v, τ(r))` with `v ∈ Desc(r)`, which is what makes running an update
//! unit by unit sound.

use std::cmp::Reverse;
use std::ops::Range;

use stl_graph::{dist_add, CsrGraph, EdgeUpdate, VertexId, INF};

use crate::engine::UpdateEngine;
use crate::hierarchy::Hierarchy;
use crate::labelling::ShardLabels;
use crate::types::UpdateStats;

/// Seed decrease update `u`'s per-ancestor queues `Q_r` (Alg. 1 lines 2–7)
/// for the ancestors `labels`' shard owns. The new weight must already be
/// applied to the graph.
pub(crate) fn seed_decrease(
    hier: &Hierarchy,
    labels: &ShardLabels<'_, '_>,
    u: EdgeUpdate,
    eng: &mut UpdateEngine,
) {
    eng.seeds.clear();
    let (a, b) = orient(hier, u.a, u.b);
    let w = u.new_weight;
    let seeds = &mut eng.seeds;
    hier.for_each_ancestor_in_shard(a, labels.shard(), |r, tr| {
        let la = labels.get(a, tr);
        let lb = labels.get(b, tr);
        if la != INF && dist_add(la, w) < lb {
            seeds.entry(r).or_default().push((dist_add(la, w), b));
        } else if lb != INF && dist_add(lb, w) < la {
            seeds.entry(r).or_default().push((dist_add(lb, w), a));
        }
    });
}

/// One pruned Dijkstra per seeded ancestor (Alg. 1 lines 8–14), in τ order:
/// hash-map order would make repair order and stats nondeterministic.
pub(crate) fn run_decrease_searches(
    hier: &Hierarchy,
    labels: &mut ShardLabels<'_, '_>,
    g: &CsrGraph,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    eng.seed_list.clear();
    eng.seed_list.extend(eng.seeds.drain());
    eng.seed_list.sort_unstable_by_key(|&(r, _)| (hier.tau(r), r));
    for (r, queue) in &eng.seed_list {
        stats.searches += 1;
        let tr = hier.tau(*r);
        eng.heap.clear();
        for &(d, v) in queue {
            eng.heap.push(Reverse((d, v)));
        }
        while let Some(Reverse((d, v))) = eng.heap.pop() {
            stats.pops += 1;
            if d >= labels.get(v, tr) {
                continue; // already at least as good — prune
            }
            labels.set(v, tr, d);
            stats.label_writes += 1;
            let (ts, ws) = g.neighbor_slices(v);
            for (&n, &w) in ts.iter().zip(ws) {
                if w == INF || hier.tau(n) <= tr {
                    continue; // stay inside G[Desc(r)]
                }
                let nd = dist_add(d, w);
                if nd < labels.get(n, tr) {
                    eng.heap.push(Reverse((nd, n)));
                }
            }
        }
    }
}

/// Seed increase update `u`'s queues from **old** labels and the **old**
/// weight (Alg. 2 lines 2–7) for the ancestors `labels`' shard owns. Must
/// run before `u`'s weight is applied.
pub(crate) fn seed_increase(
    hier: &Hierarchy,
    labels: &ShardLabels<'_, '_>,
    g: &CsrGraph,
    u: EdgeUpdate,
    eng: &mut UpdateEngine,
) {
    eng.seeds.clear();
    let w_old = g.weight(u.a, u.b).expect("update must target an existing edge");
    debug_assert!(u.new_weight >= w_old, "increase got a decrease");
    let (a, b) = orient(hier, u.a, u.b);
    let ta = hier.tau(a);
    let seeds = &mut eng.seeds;
    hier.for_each_ancestor_in_shard(a, labels.shard(), |r, tr| {
        let la = labels.get(a, tr);
        let lb = labels.get(b, tr);
        if la != INF && lb != INF && dist_add(la, w_old) == lb {
            seeds.entry(r).or_default().push((lb, b));
        } else if tr < ta && lb != INF && la != INF && dist_add(lb, w_old) == la {
            // `tr < ta` keeps the ancestor itself out of its own queue:
            // for r == a (only reachable through a zero-weight edge
            // closing a zero-length cycle) the self-entry is 0 forever.
            seeds.entry(r).or_default().push((la, a));
        }
    });
}

/// Identify `V_aff` per seeded ancestor along the old shortest-path DAG
/// (Alg. 2 lines 8–14), in τ order for run-to-run determinism, appending to
/// `eng.aff_per_r`. Must run before the update's weight is applied.
pub(crate) fn collect_affected(
    hier: &Hierarchy,
    labels: &ShardLabels<'_, '_>,
    g: &CsrGraph,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    eng.seed_list.clear();
    eng.seed_list.extend(eng.seeds.drain());
    eng.seed_list.sort_unstable_by_key(|&(r, _)| (hier.tau(r), r));
    for (r, queue) in &eng.seed_list {
        let r = *r;
        stats.searches += 1;
        let tr = hier.tau(r);
        eng.heap.clear();
        eng.in_aff.reset();
        for &(d, v) in queue {
            eng.heap.push(Reverse((d, v)));
        }
        let mut list: Vec<VertexId> = Vec::new();
        while let Some(Reverse((d, v))) = eng.heap.pop() {
            stats.pops += 1;
            if eng.in_aff.get(v as usize) {
                continue;
            }
            eng.in_aff.set(v as usize, true);
            list.push(v);
            let (ts, ws) = g.neighbor_slices(v);
            for (&n, &w) in ts.iter().zip(ws) {
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
        eng.aff_per_r.push((r, list));
    }
}

/// Run `Repair` for the `(ancestor, V_aff)` pairs `eng.aff_per_r[range]`,
/// in their (τ-sorted) order. The update's new weight must already be
/// applied.
pub(crate) fn run_repairs(
    hier: &Hierarchy,
    labels: &mut ShardLabels<'_, '_>,
    g: &CsrGraph,
    range: Range<usize>,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    let aff_per_r = std::mem::take(&mut eng.aff_per_r);
    for (r, list) in &aff_per_r[range] {
        repair(hier, labels, g, *r, list, eng, stats);
    }
    eng.aff_per_r = aff_per_r;
}

/// `Repair` of Algorithm 2 (lines 16–27) for one ancestor.
fn repair(
    hier: &Hierarchy,
    labels: &mut ShardLabels<'_, '_>,
    g: &CsrGraph,
    r: VertexId,
    v_aff: &[VertexId],
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
    // Distance bounds from the unaffected boundary (Definition 5.4). The
    // neighbour filter must admit r itself (see module docs).
    for &v in v_aff {
        let mut bound = INF;
        let (ts, ws) = g.neighbor_slices(v);
        for (&n, &w) in ts.iter().zip(ws) {
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
    // Settle bounds in increasing order (Lemma 5.5), relaxing onwards.
    while let Some(Reverse((d, v))) = eng.heap.pop() {
        stats.repair_pops += 1;
        if d >= labels.get(v, tr) {
            continue;
        }
        labels.set(v, tr, d);
        stats.label_writes += 1;
        let (ts, ws) = g.neighbor_slices(v);
        for (&n, &w) in ts.iter().zip(ws) {
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

/// Orient an edge so the first endpoint has the smaller label index
/// (`τ(a) < τ(b)`, cf. Algorithm 1 line 2; endpoints of an edge are always
/// comparable by Lemma 5.3).
#[inline]
fn orient(hier: &Hierarchy, a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    if hier.tau(a) < hier.tau(b) {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use stl_graph::builder::from_edges;
    use stl_graph::{CsrGraph, EdgeUpdate, INF};

    use crate::engine::UpdateEngine;
    use crate::labelling::Stl;
    use crate::types::{Maintenance, StlConfig, UpdateStats};
    use crate::verify;

    fn grid(side: u32) -> CsrGraph {
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 2 + ((x * 7 + y * 13) % 11)));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 2 + ((x * 5 + y * 11) % 11)));
                }
            }
        }
        from_edges((side * side) as usize, edges)
    }

    /// Apply `batch` with Label Search; the labels must equal a rebuild.
    fn apply(
        stl: &mut Stl,
        g: &mut CsrGraph,
        batch: &[EdgeUpdate],
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let stats = stl.apply_batch(g, batch, Maintenance::LabelSearch, eng);
        verify::check_matches_rebuild(stl, g).unwrap();
        stats
    }

    #[test]
    fn single_decrease_repairs_exactly() {
        let mut g = grid(6);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().nth(10).unwrap();
        let stats = apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, w / 2)], &mut eng);
        assert_eq!(stats.updates, 1);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn single_increase_repairs_exactly() {
        let mut g = grid(6);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().nth(17).unwrap();
        let stats = apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, w * 3)], &mut eng);
        assert_eq!(stats.updates, 1);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn batch_decrease_then_restore_roundtrip() {
        let mut g = grid(5);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let originals: Vec<_> = g.edges().step_by(3).collect();
        let dec: Vec<_> =
            originals.iter().map(|&(a, b, w)| EdgeUpdate::new(a, b, (w / 2).max(1))).collect();
        apply(&mut stl, &mut g, &dec, &mut eng);
        verify::check_all(&stl, &g).unwrap();
        let inc: Vec<_> = originals.iter().map(|&(a, b, w)| EdgeUpdate::new(a, b, w)).collect();
        apply(&mut stl, &mut g, &inc, &mut eng);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn increase_to_inf_acts_as_deletion() {
        let mut g = grid(4);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, _) = g.edges().next().unwrap();
        apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, INF)], &mut eng);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn decrease_from_inf_acts_as_insertion() {
        // Graph with a pre-declared "closed road" at INF weight.
        let mut g =
            from_edges(6, vec![(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5), (4, 5, 5), (0, 5, INF)]);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        assert_eq!(stl.query(0, 5), 25);
        let mut eng = UpdateEngine::new(g.num_vertices());
        apply(&mut stl, &mut g, &[EdgeUpdate::new(0, 5, 3)], &mut eng);
        assert_eq!(stl.query(0, 5), 3);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn randomized_update_stress_label_search() {
        let mut g = grid(5);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 4, ..Default::default() });
        let mut eng = UpdateEngine::new(g.num_vertices());
        let edges: Vec<_> = g.edges().collect();
        let mut state = 42u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..30 {
            let (a, b, _) = edges[next(edges.len() as u64) as usize];
            let target = (next(20) + 1) as u32;
            apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, target)], &mut eng);
        }
        verify::check_all(&stl, &g).unwrap();
    }
}
