//! Label Search maintenance — the ancestor-centric algorithms, run once per
//! update for both engines: the batch driver (`crate::shard`) runs them for
//! [`Stl`](crate::Stl) over the undirected [`CsrGraph`](stl_graph::CsrGraph),
//! and `crate::directed_dynamic` runs them for each label family of a
//! `DirectedStl` over one direction of its arcs.
//! The searches relax arcs through the crate's [`Arcs`] trait, the one the
//! construction kernel searches too.
//!
//! * decreases — Algorithm 1: per affected ancestor `r`, a pruned Dijkstra
//!   restricted to `G[Desc(r)]` repairs labels immediately (new distances
//!   are known as soon as a vertex is settled);
//! * increases — Algorithm 2: per ancestor, first identify the affected set
//!   `V_aff` along the old shortest-path DAG (Lemma 5.2 equality test), then
//!   repair all labels in one pass from distance bounds computed at the
//!   unaffected boundary (Definition 5.4, Lemma 5.5).
//!
//! The seed functions take the updated edge as the oriented pairs `(x, y)` a
//! changed path can cross it by, `x` before `y`: both orientations of an
//! undirected edge ([`edge_pairs`]), one per label family of a directed arc.
//!
//! Paper-fidelity note: Algorithm 2's `Repair` (line 19) restricts boundary
//! neighbours to `τ(n) > τ(r)`; that would exclude the ancestor `r` itself
//! and lose repairs for its direct neighbours, so we use `τ(n) ≥ τ(r)` —
//! along an ancestor chain the only vertex with `τ(n) = τ(r)` is `r`.
//!
//! The seed functions take an exclusive ancestor-index `limit` and seed only
//! the ancestors with `τ(r) < limit`: a per-ancestor search reads and writes
//! only entries `(v, τ(r))` with `v ∈ Desc(r)`, so a bounded repair leaves
//! every entry at or above the limit untouched (`u32::MAX` seeds them all).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use stl_graph::{dist_add, Dist, EdgeUpdate, VertexId, Weight, INF};

use crate::engine::UpdateEngine;
use crate::hierarchy::Hierarchy;
use crate::labelling::{Arcs, LabelsWriter};
use crate::types::UpdateStats;

/// The oriented pairs of undirected edge update `u`, the endpoint with the
/// smaller label index first (`τ(a) < τ(b)`, cf. Algorithm 1 line 2;
/// endpoints of an edge are always comparable by Lemma 5.3): a changed path
/// crosses the edge from `a` to `b` or from `b` to `a`.
pub(crate) fn edge_pairs(hier: &Hierarchy, u: EdgeUpdate) -> [(VertexId, VertexId); 2] {
    let (a, b) = if hier.tau(u.a) < hier.tau(u.b) { (u.a, u.b) } else { (u.b, u.a) };
    [(a, b), (b, a)]
}

/// The endpoint of the updated edge with the smaller label index: its
/// inclusive ancestors are the common ancestors of both endpoints.
fn lower(hier: &Hierarchy, pairs: &[(VertexId, VertexId)]) -> VertexId {
    let (x, y) = pairs[0];
    if hier.tau(x) < hier.tau(y) {
        x
    } else {
        y
    }
}

/// Seed the per-ancestor queues `Q_r` of a decrease to weight `w` (Alg. 1
/// lines 2–7) for the ancestors with `τ(r) < limit`: per ancestor, the
/// first pair `(x, y)` whose new path `L(x)[τ(r)] + w` beats `L(y)[τ(r)]`
/// seeds `y`. The new weight must already be applied to the graph.
pub(crate) fn seed_decrease(
    hier: &Hierarchy,
    labels: &LabelsWriter<'_>,
    pairs: &[(VertexId, VertexId)],
    w: Weight,
    limit: u32,
    eng: &mut UpdateEngine,
) {
    eng.seeds.clear();
    let seeds = &mut eng.seeds;
    hier.for_each_ancestor_below(lower(hier, pairs), limit, |r, tr| {
        let seed = pairs.iter().find_map(|&(x, y)| {
            let lx = labels.get(x, tr);
            let cand = dist_add(lx, w);
            (lx != INF && cand < labels.get(y, tr)).then_some((cand, y))
        });
        if let Some(seed) = seed {
            seeds.entry(r).or_default().push(seed);
        }
    });
}

/// One pruned Dijkstra along `g`'s arcs per seeded ancestor (Alg. 1 lines
/// 8–14), in τ order: hash-map order would make repair order and stats
/// nondeterministic.
pub(crate) fn run_decrease_searches(
    hier: &Hierarchy,
    labels: &mut LabelsWriter<'_>,
    g: &impl Arcs,
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
            relax(hier, labels, g, v, d, tr, &mut eng.heap);
        }
    }
}

/// Push every arc `v → n` of `g` inside `G[Desc(r)]` that improves on
/// `L(n)[τ(r)]` when `v` settles at `d`.
#[inline(always)]
fn relax(
    hier: &Hierarchy,
    labels: &LabelsWriter<'_>,
    g: &impl Arcs,
    v: VertexId,
    d: Dist,
    tr: u32,
    heap: &mut BinaryHeap<Reverse<(Dist, VertexId)>>,
) {
    g.for_each_arc(v, |n, w| {
        if w == INF || hier.tau(n) <= tr {
            return; // stay inside G[Desc(r)]
        }
        let nd = dist_add(d, w);
        if nd < labels.get(n, tr) {
            heap.push(Reverse((nd, n)));
        }
    });
}

/// Seed the queues of an increase from **old** labels and the **old**
/// weight `w_old` (Alg. 2 lines 2–7) for the ancestors with `τ(r) < limit`:
/// per ancestor, the first pair `(x, y)` whose old path through the edge is
/// tight, `L(x)[τ(r)] + w_old == L(y)[τ(r)]`, seeds `y`. Must run before
/// the new weight is applied.
pub(crate) fn seed_increase(
    hier: &Hierarchy,
    labels: &LabelsWriter<'_>,
    pairs: &[(VertexId, VertexId)],
    w_old: Weight,
    limit: u32,
    eng: &mut UpdateEngine,
) {
    eng.seeds.clear();
    let seeds = &mut eng.seeds;
    hier.for_each_ancestor_below(lower(hier, pairs), limit, |r, tr| {
        let seed = pairs.iter().find_map(|&(x, y)| {
            // `τ(y) != τ(r)` keeps the ancestor out of its own queue: for
            // r == y (only reachable through a zero-weight edge closing a
            // zero-length cycle) the self-entry is 0 forever.
            if hier.tau(y) == tr {
                return None;
            }
            let (lx, ly) = (labels.get(x, tr), labels.get(y, tr));
            (lx != INF && ly != INF && dist_add(lx, w_old) == ly).then_some((ly, y))
        });
        if let Some(seed) = seed {
            seeds.entry(r).or_default().push(seed);
        }
    });
}

/// Identify `V_aff` per seeded ancestor along the old shortest-path DAG of
/// `g`'s arcs (Alg. 2 lines 8–14), in τ order for run-to-run determinism,
/// appending to `eng.aff_per_r`. Must run before the update's weight is
/// applied.
pub(crate) fn collect_affected(
    hier: &Hierarchy,
    labels: &LabelsWriter<'_>,
    g: &impl Arcs,
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
            g.for_each_arc(v, |n, w| {
                if w == INF || hier.tau(n) <= tr || eng.in_aff.get(n as usize) {
                    return;
                }
                let ln = labels.get(n, tr);
                if ln != INF && dist_add(d, w) == ln {
                    eng.heap.push(Reverse((ln, n)));
                }
            });
        }
        stats.affected += list.len() as u64;
        eng.aff_per_r.push((r, list));
    }
}

/// Run `Repair` for the `(ancestor, V_aff)` pairs `eng.aff_per_r[range]`,
/// in their (τ-sorted) order, searching along `g`'s arcs; `rev` holds the
/// same arcs reversed (for an undirected graph, `g` itself). The update's
/// new weight must already be applied.
pub(crate) fn run_repairs(
    hier: &Hierarchy,
    labels: &mut LabelsWriter<'_>,
    g: &impl Arcs,
    rev: &impl Arcs,
    range: Range<usize>,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    let aff_per_r = std::mem::take(&mut eng.aff_per_r);
    for (r, list) in &aff_per_r[range] {
        repair(hier, labels, g, rev, *r, list, eng, stats);
    }
    eng.aff_per_r = aff_per_r;
}

/// `Repair` of Algorithm 2 (lines 16–27) for one ancestor.
#[allow(clippy::too_many_arguments)]
fn repair(
    hier: &Hierarchy,
    labels: &mut LabelsWriter<'_>,
    g: &impl Arcs,
    rev: &impl Arcs,
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
    // Distance bounds from the unaffected boundary (Definition 5.4), over
    // the arcs into each affected vertex. The neighbour filter must admit r
    // itself (see module docs).
    for &v in v_aff {
        let mut bound = INF;
        rev.for_each_arc(v, |n, w| {
            if w == INF || eng.in_aff.get(n as usize) {
                return;
            }
            if hier.tau(n) > tr || n == r {
                bound = bound.min(dist_add(labels.get(n, tr), w));
            }
        });
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
        relax(hier, labels, g, v, d, tr, &mut eng.heap);
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
