//! Pareto Search maintenance — the update-centric algorithms, run by the
//! batch driver (`crate::shard`) once per update.
//!
//! Instead of one search per affected ancestor, Pareto Search runs **two**
//! searches per update (one from each endpoint of the updated edge) and
//! tracks, per visited vertex, the *interval of ancestor indices* for which
//! the tracked path is valid (Definition 5.11, Pareto-optimal pairs). A path
//! whose minimum-τ vertex is `m` lies in `G[Desc(r_i)]` for every `i ≤ τ(m)`,
//! so validity intervals clamp at `τ(v)` on every hop; the per-vertex
//! `level` watermark discards dominated tuples (Example 5.13).
//!
//! * decreases — Algorithm 3 (`search_and_repair_dec`): labels repair
//!   immediately (`L_v[i] ← d + L_r[i]`) because new distances are known on
//!   the fly;
//! * increases — Algorithms 4–5 (`search_inc`, `bump_pairs`, `repair_inc`):
//!   equality tests on *old* labels identify exact affected `(v, i)` pairs,
//!   labels are bumped by `Δ` as upper bounds, and a repair finishes from
//!   the unaffected boundary. The repair runs on label blocks rather than
//!   entries: one queue item per `(v, k)`, block `k` of affected vertex
//!   `v`, scanned 16 entries at a time — a label-correcting search whose
//!   fixpoint is Algorithm 5's labels (see [`repair_inc`]).
//!
//! Every phase reads labels a range at a time
//! ([`LabelsWriter::read_range`]): one location lookup per range and one
//! chunk lookup and decode per 16-entry block, instead of one of each per
//! entry.
//!
//! Implementation note: Algorithm 4 bumps labels *during* its searches
//! while later equality checks need pre-update values; we instead collect
//! exact affected pairs from both searches first and apply all `+Δ` bumps
//! after, which keeps the two searches' equality tests exact without
//! snapshotting every label.
//!
//! Every search takes an exclusive ancestor-index `limit` and searches the
//! validity intervals inside `[0, limit)` only. A bounded search writes
//! nothing at or above the limit, and what it writes below is exact: search,
//! bump and repair are all **index-local** — the entries at index `i` depend
//! only on other index-`i` entries (Definition 5.11: an item leaving
//! `Desc(r_i)` has its `hi` clamped below `i` at the boundary vertex). The
//! driver passes `u32::MAX`, or a shard worker's tree boundary
//! ([`Hierarchy::shard_anc_start`]) for an update in a tree it does not own.

use std::cmp::Reverse;

use stl_graph::{dist_add, CsrGraph, Dist, VertexId, INF};

use crate::engine::{ParetoItem, UpdateEngine};
use crate::hierarchy::Hierarchy;
use crate::labelling::{LabelsWriter, BLOCK};
use crate::types::UpdateStats;

/// The highest ancestor index a search anchored at `r` from `start` covers
/// below `limit`: `min(τ(r), τ(start), limit − 1)`, or `None` for an empty
/// range.
fn top_index(hier: &Hierarchy, r: VertexId, start: VertexId, limit: u32) -> Option<u32> {
    let end = (hier.tau(r).min(hier.tau(start)) + 1).min(limit);
    end.checked_sub(1)
}

/// One decrease search anchored at `r` starting at `start` (Algorithm 3's
/// `Search-and-Repair`): explores paths `r → start → …` whose first edge is
/// the updated edge with weight `phi`. The validity interval is cut to
/// `[0, limit)` (see module docs); an empty one skips the search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_and_repair_dec(
    hier: &Hierarchy,
    labels: &mut LabelsWriter<'_>,
    g: &CsrGraph,
    r: VertexId,
    start: VertexId,
    phi: Dist,
    limit: u32,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    let Some(amin) = top_index(hier, r, start, limit) else {
        return;
    };
    stats.searches += 1;
    // Snapshot the anchor's comparable label prefix: its entries cannot
    // change during this search (a positive-length cycle cannot shorten the
    // anchor's own distances), and a snapshot avoids re-indexing the arena.
    labels.read_range(r, 0, amin, &mut eng.snap);
    eng.level.reset();
    eng.pheap.clear();
    eng.pheap.push(ParetoItem { d: phi, hi: amin, lo: 0, v: start });
    while let Some(item) = eng.pheap.pop() {
        stats.pops += 1;
        let v = item.v;
        let hi = item.hi.min(hier.tau(v));
        let lo = item.lo.max(eng.level.get(v as usize));
        if lo > hi {
            continue; // dominated (Pareto-pruned) or out of range
        }
        eng.level.set(v as usize, hi + 1);
        // Update labels over the active interval; record the improved span.
        let mut new_lo = u32::MAX;
        let mut new_hi = 0u32;
        labels.read_range(v, lo, hi, &mut eng.row);
        for (i, &lv) in (lo..=hi).zip(&eng.row) {
            let sr = eng.snap[i as usize];
            if sr == INF {
                continue;
            }
            let cand = dist_add(item.d, sr);
            if cand < lv {
                labels.set(v, i, cand);
                stats.label_writes += 1;
                if new_lo == u32::MAX {
                    new_lo = i;
                }
                new_hi = i;
            }
        }
        if new_lo == u32::MAX {
            continue; // no improvement -> no further propagation (triangle)
        }
        let (ts, ws) = g.neighbor_slices(v);
        for (&n, &w) in ts.iter().zip(ws) {
            if w == INF || hier.tau(n) < new_lo {
                continue; // the item would clamp itself to death anyway
            }
            eng.pheap.push(ParetoItem { d: dist_add(item.d, w), hi: new_hi, lo: new_lo, v: n });
        }
    }
}

/// Bump the collected pairs `eng.pairs` by `delta` (upper bounds, Alg. 4
/// line 18) and make them the engine's per-vertex affected intervals, the
/// input of [`repair_inc`].
pub(crate) fn bump_pairs(
    labels: &mut LabelsWriter<'_>,
    delta: Dist,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    eng.aff_lo.reset();
    eng.aff_hi.reset();
    eng.aff_list.clear();
    for &(v, i) in &eng.pairs {
        let cur = labels.get(v, i);
        if cur != INF {
            labels.set(v, i, cur.saturating_add(delta));
            stats.label_writes += 1;
        }
        if !eng.aff_lo.is_set(v as usize) {
            eng.aff_list.push(v);
            eng.aff_lo.set(v as usize, i);
            eng.aff_hi.set(v as usize, i);
        } else {
            if i < eng.aff_lo.get(v as usize) {
                eng.aff_lo.set(v as usize, i);
            }
            if i > eng.aff_hi.get(v as usize) {
                eng.aff_hi.set(v as usize, i);
            }
        }
    }
}

/// One increase search (Algorithm 4's `Search`): walks the old
/// shortest-path DAG through the updated edge, collecting affected pairs.
/// Must run before the update's weight is applied; the validity interval
/// is cut to `[0, limit)` as in [`search_and_repair_dec`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_inc(
    hier: &Hierarchy,
    labels: &LabelsWriter<'_>,
    g: &CsrGraph,
    r: VertexId,
    start: VertexId,
    phi_old: Dist,
    limit: u32,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    let Some(amin) = top_index(hier, r, start, limit) else {
        return;
    };
    stats.searches += 1;
    labels.read_range(r, 0, amin, &mut eng.snap);
    eng.level.reset();
    eng.pheap.clear();
    eng.pheap.push(ParetoItem { d: phi_old, hi: amin, lo: 0, v: start });
    while let Some(item) = eng.pheap.pop() {
        stats.pops += 1;
        let v = item.v;
        let hi = item.hi.min(hier.tau(v));
        let lo = item.lo.max(eng.level.get(v as usize));
        if lo > hi {
            continue;
        }
        eng.level.set(v as usize, hi + 1);
        let mut new_lo = u32::MAX;
        let mut new_hi = 0u32;
        let tv = hier.tau(v);
        labels.read_range(v, lo, hi, &mut eng.row);
        for (i, &lv) in (lo..=hi).zip(&eng.row) {
            // A vertex's entry to *itself* is always 0 and can never be
            // affected: with zero-weight edges the search can otherwise
            // close a zero-length cycle back to the ancestor and satisfy
            // the equality test spuriously, corrupting the repair anchor.
            if i == tv {
                continue;
            }
            let sr = eng.snap[i as usize];
            if sr == INF || lv == INF {
                continue;
            }
            let cand = dist_add(item.d, sr);
            debug_assert!(cand >= lv, "label below a realizable old path length");
            if cand == lv {
                eng.pairs.push((v, i));
                if new_lo == u32::MAX {
                    new_lo = i;
                }
                new_hi = i;
            }
        }
        if new_lo == u32::MAX {
            continue; // not on any old shortest path for these indices
        }
        let (ts, ws) = g.neighbor_slices(v);
        for (&n, &w) in ts.iter().zip(ws) {
            if w == INF || hier.tau(n) < new_lo {
                continue;
            }
            eng.pheap.push(ParetoItem { d: dist_add(item.d, w), hi: new_hi, lo: new_lo, v: n });
        }
    }
}

/// Algorithm 5 on label blocks: repair the affected intervals held in the
/// engine (`aff_list`/`aff_lo`/`aff_hi`) with one label-correcting search
/// whose items are `(v, k)`, block `k` of affected vertex `v` — the 16
/// entries `16k .. 16k+16`, the blocks of the label layout.
///
/// * **Seeding** (Alg. 5 lines 2–6): each affected vertex takes, per entry
///   of its interval, the minimum over every neighbour `n` of
///   `L(n)[i] + w` for `i ≤ τ(n)` (`τ(n) = i` means `n` *is* the ancestor
///   `r_i`, whose own entry is 0), writes the entries that improve, and
///   queues each block that improved, keyed by its largest improved value.
/// * **A scan** (lines 7–12): a popped block whose key is stale is
///   skipped. Otherwise `v`'s block row (entries up to `τ(v)`) is read as
///   it is now and relaxed into every affected neighbour's entries of the
///   same block inside that neighbour's interval; a neighbour block that
///   improves is queued again if its key drops.
///
/// The result is exact. Every value written is the length of a real path
/// inside `G[Desc(r_i)]`, so entries only decrease and never undershoot;
/// the entries outside the intervals are exact already (the searches
/// collect the affected pairs exactly). A block is queued whenever one of
/// its entries improves and is scanned with its row as it is at the pop,
/// so when the heap drains every affected entry is at most each
/// neighbour's entry plus the edge weight, and along a shortest path in
/// `G[Desc(r_i)]` from `r_i` this bound reaches every affected entry: the
/// fixpoint is the labels Algorithm 5 produces. Index-locality still
/// holds — block `k` of `v` reads and writes only block `k` of its
/// neighbours — so one pass repairs every interval of the update.
pub(crate) fn repair_inc(
    hier: &Hierarchy,
    labels: &mut LabelsWriter<'_>,
    g: &CsrGraph,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    const B: u32 = BLOCK as u32;
    let UpdateEngine { aff_lo, aff_hi, aff_list, row, nb_row, best, bheap, slot, pending, .. } =
        eng;
    pending.clear();
    for &v in aff_list.iter() {
        slot[v as usize] = pending.len() as u32;
        let blocks = aff_hi.get(v as usize) / B - aff_lo.get(v as usize) / B + 1;
        pending.resize(pending.len() + blocks as usize, INF);
    }
    bheap.clear();
    for &v in aff_list.iter() {
        let (lo, hi) = (aff_lo.get(v as usize), aff_hi.get(v as usize));
        labels.read_range(v, lo, hi, row);
        best.clone_from(row);
        let (ts, ws) = g.neighbor_slices(v);
        for (&n, &w) in ts.iter().zip(ws) {
            let cap = hi.min(hier.tau(n));
            if w == INF || cap < lo {
                continue;
            }
            labels.read_range(n, lo, cap, nb_row);
            for (b, &x) in best.iter_mut().zip(nb_row.iter()) {
                *b = (*b).min(dist_add(x, w));
            }
        }
        for k in lo / B..=hi / B {
            let mut key = None;
            for i in lo.max(k * B)..=hi.min(k * B + B - 1) {
                let j = (i - lo) as usize;
                if best[j] < row[j] {
                    labels.set(v, i, best[j]);
                    stats.label_writes += 1;
                    key = key.max(Some(best[j]));
                }
            }
            if let Some(key) = key {
                pending[(slot[v as usize] + k - lo / B) as usize] = key;
                bheap.push(Reverse((key, v, k)));
            }
        }
    }
    while let Some(Reverse((key, v, k))) = bheap.pop() {
        let at = (slot[v as usize] + k - aff_lo.get(v as usize) / B) as usize;
        if pending[at] != key {
            continue; // stale: the block was queued again with a lower key
        }
        pending[at] = INF;
        stats.repair_pops += 1;
        let first = k * B;
        labels.read_range(v, first, (first + B - 1).min(hier.tau(v)), row);
        let last = first + row.len() as u32 - 1;
        let (ts, ws) = g.neighbor_slices(v);
        for (&n, &w) in ts.iter().zip(ws) {
            // Only affected entries can still be wrong (line 10).
            if w == INF || !aff_lo.is_set(n as usize) {
                continue;
            }
            let (n_lo, n_hi) = (aff_lo.get(n as usize), aff_hi.get(n as usize));
            let (a, z) = (n_lo.max(first), n_hi.min(last));
            if a > z {
                continue;
            }
            labels.read_range(n, a, z, nb_row);
            let mut key = None;
            for (i, &cur) in (a..=z).zip(nb_row.iter()) {
                let cand = dist_add(row[(i - first) as usize], w);
                if cand < cur {
                    labels.set(n, i, cand);
                    stats.label_writes += 1;
                    key = key.max(Some(cand));
                }
            }
            if let Some(key) = key {
                let at = (slot[n as usize] + k - n_lo / B) as usize;
                if key < pending[at] {
                    pending[at] = key;
                    bheap.push(Reverse((key, n, k)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use stl_graph::builder::from_edges;
    use stl_graph::{CsrGraph, EdgeUpdate, VertexId, INF};

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
                    edges.push((idx(x, y), idx(x + 1, y), 2 + ((x * 3 + y * 7) % 13)));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 2 + ((x * 11 + y * 5) % 13)));
                }
            }
        }
        from_edges((side * side) as usize, edges)
    }

    /// Apply `batch` with Pareto Search; the labels must equal a rebuild.
    fn apply(
        stl: &mut Stl,
        g: &mut CsrGraph,
        batch: &[EdgeUpdate],
        eng: &mut UpdateEngine,
    ) -> UpdateStats {
        let stats = stl.apply_batch(g, batch, Maintenance::ParetoSearch, eng);
        verify::check_matches_rebuild(stl, g).unwrap();
        stats
    }

    #[test]
    fn pareto_decrease_single_update() {
        let mut g = grid(6);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().nth(20).unwrap();
        let stats = apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, (w / 3).max(1))], &mut eng);
        assert_eq!(stats.searches, 2, "exactly two searches per update, one per endpoint");
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn pareto_increase_single_update() {
        let mut g = grid(6);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().nth(33).unwrap();
        apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, w * 4)], &mut eng);
        verify::check_all(&stl, &g).unwrap();
    }

    /// An engine sized for 4 vertices grows to the 36-vertex grid and
    /// repairs an increase exactly.
    #[test]
    fn undersized_engine_repairs_an_increase() {
        let mut g = grid(6);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(4);
        let (a, b, w) = g.edges().nth(33).unwrap();
        let stats = apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, w * 4)], &mut eng);
        assert!(stats.repair_pops > 0, "the increase must need a repair");
    }

    #[test]
    fn increase_then_restore_is_identity() {
        let mut g = grid(5);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let reference = stl.clone();
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().nth(8).unwrap();
        apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, w * 2)], &mut eng);
        apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, w)], &mut eng);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(
                stl.labels().slice(v),
                reference.labels().slice(v),
                "restore must reproduce original labels at {v}"
            );
        }
    }

    #[test]
    fn pareto_increase_to_inf_deletion() {
        let mut g = grid(4);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, _) = g.edges().nth(5).unwrap();
        apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, INF)], &mut eng);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn randomized_update_stress_pareto() {
        let mut g = grid(5);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut eng = UpdateEngine::new(g.num_vertices());
        let edges: Vec<_> = g.edges().collect();
        let mut state = 1234u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..30 {
            let (a, b, _) = edges[next(edges.len() as u64) as usize];
            let target = (next(25) + 1) as u32;
            apply(&mut stl, &mut g, &[EdgeUpdate::new(a, b, target)], &mut eng);
        }
        verify::check_all(&stl, &g).unwrap();
    }
}
