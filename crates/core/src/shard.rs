//! The batch repair driver.
//!
//! [`Stl::apply_batch`] is the one path by which labels are maintained. It
//! normalises a mixed batch (last update per edge wins, no-ops dropped,
//! survivors kept in batch order) and then repairs the labels one update at
//! a time with the selected family — Label Search (Algorithms 1–2,
//! `label_search`) or Pareto Search (Algorithms 3–5, `pareto`). A batch is
//! exactly its normalised updates applied one by one, in order.
//!
//! Each update is repaired in **one pass**, inline on the caller's thread
//! and one [`UpdateEngine`]: Label Search runs one search per affected
//! ancestor of the edge's lower endpoint, Pareto Search two searches, one
//! from each endpoint. A decrease applies its weight, then searches; an
//! increase identifies its affected entries on the old weight, applies the
//! weight, then repairs them. All updates write through one `LabelsWriter`
//! phase per batch, which resolves each arena chunk on first touch
//! (`stl_graph::cow`).
//!
//! A batch shares no work between its updates. The paper's batch forms
//! (seed queues shared across a batch, Δ-bumps summed before one repair)
//! saved 0.45 % of Pareto pops at 16k vertices and ran 1.14–1.17× slower
//! than the same updates applied singly.
//!
//! There is no thread pool. Two threads against one on 16-edge scattered
//! and hotspot batches, unpinned on two vCPUs, measured 0.93–1.07× at 16k
//! vertices and 0.99–1.05× at 64k (total apply time per stream): the
//! busiest tree is nearly the whole batch, so a fan-out bought nothing and
//! its thread spawns cost ~0.1 ms per single-edge batch.
//!
//! **Ownership is one ancestor-index bound.** A Label Search search for
//! ancestor `r` reads and writes only the entries `(v, τ(r))` with
//! `v ∈ Desc(r)`, and a Pareto search writes index `i` only inside
//! `Desc(r_i)` for the common `i`-th ancestor `r_i` of both endpoints. The
//! root path of the edge's lower endpoint crosses the spine (the cut
//! vertices above `SHARD_DEPTH`) and then descends into one stable tree, the
//! update's owning tree ([`Hierarchy::tree_of_edge`]). That splits its
//! ancestor indices at `k = shard_anc_start(tree)`: `[0, k)` index spine
//! entries, `[k, τ]` the tree's own. Both families take an exclusive index
//! `limit` and repair only entries below it. A shard worker that does not
//! own an update's tree repairs it with `limit = k`: its spine entries come
//! out byte-identical to an unfiltered apply, and the tree's go stale.
//! Every other update runs with `limit = u32::MAX`.
//!
//! The tree counters (`UpdateStats::{trees_touched, trees_skipped}`) and
//! the [`ShardReport`] count owning trees. A search reaches beyond its
//! owning tree only from a spine ancestor, so the trees that own none of a
//! batch's updates are mostly left alone by the searches' own locality.
//!
//! **The oracle.** Labels are canonical: `L(v)[τ(r)]` is the distance from
//! `r` inside `G[Desc(r)]`, fixed by the graph and the weight-independent
//! hierarchy. Whatever the family, the arena after a batch must equal what
//! [`Stl::build_with_hierarchy`] builds on the updated graph;
//! [`verify::check_matches_rebuild`](crate::verify::check_matches_rebuild)
//! is the check the tests run after their batches.

use std::time::Instant;

use stl_graph::hash::FxHashMap;
use stl_graph::{CsrGraph, EdgeUpdate, VertexId, Weight};

use crate::engine::{EnginePool, UpdateEngine};
use crate::hierarchy::{Hierarchy, SPINE_SHARD};
use crate::label_search;
use crate::labelling::{LabelsWriter, Stl};
use crate::pareto;
use crate::types::{Maintenance, UpdateStats};

/// Per-tree accounting of one batch application: each normalised update's
/// wall time lands on its owning tree ([`Hierarchy::tree_of_edge`]).
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Repair shards in the hierarchy (including the spine slot, whether or
    /// not it owns cut vertices).
    pub shards_total: u32,
    /// Distinct owning trees of the batch's normalised updates.
    pub shards_touched: u32,
    /// `(shard id, nanoseconds)` summed over the updates each tree owns, in
    /// shard id order, touched shards only. The spread between entries is
    /// the load imbalance a hotspot batch inflicts.
    pub per_shard_ns: Vec<(u32, u64)>,
}

impl ShardReport {
    /// Wall time of the busiest tree — what a per-tree fan-out could at
    /// best have cut the repair to.
    pub fn max_ns(&self) -> u64 {
        self.per_shard_ns.iter().map(|&(_, ns)| ns).max().unwrap_or(0)
    }

    /// The repair's wall time: every update's, one after another.
    pub fn sum_ns(&self) -> u64 {
        self.per_shard_ns.iter().map(|&(_, ns)| ns).sum()
    }
}

/// A set of subtree shards a repair pass is responsible for — the
/// ownership unit of process-sharded serving.
///
/// A worker that applies a batch under a `ShardSet` still applies **every
/// weight change**. It repairs an update in full when the set owns the
/// update's tree, and otherwise only below the tree's first ancestor index
/// (see the [module docs](crate::shard)). Because label entries are
/// column-confined — the spine owns the ancestor prefix `[0, k)` of every
/// vertex, a subtree the range `[k, τ]` of its own vertices — the entries a
/// filtered pass repairs come out byte-identical to an unfiltered apply,
/// while entries of unowned subtrees simply go stale. The spine is never a
/// member: it is replicated to (and repaired by) every worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSet {
    bits: Vec<u64>,
    len: usize,
}

impl ShardSet {
    /// An empty set sized for `num_shards` repair shards.
    pub fn empty(num_shards: u32) -> Self {
        Self { bits: vec![0; (num_shards as usize).div_ceil(64)], len: 0 }
    }

    /// Insert a subtree shard. The spine ([`SPINE_SHARD`]) is rejected —
    /// it is implicitly owned by everyone.
    pub fn insert(&mut self, shard: u32) {
        assert_ne!(shard, SPINE_SHARD, "the spine is replicated, not owned");
        let (w, b) = (shard as usize / 64, shard as usize % 64);
        assert!(w < self.bits.len(), "shard {shard} out of range");
        if self.bits[w] & (1 << b) == 0 {
            self.bits[w] |= 1 << b;
            self.len += 1;
        }
    }

    /// Whether `shard` is a member. [`SPINE_SHARD`] and out-of-range ids
    /// answer `false`.
    pub fn contains(&self, shard: u32) -> bool {
        let (w, b) = (shard as usize / 64, shard as usize % 64);
        w < self.bits.len() && self.bits[w] & (1 << b) != 0
    }

    /// Number of subtree shards in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set owns no subtree shards.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The canonical modular assignment of `hier`'s subtree shards to
    /// `num_workers` workers: worker `k` owns every subtree shard `s`
    /// (excluding the spine) with `(s - 1) % num_workers == k`. Router and
    /// workers derive their routing/ownership from this one function, so
    /// they agree by construction.
    pub fn for_worker(hier: &Hierarchy, worker: usize, num_workers: usize) -> Self {
        assert!(num_workers >= 1 && worker < num_workers, "worker index out of range");
        let num_shards = hier.num_shards();
        let mut set = Self::empty(num_shards);
        for s in (SPINE_SHARD + 1)..num_shards {
            if (s as usize - 1) % num_workers == worker {
                set.insert(s);
            }
        }
        set
    }

    /// The worker index [`ShardSet::for_worker`] assigns `shard` to, or
    /// `None` for the spine (owned by every worker).
    pub fn owner_of(shard: u32, num_workers: usize) -> Option<usize> {
        if shard == SPINE_SHARD {
            None
        } else {
            Some((shard as usize - 1) % num_workers)
        }
    }
}

impl Stl {
    /// Apply a mixed batch of edge-weight updates with the given algorithm
    /// family, keeping graph and labels consistent. The batch is normalised
    /// and each surviving update is repaired on its own, in one pass, inline
    /// on the calling thread (see the [module docs](crate::shard)).
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
        eng.ensure_capacity(g.num_vertices());
        self.apply_loop(g, updates, algo, eng, None).0
    }

    /// [`Stl::apply_batch`] on `pool`'s engine, also returning the batch's
    /// per-tree timings.
    ///
    /// `_threads` is ignored. It stays only so the frozen benchmark harness
    /// keeps compiling — delete with the next `[benchmark]` issue.
    pub fn apply_batch_sharded(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        _threads: usize,
    ) -> (UpdateStats, ShardReport) {
        self.apply_batch_sharded_owned(g, updates, algo, pool, None)
    }

    /// [`Stl::apply_batch_sharded`] restricted to an ownership set: every
    /// weight change is applied (keeping the graph replica exact), but an
    /// update whose tree `owned` excludes is repaired only below the tree's
    /// first ancestor index. Label entries owned by the spine or by an owned
    /// subtree come out byte-identical to an unfiltered apply; entries of
    /// unowned subtrees are left stale — the caller (a shard worker) must
    /// never serve them. `owned = None` repairs every update in full.
    pub fn apply_batch_sharded_owned(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        owned: Option<&ShardSet>,
    ) -> (UpdateStats, ShardReport) {
        let eng = pool.engine(g.num_vertices());
        self.apply_loop(g, updates, algo, eng, owned)
    }

    /// The batch driver: normalise, then repair each update in one pass
    /// over one label-writer phase.
    fn apply_loop(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        eng: &mut UpdateEngine,
        owned: Option<&ShardSet>,
    ) -> (UpdateStats, ShardReport) {
        let updates = normalise_batch(updates, false, |a, b| g.weight(a, b));
        let Stl { ref hier, ref mut labels, .. } = *self;
        let mut tally = Tally::new(hier, updates.len());
        let mut labels = labels.phase_writer();
        for &u in &updates {
            let tree = hier.tree_of_edge(u.a, u.b);
            let limit = match owned {
                Some(set) if tree != SPINE_SHARD && !set.contains(tree) => {
                    hier.shard_anc_start(tree)
                }
                _ => u32::MAX,
            };
            tally.update(tree, |stats| repair(hier, &mut labels, g, u, algo, limit, eng, stats));
        }
        tally.finish()
    }
}

/// Repair the labels below ancestor index `limit` for normalised update
/// `u`, applying its weight to `g` on the way.
#[allow(clippy::too_many_arguments)]
fn repair(
    hier: &Hierarchy,
    labels: &mut LabelsWriter<'_>,
    g: &mut CsrGraph,
    u: EdgeUpdate,
    algo: Maintenance,
    limit: u32,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    const NORMALISED: &str = "normalised updates target existing edges";
    let pairs = label_search::edge_pairs(hier, u);
    let w_old = g.weight(u.a, u.b).expect(NORMALISED);
    if u.new_weight < w_old {
        // A decrease: apply the weight, then search.
        g.apply_update(u).expect(NORMALISED);
        let w = u.new_weight;
        match algo {
            Maintenance::LabelSearch => {
                label_search::seed_decrease(hier, labels, &pairs, w, limit, eng);
                label_search::run_decrease_searches(hier, labels, g, eng, stats);
            }
            Maintenance::ParetoSearch => {
                pareto::search_and_repair_dec(hier, labels, g, u.a, u.b, w, limit, eng, stats);
                pareto::search_and_repair_dec(hier, labels, g, u.b, u.a, w, limit, eng, stats);
            }
        }
        return;
    }
    // An increase: identify the affected entries on the old weight, apply
    // the weight, then repair them.
    match algo {
        Maintenance::LabelSearch => {
            eng.aff_per_r.clear();
            label_search::seed_increase(hier, labels, &pairs, w_old, limit, eng);
            label_search::collect_affected(hier, labels, g, eng, stats);
        }
        Maintenance::ParetoSearch => {
            eng.pairs.clear();
            pareto::search_inc(hier, labels, g, u.a, u.b, w_old, limit, eng, stats);
            pareto::search_inc(hier, labels, g, u.b, u.a, w_old, limit, eng, stats);
            eng.pairs.sort_unstable();
            eng.pairs.dedup();
            stats.affected += eng.pairs.len() as u64;
        }
    }
    g.apply_update(u).expect(NORMALISED);
    match algo {
        Maintenance::LabelSearch => {
            let all = 0..eng.aff_per_r.len();
            label_search::run_repairs(hier, labels, g, g, all, eng, stats);
        }
        Maintenance::ParetoSearch => {
            pareto::bump_pairs(labels, u.new_weight - w_old, eng, stats);
            pareto::repair_inc(hier, labels, g, eng, stats);
        }
    }
}

/// What one batch yields: the counters in update order and each owning
/// tree's wall time.
struct Tally {
    stats: UpdateStats,
    /// Trees an update can own: a spine slot that owns no cut vertices owns
    /// no edge.
    reachable: u64,
    /// Per shard id, the summed wall time of the updates it owns; `None`
    /// while it owns none.
    tree_ns: Vec<Option<u64>>,
}

impl Tally {
    /// The batch-level counters of `updates` normalised updates.
    fn new(hier: &Hierarchy, updates: usize) -> Self {
        let num_shards = hier.num_shards() as usize;
        Self {
            stats: UpdateStats { updates: updates as u64, ..Default::default() },
            reachable: num_shards as u64 - u64::from(!hier.spine_has_cuts()),
            tree_ns: vec![None; num_shards],
        }
    }

    /// Run the repair `f` of one update owned by `tree` on the batch
    /// counters, adding its wall time to the tree's.
    fn update(&mut self, tree: u32, f: impl FnOnce(&mut UpdateStats)) {
        let t = Instant::now();
        f(&mut self.stats);
        *self.tree_ns[tree as usize].get_or_insert(0) += t.elapsed().as_nanos() as u64;
    }

    /// The counters and the owning trees' timings as a [`ShardReport`].
    fn finish(mut self) -> (UpdateStats, ShardReport) {
        let per_shard_ns: Vec<(u32, u64)> =
            (0..).zip(&self.tree_ns).filter_map(|(s, ns)| Some((s, (*ns)?))).collect();
        self.stats.trees_touched = per_shard_ns.len() as u64;
        self.stats.trees_skipped = self.reachable - self.stats.trees_touched;
        let report = ShardReport {
            shards_total: self.tree_ns.len() as u32,
            shards_touched: per_shard_ns.len() as u32,
            per_shard_ns,
        };
        (self.stats, report)
    }
}

/// Batch normalisation, shared with `DirectedStl::apply_batch`: the last
/// update per edge wins, and the survivors that change their edge's current
/// weight (`weight_of`) are returned in the batch order of those last
/// updates. Every edge is checked before the caller applies anything, so a
/// batch naming a missing edge panics with nothing applied.
///
/// `directed` selects the dedup key: ordered arcs `(a, b)` for directed
/// graphs, unordered `{a, b}` (canonicalised `min ≤ max`) for undirected
/// ones. Keying undirected edges on the ordered pair would make
/// `(a,b,w1), (b,a,w2)` both survive and race on one physical edge; keying
/// directed arcs unordered would collapse two independent arcs — each
/// representation gets exactly its own key.
pub(crate) fn normalise_batch(
    updates: &[EdgeUpdate],
    directed: bool,
    weight_of: impl Fn(VertexId, VertexId) -> Option<Weight>,
) -> Vec<EdgeUpdate> {
    let key = |u: &EdgeUpdate| if directed || u.a < u.b { (u.a, u.b) } else { (u.b, u.a) };
    let mut last: FxHashMap<(VertexId, VertexId), usize> = FxHashMap::default();
    for (i, u) in updates.iter().enumerate() {
        last.insert(key(u), i);
    }
    let mut out = Vec::with_capacity(last.len());
    for (i, &u) in updates.iter().enumerate() {
        if last[&key(&u)] != i {
            continue;
        }
        let cur = weight_of(u.a, u.b).unwrap_or_else(|| {
            panic!(
                "update targets missing {} ({}, {})",
                if directed { "arc" } else { "edge" },
                u.a,
                u.b
            )
        });
        if u.new_weight != cur {
            out.push(u);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StlConfig;
    use crate::verify;
    use stl_graph::builder::from_edges;
    use stl_graph::VertexId;

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

    fn mixed_batches(g: &CsrGraph, rounds: usize, seed: u64) -> Vec<Vec<EdgeUpdate>> {
        let edges: Vec<_> = g.edges().collect();
        let mut state = seed;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        (0..rounds)
            .map(|_| {
                (0..6)
                    .map(|_| {
                        let (a, b, _) = edges[next(edges.len() as u64) as usize];
                        EdgeUpdate::new(a, b, (next(24) + 1) as u32)
                    })
                    .collect()
            })
            .collect()
    }

    /// Replay mixed batches through one family: after every batch the
    /// report matches the counters and the labels equal a rebuild.
    fn batches_match_rebuild(algo: Maintenance, seed: u64) {
        let g0 = grid(7);
        let mut g = g0.clone();
        let mut stl = Stl::build(&g0, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut pool = EnginePool::new();
        for (round, batch) in mixed_batches(&g0, 12, seed).iter().enumerate() {
            let (stats, report) =
                stl.apply_batch_sharded_owned(&mut g, batch, algo, &mut pool, None);
            assert!(stats.trees_touched > 0 || stats.updates == 0, "{algo:?} round={round}");
            assert_eq!(report.shards_touched as u64, stats.trees_touched);
            assert!(report.shards_touched <= report.shards_total);
            assert_eq!(
                report.per_shard_ns.len() as u32,
                report.shards_touched,
                "one timing entry per touched shard"
            );
            verify::check_matches_rebuild(&stl, &g)
                .unwrap_or_else(|e| panic!("{algo:?} round={round}: {e}"));
        }
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn label_search_batches_match_rebuild() {
        batches_match_rebuild(Maintenance::LabelSearch, 0xBEEF);
    }

    #[test]
    fn pareto_batches_match_rebuild() {
        batches_match_rebuild(Maintenance::ParetoSearch, 0xFEED);
    }

    #[test]
    fn duplicate_edge_updates_last_wins() {
        let mut g = grid(5);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, _) = g.edges().next().unwrap();
        let batch =
            vec![EdgeUpdate::new(a, b, 100), EdgeUpdate::new(b, a, 7), EdgeUpdate::new(a, b, 9)];
        let stats = stl.apply_batch(&mut g, &batch, Maintenance::ParetoSearch, &mut eng);
        assert_eq!(stats.updates, 1);
        assert_eq!(g.weight(a, b), Some(9));
        verify::check_all(&stl, &g).unwrap();
    }

    /// A batch is its normalised updates applied one at a time, in order:
    /// the same graph, the same arena entry for entry, and effort counters
    /// that are the singles' sums — the batch shares no work.
    #[test]
    fn batch_equals_its_updates_applied_singly() {
        let g0 = grid(7);
        let stl0 = Stl::build(&g0, &StlConfig { leaf_size: 2, ..Default::default() });
        let effort =
            |s: UpdateStats| [s.searches, s.pops, s.repair_pops, s.label_writes, s.affected];
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            let (mut g, mut stl) = (g0.clone(), stl0.clone());
            let (mut g1, mut stl1) = (g0.clone(), stl0.clone());
            let mut eng = UpdateEngine::new(g0.num_vertices());
            for (round, batch) in mixed_batches(&g0, 12, 0x5EED).iter().enumerate() {
                let batched = stl.apply_batch(&mut g, batch, algo, &mut eng);
                let mut singles = UpdateStats::default();
                for u in normalise_batch(batch, false, |a, b| g1.weight(a, b)) {
                    singles += stl1.apply_batch(&mut g1, &[u], algo, &mut eng);
                }
                assert_eq!(batched.updates, singles.updates, "{algo:?} round={round}");
                assert_eq!(effort(batched), effort(singles), "{algo:?} round={round}");
                assert!(g.edges().eq(g1.edges()), "{algo:?} round={round}: graphs differ");
                for v in 0..g0.num_vertices() as VertexId {
                    let (want, got) = (stl1.labels().slice(v), stl.labels().slice(v));
                    assert_eq!(got, want, "{algo:?} round={round}: label of {v}");
                }
            }
        }
    }

    /// Every edge is checked before any weight changes: a batch naming a
    /// missing edge panics with nothing applied, even after a valid update.
    #[test]
    fn missing_edge_panics_before_any_weight_changes() {
        let mut g = grid(4);
        let mut stl = Stl::build(&g, &StlConfig::default());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().next().unwrap();
        let batch = [EdgeUpdate::new(a, b, w + 5), EdgeUpdate::new(0, 7, 3)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stl.apply_batch(&mut g, &batch, Maintenance::LabelSearch, &mut eng)
        }))
        .expect_err("a missing edge must panic");
        assert!(err.downcast_ref::<String>().unwrap().contains("missing edge"));
        assert_eq!(g.weight(a, b), Some(w), "no weight may change");
    }

    #[test]
    fn single_edge_batch_skips_untouched_trees() {
        let g0 = grid(8);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let (a, b, w) = g0.edges().next().unwrap();
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            let mut g = g0.clone();
            let mut stl = Stl::build(&g0, &cfg);
            let mut eng = UpdateEngine::new(g.num_vertices());
            let hier = stl.hierarchy().clone();
            assert!(hier.num_shards() > 2, "grid must split into several trees");
            let stats = stl.apply_batch(&mut g, &[EdgeUpdate::new(a, b, w * 3)], algo, &mut eng);
            assert_eq!(stats.trees_touched, 1, "{algo:?}: one update has one owning tree");
            assert!(stats.trees_skipped > 0, "{algo:?}: the other trees must be skipped");
            assert_eq!(
                stats.trees_touched + stats.trees_skipped + u64::from(!hier.spine_has_cuts()),
                hier.num_shards() as u64
            );
            verify::check_all(&stl, &g).unwrap();
        }
    }

    /// The process-sharding contract: a replica that applies every weight
    /// change but repairs an unowned tree's updates only below the tree's
    /// first ancestor index keeps every spine-owned entry and every
    /// owned-subtree entry byte-identical to a full apply, for both
    /// maintenance families. A worker that owns every tree is a full apply,
    /// effort counters included.
    #[test]
    fn owned_filtered_apply_matches_full_on_owned_entries() {
        let g0 = grid(7);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let effort =
            |s: UpdateStats| [s.searches, s.pops, s.repair_pops, s.label_writes, s.affected];
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            let full0 = Stl::build(&g0, &cfg);
            let mut sets: Vec<ShardSet> =
                (0..2).map(|k| ShardSet::for_worker(full0.hierarchy(), k, 2)).collect();
            assert!(sets.iter().all(|s| !s.is_empty()), "grid must split across both workers");
            let sole = sets.len();
            sets.push(ShardSet::for_worker(full0.hierarchy(), 0, 1));
            let mut g_full = g0.clone();
            let mut full = full0.clone();
            let mut g_rep = vec![g0.clone(); sets.len()];
            let mut replicas = vec![full0.clone(); sets.len()];
            let mut pool = EnginePool::new();
            for batch in &mixed_batches(&g0, 8, 0xACE ^ algo as u64) {
                let (want, _) =
                    full.apply_batch_sharded_owned(&mut g_full, batch, algo, &mut pool, None);
                for (k, set) in sets.iter().enumerate() {
                    let (got, _) = replicas[k].apply_batch_sharded_owned(
                        &mut g_rep[k],
                        batch,
                        algo,
                        &mut pool,
                        Some(set),
                    );
                    if k == sole {
                        assert_eq!(effort(got), effort(want), "{algo:?}: sole worker's effort");
                    }
                }
            }
            let hier = full.hierarchy();
            for (k, set) in sets.iter().enumerate() {
                for (a, b, w) in g_full.edges() {
                    assert_eq!(g_rep[k].weight(a, b), Some(w), "graph replicas must stay exact");
                }
                for v in 0..g0.num_vertices() as VertexId {
                    let want = full.labels().slice(v);
                    let got = replicas[k].labels().slice(v);
                    assert_eq!(want.len(), got.len());
                    for i in 0..want.len() as u32 {
                        let owner = hier.shard_of_entry(v, i);
                        if owner == SPINE_SHARD || set.contains(owner) {
                            assert_eq!(
                                got[i as usize], want[i as usize],
                                "algo {algo:?} worker set {k}: owned entry ({v},{i}) diverged"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_set_modular_assignment_partitions_subtrees() {
        let g = grid(8);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let hier = stl.hierarchy();
        let n = 3usize;
        let sets: Vec<ShardSet> = (0..n).map(|k| ShardSet::for_worker(hier, k, n)).collect();
        let mut total = 0usize;
        for s in (SPINE_SHARD + 1)..hier.num_shards() {
            let owners: Vec<usize> = (0..n).filter(|&k| sets[k].contains(s)).collect();
            assert_eq!(owners.len(), 1, "shard {s} must have exactly one owner");
            assert_eq!(Some(owners[0]), ShardSet::owner_of(s, n));
            total += 1;
        }
        assert_eq!(total, hier.num_shards() as usize - 1);
        assert_eq!(ShardSet::owner_of(SPINE_SHARD, n), None);
        assert!(!sets[0].contains(SPINE_SHARD));
    }

    /// Under a pinned snapshot, the chunks a batch counts as copied are
    /// exactly the chunks it no longer shares with the snapshot, and the
    /// snapshot keeps its bytes.
    #[test]
    fn copied_chunks_are_the_chunks_unshared_with_a_pinned_snapshot() {
        let g0 = grid(24);
        let batch = &mixed_batches(&g0, 1, 13)[0];
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            let mut g = g0.clone();
            let mut stl = Stl::build(&g0, &StlConfig::default());
            assert!(stl.num_chunks() > 1, "want several chunks");
            let pin = stl.clone();
            let before = pin.deep_clone();
            stl.apply_batch(&mut g, batch, algo, &mut UpdateEngine::new(g0.num_vertices()));
            let cow = stl.take_cow_stats();
            assert!(cow.bytes_copied > 0, "{algo:?}: the batch wrote labels");
            assert_eq!(
                cow.chunks_copied as usize,
                stl.num_chunks() - stl.labels().shared_chunks_with(pin.labels()),
                "{algo:?}"
            );
            for v in 0..g0.num_vertices() as VertexId {
                assert_eq!(pin.labels().slice(v), before.labels().slice(v), "{algo:?}");
            }
        }
    }

    /// A batch with no work opens no chunk: on an index whose every chunk a
    /// held snapshot shares, an empty batch and an all-equal-weight batch
    /// run no search, copy nothing, unshare nothing, and keep a born-flat
    /// index flat.
    #[test]
    fn no_work_batches_touch_no_chunk() {
        let g0 = grid(8);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let same: Vec<EdgeUpdate> =
            g0.edges().step_by(5).map(|(a, b, w)| EdgeUpdate::new(a, b, w)).collect();
        let born = Stl::build(&g0, &cfg);
        let mut written = born.clone();
        let (a, b, w) = g0.edges().next().unwrap();
        written.apply_batch(
            &mut g0.clone(),
            &[EdgeUpdate::new(a, b, w + 1)],
            Maintenance::ParetoSearch,
            &mut UpdateEngine::new(g0.num_vertices()),
        );
        assert!(born.is_flat() && !written.is_flat());
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            for start in [&born, &written] {
                let mut stl = start.clone();
                let held = stl.clone();
                let mut g = g0.clone();
                let mut pool = EnginePool::new();
                for batch in [&[][..], &same] {
                    let (stats, report) =
                        stl.apply_batch_sharded_owned(&mut g, batch, algo, &mut pool, None);
                    assert_eq!(stats.trees_touched, 0, "{algo:?}: nothing to repair");
                    assert_eq!(stats.pops + stats.label_writes, 0, "{algo:?}: no search ran");
                    assert_eq!(report.shards_touched, 0);
                    assert_eq!(stl.cow_stats(), Default::default(), "{algo:?}: no chunk copied");
                    assert_eq!(stl.labels().shared_chunks_with(held.labels()), stl.num_chunks());
                    assert_eq!(stl.is_flat(), start.is_flat(), "{algo:?}: flatness kept");
                }
            }
        }
    }
}
