//! The batch repair driver.
//!
//! [`Stl::apply_batch`] is the one path by which labels are maintained. It
//! normalises a mixed batch (last update per edge wins, no-ops dropped,
//! survivors kept in batch order) and then repairs the labels one update at
//! a time with the selected family — Label Search (Algorithms 1–2,
//! `label_search`) or Pareto Search (Algorithms 3–5, `pareto`). A batch is
//! exactly its normalised updates applied one by one, in order.
//!
//! The stable tree hierarchy partitions the label space: a per-ancestor
//! Label-Search search for cut vertex `r` reads and writes **only** the
//! entries `(v, τ(r))` with `v ∈ Desc(r)`. Two distinct cut vertices
//! therefore have disjoint entry sets (different τ along a chain, disjoint
//! descendants across branches — the argument behind
//! [`Stl::build_with_hierarchy_parallel`]). So each update's repair runs,
//! inline on the caller's thread and one [`UpdateEngine`], in the ≤ 2
//! **work units** it reaches: the spine (cut vertices above
//! [`SHARD_DEPTH`](crate::hierarchy::SHARD_DEPTH)), which every root path
//! crosses, then its owning stable tree ([`Hierarchy::tree_of_edge`]).
//! Other trees are never scanned (`UpdateStats::trees_skipped`), and a
//! shard worker repairs only the units it owns. A decrease applies its
//! weight, then searches each unit; an increase identifies each unit's
//! affected entries on the old weight, applies the weight, then repairs
//! each unit. All units write through one
//! [`LabelsWriter`](crate::labelling::LabelsWriter) phase per batch, which
//! resolves each arena chunk on first touch (`stl_graph::cow`), and their
//! wall times land per shard in a [`ShardReport`].
//!
//! A batch shares no work between its updates. The paper's batch forms
//! (seed queues shared across a batch, Δ-bumps summed before one repair)
//! saved 0.45 % of Pareto pops at 16k vertices and ran 1.14–1.17× slower
//! than the same updates applied singly.
//!
//! There is no thread pool. Two threads against one on 16-edge scattered
//! and hotspot batches, unpinned on two vCPUs, measured 0.93–1.07× at 16k
//! vertices and 0.99–1.05× at 64k (total apply time per stream): the
//! slowest unit is nearly the whole batch, so a fan-out bought nothing and
//! its thread spawns cost ~0.1 ms per single-edge batch.
//!
//! **Pareto Search** decomposes onto the same units by clamping validity
//! intervals instead of filtering ancestors. A Pareto search for update
//! `{a, b}` writes `L_v[i]` only for `i ≤ min(τ(a), τ(b))`, and for every
//! such `i` the written entries `(v, i)` satisfy `v ∈ Desc(r_i)` where
//! `r_i` is the *common* `i`-th ancestor of both endpoints — so entry
//! ownership follows the anchor's root path. That path crosses the spine
//! and then descends into exactly one subtree shard `s`, splitting the
//! index range at `k = Hierarchy::shard_anc_start(s)`: indices `[0, k)` are
//! spine-owned, `[k, τ]` belong to `s`. The driver therefore runs each
//! update's two searches twice with complementary clamps — once in the
//! spine unit (`[0, k)`) and once in its subtree unit (`[k, ∞)`) — and
//! since search, bump and repair are all **index-local**, the two passes
//! read and write disjoint entry sets. An increase keeps Algorithm 4's
//! collect-then-bump order inside the update: both units collect their
//! affected pairs on the old weight and labels, the weight lands, then each
//! unit bumps its pairs by `Δ` and runs its per-index repair Dijkstras. The
//! effort counters measure this schedule: clamped searches re-explore some
//! vertices in each unit an update reaches.
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
use crate::labelling::{ShardLabels, Stl};
use crate::pareto;
use crate::types::{Maintenance, UpdateStats};

/// Per-shard accounting of one batch application.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Repair shards in the hierarchy (including the spine slot, whether or
    /// not it owns cut vertices).
    pub shards_total: u32,
    /// Distinct shards that received work from this batch.
    pub shards_touched: u32,
    /// `(shard id, nanoseconds)` summed over the batch's updates, in
    /// shard id order, touched shards only. The spread between entries is
    /// the load imbalance a hotspot batch inflicts.
    pub per_shard_ns: Vec<(u32, u64)>,
}

impl ShardReport {
    /// Wall time of the slowest shard — what a per-shard fan-out could at
    /// best have cut the repair to.
    pub fn max_ns(&self) -> u64 {
        self.per_shard_ns.iter().map(|&(_, ns)| ns).max().unwrap_or(0)
    }

    /// Total shard work — the repair's wall time, units running one after
    /// another.
    pub fn sum_ns(&self) -> u64 {
        self.per_shard_ns.iter().map(|&(_, ns)| ns).sum()
    }
}

/// Entry-level write log of one batch application: `(shard, writes)` in
/// shard id order. Property tests assert every entry is written by its
/// owning shard; see [`Stl::apply_batch_sharded_logged`].
pub type ShardWriteLog = Vec<(u32, Vec<(VertexId, u32)>)>;

/// A set of subtree shards a repair pass is responsible for — the
/// ownership unit of process-sharded serving.
///
/// A worker that applies a batch under a `ShardSet` still applies **every
/// weight change** but repairs only the spine unit plus the subtree units
/// in the set. Because label entries are column-confined — the spine unit
/// owns the ancestor prefix `[0, k)` of every vertex, a subtree unit the
/// range `[k, τ]` of its own vertices — the entries a filtered pass repairs
/// come out byte-identical to an unfiltered apply, while entries of unowned
/// subtrees simply go stale. The spine is never a member: it is replicated
/// to (and repaired by) every worker.
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
    /// and each surviving update is repaired on its own, in the spine and
    /// its owning stable tree, inline on the calling thread (see the
    /// [module docs](crate::shard)); `UpdateStats::trees_touched` and
    /// `trees_skipped` count the units.
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
        self.apply_loop(g, updates, algo, eng, None, false).0
    }

    /// [`Stl::apply_batch`] on `pool`'s engine, also returning the batch's
    /// per-shard timings.
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
    /// weight change is applied (keeping the graph replica exact), but only
    /// the spine unit and the subtree units in `owned` are repaired. Label
    /// entries owned by the spine or by an owned subtree come out
    /// byte-identical to an unfiltered apply; entries of unowned subtrees
    /// are left stale — the caller (a shard worker) must never serve them.
    /// `owned = None` repairs every unit.
    pub fn apply_batch_sharded_owned(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        owned: Option<&ShardSet>,
    ) -> (UpdateStats, ShardReport) {
        let eng = pool.engine(g.num_vertices());
        let (stats, report, _) = self.apply_loop(g, updates, algo, eng, owned, false);
        (stats, report)
    }

    /// [`Stl::apply_batch_sharded`] with per-shard write instrumentation:
    /// additionally returns every `(vertex, index)` label entry each shard
    /// wrote. Costs one branch per label write plus the log allocations —
    /// for tests and debugging, not the serving path.
    pub fn apply_batch_sharded_logged(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
    ) -> (UpdateStats, ShardReport, ShardWriteLog) {
        let eng = pool.engine(g.num_vertices());
        self.apply_loop(g, updates, algo, eng, None, true)
    }

    /// The batch driver: normalise, then repair each update in its units
    /// over one label-writer phase.
    fn apply_loop(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        eng: &mut UpdateEngine,
        owned: Option<&ShardSet>,
        log: bool,
    ) -> (UpdateStats, ShardReport, ShardWriteLog) {
        const NORMALISED: &str = "normalised updates target existing edges";
        let updates = normalise_batch(updates, false, |a, b| g.weight(a, b));
        let Stl { ref hier, ref mut labels, .. } = *self;
        let mut tally = Tally::new(hier, updates.len(), log);
        let mut writer = labels.phase_writer();
        let mut units = Vec::with_capacity(2);
        for &u in &updates {
            units.clear();
            units.extend(units_of(hier, u, owned));
            let pairs = label_search::edge_pairs(hier, u);
            let w_old = g.weight(u.a, u.b).expect(NORMALISED);
            if u.new_weight < w_old {
                // A decrease: apply the weight, then search each unit.
                g.apply_update(u).expect(NORMALISED);
                for &shard in &units {
                    tally.write_unit(shard, |stats, log| {
                        let mut view = writer.shard_view(hier, shard, log);
                        match algo {
                            Maintenance::LabelSearch => {
                                let w = u.new_weight;
                                label_search::seed_decrease(hier, &view, &pairs, w, eng);
                                label_search::run_decrease_searches(hier, &mut view, g, eng, stats);
                            }
                            Maintenance::ParetoSearch => {
                                pareto_decrease(hier, &mut view, g, u, eng, stats);
                            }
                        }
                        view.into_log()
                    });
                }
                continue;
            }
            // An increase: identify each unit's affected entries on the old
            // weight, apply the weight, then repair each unit. The engine
            // buffer holds the units' identifications back to back.
            eng.aff_per_r.clear();
            eng.pairs.clear();
            let mut ends = [0; 2];
            for (&shard, end) in units.iter().zip(&mut ends) {
                *end = tally.unit(shard, |stats| {
                    // Identification only reads labels; no write log to collect.
                    let view = writer.shard_view(hier, shard, false);
                    match algo {
                        Maintenance::LabelSearch => {
                            label_search::seed_increase(hier, &view, &pairs, w_old, eng);
                            label_search::collect_affected(hier, &view, g, eng, stats);
                            eng.aff_per_r.len()
                        }
                        Maintenance::ParetoSearch => {
                            pareto_identify(hier, &view, g, u, w_old, eng, stats)
                        }
                    }
                });
            }
            g.apply_update(u).expect(NORMALISED);
            let mut start = 0;
            for (&shard, &end) in units.iter().zip(&ends) {
                tally.write_unit(shard, |stats, log| {
                    let mut view = writer.shard_view(hier, shard, log);
                    match algo {
                        Maintenance::LabelSearch => {
                            let range = start..end;
                            label_search::run_repairs(hier, &mut view, g, g, range, eng, stats);
                        }
                        Maintenance::ParetoSearch => {
                            let delta = u.new_weight - w_old;
                            pareto::bump_pairs(&mut view, start..end, delta, eng, stats);
                            pareto::repair_inc(hier, &mut view, g, eng, stats);
                        }
                    }
                    view.into_log()
                });
                start = end;
            }
        }
        tally.finish()
    }
}

/// What one batch's units yield: the counters in update order, each touched
/// shard's wall time, and (when logging) its label writes.
struct Tally {
    stats: UpdateStats,
    /// Shards a batch could touch: a spine slot that owns no cut vertices
    /// is not skippable work.
    reachable: u64,
    touched: Vec<bool>,
    shard_ns: Vec<u64>,
    logs: Option<FxHashMap<u32, Vec<(VertexId, u32)>>>,
}

impl Tally {
    /// The batch-level counters of `updates` normalised updates.
    fn new(hier: &Hierarchy, updates: usize, log: bool) -> Self {
        let num_shards = hier.num_shards() as usize;
        Self {
            stats: UpdateStats { updates: updates as u64, ..Default::default() },
            reachable: num_shards as u64 - u64::from(!hier.spine_has_cuts()),
            touched: vec![false; num_shards],
            shard_ns: vec![0; num_shards],
            logs: log.then(FxHashMap::default),
        }
    }

    /// Run one unit of `shard` on the batch counters, adding its wall time
    /// to the shard's.
    fn unit<R>(&mut self, shard: u32, f: impl FnOnce(&mut UpdateStats) -> R) -> R {
        self.touched[shard as usize] = true;
        let t = Instant::now();
        let r = f(&mut self.stats);
        self.shard_ns[shard as usize] += t.elapsed().as_nanos() as u64;
        r
    }

    /// [`Tally::unit`] for a unit that writes labels: `f` gets whether to
    /// log its writes and returns the log, which is kept per shard.
    fn write_unit(
        &mut self,
        shard: u32,
        f: impl FnOnce(&mut UpdateStats, bool) -> Vec<(VertexId, u32)>,
    ) {
        let log = self.logs.is_some();
        let writes = self.unit(shard, |stats| f(stats, log));
        if let Some(logs) = &mut self.logs {
            logs.entry(shard).or_default().extend(writes);
        }
    }

    /// The counters, the touched shards' timings as a [`ShardReport`], and
    /// the write log in shard order.
    fn finish(mut self) -> (UpdateStats, ShardReport, ShardWriteLog) {
        let per_shard_ns: Vec<(u32, u64)> = (0..self.shard_ns.len())
            .filter(|&s| self.touched[s])
            .map(|s| (s as u32, self.shard_ns[s]))
            .collect();
        self.stats.trees_touched = per_shard_ns.len() as u64;
        self.stats.trees_skipped = self.reachable - self.stats.trees_touched;
        let report = ShardReport {
            shards_total: self.shard_ns.len() as u32,
            shards_touched: per_shard_ns.len() as u32,
            per_shard_ns,
        };
        let mut log: ShardWriteLog = self.logs.unwrap_or_default().into_iter().collect();
        log.sort_unstable_by_key(|&(s, _)| s);
        (self.stats, report, log)
    }
}

/// The work units update `u` reaches, in run order: the spine when it owns
/// cut vertices (every root path crosses it), then the update's owning tree
/// unless `owned` excludes it. No other tree is ever scanned.
pub(crate) fn units_of(
    hier: &Hierarchy,
    u: EdgeUpdate,
    owned: Option<&ShardSet>,
) -> impl Iterator<Item = u32> {
    let tree = hier.tree_of_edge(u.a, u.b);
    let tree = (tree != SPINE_SHARD && owned.is_none_or(|set| set.contains(tree))).then_some(tree);
    hier.spine_has_cuts().then_some(SPINE_SHARD).into_iter().chain(tree)
}

/// The ancestor-index clamp of update `{a, b}` inside `shard`'s work unit,
/// or `None` when the update owns no indices there. The upper bound is left
/// open (`u32::MAX`) where the search's own `min(τ(a), τ(b))` cap is
/// tighter; see the module docs for the spine/subtree split argument.
fn pareto_clamp(hier: &Hierarchy, shard: u32, a: VertexId, b: VertexId) -> Option<(u32, u32)> {
    let owner = hier.tree_of_edge(a, b);
    if shard == SPINE_SHARD {
        if owner == SPINE_SHARD {
            // A spine-anchored edge: its whole validity interval runs over
            // spine-owned ancestors.
            return Some((0, u32::MAX));
        }
        let k = hier.shard_anc_start(owner);
        if k == 0 {
            return None; // no spine cuts above this subtree's root
        }
        Some((0, k - 1))
    } else {
        debug_assert_eq!(owner, shard, "update run in a foreign tree");
        Some((hier.shard_anc_start(shard), u32::MAX))
    }
}

/// Algorithm 3 for decrease `u` in `view`'s unit: both searches, clamped
/// to the unit's index range.
fn pareto_decrease(
    hier: &Hierarchy,
    view: &mut ShardLabels<'_, '_>,
    g: &CsrGraph,
    u: EdgeUpdate,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) {
    if let Some(clamp) = pareto_clamp(hier, view.shard(), u.a, u.b) {
        let w = u.new_weight;
        pareto::search_and_repair_dec(hier, view, g, u.a, u.b, w, clamp, eng, stats);
        pareto::search_and_repair_dec(hier, view, g, u.b, u.a, w, clamp, eng, stats);
    }
}

/// Algorithm 4's identification for increase `u` in `view`'s unit, on the
/// old weight `w_old`: appends the unit's deduplicated affected pairs to
/// `eng.pairs` and returns its new length.
fn pareto_identify(
    hier: &Hierarchy,
    view: &ShardLabels<'_, '_>,
    g: &CsrGraph,
    u: EdgeUpdate,
    w_old: Weight,
    eng: &mut UpdateEngine,
    stats: &mut UpdateStats,
) -> usize {
    let start = eng.pairs.len();
    if let Some(clamp) = pareto_clamp(hier, view.shard(), u.a, u.b) {
        pareto::search_inc(hier, view, g, u.a, u.b, w_old, clamp, eng, stats);
        pareto::search_inc(hier, view, g, u.b, u.a, w_old, clamp, eng, stats);
    }
    // Units own disjoint index ranges, so an earlier unit's sorted prefix
    // shares no pair with this tail: `dedup` folds only the tail's repeats.
    eng.pairs[start..].sort_unstable();
    eng.pairs.dedup();
    stats.affected += (eng.pairs.len() - start) as u64;
    eng.pairs.len()
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
            assert!(stats.trees_touched <= 2, "{algo:?}: one update maps to spine + one tree");
            assert!(stats.trees_skipped > 0, "{algo:?}: the other trees must be skipped");
            assert_eq!(
                stats.trees_touched + stats.trees_skipped + u64::from(!hier.spine_has_cuts()),
                hier.num_shards() as u64
            );
            verify::check_all(&stl, &g).unwrap();
        }
    }

    #[test]
    fn write_log_is_disjoint_and_owned() {
        let g0 = grid(6);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        for (algo, seed) in [(Maintenance::LabelSearch, 77), (Maintenance::ParetoSearch, 78)] {
            let mut g = g0.clone();
            let mut stl = Stl::build(&g0, &cfg);
            let mut pool = EnginePool::new();
            let batch = &mixed_batches(&g0, 1, seed)[0];
            let (_, _, log) = stl.apply_batch_sharded_logged(&mut g, batch, algo, &mut pool);
            let mut seen: std::collections::HashMap<(VertexId, u32), u32> =
                std::collections::HashMap::new();
            let mut writes = 0usize;
            for (shard, entries) in &log {
                for &(v, i) in entries {
                    writes += 1;
                    assert_eq!(
                        stl.hierarchy().shard_of_entry(v, i),
                        *shard,
                        "{algo:?}: shard {shard} wrote an entry it does not own"
                    );
                    if let Some(other) = seen.insert((v, i), *shard) {
                        assert_eq!(
                            other, *shard,
                            "{algo:?}: entry ({v},{i}) written by two shards"
                        );
                    }
                }
            }
            assert!(writes > 0, "{algo:?}: batch must have repaired something");
            verify::check_all(&stl, &g).unwrap();
        }
    }

    /// The process-sharding contract: a replica that applies every weight
    /// change but repairs only {spine + its owned subtrees} keeps every
    /// spine-owned entry and every owned-subtree entry byte-identical to a
    /// full apply, for both maintenance families.
    #[test]
    fn owned_filtered_apply_matches_full_on_owned_entries() {
        let g0 = grid(7);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        for algo in [Maintenance::LabelSearch, Maintenance::ParetoSearch] {
            let full0 = Stl::build(&g0, &cfg);
            let num_workers = 2usize;
            let sets: Vec<ShardSet> = (0..num_workers)
                .map(|k| ShardSet::for_worker(full0.hierarchy(), k, num_workers))
                .collect();
            assert!(sets.iter().all(|s| !s.is_empty()), "grid must split across both workers");
            let mut g_full = g0.clone();
            let mut full = full0.clone();
            let mut g_rep: Vec<CsrGraph> = (0..num_workers).map(|_| g0.clone()).collect();
            let mut replicas: Vec<Stl> = (0..num_workers).map(|_| full0.clone()).collect();
            let mut pool = EnginePool::new();
            for batch in &mixed_batches(&g0, 8, 0xACE ^ algo as u64) {
                full.apply_batch_sharded_owned(&mut g_full, batch, algo, &mut pool, None);
                for k in 0..num_workers {
                    replicas[k].apply_batch_sharded_owned(
                        &mut g_rep[k],
                        batch,
                        algo,
                        &mut pool,
                        Some(&sets[k]),
                    );
                }
            }
            let hier = full.hierarchy();
            for k in 0..num_workers {
                for (a, b, w) in g_full.edges() {
                    assert_eq!(g_rep[k].weight(a, b), Some(w), "graph replicas must stay exact");
                }
                for v in 0..g0.num_vertices() as VertexId {
                    let want = full.labels().slice(v);
                    let got = replicas[k].labels().slice(v);
                    assert_eq!(want.len(), got.len());
                    for i in 0..want.len() as u32 {
                        let owner = hier.shard_of_entry(v, i);
                        if owner == SPINE_SHARD || sets[k].contains(owner) {
                            assert_eq!(
                                got[i as usize], want[i as usize],
                                "algo {algo:?} worker {k}: owned entry ({v},{i}) diverged"
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
