//! Tree-sharded parallel batch repair.
//!
//! The stable tree hierarchy partitions the label space: a per-ancestor
//! Label-Search phase for cut vertex `r` reads and writes **only** the
//! entries `(v, τ(r))` with `v ∈ Desc(r)`. Two distinct cut vertices
//! therefore have disjoint entry sets (different τ along a chain, disjoint
//! descendants across branches — the argument behind
//! [`Stl::build_with_hierarchy_parallel`]), so per-ancestor repairs can run
//! concurrently without synchronisation. This module groups those repairs
//! by **owning stable tree** (the subtree-ownership map of
//! [`Hierarchy::tree_of`]) and fans the shards out over `std::thread::scope`
//! workers drawn from a reusable [`EnginePool`]:
//!
//! 1. the batch is normalised once (shared with [`Stl::apply_batch`]) and
//!    **pre-grouped by tree** — shards no update maps to are skipped before
//!    any search starts (surfaced as `UpdateStats::trees_skipped`), and the
//!    spine (cut vertices above [`SHARD_DEPTH`](crate::hierarchy::SHARD_DEPTH))
//!    forms its own work unit since every root path crosses it;
//! 2. weight application stays serial and phase-fenced exactly as in the
//!    serial algorithms (decreases before their searches, increases after
//!    the affected-set searches and before the repairs), so every worker
//!    sees the same graph the serial path would;
//! 3. workers repair their shards on [`ShardLabels`](crate::labelling::ShardLabels) views over one shared
//!    [`LabelsWriter`](crate::labelling::LabelsWriter) arena phase — disjoint unsynchronised writes with
//!    per-chunk copy-on-write promotion gates (`stl_graph::cow`);
//! 4. per-shard [`UpdateStats`] are merged in fixed shard order and the
//!    per-shard wall times land in a [`ShardReport`] for the server stats.
//!
//! The fan-out changes scheduling only, never results: with
//! `threads = 1` the driver runs the same per-ancestor searches the serial
//! path runs, in a shard-grouped order, and produces byte-identical labels
//! and (search-effort) counters; with `threads > 1` disjointness makes the
//! outcome independent of interleaving.
//!
//! **Pareto Search** decomposes onto the same unit structure by clamping
//! validity intervals instead of filtering ancestors. A Pareto search for
//! update `{a, b}` writes `L_v[i]` only for `i ≤ min(τ(a), τ(b))`, and for
//! every such `i` the written entries `(v, i)` satisfy `v ∈ Desc(r_i)`
//! where `r_i` is the *common* `i`-th ancestor of both endpoints — so entry
//! ownership follows the anchor's root path. That path crosses the spine
//! and then descends into exactly one subtree shard `s`, splitting the
//! index range at `k = Hierarchy::shard_anc_start(s)`: indices `[0, k)` are
//! spine-owned, `[k, τ]` belong to `s`. The sharded Pareto driver therefore
//! runs each update's two searches twice with complementary clamps — once
//! in its subtree unit (`[k, ∞)`) and once in the spine unit (`[0, k)`,
//! the residual every root path shares) — and since search, bump and
//! repair are all **index-local**, the two passes read and write disjoint
//! entry sets and the spine unit schedules like any other work unit.
//! Increases keep the collect-then-bump ordering behind a phase fence: all
//! identification searches run on the old weights and labels, the batch's
//! weights land serially, then every unit applies its summed `+Δ` bumps
//! before its per-index repair Dijkstras (a pair collected by several
//! updates needs the summed upper bound — paths through two increased
//! edges grow by both deltas). Labels come out byte-identical to the
//! serial Pareto driver at any thread count because both drivers restore
//! the canonical exact subgraph distances; the effort counters differ
//! (clamped searches re-explore some vertices per unit), which is why the
//! Pareto equivalence tests compare labels and oracles, not counters.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use stl_graph::hash::FxHashMap;
use stl_graph::{CsrGraph, Dist, EdgeUpdate, VertexId};

use crate::batch::split_batch;
use crate::engine::{EnginePool, UpdateEngine};
use crate::hierarchy::{Hierarchy, SPINE_SHARD};
use crate::label_search;
use crate::labelling::Stl;
use crate::pareto;
use crate::types::{Maintenance, UpdateStats};

/// Per-shard accounting of one sharded batch application.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Repair shards in the hierarchy (including the spine slot, whether or
    /// not it owns cut vertices).
    pub shards_total: u32,
    /// Distinct shards that received work from this batch.
    pub shards_touched: u32,
    /// `(shard id, nanoseconds)` summed over the batch's repair phases, in
    /// shard id order, touched shards only. The spread between entries is
    /// the load imbalance a hotspot batch inflicts.
    pub per_shard_ns: Vec<(u32, u64)>,
}

impl ShardReport {
    /// Wall time of the slowest shard — the critical path of a fan-out.
    pub fn max_ns(&self) -> u64 {
        self.per_shard_ns.iter().map(|&(_, ns)| ns).max().unwrap_or(0)
    }

    /// Total shard work — what a serial pass would have paid.
    pub fn sum_ns(&self) -> u64 {
        self.per_shard_ns.iter().map(|&(_, ns)| ns).sum()
    }
}

/// Entry-level write log of one sharded application: `(shard, writes)` in
/// shard id order. Property tests assert pairwise disjointness across
/// shards; see [`Stl::apply_batch_sharded_logged`].
pub type ShardWriteLog = Vec<(u32, Vec<(VertexId, u32)>)>;

/// One schedulable work unit: a repair shard plus the updates whose
/// ancestor sets reach into it. Subtree units own their (partitioned)
/// update lists; the spine unit borrows the whole batch — it scans every
/// update anyway, so cloning the batch for it would be pure overhead.
struct ShardUnit<'b> {
    shard: u32,
    updates: Cow<'b, [EdgeUpdate]>,
}

/// Per-shard `(ancestor, V_aff)` lists carried from increase phase A
/// (identification, old weights) to phase B (repair, new weights).
type ShardAffected = (u32, Vec<(VertexId, Vec<VertexId>)>);

/// A set of subtree shards a repair pass is responsible for — the
/// ownership unit of process-sharded serving.
///
/// A worker that applies a batch under a `ShardSet` still applies **every
/// weight change** (the serial fences of both drivers are untouched) but
/// repairs only the spine unit plus the subtree units in the set. Because
/// label entries are column-confined — the spine unit owns the ancestor
/// prefix `[0, k)` of every vertex, a subtree unit the range `[k, τ]` of
/// its own vertices — the entries a filtered pass repairs come out
/// byte-identical to an unfiltered apply, while entries of unowned
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

/// Drop the units a filtered apply is not responsible for: the spine unit
/// always stays, subtree units stay iff owned.
fn retain_owned(units: &mut Vec<ShardUnit<'_>>, owned: &ShardSet) {
    units.retain(|u| u.shard == SPINE_SHARD || owned.contains(u.shard));
}

impl Stl {
    /// [`Stl::apply_batch`] with the label-repair work fanned out across
    /// `threads` workers by owning stable tree.
    ///
    /// Semantically identical to the serial driver for any thread count:
    /// label entries come out byte-for-byte equal, and the sharded path
    /// additionally fills the `trees_touched`/`trees_skipped` counters.
    /// Both maintenance families fan out — [`Maintenance::LabelSearch`] by
    /// per-ancestor ownership, [`Maintenance::ParetoSearch`] by clamping
    /// validity intervals at the spine boundary (see module docs). For
    /// Label Search the search-effort counters of [`UpdateStats`] also
    /// match serial exactly; the Pareto decomposition re-explores some
    /// vertices per unit, so its counters measure the sharded schedule.
    pub fn apply_batch_sharded(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        threads: usize,
    ) -> (UpdateStats, ShardReport) {
        let (stats, report, _) =
            self.apply_batch_sharded_inner(g, updates, algo, pool, threads, None, false);
        (stats, report)
    }

    /// [`Stl::apply_batch_sharded`] restricted to an ownership set: every
    /// weight change is applied (keeping the graph replica exact), but only
    /// the spine unit and the subtree units in `owned` are repaired. Label
    /// entries owned by the spine or by an owned subtree come out
    /// byte-identical to an unfiltered apply; entries of unowned subtrees
    /// are left stale — the caller (a shard worker) must never serve them.
    /// `owned = None` is exactly [`Stl::apply_batch_sharded`].
    pub fn apply_batch_sharded_owned(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        threads: usize,
        owned: Option<&ShardSet>,
    ) -> (UpdateStats, ShardReport) {
        let (stats, report, _) =
            self.apply_batch_sharded_inner(g, updates, algo, pool, threads, owned, false);
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
        threads: usize,
    ) -> (UpdateStats, ShardReport, ShardWriteLog) {
        self.apply_batch_sharded_inner(g, updates, algo, pool, threads, None, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_batch_sharded_inner(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        threads: usize,
        owned: Option<&ShardSet>,
        log: bool,
    ) -> (UpdateStats, ShardReport, ShardWriteLog) {
        match algo {
            Maintenance::ParetoSearch => {
                pareto_sharded(self, g, updates, pool, threads, owned, log)
            }
            Maintenance::LabelSearch => {
                label_search_sharded(self, g, updates, pool, threads, owned, log)
            }
        }
    }
}

/// Shared prologue of both sharded drivers: the batch-level counters and
/// the touched-shard bitmap derived from the pre-grouped units.
fn unit_accounting(
    hier: &Hierarchy,
    dec_units: &[ShardUnit<'_>],
    inc_units: &[ShardUnit<'_>],
    updates: u64,
) -> (UpdateStats, Vec<bool>) {
    let num_shards = hier.num_shards() as usize;
    let mut stats = UpdateStats { updates, ..Default::default() };
    let mut touched = vec![false; num_shards];
    for unit in dec_units.iter().chain(inc_units) {
        touched[unit.shard as usize] = true;
    }
    stats.trees_touched = touched.iter().filter(|&&t| t).count() as u64;
    // A spine slot that owns no cut vertices is not skippable work.
    let effective = num_shards as u64 - u64::from(!hier.spine_has_cuts());
    stats.trees_skipped = effective - stats.trees_touched;
    (stats, touched)
}

/// Shared epilogue: touched-shard timings folded into a [`ShardReport`] and
/// the write log sorted into shard order.
fn finish_report(
    stats: &UpdateStats,
    touched: &[bool],
    shard_ns: &[u64],
    logs: FxHashMap<u32, Vec<(VertexId, u32)>>,
) -> (ShardReport, ShardWriteLog) {
    let per_shard_ns: Vec<(u32, u64)> =
        (0..shard_ns.len()).filter(|&s| touched[s]).map(|s| (s as u32, shard_ns[s])).collect();
    let report = ShardReport {
        shards_total: shard_ns.len() as u32,
        shards_touched: stats.trees_touched as u32,
        per_shard_ns,
    };
    let mut log_out: ShardWriteLog = logs.into_iter().collect();
    log_out.sort_unstable_by_key(|&(s, _)| s);
    (report, log_out)
}

/// The sharded Label-Search driver; see the module docs for the phase plan.
fn label_search_sharded(
    stl: &mut Stl,
    g: &mut CsrGraph,
    updates: &[EdgeUpdate],
    pool: &mut EnginePool,
    threads: usize,
    owned: Option<&ShardSet>,
    log: bool,
) -> (UpdateStats, ShardReport, ShardWriteLog) {
    let (dec, inc) = split_batch(g, updates);
    let n = g.num_vertices();
    let Stl { ref hier, ref mut labels, .. } = *stl;
    let num_shards = hier.num_shards() as usize;

    let mut dec_units = group_by_tree(hier, &dec);
    let mut inc_units = group_by_tree(hier, &inc);
    if let Some(set) = owned {
        retain_owned(&mut dec_units, set);
        retain_owned(&mut inc_units, set);
    }
    let (mut stats, touched) =
        unit_accounting(hier, &dec_units, &inc_units, (dec.len() + inc.len()) as u64);

    let engines = pool.engines(threads, n);
    let mut shard_ns = vec![0u64; num_shards];
    let mut logs: FxHashMap<u32, Vec<(VertexId, u32)>> = FxHashMap::default();

    // ---- decrease phase: weights first (serial), then per-shard searches.
    for &u in &dec {
        let old = g.apply_update(u).expect("update must target an existing edge");
        debug_assert!(u.new_weight <= old, "decrease batch got an increase");
    }
    let writer = labels.disjoint_writer();
    {
        let g_ref: &CsrGraph = g;
        let results = run_phase(&dec_units, engines, |eng, unit| {
            let mut st = UpdateStats::default();
            let mut view = writer.shard_view(hier, unit.shard, log);
            label_search::seed_decrease(hier, &view, &unit.updates, Some(unit.shard), eng);
            label_search::run_decrease_searches(hier, &mut view, g_ref, eng, &mut st);
            (st, view.into_log())
        });
        for (unit, ((st, wlog), ns)) in dec_units.iter().zip(results) {
            stats += st;
            shard_ns[unit.shard as usize] += ns;
            if log {
                logs.entry(unit.shard).or_default().extend(wlog);
            }
        }
    }

    // ---- increase phase A: seeds + affected sets on the old weights.
    let inc_work: Vec<ShardAffected> = {
        let g_ref: &CsrGraph = g;
        let results = run_phase(&inc_units, engines, |eng, unit| {
            let mut st = UpdateStats::default();
            // Identification only reads labels; no write log to collect.
            let view = writer.shard_view(hier, unit.shard, false);
            label_search::seed_increase(hier, &view, g_ref, &unit.updates, Some(unit.shard), eng);
            label_search::collect_affected(hier, &view, g_ref, eng, &mut st);
            (st, std::mem::take(&mut eng.aff_per_r))
        });
        inc_units
            .iter()
            .zip(results)
            .map(|(unit, ((st, aff), ns))| {
                stats += st;
                shard_ns[unit.shard as usize] += ns;
                (unit.shard, aff)
            })
            .collect()
    };

    // ---- serial fence: all searches saw old weights; apply the increases.
    for &u in &inc {
        g.apply_update(u).expect("validated above");
    }

    // ---- increase phase B: per-shard repairs on the new weights.
    {
        let g_ref: &CsrGraph = g;
        let results = run_phase(&inc_work, engines, |eng, (shard, aff)| {
            let mut st = UpdateStats::default();
            let mut view = writer.shard_view(hier, *shard, log);
            label_search::run_repairs(hier, &mut view, g_ref, aff, eng, &mut st);
            (st, view.into_log())
        });
        for ((shard, _), ((st, wlog), ns)) in inc_work.iter().zip(results) {
            stats += st;
            shard_ns[*shard as usize] += ns;
            if log {
                logs.entry(*shard).or_default().extend(wlog);
            }
        }
    }
    // Hand the drained affected-list buffers back to the pool's engines —
    // the same outer-capacity reuse the serial increase keeps per batch.
    for (eng, (_, mut aff)) in engines.iter_mut().zip(inc_work) {
        aff.clear();
        eng.aff_per_r = aff;
    }
    // Install copy-on-write promotions into the arena + dirty accounting.
    drop(writer);

    let (report, log_out) = finish_report(&stats, &touched, &shard_ns, logs);
    (stats, report, log_out)
}

/// Ancestor-index ranges carried from the sharded Pareto increase's
/// identification phase to its bump+repair phase: per unit, the per-update
/// `(Δ, deduplicated affected pairs)` lists in batch order.
type ParetoIncWork = (u32, Vec<(Dist, Vec<(VertexId, u32)>)>);

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
        debug_assert_eq!(owner, shard, "update grouped into a foreign tree");
        Some((hier.shard_anc_start(shard), u32::MAX))
    }
}

/// The sharded Pareto-Search driver; see the module docs for why interval
/// clamping at the spine boundary yields disjoint per-unit entry sets and
/// why the phase plan (weights fenced, collect → bump → repair) preserves
/// the serial driver's labels byte-for-byte.
fn pareto_sharded(
    stl: &mut Stl,
    g: &mut CsrGraph,
    updates: &[EdgeUpdate],
    pool: &mut EnginePool,
    threads: usize,
    owned: Option<&ShardSet>,
    log: bool,
) -> (UpdateStats, ShardReport, ShardWriteLog) {
    let (dec, inc) = split_batch(g, updates);
    let n = g.num_vertices();
    let Stl { ref hier, ref mut labels, .. } = *stl;
    let num_shards = hier.num_shards() as usize;

    let mut dec_units = group_by_tree(hier, &dec);
    let mut inc_units = group_by_tree(hier, &inc);
    if let Some(set) = owned {
        retain_owned(&mut dec_units, set);
        retain_owned(&mut inc_units, set);
    }
    let (mut stats, touched) =
        unit_accounting(hier, &dec_units, &inc_units, (dec.len() + inc.len()) as u64);

    let engines = pool.engines(threads, n);
    let mut shard_ns = vec![0u64; num_shards];
    let mut logs: FxHashMap<u32, Vec<(VertexId, u32)>> = FxHashMap::default();

    // ---- decrease phase: all weights first (serial fence), then per-unit
    // clamped searches. With every decrease applied up front, candidate
    // path lengths explored by any search are final-graph lengths, so the
    // per-edge searches jointly restore exact labels regardless of order.
    for &u in &dec {
        let old = g.apply_update(u).expect("update must target an existing edge");
        debug_assert!(u.new_weight <= old, "decrease batch got an increase");
    }
    let writer = labels.disjoint_writer();
    {
        let g_ref: &CsrGraph = g;
        let results = run_phase(&dec_units, engines, |eng, unit| {
            let mut st = UpdateStats::default();
            let mut view = writer.shard_view(hier, unit.shard, log);
            for &u in unit.updates.iter() {
                if let Some(clamp) = pareto_clamp(hier, unit.shard, u.a, u.b) {
                    let w = u.new_weight;
                    pareto::search_and_repair_dec(
                        hier, &mut view, g_ref, u.a, u.b, w, clamp, eng, &mut st,
                    );
                    pareto::search_and_repair_dec(
                        hier, &mut view, g_ref, u.b, u.a, w, clamp, eng, &mut st,
                    );
                }
            }
            (st, view.into_log())
        });
        for (unit, ((st, wlog), ns)) in dec_units.iter().zip(results) {
            stats += st;
            shard_ns[unit.shard as usize] += ns;
            if log {
                logs.entry(unit.shard).or_default().extend(wlog);
            }
        }
    }

    // ---- increase phase A: identification on the old weights and labels.
    // Nothing is written, so every unit's equality tests run against the
    // same pre-batch state the serial per-update schedule would reach by
    // induction — the collected pair sets cover every entry that changes.
    let inc_work: Vec<ParetoIncWork> = {
        let g_ref: &CsrGraph = g;
        let results = run_phase(&inc_units, engines, |eng, unit| {
            let mut st = UpdateStats::default();
            // Identification only reads labels; no write log to collect.
            let view = writer.shard_view(hier, unit.shard, false);
            let mut collected = std::mem::take(&mut eng.inc_pairs);
            for &u in unit.updates.iter() {
                let Some(clamp) = pareto_clamp(hier, unit.shard, u.a, u.b) else {
                    continue;
                };
                let w_old = g_ref.weight(u.a, u.b).expect("update must target an existing edge");
                debug_assert!(u.new_weight >= w_old, "increase batch got a decrease");
                let delta = u.new_weight.saturating_sub(w_old);
                if delta == 0 {
                    continue;
                }
                eng.pairs.clear();
                pareto::search_inc(hier, &view, g_ref, u.a, u.b, w_old, clamp, eng, &mut st);
                pareto::search_inc(hier, &view, g_ref, u.b, u.a, w_old, clamp, eng, &mut st);
                let spare = eng.take_pair_buf();
                let mut pairs = std::mem::replace(&mut eng.pairs, spare);
                pairs.sort_unstable();
                pairs.dedup();
                st.affected += pairs.len() as u64;
                collected.push((delta, pairs));
            }
            (st, collected)
        });
        inc_units
            .iter()
            .zip(results)
            .map(|(unit, ((st, collected), ns))| {
                stats += st;
                shard_ns[unit.shard as usize] += ns;
                (unit.shard, collected)
            })
            .collect()
    };

    // ---- serial fence: all identification saw old weights; apply them.
    for &u in &inc {
        g.apply_update(u).expect("validated above");
    }

    // ---- increase phase B: per-unit bumps, then per-index repairs. All of
    // a unit's `+Δ` bumps land before its repair Dijkstras start — a pair
    // collected by several updates needs the *summed* upper bound.
    {
        let g_ref: &CsrGraph = g;
        let results = run_phase(&inc_work, engines, |eng, (shard, collected)| {
            let mut st = UpdateStats::default();
            let mut view = writer.shard_view(hier, *shard, log);
            eng.aff_lo.reset();
            eng.aff_hi.reset();
            eng.aff_list.clear();
            for (delta, pairs) in collected {
                pareto::bump_pairs(&mut view, pairs, *delta, eng, &mut st);
            }
            pareto::repair_inc(hier, &mut view, g_ref, eng, &mut st);
            (st, view.into_log())
        });
        for ((shard, _), ((st, wlog), ns)) in inc_work.iter().zip(results) {
            stats += st;
            shard_ns[*shard as usize] += ns;
            if log {
                logs.entry(*shard).or_default().extend(wlog);
            }
        }
    }
    // Hand the drained pair buffers back to the pool's engines —
    // round-robin over all workers so nothing is dropped when touched
    // units outnumber threads (the scattered-batch common case).
    for (i, (_, mut collected)) in inc_work.into_iter().enumerate() {
        let eng = &mut engines[i % engines.len()];
        for (_, mut pairs) in collected.drain(..) {
            pairs.clear();
            eng.pair_pool.push(pairs);
        }
        if eng.inc_pairs.capacity() < collected.capacity() {
            eng.inc_pairs = collected;
        }
    }
    // Install copy-on-write promotions into the arena + dirty accounting.
    drop(writer);

    let (report, log_out) = finish_report(&stats, &touched, &shard_ns, logs);
    (stats, report, log_out)
}

/// Pre-group a normalised batch by owning stable tree. Each update lands in
/// the unit of its anchor endpoint's subtree shard; the spine unit (listed
/// first — it is usually the widest-ranging work) scans the whole batch but
/// seeds only spine ancestors. Shards with no unit are never scanned.
fn group_by_tree<'b>(hier: &Hierarchy, updates: &'b [EdgeUpdate]) -> Vec<ShardUnit<'b>> {
    if updates.is_empty() {
        return Vec::new();
    }
    let mut groups: FxHashMap<u32, Vec<EdgeUpdate>> = FxHashMap::default();
    for &u in updates {
        let s = hier.tree_of_edge(u.a, u.b);
        if s != SPINE_SHARD {
            groups.entry(s).or_default().push(u);
        }
    }
    let mut units: Vec<ShardUnit<'b>> = groups
        .into_iter()
        .map(|(shard, updates)| ShardUnit { shard, updates: Cow::Owned(updates) })
        .collect();
    units.sort_unstable_by_key(|u| u.shard);
    if hier.spine_has_cuts() {
        units.insert(0, ShardUnit { shard: SPINE_SHARD, updates: Cow::Borrowed(updates) });
    }
    units
}

/// Run one repair phase over its work units: inline in unit order for a
/// single worker, atomic work-queue over scoped threads otherwise. Results
/// come back in unit order either way, each with its wall time in ns.
fn run_phase<U, R, F>(units: &[U], engines: &mut [UpdateEngine], f: F) -> Vec<(R, u64)>
where
    U: Sync,
    R: Send,
    F: Fn(&mut UpdateEngine, &U) -> R + Sync,
{
    if units.is_empty() {
        return Vec::new();
    }
    let workers = engines.len().min(units.len());
    if workers <= 1 {
        let eng = &mut engines[0];
        return units
            .iter()
            .map(|u| {
                let t = Instant::now();
                let r = f(eng, u);
                (r, t.elapsed().as_nanos() as u64)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(R, u64)>> = units.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = engines[..workers]
            .iter_mut()
            .map(|eng| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= units.len() {
                            break;
                        }
                        let t = Instant::now();
                        let r = f(eng, &units[i]);
                        done.push((i, r, t.elapsed().as_nanos() as u64));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r, ns) in h.join().expect("shard worker panicked") {
                slots[i] = Some((r, ns));
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every unit is processed")).collect()
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

    /// The sharded driver's contract: for every thread count, labels equal
    /// the serial driver's byte-for-byte and the search-effort counters
    /// match exactly.
    #[test]
    fn sharded_matches_serial_all_thread_counts() {
        let g0 = grid(7);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        for threads in [1usize, 2, 4] {
            let mut g_serial = g0.clone();
            let mut g_shard = g0.clone();
            let mut serial = Stl::build(&g0, &cfg);
            let mut sharded = serial.clone();
            let mut eng = UpdateEngine::new(g0.num_vertices());
            let mut pool = EnginePool::new();
            for (round, batch) in mixed_batches(&g0, 12, 0xBEEF ^ threads as u64).iter().enumerate()
            {
                let st_serial =
                    serial.apply_batch(&mut g_serial, batch, Maintenance::LabelSearch, &mut eng);
                let (mut st_shard, report) = sharded.apply_batch_sharded(
                    &mut g_shard,
                    batch,
                    Maintenance::LabelSearch,
                    &mut pool,
                    threads,
                );
                assert!(report.shards_touched <= report.shards_total);
                assert_eq!(
                    report.per_shard_ns.len() as u32,
                    report.shards_touched,
                    "one timing entry per touched shard"
                );
                // Normalise the sharding-only counters before the exact
                // comparison — the serial path leaves them 0.
                st_shard.trees_touched = 0;
                st_shard.trees_skipped = 0;
                assert_eq!(st_serial, st_shard, "threads={threads} round={round}");
                for v in 0..g0.num_vertices() as VertexId {
                    assert_eq!(
                        serial.labels().slice(v),
                        sharded.labels().slice(v),
                        "threads={threads} round={round} vertex={v}"
                    );
                }
            }
            verify::check_all(&sharded, &g_shard).unwrap();
        }
    }

    #[test]
    fn sharded_skips_untouched_trees() {
        let g0 = grid(8);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let mut g = g0.clone();
        let mut stl = Stl::build(&g0, &cfg);
        let mut pool = EnginePool::new();
        assert!(stl.hierarchy().num_shards() > 2, "grid must split into several trees");
        // A single-edge batch touches at most spine + one subtree.
        let (a, b, w) = g0.edges().next().unwrap();
        let (stats, report) = stl.apply_batch_sharded(
            &mut g,
            &[EdgeUpdate::new(a, b, w * 3)],
            Maintenance::LabelSearch,
            &mut pool,
            2,
        );
        assert!(stats.trees_touched <= 2, "one update maps to spine + one tree at most");
        assert!(stats.trees_skipped > 0, "the other trees must be skipped");
        assert_eq!(
            stats.trees_touched
                + stats.trees_skipped
                + u64::from(!stl.hierarchy().spine_has_cuts()),
            stl.hierarchy().num_shards() as u64
        );
        assert_eq!(report.shards_touched as u64, stats.trees_touched);
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn sharded_write_log_is_disjoint_and_owned() {
        let g0 = grid(6);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let mut g = g0.clone();
        let mut stl = Stl::build(&g0, &cfg);
        let mut pool = EnginePool::new();
        let batch = &mixed_batches(&g0, 1, 77)[0];
        let (_, _, log) =
            stl.apply_batch_sharded_logged(&mut g, batch, Maintenance::LabelSearch, &mut pool, 3);
        let mut seen: std::collections::HashMap<(VertexId, u32), u32> =
            std::collections::HashMap::new();
        let mut writes = 0usize;
        for (shard, entries) in &log {
            for &(v, i) in entries {
                writes += 1;
                assert_eq!(
                    stl.hierarchy().shard_of_entry(v, i),
                    *shard,
                    "shard {shard} wrote an entry it does not own"
                );
                if let Some(other) = seen.insert((v, i), *shard) {
                    assert_eq!(other, *shard, "entry ({v},{i}) written by two shards");
                }
            }
        }
        assert!(writes > 0, "batch must have repaired something");
        verify::check_all(&stl, &g).unwrap();
    }

    /// The sharded Pareto contract: a real decomposition (not a serial
    /// fallback) whose labels equal the serial driver's byte-for-byte at
    /// every thread count, with the sharding counters populated.
    #[test]
    fn pareto_sharded_matches_serial_all_thread_counts() {
        let g0 = grid(7);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        for threads in [1usize, 2, 4] {
            let mut g_serial = g0.clone();
            let mut g_shard = g0.clone();
            let mut serial = Stl::build(&g0, &cfg);
            let mut sharded = serial.clone();
            let mut eng = UpdateEngine::new(g0.num_vertices());
            let mut pool = EnginePool::new();
            for (round, batch) in mixed_batches(&g0, 12, 0xFEED ^ threads as u64).iter().enumerate()
            {
                serial.apply_batch(&mut g_serial, batch, Maintenance::ParetoSearch, &mut eng);
                let (st_shard, report) = sharded.apply_batch_sharded(
                    &mut g_shard,
                    batch,
                    Maintenance::ParetoSearch,
                    &mut pool,
                    threads,
                );
                assert!(st_shard.trees_touched > 0, "pareto path must fill tree counters");
                assert_eq!(report.shards_touched as u64, st_shard.trees_touched);
                assert_eq!(
                    report.per_shard_ns.len() as u32,
                    report.shards_touched,
                    "one timing entry per touched shard"
                );
                for v in 0..g0.num_vertices() as VertexId {
                    assert_eq!(
                        serial.labels().slice(v),
                        sharded.labels().slice(v),
                        "threads={threads} round={round} vertex={v}"
                    );
                }
            }
            verify::check_all(&sharded, &g_shard).unwrap();
        }
    }

    #[test]
    fn pareto_sharded_write_log_is_disjoint_and_owned() {
        let g0 = grid(6);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let mut g = g0.clone();
        let mut stl = Stl::build(&g0, &cfg);
        let mut pool = EnginePool::new();
        let batch = &mixed_batches(&g0, 1, 78)[0];
        let (_, _, log) =
            stl.apply_batch_sharded_logged(&mut g, batch, Maintenance::ParetoSearch, &mut pool, 3);
        let mut seen: std::collections::HashMap<(VertexId, u32), u32> =
            std::collections::HashMap::new();
        let mut writes = 0usize;
        for (shard, entries) in &log {
            for &(v, i) in entries {
                writes += 1;
                assert_eq!(
                    stl.hierarchy().shard_of_entry(v, i),
                    *shard,
                    "shard {shard} wrote an entry it does not own"
                );
                if let Some(other) = seen.insert((v, i), *shard) {
                    assert_eq!(other, *shard, "entry ({v},{i}) written by two shards");
                }
            }
        }
        assert!(writes > 0, "batch must have repaired something");
        verify::check_all(&stl, &g).unwrap();
    }

    #[test]
    fn pareto_sharded_skips_untouched_trees() {
        let g0 = grid(8);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let mut g = g0.clone();
        let mut stl = Stl::build(&g0, &cfg);
        let mut pool = EnginePool::new();
        let (a, b, w) = g0.edges().next().unwrap();
        let (stats, _) = stl.apply_batch_sharded(
            &mut g,
            &[EdgeUpdate::new(a, b, w * 3)],
            Maintenance::ParetoSearch,
            &mut pool,
            2,
        );
        assert!(stats.trees_touched <= 2, "one update maps to spine + one tree at most");
        assert!(stats.trees_skipped > 0, "the other trees must be skipped");
        verify::check_all(&stl, &g).unwrap();
    }

    /// The process-sharding contract: a replica that applies every weight
    /// change but repairs only {spine + its owned subtrees} keeps every
    /// spine-owned entry and every owned-subtree entry byte-identical to a
    /// full apply, at every thread count and for both maintenance families.
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
                full.apply_batch_sharded(&mut g_full, batch, algo, &mut pool, 2);
                for k in 0..num_workers {
                    replicas[k].apply_batch_sharded_owned(
                        &mut g_rep[k],
                        batch,
                        algo,
                        &mut pool,
                        2,
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

    #[test]
    fn sharded_cow_accounting_matches_serial() {
        // Pin a snapshot, apply the same batch serially and sharded: both
        // must promote chunks (COW) and leave the snapshot untouched.
        let g0 = grid(6);
        let cfg = StlConfig { leaf_size: 2, ..Default::default() };
        let mut g_serial = g0.clone();
        let mut g_shard = g0.clone();
        let mut serial = Stl::build(&g0, &cfg);
        let mut sharded = serial.clone();
        let pin_serial = serial.clone();
        let pin_shard = sharded.clone();
        let mut eng = UpdateEngine::new(g0.num_vertices());
        let mut pool = EnginePool::new();
        let batch = &mixed_batches(&g0, 1, 13)[0];
        serial.apply_batch(&mut g_serial, batch, Maintenance::LabelSearch, &mut eng);
        sharded.apply_batch_sharded(&mut g_shard, batch, Maintenance::LabelSearch, &mut pool, 2);
        let cs = serial.take_cow_stats();
        let ch = sharded.take_cow_stats();
        assert_eq!(cs, ch, "identical write sets must promote identical chunk sets");
        assert!(ch.bytes_copied > 0, "pinned snapshot forces promotions");
        for v in 0..g0.num_vertices() as VertexId {
            assert_eq!(pin_serial.labels().slice(v), pin_shard.labels().slice(v));
            assert_eq!(serial.labels().slice(v), sharded.labels().slice(v));
        }
    }
}
