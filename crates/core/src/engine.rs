//! Reusable scratch state for the maintenance algorithms.
//!
//! One engine serves any number of update batches; all per-search state is
//! epoch-reset ([`TimestampedArray`]) so a batch of thousands of updates
//! never pays `O(|V|)` clears. Repair runs inline on the caller's thread,
//! one update after another, so the batch driver needs exactly one engine,
//! which an [`EnginePool`] keeps warm between batches.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use stl_graph::hash::FxHashMap;
use stl_graph::{Dist, VertexId};
use stl_pathfinding::TimestampedArray;

/// Priority-queue item for Pareto searches: `(d, v, [lo, hi])`.
///
/// Ordered so the heap pops **smallest `d` first, largest `hi` first on
/// ties** — the tie-break that makes Pareto-optimal tuples surface before
/// dominated ones (§5.2 "Proposed Algorithm").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ParetoItem {
    /// Path length from the search start (includes the updated edge).
    pub d: Dist,
    /// Highest candidate ancestor index (path-validity cap).
    pub hi: u32,
    /// Lowest candidate ancestor index (dedup floor from the parent).
    pub lo: u32,
    /// Vertex reached.
    pub v: VertexId,
}

impl Ord for ParetoItem {
    fn cmp(&self, o: &Self) -> Ordering {
        // BinaryHeap is a max-heap: "greater" = preferred = smaller d, then
        // larger hi; remaining fields only to make the order total.
        o.d.cmp(&self.d).then(self.hi.cmp(&o.hi)).then(o.lo.cmp(&self.lo)).then(o.v.cmp(&self.v))
    }
}

impl PartialOrd for ParetoItem {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

/// Scratch buffers shared by Label Search and Pareto Search.
#[derive(Debug)]
pub struct UpdateEngine {
    /// (dist, vertex) heap for Label Search phases.
    pub(crate) heap: BinaryHeap<std::cmp::Reverse<(Dist, VertexId)>>,
    /// Per-ancestor seed queues `Q_r`, keyed by ancestor vertex.
    pub(crate) seeds: FxHashMap<VertexId, Vec<(Dist, VertexId)>>,
    /// `seeds` drained into a τ-sorted list: hash-map iteration order is
    /// nondeterministic, and processing ancestors in it would make
    /// `UpdateStats` counters and repair order vary run to run — τ order
    /// keeps differential-fuzz replays byte-stable.
    pub(crate) seed_list: Vec<(VertexId, Vec<(Dist, VertexId)>)>,
    /// Membership of the affected set `V_aff` in increase searches.
    pub(crate) in_aff: TimestampedArray<bool>,
    /// Pareto-search heap.
    pub(crate) pheap: BinaryHeap<ParetoItem>,
    /// Next unprocessed ancestor level per vertex (Pareto pruning).
    pub(crate) level: TimestampedArray<u32>,
    /// Affected-interval lower/upper bounds per vertex (Algorithm 5 input).
    pub(crate) aff_lo: TimestampedArray<u32>,
    pub(crate) aff_hi: TimestampedArray<u32>,
    /// Vertices with a non-empty affected interval, in discovery order.
    pub(crate) aff_list: Vec<VertexId>,
    /// Exact affected `(vertex, index)` pairs of one increase update,
    /// collected by its searches unit after unit.
    pub(crate) pairs: Vec<(VertexId, u32)>,
    /// Anchor-label snapshot for the current Pareto search.
    pub(crate) snap: Vec<Dist>,
    /// (dist, vertex, index) heap for the Pareto repair phase.
    pub(crate) rheap: BinaryHeap<std::cmp::Reverse<(Dist, VertexId, u32)>>,
    /// Scratch list of `(ancestor, affected vertices)` of one increase
    /// update, unit after unit.
    pub(crate) aff_per_r: Vec<(VertexId, Vec<VertexId>)>,
}

impl UpdateEngine {
    /// Engine for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seeds: FxHashMap::default(),
            seed_list: Vec::new(),
            in_aff: TimestampedArray::new(n, false),
            pheap: BinaryHeap::new(),
            level: TimestampedArray::new(n, 0),
            aff_lo: TimestampedArray::new(n, u32::MAX),
            aff_hi: TimestampedArray::new(n, 0),
            aff_list: Vec::new(),
            pairs: Vec::new(),
            snap: Vec::new(),
            rheap: BinaryHeap::new(),
            aff_per_r: Vec::new(),
        }
    }

    /// Grow scratch arrays if the graph is larger than at construction.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.in_aff.len() < n {
            self.in_aff.resize(n);
            self.level.resize(n);
            self.aff_lo.resize(n);
            self.aff_hi.resize(n);
        }
    }
}

/// The batch driver's one [`UpdateEngine`], created on first use and kept
/// warm across batches: the epoch-reset scratch arrays make reuse free, so
/// a long-lived writer (e.g. the `stl_server` writer thread) allocates its
/// `O(|V|)` scratch exactly once.
#[derive(Debug, Default)]
pub struct EnginePool {
    engine: Option<UpdateEngine>,
}

impl EnginePool {
    /// An empty pool; the engine is created on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine, with capacity for `n` vertices.
    pub fn engine(&mut self, n: usize) -> &mut UpdateEngine {
        let eng = self.engine.get_or_insert_with(|| UpdateEngine::new(n));
        eng.ensure_capacity(n);
        eng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_order_smallest_d_first() {
        let mut h = BinaryHeap::new();
        h.push(ParetoItem { d: 5, hi: 9, lo: 0, v: 1 });
        h.push(ParetoItem { d: 3, hi: 1, lo: 0, v: 2 });
        h.push(ParetoItem { d: 7, hi: 0, lo: 0, v: 3 });
        assert_eq!(h.pop().unwrap().d, 3);
        assert_eq!(h.pop().unwrap().d, 5);
        assert_eq!(h.pop().unwrap().d, 7);
    }

    #[test]
    fn pareto_order_ties_prefer_larger_hi() {
        let mut h = BinaryHeap::new();
        h.push(ParetoItem { d: 4, hi: 2, lo: 0, v: 1 });
        h.push(ParetoItem { d: 4, hi: 8, lo: 0, v: 2 });
        let first = h.pop().unwrap();
        assert_eq!(first.hi, 8, "larger hi must pop first on distance ties");
    }

    #[test]
    fn engine_capacity_grows() {
        let mut e = UpdateEngine::new(4);
        e.ensure_capacity(16);
        assert!(e.in_aff.len() >= 16);
        assert!(e.level.len() >= 16);
    }

    #[test]
    fn engine_pool_reuses_one_engine_and_grows_it() {
        let mut pool = EnginePool::new();
        assert!(pool.engine.is_none());
        pool.engine(8).pairs.push((0, 0));
        // A larger graph grows the same engine rather than replacing it.
        let eng = pool.engine(32);
        assert!(eng.in_aff.len() >= 32);
        assert_eq!(eng.pairs.len(), 1, "the engine is kept warm");
    }
}
