//! Stable Tree Labelling construction (Definition 4.6).
//!
//! The label of `v` is the distance array `L(v) = [δ_{v,w_1}, …, δ_{v,w_k}]`
//! over `Anc(v) = {w_1 ⪯ … ⪯ w_k}` where — crucially — `δ_{v,w} = d^w(v, w)`
//! is the distance **within the subgraph `G[Desc(w)]`**, not in `G`. This
//! restriction is what limits how many labels an edge update can touch.
//!
//! Storage is one 64-byte-aligned arena with per-vertex offsets, filled in
//! place by the builder ([`LabelArena`]) and wrapped without a copy as
//! vertex-aligned ~16 KiB chunk views: the entries a query compares are
//! consecutive in memory (§4's caching argument), and each chunk sits
//! behind an `Arc` for copy-on-write epoch publishing (see
//! `stl_graph::cow`). An index is therefore **born flat**, and stays flat
//! until its first label write, which promotes the written chunk out of the
//! arena and leaves the index chunked for good.
//!
//! Batch repair writes through a [`LabelsWriter`] phase, which resolves
//! each chunk it touches once and hands every repair shard a
//! [`ShardLabels`] view confined to the entries that shard owns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stl_graph::cow::{AlignedBuf, ChunkedStore, CowStats, PhaseWriter, DEFAULT_CHUNK_ENTRIES};
use stl_graph::{dist_add, CsrGraph, Dist, VertexId, INF};
use stl_pathfinding::TimestampedArray;

use crate::hierarchy::Hierarchy;
use crate::types::StlConfig;

/// Per-vertex location of a label in the chunked arena. One aligned 16-byte
/// load replaces the `chunk_of → chunk_starts → offsets` pointer chase on
/// the query hot path (measured ~10% of query latency on the 8k bench).
/// Padded to a power-of-two stride so indexing is a shift and a record never
/// straddles cache lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct VertexLoc {
    /// Chunk holding the vertex's whole label.
    chunk: u32,
    /// Chunk-local index of entry `L(v)[0]`.
    lo: u32,
    /// Label length (`τ(v) + 1`).
    len: u32,
    /// Global index of entry `L(v)[0]` — the direct offset into a flat
    /// arena, filling what used to be the record's padding. Saturated at
    /// `u32::MAX` for arenas beyond 2³²−1 entries, which are therefore
    /// never flat (see [`Labels::from_arena`]).
    glo: u32,
}

/// A label arena being filled: `Σ (τ(v)+1)` entries, all `INF` until
/// written, addressed as `L(v)[i]` by global offset in one 64-byte-aligned
/// buffer. Every label builder (STL, its directed extension, the HC2L
/// baseline) fills one of these; [`LabelArena::into_labels`] wraps the
/// buffer in place as a born-flat [`Labels`].
#[derive(Debug)]
pub struct LabelArena {
    offsets: Vec<u64>,
    dists: AlignedBuf<Dist>,
}

impl LabelArena {
    /// An all-`INF` arena sized for `hier`'s labels.
    pub fn new(hier: &Hierarchy) -> Self {
        let n = hier.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        for v in 0..n as VertexId {
            offsets.push(acc);
            acc += hier.anc_count(v) as u64;
        }
        offsets.push(acc);
        Self { dists: AlignedBuf::filled(acc as usize, INF), offsets }
    }

    /// `L(v)[i]`.
    #[inline(always)]
    pub fn get(&self, v: VertexId, i: u32) -> Dist {
        self.dists.as_slice()[(self.offsets[v as usize] + i as u64) as usize]
    }

    /// Overwrite `L(v)[i]`.
    #[inline(always)]
    pub fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        self.dists.as_mut_slice()[(self.offsets[v as usize] + i as u64) as usize] = d;
    }

    /// The filled arena as the index's label storage, without a copy.
    pub fn into_labels(self) -> Labels {
        Labels::from_arena(self.offsets, self.dists, DEFAULT_CHUNK_ENTRIES)
    }
}

/// Label storage: `L(v)[i]` for `i ∈ 0..=τ(v)`.
///
/// The flat arena of the paper behind a vertex-aligned
/// [`ChunkedStore`]: [`Labels::slice`] still returns one contiguous
/// `&[Dist]` per vertex (boundaries never split a label), `clone` is
/// `O(#chunks)` and shares every byte, and [`Labels::set`] copies a chunk at
/// most once per publish window when a snapshot still shares it. This type
/// only adds the per-vertex location layer on top of the store.
#[derive(Debug, Clone)]
pub struct Labels {
    /// Global entry offsets, `offsets[v]..offsets[v+1]` = vertex `v`'s
    /// label. Serialization and builders use these; hot reads go through
    /// `locs`.
    pub(crate) offsets: Arc<[u64]>,
    locs: Arc<[VertexLoc]>,
    pub(crate) store: ChunkedStore<Dist>,
}

impl Labels {
    /// The one wrap point of a filled arena (`offsets[v]..offsets[v+1]` =
    /// vertex `v`'s label): chunk views of `target` entries into `dists`,
    /// flat unless the arena has more than `u32::MAX` entries — the
    /// per-vertex direct offsets are 32-bit.
    pub(crate) fn from_arena(offsets: Vec<u64>, dists: AlignedBuf<Dist>, target: u64) -> Self {
        let flat = dists.len() as u64 <= u32::MAX as u64;
        let store = ChunkedStore::from_arena(&offsets, dists, target, flat);
        let (chunk_of, chunk_starts) = store.layout();
        let locs: Vec<VertexLoc> = (0..offsets.len() - 1)
            .map(|v| {
                let c = chunk_of[v];
                VertexLoc {
                    chunk: c,
                    lo: (offsets[v] - chunk_starts[c as usize]) as u32,
                    len: (offsets[v + 1] - offsets[v]) as u32,
                    glo: offsets[v].min(u32::MAX as u64) as u32,
                }
            })
            .collect();
        Self { offsets: offsets.into(), locs: locs.into(), store }
    }

    /// `L(v)[i] = d^{w_i}(v, w_i)` — distance to the `i`-th ancestor within
    /// its subgraph.
    #[inline(always)]
    pub fn get(&self, v: VertexId, i: u32) -> Dist {
        let loc = self.locs[v as usize];
        debug_assert!(i < loc.len, "label index {i} out of range for vertex {v}");
        self.store.chunk(loc.chunk as usize)[(loc.lo + i) as usize]
    }

    /// Overwrite `L(v)[i]`, copying the chunk first if a published snapshot
    /// still shares it (recorded in the dirty window).
    #[inline(always)]
    pub fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        let loc = self.locs[v as usize];
        debug_assert!(i < loc.len, "label index {i} out of range for vertex {v}");
        self.store.set_in_chunk(loc.chunk as usize, (loc.lo + i) as usize, d);
    }

    /// The full label of `v` (entries `0..=τ(v)` in τ order), contiguous.
    #[inline(always)]
    pub fn slice(&self, v: VertexId) -> &[Dist] {
        let loc = self.locs[v as usize];
        &self.store.chunk(loc.chunk as usize)[loc.lo as usize..(loc.lo + loc.len) as usize]
    }

    /// The flat arena, if the store is unwritten since it was built or
    /// loaded. Pass the returned slice to [`Labels::slice_flat`] to
    /// read labels with one direct offset instead of the chunk-table load.
    #[inline(always)]
    pub fn flat(&self) -> Option<&[Dist]> {
        self.store.flat_slice()
    }

    /// The full label of `v` read out of a flat `arena` previously obtained
    /// from [`Labels::flat`] on this same `Labels` value — branch-free
    /// direct-offset addressing for flat snapshots.
    #[inline(always)]
    pub fn slice_flat<'a>(&self, arena: &'a [Dist], v: VertexId) -> &'a [Dist] {
        let loc = self.locs[v as usize];
        &arena[loc.glo as usize..loc.glo as usize + loc.len as usize]
    }

    /// Whether the arena is flat: unwritten since it was built or loaded.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.store.is_flat()
    }

    /// Number of vertices with a label span (possibly empty).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.locs.len()
    }

    /// Total number of label entries.
    pub fn num_entries(&self) -> u64 {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Approximate resident bytes (arena + chunk table + layout arrays).
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
            + self.offsets.len() * 8
            + self.locs.len() * std::mem::size_of::<VertexLoc>()
    }

    // ---- copy-on-write surface, delegated (see stl_graph::cow) ----

    /// Number of arena chunks.
    pub fn num_chunks(&self) -> usize {
        self.store.num_chunks()
    }

    /// Whether chunk `c` is physically shared with `other` (same allocation).
    pub fn shares_chunk(&self, other: &Labels, c: usize) -> bool {
        self.store.shares_chunk(&other.store, c)
    }

    /// How many chunks are physically shared with `other`.
    pub fn shared_chunks_with(&self, other: &Labels) -> usize {
        self.store.shared_chunks_with(&other.store)
    }

    /// Drain the copy-on-write counters accumulated since the last drain.
    pub fn take_cow_stats(&mut self) -> CowStats {
        self.store.take_cow_stats()
    }

    /// Current window's counters without draining.
    pub fn cow_stats(&self) -> CowStats {
        self.store.cow_stats()
    }

    /// A physically independent copy (every chunk reallocated) — the cost
    /// the pre-COW publish path paid; kept for baselines and benchmarks.
    pub fn deep_clone(&self) -> Self {
        Self {
            offsets: Arc::clone(&self.offsets),
            locs: Arc::clone(&self.locs),
            store: self.store.deep_clone(),
        }
    }

    /// Open a repair phase over the arena, handed out per work unit as
    /// [`ShardLabels`] views. Copy-on-write promotions and dirty accounting
    /// behave exactly as for [`Labels::set`], but each chunk's payload is
    /// resolved once per phase instead of once per write.
    pub fn phase_writer(&mut self) -> LabelsWriter<'_> {
        LabelsWriter { locs: &self.locs, inner: self.store.phase_writer() }
    }
}

/// Uniform read/write access to label entries — implemented by the owning
/// [`Labels`] (the per-update serial driver) and by per-shard
/// [`ShardLabels`] views (the tree-grouped batch driver), so the search
/// algorithms in `label_search` and `pareto` compile once against either.
pub(crate) trait LabelAccess {
    /// `L(v)[i]`.
    fn get(&self, v: VertexId, i: u32) -> Dist;
    /// Overwrite `L(v)[i]`.
    fn set(&mut self, v: VertexId, i: u32, d: Dist);
}

impl LabelAccess for Labels {
    #[inline(always)]
    fn get(&self, v: VertexId, i: u32) -> Dist {
        Labels::get(self, v, i)
    }

    #[inline(always)]
    fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        Labels::set(self, v, i, d)
    }
}

/// One batch-repair phase over a label arena (from
/// [`Labels::phase_writer`]). Hand each work unit a [`ShardLabels`] view via
/// [`LabelsWriter::shard_view`]; copy-on-write promotions land in the arena
/// as they happen.
#[derive(Debug)]
pub struct LabelsWriter<'a> {
    locs: &'a [VertexLoc],
    inner: PhaseWriter<'a, Dist>,
}

impl<'a> LabelsWriter<'a> {
    /// A mutable view over the label region owned by `shard`.
    ///
    /// With `log = true` the view records every `(vertex, index)` it writes
    /// — the instrumentation the shard-ownership property tests consume.
    pub fn shard_view<'w>(
        &'w mut self,
        hier: &'w Hierarchy,
        shard: u32,
        log: bool,
    ) -> ShardLabels<'w, 'a> {
        ShardLabels { writer: self, hier, shard, log: log.then(Vec::new) }
    }
}

/// Mutable view over the label entries owned by one repair shard.
///
/// A shard owns the entries `(v, τ(r))` for its cut vertices `r` and
/// `v ∈ Desc(r)`. For two distinct cut vertices: if they are ⪯-comparable
/// their τ values differ (τ is injective along a chain), so the entries
/// differ in index; if incomparable, their descendant sets are disjoint, so
/// the entries differ in vertex. Shards group whole subtrees (plus the
/// spine, whose cuts are ⪯-below every subtree), hence any two shards'
/// entry sets are disjoint — which is what lets the batch driver run each
/// shard's searches as one unit, and a shard worker repair only the units
/// it owns. Every access is debug-asserted against
/// [`Hierarchy::shard_of_entry`].
#[derive(Debug)]
pub struct ShardLabels<'w, 'a> {
    writer: &'w mut LabelsWriter<'a>,
    hier: &'w Hierarchy,
    shard: u32,
    log: Option<Vec<(VertexId, u32)>>,
}

impl ShardLabels<'_, '_> {
    /// The `(vertex, index)` write log, if logging was requested.
    pub fn into_log(self) -> Vec<(VertexId, u32)> {
        self.log.unwrap_or_default()
    }
}

impl LabelAccess for ShardLabels<'_, '_> {
    #[inline(always)]
    fn get(&self, v: VertexId, i: u32) -> Dist {
        debug_assert_eq!(
            self.hier.shard_of_entry(v, i),
            self.shard,
            "shard {} read entry ({v}, {i}) it does not own",
            self.shard
        );
        let loc = self.writer.locs[v as usize];
        debug_assert!(i < loc.len);
        self.writer.inner.get_in_chunk(loc.chunk as usize, (loc.lo + i) as usize)
    }

    #[inline(always)]
    fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        debug_assert_eq!(
            self.hier.shard_of_entry(v, i),
            self.shard,
            "shard {} wrote entry ({v}, {i}) it does not own",
            self.shard
        );
        if let Some(log) = &mut self.log {
            log.push((v, i));
        }
        let loc = self.writer.locs[v as usize];
        debug_assert!(i < loc.len);
        self.writer.inner.set_in_chunk(loc.chunk as usize, (loc.lo + i) as usize, d)
    }
}

/// A complete Stable Tree Labelling index: hierarchy + labels.
///
/// The hierarchy is weight-independent ("structural stability", Remark 1)
/// and therefore immutable for the index's whole lifetime; it is held in an
/// `Arc` so cloning an index for a published epoch shares it outright.
/// Combined with the chunked [`Labels`], `Stl::clone` is `O(#chunks)`.
#[derive(Debug, Clone)]
pub struct Stl {
    pub(crate) hier: Arc<Hierarchy>,
    pub(crate) labels: Labels,
}

impl Stl {
    /// Build the index for `g` (hierarchy + labels).
    pub fn build(g: &CsrGraph, cfg: &StlConfig) -> Self {
        let hier = Hierarchy::build(g, cfg);
        Self::build_with_hierarchy(g, hier)
    }

    /// Assemble an index from externally computed parts.
    ///
    /// The caller is responsible for the label semantics: maintenance
    /// algorithms assume entries are **subgraph** distances (HC2L-style
    /// global-distance labels answer queries correctly but must not be
    /// passed to the update algorithms).
    pub fn from_parts(hier: Hierarchy, labels: Labels) -> Self {
        assert_eq!(labels.num_entries(), hier.total_label_entries());
        Stl { hier: Arc::new(hier), labels }
    }

    /// Build labels on a pre-built hierarchy (used by rebuild paths and the
    /// β-ablation which shares hierarchies): the construction kernel of
    /// [`Stl::build_with_hierarchy_parallel`] on one thread.
    pub fn build_with_hierarchy(g: &CsrGraph, hier: Hierarchy) -> Self {
        Self::build_with_hierarchy_parallel(g, hier, 1)
    }

    /// Parallel label construction over `threads` worker threads (see
    /// [`Stl::build_with_hierarchy_parallel`]).
    pub fn build_parallel(g: &CsrGraph, cfg: &StlConfig, threads: usize) -> Self {
        let hier = Hierarchy::build(g, cfg);
        Self::build_with_hierarchy_parallel(g, hier, threads)
    }

    /// Build labels on a pre-built hierarchy over `threads` workers, in
    /// place in the born-flat serving arena.
    ///
    /// One τ-restricted Dijkstra per cut vertex `r` fills `L(v)[τ(r)]` for
    /// `v ∈ Desc(r)`. The search stays inside `G[Desc(r)]` because a
    /// neighbour `n` of a vertex in `Desc(r)` lies in `Desc(r)` iff
    /// `τ(n) > τ(r)` (edge endpoints are ⪯-comparable, Lemma 5.3, and
    /// `Anc(v)` is a chain).
    ///
    /// Workers take **units** of ≤ 16 consecutive cut vertices
    /// `r_0, …, r_{k−1}` of one tree node, whose label indices are
    /// `τ(r_0), …, τ(r_0)+k−1`. A unit's searches write a per-worker
    /// vertex-major tile (row `slot[v]`, column `j` for `r_j`), and the
    /// unit ends with one contiguous copy of `min(k, τ(v)−τ(r_0)+1)`
    /// entries per settled `v` into the arena — a cache line instead of `k`
    /// scattered 4-byte writes.
    ///
    /// # Why unsynchronised arena writes are sound
    /// Cut vertex `r` owns exactly the slots `(v, τ(r))`, `v ∈ Desc(r)`.
    /// For two distinct cut vertices: if they are ⪯-comparable their τ
    /// values differ (τ is injective along a chain); if incomparable their
    /// descendant sets are disjoint. A unit's copy-back writes exactly the
    /// union of its cut vertices' slots — a vertex settled by any of the
    /// unit's searches lies in `Desc(r_0)`, hence in `Desc(r_j)` for every
    /// `τ(r_j) ≤ τ(v)` — so the slot sets of distinct units are disjoint.
    pub fn build_with_hierarchy_parallel(g: &CsrGraph, hier: Hierarchy, threads: usize) -> Self {
        let n = g.num_vertices();
        assert_eq!(n, hier.num_vertices());
        let mut arena = LabelArena::new(&hier);
        let units: Vec<&[VertexId]> = (0..hier.num_nodes() as u32)
            .flat_map(|node| hier.cut(node).chunks(UNIT_CUTS))
            .collect();
        /// The arena base, shared by the workers; see the soundness
        /// argument above.
        struct ArenaBase(*mut Dist);
        // SAFETY: workers write disjoint entries through the pointer (see
        // `build_with_hierarchy_parallel`), and the arena outlives the scope.
        unsafe impl Sync for ArenaBase {}
        let base = ArenaBase(arena.dists.as_mut_slice().as_mut_ptr());
        let (base, offsets, hier_ref, next) = (&base, &arena.offsets, &hier, AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| {
                    let mut tile = UnitTile::new(n);
                    while let Some(&unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                        tile.search(g, hier_ref, unit);
                        let t0 = hier_ref.tau(unit[0]);
                        for (s, &v) in tile.settled.iter().enumerate() {
                            let m = unit.len().min((hier_ref.tau(v) - t0) as usize + 1);
                            let row = &tile.rows[s * UNIT_CUTS..s * UNIT_CUTS + m];
                            let at = (offsets[v as usize] + t0 as u64) as usize;
                            assert!(
                                at + m <= offsets[v as usize + 1] as usize,
                                "unit overruns L({v})"
                            );
                            // SAFETY: `at..at + m` lies in `v`'s label (just
                            // checked; the offsets end at the arena's length)
                            // and belongs to this unit alone (see above).
                            unsafe {
                                std::ptr::copy_nonoverlapping(row.as_ptr(), base.0.add(at), m)
                            };
                        }
                        tile.clear();
                    }
                });
            }
        });
        Stl { hier: Arc::new(hier), labels: arena.into_labels() }
    }

    /// The underlying stable tree hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Hierarchy {
        self.hier.as_ref()
    }

    /// The label storage.
    #[inline]
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// Whether the label arena is flat: unwritten since the index was built
    /// or loaded. Queries on a flat index read labels by direct offset; the
    /// first label write makes it chunked for good.
    pub fn is_flat(&self) -> bool {
        self.labels.is_flat()
    }

    /// COW chunk count of the label arena — the denominator matching the
    /// promotions counted by [`Stl::take_cow_stats`].
    pub fn num_chunks(&self) -> usize {
        self.labels.num_chunks()
    }

    /// Number of vertices indexed.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.hier.num_vertices()
    }

    /// Drain the copy-on-write counters of the label arena — one publish
    /// window's worth of chunk promotions (see `stl_graph::cow`).
    pub fn take_cow_stats(&mut self) -> CowStats {
        self.labels.take_cow_stats()
    }

    /// Current window's copy-on-write counters without draining them.
    pub fn cow_stats(&self) -> CowStats {
        self.labels.cow_stats()
    }

    /// A physically independent copy: hierarchy reallocated, every label
    /// chunk reallocated — what the pre-COW publish path paid per epoch.
    pub fn deep_clone(&self) -> Self {
        Stl { hier: Arc::new((*self.hier).clone()), labels: self.labels.deep_clone() }
    }
}

/// Cut vertices per construction unit: with `u32` entries, the copy-back of
/// one settled vertex is one cache line (8 measured the same).
const UNIT_CUTS: usize = 16;

/// `UnitTile::slot` of a vertex no search of the current unit has settled.
const NO_SLOT: u32 = u32::MAX;

/// One construction worker's scratch: Dijkstra state plus the vertex-major
/// tile a unit's searches write before the copy-back into the arena.
struct UnitTile {
    dist: TimestampedArray<Dist>,
    heap: BinaryHeap<Reverse<(Dist, VertexId)>>,
    /// Tile row of each vertex settled in this unit, else `NO_SLOT`.
    slot: Vec<u32>,
    /// Settled vertices in first-settle order: `settled[s]` owns row `s`.
    settled: Vec<VertexId>,
    /// `UNIT_CUTS` entries per row; `INF` where the unit's search did not
    /// reach the vertex.
    rows: Vec<Dist>,
}

impl UnitTile {
    fn new(n: usize) -> Self {
        Self {
            dist: TimestampedArray::new(n, INF),
            heap: BinaryHeap::new(),
            slot: vec![NO_SLOT; n],
            settled: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The τ-restricted Dijkstra of every cut vertex of `unit`, `unit[j]`
    /// writing column `j`.
    fn search(&mut self, g: &CsrGraph, hier: &Hierarchy, unit: &[VertexId]) {
        for (j, &r) in unit.iter().enumerate() {
            let tr = hier.tau(r);
            self.dist.reset();
            self.heap.clear();
            self.dist.set(r as usize, 0);
            self.heap.push(Reverse((0, r)));
            while let Some(Reverse((d, v))) = self.heap.pop() {
                if d > self.dist.get(v as usize) {
                    continue;
                }
                let mut s = self.slot[v as usize];
                if s == NO_SLOT {
                    s = self.settled.len() as u32;
                    self.slot[v as usize] = s;
                    self.settled.push(v);
                    self.rows.extend([INF; UNIT_CUTS]);
                }
                self.rows[s as usize * UNIT_CUTS + j] = d;
                let (ts, ws) = g.neighbor_slices(v);
                for (&nb, &w) in ts.iter().zip(ws) {
                    if w == INF || hier.tau(nb) <= tr {
                        continue;
                    }
                    let nd = dist_add(d, w);
                    if nd < self.dist.get(nb as usize) {
                        self.dist.set(nb as usize, nd);
                        self.heap.push(Reverse((nd, nb)));
                    }
                }
            }
        }
    }

    /// Forget the unit's rows (after its copy-back).
    fn clear(&mut self) {
        for &v in &self.settled {
            self.slot[v as usize] = NO_SLOT;
        }
        self.settled.clear();
        self.rows.clear();
    }
}

#[doc(hidden)] // compat; sole reader benchmark/src/world.rs; delete with the next `[benchmark]` issue
pub struct SpineIndex;
#[doc(hidden)] // compat; sole reader benchmark/src/world.rs; delete with the next `[benchmark]` issue
pub enum DeepArena {}
impl SpineIndex {
    pub fn lanes(&self) -> usize {
        0
    }
    pub fn memory_bytes(&self) -> usize {
        0
    }
}
impl DeepArena {
    pub fn memory_bytes(&self) -> usize {
        match *self {}
    }
}
#[doc(hidden)] // compat; sole reader benchmark/src/world.rs
impl Stl {
    /// Always 0: an index is flat from build or load until its first write,
    /// and nothing re-flattens it. Stays only because the frozen benchmark
    /// harness calls it on a fresh build — delete with the next
    /// `[benchmark]` issue.
    pub fn compact(&mut self) -> u64 {
        0
    }
    pub fn spine(&self) -> &SpineIndex {
        &SpineIndex
    }
    pub fn deep_arena(&self) -> Option<&DeepArena> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;
    use stl_pathfinding::dijkstra;

    fn grid(side: u32, w: u32) -> CsrGraph {
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), w + x + y));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), w + 2 * x + y));
                }
            }
        }
        from_edges((side * side) as usize, edges)
    }

    #[test]
    fn self_label_entry_is_zero() {
        let g = grid(6, 3);
        let stl = Stl::build(&g, &StlConfig::default());
        for v in 0..36u32 {
            let tau = stl.hierarchy().tau(v);
            assert_eq!(stl.labels().get(v, tau), 0, "L(v)[τ(v)] must be 0");
        }
    }

    #[test]
    fn label_entries_upper_bound_global_distance() {
        // Subgraph distances dominate global distances: δ_vw ≥ d_G(v, w).
        let g = grid(5, 2);
        let stl = Stl::build(&g, &StlConfig::default());
        for v in 0..25u32 {
            let oracle = dijkstra::single_source(&g, v);
            let mut checked = 0;
            stl.hierarchy().for_each_ancestor_inclusive(v, |r, i| {
                let entry = stl.labels().get(v, i);
                assert!(entry >= oracle[r as usize], "entry below true distance");
                checked += 1;
            });
            assert_eq!(checked, stl.hierarchy().anc_count(v));
        }
    }

    #[test]
    fn arena_layout_contiguous() {
        let g = grid(4, 1);
        let stl = Stl::build(&g, &StlConfig::default());
        let mut total = 0u64;
        for v in 0..16u32 {
            let s = stl.labels().slice(v);
            assert_eq!(s.len() as u32, stl.hierarchy().anc_count(v));
            total += s.len() as u64;
        }
        assert_eq!(total, stl.labels().num_entries());
        assert_eq!(total, stl.hierarchy().total_label_entries());
    }

    #[test]
    fn line_graph_labels_exact() {
        // On a path the subgraph distance to an ancestor equals the global
        // one whenever the ancestor is reachable within its subgraph.
        let g = from_edges(8, (0..7).map(|i| (i, i + 1, i + 1)).collect::<Vec<_>>());
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        for v in 0..8u32 {
            let tau = stl.hierarchy().tau(v);
            assert_eq!(stl.labels().get(v, tau), 0);
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = grid(9, 4);
        let cfg = StlConfig::default();
        let seq = Stl::build(&g, &cfg);
        for threads in [1usize, 2, 4, 7] {
            let par = Stl::build_parallel(&g, &cfg, threads);
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(
                    seq.labels().slice(v),
                    par.labels().slice(v),
                    "threads={threads}, vertex {v}"
                );
            }
        }
    }

    #[test]
    fn tile_boundaries_split_cuts_exactly() {
        // A 48×48 grid's upper cuts are wider than one unit, so units split
        // cuts and the last unit of a cut is partial: the labels must be
        // exact, and every thread count must build the same arena.
        let g = grid(48, 3);
        let hier = Hierarchy::build(&g, &StlConfig::default());
        let cuts: Vec<usize> = (0..hier.num_nodes() as u32).map(|x| hier.cut(x).len()).collect();
        assert!(cuts.iter().any(|&c| c > UNIT_CUTS && c % UNIT_CUTS != 0), "cuts {cuts:?}");
        let serial = Stl::build_with_hierarchy(&g, hier.clone());
        crate::verify::check_labels_exact(&serial, &g).unwrap();
        for threads in [2usize, 3, 4] {
            let par = Stl::build_with_hierarchy_parallel(&g, hier.clone(), threads);
            assert_eq!(par.labels().flat(), serial.labels().flat(), "threads={threads}");
        }
    }

    #[test]
    fn built_index_is_born_flat() {
        let g = grid(9, 4);
        let cfg = StlConfig::default();
        let built = Stl::build(&g, &cfg);
        let loaded = crate::persist::load(&crate::persist::save(&built)).unwrap();
        let mut cases = vec![("build".to_string(), built), ("load".to_string(), loaded)];
        for t in [1usize, 2, 4, 7] {
            cases.push((format!("build_parallel({t})"), Stl::build_parallel(&g, &cfg, t)));
        }
        for (name, stl) in cases {
            // The arena is every label in vertex order, back to back.
            let labels = stl.labels();
            let concat: Vec<Dist> = (0..stl.num_vertices() as VertexId)
                .flat_map(|v| labels.slice(v))
                .copied()
                .collect();
            assert!(stl.is_flat(), "{name}");
            assert_eq!(labels.flat(), Some(concat.as_slice()), "{name}");
            assert_eq!(stl.cow_stats(), CowStats::default(), "{name}");
            crate::verify::check_all(&stl, &g).unwrap();
        }
    }

    #[test]
    fn chunked_clone_shares_untouched_chunks() {
        // Tiny chunks make the sharing boundary precise: 16 vertices, 4
        // entries per chunk target → several chunks.
        let g = grid(4, 1);
        let built = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let flat = built.labels().flat().expect("born flat");
        let mut labels =
            Labels::from_arena(built.labels().offsets.to_vec(), AlignedBuf::copy_of(flat), 4);
        assert!(labels.num_chunks() >= 4, "want several chunks, got {}", labels.num_chunks());
        let snapshot = labels.clone();
        assert_eq!(labels.shared_chunks_with(&snapshot), labels.num_chunks());

        // One write: exactly one chunk is promoted, the rest stay ptr_eq.
        let before = labels.get(7, 0);
        labels.set(7, 0, before.saturating_add(1));
        assert_eq!(labels.shared_chunks_with(&snapshot), labels.num_chunks() - 1);
        let touched = (0..labels.num_chunks())
            .find(|&c| !labels.shares_chunk(&snapshot, c))
            .expect("one chunk promoted");
        assert!(labels.cow_stats().bytes_copied > 0);
        assert_eq!(labels.cow_stats().chunks_copied, 1);
        assert_eq!(snapshot.get(7, 0), before, "snapshot unaffected by the write");

        // Second write to the same chunk: already private, no new copy.
        labels.set(7, 0, before);
        assert_eq!(labels.take_cow_stats().chunks_copied, 1);

        // Draining resets the window; an untouched clone shares again except
        // the promoted chunk.
        let second = labels.clone();
        assert_eq!(second.shared_chunks_with(&labels), labels.num_chunks());
        assert!(!snapshot.shares_chunk(&labels, touched));
    }

    #[test]
    fn writes_without_snapshot_are_in_place() {
        // The first write to a born-flat index promotes exactly its chunk
        // out of the arena; with no snapshot holding it, the next write to
        // that chunk is in place. (A single-chunk arena has nothing to
        // promote out of: its one view becomes private and is written in
        // place from the start.)
        let g = grid(24, 2);
        let mut stl = Stl::build(&g, &StlConfig::default());
        assert!(stl.num_chunks() > 1);
        let v = 3u32;
        let old = stl.labels().get(v, 0);
        stl.labels.set(v, 0, old.saturating_add(7));
        assert!(!stl.is_flat());
        assert_eq!(stl.take_cow_stats().chunks_copied, 1);
        stl.labels.set(v, 0, old);
        assert_eq!(stl.cow_stats(), CowStats::default(), "private chunk: written in place");
    }

    #[test]
    fn slices_stay_contiguous_across_chunk_layout() {
        // slice() must agree with get() entry-for-entry for every vertex —
        // the vertex-aligned chunk invariant that keeps queries zero-cost.
        let g = grid(7, 3);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        for v in 0..49u32 {
            let s = stl.labels().slice(v);
            for (i, &d) in s.iter().enumerate() {
                assert_eq!(d, stl.labels().get(v, i as u32), "vertex {v} entry {i}");
            }
        }
    }

    #[test]
    fn deep_clone_shares_no_chunks() {
        let g = grid(4, 2);
        let stl = Stl::build(&g, &StlConfig::default());
        let deep = stl.deep_clone();
        assert_eq!(deep.labels().shared_chunks_with(stl.labels()), 0);
        for v in 0..16u32 {
            assert_eq!(deep.labels().slice(v), stl.labels().slice(v));
        }
    }

    #[test]
    fn disconnected_graph_labels_inf_across() {
        let g = from_edges(4, vec![(0, 1, 5), (2, 3, 7)]);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        // Vertices keep their own component's distances; no panic, and the
        // query layer returns INF across components (tested in query.rs).
        assert_eq!(stl.num_vertices(), 4);
    }
}
