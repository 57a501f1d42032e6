//! Stable Tree Labelling construction (Definition 4.6).
//!
//! The label of `v` is the distance array `L(v) = [δ_{v,w_1}, …, δ_{v,w_k}]`
//! over `Anc(v) = {w_1 ⪯ … ⪯ w_k}` where — crucially — `δ_{v,w} = d^w(v, w)`
//! is the distance **within the subgraph `G[Desc(w)]`**, not in `G`. This
//! restriction is what limits how many labels an edge update can touch.
//!
//! # Label blocks
//!
//! Every label is stored as 16-entry blocks aligned on the label index:
//! block `b` of `L(v)` holds entries `16b .. 16b+16` as one [`LabelBlock`]
//! `{ base: u32, off: [u16; 16] }` of 36 bytes.
//!
//! - `base` is the block's smallest finite entry (0 if it has none).
//! - `off[j] = entry − base` when that is ≤ `0xFFFD`.
//! - `0xFFFF` means `INF`. It also pads the lanes past `τ(v)`.
//! - `0xFFFE` is an escape: the entry is above `base + 0xFFFD`, and its
//!   exact value lives in the **escape table** of the chunk that holds the
//!   block, keyed by the block's chunk-local index × 16 + lane.
//!
//! Consecutive entries of a label are distances to consecutive ancestors,
//! which sit close together in the hierarchy, so a block's spread rarely
//! needs more than 16 bits: a label costs 36 B per 16 entries instead of
//! 64, and under 1 % of entries escape on a 65 536-vertex road network.
//! The encoding is canonical — a function of the block's 16 entries alone
//! ([`LabelBlock::encode`]). A write that moves the block minimum
//! re-derives `base` and re-encodes the block, so a repaired block equals a
//! rebuilt one byte for byte, and so do the escape tables.
//!
//! # Storage
//!
//! The blocks live in one 64-byte-aligned arena with per-vertex block
//! offsets, filled in place by the builder and wrapped without a copy as
//! vertex-aligned ~16 KiB chunk views: the blocks a query compares are
//! consecutive in memory (§4's caching argument), and each chunk sits
//! behind an `Arc`, in pages of `stl_graph::cow::PAGE` chunks behind one
//! `Arc` each, for copy-on-write epoch publishing (see `stl_graph::cow`).
//! Each chunk's escape table sits behind its own `Arc` in a page table of
//! the same shape, and is copied on write — with its page — only by a write
//! that edits it. An index is therefore **born flat**, and stays flat until
//! its first label write, which promotes the written chunk out of the arena
//! and leaves the index chunked for good.
//!
//! Batch repair writes through a `LabelsWriter` phase, which resolves each
//! chunk it touches once.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stl_graph::cow::{AlignedBuf, ChunkedStore, CowStats, Paged, PhaseWriter, Pod};
use stl_graph::{CsrGraph, Dist, VertexId, Weight, INF};

use crate::hierarchy::Hierarchy;
use crate::types::StlConfig;

/// Entries per label block — also the label indices one construction unit
/// fills.
pub const BLOCK: usize = 16;

/// Offset of an `INF` entry, and of the padding lanes past `τ(v)`.
pub(crate) const INF_OFF: u16 = 0xFFFF;

/// Offset of an escaped entry, whose exact value is in the escape table.
pub(crate) const ESC_OFF: u16 = 0xFFFE;

/// Largest offset a lane stores inline.
const MAX_OFF: Dist = 0xFFFD;

/// Blocks per chunk: about 16 KiB, the chunk size measured best for
/// copy-on-write publishing (see `stl_graph::cow::DEFAULT_CHUNK_ENTRIES`).
const CHUNK_BLOCKS: u64 = (16 * 1024 / std::mem::size_of::<LabelBlock>()) as u64;

/// Sixteen consecutive entries of one label: a `u32` base and sixteen
/// `u16` offsets (see the module docs for the format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct LabelBlock {
    /// The block's smallest finite entry, or 0 if it has none.
    pub base: u32,
    /// `entry − base`, or `0xFFFF` (`INF`) or `0xFFFE` (escaped).
    pub off: [u16; BLOCK],
}

// SAFETY: `repr(C)` with a `u32` followed by `u16`s is 36 bytes without
// padding, every bit pattern is a valid value, and the alignment is 4.
unsafe impl Pod for LabelBlock {}

impl LabelBlock {
    /// A block of sixteen `INF` entries.
    pub(crate) const INF: Self = LabelBlock { base: 0, off: [INF_OFF; BLOCK] };

    /// The canonical encoding of `entries`. A lane left at `0xFFFE` stands
    /// for `entries[lane]`, which the caller keeps in an escape table.
    pub fn encode(entries: &[Dist; BLOCK]) -> Self {
        let min = entries.iter().fold(INF, |m, &d| m.min(d));
        let base = if min == INF { 0 } else { min };
        let off = entries.map(|d| match d.wrapping_sub(base) {
            _ if d == INF => INF_OFF,
            x if x <= MAX_OFF => x as u16,
            _ => ESC_OFF,
        });
        LabelBlock { base, off }
    }

    /// Lane `j`'s entry; `escaped` supplies it when the lane is escaped.
    #[inline(always)]
    pub(crate) fn entry(&self, j: usize, escaped: impl FnOnce() -> Dist) -> Dist {
        match self.off[j] {
            INF_OFF => INF,
            ESC_OFF => escaped(),
            o => self.base + Dist::from(o),
        }
    }

    /// All sixteen entries; `escaped(j)` supplies escaped lane `j`.
    pub(crate) fn decode(&self, escaped: impl Fn(usize) -> Dist) -> [Dist; BLOCK] {
        std::array::from_fn(|j| self.entry(j, || escaped(j)))
    }

    /// The escaped lanes as a bit mask.
    fn escape_mask(&self) -> u16 {
        (0..BLOCK).fold(0, |m, j| m | u16::from(self.off[j] == ESC_OFF) << j)
    }

    /// Overwrite lane `j` with `d`, keeping the block canonical: in place
    /// when the base stays the block minimum and neither value escapes,
    /// else by re-encoding all sixteen entries (`escaped(l)` supplies the
    /// old value of escaped lane `l`). Returns the escape-table edit the
    /// re-encoding needs, if the block held or now holds an escape.
    fn write(&mut self, j: usize, d: Dist, escaped: impl Fn(usize) -> Dist) -> Option<EscapeEdit> {
        let old = self.off[j];
        let inline = match d {
            INF => Some(INF_OFF),
            _ if d >= self.base && d - self.base <= MAX_OFF => Some((d - self.base) as u16),
            _ => None,
        };
        if let Some(o) = inline {
            // A finite non-zero old offset proves another lane holds the
            // base; otherwise look for one.
            let keeps_min = o == 0
                || (old != 0 && old < ESC_OFF)
                || (0..BLOCK).any(|l| l != j && self.off[l] == 0);
            if old != ESC_OFF && keeps_min {
                self.off[j] = o;
                return None;
            }
        }
        let mut entries = self.decode(escaped);
        entries[j] = d;
        let old_mask = self.escape_mask();
        *self = Self::encode(&entries);
        let new_mask = self.escape_mask();
        (old_mask | new_mask != 0).then_some(EscapeEdit { entries, old: old_mask, new: new_mask })
    }
}

/// The escape-table change of one re-encoded block: the lanes escaped
/// before and after, and the block's entries (the values of the new ones).
struct EscapeEdit {
    entries: [Dist; BLOCK],
    old: u16,
    new: u16,
}

impl EscapeEdit {
    /// Each lane whose escape-table entry changes: `Some(value)` if the lane
    /// is escaped now, `None` if its entry must go.
    fn lanes(&self) -> impl Iterator<Item = (usize, Option<Dist>)> + '_ {
        (0..BLOCK)
            .filter(|l| (self.old | self.new) & 1 << l != 0)
            .map(|l| (l, (self.new & 1 << l != 0).then_some(self.entries[l])))
    }
}

/// One chunk's escape table: the exact values of its escaped entries as
/// `(key, value)`, sorted by key = chunk-local block index × 16 + lane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Escapes(Vec<(u32, Dist)>);

impl Escapes {
    /// The exact value behind escaped key `key`.
    #[inline]
    fn get(&self, key: u32) -> Dist {
        match self.0.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => self.0[i].1,
            Err(_) => panic!("escaped entry {key} has no escape-table value"),
        }
    }

    /// Apply a re-encoded block's edit; its first key is `key0`.
    fn apply(&mut self, key0: u32, edit: &EscapeEdit) {
        for (lane, value) in edit.lanes() {
            let key = key0 + lane as u32;
            match (self.0.binary_search_by_key(&key, |e| e.0), value) {
                (Ok(i), Some(d)) => self.0[i].1 = d,
                (Ok(i), None) => {
                    self.0.remove(i);
                }
                (Err(i), Some(d)) => self.0.insert(i, (key, d)),
                (Err(_), None) => {}
            }
        }
    }

    /// Number of escaped entries.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The `(key, value)` pairs in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, Dist)> + '_ {
        self.0.iter().copied()
    }
}

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
    /// Chunk-local index of the label's first block.
    lo: u32,
    /// Label length in entries (`τ(v) + 1`).
    len: u32,
    /// Global index of the label's first block — the direct offset into a
    /// flat arena. Saturated at `u32::MAX` for arenas beyond 2³²−1 blocks,
    /// which are therefore never flat (see [`Labels::from_arena`]).
    glo: u32,
}

impl VertexLoc {
    /// Number of blocks of the label.
    #[inline(always)]
    fn blocks(&self) -> usize {
        (self.len as usize).div_ceil(BLOCK)
    }
}

/// First block of each label of `lens` entries, then the block count.
pub(crate) fn block_offsets(lens: &[u32]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(lens.len() + 1);
    let mut acc = 0u64;
    for &len in lens {
        offsets.push(acc);
        acc += (len as u64).div_ceil(BLOCK as u64);
    }
    offsets.push(acc);
    offsets
}

/// A label arena being filled: `⌈(τ(v)+1)/16⌉` all-`INF` blocks per vertex
/// in one 64-byte-aligned buffer, addressed as `L(v)[i]`, plus the escaped
/// entries by global key (block × 16 + lane). Every label builder (STL, its
/// directed extension, the HC2L baseline) fills one of these;
/// [`LabelArena::into_labels`] wraps the buffer in place as a born-flat
/// [`Labels`].
#[derive(Debug)]
pub struct LabelArena {
    /// Label length of each vertex, in entries.
    pub(crate) lens: Vec<u32>,
    /// First block of each vertex; `offsets[n]` is the block count.
    pub(crate) offsets: Vec<u64>,
    pub(crate) blocks: AlignedBuf<LabelBlock>,
    pub(crate) escapes: BTreeMap<u64, Dist>,
}

impl LabelArena {
    /// An all-`INF` arena sized for `hier`'s labels.
    pub fn new(hier: &Hierarchy) -> Self {
        let lens: Vec<u32> =
            (0..hier.num_vertices() as VertexId).map(|v| hier.anc_count(v)).collect();
        Self::with_lens(lens)
    }

    /// An all-`INF` arena for labels of `lens` entries.
    pub(crate) fn with_lens(lens: Vec<u32>) -> Self {
        let offsets = block_offsets(&lens);
        let blocks = AlignedBuf::filled(offsets[lens.len()] as usize, LabelBlock::INF);
        Self { lens, offsets, blocks, escapes: BTreeMap::new() }
    }

    /// `L(v)[i]`.
    #[inline]
    pub fn get(&self, v: VertexId, i: u32) -> Dist {
        let (at, j) = self.at(v, i);
        let key = at * BLOCK as u64 + j as u64;
        self.blocks.as_slice()[at as usize].entry(j, || self.escapes[&key])
    }

    /// Overwrite `L(v)[i]`.
    #[inline]
    pub fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        let (at, j) = self.at(v, i);
        let key0 = at * BLOCK as u64;
        let escapes = &mut self.escapes;
        let block = &mut self.blocks.as_mut_slice()[at as usize];
        if let Some(edit) = block.write(j, d, |l| escapes[&(key0 + l as u64)]) {
            for (lane, value) in edit.lanes() {
                let key = key0 + lane as u64;
                match value {
                    Some(d) => escapes.insert(key, d),
                    None => escapes.remove(&key),
                };
            }
        }
    }

    /// Global block index and lane of `L(v)[i]`.
    #[inline(always)]
    fn at(&self, v: VertexId, i: u32) -> (u64, usize) {
        debug_assert!(i < self.lens[v as usize], "label index {i} out of range for vertex {v}");
        (self.offsets[v as usize] + (i as usize / BLOCK) as u64, i as usize % BLOCK)
    }

    /// The filled arena as the index's label storage, without a copy.
    pub fn into_labels(self) -> Labels {
        Labels::from_arena(self.lens, &self.offsets, self.blocks, self.escapes, CHUNK_BLOCKS)
    }
}

/// Label storage: `L(v)[i]` for `i ∈ 0..=τ(v)`, as [`LabelBlock`]s.
///
/// The flat block arena behind a vertex-aligned [`ChunkedStore`]:
/// [`Labels::blocks`] returns one contiguous `&[LabelBlock]` per vertex
/// (boundaries never split a label), `clone` copies one pointer per page of
/// [`PAGE`](stl_graph::cow::PAGE) chunks (and one per page of escape
/// tables) and shares every byte, and a repair write copies a chunk at most
/// once per publish window when a snapshot still shares it. This
/// type adds the per-vertex location layer and the per-chunk escape tables
/// on top of the store.
#[derive(Debug, Clone)]
pub struct Labels {
    locs: Arc<[VertexLoc]>,
    pub(crate) store: ChunkedStore<LabelBlock>,
    /// One escape table per chunk, paged like the chunks, each table
    /// copied on write like its chunk.
    escapes: Paged<Arc<Escapes>>,
    /// Total label entries `Σ (τ(v)+1)`.
    entries: u64,
}

impl Labels {
    /// The one wrap point of a filled arena: label `v` has `lens[v]`
    /// entries in blocks `offsets[v]..offsets[v+1]`, and `escapes` holds
    /// every escaped entry by global key (block × 16 + lane) in key order.
    /// Chunk views of about `target` blocks into `blocks`, flat unless the
    /// arena has more than `u32::MAX` blocks — the per-vertex direct
    /// offsets are 32-bit.
    pub(crate) fn from_arena(
        lens: Vec<u32>,
        offsets: &[u64],
        blocks: AlignedBuf<LabelBlock>,
        escapes: impl IntoIterator<Item = (u64, Dist)>,
        target: u64,
    ) -> Self {
        let flat = blocks.len() as u64 <= u32::MAX as u64;
        let store = ChunkedStore::from_arena(offsets, blocks, target, flat);
        let (chunk_of, chunk_starts) = store.layout();
        let locs: Vec<VertexLoc> = lens
            .iter()
            .enumerate()
            .map(|(v, &len)| {
                let c = chunk_of[v];
                VertexLoc {
                    chunk: c,
                    lo: (offsets[v] - chunk_starts[c as usize]) as u32,
                    len,
                    glo: offsets[v].min(u32::MAX as u64) as u32,
                }
            })
            .collect();
        let mut tables = vec![Escapes::default(); store.num_chunks()];
        let mut c = 0;
        for (key, value) in escapes {
            let block = key / BLOCK as u64;
            while chunk_starts[c + 1] <= block {
                c += 1;
            }
            let local = (block - chunk_starts[c]) * BLOCK as u64 + key % BLOCK as u64;
            tables[c].0.push((local as u32, value));
        }
        let empty = Arc::new(Escapes::default());
        let escapes = tables
            .into_iter()
            .map(|t| if t.0.is_empty() { Arc::clone(&empty) } else { Arc::new(t) })
            .collect();
        let entries = lens.iter().map(|&l| l as u64).sum();
        Self { locs: locs.into(), store, escapes, entries }
    }

    /// `L(v)[i] = d^{w_i}(v, w_i)` — distance to the `i`-th ancestor within
    /// its subgraph.
    #[inline]
    pub fn get(&self, v: VertexId, i: u32) -> Dist {
        let loc = self.locs[v as usize];
        debug_assert!(i < loc.len, "label index {i} out of range for vertex {v}");
        let block = &self.store.chunk(loc.chunk as usize)[(loc.lo + i / BLOCK as u32) as usize];
        block.entry(i as usize % BLOCK, || self.escape(v, i as usize))
    }

    /// Overwrite `L(v)[i]`, copying the chunk (and its escape table, if the
    /// write changes it) first if a published snapshot still shares it.
    /// Tests only: repairs write through [`Labels::phase_writer`].
    #[cfg(test)]
    pub(crate) fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        let loc = self.locs[v as usize];
        debug_assert!(i < loc.len, "label index {i} out of range for vertex {v}");
        let (c, b) = (loc.chunk as usize, loc.lo + i / BLOCK as u32);
        let mut writer = self.store.phase_writer();
        let block = writer.get_mut_in_chunk(c, b as usize);
        write_entry(block, &mut self.escapes, c, b, i as usize % BLOCK, d);
    }

    /// The exact value of escaped entry `L(v)[i]` — the rare fix-up of the
    /// query kernel. Escape tables do not depend on the layout, so this
    /// serves flat and chunked reads alike.
    #[inline]
    pub(crate) fn escape(&self, v: VertexId, i: usize) -> Dist {
        let loc = self.locs[v as usize];
        self.escapes.get(loc.chunk as usize).get(loc.lo * BLOCK as u32 + i as u32)
    }

    /// The blocks of `v`'s label, contiguous, through the chunk table.
    #[inline(always)]
    pub fn blocks(&self, v: VertexId) -> &[LabelBlock] {
        let loc = self.locs[v as usize];
        let lo = loc.lo as usize;
        &self.store.chunk(loc.chunk as usize)[lo..lo + loc.blocks()]
    }

    /// The full label of `v`, decoded (entries `0..=τ(v)` in τ order).
    #[doc(hidden)] // compat for benchmark/src/ladder.rs; tests also compare decoded labels with it — make it test-only with the next `[benchmark]` change
    pub fn slice(&self, v: VertexId) -> Vec<Dist> {
        (0..self.locs[v as usize].len).map(|i| self.get(v, i)).collect()
    }

    /// The flat block arena, if the store is unwritten since it was built
    /// or loaded. Pass the returned slice to [`Labels::blocks_flat`] to
    /// read labels with one direct offset instead of the chunk-table load.
    #[inline(always)]
    pub fn flat(&self) -> Option<&[LabelBlock]> {
        self.store.flat_slice()
    }

    /// The blocks of `v`'s label read out of a flat `arena` previously
    /// obtained from [`Labels::flat`] on this same `Labels` value —
    /// branch-free direct-offset addressing for flat snapshots.
    #[inline(always)]
    pub fn blocks_flat<'a>(&self, arena: &'a [LabelBlock], v: VertexId) -> &'a [LabelBlock] {
        let loc = self.locs[v as usize];
        &arena[loc.glo as usize..loc.glo as usize + loc.blocks()]
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
        self.entries
    }

    /// Number of escaped entries, whose exact values live in the escape
    /// tables.
    pub fn num_escapes(&self) -> usize {
        self.escapes.iter().map(|t| t.len()).sum()
    }

    /// Resident bytes: the blocks with their chunk table, the escape
    /// tables with theirs (by length, so the figure repeats exactly) and
    /// the per-vertex location arrays.
    pub fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
            + self.escapes.memory_bytes()
            + self.num_escapes() * std::mem::size_of::<(u32, Dist)>()
            + self.locs.len() * std::mem::size_of::<VertexLoc>()
    }

    /// Chunk `c`'s escape table.
    pub(crate) fn chunk_escapes(&self, c: usize) -> &Escapes {
        self.escapes.get(c)
    }

    /// Every escaped entry as `(global key, value)` in key order, the key
    /// being global block index × 16 + lane.
    pub(crate) fn global_escapes(&self) -> impl Iterator<Item = (u64, Dist)> + '_ {
        let starts = self.store.layout().1;
        self.escapes.iter().enumerate().flat_map(move |(c, t)| {
            let key0 = starts[c] * BLOCK as u64;
            t.iter().map(move |(k, d)| (key0 + k as u64, d))
        })
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

    /// A physically independent copy (every chunk and escape table
    /// reallocated) — the cost the pre-COW publish path paid; kept for
    /// baselines and benchmarks.
    pub fn deep_clone(&self) -> Self {
        Self {
            locs: Arc::clone(&self.locs),
            store: self.store.deep_clone(),
            escapes: self.escapes.iter().map(|t| Arc::new((**t).clone())).collect(),
            entries: self.entries,
        }
    }

    /// Open a repair phase over the arena, the one way labels are written
    /// outside tests. A write copies its chunk (and the chunk's escape
    /// table, if the write changes it) first if a published snapshot still
    /// shares it; each chunk's payload is resolved once per phase.
    pub(crate) fn phase_writer(&mut self) -> LabelsWriter<'_> {
        LabelsWriter {
            locs: &self.locs,
            escapes: &mut self.escapes,
            inner: self.store.phase_writer(),
        }
    }
}

/// Write `d` into lane `j` of `block`, block `b` of chunk `c`, keeping the
/// chunk's escape table in `escapes` in step. Only a write that edits the
/// table copies it — and its page — if a snapshot still shares them.
#[inline]
fn write_entry(
    block: &mut LabelBlock,
    escapes: &mut Paged<Arc<Escapes>>,
    c: usize,
    b: u32,
    j: usize,
    d: Dist,
) {
    let key0 = b * BLOCK as u32;
    if let Some(edit) = block.write(j, d, |l| escapes.get(c).get(key0 + l as u32)) {
        Arc::make_mut(escapes.make_mut(c)).apply(key0, &edit);
    }
}

/// One batch-repair phase over a label arena (from
/// [`Labels::phase_writer`]): the repair searches read and write entries
/// through it, and copy-on-write promotions land in the arena as they
/// happen.
#[derive(Debug)]
pub(crate) struct LabelsWriter<'a> {
    locs: &'a [VertexLoc],
    escapes: &'a mut Paged<Arc<Escapes>>,
    inner: PhaseWriter<'a, LabelBlock>,
}

impl LabelsWriter<'_> {
    /// `L(v)[i]`.
    #[inline(always)]
    pub(crate) fn get(&self, v: VertexId, i: u32) -> Dist {
        let loc = self.locs[v as usize];
        debug_assert!(i < loc.len);
        let (c, b) = (loc.chunk as usize, loc.lo + i / BLOCK as u32);
        let block = self.inner.get_in_chunk(c, b as usize);
        block.entry(i as usize % BLOCK, || self.escapes.get(c).get(loc.lo * BLOCK as u32 + i))
    }

    /// Overwrite `L(v)[i]`.
    #[inline(always)]
    pub(crate) fn set(&mut self, v: VertexId, i: u32, d: Dist) {
        let loc = self.locs[v as usize];
        debug_assert!(i < loc.len);
        let (c, b) = (loc.chunk as usize, loc.lo + i / BLOCK as u32);
        let block = self.inner.get_mut_in_chunk(c, b as usize);
        write_entry(block, self.escapes, c, b, i as usize % BLOCK, d);
    }
}

/// A complete Stable Tree Labelling index: hierarchy + labels.
///
/// The hierarchy is weight-independent ("structural stability", Remark 1)
/// and therefore immutable for the index's whole lifetime; it is held in an
/// `Arc` so cloning an index for a published epoch shares it outright.
/// Combined with the chunked [`Labels`], `Stl::clone` is `O(#chunks / PAGE)`
/// pointer copies (see [`Labels`]).
#[derive(Debug, Clone)]
pub struct Stl {
    pub(crate) hier: Arc<Hierarchy>,
    pub(crate) labels: Labels,
}

impl Stl {
    /// Build the index for `g`: the hierarchy on every core
    /// ([`Hierarchy::build`]), the labels on the calling thread.
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

    /// Build the index on at most `threads` threads: both the hierarchy
    /// (see [`Hierarchy::build`]) and the labels (see
    /// [`Stl::build_with_hierarchy_parallel`]). The index does not depend on
    /// `threads`.
    pub fn build_parallel(g: &CsrGraph, cfg: &StlConfig, threads: usize) -> Self {
        let hier = Hierarchy::build_on(g, cfg, threads);
        Self::build_with_hierarchy_parallel(g, hier, threads)
    }

    /// Build labels on a pre-built hierarchy over `threads` workers, in place
    /// in the born-flat serving arena.
    ///
    /// Entry `L(v)[τ(r)]` is the distance from `r` to `v` inside `G[Desc(r)]`.
    /// A search from `r` stays inside `G[Desc(r)]` if it enters only vertices
    /// `n` with `τ(n) > τ(r)`: a neighbour of a vertex in `Desc(r)` lies in
    /// `Desc(r)` iff its τ exceeds `τ(r)` (edge endpoints are ⪯-comparable,
    /// Lemma 5.3, and `Anc(v)` is a chain).
    ///
    /// Workers take **units** `(k, t)`: every cut vertex `r` with
    /// `⌊τ(r)/16⌋ = k` whose root path passes through tree node `t`, the node
    /// whose cut holds label index `16k`. One unit fills block `k` — label
    /// indices `16k .. 16k+16` — of every vertex it reaches with **one 16-lane
    /// search**. Lane `ℓ` carries the distances from the unit's cut vertices
    /// with `τ = 16k + ℓ`. The search state is a per-worker vertex-major tile:
    /// row `slot[v]` holds `v`'s 16 lane distances, and a vertex gets a row
    /// only when some lane reaches it. The unit ends by encoding each row as
    /// block `k` of its vertex's label, straight into the arena. No `u32` copy
    /// of the labels is ever allocated; escaped entries are collected per
    /// worker and merged once all units are done. Splitting a block's cut
    /// vertices by `t` keeps a deep unit's tile as small as its subtree.
    ///
    /// # The 16-lane search
    /// Each cut vertex `r` of the unit seeds lane `τ(r) − 16k` of its own row
    /// with 0. Scanning `v` relaxes each arc `(v, n, w)` in all lanes at once
    /// under the **lane mask**: lane `ℓ` may enter `n` only if
    /// `τ(n) > 16k + ℓ`, so the lanes below `min(τ(n) − 16k, 16)` are open and
    /// the rest see `INF`. That is the τ restriction of every lane's source, so
    /// each lane stays inside its source's subgraph. When some lane of `n`'s
    /// row improves, `n` is queued again, keyed by the **largest** improved
    /// lane, so that one later scan tends to serve every lane that changed
    /// (keying on the smallest scans 13 % more rows at 65 535 vertices). A
    /// queued vertex is scanned once, with its row as it is at the pop; stale
    /// heap entries are skipped by comparing with `pending[v]`.
    ///
    /// The search is exact: each lane is a label-correcting search with
    /// non-negative weights, and every decrease schedules a scan of the whole
    /// row, so when the heap drains every lane holds its restricted distances.
    ///
    /// **Two sources on one lane.** Two cut vertices of a unit can share τ, and
    /// so a lane: cut vertices of sibling subtrees under `t`. Neither is an
    /// ancestor of the other, so their descendant sets are disjoint, and every
    /// path between them passes a common ancestor whose τ is below theirs. The
    /// lane mask closes that ancestor to the lane, so neither source's
    /// distances reach the other's subgraph — the same disjointness that lets
    /// both write the one tile.
    ///
    /// # Why unsynchronised arena writes are sound
    /// Unit `(k, t)` writes only block `k` of labels of vertices in `Desc(t)`.
    /// Units of different blocks write different blocks. Two units `(k, t)` and
    /// `(k, t')` write disjoint vertex sets: `t` and `t'` both hold index
    /// `16k`, so neither is an ancestor of the other and their descendant sets
    /// are disjoint. Within a unit, two cut vertices whose lanes reach the same
    /// vertex `v` are both ancestors of `v`, hence ⪯-comparable, so their τ
    /// values differ (τ is injective along a chain) and they write different
    /// lanes of `v`'s row.
    pub fn build_with_hierarchy_parallel(g: &CsrGraph, hier: Hierarchy, threads: usize) -> Self {
        Self::build_counted(g, hier, threads).0
    }

    /// [`Stl::build_with_hierarchy_parallel`], also returning the number of
    /// row scans the construction kernel made.
    pub(crate) fn build_counted(g: &CsrGraph, hier: Hierarchy, threads: usize) -> (Self, u64) {
        let (labels, scans) = fill_labels(g, &hier, threads);
        (Stl { hier: Arc::new(hier), labels }, scans)
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

/// A graph the construction kernel searches: for each vertex, the arcs a
/// label search relaxes out of it. [`CsrGraph`] serves [`Stl`]; the
/// directed index passes one direction of a `DiGraph` per label set.
pub(crate) trait Arcs: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Call `f(head, weight)` for every arc out of `v`.
    fn for_each_arc(&self, v: VertexId, f: impl FnMut(VertexId, Weight));
}

impl Arcs for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline(always)]
    fn for_each_arc(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        let (ts, ws) = self.neighbor_slices(v);
        for (&nb, &w) in ts.iter().zip(ws) {
            f(nb, w);
        }
    }
}

/// The construction units of `hier` in schedule order: `(k, cut vertices)`
/// for every cut vertex `r` with `⌊τ(r)/16⌋ = k` whose root path passes
/// through tree node `t`, the node whose cut holds label index `16k`.
fn units(hier: &Hierarchy) -> Vec<(usize, Vec<VertexId>)> {
    let mut keyed: Vec<(usize, u32, VertexId)> = Vec::with_capacity(hier.num_vertices());
    for node in 0..hier.num_nodes() as u32 {
        for &r in hier.cut(node) {
            let k = hier.tau(r) as usize / BLOCK;
            let mut t = node;
            while hier.node_anc_offset[t as usize] as usize > k * BLOCK {
                t = hier.node_parent(t);
            }
            keyed.push((k, t, r));
        }
    }
    keyed.sort_unstable();
    keyed
        .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        .map(|unit| (unit[0].0, unit.iter().map(|&(_, _, r)| r).collect()))
        .collect()
}

/// Fill every label of `hier` with distances over `g`'s arcs, over
/// `threads` workers, in place in a born-flat arena. Returns the labels and
/// the number of row scans the unit searches made. The kernel and why it
/// is exact and sound are described on
/// [`Stl::build_with_hierarchy_parallel`].
pub(crate) fn fill_labels(g: &impl Arcs, hier: &Hierarchy, threads: usize) -> (Labels, u64) {
    let n = g.num_vertices();
    assert_eq!(n, hier.num_vertices());
    let mut arena = LabelArena::new(hier);
    let units = units(hier);
    /// The arena base, shared by the workers; see the soundness argument
    /// on `Stl::build_with_hierarchy_parallel`.
    struct ArenaBase(*mut LabelBlock);
    // SAFETY: workers write disjoint blocks through the pointer (see
    // `Stl::build_with_hierarchy_parallel`), and the arena outlives the
    // scope.
    unsafe impl Sync for ArenaBase {}
    let base = ArenaBase(arena.blocks.as_mut_slice().as_mut_ptr());
    let (base, offsets, next) = (&base, &arena.offsets, AtomicUsize::new(0));
    let done: Vec<(Vec<(u64, Dist)>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut search = UnitSearch::new(n);
                    let mut escaped = Vec::new();
                    while let Some(&(k, ref unit)) = units.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        search.run(g, hier, unit, k);
                        let tile = &mut search.tile;
                        for (row, &v) in tile.rows.iter().zip(&tile.reached) {
                            let block = LabelBlock::encode(row);
                            let at = offsets[v as usize] + k as u64;
                            assert!(at < offsets[v as usize + 1], "unit {k} overruns L({v})");
                            let mask = block.escape_mask();
                            if mask != 0 {
                                escaped.extend(
                                    (0..BLOCK)
                                        .filter(|l| mask & 1 << l != 0)
                                        .map(|l| (at * BLOCK as u64 + l as u64, row[l])),
                                );
                            }
                            // SAFETY: block `at` is block `k` of `v`'s
                            // label (just checked; the offsets end at the
                            // arena's length) and belongs to this unit
                            // alone (see above).
                            unsafe { base.0.add(at as usize).write(block) };
                        }
                        tile.clear();
                    }
                    (escaped, search.scans)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("label worker panicked")).collect()
    });
    let scans = done.iter().map(|d| d.1).sum();
    let mut escaped: Vec<(u64, Dist)> = done.into_iter().flat_map(|d| d.0).collect();
    escaped.sort_unstable();
    let labels =
        Labels::from_arena(arena.lens, &arena.offsets, arena.blocks, escaped, CHUNK_BLOCKS);
    (labels, scans)
}

/// `Tile::slot` of a vertex the current unit has not reached.
const NO_SLOT: u32 = u32::MAX;

/// A unit's vertex-major tile: the 16 lane distances of every vertex the
/// unit's search has reached, which are also its search state.
struct Tile {
    /// Row of each reached vertex, else `NO_SLOT`.
    slot: Vec<u32>,
    /// Reached vertices in first-reach order: `reached[s]` owns row `s`.
    reached: Vec<VertexId>,
    /// Lane distances; `INF` where no source of the lane has reached the
    /// vertex.
    rows: Vec<[Dist; BLOCK]>,
}

impl Tile {
    /// `v`'s row, or all `INF` if the unit has not reached `v`.
    #[inline(always)]
    fn row(&self, v: VertexId) -> [Dist; BLOCK] {
        match self.slot[v as usize] {
            NO_SLOT => [INF; BLOCK],
            s => self.rows[s as usize],
        }
    }

    /// Store `row` as `v`'s row, giving `v` one if it has none.
    #[inline(always)]
    fn put(&mut self, v: VertexId, row: [Dist; BLOCK]) {
        match self.slot[v as usize] {
            NO_SLOT => {
                self.slot[v as usize] = self.rows.len() as u32;
                self.reached.push(v);
                self.rows.push(row);
            }
            s => self.rows[s as usize] = row,
        }
    }

    /// Forget the unit's rows (after they are encoded).
    fn clear(&mut self) {
        for &v in &self.reached {
            self.slot[v as usize] = NO_SLOT;
        }
        self.reached.clear();
        self.rows.clear();
    }
}

/// One construction worker's scratch: the tile and the queue of a unit's
/// 16-lane search.
struct UnitSearch {
    tile: Tile,
    /// Queue key of each vertex waiting for a scan, else `INF`. All `INF`
    /// between units, because the heap drains.
    pending: Vec<Dist>,
    heap: BinaryHeap<Reverse<(Dist, VertexId)>>,
    /// Row scans so far: the heap pops that were not stale.
    scans: u64,
}

impl UnitSearch {
    fn new(n: usize) -> Self {
        Self {
            tile: Tile { slot: vec![NO_SLOT; n], reached: Vec::new(), rows: Vec::new() },
            pending: vec![INF; n],
            heap: BinaryHeap::new(),
            scans: 0,
        }
    }

    /// The 16-lane search of a unit of block `k`, leaving its rows in the
    /// tile; see [`Stl::build_with_hierarchy_parallel`].
    fn run(&mut self, g: &impl Arcs, hier: &Hierarchy, unit: &[VertexId], k: usize) {
        let Self { tile, pending, heap, scans } = self;
        let first = (k * BLOCK) as u32;
        for &r in unit {
            let mut row = tile.row(r);
            row[(hier.tau(r) - first) as usize] = 0;
            tile.put(r, row);
            pending[r as usize] = 0;
            heap.push(Reverse((0, r)));
        }
        while let Some(Reverse((key, v))) = heap.pop() {
            if key != pending[v as usize] {
                continue;
            }
            pending[v as usize] = INF;
            *scans += 1;
            let row = tile.row(v);
            g.for_each_arc(v, |nb, w| {
                let t = hier.tau(nb);
                if w == INF || t <= first {
                    return;
                }
                // The lane mask: lane `ℓ` may enter `nb` iff `τ(nb) > 16k + ℓ`.
                let open = ((t - first) as usize).min(BLOCK);
                let cur = tile.row(nb);
                let (mut next, mut key, mut improved) = (cur, 0, false);
                for l in 0..BLOCK {
                    let c = if l < open { row[l].saturating_add(w) } else { INF };
                    let better = c < cur[l];
                    next[l] = c.min(cur[l]);
                    key = key.max(if better { c } else { 0 });
                    improved |= better;
                }
                if !improved {
                    return;
                }
                tile.put(nb, next);
                if key < pending[nb as usize] {
                    pending[nb as usize] = key;
                    heap.push(Reverse((key, nb)));
                }
            });
        }
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
impl Labels {
    /// Label lengths of every vertex, in entries.
    fn lens(&self) -> impl Iterator<Item = u32> + '_ {
        self.locs.iter().map(|l| l.len)
    }

    /// The same labels re-wrapped in chunks of `target` blocks.
    pub(crate) fn rechunked(&self, target: u64) -> Labels {
        let mut arena = LabelArena::with_lens(self.lens().collect());
        let blocks: Vec<LabelBlock> = self.store.chunk_slices().flatten().copied().collect();
        arena.blocks.as_mut_slice().copy_from_slice(&blocks);
        Labels::from_arena(arena.lens, &arena.offsets, arena.blocks, self.global_escapes(), target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;
    use stl_graph::EdgeUpdate;
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
            let len = stl.labels().slice(v).len();
            assert_eq!(len as u32, stl.hierarchy().anc_count(v));
            assert_eq!(stl.labels().blocks(v).len(), len.div_ceil(BLOCK));
            total += len as u64;
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
        // A 48×48 grid's upper cuts are wider than one block, so cuts
        // straddle units and the last block of a cut is partial; heavy
        // weights make escapes. The labels must be exact, and every thread
        // count must build the same arena and escape tables.
        let g = grid(48, 30_000);
        let hier = Hierarchy::build(&g, &StlConfig::default());
        let cuts: Vec<usize> = (0..hier.num_nodes() as u32).map(|x| hier.cut(x).len()).collect();
        assert!(cuts.iter().any(|&c| c > BLOCK && c % BLOCK != 0), "cuts {cuts:?}");
        let serial = Stl::build_with_hierarchy(&g, hier.clone());
        assert!(serial.labels().num_escapes() > 0, "heavy weights must escape");
        crate::verify::check_labels_exact(&serial, &g).unwrap();
        for threads in [2usize, 3, 4] {
            let par = Stl::build_with_hierarchy_parallel(&g, hier.clone(), threads);
            assert_eq!(par.labels().flat(), serial.labels().flat(), "threads={threads}");
            crate::verify::check_matches_rebuild(&par, &g).unwrap();
        }
    }

    #[test]
    fn sibling_sources_share_a_lane_exactly() {
        // Cut vertices of sibling subtrees can share τ, and so one lane of a
        // unit's search; the lane mask must keep their distances apart.
        let g = grid(48, 30_000);
        let hier = Hierarchy::build(&g, &StlConfig::default());
        let shared = units(&hier).iter().any(|(_, unit)| {
            let mut taus: Vec<u32> = unit.iter().map(|&r| hier.tau(r)).collect();
            taus.sort_unstable();
            taus.windows(2).any(|w| w[0] == w[1])
        });
        assert!(shared, "some unit must hold two cut vertices with equal τ");
        crate::verify::check_labels_exact(&Stl::build_with_hierarchy(&g, hier), &g).unwrap();
    }

    #[test]
    fn one_scan_fills_several_entries() {
        // One Dijkstra per cut vertex settles about once per entry; a
        // 16-lane scan serves every lane its row holds.
        let g = grid(48, 30_000);
        let hier = Hierarchy::build(&g, &StlConfig::default());
        let (stl, scans) = Stl::build_counted(&g, hier.clone(), 1);
        let entries = stl.labels().num_entries();
        assert!(scans * 5 <= entries * 2, "{scans} scans for {entries} entries");
        assert_eq!(Stl::build_counted(&g, hier, 3).1, scans, "scans are per unit, not per worker");
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
            // The arena is every label's blocks in vertex order, back to back.
            let labels = stl.labels();
            let concat: Vec<LabelBlock> = (0..stl.num_vertices() as VertexId)
                .flat_map(|v| labels.blocks(v))
                .copied()
                .collect();
            assert!(stl.is_flat(), "{name}");
            assert_eq!(labels.flat(), Some(concat.as_slice()), "{name}");
            assert_eq!(labels.flat().unwrap().as_ptr() as usize % 64, 0, "{name}: aligned arena");
            assert_eq!(stl.cow_stats(), CowStats::default(), "{name}");
            crate::verify::check_all(&stl, &g).unwrap();
        }
    }

    #[test]
    fn encode_is_canonical() {
        let mut e = [INF; BLOCK];
        assert_eq!(LabelBlock::encode(&e), LabelBlock::INF);
        e[3] = 70_000;
        e[5] = 70_000 + MAX_OFF;
        e[9] = 70_000 + MAX_OFF + 1;
        e[15] = INF - 1;
        let b = LabelBlock::encode(&e);
        assert_eq!(b.base, 70_000);
        assert_eq!((b.off[3], b.off[5], b.off[9], b.off[15]), (0, 0xFFFD, ESC_OFF, ESC_OFF));
        assert_eq!(b.escape_mask(), 1 << 9 | 1 << 15);
        assert_eq!(b.decode(|j| e[j]), e);
    }

    /// One block written through every encoding case — inline, re-based
    /// down, at the inline limit, escaped, at `INF − 1`, `INF` — and back,
    /// while a snapshot holds the old epoch.
    #[test]
    fn block_write_round_trip() {
        let g = grid(12, 30_000);
        let mut stl = Stl::build(&g, &StlConfig::default());
        // A vertex whose first block holds at least two finite entries, and
        // a lane of it that is not the base.
        let (v, j) = (0..stl.num_vertices() as VertexId)
            .find_map(|v| {
                let b = stl.labels().blocks(v)[0];
                let finite = b.off.iter().filter(|&&o| o != INF_OFF).count();
                let lane = (0..BLOCK).find(|&l| b.off[l] != INF_OFF && b.off[l] != 0);
                (finite >= 2 && b.base >= 1).then_some(lane).flatten().map(|l| (v, l))
            })
            .expect("some block has a non-base finite lane");
        let (i, c) = (j as u32, stl.labels().locs[v as usize].chunk as usize);
        let snapshot = stl.clone();
        let (old_block, old_escapes) =
            (snapshot.labels().blocks(v)[0], snapshot.labels().chunk_escapes(c).clone());
        let original = stl.labels().get(v, i);
        let base = old_block.base;
        for d in [0, base - 1, base + MAX_OFF, base + MAX_OFF + 1, INF - 1, INF, original] {
            stl.labels.set(v, i, d);
            let labels = stl.labels();
            assert_eq!(labels.get(v, i), d, "set then get {d}");
            let len = stl.hierarchy().anc_count(v).min(BLOCK as u32);
            let entries: [Dist; BLOCK] =
                std::array::from_fn(
                    |l| if (l as u32) < len { labels.get(v, l as u32) } else { INF },
                );
            let block = labels.blocks(v)[0];
            assert_eq!(block, LabelBlock::encode(&entries), "canonical after writing {d}");
            let escaped: Vec<(u32, Dist)> = labels.chunk_escapes(c).iter().collect();
            for l in 0..BLOCK {
                let key = labels.locs[v as usize].lo * BLOCK as u32 + l as u32;
                let in_table = escaped.iter().find(|e| e.0 == key).map(|e| e.1);
                let want = (block.off[l] == ESC_OFF).then_some(entries[l]);
                assert_eq!(in_table, want, "escape of lane {l} after writing {d}");
            }
            assert_eq!(snapshot.labels().blocks(v)[0], old_block, "snapshot block, {d}");
            assert_eq!(*snapshot.labels().chunk_escapes(c), old_escapes, "snapshot escapes, {d}");
            assert_eq!(snapshot.labels().get(v, i), original);
        }
        assert_eq!(stl.labels().blocks(v)[0], old_block, "restored block");
        crate::verify::check_matches_rebuild(&stl, &g).unwrap();
        // A stray escape changes no block and no decoded entry: only the
        // exact escape-table comparison can see it.
        let stray = stl.labels().locs[v as usize].lo * BLOCK as u32 + j as u32;
        let table = Arc::make_mut(stl.labels.escapes.make_mut(c));
        let at = table.0.partition_point(|e| e.0 < stray);
        table.0.insert(at, (stray, original));
        assert_eq!(stl.labels().get(v, i), original);
        let err = crate::verify::check_matches_rebuild(&stl, &g).unwrap_err();
        assert!(err.contains("escape table"), "{err}");
    }

    #[test]
    fn chunked_clone_shares_untouched_chunks() {
        // Tiny chunks make the sharing boundary precise: 16 vertices, 1
        // block per chunk target → several chunks.
        let g = grid(4, 1);
        let built = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let mut labels = built.labels().rechunked(1);
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

    /// Repairs that edit the escape tables of two chunks in one escape page
    /// while a snapshot holds the index: the snapshot keeps every table,
    /// and the repaired ones equal a rebuild's.
    #[test]
    fn escape_edits_in_one_page_leave_the_snapshot_alone() {
        // Streets of weight 1 one way and 70 000 the other put lanes more
        // than 0xFFFD above their block's base.
        let side = 24u32;
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 70_000));
                }
            }
        }
        let mut g = from_edges((side * side) as usize, edges);
        let g0 = g.clone();
        let mut stl = Stl::build(&g, &StlConfig::default());
        let nc = stl.num_chunks();
        assert!((2..=stl_graph::cow::PAGE).contains(&nc), "want one page of chunks, got {nc}");
        assert!(stl.labels().num_escapes() > 0);
        let snapshot = stl.clone();
        let tables =
            |l: &Labels| -> Vec<Escapes> { (0..nc).map(|c| l.chunk_escapes(c).clone()).collect() };
        let before = tables(snapshot.labels());
        // Open a few north–south streets and close a few east–west ones.
        let batch: Vec<EdgeUpdate> = (2..side)
            .step_by(5)
            .flat_map(|x| {
                [
                    EdgeUpdate::new(idx(x, x), idx(x, x - 1), 1),
                    EdgeUpdate::new(idx(x, 1), idx(x - 1, 1), 70_000),
                ]
            })
            .collect();
        let mut eng = crate::UpdateEngine::new(g.num_vertices());
        stl.apply_batch(&mut g, &batch, crate::Maintenance::ParetoSearch, &mut eng);
        let after = tables(stl.labels());
        let edited = (0..nc).filter(|&c| after[c] != before[c]).count();
        assert!(edited >= 2, "the repairs must edit escapes in two chunks, edited {edited}");
        assert_eq!(tables(snapshot.labels()), before, "snapshot escape tables");
        crate::verify::check_matches_rebuild(&stl, &g).unwrap();
        crate::verify::check_matches_rebuild(&snapshot, &g0).unwrap();
    }

    #[test]
    fn slices_stay_contiguous_across_chunk_layout() {
        // slice() must agree with get() entry-for-entry for every vertex,
        // in the born layout and in one-block chunks.
        let g = grid(7, 3);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        let tiny = stl.labels().rechunked(1);
        for v in 0..49u32 {
            let s = stl.labels().slice(v);
            assert_eq!(tiny.slice(v), s, "vertex {v}");
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
