//! Distance queries over a Stable Tree Labelling (Equation 3).
//!
//! `d(s,t) = min { δ_{s,r} + δ_{t,r} | r ∈ Anc(s) ∩ Anc(t) }` — correct by
//! the 2-hop cover property (Lemma 4.7): the minimum-τ vertex on a shortest
//! path is a common ancestor, the whole path lies inside its subgraph, and
//! both label entries are subgraph distances along it.
//!
//! The comparable prefix length `K` is found in O(1) from bitstrings and the
//! per-node cumulative cut counts; the scan then reads two contiguous label
//! prefixes — the cache-friendly layout the paper credits for its query
//! speed. A query is therefore one body ([`Stl::query`]):
//!
//! 1. `s == t` → 0;
//! 2. on a flat index, hint both label bases toward L1
//!    (`prefetch_read`: x86_64 `PREFETCHT0`, a no-op elsewhere) so the loads
//!    overlap the LCA arithmetic — a flat address is pure arithmetic, whereas
//!    resolving a chunked slice *is* the pointer chase a hint would hide;
//! 3. `K = common_anc_count(s, t)`; `K == 0` → `INF`;
//! 4. the block kernel over the first `⌈K/16⌉` [`LabelBlock`]s of both
//!    labels, read from the flat arena ([`crate::Labels::flat`], the layout
//!    an index is built or loaded in) or from the chunked copy-on-write
//!    store its first label write leaves behind for good.
//!
//! # The block kernel
//!
//! Labels are 16-entry blocks of one `u32` base and sixteen `u16` offsets
//! (see [`crate::labelling`]). For each block pair the kernel adds the two
//! offset vectors with `u16` saturation and takes the block minimum `m`:
//!
//! - If `m < 0xFFFE`, the candidate `base_s + base_t + m` is **exact**: a
//!   lane with an escape (`0xFFFE`) or an `INF` (`0xFFFF`) on either side,
//!   or whose finite offsets sum past `0xFFFD`, saturates to at least
//!   `0xFFFE`, so it cannot be the minimum, and its true sum is at least
//!   `base_s + base_t + 0xFFFE` — above the candidate. The candidate is
//!   computed in `u64` and clamped to `INF`, because bases can approach
//!   `INF − 1`.
//! - Otherwise, if some lane is finite on both sides, the block is
//!   recorded with its lower bound `base_s + base_t + 0xFFFE`. After the
//!   scan, only the recorded blocks whose bound is below the running best
//!   are recomputed exactly, lane by lane, with escaped entries read from
//!   the escape table. On a 65 536-vertex road network that fix-up runs in
//!   0.1–0.2 % of scanned blocks.
//!
//! Lanes past `K` in the last block are forced to `0xFFFF` on one side, so
//! they never count. The AVX2 body (`adds_epu16` + `minpos_epu16`) runs
//! when the CPU has it (detected once, cached by `std`); a portable lane
//! loop serves other hosts. Both are tested against the scalar decode
//! oracle [`Stl::query_reference`], which every debug-build answer of every
//! path in this module is also asserted against, and which the `query`
//! bench uses as its chunked-scalar baseline.

use stl_graph::{Dist, VertexId, INF};

use crate::labelling::{LabelBlock, Stl, BLOCK, ESC_OFF, INF_OFF};

/// Blocks per kernel pass: one bit each in the pass's fix-up mask.
const PASS: usize = 64;

/// Targets per [`Stl::one_to_many`] tile: `256 × a few label lines` keeps a
/// whole tile's working set comfortably inside L2 while the next tile's
/// lines stream in behind the prefetch window.
const TILE: usize = 256;

/// Below this many targets the tiled one-to-many path (sort + scatter)
/// costs more than it saves; the plain hoisted loop runs instead.
const TILE_MIN_TARGETS: usize = 48;

/// How many targets ahead of the scan the tiled loop prefetches.
const TILE_PREFETCH_AHEAD: usize = 4;

/// Best-effort `T0` software prefetch of the cache line holding `*p`.
///
/// A hint only: the instruction never faults and performs no architectural
/// access, so any pointer — including one past the end of a slice — is fine
/// to pass. Compiles to `PREFETCHT0` on x86_64 and to nothing elsewhere,
/// mirroring the AVX2-vs-portable dispatch of the block kernel.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally a hint — no memory access, no
    // fault, regardless of the pointer's validity; SSE is part of the
    // x86_64 baseline, so the intrinsic is always available.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch_read`] over a whole label: one hint per 64-byte line, capped
/// at 8 lines so a pathologically long label can't flood the load ports.
#[inline(always)]
fn prefetch_label(label: &[LabelBlock]) {
    const MAX_LINES: usize = 8;
    let lines = std::mem::size_of_val(label).div_ceil(64).min(MAX_LINES);
    for l in 0..lines {
        prefetch_read(label.as_ptr().cast::<u8>().wrapping_add(l * 64));
    }
}

/// `min_i (a[i] ⊕ b[i])` with saturating `⊕` over two decoded prefixes.
#[doc(hidden)] // compat; sole reader benchmark/src/ladder.rs; delete with the next `[benchmark]` change
#[inline]
pub fn min_plus(a: &[Dist], b: &[Dist]) -> Dist {
    debug_assert_eq!(a.len(), b.len(), "min-plus operands must pair up");
    a.iter().zip(b).map(|(x, y)| x.saturating_add(*y)).min().unwrap_or(INF)
}

/// `min_{i < k} (A[i] ⊕ B[i])` with saturating `⊕` over the first `k`
/// entries of two block-encoded labels; `ea(i)` and `eb(i)` supply escaped
/// entry `i` of each side. The block kernel of the module docs: AVX2 when
/// the CPU supports it, the portable lane loop otherwise.
#[inline]
pub(crate) fn min_plus_blocks(
    a: &[LabelBlock],
    b: &[LabelBlock],
    k: usize,
    ea: impl Fn(usize) -> Dist,
    eb: impl Fn(usize) -> Dist,
) -> Dist {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just confirmed at runtime.
        return min_plus_passes(a, b, k, ea, eb, |a, b, k| unsafe { scan_avx2(a, b, k) });
    }
    min_plus_passes(a, b, k, ea, eb, scan_portable)
}

/// Run `scan` over passes of up to [`PASS`] blocks, fixing up each pass's
/// recorded blocks against the running best.
#[inline(always)]
fn min_plus_passes(
    a: &[LabelBlock],
    b: &[LabelBlock],
    k: usize,
    ea: impl Fn(usize) -> Dist,
    eb: impl Fn(usize) -> Dist,
    scan: impl Fn(&[LabelBlock], &[LabelBlock], usize) -> (u64, u64),
) -> Dist {
    let (a, b) = (&a[..k.div_ceil(BLOCK)], &b[..k.div_ceil(BLOCK)]);
    let mut best = u64::from(INF);
    for p in (0..a.len()).step_by(PASS) {
        let end = (p + PASS).min(a.len());
        let kp = k - p * BLOCK;
        let (m, pending) = scan(&a[p..end], &b[p..end], kp);
        best = best.min(m);
        if pending != 0 {
            best = fix_up(
                &a[p..end],
                &b[p..end],
                kp,
                pending,
                best,
                |i| ea(p * BLOCK + i),
                |i| eb(p * BLOCK + i),
            );
        }
    }
    best.min(u64::from(INF)) as Dist
}

/// The candidate of a block pair whose offset minimum `m` is exact.
#[inline(always)]
fn candidate(x: &LabelBlock, y: &LabelBlock, m: u16) -> u64 {
    u64::from(x.base) + u64::from(y.base) + u64::from(m)
}

/// Portable scan of one pass (`a.len() ≤ PASS` blocks covering the first
/// `k` entries): the exact minimum over blocks whose offset minimum is
/// below `0xFFFE`, and the mask of blocks left to [`fix_up`].
fn scan_portable(a: &[LabelBlock], b: &[LabelBlock], k: usize) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut pending = 0u64;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let live = (k - i * BLOCK).min(BLOCK);
        let mut m = INF_OFF;
        for l in 0..BLOCK {
            let p = if l < live { x.off[l] } else { INF_OFF };
            m = m.min(p.saturating_add(y.off[l]));
        }
        if m < ESC_OFF {
            best = best.min(candidate(x, y, m));
        } else if (0..live).any(|l| x.off[l] != INF_OFF && y.off[l] != INF_OFF) {
            pending |= 1 << i;
        }
    }
    (best, pending)
}

/// `0` for the lanes of a partial last block inside the prefix, `0xFFFF`
/// past it: lane `l` of the load at `16 − r` is `0` iff `l < r`.
#[cfg(target_arch = "x86_64")]
static TAIL_MASK: [u16; 2 * BLOCK] = {
    let mut m = [0u16; 2 * BLOCK];
    let mut l = BLOCK;
    while l < 2 * BLOCK {
        m[l] = INF_OFF;
        l += 1;
    }
    m
};

/// AVX2 [`scan_portable`]: one 256-bit load per block and side, a
/// saturating `u16` add, and `minpos` over the two halves' minimum.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2(a: &[LabelBlock], b: &[LabelBlock], k: usize) -> (u64, u64) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(-1);
    let full = k / BLOCK;
    let mut best = u64::MAX;
    let mut pending = 0u64;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let mut xo = _mm256_loadu_si256(x.off.as_ptr().cast());
        let yo = _mm256_loadu_si256(y.off.as_ptr().cast());
        if i == full {
            let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(BLOCK - k % BLOCK).cast());
            xo = _mm256_or_si256(xo, mask);
        }
        let s = _mm256_adds_epu16(xo, yo);
        let h = _mm_min_epu16(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
        let m = _mm_cvtsi128_si32(_mm_minpos_epu16(h)) as u16;
        if m < ESC_OFF {
            best = best.min(candidate(x, y, m));
        } else {
            let inf = _mm256_or_si256(_mm256_cmpeq_epi16(xo, ones), _mm256_cmpeq_epi16(yo, ones));
            if _mm256_movemask_epi8(inf) != -1 {
                pending |= 1 << i;
            }
        }
    }
    (best, pending)
}

/// Recompute exactly the `pending` blocks of one pass whose lower bound
/// `base_a + base_b + 0xFFFE` is below `best`, lane by lane.
#[cold]
fn fix_up(
    a: &[LabelBlock],
    b: &[LabelBlock],
    k: usize,
    mut pending: u64,
    mut best: u64,
    ea: impl Fn(usize) -> Dist,
    eb: impl Fn(usize) -> Dist,
) -> u64 {
    while pending != 0 {
        let i = pending.trailing_zeros() as usize;
        pending &= pending - 1;
        let (x, y) = (&a[i], &b[i]);
        if candidate(x, y, ESC_OFF) >= best {
            continue;
        }
        for l in 0..(k - i * BLOCK).min(BLOCK) {
            if x.off[l] == INF_OFF || y.off[l] == INF_OFF {
                continue;
            }
            let at = i * BLOCK + l;
            let d = x.entry(l, || ea(at)).saturating_add(y.entry(l, || eb(at)));
            best = best.min(u64::from(d));
        }
    }
    best
}

/// The scalar decode oracle of the block kernel: each block pair decoded
/// once into sixteen `u32` entries a side, then a scalar min-plus over the
/// lanes below `k`.
fn min_plus_blocks_scalar(
    a: &[LabelBlock],
    b: &[LabelBlock],
    k: usize,
    ea: impl Fn(usize) -> Dist,
    eb: impl Fn(usize) -> Dist,
) -> Dist {
    let mut best = INF;
    for (i, (x, y)) in a.iter().zip(b).take(k.div_ceil(BLOCK)).enumerate() {
        let x = x.decode(|l| ea(i * BLOCK + l));
        let y = y.decode(|l| eb(i * BLOCK + l));
        for l in 0..(k - i * BLOCK).min(BLOCK) {
            best = best.min(x[l].saturating_add(y[l]));
        }
    }
    best
}

/// Per-query counters of the read path, filled by [`Stl::query_profiled`]:
/// which of the two label layouts served each connected query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryProfile {
    /// Queries issued (including `s == t` and disconnected pairs).
    pub queries: u64,
    /// Label prefixes read from the flat arena by direct offset.
    pub flat_slices: u64,
    /// Label prefixes read through the chunk table.
    pub chunked_slices: u64,
    #[doc(hidden)] // reader benchmark/src/workloads.rs; delete with the next `[benchmark]` issue
    pub spine_answered: u64,
    #[doc(hidden)] // reader benchmark/src/workloads.rs; delete with the next `[benchmark]` issue
    pub spine_mask_rejects: u64,
}

/// Everything source-side of a one-to-many scan, resolved once by
/// [`Stl::hoist_source`] instead of per target.
struct SourceState<'a> {
    s: VertexId,
    /// `s`'s label blocks.
    ls: &'a [LabelBlock],
    /// The block arena, if the index is flat.
    arena: Option<&'a [LabelBlock]>,
}

impl Stl {
    /// Shortest-path distance between `s` and `t`; `INF` if disconnected.
    /// The one query body — see the module docs.
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return 0;
        }
        let arena = self.labels.flat();
        if let Some(a) = arena {
            // Issued before the common_anc_count bitstring arithmetic
            // resolves, so the label lines stream toward L1 while the LCA
            // is still being computed instead of stalling behind its result.
            prefetch_read(self.labels.blocks_flat(a, s).as_ptr());
            prefetch_read(self.labels.blocks_flat(a, t).as_ptr());
        }
        let k = self.hier.common_anc_count(s, t) as usize;
        if k == 0 {
            return INF;
        }
        let src = SourceState { s, ls: self.label(arena, s), arena };
        let d = self.query_hoisted_k(&src, t, k);
        debug_assert_eq!(d, self.query_reference(s, t), "query oracle ({s},{t})");
        d
    }

    /// `v`'s label blocks: by direct offset out of `arena` (this index's
    /// [`crate::Labels::flat`]) when flat, through the chunk table
    /// otherwise.
    #[inline(always)]
    fn label<'a>(&'a self, arena: Option<&'a [LabelBlock]>, v: VertexId) -> &'a [LabelBlock] {
        match arena {
            Some(a) => self.labels.blocks_flat(a, v),
            None => self.labels.blocks(v),
        }
    }

    /// [`Stl::query`] with read-path accounting into `prof` (see
    /// [`QueryProfile`]): which layout served the two label prefixes.
    pub fn query_profiled(&self, s: VertexId, t: VertexId, prof: &mut QueryProfile) -> Dist {
        prof.queries += 1;
        if self.query_width(s, t) > 0 {
            if self.labels.is_flat() {
                prof.flat_slices += 2;
            } else {
                prof.chunked_slices += 2;
            }
        }
        self.query(s, t)
    }

    /// Scalar reference query: chunk-table block resolution, then each
    /// block pair decoded once and scanned lane by lane. The oracle every debug-build answer is
    /// checked against, and the baseline the `query` bench measures the
    /// fast path's speedup over.
    pub fn query_reference(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return 0;
        }
        let k = self.hier.common_anc_count(s, t) as usize;
        let l = &self.labels;
        min_plus_blocks_scalar(l.blocks(s), l.blocks(t), k, |i| l.escape(s, i), |i| l.escape(t, i))
    }

    /// Number of label-entry pairs a query between `s` and `t` scans.
    /// Exposed for the query-locality analysis of Figure 9.
    pub fn query_width(&self, s: VertexId, t: VertexId) -> u32 {
        if s == t {
            0
        } else {
            self.hier.common_anc_count(s, t)
        }
    }

    /// One-to-many: distances from `s` to each target (k-NN / POI workloads
    /// from the paper's introduction). Equivalent to `targets.map(query)`
    /// but keeps `s`'s label hot in cache and, for large target sets, walks
    /// the targets tile-by-tile in stable-tree order (see
    /// [`Stl::one_to_many_into`]).
    pub fn one_to_many(&self, s: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        let mut out = Vec::new();
        self.one_to_many_into(s, targets, &mut out);
        out
    }

    /// Allocation-free [`Stl::one_to_many`]: clears `out` and fills it with
    /// one distance per target — in `targets` order — reusing its capacity.
    /// Sustained callers (tile renderers, repeated k-NN rounds, the TCP
    /// `ONE_TO_MANY` handler) keep one buffer alive instead of allocating
    /// per call. The source side — label slice and flat-arena resolution —
    /// is derived once, not per target.
    ///
    /// Large target sets are processed in `TILE`-sized tiles sorted by
    /// owning stable tree ([`crate::Hierarchy::tree_of`]): consecutive
    /// targets then share label chunks, and the scan prefetches a few
    /// targets ahead, so the walk streams instead of hopping randomly
    /// through the arena. Results are scattered back to `targets` order —
    /// output is bit-identical to the plain per-target loop, which also
    /// serves sets too small to be worth tiling.
    pub fn one_to_many_into(&self, s: VertexId, targets: &[VertexId], out: &mut Vec<Dist>) {
        if targets.len() < TILE_MIN_TARGETS {
            return self.one_to_many_loop_into(s, targets, out);
        }
        out.clear();
        out.resize(targets.len(), INF);
        let src = self.hoist_source(s);
        // Group targets by owning repair shard with a stable counting sort:
        // O(targets + shards), an order of magnitude cheaper than a
        // comparison sort of (shard, vertex) keys. A tile then walks one
        // shard's vertices — neighbouring label spans in the arena — before
        // moving to the next.
        let shards: Vec<u32> = targets.iter().map(|&t| self.hier.tree_of(t)).collect();
        let nsh = self.hier.num_shards() as usize;
        let mut counts = vec![0u32; nsh + 1];
        for &sh in &shards {
            counts[sh as usize + 1] += 1;
        }
        for i in 1..=nsh {
            counts[i] += counts[i - 1];
        }
        // Each order entry packs `(target << 32) | input_index`, so the scan
        // never re-reads `targets`. Within a bucket targets keep input
        // order: a comparison sort by id would cost more than the locality
        // it buys (the lookahead prefetch already covers intra-shard jumps).
        let mut order = vec![0u64; targets.len()];
        for (i, &sh) in shards.iter().enumerate() {
            let slot = &mut counts[sh as usize];
            order[*slot as usize] = ((targets[i] as u64) << 32) | i as u64;
            *slot += 1;
        }
        // Per-shard hoist of the common-prefix limit: for a whole tile of
        // same-shard targets (not the spine, not s's own shard) the
        // bitstring LCA resolves identically, so one `shard_anc_limit` call
        // covers the tile and each target finishes it with a single
        // `label_len` load.
        let tree_s = self.hier.tree_of(s);
        let mut cur_shard = u32::MAX;
        let mut hoisted = false;
        let mut limit = 0u32;
        let mut prev_t = VertexId::MAX;
        let mut prev_d = INF;
        for tile in order.chunks(TILE) {
            for (j, &e) in tile.iter().enumerate() {
                if let Some(&ne) = tile.get(j + TILE_PREFETCH_AHEAD) {
                    // The next target's whole label, not just its first
                    // line: labels are several cache lines and the id-gaps
                    // between consecutive targets defeat the hardware
                    // streamer. Chunked snapshots too: resolving the label
                    // through the page and chunk tables is a few cached
                    // loads, and without the hint every target waits out
                    // its label's misses.
                    prefetch_label(self.label(src.arena, (ne >> 32) as VertexId));
                }
                let t = (e >> 32) as VertexId;
                if t == prev_t {
                    // Catches runs of repeated targets (common in k-NN
                    // batches); scattered duplicates still recompute.
                    out[e as u32 as usize] = prev_d;
                    continue;
                }
                let sh = shards[e as u32 as usize];
                if sh != cur_shard {
                    cur_shard = sh;
                    hoisted = sh != crate::hierarchy::SPINE_SHARD && sh != tree_s;
                    if hoisted {
                        limit = self.hier.shard_anc_limit(s, t);
                    }
                }
                let d = if hoisted {
                    // s is outside t's shard, so s != t here.
                    let k = limit.min(self.hier.label_len(t)) as usize;
                    if k == 0 {
                        INF
                    } else {
                        self.query_hoisted_k(&src, t, k)
                    }
                } else {
                    self.query_hoisted(&src, t)
                };
                debug_assert_eq!(d, self.query_reference(s, t), "tiled path oracle ({s},{t})");
                out[e as u32 as usize] = d;
                prev_t = t;
                prev_d = d;
            }
        }
    }

    /// The straight per-target loop behind small [`Stl::one_to_many_into`]
    /// calls: source state hoisted, targets visited in input order, no
    /// tiling, no lookahead. Also the tiled path's bit-identity oracle in
    /// this crate's tests.
    pub(crate) fn one_to_many_loop_into(
        &self,
        s: VertexId,
        targets: &[VertexId],
        out: &mut Vec<Dist>,
    ) {
        out.clear();
        out.reserve(targets.len());
        let src = self.hoist_source(s);
        for &t in targets {
            let d = self.query_hoisted(&src, t);
            debug_assert_eq!(d, self.query_reference(s, t), "hoisted path oracle ({s},{t})");
            out.push(d);
        }
    }

    /// Resolve everything source-side of a one-to-many scan once: the flat
    /// arena, when the index is flat, and `s`'s full label.
    fn hoist_source(&self, s: VertexId) -> SourceState<'_> {
        let arena = self.labels.flat();
        SourceState { s, ls: self.label(arena, s), arena }
    }

    /// One target of a one-to-many scan against a hoisted [`SourceState`].
    #[inline]
    fn query_hoisted(&self, src: &SourceState<'_>, t: VertexId) -> Dist {
        let s = src.s;
        if s == t {
            return 0;
        }
        let k = self.hier.common_anc_count(s, t) as usize;
        if k == 0 {
            return INF;
        }
        self.query_hoisted_k(src, t, k)
    }

    /// [`query_hoisted`](Self::query_hoisted) with the common-prefix width
    /// `k` already resolved by the caller (tiled scans hoist the shard-level
    /// LCA once per tile). Requires `k == common_anc_count(s, t)`, `k > 0`,
    /// and `s != t`. The engine's one call of the block kernel.
    #[inline]
    fn query_hoisted_k(&self, src: &SourceState<'_>, t: VertexId, k: usize) -> Dist {
        let (s, l) = (src.s, &self.labels);
        min_plus_blocks(src.ls, self.label(src.arena, t), k, |i| l.escape(s, i), |i| l.escape(t, i))
    }

    /// The `k` nearest of `pois` from `s` by network distance, ascending;
    /// unreachable POIs are excluded. Rides the tiled one-to-many scan.
    pub fn k_nearest(&self, s: VertexId, pois: &[VertexId], k: usize) -> Vec<(Dist, VertexId)> {
        let mut dists = Vec::new();
        self.one_to_many_into(s, pois, &mut dists);
        let mut ranked: Vec<(Dist, VertexId)> =
            dists.iter().zip(pois).map(|(&d, &p)| (d, p)).filter(|&(d, _)| d != INF).collect();
        // Partition the k smallest to the front, then sort only that prefix:
        // O(p + k log k) instead of sorting all p candidates.
        if k < ranked.len() {
            ranked.select_nth_unstable(k);
            ranked.truncate(k);
        }
        ranked.sort_unstable();
        ranked
    }
}

#[cfg(test)]
mod tests {
    #[cfg(target_arch = "x86_64")]
    use super::scan_avx2;
    use super::{
        min_plus, min_plus_blocks, min_plus_blocks_scalar, min_plus_passes, scan_portable,
        QueryProfile,
    };
    use crate::labelling::{LabelBlock, Stl, BLOCK, ESC_OFF};
    use crate::types::{Maintenance, StlConfig};
    use crate::UpdateEngine;
    use stl_graph::builder::from_edges;
    use stl_graph::{CsrGraph, Dist, EdgeUpdate, VertexId, INF};
    use stl_pathfinding::dijkstra;

    fn grid_edges(side: u32) -> Vec<(u32, u32, u32)> {
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 1 + ((x * 7 + y * 13) % 9)));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 1 + ((x * 5 + y * 11) % 9)));
                }
            }
        }
        edges
    }

    fn grid(side: u32) -> CsrGraph {
        from_edges((side * side) as usize, grid_edges(side))
    }

    fn assert_all_pairs_exact(g: &CsrGraph, stl: &Stl) {
        let n = g.num_vertices() as VertexId;
        for s in 0..n {
            let oracle = dijkstra::single_source(g, s);
            for t in 0..n {
                assert_eq!(stl.query(s, t), oracle[t as usize], "query({s},{t})");
            }
        }
    }

    /// Tiny deterministic PRNG (xorshift64*) — the crate has no rand dep.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A label of `len` entries from `f`, block-encoded, padded to whole
    /// blocks with `INF`.
    fn encode_label(len: usize, f: impl Fn(usize) -> Dist) -> (Vec<Dist>, Vec<LabelBlock>) {
        let entries: Vec<Dist> = (0..len).map(f).collect();
        let blocks = entries
            .chunks(BLOCK)
            .map(|c| {
                let mut e = [INF; BLOCK];
                e[..c.len()].copy_from_slice(c);
                LabelBlock::encode(&e)
            })
            .collect();
        (entries, blocks)
    }

    /// Every block kernel, called directly, against the scalar decode
    /// oracle — on an AVX2 host [`min_plus_blocks`] always dispatches to
    /// `scan_avx2`, so the portable body (the only kernel elsewhere) would
    /// otherwise never run in CI. The patterns put `INF` lanes, escapes on
    /// one or both sides, lane pairs whose `u16` sum saturates and bases
    /// near `INF − 1` into every lane, and the labels run past `K`, so the
    /// tail mask of a partial last block is exercised too.
    #[test]
    fn all_min_plus_kernels_agree() {
        const LEN: usize = 72;
        let patterns: [fn(usize) -> Dist; 6] = [
            |_| INF,
            |i| INF - 1 - (i % 5) as Dist,
            |i| match i % 7 {
                0 => INF,
                1 => 1_000_000 + i as Dist * 70_001,
                x => x as Dist * 1000 + i as Dist,
            },
            |i| (i as Dist).wrapping_mul(2_654_435_761) >> 3,
            |i| if i % BLOCK == 5 { 100 } else { 100 + 0xFFF0 - (i % BLOCK) as Dist },
            |i| 3 * i as Dist,
        ];
        fn scan_avx2_passes(
            a: &[LabelBlock],
            b: &[LabelBlock],
            k: usize,
            ea: impl Fn(usize) -> Dist,
            eb: impl Fn(usize) -> Dist,
        ) -> Option<Dist> {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just confirmed at runtime.
                let scan = |a: &_, b: &_, k| unsafe { scan_avx2(a, b, k) };
                return Some(min_plus_passes(a, b, k, ea, eb, scan));
            }
            let _ = (a, b, k, ea, eb);
            None
        }
        let mut saw = [false; 3]; // escapes, saturated sums, fix-ups
        for (pa, fa) in patterns.iter().enumerate() {
            for (pb, fb) in patterns.iter().enumerate() {
                let (ea, a) = encode_label(LEN, fa);
                // Reversed so every lane pairs with every kind of lane.
                let (eb, b) = encode_label(LEN, |i| fb(LEN - 1 - i));
                let escaped = |blocks: &[LabelBlock], e: &[Dist], i: usize| {
                    assert_eq!(blocks[i / BLOCK].off[i % BLOCK], ESC_OFF, "escape {i} looked up");
                    e[i]
                };
                let xa = |i| escaped(&a, &ea, i);
                let xb = |i| escaped(&b, &eb, i);
                for k in 0..=67usize {
                    let want = min_plus_blocks_scalar(&a, &b, k, xa, xb);
                    let ctx = format!("k={k} patterns=({pa},{pb})");
                    assert_eq!(want, min_plus(&ea[..k], &eb[..k]), "oracle {ctx}");
                    assert_eq!(
                        min_plus_passes(&a, &b, k, xa, xb, scan_portable),
                        want,
                        "portable {ctx}"
                    );
                    assert_eq!(min_plus_blocks(&a, &b, k, xa, xb), want, "dispatch {ctx}");
                    if let Some(got) = scan_avx2_passes(&a, &b, k, xa, xb) {
                        assert_eq!(got, want, "avx2 {ctx}");
                    }
                    let nb = k.div_ceil(BLOCK);
                    let (_, pending) = scan_portable(&a[..nb], &b[..nb], k);
                    saw[2] |= pending != 0;
                }
                saw[0] |= a.iter().chain(&b).any(|x| x.off.contains(&ESC_OFF));
                saw[1] |= a.iter().zip(&b).any(|(x, y)| {
                    (0..BLOCK).any(|l| {
                        x.off[l] < ESC_OFF
                            && y.off[l] < ESC_OFF
                            && x.off[l].checked_add(y.off[l]).is_none()
                    })
                });
            }
        }
        assert_eq!(saw, [true; 3], "escapes, saturated sums and fix-ups all exercised");
        assert_eq!(min_plus(&[], &[]), INF);
        // A label longer than one pass of the kernel.
        let (ea, a) = encode_label(1100, |i| (i as Dist * 40_009) % 200_003);
        let (eb, b) = encode_label(1100, |i| (i as Dist * 7_919) % 90_001 + 1);
        for k in [1024, 1025, 1100] {
            let want = min_plus(&ea[..k], &eb[..k]);
            let (xa, xb) = (|i: usize| ea[i], |i: usize| eb[i]);
            assert_eq!(min_plus_blocks_scalar(&a, &b, k, xa, xb), want, "oracle k={k}");
            assert_eq!(min_plus_passes(&a, &b, k, xa, xb, scan_portable), want, "portable k={k}");
            assert_eq!(min_plus_blocks(&a, &b, k, xa, xb), want, "dispatch k={k}");
        }
    }

    #[test]
    fn all_pairs_exact_on_grid() {
        let g = grid(7);
        let stl = Stl::build(&g, &StlConfig::default());
        assert_all_pairs_exact(&g, &stl);
    }

    #[test]
    fn all_pairs_exact_on_paper_figure2_graph() {
        // The 16-vertex running example from Figure 2 of the paper
        // (1-indexed in the paper; 0-indexed here).
        let g = paper_figure2_graph();
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        assert_all_pairs_exact(&g, &stl);
    }

    /// Figure 2 graph. Edge list transcribed from the figure; weights are on
    /// the drawn edges. Exactness of the index is independent of whether the
    /// transcription matches the paper stroke-for-stroke.
    pub fn paper_figure2_graph() -> CsrGraph {
        from_edges(
            16,
            vec![
                (0, 6, 2),
                (0, 8, 4),
                (0, 13, 4),
                (6, 8, 3),
                (6, 2, 4),
                (2, 13, 6),
                (2, 8, 6),
                (13, 8, 8),
                (8, 11, 3),
                (13, 15, 3),
                (11, 15, 9),
                (1, 6, 9),
                (1, 9, 2),
                (9, 11, 2),
                (9, 10, 5),
                (10, 3, 3),
                (3, 11, 2),
                (3, 12, 3),
                (12, 4, 3),
                (4, 14, 2),
                (14, 15, 6),
                (5, 14, 2),
                (5, 7, 2),
                (7, 15, 7),
                (12, 10, 3),
            ],
        )
    }

    #[test]
    fn all_pairs_exact_various_leaf_sizes() {
        let g = grid(5);
        for leaf in [1usize, 2, 4, 16, 64] {
            let stl = Stl::build(&g, &StlConfig { leaf_size: leaf, ..Default::default() });
            assert_all_pairs_exact(&g, &stl);
        }
    }

    #[test]
    fn all_pairs_exact_various_beta() {
        let g = grid(6);
        for beta in [0.1, 0.2, 0.3, 0.5] {
            let stl = Stl::build(&g, &StlConfig::with_beta(beta));
            assert_all_pairs_exact(&g, &stl);
        }
    }

    #[test]
    fn all_pairs_exact_flat_and_after_first_write() {
        // The flat direct-offset read path must answer exactly like the
        // chunked one: a born-flat index, and the same index after one
        // write promoted exactly one chunk out of its arena.
        let g = grid(16);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        assert!(stl.is_flat() && stl.num_chunks() > 1);
        assert_all_pairs_exact(&g, &stl);
        stl.labels.set(3, 0, stl.labels().get(3, 0));
        assert!(!stl.is_flat());
        assert_eq!(stl.take_cow_stats().chunks_copied, 1, "first write promotes one chunk");
        assert_all_pairs_exact(&g, &stl);
    }

    /// The two label layouts, in the order an index meets them: built
    /// (born flat) → written by a sharded batch (chunked, the flat arena
    /// given up for good). In both states every answer path equals
    /// Dijkstra on the current weights, and the profile names exactly the
    /// layout in force.
    #[test]
    fn every_answer_path_exact_in_every_layout_state() {
        // Unit-scale weights keep every entry inline; heavy ones make the
        // blocks escape, so the kernel's exact fix-up answers too.
        for scale in [1u32, 30_000] {
            every_answer_path_exact_at_scale(scale);
        }
    }

    fn every_answer_path_exact_at_scale(scale: u32) {
        let side = 10u32;
        let edges: Vec<(u32, u32, u32)> =
            grid_edges(side).into_iter().map(|(a, b, w)| (a, b, w * scale)).collect();
        let mut g = from_edges((side * side) as usize, edges.clone());
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        assert_eq!(stl.labels().num_escapes() > 0, scale > 1, "scale {scale}");
        let mut eng = UpdateEngine::new(g.num_vertices());
        let n = g.num_vertices() as VertexId;
        let mut rng = XorShift(0x5eed_1234_5678_9abc);
        let few: Vec<VertexId> = (0..5).map(|_| rng.below(n as u64) as VertexId).collect();
        let many: Vec<VertexId> = (0..300).map(|_| rng.below(n as u64) as VertexId).collect();
        for state in ["built", "written"] {
            if state == "written" {
                let batch: Vec<EdgeUpdate> = (0..12)
                    .map(|_| {
                        let (a, b, _) = edges[rng.below(edges.len() as u64) as usize];
                        EdgeUpdate::new(a, b, (1 + rng.below(12) as u32) * scale)
                    })
                    .collect();
                stl.apply_batch(&mut g, &batch, Maintenance::ParetoSearch, &mut eng);
            }
            let flat = state == "built";
            assert_eq!(stl.is_flat(), flat, "{state} scale {scale}");
            let mut prof = QueryProfile::default();
            let mut out = Vec::new();
            for s in 0..n {
                let oracle = dijkstra::single_source(&g, s);
                for t in 0..n {
                    assert_eq!(stl.query(s, t), oracle[t as usize], "{state} query({s},{t})");
                    let d = stl.query_profiled(s, t, &mut prof);
                    assert_eq!(d, oracle[t as usize], "{state} query_profiled({s},{t})");
                }
                for targets in [&few, &many] {
                    stl.one_to_many_into(s, targets, &mut out);
                    let want: Vec<Dist> = targets.iter().map(|&t| oracle[t as usize]).collect();
                    assert_eq!(out, want, "{state} one_to_many_into({s}, {} targets)", want.len());
                }
                let mut want: Vec<(Dist, VertexId)> =
                    many.iter().map(|&p| (oracle[p as usize], p)).collect();
                want.sort_unstable();
                want.truncate(7);
                assert_eq!(stl.k_nearest(s, &many, 7), want, "{state} k_nearest({s})");
            }
            // The grid is connected: every s != t pair reads two prefixes.
            let slices = 2 * u64::from(n) * u64::from(n - 1);
            let (want_flat, want_chunked) = if flat { (slices, 0) } else { (0, slices) };
            assert_eq!(prof.flat_slices, want_flat, "{state}");
            assert_eq!(prof.chunked_slices, want_chunked, "{state}");
        }
    }

    #[test]
    fn profiled_queries_match_and_count() {
        let g = grid(7);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        let n = g.num_vertices() as VertexId;
        let profile = |stl: &Stl| {
            let mut prof = QueryProfile::default();
            for s in 0..n {
                for t in 0..n {
                    assert_eq!(stl.query_profiled(s, t, &mut prof), stl.query(s, t));
                }
            }
            assert_eq!(prof.queries, u64::from(n) * u64::from(n));
            prof
        };
        let flat = profile(&stl);
        assert_eq!(flat.chunked_slices, 0, "born-flat index reads flat");
        assert!(flat.flat_slices > 0, "connected pairs read label prefixes");

        stl.labels.set(0, 0, stl.labels().get(0, 0)); // un-flatten the born-flat arena
        let chunked = profile(&stl);
        assert_eq!(chunked.chunked_slices, flat.flat_slices, "same queries, now chunked");
        assert_eq!(chunked.flat_slices, 0);
    }

    #[test]
    fn disconnected_queries_are_inf() {
        let g = from_edges(5, vec![(0, 1, 2), (1, 2, 2), (3, 4, 2)]);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        assert_eq!(stl.query(0, 3), INF);
        assert_eq!(stl.query(4, 2), INF);
        assert_eq!(stl.query(0, 2), 4);
        assert_eq!(stl.query(3, 4), 2);
    }

    #[test]
    fn self_query_zero() {
        let g = grid(3);
        let stl = Stl::build(&g, &StlConfig::default());
        for v in 0..9u32 {
            assert_eq!(stl.query(v, v), 0);
        }
    }

    #[test]
    fn query_symmetric() {
        let g = grid(6);
        let stl = Stl::build(&g, &StlConfig::default());
        for s in 0..36u32 {
            for t in 0..36u32 {
                assert_eq!(stl.query(s, t), stl.query(t, s));
            }
        }
    }

    #[test]
    fn query_width_positive_for_connected_pairs() {
        let g = grid(4);
        let stl = Stl::build(&g, &StlConfig::default());
        assert!(stl.query_width(0, 15) >= 1);
        assert_eq!(stl.query_width(3, 3), 0);
    }

    #[test]
    fn one_to_many_matches_pointwise() {
        let g = grid(5);
        let stl = Stl::build(&g, &StlConfig::default());
        let targets: Vec<u32> = (0..25).step_by(3).collect();
        let dists = stl.one_to_many(7, &targets);
        for (&t, &d) in targets.iter().zip(&dists) {
            assert_eq!(d, stl.query(7, t));
        }
    }

    #[test]
    fn one_to_many_into_reuses_buffer() {
        let g = grid(5);
        let stl = Stl::build(&g, &StlConfig::default());
        let targets: Vec<u32> = (0..25).collect();
        let mut out = Vec::with_capacity(64);
        stl.one_to_many_into(7, &targets, &mut out);
        let cap = out.capacity();
        let by_query: Vec<_> = targets.iter().map(|&t| stl.query(7, t)).collect();
        assert_eq!(out, by_query, "one distance per target, in targets order");
        stl.one_to_many_into(7, &targets[..10], &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out.capacity(), cap, "no reallocation on a smaller refill");
    }

    #[test]
    fn one_to_many_matches_flat_and_chunked() {
        let g = grid(6);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        let targets: Vec<u32> = (0..36).collect();
        let flat = stl.one_to_many(11, &targets);
        stl.labels.set(0, 0, stl.labels().get(0, 0)); // un-flatten the born-flat arena
        assert_eq!(stl.one_to_many(11, &targets), flat);
    }

    /// Property: the tiled one-to-many scan is order-preserving and
    /// bit-identical to the per-target loop, on 10k-target random sets
    /// (duplicates included), both flat and chunked.
    #[test]
    fn tiled_one_to_many_bit_identical_to_loop() {
        let g = grid(10);
        let mut stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        let n = g.num_vertices() as u64;
        let mut rng = XorShift(0xfeed_face_cafe_beef);
        let targets: Vec<VertexId> = (0..10_000).map(|_| rng.below(n) as VertexId).collect();
        let sources: Vec<VertexId> = (0..4).map(|_| rng.below(n) as VertexId).collect();
        let (mut tiled, mut looped) = (Vec::new(), Vec::new());
        for flat in [true, false] {
            if !flat {
                stl.labels.set(0, 0, stl.labels().get(0, 0)); // un-flatten the born-flat arena
            }
            assert_eq!(stl.is_flat(), flat);
            for &s in &sources {
                stl.one_to_many_into(s, &targets, &mut tiled);
                stl.one_to_many_loop_into(s, &targets, &mut looped);
                assert_eq!(tiled.len(), targets.len());
                assert_eq!(tiled, looped, "s={s} flat={flat}");
            }
        }
    }

    #[test]
    fn k_nearest_sorted_and_reachable() {
        let g = from_edges(6, vec![(0, 1, 5), (1, 2, 5), (2, 3, 5), (4, 5, 1)]);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        // POI 4 is in another component: excluded.
        let knn = stl.k_nearest(0, &[3, 1, 4, 2], 3);
        assert_eq!(knn, vec![(5, 1), (10, 2), (15, 3)]);
        let knn1 = stl.k_nearest(0, &[3, 1, 4, 2], 1);
        assert_eq!(knn1, vec![(5, 1)]);
        assert!(stl.k_nearest(0, &[3, 1, 2], 0).is_empty());
        // k larger than the candidate pool: everything, still sorted.
        assert_eq!(stl.k_nearest(0, &[2, 1], 10), vec![(5, 1), (10, 2)]);
    }

    #[test]
    fn k_nearest_matches_full_sort_on_larger_pool() {
        let g = grid(7);
        let stl = Stl::build(&g, &StlConfig::default());
        let pois: Vec<u32> = (0..49).collect();
        for k in [1usize, 3, 10, 48, 49] {
            let fast = stl.k_nearest(24, &pois, k);
            let mut slow: Vec<(Dist, VertexId)> =
                pois.iter().map(|&p| (stl.query(24, p), p)).filter(|&(d, _)| d != INF).collect();
            slow.sort_unstable();
            slow.truncate(k);
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn exact_on_zero_weight_edges() {
        let g = from_edges(4, vec![(0, 1, 0), (1, 2, 3), (2, 3, 0), (0, 3, 9)]);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        assert_all_pairs_exact(&g, &stl);
    }

    #[test]
    fn exact_with_inf_edges_present() {
        // INF-weight edges model deleted roads (§8); they must be ignored.
        let g = from_edges(4, vec![(0, 1, INF), (1, 2, 4), (0, 2, 3), (2, 3, 5)]);
        let stl = Stl::build(&g, &StlConfig { leaf_size: 1, ..Default::default() });
        assert_all_pairs_exact(&g, &stl);
    }
}
