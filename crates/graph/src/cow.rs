//! Chunked copy-on-write storage for the mutable arrays of the index stack.
//!
//! The epoch-snapshot service publishes one immutable snapshot per applied
//! batch. Deep-cloning the world per publish costs `O(n + m + Σ|L(v)|)` even
//! for a one-edge batch — exactly the asymptotic the paper's maintenance
//! algorithms avoid. This module makes publish cost proportional to what a
//! batch actually *touched*:
//!
//! * Mutable flat arrays (the label arena, the CSR weight array) are split
//!   into **vertex-aligned chunks** of roughly [`DEFAULT_CHUNK_ENTRIES`]
//!   entries (~16 KiB). Each chunk is a [`Chunk`]: an offset view into a
//!   reference-counted, 64-byte-aligned buffer ([`AlignedBuf`]). Chunk
//!   boundaries never split one vertex's span, so a vertex's entries remain
//!   one contiguous `&[T]` and hot read loops are untouched.
//! * A *clone* of the store clones only the chunk table — `O(#chunks)`
//!   pointer copies, no data movement. That clone **is** the published
//!   snapshot.
//! * A *write* goes through [`cow_chunk`]: if the chunk is shared with any
//!   snapshot it is copied first (`O(chunk)`), otherwise it is written in
//!   place. Per epoch, a chunk is copied at most once; untouched chunks stay
//!   physically shared across every generation that doesn't write them.
//! * A [`DirtyTracker`] embedded in each store records the copies, so the
//!   write points the maintenance algorithms already funnel through
//!   (`Labels::set`, `CsrGraph::apply_update`) account bytes-copied per
//!   generation for free; the server drains it into its published counters.
//! * A store is **born flat** when its builder fills one 64-byte-aligned
//!   arena and wraps it with [`ChunkedStore::from_arena`]: every chunk is a
//!   view into that arena at its canonical offset, with no copy. Because
//!   chunks are offset views, flatness does not give up copy-on-write: the
//!   first write to a flat store promotes only the touched chunk into a
//!   private buffer, and publishing stays `O(#chunks)`. A flat store
//!   additionally exposes [`ChunkedStore::flat_slice`] so read paths can
//!   skip the chunk-table indirection entirely (the direct-offset query
//!   path in `stl_core`).
//! * Once writes have promoted chunks and the index quiesces,
//!   [`ChunkedStore::compact`] re-flattens the store into a fresh arena of
//!   the same layout — the only full-arena copy, and only after writes.
//!
//! [`ChunkedStore`] is the generic store; the CSR weight array uses it as
//! [`WeightStore`], and `stl_core`'s label arena wraps it behind its
//! per-vertex offset table.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::types::Weight;

/// Target entries per chunk: `4 Ki × 4 B = 16 KiB` for `u32` payloads.
/// Measured on the `publish` bench: a repair wave's affected vertices
/// scatter across the arena, so bytes-copied per epoch is roughly
/// `#touched regions × chunk size` — 16 KiB chunks copy ~4× less than
/// 64 KiB ones for the same batch, while the per-publish chunk-table clone
/// stays `O(#chunks)` pointer copies (tens of µs even at 10⁸ entries).
pub const DEFAULT_CHUNK_ENTRIES: u64 = 4 * 1024;

/// Marker for element types the aligned arena may store.
///
/// # Safety
///
/// Implementors must guarantee that **any** 8-bit pattern sequence of
/// `size_of::<Self>()` bytes is a valid value (the arena zero-initialises
/// backing lines before payloads are copied in), and that
/// `align_of::<Self>() <= 64` so a cache-line-aligned base pointer is
/// aligned for `Self`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: every bit pattern is a valid value for the primitive integers,
// and all have alignment ≤ 8.
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}

/// One cache line of backing storage for [`AlignedBuf`].
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct CacheLine([u8; 64]);

/// A `[T]` allocation whose base address is 64-byte aligned.
///
/// Backed by whole cache lines so a flat label arena starts (and every
/// 16-entry `u32` group stays) on a cache-line boundary — the layout the
/// vectorized min-plus kernel in `stl_core::query` wants. `Box<[T]>` gives
/// no alignment beyond `align_of::<T>()`, hence this wrapper.
pub struct AlignedBuf<T: Pod> {
    lines: Box<[CacheLine]>,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Pod> AlignedBuf<T> {
    /// A zero-initialised buffer of `len` entries (zero bytes are a valid
    /// `T` by the [`Pod`] contract).
    pub fn zeroed(len: usize) -> Self {
        let nl = (len * std::mem::size_of::<T>()).div_ceil(64);
        Self { lines: vec![CacheLine([0u8; 64]); nl].into_boxed_slice(), len, _elem: PhantomData }
    }

    /// An aligned copy of `src`.
    pub fn copy_of(src: &[T]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.as_mut_slice().copy_from_slice(src);
        buf
    }

    /// A buffer of `len` entries all set to `value`.
    pub fn filled(len: usize, value: T) -> Self {
        let mut buf = Self::zeroed(len);
        buf.as_mut_slice().fill(value);
        buf
    }

    /// Number of `T` entries.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no entries.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries as a slice whose base pointer is 64-byte aligned.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the backing lines cover `len * size_of::<T>()` bytes, the
        // base is 64-byte aligned (≥ align_of::<T>() by the Pod contract),
        // and every byte is initialised (zeroed at allocation), so any
        // readback is a valid `T` — again the Pod contract.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<T>(), self.len) }
    }

    /// Mutable access to the entries.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as for `as_slice`, plus `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<T>(), self.len) }
    }
}

impl<T: Pod> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

/// One chunk of a [`ChunkedStore`]: a `len`-entry view into a shared
/// aligned buffer starting at entry `off`.
///
/// A copy-on-write promoted chunk owns its whole buffer (`off == 0`,
/// `len == buf.len()`); in a born-flat or compacted store every chunk is a
/// view into one flat arena at its canonical global offset. Either way
/// `as_slice` is one bounds-checked index away, and clone is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct Chunk<T: Pod> {
    buf: Arc<AlignedBuf<T>>,
    off: usize,
    len: usize,
}

impl<T: Pod> Chunk<T> {
    /// A chunk owning a private aligned copy of `src`.
    fn owned(src: &[T]) -> Self {
        Chunk { buf: Arc::new(AlignedBuf::copy_of(src)), off: 0, len: src.len() }
    }

    /// The chunk's entries.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.buf.as_slice()[self.off..self.off + self.len]
    }

    /// Whether this chunk owns its whole buffer (a promotion candidate for
    /// in-place writes; views into a flat arena are never whole).
    #[inline]
    fn is_whole(&self) -> bool {
        self.off == 0 && self.len == self.buf.len()
    }

    /// Whether two chunks read the same physical payload.
    #[inline]
    fn same_payload(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.off == other.off
    }
}

impl<T: Pod> std::ops::Deref for Chunk<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

/// Bytes copied by copy-on-write chunk promotions (and moved by epoch
/// compactions), per drain window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Chunks that were physically copied (first write to a shared chunk).
    pub chunks_copied: u64,
    /// Total bytes those copies moved.
    pub bytes_copied: u64,
    /// Epoch-compaction passes that re-flattened the store into one
    /// contiguous aligned arena ([`ChunkedStore::compact`]).
    pub compactions: u64,
    /// Total bytes those compactions moved. Kept separate from
    /// `bytes_copied`: compaction is a deliberate full-arena copy traded
    /// for faster reads, not a per-epoch publish cost.
    pub bytes_flattened: u64,
}

impl std::ops::AddAssign for CowStats {
    fn add_assign(&mut self, o: Self) {
        self.chunks_copied += o.chunks_copied;
        self.bytes_copied += o.bytes_copied;
        self.compactions += o.compactions;
        self.bytes_flattened += o.bytes_flattened;
    }
}

impl std::ops::Add for CowStats {
    type Output = Self;
    fn add(mut self, o: Self) -> Self {
        self += o;
        self
    }
}

/// Chunk-granular dirty set: which chunks were COW-copied since the last
/// [`DirtyTracker::take`], how many bytes that moved, and how many bytes
/// compaction passes flattened in the same window.
#[derive(Debug, Default)]
pub struct DirtyTracker {
    bits: Vec<u64>,
    marked: Vec<u32>,
    bytes: u64,
    compactions: u64,
    flattened: u64,
}

impl DirtyTracker {
    /// Tracker for `num_chunks` chunks, all clean.
    pub fn new(num_chunks: usize) -> Self {
        Self {
            bits: vec![0; num_chunks.div_ceil(64)],
            marked: Vec::new(),
            bytes: 0,
            compactions: 0,
            flattened: 0,
        }
    }

    /// Record that `chunk` was copied, moving `bytes` bytes. Idempotent per
    /// drain window: re-marking an already-dirty chunk adds nothing (the
    /// second write hit the already-private copy).
    #[inline]
    pub fn mark(&mut self, chunk: usize, bytes: usize) {
        let (w, b) = (chunk / 64, 1u64 << (chunk % 64));
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.marked.push(chunk as u32);
            self.bytes += bytes as u64;
        }
    }

    /// Record one compaction pass that moved `bytes` bytes.
    #[inline]
    pub fn mark_compaction(&mut self, bytes: u64) {
        self.compactions += 1;
        self.flattened += bytes;
    }

    /// Whether `chunk` was copied in the current window.
    #[inline]
    pub fn is_dirty(&self, chunk: usize) -> bool {
        self.bits[chunk / 64] & (1 << (chunk % 64)) != 0
    }

    /// Counters for the current window without clearing it.
    pub fn stats(&self) -> CowStats {
        CowStats {
            chunks_copied: self.marked.len() as u64,
            bytes_copied: self.bytes,
            compactions: self.compactions,
            bytes_flattened: self.flattened,
        }
    }

    /// Drain the window: return its counters and reset to all-clean in
    /// `O(marked)`, not `O(#chunks)`.
    pub fn take(&mut self) -> CowStats {
        let out = self.stats();
        for &c in &self.marked {
            self.bits[c as usize / 64] &= !(1 << (c as usize % 64));
        }
        self.marked.clear();
        self.bytes = 0;
        self.compactions = 0;
        self.flattened = 0;
        out
    }
}

/// Make `chunk` uniquely owned (copying it if any snapshot still shares its
/// buffer, or if it is a view into a flat arena) and return its mutable
/// payload. Copies are recorded in `dirty` under index `c`.
#[inline]
pub fn cow_chunk<'a, T: Pod>(
    chunk: &'a mut Chunk<T>,
    c: usize,
    dirty: &mut DirtyTracker,
) -> &'a mut [T] {
    if !chunk.is_whole() || Arc::get_mut(&mut chunk.buf).is_none() {
        dirty.mark(c, std::mem::size_of_val(chunk.as_slice()));
        *chunk = Chunk::owned(chunk.as_slice());
    }
    Arc::get_mut(&mut chunk.buf).expect("chunk is uniquely owned after promotion").as_mut_slice()
}

/// Partition `0..n` vertices into chunks of at most ~`target` entries each,
/// never splitting one vertex's span. `offsets[v]..offsets[v+1]` is vertex
/// `v`'s span in the flat array. Returns `(chunk_of_vertex, chunk_starts)`
/// with `chunk_starts.len() == num_chunks + 1`; a vertex whose span alone
/// exceeds `target` gets a private oversized chunk.
pub fn partition_vertex_chunks(offsets: &[u64], target: u64) -> (Vec<u32>, Vec<u64>) {
    assert!(target > 0, "chunk target must be positive");
    let n = offsets.len() - 1;
    let mut chunk_of = Vec::with_capacity(n);
    let mut starts = vec![0u64];
    let mut cur_start = 0u64;
    let mut c = 0u32;
    for v in 0..n {
        if offsets[v] > cur_start && offsets[v + 1] - cur_start > target {
            starts.push(offsets[v]);
            cur_start = offsets[v];
            c += 1;
        }
        chunk_of.push(c);
    }
    starts.push(offsets[n]);
    (chunk_of, starts)
}

/// One view into `arena` per chunk, at the canonical offsets `chunk_starts`.
fn views<T: Pod>(arena: &Arc<AlignedBuf<T>>, chunk_starts: &[u64]) -> Vec<Chunk<T>> {
    chunk_starts
        .windows(2)
        .map(|w| Chunk { buf: Arc::clone(arena), off: w[0] as usize, len: (w[1] - w[0]) as usize })
        .collect()
}

/// A flat `[T]` array split into vertex-aligned copy-on-write [`Chunk`]s
/// with per-window dirty accounting and optional epoch compaction.
///
/// Addressing is by **global index** plus the **owning vertex** (the vertex
/// whose span contains the index), which locates the chunk in O(1) without
/// a search. The vertex-alignment invariant guarantees any one vertex's
/// span is one contiguous slice of one chunk.
#[derive(Debug)]
pub struct ChunkedStore<T: Pod> {
    chunk_of: Arc<[u32]>,
    chunk_starts: Arc<[u64]>,
    chunks: Vec<Chunk<T>>,
    /// `Some` iff every chunk is a view into this one contiguous arena at
    /// its canonical offset (established by [`Self::from_arena`] or
    /// [`Self::compact`], invalidated by the first subsequent write).
    flat: Option<Arc<AlignedBuf<T>>>,
    dirty: DirtyTracker,
}

impl<T: Pod> Clone for ChunkedStore<T> {
    /// O(#chunks): shares every chunk with the original. The clone starts
    /// with a clean dirty window of its own.
    fn clone(&self) -> Self {
        Self {
            chunk_of: Arc::clone(&self.chunk_of),
            chunk_starts: Arc::clone(&self.chunk_starts),
            chunks: self.chunks.clone(),
            flat: self.flat.clone(),
            dirty: DirtyTracker::new(self.chunks.len()),
        }
    }
}

impl<T: Pod> ChunkedStore<T> {
    fn assemble(chunk_of: Vec<u32>, chunk_starts: Vec<u64>, chunks: Vec<Chunk<T>>) -> Self {
        let dirty = DirtyTracker::new(chunks.len());
        Self {
            chunk_of: chunk_of.into(),
            chunk_starts: chunk_starts.into(),
            chunks,
            flat: None,
            dirty,
        }
    }

    /// Chunk a flat array along the vertex spans `offsets[v]..offsets[v+1]`.
    pub fn from_flat(offsets: &[u64], flat: &[T], target: u64) -> Self {
        assert_eq!(*offsets.last().expect("offsets never empty") as usize, flat.len());
        let (chunk_of, chunk_starts) = partition_vertex_chunks(offsets, target);
        let chunks = chunk_starts
            .windows(2)
            .map(|w| Chunk::owned(&flat[w[0] as usize..w[1] as usize]))
            .collect();
        Self::assemble(chunk_of, chunk_starts, chunks)
    }

    /// Wrap an already-filled `arena` in place, chunked along the vertex
    /// spans `offsets[v]..offsets[v+1]`: every chunk is a view into it at
    /// its canonical offset — exactly the layout [`Self::compact`]
    /// produces, without the copy. With `flat` the store starts flat
    /// ([`Self::flat_slice`] exposes the arena and `compact` returns 0);
    /// without it the chunk views are the only way in, for callers whose
    /// direct offsets cannot address the whole arena. Either way the first
    /// write to a chunk promotes it.
    pub fn from_arena(offsets: &[u64], arena: AlignedBuf<T>, target: u64, flat: bool) -> Self {
        assert_eq!(*offsets.last().expect("offsets never empty") as usize, arena.len());
        let (chunk_of, chunk_starts) = partition_vertex_chunks(offsets, target);
        let arena = Arc::new(arena);
        let chunks = views(&arena, &chunk_starts);
        let mut store = Self::assemble(chunk_of, chunk_starts, chunks);
        store.flat = flat.then_some(arena);
        store
    }

    /// Total number of entries.
    #[inline(always)]
    pub fn len(&self) -> usize {
        *self.chunk_starts.last().expect("chunk_starts never empty") as usize
    }

    /// Whether the store is empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry at global index `idx` inside `owner`'s span.
    #[inline(always)]
    pub fn get(&self, owner: usize, idx: u64) -> T {
        let c = self.chunk_of[owner] as usize;
        self.chunks[c][(idx - self.chunk_starts[c]) as usize]
    }

    /// Overwrite the entry at global index `idx` inside `owner`'s span,
    /// copying the chunk first if a snapshot still shares it.
    #[inline]
    pub fn set(&mut self, owner: usize, idx: u64, value: T) {
        let c = self.chunk_of[owner] as usize;
        let j = (idx - self.chunk_starts[c]) as usize;
        self.flat = None;
        cow_chunk(&mut self.chunks[c], c, &mut self.dirty)[j] = value;
    }

    /// The contiguous entries `lo..hi`, which must lie inside `owner`'s
    /// span (vertex alignment guarantees they share one chunk).
    #[inline(always)]
    pub fn slice(&self, owner: usize, lo: u64, hi: u64) -> &[T] {
        let c = self.chunk_of[owner] as usize;
        let base = self.chunk_starts[c];
        &self.chunks[c].as_slice()[(lo - base) as usize..(hi - base) as usize]
    }

    /// The payload of chunk `c` — for callers that resolved chunk-local
    /// coordinates themselves (e.g. a precomputed per-vertex location
    /// table, which turns the `chunk_of → chunk_starts` pointer chase into
    /// a single load on read hot paths).
    #[inline(always)]
    pub fn chunk(&self, c: usize) -> &[T] {
        self.chunks[c].as_slice()
    }

    /// Overwrite entry `j` of chunk `c` (chunk-local coordinates), copying
    /// the chunk first if a snapshot still shares it.
    #[inline]
    pub fn set_in_chunk(&mut self, c: usize, j: usize, value: T) {
        self.flat = None;
        cow_chunk(&mut self.chunks[c], c, &mut self.dirty)[j] = value;
    }

    /// Iterate all entries in global order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.chunks.iter().flat_map(|c| c.as_slice().iter().copied())
    }

    /// Iterate the chunk payloads in global order (serialization).
    pub fn chunk_slices(&self) -> impl Iterator<Item = &[T]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// `(chunk-of-vertex, chunk-start-offsets)` layout tables, for builders
    /// that compute chunk-local indices themselves.
    pub fn layout(&self) -> (&[u32], &[u64]) {
        (&self.chunk_of, &self.chunk_starts)
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether chunk `c` is physically shared with `other` (same payload).
    pub fn shares_chunk(&self, other: &Self, c: usize) -> bool {
        self.chunks[c].same_payload(&other.chunks[c])
    }

    /// How many chunks are physically shared with `other`.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| a.same_payload(b)).count()
    }

    /// Drain the copy-on-write counters accumulated since the last drain.
    pub fn take_cow_stats(&mut self) -> CowStats {
        self.dirty.take()
    }

    /// Current window's counters without draining.
    pub fn cow_stats(&self) -> CowStats {
        self.dirty.stats()
    }

    /// Re-flatten a written store into one contiguous 64-byte-aligned arena.
    ///
    /// Every chunk becomes a view into the arena at its canonical global
    /// offset — the layout [`Self::from_arena`] gives a store at birth — so
    /// reads (chunked or [`flat_slice`](Self::flat_slice)-based) see
    /// identical values, clones still share per chunk, and the next write
    /// still promotes only its own chunk (`O(chunk)`, not `O(arena)`).
    /// Sharing with snapshots taken *before* the compaction is given up —
    /// that full-arena copy is the price of the flat read path, and it is
    /// accounted in [`CowStats::bytes_flattened`].
    ///
    /// Returns the bytes moved; 0 (and no work) if the store is already
    /// flat.
    pub fn compact(&mut self) -> u64 {
        if self.flat.is_some() {
            return 0;
        }
        let total = self.len();
        let mut buf = AlignedBuf::zeroed(total);
        let dst = buf.as_mut_slice();
        for (c, w) in self.chunk_starts.windows(2).enumerate() {
            dst[w[0] as usize..w[1] as usize].copy_from_slice(self.chunks[c].as_slice());
        }
        let arena = Arc::new(buf);
        self.chunks = views(&arena, &self.chunk_starts);
        self.flat = Some(arena);
        let bytes = total as u64 * std::mem::size_of::<T>() as u64;
        self.dirty.mark_compaction(bytes);
        bytes
    }

    /// Whether the store is currently one flat arena (compacted and not
    /// written since).
    #[inline(always)]
    pub fn is_flat(&self) -> bool {
        self.flat.is_some()
    }

    /// The whole store as one contiguous 64-byte-aligned slice, if flat.
    /// Global offsets index it directly — no chunk table in the way.
    #[inline(always)]
    pub fn flat_slice(&self) -> Option<&[T]> {
        self.flat.as_ref().map(|b| b.as_slice())
    }

    /// A physically independent copy (every chunk reallocated) — the cost a
    /// deep snapshot clone pays; kept for baselines and benchmarks.
    pub fn deep_clone(&self) -> Self {
        Self {
            chunk_of: Arc::clone(&self.chunk_of),
            chunk_starts: Arc::clone(&self.chunk_starts),
            chunks: self.chunks.iter().map(|c| Chunk::owned(c.as_slice())).collect(),
            flat: None,
            dirty: DirtyTracker::new(self.chunks.len()),
        }
    }

    /// Resident bytes of payload + chunk table + layout arrays.
    pub fn memory_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
            + self.chunks.len() * std::mem::size_of::<Chunk<T>>()
            + self.chunk_of.len() * 4
            + self.chunk_starts.len() * 8
    }

    /// Open a [`DisjointWriter`] phase over this store: shared access for a
    /// pool of workers whose read/write sets are **disjoint at entry
    /// granularity**, with copy-on-write promotion still handled per chunk.
    pub fn disjoint_writer(&mut self) -> DisjointWriter<'_, T> {
        let nc = self.chunks.len();
        let mut state = Vec::with_capacity(nc);
        let mut ptrs = Vec::with_capacity(nc);
        let mut lens = Vec::with_capacity(nc);
        for chunk in &mut self.chunks {
            lens.push(chunk.len as u32);
            let unique = chunk.is_whole() && Arc::get_mut(&mut chunk.buf).is_some();
            if unique {
                // Uniquely owned: workers write in place, exactly like
                // `cow_chunk` would. Never the case while flat — the arena
                // co-owns every chunk's buffer — which is what lets the
                // phase's drop clear `flat` on promotions alone.
                debug_assert!(self.flat.is_none(), "flat store with a uniquely owned chunk");
                state.push(AtomicU8::new(CHUNK_PRIVATE));
                let payload = Arc::get_mut(&mut chunk.buf).expect("chunk is unique").as_mut_slice();
                ptrs.push(AtomicPtr::new(payload.as_mut_ptr()));
            } else {
                // A snapshot (or the flat arena) still shares this chunk's
                // buffer: the pointer is read-only until the first write
                // promotes the chunk.
                state.push(AtomicU8::new(CHUNK_SHARED));
                ptrs.push(AtomicPtr::new(chunk.as_slice().as_ptr().cast_mut()));
            }
        }
        DisjointWriter {
            store: self,
            state: state.into_boxed_slice(),
            ptrs: ptrs.into_boxed_slice(),
            lens: lens.into_boxed_slice(),
            promoted: Mutex::new(Vec::new()),
        }
    }
}

// Per-chunk promotion states of a [`DisjointWriter`] phase.
const CHUNK_PRIVATE: u8 = 0; // uniquely owned — write in place
const CHUNK_SHARED: u8 = 1; // shared with a snapshot — promote before writing
const CHUNK_PROMOTING: u8 = 2; // one worker is copying it right now

/// Concurrent write access to a [`ChunkedStore`] for workers with
/// **disjoint entry sets**, preserving the copy-on-write publish contract.
///
/// The serial write path (`cow_chunk`) promotes a shared chunk under `&mut`
/// exclusivity. A pool of repair workers cannot share that: two workers may
/// write *different entries of the same chunk* (label indices of one vertex
/// interleave regions owned by different stable trees), so chunk-range
/// handles cannot partition the arena. Instead this phase object hands every
/// worker shared access with:
///
/// * **no per-write locking** — a write is one atomic state load plus one
///   atomic pointer load; reads are a single atomic pointer load;
/// * **per-chunk promotion gates** — the first write to a chunk still shared
///   with a snapshot CASes the chunk's state to `PROMOTING`, copies the
///   payload into a fresh aligned buffer, publishes the new base pointer,
///   and flips the state to `PRIVATE`; concurrent writers of *other
///   entries* of the same chunk spin only for the duration of that one
///   copy. Per phase each chunk is copied at most once, exactly as in the
///   serial path;
/// * **deferred installation** — promoted chunks are swapped into the store
///   and recorded in its [`DirtyTracker`] when the phase ends (on drop), so
///   `take_cow_stats` accounting is indistinguishable from serial repair,
///   and any write invalidates a flat arena.
///
/// Readers racing a promotion of their chunk may observe the old or the new
/// payload; both hold identical values for every entry outside the
/// promoting worker's own set, so disjointness makes either answer correct.
/// The entry-level access methods are `unsafe`: the *caller* owns the proof
/// that no entry is touched by two workers (for the label arena that proof
/// is the τ-disjointness argument in `stl_core::labelling`).
#[derive(Debug)]
pub struct DisjointWriter<'a, T: Pod> {
    store: &'a mut ChunkedStore<T>,
    state: Box<[AtomicU8]>,
    ptrs: Box<[AtomicPtr<T>]>,
    lens: Box<[u32]>,
    /// Freshly promoted chunks, kept alive here until installed on drop.
    promoted: Mutex<Vec<(u32, Arc<AlignedBuf<T>>)>>,
}

impl<T: Pod> DisjointWriter<'_, T> {
    /// Read entry `j` of chunk `c`.
    ///
    /// # Safety
    /// No other worker may concurrently *write* this entry. (Reads of
    /// entries another worker owns are unsound — the disjointness contract
    /// covers reads and writes alike.)
    #[inline(always)]
    pub unsafe fn get_in_chunk(&self, c: usize, j: usize) -> T {
        debug_assert!(j < self.lens[c] as usize, "entry {j} out of chunk {c}");
        // Acquire pairs with the Release pointer publish in `promote`: a
        // reader that observes the promoted pointer sees the copied payload.
        unsafe { *self.ptrs[c].load(Ordering::Acquire).add(j) }
    }

    /// Overwrite entry `j` of chunk `c`, promoting the chunk first if a
    /// snapshot still shares it.
    ///
    /// # Safety
    /// No other worker may concurrently read or write this entry.
    #[inline]
    pub unsafe fn set_in_chunk(&self, c: usize, j: usize, value: T) {
        debug_assert!(j < self.lens[c] as usize, "entry {j} out of chunk {c}");
        if self.state[c].load(Ordering::Acquire) != CHUNK_PRIVATE {
            self.promote(c);
        }
        unsafe { *self.ptrs[c].load(Ordering::Acquire).add(j) = value }
    }

    /// Promote chunk `c` to a private copy (first write of the phase to a
    /// chunk a snapshot still shares). Exactly one worker wins the CAS and
    /// copies; losers spin until the copy is published.
    #[cold]
    fn promote(&self, c: usize) {
        loop {
            match self.state[c].compare_exchange(
                CHUNK_SHARED,
                CHUNK_PROMOTING,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    let len = self.lens[c] as usize;
                    let src = self.ptrs[c].load(Ordering::Relaxed);
                    // SAFETY: `src` points at the shared payload, which no
                    // worker ever writes (writes require CHUNK_PRIVATE).
                    let mut fresh = Arc::new(AlignedBuf::copy_of(unsafe {
                        std::slice::from_raw_parts(src, len)
                    }));
                    let base = Arc::get_mut(&mut fresh)
                        .expect("fresh chunk is unique")
                        .as_mut_slice()
                        .as_mut_ptr();
                    // Keep the copy alive before publishing its pointer.
                    self.promoted.lock().expect("promotion list poisoned").push((c as u32, fresh));
                    self.ptrs[c].store(base, Ordering::Release);
                    self.state[c].store(CHUNK_PRIVATE, Ordering::Release);
                    return;
                }
                Err(CHUNK_PRIVATE) => return, // lost the race; copy is live
                Err(_) => std::hint::spin_loop(), // promotion in flight
            }
        }
    }

    /// How many chunks this phase has promoted so far.
    pub fn promoted_chunks(&self) -> usize {
        self.promoted.lock().expect("promotion list poisoned").len()
    }
}

impl<T: Pod> Drop for DisjointWriter<'_, T> {
    /// End of phase: install promoted chunks into the store and account them
    /// in the dirty window (mirroring serial `cow_chunk` writes).
    fn drop(&mut self) {
        let promoted = std::mem::take(&mut *self.promoted.lock().expect("promotion list poisoned"));
        if !promoted.is_empty() {
            // While the store is flat its arena holds a second reference to
            // every chunk's buffer, so every chunk enters the phase shared
            // and a phase that wrote anything promoted something.
            self.store.flat = None;
        }
        for (c, fresh) in promoted {
            let c = c as usize;
            let len = self.store.chunks[c].len;
            self.store.dirty.mark(c, len * std::mem::size_of::<T>());
            self.store.chunks[c] = Chunk { buf: fresh, off: 0, len };
        }
    }
}

/// The CSR weight array: a [`ChunkedStore`] over arc weights, chunked along
/// vertex neighbour-list boundaries so `neighbor_slices` stays contiguous.
pub type WeightStore = ChunkedStore<Weight>;

impl ChunkedStore<Weight> {
    /// Chunk the flat weight array along vertex arc-range boundaries
    /// (`arc_offsets` is the CSR offset array, `arc_offsets[v]..[v+1]` being
    /// vertex `v`'s arcs).
    pub fn from_csr(arc_offsets: &[u32], weights: &[Weight]) -> Self {
        let wide: Vec<u64> = arc_offsets.iter().map(|&o| o as u64).collect();
        Self::from_flat(&wide, weights, DEFAULT_CHUNK_ENTRIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets(spans: &[u64]) -> Vec<u64> {
        let mut o = vec![0u64];
        for &s in spans {
            o.push(o.last().unwrap() + s);
        }
        o
    }

    #[test]
    fn partition_respects_vertex_alignment() {
        // Spans 3,3,3,3 with target 4: v0 alone ends at 3 (≤4, keep), v1
        // would end at 6 (>4, split before v1), and so on.
        let o = offsets(&[3, 3, 3, 3]);
        let (chunk_of, starts) = partition_vertex_chunks(&o, 4);
        assert_eq!(chunk_of, vec![0, 1, 2, 3]);
        assert_eq!(starts, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn partition_packs_small_vertices() {
        let o = offsets(&[2, 2, 2, 2, 2]);
        let (chunk_of, starts) = partition_vertex_chunks(&o, 4);
        assert_eq!(chunk_of, vec![0, 0, 1, 1, 2]);
        assert_eq!(starts, vec![0, 4, 8, 10]);
    }

    #[test]
    fn partition_oversized_vertex_gets_private_chunk() {
        let o = offsets(&[1, 100, 1]);
        let (chunk_of, starts) = partition_vertex_chunks(&o, 4);
        assert_eq!(chunk_of, vec![0, 1, 2]);
        assert_eq!(starts, vec![0, 1, 101, 102]);
    }

    #[test]
    fn partition_handles_empty() {
        let (chunk_of, starts) = partition_vertex_chunks(&[0], 4);
        assert!(chunk_of.is_empty());
        assert_eq!(starts, vec![0, 0]);
    }

    #[test]
    fn aligned_buf_is_cache_line_aligned() {
        for len in [0usize, 1, 15, 16, 17, 4096] {
            let buf = AlignedBuf::<u32>::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0, "len={len}");
            assert!(buf.as_slice().iter().all(|&x| x == 0));
        }
        let copy = AlignedBuf::copy_of(&[7u32, 8, 9]);
        assert_eq!(copy.as_slice(), &[7, 8, 9]);
        assert_eq!(copy.as_slice().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn dirty_tracker_idempotent_marks_and_drains() {
        let mut d = DirtyTracker::new(130);
        d.mark(0, 100);
        d.mark(129, 50);
        d.mark(0, 100); // already dirty: no double count
        assert!(d.is_dirty(0) && d.is_dirty(129) && !d.is_dirty(64));
        let want = CowStats { chunks_copied: 2, bytes_copied: 150, ..Default::default() };
        assert_eq!(d.stats(), want);
        assert_eq!(d.take(), want);
        assert_eq!(d.stats(), CowStats::default());
        assert!(!d.is_dirty(0));
    }

    #[test]
    fn dirty_tracker_accounts_compactions() {
        let mut d = DirtyTracker::new(4);
        d.mark_compaction(4096);
        assert_eq!(
            d.stats(),
            CowStats { compactions: 1, bytes_flattened: 4096, ..Default::default() }
        );
        assert_eq!(d.take().compactions, 1);
        assert_eq!(d.stats(), CowStats::default());
    }

    fn store(target: u64) -> WeightStore {
        // 4 vertices with 2 arcs each.
        let offs: Vec<u64> = vec![0, 2, 4, 6, 8];
        let weights: Vec<Weight> = (0..8).collect();
        ChunkedStore::from_flat(&offs, &weights, target)
    }

    #[test]
    fn chunked_store_reads_match_flat_layout() {
        let s = store(4);
        assert_eq!(s.len(), 8);
        assert_eq!(s.num_chunks(), 2);
        for owner in 0..4 {
            for idx in (owner as u64 * 2)..(owner as u64 * 2 + 2) {
                assert_eq!(s.get(owner, idx), idx as Weight);
            }
        }
        assert_eq!(s.slice(1, 2, 4), &[2, 3]);
        assert_eq!(s.slice(3, 6, 8), &[6, 7]);
        let all: Vec<Weight> = s.iter().collect();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        let concat: Vec<Weight> = s.chunk_slices().flatten().copied().collect();
        assert_eq!(concat, all);
    }

    #[test]
    fn clone_shares_until_first_write() {
        let mut a = store(4);
        let b = a.clone();
        assert_eq!(a.shared_chunks_with(&b), 2);
        a.set(0, 1, 99);
        assert_eq!(a.shared_chunks_with(&b), 1, "only the written chunk unshared");
        assert!(!a.shares_chunk(&b, 0));
        assert!(a.shares_chunk(&b, 1));
        assert_eq!(a.get(0, 1), 99);
        assert_eq!(b.get(0, 1), 1, "snapshot keeps the old value");
        // First write copied one 4-entry chunk (16 bytes); second write to
        // the same chunk is free.
        assert_eq!(
            a.cow_stats(),
            CowStats { chunks_copied: 1, bytes_copied: 16, ..Default::default() }
        );
        a.set(0, 0, 98);
        assert_eq!(
            a.take_cow_stats(),
            CowStats { chunks_copied: 1, bytes_copied: 16, ..Default::default() }
        );
    }

    #[test]
    fn unique_store_writes_in_place() {
        let mut a = store(4);
        a.set(2, 5, 42);
        assert_eq!(a.cow_stats(), CowStats::default(), "no snapshot → no copy");
        assert_eq!(a.get(2, 5), 42);
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let a = store(4);
        let b = a.deep_clone();
        assert_eq!(a.shared_chunks_with(&b), 0);
        assert_eq!(b.get(0, 0), 0);
    }

    #[test]
    fn from_arena_is_born_compacted() {
        // Wrapping a filled arena gives the layout, values, size and
        // flatness of a chunked store compacted after the fact — and no
        // compaction is recorded, because nothing was copied.
        let offs: Vec<u64> = vec![0, 2, 4, 6, 8];
        let weights: Vec<Weight> = (0..8).collect();
        let mut born = ChunkedStore::from_arena(&offs, AlignedBuf::copy_of(&weights), 4, true);
        let mut twin = store(4);
        twin.compact();
        assert!(born.is_flat());
        assert_eq!(born.flat_slice(), twin.flat_slice());
        assert_eq!(born.layout(), twin.layout());
        assert_eq!(born.memory_bytes(), twin.memory_bytes());
        assert_eq!(born.compact(), 0);
        assert_eq!(born.cow_stats(), CowStats::default());
        // The first write promotes exactly the touched chunk; a second
        // write to it is in place.
        born.set(3, 7, 70);
        assert!(!born.is_flat());
        born.set(2, 4, 40);
        assert_eq!(
            born.take_cow_stats(),
            CowStats { chunks_copied: 1, bytes_copied: 16, ..Default::default() }
        );
        assert_eq!(born.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 40, 5, 6, 70]);
    }

    #[test]
    fn from_arena_without_flat_keeps_views() {
        let offs: Vec<u64> = vec![0, 2, 4, 6, 8];
        let weights: Vec<Weight> = (0..8).collect();
        let mut a = ChunkedStore::from_arena(&offs, AlignedBuf::copy_of(&weights), 4, false);
        assert!(!a.is_flat() && a.flat_slice().is_none());
        assert_eq!(a.iter().collect::<Vec<_>>(), weights);
        a.set(0, 1, 9);
        assert_eq!(a.cow_stats().chunks_copied, 1, "views promote like a flat store's");
        assert_eq!(a.get(0, 1), 9);
    }

    #[test]
    fn compact_preserves_values_and_flat_reads() {
        let mut a = store(4);
        assert!(!a.is_flat());
        let bytes = a.compact();
        assert_eq!(bytes, 8 * 4);
        assert!(a.is_flat());
        let flat = a.flat_slice().expect("flat after compaction");
        assert_eq!(flat, (0..8).collect::<Vec<Weight>>().as_slice());
        assert_eq!(flat.as_ptr() as usize % 64, 0, "arena must be 64-byte aligned");
        // Chunked reads go through the same arena and agree.
        for owner in 0..4 {
            for idx in (owner as u64 * 2)..(owner as u64 * 2 + 2) {
                assert_eq!(a.get(owner, idx), idx as Weight);
            }
        }
        assert_eq!(a.cow_stats().compactions, 1);
        assert_eq!(a.cow_stats().bytes_flattened, 32);
        // Compacting a flat store is free.
        assert_eq!(a.compact(), 0);
        assert_eq!(a.cow_stats().compactions, 1);
    }

    #[test]
    fn compact_keeps_cow_chunk_granular() {
        let mut a = store(4);
        a.compact();
        let snap = a.clone();
        assert!(snap.is_flat(), "clone of a flat store starts flat");
        assert_eq!(a.shared_chunks_with(&snap), 2);
        a.set(0, 1, 99);
        assert!(!a.is_flat(), "first write un-flattens the writer");
        assert!(snap.is_flat(), "held snapshot stays flat");
        assert_eq!(snap.get(0, 1), 1, "snapshot keeps the old value");
        assert_eq!(a.get(0, 1), 99);
        // Only the touched chunk was promoted out of the arena.
        assert_eq!(a.shared_chunks_with(&snap), 1);
        assert_eq!(a.cow_stats().chunks_copied, 1, "write after compact copies one chunk");
    }

    #[test]
    fn compact_after_divergence_reflattens() {
        let mut a = store(4);
        a.compact();
        a.set(0, 0, 5);
        assert!(!a.is_flat());
        a.compact();
        assert!(a.is_flat());
        assert_eq!(a.flat_slice().unwrap()[0], 5);
        assert_eq!(a.cow_stats().compactions, 2);
    }

    #[test]
    fn disjoint_writer_in_place_when_unique() {
        let mut a = store(4);
        {
            let w = a.disjoint_writer();
            // SAFETY: single thread, disjoint trivially.
            unsafe { w.set_in_chunk(0, 1, 91) };
            assert_eq!(unsafe { w.get_in_chunk(0, 1) }, 91);
            assert_eq!(w.promoted_chunks(), 0, "unique chunks write in place");
        }
        assert_eq!(a.get(0, 1), 91);
        assert_eq!(a.cow_stats(), CowStats::default());
    }

    #[test]
    fn disjoint_writer_promotes_shared_chunks_once() {
        let mut a = store(4);
        let snap = a.clone();
        {
            let w = a.disjoint_writer();
            // SAFETY: single thread.
            unsafe {
                w.set_in_chunk(1, 0, 70);
                w.set_in_chunk(1, 1, 71); // same chunk: no second copy
                assert_eq!(w.get_in_chunk(1, 0), 70, "read-your-write after promotion");
            }
            assert_eq!(w.promoted_chunks(), 1);
        }
        // Installed on drop: values visible, snapshot untouched, dirty window
        // carries exactly one 16-byte chunk copy (4 × u32).
        assert_eq!(a.get(2, 4), 70);
        assert_eq!(a.get(2, 5), 71);
        assert_eq!(snap.get(2, 4), 4);
        assert!(!a.shares_chunk(&snap, 1));
        assert!(a.shares_chunk(&snap, 0), "untouched chunk stays shared");
        assert_eq!(
            a.take_cow_stats(),
            CowStats { chunks_copied: 1, bytes_copied: 16, ..Default::default() }
        );
    }

    #[test]
    fn disjoint_writer_promotes_out_of_flat_arena() {
        let mut a = store(4);
        a.compact();
        let snap = a.clone();
        {
            let w = a.disjoint_writer();
            // SAFETY: single thread.
            unsafe { w.set_in_chunk(0, 0, 55) };
        }
        assert!(!a.is_flat(), "writer phase with writes un-flattens");
        assert!(snap.is_flat());
        assert_eq!(a.get(0, 0), 55);
        assert_eq!(snap.get(0, 0), 0, "flat snapshot keeps old values");
        assert_eq!(a.shared_chunks_with(&snap), 1, "untouched chunk still aliases the arena");
    }

    #[test]
    fn disjoint_writer_concurrent_disjoint_entries() {
        // 8 vertices × 4 entries, tiny chunks, everything pinned by a
        // snapshot: two threads write interleaved disjoint entries and race
        // on promotions.
        let offs = offsets(&[4, 4, 4, 4, 4, 4, 4, 4]);
        let flat: Vec<u32> = (0..32).collect();
        let mut a: ChunkedStore<u32> = ChunkedStore::from_flat(&offs, &flat, 8);
        let snap = a.clone();
        {
            let w = a.disjoint_writer();
            let wr = &w;
            std::thread::scope(|s| {
                for t in 0..2u32 {
                    s.spawn(move || {
                        for v in 0..8usize {
                            // Thread 0 owns entries 0..2 of every vertex,
                            // thread 1 entries 2..4 — disjoint, interleaved
                            // within every chunk.
                            for e in (t as usize * 2)..(t as usize * 2 + 2) {
                                let idx = v * 4 + e;
                                let c = wr.store.chunk_of[v] as usize;
                                let j = idx - wr.store.chunk_starts[c] as usize;
                                // SAFETY: entry sets are disjoint by
                                // construction.
                                unsafe { wr.set_in_chunk(c, j, 1000 + idx as u32) };
                            }
                        }
                    });
                }
            });
        }
        for v in 0..8usize {
            for e in 0..4usize {
                let idx = (v * 4 + e) as u64;
                assert_eq!(a.get(v, idx), 1000 + idx as u32);
                assert_eq!(snap.get(v, idx), idx as u32, "snapshot must keep old values");
            }
        }
        let stats = a.take_cow_stats();
        assert_eq!(stats.chunks_copied as usize, a.num_chunks(), "all chunks were shared");
    }
}
