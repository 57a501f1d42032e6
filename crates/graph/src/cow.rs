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
//!   entries (~16 KiB). Each chunk is an offset view into a
//!   reference-counted, 64-byte-aligned buffer ([`AlignedBuf`]). Chunk
//!   boundaries never split one vertex's span, so a vertex's entries remain
//!   one contiguous `&[T]` and hot read loops are untouched.
//! * The chunk table is **two-level** ([`Paged`]): chunks sit in fixed
//!   pages of [`PAGE`] chunks, each page behind one `Arc`. A *clone* of the
//!   store copies one pointer per page — `O(#chunks / PAGE)`, no data
//!   movement. That clone **is** the published snapshot.
//! * A *write* first copies the chunk's page if a snapshot still shares it
//!   (`PAGE` refcount bumps; no payload moves), then promotes the chunk: if
//!   the chunk is shared with any snapshot it is copied (`O(chunk)`),
//!   otherwise it is written in place. Per epoch, a page and a chunk are
//!   each copied at most once; untouched pages and chunks stay physically
//!   shared across every generation that doesn't write them.
//! * A dirty tracker embedded in each store records the chunk copies, so
//!   the write points the maintenance algorithms already funnel through
//!   (`Labels::phase_writer`, `CsrGraph::apply_update`) account
//!   bytes-copied per generation for free; the server drains it into its
//!   published counters.
//! * A store is **born flat** when its builder fills one 64-byte-aligned
//!   arena and wraps it with [`ChunkedStore::from_arena`]: every chunk is a
//!   view into that arena at its canonical offset, with no copy. Because
//!   chunks are offset views, flatness does not give up copy-on-write: the
//!   first write to a flat store promotes only the touched chunk into a
//!   private buffer, and publishing stays `O(#pages)`. A flat store
//!   additionally exposes [`ChunkedStore::flat_slice`] so read paths can
//!   skip the chunk-table indirection entirely (the direct-offset query
//!   path in `stl_core`). The first write un-flattens the store for good:
//!   nothing ever copies the whole arena back together.
//! * A repair phase that reads and writes many entries of few chunks opens
//!   a [`PhaseWriter`]: the same copy-on-write writes, with each chunk's
//!   payload resolved once, on first touch, so a phase resolves only the
//!   chunks it touches.
//!
//! [`ChunkedStore`] is the generic store; the CSR weight array uses it as
//! [`WeightStore`], and `stl_core`'s label arena wraps it behind its
//! per-vertex offset table, with its per-chunk escape tables in a
//! [`Paged`] table of their own.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr::{self, NonNull};
use std::sync::Arc;

use crate::types::Weight;

/// Target entries per chunk: `4 Ki × 4 B = 16 KiB` for `u32` payloads.
/// Measured on the `publish` bench: a repair wave's affected vertices
/// scatter across the arena, so bytes-copied per epoch is roughly
/// `#touched regions × chunk size` — 16 KiB chunks copy ~4× less than
/// 64 KiB ones for the same batch. Small chunks make a long chunk table:
/// 6 383 label chunks at 65 536 vertices, whose one-level table took
/// 151–229 µs to clone and 110–164 µs to drop per publish (p50 over 1 280
/// single-edge batches, one pinned CPU of a 2-vCPU Xeon host). The
/// [`Paged`] table's [`PAGE`]-chunk pages are what keeps that small.
pub const DEFAULT_CHUNK_ENTRIES: u64 = 4 * 1024;

/// Entries per page of a [`Paged`] table, a power of two. Measured with
/// 1 280 single-edge batches and a snapshot held per batch, as a server
/// publishes, on one pinned CPU of a 2-vCPU Xeon host (p50 µs, six runs at
/// 65 536 vertices with 6 383 label chunks, three at 16 384 with 760):
///
/// | `PAGE` | clone, 64k | drop, 64k | apply + clone + drop, 16k |
/// |---|---|---|---|
/// | one-level table | 151–229 | 110–164 | 141–219 |
/// | 8 | 16–26 | 18–25 | 110–127 |
/// | 16 | 9–15 | 13–19 | 113–116 |
/// | 64 | 3.5–6 | 8–14 | 108–149 |
///
/// The single-edge apply (233–386 µs at 64k in every variant) spread more
/// than any page size moved it. What a larger page costs lands in the
/// apply: a batch that promotes 160 chunks at 64k first copies their pages,
/// up to 160 × `PAGE` handle clones, and the retired snapshot later drops
/// as many. 16 keeps that under a few thousand refcount bumps a batch while
/// the clone and drop stay under 20 µs each.
pub const PAGE: usize = 16;

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
/// Backed by whole cache lines so a flat label arena starts on a
/// cache-line boundary, where the query kernel in `stl_core::query` begins
/// its label scans. `Box<[T]>` gives no alignment beyond `align_of::<T>()`,
/// hence this wrapper.
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
/// aligned buffer.
///
/// A copy-on-write promoted chunk owns its whole buffer; in a store
/// wrapped around an arena every unwritten chunk is a view into it at its
/// canonical global offset. The view's first entry is cached next to the
/// `Arc`, so a read goes from the chunk table straight to the payload
/// instead of first loading the buffer's header: behind the two-level
/// [`Paged`] table a chunked read then takes as many dependent loads as
/// it did behind a one-level table that did load the header. Clone is an
/// `Arc` bump.
#[derive(Debug, Clone)]
struct Chunk<T: Pod> {
    buf: Arc<AlignedBuf<T>>,
    /// The view's first entry, inside `buf`. Taken from `buf` when the
    /// chunk is made, and again from the exclusive borrow of every write
    /// access ([`Chunk::payload_mut`]), so the pointer reads use is the one
    /// derived from the buffer's latest mutable borrow.
    head: NonNull<T>,
    len: usize,
}

// SAFETY: `head` points into `buf`, which the chunk owns a share of, and
// `AlignedBuf<T>` is `Send + Sync` for every `T: Pod`. Through `&Chunk` the
// pointer is only read, and the one write path (`payload_mut`) takes
// `&mut Chunk` and proves with `Arc::get_mut` that no other chunk, on any
// thread, shares the buffer.
unsafe impl<T: Pod> Send for Chunk<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Pod> Sync for Chunk<T> {}

impl<T: Pod> Chunk<T> {
    /// A `len`-entry view of `buf` starting at entry `off`.
    fn view(buf: Arc<AlignedBuf<T>>, off: usize, len: usize) -> Self {
        let head = NonNull::from(&buf.as_slice()[off..off + len]).cast();
        Chunk { buf, head, len }
    }

    /// A chunk owning a private aligned copy of `src`.
    fn owned(src: &[T]) -> Self {
        Self::view(Arc::new(AlignedBuf::copy_of(src)), 0, src.len())
    }

    /// The chunk's entries.
    #[inline(always)]
    fn as_slice(&self) -> &[T] {
        // SAFETY: `head..head + len` lies inside `buf`'s initialised entries
        // (`view` sliced it there, `payload_mut` re-derives it from the
        // whole buffer), `buf` keeps that allocation alive and never moves
        // or resizes it, and nothing writes it while `&self` is held: a
        // write needs `&mut self` and a buffer no other chunk shares.
        unsafe { std::slice::from_raw_parts(self.head.as_ptr(), self.len) }
    }

    /// The payload of a chunk that owns its whole buffer, which nothing
    /// else shares, for writing. `None` when another chunk or snapshot
    /// still shares the buffer or the chunk is a view of part of it.
    #[inline]
    fn payload_mut(&mut self) -> Option<&mut [T]> {
        if !self.is_whole() {
            return None;
        }
        let whole = Arc::get_mut(&mut self.buf)?.as_mut_slice();
        self.head = NonNull::from(&mut *whole).cast();
        // SAFETY: `head` was just derived from the exclusive borrow of the
        // whole buffer, `len` entries long (`is_whole`), and the returned
        // borrow holds `&mut self` — hence the buffer's only owner — until
        // it ends. Handing the write out through `head` keeps `head` the
        // pointer later reads use.
        Some(unsafe { std::slice::from_raw_parts_mut(self.head.as_ptr(), self.len) })
    }

    /// Whether this chunk owns its whole buffer (a promotion candidate for
    /// in-place writes; a view of part of an arena never is).
    #[inline]
    fn is_whole(&self) -> bool {
        self.len == self.buf.len() && ptr::eq(self.head.as_ptr(), self.buf.as_slice().as_ptr())
    }

    /// Whether two chunks read the same physical payload.
    #[inline]
    fn same_payload(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.head == other.head
    }
}

impl<T: Pod> std::ops::Deref for Chunk<T> {
    type Target = [T];
    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

/// A copy-on-write table of `X`: entry `i` sits in page `i / PAGE`, and
/// each page of [`PAGE`] entries is one `Arc<[X]>`.
///
/// A clone copies one pointer per page. The first [`Paged::make_mut`] of
/// an entry in a page another table still shares copies that page — `PAGE`
/// clones of `X`, which for the `Arc`-backed entries stored here are
/// refcount bumps — and a page is copied at most once until the next
/// clone. A page is an `Arc<[X]>` rather than an `Arc<Vec<X>>`: its length
/// sits in the table's fat pointer, so reading an entry is one dependent
/// load deeper than a one-level table, not two.
#[derive(Debug)]
pub struct Paged<X> {
    pages: Vec<Arc<[X]>>,
}

impl<X> Clone for Paged<X> {
    /// One `Arc` bump per page; every entry stays shared.
    fn clone(&self) -> Self {
        Self { pages: self.pages.clone() }
    }
}

impl<X> FromIterator<X> for Paged<X> {
    fn from_iter<I: IntoIterator<Item = X>>(iter: I) -> Self {
        let mut entries = iter.into_iter().peekable();
        let mut pages = Vec::new();
        while entries.peek().is_some() {
            pages.push(entries.by_ref().take(PAGE).collect());
        }
        Self { pages }
    }
}

impl<X> Paged<X> {
    /// Entry `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> &X {
        &self.pages[i / PAGE][i % PAGE]
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.pages.last().map_or(0, |p| (self.pages.len() - 1) * PAGE + p.len())
    }

    /// The entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &X> {
        self.pages.iter().flat_map(|p| p.iter())
    }

    /// Resident bytes of the table itself: the entries, and per page its
    /// pointer and the `Arc`'s two counters.
    pub fn memory_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<X>()
            + self.pages.len()
                * (std::mem::size_of::<Arc<[X]>>() + 2 * std::mem::size_of::<usize>())
    }

    /// How many pages are physically shared with `other`.
    #[cfg(test)]
    fn shared_pages_with(&self, other: &Self) -> usize {
        self.pages.iter().zip(&other.pages).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }
}

impl<X: Clone> Paged<X> {
    /// Entry `i` for writing, copying its page first if another table
    /// still shares it.
    #[inline]
    pub fn make_mut(&mut self, i: usize) -> &mut X {
        &mut Arc::make_mut(&mut self.pages[i / PAGE])[i % PAGE]
    }
}

/// Bytes copied by copy-on-write chunk promotions, per drain window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Chunks that were physically copied (first write to a shared chunk).
    pub chunks_copied: u64,
    /// Total bytes those copies moved.
    pub bytes_copied: u64,
}

impl std::ops::AddAssign for CowStats {
    fn add_assign(&mut self, o: Self) {
        self.chunks_copied += o.chunks_copied;
        self.bytes_copied += o.bytes_copied;
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
/// [`DirtyTracker::take`], and how many bytes that moved.
#[derive(Debug, Default)]
struct DirtyTracker {
    bits: Vec<u64>,
    marked: Vec<u32>,
    bytes: u64,
}

impl DirtyTracker {
    /// Tracker for `num_chunks` chunks, all clean.
    fn new(num_chunks: usize) -> Self {
        Self { bits: vec![0; num_chunks.div_ceil(64)], marked: Vec::new(), bytes: 0 }
    }

    /// Record that `chunk` was copied, moving `bytes` bytes. Idempotent per
    /// drain window: re-marking an already-dirty chunk adds nothing (the
    /// second write hit the already-private copy).
    #[inline]
    fn mark(&mut self, chunk: usize, bytes: usize) {
        let (w, b) = (chunk / 64, 1u64 << (chunk % 64));
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.marked.push(chunk as u32);
            self.bytes += bytes as u64;
        }
    }

    /// Whether `chunk` was copied in the current window.
    #[cfg(test)]
    fn is_dirty(&self, chunk: usize) -> bool {
        self.bits[chunk / 64] & (1 << (chunk % 64)) != 0
    }

    /// Counters for the current window without clearing it.
    fn stats(&self) -> CowStats {
        CowStats { chunks_copied: self.marked.len() as u64, bytes_copied: self.bytes }
    }

    /// Drain the window: return its counters and reset to all-clean in
    /// `O(marked)`, not `O(#chunks)`.
    fn take(&mut self) -> CowStats {
        let out = self.stats();
        for &c in &self.marked {
            self.bits[c as usize / 64] &= !(1 << (c as usize % 64));
        }
        self.marked.clear();
        self.bytes = 0;
        out
    }
}

/// Make `chunk` uniquely owned (copying it if any snapshot still shares its
/// buffer, or if it is a view into a flat arena) and return its mutable
/// payload. Copies are recorded in `dirty` under index `c`.
///
/// `chunk` must come from [`Paged::make_mut`]: a chunk in a page that two
/// stores share has a buffer count of 1 while both stores read it, so only
/// a private page makes the count mean what this test takes it to mean.
#[inline]
fn cow_chunk<'a, T: Pod>(
    chunk: &'a mut Chunk<T>,
    c: usize,
    dirty: &mut DirtyTracker,
) -> &'a mut [T] {
    if chunk.payload_mut().is_none() {
        dirty.mark(c, std::mem::size_of_val(chunk.as_slice()));
        *chunk = Chunk::owned(chunk.as_slice());
    }
    chunk.payload_mut().expect("chunk is uniquely owned after promotion")
}

/// Partition `0..n` vertices into chunks of at most ~`target` entries each,
/// never splitting one vertex's span. `offsets[v]..offsets[v+1]` is vertex
/// `v`'s span in the flat array. Returns `(chunk_of_vertex, chunk_starts)`
/// with `chunk_starts.len() == num_chunks + 1`; a vertex whose span alone
/// exceeds `target` gets a private oversized chunk.
fn partition_vertex_chunks(offsets: &[u64], target: u64) -> (Vec<u32>, Vec<u64>) {
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

/// A flat `[T]` array split into vertex-aligned copy-on-write chunks, held
/// in a two-level [`Paged`] chunk table, with per-window dirty accounting.
///
/// Addressing is by **global index** plus the **owning vertex** (the vertex
/// whose span contains the index), which locates the chunk in O(1) without
/// a search. The vertex-alignment invariant guarantees any one vertex's
/// span is one contiguous slice of one chunk.
#[derive(Debug)]
pub struct ChunkedStore<T: Pod> {
    chunk_of: Arc<[u32]>,
    chunk_starts: Arc<[u64]>,
    chunks: Paged<Chunk<T>>,
    /// `Some` iff every chunk is a view into this one contiguous arena at
    /// its canonical offset (established by [`Self::from_arena`],
    /// invalidated for good by the first write).
    flat: Option<Arc<AlignedBuf<T>>>,
    dirty: DirtyTracker,
}

impl<T: Pod> Clone for ChunkedStore<T> {
    /// `O(#chunks / PAGE)`: shares every page, hence every chunk, with the
    /// original. The clone starts with a clean dirty window of its own.
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
    fn assemble(chunk_of: Vec<u32>, chunk_starts: Vec<u64>, chunks: Paged<Chunk<T>>) -> Self {
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
    fn from_flat(offsets: &[u64], flat: &[T], target: u64) -> Self {
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
    /// its canonical offset, with no copy. With `flat` the store starts
    /// flat ([`Self::flat_slice`] exposes the arena until the first write);
    /// without it the chunk views are the only way in, for callers whose
    /// direct offsets cannot address the whole arena. Either way the first
    /// write to a chunk promotes it.
    pub fn from_arena(offsets: &[u64], arena: AlignedBuf<T>, target: u64, flat: bool) -> Self {
        assert_eq!(*offsets.last().expect("offsets never empty") as usize, arena.len());
        let (chunk_of, chunk_starts) = partition_vertex_chunks(offsets, target);
        let arena = Arc::new(arena);
        let chunks = chunk_starts
            .windows(2)
            .map(|w| Chunk::view(Arc::clone(&arena), w[0] as usize, (w[1] - w[0]) as usize))
            .collect();
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
        self.chunks.get(c)[(idx - self.chunk_starts[c]) as usize]
    }

    /// Overwrite the entry at global index `idx` inside `owner`'s span,
    /// copying the chunk first if a snapshot still shares it.
    #[inline]
    pub fn set(&mut self, owner: usize, idx: u64, value: T) {
        let c = self.chunk_of[owner] as usize;
        let j = (idx - self.chunk_starts[c]) as usize;
        self.flat = None;
        cow_chunk(self.chunks.make_mut(c), c, &mut self.dirty)[j] = value;
    }

    /// The contiguous entries `lo..hi`, which must lie inside `owner`'s
    /// span (vertex alignment guarantees they share one chunk).
    #[inline(always)]
    pub fn slice(&self, owner: usize, lo: u64, hi: u64) -> &[T] {
        let c = self.chunk_of[owner] as usize;
        let base = self.chunk_starts[c];
        &self.chunks.get(c).as_slice()[(lo - base) as usize..(hi - base) as usize]
    }

    /// The payload of chunk `c` — for callers that resolved chunk-local
    /// coordinates themselves (e.g. a precomputed per-vertex location
    /// table, which turns the `chunk_of → chunk_starts` pointer chase into
    /// a single load on read hot paths).
    #[inline(always)]
    pub fn chunk(&self, c: usize) -> &[T] {
        self.chunks.get(c).as_slice()
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
        self.chunks.get(c).same_payload(other.chunks.get(c))
    }

    /// How many chunks are physically shared with `other`.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.chunks.iter().zip(other.chunks.iter()).filter(|(a, b)| a.same_payload(b)).count()
    }

    /// Drain the copy-on-write counters accumulated since the last drain.
    pub fn take_cow_stats(&mut self) -> CowStats {
        self.dirty.take()
    }

    /// Current window's counters without draining.
    pub fn cow_stats(&self) -> CowStats {
        self.dirty.stats()
    }

    /// Whether the store is still the one flat arena it was wrapped around
    /// ([`Self::from_arena`] with `flat`, and not written since).
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

    /// Resident bytes of payload + chunk table (with its page pointers) +
    /// layout arrays.
    pub fn memory_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
            + self.chunks.memory_bytes()
            + self.chunk_of.len() * 4
            + self.chunk_starts.len() * 8
    }

    /// Open a [`PhaseWriter`] over this store: chunk-local reads and
    /// copy-on-write writes through a per-phase pointer cache. Opening
    /// zeroes the cache and touches no chunk; each chunk is resolved on its
    /// first access.
    pub fn phase_writer(&mut self) -> PhaseWriter<'_, T> {
        let nc = self.chunks.len();
        PhaseWriter {
            ptrs: (0..nc)
                .map(|_| Cell::new(ptr::slice_from_raw_parts_mut(ptr::null_mut(), 0)))
                .collect(),
            writable: vec![false; nc].into_boxed_slice(),
            store: self,
        }
    }
}

/// One repair phase's access to a [`ChunkedStore`]: its write path, with
/// each chunk's payload resolved once per phase instead of once per write.
///
/// A repair phase reads and writes thousands of entries in a few dozen
/// chunks, so each chunk's payload pointer is resolved **once**, on first
/// touch, and cached. Opening a phase only zeroes that cache — a phase that
/// touches `k` chunks resolves `k`, whatever the store's size. Measured on
/// one CPU of a 2-vCPU host at 65 536 vertices (~12k chunks, all shared
/// with a held snapshot), an empty batch costs ~5 µs this way, against
/// ~150 µs for resolving every chunk when the phase opens.
///
/// * A null cache entry marks a chunk not yet read; its first read caches
///   the payload it currently shows (shared or private).
/// * `writable[c]` marks a chunk resolved for writing. Its first write
///   makes the chunk's page private (copying it if a snapshot shares it)
///   and then goes through `cow_chunk`: a chunk no snapshot shares (and
///   that is not a view into a flat arena) is written in place, any other
///   is promoted to a private copy **once** and installed at once, with the
///   copy recorded in the store's dirty tracker and the store un-flattened.
///
/// Every cached pointer stays valid for the whole phase: the writer borrows
/// the store exclusively, and the only change to a chunk's payload — its
/// promotion — replaces that chunk's cache entry in the same step. Copying
/// a page does not move any payload: the copy clones the page's chunk
/// handles, each an `Arc` of the same heap buffer, so a pointer cached for
/// another chunk of that page (read or write) still points at that chunk's
/// live payload, which the store now holds through the new page. Write
/// pointers are derived from that exclusive borrow, never from a shared
/// reference.
#[derive(Debug)]
pub struct PhaseWriter<'a, T: Pod> {
    store: &'a mut ChunkedStore<T>,
    /// Per-chunk payload cache; null until the chunk's first access.
    ptrs: Box<[Cell<*mut [T]>]>,
    /// Whether `ptrs[c]` may be written through (resolved by a write).
    writable: Box<[bool]>,
}

impl<T: Pod> PhaseWriter<'_, T> {
    /// Entry `j` of chunk `c`.
    #[inline(always)]
    pub fn get_in_chunk(&self, c: usize, j: usize) -> &T {
        let mut p = self.ptrs[c].get();
        if p.is_null() {
            p = self.resolve_read(c);
        }
        // SAFETY: a non-null entry is the live payload of chunk `c` (see the
        // type docs), and nothing writes it while the returned borrow of
        // `&self` is held.
        unsafe { &(*p)[j] }
    }

    /// Entry `j` of chunk `c` for writing, promoting the chunk first if a
    /// snapshot (or the flat arena) still shares it.
    #[inline(always)]
    pub fn get_mut_in_chunk(&mut self, c: usize, j: usize) -> &mut T {
        let p = if self.writable[c] { self.ptrs[c].get() } else { self.resolve_write(c) };
        // SAFETY: a writable entry is the payload of chunk `c` after
        // `cow_chunk`, uniquely owned by the exclusively borrowed store, and
        // the returned borrow holds `&mut self` until it ends.
        unsafe { &mut (*p)[j] }
    }

    /// Cache chunk `c`'s current payload for reads.
    #[cold]
    fn resolve_read(&self, c: usize) -> *mut [T] {
        let p = ptr::from_ref(self.store.chunks.get(c).as_slice()).cast_mut();
        self.ptrs[c].set(p);
        p
    }

    /// Make chunk `c` private (copying it if shared) and cache it for writes.
    #[cold]
    fn resolve_write(&mut self, c: usize) -> *mut [T] {
        let store = &mut *self.store;
        store.flat = None;
        let p = ptr::from_mut(cow_chunk(store.chunks.make_mut(c), c, &mut store.dirty));
        self.ptrs[c].set(p);
        self.writable[c] = true;
        p
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
        let want = CowStats { chunks_copied: 2, bytes_copied: 150 };
        assert_eq!(d.stats(), want);
        assert_eq!(d.take(), want);
        assert_eq!(d.stats(), CowStats::default());
        assert!(!d.is_dirty(0));
    }

    // 4 vertices with 2 arcs each.
    const OFFS: [u64; 5] = [0, 2, 4, 6, 8];

    fn store(target: u64) -> WeightStore {
        let weights: Vec<Weight> = (0..8).collect();
        ChunkedStore::from_flat(&OFFS, &weights, target)
    }

    /// [`store`]'s layout and values, wrapped flat around one arena.
    fn flat_store(target: u64) -> WeightStore {
        let weights: Vec<Weight> = (0..8).collect();
        ChunkedStore::from_arena(&OFFS, AlignedBuf::copy_of(&weights), target, true)
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
        assert_eq!(a.cow_stats(), CowStats { chunks_copied: 1, bytes_copied: 16 });
        a.set(0, 0, 98);
        assert_eq!(a.take_cow_stats(), CowStats { chunks_copied: 1, bytes_copied: 16 });
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
    fn from_arena_is_born_flat() {
        // Wrapping a filled arena gives the layout, values and size of a
        // store chunked by copying — plus the flat view, aligned, with
        // nothing recorded as copied.
        let mut born = flat_store(4);
        let twin = store(4);
        assert!(born.is_flat() && !twin.is_flat());
        let flat = born.flat_slice().expect("born flat");
        assert_eq!(flat, twin.iter().collect::<Vec<_>>().as_slice());
        assert_eq!(flat.as_ptr() as usize % 64, 0, "arena must be 64-byte aligned");
        assert_eq!(born.layout(), twin.layout());
        assert_eq!(born.memory_bytes(), twin.memory_bytes());
        assert_eq!(born.cow_stats(), CowStats::default());
        // The first write promotes exactly the touched chunk; a second
        // write to it is in place.
        born.set(3, 7, 70);
        assert!(!born.is_flat() && born.flat_slice().is_none());
        born.set(2, 4, 40);
        assert_eq!(born.take_cow_stats(), CowStats { chunks_copied: 1, bytes_copied: 16 });
        assert_eq!(born.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 40, 5, 6, 70]);
    }

    #[test]
    fn from_arena_without_flat_keeps_views() {
        let weights: Vec<Weight> = (0..8).collect();
        let mut a = ChunkedStore::from_arena(&OFFS, AlignedBuf::copy_of(&weights), 4, false);
        assert!(!a.is_flat() && a.flat_slice().is_none());
        assert_eq!(a.iter().collect::<Vec<_>>(), weights);
        a.set(0, 1, 9);
        assert_eq!(a.cow_stats().chunks_copied, 1, "views promote like a flat store's");
        assert_eq!(a.get(0, 1), 9);
    }

    #[test]
    fn flat_store_keeps_cow_chunk_granular() {
        let mut a = flat_store(4);
        let snap = a.clone();
        assert!(snap.is_flat(), "clone of a flat store starts flat");
        assert_eq!(a.shared_chunks_with(&snap), 2);
        a.set(0, 1, 99);
        assert!(!a.is_flat(), "first write un-flattens the writer");
        assert!(snap.is_flat(), "held snapshot stays flat");
        assert_eq!(snap.get(0, 1), 1, "snapshot keeps the old value");
        assert_eq!(snap.flat_slice().unwrap()[1], 1);
        assert_eq!(a.get(0, 1), 99);
        // Only the touched chunk was promoted out of the arena.
        assert_eq!(a.shared_chunks_with(&snap), 1);
        assert_eq!(a.cow_stats().chunks_copied, 1, "first write copies one chunk");
    }

    #[test]
    fn phase_writer_handles_private_shared_and_arena_view_chunks() {
        // Three 4-entry chunks, one of each kind a repair phase meets:
        // chunk 0 shared with a snapshot, chunk 1 private, chunk 2 a view
        // into the birth arena (which the snapshot also holds).
        let offs = offsets(&[2, 2, 2, 2, 2, 2]);
        let vals: Vec<u32> = (0..12).collect();
        let mut a = ChunkedStore::from_arena(&offs, AlignedBuf::copy_of(&vals), 4, true);
        assert_eq!(a.num_chunks(), 3);
        a.set(0, 0, 0); // chunk 0 leaves the arena...
        let snap = a.clone(); // ...and is pinned by the snapshot
        a.set(2, 4, 4); // chunk 1 leaves the arena after the snapshot: private
        a.take_cow_stats();
        let private_payload = a.chunk(1).as_ptr();
        {
            let mut w = a.phase_writer();
            for c in 0..3 {
                for j in 0..4 {
                    assert_eq!(*w.get_in_chunk(c, j), (c * 4 + j) as u32);
                }
                *w.get_mut_in_chunk(c, 1) = 100 + c as u32;
                *w.get_mut_in_chunk(c, 2) = 200 + c as u32; // same chunk: no second copy
                let got: Vec<u32> = (0..4).map(|j| *w.get_in_chunk(c, j)).collect();
                let base = (c * 4) as u32;
                assert_eq!(got, [base, 100 + c as u32, 200 + c as u32, base + 3], "chunk {c}");
            }
        }
        assert!(a.dirty.is_dirty(0) && a.dirty.is_dirty(2), "shared chunks promoted");
        assert!(!a.dirty.is_dirty(1), "private chunk not copied");
        assert_eq!(a.chunk(1).as_ptr(), private_payload, "private chunk written in place");
        assert_eq!(a.take_cow_stats(), CowStats { chunks_copied: 2, bytes_copied: 32 });
        assert_eq!(a.get(4, 9), 102, "promotions are installed in the store");
        assert_eq!(snap.iter().collect::<Vec<_>>(), vals, "snapshot keeps the old values");
        assert_eq!(a.shared_chunks_with(&snap), 0);
    }

    #[test]
    fn whole_arena_chunk_promotes_once_then_writes_in_place() {
        // One chunk spanning the whole arena: a view that is also whole.
        // The snapshot shares its buffer, so the first write promotes it;
        // later writes land in place, and reads through the chunk's cached
        // head see every one of them.
        let vals: Vec<Weight> = (0..8).collect();
        let mut a = ChunkedStore::from_arena(&OFFS, AlignedBuf::copy_of(&vals), 8, true);
        assert_eq!(a.num_chunks(), 1);
        let arena = a.chunk(0).as_ptr();
        let snap = a.clone();
        a.set(1, 2, 20);
        let promoted = a.chunk(0).as_ptr();
        assert_ne!(promoted, arena, "the shared arena chunk is promoted");
        a.set(3, 7, 70);
        *a.phase_writer().get_mut_in_chunk(0, 0) = 10;
        assert_eq!(a.chunk(0).as_ptr(), promoted, "a private whole chunk is written in place");
        assert_eq!(a.iter().collect::<Vec<_>>(), [10, 1, 20, 3, 4, 5, 6, 70]);
        assert_eq!(a.take_cow_stats(), CowStats { chunks_copied: 1, bytes_copied: 32 });
        assert_eq!(snap.chunk(0).as_ptr(), arena);
        assert_eq!(snap.iter().collect::<Vec<_>>(), vals, "snapshot keeps the old values");
    }

    /// `n` 4-entry vertices, one chunk each, holding `0..4n`.
    fn one_chunk_per_vertex(n: usize) -> (WeightStore, Vec<Weight>) {
        let vals: Vec<Weight> = (0..4 * n as Weight).collect();
        (ChunkedStore::from_flat(&offsets(&vec![4; n]), &vals, 4), vals)
    }

    #[test]
    fn clone_then_one_write_shares_every_page_but_one() {
        // Three full pages and one partial one.
        let nc = 3 * PAGE + 1;
        let (mut a, _) = one_chunk_per_vertex(nc);
        assert_eq!((a.num_chunks(), a.chunks.len()), (nc, nc));
        let b = a.clone();
        assert_eq!(a.chunks.shared_pages_with(&b.chunks), 4);
        assert_eq!(a.shared_chunks_with(&b), nc);
        let c = PAGE + 3;
        a.set(c, 4 * c as u64 + 1, 7);
        assert_eq!(a.chunks.shared_pages_with(&b.chunks), 3, "only the written page copied");
        assert_eq!(a.shared_chunks_with(&b), nc - 1, "only the written chunk copied");
        assert!(!a.shares_chunk(&b, c) && a.shares_chunk(&b, c + 1));
        assert_eq!((a.get(c, 4 * c as u64 + 1), b.get(c, 4 * c as u64 + 1)), (7, 4 * c as u32 + 1));
        assert_eq!(a.take_cow_stats(), CowStats { chunks_copied: 1, bytes_copied: 16 });
    }

    #[test]
    fn phase_writer_keeps_cached_reads_across_a_page_copy() {
        // A snapshot holds the store; the phase reads chunk 3, then promotes
        // chunks 1 and 2 of the same page, which copies the page under the
        // pointer cached for chunk 3.
        let (mut a, vals) = one_chunk_per_vertex(2 * PAGE);
        let snap = a.clone();
        {
            let mut w = a.phase_writer();
            let c3: Vec<Weight> = (0..4).map(|j| *w.get_in_chunk(3, j)).collect();
            assert_eq!(c3, [12, 13, 14, 15]);
            *w.get_mut_in_chunk(1, 0) = 101;
            *w.get_mut_in_chunk(2, 3) = 203;
            *w.get_mut_in_chunk(1, 2) = 102; // chunk 1 again: no second copy
            let again: Vec<Weight> = (0..4).map(|j| *w.get_in_chunk(3, j)).collect();
            assert_eq!(again, c3, "the read cached before the page copy still reads chunk 3");
            assert_eq!((*w.get_in_chunk(1, 0), *w.get_in_chunk(2, 3)), (101, 203));
        }
        assert_eq!(snap.iter().collect::<Vec<_>>(), vals, "snapshot keeps every old byte");
        let mut want = vals.clone();
        (want[4], want[6], want[11]) = (101, 102, 203);
        assert_eq!(a.iter().collect::<Vec<_>>(), want, "every write landed in the store");
        assert_eq!(a.take_cow_stats(), CowStats { chunks_copied: 2, bytes_copied: 32 });
        assert_eq!(a.chunks.shared_pages_with(&snap.chunks), 1, "page 0 copied once");
        assert_eq!(a.shared_chunks_with(&snap), 2 * PAGE - 2);
        assert!(a.shares_chunk(&snap, 3), "chunk 3 was only read: still shared");
    }

    #[test]
    fn phase_writer_reads_leave_a_flat_store_flat() {
        let mut a = flat_store(4);
        let snap = a.clone();
        {
            let w = a.phase_writer();
            assert_eq!(*w.get_in_chunk(1, 2), 6);
        }
        assert!(a.is_flat());
        assert_eq!(a.cow_stats().chunks_copied, 0);
        assert_eq!(a.shared_chunks_with(&snap), 2);
    }

    #[test]
    #[should_panic]
    fn phase_writer_bounds_checks_chunk_entries() {
        let mut a = store(4);
        a.phase_writer().get_in_chunk(0, 4);
    }
}
