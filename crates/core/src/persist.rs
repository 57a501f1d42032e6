//! Compact binary serialization of a built index.
//!
//! Index construction takes minutes on large networks (Table 4); operators
//! persist the index and reload at startup. The format is a
//! length-prefixed little-endian layout — no reflection, no allocation
//! churn on load:
//!
//! - the magic `STL2`;
//! - the hierarchy's node and vertex arrays;
//! - the label blocks in arena order, each a `u32` base and sixteen `u16`
//!   offsets (see [`crate::labelling`]); label `v` holds `τ(v) + 1`
//!   entries, so its blocks follow from `tau` and no offsets are stored;
//! - the escaped entries as `(block × 16 + lane, value)` in key order.
//!
//! Before building anything, [`load`] checks what a query reads: every
//! array's length, the tree shape (parents before children, start arrays
//! rising to the end of what they index), each vertex's node, depth and
//! `τ`, the block count, and every block and escape. A file that fails is
//! an error, never a panic on a later query. The bitstrings, cut vertices
//! and per-node ancestor offsets are taken as written.
//! An `STL1` file (every entry a `u32`) is refused with
//! [`PersistError::UnsupportedVersion`]: rebuild it from the graph.

use stl_graph::cow::AlignedBuf;
use stl_graph::{Dist, VertexId, INF};

use crate::hierarchy::Hierarchy;
use crate::labelling::{block_offsets, LabelArena, LabelBlock, Stl, BLOCK, ESC_OFF, INF_OFF};

const MAGIC: &[u8; 4] = b"STL2";

/// The magic of the format before label blocks, when every entry was a
/// plain `u32`.
const MAGIC_V1: &[u8; 4] = b"STL1";

/// Parent id of the root node.
const NO_NODE: u32 = u32::MAX;

/// Errors from [`load`].
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Input does not start with the STL magic bytes.
    BadMagic,
    /// An `STL1` index, whose `u32` label entries this release no longer
    /// reads; rebuild the index from its graph.
    UnsupportedVersion,
    /// Input ended prematurely or lengths are inconsistent.
    Truncated,
    /// The named field contradicts the rest of the index.
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an STL index (bad magic)"),
            PersistError::UnsupportedVersion => {
                write!(f, "STL1 index from an older release; rebuild it from the graph")
            }
            PersistError::Truncated => write!(f, "truncated or corrupt STL index"),
            PersistError::Corrupt(field) => write!(f, "corrupt STL index: bad {field}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize a built index to bytes.
pub fn save(stl: &Stl) -> Vec<u8> {
    let h = &stl.hier;
    let l = &stl.labels;
    let blocks = l.store.len();
    let mut out = Vec::with_capacity(64 + blocks * 36 + l.num_escapes() * 12 + h.tau.len() * 40);
    out.put_slice(MAGIC);
    put_u32s(&mut out, &h.node_parent);
    put_u32s(&mut out, &h.node_depth);
    put_u32s(&mut out, &h.node_anc_offset);
    put_u32s(&mut out, &h.node_cut_start);
    put_u32s(&mut out, &h.cut_vertices);
    put_u32s(&mut out, &h.node_path_start);
    put_u32s(&mut out, &h.path_anc_end);
    put_u32s(&mut out, &h.node_of);
    put_u32s(&mut out, &h.tau);
    out.put_u64_le(h.bits.len() as u64);
    for &b in h.bits.iter() {
        out.put_u128_le(b);
    }
    put_u32s(&mut out, &h.depth);
    // The arena is chunked in memory but written as one array, chunks back
    // to back in block order.
    out.put_u64_le(blocks as u64);
    for chunk in l.store.chunk_slices() {
        for b in chunk {
            let mut rec = [0u8; 36];
            rec[..4].copy_from_slice(&b.base.to_le_bytes());
            for (two, o) in rec[4..].chunks_exact_mut(2).zip(&b.off) {
                two.copy_from_slice(&o.to_le_bytes());
            }
            out.put_slice(&rec);
        }
    }
    out.put_u64_le(l.num_escapes() as u64);
    for (key, value) in l.global_escapes() {
        out.put_u64_le(key);
        out.put_u32_le(value);
    }
    out
}

/// Deserialize an index produced by [`save`].
pub fn load(mut buf: &[u8]) -> Result<Stl, PersistError> {
    if buf.remaining() >= 4 && &buf[..4] == MAGIC_V1 {
        return Err(PersistError::UnsupportedVersion);
    }
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    buf.advance(4);
    let node_parent = get_u32s(&mut buf)?;
    let node_depth = get_u32s(&mut buf)?;
    let node_anc_offset = get_u32s(&mut buf)?;
    let node_cut_start = get_u32s(&mut buf)?;
    let cut_vertices: Box<[VertexId]> = get_u32s(&mut buf)?;
    let node_path_start = get_u32s(&mut buf)?;
    let path_anc_end = get_u32s(&mut buf)?;
    let node_of = get_u32s(&mut buf)?;
    let tau = get_u32s(&mut buf)?;
    let nbits = get_len(&mut buf)?;
    if buf.remaining() / 16 < nbits {
        return Err(PersistError::Truncated);
    }
    let mut bits = Vec::with_capacity(nbits);
    for _ in 0..nbits {
        bits.push(buf.get_u128_le());
    }
    let depth = get_u32s(&mut buf)?;
    // The blocks decode straight into the aligned serving arena, which the
    // index then wraps in place: a loaded index is born flat.
    let nblocks = get_len(&mut buf)?;
    if buf.remaining() / 36 < nblocks {
        return Err(PersistError::Truncated);
    }
    let mut blocks = AlignedBuf::<LabelBlock>::zeroed(nblocks);
    for (b, le) in blocks.as_mut_slice().iter_mut().zip(buf.chunks_exact(36)) {
        b.base = u32::from_le_bytes(le[..4].try_into().expect("4-byte base"));
        for (o, two) in b.off.iter_mut().zip(le[4..].chunks_exact(2)) {
            *o = u16::from_le_bytes([two[0], two[1]]);
        }
    }
    buf.advance(nblocks * 36);
    let nesc = get_len(&mut buf)?;
    if buf.remaining() / 12 < nesc {
        return Err(PersistError::Truncated);
    }
    let escapes: Vec<(u64, Dist)> =
        (0..nesc).map(|_| (buf.get_u64_le(), buf.get_u32_le())).collect();

    check_hierarchy_arrays(
        &node_parent,
        &[&node_depth, &node_anc_offset],
        &node_cut_start,
        cut_vertices.len(),
        &node_path_start,
        path_anc_end.len(),
    )?;
    let n = node_of.len();
    for (field, len) in [("tau", tau.len()), ("bits", bits.len()), ("depth", depth.len())] {
        if len != n {
            return Err(PersistError::Corrupt(field));
        }
    }
    if node_of.iter().any(|&x| x as usize >= node_parent.len()) {
        return Err(PersistError::Corrupt("node_of"));
    }
    // A query reads `path_anc_end` at most `depth[v]` levels into the root
    // path of `v`'s node.
    let path_len = |x: u32| node_path_start[x as usize + 1] - node_path_start[x as usize];
    if (0..n).any(|v| depth[v] >= path_len(node_of[v])) {
        return Err(PersistError::Corrupt("depth"));
    }
    // Label `v` holds `τ(v) + 1` entries.
    if tau.contains(&u32::MAX) {
        return Err(PersistError::Corrupt("tau"));
    }
    let lens: Vec<u32> = tau.iter().map(|&t| t + 1).collect();
    let offsets = block_offsets(&lens);
    if offsets[n] != nblocks as u64 {
        return Err(PersistError::Corrupt("label block count"));
    }
    let arena = LabelArena { lens, offsets, blocks, escapes: Default::default() };
    check_blocks(&arena, &escapes)?;
    let arena = LabelArena { escapes: escapes.into_iter().collect(), ..arena };

    // The repair-shard map is derived from the tree shape, not persisted.
    let shards = crate::hierarchy::derive_shards(
        &node_parent,
        &node_depth,
        &node_cut_start,
        &node_anc_offset,
    );
    let hier = Hierarchy {
        node_parent,
        node_depth,
        node_anc_offset,
        node_cut_start,
        cut_vertices,
        node_path_start,
        path_anc_end,
        node_shard: shards.node_shard,
        num_shards: shards.num_shards,
        spine_has_cuts: shards.spine_has_cuts,
        shard_anc_start: shards.shard_anc_start,
        node_of,
        tau,
        bits: bits.into_boxed_slice(),
        depth,
    };
    Ok(Stl::from_parts(hier, arena.into_labels()))
}

/// The node arrays must all have one entry per node (`node_parent` sets
/// the count; the two start arrays one more), parents must precede their
/// children, and both start arrays must rise monotonically to the end of
/// the array they index.
fn check_hierarchy_arrays(
    node_parent: &[u32],
    per_node: &[&[u32]],
    node_cut_start: &[u32],
    cut_len: usize,
    node_path_start: &[u32],
    path_len: usize,
) -> Result<(), PersistError> {
    let nodes = node_parent.len();
    if per_node.iter().any(|a| a.len() != nodes)
        || node_cut_start.len() != nodes + 1
        || node_path_start.len() != nodes + 1
    {
        return Err(PersistError::Corrupt("node arrays"));
    }
    if node_parent.iter().enumerate().any(|(id, &p)| p != NO_NODE && p as usize >= id) {
        return Err(PersistError::Corrupt("node_parent"));
    }
    let monotone_to = |starts: &[u32], end: usize| {
        starts[0] == 0 && starts.windows(2).all(|w| w[0] <= w[1]) && starts[nodes] as usize == end
    };
    if !monotone_to(node_cut_start, cut_len) {
        return Err(PersistError::Corrupt("node_cut_start"));
    }
    if !monotone_to(node_path_start, path_len) {
        return Err(PersistError::Corrupt("node_path_start"));
    }
    Ok(())
}

/// Every block must be canonical with its lanes past `τ(v)` at `INF`, and
/// `escapes` must hold, in strictly rising key order, exactly one value
/// for each escaped lane — the invariants the query kernel relies on.
fn check_blocks(arena: &LabelArena, escapes: &[(u64, Dist)]) -> Result<(), PersistError> {
    let blocks = arena.blocks.as_slice();
    if escapes.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(PersistError::Corrupt("escape order"));
    }
    let mut next = escapes.iter().peekable();
    for (v, &len) in arena.lens.iter().enumerate() {
        let first = arena.offsets[v];
        for (k, b) in blocks[first as usize..arena.offsets[v + 1] as usize].iter().enumerate() {
            let live = (len as usize - k * BLOCK).min(BLOCK);
            let key0 = (first + k as u64) * BLOCK as u64;
            let mut entries = [INF; BLOCK];
            for (l, e) in entries.iter_mut().enumerate() {
                match b.off[l] {
                    INF_OFF => {}
                    _ if l >= live => return Err(PersistError::Corrupt("label padding")),
                    ESC_OFF => match next.next() {
                        Some(&(key, value)) if key == key0 + l as u64 && value != INF => *e = value,
                        _ => return Err(PersistError::Corrupt("escapes")),
                    },
                    o => {
                        *e = b
                            .base
                            .checked_add(Dist::from(o))
                            .ok_or(PersistError::Corrupt("label blocks"))?
                    }
                }
            }
            if LabelBlock::encode(&entries) != *b {
                return Err(PersistError::Corrupt("label blocks"));
            }
        }
    }
    if next.next().is_some() {
        return Err(PersistError::Corrupt("escapes"));
    }
    Ok(())
}

/// Little-endian writer methods on `Vec<u8>` (the subset of `bytes::BufMut`
/// this module needs, kept local so the workspace builds offline).
trait BufMut {
    fn put_slice(&mut self, src: &[u8]);
    fn put_u32_le(&mut self, x: u32);
    fn put_u64_le(&mut self, x: u64);
    fn put_u128_le(&mut self, x: u128);
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_u32_le(&mut self, x: u32) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_u64_le(&mut self, x: u64) {
        self.extend_from_slice(&x.to_le_bytes());
    }
    fn put_u128_le(&mut self, x: u128) {
        self.extend_from_slice(&x.to_le_bytes());
    }
}

/// Little-endian cursor methods on `&[u8]` (the subset of `bytes::Buf` this
/// module needs). Callers bounds-check via [`Buf::remaining`] before reading.
trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_u128_le(&mut self) -> u128;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().unwrap())
    }
    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().unwrap())
    }
    fn get_u128_le(&mut self) -> u128 {
        let (head, rest) = self.split_at(16);
        *self = rest;
        u128::from_le_bytes(head.try_into().unwrap())
    }
}

fn put_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.put_u64_le(xs.len() as u64);
    for &x in xs {
        out.put_u32_le(x);
    }
}

fn get_len(buf: &mut &[u8]) -> Result<usize, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u64_le() as usize)
}

fn get_u32s(buf: &mut &[u8]) -> Result<Box<[u32]>, PersistError> {
    let n = get_len(buf)?;
    if buf.remaining() / 4 < n {
        return Err(PersistError::Truncated);
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(buf.get_u32_le());
    }
    Ok(v.into_boxed_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StlConfig;
    use stl_graph::builder::from_edges;

    fn sample() -> (stl_graph::CsrGraph, Stl) {
        sample_scaled(1)
    }

    /// The sample with every weight times `scale`: heavy weights make
    /// escaped entries.
    fn sample_scaled(scale: u32) -> (stl_graph::CsrGraph, Stl) {
        let g = from_edges(
            10,
            (0..9u32)
                .map(|i| (i, i + 1, (2 + i % 5) * scale))
                .chain([(0, 9, 7 * scale), (2, 7, 4 * scale)])
                .collect::<Vec<_>>(),
        );
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        (g, stl)
    }

    /// Element sizes of the length-prefixed arrays after the magic, in file
    /// order: nine `u32` arrays, the bits, the depths, the blocks and the
    /// escapes.
    const FIELD_SIZES: [usize; 13] = [4, 4, 4, 4, 4, 4, 4, 4, 4, 16, 4, 36, 12];
    const NODE_PARENT: usize = 0;
    const NODE_DEPTH: usize = 1;
    const NODE_ANC_OFFSET: usize = 2;
    const NODE_CUT_START: usize = 3;
    const NODE_PATH_START: usize = 5;
    const NODE_OF: usize = 7;
    const TAU: usize = 8;
    const BITS: usize = 9;
    const DEPTH: usize = 10;
    const BLOCKS: usize = 11;
    const ESCAPES: usize = 12;

    /// A saved index split into its fields' payloads, to corrupt one field
    /// and [`join`] them back.
    fn split(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut at = 4;
        let fields = FIELD_SIZES
            .iter()
            .map(|&size| {
                let n = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
                at += 8 + n * size;
                bytes[at - n * size..at].to_vec()
            })
            .collect();
        assert_eq!(at, bytes.len());
        fields
    }

    fn join(fields: &[Vec<u8>]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for (f, &size) in fields.iter().zip(&FIELD_SIZES) {
            out.put_u64_le((f.len() / size) as u64);
            out.put_slice(f);
        }
        out
    }

    /// `load` of the sample with field `i` rewritten by `edit`.
    fn load_edited(i: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Result<Stl, PersistError> {
        let (_, stl) = sample_scaled(30_000);
        let mut fields = split(&save(&stl));
        edit(&mut fields[i]);
        load(&join(&fields))
    }

    fn u32_at(f: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(f[4 * i..4 * i + 4].try_into().unwrap())
    }

    fn put_u32_at(f: &mut [u8], i: usize, x: u32) {
        f[4 * i..4 * i + 4].copy_from_slice(&x.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_queries() {
        for scale in [1, 30_000] {
            let (g, stl) = sample_scaled(scale);
            assert_eq!(stl.labels().num_escapes() > 0, scale > 1, "scale {scale}");
            let bytes = save(&stl);
            assert_eq!(join(&split(&bytes)), bytes, "the test splitter reads the format");
            let loaded = load(&bytes).unwrap();
            assert!(loaded.is_flat(), "a loaded index is born flat");
            assert_eq!(save(&loaded), bytes, "a loaded index saves the same bytes");
            for s in 0..10u32 {
                for t in 0..10u32 {
                    assert_eq!(stl.query(s, t), loaded.query(s, t));
                }
            }
            crate::verify::check_all(&loaded, &g).unwrap();
            crate::verify::check_matches_rebuild(&loaded, &g).unwrap();
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(load(b"NOPE....").unwrap_err(), PersistError::BadMagic);
        assert_eq!(load(b"").unwrap_err(), PersistError::BadMagic);
    }

    #[test]
    fn stl1_file_refused_by_name() {
        let (_, stl) = sample();
        let mut bytes = save(&stl);
        bytes[..4].copy_from_slice(MAGIC_V1);
        assert_eq!(load(&bytes).unwrap_err(), PersistError::UnsupportedVersion);
        assert!(PersistError::UnsupportedVersion.to_string().contains("STL1"));
    }

    #[test]
    fn huge_length_field_rejected_without_panic() {
        // A corrupt length prefix whose `n * size` would overflow usize must
        // report Truncated, not panic or attempt a giant allocation.
        for huge in [u64::MAX, u64::MAX / 4 + 1, u64::MAX / 16 + 1] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&huge.to_le_bytes());
            assert_eq!(load(&bytes).unwrap_err(), PersistError::Truncated);
        }
    }

    #[test]
    fn label_blocks_disagreeing_with_tau_rejected() {
        // τ(0) raised by a whole block: the labels `tau` implies no longer
        // add up to the blocks in the file.
        let err = load_edited(TAU, |f| {
            let t = u32_at(f, 0);
            put_u32_at(f, 0, t + BLOCK as u32)
        });
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("label block count"));
        // τ(0) = u32::MAX would make a label of 2³² entries.
        let err = load_edited(TAU, |f| put_u32_at(f, 0, u32::MAX));
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("tau"));
    }

    #[test]
    fn depth_past_the_root_path_rejected() {
        // A query would read `path_anc_end` past the root path of the
        // vertex's node.
        let err = load_edited(DEPTH, |f| {
            let d = u32_at(f, 0);
            put_u32_at(f, 0, d + 1)
        });
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("depth"));
    }

    #[test]
    fn per_vertex_array_of_wrong_length_rejected() {
        for (field, name, size) in [(TAU, "tau", 4), (BITS, "bits", 16), (DEPTH, "depth", 4)] {
            let err = load_edited(field, |f| f.truncate(f.len() - size));
            assert_eq!(err.unwrap_err(), PersistError::Corrupt(name));
        }
        // `node_of` sets the vertex count, so the next array disagrees.
        let err = load_edited(NODE_OF, |f| f.truncate(f.len() - 4));
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("tau"));
    }

    #[test]
    fn node_array_of_wrong_length_rejected() {
        for field in [NODE_DEPTH, NODE_ANC_OFFSET, NODE_CUT_START, NODE_PATH_START] {
            let err = load_edited(field, |f| f.truncate(f.len() - 4));
            assert_eq!(err.unwrap_err(), PersistError::Corrupt("node arrays"), "field {field}");
        }
    }

    #[test]
    fn node_of_out_of_range_rejected() {
        let (_, stl) = sample_scaled(30_000);
        let nodes = stl.hierarchy().num_nodes() as u32;
        let err = load_edited(NODE_OF, |f| put_u32_at(f, 0, nodes));
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("node_of"));
        let err = load_edited(NODE_PARENT, |f| put_u32_at(f, 1, 1));
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("node_parent"));
    }

    #[test]
    fn non_monotone_node_starts_rejected() {
        for (field, name) in
            [(NODE_CUT_START, "node_cut_start"), (NODE_PATH_START, "node_path_start")]
        {
            let err = load_edited(field, |f| {
                let (a, b) = (u32_at(f, 1), u32_at(f, 2));
                assert!(a < b, "field {name} must rise at node 1");
                put_u32_at(f, 1, b + 1);
            });
            assert_eq!(err.unwrap_err(), PersistError::Corrupt(name));
        }
    }

    #[test]
    fn corrupt_blocks_and_escapes_rejected() {
        // A block's only zero offset raised: its base is no longer its
        // minimum, so the block is not the canonical encoding.
        let err = load_edited(BLOCKS, |f| {
            let lane = |b: usize, l: usize| 36 * b + 4 + 2 * l;
            let at = (0..f.len() / 36)
                .find_map(|b| {
                    let zeros: Vec<usize> = (0..16)
                        .map(|l| lane(b, l))
                        .filter(|&o| f[o] == 0 && f[o + 1] == 0)
                        .collect();
                    (zeros.len() == 1).then(|| zeros[0])
                })
                .expect("a block with one zero offset");
            f[at] = 1;
        });
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("label blocks"));
        // An escape dropped, an escape's key moved, an escape value inlined.
        let err = load_edited(ESCAPES, |f| f.truncate(f.len() - 12));
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("escapes"));
        let err = load_edited(ESCAPES, |f| f[0] ^= 1);
        assert!(matches!(err.unwrap_err(), PersistError::Corrupt(_)));
        let err = load_edited(ESCAPES, |f| f[8..12].copy_from_slice(&1u32.to_le_bytes()));
        assert_eq!(err.unwrap_err(), PersistError::Corrupt("label blocks"));
    }

    #[test]
    fn truncation_rejected() {
        let (_, stl) = sample();
        let bytes = save(&stl);
        for cut in [5usize, bytes.len() / 2, bytes.len() - 3] {
            assert_eq!(load(&bytes[..cut]).unwrap_err(), PersistError::Truncated, "cut={cut}");
        }
    }

    #[test]
    fn loaded_index_supports_updates() {
        let (mut g, stl) = sample();
        let mut loaded = load(&save(&stl)).unwrap();
        let mut eng = crate::UpdateEngine::new(g.num_vertices());
        let (a, b, w) = g.edges().next().unwrap();
        loaded.apply_batch(
            &mut g,
            &[stl_graph::EdgeUpdate::new(a, b, w * 5)],
            crate::Maintenance::ParetoSearch,
            &mut eng,
        );
        crate::verify::check_all(&loaded, &g).unwrap();
    }
}
