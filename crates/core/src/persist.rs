//! Compact binary serialization of a built index.
//!
//! Index construction takes minutes on large networks (Table 4); operators
//! persist the index and reload at startup. The format is a
//! length-prefixed little-endian layout — no reflection, no allocation
//! churn on load.

use stl_graph::cow::{AlignedBuf, DEFAULT_CHUNK_ENTRIES};
use stl_graph::{Dist, VertexId};

use crate::hierarchy::Hierarchy;
use crate::labelling::{Labels, Stl};

const MAGIC: &[u8; 4] = b"STL1";

/// Errors from [`load`].
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Input does not start with the STL magic bytes.
    BadMagic,
    /// Input ended prematurely or lengths are inconsistent.
    Truncated,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an STL index (bad magic)"),
            PersistError::Truncated => write!(f, "truncated or corrupt STL index"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize a built index to bytes.
pub fn save(stl: &Stl) -> Vec<u8> {
    let h = &stl.hier;
    let l = &stl.labels;
    let mut out = Vec::with_capacity(64 + l.num_entries() as usize * 4 + h.tau.len() * 32);
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
    out.put_u64_le(l.offsets.len() as u64);
    for &o in l.offsets.iter() {
        out.put_u64_le(o);
    }
    // The arena is chunked in memory but the on-disk format stays one flat
    // length-prefixed array: chunks are written back-to-back in entry order.
    out.put_u64_le(l.num_entries());
    for chunk in l.store.chunk_slices() {
        for &d in chunk {
            out.put_u32_le(d);
        }
    }
    out
}

/// Deserialize an index produced by [`save`].
pub fn load(mut buf: &[u8]) -> Result<Stl, PersistError> {
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
    let noff = get_len(&mut buf)?;
    if buf.remaining() / 8 < noff {
        return Err(PersistError::Truncated);
    }
    let mut offsets = Vec::with_capacity(noff);
    for _ in 0..noff {
        offsets.push(buf.get_u64_le());
    }
    // The label entries decode straight into the aligned serving arena,
    // which the index then wraps in place: a loaded index is born flat.
    let ndists = get_len(&mut buf)?;
    if buf.remaining() / 4 < ndists {
        return Err(PersistError::Truncated);
    }
    let mut dists = AlignedBuf::<Dist>::zeroed(ndists);
    for (d, le) in dists.as_mut_slice().iter_mut().zip(buf.chunks_exact(4)) {
        *d = u32::from_le_bytes(le.try_into().expect("4-byte chunk"));
    }
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
    // Offsets must start at 0 and be non-decreasing, ending at the entry
    // count: the chunk layout and per-vertex location records are derived
    // from them by subtraction, so a corrupt file must be rejected here
    // rather than produce out-of-range label views. A corrupt entry count
    // must likewise surface as an error, not as the `from_parts`
    // consistency assert.
    if offsets.first() != Some(&0)
        || offsets.windows(2).any(|w| w[0] > w[1])
        || *offsets.last().ok_or(PersistError::Truncated)? as usize != dists.len()
        || dists.len() as u64 != hier.total_label_entries()
    {
        return Err(PersistError::Truncated);
    }
    let labels = Labels::from_arena(offsets, dists, DEFAULT_CHUNK_ENTRIES);
    Ok(Stl::from_parts(hier, labels))
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
        let g = from_edges(
            10,
            (0..9u32)
                .map(|i| (i, i + 1, 2 + i % 5))
                .chain([(0, 9, 7), (2, 7, 4)])
                .collect::<Vec<_>>(),
        );
        let stl = Stl::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        (g, stl)
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let (g, stl) = sample();
        let bytes = save(&stl);
        let loaded = load(&bytes).unwrap();
        assert!(loaded.is_flat(), "a loaded index is born flat");
        for s in 0..10u32 {
            for t in 0..10u32 {
                assert_eq!(stl.query(s, t), loaded.query(s, t));
            }
        }
        crate::verify::check_all(&loaded, &g).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(load(b"NOPE....").unwrap_err(), PersistError::BadMagic);
        assert_eq!(load(b"").unwrap_err(), PersistError::BadMagic);
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
    fn corrupt_nonmonotonic_offsets_rejected() {
        // The label offsets drive chunk layout and per-vertex locations by
        // subtraction; a decreasing pair must be rejected as corruption,
        // not turned into out-of-range label views.
        let (_, stl) = sample();
        let mut bytes = save(&stl);
        let n_dists = stl.labels().num_entries() as usize;
        let n_off = stl.num_vertices() + 1;
        // Layout from the end: [offsets: 8 + 8*n_off][dists: 8 + 4*n_dists].
        let off_payload = bytes.len() - (8 + 4 * n_dists) - 8 * n_off;
        // offsets[1] := total entries — far above offsets[2], so the array
        // decreases while the final entry still matches the dist count.
        bytes[off_payload + 8..off_payload + 16].copy_from_slice(&(n_dists as u64).to_le_bytes());
        assert_eq!(load(&bytes).unwrap_err(), PersistError::Truncated);
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
