//! Compressed-sparse-row graph with mutable edge weights.
//!
//! The adjacency *structure* is immutable after construction (the paper's
//! dynamic model: "the structure of road networks is considered to be intact
//! in general", §8); edge *weights* can be updated in place, in both arc
//! directions at once, which is what all maintenance algorithms operate on.
//!
//! Storage is snapshot-friendly: the immutable topology arrays are
//! `Arc`-shared, and the weight array lives in a chunked copy-on-write
//! [`WeightStore`]. `CsrGraph::clone` therefore copies one pointer per page
//! of weight chunks — it shares every byte with the original until a weight
//! write promotes the touched chunk — which is what lets the epoch-snapshot
//! server publish a generation without deep-copying the graph (see
//! [`crate::cow`]).

use std::sync::Arc;

use crate::cow::{CowStats, WeightStore};
use crate::error::GraphError;
use crate::types::{EdgeUpdate, VertexId, Weight};

/// Undirected weighted graph in CSR form.
///
/// Every undirected edge `{u, v}` is stored as two arcs `u→v` and `v→u`.
/// Neighbour lists are sorted by target id, enabling `O(log deg)` arc lookup.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Arc<[u32]>,
    targets: Arc<[VertexId]>,
    weights: WeightStore,
    coords: Option<Arc<[(f32, f32)]>>,
    num_edges: usize,
}

impl CsrGraph {
    /// Construct from pre-validated CSR arrays. Used by [`crate::GraphBuilder`].
    pub(crate) fn from_parts(
        offsets: Box<[u32]>,
        targets: Box<[VertexId]>,
        weights: Vec<Weight>,
        num_edges: usize,
    ) -> Self {
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        let weights = WeightStore::from_csr(&offsets, &weights);
        Self { offsets: offsets.into(), targets: targets.into(), weights, coords: None, num_edges }
    }

    /// Number of vertices.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of stored arcs (`2 * num_edges`).
    #[inline(always)]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree over all vertices (`d_max` in the complexity bounds).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterate `(neighbour, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (ts, ws) = self.neighbor_slices(v);
        ts.iter().copied().zip(ws.iter().copied())
    }

    /// Neighbour ids of `v`, sorted, without touching the weight store —
    /// for weight-blind scans (partitioning, components).
    #[inline(always)]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = self.arc_range(v);
        &self.targets[lo..hi]
    }

    /// Raw neighbour slices of `v` for hot loops: `(targets, weights)`.
    #[inline(always)]
    pub fn neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let (lo, hi) = self.arc_range(v);
        (&self.targets[lo..hi], self.weights.slice(v as usize, lo as u64, hi as u64))
    }

    #[inline(always)]
    fn arc_range(&self, v: VertexId) -> (usize, usize) {
        (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize)
    }

    /// Index of the arc `u→v` in the flat arc arrays, if the edge exists.
    #[inline]
    pub fn arc_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let (lo, hi) = self.arc_range(u);
        self.targets[lo..hi].binary_search(&v).ok().map(|i| lo + i)
    }

    /// Weight of edge `{u, v}`, if present.
    #[inline]
    pub fn weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.arc_index(u, v).map(|i| self.weights.get(u as usize, i as u64))
    }

    /// Whether the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.arc_index(u, v).is_some()
    }

    /// Set the weight of edge `{u, v}` (both arcs). Returns the old weight.
    pub fn set_weight(
        &mut self,
        u: VertexId,
        v: VertexId,
        w: Weight,
    ) -> Result<Weight, GraphError> {
        let n = self.num_vertices() as VertexId;
        if u >= n {
            return Err(GraphError::InvalidVertex(u));
        }
        if v >= n {
            return Err(GraphError::InvalidVertex(v));
        }
        let iu = self.arc_index(u, v).ok_or(GraphError::NoSuchEdge(u, v))? as u64;
        let iv = self.arc_index(v, u).expect("reverse arc must exist") as u64;
        let old = self.weights.get(u as usize, iu);
        self.weights.set(u as usize, iu, w);
        self.weights.set(v as usize, iv, w);
        Ok(old)
    }

    /// Apply a single [`EdgeUpdate`]; returns the previous weight.
    pub fn apply_update(&mut self, upd: EdgeUpdate) -> Result<Weight, GraphError> {
        self.set_weight(upd.a, upd.b, upd.new_weight)
    }

    /// Apply a batch of updates; returns the previous weights in order.
    pub fn apply_updates(&mut self, upds: &[EdgeUpdate]) -> Result<Vec<Weight>, GraphError> {
        upds.iter().map(|&u| self.apply_update(u)).collect()
    }

    /// Iterate undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (u, v, w))
        })
    }

    /// Attach planar coordinates (used by inertial partitioning and A*).
    pub fn set_coords(&mut self, coords: Vec<(f32, f32)>) {
        assert_eq!(coords.len(), self.num_vertices(), "one coordinate per vertex");
        self.coords = Some(coords.into());
    }

    /// Planar coordinates, if attached.
    #[inline]
    pub fn coords(&self) -> Option<&[(f32, f32)]> {
        self.coords.as_deref()
    }

    /// Approximate resident memory of the graph structure in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.targets.len() * 4
            + self.weights.memory_bytes()
            + self.coords.as_ref().map_or(0, |c| c.len() * 8)
    }

    // ---- copy-on-write surface (see crate::cow) ----

    /// Drain the bytes-copied counters of the weight store — one publish
    /// window's worth of copy-on-write promotions.
    pub fn take_cow_stats(&mut self) -> CowStats {
        self.weights.take_cow_stats()
    }

    /// Current window's copy-on-write counters without draining them.
    pub fn cow_stats(&self) -> CowStats {
        self.weights.cow_stats()
    }

    /// Number of weight chunks.
    pub fn num_weight_chunks(&self) -> usize {
        self.weights.num_chunks()
    }

    /// How many weight chunks are physically shared with `other`.
    pub fn shared_weight_chunks(&self, other: &CsrGraph) -> usize {
        self.weights.shared_chunks_with(&other.weights)
    }

    /// Whether the immutable topology arrays are shared with `other`
    /// (clones always share them; only independent builds do not).
    pub fn shares_topology(&self, other: &CsrGraph) -> bool {
        Arc::ptr_eq(&self.targets, &other.targets)
    }

    /// A physically independent copy — the `O(n + m)` cost the pre-COW
    /// publish path paid per generation; kept for baselines and benchmarks.
    pub fn deep_clone(&self) -> Self {
        Self {
            offsets: Arc::from(&self.offsets[..]),
            targets: Arc::from(&self.targets[..]),
            weights: self.weights.deep_clone(),
            coords: self.coords.as_ref().map(|c| Arc::from(&c[..])),
            num_edges: self.num_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::types::EdgeUpdate;

    fn triangle() -> super::CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 20);
        b.add_edge(0, 2, 40);
        b.build()
    }

    #[test]
    fn sizes() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = triangle();
        let ns: Vec<_> = g.neighbors(0).collect();
        assert_eq!(ns, vec![(1, 10), (2, 40)]);
        let (ts, ws) = g.neighbor_slices(1);
        assert_eq!(ts, &[0, 2]);
        assert_eq!(ws, &[10, 20]);
    }

    #[test]
    fn weight_lookup_and_update() {
        let mut g = triangle();
        assert_eq!(g.weight(0, 2), Some(40));
        assert_eq!(g.weight(2, 0), Some(40));
        assert_eq!(g.weight(0, 0), None);
        let old = g.set_weight(0, 2, 5).unwrap();
        assert_eq!(old, 40);
        assert_eq!(g.weight(0, 2), Some(5));
        assert_eq!(g.weight(2, 0), Some(5));
    }

    #[test]
    fn update_errors() {
        let mut g = triangle();
        assert!(g.set_weight(0, 7, 1).is_err());
        assert!(g.set_weight(9, 0, 1).is_err());
        assert!(matches!(g.set_weight(1, 1, 1), Err(crate::GraphError::NoSuchEdge(1, 1))));
    }

    #[test]
    fn batch_updates_return_old_weights() {
        let mut g = triangle();
        let olds =
            g.apply_updates(&[EdgeUpdate::new(0, 1, 11), EdgeUpdate::new(1, 2, 21)]).unwrap();
        assert_eq!(olds, vec![10, 20]);
        assert_eq!(g.weight(0, 1), Some(11));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1, 10), (0, 2, 40), (1, 2, 20)]);
    }

    #[test]
    fn coords_roundtrip() {
        let mut g = triangle();
        assert!(g.coords().is_none());
        g.set_coords(vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        assert_eq!(g.coords().unwrap()[2], (0.0, 1.0));
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle();
        assert!(g.memory_bytes() >= 6 * 4 + 6 * 4 + 4 * 4);
    }

    #[test]
    fn clone_is_cow_not_deep() {
        let mut g = triangle();
        let snap = g.clone();
        assert!(g.shares_topology(&snap));
        assert_eq!(g.shared_weight_chunks(&snap), g.num_weight_chunks());
        g.set_weight(0, 1, 3).unwrap();
        // The write promoted the touched chunk(s); the snapshot is unchanged.
        assert_eq!(snap.weight(0, 1), Some(10));
        assert_eq!(g.weight(0, 1), Some(3));
        assert!(g.cow_stats().bytes_copied > 0);
        let drained = g.take_cow_stats();
        assert_eq!(
            drained.chunks_copied as usize,
            g.num_weight_chunks() - g.shared_weight_chunks(&snap)
        );
        assert_eq!(g.cow_stats(), crate::cow::CowStats::default());
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let g = triangle();
        let d = g.deep_clone();
        assert!(!g.shares_topology(&d));
        assert_eq!(g.shared_weight_chunks(&d), 0);
        assert_eq!(d.weight(1, 2), Some(20));
    }
}
