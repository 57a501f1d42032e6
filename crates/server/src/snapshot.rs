//! Immutable published epochs.

use stl_core::{DynamicDistanceIndex, Stl};
use stl_graph::{CsrGraph, Dist, VertexId};

/// One published epoch: a graph, its distance index, and the generation
/// number.
///
/// Snapshots are immutable by construction — the writer publishes a fresh
/// one per applied batch and never touches it again — so shared references
/// can be queried from any number of threads without synchronisation.
/// Generation 0 is the state the server started from; generation `i` is the
/// state after the first `i` applied batches. The index type defaults to
/// [`Stl`]; any [`DynamicDistanceIndex`] slots in.
#[derive(Debug)]
pub struct Snapshot<I: DynamicDistanceIndex = Stl> {
    generation: u64,
    graph: CsrGraph,
    index: I,
}

impl<I: DynamicDistanceIndex> Snapshot<I> {
    pub(crate) fn new(generation: u64, graph: CsrGraph, index: I) -> Self {
        Self { generation, graph, index }
    }

    /// Which epoch this snapshot belongs to.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Shortest-path distance in this epoch's graph (`INF` if disconnected).
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        self.index.query(s, t)
    }

    /// The epoch's road network.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The epoch's index (for one-to-many / k-NN style queries).
    #[inline]
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Whether this epoch serves the flat direct-offset read path: label
    /// arena and CSR weights both compacted and unwritten since. Snapshots cloned from a compacted writer stay flat forever —
    /// later writes promote chunks in the *writer's* stores only.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.index.is_flat() && self.graph.weights_flat()
    }
}

impl Snapshot<Stl> {
    /// The epoch's STL index — alias of [`Snapshot::index`] kept for the
    /// default-engine call sites.
    #[inline]
    pub fn stl(&self) -> &Stl {
        &self.index
    }
}
