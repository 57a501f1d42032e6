//! Immutable published epochs.
//!
//! A snapshot shares every chunk its batch did not write with the epoch
//! before it. Its index reads labels by direct offset only until the
//! server's first label write; every later snapshot reads through the chunk
//! table, since nothing re-flattens an index.

use stl_core::Stl;
use stl_graph::{CsrGraph, Dist, VertexId};

/// One published epoch: a graph, its [`Stl`] index, and the generation
/// number.
///
/// Snapshots are immutable by construction — the writer publishes a fresh
/// one per applied batch and never touches it again — so shared references
/// can be queried from any number of threads without synchronisation.
/// Generation 0 is the state the server started from; generation `i` is the
/// state after the first `i` applied batches.
#[derive(Debug)]
pub struct Snapshot {
    generation: u64,
    graph: CsrGraph,
    stl: Stl,
}

impl Snapshot {
    pub(crate) fn new(generation: u64, graph: CsrGraph, stl: Stl) -> Self {
        Self { generation, graph, stl }
    }

    /// Which epoch this snapshot belongs to.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Shortest-path distance in this epoch's graph (`INF` if disconnected).
    #[inline]
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        self.stl.query(s, t)
    }

    /// The epoch's road network.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The epoch's STL index (for one-to-many / k-NN style queries).
    #[inline]
    pub fn stl(&self) -> &Stl {
        &self.stl
    }
}
