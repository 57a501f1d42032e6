//! Road-network graph substrate for the Stable Tree Labelling (STL) stack.
//!
//! The crate provides the weighted, undirected (and optionally directed)
//! graph representation every index in this workspace is built on:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency with *mutable* edge
//!   weights, the dynamic-road-network model of the paper (structure is
//!   fixed, weights change).
//! * [`GraphBuilder`] — edge-list ingestion with de-duplication.
//! * [`io`] — DIMACS `.gr` reading and writing.
//! * [`components`] — connectivity utilities (largest component extraction).
//! * [`hash`] — a vendored Fx-style hasher for hot integer-keyed maps.
//!
//! Distances use saturating `u32` arithmetic with [`INF`] as the unreachable
//! sentinel, so `INF + w` stays `INF` instead of wrapping to a short distance.

pub mod builder;
pub mod components;
pub mod cow;
pub mod csr;
pub mod digraph;
pub mod error;
pub mod hash;
pub mod io;
pub mod subgraph;
pub mod types;

pub use builder::GraphBuilder;
pub use cow::{AlignedBuf, ChunkedStore, CowStats, PhaseWriter, Pod, WeightStore};
pub use csr::CsrGraph;
pub use digraph::DiGraph;
pub use error::GraphError;
pub use types::{Dist, EdgeUpdate, VertexId, Weight, INF};

/// Saturating addition on distances: anything involving [`INF`] stays `INF`.
#[inline(always)]
pub fn dist_add(a: Dist, b: Dist) -> Dist {
    a.saturating_add(b)
}
