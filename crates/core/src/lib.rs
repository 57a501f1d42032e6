//! # Stable Tree Labelling (STL)
//!
//! The primary contribution of *"Stable Tree Labelling for Accelerating
//! Distance Queries on Dynamic Road Networks"* (EDBT 2025):
//!
//! * [`hierarchy::Hierarchy`] — stable tree hierarchy (Definition 4.1):
//!   a shortcut-free binary separator tree, structurally independent of edge
//!   weights.
//! * [`labelling::Stl`] — the 2-hop labelling over it (Definition 4.6)
//!   storing **subgraph** distances, with O(1)-LCA queries (Equation 3).
//! * [`shard`] — the batch driver, [`Stl::apply_batch`]: a mixed batch is
//!   normalised and repaired one update at a time, in batch order, by
//!   ancestor-centric Label Search (Algorithms 1–2) or by update-centric
//!   Pareto Search, which combines all ancestors into two searches with
//!   Pareto-active intervals (Algorithms 3–5) — each update in one pass.
//!   A shard worker's ownership is one ancestor-index bound: it repairs an
//!   update in a tree it does not own only below that tree's first index.
//! * [`query`] — Equation 3 as one body: LCA → two label prefixes → one
//!   min-plus kernel over 16-entry label blocks, in the chunked or the flat
//!   layout.
//! * [`directed`] — the §8 extension to directed road networks, built by
//!   the same construction kernel and maintained by [`directed_dynamic`]
//!   with Label Search's own searches, run once per label family over one
//!   direction of the arcs.
//! * [`structural`] — §8 edge/vertex insertion & deletion.
//! * [`verify`] — independent invariant checkers used by the test suite.
//! * [`persist`] — compact binary serialization of a built index.
//! * [`failpoint`] — env-gated fault injection for crash-safety testing.
//!
//! ## Quick start
//!
//! ```
//! use stl_graph::builder::from_edges;
//! use stl_core::{Stl, StlConfig};
//!
//! let g = from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)]);
//! let stl = Stl::build(&g, &StlConfig::default());
//! assert_eq!(stl.query(0, 3), 12);
//! ```

pub mod directed;
pub mod directed_dynamic;
pub mod engine;
pub mod failpoint;
pub mod hierarchy;
mod label_search;
pub mod labelling;
mod pareto;
pub mod persist;
pub mod query;
pub mod shard;
pub mod stats;
pub mod structural;
pub mod types;
pub mod verify;

pub use engine::{EnginePool, UpdateEngine};
pub use hierarchy::{Hierarchy, RawNode, SPINE_SHARD};
pub use labelling::{LabelArena, LabelBlock, Labels, Stl};
pub use query::{min_plus, QueryProfile};
pub use shard::{ShardReport, ShardSet};
pub use stats::IndexStats;
pub use types::{Maintenance, StlConfig, UpdateStats};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared reference implementations for this crate's unit tests.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use stl_graph::{dist_add, DiGraph, Dist, VertexId, INF};

    use crate::directed::DirectedStl;

    /// Reference directed Dijkstra over out-arcs.
    pub fn directed_oracle(dg: &DiGraph, s: VertexId) -> Vec<Dist> {
        let n = dg.num_vertices();
        let mut dist = vec![INF; n];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0;
        heap.push(Reverse((0, s)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for (nb, w) in dg.out_neighbors(v) {
                if w == INF {
                    continue;
                }
                let nd = dist_add(d, w);
                if nd < dist[nb as usize] {
                    dist[nb as usize] = nd;
                    heap.push(Reverse((nd, nb)));
                }
            }
        }
        dist
    }

    /// Assert every pairwise directed query matches the oracle.
    pub fn assert_directed_exact(dg: &DiGraph, stl: &DirectedStl) {
        for s in 0..dg.num_vertices() as VertexId {
            let d = directed_oracle(dg, s);
            for t in 0..dg.num_vertices() as VertexId {
                assert_eq!(stl.query(s, t), d[t as usize], "query({s}->{t})");
            }
        }
    }
}
