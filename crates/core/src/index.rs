//! The common surface every dynamic distance index must offer to be
//! servable — the seam between `stl_server` and the engines behind it.
//!
//! `stl_server`'s writer loop, `Snapshot`, durability machinery, and the
//! network worker loop are generic over [`DynamicDistanceIndex`] instead of
//! hard-coding [`Stl`]. The trait captures exactly what serving needs:
//!
//! * **reads** — [`query`](DynamicDistanceIndex::query) and
//!   [`one_to_many_into`](DynamicDistanceIndex::one_to_many_into) against an
//!   immutable snapshot;
//! * **writes** — [`apply_batch`](DynamicDistanceIndex::apply_batch), the
//!   tree-sharded batch repair with an optional [`ShardSet`] ownership
//!   filter (the unit process-sharded serving deals in);
//! * **maintenance** — [`compact`](DynamicDistanceIndex::compact) plus the
//!   flatness/chunk accessors the writer's quiescence trigger reads, and
//!   [`take_cow_stats`](DynamicDistanceIndex::take_cow_stats) for the
//!   publish accounting;
//! * **persistence** — [`to_bytes`](DynamicDistanceIndex::to_bytes) /
//!   [`from_bytes`](DynamicDistanceIndex::from_bytes), the checkpoint and
//!   replication wire format.
//!
//! The bound `Clone + Send + Sync + 'static` is the epoch-snapshot
//! protocol itself: publishing clones the index copy-on-write and hands
//! `Arc`s of the frozen clone to reader threads.
//!
//! The second-generation engine the ROADMAP plans (Dual-Hierarchy
//! Labelling, arXiv 2506.18013) lands as another implementor of this trait;
//! nothing in `stl_server` should need to change for it.

use stl_graph::cow::CowStats;
use stl_graph::{CsrGraph, Dist, EdgeUpdate, VertexId};

use crate::engine::EnginePool;
use crate::labelling::Stl;
use crate::persist;
use crate::shard::{ShardReport, ShardSet};
use crate::types::{Maintenance, UpdateStats};

/// A distance index that answers shortest-path queries and absorbs batched
/// edge-weight updates — the engine contract of `stl_server`. See the
/// [module docs](self) for the role of each method group.
pub trait DynamicDistanceIndex: Clone + Send + Sync + Sized + 'static {
    /// Number of vertices the index was built over.
    fn num_vertices(&self) -> usize;

    /// Exact shortest-path distance `d(s, t)` ([`stl_graph::INF`] when
    /// unreachable).
    fn query(&self, s: VertexId, t: VertexId) -> Dist;

    /// Distances from `s` to every vertex of `targets`, written into `out`
    /// in `targets` order (`out` is cleared first). Implementations may
    /// reorder the *work* for locality but not the output.
    fn one_to_many_into(&self, s: VertexId, targets: &[VertexId], out: &mut Vec<Dist>);

    /// Apply a batch of edge-weight updates to `g` and repair the labels,
    /// fanning the repair out over `threads` workers. With
    /// `owned = Some(set)`, every weight change still lands (the graph
    /// replica stays exact) but only the spine and the subtree shards in
    /// `set` are repaired — the process-sharding contract of
    /// [`Stl::apply_batch_sharded_owned`].
    fn apply_batch(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        threads: usize,
        owned: Option<&ShardSet>,
    ) -> (UpdateStats, ShardReport);

    /// Re-flatten the index's chunked stores into contiguous allocations;
    /// returns the bytes moved. Called by the writer's quiescence trigger.
    fn compact(&mut self) -> u64;

    /// Whether the index currently serves its flat (built, loaded or
    /// compacted, and unwritten since) fast path.
    fn is_flat(&self) -> bool;

    /// Chunk count of the index's backing stores — the denominator of the
    /// writer's dirty-ratio compaction trigger.
    fn num_chunks(&self) -> usize;

    /// Drain the copy-on-write accounting accumulated since the last call.
    fn take_cow_stats(&mut self) -> CowStats;

    /// Serialize for checkpoints and worker bootstrap (the `persist` wire
    /// format for [`Stl`]).
    fn to_bytes(&self) -> Vec<u8>;

    /// Inverse of [`to_bytes`](DynamicDistanceIndex::to_bytes).
    fn from_bytes(bytes: &[u8]) -> Result<Self, String>;
}

impl DynamicDistanceIndex for Stl {
    fn num_vertices(&self) -> usize {
        Stl::num_vertices(self)
    }

    fn query(&self, s: VertexId, t: VertexId) -> Dist {
        Stl::query(self, s, t)
    }

    fn one_to_many_into(&self, s: VertexId, targets: &[VertexId], out: &mut Vec<Dist>) {
        Stl::one_to_many_into(self, s, targets, out);
    }

    fn apply_batch(
        &mut self,
        g: &mut CsrGraph,
        updates: &[EdgeUpdate],
        algo: Maintenance,
        pool: &mut EnginePool,
        threads: usize,
        owned: Option<&ShardSet>,
    ) -> (UpdateStats, ShardReport) {
        self.apply_batch_sharded_owned(g, updates, algo, pool, threads, owned)
    }

    fn compact(&mut self) -> u64 {
        Stl::compact(self)
    }

    fn is_flat(&self) -> bool {
        Stl::is_flat(self)
    }

    fn num_chunks(&self) -> usize {
        Stl::num_chunks(self)
    }

    fn take_cow_stats(&mut self) -> CowStats {
        Stl::take_cow_stats(self)
    }

    fn to_bytes(&self) -> Vec<u8> {
        persist::save(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        persist::load(bytes).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StlConfig;
    use stl_graph::builder::from_edges;

    fn diamond() -> CsrGraph {
        from_edges(4, vec![(0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 20)])
    }

    /// Exercise the whole surface through the trait object boundary the
    /// server sees, so a signature drift breaks here before it breaks
    /// `stl_server`.
    fn serve_roundtrip<I: DynamicDistanceIndex>(index: &mut I, g: &mut CsrGraph) {
        assert_eq!(index.num_vertices(), 4);
        assert_eq!(index.query(0, 3), 12);
        let mut out = Vec::new();
        index.one_to_many_into(0, &[1, 2, 3], &mut out);
        assert_eq!(out, vec![3, 7, 12]);
        let mut pool = EnginePool::new();
        let (stats, report) = index.apply_batch(
            g,
            &[EdgeUpdate::new(0, 3, 2)],
            Maintenance::ParetoSearch,
            &mut pool,
            1,
            None,
        );
        assert_eq!(stats.updates, 1);
        assert!(report.shards_total >= 1);
        assert_eq!(index.query(0, 3), 2);
        let bytes = index.to_bytes();
        let restored = I::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(restored.query(0, 3), 2);
        assert!(I::from_bytes(b"not an index").is_err());
        index.compact();
        let _ = index.is_flat();
        assert!(index.num_chunks() >= 1);
        let _ = index.take_cow_stats();
    }

    #[test]
    fn stl_implements_the_serving_contract() {
        let mut g = diamond();
        let mut stl = Stl::build(&g, &StlConfig::default());
        serve_roundtrip(&mut stl, &mut g);
    }
}
