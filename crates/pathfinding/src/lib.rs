//! Shortest-path search primitives and baselines.
//!
//! * [`TimestampedArray`] — O(1)-reset scratch arrays (epoch trick); every
//!   per-update search in the maintenance algorithms relies on this to avoid
//!   `O(|V|)` clears.
//! * [`dijkstra`] — plain / target-pruned / vertex-filtered Dijkstra with a
//!   reusable engine.
//! * [`bidirectional`] — bidirectional Dijkstra, the classical query baseline
//!   from the paper's introduction.
//! * [`bfs`] — unweighted BFS and pseudo-peripheral vertex search (used for
//!   partitioning).

pub mod bfs;
pub mod bidirectional;
pub mod dijkstra;
pub mod timestamp;

pub use dijkstra::DijkstraEngine;
pub use timestamp::TimestampedArray;
