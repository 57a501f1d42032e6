//! Directed road networks (§8 extension).
//!
//! "We may store distances from both directions in the label of each vertex
//! … by performing searches in both directions during label construction."
//!
//! [`DirectedStl`] keeps two label sets over one stable tree hierarchy built
//! on the symmetrized structure:
//! * `up`   — `L↑(v)[i] = d^{r_i}(v → r_i)` (towards the ancestor),
//! * `down` — `L↓(v)[i] = d^{r_i}(r_i → v)` (from the ancestor).
//!
//! A query `s → t` scans `min_i L↑(s)[i] + L↓(t)[i]` over the comparable
//! prefix with the undirected index's block kernel; the 2-hop cover argument of Lemma 4.7 carries over verbatim
//! because the minimum-τ vertex of any directed path is a common ancestor
//! whose subgraph contains the path.

use stl_graph::{DiGraph, Dist, VertexId, Weight, INF};

use crate::hierarchy::Hierarchy;
use crate::labelling::{fill_labels, Arcs, Labels};
use crate::query::min_plus_blocks;
use crate::types::StlConfig;

/// STL index for a directed road network.
#[derive(Debug, Clone)]
pub struct DirectedStl {
    pub(crate) hier: Hierarchy,
    /// `L↑(v)[i] = d^{r_i}(v → r_i)`.
    pub(crate) up: Labels,
    /// `L↓(v)[i] = d^{r_i}(r_i → v)`.
    pub(crate) down: Labels,
}

impl DirectedStl {
    /// Build hierarchy (on the symmetrized structure) and both label sets.
    pub fn build(dg: &DiGraph, cfg: &StlConfig) -> Self {
        let structure = dg.undirected_structure();
        let hier = Hierarchy::build(&structure, cfg);
        // Out-arcs measure `r → v` and fill `down`; in-arcs measure
        // `v → r` and fill `up`.
        let (down, _) = fill_labels(&Oriented { dg, forward: true }, &hier, 1);
        let (up, _) = fill_labels(&Oriented { dg, forward: false }, &hier, 1);
        DirectedStl { hier, up, down }
    }

    /// Directed distance `d(s → t)`; `INF` when unreachable.
    pub fn query(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return 0;
        }
        let k = self.hier.common_anc_count(s, t) as usize;
        if k == 0 {
            return INF;
        }
        let (up, down) = (&self.up, &self.down);
        min_plus_blocks(up.blocks(s), down.blocks(t), k, |i| up.escape(s, i), |i| down.escape(t, i))
    }

    /// The shared hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Total label entries across both directions.
    pub fn num_entries(&self) -> u64 {
        self.up.num_entries() + self.down.num_entries()
    }
}

/// One direction of a `DiGraph`'s arcs, for the label construction kernel.
struct Oriented<'a> {
    dg: &'a DiGraph,
    /// Out-arcs if set, else in-arcs (reversed, as `(tail, weight)`).
    forward: bool,
}

impl Arcs for Oriented<'_> {
    fn num_vertices(&self) -> usize {
        self.dg.num_vertices()
    }

    #[inline(always)]
    fn for_each_arc(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        if self.forward {
            self.dg.out_neighbors(v).for_each(|(n, w)| f(n, w));
        } else {
            self.dg.in_neighbors(v).for_each(|(n, w)| f(n, w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::directed_oracle as oracle;

    fn directed_grid(side: u32) -> DiGraph {
        // Grid with asymmetric weights: eastbound cheaper than westbound,
        // one-way "avenues" every third row.
        let idx = |x: u32, y: u32| y * side + x;
        let mut arcs = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    arcs.push((idx(x, y), idx(x + 1, y), 2 + (x + y) % 5));
                    if y % 3 != 0 {
                        arcs.push((idx(x + 1, y), idx(x, y), 4 + (x * y) % 7));
                    }
                }
                if y + 1 < side {
                    arcs.push((idx(x, y), idx(x, y + 1), 3 + (x * 2 + y) % 4));
                    arcs.push((idx(x, y + 1), idx(x, y), 5 + (x + 2 * y) % 6));
                }
            }
        }
        DiGraph::from_arcs((side * side) as usize, arcs)
    }

    #[test]
    fn directed_all_pairs_exact() {
        let dg = directed_grid(6);
        let stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 4, ..Default::default() });
        for s in 0..36u32 {
            let d = oracle(&dg, s);
            for t in 0..36u32 {
                assert_eq!(stl.query(s, t), d[t as usize], "query({s},{t})");
            }
        }
    }

    #[test]
    fn asymmetry_visible_in_queries() {
        // 0 -> 1 cheap, 1 -> 0 only via detour.
        let dg = DiGraph::from_arcs(3, vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
        let stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 1, ..Default::default() });
        assert_eq!(stl.query(0, 1), 1);
        assert_eq!(stl.query(1, 0), 2);
    }

    #[test]
    fn unreachable_directed_pair() {
        let dg = DiGraph::from_arcs(3, vec![(0, 1, 1), (2, 1, 1)]);
        let stl = DirectedStl::build(&dg, &StlConfig { leaf_size: 1, ..Default::default() });
        assert_eq!(stl.query(0, 2), INF);
        assert_eq!(stl.query(1, 2), INF);
        assert_eq!(stl.query(2, 1), 1);
    }

    #[test]
    fn self_query_zero() {
        let dg = directed_grid(3);
        let stl = DirectedStl::build(&dg, &StlConfig::default());
        for v in 0..9u32 {
            assert_eq!(stl.query(v, v), 0);
        }
    }
}
