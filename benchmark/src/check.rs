//! The correctness gate: a seeded sample of answers, obtained through the
//! workload's own access path, compared with Dijkstra on the graph of the
//! generation that answered.

use stl_graph::{CsrGraph, Dist, VertexId};
use stl_pathfinding::dijkstra;

use crate::gen::check_sample;

/// Answers checked and answers that were wrong or could not be obtained.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Checked {
    fn add_assign(&mut self, o: Self) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Check the seeded sample (see [`check_sample`]): every point answer of
/// `query` and every element of every `many` answer must equal Dijkstra's
/// distance on `g`. A `None` (the access path failed) counts as wrong.
pub fn against_dijkstra(
    g: &CsrGraph,
    seed: u64,
    mut query: impl FnMut(VertexId, VertexId) -> Option<Dist>,
    mut many: impl FnMut(VertexId, &[VertexId]) -> Option<Vec<Dist>>,
) -> Checked {
    let mut out = Checked::default();
    for src in check_sample(g.num_vertices(), seed) {
        let truth = dijkstra::single_source(g, src.s);
        for &t in &src.targets {
            out.attempted += 1;
            if query(src.s, t) != Some(truth[t as usize]) {
                out.failed += 1;
            }
        }
        out.attempted += src.many_targets.len() as u64;
        match many(src.s, &src.many_targets) {
            Some(d) if d.len() == src.many_targets.len() => {
                let wrong =
                    src.many_targets.iter().zip(&d).filter(|&(&t, &d)| d != truth[t as usize]);
                out.failed += wrong.count() as u64;
            }
            _ => out.failed += src.many_targets.len() as u64,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_core::{Stl, StlConfig};
    use stl_workloads::roadnet::{generate, RoadNetConfig};

    #[test]
    fn exact_index_passes_and_a_wrong_answer_is_counted() {
        let g = generate(&RoadNetConfig::sized(400, 2));
        let stl = Stl::build(&g, &StlConfig::default());
        let ok = against_dijkstra(
            &g,
            1,
            |s, t| Some(stl.query(s, t)),
            |s, ts| Some(stl.one_to_many(s, ts)),
        );
        assert!(ok.attempted >= 500 + 20 * 256);
        assert_eq!(ok.failed, 0);
        let mut first = true;
        let bad = against_dijkstra(
            &g,
            1,
            |s, t| Some(stl.query(s, t) + u32::from(std::mem::take(&mut first))),
            |_, _| None,
        );
        assert_eq!(bad.failed, 1 + 25 * 256);
    }
}
