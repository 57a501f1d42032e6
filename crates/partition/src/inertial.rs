//! Inertial (coordinate-sweep) bisection.
//!
//! Projects vertices onto four directions, sweeps each projection for
//! the balanced split with the smallest edge cut, and returns the best. Road
//! networks are near-planar, so geometric sweeps find narrow cuts quickly —
//! this mirrors the "Inertial Flow"-style cutters used by the HC2L line of
//! work, minus the max-flow step (FM refinement plays that role here).

use stl_graph::CsrGraph;

use crate::bisect::cut_size;
use crate::config::PartitionConfig;

/// Side assignment from the best of several directional sweeps.
///
/// Requires coordinates; callers guard on `g.coords().is_some()`.
pub(crate) fn inertial_bisection(g: &CsrGraph, cfg: &PartitionConfig) -> Vec<u8> {
    let coords = g.coords().expect("inertial bisection requires coordinates");
    let n = g.num_vertices();
    let dirs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)];
    let mut best: Option<(usize, Vec<u8>)> = None;
    let half = (n / 2).clamp(1, cfg.max_side(n));
    let mut keyed: Vec<(f32, u32)> = Vec::with_capacity(n);
    for (dx, dy) in dirs {
        keyed.clear();
        keyed.extend(coords.iter().enumerate().map(|(i, &(x, y))| (x * dx + y * dy, i as u32)));
        keyed.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut side = vec![1u8; n];
        for &(_, v) in keyed.iter().take(half) {
            side[v as usize] = 0;
        }
        let cut = cut_size(g, &side);
        if best.as_ref().is_none_or(|(c, _)| cut < *c) {
            best = Some((cut, side));
        }
    }
    best.expect("at least one direction").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;

    fn grid_with_coords(side: u32) -> CsrGraph {
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 1));
                }
            }
        }
        let mut g = from_edges((side * side) as usize, edges);
        g.set_coords((0..side * side).map(|i| ((i % side) as f32, (i / side) as f32)).collect());
        g
    }

    #[test]
    fn grid_sweep_finds_axis_cut() {
        let side = 10;
        let g = grid_with_coords(side);
        let assignment = inertial_bisection(&g, &PartitionConfig::default());
        // Optimal axis-aligned cut of a 10x10 grid cuts exactly 10 edges.
        assert_eq!(cut_size(&g, &assignment), side as usize);
        let zeros = assignment.iter().filter(|&&s| s == 0).count();
        assert_eq!(zeros, 50);
    }

    #[test]
    fn respects_balance_cap() {
        let g = grid_with_coords(6);
        let cfg = PartitionConfig::with_beta(0.4);
        let assignment = inertial_bisection(&g, &cfg);
        let zeros = assignment.iter().filter(|&&s| s == 0).count();
        assert!(zeros <= cfg.max_side(36));
        assert!(36 - zeros <= cfg.max_side(36));
    }
}
