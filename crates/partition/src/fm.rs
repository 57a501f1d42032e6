//! Fiduccia–Mattheyses edge-cut refinement.
//!
//! Classic single-vertex-move local search: each pass moves every vertex at
//! most once in best-gain order under the balance constraint, then rolls back
//! to the best prefix. Gains use unit edge counts — we minimise cut
//! *cardinality* because the vertex separator derived from the cut (Kőnig
//! cover) is bounded by it.
//!
//! # Gain buckets
//! A vertex's gain (external minus internal edges) lies in `[−d, d]` for the
//! maximum degree `d`, so the priority queue is `2d + 1` buckets — one
//! min-heap of vertex ids per gain value — and a cursor on the highest bucket
//! that may be non-empty. A pass pops the largest gain, ties going to the
//! **smallest vertex id**. A gain change queues the vertex again in its new
//! bucket; the entry left behind is stale and skipped when popped, because
//! its bucket no longer matches `gain[v]`. A vertex popped while its move
//! would break the balance cap or empty its side is dropped until its gain
//! next changes. The buckets, gains and move log are allocated once per
//! [`refine`] and reused by every pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use stl_graph::{CsrGraph, VertexId};

use crate::config::PartitionConfig;

/// Refine `side` in place; stops after `cfg.fm_passes` or at a local optimum.
pub(crate) fn refine(g: &CsrGraph, side: &mut [u8], cfg: &PartitionConfig) {
    let max_side = cfg.max_side(g.num_vertices());
    let mut fm = Fm::new(g.num_vertices(), g.max_degree());
    for _ in 0..cfg.fm_passes {
        if !fm.pass(g, side, max_side) {
            break;
        }
    }
}

/// The buffers of one [`refine`] call.
struct Fm {
    gain: Vec<i32>,
    moved: Vec<bool>,
    sequence: Vec<VertexId>,
    /// `buckets[max_degree + gain]`: the vertex ids queued at that gain.
    buckets: Vec<BinaryHeap<Reverse<VertexId>>>,
    /// Highest bucket that may be non-empty.
    top: usize,
    max_degree: i32,
}

impl Fm {
    fn new(n: usize, max_degree: usize) -> Self {
        Fm {
            gain: vec![0; n],
            moved: vec![false; n],
            sequence: Vec::new(),
            buckets: (0..2 * max_degree + 1).map(|_| BinaryHeap::new()).collect(),
            top: 0,
            max_degree: max_degree as i32,
        }
    }

    fn push(&mut self, v: VertexId) {
        let b = (self.gain[v as usize] + self.max_degree) as usize;
        self.buckets[b].push(Reverse(v));
        self.top = self.top.max(b);
    }

    /// Pop the largest-gain, then smallest-id entry as `(gain, v)`.
    fn pop(&mut self) -> Option<(i32, VertexId)> {
        loop {
            if let Some(Reverse(v)) = self.buckets[self.top].pop() {
                return Some((self.top as i32 - self.max_degree, v));
            }
            if self.top == 0 {
                return None;
            }
            self.top -= 1;
        }
    }

    /// One FM pass; returns whether the cut strictly improved. Drains every
    /// bucket, so the next pass starts from empty ones.
    fn pass(&mut self, g: &CsrGraph, side: &mut [u8], max_side: usize) -> bool {
        let n = g.num_vertices();
        let mut sizes = [0usize; 2];
        for &s in side.iter() {
            sizes[s as usize] += 1;
        }
        for v in 0..n as VertexId {
            let sv = side[v as usize];
            let ext = g.neighbor_ids(v).iter().filter(|&&u| side[u as usize] != sv).count();
            self.gain[v as usize] = 2 * ext as i32 - g.degree(v) as i32;
            self.push(v);
        }
        self.moved.fill(false);
        self.sequence.clear();
        let mut delta: i64 = 0;
        let mut best_delta: i64 = 0;
        let mut best_len = 0usize;
        while let Some((gv, v)) = self.pop() {
            if self.moved[v as usize] || gv != self.gain[v as usize] {
                continue; // stale or already moved this pass
            }
            let from = side[v as usize] as usize;
            let to = 1 - from;
            if sizes[to] + 1 > max_side || sizes[from] == 1 {
                continue; // balance would break or side would empty
            }
            side[v as usize] = to as u8;
            sizes[from] -= 1;
            sizes[to] += 1;
            self.moved[v as usize] = true;
            delta -= gv as i64; // positive gain reduces the cut
            self.sequence.push(v);
            if delta < best_delta {
                best_delta = delta;
                best_len = self.sequence.len();
            }
            for &u in g.neighbor_ids(v) {
                if self.moved[u as usize] {
                    continue;
                }
                // v left `from`: edges to `from` neighbours become external
                // (+2), edges to `to` neighbours become internal (−2).
                if side[u as usize] as usize == from {
                    self.gain[u as usize] += 2;
                } else {
                    self.gain[u as usize] -= 2;
                }
                self.push(u);
            }
        }
        // Roll back past the best prefix.
        for &v in &self.sequence[best_len..] {
            side[v as usize] ^= 1;
        }
        best_delta < 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisect::cut_size;
    use stl_graph::builder::from_edges;

    /// How often the reference FM dropped a popped vertex, by reason.
    #[derive(Default)]
    struct Skips {
        empty_side: usize,
        over_cap: usize,
    }

    /// The single-`BinaryHeap` FM the gain buckets replaced: the oracle for
    /// their pop order.
    fn refine_heap(g: &CsrGraph, side: &mut [u8], cfg: &PartitionConfig) -> Skips {
        let max_side = cfg.max_side(g.num_vertices());
        let mut skips = Skips::default();
        for _ in 0..cfg.fm_passes {
            if !heap_pass(g, side, max_side, &mut skips) {
                break;
            }
        }
        skips
    }

    fn heap_pass(g: &CsrGraph, side: &mut [u8], max_side: usize, skips: &mut Skips) -> bool {
        let n = g.num_vertices();
        let mut gain = vec![0i64; n];
        let mut sizes = [0usize; 2];
        for v in 0..n {
            sizes[side[v] as usize] += 1;
        }
        for v in 0..n as VertexId {
            let (mut ext, mut int) = (0i64, 0i64);
            for (u, _) in g.neighbors(v) {
                if side[u as usize] == side[v as usize] {
                    int += 1;
                } else {
                    ext += 1;
                }
            }
            gain[v as usize] = ext - int;
        }
        let mut heap: BinaryHeap<(i64, Reverse<VertexId>)> = BinaryHeap::with_capacity(n);
        for v in 0..n as VertexId {
            heap.push((gain[v as usize], Reverse(v)));
        }
        let mut moved = vec![false; n];
        let mut sequence: Vec<VertexId> = Vec::new();
        let (mut delta, mut best_delta, mut best_len) = (0i64, 0i64, 0usize);
        while let Some((gv, Reverse(v))) = heap.pop() {
            if moved[v as usize] || gv != gain[v as usize] {
                continue;
            }
            let from = side[v as usize] as usize;
            let to = 1 - from;
            if sizes[to] + 1 > max_side {
                skips.over_cap += 1;
                continue;
            }
            if sizes[from] == 1 {
                skips.empty_side += 1;
                continue;
            }
            side[v as usize] = to as u8;
            sizes[from] -= 1;
            sizes[to] += 1;
            moved[v as usize] = true;
            delta -= gv;
            sequence.push(v);
            if delta < best_delta {
                best_delta = delta;
                best_len = sequence.len();
            }
            for (u, _) in g.neighbors(v) {
                if moved[u as usize] {
                    continue;
                }
                if side[u as usize] as usize == from {
                    gain[u as usize] += 2;
                } else {
                    gain[u as usize] -= 2;
                }
                heap.push((gain[u as usize], Reverse(u)));
            }
        }
        for &v in &sequence[best_len..] {
            side[v as usize] ^= 1;
        }
        best_delta < 0
    }

    /// Seeded LCG in `0..m`.
    fn lcg(state: &mut u64, m: u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 33) % m
    }

    /// Run both FMs from `start`; they must return identical sides.
    fn assert_same_sides(g: &CsrGraph, start: &[u8], cfg: &PartitionConfig, skips: &mut Skips) {
        let mut buckets = start.to_vec();
        refine(g, &mut buckets, cfg);
        let mut heap = start.to_vec();
        let s = refine_heap(g, &mut heap, cfg);
        skips.empty_side += s.empty_side;
        skips.over_cap += s.over_cap;
        assert_eq!(buckets, heap, "bucket FM diverged from the heap FM");
    }

    fn grid_graph(w: u32, h: u32) -> CsrGraph {
        let idx = |x: u32, y: u32| y * w + x;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < h {
                    edges.push((idx(x, y), idx(x, y + 1), 1));
                }
            }
        }
        from_edges((w * h) as usize, edges)
    }

    #[test]
    fn buckets_match_heap_on_seeded_random_graphs() {
        let mut skips = Skips::default();
        for seed in 0..40u64 {
            let mut state = seed;
            let n = 20 + lcg(&mut state, 120) as u32;
            let mut edges: Vec<_> =
                (1..n).map(|i| (i, lcg(&mut state, i as u64) as u32, 1)).collect();
            for _ in 0..n {
                edges.push((lcg(&mut state, n as u64) as u32, lcg(&mut state, n as u64) as u32, 1));
            }
            let g = from_edges(n as usize, edges);
            for beta in [0.1, 0.2, 0.5] {
                let cfg = PartitionConfig { fm_passes: 8, ..PartitionConfig::with_beta(beta) };
                let cap = cfg.max_side(n as usize) as u64;
                // A random start with side 0 anywhere in `1..=cap`.
                let zeros = 1 + lcg(&mut state, cap);
                let start: Vec<u8> = (0..n as u64).map(|v| u8::from(v >= zeros)).collect();
                assert_same_sides(&g, &start, &cfg, &mut skips);
                let start: Vec<u8> = (0..n).map(|_| lcg(&mut state, 2) as u8).collect();
                if start.contains(&0) && start.contains(&1) {
                    assert_same_sides(&g, &start, &cfg, &mut skips);
                }
            }
        }
        assert!(skips.over_cap > 0, "no input hit the balance cap");
    }

    #[test]
    fn buckets_match_heap_on_checkerboard_grids() {
        let mut skips = Skips::default();
        for (w, h) in [(8, 8), (13, 7), (20, 20), (31, 4)] {
            let g = grid_graph(w, h);
            let start: Vec<u8> = (0..w * h).map(|i| (((i % w) + (i / w)) % 2) as u8).collect();
            for beta in [0.1, 0.2, 0.5] {
                let cfg = PartitionConfig { fm_passes: 20, ..PartitionConfig::with_beta(beta) };
                assert_same_sides(&g, &start, &cfg, &mut skips);
            }
        }
    }

    #[test]
    fn buckets_match_heap_on_the_skip_paths() {
        let mut skips = Skips::default();
        // A star whose centre is alone on side 0: its move would empty the
        // side. The cap is checked first and holds at most n − 1 vertices for
        // any β > 0, so only β = 0 (all n fit) reaches the empty-side skip.
        let star = from_edges(9, (1..9).map(|i| (0, i, 1)).collect::<Vec<_>>());
        let mut start = vec![1u8; 9];
        start[0] = 0;
        let no_cap = PartitionConfig { beta: 0.0, ..PartitionConfig::default() };
        assert_same_sides(&star, &start, &no_cap, &mut skips);
        assert!(skips.empty_side > 0, "the star did not take the empty-side skip");
        // Both sides at the cap (β = 0.5 on an even path): no move fits.
        let path = from_edges(10, (0..9).map(|i| (i, i + 1, 1)).collect::<Vec<_>>());
        let start: Vec<u8> = (0..10).map(|i| (i % 2) as u8).collect();
        let before = skips.over_cap;
        assert_same_sides(&path, &start, &PartitionConfig::with_beta(0.5), &mut skips);
        assert!(skips.over_cap > before, "the path did not take the balance-cap skip");
    }

    #[test]
    fn refine_untangles_interleaved_path() {
        // Path 0-1-2-3-4-5; alternate sides -> cut 5; optimum is 1.
        let g = from_edges(6, (0..5).map(|i| (i, i + 1, 1)).collect::<Vec<_>>());
        let mut side = vec![0u8, 1, 0, 1, 0, 1];
        assert_eq!(cut_size(&g, &side), 5);
        refine(&g, &mut side, &PartitionConfig::default());
        assert!(cut_size(&g, &side) <= 1, "cut is {}", cut_size(&g, &side));
    }

    #[test]
    fn refine_never_worsens() {
        let mut edges = Vec::new();
        let mut state = 7u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for i in 1..50u64 {
            edges.push((i as u32, next(i) as u32, 1));
        }
        for _ in 0..60 {
            edges.push((next(50) as u32, next(50) as u32, 1));
        }
        let g = from_edges(50, edges);
        let mut side: Vec<u8> = (0..50).map(|i| (i % 2) as u8).collect();
        let before = cut_size(&g, &side);
        refine(&g, &mut side, &PartitionConfig::default());
        assert!(cut_size(&g, &side) <= before);
    }

    #[test]
    fn balance_respected() {
        let g = from_edges(10, (0..9).map(|i| (i, i + 1, 1)).collect::<Vec<_>>());
        let cfg = PartitionConfig::with_beta(0.3);
        let mut side: Vec<u8> = (0..10).map(|i| (i % 2) as u8).collect();
        refine(&g, &mut side, &cfg);
        let zeros = side.iter().filter(|&&s| s == 0).count();
        assert!(zeros <= cfg.max_side(10));
        assert!(10 - zeros <= cfg.max_side(10));
        assert!((1..=9).contains(&zeros), "a side emptied");
    }

    #[test]
    fn grid_cut_converges_near_optimal() {
        let g = grid_graph(8, 8);
        // Checkerboard start: terrible cut.
        let mut side: Vec<u8> = (0..64u32).map(|i| (((i % 8) + (i / 8)) % 2) as u8).collect();
        let before = cut_size(&g, &side);
        refine(&g, &mut side, &PartitionConfig { fm_passes: 20, ..Default::default() });
        let after = cut_size(&g, &side);
        assert!(after < before / 2, "cut {before} -> {after}");
    }
}
