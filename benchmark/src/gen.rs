//! Seeded operation generators.
//!
//! `--seed` reaches the benchmark only through this module: every stream of
//! operations (query pairs, one-to-many probes, update batches, arrival
//! schedules) is a pure function of the seed and the pinned road network,
//! and the program under test sees the generated inputs only. Each stream
//! draws from its own generator (the seed XOR a stream constant), so
//! lengthening one stream never changes another.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stl_core::Hierarchy;
use stl_graph::{CsrGraph, EdgeUpdate, VertexId, INF};
use stl_workloads::updates::{hotspot_batches, HotspotConfig};

/// Queries per timed DIST block. Small enough that a run yields thousands
/// of block samples (so p99 is supported inside every slice), large enough
/// that the two clock reads around a block are under 1.5 % of it even on
/// the L2-resident graph.
pub const BLOCK: usize = 100;
/// Targets per one-to-many probe.
pub const MANY_TARGETS: usize = 256;
/// Steps of the random walk that picks a `near` pair's target.
pub const NEAR_WALK_STEPS: usize = 12;
/// Edges per multi-edge batch (scattered and hotspot legs).
pub const WIDE_BATCH: usize = 16;
/// Stable trees the hotspot leg concentrates in.
pub const HOT_TREES: usize = 2;

const STREAM_FAR: u64 = 0x0F4A_11CE;
const STREAM_NEAR: u64 = 0x4E34_4B1D;
const STREAM_MANY: u64 = 0x3A4E_7777;
const STREAM_SINGLE: u64 = 0x51E6_1E00;
const STREAM_SCATTER: u64 = 0x5CA7_7E40;
const STREAM_HOT: u64 = 0x4075_9077;
const STREAM_READ_CLOCK: u64 = 0xC10C_4EAD;
const STREAM_WRITE_CLOCK: u64 = 0xC10C_3417;
const STREAM_MIX: u64 = 0x3117_0A1B;
const STREAM_CHECK: u64 = 0x0C4E_C4ED;

/// A point query.
pub type Pair = (VertexId, VertexId);

/// A one-to-many probe: source and targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyOp {
    pub s: VertexId,
    pub targets: Vec<VertexId>,
}

/// The read operations of one run. DIST blocks cycle through the two pair
/// pools (half of every block `far`, half `near`), MANY probes through
/// `many`.
#[derive(Debug, Clone)]
pub struct ReadOps {
    /// Uniform pairs.
    pub far: Vec<Pair>,
    /// Pairs whose target ends a short random walk from the source — long
    /// common prefixes, so long deep-label tails.
    pub near: Vec<Pair>,
    pub many: Vec<ManyOp>,
}

/// `blocks` DIST blocks' worth of pairs (capped by `pool_blocks` distinct
/// blocks, cycled beyond that) and `many` one-to-many probes.
pub fn read_ops(g: &CsrGraph, seed: u64, pool_blocks: usize, many: usize) -> ReadOps {
    let n = g.num_vertices() as VertexId;
    assert!(n >= 2, "need at least two vertices");
    let half = BLOCK / 2;
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_FAR);
    let far = (0..pool_blocks * half)
        .map(|_| {
            let s = rng.random_range(0..n);
            let mut t = rng.random_range(0..n);
            while t == s {
                t = rng.random_range(0..n);
            }
            (s, t)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_NEAR);
    let near = (0..pool_blocks * half)
        .map(|_| {
            let s = rng.random_range(0..n);
            (s, walk(g, s, &mut rng))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_MANY);
    let many = (0..many)
        .map(|_| ManyOp {
            s: rng.random_range(0..n),
            targets: (0..MANY_TARGETS).map(|_| rng.random_range(0..n)).collect(),
        })
        .collect();
    ReadOps { far, near, many }
}

/// End of a [`NEAR_WALK_STEPS`]-step random walk from `s` over open roads;
/// never `s` itself (one more step is taken if the walk returned home).
fn walk(g: &CsrGraph, s: VertexId, rng: &mut StdRng) -> VertexId {
    let mut v = s;
    let mut steps = 0;
    while steps < NEAR_WALK_STEPS || v == s {
        let (nbrs, ws) = g.neighbor_slices(v);
        let open: Vec<VertexId> =
            nbrs.iter().zip(ws).filter(|&(_, &w)| w != INF).map(|(&nb, _)| nb).collect();
        assert!(!open.is_empty(), "vertex {v} has no open road (graph must be connected)");
        v = open[rng.random_range(0..open.len())];
        steps += 1;
    }
    v
}

/// Which leg of the update stream a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// One edge: the batch whose ack latency `batch_ms_*` reports.
    Single,
    /// [`WIDE_BATCH`] edges scattered over the whole network.
    Scattered,
    /// [`WIDE_BATCH`] edges inside the [`HOT_TREES`] busiest stable trees.
    Hotspot,
}

/// One update batch with its idempotency key (used on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub kind: BatchKind,
    pub key: u64,
    pub updates: Vec<EdgeUpdate>,
}

/// The update stream: `single` one-edge congestion-ledger batches, then
/// `scattered` and `hotspot` [`WIDE_BATCH`]-edge batches. Every weight is
/// absolute and targets an edge that is finite in `g`, so any subsequence
/// replayed in order is a valid input.
pub fn update_stream(
    g: &CsrGraph,
    hier: &Hierarchy,
    seed: u64,
    single: usize,
    scattered: usize,
    hotspot: usize,
) -> Vec<Batch> {
    let leg = |kind, batches: usize, batch_size, hot_trees, stream: u64| {
        let cfg = HotspotConfig {
            batches,
            batch_size,
            hot_trees,
            seed: seed ^ stream,
            ..HotspotConfig::default()
        };
        let out = if batches == 0 {
            Vec::new()
        } else {
            hotspot_batches(g, |a, b| hier.tree_of_edge(a, b), &cfg)
        };
        out.into_iter().map(move |updates| (kind, updates))
    };
    leg(BatchKind::Single, single, 1, 0, STREAM_SINGLE)
        .chain(leg(BatchKind::Scattered, scattered, WIDE_BATCH, 0, STREAM_SCATTER))
        .chain(leg(BatchKind::Hotspot, hotspot, WIDE_BATCH, HOT_TREES, STREAM_HOT))
        .enumerate()
        .map(|(i, (kind, updates))| Batch {
            kind,
            // Unique per logical update and per seed, never 0.
            key: (seed << 24) ^ (i as u64 + 1) ^ 0x6B65_7900_0000_0000,
            updates,
        })
        .collect()
}

/// `Uniform(0, 1)`, strictly positive so its log is finite.
fn unit_uniform(rng: &mut StdRng) -> f64 {
    const BITS: u32 = 53;
    (rng.random_range(0u64..(1u64 << BITS)) as f64 + 0.5) / (1u64 << BITS) as f64
}

/// Due times of an open-loop arrival process: exactly
/// `round(rate × duration)` arrivals spread over `duration` with
/// exponential gaps — a Poisson process conditioned on its count, so two
/// seeds offer the same load and differ only in burstiness. Each round of a
/// run draws its own schedule.
pub fn schedule(
    seed: u64,
    stream: Clock,
    round: usize,
    rate_per_s: f64,
    duration: Duration,
) -> Vec<Duration> {
    let count = (rate_per_s * duration.as_secs_f64()).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ stream as u64 ^ ((round as u64) << 40));
    let gaps: Vec<f64> = (0..=count).map(|_| -unit_uniform(&mut rng).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut clock = 0.0;
    gaps[..count]
        .iter()
        .map(|gap| {
            clock += gap;
            duration.mul_f64(clock / total)
        })
        .collect()
}

/// Which arrival process a [`schedule`] drives.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
pub enum Clock {
    Reads = STREAM_READ_CLOCK,
    Writes = STREAM_WRITE_CLOCK,
}

/// For each of `count` wire reads, whether it is a one-to-many probe
/// (`many_share` of them) or a point query.
pub fn read_mix(seed: u64, round: usize, count: usize, many_share: f64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_MIX ^ ((round as u64) << 40));
    (0..count).map(|_| rng.random_bool(many_share)).collect()
}

/// One source of the correctness gate: its point-query targets and the
/// targets of its one-to-many probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSource {
    pub s: VertexId,
    pub targets: Vec<VertexId>,
    pub many_targets: Vec<VertexId>,
}

/// Sources checked per run and point queries checked per source:
/// 25 × 20 = 500 DIST answers and 25 one-to-many answers of
/// [`MANY_TARGETS`] elements each, for 25 Dijkstra runs.
pub const CHECK_SOURCES: usize = 25;
pub const CHECK_TARGETS: usize = 20;

/// The seeded sample the correctness gate compares against Dijkstra.
pub fn check_sample(n: usize, seed: u64) -> Vec<CheckSource> {
    let n = n as VertexId;
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_CHECK);
    (0..CHECK_SOURCES)
        .map(|_| CheckSource {
            s: rng.random_range(0..n),
            targets: (0..CHECK_TARGETS).map(|_| rng.random_range(0..n)).collect(),
            many_targets: (0..MANY_TARGETS).map(|_| rng.random_range(0..n)).collect(),
        })
        .collect()
}

/// FNV-1a over the generated streams: equal seeds must give equal hashes,
/// and `workloads.ops_hash` reports it so a reader can see that two runs
/// were fed the same operations.
#[derive(Debug, Clone, Copy)]
pub struct OpsHash(u64);

impl Default for OpsHash {
    fn default() -> Self {
        OpsHash(0xCBF2_9CE4_8422_2325)
    }
}

impl OpsHash {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn reads(&mut self, ops: &ReadOps) {
        for &(s, t) in ops.far.iter().chain(&ops.near) {
            self.word(u64::from(s) << 32 | u64::from(t));
        }
        for m in &ops.many {
            self.word(u64::from(m.s));
            m.targets.iter().for_each(|&t| self.word(u64::from(t)));
        }
    }

    pub fn batches<'a>(&mut self, stream: impl IntoIterator<Item = &'a Batch>) {
        for b in stream {
            self.word(b.key);
            for u in &b.updates {
                self.word(u64::from(u.a) << 32 | u64::from(u.b));
                self.word(u64::from(u.new_weight));
            }
        }
    }

    pub fn schedule(&mut self, due: &[Duration]) {
        due.iter().for_each(|d| self.word(d.as_nanos() as u64));
    }

    pub fn mix(&mut self, mix: &[bool]) {
        mix.iter().for_each(|&m| self.word(u64::from(m)));
    }

    /// The low 48 bits: exact as an `f64` metric value.
    pub fn value(self) -> f64 {
        (self.0 & 0xFFFF_FFFF_FFFF) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_core::{Hierarchy, StlConfig};
    use stl_workloads::roadnet::{generate, RoadNetConfig};

    fn hash_all(g: &CsrGraph, hier: &Hierarchy, seed: u64) -> f64 {
        let mut h = OpsHash::default();
        h.reads(&read_ops(g, seed, 6, 4));
        h.batches(&update_stream(g, hier, seed, 30, 3, 3));
        h.schedule(&schedule(seed, Clock::Reads, 0, 500.0, Duration::from_secs(1)));
        h.mix(&read_mix(seed, 0, 100, 0.1));
        h.value()
    }

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        let g = generate(&RoadNetConfig::sized(600, 3));
        let hier = Hierarchy::build(&g, &StlConfig::default());
        assert_eq!(hash_all(&g, &hier, 1), hash_all(&g, &hier, 1));
        assert_ne!(hash_all(&g, &hier, 1), hash_all(&g, &hier, 2));
        assert_eq!(read_ops(&g, 9, 4, 2).near, read_ops(&g, 9, 4, 2).near);
    }

    #[test]
    fn lengthening_one_stream_leaves_the_others_alone() {
        let g = generate(&RoadNetConfig::sized(600, 3));
        let short = read_ops(&g, 5, 2, 1);
        let long = read_ops(&g, 5, 4, 3);
        assert_eq!(short.far[..], long.far[..short.far.len()]);
        assert_eq!(short.near[..], long.near[..short.near.len()]);
        assert_eq!(short.many[0], long.many[0]);
    }

    #[test]
    fn near_pairs_are_close_and_distinct() {
        let g = generate(&RoadNetConfig::sized(900, 4));
        let ops = read_ops(&g, 7, 4, 0);
        let coords = g.coords().unwrap();
        for &(s, t) in &ops.near {
            assert_ne!(s, t);
            let (a, b) = (coords[s as usize], coords[t as usize]);
            let hops = (a.0 - b.0).abs() + (a.1 - b.1).abs();
            assert!(hops <= 2.0 * (NEAR_WALK_STEPS + 1) as f32, "walk strayed {hops} cells");
        }
        assert!(ops.far.iter().all(|&(s, t)| s != t));
    }

    #[test]
    fn update_stream_has_the_requested_legs_and_unique_keys() {
        let g = generate(&RoadNetConfig::sized(900, 4));
        let hier = Hierarchy::build(&g, &StlConfig::default());
        let stream = update_stream(&g, &hier, 3, 20, 4, 5);
        let count = |k| stream.iter().filter(|b| b.kind == k).count();
        assert_eq!(
            (count(BatchKind::Single), count(BatchKind::Scattered), count(BatchKind::Hotspot)),
            (20, 4, 5)
        );
        assert!(stream.iter().all(|b| match b.kind {
            BatchKind::Single => b.updates.len() == 1,
            _ => b.updates.len() == WIDE_BATCH,
        }));
        let mut keys: Vec<u64> = stream.iter().map(|b| b.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), stream.len());
        for u in stream.iter().flat_map(|b| &b.updates) {
            assert!(g.has_edge(u.a, u.b) && u.new_weight != INF);
        }
    }

    #[test]
    fn schedule_has_a_fixed_count_inside_the_phase() {
        for seed in 0..5 {
            let due = schedule(seed, Clock::Writes, 0, 40.0, Duration::from_secs(7));
            assert_eq!(due.len(), 280);
            assert_ne!(due, schedule(seed, Clock::Writes, 1, 40.0, Duration::from_secs(7)));
            assert!(due.windows(2).all(|w| w[0] < w[1]));
            assert!(*due.last().unwrap() < Duration::from_secs(7));
        }
    }
}
