//! Criterion bench: batch repair, both maintenance families.
//!
//! Runs Label-Search **and** Pareto-Search maintenance through
//! `Stl::apply_batch` over two seeded congestion streams — **scattered**
//! (uniform over the network, many trees skipped per batch) and **hotspot**
//! (concentrated in the 2 stable trees owning the most edges).
//!
//! Before any timing, every stream is replayed once and the label arena is
//! asserted equal, entry for entry, to a rebuild over the same hierarchy
//! every `CHECK_EVERY` batches: labels are canonical subgraph distances, so
//! a rebuild is the exact expected arena. The stream is then replayed once
//! more, each batch applied from one state both as one batch and as its
//! raw updates in one-edge batches; the total-time ratio is reported as
//! `{family}_{scenario}_batch_over_singles`, not asserted.
//! `cargo bench --bench repair -- --test` runs exactly these legs plus one
//! pass of each bench body; CI's release stage invokes it that way and,
//! with `BENCH_SUMMARY_PATH` set, collects per-bench medians, each stream's
//! pop counters (`_pops`, search and repair pops summed, and
//! `_repair_pops`, the repair phase alone — block scans for Pareto Search)
//! and label-write counter, its searches per normalised update (2 for
//! Pareto Search, one per endpoint) and the ratios into the `BENCH_*.json`
//! perf trajectory.
//!
//! Registered on the workspace root (like `throughput` and `publish`), so
//! the command above works from the repo root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, summary, BenchmarkId, Criterion};

use stl_core::{verify, Maintenance, Stl, StlConfig, UpdateEngine, UpdateStats};
use stl_graph::{CsrGraph, EdgeUpdate, VertexId};
use stl_workloads::updates::{hotspot_batches, HotspotConfig};
use stl_workloads::{generate, RoadNetConfig};

const BATCHES: usize = 48;
const BATCH_SIZE: usize = 16;
/// Batches between two rebuild comparisons; a rebuild of the 8k-vertex
/// index costs far more than a batch, and `BATCHES` is a multiple of it, so
/// the stream's final state is always checked.
const CHECK_EVERY: usize = 8;

/// Replay `batches` through `apply_batch`, asserting the labels equal a
/// rebuild every `CHECK_EVERY` batches. Returns the accumulated stats (the
/// trajectory counters).
fn assert_matches_rebuild(
    g0: &CsrGraph,
    stl0: &Stl,
    batches: &[Vec<EdgeUpdate>],
    algo: Maintenance,
    scenario: &str,
) -> UpdateStats {
    let mut g = g0.clone();
    let mut stl = stl0.clone();
    let mut eng = UpdateEngine::new(g0.num_vertices());
    let mut total = UpdateStats::default();
    for (i, batch) in batches.iter().enumerate() {
        let stats = stl.apply_batch(&mut g, batch, algo, &mut eng);
        assert!(
            stats.trees_touched > 0 || stats.updates == 0,
            "{scenario}: {algo:?} must fill tree counters (batch {i})"
        );
        total += stats;
        if (i + 1) % CHECK_EVERY == 0 {
            verify::check_matches_rebuild(&stl, &g)
                .unwrap_or_else(|e| panic!("{scenario}: {algo:?} after batch {i}: {e}"));
        }
    }
    total
}

/// Replay `batches`, applying each from one state both as one batch and as
/// its raw updates in one-edge batches, and return the total time of the
/// batches over the total time of the singles. A clone pinned across both
/// applies stands in for the published snapshot, so both ways pay the same
/// copy-on-write chunk copies; the side that runs first alternates.
fn batch_over_singles(
    g0: &CsrGraph,
    stl0: &Stl,
    batches: &[Vec<EdgeUpdate>],
    algo: Maintenance,
) -> f64 {
    let (mut g, mut stl) = (g0.clone(), stl0.clone());
    let mut eng = UpdateEngine::new(g0.num_vertices());
    let (mut batch_ns, mut singles_ns) = (0u128, 0u128);
    for (i, batch) in batches.iter().enumerate() {
        let pin = (g.clone(), stl.clone());
        let (mut g1, mut stl1) = pin.clone();
        for side in [i % 2, 1 - i % 2] {
            let t = Instant::now();
            if side == 0 {
                stl.apply_batch(&mut g, batch, algo, &mut eng);
                batch_ns += t.elapsed().as_nanos();
            } else {
                for &u in batch {
                    stl1.apply_batch(&mut g1, &[u], algo, &mut eng);
                }
                singles_ns += t.elapsed().as_nanos();
            }
        }
        drop(pin);
        for v in 0..g0.num_vertices() as VertexId {
            assert_eq!(stl.labels().slice(v), stl1.labels().slice(v), "{algo:?} batch {i}");
        }
    }
    batch_ns as f64 / singles_ns as f64
}

fn bench_repair(c: &mut Criterion) {
    let g0 = generate(&RoadNetConfig::sized(8_000, 404));
    let stl0 = Stl::build(&g0, &StlConfig::default());
    let hier = stl0.hierarchy();
    println!(
        "repair bench: {} vertices, {} stable-tree shards",
        g0.num_vertices(),
        hier.num_shards()
    );

    let mut group = c.benchmark_group("repair_8k");
    group.sample_size(10);
    for (algo, family) in
        [(Maintenance::LabelSearch, "label"), (Maintenance::ParetoSearch, "pareto")]
    {
        for (scenario, hot_trees) in [("scattered", 0usize), ("hotspot", 2)] {
            let batches = hotspot_batches(
                &g0,
                |a, b| stl0.hierarchy().tree_of_edge(a, b),
                &HotspotConfig {
                    batches: BATCHES,
                    batch_size: BATCH_SIZE,
                    hot_trees,
                    seed: 2025 + hot_trees as u64,
                    ..Default::default()
                },
            );

            // Correctness gate (the `--test` mode contract).
            let gate_stats = assert_matches_rebuild(&g0, &stl0, &batches, algo, scenario);
            summary::counter(
                format!("{family}_{scenario}_pops"),
                (gate_stats.pops + gate_stats.repair_pops) as f64,
            );
            summary::counter(
                format!("{family}_{scenario}_repair_pops"),
                gate_stats.repair_pops as f64,
            );
            summary::counter(
                format!("{family}_{scenario}_label_writes"),
                gate_stats.label_writes as f64,
            );
            summary::counter(
                format!("{family}_{scenario}_searches"),
                gate_stats.searches as f64 / gate_stats.updates as f64,
            );
            let ratio = batch_over_singles(&g0, &stl0, &batches, algo);
            println!("{family}/{scenario}: batch ÷ singles total time {ratio:.3}");
            summary::counter(format!("{family}_{scenario}_batch_over_singles"), ratio);

            let mut g = g0.clone();
            let mut stl = stl0.clone();
            let mut eng = UpdateEngine::new(g.num_vertices());
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new(family, scenario), |b| {
                b.iter(|| {
                    let stats = stl.apply_batch(&mut g, &batches[i % BATCHES], algo, &mut eng);
                    i += 1;
                    std::hint::black_box(stats);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_repair);
criterion_main!(benches);
