//! Criterion bench: serial vs tree-grouped batch repair, both maintenance
//! families.
//!
//! Runs Label-Search **and** Pareto-Search maintenance over two seeded
//! congestion streams — **scattered** (uniform over the network, many trees
//! skipped per batch) and **hotspot** (concentrated in the 2 stable trees
//! owning the most edges) — through two drivers each: the per-update serial
//! `apply_batch` and the tree-grouped `apply_batch_sharded`.
//!
//! Before any timing, every stream is replayed through serial and grouped
//! copies side by side and the resulting label arenas are asserted equal
//! **entry for entry**. For Label Search the search-effort counters
//! (`pops`, `label_writes`, …) must also match serial exactly — grouping is
//! a pure re-scheduling there. Pareto's interval-clamped decomposition runs
//! each update's searches once per owning unit (subtree + spine residual),
//! so its counters measure the grouped schedule; the label-equality bar is
//! the same. `cargo bench --bench repair -- --test` runs exactly these
//! checks plus one pass of each bench body; CI's release stage invokes it
//! that way and, with `BENCH_SUMMARY_PATH` set, collects per-bench medians
//! and pop counters into the `BENCH_*.json` perf trajectory.
//!
//! Registered on the workspace root (like `throughput` and `publish`), so
//! the command above works from the repo root.

use criterion::{criterion_group, criterion_main, summary, BenchmarkId, Criterion};

use stl_core::{EnginePool, Maintenance, Stl, StlConfig, UpdateEngine, UpdateStats};
use stl_graph::{CsrGraph, EdgeUpdate, VertexId};
use stl_workloads::updates::{hotspot_batches, HotspotConfig};
use stl_workloads::{generate, RoadNetConfig};

const BATCHES: usize = 48;
const BATCH_SIZE: usize = 16;

/// Replay `batches` through the serial and the grouped driver side by side;
/// assert byte-identical labels after every batch — plus equal search
/// effort for Label Search, where the grouped driver runs the very same
/// searches. Returns the accumulated serial-driver stats (the trajectory
/// counters).
fn assert_grouped_equals_serial(
    g0: &CsrGraph,
    stl0: &Stl,
    batches: &[Vec<EdgeUpdate>],
    algo: Maintenance,
    scenario: &str,
) -> UpdateStats {
    let (mut g_serial, mut g_grouped) = (g0.clone(), g0.clone());
    let (mut serial, mut grouped) = (stl0.clone(), stl0.clone());
    let mut eng = UpdateEngine::new(g0.num_vertices());
    let mut pool = EnginePool::new();
    let mut total = UpdateStats::default();
    for (i, batch) in batches.iter().enumerate() {
        let st_serial = serial.apply_batch(&mut g_serial, batch, algo, &mut eng);
        total += st_serial;
        let (mut st_grouped, _) =
            grouped.apply_batch_sharded(&mut g_grouped, batch, algo, &mut pool, 1);
        if algo == Maintenance::LabelSearch {
            st_grouped.trees_touched = 0;
            st_grouped.trees_skipped = 0;
            assert_eq!(st_serial, st_grouped, "{scenario}: stats diverged at batch {i}");
        } else {
            assert!(
                st_grouped.trees_touched > 0 || st_serial.updates == 0,
                "{scenario}: pareto grouped path must fill tree counters (batch {i})"
            );
        }
        for v in 0..g0.num_vertices() as VertexId {
            assert_eq!(
                serial.labels().slice(v),
                grouped.labels().slice(v),
                "{scenario}: {algo:?} labels diverged at batch {i}, vertex {v}"
            );
        }
    }
    total
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

            // Correctness gate (the `--test` mode contract) — grouped output
            // equals serial output entry-for-entry.
            let gate_stats = assert_grouped_equals_serial(&g0, &stl0, &batches, algo, scenario);
            summary::counter(
                format!("{family}_{scenario}_serial_pops"),
                (gate_stats.pops + gate_stats.repair_pops) as f64,
            );
            summary::counter(
                format!("{family}_{scenario}_label_writes"),
                gate_stats.label_writes as f64,
            );

            // Serial baseline: the pre-refactor apply path.
            {
                let mut g = g0.clone();
                let mut stl = stl0.clone();
                let mut eng = UpdateEngine::new(g.num_vertices());
                let mut i = 0usize;
                group.bench_function(BenchmarkId::new(format!("{family}_serial"), scenario), |b| {
                    b.iter(|| {
                        let stats = stl.apply_batch(&mut g, &batches[i % BATCHES], algo, &mut eng);
                        i += 1;
                        std::hint::black_box(stats);
                    })
                });
            }

            // Tree-grouped driver: grouping overhead plus tree skipping.
            {
                let mut g = g0.clone();
                let mut stl = stl0.clone();
                let mut pool = EnginePool::new();
                let mut i = 0usize;
                group.bench_function(
                    BenchmarkId::new(format!("{family}_grouped"), scenario),
                    |b| {
                        b.iter(|| {
                            let out = stl.apply_batch_sharded(
                                &mut g,
                                &batches[i % BATCHES],
                                algo,
                                &mut pool,
                                1,
                            );
                            i += 1;
                            std::hint::black_box(out);
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_repair);
criterion_main!(benches);
