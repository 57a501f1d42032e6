//! Criterion micro-bench: query kernels of STL, HC2L, H2H and the
//! bidirectional-Dijkstra baseline (supplements Table 5), plus the two
//! label layouts of this repo's own read path.
//!
//! The `query_8k` group keeps the cross-index comparison. The
//! `query_path_8k` group isolates what the query pipeline gains from the
//! born-flat arena and the vector kernel: the *same* labels are queried
//! through
//!
//! - `chunked_scalar` — `Stl::query_reference`, the scalar oracle:
//!   chunk-table slice resolution plus a scalar min-plus scan;
//! - `chunked_vectorized` — `Stl::query` on a COW-fragmented index, and
//! - `flat_vectorized` — `Stl::query` on an index built afresh over the
//!   updated graph (born flat, with the same labels: STL labels are
//!   canonical), where label slices come straight out of one contiguous
//!   arena.
//!
//! The `one_to_many_64k` group compares the tiled shard-ordered one-to-many
//! scan against a pointwise `Stl::query` loop on a 64k-vertex network,
//! where the label arena no longer fits in L2. Both baselines are built
//! from public calls only.
//!
//! `QueryProfile` counters (flat vs chunked slice resolutions) land in the
//! `BENCH_SUMMARY_PATH` summary next to the medians. In `--test` mode the
//! bench also times the regimes in-body and asserts the headline claims —
//! flat + vectorized beats the chunked scalar oracle by >=2.15x (7 % under
//! the 2.33x re-measured on the collapsed path, `BENCH_HISTORY.md` row 14),
//! and the tiled one-to-many beats the pointwise loop by >=1.3x — so CI
//! smoke runs catch a regressed kernel, not just a broken build (skipped in debug
//! builds, where the query path runs its own scalar-oracle `debug_assert`
//! per call).
//!
//! Registered on the workspace root (like `publish`), so
//! `cargo bench --bench query -- --test` works from the repo root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, summary, BenchmarkId, Criterion};

use stl_core::{Maintenance, QueryProfile, Stl, StlConfig, UpdateEngine};
use stl_h2h::H2hIndex;
use stl_hc2l::Hc2l;
use stl_pathfinding::bidirectional::BiDijkstra;
use stl_workloads::queries::random_pairs;
use stl_workloads::updates::{increase_batch, sample_batches};
use stl_workloads::{generate, RoadNetConfig};

fn bench_queries(c: &mut Criterion) {
    let g = generate(&RoadNetConfig::sized(8_000, 404));
    let stl = Stl::build(&g, &StlConfig::default());
    let hc2l = Hc2l::build(&g, &StlConfig::default());
    let h2h = H2hIndex::build(&g);
    let pairs = random_pairs(g.num_vertices(), 1024, 3);
    let mut group = c.benchmark_group("query_8k");
    group.bench_function(BenchmarkId::new("stl", "random"), |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(stl.query(s, t))
        })
    });
    group.bench_function(BenchmarkId::new("hc2l", "random"), |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(hc2l.query(s, t))
        })
    });
    group.bench_function(BenchmarkId::new("h2h", "random"), |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(h2h.query(s, t))
        })
    });
    // The classical baseline is orders of magnitude slower; sample fewer.
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("bidijkstra", "random"), |b| {
        let mut bi = BiDijkstra::new(g.num_vertices());
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(bi.distance(&g, s, t))
        })
    });
    group.finish();
}

/// Sum a query sweep so the optimizer cannot drop it; also a cheap
/// cross-regime consistency check (all regimes must sum identically).
fn sweep(pairs: &[(u32, u32)], q: impl Fn(u32, u32) -> u32) -> u64 {
    pairs.iter().map(|&(s, t)| q(s, t) as u64).sum()
}

fn bench_query_paths(c: &mut Criterion) {
    // Fragment the index the way a live server would: a few update epochs
    // COW-promote scattered chunks, so "chunked" means a realistic mix of
    // shared and promoted chunks, not a freshly built single allocation.
    let mut g = generate(&RoadNetConfig::sized(8_000, 404));
    let mut chunked = Stl::build(&g, &StlConfig::default());
    let mut eng = UpdateEngine::new(g.num_vertices());
    let pinned = chunked.clone(); // pin the built epoch so writes must COW
    for (i, wave) in sample_batches(&g, 6, 8, 777).iter().enumerate() {
        let batch = increase_batch(wave, 2 + i as u32 % 3);
        chunked.apply_batch(&mut g, &batch, Maintenance::ParetoSearch, &mut eng);
    }
    drop(pinned);
    let flat = Stl::build(&g, &StlConfig::default());
    assert!(flat.is_flat() && !chunked.is_flat(), "regimes must actually differ");
    let n = g.num_vertices() as u32;
    assert!((0..n).all(|v| flat.labels().slice(v) == chunked.labels().slice(v)), "same labels");

    let pairs = random_pairs(g.num_vertices(), 1024, 3);
    let scalar_sum = sweep(&pairs, |s, t| chunked.query_reference(s, t));
    assert_eq!(scalar_sum, sweep(&pairs, |s, t| chunked.query(s, t)));
    assert_eq!(scalar_sum, sweep(&pairs, |s, t| flat.query(s, t)));

    // Which layout served the sweep, per regime, straight into the CI
    // summary.
    for (regime, stl) in [("chunked", &chunked), ("flat", &flat)] {
        let mut prof = QueryProfile::default();
        for &(s, t) in &pairs {
            std::hint::black_box(stl.query_profiled(s, t, &mut prof));
        }
        summary::counter(format!("{regime}_flat_slices"), prof.flat_slices as f64);
        summary::counter(format!("{regime}_chunked_slices"), prof.chunked_slices as f64);
    }

    let mut group = c.benchmark_group("query_path_8k");
    group.bench_function(BenchmarkId::new("chunked_scalar", "random"), |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(chunked.query_reference(s, t))
        })
    });
    group.bench_function(BenchmarkId::new("chunked_vectorized", "random"), |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(chunked.query(s, t))
        })
    });
    group.bench_function(BenchmarkId::new("flat_vectorized", "random"), |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            std::hint::black_box(flat.query(s, t))
        })
    });
    group.finish();

    // Headline assertion, independent of harness mode so `--test` smoke
    // runs enforce it: flat + vectorized must beat the chunked scalar
    // oracle. Debug builds run the scalar oracle *inside* every
    // query (debug_assert) — no speedup to measure there.
    if !cfg!(debug_assertions) {
        // All legs timed inside the same repetition loop: on shared hosts
        // the clock speed drifts in minute-long phases, so sequential
        // best-of-N blocks can hand one leg a quiet phase and the other a
        // noisy one. Interleaving keeps each rep's legs in the same phase,
        // per-leg minima then compare like for like — and the loop keeps
        // sampling (spaced out to outlast a noisy phase) until the
        // thresholds hold or the rep budget is spent, so a genuinely
        // regressed kernel still fails while a busy host just takes longer.
        // Warm sweep before each timed one: the two legs walk disjoint
        // index copies, so whichever leg runs after another starts with its
        // own arena evicted and would be charged the reload — a bias the
        // per-leg minimum can never average away because the ordering is
        // fixed. Timing the second back-to-back sweep measures each leg
        // against its own warm steady state.
        let timed = |f: &dyn Fn() -> u64| {
            std::hint::black_box(f());
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        };
        let (mut scalar_ns, mut flat_ns) = (u128::MAX, u128::MAX);
        for rep in 0..90 {
            scalar_ns =
                scalar_ns.min(timed(&|| sweep(&pairs, |s, t| chunked.query_reference(s, t))));
            flat_ns = flat_ns.min(timed(&|| sweep(&pairs, |s, t| flat.query(s, t))));
            if rep >= 6 {
                if flat_ns * 215 <= scalar_ns * 100 {
                    break;
                }
                // Contended phases on shared hosts run for minutes; escalate
                // the spacing so the sampling window outlasts them instead of
                // burning the whole rep budget inside one bad phase.
                let nap = if rep < 24 { 2000 } else { 6000 };
                std::thread::sleep(std::time::Duration::from_millis(nap));
            }
        }
        summary::counter("speedup_flat_vs_chunked_scalar", scalar_ns as f64 / flat_ns as f64);
        println!(
            "query_path_8k: flat+vectorized {:.1} us/sweep vs chunked scalar {:.1} us/sweep \
             ({:.2}x)",
            flat_ns as f64 / 1e3,
            scalar_ns as f64 / 1e3,
            scalar_ns as f64 / flat_ns as f64
        );
        assert!(
            flat_ns * 215 <= scalar_ns * 100,
            "the flat path must beat the chunked scalar oracle by >=2.15x \
             (flat {flat_ns} ns vs scalar {scalar_ns} ns per 1024-query sweep)"
        );
    }
}

/// One-to-many on a 64k-vertex network: the tiled shard-ordered scan vs a
/// pointwise `query` loop. The larger graph puts the
/// label arena well past L2, which is the regime tiling exists for — on a
/// cache-resident index both paths are equally fast. Rotating through
/// distinct 1k-target sets mirrors serving, where every MANY request
/// carries a fresh target list — a single hot set would let the loop ride a
/// pre-warmed cache.
fn bench_one_to_many(c: &mut Criterion) {
    let g = generate(&RoadNetConfig::sized(64_000, 404));
    let flat = Stl::build(&g, &StlConfig::default());
    let target_sets: Vec<Vec<u32>> = (0..16)
        .map(|i| random_pairs(g.num_vertices(), 1_000, 9 + i).iter().map(|p| p.0).collect())
        .collect();
    let src = random_pairs(g.num_vertices(), 1, 3)[0].0;
    let pointwise = |set: &[u32], out: &mut Vec<u32>| {
        out.clear();
        out.extend(set.iter().map(|&t| flat.query(src, t)));
    };
    let mut buf = Vec::new();
    for set in &target_sets {
        pointwise(set, &mut buf);
        let expect = buf.clone();
        flat.one_to_many_into(src, set, &mut buf);
        assert_eq!(buf, expect, "tiled one-to-many must be bit-identical to the loop");
    }
    let mut group = c.benchmark_group("one_to_many_64k");
    let mut i = 0usize;
    group.bench_function(BenchmarkId::new("tiled", "1k"), |b| {
        b.iter(|| {
            flat.one_to_many_into(src, &target_sets[i % target_sets.len()], &mut buf);
            i += 1;
            std::hint::black_box(buf.last().copied())
        })
    });
    let mut i = 0usize;
    group.bench_function(BenchmarkId::new("loop", "1k"), |b| {
        b.iter(|| {
            pointwise(&target_sets[i % target_sets.len()], &mut buf);
            i += 1;
            std::hint::black_box(buf.last().copied())
        })
    });
    group.finish();

    // Tiled one-to-many must beat the per-target loop across rotating
    // 1k-target sets: both legs timed inside the same repetition so host
    // noise phases hit them alike, sampling until the threshold holds or
    // the rep budget is spent (see the query-path assertion for rationale).
    // Debug builds run the scalar oracle inside every query — nothing to
    // measure there.
    if !cfg!(debug_assertions) {
        let rotate = |f: &dyn Fn(&[u32], &mut Vec<u32>), out: &mut Vec<u32>| {
            let t0 = Instant::now();
            for set in &target_sets {
                f(set, out);
                std::hint::black_box(out.last().copied());
            }
            t0.elapsed().as_nanos() / target_sets.len() as u128
        };
        let mut out = Vec::new();
        let (mut tiled_ns, mut loop_ns) = (u128::MAX, u128::MAX);
        for rep in 0..90 {
            tiled_ns =
                tiled_ns.min(rotate(&|set, out| flat.one_to_many_into(src, set, out), &mut out));
            loop_ns = loop_ns.min(rotate(&pointwise, &mut out));
            if rep >= 6 {
                if tiled_ns * 13 <= loop_ns * 10 {
                    break;
                }
                // Same escalating spacing as the query-path assertion: ride
                // out minute-scale contention phases on shared hosts.
                let nap = if rep < 24 { 2000 } else { 6000 };
                std::thread::sleep(std::time::Duration::from_millis(nap));
            }
        }
        summary::counter("speedup_tiled_one_to_many", loop_ns as f64 / tiled_ns as f64);
        println!(
            "one_to_many_64k: tiled {:.1} us vs loop {:.1} us per 1k-target set ({:.2}x)",
            tiled_ns as f64 / 1e3,
            loop_ns as f64 / 1e3,
            loop_ns as f64 / tiled_ns as f64
        );
        assert!(
            tiled_ns * 13 <= loop_ns * 10,
            "tiled one-to-many must beat the pointwise query loop by >=1.3x \
             (tiled {tiled_ns} ns vs loop {loop_ns} ns per 1k-target set)"
        );
    }
}

criterion_group!(benches, bench_queries, bench_query_paths, bench_one_to_many);
criterion_main!(benches);
