//! Criterion bench: epoch publish cost — full deep clone vs chunked COW.
//!
//! The pre-COW server deep-cloned graph + index per published generation:
//! `O(n + m + Σ|L(v)|)` bytes moved no matter how small the batch. The
//! chunked copy-on-write stores bound the per-generation copy to the chunks
//! the batch actually wrote. This bench measures both regimes end to end
//! (apply + publish) for batch sizes 1 / 16 / 256 and reports bytes copied
//! per generation; in `--test` mode it also asserts the headline claim —
//! a 1-update batch copies at least 10× less than a full clone. It records
//! the median publish clone and retired-snapshot drop after a 1-update
//! batch as the `publish_clone_us` / `publish_drop_us` summary counters
//! (recorded, not gated: they are timings).
//!
//! Registered on the workspace root (like `throughput`), so
//! `cargo bench --bench publish -- --test` works from the repo root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, summary, BenchmarkId, Criterion};

use stl_core::{Maintenance, Stl, StlConfig, UpdateEngine};
use stl_graph::CowStats;
use stl_workloads::updates::{increase_batch, restore_batch, sample_batches};
use stl_workloads::{generate, RoadNetConfig};

fn bench_publish(c: &mut Criterion) {
    let g0 = generate(&RoadNetConfig::sized(12_000, 909));
    let stl0 = Stl::build(&g0, &StlConfig::default());
    let full_bytes = (stl0.labels().memory_bytes() + g0.memory_bytes()) as u64;
    summary::counter("full_clone_bytes", full_bytes as f64);
    println!(
        "publish bench: {} vertices, {} label chunks, full-clone cost {} KiB/generation",
        g0.num_vertices(),
        stl0.labels().num_chunks(),
        full_bytes / 1024
    );

    let mut group = c.benchmark_group("publish_12k");
    group.sample_size(20);
    for &bs in &[1usize, 16, 256] {
        let wave = &sample_batches(&g0, 1, bs, 2024 + bs as u64)[0];
        let inc = increase_batch(wave, 3);
        let res = restore_batch(wave);

        // Baseline: what the pre-COW publish path paid — deep-clone the
        // whole world after applying each batch.
        {
            let mut g = g0.clone();
            let mut stl = stl0.clone();
            let mut eng = UpdateEngine::new(g.num_vertices());
            let mut flip = false;
            group.bench_function(BenchmarkId::new("full_clone", bs), |b| {
                b.iter(|| {
                    let batch = if flip { &res } else { &inc };
                    flip = !flip;
                    stl.apply_batch(&mut g, batch, Maintenance::ParetoSearch, &mut eng);
                    std::hint::black_box((g.deep_clone(), stl.deep_clone()));
                })
            });
        }

        // COW: pin the previous epoch (the server's swap slot does exactly
        // this), apply the batch — promoting only the chunks it writes —
        // then publish by cloning the paged chunk tables and drop the
        // retired epoch, timing both.
        let mut g = g0.clone();
        let mut stl = stl0.clone();
        let mut eng = UpdateEngine::new(g.num_vertices());
        let mut pinned = (g.clone(), stl.clone());
        let mut copied = CowStats::default();
        let mut gens = 0u64;
        let mut flip = false;
        let (mut clone_us, mut drop_us) = (Vec::new(), Vec::new());
        group.bench_function(BenchmarkId::new("cow", bs), |b| {
            b.iter(|| {
                let batch = if flip { &res } else { &inc };
                flip = !flip;
                stl.apply_batch(&mut g, batch, Maintenance::ParetoSearch, &mut eng);
                copied += stl.take_cow_stats() + g.take_cow_stats();
                gens += 1;
                let t = Instant::now();
                let retired = std::mem::replace(&mut pinned, (g.clone(), stl.clone()));
                clone_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                drop(retired);
                drop_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(&pinned);
            })
        });
        if bs == 1 {
            summary::counter("publish_clone_us", median(&mut clone_us));
            summary::counter("publish_drop_us", median(&mut drop_us));
        }
        if let Some(per_gen) = copied.bytes_copied.checked_div(gens) {
            let saving = full_bytes as f64 / per_gen.max(1) as f64;
            summary::counter(format!("cow_bytes_per_gen_batch{bs}"), per_gen as f64);
            summary::counter(
                format!("cow_chunks_per_gen_batch{bs}"),
                copied.chunks_copied as f64 / gens as f64,
            );
            println!(
                "publish/cow batch={bs}: {:.1} KiB copied/generation \
                 ({:.1} chunks) vs {} KiB full clone — {saving:.0}x less",
                per_gen as f64 / 1024.0,
                copied.chunks_copied as f64 / gens as f64,
                full_bytes / 1024
            );
            if bs == 1 {
                assert!(
                    per_gen.saturating_mul(10) <= full_bytes,
                    "1-update COW publish must copy ≥10x less than a full clone \
                     (copied {per_gen} B/gen, full {full_bytes} B)"
                );
            }
        }
    }
    group.finish();
}

/// Median of `xs` (0 if empty).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

criterion_group!(benches, bench_publish);
criterion_main!(benches);
