//! The layer ladder of the traced run.
//!
//! A seeded sample of the workload's own operations is replayed through
//! successively larger entry points, one replay per entry point:
//!
//! * reads — `Hierarchy::common_anc_count` ⊂ `Stl::query` ⊂
//!   `StlServer::snapshot` + `Snapshot::query` ⊂ that plus the proto codec ⊂
//!   `NetClient::query` → `NetServer` ⊂ → `RouterServer`;
//! * writes — `validate_batch` and `Stl::apply_batch_sharded` ⊂
//!   `StlServer::submit` → `wait_for` ⊂ `AdaptiveBatcher::submit` → `wait` ⊂
//!   (`WalWriter::append` and) `NetClient::update_keyed` → `NetServer` ⊂
//!   → `RouterServer`.
//!
//! Each replay records one span per block of reads (or per batch), linked
//! to the span of the next larger entry point for the same block, so a
//! layer's self time is its span minus its child's. The same timings give
//! the per-layer metrics. Every rung runs on every workload, on that
//! workload's graph and operations, so the per-layer table always has the
//! same rows.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use stl_core::{min_plus, EnginePool, UpdateStats, SPINE_SHARD};
use stl_graph::cow::CowStats;
use stl_graph::Dist;
use stl_server::proto::many_payload;
use stl_server::wal::WalWriter;
use stl_server::{validate_batch, AdaptiveBatcher, NetClient, Request, Response, StlServer};

use crate::deploy::{recover, server_config, Counters, Deployment, Topology};
use crate::gen::{self, BatchKind, Pair, ReadOps, BLOCK, MANY_TARGETS};
use crate::legs::Reader;
use crate::report::Report;
use crate::stats::{mean, median, tail_stat};
use crate::trace::{SpanId, Tracer};
use crate::world::{self, World, ALGO, FSYNC, REPAIR_THREADS};

/// DIST blocks replayed through every read rung.
pub const READ_BLOCKS: usize = 200;
/// One-to-many probes replayed in process.
const MANY_PROBES: usize = 100;
/// Batches of the seeded update stream replayed through every write rung:
/// single-edge, then scattered and hotspot 16-edge, in stream order. The
/// counts hold up to [`FULL_SAMPLE_VERTICES`] and shrink in proportion
/// beyond it — a batch on the 65 536-vertex graph costs several times one
/// on the 16 384-vertex graph, and there are five rungs to replay it on.
const SINGLES: usize = 200;
const WIDE: usize = 6;
const FULL_SAMPLE_VERTICES: usize = 16_384;
/// Passes with and without span recording, and blocks per pass, behind
/// `trace.overhead_share`.
const OVERHEAD_PASSES: usize = 5;
const OVERHEAD_BLOCKS: usize = 400;

/// What the ladder replays.
pub struct Inputs<'a> {
    pub world: &'a World,
    pub ops: &'a ReadOps,
    /// The run's seed: the write rungs replay the first batches of each
    /// kind of the seeded update stream (for a workload that applies that
    /// kind itself, exactly the batches it began with).
    pub seed: u64,
    /// Whether the servers keep their compaction trigger (the workload's
    /// own setting, see `workloads::Spec::compaction`).
    pub compaction: bool,
    pub out: &'a Path,
    pub tag: &'a str,
}

/// The `b`-th ladder block: 50 `far` then 50 `near` pairs.
fn block(ops: &ReadOps, b: usize) -> impl Iterator<Item = Pair> + '_ {
    let half = BLOCK / 2;
    ops.far[b * half..(b + 1) * half].iter().chain(&ops.near[b * half..(b + 1) * half]).copied()
}

/// Time `body` once per block, record a span per block under `name`, link
/// each `children[b]` span to it, and return (span ids, ns per block).
fn rung(
    tracer: &mut Tracer,
    name: &'static str,
    blocks: usize,
    children: &[&[Option<SpanId>]],
    mut body: impl FnMut(usize),
) -> (Vec<Option<SpanId>>, Vec<f64>) {
    let mut ids = Vec::with_capacity(blocks);
    let mut ns = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let t0 = Instant::now();
        body(b);
        let t1 = Instant::now();
        let id = tracer.record(name, t0, t1, None, b as u64);
        if let Some(id) = id {
            for child in children.iter().filter_map(|c| c[b]) {
                tracer.set_parent(child, id);
            }
        }
        ids.push(id);
        ns.push((t1 - t0).as_nanos() as f64);
    }
    (ids, ns)
}

/// [`rung`] without spans: ns per block of an untraced micro timing.
fn timed(blocks: usize, body: impl FnMut(usize)) -> Vec<f64> {
    rung(&mut Tracer::new(false), "", blocks, &[], body).1
}

fn per_op(ns_per_block: &[f64]) -> f64 {
    median(ns_per_block) / BLOCK as f64
}

/// Walk the ladder and fill in every per-layer metric it owns. `main` are
/// the counters of the workload's own deployment; a counter is taken from
/// there when the workload's legs exercised that layer, otherwise from the
/// ladder's deployment (README, "where a counter comes from").
pub fn run(
    inp: &Inputs<'_>,
    main: &Counters,
    report: &mut Report,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let world = inp.world;
    let (g, stl) = (&world.g, &world.stl);
    let hier = stl.hierarchy();
    let direct_tag = format!("{}-ladder-direct", inp.tag);
    let routed_tag = format!("{}-ladder-routed", inp.tag);
    let direct =
        Deployment::start(world, Topology::Direct, true, inp.compaction, inp.out, &direct_tag)?;
    let routed =
        Deployment::start(world, Topology::Routed, true, inp.compaction, inp.out, &routed_tag)?;
    let server_cfg = server_config(inp.compaction);
    let server = &direct.servers[0];
    let blocks = READ_BLOCKS.min(inp.ops.far.len() / (BLOCK / 2));

    // ---- read rungs, smallest entry point first ---------------------------
    let mut acc = 0u64;
    let (lca_ids, lca_ns) = rung(tracer, "core.hierarchy.common_anc_count", blocks, &[], |b| {
        for (s, t) in block(inp.ops, b) {
            acc = acc.wrapping_add(u64::from(hier.common_anc_count(s, t)));
        }
    });
    let (query_ids, query_ns) = rung(tracer, "core.query.query", blocks, &[&lca_ids], |b| {
        for (s, t) in block(inp.ops, b) {
            acc = acc.wrapping_add(u64::from(stl.query(s, t)));
        }
    });
    let (snap_ids, snap_ns) = rung(tracer, "server.snapshot.query", blocks, &[&query_ids], |b| {
        for (s, t) in block(inp.ops, b) {
            acc = acc.wrapping_add(u64::from(server.snapshot().query(s, t)));
        }
    });
    let (proto_ids, proto_ns) = rung(tracer, "server.proto.roundtrip", blocks, &[&snap_ids], |b| {
        for (s, t) in block(inp.ops, b) {
            let wire = Request::Query { s, t }.encode();
            let Ok(Request::Query { s, t }) = Request::decode(&wire) else { unreachable!() };
            let wire = Response::Dist(server.snapshot().query(s, t)).encode();
            let Ok(Response::Dist(d)) = Response::decode(&wire) else { unreachable!() };
            acc = acc.wrapping_add(u64::from(d));
        }
    });
    let mut client = NetClient::connect(&direct.endpoint)?;
    let mut front = NetClient::connect(&routed.endpoint)?;
    let mut io_failed = 0u64;
    let (net_ids, net_ns) = rung(tracer, "server.transport.query", blocks, &[&proto_ids], |b| {
        for (s, t) in block(inp.ops, b) {
            match client.query(s, t) {
                Ok(d) => acc = acc.wrapping_add(u64::from(d)),
                Err(_) => io_failed += 1,
            }
        }
    });
    let (_, routed_ns) = rung(tracer, "server.router.query", blocks, &[&net_ids], |b| {
        for (s, t) in block(inp.ops, b) {
            match front.query(s, t) {
                Ok(d) => acc = acc.wrapping_add(u64::from(d)),
                Err(_) => io_failed += 1,
            }
        }
    });
    drop((client, front));

    // ---- read-side micro timings ------------------------------------------
    let labels = stl.labels();
    let mut entries = 0u64;
    let min_plus_ns = timed(blocks, |b| {
        for (s, t) in block(inp.ops, b) {
            let k = stl.query_width(s, t) as usize;
            entries += k as u64;
            acc =
                acc.wrapping_add(u64::from(min_plus(&labels.slice(s)[..k], &labels.slice(t)[..k])));
        }
    });
    let ops_total = (blocks * BLOCK) as f64;
    let acquire_ns = timed(blocks, |_| {
        for _ in 0..BLOCK {
            black_box(server.snapshot());
        }
    });
    let codec_ns = timed(blocks, |b| {
        for (s, t) in block(inp.ops, b) {
            let wire = Request::Query { s, t }.encode();
            black_box(Request::decode(&wire).is_ok());
            let wire = Response::Dist(s ^ t).encode();
            black_box(Response::decode(&wire).is_ok());
        }
    });
    let probes = &inp.ops.many[..MANY_PROBES.min(inp.ops.many.len())];
    let dists: Vec<Dist> = (0..MANY_TARGETS as Dist).collect();
    let many_codec_ns: Vec<f64> = probes
        .iter()
        .map(|m| {
            let t0 = Instant::now();
            let wire = Request::OneToMany { s: m.s, targets: m.targets.clone() }.encode();
            black_box(Request::decode(&wire).is_ok());
            let wire = many_payload(&dists);
            black_box(Response::decode(&wire).is_ok());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let mut buf = Vec::new();
    let many_ns: Vec<f64> = probes
        .iter()
        .map(|m| {
            let t0 = Instant::now();
            stl.one_to_many_into(m.s, &m.targets, &mut buf);
            black_box(&buf);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let owner_routed = (0..blocks)
        .flat_map(|b| block(inp.ops, b))
        .filter(|&(s, t)| hier.tree_of(s) == hier.tree_of(t) && hier.tree_of(s) != SPINE_SHARD)
        .count();
    black_box(acc);

    report.set("core.hierarchy.lca_ns", per_op(&lca_ns));
    report.set(
        "core.query.min_plus_ns_per_entry",
        min_plus_ns.iter().sum::<f64>() / entries.max(1) as f64,
    );
    report.set("core.query.prefix_len_mean", entries as f64 / ops_total);
    report.set("core.query.many_ns_per_target", median(&many_ns) / MANY_TARGETS as f64);
    report.set("server.snapshot.acquire_ns", per_op(&acquire_ns));
    report.set("server.proto.codec_ns", per_op(&codec_ns));
    report.set("server.proto.many_codec_ns", median(&many_codec_ns));
    report.set("server.transport.rtt_us_p50", per_op(&net_ns) / 1e3);
    report.set("server.transport.self_us", (per_op(&net_ns) - per_op(&proto_ns)).max(0.0) / 1e3);
    report.set("server.router.hop_us_p50", (per_op(&routed_ns) - per_op(&net_ns)) / 1e3);
    report.set("server.router.owner_routed_share", owner_routed as f64 / ops_total);
    println!(
        "note\tread ladder ns/op\tlca {:.1} | query {:.1} | snapshot {:.1} | proto {:.1} | transport {:.1} | routed {:.1}",
        per_op(&lca_ns),
        per_op(&query_ns),
        per_op(&snap_ns),
        per_op(&proto_ns),
        per_op(&net_ns),
        per_op(&routed_ns)
    );

    // ---- write rungs -------------------------------------------------------
    let scale =
        |count: usize| (count * FULL_SAMPLE_VERTICES / g.num_vertices().max(1)).clamp(1, count);
    let sample = gen::update_stream(g, hier, inp.seed, scale(SINGLES), scale(WIDE), scale(WIDE));
    let n = sample.len();
    let singles: Vec<usize> = (0..n).filter(|&i| sample[i].kind == BatchKind::Single).collect();
    let wides: Vec<usize> = (0..n).filter(|&i| sample[i].kind != BatchKind::Single).collect();
    let pick =
        |ns: &[f64], idx: &[usize]| -> Vec<f64> { idx.iter().map(|&i| ns[i] / 1e6).collect() };
    let updates_total: u64 = sample.iter().map(|b| b.updates.len() as u64).sum();

    let (validate_ids, validate_ns) = rung(tracer, "server.server.validate_batch", n, &[], |i| {
        black_box(validate_batch(g, &sample[i].updates).is_ok());
    });

    let wal_path = inp.out.join(format!("{}-ladder.wal", inp.tag));
    let _ = std::fs::remove_file(&wal_path);
    let mut wal = WalWriter::open(&wal_path, FSYNC, 0)?;
    let mut wal_failed = 0u64;
    let (wal_ids, wal_ns) = rung(tracer, "server.wal.append", n, &[], |i| {
        let b = &sample[i];
        let ok = wal.append(i as u64 + 1, &[b.key], &b.updates).and_then(|_| wal.maybe_sync());
        wal_failed += u64::from(ok.is_err());
    });
    let wal_bytes = wal.len();
    let (wal_records, wal_fsyncs) = (wal.appended, wal.fsyncs);
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);

    // Direct applies on a private clone. The clone kept after every batch
    // plays the published snapshot: it re-shares every chunk, so the next
    // batch pays its copy-on-write promotions as the server's does.
    let (mut g2, mut stl2) = (g.clone(), stl.clone());
    let mut pool = EnginePool::new();
    let mut ustats = UpdateStats::default();
    let (mut crit_ns, mut shard_ns) = (0u64, 0u64);
    let mut cow = CowStats::default();
    let mut clone_ns = Vec::with_capacity(n);
    let mut published = (g2.clone(), stl2.clone());
    let (apply_ids, apply_ns) = rung(tracer, "core.shard.apply_batch_sharded", n, &[], |i| {
        let (s, r) =
            stl2.apply_batch_sharded(&mut g2, &sample[i].updates, ALGO, &mut pool, REPAIR_THREADS);
        ustats += s;
        crit_ns += r.max_ns();
        shard_ns += r.sum_ns();
        cow += stl2.take_cow_stats() + g2.take_cow_stats();
        let t = Instant::now();
        published = (g2.clone(), stl2.clone());
        clone_ns.push(t.elapsed().as_nanos() as f64);
    });
    drop(published);
    drop((g2, stl2));

    let plain = StlServer::start(g.clone(), stl.clone(), server_cfg.clone());
    let mut failed = 0u64;
    let (server_ids, server_ns) =
        rung(tracer, "server.server.submit_wait", n, &[&validate_ids, &apply_ids], |i| {
            let outcome = plain.wait_for(plain.submit(sample[i].updates.clone()));
            failed += u64::from(!outcome.is_applied());
        });
    let plain_stats = plain.shutdown();

    let behind = Arc::new(StlServer::start(g.clone(), stl.clone(), server_cfg.clone()));
    let batcher = AdaptiveBatcher::start(Arc::clone(&behind), world::net_config().batcher);
    let (batcher_ids, batcher_ns) =
        rung(tracer, "server.batcher.submit_wait", n, &[&server_ids], |i| {
            let outcome = batcher.submit(sample[i].updates.clone()).wait();
            failed += u64::from(!outcome.is_applied());
        });
    batcher.shutdown();
    drop(batcher);
    match Arc::try_unwrap(behind) {
        Ok(s) => drop(s.shutdown()),
        Err(_) => panic!("the batcher still holds its server after shutdown"),
    }

    // Fresh connections: the router's front closes one that sat idle for
    // 30 s, which the in-process rungs above can exceed on the large graph.
    let mut client = NetClient::connect(&direct.endpoint)?;
    let mut front = NetClient::connect(&routed.endpoint)?;
    let (net_up_ids, net_up_ns) =
        rung(tracer, "server.transport.update_keyed", n, &[&batcher_ids, &wal_ids], |i| {
            let applied =
                client.update_keyed(sample[i].key, &sample[i].updates).is_ok_and(|o| o.applied);
            failed += u64::from(!applied);
        });
    let (_, routed_up_ns) = rung(tracer, "server.router.update_keyed", n, &[&net_up_ids], |i| {
        let applied =
            front.update_keyed(sample[i].key, &sample[i].updates).is_ok_and(|o| o.applied);
        failed += u64::from(!applied);
    });
    drop((client, front));
    if io_failed + wal_failed + failed > 0 {
        return Err(io::Error::other(format!(
            "layer ladder: {io_failed} reads, {wal_failed} wal appends, {failed} updates failed"
        )));
    }

    // ---- write-side metrics ------------------------------------------------
    let apply_single = pick(&apply_ns, &singles);
    report.stat("core.shard.apply_ms_p50", tail_stat(&apply_single, 50.0));
    report.stat("core.shard.apply_ms_p95", tail_stat(&apply_single, 95.0));
    let apply_wide = pick(&apply_ns, &wides);
    report.set("core.shard.apply16_ms_p50", median(&apply_wide));
    report.set("core.shard.critical_path_share", crit_ns as f64 / shard_ns.max(1) as f64);
    report.set("core.shard.trees_touched_per_batch", ustats.trees_touched as f64 / n as f64);
    report.set("core.shard.trees_skipped_per_batch", ustats.trees_skipped as f64 / n as f64);
    let per_update = |x: u64| x as f64 / ustats.updates.max(1) as f64;
    report.set("core.pareto.searches_per_update", per_update(ustats.searches));
    report.set("core.pareto.pops_per_update", per_update(ustats.pops));
    report.set("core.pareto.label_writes_per_update", per_update(ustats.label_writes));
    report.set("graph.cow.chunks_copied_per_batch", cow.chunks_copied as f64 / n as f64);
    report.set("graph.cow.clone_us", median(&clone_ns) / 1e3);
    report.set("server.server.validate_us", mean(&validate_ns) / 1e3);
    let publish_ms = plain_stats.publish_ns_mean() as f64 / 1e6;
    report.set("server.server.publish_us_mean", publish_ms * 1e3);
    report.set(
        "server.server.apply_share",
        plain_stats.apply_ns_total as f64 / server_ns.iter().sum::<f64>(),
    );
    // The part of submit→wait_for that is neither validation, repair nor
    // publish: queue hand-offs, wake-ups, and any compaction in between.
    let (wait_ms, validate_ms, apply_ms) =
        (mean(&server_ns) / 1e6, mean(&validate_ns) / 1e6, mean(&apply_ns) / 1e6);
    let residual_ms = wait_ms - validate_ms - apply_ms - publish_ms;
    report.set("server.server.queue_self_ms", residual_ms);
    println!(
        "note\tdecomposition\tsubmit→wait_for mean {wait_ms:.3} ms = validate {validate_ms:.4} + apply \
         {apply_ms:.3} + publish {publish_ms:.4} + residual {residual_ms:.3} ms ({:.1} % of the mean; {} \
         compactions in between)",
        100.0 * residual_ms / wait_ms,
        plain_stats.compactions_total
    );
    let wait_single = median(&pick(&batcher_ns, &singles)) - median(&pick(&server_ns, &singles));
    report.set("server.batcher.wait_ms_p50", wait_single);
    let wal_us: Vec<f64> = wal_ns.iter().map(|ns| ns / 1e3).collect();
    report.stat("server.wal.append_us_p50", tail_stat(&wal_us, 50.0));
    report.stat("server.wal.append_us_p95", tail_stat(&wal_us, 95.0));
    report.set("server.wal.bytes_per_update", wal_bytes as f64 / updates_total as f64);
    // What sequencing, two APPLY round trips and two durable workers add
    // to an in-process apply. (Not "routed − direct": the direct path waits
    // out the batcher window, which APPLY bypasses.)
    let fanout = median(&pick(&routed_up_ns, &singles)) - median(&pick(&server_ns, &singles));
    report.set("server.router.update_fanout_ms", fanout);
    println!(
        "note\twrite ladder single-edge p50 ms\tapply {:.3} | server {:.3} | batcher {:.3} | transport {:.3} | routed {:.3}",
        median(&apply_single),
        median(&pick(&server_ns, &singles)),
        median(&pick(&batcher_ns, &singles)),
        median(&pick(&net_up_ns, &singles)),
        median(&pick(&routed_up_ns, &singles)),
    );

    // ---- shutdown, recovery, counters --------------------------------------
    let (direct_dirs, routed_dirs) = (direct.state_dirs.clone(), routed.state_dirs.clone());
    let routed_counters = routed.shutdown();
    let state_dir = direct_dirs[0].clone();
    let direct_counters = direct.shutdown();
    report.set("server.durable.shutdown_s", direct_counters.shutdown_s);
    let (again, recovery, recovery_s) = recover(world, &state_dir, inp.compaction)?;
    report.set("server.durable.recovery_s", recovery_s);
    report.set("server.durable.records_replayed", recovery.wal_records_replayed as f64);
    again.shutdown();
    for dir in direct_dirs.iter().chain(&routed_dirs) {
        let _ = std::fs::remove_dir_all(dir);
    }

    let main0 = &main.servers[0];
    let batches = main0.batches_applied.max(1) as f64;
    report.set("graph.cow.bytes_copied_per_batch", main0.publish_bytes_copied as f64 / batches);
    report.set("server.server.compactions", main0.compactions_total as f64);
    report.set("server.server.bytes_flattened", main0.bytes_flattened_total as f64);
    let net_sum = |f: fn(&stl_server::NetStats) -> u64| main.nets.iter().map(f).sum::<u64>() as f64;
    report.set("server.transport.requests_served", net_sum(|s| s.requests_served));
    report.set("server.transport.connections_shed", net_sum(|s| s.connections_shed));
    report.set("server.transport.frames_rejected", net_sum(|s| s.frames_rejected));
    report.set("server.transport.many_scratch_reuses", net_sum(|s| s.many_scratch_reuses));
    let batcher = match main.nets[0].batcher {
        b if b.batches_submitted > 0 => b,
        _ => direct_counters.nets[0].batcher,
    };
    report.set(
        "server.batcher.requests_per_batch",
        batcher.requests_coalesced as f64 / batcher.batches_submitted.max(1) as f64,
    );
    report.set("server.batcher.flushes_by_timer", batcher.flushes_by_timer as f64);
    report.set("server.batcher.flushes_by_size", batcher.flushes_by_size as f64);
    report.set("server.batcher.requests_shed", batcher.requests_shed as f64);
    let (records, fsyncs) = match (main0.wal_records_appended, main0.wal_fsyncs) {
        (0, _) => (wal_records, wal_fsyncs),
        main => main,
    };
    report.set("server.wal.records", records as f64);
    report.set("server.wal.fsyncs", fsyncs as f64);
    let router = main
        .router
        .or(routed_counters.router)
        .expect("the ladder's routed deployment has a router");
    report.set("server.router.queries_routed", router.queries_routed as f64);
    report.set("server.router.updates_routed", router.updates_routed as f64);
    report.set("server.router.failfast_errors", router.failfast_errors as f64);
    Ok(())
}

/// Share by which recording a span per timed unit inflates the shortest
/// timed unit of the benchmark (one DIST block): the same blocks are read
/// with span recording off and on in alternating passes, and the medians of
/// the per-pass block medians compared. Expect noise of a few percent
/// around a true overhead of one `Vec` push per 100 queries.
pub fn trace_overhead(world: &World, ops: &ReadOps) -> f64 {
    let mut medians = [Vec::new(), Vec::new()];
    for pass in 0..2 * OVERHEAD_PASSES {
        let traced = pass % 2 == 1;
        let mut reader = Reader::new(ops, 0);
        reader.blocks(&world.stl, OVERHEAD_BLOCKS, 0, &mut Tracer::new(traced));
        medians[usize::from(traced)].push(median(&reader.samples.dist_ns));
    }
    let (off, on) = (median(&medians[0]), median(&medians[1]));
    (on - off) / off
}
