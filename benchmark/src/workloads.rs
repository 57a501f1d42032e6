//! The four workloads and the one driver that runs any of them.
//!
//! A workload is a [`Spec`]: a graph size, a deployment, and how much of the
//! run goes to each leg ([`crate::legs`]). All four run through
//! [`run`] and report every end-to-end metric; what differs is where the
//! time goes, so a change to one layer moves the workload that leans on it
//! and leaves the one that bypasses it flat.

use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::time::Duration;

use stl_graph::CsrGraph;
use stl_server::NetClient;

use crate::check::{self, Checked};
use crate::deploy::{self, Counters, Deployment, Topology};
use crate::gen::{self, BatchKind, Clock, OpsHash};
use crate::ladder;
use crate::legs::{self, Reader, WireSamples, WireSpec, WriteSamples};
use crate::pin;
use crate::report::Report;
use crate::stats::{median, quiet_stat, tail_stat, Ops};
use crate::trace::Tracer;
use crate::world::{self, rss_peak_mb, World};

/// Open-loop read rate on connection 1 (requests per second).
pub const WIRE_READ_RATE: f64 = 4000.0;
/// Share of wire reads that are one-to-many probes.
pub const WIRE_MANY_SHARE: f64 = 0.1;
/// Open-loop single-edge update rate on connection 2 (`serve_direct`).
pub const WIRE_WRITE_RATE: f64 = 10.0;
/// Distinct DIST blocks in the pair pool; longer legs cycle through it. At
/// 2 × 50 pairs a block the pool touches far more label bytes than L2
/// holds on the large graph, so cycling does not make it cache-resident.
const POOL_BLOCKS: usize = 4000;
/// One one-to-many probe per this many DIST blocks in a read leg.
const MANY_EVERY: usize = 10;
/// Extra profiled queries per block in a traced run.
const PROFILED_PER_BLOCK: usize = 5;

/// One workload. Leg sizes are per second of `--seconds`, so op counts are
/// a fixed function of the run length — identical on every commit, which
/// is what lets exact counters repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (`BENCHMARK.json` `why`).
    pub why: &'static str,
    /// `RoadNetConfig::sized(vertices, GRAPH_SEED)`.
    pub vertices: usize,
    /// Times the world is built; `setup_s` uses the median.
    pub setup_reps: usize,
    /// Whether the server logs and checkpoints under `benchmark/out/`
    /// (`StlServer::start_durable`).
    pub durable: bool,
    /// Whether the server's quiescence-triggered compaction stays at its
    /// shipped default. Off on `query_*`, whose short write leg only feeds
    /// `batch_ms_p50`: one compaction of the 65 536-vertex index costs
    /// 0.85 s every twelve quiet epochs, which left time for ~100 batches
    /// and a median that moved by a quarter between seeds. The median batch
    /// is not a compacting one, so the metric itself is unchanged; the
    /// write-path workloads keep the default.
    pub compaction: bool,
    /// DIST blocks per second of run on the compacted index, before any
    /// write (the read leg of `query_*`).
    pub flat_blocks_per_s: f64,
    /// In-process batches per second of run: single-edge, scattered and
    /// hotspot 16-edge.
    pub singles_per_s: f64,
    pub scattered_per_s: f64,
    pub hotspot_per_s: f64,
    /// DIST blocks (plus one probe) on the fresh snapshot after every
    /// in-process batch (`update_inproc`).
    pub blocks_after_batch: usize,
    /// Shares of the run spent in the open and closed wire phases.
    pub wire_open_share: f64,
    pub wire_closed_share: f64,
    /// Whether connection 2 sends open-loop updates during the open phase
    /// (`serve_direct`); the in-process batches above are then not used.
    pub wire_writes: bool,
}

/// A workload with no legs: one non-durable server, nothing to do.
const IDLE: Spec = Spec {
    name: "",
    why: "",
    vertices: 0,
    setup_reps: 5,
    durable: false,
    compaction: true,
    flat_blocks_per_s: 0.0,
    singles_per_s: 0.0,
    scattered_per_s: 0.0,
    hotspot_per_s: 0.0,
    blocks_after_batch: 0,
    wire_open_share: 0.0,
    wire_closed_share: 0.0,
    wire_writes: false,
};

/// The four workloads. Sized on the reference box (2 cores) so the legs of
/// a `--seconds 20` run take about twenty seconds together.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "query_mem",
        why: "65536-vertex graph, labels far beyond L2: the read path where prefetch, alignment \
              and label layout must show",
        vertices: 65_536,
        setup_reps: 1,
        compaction: false,
        flat_blocks_per_s: 6_000.0,
        singles_per_s: 24.0,
        wire_open_share: 0.3,
        ..IDLE
    },
    Spec {
        name: "query_cache",
        why: "2048-vertex graph, labels L2-resident: same reads, kernel-bound; layout changes \
              must not move it, kernel changes must",
        vertices: 2_048,
        compaction: false,
        flat_blocks_per_s: 60_000.0,
        singles_per_s: 200.0,
        wire_open_share: 0.3,
        ..IDLE
    },
    Spec {
        name: "update_inproc",
        why: "16384 vertices, closed-loop batches through StlServer with reads on each fresh \
              snapshot: repair, COW publish, compaction",
        vertices: 16_384,
        singles_per_s: 64.0,
        scattered_per_s: 2.6,
        hotspot_per_s: 1.6,
        blocks_after_batch: 20,
        wire_open_share: 0.1,
        ..IDLE
    },
    Spec {
        name: "serve_direct",
        why: "open-loop reads and updates over a unix socket to one durable server: framing, \
              reader pool, batcher wait, WAL fsync, ack",
        vertices: 16_384,
        durable: true,
        wire_open_share: 0.8,
        wire_closed_share: 0.2,
        wire_writes: true,
        ..IDLE
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one run produced.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
}

/// Rounds a run is cut into. Every leg runs once per round, so each
/// metric's samples span the whole run: whichever stretch of it the host
/// leaves quiet, every metric has samples there for `quiet_stat` to find.
pub const ROUNDS: usize = 20;

/// Operations per round for a rate per second of run.
fn per_round(per_s: f64, seconds: f64) -> usize {
    (per_s * seconds / ROUNDS as f64).round() as usize
}

/// Run `spec` once: set up, generate the seeded operations, run the legs
/// round by round, check a sample of answers against Dijkstra, and (traced)
/// walk the layer ladder. Sockets, state directories and the trace file go
/// under `out`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool, out: &Path) -> io::Result<Outcome> {
    let mut tracer = Tracer::new(traced);
    let mut report = Report::default();

    // ---- set-up ----------------------------------------------------------
    let (world, build_times) = World::build_repeated(spec.vertices, spec.setup_reps);
    // Set-up used both CPUs; everything timed from here on shares one.
    match pin::to_one_cpu() {
        Some(cpu) => println!("note\tpinned\tevery thread on cpu {cpu}"),
        None => println!("note\tpinned\tnot pinned: the affinity could not be set"),
    }
    let sizes = world.sizes();
    let build_s = median(&build_times.iter().map(|t| t.total()).collect::<Vec<_>>());
    let dep =
        Deployment::start(&world, Topology::Direct, spec.durable, spec.compaction, out, spec.name)?;
    let setup_s = build_s + dep.start_s;
    let rss_mb = rss_peak_mb();

    // ---- seeded inputs ---------------------------------------------------
    let open = Duration::from_secs_f64(spec.wire_open_share * seconds / ROUNDS as f64);
    let closed = Duration::from_secs_f64(spec.wire_closed_share * seconds / ROUNDS as f64);
    let ops = gen::read_ops(&world.g, seed, POOL_BLOCKS, POOL_BLOCKS / MANY_EVERY);
    let (singles, scattered, hotspot) = if spec.wire_writes {
        (per_round(WIRE_WRITE_RATE * spec.wire_open_share, seconds), 0, 0)
    } else {
        (
            per_round(spec.singles_per_s, seconds),
            per_round(spec.scattered_per_s, seconds),
            per_round(spec.hotspot_per_s, seconds),
        )
    };
    let stream = gen::update_stream(
        &world.g,
        world.stl.hierarchy(),
        seed,
        singles * ROUNDS,
        scattered * ROUNDS,
        hotspot * ROUNDS,
    );
    // Round `r` replays its fifth of each kind, in the stream's order.
    let (wide0, hot0) = (singles * ROUNDS, (singles + scattered) * ROUNDS);
    let round_stream = |r: usize| {
        stream[r * singles..(r + 1) * singles]
            .iter()
            .chain(&stream[wide0 + r * scattered..wide0 + (r + 1) * scattered])
            .chain(&stream[hot0 + r * hotspot..hot0 + (r + 1) * hotspot])
    };
    let read_due: Vec<Vec<Duration>> =
        (0..ROUNDS).map(|r| gen::schedule(seed, Clock::Reads, r, WIRE_READ_RATE, open)).collect();
    let read_is_many: Vec<Vec<bool>> =
        (0..ROUNDS).map(|r| gen::read_mix(seed, r, read_due[r].len(), WIRE_MANY_SHARE)).collect();
    let write_due: Vec<Vec<Duration>> = (0..ROUNDS)
        .map(|r| match spec.wire_writes {
            true => gen::schedule(seed, Clock::Writes, r, WIRE_WRITE_RATE, open),
            false => Vec::new(),
        })
        .collect();
    let mut hash = OpsHash::default();
    hash.reads(&ops);
    hash.batches(&stream);
    for r in 0..ROUNDS {
        hash.schedule(&read_due[r]);
        hash.schedule(&write_due[r]);
        hash.mix(&read_is_many[r]);
    }

    // ---- the legs, round by round ----------------------------------------
    let mut reader = Reader::new(&ops, if traced { PROFILED_PER_BLOCK } else { 0 });
    let mut writes = WriteSamples::default();
    let mut wire = WireSamples::default();
    let flat_blocks = per_round(spec.flat_blocks_per_s, seconds);
    for r in 0..ROUNDS {
        // Reads on the compacted index (`query_*`).
        if flat_blocks > 0 {
            reader.blocks(&world.stl, flat_blocks, MANY_EVERY, &mut tracer);
        }
        // In-process writes, with reads on each fresh snapshot
        // (`update_inproc`; a short write leg on `query_*`).
        if !spec.wire_writes {
            legs::write_stream(
                &dep.servers[0],
                round_stream(r),
                &mut writes,
                &mut tracer,
                |server, tracer| {
                    let n = spec.blocks_after_batch;
                    if n > 0 {
                        reader.blocks(server.snapshot().stl(), n, n / 2, tracer);
                    }
                },
            );
        }
        // Wire traffic (`serve_direct`; a short read-only leg elsewhere).
        // (On the wire the stream is single-edge batches only.)
        let round_writes =
            if spec.wire_writes { &stream[r * singles..(r + 1) * singles] } else { &[] };
        let wire_spec = WireSpec {
            endpoint: &dep.endpoint,
            ops: &ops,
            read_due: &read_due[r],
            read_is_many: &read_is_many[r],
            write_due: &write_due[r],
            writes: round_writes,
            round: r,
            open,
            closed,
        };
        wire.append_round(legs::wire_leg(&wire_spec, &mut tracer)?);
        reader.end_round();
    }
    dep.drain();
    let rss_run_mb = rss_peak_mb();
    if traced && reader.samples.dist_ns.is_empty() {
        // `serve_direct` reads nothing in process; the read-path counters of
        // the per-layer table then come from the snapshot the traffic left
        // behind.
        let snap = dep.servers[0].snapshot();
        reader.blocks(snap.stl(), ladder::READ_BLOCKS * 10, MANY_EVERY, &mut tracer);
    }
    let reads = reader.samples;

    // ---- correctness gate ------------------------------------------------
    let mut checked = Checked::default();
    if flat_blocks > 0 {
        checked += check::against_dijkstra(
            &world.g,
            seed,
            |s, t| Some(world.stl.query(s, t)),
            |s, ts| Some(world.stl.one_to_many(s, ts)),
        );
    }
    let final_graph: CsrGraph = dep.servers[0].snapshot().graph().clone();
    let final_generation = dep.servers[0].generation();
    let client = RefCell::new(NetClient::connect(&dep.endpoint)?);
    checked += check::against_dijkstra(
        &final_graph,
        seed,
        |s, t| client.borrow_mut().query(s, t).ok(),
        |s, ts| client.borrow_mut().one_to_many(s, ts).ok(),
    );
    drop(client);

    // ---- end-to-end metrics ----------------------------------------------
    let in_process = !spec.wire_writes;
    let mut attempted = reads.reads + writes.attempted + wire.attempted + checked.attempted;
    let mut failed = writes.failed + wire.failed + checked.failed;
    report.note(
        "setup_s",
        setup_s,
        format!("median of {} builds + serving start", spec.setup_reps),
    );
    // A point query, a probe and read throughput as this workload's client
    // sees them: in-process calls, or closed-loop round trips on the wire.
    let dist_ns = if in_process { &reads.dist_ns } else { &wire.closed_ns };
    report.stat("dist_ns_p50", quiet_stat(dist_ns, 50.0, Ops::Alike));
    let many_us = if in_process { &reads.many_us } else { &wire.closed_many_us };
    report.stat("many_us_p50", quiet_stat(many_us, 50.0, Ops::Alike));
    let single_ms =
        if in_process { writes.of_kind(BatchKind::Single) } else { wire.batch_ms.clone() };
    report.stat("batch_ms_p50", quiet_stat(&single_ms, 50.0, Ops::Varied));
    report.stat("req_us_p50", quiet_stat(&wire.req_us, 50.0, Ops::Alike));
    report.set("index_bytes_per_vertex", sizes.bytes_per_vertex());
    report.set("rss_peak_mb", rss_mb);

    // ---- per-layer metrics (traced run) ----------------------------------
    if traced {
        // Throughput of the quietest round, for the reason `quiet_stat`
        // reports the quietest chunk.
        let rates = if in_process { &reads.round_rates } else { &wire.round_rates };
        report.note(
            "workloads.reads_per_s",
            rates.iter().copied().fold(0.0, f64::max),
            format!("highest of {} rounds", rates.len()),
        );
        report.stat("server.transport.req_us_p75", quiet_stat(&wire.req_us, 75.0, Ops::Alike));
        let updates_per_s = if in_process {
            writes.updates as f64 / (writes.total_ms() / 1e3)
        } else {
            wire.acked_updates as f64 / wire.write_span_s
        };
        report.set("server.server.updates_per_s", updates_per_s);
        report.stat("server.server.batch_ms_p95", tail_stat(&single_ms, 95.0));
        report.stat("server.transport.req_us_p95", tail_stat(&wire.req_us, 95.0));
        report.set("server.server.rss_run_peak_mb", rss_run_mb);
        report.stat("workloads.gen_late_us_p99", tail_stat(&wire.late_us, 99.0));
        report.set("workloads.ops_hash", hash.value());
        let stage = |f: fn(&world::BuildTimes) -> f64| {
            median(&build_times.iter().map(f).collect::<Vec<_>>())
        };
        report.set("core.hierarchy.build_s", stage(|t| t.hierarchy_s));
        report.set("core.labelling.build_s", stage(|t| t.labelling_s));
        report.set("core.labelling.compact_s", stage(|t| t.compact_s));
        report.set("core.hierarchy.height", f64::from(sizes.height));
        report.set("core.hierarchy.root_cut_len", sizes.root_cut_len as f64);
        report.set("core.labelling.label_entries", sizes.label_entries as f64);
        report.set("core.labelling.label_bytes", sizes.label_bytes as f64);
        report.set("core.labelling.deep_arena_bytes", sizes.deep_bytes as f64);
        report.set("core.spine.bytes", sizes.spine_bytes as f64);
        report.set("core.spine.lanes", sizes.spine_lanes as f64);
        let p = reads.profile;
        let q = p.queries.max(1) as f64;
        report.set("core.spine.answered_share", p.spine_answered as f64 / q);
        report.set("core.spine.mask_reject_share", p.spine_mask_rejects as f64 / q);
        let slices = (p.flat_slices + p.chunked_slices).max(1) as f64;
        report.set("core.query.chunked_slice_share", p.chunked_slices as f64 / slices);
        report.set(
            "core.labelling.flat_share",
            reads.flat_blocks as f64 / reads.dist_ns.len() as f64,
        );
        report.stat("core.query.dist_ns_p99", tail_stat(dist_ns, 99.0));
        report.stat("core.query.far_ns", quiet_stat(&reads.far_ns, 50.0, Ops::Alike));
        report.stat("core.query.near_ns", quiet_stat(&reads.near_ns, 50.0, Ops::Alike));
    }

    // ---- shutdown, and what survives it -----------------------------------
    let state_dirs = dep.state_dirs.clone();
    let main: Counters = dep.shutdown();
    if spec.durable {
        let recovered = recover_and_check(
            &world,
            &state_dirs[0],
            &final_graph,
            final_generation,
            spec.compaction,
            seed,
        )?;
        attempted += recovered.attempted;
        failed += recovered.failed;
    }
    // Checkpoints of the large index are hundreds of megabytes; nothing
    // reads them after this point.
    for dir in &state_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let applied: u64 = main.servers[0].updates_submitted;
    let acked = if in_process { writes.updates } else { wire.acked_updates };
    if applied != acked {
        // An acknowledged update the server never counted (or the reverse).
        eprintln!(
            "{}: server applied {applied} edge updates, clients saw {acked} acked",
            spec.name
        );
        failed += 1;
    }
    attempted += 1;

    if traced {
        let inputs = ladder::Inputs {
            world: &world,
            ops: &ops,
            seed,
            compaction: spec.compaction,
            out,
            tag: spec.name,
        };
        ladder::run(&inputs, &main, &mut report, &mut tracer)?;
        let overhead = ladder::trace_overhead(&world, &ops);
        report.set("trace.overhead_share", overhead);
        tracer.write_jsonl(&out.join(format!("trace-{}.jsonl", spec.name)))?;
        print_self_times(&tracer);
    }

    report.set("ok_share", 1.0 - failed as f64 / attempted as f64);
    Ok(Outcome { report, attempted, failed })
}

/// Restart a durable server from its state directory over a fresh copy of
/// the generation-0 world: the recovered generation must be the one that
/// was serving at shutdown, and sampled distances must equal Dijkstra on
/// the graph that generation served.
fn recover_and_check(
    world: &World,
    state_dir: &Path,
    final_graph: &CsrGraph,
    final_generation: u64,
    compaction: bool,
    seed: u64,
) -> io::Result<Checked> {
    let (server, recovery, recovery_s) = deploy::recover(world, state_dir, compaction)?;
    println!("note\trecovery\t{recovery}\tin {recovery_s:.3} s");
    let mut checked = Checked { attempted: 1, failed: 0 };
    if recovery.generation != final_generation {
        eprintln!(
            "recovered generation {} != served generation {final_generation}",
            recovery.generation
        );
        checked.failed += 1;
    }
    let snap = server.snapshot();
    checked += check::against_dijkstra(
        final_graph,
        seed,
        |s, t| Some(snap.query(s, t)),
        |s, ts| Some(snap.stl().one_to_many(s, ts)),
    );
    drop(snap);
    server.shutdown();
    Ok(checked)
}

fn print_self_times(tracer: &Tracer) {
    for (name, st) in tracer.self_times() {
        println!(
            "span\t{name}\tspans={}\tmean_us={:.3}\tself_mean_us={:.3}",
            st.spans,
            st.total_ns as f64 / st.spans as f64 / 1e3,
            st.self_ns as f64 / st.spans as f64 / 1e3
        );
    }
}
