//! Criterion bench: the TCP front-end under load.
//!
//! Three legs, all publishing domain counters into `BENCH_SUMMARY_PATH`:
//!
//! 1. **`query_roundtrip`** — a distance query through the full stack
//!    (frame encode → loopback TCP → worker decode → snapshot query →
//!    response frame) against the same query in-process, pricing the
//!    transport skin. A MANY tail on the same connection checks that the
//!    reader's one-to-many scratch vector is recycled across requests
//!    (`net_many_scratch_reuses`) and that batched answers match point
//!    queries. The same round trip over a unix socket records
//!    `net_socket_reads_per_request`, an exact count asserted to be 1: a
//!    request frame is read whole, prefix and payload in one `read`.
//! 2. **Amortization** — the `--batch-latency-ms` knob made measurable: the
//!    same paced stream of single-update requests is pushed through the
//!    `AdaptiveBatcher` with a zero budget (every request its own batch)
//!    and with a 40 ms budget (requests coalesce). A lone update is never
//!    delayed; the budget holds only requests that arrive while a batch is
//!    with the writer, which a paced stream keeps busy. Raising the budget
//!    must strictly reduce `batches_applied` *and* total apply time —
//!    asserted here, recorded as `net_batches_*` / `net_apply_ms_*`.
//! 3. **Overload** — open-loop arrivals at well past the sustainable rate
//!    against a deliberately tiny server (2 readers, 4 connections).
//!    Admission control must shed explicitly (BUSY / `overloaded`
//!    rejections), latency percentiles of the survivors are recorded, and
//!    the server must still be serving when the storm passes.
//!
//! Registered on the workspace root, so
//! `cargo bench --bench net -- --test` works from the repo root.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, summary, Criterion};

use stl_core::{Stl, StlConfig};
use stl_graph::{CsrGraph, EdgeUpdate, Weight, INF};
use stl_server::{
    AdaptiveBatcher, BatcherConfig, NetClient, NetConfig, NetServer, ServerConfig, StlServer,
};
use stl_workloads::openloop::{open_loop_trace, percentile, Arrival, OpenLoopConfig};
use stl_workloads::{generate, MixedConfig, MixedOp, RoadNetConfig};

fn start_server(g: &CsrGraph) -> Arc<StlServer> {
    let stl = Stl::build(g, &StlConfig::default());
    Arc::new(StlServer::start(g.clone(), stl, ServerConfig::default()))
}

fn finite_edges(g: &CsrGraph) -> Vec<(u32, u32, Weight)> {
    g.edges().filter(|&(_, _, w)| w < INF / 4).collect()
}

/// Push `per_thread × threads` single-update requests through the batcher at
/// a fixed ~1 ms pacing per thread, under the given latency budget; return
/// (batches_applied, apply_ns_total, requests_rejected).
fn run_amortization(g: &CsrGraph, latency_ms: u64) -> (u64, u64, u64) {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 120;
    let server = start_server(g);
    let batcher = Arc::new(AdaptiveBatcher::start(
        Arc::clone(&server),
        BatcherConfig { latency_ms, max_updates: 4096, max_queued: 1 << 20 },
    ));
    let edges = finite_edges(g);
    let rejected = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            let edges = edges.clone();
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                // Open-loop pacing: fire at ~1 kHz regardless of flush
                // progress; outcomes are settled after the stream ends so
                // waiting never distorts the pacing itself.
                let mut pendings = Vec::with_capacity(PER_THREAD);
                for i in 0..PER_THREAD {
                    let (a, b, w) = edges[(t * PER_THREAD + i * 7) % edges.len()];
                    let congested = w.saturating_mul(2 + (i as u32 % 5)).min(INF - 1);
                    pendings.push(batcher.submit(vec![EdgeUpdate::new(a, b, congested)]));
                    std::thread::sleep(Duration::from_millis(1));
                }
                for pending in pendings {
                    if !pending.wait().is_applied() {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("amortization submitter");
    }
    batcher.shutdown();
    let stats = server.stats();
    (stats.batches_applied, stats.apply_ns_total, rejected.load(Ordering::Relaxed))
}

fn amortization_leg(g: &CsrGraph) {
    let (batches_eager, apply_ns_eager, rej_eager) = run_amortization(g, 0);
    let (batches_budget, apply_ns_budget, rej_budget) = run_amortization(g, 40);
    assert_eq!(rej_eager + rej_budget, 0, "paced valid updates must never be rejected");
    summary::counter("net_batches_applied_lat0", batches_eager as f64);
    summary::counter("net_batches_applied_lat40", batches_budget as f64);
    summary::counter("net_apply_ms_lat0", apply_ns_eager as f64 / 1e6);
    summary::counter("net_apply_ms_lat40", apply_ns_budget as f64 / 1e6);
    println!(
        "amortization: latency budget 0 ms → {batches_eager} batches, {:.1} ms applying; \
         40 ms → {batches_budget} batches, {:.1} ms applying",
        apply_ns_eager as f64 / 1e6,
        apply_ns_budget as f64 / 1e6,
    );
    assert!(
        batches_budget * 4 <= batches_eager,
        "a 40 ms budget over ~1 ms pacing must coalesce at least 4x \
         ({batches_eager} -> {batches_budget} batches)"
    );
    assert!(
        apply_ns_budget < apply_ns_eager,
        "fewer batches must also cost less total apply time \
         ({apply_ns_eager} ns -> {apply_ns_budget} ns)"
    );
}

fn overload_leg(g: &CsrGraph) {
    const CLIENTS: usize = 12;
    let server = start_server(g);
    let net = NetServer::start(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetConfig {
            reader_threads: 2,
            max_connections: 4,
            accept_queue: 1,
            batcher: BatcherConfig { latency_ms: 5, max_updates: 256, max_queued: 64 },
            idle_timeout_ms: 10_000,
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    // Open-loop at far past what 2 readers over 4 connections sustain.
    let trace = open_loop_trace(
        g,
        &OpenLoopConfig {
            rate_per_sec: 60_000.0,
            mixed: MixedConfig {
                ops: 3_000,
                update_fraction: 0.05,
                batch_size: 4,
                seed: 0xBEEF,
                ..Default::default()
            },
        },
    );
    let shares: Vec<Vec<Arrival>> =
        (0..CLIENTS).map(|c| trace.iter().skip(c).step_by(CLIENTS).cloned().collect()).collect();
    let start = Instant::now() + Duration::from_millis(100);
    let handles: Vec<_> = shares
        .into_iter()
        .map(|share| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let (mut shed, mut rejected, mut served) = (0u64, 0u64, 0u64);
                let mut client = match NetClient::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => return (lat, share.len() as u64, 0, 0),
                };
                for arrival in &share {
                    let target = start + arrival.offset;
                    if let Some(wait) = target.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let t0 = Instant::now();
                    let result = match &arrival.op {
                        MixedOp::Query(s, t) => client.query(*s, *t).map(|_| true),
                        MixedOp::Many(s, targets) => client.one_to_many(*s, targets).map(|_| true),
                        MixedOp::Batch(b) => client.update(b).map(|o| o.applied),
                    };
                    match result {
                        Ok(applied) => {
                            lat.push(t0.elapsed());
                            served += 1;
                            if !applied {
                                rejected += 1; // explicit `overloaded` shed
                            }
                        }
                        Err(_) => {
                            // BUSY at accept or a closed connection: this
                            // client was shed; charge its remaining load.
                            shed += 1;
                            match NetClient::connect(&addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                (lat, shed, rejected, served)
            })
        })
        .collect();
    let mut lat = Vec::new();
    let (mut shed, mut rejected, mut served) = (0u64, 0u64, 0u64);
    for h in handles {
        let (l, s, r, ok) = h.join().expect("overload client");
        lat.extend(l);
        shed += s;
        rejected += r;
        served += ok;
    }

    let p50 = percentile(&lat, 50.0).unwrap_or_default();
    let p99 = percentile(&lat, 99.0).unwrap_or_default();
    summary::counter("net_overload_served", served as f64);
    summary::counter("net_overload_shed", shed as f64);
    summary::counter("net_overload_rejected_updates", rejected as f64);
    summary::counter("net_overload_p50_us", p50.as_secs_f64() * 1e6);
    summary::counter("net_overload_p99_us", p99.as_secs_f64() * 1e6);
    println!(
        "overload: {served} served, {shed} shed, {rejected} update requests rejected; \
         p50 {p50:.2?}, p99 {p99:.2?}"
    );
    assert!(served > 0, "some requests must get through an overloaded server");
    assert!(
        shed + rejected > 0,
        "offered load past capacity must produce explicit sheds or rejections"
    );

    // Graceful degradation: once the storm passes the server still answers,
    // the writer is alive, and the batcher queue drained (bounded growth).
    let mut probe = NetClient::connect_retry(&addr, Duration::from_secs(10)).expect("post-storm");
    assert!(probe.query(0, 1).is_ok(), "server must serve after overload");
    let out =
        probe.update(&[finite_edges(g)[0]].map(|(a, b, w)| EdgeUpdate::new(a, b, w))).unwrap();
    assert!(out.applied, "writer must be alive after overload: {}", out.reason);
    let stats = net.shutdown();
    summary::counter("net_rejected_batches", server.stats().batches_rejected as f64);
    assert!(stats.connections_shed + stats.batcher.requests_shed >= shed);
}

/// The round trip over a unix socket, counting the server's socket reads.
fn uds_roundtrip_leg(g: &CsrGraph, c: &mut Criterion) {
    let path = std::env::temp_dir().join(format!("stl-bench-net-{}.sock", std::process::id()));
    let net = NetServer::start(
        start_server(g),
        &format!("unix:{}", path.display()),
        NetConfig {
            batcher: BatcherConfig { latency_ms: 0, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("bind unix socket");
    let mut client =
        NetClient::connect_retry(&net.local_addr(), Duration::from_secs(10)).expect("connect");
    let n = g.num_vertices() as u32;
    let mut group = c.benchmark_group("net_2k");
    group.sample_size(30);
    let mut j = 0u32;
    group.bench_function("query_roundtrip_uds", |b| {
        b.iter(|| {
            j = (j + 1) % (n - 1);
            std::hint::black_box(client.query(j, n - 1 - j).expect("query frame"))
        })
    });
    group.finish();
    for s in 0..100 {
        client.query(s, n - 1).expect("query frame");
    }
    drop(client);
    let stats = net.shutdown();
    let per_request = stats.socket_reads as f64 / stats.requests_served as f64;
    summary::counter("net_socket_reads_per_request", per_request);
    println!(
        "uds: {} requests, {} socket reads ({per_request} per request)",
        stats.requests_served, stats.socket_reads
    );
    assert_eq!(
        stats.socket_reads, stats.requests_served,
        "sequential requests must be read with one socket read each"
    );
}

fn bench_net(c: &mut Criterion) {
    let g = generate(&RoadNetConfig::sized(2_000, 404));

    // Leg 1: the price of the transport skin on a single query.
    let server = start_server(&g);
    let net = NetServer::start(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetConfig {
            batcher: BatcherConfig { latency_ms: 0, ..Default::default() },
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client =
        NetClient::connect_retry(&net.local_addr(), Duration::from_secs(10)).expect("connect");
    let mut group = c.benchmark_group("net_2k");
    group.sample_size(30);
    let snap = server.snapshot();
    let mut i = 0u32;
    group.bench_function("query_in_process", |b| {
        b.iter(|| {
            i = (i + 1) % 1999;
            std::hint::black_box(snap.query(i, 1999 - i))
        })
    });
    let mut j = 0u32;
    group.bench_function("query_roundtrip_tcp", |b| {
        b.iter(|| {
            j = (j + 1) % 1999;
            std::hint::black_box(client.query(j, 1999 - j).expect("query frame"))
        })
    });
    group.finish();
    let sanity = client.query(3, 1700).expect("query frame");
    assert_eq!(sanity, snap.query(3, 1700), "transport must be transparent");

    // MANY on the same connection: repeated requests must recycle the
    // reader's scratch vector instead of allocating per request, and the
    // tiled answers must match point queries through the same transport.
    let targets: Vec<u32> = (0..500u32).map(|i| (i * 37) % 2_000).collect();
    let mut many = Vec::new();
    for _ in 0..8 {
        many = client.one_to_many(7, &targets).expect("many frame");
    }
    for (i, &t) in targets.iter().enumerate().step_by(97) {
        assert_eq!(many[i], snap.query(7, t), "MANY must match point queries");
    }
    let reuses = net.stats().many_scratch_reuses;
    summary::counter("net_many_scratch_reuses", reuses as f64);
    println!("many: 8 requests x {} targets, {reuses} scratch reuses", targets.len());
    assert!(reuses >= 7, "per-reader MANY scratch must be reused across requests, got {reuses}");

    drop(client);
    net.shutdown();
    uds_roundtrip_leg(&g, c);

    // Legs 2 and 3 are scenario measurements, not timed closures: they run
    // once and publish counters (and assertions) of their own.
    amortization_leg(&g);
    overload_leg(&g);
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
