//! `stl` — build, persist and query Stable Tree Labelling indexes.
//!
//! ```text
//! stl info    <graph.gr>                         graph statistics
//! stl build   <graph.gr> -o <index.stl> [--beta B] [--threads T]
//! stl query   <graph.gr> <index.stl> <s> <t> [<s> <t> ...]
//! stl bench   <graph.gr> <index.stl> [--queries N]
//! stl gen     <out.gr> [--vertices N] [--seed S]  synthetic road network
//! stl serve   <graph.gr> [--readers N] [--ops N] [--update-fraction F]
//!             [--batch-size K] [--seed S] [--algo pareto|label] [--threads T]
//!             [--state-dir DIR]
//!             [--fsync always|never|every:N] [--dedup-window N]
//! stl serve   <graph.gr> --listen ADDR [--net-readers N] [--max-conns C]
//!             [--accept-queue Q] [--batch-latency-ms MS]
//!             [--batch-max-updates K] [--max-queued-updates Q]
//!             [--duration-secs S] [+ the index/repair/durability flags above]
//! stl bench-net <addr> <graph.gr> [--rate R] [--ops N] [--clients C]
//!             [--update-fraction F] [--batch-size K] [--seed S]
//!             [--many-fraction F] [--many-targets K]
//! ```
//!
//! `--threads T` (default 1) bounds the whole index build of `build` and
//! `serve`: the hierarchy's level-parallel splits and the label
//! construction both run on at most `T` threads. The index is the same at
//! any `T`.
//!
//! `serve` builds an index in-process, starts the `stl_server`
//! epoch-snapshot service (readers on immutable snapshots, one writer
//! publishing per batch), replays a seeded mixed query/update trace through
//! it, and reports throughput plus the writer's publish latency.
//!
//! With `--listen ADDR`, `serve` instead exposes the server over TCP (the
//! length-prefixed protocol of `stl_server::transport`) with adaptive update
//! batching, and runs until `--duration-secs` elapses (`0` = forever). A
//! lone update is never delayed: `--batch-latency-ms` and
//! `--batch-max-updates` only hold updates that arrive while a batch is with
//! the writer. Pair it with `stl bench-net`, which drives a remote server
//! with a seeded **open-loop** trace — Poisson arrivals at `--rate`
//! requests/second, regardless of how fast the server answers — and reports
//! p50/p99 latency, achieved throughput, and explicit rejection/shed counts
//! under overload.
//!
//! With `--state-dir DIR`, `serve` becomes **crash-safe**: accepted update
//! batches are write-ahead logged before they apply (`--fsync` picks the
//! durability/throughput point), quiet moments fold the log into an atomic
//! checkpoint, and the next boot with the same `--state-dir` recovers the
//! exact pre-crash state — replaying the WAL tail and truncating torn crash
//! debris. `SIGINT`/`SIGTERM` trigger a clean landing: drain, final
//! checkpoint, closing stats.
//!
//! Graphs are DIMACS 9th-challenge `.gr` files (1-based vertex ids on the
//! command line, matching the format). Indexes are the compact binary
//! format of `stl_core::persist`.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stl_core::{persist, IndexStats, Maintenance, Stl, StlConfig};
use stl_graph::{io as gio, CsrGraph};
use stl_server::{
    replay_mixed, DurabilityConfig, Endpoint, FsyncPolicy, NetClient, NetConfig, NetServer,
    ServerConfig, StlServer, CHECKPOINT_QUIET_EPOCHS, CHECKPOINT_QUIET_RATIO,
};
use stl_workloads::mixed::{mixed_trace, split_trace, MixedConfig, MixedOp};
use stl_workloads::openloop::{open_loop_trace, percentile, Arrival, OpenLoopConfig};
use stl_workloads::{generate, RoadNetConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench-net") => cmd_bench_net(&args[1..]),
        _ => {
            eprintln!("usage: stl <info|build|query|bench|gen|serve|bench-net> ... (see README)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyErr = Box<dyn std::error::Error>;

/// `SIGINT`/`SIGTERM` → a flag the serve loops poll, so a durable server
/// always gets to drain, fsync its WAL, and write a final checkpoint before
/// the process exits. No dependencies: the handler is registered through
/// libc's `signal(2)` (always linked on unix) and only performs an atomic
/// store, the one thing a signal handler may safely do.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the handler for `SIGINT` and `SIGTERM`. Idempotent.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

fn load_graph(path: &str) -> Result<CsrGraph, AnyErr> {
    let f = File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
    Ok(gio::read_dimacs_gr(BufReader::new(f))?)
}

fn cmd_info(args: &[String]) -> Result<(), AnyErr> {
    let path = args.first().ok_or("usage: stl info <graph.gr>")?;
    let g = load_graph(path)?;
    let (_, comps) = stl_graph::components::connected_components(&g);
    println!("vertices:   {}", g.num_vertices());
    println!("edges:      {}", g.num_edges());
    println!("components: {comps}");
    println!("max degree: {}", g.max_degree());
    println!("avg degree: {:.2}", 2.0 * g.num_edges() as f64 / g.num_vertices().max(1) as f64);
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), AnyErr> {
    let graph_path = args.first().ok_or("usage: stl build <graph.gr> -o <index.stl>")?;
    let mut out = None;
    let mut beta = 0.2f64;
    let mut threads = 1usize;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => out = it.next().cloned(),
            "--beta" => beta = it.next().ok_or("--beta needs a value")?.parse()?,
            "--threads" => threads = it.next().ok_or("--threads needs a value")?.parse()?,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }
    let out = out.ok_or("missing -o <index.stl>")?;
    let g = load_graph(graph_path)?;
    println!("graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());
    let cfg = StlConfig::with_beta(beta);
    let t0 = Instant::now();
    let stl = Stl::build_parallel(&g, &cfg, threads);
    let build_time = t0.elapsed();
    let stats = IndexStats::of(&stl);
    println!(
        "built in {:.2?}: {} entries, height {}, {:.1} MB",
        build_time,
        stats.label_entries,
        stats.height,
        stats.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    let bytes = persist::save(&stl);
    let mut w = BufWriter::new(File::create(&out)?);
    w.write_all(&bytes)?;
    w.flush()?;
    println!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn load_index(path: &str) -> Result<Stl, AnyErr> {
    let mut buf = Vec::new();
    File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?.read_to_end(&mut buf)?;
    Ok(persist::load(&buf)?)
}

fn cmd_query(args: &[String]) -> Result<(), AnyErr> {
    if args.len() < 4 || !args.len().is_multiple_of(2) {
        return Err("usage: stl query <graph.gr> <index.stl> <s> <t> [<s> <t> ...]".into());
    }
    let g = load_graph(&args[0])?;
    let stl = load_index(&args[1])?;
    if stl.num_vertices() != g.num_vertices() {
        return Err("index does not match graph (vertex count differs)".into());
    }
    for pair in args[2..].chunks(2) {
        let s: u32 = pair[0].parse::<u32>()?.checked_sub(1).ok_or("ids are 1-based")?;
        let t: u32 = pair[1].parse::<u32>()?.checked_sub(1).ok_or("ids are 1-based")?;
        if s as usize >= g.num_vertices() || t as usize >= g.num_vertices() {
            return Err(format!("vertex out of range: {} or {}", pair[0], pair[1]).into());
        }
        let d = stl.query(s, t);
        if d == stl_graph::INF {
            println!("d({}, {}) = unreachable", pair[0], pair[1]);
        } else {
            println!("d({}, {}) = {}", pair[0], pair[1], d);
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), AnyErr> {
    if args.len() < 2 {
        return Err("usage: stl bench <graph.gr> <index.stl> [--queries N]".into());
    }
    let g = load_graph(&args[0])?;
    let stl = load_index(&args[1])?;
    let mut n_queries = 100_000usize;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        if a == "--queries" {
            n_queries = it.next().ok_or("--queries needs a value")?.parse()?;
        }
    }
    let pairs = stl_workloads::queries::random_pairs(g.num_vertices(), n_queries, 1);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &(s, t) in &pairs {
        acc = acc.wrapping_add(stl.query(s, t) as u64);
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(acc);
    println!(
        "{} queries in {:.2?} ({:.3} us/query)",
        n_queries,
        elapsed,
        elapsed.as_secs_f64() * 1e6 / n_queries as f64
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), AnyErr> {
    let graph_path = args.first().ok_or("usage: stl serve <graph.gr> [flags] (see README)")?;
    let mut readers = 4usize;
    let mut ops = 50_000usize;
    let mut update_fraction = 0.002f64;
    let mut batch_size = 10usize;
    let mut seed = 0xD157u64;
    let mut algo = Maintenance::ParetoSearch;
    let mut threads = 1usize;
    let mut dedup_window = ServerConfig::default().dedup_window;
    let mut state_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut listen: Option<String> = None;
    let mut net = NetConfig::default();
    let mut duration_secs = 0u64;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = it.next().cloned(),
            "--state-dir" => state_dir = it.next().cloned(),
            "--fsync" => fsync = FsyncPolicy::parse(it.next().ok_or("--fsync needs a value")?)?,
            "--dedup-window" => {
                dedup_window = it.next().ok_or("--dedup-window needs a value")?.parse()?
            }
            "--net-readers" => {
                net.reader_threads = it.next().ok_or("--net-readers needs a value")?.parse()?
            }
            "--max-conns" => {
                net.max_connections = it.next().ok_or("--max-conns needs a value")?.parse()?
            }
            "--accept-queue" => {
                net.accept_queue = it.next().ok_or("--accept-queue needs a value")?.parse()?
            }
            "--batch-latency-ms" => {
                net.batcher.latency_ms =
                    it.next().ok_or("--batch-latency-ms needs a value")?.parse()?
            }
            "--batch-max-updates" => {
                net.batcher.max_updates =
                    it.next().ok_or("--batch-max-updates needs a value")?.parse()?
            }
            "--max-queued-updates" => {
                net.batcher.max_queued =
                    it.next().ok_or("--max-queued-updates needs a value")?.parse()?
            }
            "--duration-secs" => {
                duration_secs = it.next().ok_or("--duration-secs needs a value")?.parse()?
            }
            "--readers" => readers = it.next().ok_or("--readers needs a value")?.parse()?,
            "--ops" => ops = it.next().ok_or("--ops needs a value")?.parse()?,
            "--update-fraction" => {
                update_fraction = it.next().ok_or("--update-fraction needs a value")?.parse()?
            }
            "--batch-size" => {
                batch_size = it.next().ok_or("--batch-size needs a value")?.parse()?
            }
            "--seed" => seed = it.next().ok_or("--seed needs a value")?.parse()?,
            "--threads" => threads = it.next().ok_or("--threads needs a value")?.parse()?,
            "--algo" => {
                algo = match it.next().map(String::as_str) {
                    Some("pareto") => Maintenance::ParetoSearch,
                    Some("label") => Maintenance::LabelSearch,
                    other => return Err(format!("--algo pareto|label, got {other:?}").into()),
                }
            }
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }
    if readers == 0 {
        return Err("--readers must be at least 1".into());
    }
    if batch_size == 0 {
        return Err("--batch-size must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&update_fraction) {
        return Err("--update-fraction must be within 0.0..=1.0".into());
    }
    if net.reader_threads == 0 {
        return Err("--net-readers must be at least 1".into());
    }
    let g = load_graph(graph_path)?;
    println!("graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());
    let cfg = StlConfig::default();
    let t0 = Instant::now();
    let stl = Stl::build_parallel(&g, &cfg, threads);
    println!("index built in {:.2?}", t0.elapsed());

    let server_cfg = ServerConfig { algo, dedup_window, ..ServerConfig::default() };

    sig::install();
    let start_server = |g: CsrGraph, stl: Stl| -> Result<StlServer, AnyErr> {
        match &state_dir {
            Some(dir) => {
                let durability = DurabilityConfig { state_dir: dir.into(), fsync };
                let (server, report) = StlServer::start_durable(g, stl, server_cfg, durability)
                    .map_err(|e| format!("cannot recover from '{dir}': {e}"))?;
                println!("durability: state dir {dir}, fsync {fsync}");
                println!(
                    "checkpoints: after {CHECKPOINT_QUIET_EPOCHS} quiet epochs \
                     (≤ {} % of chunks copied each)",
                    CHECKPOINT_QUIET_RATIO * 100.0
                );
                println!("recovery: {report}");
                Ok(server)
            }
            None => Ok(StlServer::start(g, stl, server_cfg)),
        }
    };

    if let Some(addr) = listen {
        let server = Arc::new(start_server(g, stl)?);
        let net_server = NetServer::start(Arc::clone(&server), addr.as_str(), net.clone())
            .map_err(|e| format!("cannot listen on '{addr}': {e}"))?;
        println!(
            "batching: a lone update flushes at once; behind a busy writer, \
             up to {} updates or {} ms, {} queued max; \
             {} net readers, {} connections ({} queued) max",
            net.batcher.max_updates,
            net.batcher.latency_ms,
            net.batcher.max_queued,
            net.reader_threads,
            net.max_connections,
            net.accept_queue,
        );
        // The smoke tests and bench drivers wait for this exact line.
        println!("listening on {}", net_server.local_addr());
        let deadline =
            (duration_secs > 0).then(|| Instant::now() + Duration::from_secs(duration_secs));
        while !sig::requested() && deadline.is_none_or(|d| Instant::now() < d) {
            std::thread::sleep(Duration::from_millis(100));
        }
        if sig::requested() {
            println!("shutdown signal: draining, syncing the wal, writing a final checkpoint");
        }
        let net_stats = net_server.shutdown();
        println!(
            "transport: {} connections accepted, {} shed, {} bad frames, {} requests, \
             {:.2} socket reads per request",
            net_stats.connections_accepted,
            net_stats.connections_shed,
            net_stats.frames_rejected,
            net_stats.requests_served,
            net_stats.socket_reads as f64 / net_stats.requests_served.max(1) as f64,
        );
        println!(
            "batcher: {} batches from {} requests ({} shed, {} rejected pre-validate); \
             {} idle flushes, {} size flushes, {} timer flushes",
            net_stats.batcher.batches_submitted,
            net_stats.batcher.requests_coalesced,
            net_stats.batcher.requests_shed,
            net_stats.batcher.requests_rejected,
            net_stats.batcher.flushes_idle,
            net_stats.batcher.flushes_by_size,
            net_stats.batcher.flushes_by_timer,
        );
        // The transport is down and its batcher joined, so this is the only
        // handle left; the owned shutdown drains the writer, syncs the WAL,
        // and (on durable servers) writes the final checkpoint.
        match Arc::try_unwrap(server) {
            Ok(server) => println!("writer: {}", server.shutdown()),
            Err(server) => println!("writer: {}", server.stats()),
        }
        return Ok(());
    }

    let trace = mixed_trace(
        &g,
        &MixedConfig { ops, update_fraction, batch_size, seed, ..Default::default() },
    );
    let (queries, batches) = split_trace(trace);
    println!(
        "trace: {} queries / {} batches of {} updates (seed {seed}), {readers} reader threads",
        queries.len(),
        batches.len(),
        batch_size
    );
    println!(
        "repair: inline, {} stable-tree shards ({} family, \
         each update repaired in the spine and its tree)",
        stl.hierarchy().num_shards(),
        match algo {
            Maintenance::ParetoSearch => "pareto",
            Maintenance::LabelSearch => "label",
        }
    );

    let server = start_server(g, stl)?;
    let wall = replay_mixed(&server, &queries, &batches, readers);
    let stats = server.shutdown();
    println!(
        "served {} queries in {:.2?} — {:.0} queries/s with a live writer",
        stats.queries_served,
        wall,
        stats.queries_served as f64 / wall.as_secs_f64()
    );
    println!("writer: {stats}");
    Ok(())
}

/// Per-client tally of an open-loop run.
#[derive(Default)]
struct NetTally {
    query_lat: Vec<Duration>,
    update_lat: Vec<Duration>,
    applied: u64,
    rejected: u64,
    shed: u64,
    io_errors: u64,
}

impl NetTally {
    fn merge(&mut self, other: NetTally) {
        self.query_lat.extend(other.query_lat);
        self.update_lat.extend(other.update_lat);
        self.applied += other.applied;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.io_errors += other.io_errors;
    }
}

/// Replay one client's share of the arrivals open-loop: sleep until each
/// offset and fire, whether or not the server has answered the last one in
/// time — lag accumulates as latency, exactly as it would for real traffic.
fn run_net_client(
    addr: &Endpoint,
    arrivals: &[Arrival],
    start: Instant,
) -> Result<NetTally, String> {
    let mut client = NetClient::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    let mut tally = NetTally::default();
    for arrival in arrivals {
        let target = start + arrival.offset;
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let t0 = Instant::now();
        match &arrival.op {
            MixedOp::Query(s, t) => match client.query(*s, *t) {
                Ok(_) => tally.query_lat.push(t0.elapsed()),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => tally.shed += 1,
                Err(_) => tally.io_errors += 1,
            },
            MixedOp::Many(s, targets) => match client.one_to_many(*s, targets) {
                Ok(_) => tally.query_lat.push(t0.elapsed()),
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => tally.shed += 1,
                Err(_) => tally.io_errors += 1,
            },
            MixedOp::Batch(batch) => match client.update(batch) {
                Ok(outcome) => {
                    tally.update_lat.push(t0.elapsed());
                    if outcome.applied {
                        tally.applied += 1;
                    } else {
                        tally.rejected += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => tally.shed += 1,
                Err(_) => tally.io_errors += 1,
            },
        }
    }
    Ok(tally)
}

fn fmt_lat(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.2?}", d),
        None => "-".into(),
    }
}

fn cmd_bench_net(args: &[String]) -> Result<(), AnyErr> {
    if args.len() < 2 {
        return Err("usage: stl bench-net <addr> <graph.gr> [--rate R] [--ops N] \
                    [--clients C] [--update-fraction F] [--batch-size K] [--seed S]"
            .into());
    }
    let addr: Endpoint = args[0].parse().map_err(|e| format!("bad address '{}': {e}", args[0]))?;
    let graph_path = &args[1];
    let mut rate = 2_000.0f64;
    let mut ops = 20_000usize;
    let mut clients = 4usize;
    let mut update_fraction = 0.02f64;
    let mut batch_size = 8usize;
    let mut many_fraction = 0.0f64;
    let mut many_targets = 8usize;
    let mut seed = 0xD157u64;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rate" => rate = it.next().ok_or("--rate needs a value")?.parse()?,
            "--ops" => ops = it.next().ok_or("--ops needs a value")?.parse()?,
            "--clients" => clients = it.next().ok_or("--clients needs a value")?.parse()?,
            "--update-fraction" => {
                update_fraction = it.next().ok_or("--update-fraction needs a value")?.parse()?
            }
            "--batch-size" => {
                batch_size = it.next().ok_or("--batch-size needs a value")?.parse()?
            }
            "--many-fraction" => {
                many_fraction = it.next().ok_or("--many-fraction needs a value")?.parse()?
            }
            "--many-targets" => {
                many_targets = it.next().ok_or("--many-targets needs a value")?.parse()?
            }
            "--seed" => seed = it.next().ok_or("--seed needs a value")?.parse()?,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    let g = load_graph(graph_path)?;
    let trace = open_loop_trace(
        &g,
        &OpenLoopConfig {
            rate_per_sec: rate,
            mixed: MixedConfig {
                ops,
                update_fraction,
                batch_size,
                many_fraction,
                many_targets,
                seed,
                ..Default::default()
            },
        },
    );
    println!(
        "open-loop: {ops} ops at {rate:.0}/s across {clients} client(s) \
         (update fraction {update_fraction}, batch size {batch_size}, seed {seed})"
    );

    // Round-robin the arrivals: each client keeps the global offsets, so the
    // aggregate process still arrives at `rate` regardless of client count.
    let shares: Vec<Vec<Arrival>> =
        (0..clients).map(|c| trace.iter().skip(c).step_by(clients).cloned().collect()).collect();
    let start = Instant::now() + Duration::from_millis(200); // common epoch
    let handles: Vec<_> = shares
        .into_iter()
        .map(|share| {
            let addr = addr.clone();
            std::thread::spawn(move || run_net_client(&addr, &share, start))
        })
        .collect();
    let mut tally = NetTally::default();
    for h in handles {
        tally.merge(h.join().map_err(|_| "client thread panicked")??);
    }
    let wall = start.elapsed();

    let served = tally.query_lat.len() + tally.update_lat.len();
    println!(
        "served {served}/{ops} in {:.2?} — {:.0} req/s achieved \
         ({} shed, {} io errors)",
        wall,
        served as f64 / wall.as_secs_f64(),
        tally.shed,
        tally.io_errors,
    );
    println!(
        "queries: {} answered, p50 {}, p99 {}",
        tally.query_lat.len(),
        fmt_lat(percentile(&tally.query_lat, 50.0)),
        fmt_lat(percentile(&tally.query_lat, 99.0)),
    );
    println!(
        "updates: {} applied, {} rejected, p50 {}, p99 {}",
        tally.applied,
        tally.rejected,
        fmt_lat(percentile(&tally.update_lat, 50.0)),
        fmt_lat(percentile(&tally.update_lat, 99.0)),
    );
    if tally.io_errors as f64 > ops as f64 * 0.5 {
        return Err("more than half the requests failed with io errors".into());
    }
    if let Ok(mut probe) = NetClient::connect(&addr) {
        if let Ok(stats) = probe.stats() {
            println!(
                "server: generation {}, {} batches applied, {} rejected, \
                 {} requests coalesced into {} batches, {} update requests shed",
                stats.generation,
                stats.batches_applied,
                stats.batches_rejected,
                stats.batcher_requests_coalesced,
                stats.batcher_batches_submitted,
                stats.batcher_requests_shed,
            );
        }
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), AnyErr> {
    let out = args.first().ok_or("usage: stl gen <out.gr> [--vertices N] [--seed S]")?;
    let mut n = 10_000usize;
    let mut seed = 42u64;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--vertices" => n = it.next().ok_or("--vertices needs a value")?.parse()?,
            "--seed" => seed = it.next().ok_or("--seed needs a value")?.parse()?,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }
    let g = generate(&RoadNetConfig::sized(n, seed));
    let f = BufWriter::new(File::create(out)?);
    gio::write_dimacs_gr(&g, f)?;
    println!("wrote {out}: {} vertices, {} edges", g.num_vertices(), g.num_edges());
    Ok(())
}
