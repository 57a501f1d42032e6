//! End-to-end smoke test for the `stl` binary: generate a tiny synthetic
//! network, build + persist an index, then query and bench through it. This
//! proves the binary target links and the full gen → build → load → query
//! path works, with distances cross-checked against an in-process oracle.

use std::path::PathBuf;
use std::process::{Command, Output};

fn stl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stl")).args(args).output().expect("failed to spawn stl")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stl exited with {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Unique-per-test-process scratch directory, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        // Unique per test even when the harness runs tests in parallel
        // threads of one process — a shared dir would be torn down by
        // whichever test finishes first.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("stl-smoke-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn gen_build_query_bench_roundtrip() {
    let scratch = Scratch::new();
    let graph = scratch.path("tiny.gr");
    let index = scratch.path("tiny.stl");

    let out = stdout_of(&stl(&["gen", &graph, "--vertices", "300", "--seed", "9"]));
    assert!(out.contains("vertices"), "gen output: {out}");

    let out = stdout_of(&stl(&["info", &graph]));
    assert!(out.contains("vertices:"), "info output: {out}");
    assert!(out.contains("components: 1"), "generated network must be connected: {out}");

    let out = stdout_of(&stl(&["build", &graph, "-o", &index]));
    assert!(out.contains("wrote"), "build output: {out}");

    // Same graph in-process: the CLI's answers must match direct queries.
    let g = {
        let f = std::fs::File::open(&graph).unwrap();
        stl_graph::io::read_dimacs_gr(std::io::BufReader::new(f)).unwrap()
    };
    let oracle = stl_core::Stl::build(&g, &stl_core::StlConfig::default());
    let out = stdout_of(&stl(&["query", &graph, &index, "1", "300", "17", "203"]));
    let expect_a = oracle.query(0, 299);
    let expect_b = oracle.query(16, 202);
    assert!(out.contains(&format!("d(1, 300) = {expect_a}")), "query output: {out}");
    assert!(out.contains(&format!("d(17, 203) = {expect_b}")), "query output: {out}");

    let out = stdout_of(&stl(&["bench", &graph, &index, "--queries", "500"]));
    assert!(out.contains("us/query"), "bench output: {out}");
}

#[test]
fn serve_runs_mixed_trace_and_reports_stats() {
    let scratch = Scratch::new();
    let graph = scratch.path("serve.gr");
    stdout_of(&stl(&["gen", &graph, "--vertices", "250", "--seed", "12"]));
    let out = stdout_of(&stl(&[
        "serve",
        &graph,
        "--readers",
        "2",
        "--ops",
        "3000",
        "--update-fraction",
        "0.01",
        "--batch-size",
        "4",
        "--seed",
        "77",
    ]));
    assert!(out.contains("queries/s"), "serve output: {out}");
    assert!(out.contains("generation"), "serve output: {out}");
    // The trace is seeded: the query/batch split is reproducible.
    assert!(out.contains("seed 77"), "serve output: {out}");
    // The repair banner and per-shard writer timings must surface — for
    // the default (Pareto) family too, which splits an update across the
    // spine and its tree through the interval-clamped decomposition.
    assert!(out.contains("repair: inline"), "serve output: {out}");
    assert!(out.contains("stable-tree shards (pareto family"), "serve output: {out}");
    assert!(out.contains("trees touched/skipped"), "serve output: {out}");
}

#[test]
fn serve_with_state_dir_recovers_on_the_next_boot() {
    let scratch = Scratch::new();
    let graph = scratch.path("durable.gr");
    let state = scratch.path("state");
    stdout_of(&stl(&["gen", &graph, "--vertices", "200", "--seed", "33"]));

    let serve = |ops: &str| {
        stdout_of(&stl(&[
            "serve",
            &graph,
            "--state-dir",
            &state,
            "--fsync",
            "always",
            "--readers",
            "1",
            "--ops",
            ops,
            "--update-fraction",
            "0.05",
            "--batch-size",
            "2",
            "--seed",
            "7",
        ]))
    };
    // First run: fresh state dir, clean shutdown writes a final checkpoint.
    let out = serve("400");
    assert!(out.contains("durability: state dir"), "serve output: {out}");
    assert!(
        out.contains("checkpoints: after 12 quiet epochs (≤ 2 % of chunks copied each)"),
        "serve output: {out}"
    );
    assert!(out.contains("recovery: no checkpoint"), "first boot is fresh: {out}");
    assert!(out.contains("checkpoints"), "closing stats must count checkpoints: {out}");

    // Second run on the same dir: boots from that checkpoint.
    let out = serve("200");
    assert!(out.contains("recovery: checkpoint at generation"), "second boot recovers: {out}");
}

#[test]
fn serve_rejects_bad_flags() {
    let out = stl(&["serve", "/nonexistent.gr"]);
    assert_eq!(out.status.code(), Some(1));
    // Invalid values exit 1 with a clean message, never a panic (code 101).
    for bad in [
        vec!["serve", "x.gr", "--algo", "quantum"],
        vec!["serve", "x.gr", "--readers", "0"],
        vec!["serve", "x.gr", "--batch-size", "0"],
        vec!["serve", "x.gr", "--update-fraction", "1.5"],
        vec!["serve", "x.gr", "--net-readers", "0"],
        vec!["serve", "x.gr", "--listen", "not-an-address", "--duration-secs", "1"],
        vec!["serve", "x.gr", "--fsync", "sometimes"],
        vec!["serve", "x.gr", "--fsync", "every:0"],
    ] {
        let out = stl(&bad);
        assert_eq!(out.status.code(), Some(1), "args: {bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error:"), "args: {bad:?}");
    }
    // Knobs of machinery that is gone are unknown flags: repair runs inline
    // on the writer, and nothing compacts (the checkpoint schedule is fixed).
    for flag in ["--repair-threads", "--compact-quiet-epochs", "--compact-dirty-ratio"] {
        let out = stl(&["serve", "x.gr", flag, "1"]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag '{flag}'")), "{flag}: {err}");
    }
}

#[test]
fn serve_listen_answers_over_tcp() {
    use std::io::BufRead;

    let scratch = Scratch::new();
    let graph = scratch.path("net.gr");
    stdout_of(&stl(&["gen", &graph, "--vertices", "250", "--seed", "21"]));

    // Ephemeral port: the child prints the bound address once it is up.
    let mut child = Command::new(env!("CARGO_BIN_EXE_stl"))
        .args([
            "serve",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--duration-secs",
            "60",
            "--batch-latency-ms",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn stl serve --listen");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read child stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };

    let g = {
        let f = std::fs::File::open(&graph).unwrap();
        stl_graph::io::read_dimacs_gr(std::io::BufReader::new(f)).unwrap()
    };
    let oracle = stl_core::Stl::build(&g, &stl_core::StlConfig::default());
    let endpoint: stl_server::Endpoint = addr.parse().expect("parse announced endpoint");
    let mut client =
        stl_server::NetClient::connect_retry(&endpoint, std::time::Duration::from_secs(10))
            .expect("connect to child server");

    // Queries over TCP answer from the same index the oracle built.
    assert_eq!(client.query(0, 249).unwrap(), oracle.query(0, 249));
    assert_eq!(client.query(16, 202).unwrap(), oracle.query(16, 202));

    // A real edge updates and publishes; a nonexistent one is rejected
    // without killing the server.
    let (a, b, w) =
        g.edges().find(|&(_, _, w)| w < stl_graph::INF - 1).expect("graph has a finite edge");
    let applied = client.update(&[stl_graph::EdgeUpdate::new(a, b, w + 1)]).unwrap();
    assert!(applied.applied, "reason: {}", applied.reason);
    let non_edge = (0..250u32)
        .flat_map(|x| (0..250u32).map(move |y| (x, y)))
        .find(|&(x, y)| x != y && !g.has_edge(x, y))
        .expect("a sparse road network has non-edges");
    let rejected = client.update(&[stl_graph::EdgeUpdate::new(non_edge.0, non_edge.1, 5)]).unwrap();
    assert!(!rejected.applied);
    assert!(rejected.reason.contains("no edge"), "reason: {}", rejected.reason);
    assert_eq!(client.query(0, 249).unwrap(), {
        // Still serving, now from the post-update epoch.
        let mut g2 = g.clone();
        g2.set_weight(a, b, w + 1).unwrap();
        stl_core::Stl::build(&g2, &stl_core::StlConfig::default()).query(0, 249)
    });

    // The open-loop client mode drives the same server and reports
    // percentiles and rejection counts.
    let out = stdout_of(&stl(&[
        "bench-net",
        &addr,
        &graph,
        "--rate",
        "3000",
        "--ops",
        "1500",
        "--clients",
        "2",
        "--update-fraction",
        "0.01",
        "--seed",
        "5",
    ]));
    assert!(out.contains("req/s achieved"), "bench-net output: {out}");
    assert!(out.contains("queries:"), "bench-net output: {out}");
    assert!(out.contains("updates:"), "bench-net output: {out}");
    assert!(out.contains("p99"), "bench-net output: {out}");

    child.kill().expect("stop child server");
    let _ = child.wait();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = stl(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = stl(&["query", "/nonexistent.gr", "/nonexistent.stl", "1", "2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}
