//! Out-of-process crash recovery: a real `stl serve --listen --state-dir`
//! child killed with real signals at points chosen by the `STL_FAILPOINTS`
//! environment hook, then restarted on the same state dir. The invariants,
//! checked over TCP against an in-process oracle:
//!
//! * every update the server **acknowledged applied** survives the kill
//!   (`--fsync always`), including kills mid-checkpoint;
//! * an update whose ack was lost to the crash can be **retried with its
//!   idempotency key** and is applied exactly once;
//! * recovered distances equal an `Stl` built fresh on the graph holding
//!   exactly the acknowledged updates.
//!
//! The SIGKILL sweep is release-gated (index rebuilds per restart are slow
//! in debug); the failpoint matrix and the SIGTERM clean-landing test run in
//! both profiles on a small graph.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use stl_graph::{CsrGraph, EdgeUpdate};
use stl_server::{NetClient, RetryPolicy, CHECKPOINT_QUIET_EPOCHS};

/// Unique scratch directory, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("stl-crashcli-{tag}-{}-{id}", std::process::id()));
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

/// A spawned `stl serve --listen` child, the address it bound, and what its
/// boot-time recovery reported.
struct Server {
    child: Child,
    addr: String,
    recovery: String,
}

impl Server {
    /// Spawn `stl serve` on an ephemeral port with the given state dir and
    /// extra env (failpoints), and wait for its `listening on` banner.
    fn spawn(graph: &str, state_dir: &str, failpoints: Option<&str>) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_stl"));
        cmd.args([
            "serve",
            graph,
            "--listen",
            "127.0.0.1:0",
            "--state-dir",
            state_dir,
            "--fsync",
            "always",
            "--batch-latency-ms",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        match failpoints {
            Some(spec) => cmd.env(stl_core::failpoint::ENV, spec),
            None => cmd.env_remove(stl_core::failpoint::ENV),
        };
        let mut child = cmd.spawn().expect("spawn stl serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let mut recovery = String::new();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before announcing its address")
                .expect("read child stdout");
            if let Some(rest) = line.strip_prefix("recovery: ") {
                recovery = rest.to_string();
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.trim().to_string();
            }
        };
        // Keep draining stdout on a helper thread so the child never blocks
        // on a full pipe; the final lines are collected via wait_banner.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        Server { child, addr, recovery }
    }

    fn connect(&self) -> NetClient {
        let endpoint = self.addr.parse().expect("parse announced endpoint");
        NetClient::connect_retry(&endpoint, Duration::from_secs(10))
            .expect("connect to child server")
    }

    /// `kill -9`, reaped.
    fn sigkill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn gen_graph(scratch: &Scratch, vertices: u32, seed: u64) -> (String, CsrGraph) {
    let path = scratch.path("net.gr");
    let out = Command::new(env!("CARGO_BIN_EXE_stl"))
        .args(["gen", &path, "--vertices", &vertices.to_string(), "--seed", &seed.to_string()])
        .output()
        .expect("run stl gen");
    assert!(out.status.success(), "stl gen failed");
    let f = std::fs::File::open(&path).expect("open generated graph");
    let g = stl_graph::io::read_dimacs_gr(std::io::BufReader::new(f)).expect("parse graph");
    (path, g)
}

/// Deterministic per-step single-edge updates over existing edges.
fn planned_updates(g: &CsrGraph, count: usize) -> Vec<EdgeUpdate> {
    let edges: Vec<(u32, u32, u32)> = g.edges().collect();
    (0..count)
        .map(|i| {
            let (a, b, w) = edges[(i * 13 + 5) % edges.len()];
            EdgeUpdate::new(a, b, (w % 83) + 1 + i as u32)
        })
        .collect()
}

/// `count` copies of an update that re-sets an edge of `g` to its weight in
/// `g`. The server normalises it away, so its epoch copies no chunk: every
/// one is a quiet epoch, and [`CHECKPOINT_QUIET_EPOCHS`] in a row checkpoint.
fn noop_updates(g: &CsrGraph, count: usize) -> Vec<EdgeUpdate> {
    let (a, b, w) = g.edges().next().expect("graph has edges");
    vec![EdgeUpdate::new(a, b, w); count]
}

/// Check a handful of distances served by `client` against an `Stl` built
/// fresh on `mirror` (the graph with exactly the acknowledged updates).
fn assert_matches_oracle(client: &mut NetClient, mirror: &CsrGraph, context: &str) {
    let oracle = stl_core::Stl::build(mirror, &stl_core::StlConfig::default());
    let n = mirror.num_vertices() as u32;
    for i in 0..24u32 {
        let (s, t) = ((i * 19) % n, (i * 31 + 3) % n);
        assert_eq!(
            client.query(s, t).expect("query recovered server"),
            oracle.query(s, t),
            "{context}: d({s},{t}) diverged from the acknowledged-updates oracle"
        );
    }
}

/// For every failpoint on the durable write path, kill the serving process
/// at that point with an injected `exit`, restart it on the same state dir,
/// resend the in-doubt update under its idempotency key, and verify the
/// final state equals the acknowledged-updates oracle with the update
/// applied exactly once.
#[test]
fn failpoint_kill_restart_preserves_acked_updates_and_dedups_retries() {
    let scratch = Scratch::new("fp");
    let (graph_path, g) = gen_graph(&scratch, 180, 11);
    let updates = planned_updates(&g, 12);

    for (leg, fp) in
        ["wal-append", "fsync", "publish", "frame-write", "checkpoint-rename"].iter().enumerate()
    {
        let state_dir = scratch.path(&format!("state-{fp}"));
        let mut mirror = g.clone();

        // The other points fire on the first update. checkpoint-rename only
        // fires once a checkpoint happens: after one real update, a streak
        // of no-ops checkpoints at its 12th, and the 13th finds the process
        // gone at the latest.
        let drive: Vec<EdgeUpdate> = if *fp == "checkpoint-rename" {
            let mut after = g.clone();
            after.set_weight(updates[0].a, updates[0].b, updates[0].new_weight).unwrap();
            let noops = noop_updates(&after, CHECKPOINT_QUIET_EPOCHS as usize + 1);
            updates[..1].iter().copied().chain(noops).collect()
        } else {
            updates[..4].to_vec()
        };
        let spec = format!("{fp}=exit");
        let mut server = Server::spawn(&graph_path, &state_dir, Some(&spec));
        let mut client = server.connect();

        // Drive keyed updates until the injected kill severs the connection.
        // Every *acknowledged* apply goes into the mirror; the in-doubt one
        // (send observed an error) is remembered for the keyed retry.
        let mut in_doubt: Option<(u64, EdgeUpdate)> = None;
        let mut acked = 0u64;
        for (i, u) in drive.iter().enumerate() {
            let key = (leg as u64) << 32 | i as u64;
            match client.update_keyed(key, &[*u]) {
                Ok(out) => {
                    assert!(out.applied, "{fp}: unexpected rejection: {}", out.reason);
                    mirror.set_weight(u.a, u.b, u.new_weight).unwrap();
                    acked += 1;
                }
                Err(_) => {
                    in_doubt = Some((key, *u));
                    break;
                }
            }
        }
        assert!(in_doubt.is_some(), "{fp}: the injected exit never fired (acked {acked} updates)");
        server.child.wait_timeout_or_kill();

        // Restart without failpoints and settle the in-doubt update by key.
        let server = Server::spawn(&graph_path, &state_dir, None);
        if *fp == "checkpoint-rename" {
            // The only checkpoint died before its rename: it is invisible.
            assert!(server.recovery.starts_with("no checkpoint"), "{fp}: {}", server.recovery);
        }
        let mut client = server.connect();
        let (key, u) = in_doubt.unwrap();
        let out = client
            .update_keyed_retry(key, &[u], RetryPolicy::default())
            .expect("keyed retry after restart");
        assert!(out.applied, "{fp}: retry must apply or dedup, got {}", out.reason);
        mirror.set_weight(u.a, u.b, u.new_weight).unwrap();

        // Sending the same key again must not apply twice.
        let again = client.update_keyed(key, &[u]).expect("duplicate keyed send");
        assert!(again.applied);
        assert_eq!(again.generation, out.generation, "{fp}: duplicate must ack the original seq");

        assert_matches_oracle(&mut client, &mirror, fp);
        drop(client);
    }
}

/// Tiny extension trait so a dead child is reaped without hanging forever if
/// the injected exit somehow did not happen.
trait WaitHelper {
    fn wait_timeout_or_kill(&mut self);
}

impl WaitHelper for Child {
    fn wait_timeout_or_kill(&mut self) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match self.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = self.kill();
                    let _ = self.wait();
                    return;
                }
            }
        }
    }
}

/// SIGKILL sweep: kill the child at arbitrary moments mid-trace — mid-WAL,
/// around a checkpoint and just after one — restart, and keep going. After
/// the final restart the served distances must equal the
/// acknowledged-updates oracle. Release-gated: each restart rebuilds the
/// index in-process.
#[test]
#[cfg_attr(debug_assertions, ignore = "spawns many index rebuilds: run with --release")]
fn sigkill_sweep_recovers_every_acknowledged_update() {
    let scratch = Scratch::new("sigkill");
    let (graph_path, g) = gen_graph(&scratch, 300, 23);
    let state_dir = scratch.path("state");
    let updates = planned_updates(&g, 30);
    let mut mirror = g.clone();

    // Each round acks a deterministic-but-scattered number of real updates,
    // then `quiet` keyed no-ops, then dies. A real update copies chunks, so
    // the no-ops count from zero; the 12th checkpoints. The kills land
    // mid-WAL (0 or 11 no-ops), around a checkpoint (12: the kill races the
    // checkpoint after the last ack) and just after one (13: the writer
    // finished that checkpoint before it took the 13th).
    let q = CHECKPOINT_QUIET_EPOCHS as usize;
    let rounds = [(3usize, q), (1, 0), (4, q + 1), (2, q - 1), (5, 0)];
    let mut next = 0usize;
    let mut noop_key = 0xB00C_0000u64;
    for (round, (kill_after, quiet)) in rounds.into_iter().enumerate() {
        let server = Server::spawn(&graph_path, &state_dir, None);
        let mut client = server.connect();
        let mut acked_this_round = 0usize;
        while next < updates.len() && acked_this_round < kill_after {
            let u = updates[next];
            let key = 0xB00B_0000 + next as u64;
            let out =
                client.update_keyed_retry(key, &[u], RetryPolicy::default()).expect("keyed update");
            assert!(out.applied, "round {round}: rejection: {}", out.reason);
            mirror.set_weight(u.a, u.b, u.new_weight).unwrap();
            // Interleave reads so the trace is mixed, not update-only.
            let _ = client.query((next as u32 * 7) % 300, (next as u32 * 11 + 1) % 300);
            next += 1;
            acked_this_round += 1;
        }
        for u in noop_updates(&mirror, quiet) {
            noop_key += 1;
            let out = client.update_keyed_retry(noop_key, &[u], RetryPolicy::default());
            assert!(out.expect("keyed no-op").applied, "round {round}: no-op rejected");
        }
        drop(client);
        server.sigkill();
    }

    // Final restart: everything ever acknowledged must still be there, on
    // top of the checkpoint the third round finished at the latest.
    let server = Server::spawn(&graph_path, &state_dir, None);
    assert!(server.recovery.starts_with("checkpoint at generation"), "{}", server.recovery);
    let mut client = server.connect();
    assert_matches_oracle(&mut client, &mirror, "after sigkill sweep");

    // And the remaining updates still apply on the recovered server.
    for (i, u) in updates[next..].iter().enumerate() {
        let key = 0xCAFE_0000 + (next + i) as u64;
        let out = client.update_keyed(key, &[*u]).expect("post-recovery update");
        assert!(out.applied, "post-recovery rejection: {}", out.reason);
        mirror.set_weight(u.a, u.b, u.new_weight).unwrap();
    }
    assert_matches_oracle(&mut client, &mirror, "after post-recovery updates");
}

/// SIGTERM must land cleanly: drain, final checkpoint, closing stats on
/// stdout, exit 0 — and the next boot recovers from the checkpoint with
/// nothing left to replay.
#[test]
#[cfg(unix)]
fn sigterm_drains_checkpoints_and_exits_cleanly() {
    let scratch = Scratch::new("sigterm");
    let (graph_path, g) = gen_graph(&scratch, 150, 31);
    let state_dir = scratch.path("state");
    let updates = planned_updates(&g, 3);

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stl"));
    cmd.args([
        "serve",
        &graph_path,
        "--listen",
        "127.0.0.1:0",
        "--state-dir",
        &state_dir,
        "--fsync",
        "always",
        "--batch-latency-ms",
        "0",
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::null())
    .env_remove(stl_core::failpoint::ENV);
    let mut child = cmd.spawn().expect("spawn stl serve");
    let stdout = child.stdout.take().expect("piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("banner").expect("read");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().to_string();
        }
    };
    let collector =
        std::thread::spawn(move || lines.map_while(Result::ok).collect::<Vec<String>>().join("\n"));

    let endpoint = addr.parse().expect("parse announced endpoint");
    let mut client = NetClient::connect_retry(&endpoint, Duration::from_secs(10)).expect("connect");
    for (i, u) in updates.iter().enumerate() {
        let out = client.update_keyed(i as u64 + 1, &[*u]).expect("update");
        assert!(out.applied, "rejection: {}", out.reason);
    }
    drop(client);

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        assert!(std::time::Instant::now() < deadline, "child ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
    let tail = collector.join().expect("collector");
    assert!(tail.contains("shutdown signal"), "missing shutdown banner:\n{tail}");
    assert!(tail.contains("writer:"), "missing closing stats:\n{tail}");
    assert!(tail.contains("checkpoints"), "closing stats must mention checkpoints:\n{tail}");

    // Reboot: the final checkpoint covers everything, the WAL is empty.
    let server = Server::spawn(&graph_path, &state_dir, None);
    let mut client = server.connect();
    let mut mirror = g.clone();
    for u in &updates {
        mirror.set_weight(u.a, u.b, u.new_weight).unwrap();
    }
    assert_matches_oracle(&mut client, &mirror, "after SIGTERM landing");
}
