//! Checkpointing, recovery, and the idempotency dedup window.
//!
//! A durable server keeps two files in its `--state-dir`:
//!
//! * **`checkpoint`** — a full dump of the served world: graph edge weights,
//!   the STL index (via `stl_core::persist`), the published generation, and
//!   the idempotency dedup window. Written with a temp-file + atomic-rename
//!   protocol, so the file on disk is always a *complete* checkpoint — the
//!   old one or the new one, never a torn hybrid.
//! * **`wal`** — the write-ahead log of accepted batches since that
//!   checkpoint (see [`crate::wal`]).
//!
//! ## Checkpoint lifecycle
//!
//! The writer checkpoints after a streak of [`CHECKPOINT_QUIET_EPOCHS`]
//! quiet epochs (each copying at most [`CHECKPOINT_QUIET_RATIO`] of the
//! chunks) and on clean shutdown: dump state, fsync, rename into place,
//! fsync the directory, then atomically reset the WAL. A crash at *any*
//! instant leaves a recoverable pair: before the rename, recovery uses the
//! old checkpoint plus the full WAL; between the rename and the WAL reset,
//! replay skips every record whose sequence number the new checkpoint
//! already covers.
//!
//! ## Recovery
//!
//! `recover` loads the checkpoint (if any) over the freshly built/loaded
//! world, replays the WAL tail through the normal sharded-repair path, and
//! truncates the log at the first torn or corrupt record. The result is
//! bit-identical to a process that never crashed: labels store canonical
//! subgraph distances, so replaying the same accepted batches reproduces
//! the same arena bytes (`tests/crash_recovery.rs` pins this).

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::PathBuf;

use stl_core::{failpoint, persist, EnginePool, Stl};
use stl_graph::CsrGraph;

use crate::server::{validate_batch, ServerConfig};
use crate::wal::{self, crc32, get_u64, put_u64, sync_parent_dir, FsyncPolicy, WalWriter};

const CKPT_MAGIC: &[u8; 8] = b"STLCKPT1";

/// Consecutive quiet epochs after which a durable writer checkpoints and
/// resets its WAL. Twelve waits for traffic to have genuinely gone quiet, not
/// for a gap between two bursts: a checkpoint writes the whole world.
pub const CHECKPOINT_QUIET_EPOCHS: u32 = 12;

/// An epoch is *quiet* when its batch copied at most this share of the
/// index's and the graph's copy-on-write chunks — under 2 % of the world
/// rewritten. A batch normalised away to nothing copies none, so it is
/// always quiet.
pub const CHECKPOINT_QUIET_RATIO: f64 = 0.02;

/// The durable writer's checkpoint schedule: a count of consecutive quiet
/// epochs that asks for a checkpoint every [`CHECKPOINT_QUIET_EPOCHS`]th one.
#[derive(Debug, Default)]
pub(crate) struct QuietStreak(u32);

impl QuietStreak {
    /// Count one published epoch whose batch copied `copied` of `total`
    /// chunks. Returns whether it completes a streak — then the writer
    /// checkpoints, and the count starts over. A copying epoch resets it.
    pub(crate) fn checkpoint_due(&mut self, copied: u64, total: usize) -> bool {
        let quiet = copied as f64 / total.max(1) as f64 <= CHECKPOINT_QUIET_RATIO;
        self.0 = if quiet { self.0 + 1 } else { 0 };
        if self.0 < CHECKPOINT_QUIET_EPOCHS {
            return false;
        }
        self.0 = 0;
        true
    }
}

/// Where the durability layer keeps its state and how hard it flushes.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `checkpoint` and `wal`. Created if absent.
    pub state_dir: PathBuf,
    /// When WAL appends reach stable storage (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// Durability rooted at `state_dir` with [`FsyncPolicy::Always`].
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self { state_dir: state_dir.into(), fsync: FsyncPolicy::Always }
    }

    /// Path of the checkpoint file.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.state_dir.join("checkpoint")
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.state_dir.join("wal")
    }
}

/// What `recover` found and did, reported once at boot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation restored from the checkpoint (`None`: no checkpoint, the
    /// server booted from the caller's freshly built/loaded world).
    pub checkpoint_generation: Option<u64>,
    /// WAL records replayed through the repair path (records the checkpoint
    /// already covered are skipped, not replayed).
    pub wal_records_replayed: u64,
    /// WAL records skipped because their sequence number was at or below
    /// the checkpoint's generation (crash between checkpoint rename and WAL
    /// reset leaves such records behind; they are redundant, not lost).
    pub wal_records_skipped: u64,
    /// Whether a torn/corrupt WAL tail was found and truncated.
    pub wal_torn_tail: bool,
    /// The generation the server resumes serving from.
    pub generation: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.checkpoint_generation {
            Some(g) => write!(f, "checkpoint at generation {g}")?,
            None => write!(f, "no checkpoint")?,
        }
        write!(
            f,
            ", replayed {} wal record(s) ({} skipped){} -> generation {}",
            self.wal_records_replayed,
            self.wal_records_skipped,
            if self.wal_torn_tail { ", torn tail truncated" } else { "" },
            self.generation
        )
    }
}

/// Bounded map of idempotency keys to the generation that applied them.
///
/// A client retrying an update (after a timeout, a dropped connection, or a
/// writer restart) resubmits the same key; a hit here means the batch is
/// already published, so the retry is acknowledged without re-applying —
/// the guarantee that makes retries safe. The window is bounded (eviction
/// is FIFO by first insertion) because keys, like rejection reasons, must
/// not grow server memory without bound; a key older than the window's
/// capacity of distinct later keys can in principle re-apply, so clients
/// should retry promptly, not days later.
#[derive(Debug)]
pub struct DedupWindow {
    map: HashMap<u64, u64>,
    order: VecDeque<u64>,
    cap: usize,
}

impl DedupWindow {
    /// Window retaining at most `cap` keys (`cap = 0` disables dedup).
    pub fn new(cap: usize) -> Self {
        Self { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    /// The generation that applied `key`, if it is still in the window.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Record that `key` was applied by generation `seq`. Returns how many
    /// old keys were evicted to make room.
    pub fn insert(&mut self, key: u64, seq: u64) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        if self.map.insert(key, seq).is_none() {
            self.order.push_back(key);
        }
        let mut evicted = 0;
        while self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                evicted += 1;
            }
        }
        evicted
    }

    /// Number of keys currently retained.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the window holds no keys.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `(key, generation)` pairs, oldest first — the checkpoint serializes
    /// these so the window survives restarts.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.order.iter().map(|k| (*k, self.map[k]))
    }
}

/// State restored from a checkpoint file.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    pub generation: u64,
    pub stl: Stl,
    /// Dedup entries oldest-first.
    pub dedup: Vec<(u64, u64)>,
}

/// Write a checkpoint of the served world into `cfg.state_dir`, atomically.
///
/// The weights of `graph` are stored in `graph.edges()` iteration order —
/// deterministic for a given topology — and re-applied positionally on
/// load, so only the weights travel, never the topology (road-network
/// structure is fixed; the graph file remains the topology's source of
/// truth). The `checkpoint-rename` failpoint fires between writing the temp
/// file and renaming it into place.
pub(crate) fn write_checkpoint(
    cfg: &DurabilityConfig,
    graph: &CsrGraph,
    stl: &Stl,
    generation: u64,
    dedup: &DedupWindow,
) -> io::Result<u64> {
    let mut payload = Vec::new();
    put_u64(&mut payload, generation);
    let weights: Vec<u32> = graph.edges().map(|(_, _, w)| w).collect();
    put_u64(&mut payload, weights.len() as u64);
    for w in weights {
        wal::put_u32(&mut payload, w);
    }
    put_u64(&mut payload, dedup.len() as u64);
    for (key, seq) in dedup.entries() {
        put_u64(&mut payload, key);
        put_u64(&mut payload, seq);
    }
    let index = persist::save(stl);
    put_u64(&mut payload, index.len() as u64);
    payload.extend_from_slice(&index);

    let path = cfg.checkpoint_path();
    let tmp = path.with_extension("tmp");
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    f.write_all(CKPT_MAGIC)?;
    f.write_all(&crc32(&payload).to_le_bytes())?;
    f.write_all(&payload)?;
    f.sync_all()?;
    drop(f);
    failpoint::fire("checkpoint-rename");
    std::fs::rename(&tmp, &path)?;
    sync_parent_dir(&path)?;
    Ok(8 + 4 + payload.len() as u64)
}

/// Load the checkpoint from `cfg.state_dir`, applying its weights onto
/// `graph` in place. `Ok(None)` when no checkpoint exists. A checkpoint
/// that fails its magic/CRC/shape checks is an error: the WAL was reset
/// when it was written, so its contents cannot be reconstructed from
/// anywhere else — silently booting from genesis would resurrect stale
/// distances.
pub(crate) fn load_checkpoint(
    cfg: &DurabilityConfig,
    graph: &mut CsrGraph,
) -> io::Result<Option<Checkpoint>> {
    let mut bytes = Vec::new();
    match File::open(cfg.checkpoint_path()) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let corrupt = |what: &str| {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt checkpoint: {what}"))
    };
    if bytes.len() < 12 || &bytes[..8] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(corrupt("crc mismatch"));
    }
    let mut p = payload;
    let generation = get_u64(&mut p).ok_or_else(|| corrupt("truncated header"))?;
    let nweights = get_u64(&mut p).ok_or_else(|| corrupt("truncated weights"))? as usize;
    if p.len() / 4 < nweights {
        return Err(corrupt("short weight array"));
    }
    let mut weights = Vec::with_capacity(nweights);
    for _ in 0..nweights {
        weights.push(wal::get_u32(&mut p).unwrap());
    }
    let ndedup = get_u64(&mut p).ok_or_else(|| corrupt("truncated dedup"))? as usize;
    if p.len() / 16 < ndedup {
        return Err(corrupt("short dedup array"));
    }
    let mut dedup = Vec::with_capacity(ndedup);
    for _ in 0..ndedup {
        let key = get_u64(&mut p).unwrap();
        let seq = get_u64(&mut p).unwrap();
        dedup.push((key, seq));
    }
    let nindex = get_u64(&mut p).ok_or_else(|| corrupt("truncated index length"))? as usize;
    if p.len() != nindex {
        return Err(corrupt("index length mismatch"));
    }
    let stl = persist::load(p).map_err(|e| corrupt(&e.to_string()))?;
    // Queries are range-checked against the graph, so an index over a
    // different vertex set would be read out of bounds.
    if stl.num_vertices() != graph.num_vertices() {
        return Err(corrupt("index vertex count does not match the loaded graph"));
    }
    // Weights are positional over the deterministic edge order; a count
    // mismatch means the checkpoint belongs to a different topology.
    let edges: Vec<_> = graph.edges().collect();
    if edges.len() != weights.len() {
        return Err(corrupt("edge count does not match the loaded graph"));
    }
    for ((a, b, _), w) in edges.into_iter().zip(weights) {
        graph.set_weight(a, b, w).map_err(|e| corrupt(&e.to_string()))?;
    }
    Ok(Some(Checkpoint { generation, stl, dedup }))
}

/// Everything [`recover`] hands back to the server constructor.
pub(crate) struct Recovered {
    pub graph: CsrGraph,
    pub stl: Stl,
    pub generation: u64,
    pub dedup: DedupWindow,
    pub wal: WalWriter,
    pub report: RecoveryReport,
}

/// Boot-time recovery: overlay the checkpoint, replay the WAL tail through
/// the normal sharded-repair path, truncate crash debris, and open the WAL
/// for appending.
///
/// `graph`/`stl` are the freshly built or loaded world (generation 0) the
/// durable state overlays. Replay re-validates every record before
/// applying it — a record that no longer validates (possible only if the
/// operator swapped the graph file for a different topology) is an error,
/// not a panic.
pub(crate) fn recover(
    cfg: &DurabilityConfig,
    server_cfg: &ServerConfig,
    mut graph: CsrGraph,
    mut stl: Stl,
) -> io::Result<Recovered> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let mut report = RecoveryReport::default();
    let mut dedup = DedupWindow::new(server_cfg.dedup_window);
    let mut generation = 0u64;
    if let Some(ckpt) = load_checkpoint(cfg, &mut graph)? {
        generation = ckpt.generation;
        stl = ckpt.stl;
        for (key, seq) in ckpt.dedup {
            dedup.insert(key, seq);
        }
        report.checkpoint_generation = Some(generation);
    }
    let replayed = wal::replay(&cfg.wal_path())?;
    report.wal_torn_tail = replayed.torn;
    let mut pool = EnginePool::new();
    for rec in replayed.records {
        // A record the checkpoint already covers (crash between the
        // checkpoint rename and the WAL reset) is redundant — skip it.
        if rec.seq <= generation {
            report.wal_records_skipped += 1;
            continue;
        }
        validate_batch(&graph, &rec.updates).map_err(|why| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wal record {} no longer validates against the graph: {why}", rec.seq),
            )
        })?;
        // Replay through the same ownership filter the serving loop uses: a
        // respawned shard worker repairs only the spine and its owned
        // subtrees, exactly reproducing its pre-crash serving state.
        stl.apply_batch_sharded_owned(
            &mut graph,
            &rec.updates,
            server_cfg.algo,
            &mut pool,
            server_cfg.owned_shards.as_ref(),
        );
        generation = rec.seq;
        for key in rec.keys {
            dedup.insert(key, rec.seq);
        }
        report.wal_records_replayed += 1;
    }
    // Replay wrote through the COW stores; drain the accounting so the
    // serving loop's first epoch doesn't inherit boot-time copies.
    stl.take_cow_stats();
    graph.take_cow_stats();
    report.generation = generation;
    let wal = WalWriter::open(&cfg.wal_path(), cfg.fsync, replayed.valid_len)?;
    Ok(Recovered { graph, stl, generation, dedup, wal, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use stl_core::{StlConfig, UpdateEngine};
    use stl_graph::builder::from_edges;
    use stl_graph::EdgeUpdate;
    use stl_workloads::{generate, RoadNetConfig};

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "stl-durable-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
        fn cfg(&self) -> DurabilityConfig {
            DurabilityConfig::new(&self.0)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn world() -> (CsrGraph, Stl) {
        let g = generate(&RoadNetConfig::sized(120, 19));
        let stl = Stl::build(&g, &StlConfig::default());
        (g, stl)
    }

    #[test]
    fn checkpoint_roundtrip_restores_weights_index_and_dedup() {
        let s = Scratch::new("roundtrip");
        let (mut g, mut stl) = world();
        let mut eng = UpdateEngine::new(g.num_vertices());
        let edges: Vec<_> = g.edges().take(4).collect();
        for &(a, b, w) in &edges {
            stl.apply_batch(
                &mut g,
                &[EdgeUpdate::new(a, b, w * 3)],
                stl_core::Maintenance::ParetoSearch,
                &mut eng,
            );
        }
        let mut dedup = DedupWindow::new(16);
        dedup.insert(11, 3);
        dedup.insert(22, 4);
        write_checkpoint(&s.cfg(), &g, &stl, 4, &dedup).unwrap();

        let (mut fresh_g, _) = world();
        let ckpt = load_checkpoint(&s.cfg(), &mut fresh_g).unwrap().unwrap();
        assert_eq!(ckpt.generation, 4);
        assert_eq!(ckpt.dedup, vec![(11, 3), (22, 4)]);
        // Weights restored positionally onto the fresh topology.
        for ((a1, b1, w1), (a2, b2, w2)) in g.edges().zip(fresh_g.edges()) {
            assert_eq!((a1, b1, w1), (a2, b2, w2));
        }
        // The restored index is bit-identical to the checkpointed one.
        assert_eq!(persist::save(&stl), persist::save(&ckpt.stl));
        stl_core::verify::check_all(&ckpt.stl, &fresh_g).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let s = Scratch::new("missing");
        let (mut g, _) = world();
        assert!(load_checkpoint(&s.cfg(), &mut g).unwrap().is_none());
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_silent_genesis() {
        let s = Scratch::new("corrupt");
        let (mut g, stl) = world();
        write_checkpoint(&s.cfg(), &g, &stl, 1, &DedupWindow::new(4)).unwrap();
        let path = s.cfg().checkpoint_path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&s.cfg(), &mut g).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("crc mismatch"), "got: {err}");
        // Bad magic likewise.
        std::fs::write(&path, b"NOTACKPT----------------").unwrap();
        let err = load_checkpoint(&s.cfg(), &mut g).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "got: {err}");
    }

    #[test]
    fn checkpoint_over_another_vertex_count_is_refused() {
        let s = Scratch::new("vertices");
        let (g, stl) = world();
        write_checkpoint(&s.cfg(), &g, &stl, 1, &DedupWindow::new(4)).unwrap();
        // Same edges, one more (isolated) vertex: the edge-count check alone
        // would accept it.
        let mut wider = from_edges(g.num_vertices() + 1, g.edges());
        let err = load_checkpoint(&s.cfg(), &mut wider).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("index vertex count"), "got: {err}");
    }

    #[test]
    fn recover_replays_only_past_the_checkpoint() {
        let s = Scratch::new("skip");
        let (g0, stl0) = world();
        let (mut g, mut stl) = (g0.clone(), stl0.clone());
        let mut eng = UpdateEngine::new(g.num_vertices());
        let edges: Vec<_> = g.edges().step_by(3).take(3).collect();
        let cfg = s.cfg();
        let scfg = ServerConfig::default();
        let mut wal = WalWriter::open(&cfg.wal_path(), FsyncPolicy::Always, 0).unwrap();
        // Apply+log seqs 1..=3, checkpoint after seq 2, but "crash" before
        // the WAL reset: records 1 and 2 linger and must be skipped.
        for (i, &(a, b, w)) in edges.iter().enumerate() {
            let seq = i as u64 + 1;
            let batch = vec![EdgeUpdate::new(a, b, w + 7)];
            wal.append(seq, &[100 + seq], &batch).unwrap();
            wal.sync().unwrap();
            stl.apply_batch(&mut g, &batch, scfg.algo, &mut eng);
            if seq == 2 {
                write_checkpoint(&cfg, &g, &stl, 2, &DedupWindow::new(64)).unwrap();
            }
        }
        let rec = recover(&cfg, &scfg, g0.clone(), stl0.clone()).unwrap();
        assert_eq!(rec.report.checkpoint_generation, Some(2));
        assert_eq!(rec.report.wal_records_skipped, 2);
        assert_eq!(rec.report.wal_records_replayed, 1);
        assert!(!rec.report.wal_torn_tail);
        assert_eq!(rec.generation, 3);
        // Replayed keys land in the dedup window alongside nothing else
        // (the checkpoint's window was empty).
        assert_eq!(rec.dedup.get(103), Some(3));
        assert_eq!(rec.dedup.get(101), None, "covered records must not re-insert keys");
        // Recovered state is bit-identical to the in-memory twin.
        assert_eq!(persist::save(&rec.stl), persist::save(&stl));
        let report_text = rec.report.to_string();
        assert!(report_text.contains("checkpoint at generation 2"), "got: {report_text}");
    }

    #[test]
    fn recover_without_any_state_is_generation_zero() {
        let s = Scratch::new("genesis");
        let (g, stl) = world();
        let rec = recover(&s.cfg(), &ServerConfig::default(), g, stl).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.report.checkpoint_generation, None);
        assert_eq!(rec.report.wal_records_replayed, 0);
        assert!(rec.wal.is_empty());
    }

    #[test]
    fn dedup_window_evicts_fifo_and_counts() {
        let mut w = DedupWindow::new(3);
        assert_eq!(w.insert(1, 10), 0);
        assert_eq!(w.insert(2, 11), 0);
        assert_eq!(w.insert(3, 12), 0);
        assert_eq!(w.insert(4, 13), 1); // evicts key 1
        assert_eq!(w.get(1), None);
        assert_eq!(w.get(4), Some(13));
        assert_eq!(w.len(), 3);
        // Re-inserting an existing key refreshes its seq without growing.
        assert_eq!(w.insert(3, 20), 0);
        assert_eq!(w.get(3), Some(20));
        assert_eq!(w.len(), 3);
        // Capacity 0 disables retention entirely.
        let mut off = DedupWindow::new(0);
        assert_eq!(off.insert(9, 1), 0);
        assert_eq!(off.get(9), None);
        assert!(off.is_empty());
    }
}
