//! Serving deployments the harness drives from outside: one server behind a
//! unix-socket `NetServer`, or two shard workers behind a `Router` +
//! `RouterServer`. Everything runs inside the harness process (one process
//! per workload keeps `rss_peak_mb` per workload) and is reached only
//! through the layers' public functions.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use stl_core::ShardSet;
use stl_server::{
    DurabilityConfig, Endpoint, NetServer, NetStats, RecoveryReport, Router, RouterConfig,
    RouterServer, RouterStats, ServerConfig, ServerStats, StlServer,
};

use crate::world::{self, net_config, World, FSYNC};

/// Shape of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `StlServer` behind one `NetServer`.
    Direct,
    /// Two shard workers (`ShardSet::for_worker(h, k, 2)`), each a
    /// `NetServer`, behind `Router::connect` + `RouterServer`.
    Routed,
}

/// A running deployment.
pub struct Deployment {
    /// One server ([`Topology::Direct`]) or the two workers.
    pub servers: Vec<Arc<StlServer>>,
    nets: Vec<NetServer>,
    front: Option<RouterServer>,
    /// Where clients connect: the server's socket, or the router's.
    pub endpoint: Endpoint,
    /// State directory per server; empty when not durable.
    pub state_dirs: Vec<PathBuf>,
    /// Seconds from first call to accepting connections.
    pub start_s: f64,
}

/// Counters collected from a deployment as it is shut down.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Per server, in [`Deployment::servers`] order.
    pub servers: Vec<ServerStats>,
    pub nets: Vec<NetStats>,
    pub router: Option<RouterStats>,
    /// Seconds the `StlServer::shutdown` calls took (on a durable server:
    /// the final checkpoint).
    pub shutdown_s: f64,
}

/// The pinned server configuration, with the quiescence-triggered
/// compaction at its shipped default or off (see
/// `workloads::Spec::compaction`).
pub fn server_config(compaction: bool) -> ServerConfig {
    let mut cfg = world::server_config();
    if !compaction {
        cfg.compact_after_quiet_epochs = 0;
    }
    cfg
}

/// Restart a durable server from `state_dir` over a fresh copy of the
/// generation-0 world; returns it with what recovery found and how long the
/// restart took.
pub fn recover(
    world: &World,
    state_dir: &Path,
    compaction: bool,
) -> io::Result<(StlServer, RecoveryReport, f64)> {
    let durability = DurabilityConfig { state_dir: state_dir.to_path_buf(), fsync: FSYNC };
    let t = Instant::now();
    let (server, report) = StlServer::start_durable(
        world.g.clone(),
        world.stl.clone(),
        server_config(compaction),
        durability,
    )?;
    Ok((server, report, t.elapsed().as_secs_f64()))
}

impl Deployment {
    /// Start a deployment over clones of `world` (copy-on-write, so the
    /// world itself stays at generation 0), configured by
    /// [`server_config`]. Sockets and state directories live under `dir`
    /// and are named after `tag`.
    pub fn start(
        world: &World,
        topology: Topology,
        durable: bool,
        compaction: bool,
        dir: &Path,
        tag: &str,
    ) -> io::Result<Deployment> {
        let t = Instant::now();
        let workers = match topology {
            Topology::Direct => 1,
            Topology::Routed => 2,
        };
        let mut servers = Vec::new();
        let mut nets = Vec::new();
        let mut state_dirs = Vec::new();
        for k in 0..workers {
            let mut cfg = server_config(compaction);
            if topology == Topology::Routed {
                cfg.owned_shards = Some(ShardSet::for_worker(world.stl.hierarchy(), k, workers));
            }
            let (g, stl) = (world.g.clone(), world.stl.clone());
            let server = if durable {
                let state = dir.join(format!("{tag}-state{k}"));
                // A previous run's state would be recovered, not ignored.
                let _ = std::fs::remove_dir_all(&state);
                let durability = DurabilityConfig { state_dir: state.clone(), fsync: FSYNC };
                state_dirs.push(state);
                StlServer::start_durable(g, stl, cfg, durability)?.0
            } else {
                StlServer::start(g, stl, cfg)
            };
            let server = Arc::new(server);
            let listen = format!("unix:{}", dir.join(format!("{tag}-{k}.sock")).display());
            nets.push(NetServer::start(Arc::clone(&server), &listen, net_config())?);
            servers.push(server);
        }
        let (front, endpoint) = match topology {
            Topology::Direct => (None, nets[0].local_addr()),
            Topology::Routed => {
                let endpoints: Vec<Endpoint> = nets.iter().map(NetServer::local_addr).collect();
                let router = Router::connect(world.g.clone(), &endpoints, RouterConfig::default())?;
                let listen = format!("unix:{}", dir.join(format!("{tag}-front.sock")).display());
                let front = RouterServer::start(Arc::new(router), &listen)?;
                let endpoint = front.local_addr();
                (Some(front), endpoint)
            }
        };
        Ok(Deployment {
            servers,
            nets,
            front,
            endpoint,
            state_dirs,
            start_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Block until every server has processed everything submitted so far.
    pub fn drain(&self) {
        self.servers.iter().for_each(|s| s.drain());
    }

    /// Stop front, transports and servers in that order, joining every
    /// thread, and hand back the final counters.
    pub fn shutdown(self) -> Counters {
        let router = self.front.as_ref().map(|f| f.router().local_stats());
        if let Some(front) = self.front {
            // Dropping the router closes its worker connections.
            front.shutdown();
        }
        let nets: Vec<NetStats> = self.nets.into_iter().map(NetServer::shutdown).collect();
        let t = Instant::now();
        let servers = self
            .servers
            .into_iter()
            .map(|s| match Arc::try_unwrap(s) {
                Ok(server) => server.shutdown(),
                Err(_) => panic!("a thread still holds the server after transport shutdown"),
            })
            .collect();
        Counters { servers, nets, router, shutdown_s: t.elapsed().as_secs_f64() }
    }
}
