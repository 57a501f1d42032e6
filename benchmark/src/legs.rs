//! The three legs every workload is assembled from: in-process reads,
//! in-process writes, and wire traffic. A workload differs from another in
//! how long each leg is, on which graph, and behind which deployment — not
//! in the code that drives it.

use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

use stl_core::{QueryProfile, Stl};
use stl_graph::Dist;
use stl_server::{Endpoint, NetClient, StlServer};

use crate::gen::{Batch, BatchKind, ManyOp, ReadOps, BLOCK};
use crate::trace::Tracer;

/// Samples of an in-process read leg, in the order taken.
#[derive(Debug, Default)]
pub struct ReadSamples {
    /// ns per point query, one sample per [`BLOCK`]-query block.
    pub dist_ns: Vec<f64>,
    /// ns per query of each block's `far` half and `near` half.
    pub far_ns: Vec<f64>,
    pub near_ns: Vec<f64>,
    /// µs per one-to-many probe.
    pub many_us: Vec<f64>,
    /// Point queries plus probes completed.
    pub reads: u64,
    /// Blocks read while the index served its flat path.
    pub flat_blocks: u64,
    /// Seconds spent inside [`Reader::blocks`].
    pub wall_s: f64,
    /// Reads per second of read time, one value per round of the run
    /// ([`Reader::end_round`]).
    pub round_rates: Vec<f64>,
    /// Read-path counters of the profiled extra pass (traced runs only).
    pub profile: QueryProfile,
    /// Folded answers, so the reads cannot be optimised away.
    pub checksum: u64,
}

/// The in-process read leg: cycles through a [`ReadOps`] pool across calls
/// and accumulates the samples of all of them.
pub struct Reader<'a> {
    ops: &'a ReadOps,
    /// Extra queries per block run through `Stl::query_profiled`, outside
    /// the timed section (traced runs).
    profiled: usize,
    next_block: usize,
    next_many: usize,
    /// `reads` and `wall_s` when the current round began.
    round_start: (u64, f64),
    pub samples: ReadSamples,
}

impl<'a> Reader<'a> {
    pub fn new(ops: &'a ReadOps, profiled: usize) -> Self {
        assert!(
            !ops.far.is_empty() && ops.near.len() == ops.far.len(),
            "empty or lopsided pair pool"
        );
        Self {
            ops,
            profiled,
            next_block: 0,
            next_many: 0,
            round_start: (0, 0.0),
            samples: ReadSamples::default(),
        }
    }

    /// Close a round of the run: its reads per second of read time become
    /// one value of [`ReadSamples::round_rates`] (nothing when it read
    /// nothing).
    pub fn end_round(&mut self) {
        let (reads, wall_s) = (self.samples.reads, self.samples.wall_s);
        if reads > self.round_start.0 {
            let rate = (reads - self.round_start.0) as f64 / (wall_s - self.round_start.1);
            self.samples.round_rates.push(rate);
        }
        self.round_start = (reads, wall_s);
    }

    /// Run `blocks` DIST blocks (half `far`, half `near`, timed separately
    /// and together) against `stl`, with one one-to-many probe after every
    /// `many_every` blocks (`0` = none). With an enabled tracer each block
    /// and probe becomes a span.
    pub fn blocks(&mut self, stl: &Stl, blocks: usize, many_every: usize, tracer: &mut Tracer) {
        let (ops, out) = (self.ops, &mut self.samples);
        let half = BLOCK / 2;
        let pool = ops.far.len() / half;
        let flat = stl.is_flat();
        let mut buf: Vec<Dist> = Vec::new();
        let leg_start = Instant::now();
        for i in 0..blocks {
            let b = self.next_block % pool;
            self.next_block += 1;
            let far = &ops.far[b * half..(b + 1) * half];
            let near = &ops.near[b * half..(b + 1) * half];
            let mut acc = 0u64;
            let t0 = Instant::now();
            for &(s, t) in far {
                acc = acc.wrapping_add(u64::from(stl.query(s, t)));
            }
            let t1 = Instant::now();
            for &(s, t) in near {
                acc = acc.wrapping_add(u64::from(stl.query(s, t)));
            }
            let t2 = Instant::now();
            out.checksum = out.checksum.wrapping_add(black_box(acc));
            out.far_ns.push((t1 - t0).as_nanos() as f64 / half as f64);
            out.near_ns.push((t2 - t1).as_nanos() as f64 / half as f64);
            out.dist_ns.push((t2 - t0).as_nanos() as f64 / BLOCK as f64);
            out.reads += BLOCK as u64;
            out.flat_blocks += u64::from(flat);
            tracer.record("core.query.block", t0, t2, None, self.next_block as u64);
            for &(s, t) in far.iter().chain(near).take(self.profiled) {
                black_box(stl.query_profiled(s, t, &mut out.profile));
            }
            if many_every > 0 && (i + 1) % many_every == 0 && !ops.many.is_empty() {
                let ManyOp { s, targets } = &ops.many[self.next_many % ops.many.len()];
                self.next_many += 1;
                let t0 = Instant::now();
                stl.one_to_many_into(*s, targets, &mut buf);
                let t1 = Instant::now();
                out.checksum = out.checksum.wrapping_add(u64::from(black_box(&buf)[0]));
                out.many_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                out.reads += 1;
                tracer.record("core.query.many", t0, t1, None, self.next_many as u64);
            }
        }
        out.wall_s += leg_start.elapsed().as_secs_f64();
    }
}

/// Samples of an in-process write leg.
#[derive(Debug, Default)]
pub struct WriteSamples {
    /// ms from `submit` to `wait_for` returning, per batch in stream order.
    pub batch_ms: Vec<(BatchKind, f64)>,
    /// Edge updates in applied batches.
    pub updates: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl WriteSamples {
    pub fn of_kind(&self, kind: BatchKind) -> Vec<f64> {
        self.batch_ms.iter().filter(|(k, _)| *k == kind).map(|&(_, ms)| ms).collect()
    }

    pub fn total_ms(&self) -> f64 {
        self.batch_ms.iter().map(|&(_, ms)| ms).sum()
    }
}

/// Closed-loop writer: each batch is submitted and waited for
/// (ack-after-publish) before the next. `after_each` runs on the fresh
/// snapshot once the ack is in (the interleaved reads of `update_inproc`).
pub fn write_stream<'a>(
    server: &StlServer,
    stream: impl IntoIterator<Item = &'a Batch>,
    out: &mut WriteSamples,
    tracer: &mut Tracer,
    mut after_each: impl FnMut(&StlServer, &mut Tracer),
) {
    for batch in stream {
        let t0 = Instant::now();
        let outcome = server.wait_for(server.submit(batch.updates.clone()));
        let t1 = Instant::now();
        out.attempted += 1;
        if outcome.is_applied() {
            out.updates += batch.updates.len() as u64;
        } else {
            out.failed += 1;
        }
        out.batch_ms.push((batch.kind, (t1 - t0).as_nanos() as f64 / 1e6));
        tracer.record("server.server.submit_wait", t0, t1, None, out.attempted);
        after_each(server, tracer);
    }
}

/// Traffic of a wire leg.
pub struct WireSpec<'a> {
    pub endpoint: &'a Endpoint,
    pub ops: &'a ReadOps,
    /// Due offsets of the open-loop reads on connection 1, and for each
    /// whether it is a one-to-many probe.
    pub read_due: &'a [Duration],
    pub read_is_many: &'a [bool],
    /// Due offsets of the open-loop single-edge updates on connection 2,
    /// one per batch.
    pub write_due: &'a [Duration],
    pub writes: &'a [Batch],
    /// Which round of the run this is (only labels the trace's op ids).
    pub round: usize,
    /// Length of the open phase; the closed phase starts when it ends.
    pub open: Duration,
    /// Length of the closed phase (connection 1 issues reads back to back);
    /// zero skips it.
    pub closed: Duration,
}

/// Samples of a wire leg.
#[derive(Debug, Default)]
pub struct WireSamples {
    /// µs from due time to reply, open-loop DIST.
    pub req_us: Vec<f64>,
    /// µs from due time to the moment the request was actually sent.
    pub late_us: Vec<f64>,
    /// ms from due time to ack-after-publish, open-loop single-edge updates.
    pub batch_ms: Vec<f64>,
    /// ns per closed-loop DIST round trip.
    pub closed_ns: Vec<f64>,
    /// µs per closed-loop one-to-many round trip.
    pub closed_many_us: Vec<f64>,
    /// Replies received in the closed phase and how long it ran.
    pub closed_reads: u64,
    pub closed_s: f64,
    /// Closed-loop replies per second, one value per round.
    pub round_rates: Vec<f64>,
    /// Seconds from the first due time to the last open-loop update ack.
    pub write_span_s: f64,
    pub acked_updates: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `(start, end, op)` of every request, for the trace.
    spans: Vec<(&'static str, Instant, Instant, u64)>,
}

impl WireSamples {
    /// Append the samples of the next round.
    pub fn append_round(&mut self, o: WireSamples) {
        let (closed_s, write_span_s) =
            (self.closed_s + o.closed_s, self.write_span_s + o.write_span_s);
        if o.closed_reads > 0 {
            self.round_rates.push(o.closed_reads as f64 / o.closed_s);
        }
        self.absorb(o);
        (self.closed_s, self.write_span_s) = (closed_s, write_span_s);
    }

    /// Merge the samples of a connection that ran at the same time.
    fn absorb(&mut self, o: WireSamples) {
        self.req_us.extend(o.req_us);
        self.late_us.extend(o.late_us);
        self.batch_ms.extend(o.batch_ms);
        self.closed_ns.extend(o.closed_ns);
        self.closed_many_us.extend(o.closed_many_us);
        self.closed_reads += o.closed_reads;
        self.closed_s = self.closed_s.max(o.closed_s);
        self.write_span_s = self.write_span_s.max(o.write_span_s);
        self.acked_updates += o.acked_updates;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.spans.extend(o.spans);
    }
}

/// Wait for a due time without sleeping: the whole process shares one CPU
/// (`crate::pin`), so yielding hands it to any server thread with work to
/// do and comes straight back when there is none. A sleeping generator
/// would let the CPU halt between requests, and every request would then
/// start with the hypervisor waking it — tens of microseconds that differ
/// from run to run and are not the program's. (The update client yields
/// too: asleep, it woke milliseconds late behind the yielding read client,
/// and that wait was charged to its update.)
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One client connection that survives an I/O error by redialling once per
/// failed request (the failure itself is still counted).
struct Conn<'a> {
    endpoint: &'a Endpoint,
    client: Option<NetClient>,
}

impl<'a> Conn<'a> {
    fn dial(endpoint: &'a Endpoint) -> io::Result<Self> {
        let client = NetClient::connect_retry(endpoint, Duration::from_secs(5))?;
        Ok(Self { endpoint, client: Some(client) })
    }

    fn call<R>(&mut self, op: impl FnOnce(&mut NetClient) -> io::Result<R>) -> io::Result<R> {
        if self.client.is_none() {
            self.client = Some(NetClient::connect(self.endpoint)?);
        }
        let result = op(self.client.as_mut().expect("dialled above"));
        if result.is_err() {
            self.client = None;
        }
        result
    }
}

/// One one-to-many probe per this many closed-loop reads: the mix of the
/// open phase.
const CLOSED_MANY_EVERY: u64 = 10;

/// Back-to-back reads on one connection until `end`, every
/// [`CLOSED_MANY_EVERY`]-th a one-to-many probe, each round trip timed.
/// `dists` and `manys` are the cursors into the pair and probe pools.
fn closed_loop(
    conn: &mut Conn<'_>,
    ops: &ReadOps,
    (mut dists, mut manys): (usize, usize),
    end: Instant,
) -> WireSamples {
    let mut out = WireSamples::default();
    let started = Instant::now();
    let mut sent = started;
    while sent < end {
        out.attempted += 1;
        let is_many = out.attempted.is_multiple_of(CLOSED_MANY_EVERY);
        let ok = if is_many {
            let m = &ops.many[manys % ops.many.len()];
            manys += 1;
            conn.call(|c| c.one_to_many(m.s, &m.targets)).map(|d| black_box(d).len()).is_ok()
        } else {
            let (s, t) = pick_pair(ops, dists);
            dists += 1;
            conn.call(|c| c.query(s, t)).map(black_box).is_ok()
        };
        let done = Instant::now();
        if !ok {
            out.failed += 1;
        } else if is_many {
            out.closed_many_us.push((done - sent).as_nanos() as f64 / 1e3);
            out.closed_reads += 1;
        } else {
            out.closed_ns.push((done - sent).as_nanos() as f64);
            out.closed_reads += 1;
        }
        sent = done;
    }
    out.closed_s = (sent - started).as_secs_f64();
    out
}

/// The `i`-th wire DIST pair: alternately from the `far` and `near` pools.
fn pick_pair(ops: &ReadOps, i: usize) -> (u32, u32) {
    let pool = if i.is_multiple_of(2) { &ops.far } else { &ops.near };
    pool[(i / 2) % pool.len()]
}

/// Run a wire leg: connection 1 replays the read schedule open loop,
/// connection 2 the update schedule, each request timed from its **due**
/// time; then connection 1 reads back to back for the closed phase. At
/// most two client threads, one connection each.
pub fn wire_leg(spec: &WireSpec<'_>, tracer: &mut Tracer) -> io::Result<WireSamples> {
    let mut reads = Conn::dial(spec.endpoint)?;
    let mut writes = if spec.writes.is_empty() { None } else { Some(Conn::dial(spec.endpoint)?) };
    // Both threads agree on the start before either is spawned.
    let start = Instant::now() + Duration::from_millis(20);
    let closed_start = start + spec.open;
    let closed_end = closed_start + spec.closed;
    let traced = tracer.enabled();
    let op = |i: usize| (spec.round as u64) << 32 | i as u64;
    let read_side = |conn: &mut Conn<'_>| {
        let mut out = WireSamples::default();
        let (mut dists, mut manys) = (0usize, 0usize);
        for (i, (&off, &is_many)) in spec.read_due.iter().zip(spec.read_is_many).enumerate() {
            let due = start + off;
            wait_until(due);
            let sent = Instant::now();
            out.attempted += 1;
            let ok = if is_many {
                let m = &spec.ops.many[manys % spec.ops.many.len()];
                manys += 1;
                conn.call(|c| c.one_to_many(m.s, &m.targets)).map(|d| black_box(d).len()).is_ok()
            } else {
                let (s, t) = pick_pair(spec.ops, dists);
                dists += 1;
                conn.call(|c| c.query(s, t)).map(black_box).is_ok()
            };
            let done = Instant::now();
            out.late_us.push((sent - due).as_nanos() as f64 / 1e3);
            if !ok {
                out.failed += 1;
                continue;
            }
            // One-to-many probes load the open phase as they do in the
            // traffic mix; their latency is reported from the closed phase.
            if !is_many {
                out.req_us.push((done - due).as_nanos() as f64 / 1e3);
            }
            if traced {
                let name = if is_many { "wire.many" } else { "wire.dist" };
                out.spans.push((name, due, done, op(i)));
            }
        }
        if !spec.closed.is_zero() {
            wait_until(closed_start);
            out.absorb(closed_loop(conn, spec.ops, (dists, manys), closed_end));
        }
        out
    };
    let write_side = |conn: &mut Conn<'_>| {
        let mut out = WireSamples::default();
        for (i, (&off, batch)) in spec.write_due.iter().zip(spec.writes).enumerate() {
            let due = start + off;
            wait_until(due);
            out.attempted += 1;
            let applied =
                conn.call(|c| c.update_keyed(batch.key, &batch.updates)).is_ok_and(|o| o.applied);
            let done = Instant::now();
            if !applied {
                out.failed += 1;
                continue;
            }
            out.acked_updates += batch.updates.len() as u64;
            out.batch_ms.push((done - due).as_nanos() as f64 / 1e6);
            out.write_span_s = (done - start).as_secs_f64();
            if traced {
                out.spans.push(("wire.update", due, done, op(i)));
            }
        }
        out
    };
    let mut out = std::thread::scope(|scope| {
        let writer = writes.as_mut().map(|conn| scope.spawn(move || write_side(conn)));
        let mut out = read_side(&mut reads);
        if let Some(w) = writer {
            out.absorb(w.join().expect("write-side client thread panicked"));
        }
        out
    });
    for (name, s, e, op) in std::mem::take(&mut out.spans) {
        tracer.record(name, s, e, None, op);
    }
    Ok(out)
}
