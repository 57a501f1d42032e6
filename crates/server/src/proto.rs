//! The wire protocol: typed request/response frames shared by every
//! endpoint — `NetClient`, the reader pool, shard workers, and the router.
//!
//! ## Frame layout
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! +----------------+----------------------------------------------+
//! | len: u32 LE    | payload (len bytes)                          |
//! +----------------+----------------------------------------------+
//! payload = version: u8, opcode: u8, body (opcode-specific, all LE)
//! ```
//!
//! The leading **protocol version byte** (`PROTO_VERSION`) lets a peer
//! reject a frame from an incompatible build with an explicit error instead
//! of misparsing it. Requests:
//!
//! | opcode | name          | body                                   |
//! |--------|---------------|----------------------------------------|
//! | `0x01` | `QUERY`       | `s: u32, t: u32`                       |
//! | `0x02` | `UPDATE`      | `n: u32, n × (a: u32, b: u32, w: u32)` |
//! | `0x03` | `STATS`       | —                                      |
//! | `0x04` | `ONE_TO_MANY` | `s: u32, n: u32, n × t: u32`           |
//! | `0x05` | `UPDATE_KEYED`| `key: u64, n: u32, n × (a, b, w)`      |
//! | `0x06` | `APPLY`       | `seq: u64, n: u32, n × (a, b, w)`      |
//!
//! `APPLY` is the router→worker replication opcode: apply this exact batch
//! as generation `seq`, bypassing the adaptive batcher (coalescing would
//! break the seq == generation lockstep the router depends on). Workers
//! dedup on `seq`, so a catch-up resend is acknowledged idempotently.
//!
//! Responses:
//!
//! | opcode | name         | body                                          |
//! |--------|--------------|-----------------------------------------------|
//! | `0x81` | `DIST`       | `d: u32` (`u32::MAX` = unreachable)           |
//! | `0x82` | `BATCH`      | `code: u8 (0 applied / 1 rejected), generation: u64, reason: u16 len + utf-8` |
//! | `0x83` | `STATS`      | `n: u32, n × u64` (see [`RemoteStats`])       |
//! | `0x84` | `MANY`       | `n: u32, n × d: u32`                          |
//! | `0xEB` | `BUSY`       | `reason: u16 len + utf-8`, connection closes  |
//! | `0xEE` | `ERROR`      | `reason: u16 len + utf-8`                     |
//!
//! [`Request`] and [`Response`] are the single encode/decode pair — no
//! endpoint hand-rolls opcodes or offsets. The roundtrip property tests at
//! the bottom pin `decode(encode(x)) == x` over seeded random messages.
//!
//! ## Endpoints
//!
//! [`Endpoint`] names a listening address in either family: `host:port`
//! for TCP, `unix:/path` for a unix-domain socket. Both speak the same
//! frames; `Display` round-trips through [`Endpoint::parse`] so addresses
//! can be scraped from `listening on …` lines and dialed back verbatim.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;

use stl_graph::{Dist, EdgeUpdate, VertexId};

use crate::server::BatchOutcome;

/// Version byte leading every payload; bumped on any wire-incompatible
/// change (v2 introduced the version byte itself, UDS endpoints, and
/// `APPLY`).
pub(crate) const PROTO_VERSION: u8 = 2;

/// Upper bound on a frame's payload length; anything larger is malformed.
pub(crate) const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Request opcode: distance query `s → t`.
pub(crate) const OP_QUERY: u8 = 0x01;
/// Request opcode: submit an update batch.
pub(crate) const OP_UPDATE: u8 = 0x02;
/// Request opcode: server counters.
pub(crate) const OP_STATS: u8 = 0x03;
/// Request opcode: one-to-many distances from a single source.
pub(crate) const OP_ONE_TO_MANY: u8 = 0x04;
/// Request opcode: submit an update batch under an idempotency key.
pub(crate) const OP_UPDATE_KEYED: u8 = 0x05;
/// Request opcode: router→worker replication — apply as generation `seq`.
pub(crate) const OP_APPLY: u8 = 0x06;
/// Response opcode: a single distance.
pub(crate) const RESP_DIST: u8 = 0x81;
/// Response opcode: batch outcome.
pub(crate) const RESP_BATCH: u8 = 0x82;
/// Response opcode: counters.
pub(crate) const RESP_STATS: u8 = 0x83;
/// Response opcode: one-to-many distances.
pub(crate) const RESP_MANY: u8 = 0x84;
/// Response opcode: connection shed by admission control (then closed).
pub(crate) const RESP_BUSY: u8 = 0xEB;
/// Response opcode: request failed; body carries the reason.
pub(crate) const RESP_ERROR: u8 = 0xEE;

/// `BATCH` response code for an applied-and-published batch.
pub(crate) const OUTCOME_APPLIED: u8 = 0;
/// `BATCH` response code for a rejected batch (validation or overload).
pub(crate) const OUTCOME_REJECTED: u8 = 1;

/// A decoded request frame. See the [module docs](self) for the wire
/// layout of each variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Distance query `s → t`.
    Query {
        /// Source vertex.
        s: VertexId,
        /// Target vertex.
        t: VertexId,
    },
    /// Submit an update batch through the adaptive batcher.
    Update(Vec<EdgeUpdate>),
    /// [`Request::Update`] under a client idempotency key.
    UpdateKeyed {
        /// Client-chosen key; never reused for a different batch.
        key: u64,
        /// The updates.
        batch: Vec<EdgeUpdate>,
    },
    /// Fetch the peer's counters.
    Stats,
    /// Distances from `s` to every target, answered in `targets` order.
    OneToMany {
        /// Source vertex.
        s: VertexId,
        /// Targets, in response order.
        targets: Vec<VertexId>,
    },
    /// Router→worker replication: apply `batch` as generation `seq`,
    /// bypassing the batcher and deduplicating on `seq`.
    Apply {
        /// The cluster sequence number this batch must publish as.
        seq: u64,
        /// The updates.
        batch: Vec<EdgeUpdate>,
    },
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Dist(Dist),
    /// Answer to [`Request::OneToMany`], in request target order.
    Many(Vec<Dist>),
    /// Answer to the update-family requests.
    Batch {
        /// Whether the batch was applied and published.
        applied: bool,
        /// The batch's sequence number (applied) or the peer's current
        /// generation (rejected).
        generation: u64,
        /// Rejection reason; empty for applied batches.
        reason: String,
    },
    /// Answer to [`Request::Stats`]: counter fields in [`RemoteStats`]
    /// order (peers may append fields; decoders must tolerate extras).
    Stats(Vec<u64>),
    /// Admission control shed this connection; it closes after this frame.
    Busy(String),
    /// The request failed; the connection stays open unless the frame
    /// itself was malformed.
    Error(String),
}

impl Request {
    /// Encode into a frame payload (version byte + opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        self.encode_into(&mut p);
        p
    }

    /// Append the frame payload to `p` — how endpoints encode straight
    /// into a reused transmit buffer.
    pub fn encode_into(&self, p: &mut Vec<u8>) {
        p.push(PROTO_VERSION);
        match self {
            Request::Query { s, t } => {
                p.push(OP_QUERY);
                put_u32(p, *s);
                put_u32(p, *t);
            }
            Request::Update(batch) => {
                p.push(OP_UPDATE);
                put_update_body(p, batch);
            }
            Request::UpdateKeyed { key, batch } => {
                p.push(OP_UPDATE_KEYED);
                put_u64(p, *key);
                put_update_body(p, batch);
            }
            Request::Stats => p.push(OP_STATS),
            Request::OneToMany { s, targets } => {
                p.push(OP_ONE_TO_MANY);
                put_u32(p, *s);
                put_u32_list(p, targets);
            }
            Request::Apply { seq, batch } => {
                p.push(OP_APPLY);
                put_u64(p, *seq);
                put_update_body(p, batch);
            }
        }
    }

    /// Decode a frame payload. Errors are static descriptions suitable for
    /// an [`Response::Error`] body.
    pub fn decode(payload: &[u8]) -> Result<Request, &'static str> {
        let (op, body) = split_versioned(payload)?;
        match op {
            OP_QUERY => {
                if body.len() != 8 {
                    return Err("QUERY body must be exactly 8 bytes");
                }
                Ok(Request::Query { s: get_u32(body, 0), t: get_u32(body, 4) })
            }
            OP_UPDATE => {
                if body.len() < 4 {
                    return Err("UPDATE body too short");
                }
                Ok(Request::Update(parse_update_body(body, 0)?))
            }
            OP_UPDATE_KEYED => {
                if body.len() < 12 {
                    return Err("UPDATE_KEYED body too short");
                }
                Ok(Request::UpdateKeyed {
                    key: get_u64(body, 0),
                    batch: parse_update_body(body, 8)?,
                })
            }
            OP_APPLY => {
                if body.len() < 12 {
                    return Err("APPLY body too short");
                }
                Ok(Request::Apply { seq: get_u64(body, 0), batch: parse_update_body(body, 8)? })
            }
            OP_STATS => {
                if !body.is_empty() {
                    return Err("STATS takes no body");
                }
                Ok(Request::Stats)
            }
            OP_ONE_TO_MANY => {
                if body.len() < 8 {
                    return Err("ONE_TO_MANY body too short");
                }
                let s = get_u32(body, 0);
                let count = get_u32(body, 4) as usize;
                if body.len() != 8 + count * 4 {
                    return Err("ONE_TO_MANY body length does not match its count");
                }
                let targets = (0..count).map(|i| get_u32(body, 8 + i * 4)).collect();
                Ok(Request::OneToMany { s, targets })
            }
            _ => Err("unknown opcode"),
        }
    }
}

impl Response {
    /// Encode into a frame payload (version byte + opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        self.encode_into(&mut p);
        p
    }

    /// Append the frame payload to `p` (see [`Request::encode_into`]).
    pub fn encode_into(&self, p: &mut Vec<u8>) {
        p.push(PROTO_VERSION);
        match self {
            Response::Dist(d) => {
                p.push(RESP_DIST);
                put_u32(p, *d);
            }
            Response::Many(dists) => {
                p.push(RESP_MANY);
                put_u32_list(p, dists);
            }
            Response::Batch { applied, generation, reason } => {
                p.push(RESP_BATCH);
                p.push(if *applied { OUTCOME_APPLIED } else { OUTCOME_REJECTED });
                put_u64(p, *generation);
                put_str(p, reason);
            }
            Response::Stats(fields) => {
                p.push(RESP_STATS);
                put_u32(p, fields.len() as u32);
                for &f in fields {
                    put_u64(p, f);
                }
            }
            Response::Busy(reason) => {
                p.push(RESP_BUSY);
                put_str(p, reason);
            }
            Response::Error(reason) => {
                p.push(RESP_ERROR);
                put_str(p, reason);
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, &'static str> {
        let (op, body) = split_versioned(payload)?;
        match op {
            RESP_DIST => {
                if body.len() != 4 {
                    return Err("DIST body must be exactly 4 bytes");
                }
                Ok(Response::Dist(get_u32(body, 0)))
            }
            RESP_MANY => {
                if body.len() < 4 {
                    return Err("MANY body too short");
                }
                let count = get_u32(body, 0) as usize;
                if body.len() != 4 + count * 4 {
                    return Err("MANY body length does not match its count");
                }
                Ok(Response::Many((0..count).map(|i| get_u32(body, 4 + i * 4)).collect()))
            }
            RESP_BATCH => {
                if body.len() < 11 {
                    return Err("BATCH body too short");
                }
                let applied = match body[0] {
                    OUTCOME_APPLIED => true,
                    OUTCOME_REJECTED => false,
                    _ => return Err("unknown outcome code"),
                };
                let generation = get_u64(body, 1);
                let (reason, _) = get_str(body, 9).ok_or("truncated BATCH reason")?;
                Ok(Response::Batch { applied, generation, reason })
            }
            RESP_STATS => {
                if body.len() < 4 {
                    return Err("STATS body too short");
                }
                let count = get_u32(body, 0) as usize;
                if body.len() != 4 + count * 8 {
                    return Err("STATS body length does not match its count");
                }
                Ok(Response::Stats((0..count).map(|i| get_u64(body, 4 + i * 8)).collect()))
            }
            RESP_BUSY => {
                let (reason, _) = get_str(body, 0).ok_or("truncated BUSY reason")?;
                Ok(Response::Busy(reason))
            }
            RESP_ERROR => {
                let (reason, _) = get_str(body, 0).ok_or("truncated ERROR reason")?;
                Ok(Response::Error(reason))
            }
            _ => Err("unknown opcode"),
        }
    }
}

/// Encode a `MANY` response payload straight from a distance slice —
/// equivalent to `Response::Many(dists.to_vec()).encode()` without cloning
/// the distances.
pub fn many_payload(dists: &[Dist]) -> Vec<u8> {
    let mut p = vec![PROTO_VERSION, RESP_MANY];
    put_u32_list(&mut p, dists);
    p
}

/// Check the version byte and split off the opcode.
fn split_versioned(payload: &[u8]) -> Result<(u8, &[u8]), &'static str> {
    if payload.len() < 2 {
        return Err("frame payload shorter than version + opcode");
    }
    if payload[0] != PROTO_VERSION {
        return Err("unsupported protocol version");
    }
    Ok((payload[1], &payload[2..]))
}

fn parse_update_body(body: &[u8], at: usize) -> Result<Vec<EdgeUpdate>, &'static str> {
    let count = get_u32(body, at) as usize;
    if body.len() != at + 4 + count * 12 {
        return Err("UPDATE body length does not match its count");
    }
    Ok((0..count)
        .map(|i| {
            let o = at + 4 + i * 12;
            EdgeUpdate::new(get_u32(body, o), get_u32(body, o + 4), get_u32(body, o + 8))
        })
        .collect())
}

/// Append `n: u32, n × (a, b, w)` — the tail shared by the update-family
/// requests.
fn put_update_body(buf: &mut Vec<u8>, batch: &[EdgeUpdate]) {
    put_u32(buf, batch.len() as u32);
    for u in batch {
        put_u32(buf, u.a);
        put_u32(buf, u.b);
        put_u32(buf, u.new_weight);
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `n: u32, n × u32` — a target or distance list.
fn put_u32_list(buf: &mut Vec<u8>, vals: &[u32]) {
    put_u32(buf, vals.len() as u32);
    for &v in vals {
        put_u32(buf, v);
    }
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

pub(crate) fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked by caller"))
}

pub(crate) fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked by caller"))
}

pub(crate) fn get_str(b: &[u8], at: usize) -> Option<(String, usize)> {
    if b.len() < at + 2 {
        return None;
    }
    let len = u16::from_le_bytes(b[at..at + 2].try_into().unwrap()) as usize;
    if b.len() < at + 2 + len {
        return None;
    }
    let s = String::from_utf8_lossy(&b[at + 2..at + 2 + len]).into_owned();
    Some((s, at + 2 + len))
}

/// A remote batch outcome as reported in a `BATCH` response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteOutcome {
    /// Whether the batch was applied and published.
    pub applied: bool,
    /// The batch's own sequence number (applied), or the peer's published
    /// generation when the response was built (rejected).
    pub generation: u64,
    /// Rejection reason; empty for applied batches.
    pub reason: String,
}

impl RemoteOutcome {
    /// Convert into the in-process outcome type.
    pub fn outcome(&self) -> BatchOutcome {
        if self.applied {
            BatchOutcome::Applied { seq: self.generation }
        } else {
            BatchOutcome::Rejected(self.reason.clone())
        }
    }
}

/// Server counters as reported in a `STATS` response frame, in field order.
/// Peers may append trailing fields (the router does); decoding accepts any
/// count ≥ 11 and ignores fields it does not know.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Latest published generation.
    pub generation: u64,
    /// [`crate::ServerStats::queries_served`].
    pub queries_served: u64,
    /// [`crate::ServerStats::batches_applied`].
    pub batches_applied: u64,
    /// [`crate::ServerStats::batches_rejected`].
    pub batches_rejected: u64,
    /// [`crate::ServerStats::updates_submitted`].
    pub updates_submitted: u64,
    /// [`crate::NetStats::connections_accepted`].
    pub connections_accepted: u64,
    /// [`crate::NetStats::connections_shed`].
    pub connections_shed: u64,
    /// [`crate::NetStats::frames_rejected`].
    pub frames_rejected: u64,
    /// [`crate::BatcherStats::batches_submitted`].
    pub batcher_batches_submitted: u64,
    /// [`crate::BatcherStats::requests_coalesced`].
    pub batcher_requests_coalesced: u64,
    /// [`crate::BatcherStats::requests_shed`].
    pub batcher_requests_shed: u64,
    /// [`crate::NetStats::many_scratch_reuses`]. Zero when talking to a
    /// peer predating the field (11-field responses are still accepted).
    pub many_scratch_reuses: u64,
}

impl RemoteStats {
    /// Build from a `STATS` field list (≥ 11 fields; extras ignored).
    pub fn from_fields(fields: &[u64]) -> io::Result<Self> {
        if fields.len() < 11 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated STATS response"));
        }
        Ok(Self {
            generation: fields[0],
            queries_served: fields[1],
            batches_applied: fields[2],
            batches_rejected: fields[3],
            updates_submitted: fields[4],
            connections_accepted: fields[5],
            connections_shed: fields[6],
            frames_rejected: fields[7],
            batcher_batches_submitted: fields[8],
            batcher_requests_coalesced: fields[9],
            batcher_requests_shed: fields[10],
            many_scratch_reuses: fields.get(11).copied().unwrap_or(0),
        })
    }
}

/// A listening address in either supported family. `Display` round-trips
/// through [`Endpoint::parse`], and the TCP form prints exactly as a
/// `SocketAddr` — the `listening on {addr}` line CI scrapes keeps working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `unix:/path` into [`Endpoint::Unix`], anything else as a
    /// `host:port` TCP address (resolved if it is a hostname).
    pub fn parse(s: &str) -> io::Result<Endpoint> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty unix socket path"));
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        use std::net::ToSocketAddrs;
        s.to_socket_addrs()?.next().map(Endpoint::Tcp).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("unresolvable address: {s}"))
        })
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl std::str::FromStr for Endpoint {
    type Err = io::Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Endpoint::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn random_batch(rng: &mut StdRng, max_len: usize) -> Vec<EdgeUpdate> {
        (0..rng.random_range(0..=max_len))
            .map(|_| {
                EdgeUpdate::new(
                    rng.random_range(0..10_000),
                    rng.random_range(0..10_000),
                    rng.random_range(0..u32::MAX),
                )
            })
            .collect()
    }

    fn random_string(rng: &mut StdRng, max_len: usize) -> String {
        let len = rng.random_range(0..=max_len);
        (0..len).map(|_| char::from(rng.random_range(b' '..=b'~'))).collect()
    }

    /// The satellite's property test: every request variant survives
    /// encode → decode bit-exactly, over seeded random messages.
    #[test]
    fn request_roundtrip_property() {
        let mut rng = StdRng::seed_from_u64(0x9_0107);
        for i in 0..500 {
            let req = match i % 6 {
                0 => Request::Query {
                    s: rng.random_range(0..u32::MAX),
                    t: rng.random_range(0..u32::MAX),
                },
                1 => Request::Update(random_batch(&mut rng, 12)),
                2 => Request::UpdateKeyed {
                    key: rng.random_range(0..u64::MAX),
                    batch: random_batch(&mut rng, 12),
                },
                3 => Request::Stats,
                4 => Request::OneToMany {
                    s: rng.random_range(0..u32::MAX),
                    targets: (0..rng.random_range(0..40)).map(|_| rng.next_u64() as u32).collect(),
                },
                _ => Request::Apply {
                    seq: rng.random_range(0..u64::MAX),
                    batch: random_batch(&mut rng, 12),
                },
            };
            let payload = req.encode();
            assert_eq!(payload[0], PROTO_VERSION);
            assert_eq!(Request::decode(&payload), Ok(req.clone()), "iteration {i}");
        }
    }

    #[test]
    fn response_roundtrip_property() {
        let mut rng = StdRng::seed_from_u64(0x9_0108);
        for i in 0..500 {
            let resp = match i % 6 {
                0 => Response::Dist(rng.next_u64() as u32),
                1 => Response::Many(
                    (0..rng.random_range(0..50)).map(|_| rng.next_u64() as u32).collect(),
                ),
                2 => Response::Batch {
                    applied: rng.random_bool(0.5),
                    generation: rng.next_u64(),
                    reason: random_string(&mut rng, 80),
                },
                3 => {
                    Response::Stats((0..rng.random_range(0..20)).map(|_| rng.next_u64()).collect())
                }
                4 => Response::Busy(random_string(&mut rng, 40)),
                _ => Response::Error(random_string(&mut rng, 40)),
            };
            let payload = resp.encode();
            assert_eq!(payload[0], PROTO_VERSION);
            assert_eq!(Response::decode(&payload), Ok(resp.clone()), "iteration {i}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected_not_misparsed() {
        let mut payload = Request::Query { s: 1, t: 2 }.encode();
        payload[0] = PROTO_VERSION + 1;
        assert_eq!(Request::decode(&payload), Err("unsupported protocol version"));
        assert_eq!(Response::decode(&payload), Err("unsupported protocol version"));
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[PROTO_VERSION]).is_err());
    }

    #[test]
    fn truncated_and_mismatched_bodies_are_rejected() {
        let mut short = Request::Query { s: 9, t: 9 }.encode();
        short.pop();
        assert!(Request::decode(&short).is_err());

        let mut lying = vec![PROTO_VERSION, OP_UPDATE];
        put_u32(&mut lying, 5); // claims 5 updates, carries none
        assert_eq!(Request::decode(&lying), Err("UPDATE body length does not match its count"));

        let mut many = vec![PROTO_VERSION, RESP_MANY];
        put_u32(&mut many, 3);
        put_u32(&mut many, 1);
        assert!(Response::decode(&many).is_err());

        assert_eq!(Request::decode(&[PROTO_VERSION, 0x7F, 0, 0]), Err("unknown opcode"));
    }

    #[test]
    fn remote_stats_tolerates_appended_fields() {
        let mut fields: Vec<u64> = (0..12).collect();
        let base = RemoteStats::from_fields(&fields).unwrap();
        assert_eq!(base.generation, 0);
        assert_eq!(base.many_scratch_reuses, 11);
        fields.extend([100, 200]); // a router appending its own counters
        assert_eq!(RemoteStats::from_fields(&fields).unwrap(), base);
        assert!(RemoteStats::from_fields(&fields[..10]).is_err());
    }

    #[test]
    fn endpoint_display_roundtrips_parse() {
        for text in ["127.0.0.1:4000", "unix:/tmp/stl.sock", "[::1]:9", "unix:relative/p.sock"] {
            let ep = Endpoint::parse(text).expect(text);
            let shown = ep.to_string();
            assert_eq!(Endpoint::parse(&shown).unwrap(), ep, "{text} → {shown}");
            match &ep {
                Endpoint::Tcp(_) => assert!(!shown.starts_with("unix:")),
                Endpoint::Unix(p) => assert_eq!(shown, format!("unix:{}", p.display())),
            }
        }
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("not-an-address").is_err());
    }
}
