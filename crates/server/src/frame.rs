//! Buffered frame I/O: one `read` per frame and one `write` per frame on
//! every wire endpoint.
//!
//! A [`Framed`] owns a connected stream plus its two buffers. The receive
//! buffer takes whatever the peer has sent in a single `read`; frames
//! ([`crate::proto`] layout: `len: u32 LE` + payload) are cut out of it, and
//! the bytes of a pipelined next frame stay buffered for the next call. The
//! transmit buffer is reused for every frame: a response is encoded straight
//! into it behind a 4-byte length slot and written with one `write_all`. A
//! request/response round trip therefore costs four syscalls (client write,
//! server read, server write, client read).
//!
//! The receive buffer grows only with bytes actually received, doubling from
//! [`INITIAL_RX_BYTES`] up to `MAX_FRAME_BYTES + 4`; a length prefix alone
//! never allocates the length it announces. The buffers belong to one
//! connection: a reconnect replaces the whole `Framed`, so no byte of a dead
//! connection can be parsed as the head of the next one's frames.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::proto::{Response, MAX_FRAME_BYTES};

/// Receive-buffer size at the first read of a connection.
const INITIAL_RX_BYTES: usize = 4 << 10;

/// The largest receive buffer: one maximal frame with its length prefix.
const MAX_RX_BYTES: usize = MAX_FRAME_BYTES as usize + 4;

/// Why a polled frame read ended without a frame.
pub(crate) enum ReadEnd {
    /// Clean EOF at a frame boundary.
    Closed,
    /// Shutdown requested while waiting.
    Stopped,
    /// Idle deadline passed between frames.
    TimedOut,
    /// The peer vanished or stalled mid-frame, or sent an oversized length.
    Malformed(&'static str),
    /// A hard socket error; treated like a hangup.
    Io(#[allow(dead_code)] io::Error),
}

/// A connected stream with its per-connection receive and transmit buffers.
pub(crate) struct Framed<S> {
    pub(crate) stream: S,
    /// Received bytes live in `rx[head..tail]`; `rx[tail..]` is free space
    /// the next `read` fills.
    rx: Vec<u8>,
    head: usize,
    tail: usize,
    /// The frame being sent: a 4-byte length slot, then the payload.
    tx: Vec<u8>,
}

impl<S: fmt::Debug> fmt::Debug for Framed<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Framed")
            .field("stream", &self.stream)
            .field("buffered", &(self.tail - self.head))
            .finish()
    }
}

impl<S> Framed<S> {
    /// Wrap `stream`; no buffer is allocated until the first frame.
    pub(crate) fn new(stream: S) -> Self {
        Self { stream, rx: Vec::new(), head: 0, tail: 0, tx: Vec::new() }
    }

    /// Start the next outgoing frame: returns the transmit buffer holding
    /// only the length slot, for a payload to be encoded onto.
    pub(crate) fn frame(&mut self) -> &mut Vec<u8> {
        self.tx.clear();
        self.tx.extend_from_slice(&[0; 4]);
        &mut self.tx
    }
}

impl<S: Write> Framed<S> {
    /// Fill in the length slot of the frame started by [`Framed::frame`]
    /// and write the whole frame with one `write_all`.
    pub(crate) fn send(&mut self) -> io::Result<()> {
        let len = (self.tx.len() - 4) as u32;
        self.tx[..4].copy_from_slice(&len.to_le_bytes());
        self.stream.write_all(&self.tx)
    }

    /// Encode `response` as the next frame and send it.
    pub(crate) fn send_response(&mut self, response: &Response) -> io::Result<()> {
        response.encode_into(self.frame());
        self.send()
    }
}

impl<S: Read> Framed<S> {
    /// Blocking frame read for clients: `Ok(None)` on clean EOF at a frame
    /// boundary, `Err` on anything else.
    pub(crate) fn recv(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            match self.buffered_frame() {
                Ok(Some(len)) => return Ok(Some(self.take(len))),
                Ok(None) => {}
                Err(_) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"))
                }
            }
            match self.fill() {
                Ok(0) if self.is_empty() => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Server-side frame read over a stream with a read timeout: polls in
    /// timeout slices so the stop flag and the idle deadline stay live, and
    /// classifies every way a read can end. Each `read` that returns bytes
    /// is added to `reads`.
    pub(crate) fn recv_polling(
        &mut self,
        stop: &AtomicBool,
        idle: Option<Duration>,
        reads: Option<&AtomicU64>,
    ) -> Result<&[u8], ReadEnd> {
        let deadline = idle.map(|d| Instant::now() + d);
        loop {
            if stop.load(Ordering::Relaxed) {
                return Err(ReadEnd::Stopped);
            }
            match self.buffered_frame() {
                Ok(Some(len)) => return Ok(self.take(len)),
                Ok(None) => {}
                Err(why) => return Err(ReadEnd::Malformed(why)),
            }
            match self.fill() {
                Ok(0) if self.is_empty() => return Err(ReadEnd::Closed),
                Ok(0) => return Err(ReadEnd::Malformed("connection closed mid-frame")),
                Ok(_) => {
                    if let Some(reads) = reads {
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(if self.is_empty() {
                            ReadEnd::TimedOut
                        } else {
                            ReadEnd::Malformed("idle deadline passed mid-frame")
                        });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadEnd::Io(e)),
            }
        }
    }

    /// No received byte is waiting: the connection is at a frame boundary.
    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// The payload length of the frame at the head of the receive buffer,
    /// if all of it has arrived. An oversized length prefix is an error as
    /// soon as its four bytes are in.
    fn buffered_frame(&self) -> Result<Option<usize>, &'static str> {
        let buffered = &self.rx[self.head..self.tail];
        let Some(prefix) = buffered.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix);
        if len > MAX_FRAME_BYTES {
            return Err("frame length exceeds the 16 MiB cap");
        }
        Ok((buffered.len() - 4 >= len as usize).then_some(len as usize))
    }

    /// Consume the buffered frame whose payload is `len` bytes long.
    fn take(&mut self, len: usize) -> &[u8] {
        let start = self.head + 4;
        self.head = start + len;
        if self.head == self.tail {
            // Drained: the next read starts at the front, no copy needed.
            self.head = 0;
            self.tail = 0;
        }
        &self.rx[start..start + len]
    }

    /// One `read` into the free tail of the receive buffer, making room
    /// first: slide a partial frame to the front, or grow the buffer when
    /// the partial frame fills all of it. Only called while no complete
    /// frame is buffered, so the partial frame is shorter than
    /// `MAX_RX_BYTES` and room can always be made.
    fn fill(&mut self) -> io::Result<usize> {
        if self.tail == self.rx.len() {
            if self.head > 0 {
                self.rx.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            } else {
                let grown = (self.rx.len() * 2).clamp(INITIAL_RX_BYTES, MAX_RX_BYTES);
                self.rx.resize(grown, 0);
            }
        }
        debug_assert!(self.tail < self.rx.len(), "a partial frame never fills the buffer");
        let n = self.stream.read(&mut self.rx[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use std::collections::VecDeque;

    /// An in-memory peer: each `read` returns (a prefix of) the next
    /// scripted chunk, then EOF; a `None` chunk is one `WouldBlock`. Counts
    /// every `read` call.
    struct Script {
        chunks: VecDeque<Option<Vec<u8>>>,
        reads: usize,
    }

    impl Script {
        fn new(chunks: impl IntoIterator<Item = Option<Vec<u8>>>) -> Self {
            Self { chunks: chunks.into_iter().collect(), reads: 0 }
        }

        fn bytes(chunks: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Self::new(chunks.into_iter().map(Some))
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.chunks.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.chunks.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn wire(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut framed = Framed::new(Vec::new());
        let mut out = Vec::new();
        for p in payloads {
            framed.frame().extend_from_slice(p);
            framed.send().unwrap();
            out.append(&mut framed.stream);
        }
        out
    }

    fn payloads(k: u32) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| match i % 3 {
                0 => Request::Query { s: i, t: i + 1 }.encode(),
                1 => Request::OneToMany { s: i, targets: (0..i).collect() }.encode(),
                _ => Request::Stats.encode(),
            })
            .collect()
    }

    fn poll(framed: &mut Framed<Script>, idle: Option<Duration>) -> Result<Vec<u8>, ReadEnd> {
        framed.recv_polling(&AtomicBool::new(false), idle, None).map(<[u8]>::to_vec)
    }

    fn malformed(end: Result<Vec<u8>, ReadEnd>) -> &'static str {
        match end {
            Err(ReadEnd::Malformed(why)) => why,
            _ => panic!("expected a malformed-frame end"),
        }
    }

    #[test]
    fn pipelined_frames_in_one_chunk_take_one_read() {
        let sent = payloads(5);
        let mut framed = Framed::new(Script::bytes([wire(&sent)]));
        for p in &sent {
            assert_eq!(framed.recv().unwrap(), Some(&p[..]));
        }
        assert_eq!(framed.stream.reads, 1, "five frames from one read");
        assert_eq!(framed.recv().unwrap(), None, "clean EOF at the boundary");
        assert_eq!(framed.stream.reads, 2);

        let reads = AtomicU64::new(0);
        let mut framed = Framed::new(Script::bytes([wire(&sent)]));
        for p in &sent {
            let got = framed.recv_polling(&AtomicBool::new(false), None, Some(&reads));
            assert_eq!(got.ok(), Some(&p[..]));
        }
        assert!(matches!(poll(&mut framed, None), Err(ReadEnd::Closed)));
        assert_eq!(reads.load(Ordering::Relaxed), 1, "EOF is not a read that returned bytes");
    }

    #[test]
    fn byte_at_a_time_delivery_gives_the_same_frames() {
        let sent = payloads(4);
        let bytes = wire(&sent);
        // The first prefix arrives split 1 + 3, then every byte on its own.
        let mut chunks = vec![bytes[..1].to_vec(), bytes[1..4].to_vec()];
        chunks.extend(bytes[4..].iter().map(|&b| vec![b]));
        let n_chunks = chunks.len();
        let mut framed = Framed::new(Script::bytes(chunks.clone()));
        for p in &sent {
            assert_eq!(framed.recv().unwrap(), Some(&p[..]));
        }
        assert_eq!(framed.recv().unwrap(), None);
        assert_eq!(framed.stream.reads, n_chunks + 1);

        let mut framed = Framed::new(Script::bytes(chunks));
        for p in &sent {
            assert_eq!(poll(&mut framed, None).ok().as_ref(), Some(p));
        }
        assert!(matches!(poll(&mut framed, None), Err(ReadEnd::Closed)));
    }

    #[test]
    fn eof_mid_prefix_or_mid_payload_is_a_truncated_frame() {
        let bytes = wire(&payloads(1));
        for cut in [2, 4, bytes.len() - 1] {
            let mut framed = Framed::new(Script::bytes([bytes[..cut].to_vec()]));
            let err = framed.recv().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");

            let mut framed = Framed::new(Script::bytes([bytes[..cut].to_vec()]));
            assert_eq!(malformed(poll(&mut framed, None)), "connection closed mid-frame");
        }
    }

    #[test]
    fn idle_deadline_times_out_between_frames_and_rejects_mid_frame() {
        let bytes = wire(&payloads(1));
        let mut framed = Framed::new(Script::new([None]));
        assert!(matches!(poll(&mut framed, Some(Duration::ZERO)), Err(ReadEnd::TimedOut)));

        let mut framed = Framed::new(Script::new([Some(bytes[..6].to_vec()), None]));
        let end = poll(&mut framed, Some(Duration::ZERO));
        assert_eq!(malformed(end), "idle deadline passed mid-frame");

        // Without a deadline a stall is just another poll slice.
        let mut framed = Framed::new(Script::new([Some(bytes[..6].to_vec()), None, None]));
        framed.stream.chunks.push_back(Some(bytes[6..].to_vec()));
        assert_eq!(poll(&mut framed, None).ok(), Some(bytes[4..].to_vec()));

        let stop = AtomicBool::new(true);
        let mut framed = Framed::new(Script::bytes([bytes]));
        assert!(matches!(framed.recv_polling(&stop, None, None), Err(ReadEnd::Stopped)));
    }

    #[test]
    fn a_stalled_length_prefix_does_not_allocate_its_length() {
        let mut bytes = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7; 10]);
        let mut framed = Framed::new(Script::new([Some(bytes), None]));
        assert_eq!(
            malformed(poll(&mut framed, Some(Duration::ZERO))),
            "idle deadline passed mid-frame"
        );
        assert!(framed.rx.capacity() <= 64 << 10, "capacity {}", framed.rx.capacity());

        // One past the cap is rejected from the prefix alone.
        let over = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        let mut framed = Framed::new(Script::bytes([over.clone()]));
        assert_eq!(malformed(poll(&mut framed, None)), "frame length exceeds the 16 MiB cap");
        let mut framed = Framed::new(Script::bytes([over]));
        assert_eq!(framed.recv().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_frame_larger_than_the_initial_buffer_grows_it_by_doubling() {
        let big = vec![9u8; 3 * INITIAL_RX_BYTES];
        let sent = vec![big, Request::Stats.encode()];
        let mut framed = Framed::new(Script::bytes([wire(&sent)]));
        for p in &sent {
            assert_eq!(framed.recv().unwrap(), Some(&p[..]));
        }
        assert_eq!(framed.rx.len(), 4 * INITIAL_RX_BYTES);
    }

    #[test]
    fn send_writes_length_prefixed_frames_from_one_reused_buffer() {
        let mut framed = Framed::new(Vec::new());
        framed.send_response(&Response::Dist(42)).unwrap();
        Request::Query { s: 1, t: 2 }.encode_into(framed.frame());
        framed.send().unwrap();
        let expected = wire(&[Response::Dist(42).encode(), Request::Query { s: 1, t: 2 }.encode()]);
        assert_eq!(framed.stream, expected);
    }
}
