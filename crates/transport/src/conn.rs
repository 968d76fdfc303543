//! One peer connection: a Unix-domain stream wrapped with a decoding
//! reader thread, a liveness heartbeat, and pooled frame buffers.
//!
//! The reader thread owns the receive half: it blocks on `read_exact`,
//! decodes frames ([`crate::frame`]), stamps a last-heard-from clock,
//! consumes heartbeats, and pushes everything else into a pre-allocated
//! ring the consumer drains with a timeout. EOF (the peer died — a
//! SIGKILLed process's kernel closes its sockets) closes the ring:
//! queued frames drain first, then receives report
//! [`WireError::PeerGone`]. A frame that fails its CRC is *dropped*
//! here — to the reliability layer above it looks like loss, and the
//! §5d deadline/nack machinery recovers it.
//!
//! All pacing derives from [`RetryPolicy`]; connect retries sleep
//! through [`FaultClock`].

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use faults::{FaultClock, RetryPolicy};
use parking_lot::Mutex;

use crate::frame::{parse_body, Frame, FrameKind, HEADER_LEN, MAX_FRAME_LEN};
use crate::{TelemetrySource, WireError};

/// Frames queued per connection before the ring grows (it still grows
/// under pathological backlog rather than dropping — growth is rare
/// enough that the steady-state zero-allocation proof tolerates it by
/// never reaching it).
const RING_CAPACITY: usize = 256;

/// A shared pool of payload byte buffers: the reader thread acquires,
/// the consumer releases. Keeps the per-frame buffer churn off the
/// allocator once warm.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(BufPool { free: Mutex::new(Vec::with_capacity(RING_CAPACITY)) })
    }

    pub(crate) fn acquire(&self) -> Vec<u8> {
        self.free.lock().pop().unwrap_or_default()
    }

    pub(crate) fn release(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < RING_CAPACITY {
            free.push(buf);
        }
    }
}

/// A blocking MPSC ring of decoded frames with explicit close. Built
/// on std's paired `Mutex`/`Condvar` (the vendored `parking_lot` shim
/// carries no condvar).
#[derive(Debug)]
struct FrameRing {
    inner: std::sync::Mutex<RingInner>,
    ready: std::sync::Condvar,
}

#[derive(Debug)]
struct RingInner {
    queue: std::collections::VecDeque<Frame>,
    closed: bool,
}

impl FrameRing {
    fn new() -> Self {
        FrameRing {
            inner: std::sync::Mutex::new(RingInner {
                queue: std::collections::VecDeque::with_capacity(RING_CAPACITY),
                closed: false,
            }),
            ready: std::sync::Condvar::new(),
        }
    }

    fn push(&self, frame: Frame) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.queue.push_back(frame);
        drop(inner);
        self.ready.notify_one();
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }

    /// Pop the next frame, waiting up to `timeout`. Queued frames drain
    /// before the closed state is reported.
    fn pop_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(f) = inner.queue.pop_front() {
                return Ok(f);
            }
            if inner.closed {
                return Err(WireError::PeerGone);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WireError::Timeout);
            }
            let (guard, wait) =
                self.ready.wait_timeout(inner, deadline - now).unwrap_or_else(|e| e.into_inner());
            inner = guard;
            if wait.timed_out() {
                return match inner.queue.pop_front() {
                    Some(f) => Ok(f),
                    None if inner.closed => Err(WireError::PeerGone),
                    None => Err(WireError::Timeout),
                };
            }
        }
    }
}

/// Write half: the stream plus a reusable encode scratch, serialized
/// under one lock so concurrent senders cannot interleave frame bytes.
/// *Every* frame write — consumer sends and the heartbeat/telemetry
/// pump alike — goes through this lock; a partially completed
/// `write_all` under send-buffer backpressure would otherwise splice
/// two frames together and the peer's reader would see framing loss.
#[derive(Debug)]
struct WriteHalf {
    stream: UnixStream,
    scratch: Vec<u8>,
    broken: bool,
}

impl WriteHalf {
    /// Write pre-encoded frame bytes; a failure marks the half broken
    /// and the connection dead.
    fn write_encoded(&mut self, bytes: &[u8], alive: &AtomicBool) -> bool {
        if self.broken {
            return false;
        }
        if self.stream.write_all(bytes).is_err() {
            self.broken = true;
            alive.store(false, Ordering::Release);
            return false;
        }
        true
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct PeerConn {
    peer: usize,
    writer: Arc<Mutex<WriteHalf>>,
    ring: Arc<FrameRing>,
    pool: Arc<BufPool>,
    /// Milliseconds since `epoch` when the last frame arrived.
    last_rx_ms: Arc<AtomicU64>,
    epoch: Instant,
    alive: Arc<AtomicBool>,
    /// Clone of the stream used only by `Drop`: shutdown must not wait
    /// on the writer lock, which a heartbeat blocked mid-write under
    /// backpressure could hold indefinitely.
    shutdown_handle: UnixStream,
}

impl PeerConn {
    /// Wrap an established stream to original rank `peer`. Spawns the
    /// reader thread, and — when `heartbeat` is set — a beacon thread
    /// pacing [`RetryPolicy::heartbeat_interval`].
    pub(crate) fn spawn(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        pool: Arc<BufPool>,
        heartbeat: Option<RetryPolicy>,
        telemetry: Option<Arc<dyn TelemetrySource>>,
    ) -> std::io::Result<Self> {
        let ring = Arc::new(FrameRing::new());
        let epoch = Instant::now();
        let last_rx_ms = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicBool::new(true));

        let read_stream = stream.try_clone()?;
        let shutdown_handle = stream.try_clone()?;
        let writer = Arc::new(Mutex::new(WriteHalf { stream, scratch: Vec::new(), broken: false }));
        {
            let ring = Arc::clone(&ring);
            let pool = Arc::clone(&pool);
            let last = Arc::clone(&last_rx_ms);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name(format!("rx-{self_rank}-{peer}"))
                .spawn(move || reader_main(read_stream, ring, pool, last, alive, epoch))?;
        }
        if let Some(policy) = heartbeat {
            let writer = Arc::clone(&writer);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name(format!("hb-{self_rank}-{peer}"))
                .spawn(move || heartbeat_main(writer, self_rank, policy, alive, telemetry))?;
        }
        Ok(PeerConn { peer, writer, ring, pool, last_rx_ms, epoch, alive, shutdown_handle })
    }

    /// A standalone connection with its own private buffer pool —
    /// for control streams that are not part of a [`SocketMesh`]
    /// (whose connections share one pool).
    ///
    /// [`SocketMesh`]: crate::mesh::SocketMesh
    pub fn solo(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: Option<RetryPolicy>,
    ) -> std::io::Result<Self> {
        PeerConn::spawn(peer, self_rank, stream, BufPool::new(), heartbeat, None)
    }

    /// [`PeerConn::solo`] with a [`TelemetrySource`] piggybacking the
    /// heartbeat cadence: each beacon interval the source fills a
    /// reused payload buffer and a `Telemetry` frame ships in place of
    /// the plain beacon. Requires `heartbeat` (the beacon thread is the
    /// telemetry pump).
    pub fn solo_with_telemetry(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: RetryPolicy,
        telemetry: Arc<dyn TelemetrySource>,
    ) -> std::io::Result<Self> {
        PeerConn::spawn(peer, self_rank, stream, BufPool::new(), Some(heartbeat), Some(telemetry))
    }

    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Encode and write one frame. A write error marks the connection
    /// broken (the peer is gone; Rust ignores SIGPIPE, so a dead reader
    /// surfaces as `BrokenPipe` here).
    pub fn send(&self, frame: &Frame) -> Result<(), WireError> {
        let mut w = self.writer.lock();
        if w.broken {
            return Err(WireError::PeerGone);
        }
        let mut scratch = std::mem::take(&mut w.scratch);
        crate::frame::encode_into(frame, &mut scratch);
        let ok = w.write_encoded(&scratch, &self.alive);
        w.scratch = scratch;
        if ok {
            Ok(())
        } else {
            Err(WireError::PeerGone)
        }
    }

    /// Next decoded frame, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        self.ring.pop_timeout(timeout)
    }

    /// How long since the peer was last heard from (any frame kind).
    pub fn silence(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        let last = self.last_rx_ms.load(Ordering::Acquire);
        Duration::from_millis(now.saturating_sub(last)) // lint: allow(duration): unit conversion of the rx timestamp delta, not a timeout constant
    }

    /// Return a payload buffer to this connection's pool.
    pub fn release(&self, payload: Vec<u8>) {
        self.pool.release(payload);
    }

    /// False once either direction of the stream has failed.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
        // Shut the socket down so the reader/heartbeat threads unblock
        // and exit instead of leaking. Deliberately does NOT take the
        // writer lock: a heartbeat wedged in `write_all` holds it, and
        // this shutdown is exactly what unwedges that write.
        let _ = self.shutdown_handle.shutdown(std::net::Shutdown::Both);
    }
}

fn reader_main(
    mut stream: UnixStream,
    ring: Arc<FrameRing>,
    pool: Arc<BufPool>,
    last_rx_ms: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    epoch: Instant,
) {
    let mut body: Vec<u8> = Vec::new();
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            break; // EOF or error: the peer is gone.
        }
        let body_len = u32::from_le_bytes(len_buf) as usize;
        if !(HEADER_LEN + 4..=MAX_FRAME_LEN).contains(&body_len) {
            break; // Framing lost for good; treat as a dead stream.
        }
        body.clear();
        body.resize(body_len, 0);
        if stream.read_exact(&mut body).is_err() {
            break;
        }
        last_rx_ms.store(epoch.elapsed().as_millis() as u64, Ordering::Release);
        match parse_body(&body, pool.acquire()) {
            Ok(frame) if frame.kind == FrameKind::Heartbeat => pool.release(frame.payload),
            Ok(frame) => ring.push(frame),
            // CRC/version rejects look like loss to the layer above;
            // its deadline/nack machinery requests a resend.
            Err(_) => {}
        }
    }
    alive.store(false, Ordering::Release);
    ring.close();
}

fn heartbeat_main(
    writer: Arc<Mutex<WriteHalf>>,
    self_rank: usize,
    policy: RetryPolicy,
    alive: Arc<AtomicBool>,
    telemetry: Option<Arc<dyn TelemetrySource>>,
) {
    let beacon =
        crate::frame::encode(&Frame::control(FrameKind::Heartbeat, self_rank as u16, 0, 0));
    let interval = policy.heartbeat_interval();
    // Telemetry reuses one frame (its payload buffer included) and one
    // encode scratch across intervals, so the pump allocates nothing
    // once the buffers are warm. Encoding happens outside the writer
    // lock; only the actual write serializes with the consumer's sends
    // (interleaving frame bytes would be framing loss to the peer).
    let mut tel_frame = Frame::control(FrameKind::Telemetry, self_rank as u16, 0, 0);
    let mut wire_buf: Vec<u8> = Vec::new();
    while alive.load(Ordering::Acquire) {
        // The beacon must track wall time even under a virtual
        // FaultClock — a real socket peer really times out.
        std::thread::sleep(interval); // lint: allow(sleep): heartbeat pacing, interval from RetryPolicy::heartbeat_interval
        let mut sent_telemetry = false;
        if let Some(src) = &telemetry {
            if src.fill(&mut tel_frame.payload) {
                crate::frame::encode_into(&tel_frame, &mut wire_buf);
                if !writer.lock().write_encoded(&wire_buf, &alive) {
                    break;
                }
                tel_frame.seq += 1;
                sent_telemetry = true;
            }
        }
        if !sent_telemetry && !writer.lock().write_encoded(&beacon, &alive) {
            break;
        }
    }
}

/// Dial `path`, retrying with the policy's exponential backoff (capped
/// per attempt) while the listener comes up. Rendezvous races —
/// workers and the coordinator all start concurrently — resolve here.
pub fn connect_with_backoff(
    path: &Path,
    policy: &RetryPolicy,
    clock: &FaultClock,
) -> std::io::Result<UnixStream> {
    let mut attempt = 0u32;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if attempt >= policy.max_attempts.saturating_mul(4) {
                    return Err(e);
                }
                clock.inject(policy.deadline(attempt.min(4)));
                attempt += 1;
            }
        }
    }
}

/// Read exactly one frame off a raw stream (rendezvous handshakes,
/// before the reader thread exists). Not for the hot path.
pub fn read_frame_blocking(stream: &mut UnixStream) -> std::io::Result<Frame> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let body_len = u32::from_le_bytes(len_buf) as usize;
    if !(HEADER_LEN + 4..=MAX_FRAME_LEN).contains(&body_len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame body length {body_len} out of bounds"),
        ));
    }
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body)?;
    parse_body(&body, Vec::new())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Write one frame to a raw stream (rendezvous handshakes).
pub fn write_frame_blocking(stream: &mut UnixStream, frame: &Frame) -> std::io::Result<()> {
    stream.write_all(&crate::frame::encode(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    fn policy_fast() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            factor: 2,
            max_attempts: 4,
            tick: Duration::from_millis(1),
        }
    }

    #[test]
    fn frames_cross_a_socketpair() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, 0, 3);
        f.seq = 5;
        f.payload = vec![1, 2, 3];
        left.send(&f).unwrap();
        let got = right.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, f);
        right.release(got.payload);
    }

    #[test]
    fn eof_drains_queued_frames_then_reports_gone() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, 0, 0);
        f.payload = vec![9; 4];
        left.send(&f).unwrap();
        // Give the bytes time to land in right's ring before the writer
        // side disappears.
        let got = right.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, vec![9; 4]);
        drop(left);
        assert_eq!(right.recv_timeout(Duration::from_millis(200)), Err(WireError::PeerGone));
        assert!(!right.is_alive());
    }

    #[test]
    fn heartbeats_keep_silence_low_and_never_surface() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let _left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), Some(policy_fast()), None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        // No data frames at all: receives time out...
        assert_eq!(right.recv_timeout(Duration::from_millis(60)), Err(WireError::Timeout));
        // ...but the beacon keeps the peer visibly alive.
        assert!(right.silence() < policy_fast().death_threshold());
    }

    #[test]
    fn connect_backoff_gives_up_on_a_missing_listener() {
        let clock = FaultClock::virtual_clock();
        let err = connect_with_backoff(
            Path::new("/tmp/definitely-not-bound-by-anyone.sock"),
            &policy_fast(),
            &clock,
        );
        assert!(err.is_err());
        assert!(clock.injected() > Duration::ZERO, "retries waited through the clock");
    }

    #[test]
    fn blocking_helpers_roundtrip() {
        let (mut a, mut b) = pair();
        let mut f = Frame::control(FrameKind::Hello, 2, 0, 0);
        f.payload = b"path".to_vec();
        write_frame_blocking(&mut a, &f).unwrap();
        assert_eq!(read_frame_blocking(&mut b).unwrap(), f);
    }
}
