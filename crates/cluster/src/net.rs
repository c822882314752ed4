//! Real TCP transport: the master/worker protocol over actual sockets.
//!
//! The paper's farm ran on PVM daemons exchanging tagged messages across
//! real machines; [`crate::sim`] only models them. This module is the one
//! wall-clock driver of the [`MasterLogic`]/[`WorkerLogic`] protocol, over
//! sockets to worker processes or — via [`crate::threads`] — loopback ones
//! to worker threads:
//!
//! * **Framing** — every [`Message`] travels as
//!   `magic (u32) | version (u32) | length (u32) | Message::encode()`.
//!   [`read_frame`] and the incremental [`FrameBuf`] reject bad magic,
//!   foreign versions and hostile length prefixes before allocating, and
//!   map socket failures onto [`ChannelError`] (`TimedOut` for an idle
//!   link, `PeerGone` for a closed one) so the caller sees network
//!   failure as data.
//! * **One network thread** — the master runs a single-threaded
//!   readiness loop over nonblocking sockets: accept, handshake,
//!   heartbeats, per-connection read deadlines and write backpressure
//!   all live on one thread, regardless of worker count. No per-worker
//!   reader threads.
//! * **Elastic membership** — workers may connect at any point while the
//!   run is live. A `HELLO` carries an optional node identity and scene
//!   fingerprint; the master validates the fingerprint, rejects
//!   duplicates and half-open connections with a `REJECT` frame, and
//!   hands accepted joiners the job header so they start pulling units
//!   immediately. A worker that disconnects, times out or sends garbage
//!   has its outstanding leases requeued by the shared [`MasterCore`] —
//!   surviving workers re-render the units byte-identically.
//! * **Deterministic chaos** — the [`ChaosPlan`]'s net section gates
//!   every connection's reads and writes (drop-after-N-bytes, stall, delay,
//!   partition windows), so churn scenarios replay identically.
//!
//! The master is a *driver* of the sans-IO [`MasterCore`]: decoded
//! `REQUEST`/`RESULT` frames, closed sockets and the sweep clock become
//! core events, and the core's actions become `UNIT`/`SHUTDOWN` frames.
//! Who gets which unit, leases, strikes and speculation are decided
//! there, not here.
//!
//! Unit and result types cross the wire through the [`Wire`] trait,
//! encoded with the honest [`crate::codec`] byte codec.

use crate::chaos::ChaosPlan;
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::core::{Action, MasterCore};
use crate::fault::FaultPlan;
use crate::ledger::RecoveryConfig;
use crate::logic::{MasterLogic, WorkerLogic};
use crate::message::{ChannelError, Message, NodeId};
use crate::netfault::{full_jitter_delay, ConnFaultState, Gate, JitterRng};
use crate::report::{MachineReport, RunReport};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

/// Frame magic, `b"NOWF"` little-endian. A connection that opens with
/// anything else is not speaking this protocol.
pub const MAGIC: u32 = u32::from_le_bytes(*b"NOWF");

/// Wire protocol version; bumped on any incompatible frame change.
/// v2 added the `HELLO` identity/fingerprint payload and `REJECT`;
/// v3 appended the end-to-end content checksum to the farm's
/// `UnitOutput` wire encoding.
pub const VERSION: u32 = 3;

/// Upper bound on a frame body. A full 640x480 result frame is ~2.2 MB;
/// anything past this limit is a hostile or corrupt length prefix and is
/// rejected *before* allocating.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Bytes of frame header preceding the body (magic + version + length).
pub const HEADER_LEN: usize = 12;

/// Protocol message tags (the PVM-style `tag` field of each frame).
pub mod tag {
    /// Worker → master: first frame after connecting. Payload is either
    /// empty (anonymous, unvalidated) or `identity (u64) | fingerprint
    /// (bytes)` — identity 0 means anonymous, an empty fingerprint skips
    /// scene validation.
    pub const HELLO: u32 = 0x4E4F_0001;
    /// Master → worker: node id assignment + job header.
    pub const WELCOME: u32 = 0x4E4F_0002;
    /// Worker → master: ready for work (results double as requests).
    pub const REQUEST: u32 = 0x4E4F_0003;
    /// Master → worker: assignment id + encoded unit.
    pub const UNIT: u32 = 0x4E4F_0004;
    /// Worker → master: assignment id + busy seconds + encoded result.
    pub const RESULT: u32 = 0x4E4F_0005;
    /// Master → worker: no more work; close the connection.
    pub const SHUTDOWN: u32 = 0x4E4F_0006;
    /// Master → worker: heartbeat, payload echoed verbatim in the pong.
    pub const PING: u32 = 0x4E4F_0007;
    /// Worker → master: heartbeat echo.
    pub const PONG: u32 = 0x4E4F_0008;
    /// Master → worker: enrollment refused; payload is `reason (str)`.
    pub const REJECT: u32 = 0x4E4F_0009;

    // -- control plane (client role) ----------------------------------
    //
    // A *client* connection never says HELLO: its first frame is one of
    // the request tags below, which moves the connection into the
    // `Client` phase. Payloads are application-defined — the master
    // routes them through `MasterLogic::client_frame` untouched.

    /// Client → master: submit a job; payload is an application job spec.
    pub const SUBMIT: u32 = 0x4E4F_0010;
    /// Client → master: query one job; payload is the job id (u64).
    pub const STATUS: u32 = 0x4E4F_0011;
    /// Client → master: cancel one job; payload is the job id (u64).
    pub const CANCEL: u32 = 0x4E4F_0012;
    /// Client → master: list jobs; empty payload.
    pub const JOBS: u32 = 0x4E4F_0013;
    /// Client → master: stop admitting jobs and exit once drained.
    pub const DRAIN: u32 = 0x4E4F_0014;
    /// Master → client: request accepted; payload depends on the request
    /// (e.g. the assigned job id for `SUBMIT`).
    pub const JOB_OK: u32 = 0x4E4F_0015;
    /// Master → client: one job's status record.
    pub const JOB_INFO: u32 = 0x4E4F_0016;
    /// Master → client: the job table listing.
    pub const JOB_LIST: u32 = 0x4E4F_0017;
    /// Master → client: request refused; payload is `reason (str)`.
    pub const SVC_ERR: u32 = 0x4E4F_0018;
    /// Client → master: subscribe to progressive frame updates for one
    /// job; payload is the job id (u64). The master answers `JOB_OK`
    /// and then pushes `FRAME_PROGRESS`/`FRAME_DELTA` frames as the
    /// job's pixels land, without further requests.
    pub const WATCH: u32 = 0x4E4F_0019;
    /// Master → client (push): progress summary for a watched job.
    pub const FRAME_PROGRESS: u32 = 0x4E4F_001A;
    /// Master → client (push): one region of a partially-complete frame,
    /// as a self-contained compressed tile (no prior client state
    /// needed).
    pub const FRAME_DELTA: u32 = 0x4E4F_001B;

    /// True for the request tags a control-plane client may send.
    pub(super) fn is_client(tag: u32) -> bool {
        matches!(tag, SUBMIT | STATUS | CANCEL | JOBS | DRAIN | WATCH)
    }
}

fn io_to_channel(e: &std::io::Error) -> ChannelError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ChannelError::TimedOut,
        _ => ChannelError::PeerGone,
    }
}

/// Assemble the full wire frame (header + body) for one message.
fn encode_frame(msg: &Message) -> Result<Vec<u8>, ChannelError> {
    let body = msg.encode();
    if body.len() > MAX_FRAME_LEN {
        return Err(ChannelError::Protocol("frame exceeds MAX_FRAME_LEN"));
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&body);
    Ok(buf)
}

/// Write one framed [`Message`]; returns the bytes put on the wire.
/// The frame is assembled first and written with a single `write_all`, so
/// a frame is never interleaved with another writer's bytes.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<u64, ChannelError> {
    let buf = encode_frame(msg)?;
    w.write_all(&buf).map_err(|e| io_to_channel(&e))?;
    w.flush().map_err(|e| io_to_channel(&e))?;
    Ok(buf.len() as u64)
}

fn read_exact_mapped(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ChannelError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => ChannelError::PeerGone,
        _ => io_to_channel(&e),
    })
}

/// Validate a frame header; returns the body length.
fn check_header(header: &[u8; HEADER_LEN]) -> Result<usize, ChannelError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if magic != MAGIC {
        return Err(ChannelError::Protocol("bad frame magic"));
    }
    if version != VERSION {
        return Err(ChannelError::Protocol("wire protocol version mismatch"));
    }
    if len > MAX_FRAME_LEN {
        return Err(ChannelError::Protocol("hostile length prefix"));
    }
    Ok(len)
}

/// Read one framed [`Message`] from a blocking stream; returns it with
/// the bytes consumed.
///
/// Validates magic, version and length prefix before touching the body;
/// a peer that disappears mid-frame surfaces as
/// [`ChannelError::PeerGone`], an idle link past the socket's read
/// timeout as [`ChannelError::TimedOut`], and malformed bytes as
/// [`ChannelError::Protocol`].
pub fn read_frame(r: &mut impl Read) -> Result<(Message, u64), ChannelError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_mapped(r, &mut header)?;
    let len = check_header(&header)?;
    let mut body = vec![0u8; len];
    read_exact_mapped(r, &mut body)?;
    let msg =
        Message::decode(&body).map_err(|_| ChannelError::Protocol("undecodable message body"))?;
    Ok((msg, (HEADER_LEN + len) as u64))
}

/// Incremental frame decoder for nonblocking sockets: bytes go in as
/// they arrive, whole frames come out. Performs the same validation as
/// [`read_frame`] (magic, version, length prefix) as soon as a header is
/// complete, so a hostile prefix is rejected before its body is buffered.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // reclaim consumed prefix before growing
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one is buffered. `Ok(None)` means
    /// more bytes are needed; errors are sticky protocol violations
    /// (the connection should be dropped).
    pub fn next_frame(&mut self) -> Result<Option<(Message, u64)>, ChannelError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = avail[..HEADER_LEN].try_into().expect("header slice");
        let len = check_header(&header)?;
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let body = &avail[HEADER_LEN..HEADER_LEN + len];
        let msg = Message::decode(body)
            .map_err(|_| ChannelError::Protocol("undecodable message body"))?;
        self.pos += HEADER_LEN + len;
        Ok(Some((msg, (HEADER_LEN + len) as u64)))
    }
}

// ---------------------------------------------------------------------
// Wire-encodable application types
// ---------------------------------------------------------------------

/// Types that can cross the TCP transport. Implemented by the farm for
/// its unit/result types; the encoding uses [`crate::codec`] so the byte
/// counts stay honest.
pub trait Wire: Sized {
    /// Append this value's wire representation.
    fn wire_encode(&self, e: &mut Encoder);
    /// Decode a value previously written by [`Wire::wire_encode`].
    fn wire_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

impl Wire for u64 {
    fn wire_encode(&self, e: &mut Encoder) {
        e.u64(*self);
    }
    fn wire_decode(d: &mut Decoder<'_>) -> Result<u64, DecodeError> {
        d.u64()
    }
}

impl Wire for Vec<u8> {
    fn wire_encode(&self, e: &mut Encoder) {
        e.bytes(self);
    }
    fn wire_decode(d: &mut Decoder<'_>) -> Result<Vec<u8>, DecodeError> {
        Ok(d.bytes()?.to_vec())
    }
}

// ---------------------------------------------------------------------
// Timing / liveness knobs
// ---------------------------------------------------------------------

/// Every timing constant of the transport in one place, so ops can trade
/// liveness (fast failure detection) against sensitivity (tolerating
/// slow links) without touching code.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Heartbeat (ping) cadence in seconds.
    pub heartbeat_s: f64,
    /// How long the master keeps waiting when it has no workers at all:
    /// a run that never sees a single successful handshake within this
    /// window fails with `TimedOut`. A fully departed farm still owed
    /// units waits for joiners only while this window is open and fewer
    /// than the `TcpClusterConfig::workers` quorum have ever joined.
    pub accept_window_s: f64,
    /// A connected worker whose socket stays silent this long is
    /// presumed dead and its leases are requeued. Heartbeat pongs keep a
    /// healthy link well under this. 0 disables the deadline.
    pub read_timeout_s: f64,
    /// A connection that doesn't complete its `HELLO` within this many
    /// seconds is dropped (slow-loris protection).
    pub handshake_timeout_s: f64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            heartbeat_s: 0.25,
            accept_window_s: 30.0,
            read_timeout_s: 30.0,
            handshake_timeout_s: 5.0,
        }
    }
}

/// Longest an idle loop waits before its next sweep. Every timer (leases,
/// heartbeats, read deadlines, a live service's wake) is checked at least
/// this often; traffic ends the wait early.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// `poll(2)` from the libc that std already links.
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_short};

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;

    /// `nfds_t`.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub(super) type Nfds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub(super) type Nfds = std::os::raw::c_uint;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: c_int) -> c_int;
    }
}

/// Seconds a quarantined node identity is turned away at `HELLO` before
/// it may rejoin.
const QUARANTINE_COOLDOWN_S: f64 = 60.0;

/// Upper bound on simultaneously enrolled live workers; connections beyond
/// it are rejected with a `REJECT` frame.
const MAX_WORKERS: usize = 4096;

// ---------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------

/// Configuration of a TCP master run.
#[derive(Debug, Clone)]
pub struct TcpClusterConfig {
    /// Target worker count: the membership quorum. The run does not fail
    /// with `TimedOut` while fewer than this many workers have ever
    /// joined and the accept window is open; more may join at any time.
    pub workers: usize,
    /// Lease/timeout recovery policy over wall-clock seconds. Defaults to
    /// disabled; process deaths are still recovered via the closed socket.
    pub recovery: RecoveryConfig,
    /// Timing and liveness knobs.
    pub net: NetConfig,
    /// Opaque application bytes shipped to every worker in `WELCOME`
    /// (the farm's job header: scene fingerprint + render settings).
    pub job_header: Vec<u8>,
    /// Expected scene fingerprint. When non-empty, a `HELLO` carrying a
    /// different non-empty fingerprint is rejected before enrollment.
    pub fingerprint: Vec<u8>,
    /// Deterministic fault injection (tests and drills; not a product
    /// knob). The net section gates connections by accept order. Of the
    /// compute section the master realises `corrupt@N` only, counting the
    /// *results it has received* from that worker, not units started: it
    /// damages them on arrival and verification + quarantine must absorb
    /// it. The rest act in the serve loop, so on in-process workers only
    /// ([`crate::ThreadCluster`]). The disk section is armed by whoever
    /// owns the journal (`now_core`'s TCP drivers).
    pub chaos: ChaosPlan,
}

impl TcpClusterConfig {
    /// Defaults for `workers` workers: quarter-second heartbeat, 30 s
    /// accept window, recovery disabled, empty job header, no faults.
    pub fn new(workers: usize) -> TcpClusterConfig {
        assert!(workers > 0);
        TcpClusterConfig {
            workers,
            recovery: RecoveryConfig::default(),
            net: NetConfig::default(),
            job_header: Vec::new(),
            fingerprint: Vec::new(),
            chaos: ChaosPlan::none(),
        }
    }
}

/// Where a connection is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepted; waiting for a valid `HELLO`.
    Hello,
    /// Handshake complete; bound to a worker slot.
    Enrolled,
    /// Control-plane client: opened with a request tag instead of
    /// `HELLO`; requests are routed through `MasterLogic::client_frame`.
    Client,
    /// Sending final frames (`REJECT`/`SHUTDOWN`); inbound is ignored.
    Draining,
}

/// One nonblocking connection owned by the master's poll loop.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    /// Outbound bytes not yet accepted by the kernel (backpressure).
    wbuf: Vec<u8>,
    wpos: usize,
    phase: Phase,
    /// Worker slot once enrolled.
    worker: Option<usize>,
    opened_s: f64,
    last_read_s: f64,
    /// Close the socket once `wbuf` has fully drained.
    close_after_flush: bool,
    /// Hard retire time for draining connections (0 = none).
    retire_at_s: f64,
    fault: ConnFaultState,
    bytes_in: u64,
    bytes_out: u64,
    msgs_in: u64,
    msgs_out: u64,
}

impl Conn {
    fn new(stream: TcpStream, now_s: f64, fault: ConnFaultState) -> Conn {
        Conn {
            stream,
            frames: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            phase: Phase::Hello,
            worker: None,
            opened_s: now_s,
            last_read_s: now_s,
            close_after_flush: false,
            retire_at_s: 0.0,
            fault,
            bytes_in: 0,
            bytes_out: 0,
            msgs_in: 0,
            msgs_out: 0,
        }
    }

    /// Queue one master (node 0) frame to node `to` for the flush sweep.
    fn queue(&mut self, to: NodeId, tag: u32, payload: Vec<u8>) -> Result<(), ChannelError> {
        let frame = encode_frame(&Message {
            from: 0,
            to,
            tag,
            payload,
        })?;
        self.wbuf.extend_from_slice(&frame);
        self.msgs_out += 1;
        Ok(())
    }

    /// True once every queued byte reached the kernel.
    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    /// Push queued bytes into the socket until it would block.
    /// `Err` means the connection is dead (or fault-dropped).
    fn flush(&mut self, now_s: f64) -> Result<(), ChannelError> {
        match self.fault.gate(now_s - self.opened_s) {
            Gate::Closed => return Err(ChannelError::PeerGone),
            Gate::Blocked => return Ok(()),
            Gate::Open => {}
        }
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ChannelError::PeerGone),
                Ok(n) => {
                    self.wpos += n;
                    self.bytes_out += n as u64;
                    self.fault.on_bytes(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(ChannelError::PeerGone),
            }
        }
        if self.flushed() && !self.wbuf.is_empty() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Drain readable bytes and decode complete frames into `out`.
    /// `Err` means the connection died or violated the protocol.
    fn read(&mut self, now_s: f64, out: &mut Vec<(Message, u64)>) -> Result<(), ChannelError> {
        match self.fault.gate(now_s - self.opened_s) {
            Gate::Closed => return Err(ChannelError::PeerGone),
            Gate::Blocked => return Ok(()),
            Gate::Open => {}
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ChannelError::PeerGone),
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.fault.on_bytes(n as u64);
                    self.last_read_s = now_s;
                    self.frames.push(&chunk[..n]);
                    while let Some(frame) = self.frames.next_frame()? {
                        self.msgs_in += 1;
                        out.push(frame);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(ChannelError::PeerGone),
            }
        }
        Ok(())
    }
}

/// One enrolled worker: its connection plus per-worker accounting. Its
/// protocol state (active, parked, done; leases; strikes) is the core's.
#[derive(Default)]
struct Slot {
    conn: Option<usize>,
    /// Node identity announced in `HELLO` (0 = anonymous); a quarantine
    /// turns it away for the cooldown.
    identity: u64,
    rtt_s: f64,
    last_ping_s: f64,
    busy_s: f64,
    units_done: u64,
    joined_s: f64,
    left_s: f64,
    /// Bytes the master received from this worker, folded in at retire.
    wire_in: u64,
    /// Bytes the master sent to this worker, folded in at retire.
    wire_out: u64,
}

/// The `HELLO` payload: `(identity, fingerprint)`. An empty payload is
/// the lenient anonymous form (pre-v2 workers and hand-rolled tests).
fn parse_hello(payload: &[u8]) -> Option<(u64, Vec<u8>)> {
    if payload.is_empty() {
        return Some((0, Vec::new()));
    }
    let mut d = Decoder::new(payload);
    Some((d.u64().ok()?, d.bytes().ok()?.to_vec()))
}

/// The listening (master) end of a TCP cluster.
///
/// Binding and running are separate so callers can bind port 0, learn the
/// real address via [`TcpMaster::local_addr`], and hand it to workers.
pub struct TcpMaster {
    listener: TcpListener,
}

impl TcpMaster {
    /// Bind the master listener (e.g. `"127.0.0.1:0"` for an OS-chosen
    /// port).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpMaster> {
        Ok(TcpMaster {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the demand-driven protocol to completion on a single network
    /// thread and return the master logic plus a wall-clock report with
    /// real per-worker byte, round-trip and membership metrics.
    ///
    /// Membership is elastic: workers may join at any time while the run
    /// is live (validated against `cfg.fingerprint`), and workers that
    /// die, stall past the read deadline, or violate the protocol have
    /// their leases requeued on the survivors — the run completes with
    /// byte-identical output.
    pub fn run<M>(self, master: M, cfg: &TcpClusterConfig) -> Result<(M, RunReport), ChannelError>
    where
        M: MasterLogic,
        M::Unit: Wire,
        M::Result: Wire,
    {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| io_to_channel(&e))?;
        run_master(master, cfg, Some(&self.listener), Vec::new())
    }
}

/// The master's sweep loop, the one wall-clock driver of [`MasterCore`]:
/// joiners arrive on `listener`, if any; `enrolled` connections become
/// slots `0..n` in order before the first sweep ([`crate::ThreadCluster`]).
pub(crate) fn run_master<M>(
    master: M,
    cfg: &TcpClusterConfig,
    listener: Option<&TcpListener>,
    enrolled: Vec<TcpStream>,
) -> Result<(M, RunReport), ChannelError>
where
    M: MasterLogic,
    M::Unit: Wire,
    M::Result: Wire,
{
    let mut run = MasterRun::new(master, cfg);
    for stream in enrolled {
        let ci = run.add_conn(stream, 0.0).map_err(|e| io_to_channel(&e))?;
        run.enrol(ci, 0, 0.0);
    }
    loop {
        let t = run.now();
        let mut activity = run.accept(listener, t)?;
        let (frames, dead) = run.io_sweep(t);
        activity |= !frames.is_empty() || !dead.is_empty();
        for (ci, msg) in frames {
            run.dispatch(ci, msg, t);
        }
        activity |= run.push_to_clients(t);
        // socket-level deaths, after their final frames
        for ci in dead {
            run.conn_died(ci);
        }
        let t = run.now();
        activity |= run.check_deadlines(t);
        // a worker may still enrol while the quorum was never met and
        // the accept window is open
        let joinable =
            (run.report.workers_joined as usize) < cfg.workers && t < cfg.net.accept_window_s;
        run.schedule(t, joinable);
        run.heartbeats(t);
        if run.should_stop(t, joinable)? {
            break;
        }
        if !activity {
            run.wait_ready(listener);
        }
    }
    run.drain();
    Ok(run.into_report())
}

/// A running TCP master: the sans-IO core plus what the transport adds
/// around it — connections, membership bookkeeping, fault gates and byte
/// accounting.
struct MasterRun<'a, M: MasterLogic> {
    cfg: &'a TcpClusterConfig,
    start: Instant,
    core: MasterCore<M>,
    conns: Vec<Option<Conn>>,
    slots: Vec<Slot>,
    /// Live node identities, to refuse a second claimant.
    identities: BTreeMap<u64, usize>,
    /// Node ids quarantined for bad results, mapped to the time their
    /// cooldown ends; reconnects before then are turned away.
    quarantined_until: BTreeMap<u64, f64>,
    /// Accept-order index, keys the net-fault plan.
    accepted: u64,
    /// Latched once `service_active()` is ever observed true: a drained
    /// service terminates cleanly instead of `TimedOut`.
    service_seen: bool,
    ping_seq: u64,
    /// Run-wide totals accumulate here directly (messages, bytes,
    /// membership counts, injected faults, master busy time).
    report: RunReport,
}

impl<'a, M> MasterRun<'a, M>
where
    M: MasterLogic,
    M::Unit: Wire,
    M::Result: Wire,
{
    fn new(master: M, cfg: &'a TcpClusterConfig) -> MasterRun<'a, M> {
        MasterRun {
            cfg,
            start: Instant::now(),
            core: MasterCore::new(master, cfg.recovery, 2),
            conns: Vec::new(),
            slots: Vec::new(),
            identities: BTreeMap::new(),
            quarantined_until: BTreeMap::new(),
            accepted: 0,
            service_seen: false,
            ping_seq: 0,
            report: RunReport::default(),
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Retire a connection: close, fold its byte totals into the run
    /// accounting, unlink it from its worker slot.
    fn retire_conn(&mut self, ci: usize) {
        let Some(c) = self.conns[ci].take() else {
            return;
        };
        let _ = c.stream.shutdown(Shutdown::Both);
        self.report.messages += c.msgs_in + c.msgs_out;
        self.report.bytes += c.bytes_in + c.bytes_out;
        if let Some(w) = c.worker {
            self.slots[w].wire_in += c.bytes_in;
            self.slots[w].wire_out += c.bytes_out;
            self.slots[w].conn = None;
        }
        if c.phase == Phase::Client {
            self.core.master_mut().client_gone(ci as u64);
        }
    }

    /// A connection that never became a worker or client is dropped.
    fn turn_away(&mut self, ci: usize) {
        self.report.workers_rejected += 1;
        now_trace::global().instant(0, "farm.membership", &[("event", 2)], false);
        self.retire_conn(ci);
    }

    /// Turn a handshaking connection away with a `REJECT` frame.
    fn reject_conn(&mut self, ci: usize, reason: &str, t: f64) {
        if let Some(c) = self.conns[ci].as_mut() {
            let mut e = Encoder::new();
            e.str(reason);
            let _ = c.queue(0, tag::REJECT, e.finish());
            c.phase = Phase::Draining;
            c.close_after_flush = true;
            c.retire_at_s = t + 1.0;
        }
        self.report.workers_rejected += 1;
        now_trace::global().instant(0, "farm.membership", &[("event", 2)], false);
    }

    /// Worker `w` is out of the run before its end (died, excluded or
    /// quarantined): the membership bookkeeping every such path shares.
    fn departed(&mut self, w: usize, t: f64) {
        self.slots[w].left_s = t;
        self.report.workers_left += 1;
        now_trace::global().instant(
            0,
            "farm.membership",
            &[("event", 1), ("worker", w as u64)],
            false,
        );
    }

    /// Observed death of worker `w` (closed socket, read deadline, a
    /// protocol violation or an undeliverable frame): the core requeues
    /// its leases and tells the application.
    fn worker_gone(&mut self, w: usize) {
        if self.core.is_live(w) {
            self.core.left(w);
            self.departed(w, self.now());
            if let Some(ci) = self.slots[w].conn {
                self.retire_conn(ci);
            }
        }
    }

    /// Queue a frame to worker `w`; false if its connection is gone.
    fn send_to(&mut self, w: usize, tag: u32, payload: Vec<u8>) -> bool {
        let conn = self.slots[w].conn.and_then(|ci| self.conns[ci].as_mut());
        conn.is_some_and(|c| c.queue(w + 1, tag, payload).is_ok())
    }

    /// Tell worker `w` to stop; its connection closes once the frame has
    /// flushed.
    fn shut_down(&mut self, w: usize) {
        self.send_to(w, tag::SHUTDOWN, Vec::new());
        if let Some(c) = self.slots[w].conn.and_then(|ci| self.conns[ci].as_mut()) {
            c.close_after_flush = true;
        }
    }

    /// Realise the core's pending actions as frames.
    fn pump(&mut self) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Send {
                    worker,
                    assign_id,
                    unit,
                } => {
                    let mut e = Encoder::new();
                    e.u64(assign_id);
                    unit.wire_encode(&mut e);
                    if !self.send_to(worker, tag::UNIT, e.finish()) {
                        self.worker_gone(worker);
                    }
                }
                Action::Shutdown { worker } => {
                    self.shut_down(worker);
                    self.slots[worker].left_s = self.now();
                }
                Action::Lost {
                    worker,
                    quarantined,
                } => {
                    let t = self.now();
                    let id = self.slots[worker].identity;
                    if quarantined && id != 0 {
                        let until = t + QUARANTINE_COOLDOWN_S;
                        self.quarantined_until.insert(id, until);
                    }
                    self.shut_down(worker);
                    self.departed(worker, t);
                }
            }
        }
    }

    /// Take over a connected socket in the `Hello` phase, gated by the
    /// net-fault plan's rule for its accept order; returns its index.
    fn add_conn(&mut self, stream: TcpStream, t: f64) -> std::io::Result<usize> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let chaos = &self.cfg.chaos;
        let fault = chaos.net.state_for(self.accepted, chaos.seed);
        self.accepted += 1;
        self.conns.push(Some(Conn::new(stream, t, fault)));
        Ok(self.conns.len() - 1)
    }

    /// New connections on `listener` enter the `Hello` phase; true if any
    /// arrived.
    fn accept(&mut self, listener: Option<&TcpListener>, t: f64) -> Result<bool, ChannelError> {
        let Some(listener) = listener else {
            return Ok(false);
        };
        let mut any = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    any = true;
                    let Ok(ci) = self.add_conn(stream, t) else {
                        continue;
                    };
                    let live = (0..self.slots.len())
                        .filter(|&w| self.core.is_live(w))
                        .count();
                    if live >= MAX_WORKERS {
                        self.reject_conn(ci, "farm full", t);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_to_channel(&e)),
            }
        }
    }

    /// Flush writes and read frames on every connection. Returns the
    /// decoded frames and the connections that died at the socket level
    /// (frames parsed before a death are still valid traffic).
    fn io_sweep(&mut self, t: f64) -> (Vec<(usize, Message)>, Vec<usize>) {
        let mut frames: Vec<(usize, Message)> = Vec::new();
        let mut dead: Vec<usize> = Vec::new();
        let mut drained: Vec<usize> = Vec::new();
        let mut inbox = Vec::new();
        for (ci, slot) in self.conns.iter_mut().enumerate() {
            let Some(c) = slot.as_mut() else { continue };
            if c.flush(t).is_err() {
                dead.push(ci);
                continue;
            }
            if c.close_after_flush && c.flushed() {
                drained.push(ci);
                continue;
            }
            let alive = c.read(t, &mut inbox).is_ok();
            frames.extend(inbox.drain(..).map(|(msg, _n)| (ci, msg)));
            if !alive {
                dead.push(ci);
            }
        }
        for ci in drained {
            self.retire_conn(ci);
        }
        (frames, dead)
    }

    /// Route one decoded frame by its connection's phase.
    fn dispatch(&mut self, ci: usize, msg: Message, t: f64) {
        let Some(c) = self.conns[ci].as_ref() else {
            return;
        };
        match (c.phase, c.worker) {
            (Phase::Hello, _) => self.on_opener(ci, msg, t),
            (Phase::Enrolled, Some(w)) => self.on_worker_frame(w, msg, t),
            (Phase::Client, _) => {
                // a client may pipeline further requests on the same
                // connection; anything else is a violation
                if !tag::is_client(msg.tag) || !self.client_request(ci, &msg) {
                    self.retire_conn(ci);
                }
            }
            // a rejected peer's inbound is ignored
            (Phase::Draining, _) | (Phase::Enrolled, None) => {}
        }
    }

    /// Route a client request through `MasterLogic::client_frame` and
    /// queue the reply; false if this master refuses it. The conn index
    /// (never reused in a run) is the client's push token.
    fn client_request(&mut self, ci: usize, msg: &Message) -> bool {
        let reply = self
            .core
            .master_mut()
            .client_frame(ci as u64, msg.tag, &msg.payload);
        let (Some((rtag, payload)), Some(c)) = (reply, self.conns[ci].as_mut()) else {
            return false;
        };
        c.phase = Phase::Client;
        let _ = c.queue(0, rtag, payload);
        true
    }

    /// First frame of a connection: a client request (no handshake, the
    /// request *is* the introduction) or a worker's `HELLO`.
    fn on_opener(&mut self, ci: usize, msg: Message, t: f64) {
        if tag::is_client(msg.tag) {
            if !self.client_request(ci, &msg) {
                // this master serves no clients
                self.turn_away(ci);
            }
            return;
        }
        let hello = (msg.tag == tag::HELLO)
            .then(|| parse_hello(&msg.payload))
            .flatten();
        let Some((identity, fp)) = hello else {
            return self.turn_away(ci);
        };
        let expected = &self.cfg.fingerprint;
        if !expected.is_empty() && !fp.is_empty() && fp != *expected {
            return self.reject_conn(ci, "scene fingerprint mismatch", t);
        }
        if identity != 0 {
            if (self.identities.get(&identity)).is_some_and(|&w| self.core.is_live(w)) {
                return self.reject_conn(ci, "duplicate node id", t);
            }
            if (self.quarantined_until.get(&identity)).is_some_and(|&until| t < until) {
                return self.reject_conn(ci, "quarantined", t);
            }
        }
        self.enrol(ci, identity, t);
    }

    /// Bind connection `ci` to a new worker slot and queue its `WELCOME`:
    /// node id (slot + 1; node 0 is the master) and job header.
    fn enrol(&mut self, ci: usize, identity: u64, t: f64) {
        let w = self.core.joined();
        debug_assert_eq!(w, self.slots.len());
        self.slots.push(Slot {
            conn: Some(ci),
            identity,
            last_ping_s: t,
            joined_s: t,
            ..Slot::default()
        });
        if identity != 0 {
            self.identities.insert(identity, w);
        }
        self.report.workers_joined += 1;
        now_trace::global().instant(
            0,
            "farm.membership",
            &[("event", 0), ("worker", w as u64)],
            false,
        );
        let c = self.conns[ci].as_mut().expect("enrolling conn is live");
        c.phase = Phase::Enrolled;
        c.worker = Some(w);
        let mut e = Encoder::new();
        e.u64((w + 1) as u64).bytes(&self.cfg.job_header);
        self.send_to(w, tag::WELCOME, e.finish());
    }

    /// A frame from enrolled worker `w`.
    fn on_worker_frame(&mut self, w: usize, msg: Message, t: f64) {
        if !self.core.is_live(w) {
            return; // late frame from a finished worker
        }
        match msg.tag {
            tag::REQUEST => self.core.request(w, t),
            tag::RESULT => {
                let mut payload = msg.payload;
                // byzantine-result injection: damage the result bytes past
                // the assign+busy header, as if the worker had computed
                // wrong pixels
                let corrupt = &self.cfg.chaos.compute;
                if corrupt.corrupts(w, self.slots[w].units_done) && payload.len() > 16 {
                    let last = payload.len() - 1;
                    payload[last] ^= 0x20;
                    self.report.faults_injected += 1;
                }
                let mut d = Decoder::new(&payload);
                let header = (|| -> Result<_, DecodeError> { Ok((d.u64()?, d.f64()?)) })();
                let Ok((assign, busy_s)) = header else {
                    // can't even tell which lease this answers: broken peer
                    return self.worker_gone(w);
                };
                self.slots[w].busy_s = busy_s;
                self.slots[w].units_done += 1;
                // an undecodable result under a valid header is bad bytes,
                // not a dead peer: the core rejects it and strikes
                let result = M::Result::wire_decode(&mut d);
                let t0 = Instant::now();
                self.core.result(w, assign, result, t);
                self.report.master_busy_s += t0.elapsed().as_secs_f64();
                // a result doubles as the next work request
                self.core.request(w, t);
            }
            tag::PONG => {
                let mut d = Decoder::new(&msg.payload);
                if let (Ok(_seq), Ok(sent_ns)) = (d.u64(), d.u64()) {
                    let now_ns = self.start.elapsed().as_nanos() as u64;
                    let rtt = now_ns.saturating_sub(sent_ns) as f64 / 1e9;
                    let s = &mut self.slots[w];
                    s.rtt_s = if s.rtt_s == 0.0 {
                        rtt
                    } else {
                        0.8 * s.rtt_s + 0.2 * rtt
                    };
                }
            }
            // a HELLO replay or unknown tag mid-run is a protocol
            // violation: cut the peer loose and requeue its work
            _ => self.worker_gone(w),
        }
        self.pump();
    }

    /// Queue the master's unsolicited frames on their client connections;
    /// frames for clients that already hung up are dropped.
    fn push_to_clients(&mut self, t: f64) -> bool {
        let pushes = self.core.master_mut().client_pushes();
        let any = !pushes.is_empty();
        for (client, ptag, payload) in pushes {
            let conn = usize::try_from(client)
                .ok()
                .and_then(|ci| self.conns.get_mut(ci))
                .and_then(|s| s.as_mut());
            let Some(c) = conn.filter(|c| c.phase == Phase::Client) else {
                continue;
            };
            let _ = c.queue(0, ptag, payload);
            // a push proves the stream is wanted: a quietly-watching
            // client must not trip the idle read timeout
            c.last_read_s = t;
        }
        any
    }

    /// A connection died at the socket level: route to the right
    /// bookkeeping for its phase.
    fn conn_died(&mut self, ci: usize) {
        match self.conns[ci].as_ref().map(|c| (c.phase, c.worker)) {
            Some((Phase::Enrolled, Some(w))) if self.core.is_live(w) => {
                self.worker_gone(w); // retires the conn itself
            }
            Some((Phase::Hello, _)) => self.turn_away(ci),
            Some(_) => self.retire_conn(ci),
            None => {}
        }
    }

    /// Handshake, drain and read deadlines, then lease deadlines; true if
    /// anything fired.
    fn check_deadlines(&mut self, t: f64) -> bool {
        let net = &self.cfg.net;
        let mut any = false;
        for ci in 0..self.conns.len() {
            let Some(c) = self.conns[ci].as_ref() else {
                continue;
            };
            let silent = net.read_timeout_s > 0.0 && t - c.last_read_s > net.read_timeout_s;
            match c.phase {
                // slow-loris half-connection: never said HELLO
                Phase::Hello if t - c.opened_s > net.handshake_timeout_s => self.turn_away(ci),
                Phase::Draining if c.retire_at_s > 0.0 && t >= c.retire_at_s => {
                    self.retire_conn(ci)
                }
                Phase::Enrolled if silent => match c.worker {
                    Some(w) if self.core.is_live(w) => self.worker_gone(w),
                    _ => continue,
                },
                // an idle client holds no leases; just hang up
                Phase::Client if silent => self.retire_conn(ci),
                _ => continue,
            }
            any = true;
        }
        let expired = !self.core.tick(t).is_empty();
        self.pump();
        any || expired
    }

    /// Re-poll parked workers when the core has reason to — and, for a
    /// live service, every sweep: a client submission can create work at
    /// any moment and no core event announces it. (Frames queued here go
    /// out on the next sweep; they do not count as activity, so an idle
    /// service still sleeps between polls.)
    fn schedule(&mut self, t: f64, joinable: bool) {
        let service = self.core.master().service_active();
        self.service_seen |= service;
        self.core.set_joinable(joinable);
        if service || self.core.wakeable(t) {
            self.core.wake(t);
        }
        self.pump();
    }

    fn heartbeats(&mut self, t: f64) {
        for w in 0..self.slots.len() {
            if self.core.is_live(w) && t - self.slots[w].last_ping_s >= self.cfg.net.heartbeat_s {
                self.ping_seq += 1;
                let mut e = Encoder::new();
                e.u64(self.ping_seq)
                    .u64(self.start.elapsed().as_nanos() as u64);
                self.slots[w].last_ping_s = t;
                if !self.send_to(w, tag::PING, e.finish()) {
                    self.worker_gone(w);
                }
            }
        }
    }

    /// Is the run over? `Err(TimedOut)` when no worker ever joined within
    /// the accept window.
    fn should_stop(&self, t: f64, joinable: bool) -> Result<bool, ChannelError> {
        if self.core.master().service_active() {
            // long-lived service: stay up regardless of the accept window
            // — clients and workers may arrive at any time, and the
            // application decides when the service drains
            return Ok(false);
        }
        if self.slots.is_empty() {
            // a drained service with no workers left (or none ever
            // joined) has every job terminal: exit cleanly
            let hello_open = self.conns.iter().flatten().any(|c| c.phase == Phase::Hello);
            if !self.service_seen && !hello_open && t >= self.cfg.net.accept_window_s {
                return Err(ChannelError::TimedOut);
            }
            return Ok(self.service_seen);
        }
        // every worker is done: stop unless work is still owed and a
        // replacement joiner may yet arrive
        Ok(self.core.finished() && (self.service_seen || self.core.job_complete() || !joinable))
    }

    /// Block until a socket has something for the next sweep — a pending
    /// connection, readable bytes, room for unflushed ones — or
    /// [`POLL_INTERVAL`] has passed, whichever is first. A connection whose
    /// fault gate is shut is left out: the sweep would not touch its ready
    /// socket, so waiting on it would spin.
    #[cfg(unix)]
    fn wait_ready(&mut self, listener: Option<&TcpListener>) {
        use std::os::unix::io::AsRawFd;
        let t = self.now();
        let listening = listener.map(|l| (l.as_raw_fd(), sys::POLLIN));
        let open = self.conns.iter_mut().flatten().filter_map(|c| {
            let unflushed = if c.flushed() { 0 } else { sys::POLLOUT };
            (c.fault.gate(t - c.opened_s) == Gate::Open)
                .then(|| (c.stream.as_raw_fd(), sys::POLLIN | unflushed))
        });
        let mut fds: Vec<sys::PollFd> = listening
            .into_iter()
            .chain(open)
            .map(|(fd, events)| sys::PollFd {
                fd,
                events,
                revents: 0,
            })
            .collect();
        // SAFETY: `fds` is a live, exclusively borrowed array of exactly
        // `fds.len()` `pollfd`s for the whole call, and every descriptor in
        // it belongs to a socket this struct (or the caller's listener)
        // keeps open. The result is not needed: ready, timed out or
        // interrupted, the caller sweeps every socket next.
        unsafe {
            sys::poll(
                fds.as_mut_ptr(),
                fds.len() as sys::Nfds,
                POLL_INTERVAL.as_millis() as std::os::raw::c_int,
            );
        }
    }

    #[cfg(not(unix))]
    fn wait_ready(&mut self, _listener: Option<&TcpListener>) {
        std::thread::sleep(POLL_INTERVAL);
    }

    /// Flush final `SHUTDOWN`/`REJECT` frames, then close everything.
    fn drain(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let t = self.now();
            let mut unflushed = false;
            for ci in 0..self.conns.len() {
                let Some(c) = self.conns[ci].as_mut() else {
                    continue;
                };
                if c.flush(t).is_err() || c.flushed() {
                    self.retire_conn(ci);
                } else {
                    unflushed = true;
                }
            }
            if !unflushed || Instant::now() >= deadline {
                break;
            }
            self.wait_ready(None);
        }
        for ci in 0..self.conns.len() {
            self.retire_conn(ci);
        }
    }

    fn into_report(mut self) -> (M, RunReport) {
        self.report.makespan_s = self.start.elapsed().as_secs_f64();
        let machine = |(w, s): (usize, &Slot)| MachineReport {
            name: format!("tcp-worker-{w}"),
            busy_s: s.busy_s,
            units_done: s.units_done,
            bytes_sent: s.wire_in,
            bytes_received: s.wire_out,
            rtt_s: s.rtt_s,
            joined_s: s.joined_s,
            left_s: s.left_s,
            ..Default::default()
        };
        self.report.machines = self.slots.iter().enumerate().map(machine).collect();
        let (master, mut counters, health) = self.core.finish();
        counters.faults_injected = self.report.faults_injected;
        self.report.absorb_recovery(&counters, &health);
        (master, self.report)
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Connection policy for [`connect_worker`].
#[derive(Debug, Clone)]
pub struct ConnectConfig {
    /// Connect attempts before giving up.
    pub attempts: u32,
    /// Base retry delay: attempt `k` sleeps uniform in
    /// `[0, min(backoff_cap_s, backoff_s * 2^k))` — *full jitter*, so a
    /// fleet reconnecting after a master restart doesn't stampede.
    pub backoff_s: f64,
    /// Ceiling on the jitter window.
    pub backoff_cap_s: f64,
    /// Seed for the jitter schedule; 0 derives one from wall time and
    /// pid (production), nonzero replays deterministically (tests).
    pub jitter_seed: u64,
    /// Treat the master as gone after this many seconds of socket
    /// silence (the master pings every `heartbeat_s`, so a healthy link
    /// is never silent for long). 0 disables the timeout.
    pub read_timeout_s: f64,
    /// Stable node identity announced in `HELLO`; 0 = anonymous. The
    /// master rejects a second live connection claiming the same
    /// nonzero identity.
    pub identity: u64,
    /// Scene fingerprint announced in `HELLO`; empty skips master-side
    /// validation (the job header check still applies).
    pub fingerprint: Vec<u8>,
}

impl Default for ConnectConfig {
    fn default() -> ConnectConfig {
        ConnectConfig {
            attempts: 20,
            backoff_s: 0.1,
            backoff_cap_s: 2.0,
            jitter_seed: 0,
            read_timeout_s: 30.0,
            identity: 0,
            fingerprint: Vec::new(),
        }
    }
}

/// What a worker did over one connection, returned by
/// [`TcpWorkerConn::serve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSummary {
    /// Node id the master assigned (1-based; 0 is the master).
    pub node_id: NodeId,
    /// Units computed.
    pub units: u64,
    /// Seconds spent computing.
    pub busy_s: f64,
    /// Bytes this worker put on the wire.
    pub bytes_sent: u64,
    /// Bytes received from the master.
    pub bytes_received: u64,
}

/// A connected, handshaken worker endpoint.
pub struct TcpWorkerConn {
    writer: Arc<Mutex<TcpStream>>,
    closer: TcpStream,
    events: Receiver<Result<(Message, u64), ChannelError>>,
    reader: std::thread::JoinHandle<u64>,
    node_id: NodeId,
    job_header: Vec<u8>,
    bytes_out: u64,
    bytes_in: u64,
}

/// Connect to a master with jittered retry/backoff and perform the
/// handshake.
///
/// Joining works at any point of a live run, not only before it starts:
/// the master enrolls late joiners on the fly. On success the returned
/// connection knows its assigned node id and the master's job header;
/// call [`TcpWorkerConn::serve`] to process units until shutdown. A
/// master that turns the worker away (wrong scene fingerprint, duplicate
/// identity, full farm) surfaces as [`ChannelError::Protocol`] with the
/// rejection reason.
pub fn connect_worker(addr: &str, cfg: &ConnectConfig) -> Result<TcpWorkerConn, ChannelError> {
    let mut rng = if cfg.jitter_seed == 0 {
        JitterRng::from_entropy()
    } else {
        JitterRng::new(cfg.jitter_seed)
    };
    let attempts = cfg.attempts.max(1);
    let mut stream = None;
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) if attempt + 1 < attempts => {
                let delay = full_jitter_delay(
                    cfg.backoff_s.max(0.01),
                    cfg.backoff_cap_s.max(0.01),
                    attempt,
                    &mut rng,
                );
                std::thread::sleep(Duration::from_secs_f64(delay));
            }
            Err(e) => return Err(io_to_channel(&e)),
        }
    }
    let mut stream = stream.ok_or(ChannelError::PeerGone)?;
    stream.set_nodelay(true).map_err(|e| io_to_channel(&e))?;
    if cfg.read_timeout_s > 0.0 {
        stream
            .set_read_timeout(Some(Duration::from_secs_f64(cfg.read_timeout_s)))
            .map_err(|e| io_to_channel(&e))?;
    }
    let mut e = Encoder::new();
    e.u64(cfg.identity).bytes(&cfg.fingerprint);
    let hello = Message {
        from: 0,
        to: 0,
        tag: tag::HELLO,
        payload: e.finish(),
    };
    let bytes_out = write_frame(&mut stream, &hello)?;
    TcpWorkerConn::welcomed(stream, bytes_out)
}

impl TcpWorkerConn {
    /// The worker end once its `HELLO` is out (`bytes_out` bytes) or the
    /// master enrolled it directly (in process): read the `WELCOME` (or
    /// `REJECT`) and start the reader thread that answers heartbeats.
    pub(crate) fn welcomed(mut stream: TcpStream, bytes_out: u64) -> Result<Self, ChannelError> {
        let (welcome, welcome_bytes) = read_frame(&mut stream)?;
        if welcome.tag == tag::REJECT {
            let mut d = Decoder::new(&welcome.payload);
            // map the wire reason onto static strings (ChannelError carries
            // &'static str) so callers can match on it
            return Err(ChannelError::Protocol(match d.str() {
                Ok("scene fingerprint mismatch") => {
                    "rejected by master: scene fingerprint mismatch"
                }
                Ok("duplicate node id") => "rejected by master: duplicate node id",
                Ok("farm full") => "rejected by master: farm full",
                Ok("quarantined") => "rejected by master: quarantined",
                _ => "rejected by master",
            }));
        }
        if welcome.tag != tag::WELCOME {
            return Err(ChannelError::Protocol("expected WELCOME"));
        }
        let mut d = Decoder::new(&welcome.payload);
        let welcome = (|| Some((d.u64().ok()? as NodeId, d.bytes().ok()?.to_vec())))();
        let (node_id, job_header) = welcome.ok_or(ChannelError::Protocol("bad WELCOME payload"))?;
        let reader_stream = stream.try_clone().map_err(|e| io_to_channel(&e))?;
        let closer = stream.try_clone().map_err(|e| io_to_channel(&e))?;
        let writer = Arc::new(Mutex::new(stream));
        let (tx, rx) = channel();
        let ping_writer = Arc::clone(&writer);
        let reader = std::thread::spawn(move || {
            let mut stream = reader_stream;
            let mut pong_bytes = 0u64;
            loop {
                match read_frame(&mut stream) {
                    Ok((msg, n)) if msg.tag == tag::PING => {
                        // answer immediately, even mid-compute, so the master
                        // measures link RTT rather than unit latency
                        let pong = Message {
                            from: node_id,
                            to: 0,
                            tag: tag::PONG,
                            payload: msg.payload,
                        };
                        let sent = write_frame(&mut *ping_writer.lock().expect("lock"), &pong);
                        match sent {
                            Ok(b) => pong_bytes += b + n,
                            Err(_) => {
                                let _ = tx.send(Err(ChannelError::PeerGone));
                                break;
                            }
                        }
                    }
                    Ok(frame) => {
                        let done = frame.0.tag == tag::SHUTDOWN;
                        if tx.send(Ok(frame)).is_err() || done {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
            pong_bytes
        });
        Ok(TcpWorkerConn {
            writer,
            closer,
            events: rx,
            reader,
            node_id,
            job_header,
            bytes_out,
            bytes_in: welcome_bytes,
        })
    }

    /// The node id the master assigned during the handshake.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The master's job header bytes (application-defined; the farm puts
    /// a scene fingerprint and the settings that must match here).
    pub fn job_header(&self) -> &[u8] {
        &self.job_header
    }

    fn send(&mut self, tag: u32, payload: Vec<u8>) -> Result<(), ChannelError> {
        let msg = Message {
            from: self.node_id,
            to: 0,
            tag,
            payload,
        };
        self.bytes_out += write_frame(&mut *self.writer.lock().expect("writer lock"), &msg)?;
        Ok(())
    }

    /// Leave the cluster without serving: shut the socket down and reap
    /// the reader thread, so the master observes a dead worker.
    ///
    /// Call this when the job header fails validation. Merely dropping
    /// the connection is not enough — the reader thread keeps the socket
    /// open and keeps answering heartbeats, so the master would wait on
    /// an idle-but-alive worker indefinitely.
    pub fn leave(self) {
        let _ = self.closer.shutdown(Shutdown::Both);
        let _ = self.reader.join();
    }

    /// Process units until the master shuts this worker down.
    ///
    /// Returns `Err` if the master disappears (socket closed or silent
    /// past the read timeout) or violates the protocol; a worker should
    /// treat that as "the run is over for me".
    pub fn serve<W>(self, logic: W) -> Result<WorkerSummary, ChannelError>
    where
        W: WorkerLogic,
        W::Unit: Wire,
        W::Result: Wire,
    {
        self.serve_with(logic, &FaultPlan::none()).0
    }

    /// [`TcpWorkerConn::serve`] under the compute faults of slot node id − 1,
    /// the one place `join`, `crash`, `stall`, `slow` and `drop` are
    /// realised (DESIGN.md §8); also returns how many fired.
    pub(crate) fn serve_with<W>(
        mut self,
        mut logic: W,
        faults: &FaultPlan,
    ) -> (Result<WorkerSummary, ChannelError>, u64)
    where
        W: WorkerLogic,
        W::Unit: Wire,
        W::Result: Wire,
    {
        let w = self.node_id.saturating_sub(1);
        let (mut busy, mut units, mut injected) = (0.0f64, 0u64, 0u64);
        std::thread::sleep(Duration::from_secs_f64(faults.join_time(w)));
        if let Err(e) = self.send(tag::REQUEST, Vec::new()) {
            return (Err(e), 0);
        }
        let outcome = loop {
            match self.events.recv() {
                Ok(Ok((msg, nbytes))) => {
                    self.bytes_in += nbytes;
                    match msg.tag {
                        tag::UNIT => {
                            let mut d = Decoder::new(&msg.payload);
                            let decoded =
                                (|| Some((d.u64().ok()?, W::Unit::wire_decode(&mut d).ok()?)))();
                            let Some((assign, unit)) = decoded else {
                                break Err(ChannelError::Protocol("bad unit payload"));
                            };
                            // every unit started before this one was computed
                            let idx = units;
                            if faults.crash_unit(w) == Some(idx) {
                                injected += 1;
                                break Ok(());
                            }
                            if faults.stall_unit(w) == Some(idx) {
                                // mute (pongs still flow) until SHUTDOWN or EOF
                                injected += 1;
                                while self.events.recv().is_ok() {}
                                break Ok(());
                            }
                            let t0 = Instant::now();
                            let (result, _cost) = logic.perform(&unit);
                            let factor = faults.slowdown(w, idx);
                            if factor > 1.0 {
                                injected += 1;
                                std::thread::sleep(t0.elapsed().mul_f64(factor - 1.0));
                            }
                            busy += t0.elapsed().as_secs_f64();
                            units += 1;
                            if faults.drops_result(w, idx) {
                                injected += 1;
                                continue;
                            }
                            let mut e = Encoder::new();
                            e.u64(assign).f64(busy);
                            result.wire_encode(&mut e);
                            if let Err(e) = self.send(tag::RESULT, e.finish()) {
                                break Err(e);
                            }
                        }
                        tag::SHUTDOWN => break Ok(()),
                        // WELCOME duplicates or future tags: ignore
                        _ => {}
                    }
                }
                Ok(Err(e)) => break Err(e),
                Err(_) => break Err(ChannelError::PeerGone),
            }
        };
        let _ = self.closer.shutdown(Shutdown::Both);
        let pong_bytes = self.reader.join().unwrap_or(0);
        let summary = WorkerSummary {
            node_id: self.node_id,
            units,
            busy_s: busy,
            bytes_sent: self.bytes_out + pong_bytes,
            bytes_received: self.bytes_in,
        };
        (outcome.map(|()| summary), injected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{MasterWork, WorkCost};
    use std::collections::BTreeSet;

    struct CountMaster {
        next: u64,
        limit: u64,
        seen: BTreeSet<u64>,
    }

    impl CountMaster {
        fn new(limit: u64) -> CountMaster {
            CountMaster {
                next: 0,
                limit,
                seen: BTreeSet::new(),
            }
        }
    }

    impl MasterLogic for CountMaster {
        type Unit = u64;
        type Result = u64;
        fn assign(&mut self, _w: usize) -> Option<u64> {
            if self.next < self.limit {
                self.next += 1;
                Some(self.next - 1)
            } else {
                None
            }
        }
        fn integrate(&mut self, _w: usize, unit: u64, result: u64) -> Option<MasterWork> {
            if result != unit * unit {
                // wrong bytes: reject instead of integrating
                return None;
            }
            assert!(self.seen.insert(unit), "unit {unit} integrated twice");
            Some(MasterWork::default())
        }
    }

    struct Squarer;
    impl WorkerLogic for Squarer {
        type Unit = u64;
        type Result = u64;
        fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
            (unit * unit, WorkCost::compute_only(0.0))
        }
    }

    /// A squarer that sleeps per unit, so runs last long enough for
    /// mid-run membership changes to land deterministically.
    struct SlowSquarer(u64);
    impl WorkerLogic for SlowSquarer {
        type Unit = u64;
        type Result = u64;
        fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
            std::thread::sleep(Duration::from_millis(self.0));
            (unit * unit, WorkCost::compute_only(0.0))
        }
    }

    fn spawn_workers(addr: String, n: usize) -> Vec<std::thread::JoinHandle<WorkerSummary>> {
        (0..n)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
                    conn.serve(Squarer).expect("serve")
                })
            })
            .collect()
    }

    #[test]
    fn tcp_cluster_processes_every_unit_exactly_once() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        let handles = spawn_workers(addr, 2);
        let cfg = TcpClusterConfig::new(2);
        let (m, report) = master.run(CountMaster::new(50), &cfg).expect("run");
        assert_eq!(m.seen.len(), 50);
        assert_eq!(
            report.machines.iter().map(|m| m.units_done).sum::<u64>(),
            50
        );
        assert_eq!(report.workers_lost, 0);
        assert_eq!(report.workers_joined, 2);
        assert_eq!(report.workers_left, 0, "clean shutdowns are not churn");
        assert!(report.messages > 0);
        assert!(report.bytes > 0);
        for h in handles {
            let s = h.join().expect("worker thread");
            assert!(s.units > 0, "demand-driven: every worker got units");
            assert!(s.bytes_sent > 0 && s.bytes_received > 0);
        }
    }

    #[test]
    fn worker_learns_node_id_and_job_header() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        let h = std::thread::spawn(move || {
            let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
            let (id, header) = (conn.node_id(), conn.job_header().to_vec());
            let summary = conn.serve(Squarer).expect("serve");
            (id, header, summary.node_id)
        });
        let mut cfg = TcpClusterConfig::new(1);
        cfg.job_header = vec![9, 8, 7];
        let (m, _report) = master.run(CountMaster::new(3), &cfg).expect("run");
        assert_eq!(m.seen.len(), 3);
        let (id, header, sid) = h.join().expect("worker");
        assert_eq!(id, 1, "first accepted worker is node 1");
        assert_eq!(sid, 1);
        assert_eq!(header, vec![9, 8, 7]);
    }

    #[test]
    fn connect_retries_until_master_binds() {
        // grab a port, release it, connect with retries while the master
        // binds it slightly later
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let addr = probe.local_addr().expect("addr").to_string();
        drop(probe);
        let worker_addr = addr.clone();
        let h = std::thread::spawn(move || {
            let cfg = ConnectConfig {
                attempts: 200,
                backoff_s: 0.02,
                backoff_cap_s: 0.1,
                jitter_seed: 11,
                read_timeout_s: 10.0,
                ..ConnectConfig::default()
            };
            let conn = connect_worker(&worker_addr, &cfg).expect("connect with retry");
            conn.serve(Squarer).expect("serve")
        });
        std::thread::sleep(Duration::from_millis(150));
        let master = TcpMaster::bind(&addr).expect("bind released port");
        let (m, _): (CountMaster, _) = master
            .run(CountMaster::new(5), &TcpClusterConfig::new(1))
            .expect("run");
        assert_eq!(m.seen.len(), 5);
        assert!(h.join().expect("worker").units == 5);
    }

    #[test]
    fn accept_times_out_when_no_worker_connects() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let mut cfg = TcpClusterConfig::new(1);
        cfg.net.accept_window_s = 0.2;
        let err = master
            .run(CountMaster::new(1), &cfg)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, ChannelError::TimedOut);
    }

    #[test]
    fn frame_buf_reassembles_dribbled_bytes() {
        let msgs = [
            Message {
                from: 3,
                to: 0,
                tag: tag::REQUEST,
                payload: vec![],
            },
            Message {
                from: 3,
                to: 0,
                tag: tag::RESULT,
                payload: vec![1, 2, 3, 4, 5],
            },
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_frame(m).expect("encode"));
        }
        // one byte at a time: frames must pop exactly at their boundary
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for &b in &wire {
            fb.push(&[b]);
            while let Some((msg, n)) = fb.next_frame().expect("clean stream") {
                got.push((msg, n));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, msgs[0]);
        assert_eq!(got[1].0, msgs[1]);
        assert_eq!(got[1].1 as usize, HEADER_LEN + msgs[1].encode().len());
        assert_eq!(fb.buf.len(), fb.pos);
    }

    #[test]
    fn frame_buf_rejects_bad_magic_before_body() {
        let mut fb = FrameBuf::new();
        fb.push(b"GET / HTTP/1.1\r\n");
        assert_eq!(
            fb.next_frame().unwrap_err(),
            ChannelError::Protocol("bad frame magic")
        );
    }

    #[test]
    fn late_joiner_pulls_units_midrun() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        // worker 0 from the start; worker 1 joins ~200 ms into the run
        let a = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
                conn.serve(SlowSquarer(5)).expect("serve")
            })
        };
        let b = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(200));
                let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
                conn.serve(SlowSquarer(5)).expect("serve")
            })
        };
        // quorum 1: the run starts as soon as worker 0 joins
        let cfg = TcpClusterConfig::new(1);
        let (m, report) = master.run(CountMaster::new(120), &cfg).expect("run");
        assert_eq!(m.seen.len(), 120, "every unit integrated exactly once");
        assert_eq!(report.workers_joined, 2, "the late joiner enrolled");
        assert_eq!(report.machines.len(), 2);
        assert!(
            report.machines[1].joined_s > 0.1,
            "joiner #2 arrived mid-run (joined at {:.3}s)",
            report.machines[1].joined_s
        );
        let (sa, sb) = (a.join().expect("a"), b.join().expect("b"));
        assert!(sa.units > 0 && sb.units > 0, "both workers pulled units");
        assert_eq!(sa.units + sb.units, 120);
    }

    #[test]
    fn wrong_fingerprint_is_rejected_without_disturbing_the_run() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        let mut cfg = TcpClusterConfig::new(1);
        cfg.fingerprint = vec![0xAA, 0xBB, 0xCC];
        // a good worker (matching fingerprint) carries the run…
        let good = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let wcfg = ConnectConfig {
                    fingerprint: vec![0xAA, 0xBB, 0xCC],
                    ..ConnectConfig::default()
                };
                let conn = connect_worker(&addr, &wcfg).expect("connect");
                conn.serve(SlowSquarer(3)).expect("serve")
            })
        };
        // …while a worker rendering a different scene is turned away
        let bad = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                let wcfg = ConnectConfig {
                    fingerprint: vec![0xDE, 0xAD],
                    ..ConnectConfig::default()
                };
                connect_worker(&addr, &wcfg).map(|_| ()).unwrap_err()
            })
        };
        let (m, report) = master.run(CountMaster::new(60), &cfg).expect("run");
        assert_eq!(m.seen.len(), 60);
        assert_eq!(report.workers_joined, 1);
        assert_eq!(report.workers_rejected, 1);
        assert_eq!(report.workers_lost, 0, "the run itself was undisturbed");
        assert!(good.join().expect("good").units == 60);
        assert_eq!(
            bad.join().expect("bad"),
            ChannelError::Protocol("rejected by master: scene fingerprint mismatch")
        );
    }

    #[test]
    fn duplicate_identity_is_rejected_while_original_lives() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        let original = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let wcfg = ConnectConfig {
                    identity: 42,
                    ..ConnectConfig::default()
                };
                let conn = connect_worker(&addr, &wcfg).expect("connect");
                conn.serve(SlowSquarer(3)).expect("serve")
            })
        };
        let imposter = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                let wcfg = ConnectConfig {
                    identity: 42,
                    ..ConnectConfig::default()
                };
                connect_worker(&addr, &wcfg).map(|_| ()).unwrap_err()
            })
        };
        let (m, report) = master
            .run(CountMaster::new(60), &TcpClusterConfig::new(1))
            .expect("run");
        assert_eq!(m.seen.len(), 60);
        assert_eq!(report.workers_joined, 1);
        assert_eq!(report.workers_rejected, 1);
        assert!(original.join().expect("original").units == 60);
        assert_eq!(
            imposter.join().expect("imposter"),
            ChannelError::Protocol("rejected by master: duplicate node id")
        );
    }

    #[test]
    fn corrupt_worker_is_quarantined_and_its_reconnect_refused() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        // quorum 2 keeps the door open for the honest late joiner even
        // after the byzantine worker has been quarantined
        let mut cfg = TcpClusterConfig::new(2);
        cfg.chaos.compute = crate::FaultPlan::none().corrupt_from(0, 0);
        // the honest worker joins second and carries the run
        let honest = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(120));
                let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
                conn.serve(SlowSquarer(3)).expect("serve")
            })
        };
        // the byzantine worker (slot 0, every result damaged) is struck
        // out, shut down, and its identity refused on reconnect
        let byzantine = std::thread::spawn(move || {
            let wcfg = ConnectConfig {
                identity: 7,
                ..ConnectConfig::default()
            };
            let conn = connect_worker(&addr, &wcfg).expect("connect");
            let summary = conn.serve(SlowSquarer(3)).expect("shut down cleanly");
            let refused = connect_worker(&addr, &wcfg).map(|_| ()).unwrap_err();
            (summary, refused)
        });
        let (m, report) = master.run(CountMaster::new(80), &cfg).expect("run");
        assert_eq!(m.seen.len(), 80, "every unit integrated despite corruption");
        assert_eq!(report.results_rejected, 3, "one strike per bad result");
        assert_eq!(report.workers_quarantined, 1);
        assert!(report.machines[0].lost);
        assert_eq!(report.workers_rejected, 1, "the reconnect was refused");
        let (summary, refused) = byzantine.join().expect("byzantine");
        // master-side every count above is exact; worker-side it is a range:
        // each strike voids the unit queued behind the bad one (computed
        // all the same, dropped as a duplicate), and the SHUTDOWN may find
        // one more prefetched unit ahead of it in the worker's inbox
        assert!(
            (3..=6).contains(&summary.units),
            "shut down at the strike limit, after {} units",
            summary.units
        );
        assert_eq!(
            refused,
            ChannelError::Protocol("rejected by master: quarantined")
        );
        assert!(honest.join().expect("honest").units > 0);
    }
}
