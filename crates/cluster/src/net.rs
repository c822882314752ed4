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
//!   [`read_frame`] and each connection's incremental decoder reject bad
//!   magic, foreign versions and hostile length prefixes before
//!   allocating; [`read_frame`] maps socket failures onto [`ChannelError`]
//!   (`TimedOut` for an idle link, `PeerGone` for a closed one) so the
//!   caller sees network failure as data.
//! * **One network thread** — the master runs a single-threaded
//!   readiness loop over nonblocking sockets: accept, handshake,
//!   heartbeats, per-connection read deadlines and write backpressure
//!   all live on one thread, regardless of worker count. No per-worker
//!   reader threads. What each connection may do, and when it must close,
//!   is decided by a socket-free core per connection (`conn.rs`).
//! * **Elastic membership** — workers may connect at any point while the
//!   run is live. A `HELLO` carries the worker's scene fingerprint; the
//!   master rejects a mismatch with a `REJECT` frame, drops half-open
//!   connections, and hands accepted joiners the job header so they start
//!   pulling units immediately. A worker has no identity beyond its slot:
//!   a reconnect is a fresh worker. A worker that disconnects, times out or sends garbage
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
use crate::conn::{ConnCore, Event, Role};
use crate::core::{Action, MasterCore};
use crate::fault::FaultPlan;
use crate::ledger::RecoveryConfig;
use crate::logic::{MasterLogic, WorkerLogic};
use crate::message::{ChannelError, Message, NodeId};
use crate::netfault::{full_jitter_delay, JitterRng};
use crate::report::{MachineReport, RunReport};
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
/// v2 added the `HELLO` payload and `REJECT`; v3 appended the end-to-end
/// content checksum to the farm's `UnitOutput` wire encoding; v4 made the
/// `HELLO` payload the scene fingerprint bytes alone.
pub const VERSION: u32 = 4;

/// Upper bound on a frame body. A full 640x480 result frame is ~2.2 MB;
/// anything past this limit is a hostile or corrupt length prefix and is
/// rejected *before* allocating.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Bytes of frame header preceding the body (magic + version + length).
pub const HEADER_LEN: usize = 12;

/// Protocol message tags (the PVM-style `tag` field of each frame).
pub mod tag {
    /// Worker → master: first frame after connecting. The payload is the
    /// worker's scene fingerprint bytes; an empty one skips scene
    /// validation.
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
    pub(crate) fn is_client(tag: u32) -> bool {
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
pub(crate) fn encode_frame(msg: &Message) -> Result<Vec<u8>, ChannelError> {
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

/// Validate a frame header; returns the body length, or what is wrong.
pub(crate) fn check_header(header: &[u8; HEADER_LEN]) -> Result<usize, &'static str> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if magic != MAGIC {
        return Err("bad frame magic");
    }
    if version != VERSION {
        return Err("wire protocol version mismatch");
    }
    if len > MAX_FRAME_LEN {
        return Err("hostile length prefix");
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
    let len = check_header(&header).map_err(ChannelError::Protocol)?;
    let mut body = vec![0u8; len];
    read_exact_mapped(r, &mut body)?;
    let msg =
        Message::decode(&body).map_err(|_| ChannelError::Protocol("undecodable message body"))?;
    Ok((msg, (HEADER_LEN + len) as u64))
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

/// The transport's tunable timing: how fast the master probes its
/// workers, and how long it waits for a farm to form. The per-connection
/// deadlines are fixed: 5 s to send a first frame, 30 s of silence from
/// an enrolled worker or a client.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Heartbeat (ping) cadence in seconds.
    pub heartbeat_s: f64,
    /// How long the master keeps waiting when it has no workers at all:
    /// a run that never sees a single successful handshake within this
    /// window fails with `TimedOut`. A fully departed farm still owed
    /// units waits for joiners only while this window is open and fewer
    /// than the `TcpClusterConfig::workers` quorum have ever joined. A
    /// service's window is unbounded (`f64::INFINITY`).
    pub accept_window_s: f64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            heartbeat_s: 0.25,
            accept_window_s: 30.0,
        }
    }
}

/// Longest an idle loop waits before its next sweep. Every timer (leases,
/// heartbeats, read deadlines) is checked at least this often; traffic
/// ends the wait early.
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

/// Seconds an enrolled worker or a client may stay silent before the
/// master hangs up (a worker's leases requeue). Heartbeat pongs keep a
/// live worker far inside it, a watching client is kept by the pushes it
/// gets, and it is long enough that a loaded host never trips it.
pub(crate) const READ_TIMEOUT_S: f64 = 30.0;

/// Seconds a new connection has to send its first frame — `HELLO`, or a
/// client request — before it is dropped as a slow-loris. Long enough for
/// any real peer, which sends that frame as soon as it connects.
pub(crate) const HANDSHAKE_TIMEOUT_S: f64 = 5.0;

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
    /// A service runs with an unbounded quorum (`usize::MAX`): it admits
    /// workers for as long as it runs.
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

/// One enrolled worker: its connection plus per-worker accounting. Its
/// protocol state (active, parked, done; leases; strikes) is the core's.
#[derive(Default)]
struct Slot {
    conn: Option<usize>,
    rtt_s: f64,
    last_ping_s: f64,
    busy_s: f64,
    units_done: u64,
    joined_s: f64,
    left_s: f64,
    /// Bytes the master received from and sent to this worker.
    wire_in: u64,
    wire_out: u64,
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
        run.enrol(ci, 0.0);
    }
    loop {
        let t = run.now();
        // a worker may still enrol while the quorum was never met and the
        // accept window is open; the core must know before this sweep's
        // frames are dispatched, or a first-sweep `SUBMIT` would release
        // the run
        let joinable =
            (run.report.workers_joined as usize) < cfg.workers && t < cfg.net.accept_window_s;
        run.core.set_joinable(joinable);
        let mut activity = run.accept(listener, t)?;
        run.io_sweep(t);
        activity |= run.dispatch(t);
        activity |= run.push_to_clients(t);
        let t = run.now();
        activity |= run.check_deadlines(t);
        run.schedule(t);
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

/// A `farm.membership` trace instant: `event` 0 joined, 1 left, 2
/// rejected.
fn membership(event: u64, worker: Option<usize>) {
    let args = [("event", event), ("worker", worker.unwrap_or(0) as u64)];
    let args = &args[..1 + usize::from(worker.is_some())];
    now_trace::global().instant(0, "farm.membership", args, false);
}

/// Hand the bytes `conn` may send at `t` to the socket until it would
/// block.
fn write_out(stream: &mut TcpStream, conn: &mut ConnCore, t: f64) {
    let out = conn.outbound(t);
    let mut n = 0;
    let gone = loop {
        match (n < out.len()).then(|| stream.write(&out[n..])) {
            None => break false,
            Some(Ok(0)) => break true,
            Some(Ok(k)) => n += k,
            Some(Err(e)) if e.kind() == ErrorKind::Interrupted => {}
            Some(Err(e)) => break e.kind() != ErrorKind::WouldBlock,
        }
    };
    conn.wrote(n);
    if gone {
        conn.hang_up();
    }
}

/// Read what the socket has into `conn`, if it may read at `t`.
fn read_in(stream: &mut TcpStream, conn: &mut ConnCore, t: f64) {
    if !conn.readable(t) {
        return;
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return conn.hang_up(),
            Ok(n) if conn.on_read(&chunk[..n], t) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() != ErrorKind::WouldBlock => return conn.hang_up(),
            _ => return,
        }
    }
}

/// A running TCP master: the sans-IO core plus what the transport adds
/// around it — sockets, membership bookkeeping and byte accounting. What
/// each connection may do, and when it must close, its [`ConnCore`] says.
struct MasterRun<'a, M: MasterLogic> {
    cfg: &'a TcpClusterConfig,
    start: Instant,
    core: MasterCore<M>,
    /// Every connection's socket and protocol state, `None` once closed
    /// (an index is never reused in a run).
    conns: Vec<Option<(TcpStream, ConnCore)>>,
    slots: Vec<Slot>,
    /// Accept-order index, keys the net-fault plan.
    accepted: u64,
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
            accepted: 0,
            ping_seq: 0,
            report: RunReport::default(),
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Connection `ci`'s protocol state, while it is open.
    fn conn(&mut self, ci: usize) -> Option<&mut ConnCore> {
        self.conns[ci].as_mut().map(|(_, conn)| conn)
    }

    /// The one close path: shut the socket, fold its traffic into the run
    /// accounting, and settle what it was to the run — a joiner turned away
    /// is a rejection, a worker's slot is unlinked and its death observed,
    /// a client is forgotten. A joiner still handshaking when the run ends
    /// was never anything.
    fn close(&mut self, ci: usize) {
        let Some((stream, conn)) = self.conns[ci].take() else {
            return;
        };
        let _ = stream.shutdown(Shutdown::Both);
        self.report.messages += conn.messages;
        self.report.bytes += conn.bytes_in + conn.bytes_out;
        match conn.role() {
            Some(Role::TurnedAway) => {
                self.report.workers_rejected += 1;
                membership(2, None);
            }
            Some(Role::Worker(w)) => {
                let slot = &mut self.slots[w];
                slot.wire_in += conn.bytes_in;
                slot.wire_out += conn.bytes_out;
                slot.conn = None;
                self.worker_gone(w);
            }
            Some(Role::Client) => self.core.master_mut().client_gone(ci as u64),
            None => {}
        }
    }

    /// Worker `w` is out of the run before its end (died, excluded or
    /// quarantined): the membership bookkeeping every such path shares.
    /// Whoever is parked is woken once: the application may have released
    /// a queue `w` owned, work no core event announces.
    fn departed(&mut self, w: usize, t: f64) {
        self.slots[w].left_s = t;
        self.report.workers_left += 1;
        membership(1, Some(w));
        if !self.core.finished() {
            self.core.wake(t);
        }
    }

    /// Observed death of worker `w` (closed socket, read deadline, a
    /// protocol violation or an undeliverable frame): the core requeues
    /// its leases and tells the application.
    fn worker_gone(&mut self, w: usize) {
        if self.core.is_live(w) {
            self.core.left(w);
            self.departed(w, self.now());
            if let Some(ci) = self.slots[w].conn {
                self.close(ci);
            }
        }
    }

    /// Queue a frame to worker `w`; false if its connection is gone.
    fn send_to(&mut self, w: usize, tag: u32, payload: Vec<u8>) -> bool {
        let conn = self.slots[w].conn.and_then(|ci| self.conn(ci));
        conn.is_some_and(|c| c.send(tag, payload))
    }

    /// Tell worker `w` to stop; its connection closes once that is flushed.
    fn shut_down(&mut self, w: usize) {
        if let Some(c) = self.slots[w].conn.and_then(|ci| self.conn(ci)) {
            c.shut_down();
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
                Action::Lost { worker, .. } => {
                    self.shut_down(worker);
                    self.departed(worker, self.now());
                }
            }
        }
    }

    /// Take over a connected socket, gated by the net-fault plan's rule
    /// for its accept order; returns its index.
    fn add_conn(&mut self, stream: TcpStream, t: f64) -> std::io::Result<usize> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let chaos = &self.cfg.chaos;
        let faults = chaos.net.for_conn(self.accepted, chaos.seed);
        self.accepted += 1;
        self.conns.push(Some((stream, ConnCore::new(t, faults))));
        Ok(self.conns.len() - 1)
    }

    /// Take over the connections waiting on `listener`; true if any
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
                    if let Some(c) = self.conn(ci).filter(|_| live >= MAX_WORKERS) {
                        c.reject("farm full", t);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_to_channel(&e)),
            }
        }
    }

    /// Move bytes on every connection: its queued frames out until the
    /// socket would block, then whatever the socket has in.
    fn io_sweep(&mut self, t: f64) {
        for (stream, conn) in self.conns.iter_mut().flatten() {
            write_out(stream, conn, t);
            read_in(stream, conn, t);
        }
    }

    /// Hand every connection's decoded frames to their handlers; true if
    /// there were any. A served client frame is the one event that can
    /// create or end work without the core seeing it (a `SUBMIT`, a
    /// `DRAIN`), so the parked workers are woken once after any.
    fn dispatch(&mut self, t: f64) -> bool {
        let mut any = false;
        let mut served = false;
        for ci in 0..self.conns.len() {
            while let Some(event) = self.conn(ci).and_then(|c| c.next_event()) {
                any = true;
                match event {
                    Event::Hello(fingerprint) => self.on_hello(ci, &fingerprint, t),
                    Event::Worker(w, msg) => self.on_worker_frame(w, msg, t),
                    Event::Client(msg) => served |= self.client_request(ci, &msg),
                }
            }
        }
        if served {
            self.core.wake(t);
            self.pump();
        }
        any
    }

    /// Route a client request through `MasterLogic::client_frame` and
    /// queue the reply; a master that refuses it hangs up. The conn index
    /// (never reused in a run) is the client's push token. True if the
    /// master answered.
    fn client_request(&mut self, ci: usize, msg: &Message) -> bool {
        let reply = self
            .core
            .master_mut()
            .client_frame(ci as u64, msg.tag, &msg.payload);
        let served = reply.is_some();
        match (reply, self.conn(ci)) {
            (Some((rtag, payload)), Some(c)) => c.reply(rtag, payload),
            // this master serves no clients, or refuses this request
            (None, Some(c)) => c.refuse(),
            (_, None) => {}
        }
        served
    }

    /// A `HELLO` on connection `ci`: enrol it, or refuse a worker whose
    /// scene is not the run's. An empty fingerprint on either side skips
    /// the check.
    fn on_hello(&mut self, ci: usize, fingerprint: &[u8], t: f64) {
        let expected = self.cfg.fingerprint.as_slice();
        let mismatch = !expected.is_empty() && !fingerprint.is_empty() && fingerprint != expected;
        match (mismatch, self.conn(ci)) {
            (true, Some(c)) => c.reject("scene fingerprint mismatch", t),
            (false, Some(_)) => self.enrol(ci, t),
            (_, None) => {}
        }
    }

    /// Bind connection `ci` to a new worker slot; its core queues the
    /// `WELCOME`.
    fn enrol(&mut self, ci: usize, t: f64) {
        let w = self.core.joined();
        debug_assert_eq!(w, self.slots.len());
        self.slots.push(Slot {
            conn: Some(ci),
            last_ping_s: t,
            joined_s: t,
            ..Slot::default()
        });
        self.report.workers_joined += 1;
        membership(0, Some(w));
        let job_header = &self.cfg.job_header;
        let (_, conn) = self.conns[ci].as_mut().expect("enrolling conn is live");
        conn.enrol(w, job_header);
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
            // the conn core hands a worker's frames over only with these tags
            _ => {}
        }
        self.pump();
    }

    /// Queue the master's unsolicited frames on their client connections;
    /// frames for clients that already hung up are dropped.
    fn push_to_clients(&mut self, t: f64) -> bool {
        let pushes = self.core.master_mut().client_pushes();
        let any = !pushes.is_empty();
        for (client, ptag, payload) in pushes {
            let open = usize::try_from(client)
                .ok()
                .filter(|&ci| ci < self.conns.len());
            if let Some(c) = open.and_then(|ci| self.conn(ci)) {
                c.push(ptag, payload, t);
            }
        }
        any
    }

    /// Tick every connection's deadlines and close each its core is done
    /// with, then expire leases; true if anything closed or expired.
    fn check_deadlines(&mut self, t: f64) -> bool {
        let mut any = false;
        for ci in 0..self.conns.len() {
            let Some(conn) = self.conn(ci) else {
                continue;
            };
            conn.tick(t);
            if conn.close().is_some() {
                self.close(ci);
                any = true;
            }
        }
        let expired = !self.core.tick(t).is_empty();
        self.pump();
        any || expired
    }

    /// Re-poll parked workers when the core has reason to. (Frames queued
    /// here go out on the next sweep; they do not count as activity.)
    fn schedule(&mut self, t: f64) {
        if self.core.wakeable(t) {
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
    /// the accept window and the work is not over.
    fn should_stop(&self, t: f64, joinable: bool) -> Result<bool, ChannelError> {
        if self.slots.is_empty() && !self.core.job_complete() {
            let hello_open = (self.conns.iter().flatten()).any(|(_, c)| c.role().is_none());
            if !hello_open && t >= self.cfg.net.accept_window_s {
                return Err(ChannelError::TimedOut);
            }
            return Ok(false);
        }
        // every worker is done: stop unless work is still owed and a
        // replacement joiner may yet arrive
        Ok(self.core.finished() && (self.core.job_complete() || !joinable))
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
        let open = self
            .conns
            .iter_mut()
            .flatten()
            .filter_map(|(stream, conn)| {
                let unflushed = if conn.interest(t)? { sys::POLLOUT } else { 0 };
                Some((stream.as_raw_fd(), sys::POLLIN | unflushed))
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
        let unflushed = |(_, c): &(TcpStream, ConnCore)| c.close().is_none() && !c.flushed();
        loop {
            let t = self.now();
            for (stream, conn) in self.conns.iter_mut().flatten() {
                if !conn.flushed() {
                    write_out(stream, conn, t);
                }
            }
            if !self.conns.iter().flatten().any(unflushed) || Instant::now() >= deadline {
                break;
            }
            self.wait_ready(None);
        }
        for ci in 0..self.conns.len() {
            self.close(ci);
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
    /// Treat the master as gone after this many seconds of socket
    /// silence (the master pings every `heartbeat_s`, so a healthy link
    /// is never silent for long). 0 disables the timeout.
    pub read_timeout_s: f64,
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
            read_timeout_s: 30.0,
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
/// master that turns the worker away (wrong scene fingerprint, full farm)
/// surfaces as [`ChannelError::Protocol`] with the rejection reason.
pub fn connect_worker(addr: &str, cfg: &ConnectConfig) -> Result<TcpWorkerConn, ChannelError> {
    let mut rng = JitterRng::from_entropy();
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
    let hello = Message {
        from: 0,
        to: 0,
        tag: tag::HELLO,
        payload: cfg.fingerprint.clone(),
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
                Ok("farm full") => "rejected by master: farm full",
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
        let run = std::thread::spawn(move || {
            let cfg = TcpClusterConfig::new(2);
            master.run(CountMaster::new(50), &cfg).expect("run")
        });
        // both enrol before either asks for work, and 50 units take the
        // first one 100 ms alone: the second is serving long before that
        let conns = [(); 2].map(|_| connect_worker(&addr, &ConnectConfig::default()));
        let serve = |conn: Result<TcpWorkerConn, _>| conn.expect("connect").serve(SlowSquarer(2));
        let handles: Vec<_> = (conns.into_iter())
            .map(|conn| std::thread::spawn(move || serve(conn)))
            .collect();
        let (m, report) = run.join().expect("master");
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
            let s = h.join().expect("worker thread").expect("serve");
            assert!(s.units > 0, "demand-driven: every worker got units");
            assert!(s.bytes_sent > 0 && s.bytes_received > 0);
        }
    }

    #[test]
    fn a_joiner_still_handshaking_when_the_run_ends_is_not_a_rejection() {
        let master = TcpMaster::bind("127.0.0.1:0").expect("bind");
        let addr = master.local_addr().expect("addr").to_string();
        // both queue ahead of the worker, so the master accepts them
        // before the run can end: one silent, one halfway into a HELLO
        let silent = TcpStream::connect(&addr).expect("connect");
        let mut torn = TcpStream::connect(&addr).expect("connect");
        let hello = Message {
            from: 0,
            to: 0,
            tag: tag::HELLO,
            payload: Vec::new(),
        };
        let hello = encode_frame(&hello).expect("frame");
        torn.write_all(&hello[..HEADER_LEN / 2]).expect("write");
        let handles = spawn_workers(addr, 1);
        let cfg = TcpClusterConfig::new(1);
        let (m, report) = master.run(CountMaster::new(5), &cfg).expect("run");
        assert_eq!(m.seen.len(), 5);
        assert_eq!(report.workers_joined, 1);
        assert_eq!(report.workers_rejected, 0, "nobody was turned away");
        for h in handles {
            h.join().expect("worker");
        }
        drop((silent, torn));
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
    fn corrupt_worker_is_quarantined_and_its_reconnect_starts_afresh() {
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
        // out and shut down; a worker has no identity, so its reconnect
        // is a fresh worker in a new slot, whose results are sound
        let byzantine = std::thread::spawn(move || {
            let conn = connect_worker(&addr, &ConnectConfig::default()).expect("connect");
            let summary = conn.serve(SlowSquarer(3)).expect("shut down cleanly");
            let conn = connect_worker(&addr, &ConnectConfig::default()).expect("readmitted");
            let rejoined = conn.node_id();
            conn.serve(SlowSquarer(3)).expect("serve after the rejoin");
            (summary, rejoined)
        });
        let (m, report) = master.run(CountMaster::new(80), &cfg).expect("run");
        assert_eq!(m.seen.len(), 80, "every unit integrated despite corruption");
        assert_eq!(report.results_rejected, 3, "one strike per bad result");
        assert_eq!(report.workers_quarantined, 1);
        assert!(report.machines[0].lost);
        assert_eq!(report.workers_rejected, 0, "the reconnect was admitted");
        assert_eq!(report.workers_joined, 3);
        let (summary, rejoined) = byzantine.join().expect("byzantine");
        // master-side every count above is exact; worker-side it is a range:
        // each strike voids the unit queued behind the bad one (computed
        // all the same, dropped as a duplicate), and the SHUTDOWN may find
        // one more prefetched unit ahead of it in the worker's inbox
        assert!(
            (3..=6).contains(&summary.units),
            "shut down at the strike limit, after {} units",
            summary.units
        );
        assert_ne!(rejoined, summary.node_id, "the rejoin got a fresh slot");
        assert!(honest.join().expect("honest").units > 0);
    }
}
