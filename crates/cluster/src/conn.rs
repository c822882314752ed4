//! One connection's protocol, with no socket inside.
//!
//! [`crate::net`]'s sweep loop owns each socket and feeds its [`ConnCore`]
//! three inputs — bytes read, how many queued bytes the socket took, and
//! the clock — and gets back decoded [`Event`]s, the bytes to write,
//! whether (and as what [`Role`]) to close, and the next deadline.
//! Run-wide decisions (enrol, reject and why, a client's answer) stay with
//! the master and come back in as calls, each made before the master asks
//! for the next event. DESIGN.md §13 has the table.

use crate::codec::Encoder;
use crate::message::Message;
use crate::net::{
    check_header, encode_frame, tag, HANDSHAKE_TIMEOUT_S, HEADER_LEN, READ_TIMEOUT_S,
};
use crate::netfault::NetFault;
use std::collections::VecDeque;

/// Seconds a rejected peer has to read its `REJECT`.
const REJECT_GRACE_S: f64 = 1.0;

/// Where a connection is in its life.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Its first frame, `HELLO` or a client request, says what it is.
    Hello,
    /// Enrolled as worker slot `w`.
    Worker(usize),
    Client,
    /// Its last frame (`REJECT` or `SHUTDOWN`) is queued: inbound is
    /// dropped, and it closes as `role` once that is flushed or after
    /// `retire_at`.
    Closing {
        retire_at: f64,
        role: Role,
    },
}

/// What a connection is to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Closed before it became a worker or a client: rejected, or for
    /// what it sent (or failed to send) as its first frame.
    TurnedAway,
    Worker(usize),
    Client,
}

/// One frame from the peer, read for the connection's phase.
#[derive(Debug)]
pub(crate) enum Event {
    /// A `HELLO` and its payload, the worker's scene fingerprint (empty:
    /// unvalidated); the master answers `enrol` or `reject`.
    Hello(Vec<u8>),
    /// `REQUEST`, `RESULT` or `PONG` from worker slot `w`.
    Worker(usize, Message),
    /// A client request; the master answers `reply` or closes.
    Client(Message),
}

/// The sans-IO state of one master-side connection.
#[derive(Debug, Clone)]
pub(crate) struct ConnCore {
    phase: Phase,
    /// Bytes read; `buf[pos..]` is not a whole frame yet.
    buf: Vec<u8>,
    pos: usize,
    /// Frames decoded but not yet handed out.
    inbox: VecDeque<Message>,
    /// Why to close once `inbox` is handed out: the peer hung up, or
    /// broke the framing behind the frames queued.
    pending: Option<&'static str>,
    /// Queued frames; `out[sent..]` is what the socket has not taken.
    out: Vec<u8>,
    sent: usize,
    opened: f64,
    last_read: f64,
    /// The net-fault plan's faults for this connection, and when each
    /// armed `DelayAfter` lifts (seconds since it opened).
    faults: Vec<NetFault>,
    delay_until: Vec<Option<f64>>,
    /// Traffic, folded into the run's totals at close.
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    /// Frames decoded plus frames queued.
    pub(crate) messages: u64,
    /// Set once the connection is over.
    closed: Option<&'static str>,
}

impl ConnCore {
    /// A connection accepted at `now`, gated by `faults`.
    pub(crate) fn new(now: f64, faults: Vec<NetFault>) -> ConnCore {
        ConnCore {
            phase: Phase::Hello,
            buf: Vec::new(),
            pos: 0,
            inbox: VecDeque::new(),
            pending: None,
            out: Vec::new(),
            sent: 0,
            opened: now,
            last_read: now,
            delay_until: vec![None; faults.len()],
            faults,
            bytes_in: 0,
            bytes_out: 0,
            messages: 0,
            closed: None,
        }
    }

    /// The queued bytes the socket may take at `now`: none while the
    /// fault gate is shut.
    pub(crate) fn outbound(&mut self, now: f64) -> &[u8] {
        if !self.gate_open(now) {
            return &[];
        }
        &self.out[self.sent..]
    }

    /// The socket took the first `n` bytes of [`ConnCore::outbound`].
    pub(crate) fn wrote(&mut self, n: usize) {
        self.sent += n;
        self.bytes_out += n as u64;
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
    }

    /// Whether the socket should be read at `now`.
    pub(crate) fn readable(&mut self, now: f64) -> bool {
        self.pending.is_none() && self.gate_open(now)
    }

    /// Bytes read at `now`. Each header is checked as soon as it is
    /// whole, before its body is buffered. False once reading further is
    /// pointless.
    pub(crate) fn on_read(&mut self, bytes: &[u8], now: f64) -> bool {
        if !bytes.is_empty() && self.pending.is_none() && self.closed.is_none() {
            self.bytes_in += bytes.len() as u64;
            self.last_read = now;
            // reclaim the consumed prefix before growing
            if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            self.buf.extend_from_slice(bytes);
            loop {
                match self.next_frame() {
                    Ok(Some(msg)) => self.inbox.push_back(msg),
                    Ok(None) => break,
                    Err(why) => break self.pending = Some(why),
                }
            }
            self.settle();
        }
        self.pending.is_none() && self.closed.is_none()
    }

    /// The socket is gone; frames already read are still handed out.
    pub(crate) fn hang_up(&mut self) {
        self.pending.get_or_insert("peer gone");
        self.settle();
    }

    /// The clock reached `now`: close a connection past its deadline.
    pub(crate) fn tick(&mut self, now: f64) {
        if self.next_deadline().is_some_and(|d| now > d) {
            self.closed = Some("deadline passed");
        }
    }

    /// Enrol as worker slot `w`: queue the `WELCOME` with node id `w + 1`
    /// (node 0 is the master) and the job header.
    pub(crate) fn enrol(&mut self, w: usize, job_header: &[u8]) {
        self.phase = Phase::Worker(w);
        let mut e = Encoder::new();
        e.u64((w + 1) as u64).bytes(job_header);
        self.queue(tag::WELCOME, e.finish());
    }

    /// Turn a handshaking connection away with a `REJECT` naming `reason`.
    pub(crate) fn reject(&mut self, reason: &str, now: f64) {
        let mut e = Encoder::new();
        e.str(reason);
        self.queue(tag::REJECT, e.finish());
        let (retire_at, role) = (now + REJECT_GRACE_S, Role::TurnedAway);
        self.phase = Phase::Closing { retire_at, role };
    }

    /// Queue the answer to a client request; the first makes it a client.
    pub(crate) fn reply(&mut self, tag: u32, payload: Vec<u8>) {
        if self.phase == Phase::Hello {
            self.phase = Phase::Client;
        }
        self.queue(tag, payload);
    }

    /// The master will not answer a client request: hang up.
    pub(crate) fn refuse(&mut self) {
        self.closed.get_or_insert("request refused");
    }

    /// Queue an unsolicited frame to a client, if this is one. A push
    /// proves the stream is wanted: it resets the read deadline.
    pub(crate) fn push(&mut self, tag: u32, payload: Vec<u8>, now: f64) {
        if self.phase == Phase::Client {
            self.queue(tag, payload);
            self.last_read = now;
        }
    }

    /// Queue a frame to a worker; false if this is not one (any more).
    pub(crate) fn send(&mut self, tag: u32, payload: Vec<u8>) -> bool {
        matches!(self.phase, Phase::Worker(_)) && self.queue(tag, payload)
    }

    /// Queue a worker's `SHUTDOWN`; it closes once that is flushed.
    pub(crate) fn shut_down(&mut self) {
        if let Phase::Worker(w) = self.phase {
            self.queue(tag::SHUTDOWN, Vec::new());
            let (retire_at, role) = (f64::INFINITY, Role::Worker(w));
            self.phase = Phase::Closing { retire_at, role };
        }
    }

    /// The next frame read for the current phase, if there is one. The
    /// master answers a `Hello` or `Client` event before it asks again,
    /// so the frames behind it are read in the phase the answer set. A
    /// frame the phase does not allow closes the connection.
    pub(crate) fn next_event(&mut self) -> Option<Event> {
        while self.closed.is_none() {
            let Some(msg) = self.inbox.pop_front() else {
                break;
            };
            let tag = msg.tag;
            let allowed = match self.phase {
                Phase::Hello if tag == tag::HELLO => Some(Event::Hello(msg.payload)),
                Phase::Hello | Phase::Client if tag::is_client(tag) => Some(Event::Client(msg)),
                Phase::Worker(w) if matches!(tag, tag::REQUEST | tag::RESULT | tag::PONG) => {
                    Some(Event::Worker(w, msg))
                }
                // a rejected or dismissed peer's inbound is dropped
                Phase::Closing { .. } => continue,
                // anything else, a second HELLO included, is a violation
                _ => None,
            };
            if allowed.is_none() {
                self.closed = Some("frame not allowed in its phase");
            }
            return allowed;
        }
        self.settle();
        None
    }

    /// `Some(role)` once the connection is to be closed.
    pub(crate) fn close(&self) -> Option<Role> {
        let flushed_last = matches!(self.phase, Phase::Closing { .. }) && self.flushed();
        (self.closed.is_some() || flushed_last)
            .then(|| self.role())
            .flatten()
    }

    /// What the connection is to the run; `None` while it is handshaking.
    pub(crate) fn role(&self) -> Option<Role> {
        match self.phase {
            Phase::Hello => self.closed.map(|_| Role::TurnedAway),
            Phase::Worker(w) => Some(Role::Worker(w)),
            Phase::Client => Some(Role::Client),
            Phase::Closing { role, .. } => Some(role),
        }
    }

    /// When [`ConnCore::tick`] next closes the connection if nothing
    /// arrives: the handshake deadline, the read deadline of a worker or
    /// client, or the grace of a `REJECT`.
    pub(crate) fn next_deadline(&self) -> Option<f64> {
        if self.closed.is_some() {
            return None;
        }
        match self.phase {
            Phase::Hello => Some(self.opened + HANDSHAKE_TIMEOUT_S),
            Phase::Worker(_) | Phase::Client => Some(self.last_read + READ_TIMEOUT_S),
            Phase::Closing { retire_at, .. } => retire_at.is_finite().then_some(retire_at),
        }
    }

    pub(crate) fn flushed(&self) -> bool {
        self.sent == self.out.len()
    }

    /// What a readiness wait should watch at `now`: `None` while the gate
    /// is shut, else whether there are bytes to write as well as read.
    pub(crate) fn interest(&mut self, now: f64) -> Option<bool> {
        self.gate_open(now).then(|| !self.flushed())
    }

    /// The one place the net-fault plan acts, by the bytes moved either
    /// way and the time since the connection opened: a drop closes it
    /// (and wins over the rest), a stall, delay or partition moves no
    /// bytes while it lasts.
    fn gate_open(&mut self, now: f64) -> bool {
        if self.close().is_some() {
            return false;
        }
        let (moved, t) = (self.bytes_in + self.bytes_out, now - self.opened);
        let mut open = true;
        for (fault, until) in self.faults.iter().zip(&mut self.delay_until) {
            match *fault {
                NetFault::DropAfter(n) if moved >= n => {
                    self.closed = Some("dropped by the net-fault plan");
                    return false;
                }
                NetFault::StallAfter(n) if moved >= n => open = false,
                NetFault::DelayAfter { bytes, for_s } if moved >= bytes => {
                    open &= t >= *until.get_or_insert(t + for_s);
                }
                NetFault::Partition { from_s, to_s } => open &= !(from_s..to_s).contains(&t),
                _ => {}
            }
        }
        open
    }

    /// Close for a pending reason once no queued frame can be handed out.
    fn settle(&mut self) {
        if self.inbox.is_empty() {
            if let Some(why) = self.pending.take() {
                self.closed.get_or_insert(why);
            }
        }
    }

    /// Split the next whole frame off `buf[pos..]`, if there is one.
    fn next_frame(&mut self) -> Result<Option<Message>, &'static str> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = avail[..HEADER_LEN].try_into().expect("header slice");
        let len = check_header(&header)?;
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let msg = Message::decode(&avail[HEADER_LEN..HEADER_LEN + len])
            .map_err(|_| "undecodable message body")?;
        self.pos += HEADER_LEN + len;
        self.messages += 1;
        Ok(Some(msg))
    }

    /// Queue a frame from the master (node 0) to the peer: node `w + 1`
    /// for a worker, 0 otherwise.
    fn queue(&mut self, tag: u32, payload: Vec<u8>) -> bool {
        let to = match self.role() {
            Some(Role::Worker(w)) => w + 1,
            _ => 0,
        };
        let Ok(frame) = encode_frame(&Message {
            from: 0,
            to,
            tag,
            payload,
        }) else {
            return false;
        };
        self.out.extend_from_slice(&frame);
        self.messages += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ChannelError;
    use crate::net::{read_frame, MAGIC, MAX_FRAME_LEN, VERSION};
    use crate::netfault::JitterRng;

    fn frame(tag: u32, payload: Vec<u8>) -> Vec<u8> {
        let msg = Message {
            from: 0,
            to: 0,
            tag,
            payload,
        };
        encode_frame(&msg).expect("a small frame")
    }

    #[test]
    fn dribbled_bytes_make_frames_exactly_at_their_boundary() {
        let mut core = ConnCore::new(0.0, Vec::new());
        core.enrol(0, b"");
        let mut wire = frame(tag::REQUEST, vec![]);
        wire.extend(frame(tag::RESULT, vec![1, 2, 3, 4, 5]));
        let mut got = Vec::new();
        for &b in &wire {
            assert!(core.on_read(&[b], 0.0));
            while let Some(Event::Worker(0, msg)) = core.next_event() {
                got.push(msg.tag);
            }
        }
        assert_eq!(got, [tag::REQUEST, tag::RESULT]);
        assert_eq!(core.pos, core.buf.len());
    }

    #[test]
    fn bad_magic_closes_before_any_body() {
        let mut core = ConnCore::new(0.0, Vec::new());
        assert!(!core.on_read(b"GET / HTTP/1.1\r\n", 0.0));
        assert_eq!(core.closed, Some("bad frame magic"));
        assert_eq!(core.close(), Some(Role::TurnedAway));
    }

    #[test]
    fn a_joiner_has_a_role_only_once_turned_away() {
        let mut core = ConnCore::new(0.0, Vec::new());
        assert_eq!((core.role(), core.close()), (None, None));
        core.refuse();
        assert_eq!(core.close(), Some(Role::TurnedAway));
        let mut core = ConnCore::new(0.0, Vec::new());
        core.reject("farm full", 0.0);
        let turned_away = Some(Role::TurnedAway);
        assert_eq!((core.role(), core.close()), (turned_away, None));
        let n = core.outbound(0.0).len();
        core.wrote(n);
        assert_eq!(core.close(), turned_away, "closes once its REJECT is out");
    }

    /// A core under `faults` that has moved `bytes` bytes.
    fn gated(faults: Vec<NetFault>, bytes: u64) -> ConnCore {
        let mut core = ConnCore::new(0.0, faults);
        core.bytes_in = bytes;
        core
    }

    #[test]
    fn a_drop_closes_and_a_stall_blocks_at_their_byte_counts() {
        let mut core = gated(vec![NetFault::DropAfter(100)], 99);
        assert!(core.readable(0.0));
        core.bytes_in = 100;
        assert!(!core.readable(0.0));
        assert_eq!(core.close(), Some(Role::TurnedAway));
        let mut core = gated(vec![NetFault::StallAfter(10)], 9);
        assert!(core.readable(0.0), "open below its byte count");
        core.bytes_in = 10;
        assert!(!core.readable(0.0) && !core.readable(1e9));
        assert_eq!(core.close(), None, "a stall never closes");
    }

    #[test]
    fn a_delay_lifts_and_a_partition_blocks_only_inside_its_window() {
        let delay = NetFault::DelayAfter {
            bytes: 5,
            for_s: 2.0,
        };
        let mut core = gated(vec![delay], 4);
        assert!(
            core.readable(0.0) && core.readable(1.0),
            "open below its byte count"
        );
        core.bytes_in = 5;
        // armed at t = 1.0, so blocked until t = 3.0
        assert!(!core.readable(1.0) && !core.readable(2.9));
        assert!(core.readable(3.0) && core.readable(10.0));
        let partition = NetFault::Partition {
            from_s: 1.0,
            to_s: 2.0,
        };
        let mut core = gated(vec![partition], 0);
        let open: Vec<bool> = [0.5, 1.0, 1.9, 2.0].map(|t| core.readable(t)).to_vec();
        assert_eq!(open, [true, false, false, true]);
    }

    #[test]
    fn a_drop_wins_over_a_stall_and_a_partition() {
        let partition = NetFault::Partition {
            from_s: 0.0,
            to_s: 9.0,
        };
        let faults = vec![NetFault::StallAfter(0), NetFault::DropAfter(0), partition];
        let mut core = gated(faults, 0);
        assert!(!core.readable(0.5));
        assert!(core.close().is_some());
    }

    // -----------------------------------------------------------------
    // The explorer: interleavings of a small hostile alphabet
    // -----------------------------------------------------------------

    const FINGERPRINT: [u8; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    /// The byte threshold of the `drop@N` / `stall@N` gates explored.
    const GATE_AT: u64 = 64;

    fn header(magic: u32, version: u32, len: u32) -> Vec<u8> {
        [magic, version, len]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }

    /// What the peer can put on the wire.
    #[derive(Debug, Clone, Copy)]
    enum Bytes {
        HelloAnon,
        HelloPrint,
        /// The fingerprinted `HELLO` torn into two writes.
        HelloHead,
        HelloTail,
        BadMagic,
        ForeignVersion,
        /// A length prefix past `MAX_FRAME_LEN`, header only.
        Hostile,
        /// A valid header over a body that is no `Message`.
        Undecodable,
        Submit,
        Request,
        Result,
        Pong,
    }

    impl Bytes {
        fn wire(self) -> Vec<u8> {
            let hello = frame(tag::HELLO, FINGERPRINT.to_vec());
            let torn = hello.len() / 2;
            match self {
                Bytes::HelloAnon => frame(tag::HELLO, vec![]),
                Bytes::HelloPrint => hello,
                Bytes::HelloHead => hello[..torn].to_vec(),
                Bytes::HelloTail => hello[torn..].to_vec(),
                Bytes::BadMagic => header(0xDEAD_BEEF, VERSION, 0),
                Bytes::ForeignVersion => header(MAGIC, VERSION + 1, 0),
                Bytes::Hostile => header(MAGIC, VERSION, MAX_FRAME_LEN as u32 + 1),
                Bytes::Undecodable => {
                    let mut w = header(MAGIC, VERSION, 3);
                    w.extend([0xFF, 0xFE, 0xFD]);
                    w
                }
                Bytes::Submit => frame(tag::SUBMIT, vec![1, 2, 3]),
                Bytes::Request => frame(tag::REQUEST, vec![]),
                Bytes::Result => {
                    let mut e = Encoder::new();
                    e.u64(1).f64(0.5).u64(4);
                    frame(tag::RESULT, e.finish())
                }
                Bytes::Pong => frame(tag::PONG, vec![0; 16]),
            }
        }
    }

    /// One step of the explorer's alphabet.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// The peer writes; the master loop then reads what the gate lets in.
        Peer(Bytes),
        /// The peer hangs up.
        Eof,
        /// The socket takes up to this many queued bytes (0: would block).
        Accept(usize),
        /// The clock moves on by a heartbeat, or to just past the
        /// handshake, read or reject deadline; then the master loop ticks.
        Beat,
        PastHandshake,
        PastRead,
        PastGrace,
        /// The master's unsolicited sends.
        Ping,
        ShutDown,
        Push,
    }

    const ALPHABET: [Step; 23] = [
        Step::Peer(Bytes::HelloAnon),
        Step::Peer(Bytes::HelloPrint),
        Step::Peer(Bytes::HelloHead),
        Step::Peer(Bytes::HelloTail),
        Step::Peer(Bytes::BadMagic),
        Step::Peer(Bytes::ForeignVersion),
        Step::Peer(Bytes::Hostile),
        Step::Peer(Bytes::Undecodable),
        Step::Peer(Bytes::Submit),
        Step::Peer(Bytes::Request),
        Step::Peer(Bytes::Result),
        Step::Peer(Bytes::Pong),
        Step::Eof,
        Step::Accept(0),
        Step::Accept(5),
        Step::Accept(usize::MAX),
        Step::Beat,
        Step::PastHandshake,
        Step::PastRead,
        Step::PastGrace,
        Step::Ping,
        Step::ShutDown,
        Step::Push,
    ];

    /// How the master answers a `Hello` or client event, in the step that
    /// emits it, as `MasterRun::dispatch` does.
    #[derive(Debug, Clone, Copy)]
    enum Answer {
        /// Enrol the worker, reply to the client.
        Welcome,
        /// Reject the worker, hang up on the client.
        Refuse,
    }

    /// A connection core plus what the model knows independently of it.
    #[derive(Clone)]
    struct Model {
        core: ConnCore,
        gate: Option<NetFault>,
        answer: Answer,
        now: f64,
        /// Written by the peer, not read yet (the gate held it back).
        kernel: Vec<u8>,
        eof: bool,
        /// Every byte the core was given, and how many it gave out.
        fed: Vec<u8>,
        taken: u64,
        last_heard: f64,
        hellos: u32,
        rejected_at: Option<f64>,
    }

    impl Model {
        fn new(gate: Option<NetFault>, answer: Answer) -> Model {
            Model {
                core: ConnCore::new(0.0, gate.into_iter().collect()),
                gate,
                answer,
                now: 0.0,
                kernel: Vec::new(),
                eof: false,
                fed: Vec::new(),
                taken: 0,
                last_heard: 0.0,
                hellos: 0,
                rejected_at: None,
            }
        }

        /// The connection is over: the master loop would close it.
        fn over(&self) -> bool {
            self.core.close().is_some()
        }

        /// Whether the fault gate is shut, by the bytes moved either way.
        fn gate_shut(&self) -> bool {
            let moved = self.fed.len() as u64 + self.taken;
            match self.gate {
                Some(NetFault::DropAfter(n) | NetFault::StallAfter(n)) => moved >= n,
                _ => false,
            }
        }

        /// The master loop's read: everything the gate lets through, then the
        /// end of stream if the peer hung up.
        fn read(&mut self) {
            if !self.core.readable(self.now) {
                return;
            }
            if !self.kernel.is_empty() {
                let bytes = std::mem::take(&mut self.kernel);
                self.core.on_read(&bytes, self.now);
                self.fed.extend_from_slice(&bytes);
                self.last_heard = self.now;
            }
            if self.eof {
                self.core.hang_up();
            }
        }

        /// Apply `step`; false if it cannot happen in this state.
        fn apply(&mut self, step: Step) -> bool {
            let worker = matches!(self.core.phase, Phase::Worker(_));
            match step {
                Step::Peer(bytes) => {
                    self.kernel.extend(bytes.wire());
                    self.read();
                }
                Step::Eof => {
                    self.eof = true;
                    self.read();
                }
                Step::Accept(k) => {
                    let n = self.core.outbound(self.now).len().min(k);
                    self.core.wrote(n);
                    self.taken += n as u64;
                }
                Step::Beat | Step::PastHandshake | Step::PastRead | Step::PastGrace => {
                    let to = match step {
                        Step::Beat => self.now + 0.25,
                        Step::PastHandshake => HANDSHAKE_TIMEOUT_S + 1e-3,
                        Step::PastRead => self.last_heard + READ_TIMEOUT_S + 1e-3,
                        _ => self.now + REJECT_GRACE_S + 1e-3,
                    };
                    self.now = to.max(self.now);
                    self.core.tick(self.now);
                }
                Step::Ping | Step::ShutDown if !worker => return false,
                Step::Ping => assert!(self.core.send(tag::PING, vec![0; 16])),
                Step::ShutDown => self.core.shut_down(),
                Step::Push if self.core.phase != Phase::Client => return false,
                Step::Push => {
                    self.core.push(tag::FRAME_PROGRESS, vec![2], self.now);
                    self.last_heard = self.now;
                }
            }
            true
        }

        /// Take `step` as the master loop would — the step, then every event it
        /// frees — and check the invariants; false if it cannot happen.
        fn step(&mut self, step: Step, path: &[Step]) -> bool {
            let closing = matches!(self.core.phase, Phase::Closing { .. });
            let (shut, before) = (self.gate_shut(), (self.core.bytes_in, self.core.bytes_out));
            if !self.apply(step) {
                return false;
            }
            while let Some(event) = self.core.next_event() {
                assert!(!closing, "{path:?} {step:?}: {event:?} while closing");
                self.event(event, path);
            }
            let io = matches!(step, Step::Peer(_) | Step::Eof | Step::Accept(_));
            if shut && io {
                assert_eq!(
                    (self.core.bytes_in, self.core.bytes_out),
                    before,
                    "{path:?} {step:?}: bytes moved through a shut gate"
                );
                if let Some(NetFault::DropAfter(_)) = self.gate {
                    assert!(self.over(), "{path:?} {step:?}: a dropped gate left open");
                }
            }
            if matches!(step, Step::Eof) && !shut {
                assert!(self.over(), "{path:?}: end of stream left open");
            }
            self.check(step, path);
            true
        }

        fn event(&mut self, event: Event, path: &[Step]) {
            match event {
                Event::Hello(fingerprint) => {
                    self.hellos += 1;
                    assert_eq!(self.hellos, 1, "{path:?}: a second Hello");
                    // the first frame fed, read by the blocking decoder
                    let (first, _) = read_frame(&mut &self.fed[..])
                        .unwrap_or_else(|e| panic!("{path:?}: Hello without a frame ({e})"));
                    assert_eq!(first.tag, tag::HELLO, "{path:?}");
                    assert!(
                        first.payload.is_empty() || first.payload == FINGERPRINT,
                        "{path:?}"
                    );
                    assert_eq!(fingerprint, first.payload, "{path:?}");
                    match self.answer {
                        Answer::Welcome => self.core.enrol(0, b"job"),
                        Answer::Refuse => {
                            self.core.reject("scene fingerprint mismatch", self.now);
                            self.rejected_at = Some(self.now);
                        }
                    }
                }
                Event::Worker(w, msg) => {
                    assert_eq!(self.core.phase, Phase::Worker(w), "{path:?}");
                    assert!(matches!(msg.tag, tag::REQUEST | tag::RESULT | tag::PONG));
                }
                Event::Client(msg) => {
                    assert!(tag::is_client(msg.tag), "{path:?}");
                    match self.answer {
                        Answer::Welcome => self.core.reply(tag::JOB_OK, vec![1]),
                        Answer::Refuse => self.core.refuse(),
                    }
                }
            }
        }

        fn check(&self, step: Step, path: &[Step]) {
            let core = &self.core;
            assert_eq!(core.bytes_in, self.fed.len() as u64, "{path:?} {step:?}");
            assert_eq!(core.bytes_out, self.taken, "{path:?} {step:?}");
            assert!(core.buf.len() - core.pos <= HEADER_LEN + MAX_FRAME_LEN);
            // a framing violation anywhere in what was fed closes it
            let mut rest = &self.fed[..];
            let violated = loop {
                match read_frame(&mut rest) {
                    Ok(_) => continue,
                    Err(e) => break matches!(e, ChannelError::Protocol(_)),
                }
            };
            assert!(
                !violated || self.over(),
                "{path:?} {step:?}: violation left open"
            );
            if self.over() {
                return;
            }
            // deadlines: none later than its rule, each enforced by a tick
            let ticked = matches!(
                step,
                Step::Beat | Step::PastHandshake | Step::PastRead | Step::PastGrace
            );
            let deadline = core.next_deadline().unwrap_or(f64::INFINITY);
            let by = match core.phase {
                Phase::Hello => HANDSHAKE_TIMEOUT_S,
                Phase::Worker(_) | Phase::Client => self.last_heard + READ_TIMEOUT_S,
                Phase::Closing { .. } => match self.rejected_at {
                    Some(at) => at + REJECT_GRACE_S,
                    None => f64::INFINITY, // a dismissed worker waits for its SHUTDOWN to flush
                },
            };
            assert!(
                deadline <= by,
                "{path:?} {step:?}: deadline {deadline} after {by}"
            );
            assert!(
                !ticked || self.now <= by,
                "{path:?} {step:?}: kept past {by}"
            );
        }
    }

    /// The gates explored: none, and a drop and a stall after
    /// [`GATE_AT`] bytes.
    const GATES: [Option<NetFault>; 3] = [
        None,
        Some(NetFault::DropAfter(GATE_AT)),
        Some(NetFault::StallAfter(GATE_AT)),
    ];

    /// A fresh connection under every gate and master answer.
    fn roots() -> impl Iterator<Item = Model> {
        let answers = [Answer::Welcome, Answer::Refuse];
        GATES
            .into_iter()
            .flat_map(move |gate| answers.map(|answer| Model::new(gate, answer)))
    }

    fn dfs(model: &Model, depth: usize, path: &mut Vec<Step>, states: &mut u64) {
        if depth == 0 || model.over() {
            return;
        }
        for step in ALPHABET {
            let mut next = model.clone();
            if !next.step(step, path) {
                continue;
            }
            *states += 1;
            path.push(step);
            dfs(&next, depth - 1, path, states);
            path.pop();
        }
    }

    /// Every interleaving of the alphabet to a fixed depth, under each gate
    /// and answer.
    #[test]
    fn every_short_interleaving_keeps_the_connection_invariants() {
        // release builds (the chaos-soak CI step) search deeper
        let depth = if cfg!(debug_assertions) { 5 } else { 6 };
        let mut states = 0u64;
        for root in roots() {
            dfs(&root, depth, &mut Vec::new(), &mut states);
        }
        println!("conn explorer: {states} states to depth {depth}");
        assert!(states > 10_000, "only {states} states explored");
    }

    /// Seeded random walks to depth 40, past where the search reaches:
    /// torn frames reassembled late, deadlines after long exchanges. A
    /// step that would end the connection is taken one time in 64, so
    /// most walks run their full length.
    #[test]
    fn long_random_walks_keep_the_connection_invariants() {
        let walks = if cfg!(debug_assertions) { 300 } else { 20_000 };
        let roots: Vec<Model> = roots().collect();
        let mut steps = 0u64;
        for walk in 0..walks {
            let mut rng = JitterRng::new(walk);
            let mut model = roots[walk as usize % roots.len()].clone();
            let mut path = Vec::new();
            while path.len() < 40 && !model.over() {
                let step = ALPHABET[(rng.next_f64() * ALPHABET.len() as f64) as usize];
                let mut next = model.clone();
                if !next.step(step, &path) || (next.over() && rng.next_f64() > 1.0 / 64.0) {
                    continue;
                }
                model = next;
                path.push(step);
                steps += 1;
            }
        }
        println!("conn explorer: {walks} random walks, {steps} steps");
        assert!(steps > walks * 20, "walks end too soon: {steps} steps");
    }
}
