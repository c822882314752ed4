//! Socket-level tests of the TCP framing layer (`now_cluster::net`).
//!
//! The unit tests in `net.rs` cover the full master/worker protocol;
//! these tests attack the framing itself over real localhost sockets:
//! torn writes, hostile length prefixes, wrong magic/version, and peers
//! that vanish mid-frame.

use now_cluster::message::{ChannelError, Message};
use now_cluster::net::{read_frame, write_frame, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// A connected localhost socket pair.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    client.set_nodelay(true).unwrap();
    server.set_nodelay(true).unwrap();
    (client, server)
}

fn msg(tag: u32, payload: Vec<u8>) -> Message {
    Message {
        from: 2,
        to: 0,
        tag,
        payload,
    }
}

/// The raw wire bytes of a frame, built independently of `write_frame`.
fn raw_frame(magic: u32, version: u32, len: u32, body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&magic.to_le_bytes());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(body);
    buf
}

#[test]
fn roundtrip_over_localhost_socket() {
    let (mut client, mut server) = socket_pair();
    let sent = msg(7, vec![1, 2, 3, 4, 5]);
    let reply = msg(8, (0..200u16).map(|i| i as u8).collect());

    let n = write_frame(&mut client, &sent).expect("write");
    let (got, m) = read_frame(&mut server).expect("read");
    assert_eq!(got, sent);
    assert_eq!(n, m, "reader and writer must agree on the frame size");
    assert_eq!(n as usize, HEADER_LEN + sent.encode().len());

    // and the other direction on the same pair
    write_frame(&mut server, &reply).expect("write back");
    let (got, _) = read_frame(&mut client).expect("read back");
    assert_eq!(got, reply);
}

/// A frame split across two `write` calls with a pause in between still
/// decodes: `read_frame` must handle short reads mid-header and mid-body.
#[test]
fn torn_write_across_two_chunks_decodes() {
    let (mut client, mut server) = socket_pair();
    let m = msg(42, vec![9; 300]);
    let frame = {
        // build the full wire image via write_frame into a Vec
        let mut buf = Vec::new();
        write_frame(&mut buf, &m).expect("encode");
        buf
    };
    let reader = std::thread::spawn(move || read_frame(&mut server).expect("read torn frame"));
    // tear inside the header, then inside the body
    client.write_all(&frame[..6]).unwrap();
    client.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.write_all(&frame[6..HEADER_LEN + 40]).unwrap();
    client.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.write_all(&frame[HEADER_LEN + 40..]).unwrap();
    client.flush().unwrap();
    let (got, n) = reader.join().expect("reader thread");
    assert_eq!(got, m);
    assert_eq!(n as usize, frame.len());
}

/// A length prefix past `MAX_FRAME_LEN` is rejected before the body is
/// allocated or read.
#[test]
fn hostile_length_prefix_is_rejected() {
    let (mut client, mut server) = socket_pair();
    let evil = raw_frame(MAGIC, VERSION, u32::MAX, &[]);
    client.write_all(&evil).unwrap();
    client.flush().unwrap();
    let err = read_frame(&mut server).unwrap_err();
    assert_eq!(err, ChannelError::Protocol("hostile length prefix"));

    // just past the limit is rejected too
    let (mut client, mut server) = socket_pair();
    let evil = raw_frame(MAGIC, VERSION, (MAX_FRAME_LEN + 1) as u32, &[]);
    client.write_all(&evil).unwrap();
    client.flush().unwrap();
    let err = read_frame(&mut server).unwrap_err();
    assert_eq!(err, ChannelError::Protocol("hostile length prefix"));
}

#[test]
fn bad_magic_and_version_are_rejected() {
    let (mut client, mut server) = socket_pair();
    client
        .write_all(&raw_frame(0xDEAD_BEEF, VERSION, 0, &[]))
        .unwrap();
    assert_eq!(
        read_frame(&mut server).unwrap_err(),
        ChannelError::Protocol("bad frame magic")
    );

    let (mut client, mut server) = socket_pair();
    client
        .write_all(&raw_frame(MAGIC, VERSION + 1, 0, &[]))
        .unwrap();
    assert_eq!(
        read_frame(&mut server).unwrap_err(),
        ChannelError::Protocol("wire protocol version mismatch")
    );
}

/// A peer that disconnects mid-frame maps to `PeerGone`, whether the cut
/// lands in the header or in the body.
#[test]
fn mid_frame_disconnect_maps_to_peer_gone() {
    let m = msg(1, vec![7; 64]);
    let mut full = Vec::new();
    write_frame(&mut full, &m).expect("encode");

    for cut in [3, HEADER_LEN - 1, HEADER_LEN + 10, full.len() - 1] {
        let (mut client, mut server) = socket_pair();
        client.write_all(&full[..cut]).unwrap();
        client.flush().unwrap();
        drop(client); // peer process dies mid-frame
        assert_eq!(
            read_frame(&mut server).unwrap_err(),
            ChannelError::PeerGone,
            "cut at byte {cut}"
        );
    }
}

/// An undecodable body (valid header, garbage message bytes) is a
/// protocol error, not a panic and not `PeerGone`.
#[test]
fn garbage_body_is_a_protocol_error() {
    let (mut client, mut server) = socket_pair();
    let body = [0xFF, 0xFE, 0xFD]; // far too short for a Message header
    client
        .write_all(&raw_frame(MAGIC, VERSION, body.len() as u32, &body))
        .unwrap();
    client.flush().unwrap();
    assert_eq!(
        read_frame(&mut server).unwrap_err(),
        ChannelError::Protocol("undecodable message body")
    );
}

/// An idle link past the socket read timeout surfaces as `TimedOut` —
/// the error the worker uses to decide the master is unreachable.
#[test]
fn idle_link_times_out() {
    let (_client, mut server) = socket_pair();
    server
        .set_read_timeout(Some(Duration::from_millis(80)))
        .unwrap();
    assert_eq!(read_frame(&mut server).unwrap_err(), ChannelError::TimedOut);
}

/// `write_frame` refuses to build a frame larger than `MAX_FRAME_LEN`
/// instead of shipping something the peer is guaranteed to reject.
#[test]
fn oversized_outgoing_frame_is_refused() {
    let m = msg(1, vec![0; MAX_FRAME_LEN + 1]);
    let mut sink = Vec::new();
    assert_eq!(
        write_frame(&mut sink, &m).unwrap_err(),
        ChannelError::Protocol("frame exceeds MAX_FRAME_LEN"),
    );
    assert!(sink.is_empty(), "nothing may hit the wire");
}

// ---------------------------------------------------------------------
// Hostile membership: attacks on the handshake of a *live* master
// ---------------------------------------------------------------------
//
// Everything below runs a real master loop and points misbehaving
// clients at it alongside one honest worker. The invariant under attack
// is always the same: the run still finishes, every unit is integrated
// exactly once, and the hostile connection shows up in the membership
// counters instead of wedging the farm.

use now_cluster::net::NetConfig;
use now_cluster::{
    connect_worker, ConnectConfig, MasterLogic, MasterWork, RunReport, TcpClusterConfig, TcpMaster,
    WorkCost, WorkerLogic, WorkerSummary,
};
use std::net::SocketAddr;

struct CountMaster {
    next: u64,
    limit: u64,
    done: u64,
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
        assert_eq!(result, unit * unit);
        self.done += 1;
        Some(MasterWork::default())
    }
}

/// A worker that takes `0.0` ms per unit keeps the run short; a nonzero
/// delay keeps the run alive long enough for handshake deadlines to fire.
struct SlowSquarer(u64);
impl WorkerLogic for SlowSquarer {
    type Unit = u64;
    type Result = u64;
    fn perform(&mut self, unit: &u64) -> (u64, WorkCost) {
        if self.0 > 0 {
            std::thread::sleep(Duration::from_millis(self.0));
        }
        (unit * unit, WorkCost::compute_only(0.0))
    }
}

fn run_master(
    quorum: usize,
    units: u64,
    net: NetConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<(CountMaster, RunReport)>,
) {
    let listener = TcpMaster::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let mut cfg = TcpClusterConfig::new(quorum);
        cfg.net = net;
        let logic = CountMaster {
            next: 0,
            limit: units,
            done: 0,
        };
        listener.run(logic, &cfg).expect("master")
    });
    (addr, handle)
}

fn serve_worker(addr: SocketAddr, delay_ms: u64) -> std::thread::JoinHandle<WorkerSummary> {
    std::thread::spawn(move || {
        let conn = connect_worker(&addr.to_string(), &ConnectConfig::default()).expect("connect");
        conn.serve(SlowSquarer(delay_ms)).expect("serve")
    })
}

fn hello() -> Message {
    Message {
        from: 0,
        to: 0,
        tag: now_cluster::net::tag::HELLO,
        payload: Vec::new(),
    }
}

/// A slow-loris client sends half a HELLO frame and then goes quiet. The
/// handshake deadline (5 s) must reap it as a rejection while the honest
/// worker keeps draining units.
#[test]
fn torn_hello_slow_loris_is_reaped_by_handshake_deadline() {
    let net = NetConfig {
        accept_window_s: 10.0,
        ..NetConfig::default()
    };
    let (addr, master) = run_master(1, 60, net);

    let mut frame = Vec::new();
    write_frame(&mut frame, &hello()).expect("encode");
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.write_all(&frame[..frame.len() / 2]).unwrap();
    loris.flush().unwrap();

    let worker = serve_worker(addr, 100); // 60 * 100ms outlives the 5 s deadline
    let (logic, report) = master.join().expect("master thread");
    assert_eq!(logic.done, 60, "every unit integrated exactly once");
    assert_eq!(report.workers_rejected, 1, "the loris was reaped");
    assert_eq!(report.workers_lost, 0, "no enrolled worker was lost");
    assert_eq!(worker.join().expect("worker").units, 60);
    drop(loris);
}

/// A client that speaks something other than the protocol (here: HTTP)
/// is cut off at the framing layer without ever being enrolled.
#[test]
fn http_client_is_rejected_without_joining() {
    let net = NetConfig {
        accept_window_s: 10.0,
        ..NetConfig::default()
    };
    let (addr, master) = run_master(1, 40, net);

    let mut intruder = TcpStream::connect(addr).expect("connect");
    intruder
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    intruder.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150)); // let the master chew on it

    let worker = serve_worker(addr, 0);
    let (logic, report) = master.join().expect("master thread");
    assert_eq!(logic.done, 40);
    assert_eq!(report.workers_rejected, 1);
    assert_eq!(report.workers_joined, 1, "only the honest worker joined");
    worker.join().expect("worker");
}

/// A joiner that completes the handshake and then immediately dies is
/// recorded as joined *and* left; its (empty) lease set requeues and the
/// run finishes on the surviving worker.
#[test]
fn joiner_that_dies_after_welcome_is_counted_and_survived() {
    let net = NetConfig {
        accept_window_s: 10.0,
        ..NetConfig::default()
    };
    // quorum 2: the ghost's death must not satisfy the run, the door
    // stays open for the honest replacement
    let (addr, master) = run_master(2, 40, net);

    {
        let mut ghost = TcpStream::connect(addr).expect("connect");
        write_frame(&mut ghost, &hello()).expect("hello");
        let (welcome, _) = read_frame(&mut ghost).expect("welcome");
        assert_eq!(welcome.tag, now_cluster::net::tag::WELCOME);
    } // dropped: the ghost dies right after enrolling

    std::thread::sleep(Duration::from_millis(100));
    let worker = serve_worker(addr, 0);
    let (logic, report) = master.join().expect("master thread");
    assert_eq!(logic.done, 40);
    assert_eq!(report.workers_joined, 2, "the ghost did join");
    assert_eq!(report.workers_left, 1, "and was seen leaving");
    assert_eq!(report.workers_rejected, 0);
    worker.join().expect("worker");
}

/// Replaying HELLO on an already-enrolled connection is a protocol
/// violation: the connection is killed and its leases requeue, but the
/// run is not disturbed.
#[test]
fn hello_replay_mid_session_kills_only_that_connection() {
    let net = NetConfig {
        accept_window_s: 10.0,
        ..NetConfig::default()
    };
    let (addr, master) = run_master(2, 40, net);

    let mut replayer = TcpStream::connect(addr).expect("connect");
    write_frame(&mut replayer, &hello()).expect("hello");
    let (welcome, _) = read_frame(&mut replayer).expect("welcome");
    assert_eq!(welcome.tag, now_cluster::net::tag::WELCOME);
    write_frame(&mut replayer, &hello()).expect("replayed hello");
    std::thread::sleep(Duration::from_millis(100));

    let worker = serve_worker(addr, 0);
    let (logic, report) = master.join().expect("master thread");
    assert_eq!(logic.done, 40);
    assert_eq!(report.workers_joined, 2);
    assert_eq!(report.workers_left, 1, "the replayer was expelled");
    worker.join().expect("worker");
    drop(replayer);
}

/// A control-plane request (SUBMIT) aimed at a master that does not
/// serve clients — `MasterLogic::client_frame` is the default `None` —
/// is a protocol violation: the connection is retired as rejected and
/// the single-job run finishes undisturbed.
#[test]
fn client_frame_on_non_service_master_is_rejected() {
    let net = NetConfig {
        accept_window_s: 10.0,
        ..NetConfig::default()
    };
    let (addr, master) = run_master(1, 40, net);

    let mut client = TcpStream::connect(addr).expect("connect");
    let submit = Message {
        from: 0,
        to: 0,
        tag: now_cluster::net::tag::SUBMIT,
        payload: vec![1, 2, 3],
    };
    write_frame(&mut client, &submit).expect("send submit");
    std::thread::sleep(Duration::from_millis(150));

    let worker = serve_worker(addr, 0);
    let (logic, report) = master.join().expect("master thread");
    assert_eq!(logic.done, 40, "every unit integrated exactly once");
    assert_eq!(report.workers_joined, 1, "only the honest worker joined");
    assert_eq!(report.workers_rejected, 1, "the client was turned away");
    worker.join().expect("worker");
    drop(client);
}

/// Byte accounting covers both wire directions: the master's per-worker
/// report charges unit assignments and pings as `bytes_received` (the
/// master→worker direction) alongside the results it took in as
/// `bytes_sent`, and the worker's own summary agrees that traffic
/// flowed both ways.
#[test]
fn report_accounts_bytes_in_both_directions() {
    let net = NetConfig {
        accept_window_s: 10.0,
        ..NetConfig::default()
    };
    let (addr, master) = run_master(1, 25, net);
    let worker = serve_worker(addr, 0);
    let (logic, report) = master.join().expect("master thread");
    let summary = worker.join().expect("worker thread");
    assert_eq!(logic.done, 25);
    let m = &report.machines[0];
    assert!(m.bytes_sent > 0, "worker→master results not accounted");
    assert!(
        m.bytes_received > 0,
        "master→worker assignments not accounted"
    );
    assert!(summary.bytes_sent > 0 && summary.bytes_received > 0);
    // every unit costs at least one frame header in each direction
    assert!(m.bytes_received as usize >= 25 * HEADER_LEN);
}
