#![warn(missing_docs)]

//! # now-cluster
//!
//! The "network of workstations" substrate — the PVM 3.1 stand-in.
//!
//! The paper ran on three SGI workstations coordinated by PVM over shared
//! Ethernet. This crate reproduces that environment on two clocks:
//!
//! * [`net`] — the one wall-clock driver, a real TCP transport over
//!   `std::net` with framing, a node-id handshake, heartbeats and lease
//!   recovery — the deployment model the paper actually ran (PVM daemons
//!   over Ethernet). Connections come in three roles: handshaking joiners,
//!   enrolled workers, and control-plane *clients* whose request frames
//!   are routed through [`MasterLogic::client_frame`] (job
//!   submit/status/cancel for a long-lived service master). [`threads`]
//!   runs it in process, one worker thread per loopback socket.
//! * [`sim`] — a deterministic discrete-event simulator of heterogeneous
//!   workstations on a shared-bus Ethernet. Machines have relative speeds
//!   (the paper's fast SGI is 2x the other two) and the bus has latency,
//!   bandwidth and contention. Work is *really executed* (pixels really
//!   rendered, rays really counted); only time is virtual, derived from
//!   the measured work. The Table 1 reproduction runs here so the paper's
//!   exact 3-machine heterogeneous setup is recreated regardless of the
//!   host.
//!
//! Both drive the same application interface — [`MasterLogic`] on the
//! master workstation and [`WorkerLogic`] on each slave — in the same
//! demand-driven pattern the paper describes: "The only interprocessor
//! communication occurs between the master and each of the slaves; the
//! slaves themselves do not need to communicate with each other." The
//! master side of that protocol exists once, as the sans-IO state machine
//! [`core::MasterCore`]; each clock has one thin driver that feeds it
//! events and realises its actions.
//!
//! [`codec`] is a small hand-rolled byte codec: protocol payloads are
//! encoded through it so the simulator charges exact byte counts to the
//! Ethernet model.
//!
//! [`fault`] makes the substrate honest about failure: a [`FaultPlan`]
//! injects worker crashes, stalls, slowdowns and bad results into the
//! drivers, and the lease/retry/exclusion [`Ledger`] of [`ledger`]
//! lets the master survive them with every unit integrated exactly once.
//!
//! [`journal`] extends that honesty to the master itself: an append-only,
//! CRC-checked record log ([`JournalWriter`]) with torn-tail recovery and
//! a [`JournalFaultPlan`] that kills the log mid-write at any chosen byte,
//! so master-crash-and-resume can be tested as deterministically as worker
//! crashes.
//!
//! [`netfault`] does the same for the wire: a [`NetFaultPlan`] drops,
//! stalls, delays or partitions individual connections at exact byte
//! counts, so membership churn on the TCP transport replays
//! deterministically.
//!
//! [`chaos`] completes the set and ties it together: a [`DiskFaultPlan`]
//! injects `ENOSPC`, `EIO` and torn writes into the journal and frame
//! writers, and the seeded [`ChaosPlan`] is the one fault spec — one
//! grammar, parser and printer for compute, network and disk faults — so
//! a full storm can be armed, replayed and diffed against a fault-free
//! run.

pub mod chaos;
pub mod codec;
mod conn;
pub mod core;
pub mod fault;
pub mod journal;
pub mod ledger;
pub mod logic;
pub mod message;
pub mod net;
pub mod netfault;
pub mod report;
pub mod sim;
pub mod threads;

pub use chaos::{ChaosPlan, DiskFaultKind, DiskFaultPlan, DiskFaults};
pub use codec::{Decoder, Encoder};
pub use fault::{FaultKind, FaultPlan};
pub use journal::{read_log, JournalFaultPlan, JournalWriter, RecoveredLog};
pub use ledger::{FaultCounters, Ledger, RecoveryConfig};
pub use logic::{MasterLogic, MasterWork, WorkCost, WorkerLogic};
pub use message::{ChannelError, Message, NodeId};
pub use net::{
    connect_worker, ConnectConfig, NetConfig, TcpClusterConfig, TcpMaster, TcpWorkerConn, Wire,
    WorkerSummary,
};
pub use netfault::{full_jitter_delay, JitterRng, NetFault, NetFaultPlan};
pub use report::{MachineReport, RunReport, SpanKind, TimelineSpan};
pub use sim::{paged_seconds, EthernetSpec, MachineSpec, SimCluster};
pub use threads::ThreadCluster;
