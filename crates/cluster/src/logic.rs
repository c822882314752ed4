//! The master/worker application interface shared by every backend.
//!
//! The paper's structure: "The master process handles this task in
//! addition to collecting rendered image information and writing this
//! information out to files. The only interprocessor communication occurs
//! between the master and each of the slaves." The simulator and the
//! wall-clock TCP driver (remote workers, or in-process ones via the
//! thread backend) both drive these traits through the one demand-driven
//! loop of [`crate::core::MasterCore`]:
//!
//! 1. every worker asks for work;
//! 2. the master answers with a unit from [`MasterLogic::assign`]; with
//!    none to give it parks the worker while more work may still be
//!    assigned ([`MasterLogic::all_done`] is false — a long-lived service
//!    is such a master until it is drained), and shuts it down once none
//!    will ever be;
//! 3. the worker runs [`WorkerLogic::perform`] and returns the result,
//!    which doubles as the next work request;
//! 4. the master folds the result in via [`MasterLogic::integrate`]
//!    (e.g. writes the finished frame to disk).

/// Cost accounting for one unit of worker computation.
///
/// The wall-clock driver ignores `work_units` (real CPU time is the cost);
/// the simulator divides it by the machine's speed factor to get virtual
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkCost {
    /// Abstract CPU work (calibrated as "seconds on a speed-1.0 machine").
    pub work_units: f64,
    /// Size of the result message sent back to the master.
    pub result_bytes: u64,
    /// Peak working set of the unit in MB; the simulator applies a paging
    /// penalty when this exceeds the machine's memory (the paper credits
    /// "the increased aggregate memory of multiple machines" for part of
    /// its distributed speedup).
    pub working_set_mb: f64,
}

impl WorkCost {
    /// Cost with no result payload or memory pressure.
    pub fn compute_only(work_units: f64) -> WorkCost {
        WorkCost {
            work_units,
            result_bytes: 0,
            working_set_mb: 0.0,
        }
    }
}

/// Cost accounting for the master-side handling of one result.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MasterWork {
    /// Abstract CPU work on the master (e.g. Targa file writing).
    pub work_units: f64,
    /// If true the master may overlap this work with receiving further
    /// messages (the paper credits part of its super-multiplicative speedup
    /// to "the overlapping of computation and file writing"). If false the
    /// master is busy and messages queue behind it.
    pub overlappable: bool,
}

/// Master-side application logic (scheduling + result collection).
pub trait MasterLogic {
    /// Work-unit descriptor shipped to workers.
    type Unit: Clone + Send;
    /// Result shipped back.
    type Result: Send;

    /// Hand the next unit to an idle worker, or `None` if no work remains
    /// *for that worker right now*. A `None` answer shuts the worker down;
    /// schedulers that may later produce more work for the worker should
    /// only return `None` when the whole job is finished for it.
    fn assign(&mut self, worker: usize) -> Option<Self::Unit>;

    /// Fold a completed unit into the master state; returns the master-side
    /// cost (file writing etc.), or `None` to **reject** the result:
    /// master-side verification (end-to-end checksum, payload decode)
    /// failed, nothing was integrated, and the core requeues the unit and
    /// strikes the worker. Masters that do not verify results simply
    /// always return `Some`. `unit` is always the unit as issued.
    fn integrate(
        &mut self,
        worker: usize,
        unit: Self::Unit,
        result: Self::Result,
    ) -> Option<MasterWork>;

    /// Size in bytes of a unit assignment message (for the network model).
    fn unit_bytes(&self, _unit: &Self::Unit) -> u64 {
        64
    }

    /// A unit's lease on `from_worker` expired and the unit is about to be
    /// re-issued. The master may rewrite it (e.g. the render farm sets
    /// `restart = true` so the new owner rebuilds coherence state from
    /// scratch) and should treat `from_worker` as unreliable (the farm
    /// releases its owned task queues). Default: re-issue verbatim.
    fn on_reassign(&mut self, _from_worker: usize, _unit: &mut Self::Unit) {}

    /// `worker` was excluded as lost (crash, stall or repeated timeouts).
    /// Schedulers holding per-worker state (owned task queues) should
    /// release it so survivors pick up the remaining work. Default: no-op.
    fn on_worker_lost(&mut self, _worker: usize) {}

    /// True once no more work will ever be assigned: the master's one
    /// "is the work over" question.
    ///
    /// The core consults this when `assign` returns `None` for an idle
    /// worker: `true` lets the worker shut down, `false` parks it because
    /// more work may still appear even though no lease or retry is
    /// visible at this instant — e.g. units queued behind another worker
    /// whose lease just completed and whose next assignment hasn't been
    /// issued yet, or a long-lived service's future jobs (a service
    /// answers `true` only once it is drained and every job is terminal).
    /// While it is `false`, a driver that still admits joiners keeps an
    /// idle run alive. Masters whose schedulers hold per-worker queues
    /// must override this; the default (`true`) is only correct for
    /// bag-of-tasks masters where `assign` returning `None` means the
    /// bag is empty.
    fn all_done(&self) -> bool {
        true
    }

    /// Answer one control-plane frame from a *client* connection (the
    /// third connection role of the TCP transport, next to handshaking
    /// and enrolled workers — see `now_cluster::net`). A client opens a
    /// connection and, instead of `HELLO`, sends a request frame whose
    /// tag is a client request (`SUBMIT`, `STATUS`, `CANCEL`, `JOBS`,
    /// `DRAIN` or `WATCH`, see [`crate::net::tag`]); the master routes
    /// the raw tag + payload here and queues the returned `(tag,
    /// payload)` reply on the same connection.
    ///
    /// `None` means this master does not serve clients (or the tag is
    /// unacceptable): the connection is retired as a protocol violation,
    /// exactly like any other garbage opener. The default serves nobody,
    /// so plain single-job masters are unaffected.
    ///
    /// `client` is a stable token for the connection the frame arrived
    /// on (the TCP transport never reuses tokens within a run). Masters
    /// that stream unsolicited frames back — see [`client_pushes`] —
    /// remember it as the push address; request/reply masters may
    /// ignore it.
    ///
    /// [`client_pushes`]: MasterLogic::client_pushes
    fn client_frame(&mut self, _client: u64, _tag: u32, _payload: &[u8]) -> Option<(u32, Vec<u8>)> {
        None
    }

    /// Drain unsolicited `(client, tag, payload)` frames to push to
    /// client connections, addressed by the token their request arrived
    /// with in [`client_frame`]. The transport polls this every sweep
    /// and queues each frame on the matching live client connection;
    /// frames for clients that already disconnected are dropped. This is
    /// how a master streams progress (e.g. partial frames) without the
    /// client polling. Default: nothing to push.
    ///
    /// [`client_frame`]: MasterLogic::client_frame
    fn client_pushes(&mut self) -> Vec<(u64, u32, Vec<u8>)> {
        Vec::new()
    }

    /// A client connection was retired (clean close, timeout or protocol
    /// violation). Masters holding per-client push state should drop it.
    /// Default: no-op.
    fn client_gone(&mut self, _client: u64) {}
}

/// Worker-side application logic.
pub trait WorkerLogic: Send {
    /// Work-unit descriptor (matches the master's).
    type Unit;
    /// Result type (matches the master's).
    type Result: Send;

    /// Execute one unit, returning the result and its cost.
    fn perform(&mut self, unit: &Self::Unit) -> (Self::Result, WorkCost);

    /// Deterministically damage a result in place, for `corrupt@N` fault
    /// injection (`FaultKind::CorruptFromUnit`): the simulator calls this
    /// on a result the fault plan marks as corrupted, and the master's
    /// verification must then reject it. The default is a no-op, which
    /// makes corruption faults vacuous on the simulator for workers that
    /// don't implement it. (The wall-clock driver damages the encoded
    /// result bytes instead, so it needs no help from the worker.)
    fn corrupt(_result: &mut Self::Result) {}
}
