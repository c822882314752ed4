//! Deterministic compute-fault injection.
//!
//! The paper's PVM farm assumes every slave survives the whole run; on a
//! real network of workstations machines get rebooted, reclaimed and
//! overloaded mid-run. A [`FaultPlan`] schedules such failures per worker:
//! crash at the Nth unit, stall (receive a unit and never reply), slow
//! down by a factor, silently drop or corrupt a result, or join late. The
//! discrete-event simulator applies these to virtual time; on the wall
//! clock the TCP worker's serve loop realises them for real (in-process
//! workers only), except corruption, which the master applies on arrival.
//! How the master *recovers* from them is a separate concern: see
//! [`crate::ledger`] and [`crate::core`].

use crate::chaos::Clause;
use std::collections::BTreeMap;

/// One kind of injected fault, triggered by the 0-based count of units the
/// worker has *started* (received); see [`FaultKind::CorruptFromUnit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The worker dies when it receives its `n`th unit (0-based): the unit
    /// is never computed and the worker is gone for good.
    CrashAtUnit(u64),
    /// The worker receives its `n`th unit and never replies, but stays
    /// alive (a wedged process: from the master's view, identical to a
    /// crash until it is excluded).
    StallAtUnit(u64),
    /// Every unit from the `n`th onward takes `factor`× as long. With a
    /// factor pushing compute past the lease this produces late duplicate
    /// results, exercising the at-most-once ledger.
    SlowFromUnit {
        /// First affected unit (0-based count of started units).
        unit: u64,
        /// Compute-time multiplier (> 1 slows the worker down).
        factor: f64,
    },
    /// The worker computes its `n`th unit but the result message is lost
    /// in transit (the work request it doubles as is lost too, so the
    /// worker sits idle until the master re-engages or excludes it).
    DropResultAtUnit(u64),
    /// Every result from the `n`th onward is silently corrupted
    /// (bit-flipped) — a Byzantine worker. On the wall clock `n` counts
    /// the results the master has *received* from the worker, in process
    /// or remote (a dropped one does not count), and the master flips a
    /// bit on arrival. The master's end-to-end checksum must catch it,
    /// requeue the unit and eventually quarantine the worker.
    CorruptFromUnit(u64),
}

/// A deterministic per-worker fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Vec<FaultKind>>,
    /// Per-worker late-join times in seconds; absent = present from t=0.
    joins: BTreeMap<usize, f64>,
}

impl FaultPlan {
    /// The empty plan: no faults, behaviour identical to the seed farm.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if no faults are scheduled and no worker joins late.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.joins.is_empty()
    }

    /// Worker `worker` joins the run `t_s` seconds after start instead of
    /// being present from t = 0 (churn: a late joiner).
    pub fn join_at(mut self, worker: usize, t_s: f64) -> FaultPlan {
        self.joins.insert(worker, t_s.max(0.0));
        self
    }

    /// Seconds after run start at which `worker` joins (0.0 = from start).
    pub fn join_time(&self, worker: usize) -> f64 {
        self.joins.get(&worker).copied().unwrap_or(0.0)
    }

    /// Add an arbitrary fault for `worker`.
    pub fn with(mut self, worker: usize, kind: FaultKind) -> FaultPlan {
        self.faults.entry(worker).or_default().push(kind);
        self
    }

    /// Worker `worker` crashes when receiving its `unit`th unit (0-based).
    pub fn crash_at(self, worker: usize, unit: u64) -> FaultPlan {
        self.with(worker, FaultKind::CrashAtUnit(unit))
    }

    /// Worker `worker` stalls forever on its `unit`th unit.
    pub fn stall_at(self, worker: usize, unit: u64) -> FaultPlan {
        self.with(worker, FaultKind::StallAtUnit(unit))
    }

    /// Worker `worker` computes units from `unit` onward `factor`× slower.
    pub fn slow_from(self, worker: usize, unit: u64, factor: f64) -> FaultPlan {
        self.with(worker, FaultKind::SlowFromUnit { unit, factor })
    }

    /// Worker `worker` loses the result of its `unit`th unit.
    pub fn drop_result_at(self, worker: usize, unit: u64) -> FaultPlan {
        self.with(worker, FaultKind::DropResultAtUnit(unit))
    }

    /// Worker `worker` corrupts every result from its `unit`th unit on.
    pub fn corrupt_from(self, worker: usize, unit: u64) -> FaultPlan {
        self.with(worker, FaultKind::CorruptFromUnit(unit))
    }

    /// Unit index at which `worker` crashes, if any.
    pub fn crash_unit(&self, worker: usize) -> Option<u64> {
        self.kinds(worker).iter().find_map(|k| match k {
            FaultKind::CrashAtUnit(n) => Some(*n),
            _ => None,
        })
    }

    /// Unit index at which `worker` stalls, if any.
    pub fn stall_unit(&self, worker: usize) -> Option<u64> {
        self.kinds(worker).iter().find_map(|k| match k {
            FaultKind::StallAtUnit(n) => Some(*n),
            _ => None,
        })
    }

    /// Combined slowdown factor for `worker`'s `unit`th unit (1.0 = none).
    pub fn slowdown(&self, worker: usize, unit: u64) -> f64 {
        self.kinds(worker)
            .iter()
            .filter_map(|k| match k {
                FaultKind::SlowFromUnit { unit: from, factor } if unit >= *from => Some(*factor),
                _ => None,
            })
            .product()
    }

    /// True if the result of `worker`'s `unit`th unit is dropped.
    pub fn drops_result(&self, worker: usize, unit: u64) -> bool {
        self.kinds(worker)
            .iter()
            .any(|k| matches!(k, FaultKind::DropResultAtUnit(n) if *n == unit))
    }

    /// True if the result of `worker`'s `unit`th unit is corrupted.
    pub fn corrupts(&self, worker: usize, unit: u64) -> bool {
        self.kinds(worker)
            .iter()
            .any(|k| matches!(k, FaultKind::CorruptFromUnit(n) if unit >= *n))
    }

    fn kinds(&self, worker: usize) -> &[FaultKind] {
        self.faults.get(&worker).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The chaos grammar's `compute=` table, spec → plan: `WORKER:crash@N`,
    /// `stall@N`, `drop@N` (lose the result of unit N), `corrupt@N`
    /// (corrupt every result from unit N on), `slow@NxF` (units from N on
    /// take F× as long), `join@T` (join T seconds in). Unit counts are
    /// 0-based counts of *started* units, as in the builder methods.
    pub(crate) fn push_clause(&mut self, c: &Clause<'_>) -> Result<(), String> {
        let worker: usize = c.num(c.who, "worker index")?;
        let kind = match c.kind {
            "crash" => FaultKind::CrashAtUnit(c.num(c.args, "unit count")?),
            "stall" => FaultKind::StallAtUnit(c.num(c.args, "unit count")?),
            "drop" => FaultKind::DropResultAtUnit(c.num(c.args, "unit count")?),
            "corrupt" => FaultKind::CorruptFromUnit(c.num(c.args, "unit count")?),
            "slow" => {
                let (unit, factor) = c.pair('x')?;
                FaultKind::SlowFromUnit {
                    unit: c.num(unit, "unit count")?,
                    factor: c.num(factor, "factor")?,
                }
            }
            "join" => {
                let t: f64 = c.num(c.args, "join time")?;
                self.joins.insert(worker, t.max(0.0));
                return Ok(());
            }
            other => return Err(c.err(&format!("unknown compute fault `{other}`"))),
        };
        self.faults.entry(worker).or_default().push(kind);
        Ok(())
    }

    /// The same table, plan → spec clauses.
    pub(crate) fn clauses(&self) -> Vec<String> {
        let faults = self.faults.iter().flat_map(|(w, kinds)| {
            kinds.iter().map(move |k| match k {
                FaultKind::CrashAtUnit(n) => format!("{w}:crash@{n}"),
                FaultKind::StallAtUnit(n) => format!("{w}:stall@{n}"),
                FaultKind::SlowFromUnit { unit, factor } => format!("{w}:slow@{unit}x{factor}"),
                FaultKind::DropResultAtUnit(n) => format!("{w}:drop@{n}"),
                FaultKind::CorruptFromUnit(n) => format!("{w}:corrupt@{n}"),
            })
        });
        let joins = self.joins.iter().map(|(w, t)| format!("{w}:join@{t}"));
        faults.chain(joins).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries() {
        let p = FaultPlan::none()
            .crash_at(0, 3)
            .stall_at(1, 2)
            .slow_from(2, 4, 3.0)
            .drop_result_at(2, 9);
        assert!(!p.is_empty());
        assert_eq!(p.crash_unit(0), Some(3));
        assert_eq!(p.crash_unit(1), None);
        assert_eq!(p.stall_unit(1), Some(2));
        assert_eq!(p.slowdown(2, 3), 1.0);
        assert_eq!(p.slowdown(2, 4), 3.0);
        assert_eq!(p.slowdown(2, 100), 3.0);
        assert!(p.drops_result(2, 9));
        assert!(!p.drops_result(2, 8));
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn join_times_default_to_run_start() {
        let p = FaultPlan::none().join_at(2, 1.5);
        assert!(!p.is_empty(), "a join-only plan is not the empty plan");
        assert_eq!(p.join_time(2), 1.5);
        assert_eq!(p.join_time(0), 0.0);
        assert_eq!(FaultPlan::none().join_at(1, -3.0).join_time(1), 0.0);
    }

    #[test]
    fn corrupt_from_is_open_ended_and_per_worker() {
        let p = FaultPlan::none().corrupt_from(5, 2);
        assert!(!p.corrupts(5, 1));
        assert!(p.corrupts(5, 2) && p.corrupts(5, 7));
        assert!(!p.corrupts(4, 2));
    }
}
