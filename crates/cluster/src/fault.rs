//! Deterministic compute-fault injection.
//!
//! The paper's PVM farm assumes every slave survives the whole run; on a
//! real network of workstations machines get rebooted, reclaimed and
//! overloaded mid-run. A [`FaultPlan`] schedules such failures per worker:
//! crash at the Nth unit, stall (receive a unit and never reply), slow
//! down by a factor, silently drop or corrupt a result, or join late. The
//! discrete-event simulator applies these to virtual time; the thread
//! backend applies them for real (early thread exit, injected sleeps,
//! suppressed sends). How the master *recovers* from them is a separate
//! concern: see [`crate::ledger`] and [`crate::core`].

use std::collections::BTreeMap;

/// One kind of injected fault, triggered by the 0-based count of units the
/// worker has *started* (received).
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
    /// Every result from the `n`th unit onward is silently corrupted
    /// (bit-flipped) before it reaches the master — a Byzantine worker.
    /// The master's end-to-end checksum must catch it, requeue the unit
    /// and eventually quarantine the worker.
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

    /// Parse a comma-separated compute-fault spec:
    /// `WORKER:KIND@ARG` per rule, e.g.
    /// `1:corrupt@0,2:crash@3,0:slow@2x1.5,3:drop@4,4:stall@1,5:join@0.25`.
    ///
    /// Kinds: `crash@N`, `stall@N`, `drop@N` (lose the result of unit N),
    /// `corrupt@N` (corrupt every result from unit N on), `slow@NxF`
    /// (units from N on take F× as long), `join@T` (join T seconds in).
    /// Unit counts are 0-based counts of *started* units, matching the
    /// builder methods.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for rule in spec.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            let (worker, rest) = rule
                .split_once(':')
                .ok_or_else(|| format!("fault rule `{rule}`: expected WORKER:KIND@ARG"))?;
            let worker: usize = worker
                .trim()
                .parse()
                .map_err(|_| format!("fault rule `{rule}`: bad worker index `{worker}`"))?;
            let (kind, arg) = rest
                .split_once('@')
                .ok_or_else(|| format!("fault rule `{rule}`: expected KIND@ARG"))?;
            let unit = |a: &str| -> Result<u64, String> {
                a.parse()
                    .map_err(|_| format!("fault rule `{rule}`: bad unit count `{a}`"))
            };
            plan = match kind.trim() {
                "crash" => plan.crash_at(worker, unit(arg)?),
                "stall" => plan.stall_at(worker, unit(arg)?),
                "drop" => plan.drop_result_at(worker, unit(arg)?),
                "corrupt" => plan.corrupt_from(worker, unit(arg)?),
                "slow" => {
                    let (n, f) = arg
                        .split_once('x')
                        .ok_or_else(|| format!("fault rule `{rule}`: slow wants N x FACTOR"))?;
                    let factor: f64 = f
                        .parse()
                        .map_err(|_| format!("fault rule `{rule}`: bad factor `{f}`"))?;
                    plan.slow_from(worker, unit(n)?, factor)
                }
                "join" => {
                    let t: f64 = arg
                        .parse()
                        .map_err(|_| format!("fault rule `{rule}`: bad join time `{arg}`"))?;
                    plan.join_at(worker, t)
                }
                other => return Err(format!("fault rule `{rule}`: unknown kind `{other}`")),
            };
        }
        Ok(plan)
    }

    /// Render the plan back into the [`FaultPlan::parse`] grammar.
    pub fn to_spec(&self) -> String {
        let mut rules = Vec::new();
        for (&w, kinds) in &self.faults {
            for k in kinds {
                rules.push(match k {
                    FaultKind::CrashAtUnit(n) => format!("{w}:crash@{n}"),
                    FaultKind::StallAtUnit(n) => format!("{w}:stall@{n}"),
                    FaultKind::SlowFromUnit { unit, factor } => format!("{w}:slow@{unit}x{factor}"),
                    FaultKind::DropResultAtUnit(n) => format!("{w}:drop@{n}"),
                    FaultKind::CorruptFromUnit(n) => format!("{w}:corrupt@{n}"),
                });
            }
        }
        for (&w, &t) in &self.joins {
            rules.push(format!("{w}:join@{t}"));
        }
        rules.join(",")
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
    fn fault_plan_spec_round_trips() {
        let p = FaultPlan::none()
            .crash_at(0, 3)
            .stall_at(1, 2)
            .slow_from(2, 4, 3.0)
            .drop_result_at(2, 9)
            .corrupt_from(5, 0)
            .join_at(4, 1.5);
        let spec = p.to_spec();
        assert_eq!(FaultPlan::parse(&spec).expect("reparse"), p);
        assert!(p.corrupts(5, 0) && p.corrupts(5, 7));
        assert!(!p.corrupts(4, 0));
        assert!(FaultPlan::parse("1:corrupt").is_err());
        assert!(FaultPlan::parse("x:crash@1").is_err());
        assert!(FaultPlan::parse("1:frobnicate@2").is_err());
        assert!(FaultPlan::parse("").expect("empty spec").is_empty());
    }
}
