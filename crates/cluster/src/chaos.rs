//! The fault plane: one seeded [`ChaosPlan`] spec for every injected
//! fault, and the disk-fault domain.
//!
//! Each failure domain keeps its own typed, deterministic plan and its own
//! runtime gate, because their triggers genuinely differ: compute faults
//! ([`FaultPlan`]: crashes, stalls, slowdowns, dropped and corrupted
//! results) fire on units *started*, wire faults ([`NetFaultPlan`]: drops,
//! stalls, delays, partitions) on bytes *moved*, disk faults
//! ([`DiskFaultPlan`]) on writes *seen*. What exists once is the way a
//! fault is *written down* and *carried*: a whole storm is a single spec
//! string (`nowfarm --chaos` / `NOW_CHAOS`) that parses into a
//! [`ChaosPlan`] (`str::parse`), prints back (`Display`), replays
//! byte-identically, and is asserted against a fault-free reference run.
//!
//! ## The grammar
//!
//! ```text
//! seed=7|compute=1:corrupt@0,2:slow@1x40|net=2:drop@8000;~0.3:part@1-2|disk=journal:enospc@2
//! ```
//!
//! `|` separates sections (`seed=N`, `compute=`, `net=`, `disk=`); `;` or
//! `,` separates a section's clauses; every clause is `WHO:KIND@ARGS`.
//!
//! | section | `WHO` | `KIND@ARGS` | trigger |
//! |---|---|---|---|
//! | `compute` | worker index | `crash@N` `stall@N` `drop@N` `corrupt@N` `slow@NxF` `join@T` | worker's `N`th started unit (0-based) / `T` seconds in |
//! | `net` | accept index, `*`, or `~P` (seeded roll) | `drop@BYTES` `stall@BYTES` `delay@BYTES+S` `part@FROM-TO` | bytes moved on the connection / seconds since it opened |
//! | `disk` | path substring or `*` | `enospc@N` `eio@N` `torn@N` | the rule's `N`th matching write (0-based), once |
//!
//! This module owns the clause tokenizer and the printer; each domain
//! contributes only its `(kind, args) ⇄ fault` table (`push_clause` /
//! `clauses` on the three plan types).
//!
//! ## Disk faults
//!
//! A [`DiskFaultPlan`] is *armed* into a [`DiskFaults`] handle — clonable,
//! shared — that the journal writers and the image writer consult before
//! touching the file system: `enospc` / `eio` fail the write with the real
//! OS error, `torn` cuts it partway and leaves the file torn, as if power
//! was lost mid-write. Rendering must degrade gracefully: a failed or torn
//! journal record stops the records with a warning while the frame files
//! continue, and a failed or torn frame file is re-rendered by the next
//! resume.

use crate::fault::FaultPlan;
use crate::netfault::NetFaultPlan;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// What an injected disk fault does to the write that trips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The write fails with `ENOSPC` ("no space left on device").
    Enospc,
    /// The write fails with `EIO` (a dying disk).
    Eio,
    /// The write is cut partway through and the file left torn, as if
    /// the machine lost power mid-write; the caller sees success-shaped
    /// silence, recovery has to catch it later (CRC, atomic rename).
    Torn,
}

impl DiskFaultKind {
    const ALL: [DiskFaultKind; 3] = [Self::Enospc, Self::Eio, Self::Torn];

    /// The kind's name in the chaos grammar's `disk=` section.
    fn name(self) -> &'static str {
        match self {
            DiskFaultKind::Enospc => "enospc",
            DiskFaultKind::Eio => "eio",
            DiskFaultKind::Torn => "torn",
        }
    }

    /// The `io::Error` this fault surfaces as. `Torn` is the exception —
    /// it doesn't error at the fault site (that's the point) — and maps
    /// to a generic `WriteZero` for callers that can't tear.
    pub fn to_io_error(self) -> std::io::Error {
        match self {
            // ENOSPC and EIO carry the real OS error codes so the
            // degradation paths see exactly what a full/dying disk gives
            DiskFaultKind::Enospc => std::io::Error::from_raw_os_error(28),
            DiskFaultKind::Eio => std::io::Error::from_raw_os_error(5),
            DiskFaultKind::Torn => {
                std::io::Error::new(std::io::ErrorKind::WriteZero, "injected torn write")
            }
        }
    }
}

/// One per-path disk-fault rule: the `op`-th write whose path contains
/// `path` (`*` = every path) suffers `kind`, once.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DiskRule {
    path: String,
    kind: DiskFaultKind,
    op: u64,
}

/// A deterministic per-path schedule of one-shot disk faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskFaultPlan {
    rules: Vec<DiskRule>,
}

impl DiskFaultPlan {
    /// The empty plan: every write succeeds.
    pub fn none() -> DiskFaultPlan {
        DiskFaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn with(mut self, path: &str, kind: DiskFaultKind, op: u64) -> DiskFaultPlan {
        self.rules.push(DiskRule {
            path: path.to_string(),
            kind,
            op,
        });
        self
    }

    /// The `op`-th write to a path containing `path` fails with `ENOSPC`.
    pub fn enospc_at(self, path: &str, op: u64) -> DiskFaultPlan {
        self.with(path, DiskFaultKind::Enospc, op)
    }

    /// The `op`-th write to a path containing `path` is torn partway.
    pub fn torn_at(self, path: &str, op: u64) -> DiskFaultPlan {
        self.with(path, DiskFaultKind::Torn, op)
    }

    /// The `disk=` table, spec → plan: `WHO` is a path substring or `*`,
    /// `ARGS` the 0-based index of the matching write that trips the fault.
    fn push_clause(&mut self, c: &Clause<'_>) -> Result<(), String> {
        let kind = DiskFaultKind::ALL
            .into_iter()
            .find(|k| k.name() == c.kind)
            .ok_or_else(|| c.err(&format!("unknown disk fault `{}`", c.kind)))?;
        *self = std::mem::take(self).with(c.who, kind, c.num(c.args, "write index")?);
        Ok(())
    }

    /// The same table, plan → spec clauses.
    fn clauses(&self) -> Vec<String> {
        let clause = |r: &DiskRule| format!("{}:{}@{}", r.path, r.kind.name(), r.op);
        self.rules.iter().map(clause).collect()
    }

    /// Arm the plan into a runtime handle. Every clone of the handle
    /// shares the same per-rule write counters, so a rule fires exactly
    /// once no matter how many writers consult it.
    pub fn arm(&self) -> DiskFaults {
        DiskFaults(Arc::new(Mutex::new(DiskState {
            rules: self.rules.clone(),
            counts: vec![0; self.rules.len()],
            fired: vec![false; self.rules.len()],
            injected: 0,
        })))
    }
}

#[derive(Debug)]
struct DiskState {
    rules: Vec<DiskRule>,
    /// Matching writes seen so far, per rule.
    counts: Vec<u64>,
    /// One-shot latch per rule.
    fired: Vec<bool>,
    injected: u64,
}

/// A shared, armed [`DiskFaultPlan`]: file writers call
/// [`DiskFaults::check`] with the path they are about to write and obey
/// the verdict. The default handle is free (injects nothing).
#[derive(Debug, Clone)]
pub struct DiskFaults(Arc<Mutex<DiskState>>);

impl Default for DiskFaults {
    fn default() -> DiskFaults {
        DiskFaultPlan::none().arm()
    }
}

impl DiskFaults {
    /// A handle that never injects.
    pub fn none() -> DiskFaults {
        DiskFaults::default()
    }

    /// Account one write of `path` and return the fault to inject on it,
    /// if any rule trips. Each rule counts the writes whose path
    /// contains its pattern and fires exactly once, at its configured
    /// index; when several rules trip on the same write the first wins.
    pub fn check(&self, path: &str) -> Option<DiskFaultKind> {
        let mut st = self.0.lock().expect("disk fault lock");
        let mut hit = None;
        for i in 0..st.rules.len() {
            let rule = &st.rules[i];
            if rule.path != "*" && !path.contains(rule.path.as_str()) {
                continue;
            }
            let n = st.counts[i];
            st.counts[i] += 1;
            if !st.fired[i] && n == st.rules[i].op {
                st.fired[i] = true;
                if hit.is_none() {
                    hit = Some(st.rules[i].kind);
                }
            }
        }
        if hit.is_some() {
            st.injected += 1;
        }
        hit
    }

    /// Faults injected so far (fired rules that hit a write).
    pub fn injected(&self) -> u64 {
        self.0.lock().expect("disk fault lock").injected
    }
}

/// One `WHO:KIND@ARGS` clause of a chaos spec, split but not yet
/// interpreted: the domain tables map `(kind, args)` to their own fault
/// and report what they cannot read through [`Clause::err`], so every
/// error names the clause it came from.
pub(crate) struct Clause<'a> {
    text: &'a str,
    pub(crate) who: &'a str,
    pub(crate) kind: &'a str,
    pub(crate) args: &'a str,
}

impl<'a> Clause<'a> {
    fn split(text: &'a str) -> Result<Clause<'a>, String> {
        let shape = || format!("fault clause `{text}`: expected WHO:KIND@ARGS");
        let (who, what) = text.split_once(':').ok_or_else(shape)?;
        let (kind, args) = what.split_once('@').ok_or_else(shape)?;
        Ok(Clause {
            text,
            who: who.trim(),
            kind: kind.trim(),
            args: args.trim(),
        })
    }

    pub(crate) fn err(&self, what: &str) -> String {
        format!("fault clause `{}`: {what}", self.text)
    }

    /// `s` (the clause's `WHO`, or one of its `ARGS`) as a number.
    pub(crate) fn num<T: FromStr>(&self, s: &str, what: &str) -> Result<T, String> {
        let bad = |_| self.err(&format!("bad {what} `{s}`"));
        s.trim().parse().map_err(bad)
    }

    /// `ARGS` split in two at `sep`, as in `slow@NxF` or `part@FROM-TO`.
    pub(crate) fn pair(&self, sep: char) -> Result<(&'a str, &'a str), String> {
        let missing = || self.err(&format!("{} wants two arguments around `{sep}`", self.kind));
        self.args.split_once(sep).ok_or_else(missing)
    }
}

/// The one fault spec: a seed plus the compute, network and disk plans,
/// parsed from (`str::parse`) and printed to (`Display`) the grammar in
/// the module docs, e.g. `nowfarm --chaos SPEC` / `NOW_CHAOS`:
///
/// ```text
/// seed=7|compute=1:corrupt@0,2:slow@1x40|net=2:drop@8000|disk=journal:enospc@2
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the net plan's probabilistic (`~P`) rules.
    pub seed: u64,
    /// Compute faults, keyed by worker index.
    pub compute: FaultPlan,
    /// Wire faults, keyed by connection accept order.
    pub net: NetFaultPlan,
    /// Disk faults, keyed by path substring.
    pub disk: DiskFaultPlan,
}

impl ChaosPlan {
    /// The empty plan: no chaos anywhere.
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// True when every composed plan is empty.
    pub fn is_empty(&self) -> bool {
        self.compute.is_empty() && self.net.is_empty() && self.disk.is_empty()
    }
}

impl FromStr for ChaosPlan {
    type Err = String;

    /// Total: any input yields a plan or an error naming the section or
    /// clause that could not be read. Sections may come in any order; a
    /// repeated section adds its clauses.
    fn from_str(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::none();
        for section in spec.split('|').map(str::trim).filter(|s| !s.is_empty()) {
            let bad = |what: &str| format!("chaos section `{section}`: {what}");
            let (key, value) = section
                .split_once('=')
                .ok_or_else(|| bad("expected seed=, compute=, net= or disk="))?;
            let push: fn(&mut ChaosPlan, &Clause<'_>) -> Result<(), String> = match key.trim() {
                "seed" => {
                    plan.seed = value.trim().parse().map_err(|_| bad("bad seed"))?;
                    continue;
                }
                "compute" => |p, c| p.compute.push_clause(c),
                "net" => |p, c| p.net.push_clause(c),
                "disk" => |p, c| p.disk.push_clause(c),
                _ => return Err(bad("unknown section (seed, compute, net, disk)")),
            };
            let clauses = value.split([';', ',']).map(str::trim);
            for text in clauses.filter(|c| !c.is_empty()) {
                push(&mut plan, &Clause::split(text)?)?;
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sections = Vec::new();
        if self.seed != 0 {
            sections.push(format!("seed={}", self.seed));
        }
        let domains = [
            ("compute", self.compute.clauses()),
            ("net", self.net.clauses()),
            ("disk", self.disk.clauses()),
        ];
        for (key, clauses) in domains {
            if !clauses.is_empty() {
                sections.push(format!("{key}={}", clauses.join(";")));
            }
        }
        f.write_str(&sections.join("|"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plans_are_free() {
        assert!(DiskFaultPlan::none().is_empty());
        assert_eq!(DiskFaults::none().check("/any/path"), None);
        assert!(ChaosPlan::none().is_empty());
    }

    #[test]
    fn disk_rules_count_matching_writes_and_fire_once() {
        let plan: ChaosPlan = "disk=journal:enospc@1;frame_0002:eio@0"
            .parse()
            .expect("parse");
        let faults = plan.disk.arm();
        // journal writes: #0 clean, #1 trips ENOSPC, #2+ clean again
        assert_eq!(faults.check("/job/run.journal"), None);
        assert_eq!(
            faults.check("/job/run.journal"),
            Some(DiskFaultKind::Enospc)
        );
        assert_eq!(faults.check("/job/run.journal"), None);
        // an unrelated path never matches
        assert_eq!(faults.check("/job/frame_0001.tga"), None);
        // the targeted frame trips on its first write — via a clone,
        // proving the counters are shared
        let shared = faults.clone();
        assert_eq!(
            shared.check("/job/frame_0002.tga"),
            Some(DiskFaultKind::Eio)
        );
        assert_eq!(shared.check("/job/frame_0002.tga"), None);
        assert_eq!(faults.injected(), 2);
    }

    #[test]
    fn wildcard_rule_hits_any_path() {
        let faults = DiskFaultPlan::none().torn_at("*", 2).arm();
        assert_eq!(faults.check("a"), None);
        assert_eq!(faults.check("b"), None);
        assert_eq!(faults.check("c"), Some(DiskFaultKind::Torn));
        assert_eq!(faults.check("d"), None);
    }

    #[test]
    fn chaos_spec_composes_all_three_domains() {
        let spec = "seed=7|compute=1:corrupt@0,2:slow@1x40|net=2:drop@8000|disk=journal:enospc@2";
        let plan: ChaosPlan = spec.parse().expect("parse");
        assert_eq!(plan.seed, 7);
        assert!(plan.compute.corrupts(1, 0));
        assert!((plan.compute.slowdown(2, 1) - 40.0).abs() < 1e-12);
        assert!(!plan.net.is_empty());
        assert_eq!(
            plan.disk.arm().check("x/run.journal"),
            None,
            "enospc@2 waits for the third write"
        );
        // the printer's output is the canonical spelling of the same plan
        assert_eq!(plan.to_string(), spec.replace(',', ";"));
        assert_eq!(
            plan.to_string().parse::<ChaosPlan>().expect("reparse"),
            plan
        );
    }

    #[test]
    fn injected_errors_carry_real_os_codes() {
        assert_eq!(DiskFaultKind::Enospc.to_io_error().raw_os_error(), Some(28));
        assert_eq!(DiskFaultKind::Eio.to_io_error().raw_os_error(), Some(5));
        assert_eq!(
            DiskFaultKind::Torn.to_io_error().kind(),
            std::io::ErrorKind::WriteZero
        );
    }
}
