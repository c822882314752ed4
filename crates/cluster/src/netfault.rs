//! Deterministic network-fault injection for the TCP transport.
//!
//! A [`NetFaultPlan`] describes, per connection (keyed by accept order on
//! the master), when the wire should misbehave: drop dead after N bytes,
//! stall silently, delay delivery, or black-hole traffic during a
//! partition window. Probabilistic rules roll the [`crate::ChaosPlan`]
//! seed, so the same chaos scenario replays identically across runs — the
//! network analogue of [`crate::fault::FaultPlan`] for compute faults.
//!
//! The plan is *threaded through the framing layer*, not bolted onto the
//! sockets: the master's poll loop consults a [`ConnFaultState`] gate
//! before every read/write sweep. Plans are written in the `net=` section
//! of the one chaos grammar (see [`crate::chaos`]).

use crate::chaos::Clause;
use std::collections::BTreeMap;

/// One injected misbehaviour on a single connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFault {
    /// The connection dies (reads return EOF, writes fail) once the total
    /// bytes moved in either direction reaches this count.
    DropAfter(u64),
    /// The connection stops moving bytes (reads/writes block) once the
    /// total reaches this count, and never recovers — a wedged peer.
    StallAfter(u64),
    /// After `bytes` total bytes, the connection freezes for `for_s`
    /// seconds of wall time, then resumes — a transient hiccup.
    DelayAfter {
        /// Byte threshold that arms the delay.
        bytes: u64,
        /// How long the freeze lasts once armed.
        for_s: f64,
    },
    /// The connection moves no bytes between `from_s` and `to_s` seconds
    /// after it opened — a partition window.
    Partition {
        /// Window start, seconds after the connection opened.
        from_s: f64,
        /// Window end (exclusive).
        to_s: f64,
    },
}

/// A per-connection schedule of [`NetFault`]s.
///
/// Rules attach either to a specific connection index (accept order), to
/// every connection (`*`), or probabilistically (`~P`: each connection
/// rolls the chaos seed against `P`). The default plan is empty and free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultPlan {
    per_conn: BTreeMap<u64, Vec<NetFault>>,
    every_conn: Vec<NetFault>,
    random: Vec<(f64, NetFault)>,
}

impl NetFaultPlan {
    /// The empty plan: no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.per_conn.is_empty() && self.every_conn.is_empty() && self.random.is_empty()
    }

    /// Attach a fault to the `conn`-th accepted connection.
    pub fn with(mut self, conn: u64, fault: NetFault) -> Self {
        self.per_conn.entry(conn).or_default().push(fault);
        self
    }

    /// Shorthand: connection `conn` drops dead after `bytes` bytes.
    pub fn drop_after(self, conn: u64, bytes: u64) -> Self {
        self.with(conn, NetFault::DropAfter(bytes))
    }

    /// Resolve the faults that apply to connection number `conn`,
    /// rolling probabilistic rules deterministically from `seed`.
    pub fn for_conn(&self, conn: u64, seed: u64) -> Vec<NetFault> {
        let mut out = Vec::new();
        if let Some(faults) = self.per_conn.get(&conn) {
            out.extend_from_slice(faults);
        }
        out.extend_from_slice(&self.every_conn);
        for (i, &(p, fault)) in self.random.iter().enumerate() {
            // one independent roll per (rule, connection) pair
            let mut rng = JitterRng::new(
                seed ^ (conn.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (i as u64) << 32,
            );
            if rng.next_f64() < p {
                out.push(fault);
            }
        }
        out
    }

    /// Build the runtime gate for connection number `conn`.
    pub fn state_for(&self, conn: u64, seed: u64) -> ConnFaultState {
        ConnFaultState::new(self.for_conn(conn, seed))
    }

    /// The chaos grammar's `net=` table, spec → plan: `WHO` is a
    /// connection index, `*` (all) or `~P` (probability P); the fault is
    /// `drop@BYTES`, `stall@BYTES`, `delay@BYTES+SECONDS` or `part@FROM-TO`.
    pub(crate) fn push_clause(&mut self, c: &Clause<'_>) -> Result<(), String> {
        let fault = match c.kind {
            "drop" => NetFault::DropAfter(c.num(c.args, "byte count")?),
            "stall" => NetFault::StallAfter(c.num(c.args, "byte count")?),
            "delay" => {
                let (bytes, for_s) = c.pair('+')?;
                NetFault::DelayAfter {
                    bytes: c.num(bytes, "byte count")?,
                    for_s: c.num(for_s, "delay seconds")?,
                }
            }
            "part" => {
                let (from_s, to_s) = c.pair('-')?;
                NetFault::Partition {
                    from_s: c.num(from_s, "partition start")?,
                    to_s: c.num(to_s, "partition end")?,
                }
            }
            other => return Err(c.err(&format!("unknown net fault `{other}`"))),
        };
        if c.who == "*" {
            self.every_conn.push(fault);
        } else if let Some(p) = c.who.strip_prefix('~') {
            let p: f64 = c.num(p, "probability")?;
            self.random.push((p.clamp(0.0, 1.0), fault));
        } else {
            let conn = c.num(c.who, "connection index")?;
            self.per_conn.entry(conn).or_default().push(fault);
        }
        Ok(())
    }

    /// The same table, plan → spec clauses.
    pub(crate) fn clauses(&self) -> Vec<String> {
        let clause = |who: String, f: &NetFault| match *f {
            NetFault::DropAfter(b) => format!("{who}:drop@{b}"),
            NetFault::StallAfter(b) => format!("{who}:stall@{b}"),
            NetFault::DelayAfter { bytes, for_s } => format!("{who}:delay@{bytes}+{for_s}"),
            NetFault::Partition { from_s, to_s } => format!("{who}:part@{from_s}-{to_s}"),
        };
        let per_conn = self
            .per_conn
            .iter()
            .flat_map(|(conn, faults)| faults.iter().map(move |f| (conn.to_string(), f)));
        let every = self.every_conn.iter().map(|f| ("*".to_string(), f));
        let random = self.random.iter().map(|(p, f)| (format!("~{p}"), f));
        per_conn
            .chain(every)
            .chain(random)
            .map(|(who, f)| clause(who, f))
            .collect()
    }
}

/// What the fault gate says the connection may do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Bytes may flow.
    Open,
    /// No bytes may flow right now, but the connection is alive
    /// (stall / delay / partition).
    Blocked,
    /// The connection is dead: reads see EOF, writes fail.
    Closed,
}

/// Runtime fault state for one connection: counts bytes in both
/// directions and evaluates the connection's faults against them and the
/// connection-relative clock.
#[derive(Debug, Clone, Default)]
pub struct ConnFaultState {
    faults: Vec<NetFault>,
    /// Total bytes moved (reads + writes).
    bytes: u64,
    /// Wall-clock instant (seconds since the conn opened) when an armed
    /// `DelayAfter` unfreezes; set the first time its byte threshold hits.
    delay_until: Vec<Option<f64>>,
}

impl ConnFaultState {
    /// Build the state for a set of faults (empty = always `Open`).
    pub fn new(faults: Vec<NetFault>) -> Self {
        let delay_until = vec![None; faults.len()];
        Self {
            faults,
            bytes: 0,
            delay_until,
        }
    }

    /// A fault-free gate (always `Open`).
    pub fn open() -> Self {
        Self::default()
    }

    /// True when this connection has no faults attached.
    pub fn is_free(&self) -> bool {
        self.faults.is_empty()
    }

    /// Account `n` bytes moved (either direction).
    pub fn on_bytes(&mut self, n: u64) {
        self.bytes = self.bytes.saturating_add(n);
    }

    /// Total bytes this gate has accounted.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Evaluate the gate at `now` seconds since the connection opened.
    /// `Closed` wins over `Blocked` wins over `Open`.
    pub fn gate(&mut self, now_s: f64) -> Gate {
        let mut gate = Gate::Open;
        for (i, fault) in self.faults.iter().enumerate() {
            match *fault {
                NetFault::DropAfter(limit) => {
                    if self.bytes >= limit {
                        return Gate::Closed;
                    }
                }
                NetFault::StallAfter(limit) => {
                    if self.bytes >= limit {
                        gate = Gate::Blocked;
                    }
                }
                NetFault::DelayAfter { bytes, for_s } => {
                    if self.bytes >= bytes {
                        let until = *self.delay_until[i].get_or_insert(now_s + for_s);
                        if now_s < until {
                            gate = Gate::Blocked;
                        }
                    }
                }
                NetFault::Partition { from_s, to_s } => {
                    if now_s >= from_s && now_s < to_s {
                        gate = Gate::Blocked;
                    }
                }
            }
        }
        gate
    }
}

/// A tiny deterministic RNG (xorshift64* + splitmix seeding) for jitter
/// and probabilistic fault rolls — no external crates, stable across
/// platforms.
#[derive(Debug, Clone)]
pub struct JitterRng(u64);

impl JitterRng {
    /// Seed the generator. A zero seed is remapped to a fixed nonzero
    /// constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        // splitmix64 scrambles weak (small-integer) seeds
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
    }

    /// Seed from wall time and pid — for production reconnects where
    /// distinctness across processes matters more than reproducibility.
    pub fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED);
        Self::new(nanos ^ (u64::from(std::process::id()) << 32))
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// AWS-style *full jitter* backoff: uniform in `[0, min(cap, base·2^attempt))`.
///
/// A fleet of workers reconnecting after a master restart spreads its
/// retries across the whole window instead of stampeding in lockstep.
pub fn full_jitter_delay(base_s: f64, cap_s: f64, attempt: u32, rng: &mut JitterRng) -> f64 {
    let ceiling = (base_s * f64::powi(2.0, attempt.min(31) as i32)).min(cap_s);
    rng.next_f64() * ceiling
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_free() {
        let plan = NetFaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.for_conn(0, 0).is_empty());
        let mut state = plan.state_for(3, 0);
        assert!(state.is_free());
        assert_eq!(state.gate(10.0), Gate::Open);
    }

    #[test]
    fn drop_after_closes_at_threshold() {
        let mut s = ConnFaultState::new(vec![NetFault::DropAfter(100)]);
        s.on_bytes(99);
        assert_eq!(s.gate(0.0), Gate::Open);
        s.on_bytes(1);
        assert_eq!(s.gate(0.0), Gate::Closed);
    }

    #[test]
    fn stall_blocks_forever_after_threshold() {
        let mut s = ConnFaultState::new(vec![NetFault::StallAfter(10)]);
        assert_eq!(s.gate(0.0), Gate::Open);
        s.on_bytes(10);
        assert_eq!(s.gate(0.0), Gate::Blocked);
        assert_eq!(s.gate(1e9), Gate::Blocked);
    }

    #[test]
    fn delay_blocks_then_recovers() {
        let mut s = ConnFaultState::new(vec![NetFault::DelayAfter {
            bytes: 5,
            for_s: 2.0,
        }]);
        assert_eq!(s.gate(0.0), Gate::Open);
        s.on_bytes(5);
        // armed at t=1.0 → blocked until t=3.0
        assert_eq!(s.gate(1.0), Gate::Blocked);
        assert_eq!(s.gate(2.9), Gate::Blocked);
        assert_eq!(s.gate(3.0), Gate::Open);
        assert_eq!(s.gate(10.0), Gate::Open);
    }

    #[test]
    fn partition_window_blocks_only_inside() {
        let mut s = ConnFaultState::new(vec![NetFault::Partition {
            from_s: 1.0,
            to_s: 2.0,
        }]);
        assert_eq!(s.gate(0.5), Gate::Open);
        assert_eq!(s.gate(1.0), Gate::Blocked);
        assert_eq!(s.gate(1.9), Gate::Blocked);
        assert_eq!(s.gate(2.0), Gate::Open);
    }

    #[test]
    fn closed_wins_over_blocked() {
        let mut s = ConnFaultState::new(vec![
            NetFault::StallAfter(0),
            NetFault::DropAfter(0),
            NetFault::Partition {
                from_s: 0.0,
                to_s: 9.0,
            },
        ]);
        assert_eq!(s.gate(0.5), Gate::Closed);
    }

    #[test]
    fn plan_targets_specific_all_and_random_conns() {
        let chaos: crate::ChaosPlan = "seed=7|net=2:drop@4096;*:stall@1048576;~0.5:part@0.1-0.2"
            .parse()
            .expect("parse");
        let (plan, seed) = (chaos.net, chaos.seed);
        // conn 2 gets its targeted drop plus the broadcast stall
        let f2 = plan.for_conn(2, seed);
        assert!(f2.contains(&NetFault::DropAfter(4096)));
        assert!(f2.contains(&NetFault::StallAfter(1 << 20)));
        // conn 5 gets only the broadcast (plus maybe the random roll)
        let f5 = plan.for_conn(5, seed);
        assert!(!f5.contains(&NetFault::DropAfter(4096)));
        // the random rule hits ~half of many conns, deterministically
        let partitioned = |c: u64, seed: u64| {
            let faults = plan.for_conn(c, seed);
            faults
                .iter()
                .any(|f| matches!(f, NetFault::Partition { .. }))
        };
        let hits = (0..1000).filter(|&c| partitioned(c, seed)).count();
        assert!((300..700).contains(&hits), "random rule hit {hits}/1000");
        // resolution is a pure function of (plan, conn, seed)
        assert_eq!(plan.for_conn(123, seed), plan.for_conn(123, seed));
        assert!((0..1000).any(|c| partitioned(c, seed) != partitioned(c, seed + 1)));
    }

    #[test]
    fn jitter_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = JitterRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = JitterRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = JitterRng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed, same sequence");
        assert_ne!(a, c, "different seed diverges");
        let mut r = JitterRng::new(0);
        assert_ne!(r.next_u64(), 0, "zero seed is remapped");
    }

    #[test]
    fn full_jitter_stays_inside_the_capped_window() {
        let mut rng = JitterRng::new(1);
        for attempt in 0..20 {
            let d = full_jitter_delay(0.1, 2.0, attempt, &mut rng);
            let ceiling = (0.1 * f64::powi(2.0, attempt as i32)).min(2.0);
            assert!(d >= 0.0, "attempt {attempt}: negative delay {d}");
            assert!(
                d < ceiling + 1e-12,
                "attempt {attempt}: delay {d} exceeds ceiling {ceiling}"
            );
        }
        // the cap binds for large attempts
        let mut rng = JitterRng::new(2);
        let late: Vec<f64> = (10..30)
            .map(|a| full_jitter_delay(0.1, 2.0, a, &mut rng))
            .collect();
        assert!(late.iter().all(|&d| d < 2.0));
        // and the schedule actually spreads (not all equal)
        assert!(late.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }
}
