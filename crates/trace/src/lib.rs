//! # now-trace — lock-cheap structured tracing and metrics
//!
//! A std-only observability layer for the nowrender system: a fixed-capacity
//! ring-buffer event recorder plus monotonic counters and fixed-bucket
//! histograms, with two exporters (Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto, and a flat metrics JSON merged into the
//! bench artifacts).
//!
//! Design rules:
//!
//! * **Zero-cost when disabled.** Every recording entry point first does a
//!   single relaxed atomic load and returns immediately if tracing is off.
//!   No allocation, no lock, no timestamp read.
//! * **Lock-cheap when enabled.** The hot per-ray paths feed *counters* and
//!   *histograms*, which are aggregated at frame/tile granularity by the
//!   callers; discrete [`Event`]s (spans, instants) are rare — per tile, per
//!   frame, per scheduler action — so the single `Mutex` guarding the ring
//!   buffer is essentially uncontended.
//! * **Determinism is explicit.** Every event, counter and histogram carries
//!   a `det` flag. Deterministic entries are those whose *multiset of
//!   payloads* does not depend on wall-clock time, thread scheduling or the
//!   tile-pool thread count. Only those appear in [`Snapshot::normalized`],
//!   which is the contract the golden-trace harness checks byte-for-byte
//!   across runs and across `NOW_THREADS` values.
//!
//! The recorder is a process-wide singleton ([`global`]) so instrumentation
//! points deep in the renderer do not need plumbing; tests serialize access
//! with [`capture`].

#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod export;

/// Maximum key/value argument pairs carried by one [`Event`].
pub const MAX_ARGS: usize = 4;

/// Number of buckets in a [`Histogram`]: bucket 0 counts zeros, bucket
/// `i` (1..) counts values in `[2^(i-1), 2^i)`, and the last bucket
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 17;

/// Ring-buffer capacity of a recorder, in events.
pub const CAPACITY: usize = 1 << 16;

/// Which clock an event's timestamp belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Microseconds of wall time since the recorder's epoch.
    Wall,
    /// Virtual microseconds from the deterministic cluster simulator.
    Virtual,
}

/// What an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span lasting `dur_us` microseconds from `ts_us`.
    Span {
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker.
    Instant,
}

/// One recorded trace event. Fixed-size and `Copy` so pushing into the
/// ring buffer never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Timestamp in microseconds on `clock`.
    pub ts_us: u64,
    /// Which clock `ts_us` (and any span duration) is measured on.
    pub clock: Clock,
    /// Logical track, rendered as the `tid` in Chrome traces. Convention:
    /// 0 = the driving thread, `100 + i` = tile-pool worker `i`, and the
    /// simulator uses one track per machine (on the virtual clock).
    pub track: u32,
    /// Span or instant.
    pub kind: EventKind,
    /// Static event name (dot-separated, e.g. `"coh.frame"`).
    pub name: &'static str,
    /// Up to [`MAX_ARGS`] key/value pairs; unused slots hold `("", 0)`.
    pub args: [(&'static str, u64); MAX_ARGS],
    /// Whether this event may appear in the normalized (golden) stream.
    pub det: bool,
}

const NO_ARGS: [(&str, u64); MAX_ARGS] = [("", 0); MAX_ARGS];

fn pack_args(args: &[(&'static str, u64)]) -> [(&'static str, u64); MAX_ARGS] {
    let mut out = NO_ARGS;
    for (slot, a) in out.iter_mut().zip(args.iter()) {
        *slot = *a;
    }
    out
}

/// A monotonic counter's recorded state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Accumulated value (adds only — counters are monotonic).
    pub value: u64,
    /// Whether the final value is deterministic (thread-count invariant).
    pub det: bool,
}

/// A fixed-bucket power-of-two histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts; see [`HIST_BUCKETS`] for the bucket boundaries.
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Whether the observation multiset is deterministic.
    pub det: bool,
}

impl Histogram {
    fn new(det: bool) -> Histogram {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            det,
        }
    }

    /// Bucket index a value falls into.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    fn observe(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

struct Inner {
    epoch: Option<Instant>,
    events: VecDeque<Event>,
    dropped: u64,
    counters: BTreeMap<&'static str, Counter>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Inner {
    const fn new() -> Inner {
        Inner {
            epoch: None,
            events: VecDeque::new(),
            dropped: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn now_us(&mut self) -> u64 {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        epoch.elapsed().as_micros() as u64
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() >= CAPACITY {
            // flight-recorder semantics: drop the oldest event
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// The event recorder. Usually accessed through [`global`]; independent
/// instances are handy in unit tests.
pub struct Recorder {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A disabled recorder holding up to [`CAPACITY`] events.
    pub const fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // a panicked instrumentation point must not poison tracing forever
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Is the recorder currently recording? A single relaxed load — this is
    /// the whole cost of every instrumentation point while tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Enabling fixes the wall-clock epoch if it
    /// is not set yet.
    pub fn set_enabled(&self, on: bool) {
        if on {
            let mut inner = self.lock();
            inner.epoch.get_or_insert_with(Instant::now);
        }
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Drop all recorded data and restart the wall-clock epoch.
    pub fn clear(&self) {
        let mut inner = self.lock();
        *inner = Inner::new();
        inner.epoch = Some(Instant::now());
    }

    /// Record a point event on the wall clock.
    pub fn instant(&self, track: u32, name: &'static str, args: &[(&'static str, u64)], det: bool) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        let ts_us = inner.now_us();
        inner.push(Event {
            ts_us,
            clock: Clock::Wall,
            track,
            kind: EventKind::Instant,
            name,
            args: pack_args(args),
            det,
        });
    }

    /// Record a completed span with explicit timestamps, e.g. replayed from
    /// the deterministic simulator's virtual timeline.
    #[allow(clippy::too_many_arguments)]
    pub fn span_at(
        &self,
        clock: Clock,
        track: u32,
        name: &'static str,
        start_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
        det: bool,
    ) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.push(Event {
            ts_us: start_us,
            clock,
            track,
            kind: EventKind::Span { dur_us },
            name,
            args: pack_args(args),
            det,
        });
    }

    /// Open a scoped wall-clock span; the span event is pushed when the
    /// returned guard drops. Spans are never part of the normalized stream
    /// (their durations are wall time), only of the Chrome export.
    pub fn span(&self, track: u32, name: &'static str) -> SpanGuard<'_> {
        let start = if self.enabled() {
            Some(Instant::now())
        } else {
            None
        };
        SpanGuard {
            rec: self,
            track,
            name,
            start,
            args: NO_ARGS,
            n_args: 0,
        }
    }

    /// Add to a deterministic monotonic counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        self.counter_impl(name, delta, true);
    }

    /// Add to a counter whose value depends on scheduling (e.g. the tile
    /// pool's tile count); excluded from the normalized stream.
    pub fn counter_add_nd(&self, name: &'static str, delta: u64) {
        self.counter_impl(name, delta, false);
    }

    fn counter_impl(&self, name: &'static str, delta: u64, det: bool) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        let c = inner
            .counters
            .entry(name)
            .or_insert(Counter { value: 0, det });
        c.value += delta;
        c.det &= det;
    }

    /// Observe a value in a deterministic fixed-bucket histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.observe_impl(name, value, true);
    }

    /// Observe a value in a scheduling-dependent histogram (excluded from
    /// the normalized stream).
    pub fn observe_nd(&self, name: &'static str, value: u64) {
        self.observe_impl(name, value, false);
    }

    fn observe_impl(&self, name: &'static str, value: u64, det: bool) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.lock();
        let h = inner
            .hists
            .entry(name)
            .or_insert_with(|| Histogram::new(det));
        h.det &= det;
        h.observe(value);
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            events: inner.events.iter().copied().collect(),
            dropped: inner.dropped,
            counters: inner.counters.clone(),
            hists: inner.hists.clone(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Scoped span handle returned by [`Recorder::span`]; records the span when
/// dropped. Use [`SpanGuard::arg`] to attach key/value pairs.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    track: u32,
    name: &'static str,
    start: Option<Instant>,
    args: [(&'static str, u64); MAX_ARGS],
    n_args: usize,
}

impl SpanGuard<'_> {
    /// Attach an argument to the span (up to [`MAX_ARGS`]; extras ignored).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.n_args < MAX_ARGS {
            self.args[self.n_args] = (key, value);
            self.n_args += 1;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        if !self.rec.enabled() {
            return;
        }
        let mut inner = self.rec.lock();
        let epoch = *inner.epoch.get_or_insert(start);
        let ts_us = start.duration_since(epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        inner.push(Event {
            ts_us,
            clock: Clock::Wall,
            track: self.track,
            kind: EventKind::Span { dur_us },
            name: self.name,
            args: self.args,
            det: false,
        });
    }
}

/// An immutable copy of a recorder's state, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Recorded events, oldest first (up to the ring capacity).
    pub events: Vec<Event>,
    /// Events discarded because the ring buffer was full.
    pub dropped: u64,
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, Counter>,
    /// Histograms by name.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// The deterministic, normalized view of the trace: `det` events with
    /// timestamps stripped and lines sorted (so virtual-time emission order,
    /// which legitimately shifts with the pool thread count, cannot affect
    /// the bytes), followed by deterministic counters and histograms.
    ///
    /// Two runs of the same scene — including runs with different
    /// `NOW_THREADS` values — must produce byte-identical normalized
    /// strings; the golden-trace harness enforces exactly that.
    pub fn normalized(&self) -> String {
        let mut lines: Vec<String> = self
            .events
            .iter()
            .filter(|e| e.det)
            .map(|e| {
                let mut line = format!("ev {} track={}", e.name, e.track);
                for (k, v) in e.args.iter().filter(|(k, _)| !k.is_empty()) {
                    line.push_str(&format!(" {k}={v}"));
                }
                line
            })
            .collect();
        lines.sort();
        let mut out = String::from("# now-trace normalized v1\n");
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        for (name, c) in self.counters.iter().filter(|(_, c)| c.det) {
            out.push_str(&format!("ctr {name} {}\n", c.value));
        }
        for (name, h) in self.hists.iter().filter(|(_, h)| h.det) {
            out.push_str(&format!(
                "hist {name} n={} sum={} max={}",
                h.count, h.sum, h.max
            ));
            for (i, b) in h.buckets.iter().enumerate().filter(|(_, b)| **b > 0) {
                out.push_str(&format!(" b{i}={b}"));
            }
            out.push('\n');
        }
        out
    }
}

static GLOBAL: Recorder = Recorder::new();

/// The process-wide recorder all built-in instrumentation points use.
pub fn global() -> &'static Recorder {
    &GLOBAL
}

/// Is the global recorder recording? The one-load fast path for
/// instrumentation points.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.enabled()
}

/// Run `f` with the global recorder cleared and enabled, then disable it
/// and return `f`'s result alongside the snapshot. Concurrent captures are
/// serialized on an internal mutex so parallel tests cannot interleave
/// their events.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    static GATE: Mutex<()> = Mutex::new(());
    let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
    GLOBAL.clear();
    GLOBAL.set_enabled(true);
    let out = f();
    GLOBAL.set_enabled(false);
    let snap = GLOBAL.snapshot();
    (out, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        r.instant(0, "x", &[("a", 1)], true);
        r.counter_add("c", 5);
        r.observe("h", 9);
        drop(r.span(0, "s"));
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.counter_add("rays", 10);
        r.counter_add("rays", 5);
        r.observe("steps", 0);
        r.observe("steps", 1);
        r.observe("steps", 7);
        r.observe("steps", 1 << 20);
        let snap = r.snapshot();
        assert_eq!(snap.counters["rays"].value, 15);
        let h = &snap.hists["steps"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 8 + (1 << 20));
        assert_eq!(h.max, 1 << 20);
        assert_eq!(h.buckets[0], 1); // zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[3], 1); // 4..8
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1); // overflow bucket
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let r = Recorder::new();
        r.set_enabled(true);
        let n = CAPACITY as u64 + 6;
        for i in 0..n {
            r.instant(0, "e", &[("i", i)], true);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), CAPACITY);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.events[0].args[0], ("i", 6));
        assert_eq!(snap.events[CAPACITY - 1].args[0], ("i", n - 1));
    }

    #[test]
    fn normalized_excludes_nondeterministic_data_and_sorts() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.instant(0, "b.second", &[("k", 2)], true);
        r.instant(7, "a.first", &[("k", 1)], true);
        r.instant(0, "steal", &[("thief", 3)], false);
        r.counter_add("det_ctr", 1);
        r.counter_add_nd("nd_ctr", 1);
        r.observe("det_hist", 2);
        r.observe_nd("nd_hist", 2);
        let norm = r.snapshot().normalized();
        assert!(norm.contains("ev a.first track=7 k=1\n"));
        assert!(norm.contains("ev b.second track=0 k=2\n"));
        assert!(norm.find("a.first").unwrap() < norm.find("b.second").unwrap());
        assert!(!norm.contains("steal"));
        assert!(norm.contains("ctr det_ctr 1"));
        assert!(!norm.contains("nd_ctr"));
        assert!(norm.contains("hist det_hist"));
        assert!(!norm.contains("nd_hist"));
        // no timestamps anywhere in the normalized form
        assert!(!norm.contains("ts"));
    }

    #[test]
    fn mixed_det_flag_taints_counter() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.counter_add("c", 1);
        r.counter_add_nd("c", 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"].value, 2);
        assert!(!snap.counters["c"].det);
        assert!(!snap.normalized().contains("ctr c "));
    }

    #[test]
    fn span_guard_records_span_with_args() {
        let r = Recorder::new();
        r.set_enabled(true);
        {
            let mut s = r.span(3, "work");
            s.arg("frame", 9);
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 1);
        let e = &snap.events[0];
        assert_eq!(e.name, "work");
        assert_eq!(e.track, 3);
        assert_eq!(e.args[0], ("frame", 9));
        assert!(matches!(e.kind, EventKind::Span { .. }));
        assert!(!e.det);
    }

    #[test]
    fn capture_serializes_and_isolates() {
        let (value, snap) = capture(|| {
            global().counter_add("cap_test_ctr", 3);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(snap.counters["cap_test_ctr"].value, 3);
        assert!(!enabled());
        // a second capture starts from a clean slate
        let (_, snap2) = capture(|| ());
        assert!(!snap2.counters.contains_key("cap_test_ctr"));
    }

    #[test]
    fn normalized_is_stable_across_emission_order() {
        let mk = |swap: bool| {
            let r = Recorder::new();
            r.set_enabled(true);
            let (a, b) = (("x", &[("i", 1u64)][..]), ("y", &[("i", 2u64)][..]));
            let (first, second) = if swap { (b, a) } else { (a, b) };
            r.instant(0, first.0, first.1, true);
            r.instant(0, second.0, second.1, true);
            r.snapshot().normalized()
        };
        assert_eq!(mk(false), mk(true));
    }
}
