//! Trace exporters: Chrome `trace_event` JSON and flat metrics JSON.
//!
//! Both are hand-rolled (the workspace is dependency-free); the subset of
//! JSON emitted is small and fully escaped.

use crate::{Clock, EventKind, Snapshot};

/// `pid` used for wall-clock events in the Chrome export.
pub const PID_WALL: u32 = 0;
/// `pid` used for virtual-time (simulator) events in the Chrome export.
pub const PID_VIRTUAL: u32 = 1;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn args_json(args: &[(&'static str, u64)]) -> String {
    let parts: Vec<String> = args
        .iter()
        .filter(|(k, _)| !k.is_empty())
        .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Export a snapshot as a Chrome `trace_event` JSON array, loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Wall-clock events appear under process [`PID_WALL`], the simulator's
/// virtual timeline under process [`PID_VIRTUAL`]; counters are emitted as
/// a final `"C"` sample each so totals show up in the counter track.
pub fn chrome_json(snap: &Snapshot) -> String {
    let mut rows: Vec<String> = Vec::with_capacity(snap.events.len() + 8);
    for (pid, name) in [
        (PID_WALL, "nowrender (wall clock)"),
        (PID_VIRTUAL, "cluster sim (virtual time)"),
    ] {
        rows.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }
    let mut max_ts = 0u64;
    for e in &snap.events {
        let pid = match e.clock {
            Clock::Wall => PID_WALL,
            Clock::Virtual => PID_VIRTUAL,
        };
        let args = args_json(&e.args);
        let row = match e.kind {
            EventKind::Span { dur_us } => {
                max_ts = max_ts.max(e.ts_us + dur_us);
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{},\"args\":{args}}}",
                    esc(e.name),
                    e.ts_us,
                    dur_us,
                    e.track
                )
            }
            EventKind::Instant => {
                max_ts = max_ts.max(e.ts_us);
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{},\"args\":{args}}}",
                    esc(e.name),
                    e.ts_us,
                    e.track
                )
            }
        };
        rows.push(row);
    }
    for (name, c) in &snap.counters {
        rows.push(format!(
            "{{\"name\":\"{0}\",\"ph\":\"C\",\"ts\":{1},\"pid\":{PID_WALL},\"tid\":0,\
             \"args\":{{\"{0}\":{2}}}}}",
            esc(name),
            max_ts,
            c.value
        ));
    }
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Export counters and histograms as a flat metrics JSON object.
pub fn metrics_json(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"events\":{},\"dropped\":{},",
        snap.events.len(),
        snap.dropped
    ));
    out.push_str("\"counters\":{");
    let ctrs: Vec<String> = snap
        .counters
        .iter()
        .map(|(name, c)| {
            format!(
                "\"{}\":{{\"value\":{},\"det\":{}}}",
                esc(name),
                c.value,
                c.det
            )
        })
        .collect();
    out.push_str(&ctrs.join(","));
    out.push_str("},\"histograms\":{");
    let hists: Vec<String> = snap
        .hists
        .iter()
        .map(|(name, h)| {
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\
                 \"det\":{},\"buckets\":[{}]}}",
                esc(name),
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.det,
                buckets.join(",")
            )
        })
        .collect();
    out.push_str(&hists.join(","));
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> Snapshot {
        let r = Recorder::new();
        r.set_enabled(true);
        r.instant(0, "mark\"q", &[("frame", 1)], true);
        r.span_at(Clock::Virtual, 2, "compute", 100, 50, &[("unit", 7)], true);
        r.counter_add("rays", 123);
        r.observe("steps", 3);
        r.snapshot()
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let json = chrome_json(&sample());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        // escaped quote in the event name
        assert!(json.contains("mark\\\"q"));
        // the virtual-time span lands in the sim process with a duration
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains(&format!("\"pid\":{PID_VIRTUAL}")));
        assert!(json.contains("\"dur\":50"));
        // counter sample present
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"rays\":123"));
        // balanced braces/brackets (cheap structural sanity check)
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn metrics_export_carries_counters_and_histograms() {
        let m = metrics_json(&sample());
        assert!(m.contains("\"rays\":{\"value\":123,\"det\":true}"));
        assert!(m.contains("\"steps\":{\"count\":1,\"sum\":3,\"max\":3"));
        assert!(m.contains("\"mean\":3.000"));
        assert!(m.starts_with('{') && m.ends_with('}'));
    }
}
