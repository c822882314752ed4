//! `nowbench compare A.json B.json`: is B worse than A?
//!
//! For every workload × end-to-end metric the two result files share,
//! print both medians, how much worse B is as a share of A's median, the
//! metric's bound, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — not regressed, but the run-to-run spread of A or B
//!   (quartile distance over median) is wider than the bound, so "no
//!   change" cannot be told from a regression — unless every run of B
//!   reads better than every run of A;
//! * `ok` — otherwise.
//!
//! Exits non-zero on any `regressed` row or any failed operation.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Judge one metric of one workload from the per-run values of both sides.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if worse_by(metric, median(a), median(b)) > metric.bound {
        return Verdict::Regressed;
    }
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worse_by(metric, x, y) < 0.0));
    if quartile_spread(a).max(quartile_spread(b)) > metric.bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: nowbench compare A.json B.json".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{a_path}: no workloads"))?;

    let mut counts = [0usize; 3];
    let mut failed_ops = 0.0;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread A", "spread B"
    );
    for name in workloads.keys() {
        for doc in [&a, &b] {
            failed_ops += doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) =
                (values(&a, name, metric.name), values(&b, name, metric.name))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            counts[verdict as usize] += 1;
            println!(
                "{:<14} {:<22} {:>14.6} {:>14.6} {:>+9.4} {:>6.2} {:>8.4} {:>8.4}  {}",
                name,
                metric.name,
                median(&va),
                median(&vb),
                worse_by(metric, median(&va), median(&vb)),
                metric.bound,
                quartile_spread(&va),
                quartile_spread(&vb),
                verdict.name()
            );
        }
    }
    println!(
        "{} ok, {} regressed, {} unresolved, {failed_ops} failed operations",
        counts[Verdict::Ok as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Regressed as usize] == 0 && failed_ops == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FPS: EndToEnd = EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const DONE_MS: EndToEnd = EndToEnd {
        name: "job_done_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(&FPS, 20.0, 18.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(&DONE_MS, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!(worse_by(&FPS, 20.0, 22.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        let steady = [20.0, 20.1, 19.9, 20.05, 19.95];
        assert_eq!(
            judge(&FPS, &steady, &[19.5, 19.6, 19.4, 19.55, 19.45]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&FPS, &steady, &[17.0, 17.1, 16.9, 17.05, 16.95]),
            Verdict::Regressed
        );
        // a spread wider than the bound hides anything smaller than itself
        let noisy = [20.0, 24.0, 16.0, 23.0, 17.0];
        assert_eq!(judge(&FPS, &steady, &noisy), Verdict::Unresolved);
        // ... unless every run of B beats every run of A
        let faster = [30.0, 36.0, 25.0, 34.0, 26.0];
        assert_eq!(judge(&FPS, &steady, &faster), Verdict::Ok);
    }
}
