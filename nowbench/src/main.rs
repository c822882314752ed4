//! `nowbench` — wall-clock farm + service benchmark for nowrender, with a
//! per-layer ladder. See `nowbench/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! nowbench --workload W --seed N --seconds S --trace 0|1
//!     one workload, one process; the last stdout line is the result
//!     object BENCHMARK.json's contract asks for
//! nowbench run   [--seed N] [--seconds S] [--runs R] [--workload W] [--out FILE]
//! nowbench trace [--seed N] [--workload W] [--out FILE]
//!     every workload (or one), each in a process of its own; prints the
//!     metrics by name and unit and writes a result file
//! nowbench compare A.json B.json
//!     check two result files against the bounds
//! nowbench golden
//!     re-render the checked-in golden hashes (1-worker thread backend)
//! nowbench manifest
//!     print BENCHMARK.json from the workload table and metric catalogue
//! ```
//!
//! Everything is measured from outside, by timing calls into the public
//! functions of `crates/*`; nothing inside the program is edited or
//! switched.

mod compare;
mod farm;
mod host;
mod json;
mod metrics;
mod service;
mod stats;
mod trace;
mod workload;

use json::Json;
use metrics::{Measured, Values, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{Kind, Workload, WORKLOADS};

/// Default measuring time of one run, the `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 12.0;
/// Default seed of the `service-mix` job list.
const DEFAULT_SEED: u64 = 7;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad {name} value `{v}`")),
        None => Ok(default),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], false),
        Some("trace") => run_all(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        Some("golden") => golden().map(|()| true),
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS as u64));
            Ok(true)
        }
        Some(a) if a.starts_with("--") => one_workload(&args),
        _ => Err("usage: nowbench run|trace|compare|golden|manifest, or \
             nowbench --workload W --seed N --seconds S --trace 0|1"
            .to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nowbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn measure(w: &Workload, seed: u64, seconds: f64) -> Result<Measured, String> {
    match w.kind {
        Kind::Farm {
            scene,
            coherence,
            workers,
        } => farm::measure(w.name, scene, coherence, workers, seconds),
        Kind::Service => service::measure(seed, seconds, service::SETUPS).map(|(m, _)| m),
    }
}

/// Print `values` one per line: name, value with every digit, unit.
fn print_values(names: impl Iterator<Item = &'static str>, values: &Values) {
    for name in names {
        println!(
            "  {name:<40} {:<22} {}",
            values[name],
            metrics::unit_of(name)
        );
    }
}

/// The contract mode: run one workload in this process and print the
/// result object as the last line of stdout. Exit code 0 even when frames
/// were wrong — `correct`/`failed` carry that — unless the run itself
/// could not finish.
fn one_workload(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload").ok_or("need --workload NAME")?;
    let w = workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", known.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace value `{other}` (0 or 1)")),
    };

    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        w.name, traced as u8
    );
    let (metrics_json, attempted, failed, detail) = if traced {
        let t = trace::run(w, seed)?;
        print_values(PER_LAYER.iter().map(|m| m.name), &t.values);
        let names = PER_LAYER.iter().map(|m| m.name);
        (
            metrics::to_json(names, &t.values),
            t.attempted,
            t.failed,
            t.detail,
        )
    } else {
        let m = measure(w, seed, seconds)?;
        print_values(END_TO_END.iter().map(|m| m.name), &m.values);
        let names = END_TO_END.iter().map(|m| m.name);
        (
            metrics::to_json(names, &m.values),
            m.attempted,
            m.failed,
            m.detail,
        )
    };
    println!("detail {}", detail.to_line());
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json),
    ]);
    println!("{}", line.to_line());
    Ok(true)
}

/// Run `--workload W --seed N ..` in a child process (so peak memory is
/// per workload) and return its `detail` and result objects.
fn child(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("workload {} failed ({})", w.name, out.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let result = Json::parse(result).map_err(|e| format!("{} result line: {e}", w.name))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .map(Json::parse)
        .transpose()
        .map_err(|e| format!("{} detail line: {e}", w.name))?
        .unwrap_or(Json::Null);
    Ok((detail, result))
}

/// `nowbench run` / `nowbench trace`: every selected workload, `--runs`
/// times with seeds `seed, seed+1, ..`, one child process each. Prints
/// every metric by name and unit with its sample count and extremes,
/// writes the result file, and reports failure on any wrong frame or job.
fn run_all(args: &[String], traced: bool) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    let runs = parsed(args, "--runs", 1usize)?.max(1);
    let selected: Vec<&Workload> = match flag(args, "--workload") {
        Some(name) => vec![workload::find(name).ok_or(format!("unknown workload `{name}`"))?],
        None => WORKLOADS.iter().collect(),
    };
    let default_out = host::scratch_root().join(if traced { "trace.json" } else { "results.json" });
    let out_path = flag(args, "--out").map_or(default_out, std::path::PathBuf::from);

    let mut all_correct = true;
    let mut workloads = BTreeMap::new();
    for w in selected {
        let mut per_metric: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut details = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in 0..runs {
            let (detail, result) = child(w, seed + r as u64, seconds, traced)?;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("no metrics")?;
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).ok_or("no value")?;
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                per_metric
                    .entry(name.clone())
                    .or_insert_with(|| (unit.to_string(), Vec::new()))
                    .1
                    .push(value);
            }
            details.push(detail);
        }
        all_correct &= failed == 0.0;
        println!(
            "{} — {} run(s), {attempted} operations checked, {failed} failed (failed_share {})",
            w.name,
            runs,
            if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            }
        );
        let mut metrics_json = BTreeMap::new();
        for (name, (unit, values)) in &per_metric {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "  {name:<40} {:<22} {unit:<6} n={} min={min} max={max} spread={:.4}",
                stats::median(values),
                values.len(),
                stats::quartile_spread(values),
            );
            metrics_json.insert(
                name.clone(),
                Json::obj([
                    ("unit", Json::str(unit.as_str())),
                    ("median", Json::Num(stats::median(values))),
                    ("spread", Json::Num(stats::quartile_spread(values))),
                    ("values", Json::nums(values)),
                ]),
            );
        }
        workloads.insert(
            w.name.to_string(),
            Json::obj([
                ("why", Json::str(w.why)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::Obj(metrics_json)),
                ("runs", Json::Arr(details)),
            ]),
        );
    }

    let doc = Json::obj([
        ("benchmark", Json::str("nowbench")),
        ("traced", Json::Bool(traced)),
        ("host_cores", Json::Num(host::cores() as f64)),
        ("git_commit", Json::str(host::git_commit())),
        (
            "run_dir",
            Json::str(host::scratch_root().join("runs").display().to_string()),
        ),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out_path, doc.to_pretty())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    println!("results written to {}", out_path.display());
    if !all_correct {
        eprintln!("nowbench: wrong frames or jobs — see failed counts above");
    }
    Ok(all_correct)
}

/// Re-render the golden hashes with the 1-worker thread backend and
/// rewrite `golden/*.hashes`.
fn golden() -> Result<(), String> {
    use now_core::{run_threads, FarmConfig};
    use workload::Scene;
    let dir = host::package_dir().join("golden");
    let hex = |hashes: &[u64]| {
        hashes
            .iter()
            .map(|h| format!("{h:016x}\n"))
            .collect::<String>()
    };
    for scene in [Scene::Newton, Scene::Glassball] {
        let result = run_threads(&scene.animation(), &FarmConfig::paper_default(), 1);
        let text = format!(
            "# {} — frame fingerprints, run_threads with 1 worker\n{}",
            scene.spec(),
            hex(&result.frame_hashes)
        );
        let path = dir.join(format!("{}.hashes", scene.name()));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{} frames -> {}", result.frame_hashes.len(), path.display());
    }
    let mut text = String::from("# service-mix — job hash per spec, run_threads with 1 worker\n");
    for (spec, _) in workload::SERVICE_SPECS {
        let anim = now_anim::scenes::from_spec(spec)?;
        let result = run_threads(&anim, &FarmConfig::paper_default(), 1);
        text.push_str(&format!(
            "{spec} {:016x}\n",
            trace::job_hash(&result.frame_hashes)
        ));
    }
    let path = dir.join("service.hashes");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{} specs -> {}",
        workload::SERVICE_SPECS.len(),
        path.display()
    );
    Ok(())
}
