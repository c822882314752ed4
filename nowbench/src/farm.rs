//! Farm workloads: one animation through `FarmMaster`/`FarmWorker` over
//! loopback TCP, journaled, every frame checked against the golden hashes.
//!
//! One process plays the whole farm: the master runs on the calling
//! thread, each worker on a thread of its own (1 pool thread per worker).
//! Every repetition is a complete run — new master, new workers, new run
//! directory.

use crate::host;
use crate::json::Json;
use crate::metrics::{summary, Measured, Values};
use crate::stats::median;
use crate::workload::Scene;
use now_anim::Animation;
use now_cluster::{ConnectConfig, RunReport};
use now_core::{
    bind_tcp_master, run_tcp_master_with, serve_tcp_worker, FarmConfig, JournalSpec, TcpFarmConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fewest timed repetitions, however long one takes.
pub const MIN_REPS: usize = 3;
/// A repetition during which the hypervisor took more than this share of
/// the host's CPU time away (`steal` in `/proc/stat`) measured a noisy
/// neighbour, not the program: it is checked and counted, but not timed.
pub const STEAL_LIMIT: f64 = 0.02;
/// How far past `--seconds` a run may go looking for undisturbed
/// repetitions before it settles for the disturbed ones.
pub const OVERRUN: f64 = 1.25;

/// Parse a `golden/*.hashes` file: one 16-digit hex fingerprint per line,
/// `#` comments allowed.
pub fn parse_hashes(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u64::from_str_radix(l, 16).map_err(|_| format!("bad golden hash `{l}`")))
        .collect()
}

/// Everything a repetition needs, built before the clock starts.
pub struct FarmInputs {
    pub scene: Scene,
    pub anim: Animation,
    pub cfg: FarmConfig,
    pub golden: Vec<u64>,
}

impl FarmInputs {
    pub fn build(scene: Scene, coherence: bool) -> Result<FarmInputs, String> {
        let anim = scene.animation();
        let mut cfg = FarmConfig::paper_default();
        cfg.coherence = coherence;
        let golden = parse_hashes(scene.golden_text())?;
        if golden.len() != anim.frames {
            return Err(format!(
                "golden/{}.hashes holds {} frames, the workload renders {} \
                 (regenerate with `nowbench golden`)",
                scene.name(),
                golden.len(),
                anim.frames
            ));
        }
        Ok(FarmInputs {
            scene,
            anim,
            cfg,
            golden,
        })
    }

    pub fn frames(&self) -> usize {
        self.anim.frames
    }
}

/// One complete farm run.
pub struct Rep {
    /// `run_tcp_master_with` call → return: all frames durable, journal
    /// closed.
    pub makespan_s: f64,
    /// The same call → `frame_0000.tga` durable in the run directory.
    pub first_frame_s: f64,
    /// Process CPU seconds the repetition used.
    pub cpu_s: f64,
    /// Share of the host's CPU time over the repetition that the
    /// hypervisor gave to someone else.
    pub steal_share: f64,
    /// Frames whose hash differs from the golden one or whose file is
    /// missing on disk.
    pub failed: u64,
    pub units: u64,
    pub report: RunReport,
}

fn frame_file(dir: &Path, frame: usize) -> std::path::PathBuf {
    dir.join(format!("frame_{frame:04}.tga"))
}

/// Run the farm once into the fresh directory `dir` and check its output.
pub fn run_rep(inp: &FarmInputs, workers: usize, dir: &Path) -> Result<Rep, String> {
    let listener = bind_tcp_master("127.0.0.1:0")?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("master address: {e}"))?
        .to_string();
    let tcp = TcpFarmConfig::new(workers);
    let journal = JournalSpec::new(dir);
    let first = frame_file(dir, 0);
    let done = AtomicBool::new(false);
    let cpu0 = host::cpu_seconds();
    let steal0 = host::steal_seconds();

    let (result, makespan, first_frame) = std::thread::scope(|s| {
        let serving: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| serve_tcp_worker(&inp.anim, &inp.cfg, &addr, &ConnectConfig::default()))
            })
            .collect();
        let t0 = Instant::now();
        // the master offers no "first frame" hook to a caller, so watch
        // the run directory for the atomic rename that makes frame 0
        // durable (one stat every 2 ms, gone once it has appeared)
        let (first, done) = (&first, &done);
        let watcher = s.spawn(move || loop {
            if first.exists() {
                return Some(t0.elapsed());
            }
            if done.load(Ordering::SeqCst) {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        });
        let result = run_tcp_master_with(listener, &inp.anim, &inp.cfg, &tcp, Some(&journal));
        let makespan = t0.elapsed();
        done.store(true, Ordering::SeqCst);
        let first_frame = watcher.join().expect("watcher thread");
        for w in serving {
            // a worker outliving a failed master only reports the broken
            // connection; the master's own error is the one that matters
            let _ = w.join().expect("worker thread");
        }
        (result, makespan, first_frame)
    });
    let result = result?;
    let cpu_s = host::cpu_seconds() - cpu0;
    let steal_s = host::steal_seconds() - steal0;

    let failed = (0..inp.frames())
        .filter(|&f| {
            result.frame_hashes.get(f) != Some(&inp.golden[f]) || !frame_file(dir, f).is_file()
        })
        .count() as u64;
    Ok(Rep {
        makespan_s: makespan.as_secs_f64(),
        // a run that never made frame 0 durable has already failed above
        first_frame_s: first_frame.unwrap_or(makespan).as_secs_f64(),
        cpu_s,
        steal_share: steal_s / (makespan.as_secs_f64() * host::cores() as f64),
        failed,
        units: result.units_done,
        report: result.report,
    })
}

/// [`run_rep`] in a run directory of its own, removed afterwards.
pub fn run_rep_fresh(inp: &FarmInputs, workers: usize, label: &str) -> Result<Rep, String> {
    let dir = host::fresh_run_dir(label)?;
    let rep = run_rep(inp, workers, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// Layer metrics the program counts itself, as medians over the
/// repetitions' `RunReport`s.
pub fn report_layer(reports: &[&RunReport]) -> Values {
    let med =
        |f: &dyn Fn(&RunReport) -> f64| median(&reports.iter().map(|r| f(r)).collect::<Vec<f64>>());
    let mut layer = Values::new();
    layer.insert(
        "cluster.master_busy_share",
        med(&|r| r.master_busy_s / r.makespan_s.max(1e-9)),
    );
    layer.insert(
        "cluster.worker_util_min",
        med(&|r| {
            (0..r.machines.len())
                .map(|m| r.utilisation(m))
                .fold(f64::INFINITY, f64::min)
        }),
    );
    layer.insert("cluster.messages", med(&|r| r.messages as f64));
    layer.insert(
        "cluster.units_reassigned",
        med(&|r| r.units_reassigned as f64),
    );
    layer.insert(
        "cluster.results_rejected",
        med(&|r| r.results_rejected as f64),
    );
    layer.insert("cluster.backup_leases", med(&|r| r.backup_leases as f64));
    layer
}

/// Measure one farm workload: one set-up (inputs, golden hashes, run
/// directory and one untimed warm-up repetition — full length, so work a
/// later change moves out of the timed repetitions shows up here), then
/// complete timed repetitions until `seconds` have passed (never fewer
/// than [`MIN_REPS`]).
pub fn measure(
    name: &str,
    scene: Scene,
    coherence: bool,
    workers: usize,
    seconds: f64,
) -> Result<Measured, String> {
    let t = Instant::now();
    let inp = FarmInputs::build(scene, coherence)?;
    let warm = run_rep_fresh(&inp, workers, name)?;
    let setup_s = t.elapsed().as_secs_f64();
    let frames = inp.frames() as f64;
    let mut attempted = inp.frames() as u64;
    let mut failed = warm.failed;

    let mut reps = Vec::new();
    let mut disturbed = Vec::new();
    let started = Instant::now();
    loop {
        let rep = run_rep_fresh(&inp, workers, name)?;
        attempted += inp.frames() as u64;
        failed += rep.failed;
        if rep.steal_share > STEAL_LIMIT {
            disturbed.push(rep);
        } else {
            reps.push(rep);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if (reps.len() >= MIN_REPS && elapsed >= seconds) || elapsed >= seconds * OVERRUN {
            break;
        }
    }
    let discarded = if reps.len() < MIN_REPS {
        // the host never went quiet: disturbed samples beat no samples
        reps.append(&mut disturbed);
        0
    } else {
        disturbed.len()
    };

    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let makespans = col(&|r| r.makespan_s);
    let first_ms = col(&|r| r.first_frame_s * 1e3);
    let bytes = col(&|r| r.report.bytes as f64);
    let cpu_per_frame = col(&|r| r.cpu_s / frames);
    let makespan = median(&makespans);

    let mut values = Values::new();
    values.insert("setup_s", setup_s);
    values.insert("frames_per_s", frames / makespan);
    values.insert("cpu_s_per_frame", median(&cpu_per_frame));
    values.insert("wire_bytes_per_frame", median(&bytes) / frames);
    values.insert("peak_rss_mb", host::peak_rss_mb());
    values.insert("first_frame_ms_p50", median(&first_ms));
    values.insert("job_done_ms_p50", makespan * 1e3);

    let retried: u64 = reps
        .iter()
        .map(|r| r.report.units_reassigned + r.report.results_rejected)
        .sum();
    let detail = Json::obj([
        ("kind", Json::str("farm")),
        ("scene", Json::str(inp.scene.spec())),
        ("workers", Json::Num(workers as f64)),
        ("coherence", Json::Bool(coherence)),
        ("frames", Json::Num(frames)),
        ("repetitions", Json::Num(reps.len() as f64)),
        (
            "disturbed_repetitions_discarded",
            Json::Num(discarded as f64),
        ),
        ("cpu_s_per_frame", summary(&cpu_per_frame)),
        ("makespan_s", summary(&makespans)),
        ("first_frame_ms", summary(&first_ms)),
        ("wire_bytes", summary(&bytes)),
        (
            "units_attempted",
            Json::Num(reps.iter().map(|r| r.units).sum::<u64>() as f64),
        ),
        ("units_reassigned_or_rejected", Json::Num(retried as f64)),
    ]);
    Ok(Measured {
        values,
        attempted,
        failed,
        detail,
    })
}
