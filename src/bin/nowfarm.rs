//! `nowfarm` — command-line front end for the nowrender system.
//!
//! `nowfarm` (or `nowfarm --help`) lists every subcommand with its flags,
//! printed from the `COMMANDS` table, where each flag's row carries its
//! one-line doc. A `--flag` the subcommand's row does not list is an error
//! (exit status 2) that lists the ones it does, so `nowfarm render --help`
//! shows `render`'s flags.
//!
//! `worker --service --connect ADDR` joins a service instead of a
//! single-job master: no scene argument — the worker learns each job's
//! scene from its first unit and caches per-job render state.
//!
//! `SCENE` is a scene file, or a spec `demo:NAME[:FRAMES[:WxH]]` naming a
//! built-in animation (newton | glassball | orbit; 10 frames at 160x120
//! by default) — `render demo:newton` needs no file, and `master`/`worker`
//! processes construct the identical scene from the same spec.
//!
//! `--chaos SPEC` (or the `NOW_CHAOS` environment variable; the flag wins)
//! is the one fault hook of `master` and `serve`: a seeded [`ChaosPlan`]
//! spec arming compute, network and disk faults at once, e.g.
//! `seed=11|compute=1:corrupt@0|net=0:drop@8000|disk=run.journal:enospc@6`
//! (sections split on `|`, clauses `WHO:KIND@ARGS` on `;` or `,`; the
//! grammar table is in DESIGN.md §8). Compute faults (`corrupt@N` per
//! connection) exercise the Byzantine defense: damaged results are
//! rejected by checksum, requeued, and the offending worker is
//! quarantined. Net faults (`drop@BYTES`, `stall@BYTES`, `delay@BYTES+S`,
//! `part@FROM-TO` per accepted connection, `*` or `~P`) gate the wire at
//! exact byte counts. Disk faults (`enospc@N`, `eio@N`, `torn@N` per path
//! substring) hit the journal and frame writes, which degrade gracefully.
//! It is a test and drill hook, not a product knob.
//!
//! [`ChaosPlan`]: nowrender::cluster::ChaosPlan
//!
//! Output bytes are identical for every backend (sim, threads, tcp) and
//! every worker count; the flags only change where the pixels are
//! computed. `render` is the serial single-workstation baseline, and
//! `farm --threads N` is how one machine uses N cores.

use nowrender::anim::scenes::from_spec;
use nowrender::anim::Animation;
use nowrender::cluster::{
    ChaosPlan, ConnectConfig, MachineSpec, RecoveryConfig, RunReport, SimCluster, TcpMaster,
};
use nowrender::core::farm::Canvas;
use nowrender::core::journal::{clear_frame_files, write_frame_file};
use nowrender::core::service::ServiceConfig;
use nowrender::core::{
    bind_tcp_master, render_sequence, run_service_master, run_sim_with, run_tcp_master_with,
    run_threads_with, serve_service_worker, serve_tcp_worker, CostModel, DirtyTest, FarmConfig,
    FarmResult, JobSpec, JobState, JournalSpec, PartitionScheme, SequenceMode, ServiceClient,
    ServiceMaster, SingleMachine, TcpFarmConfig,
};
use nowrender::raytrace::image_io::{self, WriteFault};
use nowrender::raytrace::RenderSettings;
use std::collections::BTreeMap;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};
use std::process::exit;

/// A subcommand's flags as `(flag, value, doc)`: `value` names the word
/// the flag takes ("" for a bare flag), `doc` is its line in the usage.
type Flags = &'static [(&'static str, &'static str, &'static str)];

/// A subcommand: its name, its arguments, what it does, the flags it
/// looks up, the function that runs it.
type Command = (
    &'static str,
    &'static str,
    &'static str,
    Flags,
    fn(&[String]) -> CliResult,
);

/// Every subcommand. `main` checks the command line against a command's
/// flags before running it, and prints the usage from here.
const COMMANDS: &[Command] = &[
    ("info", "SCENE", "inspect a scene", &[], cmd_info),
    (
        "render",
        "SCENE",
        "render on this machine to TGA",
        &[
            ("--out", "DIR", "output directory (default: out)"),
            ("--plain", "", "disable frame coherence"),
            ("--block", "N", "Jevans block coherence with NxN blocks"),
        ],
        cmd_render,
    ),
    (
        "farm",
        "SCENE",
        "render on a cluster",
        &[
            ("--out", "DIR", "frames + run.journal (default: out)"),
            ("--threads", "N", "real thread backend with N workers"),
            (
                "--machines",
                "SPEC",
                "simulated cluster, e.g. 2.0x64,1.0x32",
            ),
            ("--scheme", "S", "seq | frame (default: frame)"),
            ("--plain", "", "disable frame coherence"),
            ("--trace", "FILE", "Chrome trace_event JSON of the run"),
            (
                "--hashes",
                "FILE",
                "per-frame FNV fingerprints, one hex per line",
            ),
            ("--resume", "", "resume the interrupted run in --out DIR"),
        ],
        cmd_farm,
    ),
    (
        "master",
        "SCENE",
        "TCP master for a multi-process farm",
        &[
            ("--listen", "ADDR", "listen address (default 127.0.0.1:0)"),
            (
                "--workers",
                "N",
                "worker quorum; more may join mid-run (default 2)",
            ),
            ("--lease", "S", "lease recovery with an S-second base lease"),
            ("--heartbeat-s", "S", "ping cadence (default 0.25)"),
            ("--accept-window-s", "S", "how long to wait for a peer"),
            ("--scheme", "S", "seq | frame (default: frame)"),
            ("--plain", "", "disable frame coherence"),
            ("--out", "DIR", "frames + run.journal (default: out)"),
            (
                "--hashes",
                "FILE",
                "per-frame FNV fingerprints, one hex per line",
            ),
            ("--resume", "", "resume the interrupted run in --out DIR"),
            (
                "--chaos",
                "SPEC",
                "seeded fault injection (grammar: DESIGN.md §8)",
            ),
        ],
        cmd_master,
    ),
    (
        "worker",
        "SCENE",
        "TCP worker process (no SCENE with --service)",
        &[
            ("--connect", "ADDR", "master or service address"),
            (
                "--service",
                "",
                "join a service instead of a one-job master",
            ),
            (
                "--retries",
                "N",
                "reconnect up to N times after a dropped session",
            ),
        ],
        cmd_worker,
    ),
    (
        "serve",
        "",
        "long-lived multi-tenant service",
        &[
            ("--listen", "ADDR", "listen address (default 127.0.0.1:0)"),
            ("--root", "DIR", "service journal + DIR/jobs/job_NNNNNN"),
            (
                "--resume",
                "",
                "reopen the job table from DIR's service journal",
            ),
            (
                "--max-queued",
                "N",
                "admission bound on live jobs (default 4096)",
            ),
            (
                "--weight",
                "T=W",
                "fair-share weight W for tenant T (repeatable)",
            ),
            (
                "--rate-limit",
                "B/E",
                "per-tenant burst B, one token per E submits",
            ),
            ("--lease", "S", "lease recovery with an S-second base lease"),
            ("--heartbeat-s", "S", "ping cadence (default 0.25)"),
            (
                "--chaos",
                "SPEC",
                "seeded fault injection (grammar: DESIGN.md §8)",
            ),
        ],
        cmd_serve,
    ),
    (
        "submit",
        "SCENE",
        "submit a job to a service",
        &[
            ("--connect", "ADDR", "master or service address"),
            ("--tenant", "T", "tenant to bill against (default: default)"),
            ("--priority", "P", "priority within the tenant (default 0)"),
            ("--plain", "", "disable frame coherence for this job"),
            ("--watch", "", "stream, reassemble and verify the frames"),
        ],
        cmd_submit,
    ),
    (
        "status",
        "[ID]",
        "one job's state, or per-job metrics offline from a root",
        &[
            ("--connect", "ADDR", "master or service address"),
            ("--root", "DIR", "service root to read offline"),
        ],
        cmd_status,
    ),
    (
        "cancel",
        "ID",
        "cancel a live job",
        &[("--connect", "ADDR", "master or service address")],
        cmd_cancel,
    ),
    (
        "jobs",
        "",
        "list every job",
        &[("--connect", "ADDR", "master or service address")],
        cmd_jobs,
    ),
    (
        "drain",
        "",
        "stop admitting; exit when idle",
        &[("--connect", "ADDR", "master or service address")],
        cmd_drain,
    ),
    (
        "load",
        "SCENE",
        "seeded multi-tenant load until every job is terminal",
        &[
            ("--connect", "ADDR", "master or service address"),
            ("--jobs", "N", "jobs to submit (default 20)"),
            ("--tenant", "T", "tenant to submit as (repeatable)"),
            ("--seed", "S", "RNG seed for tenant/priority/cancel choices"),
            ("--priority-spread", "P", "priorities drawn from -P..=P"),
            ("--cancel-frac", "F", "fraction of admitted jobs to cancel"),
            ("--drain", "", "send DRAIN once every job is terminal"),
        ],
        cmd_load,
    ),
];

/// `flags` one to a line, each with its value word and doc.
fn flag_lines(flags: &[(&str, &str, &str)]) -> String {
    let line = |(flag, value, doc): &(&str, &str, &str)| {
        format!("\n    {:<24}{doc}", format!("{flag} {value}"))
    };
    flags.iter().map(line).collect()
}

/// The usage: every subcommand with its flags.
fn usage() -> String {
    let mut out = String::from("usage: nowfarm <subcommand> [args] [flags]");
    for &(name, args, about, flags, _) in COMMANDS {
        let call = format!("{name} {args}");
        out += &format!("\n  nowfarm {call:<16}{about}{}", flag_lines(flags));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.0 == name));
    let Some(&(name, _, _, flags, run)) = command else {
        eprintln!("{}", usage());
        exit(2);
    };
    if let Err(e) = check_flags(name, flags, &args[1..]) {
        eprintln!("error: {e}");
        exit(2);
    }
    if let Err(e) = run(&args[1..]) {
        eprintln!("error: {e}");
        // an error naming one of the subcommand's flags is about how it was
        // called (a bad or missing value): exit as on an unknown flag
        let misuse = flags.iter().any(|(flag, ..)| e.contains(flag));
        exit(if misuse { 2 } else { 1 });
    }
}

/// Reject a `--flag` that is not in the subcommand's table. The word after
/// a value-taking flag is its value, whatever it looks like.
fn check_flags(sub: &str, flags: Flags, args: &[String]) -> Result<(), String> {
    let mut words = args.iter();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            continue;
        }
        match flags.iter().find(|(flag, ..)| flag == word) {
            Some((_, value, _)) => {
                if !value.is_empty() {
                    words.next();
                }
            }
            None if flags.is_empty() => {
                return Err(format!(
                    "unknown flag `{word}`; `nowfarm {sub}` takes no flags"
                ));
            }
            None => {
                let valid = flag_lines(flags);
                return Err(format!(
                    "unknown flag `{word}`; `nowfarm {sub}` takes:{valid}"
                ));
            }
        }
    }
    Ok(())
}

type CliResult = Result<(), String>;

/// Resolve a CLI scene argument to a *transportable spec*: `demo:...`
/// strings pass through, a file path is replaced by its text. The result
/// can be parsed locally or shipped inside a service job submission.
fn scene_spec(path: &str) -> Result<String, String> {
    if path.starts_with("demo:") {
        return Ok(path.to_string());
    }
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Load a scene file, or construct a built-in animation from a
/// `demo:NAME[:FRAMES[:WxH]]` spec. The spec form lets separate master
/// and worker processes build bit-identical scenes without sharing files.
fn load_animation(path: &str) -> Result<Animation, String> {
    from_spec(&scene_spec(path)?).map_err(|e| format!("{path}: {e}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value of `flag` parsed as a `T`, or `default` when it is absent.
fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    flag_value(args, flag).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
    })
}

/// Every value of a repeatable flag, in order.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn outdir(args: &[String]) -> Result<PathBuf, String> {
    let dir = PathBuf::from(flag_value(args, "--out").unwrap_or("out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    clear_frame_files(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    Ok(dir)
}

fn cmd_info(args: &[String]) -> CliResult {
    let path = args.first().ok_or("info needs a scene file")?;
    let anim = load_animation(path)?;
    println!("scene file: {path}");
    println!(
        "  resolution: {}x{}",
        anim.base.camera.width(),
        anim.base.camera.height()
    );
    println!("  frames:     {}", anim.frames);
    println!("  objects:    {}", anim.base.objects.len());
    for o in &anim.base.objects {
        let kind = format!("{:?}", o.geometry);
        let kind = kind.split([' ', '{']).next().unwrap_or("?");
        println!("    - {:<12} {}", o.name, kind);
    }
    println!("  lights:     {}", anim.base.lights.len());
    println!("  tracks:     {}", anim.tracks.len());
    println!("  segments:   {:?}", anim.segments());
    let b = anim.swept_bounds();
    println!("  swept bounds: {} .. {}", b.min, b.max);
    Ok(())
}

/// Render on this machine: [`render_sequence`], each frame written as it
/// finishes into `--out`, cleared first of any earlier run's frames.
fn cmd_render(args: &[String]) -> CliResult {
    let path = args.first().ok_or("render needs a scene file")?;
    let mode = if has_flag(args, "--plain") {
        SequenceMode::Plain
    } else if flag_value(args, "--block").is_some() {
        SequenceMode::BlockCoherent(parsed_flag(args, "--block", NonZeroU32::MIN)?.get())
    } else {
        SequenceMode::Coherent(DirtyTest::Exact)
    };
    let anim = load_animation(path)?;
    let dir = outdir(args)?;
    let t0 = std::time::Instant::now();
    let mut written = Ok(());
    let report = render_sequence(
        &anim,
        &RenderSettings::default(),
        &CostModel::default(),
        mode,
        SingleMachine::fastest(),
        FarmConfig::paper_default().grid_voxels,
        |f, fb| {
            if written.is_ok() {
                written = write_frame_file(&dir, f as u32, &Canvas::of(&fb), WriteFault::None)
                    .map_err(|e| format!("write frame {f} into {}: {e}", dir.display()));
            }
        },
    );
    written?;
    for (f, px) in report.pixels_per_frame.iter().enumerate() {
        println!("frame {f:3}: {px:6} px recomputed");
    }
    println!(
        "{} frames, {} rays -> {} in {:.2}s",
        anim.frames,
        report.rays.total_rays(),
        dir.display(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `--machines SPEEDxMEM_MB,...`: one simulated machine per entry.
fn parse_machines(spec: &str) -> Result<Vec<MachineSpec>, String> {
    spec.split(',')
        .enumerate()
        .map(|(i, m)| {
            let bad = || format!("--machines: bad sim-{i} `{m}` (want SPEEDxMEM_MB, both > 0)");
            let both = |(speed, mem): (&str, &str)| positive(speed).zip(positive(mem));
            let (speed, mem) = m.split_once('x').and_then(both).ok_or_else(bad)?;
            Ok(MachineSpec::new(&format!("sim-{i}"), speed, mem))
        })
        .collect()
}

/// `v` as a positive, finite number.
fn positive(v: &str) -> Option<f64> {
    v.parse().ok().filter(|x: &f64| *x > 0.0 && x.is_finite())
}

/// The partition scheme selected by `--scheme`, sized for the animation.
fn parse_scheme(args: &[String], anim: &Animation) -> Result<PartitionScheme, String> {
    let (w, h) = (anim.base.camera.width(), anim.base.camera.height());
    match flag_value(args, "--scheme").unwrap_or("frame") {
        "seq" => Ok(PartitionScheme::SequenceDivision { adaptive: true }),
        "frame" => Ok(PartitionScheme::paper_frame_division(w, h)),
        other => Err(format!("--scheme: unknown scheme `{other}` (seq|frame)")),
    }
}

/// A flag whose value must be a positive, finite number of seconds.
fn seconds_flag(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    let Some(v) = flag_value(args, flag) else {
        return Ok(None);
    };
    let s = positive(v).ok_or_else(|| format!("{flag} must be a positive number, not `{v}`"))?;
    Ok(Some(s))
}

/// The TCP master configuration `master` and `serve` share: the worker
/// quorum, `--lease`, `--heartbeat-s`, `--accept-window-s` (a `master`
/// flag only: a service's quorum and window are unbounded), and the one
/// fault plan from `--chaos SPEC` or `NOW_CHAOS` (the flag wins).
fn tcp_config(args: &[String], workers: usize) -> Result<TcpFarmConfig, String> {
    let mut tcp = TcpFarmConfig::new(workers);
    if let Some(lease) = seconds_flag(args, "--lease")? {
        tcp.recovery = RecoveryConfig::with_lease(lease);
    }
    if let Some(hb) = seconds_flag(args, "--heartbeat-s")? {
        tcp.net.heartbeat_s = hb;
    }
    if let Some(win) = seconds_flag(args, "--accept-window-s")? {
        tcp.net.accept_window_s = win;
    }
    let env = std::env::var("NOW_CHAOS").ok();
    let spec = flag_value(args, "--chaos").or(env.as_deref()).unwrap_or("");
    tcp.chaos = spec
        .parse::<ChaosPlan>()
        .map_err(|e| format!("chaos plan: {e}"))?;
    if !tcp.chaos.is_empty() {
        eprintln!("chaos plan armed: {}", tcp.chaos);
    }
    Ok(tcp)
}

/// Bind the master's listener and announce the real port. A master or
/// service restarted with `--resume` rebinds the fixed port its
/// predecessor held; the kernel may keep it busy briefly after a kill, so
/// retry the bind instead of failing the resume.
fn bind_retry(listen: &str) -> Result<TcpMaster, String> {
    let mut attempt = 0;
    let listener = loop {
        match bind_tcp_master(listen) {
            Ok(l) => break l,
            Err(e) if attempt < 12 => {
                attempt += 1;
                eprintln!("{e}; retrying bind ({attempt}/12)");
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
            Err(e) => return Err(e),
        }
    };
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    // scripts and tests parse this line to learn the real port after
    // binding port 0, so print it alone and flush before blocking
    println!("listening on {addr}");
    std::io::Write::flush(&mut std::io::stdout()).map_err(|e| format!("stdout: {e}"))?;
    Ok(listener)
}

/// The run directory of `farm` and `master`: `--out DIR` (default `out`)
/// holds the frame files beside `run.journal`, and `--resume` finishes the
/// run journaled there.
fn run_dir(args: &[String]) -> JournalSpec {
    let dir = flag_value(args, "--out").unwrap_or("out");
    if has_flag(args, "--resume") {
        JournalSpec::resume(dir)
    } else {
        JournalSpec::new(dir)
    }
}

/// Write per-frame fingerprints, one 16-digit hex per line, if `--hashes`
/// was given. The files are diffable across backends and process counts:
/// identical scenes must yield identical lines.
fn write_hashes(args: &[String], hashes: &[u64]) -> CliResult {
    if let Some(path) = flag_value(args, "--hashes") {
        let mut text = String::with_capacity(hashes.len() * 17);
        for h in hashes {
            text.push_str(&format!("{h:016x}\n"));
        }
        image_io::write_atomic(Path::new(path), text.as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("{} frame hashes -> {path}", hashes.len());
    }
    Ok(())
}

/// The `FarmConfig` of `farm`, `master` and `worker`: `--plain` over the
/// paper defaults. (A worker adopts scheme, coherence and grid from the
/// master's job header.)
fn farm_config(args: &[String]) -> FarmConfig {
    FarmConfig {
        coherence: !has_flag(args, "--plain"),
        ..FarmConfig::paper_default()
    }
}

/// The end of a `farm` or `master` run: the summary and `--hashes`. The
/// frames are already in the run directory, written as they finalized.
fn finish_farm_run(args: &[String], run: &JournalSpec, result: &FarmResult) -> CliResult {
    print_farm_summary(result);
    write_hashes(args, &result.frame_hashes)?;
    println!(
        "{} frames -> {}",
        result.frame_hashes.len(),
        run.dir.display()
    );
    Ok(())
}

fn print_farm_summary(result: &FarmResult) {
    println!(
        "makespan {:.2}s, {} rays, {} units, {} messages, {} bytes over the wire",
        result.report.makespan_s,
        result.rays.total_rays(),
        result.units_done,
        result.report.messages,
        result.report.bytes
    );
    if result.pixels_shipped > 0 {
        // 7 bytes/px (u32 id + RGB) is what the raw wire format costs
        println!(
            "  frame traffic: {} bytes for {} pixels ({:.1}x vs raw)",
            result.frame_bytes_wire,
            result.pixels_shipped,
            7.0 * result.pixels_shipped as f64 / result.frame_bytes_wire.max(1) as f64
        );
    }
    if result.report.workers_joined > 0 {
        println!(
            "  membership: {} joined, {} left early, {} rejected",
            result.report.workers_joined,
            result.report.workers_left,
            result.report.workers_rejected
        );
    }
    if result.report.results_rejected > 0 || result.report.workers_quarantined > 0 {
        println!(
            "  integrity: {} results rejected, {} worker(s) quarantined",
            result.report.results_rejected, result.report.workers_quarantined
        );
    }
    if result.resumed_units > 0 {
        println!(
            "  resumed: {} units skipped via the journal",
            result.resumed_units
        );
    }
    if result.report.leases_prefetched > 0 {
        println!(
            "  overlap: {} units were sent ahead of their worker's request",
            result.report.leases_prefetched
        );
    }
    print_peak_memory();
    print_machines(&result.report);
}

/// Print this process's peak resident set, where the system reports it.
fn print_peak_memory() {
    if let Some(kb) = peak_rss_kb() {
        println!("  peak memory {kb} KB (this process's VmHWM)");
    }
}

/// This process's peak resident set in KB, where the system reports it
/// (`VmHWM` in Linux's `/proc/self/status`).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse().ok()
}

/// One line per machine of a run: busy time, utilisation, units and,
/// where known, round trip, wire bytes and membership.
fn print_machines(report: &RunReport) {
    for (i, m) in report.machines.iter().enumerate() {
        let rtt = if m.rtt_s > 0.0 {
            format!("  rtt {:6.0}us", m.rtt_s * 1e6)
        } else {
            String::new()
        };
        let wire = if m.bytes_sent > 0 || m.bytes_received > 0 {
            format!("  tx {:8}  rx {:8}", m.bytes_sent, m.bytes_received)
        } else {
            String::new()
        };
        // a worker that joined noticeably after t=0 was a mid-run joiner;
        // the left-at stamp matters when it departed before the run ended
        let membership = if m.joined_s > 0.05 || m.lost {
            format!("  joined {:.2}s, left {:.2}s", m.joined_s, m.left_s)
        } else {
            String::new()
        };
        println!(
            "  {:<28} busy {:8.2}s  util {:3.0}%  units {:4}{}{}{}{}",
            m.name,
            m.busy_s,
            100.0 * report.utilisation(i),
            m.units_done,
            rtt,
            wire,
            membership,
            if m.lost { "  LOST" } else { "" },
        );
    }
}

fn cmd_farm(args: &[String]) -> CliResult {
    let path = args.first().ok_or("farm needs a scene file")?;
    let anim = load_animation(path)?;
    let trace_path = flag_value(args, "--trace");
    let mut cfg = FarmConfig {
        scheme: parse_scheme(args, &anim)?,
        ..farm_config(args)
    };
    if trace_path.is_some() {
        cfg.settings.trace = true;
        nowrender::trace::global().clear();
        nowrender::trace::global().set_enabled(true);
    }

    let run = run_dir(args);
    let result = if let Some(n) = flag_value(args, "--threads") {
        let n: usize = n.parse().map_err(|_| "bad --threads value")?;
        println!("running on {n} real worker threads ...");
        run_threads_with(
            &anim,
            &cfg,
            &nowrender::cluster::ThreadCluster::new(n),
            Some(&run),
        )?
    } else {
        let machines = match flag_value(args, "--machines") {
            Some(spec) => parse_machines(spec)?,
            None => MachineSpec::paper_cluster(),
        };
        println!("simulating {} machines ...", machines.len());
        let mut cluster = SimCluster::new(machines);
        // gantt spans feed the Chrome export's virtual-time process
        cluster.record_timeline = trace_path.is_some();
        run_sim_with(&anim, &cfg, &cluster, Some(&run))?
    };

    if let Some(path) = trace_path {
        let rec = nowrender::trace::global();
        rec.set_enabled(false);
        let snap = rec.snapshot();
        image_io::write_atomic(
            Path::new(path),
            nowrender::trace::export::chrome_json(&snap).as_bytes(),
        )
        .map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "trace: {} events -> {path} (open in chrome://tracing or ui.perfetto.dev)",
            snap.events.len()
        );
    }

    finish_farm_run(args, &run, &result)
}

fn cmd_master(args: &[String]) -> CliResult {
    let path = args
        .first()
        .ok_or("master needs a scene (file or demo:NAME:FRAMES:WxH)")?;
    let anim = load_animation(path)?;
    let workers: usize = parsed_flag(args, "--workers", 2)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let cfg = FarmConfig {
        scheme: parse_scheme(args, &anim)?,
        ..farm_config(args)
    };
    let tcp = tcp_config(args, workers)?;
    let run = run_dir(args);
    let listener = bind_retry(flag_value(args, "--listen").unwrap_or("127.0.0.1:0"))?;
    println!("waiting for {workers} worker(s) ...");

    let result = run_tcp_master_with(listener, &anim, &cfg, &tcp, Some(&run))?;
    finish_farm_run(args, &run, &result)
}

fn cmd_worker(args: &[String]) -> CliResult {
    let service = has_flag(args, "--service");
    let anim = if service {
        // a service worker is scene-agnostic: it learns each job's scene
        // from its first unit
        None
    } else {
        let path = args
            .first()
            .ok_or("worker needs a scene (file or demo:NAME:FRAMES:WxH), or --service")?;
        Some(load_animation(path)?)
    };
    let addr = flag_value(args, "--connect").ok_or("worker needs --connect ADDR")?;
    let cfg = farm_config(args);
    let retries: u32 = parsed_flag(args, "--retries", 0)?;
    let connect = ConnectConfig::default();
    let mut attempt = 0;
    loop {
        println!("connecting to {addr} ...");
        // each session builds its own worker: a rejoin starts afresh
        let session = match &anim {
            Some(anim) => serve_tcp_worker(anim, &cfg, addr, &connect),
            None => serve_service_worker(addr, &connect, &cfg.settings),
        };
        match session {
            Ok(s) => {
                println!(
                    "worker {} done: {} units, {:.2}s busy, {} bytes sent, {} bytes received",
                    s.node_id, s.units, s.busy_s, s.bytes_sent, s.bytes_received
                );
                print_peak_memory();
                return Ok(());
            }
            Err(e)
                if e.contains("scene mismatch")
                    || e.contains("job header")
                    || e.contains("fingerprint mismatch") =>
            {
                // misconfiguration, not a flaky network: retrying the same
                // handshake can only fail the same way
                return Err(format!("job rejected by master: {e}"));
            }
            // results that failed verification would fail it again
            Err(e) if e.contains("quarantined") => return Err(e),
            Err(e) if attempt < retries => {
                attempt += 1;
                eprintln!("session ended ({e}); reconnecting ({attempt}/{retries})");
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
            Err(e) => return Err(e),
        }
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut cfg = ServiceConfig::default();
    cfg.max_queued = parsed_flag(args, "--max-queued", cfg.max_queued)?;
    for spec in flag_values(args, "--weight") {
        let (tenant, w) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --weight `{spec}` (want TENANT=W)"))?;
        let w: u32 = w.parse().map_err(|_| format!("bad weight in `{spec}`"))?;
        cfg.weights.push((tenant.to_string(), w.max(1)));
    }
    if let Some(spec) = flag_value(args, "--rate-limit") {
        let (burst, every) = spec
            .split_once('/')
            .ok_or_else(|| format!("bad --rate-limit `{spec}` (want BURST/EVERY)"))?;
        cfg.rate_limit = Some(nowrender::core::service::RateLimit {
            burst: burst
                .parse()
                .map_err(|_| format!("bad burst in `{spec}`"))?,
            every: every
                .parse()
                .map_err(|_| format!("bad interval in `{spec}`"))?,
        });
    }
    let resume = has_flag(args, "--resume");
    if let Some(root) = flag_value(args, "--root") {
        cfg.root = Some(PathBuf::from(root));
    } else if resume {
        return Err("--resume needs --root DIR (the service journal to reopen)".into());
    }
    let master = if resume {
        ServiceMaster::resume(cfg)?
    } else {
        ServiceMaster::new(cfg)?
    };

    let tcp = tcp_config(args, 1)?;
    let listener = bind_retry(flag_value(args, "--listen").unwrap_or("127.0.0.1:0"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("service up; drain with `nowfarm drain --connect {addr}`");

    let (master, report) = run_service_master(listener, master, &tcp)?;
    let c = master.counters;
    println!(
        "service drained: {} submitted, {} completed, {} cancelled, {} rejected, {} stale results",
        c.submitted, c.completed, c.cancelled, c.rejected, c.stale_results
    );
    println!(
        "watched frames: {} pushed, {} forwarded as the worker sealed them",
        c.frames_pushed, c.frames_forwarded
    );
    println!(
        "makespan {:.2}s, {} unit grants, {} messages, {} bytes over the wire",
        report.makespan_s,
        master.total_grants(),
        report.messages,
        report.bytes
    );
    for (tenant, grants) in master.tenant_grants() {
        println!("  tenant {tenant:<16} {grants:6} unit grants");
    }
    print_peak_memory();
    print_machines(&report);
    Ok(())
}

/// A control-plane client for the `--connect ADDR` of a service command.
fn service_client(args: &[String]) -> Result<ServiceClient, String> {
    let addr = flag_value(args, "--connect").ok_or("need --connect ADDR")?;
    ServiceClient::connect(addr, 30.0)
}

fn cmd_submit(args: &[String]) -> CliResult {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("submit needs a scene (file or demo:NAME:FRAMES:WxH)")?;
    let mut spec = JobSpec::new(scene_spec(path)?);
    if let Some(t) = flag_value(args, "--tenant") {
        spec.tenant = t.to_string();
    }
    spec.priority = parsed_flag(args, "--priority", 0)?;
    spec.coherence = !has_flag(args, "--plain");
    let mut client = service_client(args)?;
    let id = match client.submit(&spec)? {
        Ok(id) => id,
        Err(reason) => return Err(format!("rejected: {reason}")),
    };
    println!("job {id}");
    if !has_flag(args, "--watch") {
        return Ok(());
    }
    let (st, w, h) = client
        .watch_start(id)?
        .map_err(|reason| format!("watch rejected: {reason}"))?;
    println!("watching job {id} ({w}x{h}, {} frames) ...", st.frames);
    let report = client.watch_stream(&st, w, h, |ps| {
        println!(
            "  frame {:3}/{} ({} units)",
            ps.frames_done, ps.frames, ps.units_done
        );
    })?;
    println!(
        "job {id} {:?}: {} tile deltas, {} bytes, {} pixels",
        report.status.state, report.deltas, report.delta_bytes, report.pixels
    );
    if report.verified {
        // scripts grep for this exact phrase
        println!("watch verified: frames reassembled bit-identically from the stream");
        Ok(())
    } else if report.status.state == JobState::Done {
        Err("watch could not verify the stream against the job hash".into())
    } else {
        Err(format!("job ended {:?}", report.status.state))
    }
}

fn job_id_arg(args: &[String]) -> Result<u64, String> {
    args.first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("need a job id".to_string())?
        .parse()
        .map_err(|_| "bad job id".to_string())
}

fn print_status(st: &nowrender::core::JobStatus) {
    println!(
        "job {:<6} {:<10} tenant {:<16} prio {:4}  frames {}/{}  units {:6}  hash {}",
        st.id,
        st.state.name(),
        st.tenant,
        st.priority,
        st.frames_done,
        st.frames,
        st.units_done,
        if st.job_hash != 0 {
            format!("{:016x}", st.job_hash)
        } else {
            "-".to_string()
        }
    );
}

fn cmd_status(args: &[String]) -> CliResult {
    if let Some(root) = flag_value(args, "--root") {
        return status_from_root(Path::new(root), args);
    }
    let id = job_id_arg(args)?;
    let mut client = service_client(args)?;
    match client.status(id)? {
        Ok(st) => {
            print_status(&st);
            Ok(())
        }
        Err(reason) => Err(reason),
    }
}

/// Pull one unsigned field out of the flat metrics JSON the service
/// writes (a fixed `"key": value` shape — see `ServiceMaster::finalize_job`
/// — so a std-only scan is exact, no JSON parser needed).
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The quoted string value of a flat metrics-JSON field.
fn json_str<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    rest.split('"').next()
}

fn print_metrics(path: &Path) -> CliResult {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let n = |key| json_u64(&text, key).unwrap_or(0);
    println!(
        "job {:<6} hash {}  frames {:3}  units {:6}  rays {:10}  pixels {:9}",
        n("job"),
        json_str(&text, "hash").unwrap_or("-"),
        n("frames"),
        n("units"),
        n("rays"),
        n("pixels_shipped"),
    );
    println!(
        "           recovery: {} resumed, {} requeued, {} rejected, {} workers lost",
        n("resumed"),
        n("requeued"),
        n("rejected"),
        n("workers_lost"),
    );
    Ok(())
}

/// Offline per-job summaries from a service durability root: one line of
/// render counters and one of recovery/integrity counters per finished
/// job, straight from `root/jobs/job_NNNNNN/metrics.json` — no live
/// service connection needed.
fn status_from_root(root: &Path, args: &[String]) -> CliResult {
    if let Ok(id) = job_id_arg(args) {
        return print_metrics(&root.join(format!("jobs/job_{id:06}/metrics.json")));
    }
    let jobs = root.join("jobs");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&jobs)
        .map_err(|e| format!("{}: {e}", jobs.display()))?
        .filter_map(|d| d.ok())
        .map(|d| d.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("job_"))
        })
        .collect();
    dirs.sort();
    let mut printed = 0;
    for dir in dirs {
        let metrics = dir.join("metrics.json");
        // jobs still running (or cancelled before finalize) have no
        // metrics file yet; skip them rather than failing the listing
        if metrics.exists() {
            print_metrics(&metrics)?;
            printed += 1;
        }
    }
    println!("{printed} finished jobs");
    Ok(())
}

fn cmd_cancel(args: &[String]) -> CliResult {
    let id = job_id_arg(args)?;
    let mut client = service_client(args)?;
    match client.cancel(id)? {
        Ok(()) => {
            println!("job {id} cancelled");
            Ok(())
        }
        Err(reason) => Err(reason),
    }
}

fn cmd_jobs(args: &[String]) -> CliResult {
    let mut client = service_client(args)?;
    let jobs = client.jobs()?;
    for st in &jobs {
        print_status(st);
    }
    println!("{} jobs", jobs.len());
    Ok(())
}

fn cmd_drain(args: &[String]) -> CliResult {
    let mut client = service_client(args)?;
    client.drain()?;
    println!("drain requested");
    Ok(())
}

/// Splitmix64: tiny, seedable, plenty for load-shaping choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How often `load` polls the job list while it waits, and when it gives up.
const LOAD_POLL_S: f64 = 0.5;
const LOAD_TIMEOUT_S: f64 = 600.0;

/// Submit a seeded stream of jobs across tenants, cancel a seeded sample
/// mid-run, poll until every admitted job is terminal, then print
/// throughput and the per-tenant completion split. Fails if a job is still
/// live after `LOAD_TIMEOUT_S` or the service stops answering.
fn cmd_load(args: &[String]) -> CliResult {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("load needs a scene (file or demo:NAME:FRAMES:WxH)")?;
    let scene = scene_spec(path)?;
    let jobs: usize = parsed_flag(args, "--jobs", 20)?;
    let spread: i32 = parsed_flag(args, "--priority-spread", 0)?;
    let cancel_frac: f64 = parsed_flag(args, "--cancel-frac", 0.0)?;
    let mut tenants = flag_values(args, "--tenant");
    if tenants.is_empty() {
        tenants.push("default");
    }
    let mut rng = Rng(parsed_flag(args, "--seed", 1)?);
    let mut client = service_client(args)?;
    let t0 = std::time::Instant::now();
    let mut admitted: Vec<u64> = Vec::new();
    for _ in 0..jobs {
        let tenant = tenants[rng.below(tenants.len() as u64) as usize];
        let priority = if spread > 0 {
            rng.below(2 * spread as u64 + 1) as i32 - spread
        } else {
            0
        };
        let spec = JobSpec::new(scene.as_str())
            .tenant(tenant)
            .priority(priority);
        match client.submit(&spec)? {
            Ok(id) => admitted.push(id),
            Err(reason) => eprintln!("rejected: {reason}"),
        }
    }
    println!(
        "submitted {jobs} jobs ({} admitted, {} rejected) in {:.2}s",
        admitted.len(),
        jobs - admitted.len(),
        t0.elapsed().as_secs_f64()
    );

    // the seeded cancel sample goes out while the workers are still rendering
    let mut cancelled = 0usize;
    for &id in &admitted {
        if cancel_frac > 0.0 && rng.f64() < cancel_frac && client.cancel(id)?.is_ok() {
            cancelled += 1;
        }
    }
    if cancelled > 0 {
        println!("cancelled {cancelled} jobs mid-run");
    }

    let mut last_done = 0usize;
    let mine = loop {
        let mut mine = client.jobs()?;
        mine.retain(|s| admitted.contains(&s.id));
        let done = mine.iter().filter(|s| s.state.terminal()).count();
        let elapsed = t0.elapsed().as_secs_f64();
        if done != last_done {
            println!("{done}/{} terminal after {elapsed:.1}s", admitted.len());
            last_done = done;
        }
        if done == admitted.len() {
            break mine;
        }
        if elapsed > LOAD_TIMEOUT_S {
            return Err(format!(
                "timeout: only {done}/{} jobs terminal after {LOAD_TIMEOUT_S}s",
                admitted.len()
            ));
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(LOAD_POLL_S));
    };
    let elapsed = t0.elapsed().as_secs_f64();
    println!(
        "all {} jobs terminal in {elapsed:.2}s ({:.1} jobs/s)",
        admitted.len(),
        admitted.len() as f64 / elapsed.max(1e-9)
    );
    let mut by_tenant: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for s in &mine {
        let (total, completed) = by_tenant.entry(&s.tenant).or_default();
        *total += 1;
        *completed += usize::from(s.state == JobState::Done);
    }
    for (tenant, (total, completed)) in &by_tenant {
        println!("  tenant {tenant:<16} {completed}/{total} completed");
    }
    if has_flag(args, "--drain") {
        cmd_drain(args)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero or negative `--block`, `--lease` or `--machines` value is an
    /// error naming the flag (`main` exits 2 on it), not a panic or a
    /// nonsense run.
    #[test]
    fn bad_block_lease_and_machine_values_are_refused_by_name() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        for v in ["0", "-1", "x"] {
            let err = cmd_render(&args(&format!("demo:newton:1:8x6 --block {v}"))).unwrap_err();
            assert!(err.contains("--block"), "{err}");
        }
        for v in ["0", "-1", "nan", "inf"] {
            let err = tcp_config(&args(&format!("--lease {v}")), 1).unwrap_err();
            assert!(err.contains("--lease"), "{err}");
        }
        assert!(tcp_config(&args("--lease 0.0001"), 1).is_ok());
        for spec in [
            "0x64",
            "-1x64",
            "nanx64",
            "1x0",
            "2.0x64,1x-5",
            "1",
            "infx64",
        ] {
            let err = parse_machines(spec).unwrap_err();
            assert!(err.contains("--machines"), "{spec}: {err}");
        }
        assert_eq!(parse_machines("2.0x64,1.0x32").unwrap().len(), 2);
        for sub in [cmd_farm, cmd_master] {
            let err = sub(&args("demo:newton:1:8x6 --scheme hybrid")).unwrap_err();
            assert!(
                err.contains("--scheme") && err.contains("seq|frame"),
                "{err}"
            );
        }
    }

    /// There is one level of parallelism: a core is a worker, so no
    /// subcommand takes a tile-pool thread count.
    #[test]
    fn every_subcommand_refuses_a_pool_flag() {
        let args: Vec<String> = ["demo:newton:1:8x6", "--pool", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for &(sub, _, _, flags, _) in COMMANDS {
            let err = check_flags(sub, flags, &args).expect_err("--pool accepted");
            assert!(err.contains("unknown flag `--pool`"), "{sub}: {err}");
        }
    }

    /// Every flag row carries its doc; the usage prints each under its
    /// subcommand, an unknown flag's error prints the subcommand's, and
    /// every flag in a row is accepted there.
    #[test]
    fn unknown_flags_are_rejected_and_documented_ones_accepted() {
        let words = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        let table = |sub: &str| COMMANDS.iter().find(|c| c.0 == sub).expect("subcommand").3;
        for sub in [
            "render", "farm", "master", "worker", "serve", "submit", "load",
        ] {
            let err = check_flags(sub, table(sub), &words("demo:newton:1:32x24 --pol 3"))
                .expect_err("unknown flag accepted");
            assert!(err.contains("`--pol`") && err.contains(sub), "{err}");
            assert_eq!(err.split_once(':').unwrap().1, flag_lines(table(sub)));
        }
        let usage = usage();
        let sections: Vec<&str> = usage.split("\n  nowfarm ").skip(1).collect();
        assert_eq!(sections.len(), COMMANDS.len());
        for (&(sub, _, about, flags, _), section) in COMMANDS.iter().zip(sections) {
            assert!(
                section.starts_with(sub) && section.contains(about),
                "{section}"
            );
            for &(flag, value, doc) in flags {
                assert!(
                    doc.len() > 8 && !doc.starts_with("--"),
                    "{sub} {flag}: {doc:?}"
                );
                assert!(
                    section.contains(&flag_lines(&[(flag, value, doc)])),
                    "{sub} {flag}"
                );
                let line = format!("scene {flag}{}", if value.is_empty() { "" } else { " v" });
                assert_eq!(check_flags(sub, flags, &words(&line)), Ok(()));
            }
        }
        // the word after a value-taking flag is its value; the word after
        // a bare flag is checked like any other
        let farm = table("farm");
        assert_eq!(check_flags("farm", farm, &words("s --out --odd")), Ok(()));
        assert!(check_flags("farm", farm, &words("s --resume --odd")).is_err());
        assert!(check_flags("info", table("info"), &words("s --out d")).is_err());
        // a mistyped flag is an error, not a default: `--job 5` is not `--jobs 5`
        let load = table("load");
        let line = words("demo:glassball:2:64x48 --connect a --job 5");
        let err = check_flags("load", load, &line).expect_err("--job accepted");
        assert!(err.contains("`--job`") && err.contains("--jobs"), "{err}");
        // a service admits workers for as long as it runs: the quorum and
        // accept-window flags are `master`'s alone (`main` exits 2 on them)
        for flag in ["--workers 2", "--accept-window-s 5"] {
            let err = check_flags("serve", table("serve"), &words(flag)).expect_err(flag);
            assert!(err.contains(flag.split(' ').next().unwrap()), "{err}");
            let line = words(&format!("demo:newton:1:32x24 {flag}"));
            assert_eq!(check_flags("master", table("master"), &line), Ok(()));
        }
        // a worker's one knob is --retries: the master's timing flags are
        // errors on it, and `serve` keeps --heartbeat-s
        for flag in ["--heartbeat-s 1", "--accept-window-s 5"] {
            let line = words(&format!("demo:newton:1:32x24 --connect a {flag}"));
            let err = check_flags("worker", table("worker"), &line).expect_err(flag);
            assert!(err.contains(flag.split(' ').next().unwrap()), "{err}");
        }
        let line = words("--heartbeat-s 1");
        assert_eq!(check_flags("serve", table("serve"), &line), Ok(()));
    }
}
