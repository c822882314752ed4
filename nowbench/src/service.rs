//! The `service-mix` workload: many tiny jobs from two closed-loop
//! clients through the multi-tenant service.
//!
//! `run_service_master` and two `serve_service_worker` threads stand in
//! for `nowfarm serve` plus two `nowfarm worker --service` processes; two
//! `ServiceClient` connections (one per tenant, equal weights) each do
//! `submit → watch_start → watch_stream → status` and only then take their
//! next job. Closed loop, because each client waits for its job.

use crate::host;
use crate::json::Json;
use crate::metrics::{summary, Measured, Values};
use crate::stats::{median, tail};
use crate::workload::{service_jobs, ServiceJob, SERVICE_JOBS, SERVICE_SPECS, TENANTS};
use now_cluster::{ConnectConfig, RunReport};
use now_core::service::ServiceConfig;
use now_core::{
    bind_tcp_master, run_service_master, serve_service_worker, JobSpec, JobState, ServiceClient,
    ServiceMaster, TcpFarmConfig,
};
use now_raytrace::RenderSettings;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Worker threads serving the pool.
pub const WORKERS: usize = 2;
/// Fewest timed jobs per client: together enough samples for `p95` to
/// keep ten beyond it, however slow the host.
pub const MIN_JOBS_PER_CLIENT: usize = 120;
/// Seconds a client waits for any single reply before giving up.
const CLIENT_TIMEOUT_S: f64 = 60.0;

/// Golden job hash of every spec in [`SERVICE_SPECS`], from
/// `golden/service.hashes` (`SPEC HASH` per line).
pub fn golden_job_hashes() -> Result<Vec<u64>, String> {
    let text = include_str!("../golden/service.hashes");
    SERVICE_SPECS
        .iter()
        .map(|&(spec, _)| {
            text.lines()
                .filter_map(|l| l.trim().split_once(' '))
                .find(|(s, _)| *s == spec)
                .and_then(|(_, h)| u64::from_str_radix(h.trim(), 16).ok())
                .ok_or_else(|| {
                    format!(
                        "golden/service.hashes lacks `{spec}` (regenerate with `nowbench golden`)"
                    )
                })
        })
        .collect()
}

/// A running service: master thread, worker threads, durable root.
pub struct Service {
    pub addr: String,
    root: PathBuf,
    master: JoinHandle<Result<(ServiceMaster, RunReport), String>>,
    workers: Vec<JoinHandle<Result<(), String>>>,
}

impl Service {
    /// Start a journaled service master and enrol the workers.
    pub fn start(label: &str) -> Result<Service, String> {
        let root = host::fresh_run_dir(label)?;
        let listener = bind_tcp_master("127.0.0.1:0")?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("master address: {e}"))?
            .to_string();
        let master = ServiceMaster::new(ServiceConfig {
            root: Some(root.clone()),
            ..ServiceConfig::default()
        })?;
        let tcp = TcpFarmConfig::new(WORKERS);
        let master = std::thread::spawn(move || run_service_master(listener, master, &tcp));
        let workers = (0..WORKERS)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    serve_service_worker(
                        &addr,
                        &ConnectConfig::default(),
                        &RenderSettings::default(),
                    )
                    .map(|_| ())
                })
            })
            .collect();
        Ok(Service {
            addr,
            root,
            master,
            workers,
        })
    }

    pub fn client(&self) -> Result<ServiceClient, String> {
        ServiceClient::connect(&self.addr, CLIENT_TIMEOUT_S)
    }

    /// Drain the service, wait for every thread, remove the root.
    pub fn stop(self) -> Result<(ServiceMaster, RunReport), String> {
        self.client()?.drain()?;
        let out = self.master.join().expect("service master thread")?;
        for w in self.workers {
            w.join().expect("service worker thread")?;
        }
        let _ = std::fs::remove_dir_all(&self.root);
        Ok(out)
    }
}

/// What one job looked like from its client.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// `submit` call → admit reply.
    pub submit_ms: f64,
    /// `submit` call → first progress push with a finished frame.
    pub first_frame_ms: f64,
    /// `submit` call → terminal status.
    pub done_ms: f64,
    /// One `status` round trip after the job finished, while the pool is
    /// busy with the other tenant.
    pub status_us: f64,
    /// Done, with the golden job hash.
    pub ok: bool,
    /// The watch covered the job from its first unit and the client-side
    /// reassembly reproduced the job hash.
    pub verified: bool,
    pub frames: u32,
    pub delta_bytes: u64,
}

/// Submit one job and follow it to its terminal state.
pub fn run_job(
    client: &mut ServiceClient,
    tenant: &str,
    job: &ServiceJob,
    golden: &[u64],
) -> Result<JobSample, String> {
    let spec = JobSpec::new(SERVICE_SPECS[job.spec].0)
        .tenant(tenant)
        .priority(job.priority);
    let refused = |submit_ms| JobSample {
        submit_ms,
        first_frame_ms: submit_ms,
        done_ms: submit_ms,
        status_us: 0.0,
        ok: false,
        verified: false,
        frames: 0,
        delta_bytes: 0,
    };
    let t0 = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let id = match client.submit(&spec)? {
        Ok(id) => id,
        Err(_) => return Ok(refused(ms(t0))),
    };
    let submit_ms = ms(t0);
    let (st, w, h) = match client.watch_start(id)? {
        Ok(ack) => ack,
        Err(_) => return Ok(refused(submit_ms)),
    };
    // a job this small can finish a frame before the watch registers
    let mut first_frame_ms = (st.frames_done >= 1).then(|| ms(t0));
    let report = client.watch_stream(&st, w, h, |ps| {
        if first_frame_ms.is_none() && ps.frames_done >= 1 {
            first_frame_ms = Some(ms(t0));
        }
    })?;
    let done_ms = ms(t0);
    let t1 = Instant::now();
    let status = client.status(id)?;
    let status_us = t1.elapsed().as_secs_f64() * 1e6;
    let ok =
        matches!(&status, Ok(s) if s.state == JobState::Done && s.job_hash == golden[job.spec]);
    Ok(JobSample {
        submit_ms,
        first_frame_ms: first_frame_ms.unwrap_or(done_ms),
        done_ms,
        status_us,
        ok,
        verified: report.verified,
        frames: report.status.frames,
        delta_bytes: report.delta_bytes,
    })
}

/// One set-up: start the master, enrol the workers, and run one job of
/// each spec so both workers' scene caches are warm.
fn set_up(golden: &[u64]) -> Result<(Service, Vec<JobSample>), String> {
    let service = Service::start("service-mix")?;
    let mut warm = Vec::new();
    // two clients at once, so both workers get units of every spec
    std::thread::scope(|s| {
        let clients: Vec<_> = TENANTS
            .iter()
            .map(|tenant| {
                let service = &service;
                s.spawn(move || {
                    let mut client = service.client()?;
                    (0..SERVICE_SPECS.len())
                        .map(|spec| {
                            run_job(
                                &mut client,
                                tenant,
                                &ServiceJob { spec, priority: 0 },
                                golden,
                            )
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        for c in clients {
            warm.extend(c.join().expect("warm-up client")?);
        }
        Ok::<(), String>(())
    })?;
    Ok((service, warm))
}

/// Measure `service-mix`: `setups` set-ups, then both clients work
/// through their job lists (drawn from `seed` before the clock starts)
/// until `seconds` have passed.
pub fn measure(seed: u64, seconds: f64, setups: usize) -> Result<(Measured, Values), String> {
    let golden = golden_job_hashes()?;
    let lists: Vec<Vec<ServiceJob>> = (0..TENANTS.len())
        .map(|t| service_jobs(seed, t, SERVICE_JOBS / TENANTS.len()))
        .collect();

    let mut setup_s = Vec::new();
    let mut warm_jobs = Vec::new();
    let mut running = None;
    // frames the surviving master rendered before the clock started
    let mut warm_frames = 0u32;
    for _ in 0..setups {
        if let Some(previous) = running.take() {
            Service::stop(previous)?;
        }
        let t = Instant::now();
        let (service, warm) = set_up(&golden)?;
        setup_s.push(t.elapsed().as_secs_f64());
        warm_frames = warm.iter().map(|j| j.frames).sum();
        warm_jobs.extend(warm);
        running = Some(service);
    }
    let service = running.expect("at least one set-up");

    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    let mut samples: Vec<JobSample> = Vec::new();
    let mut wall_s = 0.0f64;
    std::thread::scope(|s| {
        let clients: Vec<_> = TENANTS
            .iter()
            .zip(&lists)
            .map(|(tenant, list)| {
                let (service, golden) = (&service, &golden);
                s.spawn(move || {
                    let mut client = service.client()?;
                    let mut mine = Vec::new();
                    // a fast host laps the list rather than running dry
                    for job in list.iter().cycle() {
                        if mine.len() >= MIN_JOBS_PER_CLIENT
                            && started.elapsed().as_secs_f64() >= seconds
                        {
                            break;
                        }
                        mine.push(run_job(&mut client, tenant, job, golden)?);
                    }
                    Ok::<_, String>((mine, started.elapsed().as_secs_f64()))
                })
            })
            .collect();
        for c in clients {
            let (mine, ended) = c.join().expect("client thread")?;
            samples.extend(mine);
            wall_s = wall_s.max(ended);
        }
        Ok::<(), String>(())
    })?;
    let cpu_s = host::cpu_seconds() - cpu0;
    let (master, report) = service.stop()?;

    let col = |f: &dyn Fn(&JobSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let submit_ms = col(&|j| j.submit_ms);
    let first_ms = col(&|j| j.first_frame_ms);
    let done_ms = col(&|j| j.done_ms);
    let status_us = col(&|j| j.status_us);
    let jobs = samples.len() as f64;
    let frames: f64 = samples.iter().map(|j| j.frames as f64).sum();
    let failed = samples.iter().chain(&warm_jobs).filter(|j| !j.ok).count() as u64;
    let (first_tail, tail_p) = tail(&first_ms);
    let (done_tail, _) = tail(&done_ms);
    let (submit_tail, _) = tail(&submit_ms);

    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s));
    values.insert("frames_per_s", frames / wall_s);
    values.insert("cpu_s_per_frame", cpu_s / frames);
    // the report covers the master's whole life: its warm-up jobs too
    values.insert(
        "wire_bytes_per_frame",
        report.bytes as f64 / (frames + warm_frames as f64),
    );
    values.insert("peak_rss_mb", host::peak_rss_mb());
    values.insert("first_frame_ms_p50", median(&first_ms));
    values.insert("job_done_ms_p50", median(&done_ms));

    let mut layer = crate::farm::report_layer(&[&report]);
    layer.insert("core.service.grants", master.total_grants() as f64);
    layer.insert(
        "core.service.watch_verified_share",
        samples.iter().filter(|j| j.verified).count() as f64 / jobs,
    );
    layer.insert(
        "core.service.delta_bytes_per_job",
        samples.iter().map(|j| j.delta_bytes as f64).sum::<f64>() / jobs,
    );
    layer.insert("core.service.status_rtt_us", median(&status_us));
    layer.insert("core.service.jobs_per_s", jobs / wall_s);
    layer.insert("core.service.submit_ms_p50", median(&submit_ms));
    layer.insert("core.service.submit_ms_p95", submit_tail);
    layer.insert("core.service.first_frame_ms_p95", first_tail);
    layer.insert("core.service.job_done_ms_p95", done_tail);

    let detail = Json::obj([
        ("kind", Json::str("service")),
        (
            "specs",
            Json::Arr(SERVICE_SPECS.iter().map(|&(s, _)| Json::str(s)).collect()),
        ),
        ("workers", Json::Num(WORKERS as f64)),
        ("clients", Json::Num(TENANTS.len() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("jobs", Json::Num(jobs)),
        ("frames", Json::Num(frames)),
        ("wall_s", Json::Num(wall_s)),
        ("setups", Json::Num(setups as f64)),
        ("tail_percentile", Json::Num(tail_p as f64)),
        ("setup_s", summary(&setup_s)),
        ("submit_ms", summary(&submit_ms)),
        ("first_frame_ms", summary(&first_ms)),
        ("job_done_ms", summary(&done_ms)),
        ("jobs_per_s", Json::Num(jobs / wall_s)),
        ("units_attempted", Json::Num(master.total_grants() as f64)),
        (
            "units_reassigned_or_rejected",
            Json::Num((report.units_reassigned + report.results_rejected) as f64),
        ),
        (
            "service_completed",
            Json::Num(master.counters.completed as f64),
        ),
        (
            "service_rejected",
            Json::Num(master.counters.rejected as f64),
        ),
    ]);
    let measured = Measured {
        values,
        attempted: (samples.len() + warm_jobs.len()) as u64,
        failed,
        detail,
    };
    Ok((measured, layer))
}
