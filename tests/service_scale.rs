//! Sim-backed scale drill for the render service.
//!
//! The acceptance bar for the service layer: a single long-lived master
//! completes **>=1000 queued jobs over >=200 simulated workers**, and the
//! whole run is deterministic — the final per-job hash map, the grant
//! total and the virtual-time makespan are byte-identical across two
//! independent runs with the same seed. A churn variant repeats the
//! drill while workers join mid-run and crash mid-unit, and every job
//! still completes with the same hashes.
//!
//! Virtual time makes this cheap: the scenes are tiny (the pixels are
//! really rendered; determinism is over real bytes), and only the clock
//! is simulated.

use now_testkit::Rng;
use nowrender::cluster::{FaultPlan, MachineSpec, RecoveryConfig, SimCluster};
use nowrender::core::service::{run_service_sim, JobSpec, JobState, ServiceConfig, ServiceMaster};
use std::collections::{BTreeMap, BTreeSet};

/// Full scale in release builds; a proportional mini-drill under debug,
/// where ray tracing is ~20x slower and tier-1 `cargo test` must stay
/// bounded. CI's `service` job runs this suite with `--release`, so the
/// >=1000-jobs / >=200-workers acceptance bar is enforced there.
const FULL: bool = !cfg!(debug_assertions);
const JOBS: usize = if FULL { 1000 } else { 150 };
const WORKERS: usize = if FULL { 200 } else { 40 };
const CHURN_JOBS: usize = if FULL { 400 } else { 60 };
const MIX_JOBS: usize = if FULL { 120 } else { 48 };

/// A few distinct tiny scenes so the drill exercises multiple animations
/// (and the workers' scene cache) without rendering megapixels.
const SCENES: [&str; 4] = [
    "demo:glassball:1:10x8",
    "demo:newton:1:10x8",
    "demo:orbit:1:10x8",
    "demo:glassball:2:8x6",
];

const TENANTS: [&str; 4] = ["acme", "blue", "crow", "dune"];

fn machines(n: usize) -> Vec<MachineSpec> {
    (0..n)
        .map(|i| {
            // heterogeneous speeds, like the paper's mixed SGI pool
            let speed = 1.0 + (i % 5) as f64 * 0.25;
            MachineSpec::new(&format!("m{i:03}"), speed, 256.0)
        })
        .collect()
}

/// Build the service and submit the seeded job stream.
fn loaded_service(seed: u64, jobs: usize) -> ServiceMaster {
    let mut m = ServiceMaster::new(ServiceConfig {
        max_queued: jobs + 8,
        weights: vec![("acme".to_string(), 2)],
        ..ServiceConfig::default()
    })
    .expect("in-memory service");
    let mut rng = Rng::with_seed(seed);
    for _ in 0..jobs {
        let spec = JobSpec::new(*rng.pick(&SCENES))
            .tenant(*rng.pick(&TENANTS))
            .priority(rng.u32_in(0, 4) as i32 - 2)
            .coherence(rng.bool());
        m.submit(spec).expect("admit");
    }
    m
}

/// Fingerprint of a finished service: every job's (state, hash).
fn outcome(m: &ServiceMaster) -> BTreeMap<u64, (&'static str, u64)> {
    m.statuses()
        .iter()
        .map(|s| (s.id, (s.state.name(), s.job_hash)))
        .collect()
}

#[test]
fn thousand_jobs_over_two_hundred_workers_deterministic() {
    let cluster = SimCluster::new(machines(WORKERS));
    let run = |seed| {
        let (m, report) = run_service_sim(loaded_service(seed, JOBS), &cluster);
        assert!(m.all_jobs_terminal(), "every admitted job must finish");
        assert_eq!(m.counters.completed as usize, JOBS);
        assert_eq!(m.counters.rejected, 0);
        for s in m.statuses() {
            assert_eq!(s.state, JobState::Done);
            assert_ne!(s.job_hash, 0, "job {} has no hash", s.id);
        }
        (outcome(&m), m.total_grants(), report.makespan_s)
    };
    let (jobs_a, grants_a, makespan_a) = run(42);
    let (jobs_b, grants_b, makespan_b) = run(42);
    assert_eq!(jobs_a, jobs_b, "job-hash set must be byte-identical");
    assert_eq!(grants_a, grants_b, "grant totals must match");
    assert_eq!(
        makespan_a.to_bits(),
        makespan_b.to_bits(),
        "virtual makespan must be bit-identical"
    );
    assert_eq!(jobs_a.len(), JOBS);
}

/// Determinism comes from the inputs, not from a constant output: two
/// different submission seeds draw from the same 4 scene specs, so the
/// *set* of distinct job hashes matches while the job mixes differ —
/// rendered bytes depend only on the scene, never on the schedule.
#[test]
fn different_seeds_change_the_schedule_not_the_pixels() {
    let cluster = SimCluster::new(machines(16));
    let (a, _) = run_service_sim(loaded_service(1, MIX_JOBS), &cluster);
    let (b, _) = run_service_sim(loaded_service(2, MIX_JOBS), &cluster);
    assert!(a.all_jobs_terminal() && b.all_jobs_terminal());
    let distinct =
        |m: &ServiceMaster| -> BTreeSet<u64> { m.statuses().iter().map(|s| s.job_hash).collect() };
    assert_eq!(distinct(&a), distinct(&b));
    assert_eq!(distinct(&a).len(), SCENES.len());
}

/// Churn drill: workers join mid-run and crash mid-unit (lease recovery
/// re-issues their units); every job still completes, deterministically,
/// and with the same rendered bytes as a fault-free run.
#[test]
fn churn_while_queued_jobs_complete() {
    let base = WORKERS / 2;
    let mut specs = machines(base);
    let mut faults = FaultPlan::none();
    // 20 late joiners trickling in through the run
    for i in 0..20 {
        specs.push(MachineSpec::new(&format!("late{i:02}"), 1.5, 256.0));
        faults = faults.join_at(base + i, 0.5 + i as f64 * 0.4);
    }
    // a handful of crashes partway through the unit stream
    for (w, unit) in [(3usize, 2u64), (7, 5), (11, 1), (base - 1, 3)] {
        faults = faults.crash_at(w, unit);
    }
    let mut cluster = SimCluster::new(specs);
    cluster.faults = faults;
    cluster.recovery = RecoveryConfig::with_lease(2.0);

    let run = || {
        let (m, report) = run_service_sim(loaded_service(7, CHURN_JOBS), &cluster);
        assert!(m.all_jobs_terminal());
        assert_eq!(
            m.counters.completed as usize, CHURN_JOBS,
            "every job must survive the churn"
        );
        for s in m.statuses() {
            assert_eq!(s.state, JobState::Done);
            assert_ne!(s.job_hash, 0);
        }
        (outcome(&m), report.makespan_s)
    };
    let (jobs_a, makespan_a) = run();
    let (jobs_b, makespan_b) = run();
    assert_eq!(jobs_a, jobs_b, "churn must replay deterministically");
    assert_eq!(makespan_a.to_bits(), makespan_b.to_bits());

    // and the pixels are churn-independent: the same seed without any
    // faults yields the identical hash set
    let calm = SimCluster::new(machines(base));
    let (m, _) = run_service_sim(loaded_service(7, CHURN_JOBS), &calm);
    assert_eq!(
        outcome(&m),
        jobs_a,
        "crashes and joins must never change rendered bytes"
    );
}

/// A job goes to whichever worker asks first: twenty queued two-frame
/// jobs from two tenants on two equal workers keep both of them busy
/// (a job pinned to worker 0 would leave worker 1 idle, since a
/// two-frame job is below the steal floor), and the split never
/// changes a job's bytes. The simulator's machine 0 hosts the
/// coordinator and runs worker 0; machine 1 runs worker 1.
#[test]
fn two_equal_workers_split_queued_jobs() {
    const SPEC: &str = "demo:newton:2:48x36";
    let equal = |n: usize| {
        SimCluster::new(
            (0..n)
                .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 256.0))
                .collect(),
        )
    };
    let mut m = ServiceMaster::new(ServiceConfig::default()).expect("in-memory service");
    for i in 0..20 {
        m.submit(JobSpec::new(SPEC).tenant(TENANTS[i % 2]))
            .expect("admit");
    }
    let (m, report) = run_service_sim(m, &equal(2));
    assert!(m.all_jobs_terminal());
    let units: Vec<u64> = report.machines.iter().map(|r| r.units_done).collect();
    let total: u64 = units.iter().sum();
    assert_eq!(total, 40, "20 jobs x 2 frames");
    for (w, &k) in units.iter().enumerate() {
        assert!(
            k * 10 >= total * 4,
            "worker {w} rendered {k} of {total} units"
        );
    }

    let mut one = ServiceMaster::new(ServiceConfig::default()).expect("in-memory service");
    let id = one.submit(JobSpec::new(SPEC)).expect("admit");
    let (one, _) = run_service_sim(one, &equal(1));
    let want = one.status(id).expect("known job").job_hash;
    for s in m.statuses() {
        assert_eq!(s.state, JobState::Done);
        assert_eq!(s.job_hash, want, "job {} renders other bytes", s.id);
    }
}
