//! The bytes a watching client receives are pinned: an in-process
//! `ServiceMaster` works the `service-mix` scene specs with a watch on
//! every job registered before its first unit, and the `FRAME_DELTA`
//! pushes, concatenated in push order, must hash to the recorded value.
//! How the master stores a pending frame is its own business; what it
//! pushes is not.

use nowrender::cluster::codec::Encoder;
use nowrender::cluster::net::tag;
use nowrender::cluster::{MasterLogic, WorkerLogic};
use nowrender::core::service::{ServiceConfig, ServiceMaster};
use nowrender::core::{CostModel, JobSpec, JobState, ServiceWorker};
use nowrender::raytrace::RenderSettings;

/// The scene specs of the `service-mix` benchmark workload.
const SPECS: [&str; 3] = [
    "demo:newton:2:48x36",
    "demo:glassball:2:64x48",
    "demo:newton:4:96x72",
];

/// FNV-1a over every `FRAME_DELTA` payload pushed while `workers`
/// in-process workers take turns: each round every worker is leased a
/// unit before any result lands, as a two-worker farm interleaves them.
fn frame_delta_fnv(workers: usize) -> (u64, usize) {
    let mut master = ServiceMaster::new(ServiceConfig::default()).expect("service");
    let mut pool: Vec<ServiceWorker> = (0..workers)
        .map(|_| ServiceWorker::new(RenderSettings::default(), CostModel::default()))
        .collect();
    for spec in SPECS {
        let id = master
            .submit(JobSpec::new(spec).tenant("acme"))
            .expect("submit");
        let mut e = Encoder::new();
        e.u64(id);
        master.client_frame(1, tag::WATCH, &e.finish());
    }
    let (mut h, mut deltas) = (0xcbf29ce484222325u64, 0);
    loop {
        let leased: Vec<_> = (0..workers)
            .filter_map(|w| master.assign(w).map(|u| (w, u)))
            .collect();
        if leased.is_empty() {
            break;
        }
        for (w, unit) in leased {
            let (out, _) = pool[w].perform(&unit);
            master.integrate(w, unit, out).expect("verified");
            for (_, t, payload) in master.client_pushes() {
                if t == tag::FRAME_DELTA {
                    deltas += 1;
                    for b in payload {
                        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                    }
                }
            }
        }
    }
    let states: Vec<_> = master.statuses().into_iter().map(|s| s.state).collect();
    assert_eq!(states, [JobState::Done; 3]);
    (h, deltas)
}

#[test]
fn frame_delta_pushes_are_pinned_on_one_and_two_workers() {
    // eight frames over the three jobs, one push per finished frame; the
    // values were recorded when pending frames were still kept as plain
    // pixel lists. Two workers differ from one: a unit leased to the
    // second worker restarts its sequence with a full render
    assert_eq!(frame_delta_fnv(1), (17156577771333286196, 8));
    assert_eq!(frame_delta_fnv(2), (10688791289306273326, 8));
}
