//! The benchmark's workloads and their seeded inputs.
//!
//! The workload table here is the source of truth; `BENCHMARK.json`
//! repeats the names and reasons, and a unit test keeps the two equal.

use now_anim::scenes::{glassball, newton};
use now_anim::Animation;

/// Frame size of every farm workload (the paper's evaluation size).
pub const WIDTH: u32 = 320;
pub const HEIGHT: u32 = 240;
/// Frames of the Newton's-cradle farm workloads. The paper's run has 45;
/// the count is cut (never the resolution or the repetitions) so that a
/// one-worker repetition stays near 3 s on the 2-core reference host.
pub const NEWTON_FRAMES: usize = 30;
/// Frames of the glass-ball farm workload.
pub const GLASSBALL_FRAMES: usize = 12;

/// Which demo animation a farm workload renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    Newton,
    Glassball,
}

impl Scene {
    pub fn name(self) -> &'static str {
        match self {
            Scene::Newton => "newton",
            Scene::Glassball => "glassball",
        }
    }

    pub fn frames(self) -> usize {
        match self {
            Scene::Newton => NEWTON_FRAMES,
            Scene::Glassball => GLASSBALL_FRAMES,
        }
    }

    pub fn animation(self) -> Animation {
        match self {
            Scene::Newton => newton::animation_sized(WIDTH, HEIGHT, NEWTON_FRAMES),
            Scene::Glassball => glassball::animation_sized(WIDTH, HEIGHT, GLASSBALL_FRAMES),
        }
    }

    /// The `demo:` spec that builds the same animation through the scene
    /// language's front door (what a service client would submit).
    pub fn spec(self) -> String {
        format!("demo:{}:{}:{WIDTH}x{HEIGHT}", self.name(), self.frames())
    }

    /// Checked-in per-frame fingerprints (`nowbench golden` rewrites them).
    pub fn golden_text(self) -> &'static str {
        match self {
            Scene::Newton => include_str!("../golden/newton.hashes"),
            Scene::Glassball => include_str!("../golden/glassball.hashes"),
        }
    }
}

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One animation through `FarmMaster`/`FarmWorker` over loopback TCP.
    Farm {
        scene: Scene,
        coherence: bool,
        workers: usize,
    },
    /// A closed-loop job mix through the multi-tenant service.
    Service,
}

/// One named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// Every workload, in the order `nowbench run` executes them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "newton-coh",
        why: "The paper's evaluation run (coherent Newton's cradle, 2 TCP workers): FarmWorker::perform dominates, small dirty sets keep the wire light.",
        kind: Kind::Farm {
            scene: Scene::Newton,
            coherence: true,
            workers: 2,
        },
    },
    Workload {
        name: "newton-plain",
        why: "Same frames with coherence off (Table 1's distribution-only column): bypasses the recording engine and ships full tiles, so codec, verify and integrate work hardest.",
        kind: Kind::Farm {
            scene: Scene::Newton,
            coherence: false,
            workers: 2,
        },
    },
    Workload {
        name: "newton-coh-1w",
        why: "newton-coh with one worker: the single-worker baseline that separates transport, lease and scheduling-tail costs from rendering (scale-out factor).",
        kind: Kind::Farm {
            scene: Scene::Newton,
            coherence: true,
            workers: 1,
        },
    },
    Workload {
        name: "glassball-coh",
        why: "Refraction-heavy glass ball with a large moving dirty set: ray kernels, dirty-pixel purge and tile-delta encode work hardest; disk writes are negligible.",
        kind: Kind::Farm {
            scene: Scene::Glassball,
            coherence: true,
            workers: 2,
        },
    },
    Workload {
        name: "service-mix",
        why: "Many tiny jobs from 2 closed-loop clients through the service: admission, stride scheduling, per-job masters, journal fsyncs and frame fan-out dominate, rendering is small.",
        kind: Kind::Service,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Splitmix64, the generator `nowload` uses.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The scene specs `service-mix` submits and how many of every ten jobs
/// use each.
pub const SERVICE_SPECS: [(&str, usize); 3] = [
    ("demo:newton:2:48x36", 5),
    ("demo:glassball:2:64x48", 3),
    ("demo:newton:4:96x72", 2),
];
/// The two tenants of `service-mix`, one closed-loop client each.
pub const TENANTS: [&str; 2] = ["acme", "blue"];
/// Jobs in the `service-mix` list (half per tenant).
pub const SERVICE_JOBS: usize = 400;

/// One job of the `service-mix` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceJob {
    /// Index into [`SERVICE_SPECS`].
    pub spec: usize,
    pub priority: i32,
}

/// The job list of one `service-mix` tenant, drawn from `seed` before any
/// clock starts.
///
/// Every block of ten jobs holds the specs in exactly the 5:3:2 mix, in a
/// seeded order, so any prefix of the list (a run cut short by its time
/// limit) and any seed carry the same amount of rendering: run-to-run
/// differences measure the program, not the draw. Priorities are uniform
/// in 0..=2.
pub fn service_jobs(seed: u64, tenant: usize, count: usize) -> Vec<ServiceJob> {
    let mut rng = Rng(seed ^ (tenant as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let block: Vec<usize> = SERVICE_SPECS
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, n))| std::iter::repeat_n(i, n))
        .collect();
    let mut jobs = Vec::with_capacity(count);
    while jobs.len() < count {
        let mut order = block.clone();
        // Fisher-Yates
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for spec in order {
            jobs.push(ServiceJob {
                spec,
                priority: rng.below(3) as i32,
            });
        }
    }
    jobs.truncate(count);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        let a = service_jobs(7, 0, 200);
        assert_eq!(a, service_jobs(7, 0, 200));
        assert_ne!(a, service_jobs(8, 0, 200));
        // the two tenants of one seed do not mirror each other
        assert_ne!(a, service_jobs(7, 1, 200));
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|j| (0..=2).contains(&j.priority)));
    }

    #[test]
    fn every_block_of_ten_has_the_exact_mix() {
        for seed in [1, 7, 1234] {
            for block in service_jobs(seed, 1, 200).chunks(10) {
                for (i, &(_, n)) in SERVICE_SPECS.iter().enumerate() {
                    assert_eq!(block.iter().filter(|j| j.spec == i).count(), n);
                }
            }
        }
    }

    #[test]
    fn demo_specs_build_the_farm_animations() {
        for scene in [Scene::Newton, Scene::Glassball] {
            let built = now_anim::scenes::from_spec(&scene.spec()).expect("spec parses");
            assert_eq!(
                now_core::scene_fingerprint64(&built),
                now_core::scene_fingerprint64(&scene.animation())
            );
        }
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::well_formed_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
    }
}
