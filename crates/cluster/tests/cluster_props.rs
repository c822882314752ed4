//! Property tests for the cluster substrate: codec round-trips, decoder
//! robustness, and simulator invariants (determinism, work conservation,
//! makespan bounds) — with and without injected faults.

use now_cluster::logic::{MasterWork, WorkCost};
use now_cluster::{
    Decoder, Encoder, FaultPlan, MachineSpec, MasterLogic, RecoveryConfig, SimCluster, WorkerLogic,
};
use now_testkit::{cases, Rng};

#[derive(Debug, Clone, PartialEq)]
enum Item {
    U8(u8),
    U32(u32),
    U64(u64),
    F64(f64),
    Str(String),
    Bytes(Vec<u8>),
    U32s(Vec<u32>),
}

fn random_item(rng: &mut Rng) -> Item {
    match rng.usize_in(0, 7) {
        0 => Item::U8(rng.u8()),
        1 => Item::U32(rng.u32()),
        2 => Item::U64(rng.u64()),
        3 => {
            // finite doubles only: the codec stores raw bits, but NaN
            // breaks the equality check below
            let mut f = rng.f64_in(-1e12, 1e12);
            if !f.is_finite() {
                f = 0.0;
            }
            Item::F64(f)
        }
        4 => Item::Str(rng.string("abcdefghijklmnopqrstuvwxyz0123456789 _-", 0, 41)),
        5 => Item::Bytes(rng.vec(0, 64, Rng::u8)),
        _ => Item::U32s(rng.vec(0, 32, Rng::u32)),
    }
}

/// Any sequence of encoded items decodes back identically.
#[test]
fn codec_roundtrip() {
    cases(256, |rng| {
        let items = rng.vec(0, 20, random_item);
        let mut e = Encoder::new();
        for it in &items {
            match it {
                Item::U8(v) => {
                    e.u8(*v);
                }
                Item::U32(v) => {
                    e.u32(*v);
                }
                Item::U64(v) => {
                    e.u64(*v);
                }
                Item::F64(v) => {
                    e.f64(*v);
                }
                Item::Str(v) => {
                    e.str(v);
                }
                Item::Bytes(v) => {
                    e.bytes(v);
                }
                Item::U32s(v) => {
                    e.u32_slice(v);
                }
            }
        }
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        for it in &items {
            match it {
                Item::U8(v) => assert_eq!(d.u8().unwrap(), *v),
                Item::U32(v) => assert_eq!(d.u32().unwrap(), *v),
                Item::U64(v) => assert_eq!(d.u64().unwrap(), *v),
                Item::F64(v) => assert_eq!(d.f64().unwrap(), *v),
                Item::Str(v) => assert_eq!(d.str().unwrap(), v),
                Item::Bytes(v) => assert_eq!(d.bytes().unwrap(), &v[..]),
                Item::U32s(v) => assert_eq!(&d.u32_vec().unwrap(), v),
            }
        }
        assert!(d.is_done());
    });
}

/// Decoding arbitrary garbage never panics — it errors or yields values.
#[test]
fn decoder_never_panics() {
    cases(512, |rng| {
        let bytes = rng.vec(0, 128, Rng::u8);
        let mut d = Decoder::new(&bytes);
        // try a fixed schedule of reads; all must return (not panic)
        let _ = d.u8();
        let _ = d.u32();
        let _ = d.str();
        let _ = d.u32_vec();
        let _ = d.f64();
        let _ = d.bytes();
        let _ = d.remaining();
    });
}

/// Corrupting a valid payload produces a clean `DecodeError` (or decodes
/// to different values) — never a panic, and the error says where.
#[test]
fn corrupted_payload_fails_cleanly() {
    cases(256, |rng| {
        let mut e = Encoder::new();
        e.u32(rng.u32())
            .str("frame header")
            .u32_slice(&[1, 2, 3])
            .f64(0.25);
        let mut buf = e.finish();
        // corrupt: either truncate or flip bytes
        if rng.bool() && !buf.is_empty() {
            buf.truncate(rng.usize_in(0, buf.len()));
        } else {
            for _ in 0..rng.usize_in(1, 5) {
                let i = rng.usize_in(0, buf.len());
                buf[i] ^= rng.u8() | 1;
            }
        }
        let mut d = Decoder::new(&buf);
        let r = (|| -> Result<(), now_cluster::codec::DecodeError> {
            d.u32()?;
            d.str()?;
            d.u32_vec()?;
            d.f64()?;
            Ok(())
        })();
        if let Err(err) = r {
            assert!(err.at <= buf.len(), "error offset {} out of range", err.at);
            assert!(!err.to_string().is_empty());
        }
    });
}

// ---------------------------------------------------------------------
// simulator invariants
// ---------------------------------------------------------------------

struct Pool {
    costs: Vec<f64>,
    next: usize,
    done: Vec<bool>,
}

impl MasterLogic for Pool {
    type Unit = usize;
    type Result = usize;
    fn assign(&mut self, _w: usize) -> Option<usize> {
        if self.next < self.costs.len() {
            self.next += 1;
            Some(self.next - 1)
        } else {
            None
        }
    }
    fn integrate(&mut self, _w: usize, unit: usize, result: usize) -> Option<MasterWork> {
        assert_eq!(unit, result);
        assert!(!self.done[unit], "unit {unit} integrated twice");
        self.done[unit] = true;
        Some(MasterWork::default())
    }
}

#[derive(Clone)]
struct Exec {
    costs: Vec<f64>,
}

impl WorkerLogic for Exec {
    type Unit = usize;
    type Result = usize;
    fn perform(&mut self, unit: &usize) -> (usize, WorkCost) {
        (
            *unit,
            WorkCost {
                work_units: self.costs[*unit],
                result_bytes: 256,
                working_set_mb: 0.0,
            },
        )
    }
}

#[test]
fn sim_completes_everything_and_respects_bounds() {
    cases(40, |rng| {
        let costs = rng.vec(1, 40, |r| r.f64_in(0.01, 2.0));
        let speeds = rng.vec(1, 5, |r| r.f64_in(0.5, 4.0));
        let machines: Vec<MachineSpec> = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| MachineSpec::new(&format!("m{i}"), s, 64.0))
            .collect();
        let cluster = SimCluster::new(machines);
        let master = Pool {
            costs: costs.clone(),
            next: 0,
            done: vec![false; costs.len()],
        };
        let workers: Vec<Exec> = speeds
            .iter()
            .map(|_| Exec {
                costs: costs.clone(),
            })
            .collect();
        let (master, report) = cluster.run(master, workers);

        // completion
        assert!(master.done.iter().all(|&d| d));
        assert_eq!(
            report.machines.iter().map(|m| m.units_done).sum::<u64>() as usize,
            costs.len()
        );

        let total_work: f64 = costs.iter().sum();
        let total_speed: f64 = speeds.iter().sum();
        // lower bound: perfect parallelism, no comm
        let lower = total_work / total_speed;
        assert!(
            report.makespan_s >= lower - 1e-9,
            "makespan {} below physical bound {lower}",
            report.makespan_s
        );
        // upper bound: everything serial on the slowest machine + generous
        // per-message overhead
        let min_speed = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let upper = total_work / min_speed + 1.0 + costs.len() as f64 * 0.1;
        assert!(
            report.makespan_s <= upper,
            "makespan {} above bound {upper}",
            report.makespan_s
        );

        // determinism
        let master2 = Pool {
            costs: costs.clone(),
            next: 0,
            done: vec![false; costs.len()],
        };
        let workers2: Vec<Exec> = speeds
            .iter()
            .map(|_| Exec {
                costs: costs.clone(),
            })
            .collect();
        let (_, report2) = cluster.run(master2, workers2);
        assert_eq!(report, report2);
    });
}

/// Under randomly injected single-worker faults with recovery enabled and
/// at least one healthy machine, every unit still completes exactly once
/// and the faulty run remains deterministic.
#[test]
fn sim_faulty_runs_complete_exactly_once() {
    cases(40, |rng| {
        let costs = rng.vec(4, 30, |r| r.f64_in(0.05, 1.0));
        let n = rng.usize_in(2, 5);
        let machines: Vec<MachineSpec> = (0..n)
            .map(|i| MachineSpec::new(&format!("m{i}"), 1.0, 64.0))
            .collect();

        // one faulty worker (never worker 0, so a healthy machine remains)
        let victim = rng.usize_in(1, n);
        let unit = rng.usize_in(0, 4) as u64;
        let faults = match rng.usize_in(0, 4) {
            0 => FaultPlan::none().crash_at(victim, unit),
            1 => FaultPlan::none().stall_at(victim, unit),
            2 => FaultPlan::none().slow_from(victim, unit, rng.f64_in(20.0, 80.0)),
            _ => FaultPlan::none().drop_result_at(victim, unit),
        };
        let mut cluster = SimCluster::new(machines);
        cluster.faults = faults;
        cluster.recovery = RecoveryConfig {
            lease_timeout_s: rng.f64_in(3.0, 10.0),
            max_worker_failures: rng.u32_in(1, 4),
            ..RecoveryConfig::default()
        };

        let run = |cluster: &SimCluster| {
            let master = Pool {
                costs: costs.clone(),
                next: 0,
                done: vec![false; costs.len()],
            };
            let workers: Vec<Exec> = (0..n)
                .map(|_| Exec {
                    costs: costs.clone(),
                })
                .collect();
            cluster.run(master, workers)
        };
        let (master, report) = run(&cluster);
        assert!(
            master.done.iter().all(|&d| d),
            "incomplete run despite a healthy worker: {:?}",
            report
        );
        let (_, report2) = run(&cluster);
        assert_eq!(report, report2, "faulty runs must be deterministic");
    });
}
