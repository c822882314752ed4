//! The one fault grammar: [`ChaosPlan`]'s parser and printer.
//!
//! Three obligations: printing and re-parsing any plan is the identity;
//! every spec string the docs, CI and test suites have ever shown still
//! means the same plan; and the parser is total — any mangling of a valid
//! spec yields a plan or an error that names the clause at fault, never a
//! panic.

use now_cluster::{ChaosPlan, DiskFaultKind, DiskFaultPlan, FaultPlan, NetFault, NetFaultPlan};
use now_testkit::{cases, Rng};

fn parse(spec: &str) -> ChaosPlan {
    spec.parse()
        .unwrap_or_else(|e| panic!("{spec:?} must parse: {e}"))
}

/// A random spec string drawn from the grammar itself: random sections in
/// random order, random clause separators, stray whitespace.
fn random_spec(rng: &mut Rng) -> String {
    let unit = |rng: &mut Rng| rng.u32_in(0, 40);
    let secs = |rng: &mut Rng| f64::from(rng.u32_in(0, 4000)) / 64.0;
    let compute = |rng: &mut Rng| {
        let w = rng.usize_in(0, 6);
        match rng.u32_in(0, 6) {
            0 => format!("{w}:crash@{}", unit(rng)),
            1 => format!("{w}:stall@{}", unit(rng)),
            2 => format!("{w}:drop@{}", unit(rng)),
            3 => format!("{w}:corrupt@{}", unit(rng)),
            4 => format!("{w}:slow@{}x{}", unit(rng), secs(rng)),
            _ => format!("{w}:join@{}", secs(rng)),
        }
    };
    let net = |rng: &mut Rng| {
        let who = match rng.u32_in(0, 3) {
            0 => "*".to_string(),
            1 => format!("~{}", rng.unit_f64()),
            _ => rng.u32_in(0, 9).to_string(),
        };
        match rng.u32_in(0, 4) {
            0 => format!("{who}:drop@{}", rng.u32()),
            1 => format!("{who}:stall@{}", rng.u32()),
            2 => format!("{who}:delay@{}+{}", rng.u32(), secs(rng)),
            _ => format!("{who}:part@{}-{}", secs(rng), secs(rng)),
        }
    };
    let disk = |rng: &mut Rng| {
        let who = rng.string("abcdefghijklmnopqrstuvwxyz_./*0123456789", 1, 12);
        let kind = *rng.pick(&["enospc", "eio", "torn"]);
        format!("{who}:{kind}@{}", unit(rng))
    };
    let mut sections = vec![
        format!("seed={}", rng.u64()),
        format!("compute={}", join(rng, compute)),
        format!("net={}", join(rng, net)),
        format!("disk={}", join(rng, disk)),
    ];
    // any order, and sometimes one section short
    for i in (1..sections.len()).rev() {
        sections.swap(i, rng.usize_in(0, i + 1));
    }
    if rng.bool() {
        sections.pop();
    }
    sections.join(*rng.pick(&["|", " | ", "|\n"]))
}

fn join(rng: &mut Rng, mut clause: impl FnMut(&mut Rng) -> String) -> String {
    let clauses = rng.vec(1, 5, &mut clause);
    let mut out = String::new();
    for c in clauses {
        out.push_str(&c);
        out.push_str(rng.pick::<&str>(&[";", ",", " ; ", ", "]));
    }
    out
}

#[test]
fn printing_then_parsing_any_plan_is_the_identity() {
    cases(600, |rng| {
        let spec = random_spec(rng);
        let plan = parse(&spec);
        let printed = plan.to_string();
        assert_eq!(parse(&printed), plan, "{spec:?} printed as {printed:?}");
        assert_eq!(parse(&printed).to_string(), printed, "canonical form");
    });
    // and for a plan that never was a string: builders, all three sections
    let built = ChaosPlan {
        seed: 42,
        compute: FaultPlan::none()
            .crash_at(0, 3)
            .stall_at(1, 2)
            .slow_from(2, 4, 2.5)
            .drop_result_at(2, 9)
            .corrupt_from(5, 0)
            .join_at(4, 1.5),
        net: NetFaultPlan::none()
            .drop_after(2, 8000)
            .with(
                0,
                NetFault::Partition {
                    from_s: 0.5,
                    to_s: 1.5,
                },
            )
            .with(
                0,
                NetFault::DelayAfter {
                    bytes: 512,
                    for_s: 0.25,
                },
            ),
        disk: DiskFaultPlan::none()
            .enospc_at("run.journal", 6)
            .torn_at("*", 1),
    };
    assert_eq!(parse(&built.to_string()), built);
    assert_eq!(ChaosPlan::none().to_string(), "");
    assert!(parse("").is_empty() && parse(" | net=;, ").is_empty());
}

/// Every spec string README.md, DESIGN.md, ci.yml, the module docs and the
/// test suites have shown, with the canonical spelling of the plan it
/// yields.
const LEGACY: &[(&str, &str)] = &[
    // README chaos quickstart + the CI chaos-soak drill
    (
        "seed=11|compute=0:corrupt@0|net=1:drop@60000|disk=run.journal:enospc@6",
        "seed=11|compute=0:corrupt@0|net=1:drop@60000|disk=run.journal:enospc@6",
    ),
    // DESIGN.md (chaos orchestrator)
    (
        "seed=11|compute=1:corrupt@0,2:slow@4x25|net=0:drop@8000|disk=run.journal:enospc@6",
        "seed=11|compute=1:corrupt@0;2:slow@4x25|net=0:drop@8000|disk=run.journal:enospc@6",
    ),
    // nowfarm.rs header
    (
        "seed=11|compute=1:corrupt@0|net=0:drop@8000|disk=run.journal:enospc@6",
        "seed=11|compute=1:corrupt@0|net=0:drop@8000|disk=run.journal:enospc@6",
    ),
    // tests/chaos.rs soaks
    (
        "seed=11|compute=1:corrupt@1,2:slow@4x25|disk=frame_:eio@0;run.journal:enospc@6",
        "seed=11|compute=1:corrupt@1;2:slow@4x25|disk=frame_:eio@0;run.journal:enospc@6",
    ),
    (
        "seed=7|compute=0:corrupt@0|net=1:drop@6000",
        "seed=7|compute=0:corrupt@0|net=1:drop@6000",
    ),
    // chaos.rs docs
    (
        "seed=7|compute=1:corrupt@0,2:slow@1x40|net=2:drop@8000|disk=journal:enospc@2",
        "seed=7|compute=1:corrupt@0;2:slow@1x40|net=2:drop@8000|disk=journal:enospc@2",
    ),
    // the three per-domain grammars, as their sections (DESIGN.md net
    // fault examples, fault.rs / netfault.rs / chaos.rs docs)
    (
        "compute=1:corrupt@0,2:crash@3,0:slow@2x1.5,3:drop@4,4:stall@1,5:join@0.25",
        "compute=0:slow@2x1.5;1:corrupt@0;2:crash@3;3:drop@4;4:stall@1;5:join@0.25",
    ),
    (
        "seed=7|net=0:drop@4096;*:stall@1024;~0.3:delay@512+0.2;1:part@0.5-1.5",
        "seed=7|net=0:drop@4096;1:part@0.5-1.5;*:stall@1024;~0.3:delay@512+0.2",
    ),
    ("net=~0.25:part@2-3", "net=~0.25:part@2-3"),
    (
        "disk=journal:enospc@2;frame_0003:eio@0;*:torn@5",
        "disk=journal:enospc@2;frame_0003:eio@0;*:torn@5",
    ),
    // what tests/churn.rs used to say through the second env hook
    ("seed=3|net=2:drop@8000", "seed=3|net=2:drop@8000"),
];

#[test]
fn every_legacy_spec_yields_the_same_plan() {
    for (legacy, canonical) in LEGACY {
        assert_eq!(parse(legacy).to_string(), *canonical, "{legacy:?}");
    }

    // exact plans, wherever a builder can spell them
    let soak = parse(LEGACY[1].0);
    assert_eq!(soak.seed, 11);
    let compute = FaultPlan::none().corrupt_from(1, 0).slow_from(2, 4, 25.0);
    assert_eq!(soak.compute, compute);
    assert_eq!(soak.net, NetFaultPlan::none().drop_after(0, 8000));
    let disk = DiskFaultPlan::none().enospc_at("run.journal", 6);
    assert_eq!(soak.disk, disk);
    let every_compute_kind = FaultPlan::none()
        .corrupt_from(1, 0)
        .crash_at(2, 3)
        .slow_from(0, 2, 1.5)
        .drop_result_at(3, 4)
        .stall_at(4, 1)
        .join_at(5, 0.25);
    assert_eq!(parse(LEGACY[6].0).compute, every_compute_kind);
    let drill = ChaosPlan {
        seed: 3,
        net: NetFaultPlan::none().drop_after(2, 8000),
        ..ChaosPlan::none()
    };
    assert_eq!(parse("seed=3|net=2:drop@8000"), drill);

    // and by what they do, where no builder exists: `*`, `~P`, `eio`
    let net = parse(LEGACY[7].0);
    let conn9 = net.net.for_conn(9, net.seed);
    assert!(conn9.contains(&NetFault::StallAfter(1024)) && conn9.len() <= 2);
    let window = NetFault::Partition {
        from_s: 0.5,
        to_s: 1.5,
    };
    assert!(net.net.for_conn(1, net.seed).contains(&window));
    let delay = NetFault::DelayAfter {
        bytes: 512,
        for_s: 0.2,
    };
    let hits = (0..1000).filter(|&c| net.net.for_conn(c, net.seed).contains(&delay));
    assert!((200..400).contains(&hits.count()), "~0.3 of connections");
    let disk = parse(LEGACY[9].0).disk.arm();
    assert_eq!(disk.check("out/frame_0003.tga"), Some(DiskFaultKind::Eio));
    assert_eq!(
        disk.check("a/journal"),
        None,
        "enospc@2 waits for the 3rd write"
    );
    assert_eq!(disk.check("b/journal"), None);
    assert_eq!(disk.check("c/journal"), Some(DiskFaultKind::Enospc));
}

/// Garbage is refused with the offending clause (or section) quoted.
#[test]
fn errors_name_the_offending_clause() {
    for (spec, culprit) in [
        ("compute=1:corrupt", "1:corrupt"),
        ("compute=0:crash@1,x:crash@1", "x:crash@1"),
        ("compute=1:frobnicate@2", "1:frobnicate@2"),
        ("compute=0:slow@3", "0:slow@3"),
        ("net=0:drop", "0:drop"),
        ("net=0:explode@7", "0:explode@7"),
        ("net=x:drop@7", "x:drop@7"),
        ("net=~often:drop@7", "~often:drop@7"),
        ("net=0:delay@5;1:drop@1", "0:delay@5"),
        ("net=0:part@5", "0:part@5"),
        ("disk=journal:melt@2", "journal:melt@2"),
        ("disk=journal:eio", "journal:eio"),
        ("disk=enospc@2", "enospc@2"),
        ("disk=journal:eio@-1", "journal:eio@-1"),
        ("seed=banana|net=0:drop@1", "seed=banana"),
        ("compute", "compute"),
        ("warp=9", "warp=9"),
        // the net section's private seed is gone: the seed is the plan's
        ("net=seed=7;0:drop@1", "seed=7"),
    ] {
        let err = spec.parse::<ChaosPlan>().expect_err(spec);
        assert!(err.contains(&format!("`{culprit}`")), "{spec:?} -> {err:?}");
    }
}

/// Every prefix, single-byte deletion and single-byte substitution of a
/// valid spec returns `Ok` or `Err` — never panics — and every error
/// quotes a piece of the input it was given.
#[test]
fn parser_is_total_under_mangling() {
    let valid = "seed=7|compute=1:corrupt@0,2:slow@4x2.5;3:join@0.25|\
                 net=0:drop@4096;*:stall@1024;~0.3:delay@512+0.2;1:part@0.5-1.5|\
                 disk=run.journal:enospc@6;*:torn@5";
    assert!(!parse(valid).is_empty());
    let check = |mangled: &str| {
        if let Err(e) = mangled.parse::<ChaosPlan>() {
            let quoted = e.split('`').nth(1).unwrap_or_else(|| panic!("{e:?}"));
            assert!(mangled.contains(quoted), "{mangled:?} -> {e:?}");
        }
    };
    for cut in 0..=valid.len() {
        check(&valid[..cut]);
    }
    for at in 0..valid.len() {
        check(&format!("{}{}", &valid[..at], &valid[at + 1..]));
        for sub in " |=;,:@x+-~*.09azE\t\0".chars() {
            check(&format!("{}{sub}{}", &valid[..at], &valid[at + 1..]));
        }
    }
}
