//! Property tests cross-checking the DDA against a brute-force overlap test.

use now_grid::dda::{step_strides, IndexWalk, Traverse, VoxelPathBuf};
use now_grid::{GridSpec, GridTraversal, Voxel};
use now_math::{Aabb, Interval, Point3, Ray, Vec3};
use now_testkit::{cases, Rng};
use std::collections::BTreeSet;

fn grid(rng: &mut Rng) -> GridSpec {
    GridSpec::new(
        Aabb::new(Point3::ZERO, Point3::new(8.0, 8.0, 8.0)),
        [
            rng.u32_in(2, 8) as u16,
            rng.u32_in(2, 8) as u16,
            rng.u32_in(2, 8) as u16,
        ],
    )
}

fn ray(rng: &mut Rng) -> Ray {
    loop {
        let o = Point3::new(
            rng.f64_in(-4.0, 12.0),
            rng.f64_in(-4.0, 12.0),
            rng.f64_in(-4.0, 12.0),
        );
        let dir = Vec3::new(
            rng.f64_in(-1.0, 1.0),
            rng.f64_in(-1.0, 1.0),
            rng.f64_in(-1.0, 1.0),
        );
        if let Some(dir) = dir.try_normalized(1e-3) {
            return Ray::new(o, dir);
        }
    }
}

/// Brute force: every voxel whose box the ray passes through for a segment of
/// length > eps (in t).
fn brute_force(spec: &GridSpec, ray: &Ray, t_range: Interval, eps: f64) -> BTreeSet<Voxel> {
    let mut out = BTreeSet::new();
    for i in 0..spec.voxel_count() {
        let v = spec.voxel_from_linear(i);
        let r = spec.voxel_bounds(v).ray_range(ray, t_range);
        if !r.is_empty() && r.length() > eps {
            out.insert(v);
        }
    }
    out
}

/// Every voxel the ray robustly crosses must be visited by the DDA, and
/// every DDA voxel must at least graze the ray.
#[test]
fn dda_matches_brute_force() {
    cases(200, |rng| {
        let spec = grid(rng);
        let r = ray(rng);
        let range = Interval::non_negative();
        let dda: BTreeSet<Voxel> = GridTraversal::new(&spec, &r, range)
            .map(|s| s.voxel)
            .collect();
        let must_visit = brute_force(&spec, &r, range, 1e-7);
        let may_visit = brute_force(&spec, &r, range, -1e-12); // grazing allowed

        for v in &must_visit {
            assert!(dda.contains(v), "DDA missed robustly-crossed voxel {v:?}");
        }
        for v in &dda {
            assert!(
                may_visit.contains(v),
                "DDA visited voxel the ray misses {v:?}"
            );
        }
    });
}

/// The walk is 6-connected and its t-intervals tile the clipped range.
#[test]
fn dda_walk_is_connected() {
    cases(200, |rng| {
        let spec = grid(rng);
        let r = ray(rng);
        let steps: Vec<_> = GridTraversal::new(&spec, &r, Interval::non_negative()).collect();
        for w in steps.windows(2) {
            let (a, b) = (w[0].voxel, w[1].voxel);
            let d = (a.x as i32 - b.x as i32).abs()
                + (a.y as i32 - b.y as i32).abs()
                + (a.z as i32 - b.z as i32).abs();
            assert_eq!(d, 1);
            assert!((w[0].t_exit - w[1].t_enter).abs() < 1e-9);
        }
        for s in &steps {
            assert!(s.t_exit >= s.t_enter - 1e-12);
        }
    });
}

/// Restricting the t-range only removes voxels from the walk.
#[test]
fn dda_range_restriction_is_monotone() {
    cases(200, |rng| {
        let spec = grid(rng);
        let r = ray(rng);
        let hi = rng.f64_in(0.1, 20.0);
        let full: BTreeSet<Voxel> = GridTraversal::new(&spec, &r, Interval::non_negative())
            .map(|s| s.voxel)
            .collect();
        let limited: BTreeSet<Voxel> = GridTraversal::new(&spec, &r, Interval::new(0.0, hi))
            .map(|s| s.voxel)
            .collect();
        assert!(limited.is_subset(&full));
    });
}

/// The walk never steps outside the grid resolution, for rays starting
/// inside, outside, on faces, and for near-axis directions — the classic
/// DDA failure modes.
#[test]
fn dda_never_exits_grid_bounds() {
    cases(400, |rng| {
        let spec = grid(rng);
        let r = if rng.bool() {
            ray(rng)
        } else {
            // near-axis ray from a face: tiny cross components stress the
            // t_max bookkeeping where exits historically go wrong
            let axis = rng.usize_in(0, 3);
            let mut d = [rng.f64_in(-1e-6, 1e-6); 3];
            d[axis] = if rng.bool() { 1.0 } else { -1.0 };
            let mut o = [rng.f64_in(0.0, 8.0); 3];
            o[axis] = if d[axis] > 0.0 { 0.0 } else { 8.0 };
            Ray::new(
                Point3::new(o[0], o[1], o[2]),
                Vec3::new(d[0], d[1], d[2]).normalized(),
            )
        };
        let mut steps = 0usize;
        for s in GridTraversal::new(&spec, &r, Interval::non_negative()) {
            assert!(
                spec.in_range(s.voxel),
                "DDA stepped outside the grid: {:?}",
                s.voxel
            );
            steps += 1;
        }
        // a monotone 6-connected walk can never revisit a voxel, so it is
        // bounded by the voxel count (a loop would blow well past this)
        assert!(steps <= spec.voxel_count(), "walk visited {steps} voxels");
    });
}

/// Overlap rasterisation agrees with per-voxel box overlap.
#[test]
fn overlap_matches_brute_force() {
    cases(200, |rng| {
        let spec = grid(rng);
        let c = Point3::new(
            rng.f64_in(-2.0, 10.0),
            rng.f64_in(-2.0, 10.0),
            rng.f64_in(-2.0, 10.0),
        );
        let h = rng.f64_in(0.01, 4.0);
        let b = Aabb::cube(c, h);
        let fast: BTreeSet<Voxel> = spec.voxels_overlapping_vec(&b).into_iter().collect();
        let mut slow = BTreeSet::new();
        for i in 0..spec.voxel_count() {
            let v = spec.voxel_from_linear(i);
            if spec.voxel_bounds(v).overlaps(&b) {
                slow.insert(v);
            }
        }
        assert_eq!(fast, slow);
    });
}

/// Early-exit traversal visits a prefix of the full walk.
#[test]
fn visitor_prefix() {
    cases(200, |rng| {
        let spec = grid(rng);
        let r = ray(rng);
        let k = rng.usize_in(1, 5);
        let full: Vec<Voxel> = spec.traverse_vec(&r, Interval::non_negative());
        let mut prefix = Vec::new();
        spec.traverse(&r, Interval::non_negative(), |s| {
            prefix.push(s.voxel);
            prefix.len() < k
        });
        assert!(prefix.len() <= k.min(full.len()).max(1).min(full.len().max(1)));
        assert_eq!(&full[..prefix.len()], &prefix[..]);
    });
}

/// The rays the index walk is most likely to get wrong: axis-aligned on a voxel boundary plane, origin inside the grid,
/// pointing away (a miss), strictly negative directions, and the generic
/// ray of the other properties (inside, outside, leaving the grid).
fn nasty_ray(rng: &mut Rng, spec: &GridSpec) -> Ray {
    let size = spec.voxel_size();
    match rng.u64() % 6 {
        0 => {
            let axis = rng.usize_in(0, 3);
            let mut d = [0.0; 3];
            d[axis] = if rng.bool() { 1.0 } else { -1.0 };
            // the other two coordinates sit exactly on boundary planes
            let mut o = [
                size.x * rng.u32_in(0, spec.res[0] as u32 + 1) as f64,
                size.y * rng.u32_in(0, spec.res[1] as u32 + 1) as f64,
                size.z * rng.u32_in(0, spec.res[2] as u32 + 1) as f64,
            ];
            o[axis] = if d[axis] > 0.0 { -1.0 } else { 9.0 };
            Ray::new(Point3::new(o[0], o[1], o[2]), Vec3::new(d[0], d[1], d[2]))
        }
        1 => {
            let o = Point3::new(
                rng.f64_in(0.0, 8.0),
                rng.f64_in(0.0, 8.0),
                rng.f64_in(0.0, 8.0),
            );
            Ray::new(o, ray(rng).dir)
        }
        2 => {
            let r = ray(rng);
            // from outside the grid, heading away from its centre
            let o = Point3::new(4.0, 4.0, 4.0) + r.dir * 9.0;
            Ray::new(o, r.dir)
        }
        3 => {
            let d = Vec3::new(
                -rng.f64_in(1e-3, 1.0),
                -rng.f64_in(1e-3, 1.0),
                -rng.f64_in(1e-3, 1.0),
            );
            Ray::new(ray(rng).origin, d.normalized())
        }
        _ => ray(rng),
    }
}

/// `IndexWalk` visits exactly `GridTraversal`'s voxels, in order and with
/// its entry parameters — the accelerator's early-out, the coherence
/// engine's mark counts and the dirty sets rest on it.
#[test]
fn index_walk_visits_the_traversals_voxels() {
    let walked = std::cell::Cell::new(0usize);
    let missed = std::cell::Cell::new(0usize);
    cases(4800, |rng| {
        let spec = grid(rng);
        let r = nasty_ray(rng, &spec);
        // half the rays stop at a hit distance, often inside the grid
        let range = if rng.bool() {
            Interval::non_negative()
        } else {
            Interval::new(0.0, rng.f64_in(0.0, 16.0))
        };
        let expected: Vec<(usize, u64)> = GridTraversal::new(&spec, &r, range)
            .map(|s| (spec.linear_index(s.voxel), s.t_enter.to_bits()))
            .collect();
        let strides = step_strides(&spec);
        let got: Vec<(usize, u64)> = match IndexWalk::new(&spec, &r, range) {
            None => Vec::new(),
            Some(mut walk) => {
                let mut at = walk.cell();
                let mut out = vec![(at, walk.t_enter().to_bits())];
                while let Some(code) = walk.advance() {
                    assert!(code < 6, "step code {code}");
                    at = at.checked_add_signed(strides[code as usize]).unwrap();
                    assert_eq!(walk.cell(), at, "cell and step code disagree");
                    out.push((at, walk.t_enter().to_bits()));
                }
                // a finished walk stays finished, where it stopped
                assert_eq!(walk.advance(), None);
                assert_eq!(walk.cell(), at);
                out
            }
        };
        assert_eq!(got, expected, "ray {r:?} range {range:?} in {spec:?}");
        if expected.is_empty() {
            missed.set(missed.get() + 1);
        } else {
            walked.set(walked.get() + 1);
        }
    });
    // the generator really covers both outcomes
    assert!(walked.get() >= 2000, "{} rays walked", walked.get());
    assert!(missed.get() >= 400, "{} rays missed", missed.get());
}

/// The voxels a packed path visits, decoded the way the path log's reader
/// does.
fn path_cells(spec: &GridSpec, path: &VoxelPathBuf) -> Vec<usize> {
    let Some(p) = path.path() else {
        return Vec::new();
    };
    assert_eq!(p.codes.len(), p.steps.div_ceil(2));
    let strides = step_strides(spec);
    let mut at = p.start;
    let mut out = vec![at];
    for i in 0..p.codes.len() * 2 {
        let code = p.codes[i / 2] >> (4 * (i & 1)) & 0x0f;
        if i < p.steps {
            assert!(code < 6, "step code {code}");
            at = at.checked_add_signed(strides[code as usize]).unwrap();
            out.push(at);
        } else {
            assert_eq!(code, 6, "an odd path pads with the code of no move");
        }
    }
    out
}

/// What lets the tracer record the walk it takes *before* it knows where
/// the ray ends: a walk of `[0, far]` cut back with `keep_before(t)` is,
/// byte for byte, the walk of `[0, t]`.
#[test]
fn a_recorded_walk_cut_at_t_is_the_walk_of_the_cut_range() {
    let cut_short = std::cell::Cell::new(0usize);
    let emptied = std::cell::Cell::new(0usize);
    cases(4800, |rng| {
        let spec = grid(rng);
        let r = nasty_ray(rng, &spec);
        let far = if rng.bool() { f64::INFINITY } else { 16.0 };
        let mut long = VoxelPathBuf::default();
        let Some(mut walk) = IndexWalk::new(&spec, &r, Interval::new(0.0, far)) else {
            // no walk of a shorter range exists either
            assert!(IndexWalk::new(&spec, &r, Interval::new(0.0, rng.f64_in(0.0, 16.0))).is_none());
            return;
        };
        long.begin(&walk);
        let mut enters = vec![walk.t_enter()];
        while let Some(code) = walk.advance() {
            long.push(code, walk.t_enter());
            enters.push(walk.t_enter());
        }
        let full = path_cells(&spec, &long);
        assert_eq!(full.len(), enters.len());
        // cut at a random distance, or exactly where some voxel is entered
        let t = match rng.u32_in(0, 3) {
            0 => *rng.pick(&enters),
            _ => rng.f64_in(0.0, 16.0),
        };
        long.keep_before(t);
        let mut short = VoxelPathBuf::default();
        short.record(&spec, &r, Interval::new(0.0, t));
        let (got, want) = (long.path(), short.path());
        assert_eq!(got, want, "ray {r:?} cut at {t} in {spec:?}");
        let kept = path_cells(&spec, &long);
        assert_eq!(kept[..], full[..kept.len()]);
        if kept.is_empty() {
            emptied.set(emptied.get() + 1);
        } else if kept.len() < full.len() {
            cut_short.set(cut_short.get() + 1);
        }
    });
    assert!(cut_short.get() >= 800, "{} walks cut", cut_short.get());
    assert!(emptied.get() >= 50, "{} walks emptied", emptied.get());
}
