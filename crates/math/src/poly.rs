//! Real-root polynomial solvers up to quartics.
//!
//! Needed by the torus primitive (ray-torus intersection is a quartic).
//! The solvers return real roots in ascending order; quartic roots are
//! polished with a few Newton steps because the closed-form (Ferrari)
//! resolution loses precision for ill-conditioned coefficient sets.

/// Solve `a x^2 + b x + c = 0`; returns 0..=2 real roots, ascending.
///
/// Uses the numerically stable form (avoids catastrophic cancellation when
/// `b^2 >> 4ac`).
pub fn solve_quadratic(a: f64, b: f64, c: f64) -> Vec<f64> {
    if a.abs() < 1e-14 {
        if b.abs() < 1e-14 {
            return Vec::new();
        }
        return vec![-c / b];
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return Vec::new();
    }
    let sq = disc.sqrt();
    let q = -0.5 * (b + b.signum() * sq);
    let (mut r0, mut r1) = if q.abs() < 1e-300 {
        (0.0, 0.0)
    } else {
        (q / a, c / q)
    };
    if r0 > r1 {
        std::mem::swap(&mut r0, &mut r1);
    }
    if disc == 0.0 {
        vec![r0]
    } else {
        vec![r0, r1]
    }
}

/// Solve the *depressed* cubic `t^3 + p t + q = 0` for one real root.
fn depressed_cubic_root(p: f64, q: f64) -> f64 {
    let disc = (q / 2.0) * (q / 2.0) + (p / 3.0) * (p / 3.0) * (p / 3.0);
    if disc >= 0.0 {
        let sq = disc.sqrt();
        let u = (-q / 2.0 + sq).cbrt();
        let v = (-q / 2.0 - sq).cbrt();
        u + v
    } else {
        // three real roots; take the one via trigonometric form
        let r = (-(p / 3.0) * (p / 3.0) * (p / 3.0)).sqrt();
        let phi = (-q / (2.0 * r)).clamp(-1.0, 1.0).acos();
        2.0 * (-(p / 3.0)).sqrt() * (phi / 3.0).cos()
    }
}

/// Solve `a x^3 + b x^2 + c x + d = 0`; returns 1..=3 real roots, ascending.
fn solve_cubic(a: f64, b: f64, c: f64, d: f64) -> Vec<f64> {
    if a.abs() < 1e-14 {
        return solve_quadratic(b, c, d);
    }
    let (b, c, d) = (b / a, c / a, d / a);
    // depress: x = t - b/3
    let shift = b / 3.0;
    let p = c - b * b / 3.0;
    let q = 2.0 * b * b * b / 27.0 - b * c / 3.0 + d;
    let t0 = depressed_cubic_root(p, q);
    let x0 = t0 - shift;
    // deflate by (x - x0): x^2 + (b + x0) x + (c + (b + x0) x0)
    let b1 = b + x0;
    let c1 = c + b1 * x0;
    let mut roots = solve_quadratic(1.0, b1, c1);
    roots.push(x0);
    roots.sort_by(f64::total_cmp);
    roots.dedup_by(|a, b| (*a - *b).abs() < 1e-9 * (1.0 + a.abs()));
    roots
}

/// One Newton step bundle for polishing a quartic root.
fn polish_quartic(coef: &[f64; 5], mut x: f64) -> f64 {
    for _ in 0..3 {
        let f = ((coef[4] * x + coef[3]) * x + coef[2]) * x * x + coef[1] * x + coef[0];
        let df = ((4.0 * coef[4] * x + 3.0 * coef[3]) * x + 2.0 * coef[2]) * x + coef[1];
        if df.abs() < 1e-14 {
            break;
        }
        let step = f / df;
        x -= step;
        if step.abs() < 1e-14 * (1.0 + x.abs()) {
            break;
        }
    }
    x
}

/// Solve `c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0 = 0`; returns the real
/// roots in ascending order (duplicates merged).
///
/// Ferrari's method via the resolvent cubic, followed by Newton polishing.
pub fn solve_quartic(c4: f64, c3: f64, c2: f64, c1: f64, c0: f64) -> Vec<f64> {
    if c4.abs() < 1e-14 {
        return solve_cubic(c3, c2, c1, c0);
    }
    let coef = [c0, c1, c2, c3, c4];
    let (a, b, c, d) = (c3 / c4, c2 / c4, c1 / c4, c0 / c4);
    // depress: x = y - a/4  ->  y^4 + p y^2 + q y + r = 0
    let a2 = a * a;
    let p = b - 3.0 * a2 / 8.0;
    let q = c - a * b / 2.0 + a2 * a / 8.0;
    let r = d - a * c / 4.0 + a2 * b / 16.0 - 3.0 * a2 * a2 / 256.0;
    let shift = a / 4.0;

    let mut roots: Vec<f64> = Vec::with_capacity(4);
    if q.abs() < 1e-12 {
        // biquadratic: y^4 + p y^2 + r = 0
        for z in solve_quadratic(1.0, p, r) {
            if z >= 0.0 {
                let s = z.sqrt();
                roots.push(s - shift);
                roots.push(-s - shift);
            }
        }
    } else {
        // resolvent cubic: z^3 + 2p z^2 + (p^2 - 4r) z - q^2 = 0, pick a
        // positive root z (exists when the quartic has real roots)
        let res = solve_cubic(1.0, 2.0 * p, p * p - 4.0 * r, -q * q);
        let z = res
            .iter()
            .copied()
            .filter(|&z| z > 1e-14)
            .fold(f64::NAN, f64::max);
        if z.is_nan() {
            return Vec::new();
        }
        let s = z.sqrt();
        // y^4 + p y^2 + q y + r = (y^2 + s y + u)(y^2 - s y + v)
        let u = (p + z - q / s) / 2.0;
        let v = (p + z + q / s) / 2.0;
        for y in solve_quadratic(1.0, s, u) {
            roots.push(y - shift);
        }
        for y in solve_quadratic(1.0, -s, v) {
            roots.push(y - shift);
        }
    }
    let mut roots: Vec<f64> = roots
        .into_iter()
        .map(|x| polish_quartic(&coef, x))
        .filter(|x| x.is_finite())
        .collect();
    roots.sort_by(f64::total_cmp);
    roots.dedup_by(|a, b| (*a - *b).abs() < 1e-7 * (1.0 + a.abs()));
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_roots(actual: &[f64], expected: &[f64], tol: f64) {
        assert_eq!(
            actual.len(),
            expected.len(),
            "root count: got {actual:?}, want {expected:?}"
        );
        for (a, e) in actual.iter().zip(expected.iter()) {
            assert!((a - e).abs() < tol, "root {a} != {e} (all: {actual:?})");
        }
    }

    #[test]
    fn quadratic_basic() {
        assert_roots(&solve_quadratic(1.0, -3.0, 2.0), &[1.0, 2.0], 1e-12);
        assert!(solve_quadratic(1.0, 0.0, 1.0).is_empty());
        assert_roots(&solve_quadratic(1.0, -2.0, 1.0), &[1.0], 1e-12);
        // linear fallback
        assert_roots(&solve_quadratic(0.0, 2.0, -4.0), &[2.0], 1e-12);
        assert!(solve_quadratic(0.0, 0.0, 1.0).is_empty());
    }

    #[test]
    fn quadratic_cancellation_stability() {
        // x^2 - 1e8 x + 1 = 0: roots ~1e8 and ~1e-8
        let r = solve_quadratic(1.0, -1e8, 1.0);
        assert_eq!(r.len(), 2);
        assert!((r[0] - 1e-8).abs() < 1e-15);
        assert!((r[1] - 1e8).abs() < 1.0);
    }

    #[test]
    fn cubic_three_real_roots() {
        // (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        assert_roots(&solve_cubic(1.0, -6.0, 11.0, -6.0), &[1.0, 2.0, 3.0], 1e-9);
    }

    #[test]
    fn cubic_one_real_root() {
        // (x-2)(x^2+1) = x^3 - 2x^2 + x - 2
        assert_roots(&solve_cubic(1.0, -2.0, 1.0, -2.0), &[2.0], 1e-9);
    }

    #[test]
    fn cubic_triple_root() {
        // (x+1)^3
        let r = solve_cubic(1.0, 3.0, 3.0, 1.0);
        assert!(!r.is_empty());
        for x in r {
            assert!((x + 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn quartic_four_real_roots() {
        // (x-1)(x+1)(x-2)(x+2) = x^4 - 5x^2 + 4
        assert_roots(
            &solve_quartic(1.0, 0.0, -5.0, 0.0, 4.0),
            &[-2.0, -1.0, 1.0, 2.0],
            1e-9,
        );
    }

    #[test]
    fn quartic_mixed_roots() {
        // (x-1)(x-3)(x^2+1) = x^4 -4x^3 +4x^2 -4x +3
        assert_roots(&solve_quartic(1.0, -4.0, 4.0, -4.0, 3.0), &[1.0, 3.0], 1e-8);
    }

    #[test]
    fn quartic_no_real_roots() {
        // x^4 + 1
        assert!(solve_quartic(1.0, 0.0, 0.0, 0.0, 1.0).is_empty());
        // (x^2+1)(x^2+4)
        assert!(solve_quartic(1.0, 0.0, 5.0, 0.0, 4.0).is_empty());
    }

    #[test]
    fn quartic_shifted_and_scaled() {
        // 3 * (x-0.5)^2 (x-5)(x+7)
        // expand: roots {0.5 (double), 5, -7}
        let c = |x: f64| 3.0 * (x - 0.5) * (x - 0.5) * (x - 5.0) * (x + 7.0);
        // coefficients by expansion
        // (x-0.5)^2 = x^2 - x + 0.25
        // (x-5)(x+7) = x^2 + 2x - 35
        // product = x^4 + x^3 - 36.75x^2 + 35.5x - 8.75
        let roots = solve_quartic(3.0, 3.0, -110.25, 106.5, -26.25);
        for x in &roots {
            assert!(c(*x).abs() < 1e-5, "f({x}) = {}", c(*x));
        }
        assert!(roots.iter().any(|x| (x - 5.0).abs() < 1e-6));
        assert!(roots.iter().any(|x| (x + 7.0).abs() < 1e-6));
        assert!(roots.iter().any(|x| (x - 0.5).abs() < 1e-3));
    }

    #[test]
    fn quartic_residuals_are_small_for_random_coefficients() {
        // light deterministic fuzz
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 20.0 - 10.0
        };
        for _ in 0..500 {
            let (c4, c3, c2, c1, c0) = (next(), next(), next(), next(), next());
            if c4.abs() < 0.1 {
                continue;
            }
            let scale = c4
                .abs()
                .max(c3.abs())
                .max(c2.abs())
                .max(c1.abs())
                .max(c0.abs());
            for x in solve_quartic(c4, c3, c2, c1, c0) {
                let f = (((c4 * x + c3) * x + c2) * x + c1) * x + c0;
                let xm = 1.0 + x.abs();
                prop_residual(f, scale * xm * xm * xm * xm);
            }
        }
        fn prop_residual(f: f64, scale: f64) {
            assert!(f.abs() <= 1e-6 * scale, "residual {f} vs scale {scale}");
        }
    }
}
