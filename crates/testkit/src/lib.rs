#![warn(missing_docs)]

//! # now-testkit
//!
//! A tiny, dependency-free stand-in for the property-testing crate the
//! workspace used to pull from crates.io (`proptest`). The build
//! environment for this repository is fully offline, so every property
//! test runs on this kit instead.
//!
//! * [`Rng`] — a deterministic SplitMix64 generator with range helpers.
//! * [`cases`] — run a property over `n` generated cases; on failure the
//!   panic message carries the case index and seed so the exact input can
//!   be replayed with [`Rng::with_seed`].
//! * [`golden`] — golden-file assertions with `NOW_BLESS=1` regeneration,
//!   used by the trace-determinism harness and image regression tests.
//! * [`greedy_deflate`] — the reference deflate encoder whose bytes
//!   `now_raytrace::deflate` must reproduce.

pub mod golden;
pub mod greedy_deflate;

/// Deterministic pseudo-random generator (SplitMix64).
///
/// Not cryptographic; chosen for reproducibility and zero dependencies.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Generator seeded for test case `seed`.
    pub fn with_seed(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.u64() >> 56) as u8
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi);
        lo + (self.u64() % (hi - lo) as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.u64() % (hi - lo) as u64) as usize
    }

    /// A random-length `Vec` with elements drawn from `gen`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut gen: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.usize_in(lo, hi);
        (0..n).map(|_| gen(self)).collect()
    }

    /// A random ASCII string drawn from `alphabet`, length in `[lo, hi)`.
    pub fn string(&mut self, alphabet: &str, lo: usize, hi: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.usize_in(lo, hi);
        (0..n)
            .map(|_| chars[self.usize_in(0, chars.len())])
            .collect()
    }

    /// Pick one element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }
}

/// Run `property` over `n` deterministic cases. Each case gets an [`Rng`]
/// seeded with its index; a panic inside the property is re-raised with
/// the case seed attached so it can be replayed exactly.
pub fn cases(n: u64, property: impl Fn(&mut Rng)) {
    for seed in 0..n {
        let mut rng = Rng::with_seed(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property failed on case {seed} (Rng::with_seed({seed})): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::with_seed(7);
        let mut b = Rng::with_seed(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn ranges_hold() {
        let mut r = Rng::with_seed(1);
        for _ in 0..1000 {
            let f = r.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let u = r.u32_in(5, 9);
            assert!((5..9).contains(&u));
            let s = r.string("ab", 0, 4);
            assert!(s.len() < 4);
        }
    }

    #[test]
    fn cases_runs_all() {
        let mut count = 0u64;
        // property closures are Fn; count via a Cell
        let counter = std::cell::Cell::new(0u64);
        cases(25, |_| counter.set(counter.get() + 1));
        count += counter.get();
        assert_eq!(count, 25);
    }

    #[test]
    #[should_panic(expected = "property failed on case")]
    fn cases_reports_seed() {
        cases(10, |rng| {
            let v = rng.u32_in(0, 100);
            assert!(v != v, "always fails");
        });
    }
}
