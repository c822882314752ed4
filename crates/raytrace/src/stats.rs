//! Ray and intersection statistics.
//!
//! Table 1 of the paper reports total ray counts per configuration; these
//! counters are the source of those numbers, and the cluster simulator's
//! cost model charges CPU work proportional to them.

use crate::listener::RayKind;

/// Counters accumulated while rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RayStats {
    /// Camera (primary) rays fired.
    pub primary: u64,
    /// Reflected rays fired.
    pub reflected: u64,
    /// Transmitted (refracted) rays fired.
    pub transmitted: u64,
    /// Shadow rays fired.
    pub shadow: u64,
    /// Ray-object intersection tests performed: distinct object tests per
    /// query, since a grid walk tests an object once however many of its
    /// voxels the ray crosses ([`crate::accel::Mailbox`]).
    pub intersection_tests: u64,
    /// Pixels shaded.
    pub pixels: u64,
}

impl RayStats {
    /// Total rays of all kinds.
    #[inline]
    pub fn total_rays(&self) -> u64 {
        self.primary + self.reflected + self.transmitted + self.shadow
    }

    /// Record one ray of the given kind.
    #[inline]
    pub fn count_ray(&mut self, kind: RayKind) {
        match kind {
            RayKind::Primary => self.primary += 1,
            RayKind::Reflected => self.reflected += 1,
            RayKind::Transmitted => self.transmitted += 1,
            RayKind::Shadow => self.shadow += 1,
        }
    }

    /// Merge another set of counters into this one.
    pub fn merge(&mut self, o: &RayStats) {
        self.primary += o.primary;
        self.reflected += o.reflected;
        self.transmitted += o.transmitted;
        self.shadow += o.shadow;
        self.intersection_tests += o.intersection_tests;
        self.pixels += o.pixels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut s = RayStats::default();
        s.count_ray(RayKind::Primary);
        s.count_ray(RayKind::Shadow);
        s.count_ray(RayKind::Shadow);
        s.count_ray(RayKind::Reflected);
        s.count_ray(RayKind::Transmitted);
        assert_eq!(s.total_rays(), 5);
        assert_eq!(s.shadow, 2);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = RayStats {
            primary: 1,
            pixels: 10,
            ..Default::default()
        };
        let b = RayStats {
            primary: 2,
            shadow: 3,
            intersection_tests: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.primary, 3);
        assert_eq!(a.shadow, 3);
        assert_eq!(a.intersection_tests, 7);
        assert_eq!(a.pixels, 10);
        assert_eq!(a.total_rays(), 6);
    }
}
