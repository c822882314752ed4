//! Per-voxel storage.

use crate::spec::{GridSpec, Voxel};

/// Dense per-voxel storage of `T`, indexed by [`Voxel`].
///
/// The ray tracer's accelerator is a `GridCells` of object lists.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCells<T> {
    spec: GridSpec,
    cells: Vec<T>,
}

impl<T: Default + Clone> GridCells<T> {
    /// Allocate one default `T` per voxel.
    pub fn new(spec: GridSpec) -> GridCells<T> {
        GridCells {
            spec,
            cells: vec![T::default(); spec.voxel_count()],
        }
    }
}

impl<T> GridCells<T> {
    /// The grid geometry.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Shared access to a voxel's cell.
    #[inline]
    pub fn get(&self, v: Voxel) -> &T {
        &self.cells[self.spec.linear_index(v)]
    }

    /// Mutable access to a voxel's cell.
    #[inline]
    pub fn get_mut(&mut self, v: Voxel) -> &mut T {
        let i = self.spec.linear_index(v);
        &mut self.cells[i]
    }

    /// Iterate over `(voxel, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Voxel, &T)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (self.spec.voxel_from_linear(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_math::{Aabb, Point3};

    fn cells() -> GridCells<Vec<u32>> {
        GridCells::new(GridSpec::cubic(
            Aabb::new(Point3::ZERO, Point3::splat(2.0)),
            2,
        ))
    }

    #[test]
    fn get_and_set_roundtrip() {
        let mut c = cells();
        c.get_mut(Voxel::new(1, 0, 1)).push(42);
        assert_eq!(c.get(Voxel::new(1, 0, 1)), &vec![42]);
        assert!(c.get(Voxel::new(0, 0, 0)).is_empty());
    }

    #[test]
    fn iteration_covers_every_voxel_once() {
        let c = cells();
        let mut seen = std::collections::HashSet::new();
        for (v, _) in c.iter() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 8);
    }
}
