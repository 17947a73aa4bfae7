//! Decode level grids as [`SlabGrid`]s: cut at z-plane boundaries into
//! locked slabs — one per plane for TAC, whose regions share planes; one
//! per segment for zMesh and 1D; one for the 3D baseline — with a region
//! read's box resolved once (`None` when it is the whole grid, so a full
//! decode takes every arm's unclipped path). A grid checks nothing about
//! what its writers store: a TAC level's regions are checked against
//! each other before any task runs ([`crate::extract::check_regions`]).

use crate::error::TacError;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};
use tac_amr::Aabb;

/// One slab of a level grid: a run of whole z-planes.
pub(crate) struct Slab<'a, T> {
    /// Flat index of `cells[0]` in the level grid.
    pub base: usize,
    pub cells: &'a mut [T],
}

/// A caller-owned `dim^3` level grid cut into locked z-plane slabs.
pub(crate) struct SlabGrid<'a, T> {
    dim: usize,
    clip: Option<Aabb>,
    slabs: Vec<Mutex<Slab<'a, T>>>,
}

impl<'a, T> SlabGrid<'a, T> {
    /// Cuts `cells`, a `dim^3` grid, into one slab per z-plane range of
    /// `cuts` — non-empty, ascending and apart, inside the grid; planes no
    /// cut names belong to no slab. `clip` is a region read's box on the
    /// level.
    pub(crate) fn new(
        cells: &'a mut [T],
        dim: usize,
        cuts: impl IntoIterator<Item = Range<usize>>,
        clip: Option<Aabb>,
    ) -> Result<Self, TacError> {
        let plane = (dim.checked_mul(dim))
            .filter(|&p| p.checked_mul(dim) == Some(cells.len()))
            .ok_or_else(|| {
                TacError::Corrupt(format!("a grid of {} cells is not {dim}^3", cells.len()))
            })?;
        let (mut rest, mut at, mut slabs) = (cells, 0, Vec::new());
        for planes in cuts {
            if planes.start < at || planes.end <= planes.start || dim < planes.end {
                return Err(TacError::Corrupt(format!(
                    "a cut at planes {planes:?} overlaps, descends, is empty or leaves a {dim}^3 grid"
                )));
            }
            // In bounds: `rest` holds the planes from `at` to `dim`.
            let (_, tail) = std::mem::take(&mut rest).split_at_mut((planes.start - at) * plane);
            let (cells, tail) = tail.split_at_mut((planes.end - planes.start) * plane);
            slabs.push(Mutex::new(Slab {
                base: planes.start * plane,
                cells,
            }));
            (rest, at) = (tail, planes.end);
        }
        Ok(SlabGrid {
            dim,
            clip: clip.filter(|b| *b != Aabb::whole(dim)),
            slabs,
        })
    }

    /// Side of the level.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// The region read's box on the level, unless it is the whole grid:
    /// the only cells a writer may touch.
    pub(crate) fn clip(&self) -> Option<Aabb> {
        self.clip
    }

    /// Locks slab `i`, in cut order.
    pub(crate) fn lock(&self, i: usize) -> Result<MutexGuard<'_, Slab<'a, T>>, TacError> {
        let slab = self.slabs.get(i).ok_or_else(|| {
            TacError::Corrupt(format!(
                "a grid of {} slabs has no slab {i}",
                self.slabs.len()
            ))
        })?;
        Ok(slab.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cells` cut at the plane ranges `[from, to)` of `cuts`.
    fn cut<'a>(
        cells: &'a mut [u8],
        dim: usize,
        cuts: &[(usize, usize)],
    ) -> Result<SlabGrid<'a, u8>, TacError> {
        SlabGrid::new(cells, dim, cuts.iter().map(|&(a, b)| a..b), None)
    }

    #[test]
    fn hostile_cuts_are_corrupt_not_a_panic() {
        let mut cells = vec![0u8; 64];
        for (what, cuts) in [
            ("overlapping", vec![(0, 2), (1, 3)]),
            ("descending", vec![(2, 4), (0, 2)]),
            ("empty", vec![(0, 1), (1, 1), (1, 4)]),
            ("backwards", vec![(3, 2)]),
            ("past the grid", vec![(0, 2), (2, 5)]),
            ("far past the grid", vec![(usize::MAX - 1, usize::MAX)]),
        ] {
            let err = cut(&mut cells, 4, &cuts).err();
            assert!(matches!(err, Some(TacError::Corrupt(_))), "{what}: {err:?}");
        }
        // A 0^3 level has no plane to cut, and a grid that is not `dim^3`
        // is refused whatever the cuts.
        let err = cut(&mut [], 0, &[(0, 1)]).err();
        assert!(matches!(err, Some(TacError::Corrupt(_))), "{err:?}");
        assert!(cut(&mut [], 0, &[]).is_ok());
        for dim in [3, 5, usize::MAX] {
            let err = cut(&mut cells, dim, &[]).err();
            assert!(matches!(err, Some(TacError::Corrupt(_))), "{dim}: {err:?}");
        }
        // A missing slab is an error too.
        let grid = cut(&mut cells, 4, &[(1, 2)]).unwrap();
        assert!(matches!(grid.lock(1), Err(TacError::Corrupt(_))));
    }

    #[test]
    fn cuts_hand_out_their_planes_and_nothing_else() {
        let dim = 4;
        let mut cells: Vec<u8> = vec![0; 64];
        let grid = cut(&mut cells, dim, &[(0, 1), (2, 4)]).unwrap();
        for (i, (base, len)) in [(0, 16), (32, 32)].into_iter().enumerate() {
            let mut slab = grid.lock(i).unwrap();
            assert_eq!((slab.base, slab.cells.len()), (base, len));
            slab.cells.fill(i as u8 + 1);
        }
        // Plane 1 belongs to no slab: nothing can write it.
        assert!(matches!(grid.lock(2), Err(TacError::Corrupt(_))));
        drop(grid);
        let plane = |z: usize| cells[16 * z..16 * (z + 1)].to_vec();
        assert_eq!(
            [plane(0), plane(1), plane(2), plane(3)],
            [1, 0, 2, 2].map(|v| vec![v; 16])
        );
    }

    #[test]
    fn a_box_equal_to_the_grid_is_no_clip() {
        let mut cells = vec![0u8; 64];
        let part = Aabb::new((1, 0, 1), (3, 4, 3));
        for (clip, want) in [
            (None, None),
            (Some(Aabb::whole(4)), None),
            (Some(part), Some(part)),
            (Some(Aabb::whole(3)), Some(Aabb::whole(3))),
        ] {
            let grid = SlabGrid::new(&mut cells, 4, (0..4).map(|z| z..z + 1), clip).unwrap();
            assert_eq!(grid.clip(), want, "{clip:?}");
        }
    }
}
