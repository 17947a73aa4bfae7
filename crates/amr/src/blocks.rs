//! Unit-block decomposition of a level.
//!
//! All three TAC pre-process strategies reason about a level at the
//! granularity of small cubic *unit blocks* (the paper uses 16^3 units for
//! 512^3 levels). [`BlockGrid`] caches per-block occupancy counts;
//! [`copy_region`]/[`paste_region`] move cell data between the level's
//! flat array and contiguous extraction buffers.

use crate::level::AmrLevel;
use crate::mask::BitMask;
use tac_dtype::Element;

/// Per-unit-block occupancy summary of one AMR level.
#[derive(Debug, Clone)]
pub struct BlockGrid {
    unit: usize,
    nb: usize,
    counts: Vec<u32>,
}

impl BlockGrid {
    /// Counts present cells per unit block from the level's mask words,
    /// one grid row (`dim` consecutive bits) at a time into the row of
    /// blocks it crosses ([`crate::BitMask::add_unit_counts`]): at the common
    /// unit 8 on word-aligned rows a mask word yields eight block counts
    /// at once and an all-clear word costs one compare, so the scan is
    /// ~`dim^3 / 64` word steps, not `dim^3` cells.
    ///
    /// # Panics
    /// Panics if `unit` does not divide the level dimension.
    pub fn build<T: Element>(level: &AmrLevel<T>, unit: usize) -> Self {
        let dim = level.dim();
        assert!(
            unit > 0 && dim % unit == 0,
            "unit {unit} must divide dim {dim}"
        );
        let nb = dim / unit;
        let mut counts = vec![0u32; nb * nb * nb];
        let mask = level.mask();
        for z in 0..dim {
            for y in 0..dim {
                let row_block = nb * (y / unit + nb * (z / unit));
                let blocks = &mut counts[row_block..row_block + nb];
                mask.add_unit_counts(dim * (y + dim * z), unit, blocks);
            }
        }
        BlockGrid { unit, nb, counts }
    }

    /// Unit block side length.
    #[inline]
    pub fn unit(&self) -> usize {
        self.unit
    }

    /// Blocks per grid side.
    #[inline]
    pub fn blocks_per_side(&self) -> usize {
        self.nb
    }

    /// Flat block index.
    #[inline]
    pub fn index(&self, bx: usize, by: usize, bz: usize) -> usize {
        debug_assert!(bx < self.nb && by < self.nb && bz < self.nb);
        bx + self.nb * (by + self.nb * bz)
    }

    /// Present-cell count of block `(bx, by, bz)`.
    #[inline]
    pub fn count(&self, bx: usize, by: usize, bz: usize) -> u32 {
        self.counts[self.index(bx, by, bz)]
    }

    /// Whether the block holds no present cells.
    #[inline]
    pub fn is_empty_block(&self, bx: usize, by: usize, bz: usize) -> bool {
        self.count(bx, by, bz) == 0
    }

    /// Number of blocks holding at least one present cell.
    pub fn num_nonempty(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// Copies the cell cuboid with origin `(x0, y0, z0)` and extents
/// `(w, h, d)` out of a level's flat data into a contiguous buffer
/// (x fastest).
pub fn copy_region<T: Copy>(
    data: &[T],
    dim: usize,
    origin: (usize, usize, usize),
    shape: (usize, usize, usize),
) -> Vec<T> {
    let mut out = Vec::new();
    copy_region_into(&mut out, data, dim, origin, shape);
    out
}

/// Calls `row` with the flat index of the first cell of each `w`-cell
/// row of the cuboid at `(x0, y0, z0)` with extents `(w, h, d)`, in the
/// order its cells are gathered: y fastest, then z.
///
/// # Panics
/// Panics if the region does not lie inside the `dim`^3 grid.
fn for_each_row(
    dim: usize,
    (x0, y0, z0): (usize, usize, usize),
    (w, h, d): (usize, usize, usize),
    mut row: impl FnMut(usize),
) {
    assert!(
        x0 + w <= dim && y0 + h <= dim && z0 + d <= dim,
        "region out of bounds"
    );
    for z in z0..z0 + d {
        for y in y0..y0 + h {
            row(x0 + dim * (y + dim * z));
        }
    }
}

/// [`copy_region`] appending to `out`, so a caller batching several
/// regions gathers their rows straight into the batch.
pub fn copy_region_into<T: Copy>(
    out: &mut Vec<T>,
    data: &[T],
    dim: usize,
    origin: (usize, usize, usize),
    shape @ (w, h, d): (usize, usize, usize),
) {
    out.reserve(w * h * d);
    for_each_row(dim, origin, shape, |row| {
        out.extend_from_slice(&data[row..row + w]);
    });
}

/// [`copy_region_into`] that also writes the region's occupancy under
/// `mask` (the level's) to `flags`, one per gathered cell in the same
/// order, and returns how many are set.
///
/// The flags and the values are two passes over the same rows: one
/// pass that alternates a mask row and a data row per grid row ran the
/// TAC writer's gather measurably slower.
///
/// # Panics
/// Panics if the region does not lie inside the grid, or if `flags`
/// does not hold one flag per cell of the region.
pub fn copy_region_flags_into<T: Copy>(
    out: &mut Vec<T>,
    flags: &mut [bool],
    data: &[T],
    mask: &BitMask,
    dim: usize,
    origin: (usize, usize, usize),
    shape @ (w, h, d): (usize, usize, usize),
) -> usize {
    assert_eq!(flags.len(), w * h * d, "one flag per region cell");
    let mut rows = flags.chunks_mut(w.max(1));
    let mut present = 0;
    for_each_row(dim, origin, shape, |row| {
        if let Some(flags) = rows.next() {
            present += mask.flags_into(row, flags);
        }
    });
    copy_region_into(out, data, dim, origin, shape);
    present
}

/// Writes a contiguous buffer produced by [`copy_region`] back at the same
/// position.
pub fn paste_region<T: Copy>(
    data: &mut [T],
    dim: usize,
    (x0, y0, z0): (usize, usize, usize),
    (w, h, d): (usize, usize, usize),
    src: &[T],
) {
    assert!(
        x0 + w <= dim && y0 + h <= dim && z0 + d <= dim,
        "region out of bounds"
    );
    assert_eq!(src.len(), w * h * d, "source buffer size mismatch");
    let mut i = 0;
    for z in z0..z0 + d {
        for y in y0..y0 + h {
            let row = x0 + dim * (y + dim * z);
            data[row..row + w].copy_from_slice(&src[i..i + w]);
            i += w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::AmrLevel;
    use proptest::prelude::*;

    /// The per-cell scan `BlockGrid::build` replaced, kept as the
    /// reference the word-wise build is held to.
    fn counts_by_cell_scan(level: &AmrLevel, unit: usize) -> Vec<u32> {
        let dim = level.dim();
        let nb = dim / unit;
        let mut counts = vec![0u32; nb * nb * nb];
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    if level.present(x, y, z) {
                        counts[x / unit + nb * (y / unit + nb * (z / unit))] += 1;
                    }
                }
            }
        }
        counts
    }

    /// A `dim^3` mask whose rows are a seeded mix of empty, full and
    /// random ones; `keep` in 1..=5 thins the occupied rows out.
    fn seeded_mask(dim: usize, seed: u64, keep: u64) -> BitMask {
        let mut state = seed | 1;
        let mut mask = BitMask::zeros(dim * dim * dim);
        for row in 0..dim * dim {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let class = state % 5;
            if class >= keep {
                continue;
            }
            for x in 0..dim {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                mask.set(row * dim + x, class == 0 || state >> 62 != 0);
            }
        }
        mask
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Rows of 4, 12 and 20 cells straddle word boundaries at odd
        /// offsets; 32 and 64 sit on them. `keep` thins the mask down to
        /// a few occupied rows so the empty-row skip is taken too.
        #[test]
        fn build_matches_the_per_cell_scan(seed in 0u64..u64::MAX, keep in 1u64..6) {
            for dim in [4usize, 12, 20, 32, 64] {
                let level = AmrLevel::new(dim, vec![0.0; dim * dim * dim], seeded_mask(dim, seed, keep));
                for unit in (1..=dim).filter(|u| dim % u == 0) {
                    let grid = BlockGrid::build(&level, unit);
                    prop_assert_eq!(
                        &grid.counts,
                        &counts_by_cell_scan(&level, unit),
                        "dim {} unit {}", dim, unit
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The word-wise build at the units a level is cut in (1/2/3/4/8)
        /// on odd sides and sides that are no multiple of 64: rows of 72
        /// cells start on a word only every 8th row and rows of 96 every
        /// 2nd, so the SWAR and the ranged path meet in one grid.
        #[test]
        fn word_wise_build_matches_the_per_cell_scan_at_every_unit(
            seed in 0u64..u64::MAX,
            keep in 1u64..6,
        ) {
            for dim in [3usize, 9, 15, 24, 40, 72, 96] {
                let level = AmrLevel::new(dim, vec![0.0; dim * dim * dim], seeded_mask(dim, seed, keep));
                for unit in [1usize, 2, 3, 4, 8].into_iter().filter(|u| dim % u == 0) {
                    let grid = BlockGrid::build(&level, unit);
                    prop_assert_eq!(
                        &grid.counts,
                        &counts_by_cell_scan(&level, unit),
                        "dim {} unit {}", dim, unit
                    );
                }
            }
        }
    }

    fn checkerboard_level(dim: usize, unit: usize) -> AmrLevel {
        // Alternate unit blocks present/absent in a 3D checkerboard.
        let mut lvl = AmrLevel::empty(dim);
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    let parity = (x / unit + y / unit + z / unit) % 2;
                    if parity == 0 {
                        lvl.set_value(x, y, z, (x + y + z) as f64);
                    }
                }
            }
        }
        lvl
    }

    #[test]
    fn counts_match_checkerboard() {
        let (dim, unit) = (8, 2);
        let lvl = checkerboard_level(dim, unit);
        let grid = BlockGrid::build(&lvl, unit);
        assert_eq!(grid.blocks_per_side(), 4);
        assert_eq!(grid.num_nonempty(), 32);
        for bz in 0..4 {
            for by in 0..4 {
                for bx in 0..4 {
                    let expect = if (bx + by + bz) % 2 == 0 { 8 } else { 0 };
                    assert_eq!(grid.count(bx, by, bz), expect);
                    assert_eq!(grid.is_empty_block(bx, by, bz), expect == 0);
                }
            }
        }
    }

    #[test]
    fn copy_paste_region_roundtrip() {
        let dim = 6;
        let data: Vec<f64> = (0..dim * dim * dim).map(|i| i as f64).collect();
        let region = copy_region(&data, dim, (1, 2, 3), (4, 3, 2));
        assert_eq!(region.len(), 24);
        // Spot-check ordering: first element is (1,2,3).
        assert_eq!(region[0], (1 + dim * (2 + dim * 3)) as f64);
        let mut out = vec![0.0; dim * dim * dim];
        paste_region(&mut out, dim, (1, 2, 3), (4, 3, 2), &region);
        for z in 3..5 {
            for y in 2..5 {
                for x in 1..5 {
                    let i = x + dim * (y + dim * z);
                    assert_eq!(out[i], data[i]);
                }
            }
        }
        // Outside the region stays zero.
        assert_eq!(out[0], 0.0);

        // The appending form adds the same cells behind what is there.
        let mut batch = vec![-1.0];
        copy_region_into(&mut batch, &data, dim, (1, 2, 3), (4, 3, 2));
        copy_region_into(&mut batch, &data, dim, (0, 0, 0), (1, 1, 1));
        assert_eq!(batch[0], -1.0);
        assert_eq!(batch[1..25], region[..]);
        assert_eq!(batch[25..], [data[0]]);
    }

    #[test]
    fn region_flags_follow_the_gathered_cells() {
        // 20 wide: rows of the region straddle mask words at odd offsets.
        let dim = 20;
        let data: Vec<f64> = (0..dim * dim * dim).map(|i| i as f64).collect();
        let mask = seeded_mask(dim, 9, 4);
        for (origin, shape) in [((3, 1, 2), (13, 5, 4)), ((0, 0, 0), (20, 2, 1))] {
            let mut batch = vec![-1.0];
            let mut flags = vec![false; shape.0 * shape.1 * shape.2];
            let present =
                copy_region_flags_into(&mut batch, &mut flags, &data, &mask, dim, origin, shape);
            assert_eq!(batch[1..], copy_region(&data, dim, origin, shape)[..]);
            // Each value is its own flat index, so it names the cell.
            for (&v, &flag) in batch[1..].iter().zip(&flags) {
                assert_eq!(flag, mask.get(v as usize));
            }
            assert_eq!(present, flags.iter().filter(|&&f| f).count());
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_unit_panics() {
        let lvl = AmrLevel::<f64>::empty(10);
        BlockGrid::build(&lvl, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_region_panics() {
        let data = vec![0.0; 8];
        copy_region(&data, 2, (1, 1, 1), (2, 1, 1));
    }
}
