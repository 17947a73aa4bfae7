//! GSP — ghost-shell padding (paper Sec. 3.3, Algorithm 3).
//!
//! High-density levels keep their full grid, but the few empty unit
//! blocks are *padded* with values diffused from their non-empty face
//! neighbours instead of zeros. Lorenzo prediction across a block boundary
//! then sees plausible values rather than a cliff to zero, which removes
//! the boundary error bloom the paper shows in Fig. 12a.
//!
//! For each empty block adjacent to at least one non-empty block, the pad
//! value is the mean of the adjacent boundary slices of all non-empty
//! face neighbours (blocks touched by several neighbours average over all
//! of them — the red blocks of Fig. 10). Empty blocks with no non-empty
//! neighbour (interiors of large voids) stay zero.
//!
//! Padding is removed on decompression simply by masking: padded cells
//! are absent in the occupancy mask, so reconstruction discards them.
//!
//! The writer no longer pads: it codes absent cells as don't-care (see
//! [`tac_codec::ScalarCodec`]'s care mask), so no fill value reaches the
//! bytes and a GSP level is written as it is — the same stream as
//! ZeroFill. [`pad_ghost_shell`] stays as the paper's pre-process, for
//! the experiments that measure it.

use tac_amr::{AmrLevel, BlockGrid};
use tac_dtype::Element;

/// Pads a copy of the level's dense grid. Returns the padded grid and the
/// number of blocks padded.
///
/// Generic over the element type: averaging runs in `f64` working
/// precision (exact for `f32` inputs) and the pad value narrows back to
/// `T` once per block. The `f64` monomorphization is bit-identical to
/// the historical implementation.
pub fn pad_ghost_shell<T: Element>(level: &AmrLevel<T>, grid: &BlockGrid) -> (Vec<T>, usize) {
    let dim = level.dim();
    let unit = grid.unit();
    let nb = grid.blocks_per_side();
    let mut out = level.data().to_vec();
    let mut padded = 0usize;

    for bz in 0..nb {
        for by in 0..nb {
            for bx in 0..nb {
                if !grid.is_empty_block(bx, by, bz) {
                    continue;
                }
                // Average the facing boundary slice of every non-empty
                // face neighbour.
                let mut acc = 0.0f64;
                let mut weight = 0usize;
                let neighbours: [(isize, isize, isize); 6] = [
                    (-1, 0, 0),
                    (1, 0, 0),
                    (0, -1, 0),
                    (0, 1, 0),
                    (0, 0, -1),
                    (0, 0, 1),
                ];
                for (dx, dy, dz) in neighbours {
                    let nx = bx as isize + dx;
                    let ny = by as isize + dy;
                    let nz = bz as isize + dz;
                    if nx < 0 || ny < 0 || nz < 0 {
                        continue;
                    }
                    let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);
                    if nx >= nb || ny >= nb || nz >= nb || grid.is_empty_block(nx, ny, nz) {
                        continue;
                    }
                    let (sum, count) =
                        boundary_slice_sum(level, unit, (nx, ny, nz), (-dx, -dy, -dz));
                    if count > 0 {
                        acc += sum / count as f64;
                        weight += 1;
                    }
                }
                if weight == 0 {
                    continue;
                }
                let pad = T::from_f64(acc / weight as f64);
                padded += 1;
                let (x0, y0, z0) = (bx * unit, by * unit, bz * unit);
                for z in z0..z0 + unit {
                    for y in y0..y0 + unit {
                        let row = x0 + dim * (y + dim * z);
                        out[row..row + unit].fill(pad);
                    }
                }
            }
        }
    }
    (out, padded)
}

/// Sums the *present* cells of the face slice of block `b` facing
/// direction `toward` (unit vector pointing at the empty neighbour).
/// Returns `(sum, count)`.
fn boundary_slice_sum<T: Element>(
    level: &AmrLevel<T>,
    unit: usize,
    (bx, by, bz): (usize, usize, usize),
    toward: (isize, isize, isize),
) -> (f64, usize) {
    let (x0, y0, z0) = (bx * unit, by * unit, bz * unit);
    // The slice of this block adjacent to the neighbour in direction
    // `toward` — e.g. toward = (-1,0,0) means the x == x0 face.
    let (xs, xe) = match toward.0 {
        -1 => (x0, x0 + 1),
        1 => (x0 + unit - 1, x0 + unit),
        _ => (x0, x0 + unit),
    };
    let (ys, ye) = match toward.1 {
        -1 => (y0, y0 + 1),
        1 => (y0 + unit - 1, y0 + unit),
        _ => (y0, y0 + unit),
    };
    let (zs, ze) = match toward.2 {
        -1 => (z0, z0 + 1),
        1 => (z0 + unit - 1, z0 + unit),
        _ => (z0, z0 + unit),
    };
    let mut sum = 0.0;
    let mut count = 0usize;
    for z in zs..ze {
        for y in ys..ye {
            for x in xs..xe {
                if level.present(x, y, z) {
                    sum += level.value(x, y, z).to_f64();
                    count += 1;
                }
            }
        }
    }
    (sum, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8^3 level, unit 4: block (0,0,0) empty, the rest filled with a
    /// constant per block.
    fn two_by_two_level(empty: &[(usize, usize, usize)]) -> AmrLevel {
        let mut lvl = AmrLevel::empty(8);
        for bz in 0..2 {
            for by in 0..2 {
                for bx in 0..2 {
                    if empty.contains(&(bx, by, bz)) {
                        continue;
                    }
                    let v = (bx + 2 * by + 4 * bz + 1) as f64;
                    for z in 0..4 {
                        for y in 0..4 {
                            for x in 0..4 {
                                lvl.set_value(bx * 4 + x, by * 4 + y, bz * 4 + z, v);
                            }
                        }
                    }
                }
            }
        }
        lvl
    }

    #[test]
    fn single_empty_block_gets_neighbour_average() {
        let lvl = two_by_two_level(&[(0, 0, 0)]);
        let grid = BlockGrid::build(&lvl, 4);
        let (padded, count) = pad_ghost_shell(&lvl, &grid);
        assert_eq!(count, 1);
        // Neighbours of (0,0,0): (1,0,0)=2, (0,1,0)=3, (0,0,1)=5.
        let want = (2.0 + 3.0 + 5.0) / 3.0;
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    assert!((padded[x + 8 * (y + 8 * z)] - want).abs() < 1e-12);
                }
            }
        }
        // Non-empty blocks are untouched.
        assert_eq!(padded[7 + 8 * (7 + 8 * 7)], 8.0);
    }

    #[test]
    fn isolated_void_stays_zero() {
        // All 8 blocks empty: nothing to diffuse from.
        let lvl = two_by_two_level(&[
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ]);
        let grid = BlockGrid::build(&lvl, 4);
        let (padded, count) = pad_ghost_shell(&lvl, &grid);
        assert_eq!(count, 0);
        assert!(padded.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn full_level_needs_no_padding() {
        let lvl = two_by_two_level(&[]);
        let grid = BlockGrid::build(&lvl, 4);
        let (padded, count) = pad_ghost_shell(&lvl, &grid);
        assert_eq!(count, 0);
        assert_eq!(&padded, lvl.data());
    }

    #[test]
    fn boundary_slice_uses_facing_side() {
        // Block with a gradient: facing slices differ.
        let mut lvl = AmrLevel::empty(8);
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    lvl.set_value(4 + x, y, z, x as f64); // block (1,0,0), value = local x
                }
            }
        }
        let grid = BlockGrid::build(&lvl, 4);
        let (padded, count) = pad_ghost_shell(&lvl, &grid);
        // (0,0,0), (1,1,0) and (1,0,1) all touch the one non-empty block.
        assert_eq!(count, 3);
        // Empty block (0,0,0) faces block (1,0,0)'s x==4 slice (local
        // x=0 -> value 0).
        assert!((padded[0] - 0.0).abs() < 1e-12);
        // Empty block (1,1,0) faces the y==3 slice (local x averages to
        // (0+1+2+3)/4 = 1.5).
        assert!((padded[4 + 8 * 4] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn partial_neighbour_averages_present_cells_only() {
        let mut lvl = AmrLevel::<f64>::empty(8);
        // Neighbour block (1,0,0) has only two present cells on its x==4
        // face, values 10 and 20.
        lvl.set_value(4, 0, 0, 10.0);
        lvl.set_value(4, 1, 0, 20.0);
        let grid = BlockGrid::build(&lvl, 4);
        let (padded, _) = pad_ghost_shell(&lvl, &grid);
        assert!((padded[0] - 15.0).abs() < 1e-12);
    }
}
