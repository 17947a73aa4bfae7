//! Up-sampling an AMR dataset to one uniform-resolution grid (the
//! paper's Fig. 2: up-sample coarse levels and merge).

use crate::dataset::AmrDataset;
use crate::level::AmrLevel;
use tac_dtype::Element;

/// Up-samples every level to finest resolution (piecewise-constant /
/// nearest-neighbour, the standard AMR prolongation for cell data) and
/// merges into one uniform grid.
///
/// Because the tree invariant guarantees exactly-one coverage, the merge
/// has no conflicts. This is also step 1 of the paper's "3D baseline".
pub fn to_uniform<T: Element>(ds: &AmrDataset<T>) -> Vec<T> {
    let n = ds.finest_dim();
    let mut out = vec![T::ZERO; n * n * n];
    for (l, level) in ds.levels().iter().enumerate() {
        let scale = ds.upsample_rate(l);
        splat_level(level, scale, n, &mut out);
    }
    out
}

fn splat_level<T: Element>(level: &AmrLevel<T>, scale: usize, n: usize, out: &mut [T]) {
    let dim = level.dim();
    for z in 0..dim {
        for y in 0..dim {
            for x in 0..dim {
                if !level.present(x, y, z) {
                    continue;
                }
                let v = level.value(x, y, z);
                for dz in 0..scale {
                    for dy in 0..scale {
                        let row = x * scale + n * (y * scale + dy + n * (z * scale + dz));
                        out[row..row + scale].fill(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::half_refined;

    /// Checks that every present cell of every level fills its whole
    /// block of the uniform grid with its value, and that the blocks
    /// tile the grid exactly once.
    fn assert_cells_fill_their_blocks<T: Element>(ds: &AmrDataset<T>, uni: &[T]) {
        let n = ds.finest_dim();
        assert_eq!(uni.len(), n * n * n);
        let mut covered = vec![false; uni.len()];
        for (l, level) in ds.levels().iter().enumerate() {
            let scale = ds.upsample_rate(l);
            let dim = level.dim();
            for z in 0..dim {
                for y in 0..dim {
                    for x in 0..dim {
                        if !level.present(x, y, z) {
                            continue;
                        }
                        for dz in 0..scale {
                            for dy in 0..scale {
                                for dx in 0..scale {
                                    let (fx, fy, fz) =
                                        (x * scale + dx, y * scale + dy, z * scale + dz);
                                    let i = fx + n * (fy + n * fz);
                                    assert!(!covered[i], "({fx},{fy},{fz}) covered twice");
                                    covered[i] = true;
                                    assert_eq!(uni[i], level.value(x, y, z), "({fx},{fy},{fz})");
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "a position no cell covers");
    }

    #[test]
    fn uniform_roundtrip_on_tree_data() {
        let ds = half_refined(8);
        ds.validate().unwrap();
        let uni = to_uniform(&ds);
        assert_eq!(uni.len(), 512);
        assert_cells_fill_their_blocks(&ds, &uni);
    }

    #[test]
    fn coarse_cell_fills_its_block() {
        let ds = half_refined(8);
        let uni = to_uniform(&ds);
        // Coarse cell (0,0,0) value = 0*0*0+1 = 1.0 fills fine block [0,2)^3.
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    assert_eq!(uni[x + 8 * (y + 8 * z)], 1.0);
                }
            }
        }
        // Fine half keeps per-cell values.
        assert_eq!(uni[7 + 8 * (3 + 8 * 2)], (7 + 3 + 2) as f64);
    }

    #[test]
    fn f32_uniform_roundtrip() {
        // A small two-level f32 dataset up-samples exactly, like its
        // f64 counterpart.
        let mut fine: AmrLevel<f32> = AmrLevel::empty(4);
        for z in 0..4 {
            for y in 0..4 {
                for x in 2..4 {
                    fine.set_value(x, y, z, (x + y + z) as f32 * 0.5);
                }
            }
        }
        let mut coarse: AmrLevel<f32> = AmrLevel::empty(2);
        for z in 0..2 {
            for y in 0..2 {
                coarse.set_value(0, y, z, (y + z) as f32 + 1.0);
            }
        }
        let ds = AmrDataset::new("f32demo", vec![fine, coarse]);
        ds.validate().unwrap();
        assert_cells_fill_their_blocks(&ds, &to_uniform(&ds));
    }
}
