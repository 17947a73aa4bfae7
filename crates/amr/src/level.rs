//! A single AMR refinement level: a cubic grid with an occupancy mask.

use crate::mask::BitMask;
use tac_dtype::{Element, TacDtype};

/// One refinement level of a tree-based AMR dataset.
///
/// The grid is cubic with side `dim`; cell `(x, y, z)` lives at flat index
/// `x + dim*(y + dim*z)`. A cell is *present* (stored at this level) iff
/// its mask bit is set; absent cells hold zero in `data` and their values
/// live at some other level.
///
/// A level returned by a decoder keeps that contract to the bit: every
/// absent cell, and every cell of a chunk a region-of-interest read left
/// out, holds `+0.0` bits (never `-0.0` or a stale payload value). The
/// decoders write only the cells their payload covers, so the rest of
/// `data` is zero-initialised memory that was never touched.
///
/// The element type `T` is `f64` by default (the historical stack-wide
/// width) or `f32`; every kernel downstream is monomorphized over it.
#[derive(Debug, Clone, PartialEq)]
pub struct AmrLevel<T: Element = f64> {
    dim: usize,
    data: Vec<T>,
    mask: BitMask,
}

impl<T: Element> AmrLevel<T> {
    /// Creates a level from raw parts.
    ///
    /// # Panics
    /// Panics if `data.len() != dim^3` or the mask length differs.
    pub fn new(dim: usize, data: Vec<T>, mask: BitMask) -> Self {
        let n = dim * dim * dim;
        assert_eq!(data.len(), n, "data length must be dim^3");
        assert_eq!(mask.len(), n, "mask length must be dim^3");
        AmrLevel { dim, data, mask }
    }

    /// Creates an empty (all-absent) level.
    pub fn empty(dim: usize) -> Self {
        let n = dim * dim * dim;
        AmrLevel {
            dim,
            data: vec![T::ZERO; n],
            mask: BitMask::zeros(n),
        }
    }

    /// Creates a fully populated level from dense data.
    pub fn dense(dim: usize, data: Vec<T>) -> Self {
        let n = dim * dim * dim;
        assert_eq!(data.len(), n, "data length must be dim^3");
        AmrLevel {
            dim,
            data,
            mask: BitMask::ones(n),
        }
    }

    /// Element type of this level's values.
    pub fn dtype(&self) -> TacDtype {
        T::DTYPE
    }

    /// Grid side length.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total cell count (`dim^3`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.data.len()
    }

    /// Number of present cells.
    pub fn num_present(&self) -> usize {
        self.mask.count_ones()
    }

    /// Fraction of present cells, in percent-free [0, 1] form. The paper's
    /// "density of 77%" corresponds to `0.77` here.
    pub fn density(&self) -> f64 {
        self.mask.density()
    }

    /// Flat index of `(x, y, z)`.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dim && y < self.dim && z < self.dim);
        x + self.dim * (y + self.dim * z)
    }

    /// Whether cell `(x, y, z)` is present at this level.
    #[inline]
    pub fn present(&self, x: usize, y: usize, z: usize) -> bool {
        self.mask.get(self.index(x, y, z))
    }

    /// Value at `(x, y, z)` (zero for absent cells).
    #[inline]
    pub fn value(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.index(x, y, z)]
    }

    /// Writes a present cell.
    pub fn set_value(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.index(x, y, z);
        self.data[i] = v;
        self.mask.set(i, true);
    }

    /// Marks a cell absent and zeroes its storage.
    pub fn clear_cell(&mut self, x: usize, y: usize, z: usize) {
        let i = self.index(x, y, z);
        self.data[i] = T::ZERO;
        self.mask.set(i, false);
    }

    /// Raw data slice (absent cells are zero).
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw data slice. Callers must keep mask semantics intact.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Occupancy mask.
    #[inline]
    pub fn mask(&self) -> &BitMask {
        &self.mask
    }

    /// Values of present cells, in flat-index order (the "1D baseline"
    /// representation of this level).
    pub fn present_values(&self) -> Vec<T> {
        self.mask.iter_ones().map(|i| self.data[i]).collect()
    }

    /// Min/max over present cells in `f64` working precision; `None` if
    /// the level is empty. (Widening is exact for both element types, so
    /// relative error bounds resolve against the true range.)
    pub fn value_range(&self) -> Option<(f64, f64)> {
        let mut it = self.mask.iter_ones().map(|i| self.data[i].to_f64());
        let first = it.next()?;
        let mut min = first;
        let mut max = first;
        for v in it {
            min = min.min(v);
            max = max.max(v);
        }
        Some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut lvl = AmrLevel::empty(4);
        assert_eq!(lvl.num_cells(), 64);
        assert_eq!(lvl.num_present(), 0);
        lvl.set_value(1, 2, 3, 9.5);
        assert!(lvl.present(1, 2, 3));
        assert_eq!(lvl.value(1, 2, 3), 9.5);
        assert!(!lvl.present(3, 2, 1));
        assert_eq!(lvl.density(), 1.0 / 64.0);
        assert_eq!(lvl.dtype(), TacDtype::F64);
    }

    #[test]
    fn dense_level_is_full() {
        let lvl = AmrLevel::dense(2, (0..8).map(|i| i as f64).collect());
        assert_eq!(lvl.num_present(), 8);
        assert_eq!(lvl.value(1, 1, 1), 7.0);
        assert_eq!(lvl.present_values().len(), 8);
    }

    #[test]
    fn clear_cell_resets_storage() {
        let mut lvl = AmrLevel::dense(2, vec![1.0; 8]);
        lvl.clear_cell(0, 0, 0);
        assert!(!lvl.present(0, 0, 0));
        assert_eq!(lvl.value(0, 0, 0), 0.0);
        assert_eq!(lvl.num_present(), 7);
    }

    #[test]
    fn value_range_ignores_absent_cells() {
        let mut lvl = AmrLevel::empty(2);
        assert_eq!(lvl.value_range(), None);
        lvl.set_value(0, 0, 0, -3.0);
        lvl.set_value(1, 1, 1, 12.0);
        assert_eq!(lvl.value_range(), Some((-3.0, 12.0)));
    }

    #[test]
    fn f32_levels_carry_native_width_values() {
        let mut lvl: AmrLevel<f32> = AmrLevel::empty(2);
        assert_eq!(lvl.dtype(), TacDtype::F32);
        lvl.set_value(0, 0, 0, 1.5f32);
        lvl.set_value(1, 0, 0, f32::MIN_POSITIVE);
        assert_eq!(lvl.value(0, 0, 0), 1.5f32);
        let (min, max) = lvl.value_range().unwrap();
        assert_eq!(min, f32::MIN_POSITIVE as f64);
        assert_eq!(max, 1.5);
        assert_eq!(lvl.present_values(), vec![1.5f32, f32::MIN_POSITIVE]);
    }

    #[test]
    #[should_panic(expected = "dim^3")]
    fn wrong_data_length_panics() {
        AmrLevel::dense(3, vec![0.0; 26]);
    }
}
