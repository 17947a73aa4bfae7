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
        let mut values = Vec::with_capacity(self.num_present());
        for (start, len) in self.mask.runs() {
            values.extend_from_slice(&self.data[start..start + len]);
        }
        values
    }

    /// Min/max over present cells in `f64` working precision; `None` if
    /// the level is empty. (Widening is exact for both element types, so
    /// relative error bounds resolve against the true range.)
    /// NaNs are skipped unless every present value is NaN, which gives
    /// `(NaN, NaN)`. The whole-level case of [`AmrLevel::value_range_in`].
    pub fn value_range(&self) -> Option<(f64, f64)> {
        self.value_range_in(0, self.num_cells())
    }

    /// [`AmrLevel::value_range`] over the present cells of the flat range
    /// `[start, start + len)` (clipped to the level; `None` when it holds
    /// no present cell). The bits of the result do not depend on the
    /// order the values were folded in: an all-NaN range gives the
    /// canonical `f64::NAN` and a zero extreme is `+0.0`. So the ranges of
    /// any split of a level, folded with `f64::min` / `f64::max` in any
    /// order, equal the whole level's bit for bit.
    pub fn value_range_in(&self, start: usize, len: usize) -> Option<(f64, f64)> {
        let mut range = MinMax::new();
        for (start, len) in self.mask.runs_in(start, len) {
            range.extend(&self.data[start..start + len]);
        }
        range.finish()
    }
}

/// `(min, max)` of `values` in `f64` working precision; `None` for an
/// empty slice. NaNs are skipped unless every value is NaN, which gives
/// `(NaN, NaN)` — the same fold [`AmrLevel::value_range`] runs over a
/// level's present cells, with the same canonical bits.
pub fn min_max<T: Element>(values: &[T]) -> Option<(f64, f64)> {
    let mut range = MinMax::new();
    range.extend(values);
    range.finish()
}

/// A running `(min, max)` over slices of values. A single `f64::min`
/// chain is bound by the latency of one `min` per value; this folds
/// [`MinMax::LANES`] independent accumulators over each slice, so the
/// chain is an eighth as long and the loop vectorizes. `f64::min`/`max`
/// drop a NaN operand, which is why the lanes can start at NaN and why
/// NaN values never reach the result unless nothing else does.
struct MinMax {
    lo: [f64; Self::LANES],
    hi: [f64; Self::LANES],
    any: bool,
}

impl MinMax {
    const LANES: usize = 8;

    fn new() -> Self {
        MinMax {
            lo: [f64::NAN; Self::LANES],
            hi: [f64::NAN; Self::LANES],
            any: false,
        }
    }

    fn extend<T: Element>(&mut self, values: &[T]) {
        self.any |= !values.is_empty();
        let mut chunks = values.chunks_exact(Self::LANES);
        for chunk in &mut chunks {
            self.fold(chunk);
        }
        self.fold(chunks.remainder());
    }

    /// Folds up to [`MinMax::LANES`] values, one per lane. Lanes are
    /// indexed, not zipped: optimised code is the same, and an
    /// unoptimised (test) build runs about twice as fast.
    #[inline]
    fn fold<T: Element>(&mut self, values: &[T]) {
        for (lane, v) in values.iter().enumerate().take(Self::LANES) {
            let x = v.to_f64();
            self.lo[lane] = self.lo[lane].min(x);
            self.hi[lane] = self.hi[lane].max(x);
        }
    }

    /// The folded extremes, canonical: which of two tied values a
    /// `min`/`max` keeps depends on operand order, and only `±0.0` and
    /// NaN payloads tie without being the same bits — so a NaN becomes
    /// `f64::NAN` and `-0.0` becomes `+0.0` (`x + 0.0` changes no other
    /// value).
    fn finish(self) -> Option<(f64, f64)> {
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v + 0.0 };
        self.any.then(|| {
            (
                canonical(self.lo.into_iter().fold(f64::NAN, f64::min)),
                canonical(self.hi.into_iter().fold(f64::NAN, f64::max)),
            )
        })
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

    /// A 7^3 level (343 cells: five full mask words and a tail) whose
    /// present cells come in runs of every length, some crossing word
    /// boundaries and one ending at the last cell.
    fn ragged_level(value: impl Fn(usize) -> f64) -> AmrLevel {
        let dim = 7;
        let mut lvl = AmrLevel::empty(dim);
        for i in 0..dim * dim * dim {
            if i % 13 < 9 || (120..135).contains(&i) || i >= 330 {
                lvl.set_value(i % dim, i / dim % dim, i / dim / dim, value(i));
            }
        }
        lvl
    }

    #[test]
    fn present_values_by_runs_match_the_per_bit_walk() {
        let lvl = ragged_level(|i| match i % 4 {
            0 => f64::from_bits(0x7FF8_0000_0000_0000 | i as u64),
            1 => -0.0,
            _ => i as f64 - 100.5,
        });
        let per_bit: Vec<u64> = lvl
            .mask()
            .iter_ones()
            .map(|i| lvl.data()[i].to_bits())
            .collect();
        let by_runs: Vec<u64> = lvl.present_values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(by_runs, per_bit);
        assert!(AmrLevel::<f64>::empty(3).present_values().is_empty());
    }

    #[test]
    fn value_range_matches_the_serial_fold_and_skips_nans() {
        let serial = |lvl: &AmrLevel| {
            let mut it = lvl.mask().iter_ones().map(|i| lvl.data()[i]);
            let first = it.next()?;
            Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
        };
        // Finite values, extremes in the middle of runs and at the tail.
        let lvl = ragged_level(|i| ((i * 7919) % 1013) as f64 - 500.0);
        assert_eq!(lvl.value_range(), serial(&lvl));
        // Sprinkled NaNs (including the first present cell) are skipped.
        let lvl = ragged_level(|i| if i % 3 == 0 { f64::NAN } else { i as f64 });
        assert_eq!(lvl.value_range(), serial(&lvl));
        assert_eq!(lvl.value_range(), Some((1.0, 341.0)));
        // Infinities are values, not holes.
        let lvl = ragged_level(|i| if i == 40 { f64::NEG_INFINITY } else { 1.0 });
        assert_eq!(lvl.value_range(), Some((f64::NEG_INFINITY, 1.0)));
        // Every present value NaN: the range itself is NaN.
        let lvl = ragged_level(|_| f64::NAN);
        let (lo, hi) = lvl.value_range().unwrap();
        assert!(lo.is_nan() && hi.is_nan());
        // The slice fold is the same fold.
        let values: Vec<f32> = (0..37).map(|i| (i as f32 - 20.0) * 0.5).collect();
        assert_eq!(min_max(&values), Some((-10.0, 8.0)));
        assert_eq!(min_max(&values[..3]), Some((-10.0, -9.0)));
        assert_eq!(min_max::<f64>(&[]), None);
        let (lo, hi) = min_max(&[f32::NAN; 9]).unwrap();
        assert!(lo.is_nan() && hi.is_nan());
    }

    /// The ranges of `lvl` split every `len` cells, folded with
    /// `f64::min` / `f64::max` in split order (or reversed), as bits.
    fn merged<T: Element>(lvl: &AmrLevel<T>, len: usize, reversed: bool) -> Option<(u64, u64)> {
        let mut parts: Vec<_> = (0..lvl.num_cells())
            .step_by(len)
            .map(|start| lvl.value_range_in(start, len))
            .collect();
        if reversed {
            parts.reverse();
        }
        let merged = parts.into_iter().flatten();
        let (lo, hi) = merged.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))?;
        Some((lo.to_bits(), hi.to_bits()))
    }

    fn split_ranges_merge_to_the_whole_range<T: Element>() {
        let neg_zero_nan = |i: usize| match i % 3 {
            0 => -0.0,
            1 => 0.0,
            _ => f64::from_bits(0x7FF8_0000_0000_0000 | i as u64),
        };
        let cases: [(&str, &dyn Fn(usize) -> f64); 7] = [
            ("zero minimum of both signs", &|i| [0.0, -0.0, 2.5][i % 3]),
            ("zero maximum of both signs", &|i| [-0.0, -1.5, 0.0][i % 3]),
            ("only zeros and NaN payloads", &neg_zero_nan),
            ("NaN-only chunks", &|i| {
                if i < 200 {
                    f64::NAN
                } else {
                    i as f64
                }
            }),
            ("every value a NaN payload", &|i| {
                f64::from_bits(0xFFF8_0000_0000_0000 | i as u64)
            }),
            ("infinities", &|i| match i % 50 {
                7 => f64::INFINITY,
                8 => f64::NEG_INFINITY,
                _ => i as f64,
            }),
            ("finite", &|i| ((i * 7919) % 1013) as f64 - 500.0),
        ];
        for (what, value) in cases {
            let level_of = |present: &dyn Fn(usize) -> bool| {
                let mut lvl = AmrLevel::<T>::empty(7);
                for i in (0..343).filter(|&i| present(i)) {
                    lvl.set_value(i % 7, i / 7 % 7, i / 49, T::from_f64(value(i)));
                }
                lvl
            };
            // Ragged runs over mask words (`ragged_level`'s mask), and a
            // level whose first 150 cells — whole chunks at small splits
            // — are absent.
            let ragged = level_of(&|i| i % 13 < 9 || (120..135).contains(&i) || i >= 330);
            let late = level_of(&|i| i >= 150);
            for lvl in [&ragged, &late] {
                let whole = lvl
                    .value_range()
                    .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
                // A cell, a row, a plane (49: off the 64-bit words), a
                // word, and lengths straddling words and the level.
                for len in [1, 3, 7, 49, 64, 65, 100, 343, 1000] {
                    for reversed in [false, true] {
                        assert_eq!(
                            merged(lvl, len, reversed),
                            whole,
                            "{what}/{}: split {len}, reversed {reversed}",
                            T::DTYPE.label()
                        );
                    }
                }
                let (lo, hi) = whole.unwrap();
                for bits in [lo, hi] {
                    let v = f64::from_bits(bits);
                    assert!(v != 0.0 || bits == 0, "{what}: a zero extreme is +0.0");
                    assert!(!v.is_nan() || bits == f64::NAN.to_bits(), "{what}: NaN");
                }
            }
        }
        assert_eq!(AmrLevel::<T>::empty(4).value_range_in(0, 64), None);
        assert_eq!(ragged_level(|i| i as f64).value_range_in(343, 10), None);
    }

    #[test]
    fn split_ranges_merge_to_value_range_bit_for_bit() {
        split_ranges_merge_to_the_whole_range::<f64>();
        split_ranges_merge_to_the_whole_range::<f32>();
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
