//! A multi-level tree-based AMR dataset.

use crate::level::AmrLevel;
use tac_dtype::{Element, TacDtype};

/// A complete AMR snapshot of one scalar field.
///
/// Levels are ordered **fine to coarse** (index 0 = finest), matching the
/// paper's Table 1. The refinement ratio between adjacent levels is fixed
/// at 2: level `l+1` has half the side length of level `l`, and one of its
/// cells covers a 2x2x2 block of level-`l` positions.
///
/// The *tree-based* invariant (AMReX quadtree/octree mode, used by Nyx):
/// every spatial position at finest resolution is covered by **exactly
/// one** present cell across all levels — no redundancy.
///
/// All levels share one element type `T` (`f64` by default).
#[derive(Debug, Clone)]
pub struct AmrDataset<T: Element = f64> {
    name: String,
    levels: Vec<AmrLevel<T>>,
}

/// Violations reported by [`AmrDataset::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmrValidationError {
    /// Fewer than one level.
    NoLevels,
    /// Level `i+1` does not have half the side of level `i`.
    BadRefinementRatio {
        /// Index of the finer level.
        fine_level: usize,
        /// Side of the finer level.
        fine_dim: usize,
        /// Side of the coarser level.
        coarse_dim: usize,
    },
    /// A finest-resolution position covered by `count` levels (must be 1).
    CoverageViolation {
        /// Position in finest-level coordinates.
        position: (usize, usize, usize),
        /// How many levels claim this position.
        count: usize,
    },
}

impl std::fmt::Display for AmrValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmrValidationError::NoLevels => write!(f, "dataset has no levels"),
            AmrValidationError::BadRefinementRatio {
                fine_level,
                fine_dim,
                coarse_dim,
            } => write!(
                f,
                "level {} has dim {fine_dim} but level {} has dim {coarse_dim} (ratio must be 2)",
                fine_level,
                fine_level + 1
            ),
            AmrValidationError::CoverageViolation { position, count } => write!(
                f,
                "finest position {position:?} covered by {count} levels (expected exactly 1)"
            ),
        }
    }
}

impl std::error::Error for AmrValidationError {}

impl<T: Element> AmrDataset<T> {
    /// Builds a dataset from fine-to-coarse levels.
    ///
    /// # Panics
    /// Panics if `levels` is empty. Refinement/coverage issues are *not*
    /// checked here; call [`AmrDataset::validate`].
    pub fn new(name: impl Into<String>, levels: Vec<AmrLevel<T>>) -> Self {
        assert!(!levels.is_empty(), "dataset needs at least one level");
        AmrDataset {
            name: name.into(),
            levels,
        }
    }

    /// Dataset name (e.g. `Run1_Z10`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type shared by every level.
    pub fn dtype(&self) -> TacDtype {
        T::DTYPE
    }

    /// Levels, fine to coarse.
    pub fn levels(&self) -> &[AmrLevel<T>] {
        &self.levels
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The finest level.
    pub fn finest(&self) -> &AmrLevel<T> {
        &self.levels[0]
    }

    /// Side length of the finest grid (the uniform-resolution size).
    pub fn finest_dim(&self) -> usize {
        self.levels[0].dim()
    }

    /// Total number of *present* cells across levels (true storage size of
    /// the AMR representation).
    pub fn total_present(&self) -> usize {
        self.levels.iter().map(|l| l.num_present()).sum()
    }

    /// Per-level densities, fine to coarse (Table 1's density column).
    pub fn densities(&self) -> Vec<f64> {
        self.levels.iter().map(|l| l.density()).collect()
    }

    /// Scale factor from level `l` cells to finest positions: `2^l`.
    pub fn upsample_rate(&self, level: usize) -> usize {
        1 << level
    }

    /// Checks refinement ratios and the exactly-one-cover invariant.
    pub fn validate(&self) -> Result<(), AmrValidationError> {
        if self.levels.is_empty() {
            return Err(AmrValidationError::NoLevels);
        }
        for i in 0..self.levels.len() - 1 {
            let fine = self.levels[i].dim();
            let coarse = self.levels[i + 1].dim();
            if coarse * 2 != fine {
                return Err(AmrValidationError::BadRefinementRatio {
                    fine_level: i,
                    fine_dim: fine,
                    coarse_dim: coarse,
                });
            }
        }
        // Count covering levels per finest position.
        let n = self.finest_dim();
        let mut cover = vec![0u8; n * n * n];
        for (l, level) in self.levels.iter().enumerate() {
            let scale = self.upsample_rate(l);
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
                                    let fx = x * scale + dx;
                                    let fy = y * scale + dy;
                                    let fz = z * scale + dz;
                                    cover[fx + n * (fy + n * fz)] += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        for (i, &c) in cover.iter().enumerate() {
            if c != 1 {
                let x = i % n;
                let y = (i / n) % n;
                let z = i / (n * n);
                return Err(AmrValidationError::CoverageViolation {
                    position: (x, y, z),
                    count: c as usize,
                });
            }
        }
        Ok(())
    }

    /// Density of the finest level — the quantity TAC's top-level
    /// TAC-vs-3D-baseline switch inspects (Sec. 4.4).
    pub fn finest_density(&self) -> f64 {
        self.levels[0].density()
    }

    /// The same dataset stored at element type `U`: every value goes
    /// through `f64` (widening is exact, narrowing rounds to nearest),
    /// masks and name are kept.
    pub fn cast<U: Element>(&self) -> AmrDataset<U> {
        let levels = self
            .levels
            .iter()
            .map(|l| {
                let data = l.data().iter().map(|&v| U::from_f64(v.to_f64())).collect();
                AmrLevel::new(l.dim(), data, l.mask().clone())
            })
            .collect();
        AmrDataset::new(self.name.clone(), levels)
    }
}

#[cfg(test)]
pub(crate) use tests::half_refined;

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-level dataset: the +x half of the domain refined, the -x half
    /// coarse.
    pub(crate) fn half_refined(fine_dim: usize) -> AmrDataset {
        let coarse_dim = fine_dim / 2;
        let mut fine = AmrLevel::empty(fine_dim);
        for z in 0..fine_dim {
            for y in 0..fine_dim {
                for x in fine_dim / 2..fine_dim {
                    fine.set_value(x, y, z, (x + y + z) as f64);
                }
            }
        }
        let mut coarse = AmrLevel::empty(coarse_dim);
        for z in 0..coarse_dim {
            for y in 0..coarse_dim {
                for x in 0..coarse_dim / 2 {
                    coarse.set_value(x, y, z, (x * y * z) as f64 + 1.0);
                }
            }
        }
        AmrDataset::new("half", vec![fine, coarse])
    }

    #[test]
    fn valid_two_level_dataset() {
        let ds = half_refined(8);
        assert_eq!(ds.num_levels(), 2);
        assert!(ds.validate().is_ok());
        assert!((ds.finest_density() - 0.5).abs() < 1e-12);
        assert_eq!(ds.total_present(), 8 * 8 * 4 + 4 * 4 * 2);
    }

    #[test]
    fn refinement_ratio_violation_detected() {
        let fine = AmrLevel::dense(8, vec![0.0; 512]);
        let coarse = AmrLevel::empty(2); // should be 4
        let ds = AmrDataset::new("bad", vec![fine, coarse]);
        assert!(matches!(
            ds.validate(),
            Err(AmrValidationError::BadRefinementRatio { .. })
        ));
    }

    #[test]
    fn double_coverage_detected() {
        // Fine level fully present AND coarse cell (0,0,0) present.
        let fine = AmrLevel::dense(4, vec![1.0; 64]);
        let mut coarse = AmrLevel::empty(2);
        coarse.set_value(0, 0, 0, 2.0);
        let ds = AmrDataset::new("dup", vec![fine, coarse]);
        assert!(matches!(
            ds.validate(),
            Err(AmrValidationError::CoverageViolation { count: 2, .. })
        ));
    }

    #[test]
    fn hole_detected() {
        // Nothing covers any position.
        let fine = AmrLevel::<f64>::empty(4);
        let coarse = AmrLevel::empty(2);
        let ds = AmrDataset::new("hole", vec![fine, coarse]);
        assert!(matches!(
            ds.validate(),
            Err(AmrValidationError::CoverageViolation { count: 0, .. })
        ));
    }

    #[test]
    fn single_level_dense_is_valid() {
        let ds = AmrDataset::new("uni", vec![AmrLevel::dense(4, vec![1.0; 64])]);
        assert!(ds.validate().is_ok());
        assert_eq!(ds.upsample_rate(0), 1);
    }

    #[test]
    fn cast_keeps_masks_rounds_to_nearest_and_widens_exactly() {
        let mut ds = half_refined(8);
        // 0.1 is not representable at f32; 2^24 + 1 sits between two f32s.
        ds.levels[0].set_value(7, 0, 0, 0.1);
        ds.levels[0].set_value(7, 1, 0, 16_777_217.0);
        let narrow: AmrDataset<f32> = ds.cast();
        assert_eq!(narrow.name(), ds.name());
        for (a, b) in ds.levels().iter().zip(narrow.levels()) {
            assert_eq!(a.mask(), b.mask());
            assert_eq!(a.dim(), b.dim());
        }
        assert_eq!(narrow.levels()[0].value(7, 0, 0), 0.1f32);
        assert_eq!(narrow.levels()[0].value(7, 1, 0), 16_777_216.0f32);
        let wide: AmrDataset = narrow.cast();
        for (a, b) in narrow.levels().iter().zip(wide.levels()) {
            assert_eq!(a.mask(), b.mask());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(*x as f64, *y);
            }
        }
        // Narrowing what was widened is the identity.
        let back: AmrDataset<f32> = wide.cast();
        for (a, b) in narrow.levels().iter().zip(back.levels()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn densities_match_levels() {
        let ds = half_refined(8);
        let d = ds.densities();
        assert_eq!(d.len(), 2);
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 0.5).abs() < 1e-12);
    }
}
