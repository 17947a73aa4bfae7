//! The seven evaluation datasets of the paper's Table 1, regenerated
//! synthetically at a configurable scale.

use crate::field::{synthesize, FieldKind};
use crate::refine::{build_amr, RefinementSpec};
use tac_amr::AmrDataset;

/// Catalog row: name, level geometry, per-level target densities.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Dataset name as in Table 1 (e.g. `Run1_Z10`).
    pub name: &'static str,
    /// Finest-grid side in the paper (512, 256, or 1024).
    pub paper_fine_dim: usize,
    /// Per-level densities, fine to coarse, as fractions.
    pub densities: &'static [f64],
}

impl CatalogEntry {
    /// Number of AMR levels.
    pub fn num_levels(&self) -> usize {
        self.densities.len()
    }

    /// Finest-grid side after applying `scale` (a divisor of the paper's
    /// size: scale 4 maps 512 -> 128).
    pub fn scaled_fine_dim(&self, scale: usize) -> usize {
        (self.paper_fine_dim / scale).max(1 << (self.num_levels() - 1))
    }

    /// Generates this dataset for one field at reduced scale.
    ///
    /// `scale` divides the paper's grid (use 4 for laptop-sized runs);
    /// `seed` controls the underlying random field.
    ///
    /// # Panics
    /// Panics if `scale` is 0 (it divides the paper's side), or if the
    /// scaled side is not a power of two (`gaussian_random_field` asserts
    /// it): any power-of-two `scale` is safe.
    pub fn generate(&self, kind: FieldKind, scale: usize, seed: u64) -> AmrDataset {
        let n = self.scaled_fine_dim(scale);
        let uniform = synthesize(kind, n, seed ^ fxhash(self.name));
        build_amr(self.name, &uniform, n, &self.spec())
    }

    /// The entry's refinement spec (Table 1 densities) as a reusable
    /// [`RefinementSpec`] — external generators can pair the paper's
    /// level geometry with their own uniform fields via
    /// [`build_amr`](crate::build_amr).
    pub fn spec(&self) -> RefinementSpec {
        RefinementSpec::new(self.densities.to_vec())
    }
}

/// Tiny deterministic string hash (datasets get distinct random fields).
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Table 1, Run 1: two-level 512/256 snapshots at redshifts 10, 5, 3, 2.
/// Run 2: deep refinement hierarchies with very sparse finest levels.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        name: "Run1_Z10",
        paper_fine_dim: 512,
        densities: &[0.23, 0.77],
    },
    CatalogEntry {
        name: "Run1_Z5",
        paper_fine_dim: 512,
        densities: &[0.58, 0.42],
    },
    CatalogEntry {
        name: "Run1_Z3",
        paper_fine_dim: 512,
        densities: &[0.64, 0.36],
    },
    CatalogEntry {
        name: "Run1_Z2",
        paper_fine_dim: 512,
        densities: &[0.63, 0.37],
    },
    CatalogEntry {
        name: "Run2_T2",
        paper_fine_dim: 256,
        densities: &[0.002, 0.998],
    },
    CatalogEntry {
        name: "Run2_T3",
        paper_fine_dim: 512,
        densities: &[0.0002, 0.0056, 0.9942],
    },
    CatalogEntry {
        name: "Run2_T4",
        paper_fine_dim: 1024,
        densities: &[3e-5, 0.0002, 0.022, 0.977],
    },
];

/// Looks up a catalog entry by name.
pub fn entry(name: &str) -> Option<&'static CatalogEntry> {
    CATALOG.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table1_shape() {
        assert_eq!(CATALOG.len(), 7);
        assert_eq!(entry("Run1_Z10").unwrap().num_levels(), 2);
        assert_eq!(entry("Run2_T3").unwrap().num_levels(), 3);
        assert_eq!(entry("Run2_T4").unwrap().num_levels(), 4);
        assert!(entry("Run9_X").is_none());
        for e in CATALOG {
            let sum: f64 = e.densities.iter().sum();
            assert!((sum - 1.0).abs() < 0.01, "{}: densities sum {sum}", e.name);
        }
    }

    #[test]
    fn generate_z10_at_small_scale() {
        let e = entry("Run1_Z10").unwrap();
        let ds = e.generate(FieldKind::BaryonDensity, 16, 1); // fine dim 32
        ds.validate().unwrap();
        assert_eq!(ds.finest_dim(), 32);
        let d = ds.densities();
        assert!((d[0] - 0.23).abs() < 0.05, "fine density {}", d[0]);
    }

    #[test]
    fn generate_deep_hierarchy() {
        let e = entry("Run2_T4").unwrap();
        let ds = e.generate(FieldKind::BaryonDensity, 16, 1); // fine dim 64
        ds.validate().unwrap();
        assert_eq!(ds.num_levels(), 4);
        // Finest is *extremely* sparse.
        assert!(ds.finest_density() < 0.01);
    }

    #[test]
    fn scaled_dim_respects_level_floor() {
        let e = entry("Run2_T4").unwrap();
        // Absurd scale cannot shrink below 2^(levels-1).
        assert!(e.scaled_fine_dim(100_000) >= 8);
    }

    #[test]
    fn different_datasets_get_different_fields() {
        let a = entry("Run1_Z3")
            .unwrap()
            .generate(FieldKind::BaryonDensity, 32, 1);
        let b = entry("Run1_Z2")
            .unwrap()
            .generate(FieldKind::BaryonDensity, 32, 1);
        assert_ne!(a.finest().data(), b.finest().data());
    }
}
