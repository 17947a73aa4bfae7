//! Refinement-mask construction: turns a uniform field into a tree-based
//! AMR dataset whose per-level densities match a target specification.
//!
//! Real AMR codes refine a region when its value (or gradient) exceeds a
//! threshold. To reproduce the *exact* density geometry of the paper's
//! Table 1 datasets we invert that: rank regions by their refinement score
//! (block maximum of the field — the `max value > threshold` criterion)
//! and refine precisely enough of the highest-scoring regions to hit each
//! level's target density. The resulting masks are spatially coherent —
//! refined regions cluster around the field's peaks, as in the paper's
//! Fig. 4 — and the densities land within integer rounding of the spec.

use tac_amr::{AmrDataset, AmrLevel};

/// Target per-level densities, **fine to coarse** (Table 1 ordering).
///
/// For a valid tree-based dataset the densities must satisfy
/// `sum_l d_l = 1` (each level's density equals the fraction of the
/// domain volume it covers). Specs that sum to slightly less than 1 (the
/// paper's Run2_T4 row) are repaired by assigning the slack to the
/// coarsest level.
#[derive(Debug, Clone)]
pub struct RefinementSpec {
    densities: Vec<f64>,
}

impl RefinementSpec {
    /// Creates a spec; densities are fine-to-coarse fractions in [0, 1].
    ///
    /// # Panics
    /// Panics if empty, if any density is outside [0, 1], or if the sum
    /// exceeds 1 by more than 1%.
    pub fn new(densities: Vec<f64>) -> Self {
        assert!(!densities.is_empty(), "need at least one level");
        assert!(
            densities.iter().all(|&d| (0.0..=1.0).contains(&d)),
            "densities must be fractions in [0, 1]"
        );
        let sum: f64 = densities.iter().sum();
        assert!(sum <= 1.01, "densities sum to {sum} > 1");
        RefinementSpec { densities }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.densities.len()
    }

    /// Target densities, fine to coarse.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }
}

/// Builds an AMR dataset from `uniform` (an `n^3` grid, x fastest) with
/// level densities matching `spec`.
///
/// Present coarse cells store the **mean** of the fine values they cover
/// (the restriction operator); finest-level cells store exact values.
///
/// # Panics
/// Panics if `n` is not divisible by `2^(levels-1)` or the data length is
/// wrong.
pub fn build_amr(
    name: impl Into<String>,
    uniform: &[f64],
    n: usize,
    spec: &RefinementSpec,
) -> AmrDataset {
    assert_eq!(uniform.len(), n * n * n, "uniform grid size mismatch");
    let levels = spec.num_levels();
    assert!(
        n % (1 << (levels - 1)) == 0,
        "grid side {n} not divisible by 2^{}",
        levels - 1
    );

    // Per-level score pyramids (block maxima) and mean pyramids
    // (restriction values), finest first. The score is the field value
    // times a deterministic jitter factor: real refinement criteria
    // (gradient norms, per-patch thresholds) do not rank-order the domain
    // strictly by value, so moderate-value regions stay coarse too. The
    // jitter reproduces that value mixing while keeping densities exact.
    let mut score_pyramid: Vec<Vec<f64>> = Vec::with_capacity(levels);
    let mut mean_pyramid: Vec<Vec<f64>> = Vec::with_capacity(levels);
    // Jitter is constant across 8^3-cell patches of the finest grid (the
    // `>> 3` below). It only scales the score: refinement is still decided
    // per cell, each level ranking its individual cells, so the masks
    // follow the score field cell by cell and can be speckled wherever it
    // is — unlike AMReX, which refines whole box-aligned patches.
    let jittered: Vec<f64> = uniform
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let x = (i % n) >> 3;
            let y = ((i / n) % n) >> 3;
            let z = (i / (n * n)) >> 3;
            let patch = (x + n * (y + n * z)) as u64;
            // splitmix64 of the patch id -> uniform in [-1, 1).
            let mut h = patch.wrapping_add(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            let u = (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            v * (0.6 * u).exp()
        })
        .collect();
    score_pyramid.push(jittered);
    mean_pyramid.push(uniform.to_vec());
    for l in 1..levels {
        let fine_dim = n >> (l - 1);
        let dim = n >> l;
        let finer_score = &score_pyramid[l - 1];
        let finer_mean = &mean_pyramid[l - 1];
        let mut score = vec![f64::MIN; dim * dim * dim];
        let mut mean = vec![0.0f64; dim * dim * dim];
        for z in 0..fine_dim {
            for y in 0..fine_dim {
                for x in 0..fine_dim {
                    let src = x + fine_dim * (y + fine_dim * z);
                    let dst = (x / 2) + dim * ((y / 2) + dim * (z / 2));
                    score[dst] = score[dst].max(finer_score[src]);
                    mean[dst] += finer_mean[src] * 0.125;
                }
            }
        }
        score_pyramid.push(score);
        mean_pyramid.push(mean);
    }

    // Integer targets per level (how many cells stay *present*). The
    // finest level absorbs all remaining coverage.
    let mut targets: Vec<usize> = (0..levels)
        .map(|l| {
            let dim = n >> l;
            (spec.densities[l] * (dim * dim * dim) as f64).round() as usize
        })
        .collect();

    // Top-down assignment, coarsest first. `candidates` holds flat cell
    // indices of the current level still unassigned.
    let mut amr_levels: Vec<AmrLevel> = (0..levels).map(|l| AmrLevel::empty(n >> l)).collect();
    let coarsest = levels - 1;
    let coarsest_dim = n >> coarsest;
    let mut candidates: Vec<usize> = (0..coarsest_dim * coarsest_dim * coarsest_dim).collect();

    for l in (0..levels).rev() {
        let dim = n >> l;
        if l == 0 {
            // Finest level keeps everything still on the table.
            targets[0] = candidates.len();
        }
        let keep = targets[l].min(candidates.len());
        // Highest score refines; keep the lowest-score cells here. Sorting
        // by (score, index) makes the construction deterministic.
        let scores = &score_pyramid[l];
        candidates.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let means = &mean_pyramid[l];
        for &cell in candidates.iter().take(keep) {
            let x = cell % dim;
            let y = (cell / dim) % dim;
            let z = cell / (dim * dim);
            amr_levels[l].set_value(x, y, z, means[cell]);
        }
        if l == 0 {
            break;
        }
        // Refined cells spawn 8 children as next-level candidates.
        let child_dim = dim * 2;
        let mut next = Vec::with_capacity((candidates.len() - keep) * 8);
        for &cell in candidates.iter().skip(keep) {
            let x = cell % dim;
            let y = (cell / dim) % dim;
            let z = cell / (dim * dim);
            for dz in 0..2 {
                for dy in 0..2 {
                    for dx in 0..2 {
                        next.push(
                            (2 * x + dx) + child_dim * ((2 * y + dy) + child_dim * (2 * z + dz)),
                        );
                    }
                }
            }
        }
        candidates = next;
    }

    AmrDataset::new(name, amr_levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grf::{gaussian_random_field, SpectrumModel};

    fn test_field(n: usize, seed: u64) -> Vec<f64> {
        gaussian_random_field(n, &SpectrumModel::default(), seed)
    }

    #[test]
    fn two_level_densities_hit_target() {
        let n = 32;
        let field = test_field(n, 1);
        let spec = RefinementSpec::new(vec![0.23, 0.77]);
        let ds = build_amr("z10ish", &field, n, &spec);
        ds.validate().unwrap();
        let d = ds.densities();
        assert!((d[0] - 0.23).abs() < 0.02, "fine density {}", d[0]);
        assert!((d[1] - 0.77).abs() < 0.02, "coarse density {}", d[1]);
    }

    #[test]
    fn four_level_dataset_is_valid() {
        let n = 64;
        let field = test_field(n, 2);
        let spec = RefinementSpec::new(vec![3e-5, 0.0002, 0.022, 0.977]);
        let ds = build_amr("t4ish", &field, n, &spec);
        ds.validate().unwrap();
        assert_eq!(ds.num_levels(), 4);
        // Coarsest density close to target.
        let d = ds.densities();
        assert!((d[3] - 0.977).abs() < 0.03, "coarsest density {}", d[3]);
    }

    #[test]
    fn refinement_follows_peaks() {
        // Plant one huge peak; the finest level must be present there.
        let n = 16;
        let mut field = vec![0.0f64; n * n * n];
        field[5 + n * (6 + n * 7)] = 100.0;
        let spec = RefinementSpec::new(vec![0.1, 0.9]);
        let ds = build_amr("peak", &field, n, &spec);
        ds.validate().unwrap();
        assert!(ds.finest().present(5, 6, 7), "peak cell must be refined");
    }

    #[test]
    fn coarse_values_are_block_means() {
        let n = 8;
        let field: Vec<f64> = (0..n * n * n).map(|i| i as f64).collect();
        let spec = RefinementSpec::new(vec![0.0, 1.0]); // nothing refined
        let ds = build_amr("means", &field, n, &spec);
        ds.validate().unwrap();
        let coarse = &ds.levels()[1];
        // Cell (0,0,0) covers fine block [0,2)^3: mean of those indices.
        let mut want = 0.0;
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    want += (x + n * (y + n * z)) as f64 / 8.0;
                }
            }
        }
        assert!((coarse.value(0, 0, 0) - want).abs() < 1e-9);
    }

    #[test]
    fn single_level_spec_keeps_everything() {
        let n = 8;
        let field = test_field(n, 3);
        let spec = RefinementSpec::new(vec![1.0]);
        let ds = build_amr("uni", &field, n, &spec);
        ds.validate().unwrap();
        assert_eq!(ds.finest_density(), 1.0);
        assert_eq!(ds.finest().data(), &field[..]);
    }

    #[test]
    fn construction_is_deterministic() {
        let n = 16;
        let field = test_field(n, 4);
        let spec = RefinementSpec::new(vec![0.3, 0.7]);
        let a = build_amr("a", &field, n, &spec);
        let b = build_amr("b", &field, n, &spec);
        for (x, y) in a.levels().iter().zip(b.levels()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_spec_panics() {
        RefinementSpec::new(vec![0.8, 0.8]);
    }
}
