//! Refinement-mask construction: turns a uniform field into a tree-based
//! AMR dataset whose per-level densities match a target specification.
//!
//! Real AMR codes refine a region when its value (or gradient) exceeds a
//! threshold. To reproduce the *exact* density geometry of the paper's
//! Table 1 datasets we invert that: rank regions by their refinement score
//! (block maximum of the field — the `max value > threshold` rule)
//! and refine precisely enough of the highest-scoring regions to hit each
//! level's target density. The resulting masks are spatially coherent —
//! refined regions cluster around the field's peaks, as in the paper's
//! Fig. 4 — and the densities land within integer rounding of the spec.

use tac_amr::{AmrDataset, AmrLevel, BitMask};

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
/// # Ranking
///
/// Levels are assigned coarsest first. A level's candidates are every
/// cell of the coarsest level, or the children of the cells the level
/// above refined. Each candidate is ranked by its score: the maximum,
/// over the finest cells it covers, of the field value times a
/// deterministic jitter factor. Real refinement criteria (gradient
/// norms, per-patch thresholds) do not rank-order the domain strictly by
/// value, so moderate-value regions stay coarse too; the jitter
/// reproduces that value mixing while keeping densities exact. It is
/// constant across 8^3-cell patches of the finest grid, and the patch id
/// `x + n * (y + n * z)` over patch coordinates strides by `n`, not
/// `n / 8`: that id seeds every generated dataset, so it stays as
/// written. The jitter only scales the score: refinement is still decided
/// per cell, so the masks follow the score field cell by cell and can be
/// speckled wherever it is — unlike AMReX, which refines whole
/// box-aligned patches.
///
/// The level's target count of lowest-ranked candidates stays present
/// and the rest refine. Candidates are ordered by score, then by flat
/// index, with scores compared by [`f64::total_cmp`] after `-0.0` is
/// made `+0.0` and every NaN one positive NaN, so a NaN score ranks
/// above every number and refines first. Block maxima skip NaN cells
/// (an all-NaN block scores `f64::MIN`), so a field holding NaN builds
/// like any other. The finest level keeps every candidate it gets, so
/// it is never ranked.
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

    // Score (block maxima) and mean (restriction values) pyramids for
    // levels 1.., finest first; level 0's are the jittered field and
    // `uniform` itself, which nothing needs materialised.
    let mut scores: Vec<Vec<f64>> = Vec::with_capacity(levels - 1);
    let mut means: Vec<Vec<f64>> = Vec::with_capacity(levels - 1);
    if levels > 1 {
        let jitter = patch_jitter(n);
        let patches = n.div_ceil(8);
        scores.push(coarsen(uniform, n, |[x, y, z], cells| {
            // A level-1 cell's 2^3 block lies inside one 8^3 patch.
            let factor = jitter[(x >> 2) + patches * ((y >> 2) + patches * (z >> 2))];
            cells.iter().fold(f64::MIN, |s, &v| s.max(v * factor))
        }));
        means.push(coarsen(uniform, n, block_mean));
    }
    for l in 2..levels {
        let fine_dim = n >> (l - 1);
        scores.push(coarsen(&scores[l - 2], fine_dim, |_, cells| {
            cells.iter().fold(f64::MIN, |s, &v| s.max(v))
        }));
        means.push(coarsen(&means[l - 2], fine_dim, block_mean));
    }

    // Top-down assignment, coarsest first, of every level but the finest.
    // `candidates` marks the current level's cells still unassigned.
    let mut amr_levels: Vec<AmrLevel> = Vec::with_capacity(levels);
    let coarsest_dim = n >> (levels - 1);
    let mut candidates = BitMask::ones(coarsest_dim * coarsest_dim * coarsest_dim);
    for l in (1..levels).rev() {
        let dim = n >> l;
        let cells = dim * dim * dim;
        let (scores, means) = (&scores[l - 1], &means[l - 1]);
        let mut ranked: Vec<(f64, usize)> = candidates
            .iter_ones()
            .map(|cell| (rank_key(scores[cell]), cell))
            .collect();
        let target = (spec.densities[l] * cells as f64).round() as usize;
        let keep = target.min(ranked.len());
        // Only which candidates stay matters, not their order, and the
        // order is total (indices are distinct): a selection suffices.
        let by_rank = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if keep < ranked.len() {
            ranked.select_nth_unstable_by(keep, by_rank);
        }
        let mut data = vec![0.0f64; cells];
        let mut present = BitMask::zeros(cells);
        for &(_, cell) in &ranked[..keep] {
            data[cell] = means[cell];
            present.set(cell, true);
        }
        let mut refined = BitMask::zeros(cells);
        for &(_, cell) in &ranked[keep..] {
            refined.set(cell, true);
        }
        amr_levels.push(AmrLevel::new(dim, data, present));
        candidates = refined.upsample2(dim);
    }

    // The finest level keeps everything still on the table.
    let mut data = vec![0.0f64; n * n * n];
    for (start, len) in candidates.runs() {
        data[start..start + len].copy_from_slice(&uniform[start..start + len]);
    }
    amr_levels.push(AmrLevel::new(n, data, candidates));
    amr_levels.reverse();
    AmrDataset::new(name, amr_levels)
}

/// The jitter factor `exp(0.6 u)` of every 8^3 patch of an `n^3` grid,
/// indexed by patch coordinates `px + p * (py + p * pz)` with
/// `p = ceil(n / 8)`. `u` in [-1, 1) is the splitmix64 hash of the patch
/// id `px + n * (py + n * pz)`.
fn patch_jitter(n: usize) -> Vec<f64> {
    let patches = n.div_ceil(8);
    let mut jitter = Vec::with_capacity(patches * patches * patches);
    for z in 0..patches {
        for y in 0..patches {
            for x in 0..patches {
                let patch = (x + n * (y + n * z)) as u64;
                let mut h = patch.wrapping_add(0x9E37_79B9_7F4A_7C15);
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                let u = (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                jitter.push((0.6 * u).exp());
            }
        }
    }
    jitter
}

/// One grid level coarser: cell `[x, y, z]` of the `(fine_dim / 2)^3`
/// result is `block(cell, children)`, its eight children of `fine` in
/// (z, y, x) order, x fastest.
fn coarsen(
    fine: &[f64],
    fine_dim: usize,
    mut block: impl FnMut([usize; 3], [f64; 8]) -> f64,
) -> Vec<f64> {
    let dim = fine_dim / 2;
    let mut out = Vec::with_capacity(dim * dim * dim);
    for z in 0..dim {
        for y in 0..dim {
            let row = |dy: usize, dz: usize| {
                let start = fine_dim * (2 * y + dy + fine_dim * (2 * z + dz));
                fine[start..start + fine_dim].chunks_exact(2)
            };
            let rows = row(0, 0).zip(row(1, 0)).zip(row(0, 1)).zip(row(1, 1));
            for (x, (((a, b), c), d)) in rows.enumerate() {
                let cells = [a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]];
                out.push(block([x, y, z], cells));
            }
        }
    }
    out
}

/// A block's restriction value: the children's mean, summed in order.
fn block_mean(_: [usize; 3], cells: [f64; 8]) -> f64 {
    cells.iter().fold(0.0, |m, &v| m + v * 0.125)
}

/// A score as a ranking key for [`f64::total_cmp`]: `-0.0` becomes
/// `+0.0` and every NaN one positive NaN, so keys compare as `partial_cmp`
/// compares their scores wherever that is defined.
fn rank_key(score: f64) -> f64 {
    if score.is_nan() {
        f64::NAN.abs()
    } else if score == 0.0 {
        0.0
    } else {
        score
    }
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
    fn nan_sprinkled_fields_build() {
        // NaN cells of either sign: the ranking must stay a total order
        // (the sort used to panic on them) and the build deterministic.
        let n = 32;
        let spec = RefinementSpec::new(vec![0.1, 0.3, 0.6]);
        for seed in 0..8u64 {
            let mut field = test_field(n, 100 + seed);
            let mut h = seed;
            for k in 0..200 {
                h = h
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cell = (h >> 33) as usize % field.len();
                field[cell] = if k % 2 == 0 { f64::NAN } else { -f64::NAN };
            }
            let a = build_amr("nan", &field, n, &spec);
            a.validate().unwrap();
            for (got, want) in a.densities().iter().zip(spec.densities()) {
                assert!(
                    (got - want).abs() < 0.01,
                    "seed {seed}: density {got} vs {want}"
                );
            }
            let b = build_amr("nan", &field, n, &spec);
            for (x, y) in a.levels().iter().zip(b.levels()) {
                assert_eq!(x.mask(), y.mask());
                assert!(x
                    .data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_spec_panics() {
        RefinementSpec::new(vec![0.8, 0.8]);
    }
}
