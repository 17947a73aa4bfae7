//! The adversarial scenario registry.
//!
//! The paper evaluates TAC on seven Nyx snapshots whose fields are all
//! smooth, positive, and comfortably mid-range. Compressors break
//! elsewhere: at discontinuities, at the extremes of the f64 lattice,
//! and on refinement geometries no cosmology run produces. Each
//! [`ScenarioSpec`] here deterministically generates one such adversary
//! from a `u64` seed — a complete, *valid* (exactly-one-cover) AMR
//! dataset plus the error-bound/unit configuration it should be
//! compressed with — so the conformance matrix and the fuzzer can sweep
//! the same structures forever and bisect any failure to a seed.
//!
//! Adding a scenario: write a `fn(seed: u64) -> AmrDataset` (route all
//! randomness through [`TestRng`](crate::TestRng); build irregular
//! geometries with [`dataset_from_assignment`]), append a `ScenarioSpec`
//! to [`scenarios`], and the conformance matrix, the fuzz corpus, and
//! the `conformance` runner binary pick it up automatically.

use crate::rng::TestRng;
use tac_amr::{AmrDataset, AmrLevel};
use tac_core::ErrorBound;
use tac_core::{TacConfig, TacDtype};

/// One registered adversarial scenario: a named, seeded dataset
/// generator plus the compression configuration it is meant to stress.
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Stable registry key (kebab-case).
    pub name: &'static str,
    /// What the scenario stresses and why it is adversarial.
    pub description: &'static str,
    /// Side of the finest grid every build produces.
    pub finest_dim: usize,
    /// Number of AMR levels every build produces.
    pub num_levels: usize,
    /// Error bound the conformance matrix compresses this scenario with.
    pub error_bound: ErrorBound,
    /// Unit-block size for the TAC pre-process.
    pub unit: usize,
    /// Element type the conformance matrix stores this scenario at. The
    /// generator always produces `f64` values; `F32` scenarios generate
    /// only exactly-f32-representable values, so the matrix narrows them
    /// losslessly before compressing.
    pub dtype: TacDtype,
    build: fn(u64) -> AmrDataset,
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("name", &self.name)
            .field("finest_dim", &self.finest_dim)
            .field("num_levels", &self.num_levels)
            .field("error_bound", &self.error_bound)
            .finish()
    }
}

impl ScenarioSpec {
    /// Generates the scenario dataset for `seed`. The result is always a
    /// valid tree-based AMR dataset (the generator asserts it).
    pub fn build(&self, seed: u64) -> AmrDataset {
        let ds = (self.build)(seed);
        debug_assert_eq!(ds.finest_dim(), self.finest_dim, "{}", self.name);
        debug_assert_eq!(ds.num_levels(), self.num_levels, "{}", self.name);
        ds
    }

    /// The `TacConfig` the conformance matrix pairs with this scenario
    /// (error bound + unit; codec and parallelism are the sweep's axes).
    pub fn config(&self) -> TacConfig {
        TacConfig {
            unit: self.unit,
            error_bound: self.error_bound,
            // Chunks stay spatially bounded so the ROI-agreement leg of
            // the matrix has real selectivity to exercise.
            roi_tile: (self.finest_dim >= 8).then_some(self.finest_dim / 2),
            ..Default::default()
        }
    }
}

/// Every registered scenario: the nyx-like baseline workload plus the
/// adversarial structures described on each entry.
pub fn scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "nyx-grf",
            description: "the repo's historical workload: Run1_Z10 baryon density at \
                          benchmark scale (smooth lognormal field, blobby refinement)",
            finest_dim: 32,
            num_levels: 2,
            error_bound: ErrorBound::Rel(1e-3),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_nyx_grf,
        },
        ScenarioSpec {
            name: "shock-front",
            description: "planar discontinuity: values jump ~2e4 across one cell, the \
                          worst case for Lorenzo/delta prediction; refinement tracks \
                          the front",
            finest_dim: 16,
            num_levels: 2,
            error_bound: ErrorBound::Rel(1e-3),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_shock_front,
        },
        ScenarioSpec {
            name: "spike-field",
            description: "near-constant field with rare isolated 1e6 spikes: exercises \
                          outlier paths (SZ unpredictables, pco-ans wide-offset bins)",
            finest_dim: 16,
            num_levels: 2,
            error_bound: ErrorBound::Abs(1e-3),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_spike_field,
        },
        ScenarioSpec {
            name: "dynamic-range",
            description: "magnitudes spanning 1e-30..1e30 with mixed signs: quantizer \
                          lattice degeneracy and precision loss at extreme v/eb ratios",
            finest_dim: 16,
            num_levels: 2,
            error_bound: ErrorBound::Rel(1e-4),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_dynamic_range,
        },
        ScenarioSpec {
            name: "denormal-negzero",
            description: "denormals, f64::MIN_POSITIVE neighbourhoods, and -0.0 under a \
                          denormal error bound: everything must fall back to verbatim \
                          storage without violating the bound",
            finest_dim: 8,
            num_levels: 1,
            error_bound: ErrorBound::Abs(1e-320),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_denormal_negzero,
        },
        ScenarioSpec {
            name: "deep-column",
            description: "five-level hierarchy refined along a single column down to a \
                          1^3 coarsest grid (empty): maximal nesting depth, extreme \
                          per-level sparsity",
            finest_dim: 16,
            num_levels: 5,
            error_bound: ErrorBound::Rel(1e-3),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_deep_column,
        },
        ScenarioSpec {
            name: "checkerboard",
            description: "2-cell checkerboard masks on both levels (~50% density — the \
                          AKDTree regime) with sign-alternating values: worst-case \
                          spatial prediction and maximal mask entropy",
            finest_dim: 16,
            num_levels: 2,
            error_bound: ErrorBound::Abs(0.5),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_checkerboard,
        },
        ScenarioSpec {
            name: "degenerate-corner",
            description: "one tiny refined corner, a handful of isolated coarse blocks, \
                          and an all-empty 1^3 coarsest level: minimal payloads on \
                          every strategy path",
            finest_dim: 8,
            num_levels: 4,
            error_bound: ErrorBound::Rel(1e-3),
            unit: 2,
            dtype: TacDtype::F64,
            build: build_degenerate_corner,
        },
        ScenarioSpec {
            name: "tiny-extremes",
            description: "2^3 finest grid entirely empty, 1^3 coarsest grid fully \
                          masked: the smallest legal dataset (single-value streams, \
                          degenerate shapes everywhere)",
            finest_dim: 2,
            num_levels: 2,
            error_bound: ErrorBound::Abs(1e-6),
            unit: 2,
            dtype: TacDtype::F64,
            build: build_tiny_extremes,
        },
        ScenarioSpec {
            name: "dense-uniform",
            description: "a single fully-masked level (density 1.0): the GSP/ZeroFill \
                          and 3D-switch regime, no sparsity to exploit",
            finest_dim: 16,
            num_levels: 1,
            error_bound: ErrorBound::Rel(1e-3),
            unit: 4,
            dtype: TacDtype::F64,
            build: build_dense_uniform,
        },
        ScenarioSpec {
            name: "denormal-negzero-f32",
            description: "the f32 precision edge: f32 denormals, f32::MIN_POSITIVE \
                          neighbourhoods, and -0.0 under a sub-normal f32 bound — the \
                          verbatim-fallback contract at single precision",
            finest_dim: 8,
            num_levels: 1,
            error_bound: ErrorBound::Abs(1e-44),
            unit: 4,
            dtype: TacDtype::F32,
            build: build_denormal_negzero_f32,
        },
        ScenarioSpec {
            name: "tiny-extremes-f32",
            description: "the smallest legal dataset stored at f32: single-value \
                          streams and degenerate shapes through the narrow wire",
            finest_dim: 2,
            num_levels: 2,
            error_bound: ErrorBound::Abs(1e-6),
            unit: 2,
            dtype: TacDtype::F32,
            build: build_tiny_extremes_f32,
        },
        ScenarioSpec {
            name: "checkerboard-f32",
            description: "the checkerboard adversary at f32: worst-case spatial \
                          prediction where every quantizer reconstruction must also \
                          survive the narrowing round-trip",
            finest_dim: 16,
            num_levels: 2,
            error_bound: ErrorBound::Abs(0.5),
            unit: 4,
            dtype: TacDtype::F32,
            build: build_checkerboard_f32,
        },
    ]
}

/// Looks up a scenario by its registry key.
pub fn scenario(name: &str) -> Option<ScenarioSpec> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Builds a valid AMR dataset from an explicit per-position level
/// assignment: `level_of(x, y, z)` maps each **finest-grid** position to
/// the level that stores it (0 = finest), and `value_of(level, x, y, z)`
/// supplies the stored value at that level's own coordinates.
///
/// The assignment must be consistent — every level-`l` cell must have
/// all of its `2^l`-cubed finest positions assigned to the same level —
/// which is exactly the exactly-one-cover invariant; the builder
/// validates the result and panics with the violation otherwise. This
/// is the workhorse for scenarios whose geometry no refinement-score
/// heuristic would produce (checkerboards, columns, degenerate corners).
pub fn dataset_from_assignment(
    name: &str,
    finest_dim: usize,
    num_levels: usize,
    level_of: impl Fn(usize, usize, usize) -> usize,
    value_of: impl Fn(usize, usize, usize, usize) -> f64,
) -> AmrDataset {
    assert!(num_levels >= 1);
    assert!(
        finest_dim % (1 << (num_levels - 1)) == 0,
        "finest dim {finest_dim} not divisible by 2^{}",
        num_levels - 1
    );
    let mut levels: Vec<AmrLevel> = (0..num_levels)
        .map(|l| AmrLevel::empty(finest_dim >> l))
        .collect();
    for z in 0..finest_dim {
        for y in 0..finest_dim {
            for x in 0..finest_dim {
                let l = level_of(x, y, z);
                assert!(l < num_levels, "assignment names level {l} of {num_levels}");
                // Write through the cell's level-l ancestor; repeated
                // writes from siblings are idempotent because the value
                // depends only on the ancestor coordinates.
                let (cx, cy, cz) = (x >> l, y >> l, z >> l);
                levels[l].set_value(cx, cy, cz, value_of(l, cx, cy, cz));
            }
        }
    }
    let ds = AmrDataset::new(name, levels);
    if let Err(e) = ds.validate() {
        panic!("scenario '{name}' produced an invalid assignment: {e}");
    }
    ds
}

/// Pure position-hashed noise in `[lo, hi)`: the same `(seed, l, x, y,
/// z)` always yields the same draw, so `value_of` callbacks built on it
/// are idempotent under [`dataset_from_assignment`]'s repeated writes.
fn hash_noise(seed: u64, l: usize, x: usize, y: usize, z: usize, lo: f64, hi: f64) -> f64 {
    let key = (l as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((x as u64) << 40 | (y as u64) << 20 | z as u64);
    TestRng::new(seed ^ key).range_f64(lo, hi)
}

fn build_nyx_grf(seed: u64) -> AmrDataset {
    tac_nyx::entry("Run1_Z10").expect("catalog entry").generate(
        tac_nyx::FieldKind::BaryonDensity,
        16,
        seed,
    )
}

fn build_shock_front(seed: u64) -> AmrDataset {
    let n = 16usize;
    let mut rng = TestRng::new(seed);
    // The front sits between two 2-cell slabs so refinement blocks stay
    // aligned; seeded jitter rides on both sides.
    let plane = 2 * (2 + rng.below(4)); // 4, 6, 8, or 10
    let amp = 1.0e4;
    dataset_from_assignment(
        "shock-front",
        n,
        2,
        move |x, _y, _z| {
            // Refine the 4-cell band around the front.
            let d = (x as i64 / 2 - plane as i64 / 2).unsigned_abs() as usize;
            usize::from(d >= 2)
        },
        move |l, x, y, z| {
            // Evaluate at the cell's finest-coordinate corner.
            let scale = 1usize << l;
            let fx = (x * scale) as f64;
            let side = if (x * scale) < plane { -amp } else { amp };
            side + (fx * 0.7).sin() * 10.0
                + (y as f64 * 0.3).cos() * 5.0
                + z as f64 * 0.1
                + hash_noise(seed, l, x, y, z, -0.5, 0.5)
        },
    )
}

fn build_spike_field(seed: u64) -> AmrDataset {
    let n = 16usize;
    let mut rng = TestRng::new(seed);
    // ~1.5% of finest positions carry a 1e6 spike; everything else sits
    // within the bound of a constant.
    let total = n * n * n;
    let mut spikes = vec![false; total];
    for s in spikes.iter_mut() {
        *s = rng.chance(0.015);
    }
    dataset_from_assignment(
        "spike-field",
        n,
        2,
        // +x half refined, -x half coarse (block-aligned by x/2 parity).
        |x, _y, _z| usize::from(x < n / 2),
        move |l, x, y, z| {
            let scale = 1usize << l;
            let idx = (x * scale) + n * ((y * scale) + n * (z * scale));
            if l == 0 && spikes[idx] {
                1.0e6
            } else {
                1.0 + (idx % 7) as f64 * 1e-5
            }
        },
    )
}

fn build_dynamic_range(seed: u64) -> AmrDataset {
    let n = 16usize;
    let mut rng = TestRng::new(seed);
    let total = n * n * n;
    // Deterministic magnitude ladder over the full range, seeded signs.
    let values: Vec<f64> = (0..total)
        .map(|i| {
            let exp = -30.0 + 60.0 * (i as f64 / (total - 1) as f64);
            let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
            sign * 10f64.powf(exp)
        })
        .collect();
    dataset_from_assignment(
        "dynamic-range",
        n,
        2,
        // Alternate 4-cell slabs in z between the levels.
        |_x, _y, z| (z / 4) % 2,
        move |l, x, y, z| {
            let scale = 1usize << l;
            values[(x * scale) + n * ((y * scale) + n * (z * scale))]
        },
    )
}

fn build_denormal_negzero(seed: u64) -> AmrDataset {
    let n = 8usize;
    let mut rng = TestRng::new(seed);
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE, // smallest normal
        -f64::MIN_POSITIVE,
        5e-324, // smallest denormal
        -5e-324,
        1e-310, // mid-denormal
        -1e-310,
        f64::MIN_POSITIVE * 1.5,
        1e-300,
    ];
    let data: Vec<f64> = (0..n * n * n)
        .map(|_| specials[rng.below(specials.len())])
        .collect();
    AmrDataset::new("denormal-negzero", vec![AmrLevel::dense(n, data)])
}

fn build_deep_column(seed: u64) -> AmrDataset {
    let n = 16usize;
    dataset_from_assignment(
        "deep-column",
        n,
        5,
        |x, y, _z| {
            // The column (x, y) = (0, 0) is refined all the way down;
            // everything else lives at the level where its ancestor
            // first leaves the column. The 1^3 coarsest level ends up
            // empty (its single cell is refined).
            let m = x.max(y);
            if m == 0 {
                0
            } else {
                (usize::BITS - m.leading_zeros()) as usize - 1
            }
        },
        move |l, x, y, z| {
            let scale = (1usize << l) as f64;
            1.0e3 * ((x as f64 * scale * 0.4).sin() + (y as f64 * scale * 0.3).cos())
                + z as f64 * scale
                + hash_noise(seed, l, x, y, z, -0.25, 0.25)
        },
    )
}

fn build_checkerboard(seed: u64) -> AmrDataset {
    let n = 16usize;
    dataset_from_assignment(
        "checkerboard",
        n,
        2,
        // Checkerboard over 2-cell blocks: even parity fine, odd coarse.
        |x, y, z| (x / 2 + y / 2 + z / 2) % 2,
        move |l, x, y, z| {
            // Sign alternates per cell at each level: anti-smooth.
            let sign = if (x + y + z) % 2 == 0 { 1.0 } else { -1.0 };
            sign * (100.0 + l as f64 * 17.0) + hash_noise(seed, l, x, y, z, -10.0, 10.0)
        },
    )
}

fn build_degenerate_corner(seed: u64) -> AmrDataset {
    let n = 8usize;
    dataset_from_assignment(
        "degenerate-corner",
        n,
        4,
        |x, y, z| {
            let m = x.max(y).max(z);
            if m < 2 {
                0 // the refined 2^3 corner
            } else if m < 4 {
                1 // the rest of the first octant, as 7 isolated fine-ish cells
            } else {
                2 // the other 7 octants at dim 2; the 1^3 level stays empty
            }
        },
        move |l, x, y, z| {
            (l * 100) as f64 + (x + 2 * y + 4 * z) as f64 + hash_noise(seed, l, x, y, z, -0.1, 0.1)
        },
    )
}

/// Snaps every present value of an `f64` dataset to its nearest `f32`
/// (stored back as `f64`), so an `F32` scenario's generator output can
/// be narrowed losslessly by the conformance matrix.
fn snap_to_f32(name: &str, ds: AmrDataset) -> AmrDataset {
    let levels = ds
        .levels()
        .iter()
        .map(|l| {
            let dim = l.dim();
            let mut out = AmrLevel::empty(dim);
            for z in 0..dim {
                for y in 0..dim {
                    for x in 0..dim {
                        if l.present(x, y, z) {
                            out.set_value(x, y, z, l.value(x, y, z) as f32 as f64);
                        }
                    }
                }
            }
            out
        })
        .collect();
    AmrDataset::new(name, levels)
}

fn build_denormal_negzero_f32(seed: u64) -> AmrDataset {
    let n = 8usize;
    let mut rng = TestRng::new(seed);
    let specials: [f64; 10] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE as f64, // smallest normal
        -(f32::MIN_POSITIVE as f64),
        f32::from_bits(1) as f64, // smallest denormal (~1.4e-45)
        -(f32::from_bits(1) as f64),
        1e-40f32 as f64, // mid-denormal
        -(1e-40f32 as f64),
        (f32::MIN_POSITIVE * 1.5) as f64,
        1e-35f32 as f64,
    ];
    let data: Vec<f64> = (0..n * n * n)
        .map(|_| specials[rng.below(specials.len())])
        .collect();
    AmrDataset::new("denormal-negzero-f32", vec![AmrLevel::dense(n, data)])
}

fn build_tiny_extremes_f32(seed: u64) -> AmrDataset {
    let mut rng = TestRng::new(seed);
    let fine = AmrLevel::empty(2);
    let coarse = AmrLevel::dense(1, vec![rng.range_f64(-5.0, 5.0) as f32 as f64]);
    AmrDataset::new("tiny-extremes-f32", vec![fine, coarse])
}

fn build_checkerboard_f32(seed: u64) -> AmrDataset {
    snap_to_f32("checkerboard-f32", build_checkerboard(seed))
}

fn build_tiny_extremes(seed: u64) -> AmrDataset {
    let mut rng = TestRng::new(seed);
    // Finest 2^3 entirely empty; coarsest 1^3 fully masked with one value.
    let fine = AmrLevel::empty(2);
    let coarse = AmrLevel::dense(1, vec![rng.range_f64(-5.0, 5.0)]);
    AmrDataset::new("tiny-extremes", vec![fine, coarse])
}

fn build_dense_uniform(seed: u64) -> AmrDataset {
    let n = 16usize;
    let mut noise = TestRng::new(seed);
    let data: Vec<f64> = (0..n * n * n)
        .map(|i| {
            let (x, y, z) = (i % n, (i / n) % n, i / (n * n));
            (x as f64 * 0.4).sin() * 3.0
                + (y as f64 * 0.25).cos() * 2.0
                + z as f64 * 0.05
                + noise.range_f64(-0.01, 0.01)
        })
        .collect();
    AmrDataset::new("dense-uniform", vec![AmrLevel::dense(n, data)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_promised_breadth() {
        let all = scenarios();
        // The nyx baseline plus at least six adversarial structures.
        assert!(all.len() >= 7, "only {} scenarios", all.len());
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        assert!(scenario("nyx-grf").is_some());
        assert!(scenario("no-such-thing").is_none());
    }

    #[test]
    fn every_scenario_is_valid_deterministic_and_matches_its_spec() {
        for spec in scenarios() {
            for seed in [0u64, 1, 42] {
                let ds = spec.build(seed);
                ds.validate()
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", spec.name));
                assert_eq!(ds.finest_dim(), spec.finest_dim, "{}", spec.name);
                assert_eq!(ds.num_levels(), spec.num_levels, "{}", spec.name);
                let again = spec.build(seed);
                for (a, b) in ds.levels().iter().zip(again.levels()) {
                    assert_eq!(a, b, "{} seed {seed} not deterministic", spec.name);
                }
            }
            // Different seeds differ somewhere (fixed-geometry scenarios
            // differ in values, not masks).
            let a = spec.build(1);
            let b = spec.build(2);
            let differs = a
                .levels()
                .iter()
                .zip(b.levels())
                .any(|(x, y)| x.data() != y.data());
            assert!(differs, "{} ignores its seed", spec.name);
            assert!(spec.config().validate().is_ok(), "{}", spec.name);
        }
    }

    #[test]
    fn deep_column_reaches_a_1cube_and_has_an_empty_coarsest() {
        let ds = scenario("deep-column").unwrap().build(5);
        assert_eq!(ds.num_levels(), 5);
        assert_eq!(ds.levels()[4].dim(), 1);
        assert_eq!(ds.levels()[4].num_present(), 0, "coarsest must be empty");
        // The finest level holds exactly the 2x2 column (m <= 1 maps to
        // level 0: a finer split would need a sub-finest level).
        assert_eq!(ds.levels()[0].num_present(), 4 * 16);
        // Each intermediate level is the thin shell around the column.
        assert!(ds.densities()[1] < 0.05 && ds.densities()[2] < 0.2);
    }

    #[test]
    fn checkerboard_sits_in_the_akdtree_density_band() {
        let ds = scenario("checkerboard").unwrap().build(9);
        let d = ds.finest_density();
        assert!((d - 0.5).abs() < 1e-12, "density {d}");
    }

    #[test]
    fn denormal_scenario_contains_negative_zero_and_denormals() {
        let ds = scenario("denormal-negzero").unwrap().build(3);
        let data = ds.finest().data();
        assert!(data.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert!(data.iter().any(|&v| v != 0.0 && !v.is_normal()));
    }

    #[test]
    fn f32_scenarios_generate_only_f32_exact_values() {
        for name in [
            "denormal-negzero-f32",
            "tiny-extremes-f32",
            "checkerboard-f32",
        ] {
            let spec = scenario(name).unwrap();
            assert_eq!(spec.dtype, TacDtype::F32, "{name}");
            let ds = spec.build(7);
            for (l, level) in ds.levels().iter().enumerate() {
                for &v in level.data() {
                    assert_eq!(
                        (v as f32 as f64).to_bits(),
                        v.to_bits(),
                        "{name} level {l}: {v} is not exactly f32-representable"
                    );
                }
            }
        }
        // The f32 precision-edge scenario really exercises the edge:
        // negative zero and f32 denormals.
        let ds = scenario("denormal-negzero-f32").unwrap().build(3);
        let data = ds.finest().data();
        assert!(data.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert!(data.iter().any(|&v| v != 0.0 && !(v as f32).is_normal()));
    }

    #[test]
    fn assignment_builder_rejects_inconsistent_assignments() {
        // A per-cell (not block-aligned) split at level 1 violates the
        // exactly-one-cover invariant and must panic with the violation.
        let result = std::panic::catch_unwind(|| {
            dataset_from_assignment("bad", 4, 2, |x, _, _| x % 2, |_, _, _, _| 1.0)
        });
        assert!(result.is_err());
    }
}
