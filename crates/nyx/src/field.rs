//! Physical field synthesis: turns normalized Gaussian random fields into
//! the six Nyx output fields with realistic value distributions.

use crate::grf::{gaussian_random_field, SpectrumModel};
use crate::halos::{inject_halos, HaloPopulation};

/// The six fields a Nyx snapshot contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Baryon (gas) density, strictly positive, lognormal with halo peaks.
    /// Mean ~1e9, tail reaching ~1e12 (the units the paper's absolute
    /// error bounds 1e8..1e10 refer to).
    BaryonDensity,
    /// Dark-matter density, like baryon density but clumpier.
    DarkMatterDensity,
    /// Gas temperature in K, lognormal around ~1e4.
    Temperature,
    /// Velocity components, zero-mean Gaussian, ~1e7 cm/s dispersion.
    VelocityX,
    /// See [`FieldKind::VelocityX`].
    VelocityY,
    /// See [`FieldKind::VelocityX`].
    VelocityZ,
}

impl FieldKind {
    /// Canonical field name as it appears in Nyx plotfiles.
    pub fn name(&self) -> &'static str {
        match self {
            FieldKind::BaryonDensity => "baryon_density",
            FieldKind::DarkMatterDensity => "dark_matter_density",
            FieldKind::Temperature => "temperature",
            FieldKind::VelocityX => "velocity_x",
            FieldKind::VelocityY => "velocity_y",
            FieldKind::VelocityZ => "velocity_z",
        }
    }

    /// All six fields.
    pub fn all() -> [FieldKind; 6] {
        [
            FieldKind::BaryonDensity,
            FieldKind::DarkMatterDensity,
            FieldKind::Temperature,
            FieldKind::VelocityX,
            FieldKind::VelocityY,
            FieldKind::VelocityZ,
        ]
    }

    /// Seed offset so fields of one snapshot are decorrelated but
    /// reproducible.
    fn seed_salt(&self) -> u64 {
        match self {
            FieldKind::BaryonDensity => 0x01,
            FieldKind::DarkMatterDensity => 0x02,
            FieldKind::Temperature => 0x03,
            FieldKind::VelocityX => 0x04,
            FieldKind::VelocityY => 0x05,
            FieldKind::VelocityZ => 0x06,
        }
    }
}

/// Synthesizes one field on an `n^3` uniform grid with the default
/// cosmology-like spectrum.
pub fn synthesize(kind: FieldKind, n: usize, seed: u64) -> Vec<f64> {
    synthesize_with(kind, n, seed, &SpectrumModel::default())
}

/// Like [`synthesize`] but colours the underlying Gaussian random field
/// with a caller-supplied [`SpectrumModel`] — the hook external scenario
/// generators (e.g. `tac_bench::testkit`) use to produce rougher or smoother
/// variants of each physical field while keeping the value-distribution
/// transforms (lognormal scaling, halo injection) identical.
pub fn synthesize_with(kind: FieldKind, n: usize, seed: u64, model: &SpectrumModel) -> Vec<f64> {
    let base_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind.seed_salt();
    let mut g = gaussian_random_field(n, model, base_seed);
    match kind {
        FieldKind::BaryonDensity => {
            inject_halos(&mut g, n, &HaloPopulation::default(), base_seed);
            lognormal(&mut g, 1.0e9, 1.2);
            g
        }
        FieldKind::DarkMatterDensity => {
            inject_halos(
                &mut g,
                n,
                &HaloPopulation {
                    count: 40,
                    peak_amplitude: 8.0,
                    ..Default::default()
                },
                base_seed,
            );
            lognormal(&mut g, 3.0e9, 1.9);
            g
        }
        FieldKind::Temperature => {
            lognormal(&mut g, 1.0e4, 0.8);
            g
        }
        FieldKind::VelocityX | FieldKind::VelocityY | FieldKind::VelocityZ => {
            for v in g.iter_mut() {
                *v *= 1.0e7;
            }
            g
        }
    }
}

/// Maps a roughly unit-variance field through `exp(sigma * g)` and then
/// rescales so the sample mean is exactly `mean`. (The analytic
/// `exp(-sigma^2/2)` correction would only hold for a pure standard
/// normal; injected halo peaks break that, so the empirical rescale keeps
/// the value scale pinned to Nyx's ~1e9 regardless.)
fn lognormal(g: &mut [f64], mean: f64, sigma: f64) {
    for v in g.iter_mut() {
        *v = (sigma * *v).exp();
    }
    let actual = g.iter().sum::<f64>() / g.len() as f64;
    let scale = mean / actual.max(f64::MIN_POSITIVE);
    for v in g.iter_mut() {
        *v *= scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baryon_density_has_nyx_like_scale() {
        let f = synthesize(FieldKind::BaryonDensity, 32, 1);
        let mean = f.iter().sum::<f64>() / f.len() as f64;
        let max = f.iter().cloned().fold(f64::MIN, f64::max);
        let min = f.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.0, "density must be positive");
        assert!(mean > 1e8 && mean < 1e10, "mean {mean:.3e}");
        assert!(
            max > 20.0 * mean,
            "needs a heavy tail, max/mean = {}",
            max / mean
        );
    }

    #[test]
    fn velocity_is_zero_mean_signed() {
        let f = synthesize(FieldKind::VelocityX, 16, 2);
        let mean = f.iter().sum::<f64>() / f.len() as f64;
        let has_neg = f.iter().any(|&v| v < 0.0);
        let has_pos = f.iter().any(|&v| v > 0.0);
        assert!(has_neg && has_pos);
        let sd = (f.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / f.len() as f64).sqrt();
        assert!(sd > 1e6 && sd < 1e8, "sd {sd:.3e}");
    }

    #[test]
    fn fields_are_decorrelated() {
        let a = synthesize(FieldKind::VelocityX, 16, 3);
        let b = synthesize(FieldKind::VelocityY, 16, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn snapshots_are_reproducible() {
        let a = synthesize(FieldKind::Temperature, 16, 4);
        let b = synthesize(FieldKind::Temperature, 16, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn all_six_fields_synthesize() {
        for kind in FieldKind::all() {
            let f = synthesize(kind, 8, 5);
            assert_eq!(f.len(), 512);
            assert!(f.iter().all(|v| v.is_finite()), "{:?}", kind);
        }
    }
}
