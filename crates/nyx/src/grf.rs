//! Gaussian random fields with cosmology-like power spectra.
//!
//! Real Nyx snapshots are unavailable, so the generator synthesizes fields
//! with the two properties TAC's behaviour actually depends on: spatial
//! smoothness at a controllable correlation length (what prediction-based
//! compressors exploit) and a heavy-tailed amplitude distribution whose
//! peaks drive refinement (what produces the paper's per-level density
//! geometry).
//!
//! Method: draw white Gaussian noise on the grid, colour it in Fourier
//! space with `sqrt(P(k))`, transform back. Colouring a *real* field keeps
//! the spectrum Hermitian, so the inverse transform is real by
//! construction.

use crate::rng::Xoshiro256pp;
use tac_fft::{Complex, Direction, Fft3Plan};

/// Isotropic power-spectrum model `P(k) ~ k^index * exp(-(k/cutoff)^2)`.
///
/// A negative `index` concentrates power at large scales (smooth, blobby
/// fields — the matter-like regime); the Gaussian cutoff suppresses grid-
/// scale noise.
#[derive(Debug, Clone, Copy)]
pub struct SpectrumModel {
    /// Spectral index (e.g. -2.5 for a matter-like red spectrum).
    pub index: f64,
    /// Cutoff wavenumber in grid units (modes above this are damped).
    pub cutoff: f64,
}

impl Default for SpectrumModel {
    fn default() -> Self {
        // Strongly red with a firm grid-scale cutoff: cell-to-cell
        // residuals must sit well below typical error bounds for the
        // prediction stage to matter, as on the paper's 512^3 Nyx data
        // (where SZ reaches CRs of 100-250). Benchmark grids are 8x
        // smaller per axis, so the cutoff is correspondingly lower.
        SpectrumModel {
            index: -3.0,
            cutoff: 0.08,
        }
    }
}

impl SpectrumModel {
    /// `sqrt(P(k))` amplitude filter for wavenumber magnitude `k` (grid
    /// units, `k > 0`).
    fn amplitude(&self, k: f64) -> f64 {
        (k.powf(self.index) * (-(k / self.cutoff) * (k / self.cutoff)).exp()).sqrt()
    }
}

/// Generates a zero-mean, unit-variance Gaussian random field on an `n^3`
/// grid (n must be a power of two).
pub fn gaussian_random_field(n: usize, model: &SpectrumModel, seed: u64) -> Vec<f64> {
    assert!(n.is_power_of_two(), "grid side must be a power of two");
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // Box-Muller white noise. The uniforms are drawn in stream order,
    // each pair parked as (u1, u2) in the slot its cosine output takes;
    // the pairs are then transformed in place on every core, with no
    // second buffer.
    let total = n * n * n;
    let mut buf = vec![Complex::ZERO; total];
    for pair in buf.chunks_mut(2) {
        let u1 = rng.f64_in(f64::MIN_POSITIVE, 1.0);
        let u2 = rng.f64_in(0.0, 1.0);
        pair[0] = Complex::new(u1, u2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    std::thread::scope(|scope| {
        for chunk in buf.chunks_mut(total.div_ceil(2 * workers) * 2) {
            scope.spawn(|| {
                for pair in chunk.chunks_mut(2) {
                    let (u1, u2) = (pair[0].re, pair[0].im);
                    let r = (-2.0 * u1.ln()).sqrt();
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    pair[0] = Complex::from_real(r * theta.cos());
                    if let Some(sin) = pair.get_mut(1) {
                        *sin = Complex::from_real(r * theta.sin());
                    }
                }
            });
        }
    });

    let plan = Fft3Plan::cubic(n);
    plan.process(&mut buf, Direction::Forward);

    // Colour with sqrt(P(k)); zero the DC mode (the mean is set later by
    // the field transforms). The filter depends only on the integer
    // |k|^2 = kx^2 + ky^2 + kz^2 <= 3 (n/2)^2 over signed frequencies, so
    // it is tabulated once per |k|^2: the table entry is exactly what
    // evaluating the filter per cell gives, since every |k|^2 is exact
    // in f64.
    let half = n / 2;
    let sq: Vec<usize> = (0..n).map(|k| k.min(n - k).pow(2)).collect();
    let mut amplitude = vec![0.0; 3 * half * half + 1];
    for (k2, a) in amplitude.iter_mut().enumerate().skip(1) {
        let k = (k2 as f64).sqrt() / n as f64; // normalized to ~[0, sqrt(3)/2]
        *a = model.amplitude(k);
    }
    for (plane, &z2) in buf.chunks_exact_mut(n * n).zip(&sq) {
        for (row, &y2) in plane.chunks_exact_mut(n).zip(&sq) {
            for (c, &x2) in row.iter_mut().zip(&sq) {
                *c = *c * amplitude[x2 + y2 + z2];
            }
        }
    }
    buf[0] = Complex::ZERO;
    plan.process(&mut buf, Direction::Inverse);
    let mut field: Vec<f64> = buf.into_iter().map(|z| z.re).collect();
    normalize(&mut field);
    field
}

/// Rescales a field in place to zero mean and unit variance.
pub fn normalize(field: &mut [f64]) {
    let n = field.len() as f64;
    let mean = field.iter().sum::<f64>() / n;
    let var = field.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let inv_sd = if var > 0.0 { 1.0 / var.sqrt() } else { 1.0 };
    for v in field.iter_mut() {
        *v = (*v - mean) * inv_sd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grf_is_normalized() {
        let f = gaussian_random_field(16, &SpectrumModel::default(), 7);
        let n = f.len() as f64;
        let mean = f.iter().sum::<f64>() / n;
        let var = f.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 1e-10, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-10, "var {var}");
    }

    #[test]
    fn grf_is_deterministic_per_seed() {
        let a = gaussian_random_field(8, &SpectrumModel::default(), 42);
        let b = gaussian_random_field(8, &SpectrumModel::default(), 42);
        assert_eq!(a, b);
        let c = gaussian_random_field(8, &SpectrumModel::default(), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn red_spectrum_is_smoother_than_white() {
        // Mean squared neighbour difference should be much smaller for a
        // red (index -3) field than for a flat (index 0) one.
        let n = 32;
        let red = gaussian_random_field(
            n,
            &SpectrumModel {
                index: -3.0,
                cutoff: 1.0,
            },
            5,
        );
        let white = gaussian_random_field(
            n,
            &SpectrumModel {
                index: 0.0,
                cutoff: 10.0,
            },
            5,
        );
        let roughness = |f: &[f64]| {
            let mut acc = 0.0;
            for i in 1..f.len() {
                acc += (f[i] - f[i - 1]) * (f[i] - f[i - 1]);
            }
            acc / (f.len() - 1) as f64
        };
        assert!(
            roughness(&red) < roughness(&white) * 0.5,
            "red {} vs white {}",
            roughness(&red),
            roughness(&white)
        );
    }

    #[test]
    fn values_are_finite() {
        let f = gaussian_random_field(16, &SpectrumModel::default(), 11);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
