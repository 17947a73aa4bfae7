//! Matter power spectrum P(k) — the cosmology post-analysis metric the
//! paper runs with Gimlet (Sec. 4.2, metric 5; Fig. 19).
//!
//! The spectrum is the radially binned squared magnitude of the Fourier
//! transform of the density contrast `delta = rho / <rho> - 1`. The
//! acceptance test from the paper: the relative error of the
//! decompressed spectrum must stay within 1% for all wavenumbers below a
//! cutoff.

use tac_fft::{fft3_real, Complex};

/// A binned power spectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpectrum {
    /// Mean wavenumber of each bin (grid units: 1 = fundamental mode).
    pub k: Vec<f64>,
    /// Mean power in each bin.
    pub power: Vec<f64>,
    /// Modes per bin.
    pub counts: Vec<usize>,
}

impl PowerSpectrum {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.k.len()
    }

    /// Whether the spectrum has no bins.
    pub fn is_empty(&self) -> bool {
        self.k.is_empty()
    }
}

/// Computes the power spectrum of a density field on an `n^3` grid.
///
/// Bins are unit-width shells in integer wavenumber magnitude, from 1 to
/// the Nyquist frequency `n/2`.
///
/// # Panics
/// Panics if `field.len() != n^3` or the field mean is not positive when
/// `contrast` is requested.
pub fn power_spectrum(field: &[f64], n: usize) -> PowerSpectrum {
    assert_eq!(field.len(), n * n * n, "field must be n^3");
    let mean = field.iter().sum::<f64>() / field.len() as f64;
    assert!(
        mean != 0.0 && mean.is_finite(),
        "density contrast needs a finite non-zero mean, got {mean}"
    );
    let delta: Vec<f64> = field.iter().map(|&v| v / mean - 1.0).collect();
    let spec = fft3_real(&delta, n, n, n);
    bin_spectrum(&spec, n)
}

fn bin_spectrum(spec: &[Complex], n: usize) -> PowerSpectrum {
    let half = n / 2;
    let nbins = half.max(1);
    let mut k_sum = vec![0.0f64; nbins + 1];
    let mut p_sum = vec![0.0f64; nbins + 1];
    let mut counts = vec![0usize; nbins + 1];
    let norm = 1.0 / (n as f64 * n as f64 * n as f64);
    let freq = |i: usize| -> f64 {
        if i <= half {
            i as f64
        } else {
            i as f64 - n as f64
        }
    };
    for kz in 0..n {
        let fz = freq(kz);
        for ky in 0..n {
            let fy = freq(ky);
            for kx in 0..n {
                let fx = freq(kx);
                let kmag = (fx * fx + fy * fy + fz * fz).sqrt();
                let bin = kmag.round() as usize;
                if bin == 0 || bin > nbins {
                    continue;
                }
                let p = spec[kx + n * (ky + n * kz)].norm_sqr() * norm * norm;
                k_sum[bin] += kmag;
                p_sum[bin] += p;
                counts[bin] += 1;
            }
        }
    }
    let mut out = PowerSpectrum {
        k: Vec::with_capacity(nbins),
        power: Vec::with_capacity(nbins),
        counts: Vec::with_capacity(nbins),
    };
    for bin in 1..=nbins {
        if counts[bin] == 0 {
            continue;
        }
        out.k.push(k_sum[bin] / counts[bin] as f64);
        out.power.push(p_sum[bin] / counts[bin] as f64);
        out.counts.push(counts[bin]);
    }
    out
}

/// Per-bin relative error `|p'(k) - p(k)| / p(k)` between a reference and
/// a decompressed spectrum (bins with zero reference power report 0).
pub fn relative_error(reference: &PowerSpectrum, other: &PowerSpectrum) -> Vec<f64> {
    assert_eq!(reference.len(), other.len(), "spectra must share binning");
    reference
        .power
        .iter()
        .zip(&other.power)
        .map(|(&p, &q)| if p > 0.0 { (q - p).abs() / p } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine_field(n: usize, mode: usize, amp: f64) -> Vec<f64> {
        let mut f = vec![0.0; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    f[x + n * (y + n * z)] = 1.0
                        + amp
                            * (2.0 * std::f64::consts::PI * mode as f64 * x as f64 / n as f64)
                                .cos();
                }
            }
        }
        f
    }

    #[test]
    fn single_mode_peaks_at_its_bin() {
        let n = 32;
        let ps = power_spectrum(&cosine_field(n, 4, 0.5), n);
        // Bin with k ~= 4 must hold essentially all power.
        let total: f64 = ps
            .power
            .iter()
            .zip(&ps.counts)
            .map(|(p, &c)| p * c as f64)
            .sum();
        let at4: f64 =
            ps.k.iter()
                .zip(ps.power.iter().zip(&ps.counts))
                .filter(|(&k, _)| (k - 4.0).abs() < 0.5)
                .map(|(_, (p, &c))| p * c as f64)
                .sum();
        assert!(at4 / total > 0.999, "power at k=4: {at4} of {total}");
    }

    #[test]
    fn amplitude_scales_quadratically() {
        let n = 16;
        let ps1 = power_spectrum(&cosine_field(n, 3, 0.1), n);
        let ps2 = power_spectrum(&cosine_field(n, 3, 0.2), n);
        let bin = ps1.k.iter().position(|&k| (k - 3.0).abs() < 0.5).unwrap();
        let ratio = ps2.power[bin] / ps1.power[bin];
        assert!((ratio - 4.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn constant_field_has_zero_power() {
        let n = 16;
        let ps = power_spectrum(&vec![5.0; n * n * n], n);
        assert!(ps.power.iter().all(|&p| p < 1e-20));
    }

    #[test]
    fn relative_error_and_acceptance() {
        let n = 16;
        let a = power_spectrum(&cosine_field(n, 2, 0.3), n);
        let mut b = a.clone();
        // 0.5% error in-band, 5% out of band.
        let lim = 5.0;
        for (i, k) in a.k.iter().enumerate() {
            b.power[i] *= if *k < lim { 1.005 } else { 1.05 };
        }
        let err = relative_error(&a, &b);
        assert_eq!(err.len(), a.len());
        // In band every bin passes the paper's 1% acceptance check; out
        // of band none does.
        for ((&e, &k), &p) in err.iter().zip(&a.k).zip(&a.power) {
            let want = match (p > 0.0, k < lim) {
                (false, _) => 0.0,
                (true, true) => 0.005,
                (true, false) => 0.05,
            };
            assert!((e - want).abs() < 1e-9, "k {k}: {e}");
        }
    }

    #[test]
    fn bins_cover_up_to_nyquist() {
        let n = 16;
        let ps = power_spectrum(&cosine_field(n, 1, 0.1), n);
        let kmax = ps.k.last().copied().unwrap();
        assert!(kmax <= (n / 2) as f64 + 0.5);
        assert!(ps.k.first().copied().unwrap() >= 0.5);
    }
}
