//! In-place iterative radix-2 Cooley–Tukey FFT.
//!
//! The transform is unnormalized in the forward direction; the inverse
//! applies the `1/n` factor, so `ifft(fft(x)) == x`. Twiddle factors for a
//! given length are precomputed once in an [`FftPlan`] and reused across
//! calls — the planner pattern keeps the hot loop free of `sin`/`cos`.

use crate::complex::Complex;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward transform, `X_k = sum_j x_j e^{-2 pi i jk/n}` (unnormalized).
    Forward,
    /// Inverse transform, normalized by `1/n`.
    Inverse,
}

/// A reusable FFT plan for a fixed power-of-two length.
///
/// Construction precomputes the bit-reversal permutation and the per-stage
/// twiddle factors. `process` then runs in `O(n log n)` with no allocation.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index for each position (identity for n <= 2).
    bitrev: Vec<u32>,
    /// Forward twiddles, laid out stage by stage: for stage length `m`
    /// (2, 4, .., n) the `m/2` factors `e^{-2 pi i k/m}`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let mut bitrev = vec![0u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        // Total twiddle count: 1 + 2 + 4 + ... + n/2 = n - 1.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut m = 2usize;
        while m <= n {
            let half = m / 2;
            let step = -2.0 * std::f64::consts::PI / m as f64;
            for k in 0..half {
                twiddles.push(Complex::cis(step * k as f64));
            }
            m <<= 1;
        }
        FftPlan {
            n,
            bitrev,
            twiddles,
        }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is 1 (the degenerate transform).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Runs the transform in place on `data`.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must match plan length");
        self.process_columns(data, 1, dir);
    }

    /// Runs the transform in place on every column of `data` read as `n`
    /// rows of `width` values: column `c` is the line `data[c]`,
    /// `data[c + width]`, .. . Each value goes through the same
    /// operations in the same order as under [`Self::process`] of its
    /// column alone, so the results are bit-identical. Always inlined, so
    /// `process` runs it with a `width` of 1 known at compile time.
    ///
    /// # Panics
    /// Panics if `data.len()` is not `width` times the plan length.
    #[inline(always)]
    pub(crate) fn process_columns(&self, data: &mut [Complex], width: usize, dir: Direction) {
        assert_eq!(
            data.len(),
            self.n * width,
            "buffer length must be width times plan length"
        );
        let n = self.n;
        if n == 1 {
            return;
        }
        // For the inverse transform we use the conjugation identity:
        // ifft(x) = conj(fft(conj(x))) / n, reusing forward twiddles.
        if dir == Direction::Inverse {
            for z in data.iter_mut() {
                *z = z.conj();
            }
        }
        // Bit-reversal permutation, a row at a time.
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                let (head, tail) = data.split_at_mut(j * width);
                head[i * width..(i + 1) * width].swap_with_slice(&mut tail[..width]);
            }
        }
        // Butterfly stages.
        let mut m = 2usize;
        let mut tw_base = 0usize;
        while m <= n {
            let half = m / 2;
            let tw = &self.twiddles[tw_base..tw_base + half];
            for block in data.chunks_exact_mut(m * width) {
                let (lo, hi) = block.split_at_mut(half * width);
                let rows = lo.chunks_exact_mut(width).zip(hi.chunks_exact_mut(width));
                for ((lo, hi), &w) in rows.zip(tw) {
                    for (a, b) in lo.iter_mut().zip(hi) {
                        let even = *a;
                        let odd = *b * w;
                        *a = even + odd;
                        *b = even - odd;
                    }
                }
            }
            tw_base += half;
            m <<= 1;
        }
        if dir == Direction::Inverse {
            let inv_n = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.conj() * inv_n;
            }
        }
    }
}

/// One-shot forward FFT of `data` (length must be a power of two).
pub fn fft(data: &mut [Complex]) {
    FftPlan::new(data.len()).process(data, Direction::Forward);
}

/// One-shot inverse FFT of `data` (length must be a power of two).
pub fn ifft(data: &mut [Complex]) {
    FftPlan::new(data.len()).process(data, Direction::Inverse);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} != {y:?}"
            );
        }
    }

    /// O(n^2) reference DFT.
    fn dft(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in data.iter().enumerate() {
                    let theta = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    acc += x * Complex::cis(theta);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_reference_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let want = dft(&data);
            let mut got = data.clone();
            fft(&mut got);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let n = 256;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sqrt(), (i % 7) as f64 - 3.0))
            .collect();
        let mut buf = data.clone();
        fft(&mut buf);
        ifft(&mut buf);
        assert_close(&buf, &data, 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut buf = vec![Complex::ZERO; n];
        buf[0] = Complex::ONE;
        fft(&mut buf);
        for z in &buf {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 32;
        let mut buf = vec![Complex::ONE; n];
        fft(&mut buf);
        assert!((buf[0].re - n as f64).abs() < 1e-10);
        for z in &buf[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new(((i * i) % 13) as f64, ((i * 7) % 5) as f64))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = data;
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn plan_is_reusable() {
        let plan = FftPlan::new(64);
        for seed in 0..4 {
            let data: Vec<Complex> = (0..64)
                .map(|i| Complex::new(((i + seed) as f64 * 0.9).sin(), 0.0))
                .collect();
            let mut buf = data.clone();
            plan.process(&mut buf, Direction::Forward);
            plan.process(&mut buf, Direction::Inverse);
            for (a, b) in buf.iter().zip(&data) {
                assert!((a.re - b.re).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "must match plan length")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.process(&mut buf, Direction::Forward);
    }
}
