//! 3D FFT over cubic (and rectangular power-of-two) grids.
//!
//! The 3D transform is separable: apply the 1D transform along x, then y,
//! then z. Lines along each axis are independent, so they are distributed
//! over std scoped threads (the fork–join idiom the hpc-parallel guides
//! recommend; rayon is outside the allowed crate set). Strided y and z
//! lines are transformed many at a time, as the columns of a row-major
//! block ([`FftPlan::process_columns`]), so every butterfly streams
//! contiguous rows; each value still sees exactly the operations of its
//! own 1D transform, so the result is bit-identical at any worker count.

use crate::complex::Complex;
use crate::radix2::{Direction, FftPlan};

/// Values (16 bytes each) the z-pass copies out per band: 256 KiB of
/// scratch, well inside a core's L2.
const Z_BAND: usize = 1 << 14;

/// A plan for 3D transforms of shape `(nx, ny, nz)`, each a power of two.
///
/// Data layout is row-major with `x` fastest: index `(x, y, z)` maps to
/// `x + nx * (y + ny * z)`.
#[derive(Debug, Clone)]
pub struct Fft3Plan {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
    /// Number of worker threads used for the batched line transforms.
    threads: usize,
}

impl Fft3Plan {
    /// Creates a plan for a cubic grid of side `n`.
    pub fn cubic(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Creates a plan for an `(nx, ny, nz)` grid; each extent must be a
    /// power of two.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(16);
        Fft3Plan {
            nx,
            ny,
            nz,
            plan_x: FftPlan::new(nx),
            plan_y: FftPlan::new(ny),
            plan_z: FftPlan::new(nz),
            threads,
        }
    }

    /// Overrides the worker-thread count (1 forces sequential execution).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Total number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the grid is empty (never true for valid plans).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grid shape `(nx, ny, nz)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Runs the 3D transform in place.
    ///
    /// # Panics
    /// Panics if `data.len() != nx * ny * nz`.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(
            data.len(),
            self.len(),
            "buffer length must be nx*ny*nz = {}",
            self.len()
        );
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);

        // Pass 1: lines along x are contiguous; each (y,z) pair is one line.
        self.for_each_chunk(data, nx, |line| {
            self.plan_x.process(line, dir);
        });

        // Pass 2: lines along y are the columns of a z-slab read as ny rows
        // of nx values, transformed in place. Parallelized over z-slabs:
        // each z-slab of size nx*ny is independent.
        let slab = nx * ny;
        self.for_each_chunk(data, slab, |zslab| {
            self.plan_y.process_columns(zslab, nx, dir);
        });

        // Pass 3: lines along z (stride nx*ny).
        if nz > 1 {
            self.for_each_row_z(data, dir);
        }
    }

    /// Splits `data` into equally sized `chunk` pieces and applies `f` to
    /// each, using scoped threads when the piece count is large enough.
    fn for_each_chunk<F>(&self, data: &mut [Complex], chunk: usize, f: F)
    where
        F: Fn(&mut [Complex]) + Sync,
    {
        let pieces = data.len() / chunk;
        if self.threads <= 1 || pieces < 2 {
            data.chunks_exact_mut(chunk).for_each(f);
            return;
        }
        let per_worker = pieces.div_ceil(self.threads);
        std::thread::scope(|scope| {
            for worker_slice in data.chunks_mut(per_worker * chunk) {
                let f = &f;
                scope.spawn(move || worker_slice.chunks_exact_mut(chunk).for_each(f));
            }
        });
    }

    /// Transforms along z. Lines along z interleave in memory (stride
    /// nx*ny), so the grid cannot be cut into per-thread z-lines; it is
    /// cut by columns instead. Each worker owns one range of (x, y)
    /// positions, the same in every z-slab: `nz` disjoint row pieces of
    /// the grid, so the split is borrow-checked, with no `unsafe`.
    fn for_each_row_z(&self, data: &mut [Complex], dir: Direction) {
        let slab = self.nx * self.ny;
        let per_worker = slab.div_ceil(self.threads);
        let mut owned: Vec<Vec<&mut [Complex]>> = Vec::new();
        for zslab in data.chunks_exact_mut(slab) {
            for (w, piece) in zslab.chunks_mut(per_worker).enumerate() {
                if w == owned.len() {
                    owned.push(Vec::with_capacity(self.nz));
                }
                owned[w].push(piece);
            }
        }
        match owned.as_mut_slice() {
            [rows] => self.z_columns(rows, dir),
            workers => std::thread::scope(|scope| {
                for rows in workers {
                    scope.spawn(move || self.z_columns(rows, dir));
                }
            }),
        }
    }

    /// Transforms the columns of `rows` (one piece per z-slab, all one
    /// width) along z, a band of columns at a time: the band is copied
    /// into a scratch of at most `Z_BAND` values, transformed there with
    /// [`FftPlan::process_columns`] and copied back. The scratch is
    /// reused band after band, so it stays cache-sized whatever the grid.
    fn z_columns(&self, rows: &mut [&mut [Complex]], dir: Direction) {
        let nz = self.nz;
        let width = rows[0].len();
        let band = (Z_BAND / nz).clamp(1, width);
        let mut scratch = vec![Complex::ZERO; band * nz];
        for start in (0..width).step_by(band) {
            let cols = band.min(width - start);
            let block = &mut scratch[..cols * nz];
            for (dst, row) in block.chunks_exact_mut(cols).zip(rows.iter()) {
                dst.copy_from_slice(&row[start..start + cols]);
            }
            self.plan_z.process_columns(block, cols, dir);
            for (src, row) in block.chunks_exact(cols).zip(rows.iter_mut()) {
                row[start..start + cols].copy_from_slice(src);
            }
        }
    }
}

/// Forward 3D FFT of a real scalar field; returns the complex spectrum.
///
/// Layout matches [`Fft3Plan`]: `x` fastest.
pub fn fft3_real(field: &[f64], nx: usize, ny: usize, nz: usize) -> Vec<Complex> {
    assert_eq!(field.len(), nx * ny * nz);
    let mut buf: Vec<Complex> = field.iter().map(|&v| Complex::from_real(v)).collect();
    Fft3Plan::new(nx, ny, nz).process(&mut buf, Direction::Forward);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_3d() {
        let (nx, ny, nz) = (8, 4, 16);
        let field: Vec<f64> = (0..nx * ny * nz)
            .map(|i| ((i * 37) % 101) as f64 * 0.01 - 0.5)
            .collect();
        let mut buf: Vec<Complex> = field.iter().map(|&v| Complex::from_real(v)).collect();
        let plan = Fft3Plan::new(nx, ny, nz);
        plan.process(&mut buf, Direction::Forward);
        plan.process(&mut buf, Direction::Inverse);
        for (z, &want) in buf.iter().zip(&field) {
            assert!((z.re - want).abs() < 1e-10 && z.im.abs() < 1e-10);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        // Bit for bit, whatever the worker count: each line goes through
        // the same operations in the same order as under the 1D plan.
        // 64x64x16 cuts the z-pass into several bands per worker, the
        // last one short on 3 workers.
        for (nx, ny, nz) in [(16, 16, 16), (8, 4, 32), (32, 2, 4), (64, 64, 16)] {
            let len = nx * ny * nz;
            let input: Vec<Complex> = (0..len)
                .map(|i| Complex::new((i as f64 * 0.013).sin(), (i % 7) as f64 - 3.0))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                // Reference: every line transformed alone by its 1D plan.
                let mut want = input.clone();
                for line in want.chunks_exact_mut(nx) {
                    FftPlan::new(nx).process(line, dir);
                }
                for (n, stride) in [(ny, nx), (nz, nx * ny)] {
                    let plan = FftPlan::new(n);
                    let block = n * stride;
                    for start in (0..len).step_by(block) {
                        for c in 0..stride {
                            let idx = |k: usize| start + c + k * stride;
                            let mut line: Vec<Complex> = (0..n).map(|k| want[idx(k)]).collect();
                            plan.process(&mut line, dir);
                            for (k, v) in line.into_iter().enumerate() {
                                want[idx(k)] = v;
                            }
                        }
                    }
                }
                for threads in [1, 2, 3, 4] {
                    let mut got = input.clone();
                    Fft3Plan::new(nx, ny, nz)
                        .with_threads(threads)
                        .process(&mut got, dir);
                    let bits = |z: &Complex| (z.re.to_bits(), z.im.to_bits());
                    assert!(
                        got.iter().map(bits).eq(want.iter().map(bits)),
                        "{nx}x{ny}x{nz} {dir:?} on {threads} thread(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn single_mode_has_energy_at_expected_bin() {
        // f(x,y,z) = cos(2 pi * 3x / nx) puts power at kx = 3 (and nx-3).
        let n = 16;
        let mut field = vec![0.0f64; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    field[x + n * (y + n * z)] =
                        (2.0 * std::f64::consts::PI * 3.0 * x as f64 / n as f64).cos();
                }
            }
        }
        let spec = fft3_real(&field, n, n, n);
        let total: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        let at_k3 = spec[3].norm_sqr() + spec[n - 3].norm_sqr();
        assert!(at_k3 / total > 0.999, "energy leaked: {at_k3} of {total}");
    }

    #[test]
    fn real_field_spectrum_is_hermitian() {
        let n = 8;
        let field: Vec<f64> = (0..n * n * n)
            .map(|i| ((i * 7919) % 65536) as f64)
            .collect();
        let spec = fft3_real(&field, n, n, n);
        // X(-k) == conj(X(k)) where -k is modular.
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let a = spec[x + n * (y + n * z)];
                    let b = spec[(n - x) % n + n * ((n - y) % n + n * ((n - z) % n))];
                    assert!((a.re - b.re).abs() < 1e-6 * (1.0 + a.re.abs()));
                    assert!((a.im + b.im).abs() < 1e-6 * (1.0 + a.im.abs()));
                }
            }
        }
    }

    #[test]
    fn dc_bin_is_the_sum() {
        let n = 8;
        let field: Vec<f64> = (0..n * n * n).map(|i| (i % 10) as f64).collect();
        let sum: f64 = field.iter().sum();
        let spec = fft3_real(&field, n, n, n);
        assert!((spec[0].re - sum).abs() < 1e-8 * sum);
        assert!(spec[0].im.abs() < 1e-8 * sum.max(1.0));
    }
}
