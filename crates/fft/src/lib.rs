#![forbid(unsafe_code)]

//! # tac-fft
//!
//! A small, dependency-light FFT library used by the TAC reproduction for
//! two jobs:
//!
//! 1. synthesizing Gaussian random fields in `tac-nyx` (inverse 3D FFT of a
//!    random spectrum), and
//! 2. measuring the matter power spectrum in `tac-analysis` (forward 3D FFT
//!    of the density contrast).
//!
//! The implementation is an iterative radix-2 Cooley–Tukey transform with a
//! precomputed [`FftPlan`] (twiddles + bit-reversal), plus a separable 3D
//! driver [`Fft3Plan`] that parallelizes independent lines across scoped
//! threads.
//!
//! ```
//! use tac_fft::{Complex, fft, ifft};
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::from_real(i as f64)).collect();
//! let original = data.clone();
//! fft(&mut data);
//! ifft(&mut data);
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

#![warn(missing_docs)]

mod complex;
mod dim3;
mod radix2;

pub use complex::Complex;
pub use dim3::{fft3_real, Fft3Plan};
pub use radix2::{fft, ifft, Direction, FftPlan};
