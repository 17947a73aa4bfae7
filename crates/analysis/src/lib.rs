#![forbid(unsafe_code)]

//! # tac-analysis
//!
//! Post-analysis metrics for evaluating lossy compression of cosmology
//! AMR data, reproducing the paper's evaluation toolkit:
//!
//! * **generic distortion** — PSNR / NRMSE / max error over arrays or
//!   over the present cells of an AMR dataset ([`distortion`],
//!   [`amr_distortion`]);
//! * **matter power spectrum** — the Gimlet-style P(k) and its per-bin
//!   relative error, which the paper holds within 1% ([`power_spectrum`],
//!   [`relative_error`]);
//! * **halo finder** — threshold + connected-components clustering with
//!   the 81.66x-mean candidate threshold, and Table 3's biggest-halo
//!   comparison ([`find_halos`], [`compare_catalogs`]);
//! * **rate-distortion bookkeeping** — labelled (bit-rate, PSNR) curves
//!   ([`RdCurve`]).

#![warn(missing_docs)]

mod halo;
mod metrics;
mod power_spectrum;
mod rate_distortion;

pub use halo::{compare_catalogs, find_halos, Halo, HaloCatalog, HaloComparison, HaloFinderConfig};
pub use metrics::{amr_distortion, distortion, Distortion};
pub use power_spectrum::{power_spectrum, relative_error, PowerSpectrum};
pub use rate_distortion::{RdCurve, RdPoint};
