#![forbid(unsafe_code)]

//! # tac-nyx
//!
//! Synthetic **Nyx-like cosmology AMR datasets**. The paper evaluates TAC
//! on seven snapshots from two Nyx simulation runs (Table 1); those LANL
//! datasets are not redistributable, so this crate regenerates stand-ins
//! that preserve the properties TAC's behaviour depends on:
//!
//! * **value distribution** — lognormal baryon density with halo peaks
//!   (mean ~1e9, tail ~1e12), matching the scale of the paper's absolute
//!   error bounds (1e8..1e10);
//! * **smoothness** — Gaussian random fields with a red, cosmology-like
//!   power spectrum (what prediction-based compression exploits);
//! * **refinement geometry** — per-level densities matched to Table 1
//!   exactly, with refinement clustered around density peaks (Fig. 4).
//!
//! ```
//! use tac_nyx::{entry, FieldKind};
//!
//! let ds = entry("Run1_Z10").unwrap().generate(FieldKind::BaryonDensity, 32, 42);
//! ds.validate().unwrap();
//! assert_eq!(ds.num_levels(), 2);
//! ```

#![warn(missing_docs)]

mod catalog;
mod field;
mod grf;
mod halos;
mod refine;
mod rng;

pub use catalog::{entry, CatalogEntry, CATALOG};
pub use field::{synthesize, synthesize_with, FieldKind};
pub use grf::{gaussian_random_field, normalize, SpectrumModel};
pub use halos::{inject_halos, HaloPopulation, InjectedHalo};
pub use refine::{build_amr, RefinementSpec};
