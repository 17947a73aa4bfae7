#![forbid(unsafe_code)]

//! # tac-amr
//!
//! Data model for **tree-based adaptive mesh refinement (AMR)** snapshots,
//! as produced by AMReX/Nyx in octree mode: each refinement level is a
//! cubic grid holding only the cells refined to exactly that level, with a
//! bit mask recording which cells are present. No value is stored twice
//! (the "tree-structured" layout of the paper's Fig. 16a).
//!
//! The crate provides:
//! * [`AmrLevel`] / [`AmrDataset`] — levels, fine-to-coarse ordering,
//!   refinement-ratio and exactly-one-coverage validation;
//! * [`BlockGrid`] — unit-block occupancy summaries that TAC's
//!   pre-process strategies (OpST / AKDTree / GSP) consume;
//! * [`to_uniform`] — piecewise-constant prolongation to a single
//!   uniform grid (the "3D baseline" substrate; its decode restricts the
//!   grid back to the levels itself).
//!
//! ```
//! use tac_amr::{AmrDataset, AmrLevel, to_uniform};
//!
//! // One coarse 2^3 level, fully present: a valid single-level dataset.
//! let level = AmrLevel::dense(2, vec![1.0; 8]);
//! let ds = AmrDataset::new("toy", vec![level]);
//! ds.validate().unwrap();
//! assert_eq!(to_uniform(&ds), vec![1.0; 8]);
//! ```

#![warn(missing_docs)]

mod aabb;
mod blocks;
mod dataset;
mod level;
mod mask;
mod upsample;

pub use aabb::Aabb;
pub use blocks::{copy_region, copy_region_flags_into, copy_region_into, paste_region, BlockGrid};
pub use dataset::{AmrDataset, AmrValidationError};
pub use level::{min_max, AmrLevel};
pub use mask::{BitMask, Runs};
pub use upsample::to_uniform;

// Re-exported so dataset-shaped code can name element types without a
// direct `tac-dtype` dependency.
pub use tac_dtype::{Element, TacDtype};
