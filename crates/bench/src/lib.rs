#![forbid(unsafe_code)]

//! # tac-bench
//!
//! The harness layer of the workspace. [`experiments`] regenerates
//! **every table and figure** of the TAC paper's evaluation (Sec. 4) on
//! the synthetic Nyx catalog, plus two ablations: each section produces
//! the same rows/series the paper reports, and `repro_all` runs them
//! (`--only <name>` runs one). [`testkit`] holds the adversarial
//! scenarios, the error-bound conformance matrix and the container
//! fuzzer that the root integration suites and the `conformance` binary
//! drive.
//!
//! Absolute numbers differ from the paper (smaller grids, synthetic data,
//! reimplemented SZ, different hardware); the *shapes* — who wins, by
//! roughly what factor, where the crossovers sit — are the reproduction
//! targets. See `EXPERIMENTS.md` at the repo root for paper-vs-measured
//! notes per experiment.

pub mod experiments;
pub mod obs_support;
pub mod support;
pub mod testkit;

// The testkit's files live under `src/testkit/` but its modules sit at
// the crate root, so their paths (and test names) are the ones they had
// as a crate of their own; `testkit` re-exports their public surface.
#[path = "testkit/conformance.rs"]
#[warn(missing_docs)]
mod conformance;
#[path = "testkit/fuzz.rs"]
#[warn(missing_docs)]
mod fuzz;
#[path = "testkit/rng.rs"]
#[warn(missing_docs)]
mod rng;
#[path = "testkit/scenario.rs"]
#[warn(missing_docs)]
mod scenario;

pub use support::{calibrate_to_cr, default_scale, load_dataset, Measured};
