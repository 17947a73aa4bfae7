#![forbid(unsafe_code)]

//! # tac-bench
//!
//! Benchmark harnesses that regenerate **every table and figure** of the
//! TAC paper's evaluation (Sec. 4) on the synthetic Nyx catalog. Each
//! `fig*`/`table*` module produces the same rows/series the paper
//! reports; the binaries under `src/bin/` are thin wrappers, and
//! `repro_all` runs the lot.
//!
//! Absolute numbers differ from the paper (smaller grids, synthetic data,
//! reimplemented SZ, different hardware); the *shapes* — who wins, by
//! roughly what factor, where the crossovers sit — are the reproduction
//! targets. See `EXPERIMENTS.md` at the repo root for paper-vs-measured
//! notes per experiment.

pub mod experiments;
pub mod obs_support;
pub mod support;

pub use support::{calibrate_to_cr, default_scale, load_dataset, Measured};
