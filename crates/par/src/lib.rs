#![forbid(unsafe_code)]

//! # tac-par
//!
//! Block scheduler behind TAC's parallel compression engine. TAC's
//! level-wise design is embarrassingly parallel — each refinement level,
//! and within a level each extracted region group, is an independent
//! compression unit — so the engine reduces to a generic problem: run
//! `n` independent, unevenly-sized tasks on `w` workers and return the
//! results in task order.
//!
//! The crate is deliberately dataset-agnostic (it knows nothing about
//! AMR levels or SZ streams; `tac-core` builds the task lists), has no
//! dependencies beyond `std` and `tac-obs`, and uses
//! [`std::thread::scope`] so tasks may borrow from the caller's stack.
//!
//! [`executor::execute`] sorts the tasks heaviest first by their cost
//! estimate and lets every worker take the next one from a shared
//! cursor: longest-processing-time list scheduling, which absorbs
//! estimate error by construction (a worker stuck on a long task just
//! takes fewer of the rest).
//!
//! Results are written into per-task slots, so the output order — and
//! therefore any byte stream assembled from it — is **identical for
//! every worker count**, including fully serial execution.
//!
//! ```
//! use tac_par::{execute, Parallelism};
//!
//! let tasks: Vec<u64> = (0..100).collect();
//! let out = execute(
//!     Parallelism::Threads(4).workers(),
//!     &tasks,
//!     |&t| t, // cost estimate
//!     |&t| t * 2,
//! );
//! assert_eq!(out, (0..100).map(|t| t * 2).collect::<Vec<_>>());
//! ```

#![warn(missing_docs)]

pub mod executor;

pub use executor::execute;

/// How much parallelism a pipeline stage may use.
///
/// Carried by `TacConfig`; the compression engine resolves it to a
/// worker count once per dataset with [`Parallelism::workers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded execution on the calling thread.
    Serial,
    /// Exactly this many worker threads (clamped to at least 1 at
    /// resolution time; 0 is rejected by config validation).
    Threads(usize),
    /// One worker per available hardware thread, capped at 16.
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count (always >= 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(16),
        }
    }
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::Auto`].
    fn default() -> Self {
        Parallelism::Auto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_resolution() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        let auto = Parallelism::Auto.workers();
        assert!((1..=16).contains(&auto));
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
