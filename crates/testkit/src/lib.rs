#![forbid(unsafe_code)]

//! # tac-testkit
//!
//! Systematic evidence that the TAC stack keeps its promises on
//! structures far outside the paper's seven Nyx snapshots. The crate
//! has three parts, all deterministic from a single `u64` seed and all
//! free of external dependencies:
//!
//! * **Scenario registry** ([`scenarios`], [`ScenarioSpec`]) —
//!   generators for adversarial AMR datasets: shock fronts,
//!   spike fields, 1e-30..1e30 dynamic range, denormals and `-0.0`,
//!   five-level single-column refinement, checkerboard masks, and
//!   degenerate shapes (empty levels, 1^3 grids, all-masked levels),
//!   alongside the nyx-like GRF baseline. Irregular geometries build
//!   through [`dataset_from_assignment`].
//! * **Conformance matrix** ([`run_conformance`],
//!   [`ConformanceReport`]) — sweeps every scenario through
//!   {TAC, 1D, zMesh, 3D} x {sz, pco-ans} x {memory, v5} x
//!   {1, 2, 4, 8} workers, plus one `Method::Auto` sweep, asserting the resolved error bound
//!   pointwise, byte-identity across worker counts, bit-exact
//!   non-finite round-trips, and the region-read box contract (the full
//!   decode inside the box, `+0.0` outside); emits the
//!   machine-readable `CONFORMANCE.json` CI artifact.
//! * **Container fuzzer** ([`fuzz_containers`], [`probe_container`]) —
//!   structure-aware mutation of valid containers — freshly written v4
//!   ones and the frozen v1–v3 files of `tests/data/` — (bit flips,
//!   boundary-integer field overwrites, truncation, splicing) asserting
//!   decode never panics, never over-allocates, and never accepts an
//!   incoherent container. Findings get pinned as named tests in
//!   `tests/fuzz_regressions.rs`.
//!
//! ```
//! use tac_testkit::{run_scenarios, scenario};
//!
//! let spec = scenario("tiny-extremes").unwrap();
//! let report = run_scenarios(&[spec], 42);
//! assert!(report.all_pass(), "{}", report.summary());
//! ```

#![warn(missing_docs)]

mod conformance;
mod fuzz;
mod rng;
mod scenario;

pub use conformance::{
    run_conformance, run_scenarios, ConformanceCell, ConformanceReport, ContainerFormat,
    WORKER_COUNTS,
};
pub use fuzz::{
    corpus, fuzz_containers, mask_mode_pos, overlapping_groups, probe_container, FuzzCase,
    FuzzConfig, FuzzOutcome, ProbeResult,
};
pub use rng::TestRng;
pub use scenario::{dataset_from_assignment, scenario, scenarios, ScenarioSpec};
