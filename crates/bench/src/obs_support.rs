//! Observability plumbing for the bench binaries (`repro_all --obs`):
//! `--obs` flag detection, session installation, and the
//! `TRACE_*.json` / per-stage report writers.
//!
//! Compiled in every build. Without the `obs` cargo feature the helpers
//! degrade to `None`/no-ops, so call sites stay unconditional and the
//! default bench binaries carry no recording machinery.

use std::path::PathBuf;
use tac_obs::export::{chrome_trace_json, StageReport};
use tac_obs::Snapshot;

/// Whether `--obs` was passed on the command line.
pub fn obs_requested() -> bool {
    std::env::args().any(|a| a == "--obs")
}

/// Whether profiling is live: the `obs` feature is compiled in *and*
/// `--obs` was requested at the command line.
pub fn obs_active() -> bool {
    tac_obs::enabled() && obs_requested()
}

/// Installs the global session when profiling is live; warns when
/// `--obs` was requested but the feature is compiled out. Returns
/// whether spans and counters will be recorded from here on.
#[cfg(feature = "obs")]
pub fn obs_install() -> bool {
    if !obs_active() {
        return false;
    }
    tac_obs::install();
    true
}

/// No-op flavour: the `obs` feature is compiled out.
#[cfg(not(feature = "obs"))]
pub fn obs_install() -> bool {
    if obs_requested() {
        eprintln!("--obs ignored: rebuild with `--features obs` to record a trace");
    }
    false
}

/// Drains the global session into a snapshot, or `None` when profiling
/// is not live. Draining between measured sections keeps each report
/// scoped to its own work.
#[cfg(feature = "obs")]
pub fn obs_take() -> Option<Snapshot> {
    obs_active().then(|| tac_obs::install().take())
}

/// No-op flavour: the `obs` feature is compiled out.
#[cfg(not(feature = "obs"))]
pub fn obs_take() -> Option<Snapshot> {
    None
}

/// Path of an artifact anchored at the workspace root, regardless of
/// the harness's working directory.
pub fn workspace_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Writes `TRACE_<tag>.json` (chrome://tracing format) at the workspace
/// root and returns the rendered per-stage breakdown table.
pub fn write_trace_and_report(tag: &str, snap: &Snapshot) -> String {
    let path = workspace_path(&format!("TRACE_{tag}.json"));
    match std::fs::write(&path, chrome_trace_json(snap)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    StageReport::from_snapshot(snap).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_path_lands_at_repo_root() {
        let p = workspace_path("TRACE_repro.json");
        assert!(p.ends_with("../../TRACE_repro.json"));
    }

    /// Without `--obs` on the test binary's command line, nothing is
    /// live in either build flavour.
    #[test]
    fn obs_is_inert_without_the_flag() {
        assert!(!obs_active());
        assert!(obs_take().is_none());
    }
}
