//! What the numbers were measured on, and the process's peak memory.

use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Size of the last-level cache as the kernel states it (e.g. `32768K`).
fn llc_size() -> Option<String> {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map(|s| s.trim().to_string())
}

/// Provenance recorded with every result file. Fields the host does not
/// reveal (no `git`, no `/proc`) read `unknown`.
pub fn describe() -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        ("llc_size", Json::Str(llc_size().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(
                command_line(
                    "git",
                    &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
                )
                .unwrap_or_else(unknown),
            ),
        ),
    ])
}

fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Runs `f` and reports by how many bytes it pushed the resident set
/// above where it stood when `f` began. `None` where the kernel does not
/// let the process reset its own high-water mark.
pub fn peak_rss_growth<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    // Writing 5 resets VmHWM to the current resident set (proc(5)).
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let before = peak_rss_bytes();
    let out = f();
    let growth = match (reset, before, peak_rss_bytes()) {
        (true, Some(before), Some(after)) => Some(after.saturating_sub(before)),
        _ => None,
    };
    (out, growth)
}
