//! Run metadata for self-describing artifacts: `CONFORMANCE.json`
//! embeds a [`RunMeta`] header so an archived report
//! pins the commit, seed, and machine shape that produced it. Compiled
//! regardless of the `enabled` feature — metadata costs nothing per hot
//! loop.

use std::time::{SystemTime, UNIX_EPOCH};

/// Everything needed to reproduce (or at least attribute) a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// `git rev-parse --short=12 HEAD`, or `"unknown"` outside a work
    /// tree.
    pub git_commit: String,
    /// The run's top-level RNG seed.
    pub seed: u64,
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Host logical core count.
    pub cores: usize,
    /// ISO-8601 UTC timestamp (`2026-08-08T12:34:56Z`).
    pub timestamp: String,
}

impl RunMeta {
    /// Capture the current environment.
    pub fn capture(seed: u64, workers: usize) -> RunMeta {
        RunMeta {
            git_commit: git_commit(),
            seed,
            workers,
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            timestamp: iso8601_utc(SystemTime::now()),
        }
    }

    /// One-line JSON object (no trailing newline), suitable as a `meta`
    /// header value.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_commit\": \"{}\", \"seed\": {}, \"workers\": {}, \"cores\": {}, \
             \"timestamp\": \"{}\"}}",
            escape_json(&self.git_commit),
            self.seed,
            self.workers,
            self.cores,
            escape_json(&self.timestamp),
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn git_commit() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout).trim().to_string();
            if text.is_empty() {
                "unknown".to_string()
            } else {
                text
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Render a `SystemTime` as ISO-8601 UTC, seconds precision. Times
/// before the epoch clamp to the epoch.
pub fn iso8601_utc(t: SystemTime) -> String {
    let secs = t
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

/// Days-since-epoch to (year, month, day) — Howard Hinnant's
/// `civil_from_days`, valid across the whole i64 day range we can see.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn epoch_renders_as_1970() {
        assert_eq!(iso8601_utc(UNIX_EPOCH), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn known_timestamps_render_correctly() {
        // 2026-08-08T00:00:00Z == 1786147200.
        let t = UNIX_EPOCH + Duration::from_secs(1_786_147_200);
        assert_eq!(iso8601_utc(t), "2026-08-08T00:00:00Z");
        // Leap-year day: 2024-02-29T12:30:45Z == 1709209845.
        let t = UNIX_EPOCH + Duration::from_secs(1_709_209_845);
        assert_eq!(iso8601_utc(t), "2024-02-29T12:30:45Z");
    }

    #[test]
    fn capture_produces_valid_json() {
        let meta = RunMeta::capture(42, 8);
        assert!(meta.cores >= 1);
        let json = meta.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seed\": 42"), "{json}");
        assert!(json.contains("\"workers\": 8"), "{json}");
        assert!(json.contains("\"timestamp\": \""), "{json}");
        assert!(json.contains("\"git_commit\": \""), "{json}");
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
