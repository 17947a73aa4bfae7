//! Exporters over a collected [`Snapshot`]: a chrome://tracing-
//! compatible event stream (load `TRACE_*.json` in `chrome://tracing`
//! or Perfetto) and a compact per-stage text report in the
//! `EXPERIMENTS.md` table style.

use std::fmt::Write as _;

use crate::snapshot::Snapshot;
use crate::{Counter, Stage};

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

/// Render every span as a chrome-trace complete (`"ph":"X"`) event.
/// Timestamps are microseconds since the session epoch.
pub fn chrome_trace_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for ev in &snap.spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"tac\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3}",
            ev.stage.name(),
            ev.tid,
            ns_to_us(ev.start_ns),
            ns_to_us(ev.dur_ns),
        );
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            let mut first_arg = true;
            for (key, value) in &ev.args {
                if !first_arg {
                    out.push(',');
                }
                first_arg = false;
                let _ = write!(out, "\"{key}\":{value}");
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Aggregated time for one stage.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// The stage.
    pub stage: Stage,
    /// Number of spans recorded for it.
    pub spans: u64,
    /// Total (inclusive) nanoseconds.
    pub total_ns: u64,
    /// Self (exclusive) nanoseconds: total minus direct children.
    pub self_ns: u64,
}

/// Per-stage breakdown plus the non-zero counters.
///
/// Accounting: every span's `self_ns` excludes its direct children, so
/// within one thread self times telescope exactly. Across threads, the
/// executor's [`Stage::Worker`] spans overlap its own
/// [`Stage::Execute`] span on the driver thread; to avoid double
/// counting, worker lifetimes are excluded from the rows and the wall,
/// and the duration of worker-side top-level task spans is re-parented
/// under the `execute` row (subtracted from its self time). With that,
/// the self times across all rows sum to [`StageReport::wall_ns`] — the
/// end-to-end instrumented time — and fractions add up to 1, serial or
/// parallel. Worker idle time is still visible in the worker timelines
/// of the chrome trace.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// One row per stage that recorded at least one span, by descending
    /// self time ([`Stage::Worker`] excluded, see above).
    pub rows: Vec<StageRow>,
    /// Sum of depth-0 span durations (worker lifetimes excluded).
    pub wall_ns: u64,
    /// Non-zero counters, in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
}

impl StageReport {
    /// Aggregate a snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> StageReport {
        let worker_tids: std::collections::HashSet<u32> = snap
            .spans
            .iter()
            .filter(|ev| ev.depth == 0 && ev.stage == Stage::Worker)
            .map(|ev| ev.tid)
            .collect();
        let mut rows: Vec<StageRow> = Vec::new();
        let mut wall_ns = 0u64;
        // Worker-side top-level task spans: children of `execute` in
        // spirit, recorded on another thread in practice.
        let mut adopted_ns = 0u64;
        for ev in &snap.spans {
            if ev.stage == Stage::Worker {
                continue;
            }
            if ev.depth == 0 {
                wall_ns = wall_ns.saturating_add(ev.dur_ns);
            }
            if ev.depth == 1 && worker_tids.contains(&ev.tid) {
                adopted_ns = adopted_ns.saturating_add(ev.dur_ns);
            }
            match rows.iter_mut().find(|r| r.stage == ev.stage) {
                Some(row) => {
                    row.spans = row.spans.saturating_add(1);
                    row.total_ns = row.total_ns.saturating_add(ev.dur_ns);
                    row.self_ns = row.self_ns.saturating_add(ev.self_ns);
                }
                None => rows.push(StageRow {
                    stage: ev.stage,
                    spans: 1,
                    total_ns: ev.dur_ns,
                    self_ns: ev.self_ns,
                }),
            }
        }
        if adopted_ns > 0 {
            if let Some(row) = rows.iter_mut().find(|r| r.stage == Stage::Execute) {
                row.self_ns = row.self_ns.saturating_sub(adopted_ns);
            }
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c, snap.counter(c)))
            .filter(|&(_, v)| v != 0)
            .collect();
        StageReport {
            rows,
            wall_ns,
            counters,
        }
    }

    /// Fraction of wall time a row's self time accounts for (0 when no
    /// top-level span was recorded).
    pub fn fraction(&self, row: &StageRow) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            row.self_ns as f64 / self.wall_ns as f64
        }
    }

    /// `EXPERIMENTS.md`-style text table: stages, then counters.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>12} {:>8}",
            "stage", "spans", "total ms", "self ms", "self %"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12.3} {:>12.3} {:>7.1}%",
                row.stage.name(),
                row.spans,
                ns_to_ms(row.total_ns),
                ns_to_ms(row.self_ns),
                self.fraction(row) * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>12.3} {:>7.1}%",
            "(wall)",
            "",
            "",
            ns_to_ms(self.wall_ns),
            100.0
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (c, v) in &self.counters {
                let _ = writeln!(out, "  {:<22} {v}", c.name());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SpanEvent;

    fn ev(stage: Stage, start: u64, dur: u64, self_ns: u64, depth: u16) -> SpanEvent {
        SpanEvent {
            tid: 0,
            stage,
            start_ns: start,
            dur_ns: dur,
            self_ns,
            depth,
            args: vec![("level", 1)],
        }
    }

    fn sample() -> Snapshot {
        let mut snap = Snapshot::new();
        snap.spans = vec![
            ev(Stage::Compress, 0, 1_000_000, 200_000, 0),
            ev(Stage::Encode, 100_000, 800_000, 500_000, 1),
            ev(Stage::Quantize, 150_000, 300_000, 300_000, 2),
        ];
        if let Some(slot) = snap.counters.get_mut(Counter::ChunksEncoded.index()) {
            *slot = 9;
        }
        if let Some(slot) = snap.counters.get_mut(Counter::AnsBins.index()) {
            *slot = 4;
        }
        snap
    }

    #[test]
    fn fractions_sum_to_one() {
        let report = StageReport::from_snapshot(&sample());
        assert_eq!(report.wall_ns, 1_000_000);
        let sum: f64 = report.rows.iter().map(|r| report.fraction(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    /// A parallel-shaped snapshot: the driver's `execute` span overlaps
    /// two worker lifetimes whose task spans must be re-parented under
    /// it, not double-counted.
    #[test]
    fn worker_task_time_is_reparented_under_execute() {
        let mut snap = Snapshot::new();
        let mk = |tid: u32, stage, start: u64, dur: u64, self_ns: u64, depth: u16| SpanEvent {
            tid,
            stage,
            start_ns: start,
            dur_ns: dur,
            self_ns,
            depth,
            args: Vec::new(),
        };
        snap.spans = vec![
            // Driver: compress{ execute } — execute blocks on workers.
            mk(0, Stage::Compress, 0, 1_000_000, 200_000, 0),
            mk(0, Stage::Execute, 100_000, 800_000, 800_000, 1),
            // Worker 1: worker{ encode{ quantize } }.
            mk(1, Stage::Worker, 100_000, 800_000, 100_000, 0),
            mk(1, Stage::Encode, 150_000, 700_000, 400_000, 1),
            mk(1, Stage::Quantize, 200_000, 300_000, 300_000, 2),
            // Worker 2: worker{ encode }.
            mk(2, Stage::Worker, 100_000, 800_000, 700_000, 0),
            mk(2, Stage::Encode, 150_000, 100_000, 100_000, 1),
        ];
        let report = StageReport::from_snapshot(&snap);
        // Wall: driver top-level only; worker lifetimes excluded.
        assert_eq!(report.wall_ns, 1_000_000);
        assert!(report.rows.iter().all(|r| r.stage != Stage::Worker));
        // Execute self: 800k minus the 800k of adopted worker task
        // spans (700k + 100k) == 0.
        let exec = report
            .rows
            .iter()
            .find(|r| r.stage == Stage::Execute)
            .expect("execute row");
        assert_eq!(exec.self_ns, 0);
        let sum: f64 = report.rows.iter().map(|r| report.fraction(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    #[test]
    fn chrome_trace_is_structurally_valid_json() {
        let trace = chrome_trace_json(&sample());
        assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"quantize\""));
        assert!(trace.contains("\"args\":{\"level\":1}"));
        // Balanced braces/brackets outside strings (all our strings are
        // bare identifiers, so a raw scan is exact here).
        let open = trace.matches(['{', '[']).count();
        let close = trace.matches(['}', ']']).count();
        assert_eq!(open, close);
    }

    #[test]
    fn report_renders_counters() {
        let text = StageReport::from_snapshot(&sample()).render_text();
        assert!(text.contains("encode"), "{text}");
        assert!(text.contains("chunks_encoded"), "{text}");
        assert!(text.contains("ans_bins"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_without_panicking() {
        let snap = Snapshot::new();
        let report = StageReport::from_snapshot(&snap);
        assert_eq!(report.wall_ns, 0);
        let _ = report.render_text();
        let _ = chrome_trace_json(&snap);
    }
}
