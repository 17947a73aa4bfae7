//! The collected data model shared by the session and the exporters.
//! Compiled regardless of the `enabled` feature so reports can be
//! rebuilt from archived data without the recording machinery.

use crate::{Counter, HistKind, Stage, HIST_BUCKETS};

/// One closed span, as recorded by the thread that ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Small dense id of the recording thread (0 = first thread seen).
    pub tid: u32,
    /// Stage the span is attributed to.
    pub stage: Stage,
    /// Start, nanoseconds since the session epoch.
    pub start_ns: u64,
    /// Total duration in nanoseconds.
    pub dur_ns: u64,
    /// Self time: duration minus the duration of direct child spans.
    /// Summing `self_ns` over every span equals summing `dur_ns` over
    /// depth-0 spans, which is what makes per-stage fractions add up.
    pub self_ns: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u16,
    /// Key/value arguments attached via [`crate::SpanGuard::arg`].
    pub args: Vec<(&'static str, u64)>,
}

/// One merged histogram: `counts[v]` observations of value `v` (values
/// clamped to [`HIST_BUCKETS`]` - 1` at record time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Which histogram this is.
    pub kind: HistKind,
    /// Per-value observation counts, indexed by value.
    pub counts: Vec<u64>,
}

impl HistSnapshot {
    /// An empty histogram for `kind`.
    pub fn empty(kind: HistKind) -> Self {
        HistSnapshot {
            kind,
            counts: vec![0; HIST_BUCKETS],
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Mean observed value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| (v as f64) * (c as f64))
            .sum();
        Some(weighted / total as f64)
    }
}

/// Everything one collect produced: all shards merged.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Every closed span from every thread, in per-thread close order.
    pub spans: Vec<SpanEvent>,
    /// Merged counter totals, indexed by [`Counter::index`].
    pub counters: Vec<u64>,
    /// Merged histograms, one per [`HistKind`], in `HistKind::ALL` order.
    pub hists: Vec<HistSnapshot>,
}

impl Snapshot {
    /// An empty snapshot with zeroed counters and histograms.
    pub fn new() -> Self {
        Snapshot {
            spans: Vec::new(),
            counters: vec![0; Counter::COUNT],
            hists: HistKind::ALL
                .iter()
                .map(|&h| HistSnapshot::empty(h))
                .collect(),
        }
    }

    /// Merged total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.index()).copied().unwrap_or(0)
    }

    /// Merged histogram for one kind.
    pub fn histogram(&self, h: HistKind) -> Option<&HistSnapshot> {
        self.hists.iter().find(|s| s.kind == h)
    }

    /// Fold another snapshot into this one (spans appended, counters and
    /// histogram buckets added).
    pub fn merge(&mut self, other: Snapshot) {
        self.spans.extend(other.spans);
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        for (mine, theirs) in self.hists.iter_mut().zip(other.hists.iter()) {
            for (m, t) in mine.counts.iter_mut().zip(theirs.counts.iter()) {
                *m = m.saturating_add(*t);
            }
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.iter().all(|&c| c == 0)
            && self.hists.iter().all(|h| h.total() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        if let Some(slot) = a.counters.get_mut(Counter::ChunksEncoded.index()) {
            *slot = 3;
        }
        if let Some(slot) = b.counters.get_mut(Counter::ChunksEncoded.index()) {
            *slot = 4;
        }
        if let Some(h) = b.hists.get_mut(0) {
            if let Some(slot) = h.counts.get_mut(12) {
                *slot = 5;
            }
        }
        a.merge(b);
        assert_eq!(a.counter(Counter::ChunksEncoded), 7);
        let h = a.histogram(HistKind::AnsPageBins).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.mean(), Some(12.0));
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        assert!(Snapshot::new().is_empty());
    }
}
