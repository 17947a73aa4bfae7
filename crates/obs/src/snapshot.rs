//! The collected data model shared by the session and the exporters.
//! Compiled regardless of the `enabled` feature so reports can be
//! rebuilt from archived data without the recording machinery.

use crate::{Counter, Stage};

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

/// Everything one collect produced: all shards merged.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Every closed span from every thread, in per-thread close order.
    pub spans: Vec<SpanEvent>,
    /// Merged counter totals, indexed by [`Counter::index`].
    pub counters: Vec<u64>,
}

impl Snapshot {
    /// An empty snapshot with zeroed counters.
    pub fn new() -> Self {
        Snapshot {
            spans: Vec::new(),
            counters: vec![0; Counter::COUNT],
        }
    }

    /// Merged total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.index()).copied().unwrap_or(0)
    }

    /// Fold another snapshot into this one (spans appended, counters
    /// added).
    pub fn merge(&mut self, other: Snapshot) {
        self.spans.extend(other.spans);
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.iter().all(|&c| c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        if let Some(slot) = a.counters.get_mut(Counter::ChunksEncoded.index()) {
            *slot = 3;
        }
        if let Some(slot) = b.counters.get_mut(Counter::ChunksEncoded.index()) {
            *slot = 4;
        }
        a.merge(b);
        assert_eq!(a.counter(Counter::ChunksEncoded), 7);
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        assert!(Snapshot::new().is_empty());
    }
}
