//! Spans around the benchmark's own calls into the library.
//!
//! The traced pass brackets every public call it times with
//! [`Tracer::begin`] / [`Tracer::end`]. Spans stay in memory and are
//! written once, Chrome-trace shaped, when the command exits. Spans
//! *inside* the library (`tac-obs`) stay off: this is the view from
//! outside.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub workload: String,
}

pub struct Tracer {
    epoch: Instant,
    /// Off for the untraced reps, which the traced ones are compared to.
    pub enabled: bool,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// What [`Tracer::begin`] hands back for [`Tracer::end`].
pub struct Open {
    started: Instant,
    index: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            workload: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Names the workload every following span belongs to.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    pub fn begin(&mut self, name: &str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: (started - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                workload: self.workload.clone(),
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.open.push(i);
        }
        Open { started, index }
    }

    /// Closes the span and returns its duration in seconds, which is
    /// measured whether or not the span was recorded.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_ns = (now - self.epoch).as_nanos() as u64;
            self.open.retain(|&o| o != i);
        }
        (now - open.started).as_secs_f64()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn chrome_trace(&self) -> Json {
        let self_ns = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, &self_ns)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("workload", Json::str(&s.workload)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Num(-1.0), |p| Json::Num(p as f64)),
                            ),
                            ("self_ns", Json::Num(self_ns as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            workload: "w".into(),
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            // Overlaps the previous child on [30, 40): counted once.
            span(30, 60, Some(0)),
            span(35, 38, Some(2)),
            // Sticks out of the parent: only [90, 100) is cover.
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 27, 3, 30]);
    }

    #[test]
    fn self_times_telescope_to_the_root() {
        let spans = [
            span(0, 1000, None),
            span(100, 400, Some(0)),
            span(150, 250, Some(1)),
            span(500, 900, Some(0)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tracer_nests_and_can_be_switched_off() {
        let mut t = Tracer::new();
        t.set_workload("w");
        let root = t.begin("root");
        let child = t.begin("child");
        assert!(t.end(child) >= 0.0);
        t.enabled = false;
        let hidden = t.begin("hidden");
        assert!(t.end(hidden) >= 0.0);
        t.enabled = true;
        t.end(root);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(names, [("root", None), ("child", Some(0))]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.workload == "w"));
        let text = t.chrome_trace().to_string();
        assert!(text.contains("\"traceEvents\": [{\"name\": \"root\", \"ph\": \"X\""));
    }
}
