//! Order statistics over the timed reps of one operation.

use crate::json::Json;

/// A workload is flagged noisy when `(median - min) / min` of any timed
/// operation exceeds this.
pub const NOISY_SPREAD: f64 = 0.25;

/// Summary of `n` samples. Timing metrics report `min` (the least
/// disturbed rep); the rest says how far the other reps sat from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
    /// `(median - min) / min`.
    pub spread: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (min, max) = (*sorted.first()?, *sorted.last()?);
        let median = quantile(&sorted, 0.5);
        Some(Summary {
            n: sorted.len(),
            min,
            median,
            p75: quantile(&sorted, 0.75),
            max,
            spread: if min > 0.0 { (median - min) / min } else { 0.0 },
        })
    }

    pub fn noisy(&self) -> bool {
        self.spread > NOISY_SPREAD
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("median", Json::Num(self.median)),
            ("p75", Json::Num(self.p75)),
            ("max", Json::Num(self.max)),
            ("spread", Json::Num(self.spread)),
        ])
    }
}

/// Linear-interpolated quantile of an ascending, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_and_interpolates() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(
            (s.n, s.min, s.median, s.p75, s.max),
            (5, 1.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.spread, 2.0);
        assert!(s.noisy());

        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(even.p75, 3.25);
    }

    #[test]
    fn summary_of_one_and_none() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(
            (s.min, s.median, s.p75, s.max, s.spread),
            (7.5, 7.5, 7.5, 7.5, 0.0)
        );
        assert!(!s.noisy());
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tight_samples_are_not_noisy() {
        let s = Summary::of(&[100.0, 101.0, 102.0, 130.0]).unwrap();
        assert!(s.spread < 0.02);
        assert!(!s.noisy());
    }
}
