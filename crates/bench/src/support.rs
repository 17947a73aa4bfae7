//! Shared plumbing for the experiment harnesses: dataset loading at the
//! benchmark scale, CR-matched calibration, timing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use tac_amr::AmrDataset;
use tac_analysis::amr_distortion;
use tac_core::ErrorBound;
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, CodecElement, Method, Parallelism, TacConfig,
};
use tac_nyx::FieldKind;

/// Programmatic overrides of the env knobs, for in-process tests:
/// mutating the environment from the parallel test runner races with
/// `getenv` in sibling tests. 0 means "no scale override".
static SCALE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static QUICK_OVERRIDE: AtomicBool = AtomicBool::new(false);

/// Overrides the benchmark scale and quick mode process-wide, taking
/// precedence over the `TAC_BENCH_SCALE` / `TAC_BENCH_QUICK` env vars
/// (`scale = 0` / `quick = false` fall back to the env vars). Thread-safe,
/// unlike `std::env::set_var` under the parallel test runner — but global:
/// tests sharing the binary must not assert the no-override defaults.
#[cfg(test)]
pub(crate) fn set_bench_overrides(scale: usize, quick: bool) {
    SCALE_OVERRIDE.store(scale, Ordering::Relaxed);
    QUICK_OVERRIDE.store(quick, Ordering::Relaxed);
}

/// Default down-scale factor from the paper's grid sizes (8 maps the
/// paper's 512^3 levels to 64^3 — one node instead of a cluster).
/// Override with the `TAC_BENCH_SCALE` environment variable.
pub fn default_scale() -> usize {
    let o = SCALE_OVERRIDE.load(Ordering::Relaxed);
    if o >= 1 {
        return o;
    }
    std::env::var("TAC_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &usize| s >= 1)
        .unwrap_or(8)
}

/// Whether sweeps should be trimmed for a fast pass (the
/// `TAC_BENCH_QUICK` env var, or the programmatic override).
pub fn quick_mode() -> bool {
    QUICK_OVERRIDE.load(Ordering::Relaxed) || std::env::var("TAC_BENCH_QUICK").is_ok()
}

/// Unit-block size appropriate for the benchmark scale (the paper's 16
/// on 512^3 corresponds to 16/scale, floored at 2).
pub fn default_unit(scale: usize) -> usize {
    (16 / scale).max(4).next_power_of_two()
}

/// Generates one catalog dataset at the benchmark scale.
pub fn load_dataset(name: &str, scale: usize, seed: u64) -> AmrDataset {
    tac_nyx::entry(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
        .generate(FieldKind::BaryonDensity, scale, seed)
}

/// One compression measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Resolved/requested error bound (caller's convention).
    pub eb: f64,
    /// Compression ratio over present cells.
    pub ratio: f64,
    /// Bits per value.
    pub bit_rate: f64,
    /// PSNR (dB) over present cells.
    pub psnr: f64,
    /// Compression wall time (seconds).
    pub compress_s: f64,
    /// Decompression wall time (seconds).
    pub decompress_s: f64,
}

impl Measured {
    /// End-to-end throughput in MB/s over the original (present-cell)
    /// bytes, counting compression + decompression like the paper's
    /// Table 2.
    pub fn throughput_mb_s(&self, original_bytes: usize) -> f64 {
        original_bytes as f64 / 1e6 / (self.compress_s + self.decompress_s)
    }

    /// Compression-only throughput in MB/s over the original bytes.
    pub fn compress_mb_s(&self, original_bytes: usize) -> f64 {
        original_bytes as f64 / 1e6 / self.compress_s
    }

    /// Decompression-only throughput in MB/s over the original bytes —
    /// the number a read-heavy analysis pipeline actually feels.
    pub fn decompress_mb_s(&self, original_bytes: usize) -> f64 {
        original_bytes as f64 / 1e6 / self.decompress_s
    }
}

/// Compresses + decompresses once and measures everything, at the
/// dataset's own element type. The ratio accounts original bytes at the
/// element width (via the container's dtype-aware stats); PSNR runs in
/// `f64` against the original as stored.
pub fn measure<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    method: Method,
    eb_label: f64,
) -> Measured {
    let t0 = std::time::Instant::now();
    let cd = compress_dataset_t(ds, cfg, method).expect("compression failed");
    let compress_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let out =
        decompress_dataset_par_t::<T>(&cd, Parallelism::Serial).expect("decompression failed");
    let decompress_s = t1.elapsed().as_secs_f64();
    let stats = cd.stats();
    let d = amr_distortion(&ds.cast(), &out.cast());
    Measured {
        eb: eb_label,
        ratio: stats.ratio(),
        bit_rate: stats.bit_rate(),
        psnr: d.psnr,
        compress_s,
        decompress_s,
    }
}

/// Bisects a base absolute error bound so the method lands on
/// `target_cr` (within 1%), returning `(base_eb, measurement)`.
/// `level_scales` are TAC's per-level multipliers (ignored by baselines).
pub fn calibrate_to_cr(
    ds: &AmrDataset,
    method: Method,
    level_scales: Vec<f64>,
    target_cr: f64,
    unit: usize,
) -> (f64, Measured) {
    let (mut lo, mut hi) = (2.0f64, 14.0f64);
    let mut best: Option<(f64, Measured)> = None;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let eb = 10f64.powf(mid);
        let cfg = TacConfig {
            unit,
            error_bound: ErrorBound::Abs(eb),
            level_eb_scale: level_scales.clone(),
            ..Default::default()
        };
        let m = measure(ds, &cfg, method, eb);
        let better = match &best {
            None => true,
            Some((_, b)) => (m.ratio - target_cr).abs() < (b.ratio - target_cr).abs(),
        };
        if better {
            best = Some((eb, m));
        }
        if (m.ratio - target_cr).abs() / target_cr < 0.01 {
            break;
        }
        if m.ratio > target_cr {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    best.expect("calibration ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_and_unit_defaults() {
        assert!(default_scale() >= 1);
        assert_eq!(default_unit(8), 4);
        assert_eq!(default_unit(4), 4);
        assert_eq!(default_unit(1), 16);
        assert_eq!(default_unit(32), 4);
    }

    #[test]
    fn measure_reports_consistent_numbers() {
        let ds = load_dataset("Run1_Z10", 32, 5);
        let cfg = TacConfig {
            unit: 2,
            error_bound: ErrorBound::Rel(1e-3),
            ..Default::default()
        };
        let m = measure(&ds, &cfg, Method::Tac, 1e-3);
        assert!(m.ratio > 1.0);
        assert!((m.ratio * m.bit_rate - 64.0).abs() < 1e-6);
        assert!(m.psnr > 0.0);
        assert!(m.throughput_mb_s(ds.total_present() * 8) > 0.0);
    }

    #[test]
    fn calibration_hits_target_cr() {
        // Tiny (16^3) datasets saturate around CR ~7 from fixed stream
        // overheads, so target a modest ratio.
        let ds = load_dataset("Run1_Z10", 32, 6);
        let (_, m) = calibrate_to_cr(&ds, Method::Tac, vec![], 5.0, 2);
        assert!(
            (m.ratio - 5.0).abs() / 5.0 < 0.2,
            "calibrated CR {} for target 5",
            m.ratio
        );
    }
}
