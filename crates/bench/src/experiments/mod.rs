//! One module per paper table/figure. Every module exposes
//! `report() -> String` printing the same rows/series the paper shows.

pub mod codec_comparison;
pub mod fig07;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig18;
pub mod fig19;
pub mod par_speedup;
pub mod table2;
pub mod table3;

use tac_amr::AmrLevel;
use tac_core::{compress_level_t, decompress_level_t, Strategy, TacConfig};

/// Per-level measurement used by the per-strategy figures (7, 11, 12):
/// compression ratio and PSNR over present cells at a given absolute
/// bound, plus the wall time of the pre-process+compress step.
pub(crate) fn measure_level(
    level: &AmrLevel,
    strategy: Strategy,
    abs_eb: f64,
    unit: usize,
) -> LevelMeasurement {
    let cfg = TacConfig {
        unit,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let cl = compress_level_t(level, strategy, abs_eb, &cfg).expect("level compression");
    let compress_s = t0.elapsed().as_secs_f64();
    let recon = decompress_level_t::<f64>(&cl, level.mask()).expect("level decompression");

    let present = level.num_present();
    let bytes = cl.total_bytes();
    let mut sum_sq = 0.0;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in level.mask().iter_ones() {
        let e = level.data()[i] - recon.data()[i];
        sum_sq += e * e;
        lo = lo.min(level.data()[i]);
        hi = hi.max(level.data()[i]);
    }
    let mse = sum_sq / present.max(1) as f64;
    let psnr = if mse == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (hi - lo).log10() - 10.0 * mse.log10()
    };
    LevelMeasurement {
        ratio: (present * 8) as f64 / bytes.max(1) as f64,
        bit_rate: bytes as f64 * 8.0 / present.max(1) as f64,
        psnr,
        compress_s,
    }
}

/// Result of [`measure_level`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelMeasurement {
    pub ratio: f64,
    pub bit_rate: f64,
    pub psnr: f64,
    /// Pre-process + compress wall time (read by tests; the figure
    /// harnesses time the planners directly).
    #[allow(dead_code)]
    pub compress_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::load_dataset;

    #[test]
    fn level_measurement_is_sane() {
        let ds = load_dataset("Run1_Z10", 32, 1);
        let m = measure_level(&ds.levels()[0], Strategy::OpST, 1e7, 2);
        assert!(m.ratio > 1.0);
        assert!(m.psnr > 20.0);
        assert!(m.compress_s > 0.0);
        assert!((m.ratio * m.bit_rate - 64.0).abs() < 1e-6);
    }

    /// Smoke-runs one report at a tiny scale so the harness behind each
    /// bench binary stays compiling AND running (guards against drift in
    /// the library APIs). One test per module keeps slow harnesses
    /// visible and lets the runner parallelize them. The scale/quick
    /// knobs are set through the atomic overrides, not `set_var` — env
    /// mutation races with `getenv` under the parallel test runner.
    fn smoke(name: &str, report: fn() -> String) {
        crate::support::set_bench_overrides(32, true);
        let out = report();
        assert!(out.lines().count() > 3, "{name} report too short:\n{out}");
    }

    macro_rules! smoke_tests {
        ($($module:ident),+ $(,)?) => {
            $(
                #[test]
                fn $module() {
                    smoke(stringify!($module), super::$module::report);
                }
            )+
        };
    }

    mod smoke_reports {
        use super::smoke;

        smoke_tests!(
            codec_comparison,
            fig07,
            fig11,
            fig12,
            fig13,
            fig14,
            fig15,
            fig16,
            fig18,
            fig19,
            par_speedup,
            table2,
            table3,
        );
    }
}
