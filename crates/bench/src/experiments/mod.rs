//! One module per section of the reproduction: the paper's tables and
//! figures, the codec comparison and two ablations. Every module exposes
//! `report() -> String` printing the same rows/series the paper shows.
//! [`SECTIONS`] is the one list of them: `repro_all` runs it, and every
//! entry has a smoke test.

use tac_amr::AmrLevel;
use tac_core::{compress_level_t, decompress_level_t, Strategy, TacConfig};

/// One section of the reproduction: its heading and its report.
pub type Section = (&'static str, fn() -> String);

/// Names every section once, as `module => "heading"` in the order
/// `repro_all` runs them, and hands the list to the macro `$then`.
macro_rules! sections {
    ($then:ident) => {
        $then! {
            fig07 => "Fig. 7",
            fig11 => "Fig. 11",
            fig12 => "Fig. 12",
            fig13 => "Fig. 13",
            fig14 => "Fig. 14",
            fig15 => "Fig. 15",
            fig16 => "Fig. 16",
            fig18 => "Fig. 18",
            fig19 => "Fig. 19",
            table2 => "Table 2",
            table3 => "Table 3",
            codec_comparison => "Codec comparison",
            ablation_block_size => "Ablation: unit block size",
            ablation_lossless => "Ablation: SZ stages",
        }
    };
}

macro_rules! declare_sections {
    ($($module:ident => $name:literal,)+) => {
        $(pub mod $module;)+

        /// Every section, in the order `repro_all` runs them.
        pub const SECTIONS: &[Section] = &[$(($name, $module::report)),+];
    };
}

sections!(declare_sections);

/// The sections `repro_all --only <pat>` runs, in list order: those
/// whose heading contains `pat`, case-insensitively (`None`: all).
pub fn selected(only: Option<&str>) -> Vec<Section> {
    let pat = only.map(str::to_lowercase);
    SECTIONS
        .iter()
        .copied()
        .filter(|(name, _)| {
            pat.as_ref()
                .map_or(true, |p| name.to_lowercase().contains(p.as_str()))
        })
        .collect()
}

/// Per-level measurement used by the per-strategy sections (Figs. 7, 11,
/// 12, 18 and the block-size ablation): compression ratio and PSNR over
/// present cells at a given absolute bound, plus the wall time of the
/// pre-process+compress step.
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
    /// Pre-process + compress wall time.
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

    #[test]
    fn section_names_are_unique_and_each_selects_only_itself() {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        for name in &names {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
            let hit: Vec<&str> = selected(Some(&name.to_uppercase()))
                .iter()
                .map(|(name, _)| *name)
                .collect();
            assert_eq!(hit, [*name], "--only {name:?}");
        }
        assert_eq!(selected(None).len(), SECTIONS.len());
        assert!(selected(Some("no such section")).is_empty());
    }

    /// A file under `src/experiments/` that the list leaves out is not
    /// even compiled, so the list is checked against the directory.
    #[test]
    fn every_experiment_module_is_a_listed_section() {
        macro_rules! module_names {
            ($($module:ident => $name:literal,)+) => {
                [$(stringify!($module)),+]
            };
        }
        let mut listed = sections!(module_names).to_vec();
        listed.sort_unstable();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("the experiments directory")
            .map(|e| e.expect("a directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|m| m != "mod")
            .collect();
        files.sort_unstable();
        assert_eq!(files, listed);
    }

    /// Smoke-runs one report at a tiny scale so every section stays
    /// compiling AND running (guards against drift in the library APIs).
    /// One test per section keeps slow harnesses visible and lets the
    /// runner parallelize them. The scale/quick knobs are set through the
    /// atomic overrides, not `set_var` — env mutation races with `getenv`
    /// under the parallel test runner.
    fn smoke(name: &str, report: fn() -> String) {
        crate::support::set_bench_overrides(32, true);
        let out = report();
        assert!(out.lines().count() > 3, "{name} report too short:\n{out}");
    }

    mod smoke_reports {
        macro_rules! smoke_tests {
            ($($module:ident => $name:literal,)+) => {
                $(
                    #[test]
                    fn $module() {
                        super::smoke($name, crate::experiments::$module::report);
                    }
                )+
            };
        }

        sections!(smoke_tests);
    }
}
