//! The metric names, units and bounds. `BENCHMARK.json` at the root of
//! the repository lists the same names; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may get worse
    /// before a change counts as a regression. Sized to the spread seen
    /// across seeds and, for timings, across runs on a shared 2-core host.
    pub bound: f64,
    /// Whether the value is a pure function of the seed, so that two runs
    /// of one seed must agree to the last digit.
    pub exact: bool,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEndMetric; 6] = [
    EndToEndMetric {
        name: "compress_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEndMetric {
        name: "decompress_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEndMetric {
        name: "roi_decode_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEndMetric {
        name: "compression_ratio",
        unit: "x",
        better: Higher,
        bound: 0.15,
        exact: true,
    },
    EndToEndMetric {
        name: "psnr_db",
        unit: "dB",
        better: Higher,
        bound: 0.05,
        exact: true,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Per-layer metrics of the traced pass; the prefix is the layer (crate
/// or module). A metric whose layer a workload never enters reads 0
/// there (see the README's "applies to" column).
pub const PER_LAYER: [LayerMetric; 34] = [
    LayerMetric {
        name: "host.memcpy_mb_s",
        unit: "MB/s",
        better: Higher,
    },
    LayerMetric {
        name: "nyx.generate_s",
        unit: "s",
        better: Lower,
    },
    LayerMetric {
        name: "amr.blockgrid_ns_per_cell",
        unit: "ns/cell",
        better: Lower,
    },
    LayerMetric {
        name: "amr.mask_roundtrip_ms",
        unit: "ms",
        better: Lower,
    },
    LayerMetric {
        name: "core.preprocess.plan_ns_per_value",
        unit: "ns/value",
        better: Lower,
    },
    LayerMetric {
        name: "codec.compress_ns_per_value",
        unit: "ns/value",
        better: Lower,
    },
    LayerMetric {
        name: "codec.decompress_ns_per_value",
        unit: "ns/value",
        better: Lower,
    },
    LayerMetric {
        name: "codec.decompress_x_memcpy",
        unit: "ratio",
        better: Higher,
    },
    LayerMetric {
        name: "codec.stream_ratio",
        unit: "x",
        better: Higher,
    },
    LayerMetric {
        name: "codec.share_of_compress",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "codec.share_of_decompress",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "core.level.compress_ns_per_value",
        unit: "ns/value",
        better: Lower,
    },
    LayerMetric {
        name: "core.level.decompress_ns_per_value",
        unit: "ns/value",
        better: Lower,
    },
    LayerMetric {
        name: "core.engine.compress_glue_share",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "core.engine.decompress_glue_share",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "core.container.serialize_ms",
        unit: "ms",
        better: Lower,
    },
    LayerMetric {
        name: "core.container.parse_ms",
        unit: "ms",
        better: Lower,
    },
    LayerMetric {
        name: "core.container.structure_share",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "core.container.bits_per_value",
        unit: "bit/value",
        better: Lower,
    },
    LayerMetric {
        name: "core.select.auto_ms",
        unit: "ms",
        better: Lower,
    },
    LayerMetric {
        name: "core.select.share_of_compress",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "core.roi.skipped_fraction",
        unit: "ratio",
        better: Higher,
    },
    LayerMetric {
        name: "core.roi.chunks_read_share",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "core.roi.ms_over_full_decode",
        unit: "ratio",
        better: Lower,
    },
    LayerMetric {
        name: "par.task_overhead_us",
        unit: "us",
        better: Lower,
    },
    LayerMetric {
        name: "par.speedup_compress",
        unit: "x",
        better: Higher,
    },
    LayerMetric {
        name: "par.speedup_decompress",
        unit: "x",
        better: Higher,
    },
    LayerMetric {
        name: "mem.compress_peak_rss_x",
        unit: "x",
        better: Lower,
    },
    LayerMetric {
        name: "mem.decompress_peak_rss_x",
        unit: "x",
        better: Lower,
    },
    LayerMetric {
        name: "ladder.level_over_codec_compress",
        unit: "ratio",
        better: Higher,
    },
    LayerMetric {
        name: "ladder.level_over_codec_decode",
        unit: "ratio",
        better: Higher,
    },
    LayerMetric {
        name: "ladder.dataset_over_level_decode",
        unit: "ratio",
        better: Higher,
    },
    LayerMetric {
        name: "ladder.dataset_over_codec_decode",
        unit: "ratio",
        better: Higher,
    },
    LayerMetric {
        name: "trace.overhead_share",
        unit: "ratio",
        better: Lower,
    },
];

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
        }
    }
}

/// A measured value under one of the names above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn better(b: Better) -> Json {
        Json::str(b.label())
    }

    /// The rows of the array under `key`, one object a line as
    /// `BENCHMARK.json` is laid out.
    fn rows(text: &str, key: &str) -> Vec<String> {
        text.lines()
            .skip_while(|l| !l.contains(&format!("\"{key}\": [")))
            .skip(1)
            .map(|l| l.trim().trim_end_matches(','))
            .take_while(|l| *l != "]")
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_rows() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]).to_string()
            })
            .collect();
        assert_eq!(rows(&text, "workloads"), workloads);
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", better(m.better)),
                    ("bound", Json::Num(m.bound)),
                ])
                .to_string()
            })
            .collect();
        assert_eq!(rows(&text, "end_to_end"), end_to_end);
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", better(m.better)),
                ])
                .to_string()
            })
            .collect();
        assert_eq!(rows(&text, "per_layer"), per_layer);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "s")));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
