//! Scalar-codec backend comparison — beyond the paper's single-substrate
//! evaluation, in the direction TAC+ (TPDS'23) takes: the per-level
//! pre-process is codec-agnostic, so the natural question is which
//! error-bounded backend each workload should feed.
//!
//! Two tables:
//! 1. every compression method x every registered codec: ratio,
//!    bit-rate, PSNR, and end-to-end throughput at the same relative
//!    bound;
//! 2. per-level TAC payload accounting, showing how the codecs diverge
//!    between the sparse fine levels (many small batched streams) and
//!    the dense coarse levels (one whole-grid stream).
//!
//! Expected shapes: SZ's Lorenzo/regression prediction wins ratio on the
//! smooth 3D fields; pco-ans's single-scan delta pipeline with a
//! tabled-ANS tail trades some ratio for decode throughput (it often
//! wins on the small fine-level group streams, where SZ's Huffman
//! tables dominate). The point of the table is that the answer is per-level —
//! which is exactly what the pluggable backend layer makes actionable.

use crate::support::{default_scale, default_unit, load_dataset, measure, quick_mode, Measured};
use tac_core::{compress_dataset_t, CodecElement, CodecId, Method, MethodBody, TacConfig};
use tac_sz::ErrorBound;

/// One method x codec measurement row.
#[derive(Debug, Clone)]
pub struct CodecRow {
    /// Compression method label.
    pub method: &'static str,
    /// Codec label.
    pub codec: &'static str,
    /// Element type the pipeline ran at (`"f64"` / `"f32"`).
    pub dtype: &'static str,
    /// Compression ratio over present cells.
    pub ratio: f64,
    /// Compression-only throughput (MB/s over present-cell bytes).
    pub compress_mb_s: f64,
    /// Decompression-only throughput (MB/s over present-cell bytes).
    pub decompress_mb_s: f64,
    /// PSNR (dB) over present cells.
    pub psnr: f64,
    /// Compression wall time (seconds).
    pub compress_s: f64,
    /// Decompression wall time (seconds).
    pub decompress_s: f64,
}

/// The configuration the comparison runs under.
pub fn bench_config(unit: usize, codec: CodecId) -> TacConfig {
    TacConfig {
        unit,
        error_bound: ErrorBound::Rel(1e-3),
        codec,
        ..Default::default()
    }
}

/// Measures every method under every registered codec on `ds`, at the
/// dataset's own element type (`f32` data runs the single-precision
/// pipeline and the v4 wire; original bytes count at the element width).
pub fn measure_matrix<T: CodecElement>(
    ds: &tac_amr::AmrDataset<T>,
    unit: usize,
    reps: usize,
) -> Vec<CodecRow> {
    let original_bytes = ds.total_present() * T::WIRE_BYTES;
    let mut rows = Vec::new();
    for method in [
        Method::Tac,
        Method::Baseline1D,
        Method::ZMesh,
        Method::Baseline3D,
    ] {
        for codec in CodecId::all() {
            let cfg = bench_config(unit, codec);
            let mut best: Option<Measured> = None;
            for _ in 0..reps.max(1) {
                let m = measure(ds, &cfg, method, 1e-3);
                let better = best.as_ref().map_or(true, |b| {
                    m.compress_s + m.decompress_s < b.compress_s + b.decompress_s
                });
                if better {
                    best = Some(m);
                }
            }
            let m = best.expect("at least one rep");
            rows.push(CodecRow {
                method: method.label(),
                codec: codec.label(),
                dtype: T::DTYPE.label(),
                ratio: m.ratio,
                compress_mb_s: m.compress_mb_s(original_bytes),
                decompress_mb_s: m.decompress_mb_s(original_bytes),
                psnr: m.psnr,
                compress_s: m.compress_s,
                decompress_s: m.decompress_s,
            });
        }
    }
    rows
}

/// Runs the codec-comparison report.
pub fn report() -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let reps = if quick_mode() { 1 } else { 3 };
    let ds = load_dataset("Run1_Z10", scale, 14);

    let mut out = String::new();
    out.push_str("Scalar-codec backends: every method x every registered codec\n");
    out.push_str(&format!(
        "  dataset Run1_Z10, finest {}^3, {} present cells, rel eb 1e-3\n",
        ds.finest_dim(),
        ds.total_present(),
    ));
    out.push_str(&format!(
        "  {:<8} {:<10} {:>8} {:>9} {:>10} {:>10} {:>11} {:>11}\n",
        "method", "codec", "ratio", "PSNR dB", "comp s", "decomp s", "comp MB/s", "decomp MB/s"
    ));
    for r in measure_matrix(&ds, unit, reps) {
        out.push_str(&format!(
            "  {:<8} {:<10} {:>8.2} {:>9.1} {:>10.4} {:>10.4} {:>11.2} {:>11.2}\n",
            r.method,
            r.codec,
            r.ratio,
            r.psnr,
            r.compress_s,
            r.decompress_s,
            r.compress_mb_s,
            r.decompress_mb_s
        ));
    }

    // Per-level TAC accounting: where each codec spends its bytes.
    out.push_str("\nPer-level TAC payload (bytes and ratio by codec):\n");
    out.push_str(&format!(
        "  {:<6} {:<6} {:<9} {:<10} {:>13} {:>8}\n",
        "level", "dim", "strategy", "codec", "payload B", "ratio"
    ));
    for codec in CodecId::all() {
        let cfg = bench_config(unit, codec);
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).expect("compress");
        if let MethodBody::Tac(levels) = &cd.body {
            for (l, cl) in levels.iter().enumerate() {
                let present = ds.levels()[l].num_present();
                if present == 0 {
                    continue;
                }
                let bytes = cl.total_bytes();
                out.push_str(&format!(
                    "  {:<6} {:<6} {:<9} {:<10} {:>13} {:>8.2}\n",
                    l,
                    cl.dim,
                    format!("{:?}", cl.strategy),
                    codec.label(),
                    bytes,
                    (present * 8) as f64 / bytes.max(1) as f64,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_method_and_codec() {
        crate::support::set_bench_overrides(32, true);
        let ds = load_dataset("Run1_Z10", 32, 3);
        let rows = measure_matrix(&ds, 2, 1);
        assert_eq!(rows.len(), 4 * CodecId::all().len());
        for r in &rows {
            assert_eq!(r.dtype, "f64");
            assert!(r.ratio > 1.0, "{}/{} ratio {}", r.method, r.codec, r.ratio);
            assert!(r.compress_mb_s > 0.0 && r.decompress_mb_s > 0.0);
            assert!(r.psnr > 20.0, "{}/{} psnr {}", r.method, r.codec, r.psnr);
        }
    }

    #[test]
    fn f32_matrix_sweeps_the_same_space() {
        crate::support::set_bench_overrides(32, true);
        let ds = load_dataset("Run1_Z10", 32, 3);
        let rows = measure_matrix(&ds.cast::<f32>(), 2, 1);
        assert_eq!(rows.len(), 4 * CodecId::all().len());
        for r in &rows {
            assert_eq!(r.dtype, "f32");
            assert!(r.ratio > 1.0, "{}/{} ratio {}", r.method, r.codec, r.ratio);
            assert!(r.compress_mb_s > 0.0 && r.decompress_mb_s > 0.0);
            assert!(r.psnr > 20.0, "{}/{} psnr {}", r.method, r.codec, r.psnr);
        }
    }
}
