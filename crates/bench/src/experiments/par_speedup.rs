//! Parallel compression speedup and ROI decode latency — beyond the
//! paper's own evaluation, following its successors: TAC+ (TPDS'23)
//! motivates pre-planned parallel partitions, AMRIC (SC'23) chunked
//! seekable output for in-situ I/O.
//!
//! Three tables:
//! 1. end-to-end TAC compress/decompress wall time and throughput at
//!    1/2/4/8 worker threads (same dataset and bounds as Fig. 14's
//!    Run1_Z10 panel), with a bit-identity check across thread counts;
//! 2. the same sweep for zMesh over pco-ans on the Run1_Z5 velocity
//!    field (the `z5_auto` benchmark input at `TAC_BENCH_SCALE=2`, where
//!    `Method::Auto` picks exactly this pair): one task per z-slab
//!    segment of the traversal;
//! 3. full decode vs region-of-interest decode of a 1/8-volume corner
//!    through the v2 chunk table, with payload-byte accounting, both on
//!    the default parallelism a region read runs on.
//!
//! Expected shapes: near-linear compression speedup while physical
//! cores last (the per-group tasks dominate and the scheduler keeps
//! workers busy); ROI decode reads a fraction of the payload bytes and
//! finishes proportionally faster. On a single-core host both collapse
//! to ~1x — the table says what the hardware allowed.

use crate::support::{default_scale, default_unit, load_dataset, quick_mode};
use tac_amr::Aabb;
use tac_core::ErrorBound;
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CodecId, CompressedDataset,
    Method, Parallelism, TacConfig,
};
use tac_nyx::FieldKind;

/// Thread counts the speedup table sweeps.
pub const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// One row of the speedup table.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupRow {
    /// Worker threads used.
    pub threads: usize,
    /// Compression wall time (seconds, best of reps).
    pub compress_s: f64,
    /// Decompression wall time (seconds, best of reps).
    pub decompress_s: f64,
    /// End-to-end throughput in MB/s over present-cell bytes.
    pub throughput_mb_s: f64,
}

/// The configuration every row of the table runs under.
pub fn bench_config(unit: usize, fine_dim: usize, threads: usize) -> TacConfig {
    TacConfig {
        unit,
        error_bound: ErrorBound::Rel(1e-3),
        parallelism: Parallelism::Threads(threads),
        roi_tile: Some((fine_dim / 2).max(unit)),
        ..Default::default()
    }
}

/// Measures the thread sweep of `method` on a dataset under `base`
/// (its `parallelism` is replaced per row), returning one row per
/// thread count plus whether every thread count produced identical
/// container bytes.
pub fn measure_sweep(
    ds: &tac_amr::AmrDataset,
    base: &TacConfig,
    method: Method,
    reps: usize,
) -> (Vec<SpeedupRow>, bool) {
    let original_bytes = ds.total_present() * 8;
    let mut rows = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    let mut identical = true;
    for &threads in THREAD_SWEEP {
        let cfg = TacConfig {
            parallelism: Parallelism::Threads(threads),
            ..base.clone()
        };
        let mut best_c = f64::INFINITY;
        let mut best_d = f64::INFINITY;
        let mut bytes = Vec::new();
        for _ in 0..reps.max(1) {
            let t0 = std::time::Instant::now();
            let cd = compress_dataset_t(ds, &cfg, method).expect("compress");
            best_c = best_c.min(t0.elapsed().as_secs_f64());
            let t1 = std::time::Instant::now();
            decompress_dataset_par_t::<f64>(&cd, cfg.parallelism).expect("decompress");
            best_d = best_d.min(t1.elapsed().as_secs_f64());
            bytes = cd.to_bytes();
        }
        match &reference {
            None => reference = Some(bytes),
            Some(r) => identical &= *r == bytes,
        }
        rows.push(SpeedupRow {
            threads,
            compress_s: best_c,
            decompress_s: best_d,
            throughput_mb_s: original_bytes as f64 / 1e6 / (best_c + best_d),
        });
    }
    (rows, identical)
}

/// Runs the speedup + ROI report.
pub fn report() -> String {
    let scale = default_scale();
    let unit = default_unit(scale);
    let reps = if quick_mode() { 1 } else { 3 };
    let ds = load_dataset("Run1_Z10", scale, 14);

    let mut out = String::new();
    let mut sweep =
        |title: &str, name: &str, ds: &tac_amr::AmrDataset, cfg: &TacConfig, method: Method| {
            out.push_str(&format!(
                "{title} compress/decompress at 1/2/4/8 worker threads\n"
            ));
            out.push_str(&format!(
                "  dataset {name}, finest {}^3, {} present cells, hardware threads: {}\n",
                ds.finest_dim(),
                ds.total_present(),
                std::thread::available_parallelism().map_or(1, |p| p.get()),
            ));
            out.push_str(&format!(
                "  {:<8} {:>12} {:>12} {:>12} {:>10}\n",
                "threads", "compress s", "decomp s", "MB/s", "speedup"
            ));
            let (rows, identical) = measure_sweep(ds, cfg, method, reps);
            let serial = rows[0].compress_s + rows[0].decompress_s;
            for r in &rows {
                out.push_str(&format!(
                    "  {:<8} {:>12.4} {:>12.4} {:>12.2} {:>9.2}x\n",
                    r.threads,
                    r.compress_s,
                    r.decompress_s,
                    r.throughput_mb_s,
                    serial / (r.compress_s + r.decompress_s)
                ));
            }
            out.push_str(&format!(
                "  container bytes identical across thread counts: {}\n\n",
                if identical { "yes" } else { "NO (bug!)" }
            ));
        };
    sweep(
        "Parallel engine: TAC",
        "Run1_Z10",
        &ds,
        &bench_config(unit, ds.finest_dim(), 1),
        Method::Tac,
    );
    // The single-stream side of the engine: one task per z-slab segment.
    let z5 =
        tac_nyx::entry("Run1_Z5")
            .expect("catalog entry")
            .generate(FieldKind::VelocityX, scale, 14);
    let zmesh_cfg = TacConfig {
        codec: CodecId::PcoAns,
        ..bench_config(unit, z5.finest_dim(), 1)
    };
    sweep(
        "Segmented engine: zMesh / pco-ans",
        "Run1_Z5 velocity_x",
        &z5,
        &zmesh_cfg,
        Method::ZMesh,
    );

    // ROI decode: a 1/8-volume corner against the full decode, both on
    // the workers a region read runs on (the default parallelism).
    let cfg = bench_config(unit, ds.finest_dim(), 1);
    let cd = compress_dataset_t(&ds, &cfg, Method::Tac).expect("compress");
    let bytes = cd.to_bytes();
    let half = ds.finest_dim() / 2;
    let roi = Aabb::new((0, 0, 0), (half, half, half));
    let read_on = Parallelism::default();

    let t0 = std::time::Instant::now();
    let parsed = CompressedDataset::from_bytes(&bytes).expect("parse");
    decompress_dataset_par_t::<f64>(&parsed, read_on).expect("full decode");
    let full_s = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let (_, stats) = decompress_region_t::<f64>(&bytes, roi).expect("roi decode");
    let roi_s = t1.elapsed().as_secs_f64();

    out.push_str(&format!(
        "ROI decode (v2 chunk table), 1/8-volume corner, both decodes on {} workers:\n",
        read_on.workers()
    ));
    out.push_str(&format!(
        "  full decode {:.4}s reading {} payload bytes; ROI decode {:.4}s reading {} ({:.0}% skipped, {}/{} chunks)\n",
        full_s,
        stats.payload_bytes_total,
        roi_s,
        stats.payload_bytes_read,
        stats.skipped_fraction() * 100.0,
        stats.chunks_read,
        stats.chunks_total,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_bit_identical_and_positive() {
        crate::support::set_bench_overrides(32, true);
        let ds = load_dataset("Run1_Z10", 32, 3);
        let (rows, identical) = measure_sweep(&ds, &bench_config(2, 32, 1), Method::Tac, 1);
        assert!(identical, "thread count changed container bytes");
        assert_eq!(rows.len(), THREAD_SWEEP.len());
        for r in rows {
            assert!(r.compress_s > 0.0 && r.throughput_mb_s > 0.0);
        }
    }
}
