//! CI perf smoke for the codec layer: measures pco-ans against
//! pco-lite decode throughput and fails the build when the ANS path
//! regresses.
//!
//! Two regimes:
//!
//! 1. **Raw dense stream** — one whole coarse level as a rank-3 array
//!    straight through each backend. This is the regime the PcoAns
//!    batch kernels target and where the win is decisive (LZSS decode
//!    is per-symbol-branchy on dense data); pco-ans decode must be at
//!    least as fast as pco-lite, full stop. The same stream gates the
//!    write side: pco-ans must encode at no less than [`ENCODE_FLOOR`]
//!    of its own decode throughput.
//! 2. **1D/f64 container row** — the `BENCH_codec.json` row the issue
//!    tracks, measured the same way (serial end-to-end container
//!    decode). On ultra-smooth 1D-gathered data LZSS approaches memcpy
//!    speed (long overlapping matches), so pco-ans is only expected to
//!    hold [`ROW_FLOOR`] of pco-lite's decode throughput — a reading
//!    that sits on the floor and flips between runs on a 2-core host, so
//!    it is printed as a `WARN` row and fails nothing — and it must keep
//!    its compression-ratio advantage (within 10% of pco-lite or
//!    better), which is deterministic and gates.
//!
//! A third family of gates covers the adaptive selection
//! (`Method::Auto`, the TAC+ pass): on every registered testkit
//! scenario, Auto's serialized container must reach at least
//! [`AUTO_FLOOR`] of the best fixed `(method, codec)` pair's bytes at
//! the same error bound. The per-scenario winners and margins are
//! written to `SELECTION_auto.json`, archived by CI next to
//! `BENCH_codec.json`.
//!
//! Exits non-zero with a one-line verdict per gate. Scale follows
//! `TAC_BENCH_SCALE` (default 8, the quick-mode bench scale).

use std::time::Instant;
use tac_bench::default_scale;
use tac_bench::experiments::codec_comparison::bench_config;
use tac_bench::support::{default_unit, load_dataset, measure};
use tac_core::{codec_for, select_auto, CodecConfig, CodecId, Method, TacConfig};

/// Expected pco-ans / pco-lite decode-throughput ratio on the 1D/f64
/// container row: a fallback to the pre-ANS numbers sits near 0.45, a
/// healthy build reads 0.65–0.85 depending on the host. Advisory only —
/// two timed quotients of ~10 ms passes do not separate those on a
/// shared 2-core runner (the row failed 4–7 of 9 runs at any commit).
const ROW_FLOOR: f64 = 0.70;

/// Minimum pco-ans encode / decode throughput ratio on the raw dense
/// stream — both timed in this process on the same values, so the
/// host's speed cancels. The page-streaming encoder measures 0.45-0.47
/// at scale 8; the whole-stream encoder it replaced (a libm `round` and
/// a divide per value, 16 B/value of intermediates) sat at 0.17-0.26,
/// so the floor separates the two with margin on both sides.
const ENCODE_FLOOR: f64 = 0.35;

/// Minimum pco-ans / pco-lite compression-ratio quotient on the same
/// row ("within 10%"). Measured headroom is ~1.24.
const RATIO_FLOOR: f64 = 0.90;

/// Minimum best-fixed / Auto serialized-bytes quotient per scenario
/// (equal error bound, so byte dominance is ratio dominance). The
/// testkit scenarios sit in the exhaustive regime, where selection
/// scores exact bytes, so the margin is structural, not statistical.
const AUTO_FLOOR: f64 = 0.95;

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Raw-stream `(encode, decode)` throughput (MB/s) of `codec` on the
/// dense coarse level.
fn raw_stream(ds: &tac_amr::AmrDataset, codec: CodecId) -> (f64, f64) {
    let coarse = ds.levels().last().expect("at least one level");
    let n = coarse.dim();
    let data = coarse.data().to_vec();
    let backend = codec_for(codec);
    let dims = tac_sz::Dims::D3(n, n, n);
    let cfg = CodecConfig::abs(1e-3);
    let stream = backend.compress(&data, dims, &cfg).expect("compress");
    // Decode first: it is the number both gates share, and timing it
    // before the encode loop keeps it clear of the allocator state nine
    // encodes leave behind.
    let decode = best_secs(9, || {
        backend.decompress(&stream).expect("decompress");
    });
    let encode = best_secs(9, || {
        backend.compress(&data, dims, &cfg).expect("compress");
    });
    let mb = (data.len() * 8) as f64 / 1e6;
    (mb / encode, mb / decode)
}

/// 1D/f64 container-row measurement: (decode MB/s, compression ratio).
fn container_row(ds: &tac_amr::AmrDataset, unit: usize, codec: CodecId) -> (f64, f64) {
    let cfg = bench_config(unit, codec);
    let bytes = ds.total_present() * 8;
    let mut best_decode = 0.0f64;
    let mut ratio = 0.0f64;
    for _ in 0..3 {
        let m = measure(ds, &cfg, Method::Baseline1D, 1e-3);
        best_decode = best_decode.max(m.decompress_mb_s(bytes));
        ratio = m.ratio;
    }
    (best_decode, ratio)
}

fn main() {
    let scale = default_scale();
    let unit = default_unit(scale);
    let ds = load_dataset("Run1_Z10", scale, 14);
    // One verdict row; `miss` is what a reading under the floor is called.
    let row = |miss: &str, name: &str, value: f64, floor: f64| {
        let ok = value >= floor;
        println!(
            "{} {name}: {value:.3} (floor {floor:.3})",
            if ok { "PASS" } else { miss }
        );
        ok
    };
    let mut failed = false;
    let mut gate = |name: &str, value: f64, floor: f64| {
        failed |= !row("FAIL", name, value, floor);
    };

    let (enc_ans, raw_ans) = raw_stream(&ds, CodecId::PcoAns);
    let (_, raw_lite) = raw_stream(&ds, CodecId::PcoLite);
    println!(
        "raw dense stream: pco-ans encode {enc_ans:.1} MB/s, decode {raw_ans:.1} MB/s; \
         pco-lite decode {raw_lite:.1} MB/s"
    );
    gate(
        "raw-stream pco-ans/pco-lite decode",
        raw_ans / raw_lite,
        1.0,
    );
    gate(
        "raw-stream pco-ans encode/decode",
        enc_ans / raw_ans,
        ENCODE_FLOOR,
    );

    let (row_ans, ratio_ans) = container_row(&ds, unit, CodecId::PcoAns);
    let (row_lite, ratio_lite) = container_row(&ds, unit, CodecId::PcoLite);
    println!(
        "1D/f64 container decode: pco-ans {row_ans:.1} MB/s (ratio {ratio_ans:.2}), \
         pco-lite {row_lite:.1} MB/s (ratio {ratio_lite:.2})"
    );
    // Advisory: printed, never failed on (see `ROW_FLOOR`).
    row(
        "WARN",
        "1D/f64 pco-ans/pco-lite decode",
        row_ans / row_lite,
        ROW_FLOOR,
    );
    gate(
        "1D/f64 pco-ans/pco-lite ratio",
        ratio_ans / ratio_lite,
        RATIO_FLOOR,
    );

    // Adaptive-selection gates (`auto_vs_fixed` rows), one per testkit
    // scenario, plus the archived selection report.
    let mut rows = String::new();
    for spec in tac_testkit::scenarios() {
        let sds = spec.build(7);
        let cfg = spec.config();
        let sel = select_auto(&sds, &cfg).expect("selection");
        let auto_bytes = tac_core::compress_dataset_t(&sds, &cfg, Method::Auto)
            .expect("auto compress")
            .to_bytes()
            .len();
        let mut best: Option<(usize, Method, CodecId)> = None;
        for method in Method::fixed() {
            for codec in CodecId::all() {
                let fixed_cfg = TacConfig {
                    codec,
                    ..cfg.clone()
                };
                let Ok(cd) = tac_core::compress_dataset_t(&sds, &fixed_cfg, method) else {
                    continue; // pairs the fixed pipeline rejects cannot be "best"
                };
                let bytes = cd.to_bytes().len();
                if best.map_or(true, |(b, ..)| bytes < b) {
                    best = Some((bytes, method, codec));
                }
            }
        }
        let (best_bytes, best_method, best_codec) = best.expect("no fixed pair compresses");
        let quotient = best_bytes as f64 / auto_bytes as f64;
        gate(
            &format!("auto_vs_fixed {}", spec.name),
            quotient,
            AUTO_FLOOR,
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"winner_method\": \"{}\", \"winner_codec\": \"{}\", \
             \"exhaustive\": {}, \"candidates\": {}, \"auto_bytes\": {}, \
             \"best_fixed_method\": \"{}\", \"best_fixed_codec\": \"{}\", \
             \"best_fixed_bytes\": {}, \"quotient\": {:.4}}}",
            spec.name,
            sel.method.label(),
            sel.codec.label(),
            sel.exhaustive,
            sel.candidates.len(),
            auto_bytes,
            best_method.label(),
            best_codec.label(),
            best_bytes,
            quotient,
        ));
    }
    let report = format!(
        "{{\n  \"report\": \"auto_vs_fixed\",\n  \"floor\": {AUTO_FLOOR},\n  \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write("SELECTION_auto.json", report).expect("write SELECTION_auto.json");
    println!("wrote SELECTION_auto.json");

    if failed {
        eprintln!("perf smoke failed: a codec or selection gate broke its floor");
        std::process::exit(1);
    }
    println!("perf smoke clean at scale {scale}");
}
