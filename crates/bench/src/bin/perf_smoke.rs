//! CI perf smoke for the pco-ans encoder.
//!
//! One whole coarse level as a rank-3 array goes straight through
//! pco-ans, the regime its batch kernels target. The write side is
//! gated against the read side: pco-ans must encode at no less than
//! [`ENCODE_FLOOR`] of its own decode throughput on the same values,
//! so the host's speed cancels.
//!
//! Exits non-zero on a broken floor, after a one-line verdict. Scale
//! follows `TAC_BENCH_SCALE` (default 8, the quick-mode bench scale).

use std::time::Instant;
use tac_bench::default_scale;
use tac_bench::support::load_dataset;
use tac_core::{codec_for, CodecConfig, CodecId};

/// Minimum pco-ans encode / decode throughput ratio on the raw dense
/// stream — both timed in this process on the same values, so the
/// host's speed cancels. The page-streaming encoder measures 0.45-0.47
/// at scale 8; the whole-stream encoder it replaced (a libm `round` and
/// a divide per value, 16 B/value of intermediates) sat at 0.17-0.26,
/// so the floor separates the two with margin on both sides.
const ENCODE_FLOOR: f64 = 0.35;

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Raw-stream `(encode, decode)` throughput (MB/s) of pco-ans on the
/// dense coarse level.
fn raw_stream(ds: &tac_amr::AmrDataset) -> (f64, f64) {
    let coarse = ds.levels().last().expect("at least one level");
    let n = coarse.dim();
    let data = coarse.data().to_vec();
    let backend = codec_for(CodecId::PcoAns);
    let dims = tac_codec::Dims::D3(n, n, n);
    let cfg = CodecConfig::abs(1e-3);
    let stream = backend.compress(&data, None, dims, &cfg).expect("compress");
    // Decode first: timing it before the encode loop keeps it clear of
    // the allocator state nine encodes leave behind.
    let decode = best_secs(9, || {
        backend.decompress(&stream).expect("decompress");
    });
    let encode = best_secs(9, || {
        backend.compress(&data, None, dims, &cfg).expect("compress");
    });
    let mb = (data.len() * 8) as f64 / 1e6;
    (mb / encode, mb / decode)
}

fn main() {
    let scale = default_scale();
    let ds = load_dataset("Run1_Z10", scale, 14);
    let (encode, decode) = raw_stream(&ds);
    println!("raw dense stream: pco-ans encode {encode:.1} MB/s, decode {decode:.1} MB/s");
    let ratio = encode / decode;
    let ok = ratio >= ENCODE_FLOOR;
    println!(
        "{} raw-stream pco-ans encode/decode: {ratio:.3} (floor {ENCODE_FLOOR:.3})",
        if ok { "PASS" } else { "FAIL" }
    );
    if !ok {
        eprintln!("perf smoke failed: pco-ans encode broke its floor against its own decode");
        std::process::exit(1);
    }
    println!("perf smoke clean at scale {scale}");
}
