//! Ad-hoc decode profiler for the 1D-method container row: separates
//! the scalar-codec kernel time from the container/scatter overhead so
//! PcoAns decode tuning chases the right term.
//!
//! Run with `cargo run --release -p tac-bench --example profile_ans`.

use std::time::Instant;
use tac_bench::support::{default_unit, load_dataset};
use tac_bench::{default_scale, experiments::codec_comparison::bench_config};
use tac_core::{
    codec_for, compress_dataset_t, decompress_dataset_par_t, CodecId, Method, MethodBody,
    Parallelism,
};

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let scale = default_scale();
    let unit = default_unit(scale);
    let ds = load_dataset("Run1_Z10", scale, 14);
    let bytes = ds.total_present() * 8;
    println!(
        "dataset Run1_Z10 scale {scale}: finest {}^3, {} present cells ({:.2} MB)",
        ds.finest_dim(),
        ds.total_present(),
        bytes as f64 / 1e6
    );

    for codec in CodecId::all() {
        let cfg = bench_config(unit, codec);
        let cd = compress_dataset_t(&ds, &cfg, Method::Baseline1D).expect("compress");
        let wall = best_secs(9, || {
            decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).expect("decompress");
        });
        // Codec-only: decode each segment's stream, no mask scatter.
        let backend = codec_for::<f64>(codec);
        let streams: Vec<&[u8]> = match &cd.body {
            MethodBody::Baseline1D(levels) => levels
                .iter()
                .flatten()
                .flat_map(|(_, _, segments)| segments)
                .map(|s| s.stream.as_slice())
                .collect(),
            _ => unreachable!(),
        };
        let kernel = best_secs(9, || {
            for s in &streams {
                backend.decompress(s).expect("stream decode");
            }
        });
        println!(
            "{:<9} 1D decompress {:7.1} MB/s ({:.3} ms) | codec-only {:7.1} MB/s ({:.3} ms) | overhead {:.3} ms",
            codec.label(),
            bytes as f64 / 1e6 / wall,
            wall * 1e3,
            bytes as f64 / 1e6 / kernel,
            kernel * 1e3,
            (wall - kernel) * 1e3,
        );
    }
}
