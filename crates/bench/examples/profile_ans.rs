//! Ad-hoc profiler for the 1D-method container row, both directions:
//! separates the scalar-codec kernel time from the container overhead
//! (gather and mask packing on compress, scatter on decompress) so
//! PcoAns tuning chases the right term.
//!
//! Run with `cargo run --release -p tac-bench --example profile_ans`.

use std::time::Instant;
use tac_bench::support::{default_unit, load_dataset};
use tac_bench::{default_scale, experiments::codec_comparison::bench_config};
use tac_core::{
    codec_for, compress_dataset_t, decompress_dataset_par_t, CodecConfig, CodecId, Method,
    MethodBody, Parallelism,
};
use tac_sz::Dims;

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
        let compress_wall = best_secs(9, || {
            compress_dataset_t(&ds, &cfg, Method::Baseline1D).expect("compress");
        });
        let wall = best_secs(9, || {
            decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).expect("decompress");
        });
        // Codec-only: decode each segment's stream, no mask scatter.
        let backend = codec_for::<f64>(codec);
        let MethodBody::Baseline1D(levels) = &cd.body else {
            unreachable!()
        };
        let streams: Vec<&[u8]> = levels
            .iter()
            .flatten()
            .flat_map(|(_, _, segments)| segments)
            .map(|s| s.stream.as_slice())
            .collect();
        let kernel = best_secs(9, || {
            for s in &streams {
                backend.decompress(s).expect("stream decode");
            }
        });
        // Codec-only encode: each level's present values as one stream
        // at the bound the container resolved for it — no gather, no
        // segment cuts, no mask packing.
        let inputs: Vec<(f64, Vec<f64>)> = levels
            .iter()
            .zip(ds.levels())
            .filter_map(|(cl, level)| Some((cl.as_ref()?.0, level.present_values())))
            .collect();
        let compress_kernel = best_secs(9, || {
            for (abs_eb, values) in &inputs {
                backend
                    .compress(values, Dims::D1(values.len()), &CodecConfig::abs(*abs_eb))
                    .expect("stream encode");
            }
        });
        for (what, wall, kernel) in [
            ("compress", compress_wall, compress_kernel),
            ("decompress", wall, kernel),
        ] {
            println!(
                "{:<9} 1D {what:<10} {:7.1} MB/s ({:.3} ms) | codec-only {:7.1} MB/s ({:.3} ms) | overhead {:.3} ms",
                codec.label(),
                bytes as f64 / 1e6 / wall,
                wall * 1e3,
                bytes as f64 / 1e6 / kernel,
                kernel * 1e3,
                (wall - kernel) * 1e3,
            );
        }
    }

    // Encoder cost against stream length: the finest populated level cut
    // into independent streams of a page, of a pipeline segment, and
    // left whole. A page-streaming encoder reads the same at all three.
    let level = ds
        .levels()
        .iter()
        .find(|l| l.num_present() > 0)
        .expect("a populated level");
    let values = level.present_values();
    let (lo, hi) = level.value_range().expect("a populated level");
    let cfg = CodecConfig::abs(1e-3 * (hi - lo));
    let backend = codec_for::<f64>(CodecId::PcoAns);
    for (name, cut) in [("4 Ki", 4096), ("64 Ki", 65536), ("whole", values.len())] {
        let secs = best_secs(9, || {
            for stream in values.chunks(cut) {
                backend
                    .compress(stream, Dims::D1(stream.len()), &cfg)
                    .expect("stream encode");
            }
        });
        println!(
            "pco-ans   encode, {name:>5} streams over {} values: {:5.2} ns/value",
            values.len(),
            secs * 1e9 / values.len() as f64
        );
    }
}
