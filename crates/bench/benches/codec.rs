//! Criterion benchmarks for the scalar-codec backend layer: full TAC
//! dataset compression and decompression under each registered codec,
//! plus raw per-stream codec throughput on a representative level.
//!
//! Quick mode (`TAC_BENCH_QUICK=1`) additionally writes a
//! machine-readable `BENCH_codec.json` (method x codec x dtype ->
//! ratio and end-to-end MB/s) to the workspace root so CI can archive
//! the numbers and catch ratio/throughput regressions per backend.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tac_bench::experiments::codec_comparison::{bench_config, measure_matrix};
use tac_bench::obs_support;
use tac_bench::support::measure;
use tac_bench::{default_scale, load_dataset};
use tac_core::{
    codec_for, compress_dataset_t, decompress_dataset_par_t, CodecConfig, CodecElement, CodecId,
    Method, Parallelism,
};
use tac_obs::export::StageReport;
use tac_obs::Snapshot;

fn setup() -> (tac_amr::AmrDataset, usize) {
    let scale = default_scale();
    let unit = tac_bench::support::default_unit(scale);
    (load_dataset("Run1_Z10", scale, 14), unit)
}

fn bench_dataset_by_codec(c: &mut Criterion) {
    let (ds, unit) = setup();
    let bytes = (ds.total_present() * 8) as u64;

    let mut group = c.benchmark_group("codec_compress");
    group.sample_size(10).throughput(Throughput::Bytes(bytes));
    for codec in CodecId::all() {
        let cfg = bench_config(unit, codec);
        group.bench_function(codec.label(), |b| {
            b.iter(|| compress_dataset_t(black_box(&ds), &cfg, Method::Tac).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("codec_decompress");
    group.sample_size(10).throughput(Throughput::Bytes(bytes));
    for codec in CodecId::all() {
        let cfg = bench_config(unit, codec);
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        group.bench_function(codec.label(), |b| {
            b.iter(|| decompress_dataset_par_t::<f64>(black_box(&cd), Parallelism::Serial).unwrap())
        });
    }
    group.finish();
}

/// The same dataset sweep at `f32` storage, through the monomorphized
/// single-precision pipeline and the dtype-tagged v4 wire.
fn bench_dataset_by_codec_f32(c: &mut Criterion) {
    let (ds, unit) = setup();
    let ds32 = ds.cast::<f32>();
    let bytes = (ds.total_present() * 4) as u64;

    let mut group = c.benchmark_group("codec_compress_f32");
    group.sample_size(10).throughput(Throughput::Bytes(bytes));
    for codec in CodecId::all() {
        let cfg = bench_config(unit, codec);
        group.bench_function(codec.label(), |b| {
            b.iter(|| compress_dataset_t(black_box(&ds32), &cfg, Method::Tac).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("codec_decompress_f32");
    group.sample_size(10).throughput(Throughput::Bytes(bytes));
    for codec in CodecId::all() {
        let cfg = bench_config(unit, codec);
        let cd = compress_dataset_t(&ds32, &cfg, Method::Tac).unwrap();
        group.bench_function(codec.label(), |b| {
            b.iter(|| decompress_dataset_par_t::<f32>(black_box(&cd), Parallelism::Serial).unwrap())
        });
    }
    group.finish();
}

/// Raw per-stream throughput: one whole coarse level as a rank-3 array
/// through each backend, no TAC machinery in the loop.
fn bench_raw_streams(c: &mut Criterion) {
    let (ds, _) = setup();
    let coarse = ds.levels().last().expect("at least one level");
    let n = coarse.dim();
    let data = coarse.data().to_vec();
    let shape = tac_sz::Dims::D3(n, n, n);
    let cfg = CodecConfig::abs(1e-3);

    let mut group = c.benchmark_group("codec_raw_stream");
    group
        .sample_size(10)
        .throughput(Throughput::Bytes((data.len() * 8) as u64));
    for codec in CodecId::all() {
        let backend = codec_for(codec);
        let stream = backend.compress(&data, shape, &cfg).unwrap();
        group.bench_function(format!("compress/{}", codec.label()), |b| {
            b.iter(|| backend.compress(black_box(&data), shape, &cfg).unwrap())
        });
        group.bench_function(format!("decompress/{}", codec.label()), |b| {
            b.iter(|| backend.decompress(black_box(&stream)).unwrap())
        });
    }
    group.finish();
}

/// One instrumented compress+decompress rep per matrix cell, in the
/// exact row order the two `measure_matrix` sweeps emit: one `stages`
/// JSON object per row, plus the merged snapshot for the whole-run
/// `TRACE_codec.json`. `None` unless `--obs` is live.
fn obs_stage_objects(ds: &tac_amr::AmrDataset, unit: usize) -> Option<(Vec<String>, Snapshot)> {
    if !obs_support::obs_active() {
        return None;
    }
    // Drain whatever the criterion warm-up recorded: each cell's report
    // must cover exactly its own rep.
    let _ = obs_support::obs_take();
    let mut objs = Vec::new();
    let mut merged = Snapshot::new();
    obs_sweep(ds, unit, &mut objs, &mut merged);
    obs_sweep(&ds.cast::<f32>(), unit, &mut objs, &mut merged);
    Some((objs, merged))
}

fn obs_sweep<T: CodecElement>(
    ds: &tac_amr::AmrDataset<T>,
    unit: usize,
    objs: &mut Vec<String>,
    merged: &mut Snapshot,
) {
    for method in [
        Method::Tac,
        Method::Baseline1D,
        Method::ZMesh,
        Method::Baseline3D,
    ] {
        for codec in CodecId::all() {
            measure(ds, &bench_config(unit, codec), method, 1e-3);
            let snap = obs_support::obs_take().unwrap_or_default();
            objs.push(StageReport::from_snapshot(&snap).stages_json());
            merged.merge(snap);
        }
    }
}

/// Per-codec raw-stream rows for the quick JSON: one dense coarse
/// level as a rank-3 array straight through each backend, no container
/// machinery — the regime where the entropy stages differ most (the
/// CI perf smoke checks the same comparison independently).
fn raw_stream_json_rows(ds: &tac_amr::AmrDataset) -> Vec<String> {
    let coarse = ds.levels().last().expect("at least one level");
    let n = coarse.dim();
    let data = coarse.data().to_vec();
    let shape = tac_sz::Dims::D3(n, n, n);
    let cfg = CodecConfig::abs(1e-3);
    let bytes = (data.len() * 8) as f64;
    let best = |reps: usize, f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    CodecId::all()
        .iter()
        .map(|&codec| {
            let backend = codec_for(codec);
            let stream = backend.compress(&data, shape, &cfg).unwrap();
            let c = best(3, &mut || {
                black_box(backend.compress(black_box(&data), shape, &cfg).unwrap());
            });
            let d = best(3, &mut || {
                black_box(backend.decompress(black_box(&stream)).unwrap());
            });
            format!(
                "    {{\"codec\": \"{}\", \"dim\": {n}, \"ratio\": {:.3}, \"compress_mb_s\": {:.3}, \"decompress_mb_s\": {:.3}}}",
                codec.label(),
                bytes / stream.len().max(1) as f64,
                bytes / 1e6 / c,
                bytes / 1e6 / d,
            )
        })
        .collect()
}

/// Quick mode drops `BENCH_codec.json` next to `BENCH_par.json`: the
/// method x codec matrix with ratio and throughput per cell, under a
/// run-metadata header, plus a `raw_stream` section (per-codec dense
/// single-stream throughput). With `--obs` each row also carries a
/// `stages` object (per-stage wall fractions) and the run's chrome
/// trace lands in `TRACE_codec.json`.
fn emit_quick_json() {
    if std::env::var("TAC_BENCH_QUICK").is_err() {
        return;
    }
    let (ds, unit) = setup();
    let mut rows = measure_matrix(&ds, unit, 2);
    rows.extend(measure_matrix(&ds.cast::<f32>(), unit, 2));
    let stages = obs_stage_objects(&ds, unit);
    let cells: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let stage_field = match &stages {
                Some((objs, _)) => objs
                    .get(i)
                    .map(|o| format!(", \"stages\": {o}"))
                    .unwrap_or_default(),
                None => String::new(),
            };
            format!(
                "    {{\"method\": \"{}\", \"codec\": \"{}\", \"dtype\": \"{}\", \"ratio\": {:.3}, \"compress_mb_s\": {:.3}, \"decompress_mb_s\": {:.3}, \"psnr_db\": {:.2}{}}}",
                r.method, r.codec, r.dtype, r.ratio, r.compress_mb_s, r.decompress_mb_s, r.psnr, stage_field
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"meta\": {},\n  \"dataset\": \"Run1_Z10\",\n  \"finest_dim\": {},\n  \"rel_eb\": 1e-3,\n  \"rows\": [\n{}\n  ],\n  \"raw_stream\": [\n{}\n  ]\n}}\n",
        obs_support::meta_json(14, 1),
        ds.finest_dim(),
        cells.join(",\n"),
        raw_stream_json_rows(&ds).join(",\n")
    );
    // Anchor at the workspace root regardless of the bench's cwd.
    let path = obs_support::workspace_path("BENCH_codec.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if let Some((_, merged)) = stages {
        eprintln!("{}", obs_support::write_trace_and_report("codec", &merged));
    }
}

fn bench_all(c: &mut Criterion) {
    obs_support::obs_install();
    bench_dataset_by_codec(c);
    bench_dataset_by_codec_f32(c);
    bench_raw_streams(c);
    emit_quick_json();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
