//! Criterion benchmarks for the block-sharded parallel engine: full
//! TAC dataset compression serial vs N worker threads (the fig14-scale
//! Run1_Z10 snapshot), parallel decompression, and ROI decode vs full
//! decode through the v2 chunk table.
//!
//! Quick mode (`TAC_BENCH_QUICK=1`) additionally writes a
//! machine-readable `BENCH_par.json` (threads -> end-to-end throughput
//! in MB/s) to the current directory so CI can archive the numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tac_amr::Aabb;
use tac_bench::experiments::par_speedup::{bench_config, measure_sweep, THREAD_SWEEP};
use tac_bench::obs_support;
use tac_bench::{default_scale, load_dataset};
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CompressedDataset, Method,
    TacConfig,
};

fn fig14_scale_setup() -> (tac_amr::AmrDataset, TacConfig) {
    let scale = default_scale();
    let unit = tac_bench::support::default_unit(scale);
    let ds = load_dataset("Run1_Z10", scale, 14);
    let cfg = bench_config(unit, ds.finest_dim(), 1);
    (ds, cfg)
}

fn bench_parallel_compress(c: &mut Criterion) {
    let (ds, base_cfg) = fig14_scale_setup();
    let bytes = (ds.total_present() * 8) as u64;

    let mut group = c.benchmark_group("par_compress");
    group.sample_size(10).throughput(Throughput::Bytes(bytes));
    for &threads in THREAD_SWEEP {
        let cfg = TacConfig {
            parallelism: tac_core::Parallelism::Threads(threads),
            ..base_cfg.clone()
        };
        group.bench_function(format!("threads/{threads}"), |b| {
            b.iter(|| compress_dataset_t(black_box(&ds), &cfg, Method::Tac).unwrap())
        });
    }
    group.finish();

    let cd = compress_dataset_t(&ds, &base_cfg, Method::Tac).unwrap();
    let mut group = c.benchmark_group("par_decompress");
    group.sample_size(10).throughput(Throughput::Bytes(bytes));
    for &threads in THREAD_SWEEP {
        let par = tac_core::Parallelism::Threads(threads);
        group.bench_function(format!("threads/{threads}"), |b| {
            b.iter(|| decompress_dataset_par_t::<f64>(black_box(&cd), par).unwrap())
        });
    }
    group.finish();
}

fn bench_roi_decode(c: &mut Criterion) {
    let (ds, cfg) = fig14_scale_setup();
    let container = compress_dataset_t(&ds, &cfg, Method::Tac)
        .unwrap()
        .to_bytes();
    let half = ds.finest_dim() / 2;
    let roi = Aabb::new((0, 0, 0), (half, half, half));

    let mut group = c.benchmark_group("roi_decode");
    group.sample_size(10);
    group.bench_function("full", |b| {
        b.iter(|| {
            let cd = CompressedDataset::from_bytes(black_box(&container)).unwrap();
            decompress_dataset_par_t::<f64>(&cd, tac_core::Parallelism::Serial).unwrap()
        })
    });
    group.bench_function("corner_eighth", |b| {
        b.iter(|| decompress_region_t::<f64>(black_box(&container), roi).unwrap())
    });
    group.finish();
}

/// Quick mode drops a `BENCH_par.json` next to the bench run: a small
/// `{threads: [...], throughput_mb_s: [...], bit_identical: bool}`
/// object CI archives to catch throughput/bit-identity regressions.
fn emit_quick_json() {
    if std::env::var("TAC_BENCH_QUICK").is_err() {
        return;
    }
    let (ds, cfg) = fig14_scale_setup();
    let (rows, identical) = measure_sweep(&ds, &cfg, Method::Tac, 2);
    let threads: Vec<String> = rows.iter().map(|r| r.threads.to_string()).collect();
    let tp: Vec<String> = rows
        .iter()
        .map(|r| format!("{:.3}", r.throughput_mb_s))
        .collect();
    let max_threads = THREAD_SWEEP.iter().copied().max().unwrap_or(1);
    let json = format!(
        "{{\n  \"meta\": {},\n  \"dataset\": \"Run1_Z10\",\n  \"finest_dim\": {},\n  \"threads\": [{}],\n  \"throughput_mb_s\": [{}],\n  \"bit_identical\": {}\n}}\n",
        obs_support::meta_json(14, max_threads),
        ds.finest_dim(),
        threads.join(", "),
        tp.join(", "),
        identical
    );
    // Anchor at the workspace root regardless of the bench's cwd.
    let path = obs_support::workspace_path("BENCH_par.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    // With --obs, profile one compress+decompress at the sweep's widest
    // thread count: per-worker task timelines land in TRACE_par.json.
    if obs_support::obs_active() {
        let _ = obs_support::obs_take();
        let cfg_wide = tac_core::TacConfig {
            parallelism: tac_core::Parallelism::Threads(max_threads),
            ..cfg
        };
        let cd = compress_dataset_t(&ds, &cfg_wide, Method::Tac).unwrap();
        decompress_dataset_par_t::<f64>(&cd, cfg_wide.parallelism).unwrap();
        if let Some(snap) = obs_support::obs_take() {
            eprintln!("{}", obs_support::write_trace_and_report("par", &snap));
        }
    }
}

fn bench_all(c: &mut Criterion) {
    obs_support::obs_install();
    bench_parallel_compress(c);
    bench_roi_decode(c);
    emit_quick_json();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
