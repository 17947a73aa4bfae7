//! The traced pass: one layer at a time, through the same public
//! functions a caller of the library would use, each call in a span.
//!
//! Every call runs [`REPS`] times and the fastest is kept. A metric
//! whose layer the workload never enters reads 0.

use crate::host::peak_rss_growth;
use crate::measure::{check_bound, check_roi, expected_bounds, Tally};
use crate::trace::Tracer;
use crate::workloads::{present_bytes, roi_box, Workload};
use std::error::Error;
use std::hint::black_box;
use tac_amr::{AmrDataset, AmrLevel, BitMask, BlockGrid};
use tac_codec::{codec_for, CodecConfig, CodecElement, Dims};
use tac_core::{
    choose_strategy, compress_dataset_t, compress_level_t, decompress_dataset_par_t,
    decompress_level_t, decompress_region_t, gather, pad_ghost_shell, plan_akdtree, plan_opst,
    resolve_level_eb_for, select_auto, zmesh_order, CompressedDataset, Method, MethodBody,
    Parallelism, Strategy, TacConfig, TacError,
};

/// Times each call is repeated; the fastest is reported.
const REPS: usize = 3;
/// Times the whole dataset path is repeated with tracing on and with
/// it off; more than [`REPS`] because `trace.overhead_share` is the
/// small difference of the two.
const PATH_REPS: usize = 5;
/// No-op tasks handed to `tac_par::execute` for `par.task_overhead_us`.
const NOOP_TASKS: usize = 256;

pub struct Layers {
    /// `(metric name, value)` for every name in `metrics::PER_LAYER`.
    pub values: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Bytes `host.memcpy_mb_s` copied (the finest level's buffer).
    pub memcpy_bytes: usize,
}

/// The tracer plus a count of the library calls made through it.
struct Pass<'a> {
    tracer: &'a mut Tracer,
    calls: u64,
}

impl Pass<'_> {
    /// One spanned call: its output and its seconds.
    fn once<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.calls += 1;
        let open = self.tracer.begin(name);
        let out = black_box(f());
        (out, self.tracer.end(open))
    }

    /// [`REPS`] spanned calls: the last output and the fastest seconds.
    fn best<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> (R, f64) {
        let (mut out, mut best) = self.once(name, &mut f);
        for _ in 1..REPS {
            let (next, seconds) = self.once(name, &mut f);
            out = next;
            best = best.min(seconds);
        }
        (out, best)
    }

    /// [`Pass::best`] for a call that can fail.
    fn try_best<R>(
        &mut self,
        name: &str,
        f: impl FnMut() -> Result<R, TacError>,
    ) -> Result<(R, f64), TacError> {
        let (out, best) = self.best(name, f);
        Ok((out?, best))
    }
}

/// `a / b`, or 0 where the layer behind `b` was not entered.
fn over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the traced pass of `w` on `ds`. `generate_s` is what generating
/// `ds` took. A library error or a wrong output fails the pass.
pub fn traced<T: CodecElement>(
    w: &Workload,
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    generate_s: f64,
    tracer: &mut Tracer,
) -> Layers {
    tracer.set_workload(w.name);
    let root = tracer.begin(w.name);
    let mut pass = Pass { tracer, calls: 0 };
    let outcome = layers(&mut pass, w, ds, cfg, generate_s);
    let attempted = pass.calls.max(1);
    pass.tracer.enabled = true;
    pass.tracer.end(root);
    let memcpy_bytes = std::mem::size_of_val(ds.finest().data());
    match outcome {
        Ok(values) => Layers {
            values,
            tally: Tally {
                attempted,
                failed: 0,
            },
            memcpy_bytes,
        },
        Err(why) => {
            println!("FAILED {} traced pass: {why}", w.name);
            Layers {
                values: Vec::new(),
                tally: Tally {
                    attempted,
                    failed: 1,
                },
                memcpy_bytes,
            }
        }
    }
}

fn layers<T: CodecElement>(
    pass: &mut Pass<'_>,
    w: &Workload,
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    generate_s: f64,
) -> Result<Vec<(&'static str, f64)>, Box<dyn Error>> {
    let fine = ds.finest_dim();
    let region = roi_box(fine);
    let input_bytes = present_bytes(ds) as f64;
    let total_values = ds.total_present() as f64;

    // host: the normaliser. A same-buffer copy rate, not sustainable
    // bandwidth (the buffer may fit the last-level cache).
    let finest = ds.finest().data();
    let mut copy = vec![T::ZERO; finest.len()];
    let ((), memcpy_s) = pass.best("host.memcpy", || copy.copy_from_slice(black_box(finest)));
    drop(copy);
    let memcpy_mb_s = std::mem::size_of_val(finest) as f64 / memcpy_s / 1e6;

    // amr
    let unit_of = |dim: usize| cfg.unit.min(dim);
    let (grids, blockgrid_s) = pass.best("amr.blockgrid_build", || {
        let build = |l: &AmrLevel<T>| BlockGrid::build(l, unit_of(l.dim()));
        ds.levels().iter().map(build).collect::<Vec<_>>()
    });
    let cells: usize = ds.levels().iter().map(|l| l.num_cells()).sum();
    let (masks_back, mask_s) = pass.best("amr.mask_roundtrip", || {
        let roundtrip = |l: &AmrLevel<T>| BitMask::from_bytes(&l.mask().to_bytes());
        ds.levels().iter().map(roundtrip).collect::<Vec<_>>()
    });
    if !masks_back
        .iter()
        .zip(ds.levels())
        .all(|(m, l)| m.as_ref() == Some(l.mask()))
    {
        return Err("a mask changed across to_bytes/from_bytes".into());
    }

    // The whole path, call by call, with tracing on and off in turn: the
    // difference between the two is what the spans cost.
    let mut traced_s = [f64::INFINITY; 4];
    let mut untraced_s = [f64::INFINITY; 4];
    let mut kept = None;
    for _ in 0..PATH_REPS {
        for tracing in [true, false] {
            pass.tracer.enabled = tracing;
            let (cd, compress_s) = pass.once("core.engine.compress_dataset", || {
                compress_dataset_t(black_box(ds), cfg, w.method)
            });
            let cd = cd?;
            let (bytes, serialize_s) = pass.once("core.container.to_bytes", || cd.to_bytes());
            let (parsed, parse_s) = pass.once("core.container.from_bytes", || {
                CompressedDataset::from_bytes(black_box(&bytes))
            });
            let parsed = parsed?;
            let (full, decompress_s) = pass.once("core.engine.decompress_dataset", || {
                decompress_dataset_par_t::<T>(&parsed, w.parallelism())
            });
            let full = full?;
            let mins = if tracing {
                &mut traced_s
            } else {
                &mut untraced_s
            };
            for (min, s) in mins
                .iter_mut()
                .zip([compress_s, serialize_s, parse_s, decompress_s])
            {
                *min = min.min(s);
            }
            kept = Some((cd, bytes, full));
        }
    }
    pass.tracer.enabled = true;
    let (cd, bytes, full) = kept.expect("PATH_REPS > 0");
    let [compress_s, serialize_s, parse_s, decompress_s] = traced_s;
    let write_s = compress_s + serialize_s;
    let read_s = parse_s + decompress_s;
    let overhead = (write_s + read_s) / untraced_s.iter().sum::<f64>() - 1.0;

    let ((roi, roi_stats), roi_s) = pass.try_best("core.roi.decompress_region", || {
        decompress_region_t::<T>(black_box(&bytes), region)
    })?;
    let bounds = expected_bounds(ds, cfg, cd.method())?;
    check_bound(ds, &full, &bounds)?;
    check_roi(&roi, &full, region)?;
    drop((roi, full));

    // core.preprocess: the planning the method's pre-process does, on
    // grids built above so that amr keeps its own share.
    let ((), plan_s) = match cd.method() {
        Method::Tac => pass.best("core.preprocess.plan", || {
            for (level, grid) in ds.levels().iter().zip(&grids) {
                match black_box(choose_strategy(level, cfg)) {
                    Strategy::OpST => drop(black_box(plan_opst(grid))),
                    Strategy::AkdTree => drop(black_box(plan_akdtree(grid))),
                    Strategy::Gsp => drop(black_box(pad_ghost_shell(level, grid))),
                    _ => {}
                }
            }
        }),
        Method::ZMesh => pass.best("core.preprocess.zmesh_order_gather", || {
            let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
            let data: Vec<&[T]> = ds.levels().iter().map(|l| l.data()).collect();
            drop(black_box(gather(&zmesh_order(&masks, fine), &data)));
        }),
        _ => ((), 0.0),
    };
    drop(grids);

    // codec: the present values of the finest level that has any, as one
    // 1-D stream at the bound that level resolves to.
    let stream_level = ds
        .levels()
        .iter()
        .find(|l| l.num_present() > 0)
        .ok_or("the dataset has no present values")?;
    let values = stream_level.present_values();
    let abs_eb = resolve_level_eb_for(T::DTYPE, cfg.error_bound, 1.0, stream_level.value_range())?;
    let codec = codec_for(w.codec);
    let (stream, codec_c_s) = pass.try_best("codec.compress", || {
        let dims = Dims::D1(values.len());
        Ok(T::codec_compress(
            codec,
            black_box(&values),
            dims,
            &CodecConfig::abs(abs_eb),
        )?)
    })?;
    let ((decoded, _), codec_d_s) = pass.try_best("codec.decompress", || {
        Ok(T::codec_decompress(codec, black_box(&stream))?)
    })?;
    if decoded.len() != values.len() {
        return Err(format!("codec decoded {} of {} values", decoded.len(), values.len()).into());
    }
    drop(decoded);
    let codec_values = values.len() as f64;
    let codec_c_ns = codec_c_s * 1e9 / codec_values;
    let codec_d_ns = codec_d_s * 1e9 / codec_values;
    let codec_d_mb_s = std::mem::size_of_val(&values[..]) as f64 / codec_d_s / 1e6;
    let stream_ratio = std::mem::size_of_val(&values[..]) as f64 / stream.len() as f64;
    drop(values);

    // core.level: every level of a TAC container on its own.
    let (mut level_c_s, mut level_d_s) = (0.0, 0.0);
    if let MethodBody::Tac(compressed) = &cd.body {
        for (level, cl) in ds.levels().iter().zip(compressed) {
            if cl.strategy == Strategy::Empty {
                continue;
            }
            let level_cfg = TacConfig {
                codec: cl.codec,
                ..cfg.clone()
            };
            let (one, s) = pass.try_best("core.level.compress_level", || {
                compress_level_t(black_box(level), cl.strategy, cl.abs_eb, &level_cfg)
            })?;
            level_c_s += s;
            let (_, s) = pass.try_best("core.level.decompress_level", || {
                decompress_level_t::<T>(black_box(&one), level.mask())
            })?;
            level_d_s += s;
        }
    }

    // core.select
    let select_s = if w.method == Method::Auto {
        pass.try_best("core.select.select_auto", || {
            select_auto(black_box(ds), cfg)
        })?
        .1
    } else {
        0.0
    };

    // par
    let noop = [0u8; NOOP_TASKS];
    let (_, noop_s) = pass.best("par.execute_noop", || {
        tac_par::execute(2, &noop, |_| 1, |_| ())
    });
    let (serial_c_s, serial_d_s) = if w.workers > 1 {
        let serial = TacConfig {
            parallelism: Parallelism::Serial,
            ..cfg.clone()
        };
        let (_, c) = pass.try_best("par.compress_dataset_1w", || {
            compress_dataset_t(black_box(ds), &serial, w.method)
        })?;
        let (_, d) = pass.try_best("par.decompress_dataset_1w", || {
            decompress_dataset_par_t::<T>(black_box(&cd), Parallelism::Serial)
        })?;
        (c, d)
    } else {
        (0.0, 0.0)
    };

    // mem: how far one call pushes the resident set, over the input.
    let ((made, grew_c), _) = pass.once("mem.compress_dataset", || {
        peak_rss_growth(|| compress_dataset_t(black_box(ds), cfg, w.method))
    });
    drop(made?);
    let ((made, grew_d), _) = pass.once("mem.decompress_dataset", || {
        peak_rss_growth(|| decompress_dataset_par_t::<T>(black_box(&cd), w.parallelism()))
    });
    drop(made?);
    let rss_x = |grew: Option<u64>| grew.map_or(0.0, |b| b as f64 / input_bytes);

    let structure_bytes = cd.structure_bytes() as f64;
    let level_c_ns = level_c_s * 1e9 / total_values;
    let level_d_ns = level_d_s * 1e9 / total_values;
    let dataset_d_ns = read_s * 1e9 / total_values;
    Ok(vec![
        ("host.memcpy_mb_s", memcpy_mb_s),
        ("nyx.generate_s", generate_s),
        (
            "amr.blockgrid_ns_per_cell",
            blockgrid_s * 1e9 / cells as f64,
        ),
        ("amr.mask_roundtrip_ms", mask_s * 1e3),
        (
            "core.preprocess.plan_ns_per_value",
            plan_s * 1e9 / total_values,
        ),
        ("codec.compress_ns_per_value", codec_c_ns),
        ("codec.decompress_ns_per_value", codec_d_ns),
        ("codec.decompress_x_memcpy", codec_d_mb_s / memcpy_mb_s),
        ("codec.stream_ratio", stream_ratio),
        (
            "codec.share_of_compress",
            codec_c_ns * total_values / 1e9 / write_s,
        ),
        (
            "codec.share_of_decompress",
            codec_d_ns * total_values / 1e9 / read_s,
        ),
        ("core.level.compress_ns_per_value", level_c_ns),
        ("core.level.decompress_ns_per_value", level_d_ns),
        (
            "core.engine.compress_glue_share",
            if level_c_s > 0.0 {
                1.0 - level_c_s / compress_s
            } else {
                0.0
            },
        ),
        (
            "core.engine.decompress_glue_share",
            if level_d_s > 0.0 {
                1.0 - level_d_s / decompress_s
            } else {
                0.0
            },
        ),
        ("core.container.serialize_ms", serialize_s * 1e3),
        ("core.container.parse_ms", parse_s * 1e3),
        (
            "core.container.structure_share",
            structure_bytes / bytes.len() as f64,
        ),
        (
            "core.container.bits_per_value",
            bytes.len() as f64 * 8.0 / total_values,
        ),
        ("core.select.auto_ms", select_s * 1e3),
        ("core.select.share_of_compress", select_s / write_s),
        ("core.roi.skipped_fraction", roi_stats.skipped_fraction()),
        (
            "core.roi.chunks_read_share",
            over(roi_stats.chunks_read as f64, roi_stats.chunks_total as f64),
        ),
        ("core.roi.ms_over_full_decode", roi_s / read_s),
        ("par.task_overhead_us", noop_s * 1e6 / NOOP_TASKS as f64),
        ("par.speedup_compress", serial_c_s / compress_s),
        ("par.speedup_decompress", serial_d_s / decompress_s),
        ("mem.compress_peak_rss_x", rss_x(grew_c)),
        ("mem.decompress_peak_rss_x", rss_x(grew_d)),
        // Rung N over rung N-1 in MB/s, i.e. ns/value the other way up.
        (
            "ladder.level_over_codec_compress",
            over(codec_c_ns, level_c_ns),
        ),
        (
            "ladder.level_over_codec_decode",
            over(codec_d_ns, level_d_ns),
        ),
        (
            "ladder.dataset_over_level_decode",
            over(level_d_ns, dataset_d_ns),
        ),
        (
            "ladder.dataset_over_codec_decode",
            over(codec_d_ns, dataset_d_ns),
        ),
        ("trace.overhead_share", overhead),
    ])
}
