//! Segmented single-stream bodies: zMesh and the per-level 1D baseline.
//!
//! Both methods code a *traversal* of present cells as a rank-1 stream —
//! zMesh the octree walk of the whole level stack, the 1D baseline the
//! flat order of one level, which is the same walk over a stack of one
//! ([`crate::zmesh`]). One stream per traversal would be one chunk-table
//! row, one scheduler task and no sub-box read, so the traversal is cut
//! into **segments**: runs of whole z-planes of the stack's coarsest
//! level, closed at the first plane boundary after a fixed budget of
//! values. A run of planes is a union of whole octree subtrees and a
//! contiguous flat range in every level's buffer
//! ([`crate::zmesh::slab`]), so
//!
//! * every segment is an independent codec stream under the one bound
//!   resolved up front for its stack, and the concatenation of the
//!   segments' values is the unsegmented stream;
//! * compression runs gather → encode per segment, and decompression
//!   decode → scatter per segment, as `tac_par` tasks. The decode tasks
//!   write the level grids every decode arm shares
//!   ([`crate::grid::SlabGrid`]), each cut one slab per segment at the
//!   segment's planes scaled to the level, so every task locks its own
//!   slabs once and no two tasks meet;
//! * a region-of-interest read decodes only the segments whose planes
//!   meet the request, scatters only the cells inside the grids' box,
//!   and never touches the rest of the level grids.
//!
//! Cut points depend on the masks alone (ranged popcounts per plane), so
//! the bytes are identical for every worker count. A traversal below the
//! budget is one segment — the only kind that existed before — and
//! serialises to the bytes it always did.

use crate::config::TacConfig;
use crate::container::{Baseline1DLevel, MethodBody};
use crate::error::TacError;
use crate::grid::SlabGrid;
use crate::pipeline::{resolve_level_eb_for, LevelRanges};
use crate::zmesh::{gather_walk, level_dim, population, scatter_walk};
use std::ops::Range;
use tac_amr::{Aabb, AmrDataset, BitMask};
use tac_codec::{codec_for, CodecConfig, CodecElement, CodecId, Dims};

/// Values a segment takes in before it closes at the next plane boundary.
/// A writer-side constant: readers take every cut from the chunk table.
/// 64 Ki values keep a segment's codec scratch in cache and give a 256^3
/// dataset on the order of a hundred rows; see EXPERIMENTS.md for the
/// sweep behind it.
pub(crate) const SEGMENT_BUDGET: usize = 64 * 1024;

/// One independently coded run of z-planes of a single-stream body.
/// Segments tile the planes of their stack's coarsest level in order
/// from plane 0, so each starts where the one before it ends.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// First plane past the segment's run, on the coarsest level of the
    /// stack (zMesh: the dataset's coarsest level; 1D: the level itself).
    pub plane_end: usize,
    /// Rank-1 codec stream of the traversal values in those planes.
    pub stream: Vec<u8>,
}

/// Cuts the planes of a stack's coarsest level into segments: each
/// closes at the first plane boundary at which it holds `budget` present
/// cells or more. Empty planes never form a segment of their own —
/// leading ones join the first segment, trailing ones the last — so
/// every range holds a value unless the whole stack is empty. The ranges
/// tile `[0, planes)`.
pub(crate) fn plan_cuts(masks: &[&BitMask], finest_dim: usize, budget: usize) -> Vec<Range<usize>> {
    let planes = level_dim(finest_dim, masks.len().saturating_sub(1));
    let mut cuts = Vec::new();
    let (mut from, mut held) = (0, 0usize);
    for z in 0..planes {
        held = held.saturating_add(population(masks, finest_dim, &(z..z + 1)));
        if held >= budget.max(1) {
            cuts.push(from..z + 1);
            (from, held) = (z + 1, 0);
        }
    }
    match cuts.last_mut() {
        Some(last) if held == 0 => last.end = planes,
        _ => cuts.push(from..planes),
    }
    cuts
}

/// The plane ranges of an in-memory body's segments, which must tile
/// `[0, planes)` in order.
fn segment_planes(segments: &[Segment], planes: usize) -> Result<Vec<Range<usize>>, TacError> {
    let mut from = 0;
    let ranges: Vec<Range<usize>> = segments
        .iter()
        .map(|s| std::mem::replace(&mut from, s.plane_end)..s.plane_end)
        .collect();
    if from != planes || ranges.iter().any(|r| r.start >= r.end) {
        return Err(TacError::Corrupt(format!(
            "segments ending at planes {:?} do not tile {planes} planes",
            segments.iter().map(|s| s.plane_end).collect::<Vec<_>>()
        )));
    }
    Ok(ranges)
}

/// The plane ranges a stack's chunk-table rows address. Each row spans
/// the whole x-y extent of its grid of side `extent` and its z-extent is
/// the address: rows tile `[0, extent)` in order from plane 0, every cut
/// a multiple of `scale` (the coarsest level's cell size in row
/// coordinates: `2^(levels - 1)` for zMesh rows, which are recorded on
/// the finest grid, 1 for 1D rows).
pub(crate) fn planes_of_rows(
    boxes: &[Aabb],
    extent: usize,
    scale: usize,
) -> Result<Vec<Range<usize>>, TacError> {
    let corrupt = |why: &str| TacError::Corrupt(format!("segment rows {boxes:?}: {why}"));
    let planes = extent.checked_div(scale).unwrap_or(0);
    let mut from = 0;
    let mut ranges = Vec::with_capacity(boxes.len());
    for (i, b) in boxes.iter().enumerate() {
        if (b.min.0, b.min.1) != (0, 0) || (b.max.0, b.max.1) != (extent, extent) {
            return Err(corrupt("a row does not span the x-y extent"));
        }
        if b.min.2 != from {
            return Err(corrupt("rows do not tile the z-axis in order from plane 0"));
        }
        let last = i + 1 == boxes.len();
        if last != (b.max.2 == extent) || (!last && b.max.2 % scale != 0) {
            return Err(corrupt("a cut is off the plane grid or the level"));
        }
        let to = if last { planes } else { b.max.2 / scale };
        if from / scale >= to {
            return Err(corrupt("a row addresses no plane"));
        }
        ranges.push(from / scale..to);
        from = b.max.2;
    }
    if ranges.is_empty() {
        return Err(corrupt("a present stack needs at least one row"));
    }
    Ok(ranges)
}

/// The union of the levels' value ranges: the range of a stream over
/// all of them (NaN-only levels drop out unless every level is one).
pub(crate) fn union_range(
    ranges: impl IntoIterator<Item = Option<(f64, f64)>>,
) -> Option<(f64, f64)> {
    ranges
        .into_iter()
        .flatten()
        .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
}

/// One segment to gather and encode.
struct EncodeTask<'a, T> {
    masks: &'a [&'a BitMask],
    finest_dim: usize,
    data: &'a [&'a [T]],
    abs_eb: f64,
    planes: Range<usize>,
}

/// Runs gather → encode per segment on the scheduler; segments come back
/// in task order.
fn encode_segments<T: CodecElement>(
    tasks: &[EncodeTask<'_, T>],
    cfg: &TacConfig,
) -> Result<Vec<Segment>, TacError> {
    tac_par::execute(
        cfg.parallelism.workers(),
        tasks,
        |t| population(t.masks, t.finest_dim, &t.planes) as u64,
        |t| -> Result<Segment, TacError> {
            let values = {
                let _reorder = tac_obs::span(tac_obs::Stage::Reorder);
                gather_walk(t.masks, t.finest_dim, t.planes.clone(), t.data, usize::MAX)
            };
            tac_obs::add(tac_obs::Counter::ReorderValues, values.len());
            let _encode = tac_obs::span(tac_obs::Stage::Encode).arg("codec", cfg.codec.tag());
            let stream = T::codec_compress(
                codec_for(cfg.codec),
                &values,
                Dims::D1(values.len()),
                &CodecConfig::abs(t.abs_eb),
            )?;
            tac_obs::add(tac_obs::Counter::ChunksEncoded, 1u64);
            tac_obs::add(tac_obs::Counter::PayloadBytesOut, stream.len());
            Ok(Segment {
                plane_end: t.planes.end,
                stream,
            })
        },
    )
    .into_iter()
    .collect()
}

/// Compresses the zMesh traversal of the whole level stack, cut at
/// `budget` values, under one bound resolved against the dataset's value
/// range (the union of the levels' `ranges`).
pub(crate) fn compress_zmesh<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    ranges: &LevelRanges,
    budget: usize,
) -> Result<MethodBody, TacError> {
    let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
    let data: Vec<&[T]> = ds.levels().iter().map(|l| l.data()).collect();
    let (abs_eb, cuts) = {
        let _plan = tac_obs::span(tac_obs::Stage::Plan);
        if ds.total_present() == 0 {
            return Err(TacError::InvalidDataset(
                "dataset has no present cells".into(),
            ));
        }
        let range = union_range(ranges.iter().copied());
        let abs_eb = resolve_level_eb_for(T::DTYPE, cfg.error_bound, 1.0, range)?;
        (abs_eb, plan_cuts(&masks, ds.finest_dim(), budget))
    };
    let tasks: Vec<EncodeTask<'_, T>> = cuts
        .into_iter()
        .map(|planes| EncodeTask {
            masks: &masks,
            finest_dim: ds.finest_dim(),
            data: &data,
            abs_eb,
            planes,
        })
        .collect();
    Ok(MethodBody::ZMesh {
        abs_eb,
        codec: cfg.codec,
        segments: encode_segments(&tasks, cfg)?,
    })
}

/// Compresses every non-empty level as its own flat traversal, cut at
/// `budget` values, each under its own level's bound (resolved against
/// its entry of `ranges`). The segments of all levels run as one
/// flattened task batch.
pub(crate) fn compress_1d<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    ranges: &LevelRanges,
    budget: usize,
) -> Result<MethodBody, TacError> {
    let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
    let data: Vec<&[T]> = ds.levels().iter().map(|l| l.data()).collect();
    // Per level: the resolved bound and how many segments it was cut into.
    let mut plans: Vec<Option<(f64, usize)>> = Vec::with_capacity(ds.num_levels());
    let mut tasks: Vec<EncodeTask<'_, T>> = Vec::new();
    {
        let _plan = tac_obs::span(tac_obs::Stage::Plan);
        // Each level alone is a stack of one: `chunks(1)` hands out the
        // one-element mask and data slices the walker takes.
        let stacks = masks.chunks(1).zip(data.chunks(1));
        for ((l, level), (mask, values)) in ds.levels().iter().enumerate().zip(stacks) {
            if level.num_present() == 0 {
                plans.push(None);
                continue;
            }
            let abs_eb = resolve_level_eb_for(
                T::DTYPE,
                cfg.error_bound,
                cfg.level_scale(l),
                ranges.get(l).copied().flatten(),
            )?;
            let cuts = plan_cuts(mask, level.dim(), budget);
            plans.push(Some((abs_eb, cuts.len())));
            tasks.extend(cuts.into_iter().map(|planes| EncodeTask {
                masks: mask,
                finest_dim: level.dim(),
                data: values,
                abs_eb,
                planes,
            }));
        }
    }
    let mut segments = encode_segments(&tasks, cfg)?.into_iter();
    Ok(MethodBody::Baseline1D(
        plans
            .into_iter()
            .map(|plan| -> Option<Baseline1DLevel> {
                let (abs_eb, count) = plan?;
                Some((abs_eb, cfg.codec, segments.by_ref().take(count).collect()))
            })
            .collect(),
    ))
}

/// A segment to decode: its plane range and its stream, borrowed from
/// wherever it lives (an in-memory body or a container's payload).
#[derive(Debug)]
pub(crate) struct SegmentRef<'a> {
    pub planes: Range<usize>,
    pub stream: &'a [u8],
}

/// The segments to decode of one stack: the dataset levels it spans
/// (zMesh: all of them; 1D: one), its codec, and any subset of its
/// segments in plane order.
#[derive(Debug)]
pub(crate) struct StackSegments<'a> {
    pub levels: Range<usize>,
    pub codec: CodecId,
    pub segments: Vec<SegmentRef<'a>>,
}

impl<'a> StackSegments<'a> {
    /// Every segment of an in-memory stack, held to the tiling rule: a
    /// zMesh body is one stack over every level.
    pub(crate) fn all(
        levels: Range<usize>,
        finest_dim: usize,
        codec: CodecId,
        segments: &'a [Segment],
    ) -> Result<Self, TacError> {
        let planes = level_dim(finest_dim, levels.end.saturating_sub(1));
        let ranges = segment_planes(segments, planes)?;
        Ok(StackSegments {
            levels,
            codec,
            segments: ranges
                .into_iter()
                .zip(segments)
                .map(|(planes, s)| SegmentRef {
                    planes,
                    stream: &s.stream,
                })
                .collect(),
        })
    }

    /// The stacks of an in-memory 1D body (one per present level).
    pub(crate) fn of_1d(
        finest_dim: usize,
        levels: &'a [Option<Baseline1DLevel>],
    ) -> Result<Vec<Self>, TacError> {
        levels
            .iter()
            .enumerate()
            .filter_map(|(l, level)| {
                let (_, codec, segments) = level.as_ref()?;
                Some(Self::all(l..l + 1, finest_dim, *codec, segments))
            })
            .collect()
    }
}

/// One segment to decode and scatter into its slab of every level grid
/// of its stack.
struct DecodeTask<'a, 'g, T> {
    grids: &'a [SlabGrid<'g, T>],
    masks: &'a [&'a BitMask],
    finest_dim: usize,
    codec: CodecId,
    segment: &'a SegmentRef<'a>,
    /// The segment's place in its stack: its slab in each of the grids.
    slab: usize,
}

/// Decodes the given segments of a single-stream body into the level
/// grids `grids`, decode → scatter per segment as scheduler tasks. Each
/// grid a stack spans is cut one slab per segment, at the segment's
/// planes scaled to the level, so the slabs of different tasks are
/// disjoint and each lock is taken once.
///
/// Each segment is held to exactly one value per traversal cell of its
/// planes. Cells of planes no given segment covers — and absent cells —
/// keep the `+0.0` bits of the zero grid, and the pages they lie on are
/// never written. Under a grid's clip — a region read's box — only the
/// cells inside the box are written. A level no stack spans carries no
/// payload, so its mask must be empty.
pub(crate) fn decompress_stacks<T: CodecElement>(
    masks: &[BitMask],
    finest_dim: usize,
    stacks: &[StackSegments<'_>],
    grids: &[SlabGrid<'_, T>],
    workers: usize,
) -> Result<(), TacError> {
    let mask_refs: Vec<&BitMask> = masks.iter().collect();
    for (l, mask) in masks.iter().enumerate() {
        if mask.count_ones() != 0 && !stacks.iter().any(|s| s.levels.contains(&l)) {
            return Err(TacError::Corrupt(format!(
                "level {l} marked empty but mask has {} cells",
                mask.count_ones()
            )));
        }
    }
    let mut tasks: Vec<DecodeTask<'_, '_, T>> = Vec::new();
    for stack in stacks {
        let (Some(stack_masks), Some(stack_grids)) = (
            mask_refs.get(stack.levels.clone()),
            grids.get(stack.levels.clone()),
        ) else {
            return Err(TacError::Corrupt("a stack leaves the levels".into()));
        };
        for (slab, segment) in stack.segments.iter().enumerate() {
            tasks.push(DecodeTask {
                grids: stack_grids,
                masks: stack_masks,
                finest_dim: level_dim(finest_dim, stack.levels.start),
                codec: stack.codec,
                segment,
                slab,
            });
        }
    }

    tac_par::execute(
        workers,
        &tasks,
        |t| t.segment.stream.len() as u64,
        |t| -> Result<(), TacError> {
            let (values, dims) = {
                let _decode = tac_obs::span(tac_obs::Stage::Decode).arg("codec", t.codec.tag());
                tac_obs::add(tac_obs::Counter::ChunksDecoded, 1u64);
                tac_obs::add(tac_obs::Counter::PayloadBytesIn, t.segment.stream.len());
                T::codec_decompress(codec_for(t.codec), t.segment.stream)?
            };
            if dims != Dims::D1(values.len()) {
                return Err(TacError::Corrupt(format!(
                    "segment stream holds {dims:?} for {} values",
                    values.len()
                )));
            }
            let _reorder = tac_obs::span(tac_obs::Stage::Reorder);
            tac_obs::add(tac_obs::Counter::ReorderValues, values.len());
            let mut slabs =
                (t.grids.iter().map(|g| g.lock(t.slab))).collect::<Result<Vec<_>, _>>()?;
            let mut cells: Vec<(usize, &mut [T])> =
                slabs.iter_mut().map(|s| (s.base, &mut *s.cells)).collect();
            let clips: Vec<Option<Aabb>> = t.grids.iter().map(SlabGrid::clip).collect();
            let planes = t.segment.planes.clone();
            scatter_walk(t.masks, t.finest_dim, planes, &values, &mut cells, &clips)
        },
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::container::tests::{edit_table, row_box, set_row_box};
    use crate::container::{CompressedDataset, Method};
    use crate::pipeline::{decompress_dataset_par_t, Ranges, RANGE_CHUNK};
    use crate::roi::decompress_region_t;
    use crate::zmesh::tests::random_hierarchy;
    use crate::zmesh::zmesh_order;
    use tac_amr::AmrLevel;
    use tac_codec::ErrorBound;
    use tac_dtype::Element;
    use tac_par::Parallelism;

    const EB: f64 = 1e-3;

    /// Smooth values over the given masks, with NaN payloads and `-0.0`
    /// sprinkled in (absent cells carry values too: nothing may read
    /// them).
    fn dataset<T: Element>(masks: &[BitMask], finest_dim: usize) -> AmrDataset<T> {
        let nan = T::from_f64(f64::NAN).to_bits_u64();
        let levels = masks
            .iter()
            .enumerate()
            .map(|(l, mask)| {
                let data = (0..mask.len())
                    .map(|i| match i % 29 {
                        0 => T::from_bits_u64(nan | (i as u64 % 512)),
                        1 => T::from_f64(-0.0),
                        _ => T::from_f64((i as f64 * 0.37).sin() * 4.0 + l as f64),
                    })
                    .collect();
                AmrLevel::new(finest_dim >> l, data, mask.clone())
            })
            .collect();
        AmrDataset::new("random", levels)
    }

    fn config(codec: CodecId) -> TacConfig {
        TacConfig {
            error_bound: ErrorBound::Abs(EB),
            parallelism: Parallelism::Threads(2),
            codec,
            ..Default::default()
        }
    }

    /// `compress_dataset_t`'s zMesh / 1D arms at an explicit budget.
    pub(crate) fn compress<T: CodecElement>(
        ds: &AmrDataset<T>,
        cfg: &TacConfig,
        method: Method,
        budget: usize,
    ) -> Result<CompressedDataset, TacError> {
        let ranges = Ranges::Scan(RANGE_CHUNK).get(ds, cfg);
        let body = match method {
            Method::ZMesh => compress_zmesh(ds, cfg, &ranges, budget)?,
            _ => compress_1d(ds, cfg, &ranges, budget)?,
        };
        Ok(CompressedDataset {
            name: ds.name().to_string(),
            finest_dim: ds.finest_dim(),
            dtype: T::DTYPE,
            masks: ds.levels().iter().map(|l| l.mask().clone()).collect(),
            body,
        })
    }

    fn segment_counts(cd: &CompressedDataset) -> Vec<usize> {
        match &cd.body {
            MethodBody::ZMesh { segments, .. } => vec![segments.len()],
            MethodBody::Baseline1D(levels) => levels
                .iter()
                .map(|l| l.as_ref().map_or(0, |(_, _, s)| s.len()))
                .collect(),
            _ => unreachable!(),
        }
    }

    fn bits<T: Element>(ds: &AmrDataset<T>) -> Vec<Vec<u64>> {
        ds.levels()
            .iter()
            .map(|l| l.data().iter().map(|v| v.to_bits_u64()).collect())
            .collect()
    }

    /// Every coded cell within the bound (non-finite ones bit-exact) and
    /// every other cell `+0.0` bits.
    fn check_decode<T: Element>(
        ds: &AmrDataset<T>,
        out: &AmrDataset<T>,
        coded: &[(usize, usize)],
        what: &str,
    ) {
        let mut seen: Vec<Vec<bool>> = ds
            .levels()
            .iter()
            .map(|l| vec![false; l.num_cells()])
            .collect();
        for &(l, i) in coded {
            seen[l][i] = true;
            let (a, b) = (ds.levels()[l].data()[i], out.levels()[l].data()[i]);
            if a.to_f64().is_finite() {
                let err = (a.to_f64() - b.to_f64()).abs();
                assert!(
                    err <= EB * (1.0 + 1e-6),
                    "{what}: cell {l}/{i} off by {err}"
                );
            } else {
                assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{what}: cell {l}/{i}");
            }
        }
        for (l, level) in out.levels().iter().enumerate() {
            for (i, v) in level.data().iter().enumerate() {
                if !seen[l][i] {
                    assert_eq!(v.to_bits_u64(), 0, "{what}: uncoded cell {l}/{i} written");
                }
            }
        }
    }

    fn check_round_trips<T: CodecElement>(seed: u64) {
        let (masks, finest_dim) = random_hierarchy(seed);
        let ds = dataset::<T>(&masks, finest_dim);
        let refs: Vec<&BitMask> = masks.iter().collect();
        for method in [Method::ZMesh, Method::Baseline1D] {
            // The cells the method codes, and its stacks' non-empty planes.
            let (coded, live_planes): (Vec<(usize, usize)>, Vec<usize>) = match method {
                Method::ZMesh => {
                    let planes = finest_dim >> (masks.len() - 1);
                    let live = (0..planes)
                        .filter(|&z| population(&refs, finest_dim, &(z..z + 1)) > 0)
                        .count();
                    (zmesh_order(&refs, finest_dim), vec![live])
                }
                _ => (
                    (0..masks.len())
                        .flat_map(|l| masks[l].iter_ones().map(move |i| (l, i)))
                        .collect(),
                    (0..masks.len())
                        .map(|l| {
                            let dim = finest_dim >> l;
                            (0..dim)
                                .filter(|&z| masks[l].count_ones_in(z * dim * dim, dim * dim) > 0)
                                .count()
                        })
                        .collect(),
                ),
            };
            for codec in CodecId::all() {
                let what = format!("seed {seed} {method:?}/{codec}");
                let cfg = config(codec);
                if method == Method::ZMesh && ds.total_present() == 0 {
                    let err = compress(&ds, &cfg, method, 1).unwrap_err();
                    assert!(matches!(err, TacError::InvalidDataset(_)), "{what}: {err}");
                    continue;
                }
                let whole = compress(&ds, &cfg, method, usize::MAX).unwrap();
                assert!(segment_counts(&whole).iter().all(|&n| n <= 1), "{what}");
                let reference = decompress_dataset_par_t::<T>(&whole, Parallelism::Serial).unwrap();
                check_decode(&ds, &reference, &coded, &what);
                for budget in [1, 6, 40] {
                    let what = format!("{what} budget {budget}");
                    let cd = compress(&ds, &cfg, method, budget).unwrap();
                    if budget == 1 {
                        // Every non-empty plane closes a segment; empty
                        // planes join a neighbour.
                        assert_eq!(segment_counts(&cd), live_planes, "{what}");
                    }
                    let parsed = CompressedDataset::from_bytes(&cd.to_bytes()).unwrap();
                    assert_eq!(parsed, cd, "{what}: reparse");
                    for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
                        let out = decompress_dataset_par_t::<T>(&cd, parallelism).unwrap();
                        if codec == CodecId::Sz {
                            check_decode(&ds, &out, &coded, &what);
                        } else {
                            // The pco codecs quantise on an absolute
                            // lattice: cutting the stream moves no bit.
                            assert_eq!(bits(&out), bits(&reference), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_segment_bodies_round_trip_on_random_hierarchies() {
        for seed in 0..48 {
            check_round_trips::<f64>(seed);
            check_round_trips::<f32>(seed);
        }
    }

    #[test]
    fn cuts_close_at_the_first_plane_boundary_past_the_budget() {
        // A 6^3 level whose planes hold 0, 3, 0, 2, 1, 0 values.
        let mut cube = BitMask::zeros(216);
        for (z, n) in [0, 3, 0, 2, 1, 0].into_iter().enumerate() {
            for i in 0..n {
                cube.set(z * 36 + 7 * i, true);
            }
        }
        let cuts = |budget| plan_cuts(&[&cube], 6, budget);
        assert_eq!(cuts(1), vec![0..2, 2..4, 4..6]);
        assert_eq!(cuts(3), vec![0..2, 2..6]);
        assert_eq!(cuts(4), vec![0..4, 4..6]);
        assert_eq!(cuts(6), vec![0..6]);
        assert_eq!(cuts(usize::MAX), vec![0..6]);
        // Budget 0 behaves as 1, and an empty stack is one empty range.
        assert_eq!(cuts(0), cuts(1));
        assert_eq!(plan_cuts(&[&BitMask::zeros(216)], 6, 1), vec![0..6]);
    }

    /// 8^3 over 4^3 with coarse cell (0,0,0) refined: 4 zMesh planes,
    /// all live; the fine level is live in planes 0-1 only.
    fn corner_refined() -> AmrDataset {
        let mut fine = AmrLevel::empty(8);
        let mut coarse = AmrLevel::empty(4);
        for i in 0..64usize {
            if i == 0 {
                for c in 0..8 {
                    fine.set_value(c & 1, c >> 1 & 1, c >> 2, 1.0 + c as f64 * 0.25);
                }
            } else {
                coarse.set_value(i % 4, i / 4 % 4, i / 16, (i as f64 * 0.1).sin());
            }
        }
        let ds = AmrDataset::new("corner", vec![fine, coarse]);
        ds.validate().unwrap();
        ds
    }

    fn assert_corrupt(cd: &CompressedDataset, what: &str) {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let err = decompress_dataset_par_t::<f64>(cd, parallelism).unwrap_err();
            assert!(matches!(err, TacError::Corrupt(_)), "{what}: {err}");
        }
    }

    #[test]
    fn hostile_in_memory_segments_are_corrupt() {
        let ds = corner_refined();
        let cfg = config(CodecId::PcoAns);
        let zmesh = compress(&ds, &cfg, Method::ZMesh, 1).unwrap();
        let one_d = compress(&ds, &cfg, Method::Baseline1D, 1).unwrap();
        assert_eq!(segment_counts(&zmesh), [4]);
        assert_eq!(segment_counts(&one_d), [2, 4]);
        decompress_dataset_par_t::<f64>(&zmesh, Parallelism::Serial).unwrap();

        // A stream of `n` values at the container's bound.
        let stream_of = |n: usize| {
            let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
            f64::codec_compress(
                codec_for(cfg.codec),
                &values,
                Dims::D1(n),
                &CodecConfig::abs(EB),
            )
            .unwrap()
        };
        type Edit = fn(&mut Vec<Segment>, &dyn Fn(usize) -> Vec<u8>);
        let edits: [(&str, Edit); 8] = [
            ("out of order", |s, _| s.swap(1, 2)),
            ("empty range", |s, _| s[1].plane_end = s[0].plane_end),
            ("stops short of the last plane", |s, _| s[3].plane_end = 3),
            ("runs past the last plane", |s, _| s[3].plane_end = 5),
            ("a segment missing", |s, _| drop(s.remove(3))),
            ("no segments", |s, _| s.clear()),
            // Plane 1 of the coarsest level holds 16 coarse cells.
            ("one value short", |s, stream| s[1].stream = stream(15)),
            ("one value long", |s, stream| s[1].stream = stream(17)),
        ];
        for (what, edit) in edits {
            let mut bad = zmesh.clone();
            let MethodBody::ZMesh { segments, .. } = &mut bad.body else {
                unreachable!()
            };
            edit(segments, &stream_of);
            assert_corrupt(&bad, what);

            let mut bad = one_d.clone();
            let MethodBody::Baseline1D(levels) = &mut bad.body else {
                unreachable!()
            };
            edit(&mut levels[1].as_mut().unwrap().2, &stream_of);
            assert_corrupt(&bad, what);
        }
        // A level marked empty whose mask is not.
        let mut bad = one_d.clone();
        let MethodBody::Baseline1D(levels) = &mut bad.body else {
            unreachable!()
        };
        levels[0] = None;
        assert_corrupt(&bad, "a level marked empty");
    }

    #[test]
    fn hostile_segment_tables_are_corrupt_for_the_full_parse_and_the_roi_read() {
        let ds = corner_refined();
        type Edit = fn(&mut Vec<Vec<u8>>);
        /// Moves the cut between rows `i` and `i + 1` to `z`.
        fn recut(rows: &mut [Vec<u8>], i: usize, z: usize) {
            let (mut a, mut b) = (row_box(&rows[i]), row_box(&rows[i + 1]));
            (a.max.2, b.min.2) = (z, z);
            set_row_box(&mut rows[i], a);
            set_row_box(&mut rows[i + 1], b);
        }
        fn patch(rows: &mut [Vec<u8>], i: usize, edit: impl FnOnce(&mut Aabb)) {
            let mut b = row_box(&rows[i]);
            edit(&mut b);
            set_row_box(&mut rows[i], b);
        }
        // zMesh rows sit on the 8^3 grid, two fine planes per plane. The
        // 1D table holds two rows of the 8^3 level, then four of the 4^3.
        let zmesh: [(&str, Edit); 10] = [
            ("out of order", |r| r.swap(1, 2)),
            ("overlapping", |r| patch(r, 2, |b| b.min.2 = 2)),
            ("a gap", |r| patch(r, 1, |b| b.max.2 = 3)),
            ("not from plane 0", |r| drop(r.remove(0))),
            ("a cut off the plane grid", |r| recut(r, 1, 3)),
            ("beyond the level", |r| patch(r, 3, |b| b.max.2 = 10)),
            ("short of the level", |r| drop(r.remove(3))),
            ("not the whole x-y extent", |r| patch(r, 0, |b| b.max.0 = 7)),
            ("a level other than 0", |r| r[2][0] = 1),
            ("zero rows", |r| r.clear()),
        ];
        let one_d: [(&str, Edit); 6] = [
            ("out of order", |r| r.swap(2, 3)),
            ("overlapping", |r| patch(r, 3, |b| b.min.2 = 0)),
            ("a gap", |r| drop(r.remove(3))),
            ("not from plane 0", |r| drop(r.remove(0))),
            ("beyond the level", |r| patch(r, 5, |b| b.max.2 = 5)),
            ("a present level without rows", |r| r.truncate(2)),
        ];
        for codec in [CodecId::Sz, CodecId::PcoAns] {
            let cfg = config(codec);
            for (method, edits) in [
                (Method::ZMesh, &zmesh[..]),
                (Method::Baseline1D, &one_d[..]),
            ] {
                let bytes = compress(&ds, &cfg, method, 1).unwrap().to_bytes();
                CompressedDataset::from_bytes(&bytes).unwrap();
                decompress_region_t::<f64>(&bytes, Aabb::whole(8)).unwrap();
                for (what, edit) in edits {
                    let bad = edit_table(&bytes, edit);
                    let what = format!("{method:?}/{codec}: {what}");
                    let err = CompressedDataset::from_bytes(&bad).unwrap_err();
                    assert!(matches!(err, TacError::Corrupt(_)), "{what}: {err}");
                    let err = decompress_region_t::<f64>(&bad, Aabb::whole(8)).unwrap_err();
                    assert!(matches!(err, TacError::Corrupt(_)), "{what}: {err}");
                }
            }
            // A lone 1D row keeps the level's tight box; any other box,
            // even one the tiling rule would take, is refused.
            let bytes = compress(&ds, &cfg, Method::Baseline1D, usize::MAX)
                .unwrap()
                .to_bytes();
            CompressedDataset::from_bytes(&bytes).unwrap();
            let bad = edit_table(&bytes, |r| set_row_box(&mut r[0], Aabb::whole(8)));
            let err = CompressedDataset::from_bytes(&bad).unwrap_err();
            assert!(matches!(err, TacError::Corrupt(_)), "{err}");
        }
    }
}
