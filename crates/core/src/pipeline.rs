//! Dataset-level compression pipelines: TAC and the three baselines.
//!
//! The per-level entry points ([`compress_level_t`] /
//! [`decompress_level_t`]) are public because the paper's per-strategy
//! experiments (Figs. 7, 11-13) operate on single levels; the dataset
//! entry points ([`compress_dataset_t`] / [`decompress_dataset_par_t`])
//! implement the full methods compared in Figs. 14-15 and Tables 2-3.
//! Every entry point is generic over the element type and monomorphized
//! once per width: the hot quantize/predict loops carry no per-value
//! dtype branches.

use crate::config::{Strategy, TacConfig};
use crate::container::{CompressedDataset, Method, MethodBody};
use crate::density::choose_strategy;
use crate::engine::{self, LevelPlan};
use crate::error::TacError;
use crate::grid::SlabGrid;
use crate::roi::box_rows;
use crate::segment::{self, union_range, StackSegments, SEGMENT_BUDGET};
use crate::stream::CompressedLevel;
use crate::zmesh::{level_dim, refinement};
use std::borrow::Cow;
use std::ops::Range;
use tac_amr::{min_max, to_uniform, Aabb, AmrDataset, AmrLevel, BitMask};
use tac_codec::{codec_for, CodecConfig, CodecElement, CodecError, CodecId, Dims, ErrorBound};
use tac_dtype::{dispatch_dtype, Element, TacDtype};
use tac_par::Parallelism;

/// Resolves the configured error bound for one level of `dtype` data:
/// applies the per-level multiplier, then converts relative bounds
/// against the given value range. This is the only code that turns an
/// [`ErrorBound::Rel`] into the absolute bound the codecs take. A level
/// whose range is zero (one present cell, or a constant field) resolves
/// to the smallest normal of `dtype`: every value then predicts exactly
/// or is stored verbatim.
///
/// # Non-finite policy
/// Every codec backend stores NaN/±Inf inputs **verbatim** (bit-exact on
/// reconstruction) and treats `-0.0` as an ordinary finite value, so
/// absolute bounds accept non-finite data. A *relative* bound, however,
/// needs a finite range to resolve against: when the range itself is
/// NaN or infinite (the level's extremes are non-finite) this returns
/// [`TacError::NonFinite`] rather than propagating a meaningless bound.
///
/// # Errors
/// A relative bound with no value range (`range: None`, i.e. a level
/// with no present cells) cannot resolve: silently treating the range as
/// zero would yield a degenerate error bound, so this is an
/// [`TacError::InvalidDataset`] instead. Absolute bounds ignore the
/// range and accept `None`.
///
/// A bound that is positive in `f64` working precision but rounds to
/// zero at `dtype` (e.g. a relative bound over a tiny dynamic range,
/// resolved for `f32`) would make the quantizer step degenerate — every
/// value would quantize to the same bin and the bound silently could not
/// hold. Such bounds are a [`TacError::DegenerateBound`].
pub fn resolve_level_eb_for(
    dtype: TacDtype,
    eb: ErrorBound,
    scale: f64,
    range: Option<(f64, f64)>,
) -> Result<f64, TacError> {
    let scaled = match eb {
        ErrorBound::Abs(a) => ErrorBound::Abs(a * scale),
        ErrorBound::Rel(r) => ErrorBound::Rel(r * scale),
    };
    let (min, max) = match (scaled, range) {
        (_, Some(r)) => r,
        // An absolute bound never reads the range.
        (ErrorBound::Abs(_), None) => (0.0, 0.0),
        (ErrorBound::Rel(r), None) => {
            return Err(TacError::InvalidDataset(format!(
                "relative error bound {r} cannot resolve: the level has no \
                 value range (no present cells)"
            )))
        }
    };
    // Only non-finite *extremes* are the data's fault. A finite span
    // that overflows f64 (e.g. -1e308..1e308), like a zero span, takes
    // `resolve_for`'s fallback: the smallest normal of `dtype`, which
    // is effectively verbatim storage.
    if matches!(scaled, ErrorBound::Rel(_)) && !(min.is_finite() && max.is_finite()) {
        return Err(TacError::NonFinite(format!(
            "relative error bound cannot resolve against the non-finite \
             value range ({min}, {max})"
        )));
    }
    let abs_eb = scaled.resolve_for(min, max, dtype)?;
    let degenerate = dispatch_dtype!(dtype, T => {
        abs_eb > 0.0 && T::from_f64(abs_eb).to_f64() == 0.0
    });
    if degenerate {
        return Err(TacError::DegenerateBound {
            abs_eb,
            dtype: dtype.label(),
        });
    }
    Ok(abs_eb)
}

/// Error bound recorded for a level with no payload (nothing was
/// quantized, so no bound applies).
const EMPTY_LEVEL_EB: f64 = 0.0;

/// Compresses a single AMR level with an explicit strategy and resolved
/// absolute error bound. Runs on the block-sharded engine: the level's
/// region groups compress concurrently under `cfg.parallelism`, and the
/// output is byte-identical for every worker count. The element type is
/// recorded in the returned level, so it round-trips through every wire
/// format.
pub fn compress_level_t<T: CodecElement>(
    level: &AmrLevel<T>,
    strategy: Strategy,
    abs_eb: f64,
    cfg: &TacConfig,
) -> Result<CompressedLevel, TacError> {
    cfg.validate()?;
    let plans = vec![LevelPlan {
        abs_eb,
        ..engine::plan_level(level, strategy, cfg)?
    }];
    let workers = cfg.parallelism.workers();
    let mut levels = engine::compress_plans(&plans, &[level.data()], &[level.mask()], workers)?;
    levels
        .pop()
        .ok_or_else(|| TacError::Corrupt("the engine returned no level".into()))
}

/// Decompresses a level payload and applies the occupancy mask: absent
/// cells hold `+0.0` bits (discarding GSP padding and region zeros
/// alike), and only the cells the payload covers are ever written. A
/// payload whose recorded element type disagrees with `T` is rejected up
/// front with [`CodecError::WrongDtype`] instead of being misinterpreted.
///
/// Decodes on one worker: the signature carries no worker count, so the
/// level's streams decode serially on the calling thread, unlike
/// [`compress_level_t`], which honours `cfg.parallelism`.
pub fn decompress_level_t<T: CodecElement>(
    cl: &CompressedLevel,
    mask: &BitMask,
) -> Result<AmrLevel<T>, TacError> {
    let body = Body::Tac(std::slice::from_ref(cl));
    let mut levels = decompress_dataset_in(cl.dim, vec![mask.clone()], body, 1, None)?;
    levels
        .pop()
        .ok_or_else(|| TacError::Corrupt("the engine returned no level".into()))
}

/// Implements the paper's Sec. 4.4 top-level selector: TAC when the
/// finest level is sparse, the 3D baseline when it is dense (>=
/// [`T2`](crate::T2)). Calling it is the opt-in: the compress entry
/// points take the method they are given.
pub fn select_method<T: Element>(ds: &AmrDataset<T>) -> Method {
    if ds.finest_density() >= crate::T2 {
        Method::Baseline3D
    } else {
        Method::Tac
    }
}

/// A value range over present cells, `None` when there is none.
pub(crate) type ValueRange = Option<(f64, f64)>;

/// Each level's value range over its present cells (`None` for an empty
/// level) — one scan per write, shared by everything that resolves a
/// bound: the TAC and 1D per-level bounds, zMesh's union range and every
/// candidate `Method::Auto` scores.
pub(crate) type LevelRanges = [ValueRange];

/// Cells of whole z-planes one range task of a write's plan batch scans
/// (at least one plane): 16 tasks for a 256^3 level. A constant, so the
/// tasks do not depend on the worker count (and the merged ranges do
/// not depend on the split: [`AmrLevel::value_range_in`]).
pub(crate) const RANGE_CHUNK: usize = 1 << 20;

/// Where a write takes its [`LevelRanges`] from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ranges<'a> {
    /// Scanned by the write's plan batch, in range tasks of this many
    /// cells ([`RANGE_CHUNK`]; tests pass less).
    Scan(usize),
    /// Already scanned: `Method::Auto` scans once for its candidates and
    /// its winner.
    Scanned(&'a LevelRanges),
}

impl<'a> Ranges<'a> {
    /// The ranges, scanned on `cfg`'s workers in a batch of range tasks
    /// alone if need be.
    pub(crate) fn get<T: Element>(
        self,
        ds: &AmrDataset<T>,
        cfg: &TacConfig,
    ) -> Cow<'a, LevelRanges> {
        plan_batch(ds, cfg, self, false).0
    }
}

/// One task of a write's plan batch.
enum PlanTask<'a, T: Element> {
    /// Level `l`'s present-cell range over some of its cells: whole
    /// z-planes.
    Scan(usize, &'a AmrLevel<T>, Range<usize>),
    /// A level's strategy and structure ([`engine::plan_level`]).
    Structure(&'a AmrLevel<T>),
}

/// A level's strategy, and its structure or the planner's error.
type Structure = (Strategy, Result<LevelPlan, TacError>);

enum PlanOut {
    Scan(usize, ValueRange),
    Structure(Structure),
}

/// Runs a write's plan as one `tac_par` batch on `cfg`'s workers: under
/// [`Ranges::Scan`], range tasks over every level in chunks of whole
/// z-planes; with `structure`, one structure task per level. Hands back
/// the ranges — scanned ones merged in chunk order — and each level's
/// [`Structure`] in level order (none without `structure`). Nothing here
/// fails: errors wait for the caller, which takes them in level order.
fn plan_batch<'a, T: Element>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    ranges: Ranges<'a>,
    structure: bool,
) -> (Cow<'a, LevelRanges>, Vec<Structure>) {
    let mut tasks = Vec::new();
    if let Ranges::Scan(chunk) = ranges {
        for (l, level) in ds.levels().iter().enumerate() {
            let plane = (level.dim() * level.dim()).max(1);
            let len = (chunk / plane).max(1) * plane;
            let task = |start: usize| PlanTask::Scan(l, level, start..start + len);
            tasks.extend((0..level.num_cells()).step_by(len).map(task));
        }
    }
    if structure {
        tasks.extend(ds.levels().iter().map(PlanTask::Structure));
    }
    let outs = tac_par::execute(
        cfg.parallelism.workers(),
        &tasks,
        |t| match t {
            PlanTask::Scan(_, _, cells) => cells.len() as u64,
            PlanTask::Structure(level) => level.num_cells() as u64,
        },
        |t| {
            let _plan = tac_obs::span(tac_obs::Stage::Plan);
            match t {
                PlanTask::Scan(l, level, cells) => {
                    PlanOut::Scan(*l, level.value_range_in(cells.start, cells.len()))
                }
                PlanTask::Structure(level) => {
                    let strategy = choose_strategy(level, cfg);
                    PlanOut::Structure((strategy, engine::plan_level(level, strategy, cfg)))
                }
            }
        },
    );
    let mut scanned = vec![None; ds.num_levels()];
    let mut structures = Vec::new();
    for out in outs {
        match out {
            PlanOut::Scan(l, chunk) => {
                if let Some(range) = scanned.get_mut(l) {
                    *range = union_range([*range, chunk]);
                }
            }
            PlanOut::Structure(s) => structures.push(s),
        }
    }
    let ranges = match ranges {
        Ranges::Scan(_) => Cow::Owned(scanned),
        Ranges::Scanned(ranges) => Cow::Borrowed(ranges),
    };
    (ranges, structures)
}

/// Plans every level of a TAC run: one plan batch — range tasks unless
/// `ranges` are already scanned, and a structure task per level (strategy
/// by density, region extraction / padding) — then, in level order, the
/// level's bound, and only after it the level's structure, so the first
/// error is the one a level-by-level plan meets. `level_codecs[l]`,
/// where present, replaces `cfg.codec` for level `l` (`Method::Auto`'s
/// per-level winners; empty for fixed TAC).
fn plan_tac_levels<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    ranges: Ranges<'_>,
    level_codecs: &[CodecId],
) -> Result<Vec<LevelPlan>, TacError> {
    let (ranges, structures) = plan_batch(ds, cfg, ranges, true);
    let _plan = tac_obs::span(tac_obs::Stage::Plan);
    let mut plans = Vec::with_capacity(structures.len());
    for (l, (strategy, plan)) in structures.into_iter().enumerate() {
        // An empty level compresses nothing, so no bound needs to
        // resolve (a relative bound could not: there is no range).
        let abs_eb = if strategy == Strategy::Empty {
            EMPTY_LEVEL_EB
        } else {
            resolve_level_eb_for(
                T::DTYPE,
                cfg.error_bound,
                cfg.level_scale(l),
                ranges.get(l).copied().flatten(),
            )?
        };
        plans.push(LevelPlan {
            abs_eb,
            codec: level_codecs.get(l).copied().unwrap_or(cfg.codec),
            ..plan?
        });
    }
    Ok(plans)
}

/// Compresses a dataset with the given method. The container records
/// the element type; `f32` data serializes with its dtype tag.
pub fn compress_dataset_t<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    method: Method,
) -> Result<CompressedDataset, TacError> {
    compress_with(ds, cfg, method, Ranges::Scan(RANGE_CHUNK))
}

/// [`compress_dataset_t`] taking its level ranges from `ranges` (the 3D
/// baseline, which resolves against its uniform grid, reads none).
pub(crate) fn compress_with<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    method: Method,
    ranges: Ranges<'_>,
) -> Result<CompressedDataset, TacError> {
    cfg.validate()?;
    let _compress = tac_obs::span(tac_obs::Stage::Compress).arg("levels", ds.num_levels());
    let masks: Vec<BitMask> = ds.levels().iter().map(|l| l.mask().clone()).collect();
    let level_data: Vec<&[T]> = ds.levels().iter().map(|l| l.data()).collect();
    let level_masks: Vec<&BitMask> = masks.iter().collect();
    let workers = cfg.parallelism.workers();
    // Plans every level, then runs all per-level / per-region
    // compression tasks on the `tac-par` scheduler in one flattened
    // batch.
    let tac_body = |ranges: Ranges<'_>, level_codecs: &[CodecId]| -> Result<MethodBody, TacError> {
        let plans = plan_tac_levels(ds, cfg, ranges, level_codecs)?;
        engine::compress_plans(&plans, &level_data, &level_masks, workers).map(MethodBody::Tac)
    };
    let body = match method {
        Method::Tac => tac_body(ranges, &[])?,
        Method::Baseline1D => segment::compress_1d(ds, cfg, &ranges.get(ds, cfg), SEGMENT_BUDGET)?,
        Method::ZMesh => segment::compress_zmesh(ds, cfg, &ranges.get(ds, cfg), SEGMENT_BUDGET)?,
        Method::Auto => {
            // TAC+-style adaptive selection: score every fixed
            // `(method, codec)` candidate (and, for TAC, every per-level
            // codec) and compress with the winner. The selection pass is
            // serial and deterministic, so Auto output stays
            // byte-identical across worker counts like every fixed path.
            let ranges = ranges.get(ds, cfg);
            let selection = crate::select::select_ranged(ds, cfg, &ranges)?;
            if selection.method == Method::Tac {
                tac_body(Ranges::Scanned(&ranges), &selection.level_codecs)?
            } else {
                // A single-codec winner: rerun the fixed pipeline with
                // the selected codec and the ranges already scanned. The
                // recursion terminates because the selection never
                // returns `Method::Auto`.
                let winner_cfg = TacConfig {
                    codec: selection.codec,
                    ..cfg.clone()
                };
                let ranges = Ranges::Scanned(&ranges);
                return compress_with(ds, &winner_cfg, selection.method, ranges);
            }
        }
        Method::Baseline3D => {
            let n = ds.finest_dim();
            let uniform = {
                let _reorder = tac_obs::span(tac_obs::Stage::Reorder);
                to_uniform(ds)
            };
            tac_obs::add(tac_obs::Counter::ReorderValues, uniform.len());
            let abs_eb = {
                let _plan = tac_obs::span(tac_obs::Stage::Plan);
                resolve_level_eb_for(T::DTYPE, cfg.error_bound, 1.0, min_max(&uniform))?
            };
            let stream = {
                let _encode = tac_obs::span(tac_obs::Stage::Encode).arg("codec", cfg.codec.tag());
                T::codec_compress(
                    codec_for(cfg.codec),
                    &uniform,
                    Dims::D3(n, n, n),
                    &CodecConfig::abs(abs_eb),
                )?
            };
            tac_obs::add(tac_obs::Counter::ChunksEncoded, 1u64);
            tac_obs::add(tac_obs::Counter::PayloadBytesOut, stream.len());
            MethodBody::Baseline3D {
                abs_eb,
                codec: cfg.codec,
                stream,
            }
        }
    };
    Ok(CompressedDataset {
        name: ds.name().to_string(),
        finest_dim: ds.finest_dim(),
        dtype: T::DTYPE,
        masks,
        body,
    })
}

/// Checks the geometry every decode arm trusts when it sizes grids and
/// walks masks by `finest_dim >> l`: at least one level, no level
/// shifted down to zero cells, and one mask bit per cell of each level.
/// `from_bytes` guarantees all of it; a hand-built container (every
/// field is public) does not, so the products are checked.
fn check_geometry(finest_dim: usize, masks: &[BitMask]) -> Result<(), TacError> {
    if masks.is_empty() {
        return Err(TacError::Corrupt("container has no levels".into()));
    }
    for (l, mask) in masks.iter().enumerate() {
        let dim = level_dim(finest_dim, l);
        let cells = dim.checked_mul(dim).and_then(|s| s.checked_mul(dim));
        if dim == 0 || cells != Some(mask.len()) {
            return Err(TacError::Corrupt(format!(
                "level {l} of a finest dim of {finest_dim}: {dim}^3 cells, {} mask bits",
                mask.len()
            )));
        }
    }
    Ok(())
}

/// Decompresses a container back into an AMR dataset on the
/// block-sharded engine: every level's streams and region groups — and
/// every segment of a zMesh or 1D body — decode as independent
/// `tac-par` tasks ([`Parallelism::Serial`] runs them inline). The
/// reconstruction is identical for every worker count. A container whose
/// declared element type disagrees with `T` is rejected up front with
/// [`CodecError::WrongDtype`].
pub fn decompress_dataset_par_t<T: CodecElement>(
    cd: &CompressedDataset,
    parallelism: Parallelism,
) -> Result<AmrDataset<T>, TacError> {
    if cd.dtype != T::DTYPE {
        return Err(TacError::Codec(CodecError::WrongDtype {
            stream: cd.dtype.label(),
            requested: T::DTYPE.label(),
        }));
    }
    let body = match &cd.body {
        MethodBody::Tac(levels) => Body::Tac(levels),
        MethodBody::Baseline1D(levels) => {
            if levels.len() != cd.masks.len() {
                return Err(TacError::Corrupt("level count mismatch".into()));
            }
            Body::Stacks(StackSegments::of_1d(cd.finest_dim, levels)?)
        }
        MethodBody::ZMesh {
            codec, segments, ..
        } => Body::Stacks(vec![StackSegments::all(
            0..cd.masks.len(),
            cd.finest_dim,
            *codec,
            segments,
        )?]),
        MethodBody::Baseline3D { stream, codec, .. } => Body::Uniform(*codec, stream),
    };
    // The container is borrowed: its masks are cloned into the levels.
    let masks = cd.masks.clone();
    let levels = decompress_dataset_in(cd.finest_dim, masks, body, parallelism.workers(), None)?;
    Ok(AmrDataset::new(cd.name.clone(), levels))
}

/// What a decode writes into the level grids: TAC levels, zMesh / 1D
/// stacks of any subset of their segments, or the 3D uniform stream.
pub(crate) enum Body<'a> {
    Tac(&'a [CompressedLevel]),
    Stacks(Vec<StackSegments<'a>>),
    Uniform(CodecId, &'a [u8]),
}

impl Body<'_> {
    /// How the body's tasks write level `l`, of side `dim`: the z-plane
    /// ranges its grid is cut into.
    fn cuts(&self, l: usize, dim: usize) -> Vec<Range<usize>> {
        match self {
            // The regions of different groups share planes: one slab per
            // plane.
            Body::Tac(_) => (0..dim).map(|z| z..z + 1).collect(),
            // A segment owns its planes, scaled to the level.
            Body::Stacks(stacks) => {
                let cuts = stacks.iter().find(|s| s.levels.contains(&l)).map(|s| {
                    let scale = refinement(s.levels.end - 1 - l).unwrap_or(usize::MAX);
                    let scaled = |planes: &Range<usize>| {
                        planes.start.saturating_mul(scale)..planes.end.saturating_mul(scale)
                    };
                    s.segments.iter().map(|s| scaled(&s.planes)).collect()
                });
                cuts.unwrap_or_default()
            }
            Body::Uniform(..) => std::iter::once(0..dim).collect(),
        }
    }
}

/// Decodes `body` into the levels `masks` describe, on `workers`
/// threads: the one place every decode's level grids are allocated, cut
/// for the body's tasks under each level's box of `clip` (a region read,
/// [`crate::roi::level_boxes`]; `None` is the full decode, and outside a
/// box every cell holds `+0.0` bits) and handed back as levels, which
/// take ownership of `masks`.
pub(crate) fn decompress_dataset_in<T: CodecElement>(
    finest_dim: usize,
    masks: Vec<BitMask>,
    body: Body<'_>,
    workers: usize,
    clip: Option<&[Aabb]>,
) -> Result<Vec<AmrLevel<T>>, TacError> {
    let _decompress = tac_obs::span(tac_obs::Stage::Decompress).arg("levels", masks.len());
    check_geometry(finest_dim, &masks)?;
    let dims: Vec<usize> = (0..masks.len()).map(|l| level_dim(finest_dim, l)).collect();
    let assemble = tac_obs::span(tac_obs::Stage::Assemble);
    // A zeroed `vec!` is one `alloc_zeroed`: a grid the allocator maps
    // fresh costs no page until a task writes one, while a grid it
    // recycles from its heap is cleared up front. Either way the arms
    // below rely on every cell starting as `+0.0` bits.
    let mut cells: Vec<Vec<T>> = masks.iter().map(|m| vec![T::ZERO; m.len()]).collect();
    let grids = (cells.iter_mut().zip(&dims).enumerate())
        .map(|(l, (cells, &dim))| {
            let clip = clip.and_then(|boxes| boxes.get(l)).copied();
            SlabGrid::new(cells, dim, body.cuts(l, dim), clip)
        })
        .collect::<Result<Vec<_>, _>>()?;
    drop(assemble);
    match &body {
        Body::Tac(levels) => engine::decompress_tac_levels(levels, &masks, &grids, workers)?,
        Body::Stacks(stacks) => {
            segment::decompress_stacks(&masks, finest_dim, stacks, &grids, workers)?
        }
        Body::Uniform(codec, stream) => fill_uniform(finest_dim, &masks, *codec, stream, &grids)?,
    }
    drop(grids);
    let _assemble = tac_obs::span(tac_obs::Stage::Assemble);
    Ok((cells.into_iter().zip(masks).zip(dims))
        .map(|((data, mask), dim)| AmrLevel::new(dim, data, mask))
        .collect())
}

/// The 3D baseline's arm: every present cell samples the first fine
/// position it covers (the inverse of piecewise-constant up-sampling).
fn fill_uniform<T: CodecElement>(
    finest_dim: usize,
    masks: &[BitMask],
    codec: CodecId,
    stream: &[u8],
    grids: &[SlabGrid<'_, T>],
) -> Result<(), TacError> {
    let n = finest_dim;
    tac_obs::add(tac_obs::Counter::ChunksDecoded, 1u64);
    tac_obs::add(tac_obs::Counter::PayloadBytesIn, stream.len());
    let (uniform, dims) = {
        let _decode = tac_obs::span(tac_obs::Stage::Decode).arg("codec", codec.tag());
        T::codec_decompress(codec_for(codec), stream)?
    };
    if dims != Dims::D3(n, n, n) {
        return Err(TacError::Corrupt(format!(
            "3D baseline stream dims {dims:?} for finest dim {n}"
        )));
    }
    let _reorder = tac_obs::span(tac_obs::Stage::Reorder);
    for (l, (mask, grid)) in masks.iter().zip(grids).enumerate() {
        let (dim, scale) = (grid.dim(), 1usize << l);
        let outside = || {
            TacError::Corrupt(format!(
                "level {l}: a present cell lies outside the {n}^3 grid"
            ))
        };
        // The whole grid, or the rows of a region read's box, in its one slab.
        let spans = (grid.clip().is_none().then_some(0..mask.len()).into_iter())
            .chain(grid.clip().into_iter().flat_map(|b| box_rows(b, dim)));
        let mut slab = grid.lock(0)?;
        let mut filled = 0;
        for (start, len) in spans.flat_map(|s| mask.runs_in(s.start, s.len())) {
            let cells = (slab.cells.get_mut(start..))
                .and_then(|d| d.get_mut(..len))
                .ok_or_else(outside)?;
            for (idx, cell) in (start..).zip(cells) {
                let (x, y, z) = (idx % dim, idx / dim % dim, idx / (dim * dim));
                *cell = *uniform
                    .get(x * scale + n * (y * scale + n * (z * scale)))
                    .ok_or_else(outside)?;
            }
            filled += len;
        }
        tac_obs::add(tac_obs::Counter::ReorderValues, filled);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;
    use crate::stream::LevelPayload;
    use crate::zmesh::{scatter_walk, ALL_PLANES};

    /// Builds a two-level dataset with a blobby fine region (~30% fine
    /// density) and smooth values.
    fn blobby_dataset(fine_dim: usize) -> AmrDataset {
        let coarse_dim = fine_dim / 2;
        let mut fine = AmrLevel::empty(fine_dim);
        let mut coarse = AmrLevel::empty(coarse_dim);
        let c = fine_dim as f64 / 2.0;
        for z in 0..coarse_dim {
            for y in 0..coarse_dim {
                for x in 0..coarse_dim {
                    let (fx, fy, fz) = (2 * x, 2 * y, 2 * z);
                    let dist = ((fx as f64 - c).powi(2)
                        + (fy as f64 - c).powi(2)
                        + (fz as f64 - c).powi(2))
                    .sqrt();
                    if dist < fine_dim as f64 * 0.33 {
                        for dz in 0..2 {
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let (px, py, pz) = (fx + dx, fy + dy, fz + dz);
                                    let v = ((px as f64) * 0.3).sin()
                                        + ((py as f64) * 0.2).cos()
                                        + pz as f64 * 0.05
                                        + 5.0;
                                    fine.set_value(px, py, pz, v);
                                }
                            }
                        }
                    } else {
                        let v = ((x as f64) * 0.3).sin() + y as f64 * 0.01 + 3.0;
                        coarse.set_value(x, y, z, v);
                    }
                }
            }
        }
        let ds = AmrDataset::new("blobby", vec![fine, coarse]);
        ds.validate().unwrap();
        ds
    }

    fn check_level_bound(orig: &AmrLevel, recon: &AmrLevel, eb: f64) {
        assert_eq!(orig.dim(), recon.dim());
        for i in orig.mask().iter_ones() {
            let (a, b) = (orig.data()[i], recon.data()[i]);
            assert!((a - b).abs() <= eb * (1.0 + 1e-9), "cell {i}: {a} vs {b}");
        }
        // Absent cells reconstruct to exactly zero.
        for i in 0..orig.num_cells() {
            if !orig.mask().get(i) {
                assert_eq!(recon.data()[i], 0.0);
            }
        }
    }

    #[test]
    fn every_strategy_roundtrips_a_level() {
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            parallelism: Parallelism::Threads(2),
            ..Default::default()
        };
        let eb = 1e-3;
        for strategy in [
            Strategy::ZeroFill,
            Strategy::NaST,
            Strategy::OpST,
            Strategy::AkdTree,
            Strategy::Gsp,
        ] {
            for level in ds.levels() {
                let cl = compress_level_t(level, strategy, eb, &cfg).unwrap();
                let out = decompress_level_t::<f64>(&cl, level.mask()).unwrap();
                check_level_bound(level, &out, eb);
            }
        }
    }

    #[test]
    fn level_decode_equals_dataset_decode_for_every_strategy_and_codec() {
        let ds = blobby_dataset(16);
        let masks: Vec<BitMask> = ds.levels().iter().map(|l| l.mask().clone()).collect();
        for codec in CodecId::all() {
            let cfg = TacConfig {
                unit: 4,
                codec,
                ..Default::default()
            };
            for strategy in [
                Strategy::ZeroFill,
                Strategy::NaST,
                Strategy::OpST,
                Strategy::AkdTree,
                Strategy::Gsp,
            ] {
                let levels: Vec<CompressedLevel> = ds
                    .levels()
                    .iter()
                    .map(|level| compress_level_t(level, strategy, 1e-3, &cfg).unwrap())
                    .collect();
                let cd = CompressedDataset {
                    name: ds.name().to_string(),
                    finest_dim: ds.finest_dim(),
                    dtype: TacDtype::F64,
                    masks: masks.clone(),
                    body: MethodBody::Tac(levels.clone()),
                };
                let whole = decompress_dataset_par_t::<f64>(&cd, Parallelism::Threads(2)).unwrap();
                for (l, (cl, mask)) in levels.iter().zip(&masks).enumerate() {
                    let single = decompress_level_t::<f64>(cl, mask).unwrap();
                    let bits = |lvl: &AmrLevel| -> Vec<u64> {
                        lvl.data().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&single),
                        bits(&whole.levels()[l]),
                        "{strategy:?}/{codec} level {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_level_roundtrips() {
        let level = AmrLevel::<f64>::empty(8);
        let cfg = TacConfig::default();
        let cl = compress_level_t(&level, Strategy::Empty, 1.0, &cfg).unwrap();
        assert_eq!(cl.payload, LevelPayload::Empty);
        let out = decompress_level_t::<f64>(&cl, level.mask()).unwrap();
        assert_eq!(out.num_present(), 0);
    }

    /// An `Empty` payload over present cells used to decode to silent
    /// zeros. A full decode refuses it; a region read, which leaves the
    /// whole-level streams it skips `Empty`, is held by the parse
    /// instead.
    #[test]
    fn an_empty_payload_over_present_cells_is_refused_on_full_decode() {
        let ds = blobby_dataset(16);
        let mut cd = compress_dataset_t(&ds, &TacConfig::default(), Method::Tac).unwrap();
        let MethodBody::Tac(levels) = &mut cd.body else {
            panic!("not a TAC body")
        };
        levels[1].payload = LevelPayload::Empty;
        let coarse = levels[1].clone();
        let why = "marked empty but mask has";
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let err = decompress_dataset_par_t::<f64>(&cd, parallelism).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }
        let err = decompress_level_t::<f64>(&coarse, &cd.masks[1]).unwrap_err();
        assert!(err.to_string().contains(why), "{err}");
    }

    #[test]
    fn dataset_roundtrip_all_methods_and_codecs() {
        let ds = blobby_dataset(16);
        for codec in tac_codec::CodecId::all() {
            let cfg = TacConfig {
                unit: 4,
                error_bound: ErrorBound::Abs(1e-3),
                parallelism: Parallelism::Threads(2),
                codec,
                ..Default::default()
            };
            for method in [
                Method::Tac,
                Method::Baseline1D,
                Method::ZMesh,
                Method::Baseline3D,
            ] {
                let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
                assert_eq!(cd.method(), method);
                let bytes = cd.to_bytes();
                let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
                assert_eq!(parsed, cd, "{method:?}/{codec} reparse");
                let out = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
                assert_eq!(out.num_levels(), ds.num_levels());
                for (a, b) in ds.levels().iter().zip(out.levels()) {
                    check_level_bound(a, b, 1e-3);
                }
            }
        }
    }

    #[test]
    fn zmesh_stream_one_value_short_or_long_is_corrupt() {
        // The decoder holds the stream to the traversal length: a stream
        // of any other length is an error, never a panic or a partly
        // filled `Ok`.
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::ZMesh).unwrap();
        let n = ds.total_present();
        let values: Vec<f64> = (0..n + 1).map(|i| (i as f64 * 0.01).sin()).collect();
        for len in [n - 1, n + 1] {
            let stream = f64::codec_compress(
                codec_for(cfg.codec),
                &values[..len],
                Dims::D1(len),
                &CodecConfig::abs(1e-3),
            )
            .unwrap();
            let bad = CompressedDataset {
                body: MethodBody::ZMesh {
                    abs_eb: 1e-3,
                    codec: cfg.codec,
                    segments: vec![Segment {
                        plane_end: 8,
                        stream,
                    }],
                },
                ..cd.clone()
            };
            for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                let err = decompress_dataset_par_t::<f64>(&bad, parallelism).unwrap_err();
                assert!(matches!(err, TacError::Corrupt(_)), "{len} values: {err}");
            }
        }
        decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
    }

    #[test]
    fn baseline_1d_scatters_by_runs_like_the_per_bit_zip() {
        // A ragged mask: runs of every length, some crossing 64-bit
        // words, one ending at the very last cell.
        let dim = 6;
        let mut level = AmrLevel::<f64>::empty(dim);
        for i in 0..dim * dim * dim {
            if i % 11 < 7 || (60..70).contains(&i) || i >= 200 {
                let bits = 0x7FF8_0000_0000_0000 | i as u64; // NaN payloads
                let v = if i % 5 == 0 {
                    f64::from_bits(bits)
                } else {
                    -(i as f64)
                };
                level.set_value(i % dim, i / dim % dim, i / dim / dim, v);
            }
        }
        level.clear_cell(0, 0, 0);
        let values = level.present_values();
        let per_bit: Vec<u64> = level
            .mask()
            .iter_ones()
            .map(|i| level.data()[i].to_bits())
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&values), per_bit);

        let mut expect = vec![0.0f64; level.num_cells()];
        for (slot, &v) in level.mask().iter_ones().zip(&values) {
            expect[slot] = v;
        }
        let mut data = vec![0.0f64; level.num_cells()];
        scatter_walk(
            &[level.mask()],
            dim,
            ALL_PLANES,
            &values,
            &mut [(0, data.as_mut_slice())],
            &[],
        )
        .unwrap();
        assert_eq!(bits(&data), bits(&expect));
        assert_eq!(bits(&data), bits(level.data()));

        // And through the 1D arm itself, losslessly enough to compare.
        let ds = AmrDataset::new("ragged", vec![level.clone()]);
        let cfg = TacConfig {
            error_bound: ErrorBound::Abs(1e-9),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Baseline1D).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        for (i, (a, b)) in level.data().iter().zip(out.levels()[0].data()).enumerate() {
            if a.is_nan() {
                assert_eq!(a.to_bits(), b.to_bits(), "cell {i}");
            } else {
                assert!((a - b).abs() <= 1e-9, "cell {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rel_bound_cannot_resolve_without_a_range() {
        // The historic bug: Rel + range None silently resolved against
        // (0.0, 0.0) and produced a degenerate bound. It must error now.
        let err =
            resolve_level_eb_for(TacDtype::F64, ErrorBound::Rel(1e-3), 1.0, None).unwrap_err();
        assert!(matches!(err, TacError::InvalidDataset(_)), "{err}");
        // Absolute bounds never read the range.
        assert_eq!(
            resolve_level_eb_for(TacDtype::F64, ErrorBound::Abs(0.5), 2.0, None).unwrap(),
            1.0
        );
    }

    #[test]
    fn empty_level_compresses_under_a_relative_bound() {
        // A dataset with an all-empty coarsest level must still compress
        // with Rel bounds: the Empty strategy skips bound resolution.
        let fine = AmrLevel::dense(8, (0..512).map(|i| i as f64).collect());
        let empty = AmrLevel::empty(4);
        let ds = AmrDataset::new("with-empty", vec![fine, empty]);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        if let MethodBody::Tac(levels) = &cd.body {
            assert_eq!(levels[1].strategy, Strategy::Empty);
            assert_eq!(levels[1].abs_eb, EMPTY_LEVEL_EB);
        } else {
            panic!("expected TAC body");
        }
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        assert_eq!(out.levels()[1].num_present(), 0);
    }

    #[test]
    fn tac_picks_strategies_by_density() {
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let strategies = cd.strategies().unwrap();
        // Fine level ~25% dense -> OpST; coarse level ~75% -> GSP.
        assert_eq!(
            strategies[0],
            Strategy::OpST,
            "fine density {}",
            ds.densities()[0]
        );
        assert_eq!(
            strategies[1],
            Strategy::Gsp,
            "coarse density {}",
            ds.densities()[1]
        );
    }

    #[test]
    fn per_level_error_bounds_scale() {
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            level_eb_scale: vec![3.0, 1.0],
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        if let MethodBody::Tac(levels) = &cd.body {
            assert!((levels[0].abs_eb - 3e-3).abs() < 1e-12);
            assert!((levels[1].abs_eb - 1e-3).abs() < 1e-12);
        } else {
            panic!("expected TAC body");
        }
        // Bounds hold per level.
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        check_level_bound(&ds.levels()[0], &out.levels()[0], 3e-3);
        check_level_bound(&ds.levels()[1], &out.levels()[1], 1e-3);
    }

    #[test]
    fn adaptive_switch_selects_3d_for_dense_finest() {
        let fine = AmrLevel::dense(8, vec![1.0; 512]);
        let ds = AmrDataset::new("dense", vec![fine]);
        assert_eq!(select_method(&ds), Method::Baseline3D);
        let sparse = blobby_dataset(16);
        assert_eq!(select_method(&sparse), Method::Tac);
    }

    #[test]
    fn relative_bounds_resolve_per_level() {
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        if let MethodBody::Tac(levels) = &cd.body {
            for (cl, lvl) in levels.iter().zip(ds.levels()) {
                let (min, max) = lvl.value_range().unwrap();
                assert!((cl.abs_eb - 1e-3 * (max - min)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn opst_beats_nast_on_sparse_data() {
        // Fig. 7's claim: merging unit blocks into maximal cubes (OpST)
        // costs no more than shipping every unit block separately (NaST) —
        // fewer origins, fewer boundary cells.
        let ds = blobby_dataset(32);
        let fine = &ds.levels()[0];
        let cfg = TacConfig {
            unit: 4,
            ..Default::default()
        };
        let eb = 1e-3;
        let nast = compress_level_t(fine, Strategy::NaST, eb, &cfg).unwrap();
        let opst = compress_level_t(fine, Strategy::OpST, eb, &cfg).unwrap();
        assert!(
            opst.total_bytes() <= nast.total_bytes(),
            "OpST {} vs NaST {}",
            opst.total_bytes(),
            nast.total_bytes()
        );
        // And OpST extracts strictly fewer regions.
        let count = |cl: &CompressedLevel| match &cl.payload {
            LevelPayload::Groups(gs) => gs.iter().map(|g| g.origins.len()).sum::<usize>(),
            _ => 0,
        };
        assert!(count(&opst) < count(&nast));
    }

    #[test]
    fn f32_dataset_roundtrip_all_methods_and_codecs() {
        let ds = blobby_dataset(16).cast::<f32>();
        let eb = 1e-3f32;
        for codec in tac_codec::CodecId::all() {
            let cfg = TacConfig {
                unit: 4,
                error_bound: ErrorBound::Abs(1e-3),
                parallelism: Parallelism::Threads(2),
                codec,
                ..Default::default()
            };
            for method in [
                Method::Tac,
                Method::Baseline1D,
                Method::ZMesh,
                Method::Baseline3D,
            ] {
                let cd = compress_dataset_t(&ds, &cfg, method).unwrap();
                assert_eq!(cd.dtype, TacDtype::F32);
                let bytes = cd.to_bytes();
                let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
                assert_eq!(parsed, cd, "{method:?}/{codec} reparse");
                let out = decompress_dataset_par_t::<f32>(&parsed, Parallelism::Serial).unwrap();
                assert_eq!(out.num_levels(), ds.num_levels());
                for (a, b) in ds.levels().iter().zip(out.levels()) {
                    for i in a.mask().iter_ones() {
                        let (x, y) = (a.data()[i], b.data()[i]);
                        assert!(
                            (x - y).abs() <= eb * (1.0 + 1e-5),
                            "{method:?}/{codec} cell {i}: {x} vs {y}"
                        );
                    }
                    for i in 0..a.num_cells() {
                        if !a.mask().get(i) {
                            assert_eq!(b.data()[i], 0.0);
                        }
                    }
                }
                // Decoding at the wrong width must be refused, not
                // misinterpreted.
                assert!(matches!(
                    decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial),
                    Err(TacError::Codec(CodecError::WrongDtype { .. }))
                ));
            }
        }
    }

    #[test]
    fn f64_containers_refuse_f32_decode() {
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        assert!(matches!(
            decompress_dataset_par_t::<f32>(&cd, Parallelism::Serial),
            Err(TacError::Codec(CodecError::WrongDtype { .. }))
        ));
        assert_eq!(cd.dtype, TacDtype::F64);
    }

    #[test]
    fn f32_relative_bound_over_tiny_range_is_degenerate() {
        // Range 1e-30 wide at rel 1e-16 resolves to abs 1e-46: positive
        // in f64 working precision, but below f32's smallest subnormal —
        // the quantizer step would be zero and the bound a lie.
        let tiny = Some((0.0, 1e-30));
        let err =
            resolve_level_eb_for(TacDtype::F32, ErrorBound::Rel(1e-16), 1.0, tiny).unwrap_err();
        assert!(matches!(err, TacError::DegenerateBound { .. }), "{err}");
        assert!(err.to_string().contains("underflows f32"), "{err}");
        // The same bound is representable at f64...
        assert!(
            resolve_level_eb_for(TacDtype::F64, ErrorBound::Rel(1e-16), 1.0, tiny).unwrap() > 0.0
        );
        // ...and an ordinary bound is fine at f32.
        assert_eq!(
            resolve_level_eb_for(TacDtype::F32, ErrorBound::Abs(0.5), 2.0, None).unwrap(),
            1.0
        );
    }

    #[test]
    fn auto_roundtrips_and_reports_a_concrete_method() {
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            parallelism: Parallelism::Threads(2),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Auto).unwrap();
        assert_ne!(cd.method(), Method::Auto, "Auto never hits the wire");
        let bytes = cd.to_bytes();
        let parsed = CompressedDataset::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, cd);
        let out = decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).unwrap();
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            check_level_bound(a, b, 1e-3);
        }
        // Selection is deterministic and serial: Auto output is
        // byte-identical for every worker count.
        let reference = cd.to_bytes();
        for workers in [1usize, 2, 4, 8] {
            let cfg_w = TacConfig {
                parallelism: Parallelism::Threads(workers),
                ..cfg.clone()
            };
            let cd_w = compress_dataset_t(&ds, &cfg_w, Method::Auto).unwrap();
            assert_eq!(cd_w.to_bytes(), reference, "{workers} workers");
        }
    }

    #[test]
    fn f32_auto_roundtrips_through_the_v4_wire() {
        let ds = blobby_dataset(16).cast::<f32>();
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Auto).unwrap();
        assert_eq!(cd.dtype, TacDtype::F32);
        assert_ne!(cd.method(), Method::Auto);
        let parsed = CompressedDataset::from_bytes(&cd.to_bytes()).unwrap();
        let out = decompress_dataset_par_t::<f32>(&parsed, Parallelism::Serial).unwrap();
        for (a, b) in ds.levels().iter().zip(out.levels()) {
            for i in a.mask().iter_ones() {
                let (x, y) = (a.data()[i], b.data()[i]);
                assert!((x - y).abs() <= 1e-3 * (1.0 + 1e-5), "cell {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn auto_on_an_empty_dataset_stores_nothing() {
        // Degenerate input: every level empty. zMesh cannot compress it;
        // the selection must fall back to a method that can.
        let ds: AmrDataset = AmrDataset::new("void", vec![AmrLevel::empty(8), AmrLevel::empty(4)]);
        let cfg = TacConfig::default();
        let cd = compress_dataset_t(&ds, &cfg, Method::Auto).unwrap();
        let out = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
        assert!(out.levels().iter().all(|l| l.num_present() == 0));
    }

    #[test]
    fn f32_pipeline_rejects_underflowing_relative_bounds() {
        // Values spanning ~5e-31: an f32-representable range whose
        // resolved rel-1e-16 bound underflows f32.
        let data: Vec<f32> = (0..512).map(|i| (i as f32) * 1e-33).collect();
        let ds = AmrDataset::new("tiny-range", vec![AmrLevel::dense(8, data)]);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(1e-16),
            ..Default::default()
        };
        let err = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap_err();
        assert!(matches!(err, TacError::DegenerateBound { .. }), "{err}");
        // The identical f64 dataset compresses fine.
        let data64: Vec<f64> = (0..512).map(|i| (i as f64) * 1e-33).collect();
        let ds64 = AmrDataset::new("tiny-range", vec![AmrLevel::dense(8, data64)]);
        compress_dataset_t(&ds64, &cfg, Method::Tac).unwrap();
    }

    #[test]
    fn forced_empty_is_rejected_instead_of_dropping_the_data() {
        // Forcing `Empty` used to compress `Ok` and store no value at
        // all: the decode came back all `+0.0` and the container's
        // parse failed on the level "marked empty" over a non-empty mask.
        let ds = blobby_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            ..TacConfig::default().with_strategy(Strategy::Empty)
        };
        for err in [
            cfg.validate().unwrap_err(),
            compress_dataset_t(&ds, &cfg, Method::Tac).unwrap_err(),
        ] {
            assert!(matches!(err, TacError::InvalidConfig(_)), "{err}");
        }
        // The per-level entry point takes its strategy as an argument.
        let fine = &ds.levels()[0];
        let err = compress_level_t(fine, Strategy::Empty, 1e-3, &TacConfig::default()).unwrap_err();
        assert!(matches!(err, TacError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("drop"), "{err}");
    }

    /// `ds` compressed with `method` at `workers`, its ranges scanned in
    /// range tasks of `chunk` cells.
    fn compress_chunked<T: CodecElement>(
        ds: &AmrDataset<T>,
        cfg: &TacConfig,
        method: Method,
        workers: usize,
        chunk: usize,
    ) -> Vec<u8> {
        let cfg = TacConfig {
            parallelism: Parallelism::Threads(workers),
            ..cfg.clone()
        };
        (compress_with(ds, &cfg, method, Ranges::Scan(chunk)).unwrap()).to_bytes()
    }

    fn multi_chunk_writes_match<T: CodecElement>() {
        // Relative bounds, so every level's bound reads its merged range;
        // `-0.0` and `+0.0` among the present values.
        let mut levels = blobby_dataset(16).levels().to_vec();
        for level in &mut levels {
            for (i, v) in level.data_mut().iter_mut().enumerate() {
                if *v != 0.0 && i % 37 == 0 {
                    *v = if i % 2 == 0 { -0.0 } else { 0.0 };
                }
            }
        }
        let ds = AmrDataset::new("signed-zeros", levels).cast::<T>();
        let base = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(1e-3),
            codec: CodecId::PcoAns,
            ..Default::default()
        };
        let forced = [
            Strategy::ZeroFill,
            Strategy::NaST,
            Strategy::OpST,
            Strategy::AkdTree,
            Strategy::Gsp,
        ];
        let mut runs: Vec<(String, TacConfig, Method)> = forced
            .into_iter()
            .map(|s| {
                (
                    format!("Tac/{s:?}"),
                    base.clone().with_strategy(s),
                    Method::Tac,
                )
            })
            .collect();
        for method in [Method::Tac, Method::Baseline1D, Method::ZMesh, Method::Auto] {
            runs.push((format!("{method:?}"), base.clone(), method));
        }
        // Density-picked levels cut into slabs and tiles too.
        runs.push((
            "Tac/tiled".into(),
            base.clone().with_roi_tile(4),
            Method::Tac,
        ));
        for (what, cfg, method) in runs {
            let what = format!("{what}/{}", T::DTYPE.label());
            let reference = compress_chunked(&ds, &cfg, method, 1, RANGE_CHUNK);
            // One plane of either level, two planes of the 16^3 level and
            // six of the 8^3 one per range task: every level spans
            // several chunks.
            for chunk in [1, 512, 384] {
                for workers in [1, 2, 4, 8] {
                    // `assert!`, not `assert_eq!`: no container dump.
                    assert!(
                        compress_chunked(&ds, &cfg, method, workers, chunk) == reference,
                        "{what}: chunk {chunk}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_chunk_plans_write_identical_bytes_at_every_worker_count() {
        multi_chunk_writes_match::<f64>();
        multi_chunk_writes_match::<f32>();
    }

    #[test]
    fn multi_chunk_ranges_equal_value_range() {
        // Planes of 196 and 49 cells: chunk edges off the mask words.
        let ds = blobby_dataset(14);
        let bits = |ranges: &LevelRanges| -> Vec<Option<(u64, u64)>> {
            let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
            ranges.iter().map(|r| r.map(bits)).collect()
        };
        let whole: Vec<_> = ds.levels().iter().map(AmrLevel::value_range).collect();
        for workers in [1, 2, 4] {
            let cfg = TacConfig::default().with_parallelism(Parallelism::Threads(workers));
            for chunk in [1, 100, 256, RANGE_CHUNK] {
                let (ranges, structures) = plan_batch(&ds, &cfg, Ranges::Scan(chunk), false);
                let what = format!("chunk {chunk}, {workers} workers");
                assert_eq!(bits(&ranges), bits(&whole), "{what}");
                assert!(structures.is_empty());
            }
        }
    }

    /// The level-by-level plan the batch replaced: per level, strategy,
    /// bound, then structure. Its first error is the one to match.
    fn level_by_level<T: CodecElement>(
        ds: &AmrDataset<T>,
        cfg: &TacConfig,
    ) -> Result<Vec<(Strategy, f64)>, TacError> {
        let mut plans = Vec::new();
        for (l, level) in ds.levels().iter().enumerate() {
            let strategy = choose_strategy(level, cfg);
            let abs_eb = match strategy {
                Strategy::Empty => EMPTY_LEVEL_EB,
                _ => resolve_level_eb_for(
                    T::DTYPE,
                    cfg.error_bound,
                    cfg.level_scale(l),
                    level.value_range(),
                )?,
            };
            engine::plan_level(level, strategy, cfg)?;
            plans.push((strategy, abs_eb));
        }
        Ok(plans)
    }

    #[test]
    fn the_first_plan_error_is_the_level_by_level_one() {
        // Level kinds, f32: a sparse smooth level, a dense one (ZeroFill
        // needs no unit), an empty one, a sparse one holding +inf (its
        // relative bound is `NonFinite`) and a sparse one spanning ~1e-30
        // (its bound underflows f32: `DegenerateBound`). A zero unit —
        // which `validate` would refuse, so the plan is called directly —
        // fails the structure of every sparse level.
        let level = |kind: &str, dim: usize| {
            let mut lvl = AmrLevel::<f32>::empty(dim);
            for i in 0..dim * dim * dim {
                let v = match kind {
                    "dense" => 1.0 + (i as f32 * 0.1).sin(),
                    "inf" if i == 5 => f32::INFINITY,
                    "tiny" => i as f32 * 1e-33,
                    "empty" => continue,
                    _ if i % 3 == 0 => continue,
                    _ => 2.0 + (i as f32 * 0.3).cos(),
                };
                lvl.set_value(i % dim, i / dim % dim, i / dim / dim, v);
            }
            lvl
        };
        let scenarios: [(&[&str], usize); 6] = [
            (&["inf", "tiny", "good"], 0),
            (&["good", "inf", "tiny"], 0),
            (&["dense", "tiny", "inf"], 0),
            (&["dense", "empty", "inf", "tiny"], 4),
            (&["good", "tiny", "inf", "good"], 4),
            (&["dense", "empty", "good", "good"], 0),
        ];
        for (kinds, unit) in scenarios {
            let levels = (kinds.iter().enumerate())
                .map(|(l, kind)| level(kind, 16 >> l))
                .collect();
            let ds = AmrDataset::new("bad", levels);
            let expected = level_by_level(
                &ds,
                &TacConfig {
                    unit,
                    error_bound: ErrorBound::Rel(1e-16),
                    ..Default::default()
                },
            )
            .unwrap_err();
            for workers in [1, 2, 4] {
                let cfg = TacConfig {
                    unit,
                    error_bound: ErrorBound::Rel(1e-16),
                    parallelism: Parallelism::Threads(workers),
                    ..Default::default()
                };
                for chunk in [1, RANGE_CHUNK] {
                    let err = plan_tac_levels(&ds, &cfg, Ranges::Scan(chunk), &[]).unwrap_err();
                    assert_eq!(
                        std::mem::discriminant(&err),
                        std::mem::discriminant(&expected),
                        "{kinds:?}, unit {unit}: {err} vs {expected}"
                    );
                    assert_eq!(err.to_string(), expected.to_string(), "{kinds:?}");
                }
            }
        }
        // Without a bad level both plan alike.
        let ds = AmrDataset::new("good", vec![level("good", 16), level("dense", 8)]);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Rel(1e-3),
            ..Default::default()
        };
        let plans = plan_tac_levels(&ds, &cfg, Ranges::Scan(1), &[]).unwrap();
        let planned: Vec<_> = plans.iter().map(|p| (p.strategy, p.abs_eb)).collect();
        assert_eq!(planned, level_by_level(&ds, &cfg).unwrap());
    }
}
