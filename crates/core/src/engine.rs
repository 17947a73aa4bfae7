//! The block-sharded parallel compression engine.
//!
//! TAC's pipeline splits naturally into three phases:
//!
//! 1. **Plan** (one parallel batch, then a short serial pass): the
//!    write's plan runs as one `tac-par` batch
//!    ([`crate::pipeline`]) of *range tasks* — the present-cell min/max
//!    of a fixed chunk of whole z-planes of a level — and one
//!    *structure task* per level, which picks the strategy by density
//!    and runs [`plan_level`]: the partition planner (OpST / AKDTree /
//!    NaST region extraction grouped into compression jobs, dense
//!    z-slabs for ZeroFill and GSP), none of which needs a bound. The
//!    driver then merges each level's chunk ranges and resolves the
//!    bounds in level order, so the first error is the one a
//!    level-by-level plan meets. This mirrors TAC+'s observation that
//!    the partitioning stage can be pre-planned before any compression
//!    runs.
//! 2. **Execute** (parallel): flatten every job across every level into
//!    one task list and run it on `tac-par`, heaviest first by cell
//!    count, each worker taking the next task. Each task is an
//!    independent scalar-codec compression (or decompression) of one
//!    whole-grid buffer or one region group, dispatched through the
//!    configured [`tac_codec::ScalarCodec`] backend.
//! 3. **Assemble** (serial, cheap): collect the compressed streams back
//!    into per-level payloads in plan order. The decode side has no such
//!    tail. Its level grids are allocated, cut and handed back by the
//!    one owner every decode arm shares
//!    ([`crate::pipeline::decompress_dataset_in`]); a TAC level arrives
//!    as a [`SlabGrid`] of one locked slab per z-plane, already holding
//!    `+0.0` bits, and every decode task stores the present cells of
//!    what it decoded straight into it, under the lock of the plane a
//!    row lies on ([`paste_group`]): a region row with no present cell
//!    is never written, so a sparse level costs its present cells, not
//!    its region volume — pasting is where a fresh grid is first
//!    touched, page fault by page fault. Tasks run in no fixed order, so
//!    two regions over one cell, present or absent, would have no
//!    defined winner: each level's regions are checked against each
//!    other from their origin lists before the batch runs
//!    ([`check_regions`]), and an overlap is an error at any worker
//!    count.
//!
//! Because tasks are planned before execution and results are keyed by
//! task index, the assembled output is **byte-identical for every
//! worker count** — a serial run and an 8-thread run produce the same
//! container.

use crate::akdtree::plan_akdtree;
use crate::config::{Strategy, TacConfig};
use crate::error::TacError;
use crate::extract::{
    check_regions, compress_cells, compress_group, decode_group, paste_group, plan_groups,
    GroupPlan,
};
use crate::grid::SlabGrid;
use crate::nast::plan_nast;
use crate::opst::plan_opst;
use crate::stream::{BlockGroup, CompressedLevel, LevelPayload};
use tac_amr::{AmrLevel, BitMask, BlockGrid};
use tac_codec::{codec_for, CodecConfig, CodecElement, CodecError, CodecId, Dims};
use tac_dtype::Element;

/// Effective unit-block size for a level: the configured unit, clamped
/// down to the level dimension when the level is smaller than one unit.
///
/// # Errors
/// Rejects a degenerate result of zero (dimension-0 level or zero unit)
/// instead of letting `BlockGrid::build` panic downstream.
pub(crate) fn unit_for(dim: usize, unit: usize) -> Result<usize, TacError> {
    let effective = unit.min(dim);
    if effective == 0 {
        return Err(TacError::InvalidConfig(format!(
            "unit block size resolves to 0 (unit {unit}, level dim {dim})"
        )));
    }
    Ok(effective)
}

/// The planned work for one level.
#[derive(Debug)]
pub(crate) enum LevelWork {
    /// Nothing to compress.
    Empty,
    /// One whole-grid rank-3 stream.
    Whole,
    /// Region groups cut from the level, each an independent task.
    Groups(Vec<GroupPlan>),
}

/// A dense level's work. Under `roi_tile = Some(t)` with `t < dim`, one
/// group per z-slab — shape `(dim, dim, min(t, dim - z))` at origin
/// `(0, 0, z)` — so a region read decodes only the slabs its box meets;
/// otherwise one whole-grid stream, the bytes dense levels have always
/// had.
fn dense_work(dim: usize, tile: Option<usize>) -> LevelWork {
    let Some(tile) = tile.filter(|&t| 0 < t && t < dim) else {
        return LevelWork::Whole;
    };
    let slab = |z: usize| GroupPlan {
        shape: (dim, dim, tile.min(dim - z)),
        origins: vec![(0, 0, z)],
    };
    LevelWork::Groups((0..dim).step_by(tile).map(slab).collect())
}

/// A fully planned level, ready for the execute phase.
#[derive(Debug)]
pub(crate) struct LevelPlan {
    pub strategy: Strategy,
    pub dim: usize,
    /// The level's resolved bound. [`plan_level`] leaves it 0: the
    /// structure does not depend on it, so bounds resolve after planning.
    pub abs_eb: f64,
    /// Scalar codec every stream of this level compresses through.
    /// [`plan_level`] seeds it from the config; the `Method::Auto`
    /// selection pass may overwrite it per level before execution.
    pub codec: CodecId,
    pub work: LevelWork,
}

/// Plans one level's structure: partition planning and pre-processing,
/// no bound and no compression.
///
/// # Errors
/// [`Strategy::Empty`] over a level with present cells would drop them
/// and is a [`TacError::InvalidConfig`].
pub(crate) fn plan_level<T: Element>(
    level: &AmrLevel<T>,
    strategy: Strategy,
    cfg: &TacConfig,
) -> Result<LevelPlan, TacError> {
    let dim = level.dim();
    let work = match strategy {
        Strategy::Empty => match level.num_present() {
            0 => LevelWork::Empty,
            n => {
                return Err(TacError::InvalidConfig(format!(
                    "strategy Empty would drop the {n} present cells of a {dim}^3 level"
                )))
            }
        },
        Strategy::ZeroFill => dense_work(dim, cfg.roi_tile),
        // GSP's ghost shell fills only absent cells, which the writer
        // codes as don't-care: its stream is ZeroFill's, so it writes
        // the level as it is. Its unit block must still resolve.
        Strategy::Gsp => {
            unit_for(dim, cfg.unit)?;
            dense_work(dim, cfg.roi_tile)
        }
        Strategy::NaST => {
            let grid = BlockGrid::build(level, unit_for(dim, cfg.unit)?);
            let regions = plan_nast(&grid);
            LevelWork::Groups(plan_groups(&regions, cfg.roi_tile))
        }
        Strategy::OpST => {
            let unit = unit_for(dim, cfg.unit)?;
            let grid = BlockGrid::build(level, unit);
            let regions = plan_opst(&grid).regions(unit);
            LevelWork::Groups(plan_groups(&regions, cfg.roi_tile))
        }
        Strategy::AkdTree => {
            let unit = unit_for(dim, cfg.unit)?;
            let grid = BlockGrid::build(level, unit);
            let regions = plan_akdtree(&grid).regions(unit);
            LevelWork::Groups(plan_groups(&regions, cfg.roi_tile))
        }
    };
    Ok(LevelPlan {
        strategy,
        dim,
        abs_eb: 0.0,
        codec: cfg.codec,
        work,
    })
}

/// One flattened compression task (borrowing the plan, level data and
/// level mask).
struct CompressTask<'a, T: Element> {
    dim: usize,
    codec: CodecId,
    codec_cfg: CodecConfig,
    /// The level's flat array.
    data: &'a [T],
    /// The level's occupancy: its absent cells are don't-care.
    mask: &'a BitMask,
    /// The whole grid as one stream, or one region group.
    group: Option<&'a GroupPlan>,
}

impl<T: Element> CompressTask<'_, T> {
    fn cost(&self) -> u64 {
        match self.group {
            None => (self.dim * self.dim * self.dim) as u64,
            Some(p) => p.num_cells() as u64,
        }
    }
}

enum TaskOut {
    Stream(Vec<u8>),
    Group(BlockGroup),
}

/// Executes the planned levels on `workers` threads and assembles the
/// per-level compressed payloads in plan order. `level_data[i]` is the
/// flat array of the i-th planned level, read by every task of it, and
/// `masks[i]` its occupancy: every stream is coded with its absent
/// cells don't-care (their values never reach the bytes), since
/// decoding stores present cells only.
// tac-lint: allow(panic) -- encoder-only: in-memory plans, one task result per planned task in plan order, so every `expect` and arm holds by construction.
pub(crate) fn compress_plans<T: CodecElement>(
    plans: &[LevelPlan],
    level_data: &[&[T]],
    masks: &[&BitMask],
    workers: usize,
) -> Result<Vec<CompressedLevel>, TacError> {
    assert_eq!(plans.len(), level_data.len());
    assert_eq!(plans.len(), masks.len());
    // Flatten: tasks are generated level-major, groups in plan order, so
    // task index order is deterministic.
    let mut tasks: Vec<CompressTask<'_, T>> = Vec::new();
    for ((plan, &data), &mask) in plans.iter().zip(level_data).zip(masks) {
        let task = |group| CompressTask {
            dim: plan.dim,
            codec: plan.codec,
            codec_cfg: CodecConfig::abs(plan.abs_eb),
            data,
            mask,
            group,
        };
        match &plan.work {
            LevelWork::Empty => {}
            LevelWork::Whole => tasks.push(task(None)),
            LevelWork::Groups(groups) => tasks.extend(groups.iter().map(|g| task(Some(g)))),
        }
    }

    let results = tac_par::execute(
        workers,
        &tasks,
        CompressTask::cost,
        |t| -> Result<TaskOut, TacError> {
            let _encode = tac_obs::span(tac_obs::Stage::Encode)
                .arg("dim", t.dim)
                .arg("codec", t.codec.tag());
            let out = match t.group {
                None => {
                    let mut care = vec![false; t.data.len()];
                    let present = t.mask.flags_into(0, &mut care);
                    let dims = Dims::D3(t.dim, t.dim, t.dim);
                    let stream =
                        compress_cells(t.data, &care, present, dims, t.codec, &t.codec_cfg)?;
                    TaskOut::Stream(stream)
                }
                Some(plan) => TaskOut::Group(compress_group(
                    t.data,
                    t.mask,
                    t.dim,
                    plan,
                    t.codec,
                    &t.codec_cfg,
                )?),
            };
            if tac_obs::enabled() {
                let bytes = match &out {
                    TaskOut::Stream(stream) => stream.len(),
                    TaskOut::Group(group) => group.stream.len(),
                };
                tac_obs::add(tac_obs::Counter::ChunksEncoded, 1u64);
                tac_obs::add(tac_obs::Counter::PayloadBytesOut, bytes);
            }
            Ok(out)
        },
    );

    // Assemble in plan order, consuming results sequentially.
    let _assemble = tac_obs::span(tac_obs::Stage::Assemble);
    let mut out = Vec::with_capacity(plans.len());
    let mut next = results.into_iter();
    for plan in plans {
        let payload = match &plan.work {
            LevelWork::Empty => LevelPayload::Empty,
            LevelWork::Whole => match next.next().expect("missing whole-grid result")? {
                TaskOut::Stream(stream) => LevelPayload::Whole(stream),
                TaskOut::Group(_) => unreachable!("whole task produced a group"),
            },
            LevelWork::Groups(groups) => {
                let mut collected = Vec::with_capacity(groups.len());
                for _ in groups {
                    match next.next().expect("missing group result")? {
                        TaskOut::Group(g) => collected.push(g),
                        TaskOut::Stream(_) => unreachable!("group task produced a stream"),
                    }
                }
                LevelPayload::Groups(collected)
            }
        };
        // Empty payloads hold no streams, so their codec is canonically
        // the default (the wire format does not tag them).
        let codec = match &payload {
            LevelPayload::Empty => CodecId::default(),
            _ => plan.codec,
        };
        out.push(CompressedLevel {
            strategy: plan.strategy,
            dim: plan.dim,
            abs_eb: plan.abs_eb,
            codec,
            dtype: T::DTYPE,
            payload,
        });
    }
    Ok(out)
}

/// One flattened decompression task.
struct DecompressTask<'a, 'g, T> {
    level: usize,
    mask: &'a BitMask,
    grid: &'a SlabGrid<'g, T>,
    codec: CodecId,
    /// Cells the task decodes (the scheduler's cost estimate), computed
    /// once the level's regions are checked.
    cells: u64,
    kind: DecompressKind<'a>,
}

enum DecompressKind<'a> {
    Whole(&'a [u8]),
    Group(&'a BlockGroup),
}

/// Decompresses TAC per-level payloads on `workers` threads into the
/// level grids `grids`, each cut one slab per z-plane: every whole-grid
/// stream and every region group is an independent task that decodes
/// and pastes it — a whole-grid stream as one region covering the grid
/// — through [`paste_group`] (see the module doc). Everything the tasks
/// trust is checked first, in level order: each level's dtype and dim,
/// and its regions ([`check_regions`]: shapes that fit, sub-blocks
/// inside the grid, no cell in two of them), so an overlap is `Corrupt`
/// naming the lowest level before any task runs. Task results are read
/// in task order, so the first failing task by index decides a decode
/// error at every worker count.
///
/// Contract of the written grids: a present cell carries its decoded
/// value, and every other cell — absent under the mask, or covered by
/// no payload at all (an `Empty` level, a chunk an ROI read left out) —
/// keeps the `+0.0` bits of the zero grid. Assembly stores only the
/// present cells a payload covers — of each pasted region, and of the
/// grid of a whole-level stream — so its cost follows the present
/// cells, and the pages of a level grid that hold none of them are
/// never written.
///
/// Under a grid's clip — a region read's box — a task writes only the
/// in-box part of what it decoded. The region check still covers every
/// region the read decodes, so an overlap is `Corrupt` even where it
/// lies outside the box.
pub(crate) fn decompress_tac_levels<T: CodecElement>(
    compressed: &[CompressedLevel],
    masks: &[BitMask],
    grids: &[SlabGrid<'_, T>],
    workers: usize,
) -> Result<(), TacError> {
    if compressed.len() != masks.len() {
        return Err(TacError::Corrupt(format!(
            "{} compressed levels for {} masks",
            compressed.len(),
            masks.len()
        )));
    }
    // Validate everything the decode tasks and the paste trust, up
    // front: each level's dim against its grid's, which the masks were
    // checked against, and every group's regions.
    let mut tasks: Vec<DecompressTask<'_, '_, T>> = Vec::new();
    for (l, ((cl, mask), grid)) in compressed.iter().zip(masks).zip(grids).enumerate() {
        if cl.dtype != T::DTYPE {
            return Err(TacError::Codec(CodecError::WrongDtype {
                stream: cl.dtype.label(),
                requested: T::DTYPE.label(),
            }));
        }
        if cl.dim != grid.dim() {
            return Err(TacError::Corrupt(format!(
                "level {l}: dim {} on a {}^3 grid",
                cl.dim,
                grid.dim()
            )));
        }
        let task = |cells: usize, kind| DecompressTask {
            level: l,
            mask,
            grid,
            codec: cl.codec,
            cells: cells as u64,
            kind,
        };
        match &cl.payload {
            // A full decode of no payload would return present cells as
            // zeros; a region read leaves the streams it skips `Empty`.
            LevelPayload::Empty if grid.clip().is_none() && mask.count_ones() != 0 => {
                return Err(TacError::Corrupt(format!(
                    "level {l} marked empty but mask has {} cells",
                    mask.count_ones()
                )));
            }
            LevelPayload::Empty => {}
            LevelPayload::Whole(stream) => {
                tasks.push(task(mask.len(), DecompressKind::Whole(stream)))
            }
            LevelPayload::Groups(groups) => {
                check_regions(l, cl.dim, groups)?;
                // Disjoint sub-blocks inside the grid: no group holds more
                // than the level's cells, so no product overflows.
                for g in groups {
                    let (w, h, d) = g.shape;
                    let cells = w * h * d * g.origins.len();
                    tasks.push(task(cells, DecompressKind::Group(g)));
                }
            }
        }
    }

    let results = tac_par::execute(
        workers,
        &tasks,
        |t| t.cells,
        |t| -> Result<(), TacError> {
            let (dim, mask) = (t.grid.dim(), t.mask);
            let _decode = tac_obs::span(tac_obs::Stage::Decode)
                .arg("dim", dim)
                .arg("codec", t.codec.tag());
            if tac_obs::enabled() {
                let bytes = match &t.kind {
                    DecompressKind::Whole(stream) => stream.len(),
                    DecompressKind::Group(g) => g.stream.len(),
                };
                tac_obs::add(tac_obs::Counter::ChunksDecoded, 1u64);
                tac_obs::add(tac_obs::Counter::PayloadBytesIn, bytes);
            }
            // A whole-level stream is one region covering the grid.
            let whole = [(0, 0, 0)];
            let (values, shape, origins) = match &t.kind {
                DecompressKind::Whole(stream) => {
                    let (values, dims) = T::codec_decompress(codec_for(t.codec), stream)?;
                    if dims != Dims::D3(dim, dim, dim) || values.len() != mask.len() {
                        return Err(TacError::Corrupt(format!(
                            "level {}: whole-grid stream holds {} values, dims {dims:?}",
                            t.level,
                            values.len()
                        )));
                    }
                    (values, (dim, dim, dim), whole.as_slice())
                }
                DecompressKind::Group(g) => (
                    decode_group::<T>(g, t.codec)?,
                    g.shape,
                    g.origins.as_slice(),
                ),
            };
            let _paste = (tac_obs::span(tac_obs::Stage::Paste).arg("level", t.level))
                .arg("cells", values.len());
            let stored = paste_group(t.grid, shape, origins, &values, mask)?;
            tac_obs::add(tac_obs::Counter::AssembleCellsWritten, stored);
            Ok(())
        },
    );
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::MethodBody;
    use crate::pipeline::{
        compress_dataset_t, decompress_dataset_in, decompress_dataset_par_t, Body,
    };
    use crate::{Method, Parallelism};
    use tac_amr::{paste_region, Aabb, AmrDataset};

    /// TAC levels decoded through the grid owner, as the full decode and
    /// the region read of a TAC container decode them.
    fn decompress_tac_levels<T: CodecElement>(
        compressed: &[CompressedLevel],
        masks: &[BitMask],
        workers: usize,
        clip: Option<&[Aabb]>,
    ) -> Result<Vec<AmrLevel<T>>, TacError> {
        let finest_dim = compressed.first().map_or(0, |cl| cl.dim);
        decompress_dataset_in(
            finest_dim,
            masks.to_vec(),
            Body::Tac(compressed),
            workers,
            clip,
        )
    }

    #[test]
    fn unit_for_clamps_but_rejects_zero() {
        assert_eq!(unit_for(16, 4).unwrap(), 4);
        assert_eq!(unit_for(2, 8).unwrap(), 2);
        assert!(unit_for(0, 8).is_err());
        assert!(unit_for(16, 0).is_err());
    }

    /// A serial, per-cell assembly, the reference the in-task one is
    /// held to: decode every stream, paste every region, then visit
    /// every cell of the `dim^3` grid and zero the absent ones.
    fn reference_assembly<T: CodecElement>(cl: &CompressedLevel, mask: &BitMask) -> Vec<u64> {
        let dim = cl.dim;
        let mut data = vec![T::ZERO; dim * dim * dim];
        match &cl.payload {
            LevelPayload::Empty => {}
            LevelPayload::Whole(stream) => {
                data = T::codec_decompress(codec_for(cl.codec), stream).unwrap().0;
            }
            LevelPayload::Groups(groups) => {
                for g in groups {
                    let values = decode_group::<T>(g, cl.codec).unwrap();
                    let block = g.shape.0 * g.shape.1 * g.shape.2;
                    for (&(x, y, z), block) in g.origins.iter().zip(values.chunks(block)) {
                        let origin = (x as usize, y as usize, z as usize);
                        paste_region(&mut data, dim, origin, g.shape, block);
                    }
                }
            }
        }
        for (i, v) in data.iter_mut().enumerate() {
            if !mask.get(i) {
                *v = T::ZERO;
            }
        }
        data.iter().map(|v| v.to_bits_u64()).collect()
    }

    /// The reference restricted to a region read's box: `+0.0` outside.
    fn clipped_reference<T: CodecElement>(
        cl: &CompressedLevel,
        mask: &BitMask,
        clip: &Aabb,
    ) -> Vec<u64> {
        let dim = cl.dim;
        let mut bits = reference_assembly::<T>(cl, mask);
        for (i, b) in bits.iter_mut().enumerate() {
            if !clip.contains(i % dim, i / dim % dim, i / dim / dim) {
                *b = 0;
            }
        }
        bits
    }

    fn assembled_bits<T: CodecElement>(
        cl: &CompressedLevel,
        mask: &BitMask,
        clip: Option<&Aabb>,
    ) -> Vec<u64> {
        let levels = decompress_tac_levels::<T>(
            std::slice::from_ref(cl),
            std::slice::from_ref(mask),
            1,
            clip.map(std::slice::from_ref),
        )
        .unwrap();
        levels[0].data().iter().map(|v| v.to_bits_u64()).collect()
    }

    /// Region-read boxes on a 16^3 grid: one cutting through the ball
    /// and the unit blocks at odd offsets, a single cell, one that
    /// misses every present cell, the empty box and the whole grid.
    fn clips() -> [Aabb; 5] {
        [
            Aabb::new((3, 5, 2), (11, 9, 7)),
            Aabb::new((6, 7, 5), (7, 8, 6)),
            Aabb::new((13, 0, 12), (16, 2, 16)),
            Aabb::new((0, 0, 0), (0, 0, 0)),
            Aabb::whole(16),
        ]
    }

    /// A 16^3 level whose unit blocks (unit 4) are partially filled: a
    /// ball that cuts through blocks plus a few lone cells, with NaN and
    /// `-0.0` among the present values.
    fn ragged_level<T: Element>() -> AmrLevel<T> {
        let dim = 16usize;
        let mut level = AmrLevel::<T>::empty(dim);
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    let r2 = (x as i64 - 6).pow(2) + (y as i64 - 7).pow(2) + (z as i64 - 5).pow(2);
                    if r2 <= 22 || (x * 7 + y * 3 + z) % 61 == 0 {
                        let v = ((x + 2 * y) as f64 * 0.3).sin() + z as f64 * 0.1;
                        level.set_value(x, y, z, T::from_f64(v));
                    }
                }
            }
        }
        level.set_value(6, 7, 5, T::from_f64(f64::NAN));
        level.set_value(6, 7, 6, T::from_f64(-0.0));
        level
    }

    fn every_strategy_and_codec_matches_the_reference<T: CodecElement>() {
        let level = ragged_level::<T>();
        for codec in CodecId::all() {
            let cfg = TacConfig {
                unit: 4,
                codec,
                ..Default::default()
            };
            for strategy in [
                Strategy::ZeroFill,
                Strategy::Gsp,
                Strategy::NaST,
                Strategy::OpST,
                Strategy::AkdTree,
            ] {
                let cl = compress_level(&level, strategy, &cfg);
                let what = format!("{strategy:?}/{codec}/{}", T::DTYPE.label());
                assert_eq!(
                    assembled_bits::<T>(&cl, level.mask(), None),
                    reference_assembly::<T>(&cl, level.mask()),
                    "{what}"
                );
                for clip in clips() {
                    assert_eq!(
                        assembled_bits::<T>(&cl, level.mask(), Some(&clip)),
                        clipped_reference::<T>(&cl, level.mask(), &clip),
                        "{what} in {clip:?}"
                    );
                }
            }
        }
    }

    fn compress_level<T: CodecElement>(
        level: &AmrLevel<T>,
        strategy: Strategy,
        cfg: &TacConfig,
    ) -> CompressedLevel {
        let plans = vec![LevelPlan {
            abs_eb: 1e-3,
            ..plan_level(level, strategy, cfg).unwrap()
        }];
        compress_plans(&plans, &[level.data()], &[level.mask()], 1)
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn assembly_equals_the_per_cell_reference_for_every_strategy_codec_and_width() {
        every_strategy_and_codec_matches_the_reference::<f64>();
        every_strategy_and_codec_matches_the_reference::<f32>();
    }

    fn slab_tiled_levels_match_the_reference<T: CodecElement>() {
        let level = ragged_level::<T>();
        let dim = level.dim();
        for codec in CodecId::all() {
            let cfg = |roi_tile| TacConfig {
                unit: 4,
                codec,
                roi_tile,
                ..Default::default()
            };
            for strategy in [Strategy::ZeroFill, Strategy::Gsp] {
                let what = format!("{strategy:?}/{codec}/{}", T::DTYPE.label());
                let whole = compress_level(&level, strategy, &cfg(None));
                assert!(matches!(whole.payload, LevelPayload::Whole(_)), "{what}");
                // A tile the level fits in changes nothing.
                assert_eq!(compress_level(&level, strategy, &cfg(Some(dim))), whole);
                for tile in [4, 5] {
                    let cl = compress_level(&level, strategy, &cfg(Some(tile)));
                    let LevelPayload::Groups(slabs) = &cl.payload else {
                        panic!("{what}: tile {tile} left the level whole");
                    };
                    let cuts: Vec<usize> = (0..dim).step_by(tile).collect();
                    assert_eq!(slabs.len(), cuts.len(), "{what}");
                    for (g, z) in slabs.iter().zip(cuts) {
                        assert_eq!(g.origins, [(0, 0, z as u32)], "{what}");
                        assert_eq!(g.shape, (dim, dim, tile.min(dim - z)), "{what}");
                    }
                    let bits = assembled_bits::<T>(&cl, level.mask(), None);
                    assert_eq!(bits, reference_assembly::<T>(&cl, level.mask()), "{what}");
                    if codec != CodecId::Sz {
                        // The pco codecs quantise on an absolute lattice and
                        // a slab keeps the level's value order: cutting the
                        // stream moves no bit.
                        let uncut = assembled_bits::<T>(&whole, level.mask(), None);
                        assert_eq!(bits, uncut, "{what}: tile {tile}");
                    }
                    for clip in clips() {
                        assert_eq!(
                            assembled_bits::<T>(&cl, level.mask(), Some(&clip)),
                            clipped_reference::<T>(&cl, level.mask(), &clip),
                            "{what}: tile {tile} in {clip:?}"
                        );
                    }
                }
            }
        }
    }

    /// Dense levels under a tile smaller than the level are cut into
    /// z-slabs — one group of whole planes each, the last one short —
    /// and assemble like the per-cell reference, clipped or not.
    #[test]
    fn slab_tiled_dense_levels_assemble_like_the_reference_for_every_codec_and_width() {
        slab_tiled_levels_match_the_reference::<f64>();
        slab_tiled_levels_match_the_reference::<f32>();
    }

    /// Containers no encoder writes. Two regions over one cell — within
    /// one group or across two — are refused as corrupt at every worker
    /// count (tasks paste concurrently, so "the later wins" has no
    /// meaning); a group lying entirely over absent cells and a present
    /// cell no group covers (it stays `+0.0`) still assemble exactly like
    /// the reference.
    #[test]
    fn hand_built_groups_assemble_like_the_reference() {
        let dim = 8usize;
        let data: Vec<f64> = (0..dim * dim * dim)
            .map(|i| if i % 11 == 0 { -0.0 } else { 1.0 + i as f64 })
            .collect();
        let mut mask = BitMask::zeros(data.len());
        for z in 0..4 {
            for y in 0..5 {
                for x in 0..7 {
                    // A checkerboard with a solid core: mixed mask words.
                    if (x + y + z) % 2 == 0 || (x < 3 && y < 3) {
                        mask.set(x + dim * (y + dim * z), true);
                    }
                }
            }
        }
        mask.set(dim * dim * dim - 1, true); // present, covered by no group
        let cfg = CodecConfig::abs(1e-3);
        for codec in CodecId::all() {
            let group = |shape, origins: &[(usize, usize, usize)]| {
                let plan = GroupPlan {
                    shape,
                    origins: origins.to_vec(),
                };
                compress_group(&data, &mask, dim, &plan, codec, &cfg).unwrap()
            };
            let level = |groups| CompressedLevel {
                strategy: Strategy::OpST,
                dim,
                abs_eb: 1e-3,
                codec,
                dtype: f64::DTYPE,
                payload: LevelPayload::Groups(groups),
            };
            let absent_only = || group((2, 2, 2), &[(4, 6, 6)]);
            // Two shapes on the unit-2 grid that share only cells of
            // `(2..4, 2..4, 6..8)`, all of them absent.
            let over_absent = vec![
                group((4, 4, 4), &[(0, 0, 4)]),
                group((2, 2, 2), &[(2, 2, 6)]),
            ];
            let mut doubled = (6..8).flat_map(|z| {
                (2..4).flat_map(move |y| (2..4).map(move |x| x + dim * (y + dim * z)))
            });
            assert!(doubled.all(|i| !mask.get(i)));
            // Dense slabs that share plane 3.
            let slabs = vec![
                group((8, 8, 4), &[(0, 0, 0)]),
                group((8, 8, 5), &[(0, 0, 3)]),
            ];
            for (what, overlapping) in [
                (
                    "within a group",
                    vec![group((4, 4, 4), &[(0, 0, 0), (2, 1, 0)]), absent_only()],
                ),
                (
                    "across groups",
                    vec![
                        group((4, 4, 4), &[(0, 0, 0)]),
                        absent_only(),
                        group((5, 3, 2), &[(1, 2, 1)]),
                    ],
                ),
                (
                    "on one cell off the unit grid",
                    vec![
                        group((4, 4, 4), &[(0, 0, 0)]),
                        group((1, 1, 1), &[(3, 3, 3)]),
                    ],
                ),
                ("on absent cells, across shapes", over_absent),
                ("dense slabs on one plane", slabs),
            ] {
                overlaps_are_corrupt(&level(overlapping), &mask, &format!("{codec}, {what}"));
            }
            // Adjacent regions on the unit grid, across groups and within
            // one, decode like the reference: the check sees no overlap
            // where regions only touch.
            let adjacent = level(vec![
                group((4, 4, 4), &[(0, 0, 0), (4, 0, 0), (0, 4, 4)]),
                group((2, 2, 2), &[(4, 4, 0), (6, 4, 0), (4, 4, 2)]),
            ]);
            for workers in [1, 2, 4] {
                let got = decompress_tac_levels::<f64>(
                    std::slice::from_ref(&adjacent),
                    std::slice::from_ref(&mask),
                    workers,
                    None,
                )
                .unwrap();
                let bits: Vec<u64> = got[0].data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, reference_assembly::<f64>(&adjacent, &mask), "{codec}");
            }

            let cl = level(vec![
                group((4, 4, 4), &[(0, 0, 0)]),
                group((3, 3, 2), &[(4, 1, 1)]),
                absent_only(),
            ]);
            let got = assembled_bits::<f64>(&cl, &mask, None);
            assert_eq!(got, reference_assembly::<f64>(&cl, &mask), "{codec}");
            let clip = Aabb::new((1, 2, 1), (6, 8, 3));
            assert_eq!(
                assembled_bits::<f64>(&cl, &mask, Some(&clip)),
                clipped_reference::<f64>(&cl, &mask, &clip),
                "{codec}"
            );
            assert_eq!(
                got[dim * dim * dim - 1],
                0,
                "uncovered present cell is +0.0"
            );
            let absent_group_cell = 4 + dim * (6 + dim * 6);
            assert_eq!(
                got[absent_group_cell], 0,
                "absent cell under a group is +0.0"
            );
        }
    }

    /// Asserts that decoding `cl` is `Corrupt` for overlapping regions
    /// at 1, 2 and 4 workers, and under a region read whose box misses
    /// the doubled cells: the check covers the regions it decodes whole.
    fn overlaps_are_corrupt(cl: &CompressedLevel, mask: &BitMask, what: &str) {
        let away = [Aabb::new((5, 0, 0), (8, 1, 1))];
        for (workers, clip) in [(1, None), (2, None), (4, None), (1, Some(&away[..]))] {
            let err = decompress_tac_levels::<f64>(
                std::slice::from_ref(cl),
                std::slice::from_ref(mask),
                workers,
                clip,
            )
            .unwrap_err();
            assert!(
                matches!(&err, TacError::Corrupt(why) if why.contains("overlaps")),
                "{what}, {workers} workers, {clip:?}: {err}"
            );
        }
    }

    /// Two regions that meet only on absent cells are refused like any
    /// overlap: the paste stores no absent cell, but the check reads the
    /// origin lists, not the mask.
    #[test]
    fn regions_meeting_only_on_absent_cells_are_corrupt() {
        let dim = 8usize;
        let data: Vec<f64> = (0..dim * dim * dim).map(|i| i as f64).collect();
        // Present: the lower half of the grid, and one corner cell.
        let mut mask = BitMask::zeros(data.len());
        for i in 0..data.len() / 2 {
            mask.set(i, true);
        }
        mask.set(dim * dim * dim - 1, true);
        let cfg = CodecConfig::abs(1e-3);
        for codec in CodecId::all() {
            let group = |shape, origins: &[(usize, usize, usize)]| {
                let plan = GroupPlan {
                    shape,
                    origins: origins.to_vec(),
                };
                compress_group(&data, &mask, dim, &plan, codec, &cfg).unwrap()
            };
            // Both regions hold present cells; the one cell they share,
            // (5, 5, 5), is absent.
            let cl = CompressedLevel {
                strategy: Strategy::OpST,
                dim,
                abs_eb: 1e-3,
                codec,
                dtype: f64::DTYPE,
                payload: LevelPayload::Groups(vec![
                    group((4, 3, 3), &[(2, 3, 3)]),
                    group((3, 3, 3), &[(5, 5, 5)]),
                ]),
            };
            assert!(!mask.get(5 + dim * (5 + dim * 5)));
            overlaps_are_corrupt(&cl, &mask, &format!("{codec}"));
        }
    }

    /// A four-level refinement tree over a 64^3 finest grid whose finest
    /// level is under 0.1 % present: each level holds the cells of its
    /// parent's refined box that it does not refine itself, the finest
    /// the children of ~30 scattered level-1 cells. Most rows of its
    /// regions hold no present cell. NaN and `-0.0` sit among the values.
    fn sparse_tree() -> AmrDataset<f64> {
        let refined = |l: usize, [x, y, z]: [usize; 3]| match l {
            3 => [x, y, z].iter().all(|c| (2..5).contains(c)),
            2 => [x, y, z].iter().all(|c| (5..9).contains(c)),
            1 => [x, y, z].iter().all(|c| (10..18).contains(c)) && (x * 7 + y * 3 + z) % 17 == 0,
            _ => false,
        };
        let mut levels = (0..4)
            .map(|l| {
                let dim = 64 >> l;
                let mut level = AmrLevel::<f64>::empty(dim);
                for z in 0..dim {
                    for y in 0..dim {
                        for x in 0..dim {
                            let cell = [x, y, z];
                            let parent = [x / 2, y / 2, z / 2];
                            if (l == 3 || refined(l + 1, parent)) && !refined(l, cell) {
                                let v = ((x + 2 * y) as f64 * 0.3).sin() + (z * (l + 1)) as f64;
                                level.set_value(x, y, z, v);
                            }
                        }
                    }
                }
                level
            })
            .collect::<Vec<_>>();
        let present: Vec<usize> = levels[0].mask().iter_ones().take(2).collect();
        for (&i, v) in present.iter().zip([f64::NAN, -0.0]) {
            levels[0].set_value(i % 64, i / 64 % 64, i / 4096, v);
        }
        AmrDataset::new("sparse-tree", levels)
    }

    /// A deep sparse hierarchy decodes bit for bit like the per-cell
    /// reference on every level, at one worker and at two, on every
    /// codec: pasting only present cells leaves nothing unmasked.
    #[test]
    fn a_sparse_four_level_tree_decodes_like_the_reference_at_every_worker_count() {
        let ds = sparse_tree();
        assert!(ds.levels()[0].density() < 0.001);
        for codec in CodecId::all() {
            let cfg = TacConfig {
                codec,
                ..Default::default()
            };
            let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
            let MethodBody::Tac(levels) = &cd.body else {
                panic!("{codec}: Method::Tac wrote a non-TAC body");
            };
            assert!(
                matches!(levels[0].payload, LevelPayload::Groups(_)),
                "{codec}: the sparse finest level should be cut into regions"
            );
            for workers in [1, 2] {
                let out =
                    decompress_dataset_par_t::<f64>(&cd, Parallelism::Threads(workers)).unwrap();
                for (l, (cl, mask)) in levels.iter().zip(&cd.masks).enumerate() {
                    let bits: Vec<u64> =
                        out.levels()[l].data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        bits,
                        reference_assembly::<f64>(cl, mask),
                        "{codec}, level {l}, {workers} workers"
                    );
                }
            }
        }
    }

    /// A sub-block leaving the grid is `Corrupt` before any task runs:
    /// the first task's stream is not even a stream, so a decode that
    /// started would fail with a codec error instead.
    #[test]
    fn regions_leaving_the_grid_are_refused_before_any_task_runs() {
        let group = |shape, origin| BlockGroup {
            shape,
            origins: vec![origin],
            stream: Vec::new(),
        };
        for outside in [(5, 0, 0), (0, 7, 0), (0, 0, u32::MAX)] {
            let cl = CompressedLevel {
                strategy: Strategy::OpST,
                dim: 8,
                abs_eb: 1e-3,
                codec: CodecId::Sz,
                dtype: f64::DTYPE,
                payload: LevelPayload::Groups(vec![
                    group((4, 4, 4), (0, 0, 0)),
                    group((4, 2, 2), outside),
                ]),
            };
            let mask = BitMask::ones(512);
            for workers in [1, 2, 4] {
                let err = decompress_tac_levels::<f64>(
                    std::slice::from_ref(&cl),
                    std::slice::from_ref(&mask),
                    workers,
                    None,
                )
                .unwrap_err();
                assert!(
                    matches!(&err, TacError::Corrupt(why) if why.contains("exceeds grid")),
                    "{outside:?}, {workers} workers: {err}"
                );
            }
        }
    }

    /// A group declaring extents that do not fit its level is rejected
    /// before any task is scheduled — at one worker and at several (the
    /// scheduler's cost estimate used to multiply the raw extents).
    #[test]
    fn group_shapes_are_validated_before_scheduling() {
        let huge = u32::MAX as usize;
        for shape in [(huge, huge, huge), (0, 4, 4), (4, 9, 4)] {
            let cl = CompressedLevel {
                strategy: Strategy::OpST,
                dim: 8,
                abs_eb: 1e-3,
                codec: CodecId::Sz,
                dtype: f64::DTYPE,
                // Two tasks, so two workers really do ask for costs.
                payload: LevelPayload::Groups(vec![
                    BlockGroup {
                        shape,
                        origins: vec![(0, 0, 0)],
                        stream: Vec::new(),
                    };
                    2
                ]),
            };
            let mask = BitMask::zeros(512);
            for workers in [1, 2] {
                let err = decompress_tac_levels::<f64>(
                    std::slice::from_ref(&cl),
                    std::slice::from_ref(&mask),
                    workers,
                    None,
                )
                .unwrap_err();
                assert!(matches!(err, TacError::Corrupt(_)), "{shape:?}: {err}");
            }
        }
    }
}
