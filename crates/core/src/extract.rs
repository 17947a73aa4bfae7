//! Shared sub-block extraction machinery for the sparse strategies.
//!
//! NaST, OpST, and AKDTree all end the same way: a list of disjoint
//! cuboid regions covering every non-empty unit block. This module turns
//! such a plan into per-group compression jobs ([`GroupPlan`] — same-
//! shape regions merged into one rank-4 SZ stream, per the paper), runs
//! one job ([`compress_group`]), and reverses the process
//! ([`decode_group`] / [`paste_group`]). The parallel engine flattens
//! `GroupPlan`s across levels into its task list.

use crate::error::TacError;
use crate::grid::SlabGrid;
use crate::stream::BlockGroup;
use tac_amr::{copy_region_flags_into, Aabb, BitMask};
use tac_codec::{codec_for, CodecConfig, CodecElement, CodecId, Dims};
use tac_dtype::Element;

/// A cuboid region of a level, in **cell** coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Lowest-coordinate corner.
    pub origin: (usize, usize, usize),
    /// Extents `(w, h, d)`.
    pub shape: (usize, usize, usize),
}

impl Region {
    /// Number of cells covered.
    pub fn num_cells(&self) -> usize {
        self.shape.0 * self.shape.1 * self.shape.2
    }

    /// Bounding box of the region.
    pub fn aabb(&self) -> Aabb {
        Aabb::of_region(self.origin, self.shape)
    }
}

/// One planned compression job: same-shape regions batched into a single
/// rank-4 SZ stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupPlan {
    /// Sub-block extents in cells.
    pub shape: (usize, usize, usize),
    /// Cell-coordinate origins, in plan order.
    pub origins: Vec<(usize, usize, usize)>,
}

impl GroupPlan {
    /// Total cells the job will read (the scheduler's cost estimate).
    pub fn num_cells(&self) -> usize {
        self.shape.0 * self.shape.1 * self.shape.2 * self.origins.len()
    }
}

/// Groups a region plan into compression jobs. Regions sharing a shape
/// merge into one job (first-seen shape order, so the plan — and the
/// bytes assembled from it — is deterministic). With `tile = Some(t)`,
/// the grouping key additionally buckets region origins into `t`-cell
/// tiles: jobs then stay spatially local, which bounds chunk extents in
/// the container and makes region-of-interest decoding selective, at
/// the cost of slightly smaller SZ batches.
pub(crate) fn plan_groups(regions: &[Region], tile: Option<usize>) -> Vec<GroupPlan> {
    type Key = ((usize, usize, usize), (usize, usize, usize));
    let key_of = |r: &Region| -> Key {
        let bucket = match tile {
            Some(t) => (r.origin.0 / t, r.origin.1 / t, r.origin.2 / t),
            None => (0, 0, 0),
        };
        (r.shape, bucket)
    };
    // Hash index for O(1) key lookup; the Vec keeps first-seen order so
    // the plan stays deterministic (this runs inside the level's
    // structure task of the plan batch, and tiling can make the key
    // count scale with the regions).
    let mut index: std::collections::HashMap<Key, usize> = std::collections::HashMap::new();
    let mut plans: Vec<GroupPlan> = Vec::new();
    for r in regions {
        match index.entry(key_of(r)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                // The index was recorded at insertion, so it is always in
                // bounds; `get_mut` keeps the planner panic-free anyway.
                if let Some(plan) = plans.get_mut(*e.get()) {
                    plan.origins.push(r.origin);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(plans.len());
                plans.push(GroupPlan {
                    shape: r.shape,
                    origins: vec![r.origin],
                });
            }
        }
    }
    plans
}

/// Compresses `values` as one stream of shape `dims` through `codec`.
/// `care` flags the present cells (the ones the level's decoder keeps),
/// `present` of them: an absent cell is don't-care, so its value costs
/// (near) nothing and never shapes the stream. A stream whose cells are
/// all present passes no mask, which writes the same bytes.
pub(crate) fn compress_cells<T: CodecElement>(
    values: &[T],
    care: &[bool],
    present: usize,
    dims: Dims,
    codec: CodecId,
    cfg: &CodecConfig,
) -> Result<Vec<u8>, TacError> {
    let dont_care = care.len().saturating_sub(present);
    tac_obs::add(tac_obs::Counter::DontCareValues, dont_care);
    let care = (dont_care > 0).then_some(care);
    Ok(codec_for::<T>(codec).compress(values, care, dims, cfg)?)
}

/// Runs one planned job: gathers the batched region data out of the
/// level's flat array, with the care flags of its cells from the
/// level's `mask`, and compresses it as one rank-4
/// stream through the given scalar codec. A lone region of whole
/// z-planes — a dense level's slab — is one contiguous range of `data`
/// and is encoded in place, not copied. Generic over the element type;
/// the width resolves once per stream through [`CodecElement`].
pub(crate) fn compress_group<T: CodecElement>(
    data: &[T],
    mask: &BitMask,
    dim: usize,
    plan: &GroupPlan,
    codec: CodecId,
    cfg: &CodecConfig,
) -> Result<BlockGroup, TacError> {
    let (w, h, d) = plan.shape;
    let plane = dim * dim;
    let slab = match plan.origins.as_slice() {
        &[(0, 0, z)] if (w, h) == (dim, dim) => {
            let cells = plane * z..plane * (z + d);
            data.get(cells.clone()).map(|values| (cells.start, values))
        }
        _ => None,
    };
    let gathered;
    let mut care = vec![false; plan.num_cells()];
    let mut present = 0;
    let batch = match slab {
        Some((start, values)) => {
            present = mask.flags_into(start, &mut care);
            values
        }
        None => {
            let mut batch = Vec::with_capacity(plan.num_cells());
            let cells = (w * h * d).max(1);
            for (flags, &origin) in care.chunks_mut(cells).zip(&plan.origins) {
                present +=
                    copy_region_flags_into(&mut batch, flags, data, mask, dim, origin, plan.shape);
            }
            gathered = batch;
            gathered.as_slice()
        }
    };
    let dims = Dims::D4(w, h, d, plan.origins.len());
    let stream = compress_cells(batch, &care, present, dims, codec, cfg)?;
    let origins = (plan.origins.iter())
        .map(|&(x, y, z)| (x as u32, y as u32, z as u32))
        .collect();
    Ok(BlockGroup {
        shape: plan.shape,
        origins,
        stream,
    })
}

/// Decodes one group's stream through the given codec, validating the
/// declared dimensions. A stream written by a different codec than the
/// container's tag claims fails the backend's magic check here; a stream
/// of the wrong element width fails the backend's dtype check.
pub(crate) fn decode_group<T: CodecElement>(
    g: &BlockGroup,
    codec: CodecId,
) -> Result<Vec<T>, TacError> {
    let (w, h, d) = g.shape;
    let (values, dims) = T::codec_decompress(codec_for(codec), &g.stream)?;
    if dims != Dims::D4(w, h, d, g.origins.len()) {
        return Err(TacError::Corrupt(format!(
            "group stream dims {dims:?} do not match shape {:?} x {}",
            g.shape,
            g.origins.len()
        )));
    }
    Ok(values)
}

/// Checks the regions of level `level`'s groups before any of them
/// decodes: every sub-block's extents lie in `1..=dim` (they are raw
/// 32-bit wire fields, so this comes before any product of them feeds
/// a cost estimate or a slice length), every sub-block lies inside the
/// grid, and no cell lies in two sub-blocks — decode tasks paste in no
/// fixed order, so a doubled cell, present or absent, has no defined
/// winner.
///
/// A plan's regions are disjoint by construction (NaST's unit blocks,
/// OpST's cubes, AKDTree's boxes, a dense level's slabs), so overlap is
/// a property of the origin lists alone. It is marked on a bitmap of the
/// level's common block: per axis, the gcd of every origin coordinate
/// and extent — the unit block of the sparse strategies, whole planes
/// across for slabs — so the bitmap is never larger than the level's
/// mask, and only crafted input falls to one cell.
pub(crate) fn check_regions(
    level: usize,
    dim: usize,
    groups: &[BlockGroup],
) -> Result<(), TacError> {
    if groups.is_empty() {
        return Ok(());
    }
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut block = [0usize; 3];
    for g in groups {
        let (w, h, d) = g.shape;
        if ![w, h, d].iter().all(|e| (1..=dim).contains(e)) {
            return Err(TacError::Corrupt(format!(
                "group shape {:?} does not fit a {dim}^3 level",
                g.shape
            )));
        }
        for (b, n) in block.iter_mut().zip([w, h, d]) {
            *b = gcd(*b, n);
        }
        for &(x, y, z) in &g.origins {
            let (x, y, z) = (x as usize, y as usize, z as usize);
            if x + w > dim || y + h > dim || z + d > dim {
                return Err(TacError::Corrupt(format!(
                    "region at ({x},{y},{z}) shape {:?} exceeds grid {dim}",
                    g.shape
                )));
            }
            for (b, o) in block.iter_mut().zip([x, y, z]) {
                *b = gcd(*b, o);
            }
        }
    }
    // There is a group, and every extent is at least 1: so is every side
    // of the block. In blocks, each region is `[x / bx, (x + w) / bx)`
    // and so on: whole blocks, inside the `nx * ny * nz` bitmap.
    let [bx, by, bz] = block;
    let (nx, ny, nz) = (dim / bx, dim / by, dim / bz);
    let mut taken = BitMask::zeros(nx * ny * nz);
    for g in groups {
        let (w, h, d) = g.shape;
        for &(x, y, z) in &g.origins {
            let (x, y, z) = (x as usize / bx, y as usize / by, z as usize / bz);
            for zz in z..z + d / bz {
                for yy in y..y + h / by {
                    let row = x + nx * (yy + ny * zz);
                    if taken.count_ones_in(row, w / bx) != 0 {
                        return Err(TacError::Corrupt(format!(
                            "level {level}: a region overlaps another region"
                        )));
                    }
                    (row..row + w / bx).for_each(|i| taken.set(i, true));
                }
            }
        }
    }
    Ok(())
}

/// Pastes the decoded sub-blocks of shape `shape` at `origins` — a
/// group's regions, or the one region of a whole-level stream — into
/// their level's grid, cut one slab per z-plane, storing only the cells
/// the occupancy mask marks present. The regions were checked before
/// the decode batch ([`check_regions`]): they fit the grid and no two
/// share a cell, so whichever task pastes first, every cell has one
/// writer. Row by row, under the lock of the plane the row lies on,
/// [`BitMask::copy_present`] reads the row's mask bits once: a row with
/// no present cell is not written at all, an all-present word of it is
/// one copy, and a mixed word is copied byte by byte. The grid arrives
/// holding `+0.0` bits (see [`crate::pipeline::decompress_dataset_in`]),
/// so absent cells and the pages that hold only absent cells are never
/// touched. Under the grid's clip — a region read's box — only the
/// in-box part of each row is stored.
///
/// Returns how many cells were stored.
pub(crate) fn paste_group<T: Element>(
    grid: &SlabGrid<'_, T>,
    shape: (usize, usize, usize),
    origins: &[(u32, u32, u32)],
    values: &[T],
    mask: &BitMask,
) -> Result<usize, TacError> {
    let (dim, clip) = (grid.dim(), grid.clip());
    let (w, h, d) = shape;
    // `decode_group` validated the stream's declared dims, but the values
    // really come from a decoded payload: a sub-block without data is an
    // error, not an index (and a block of no cells a chunk of one).
    let mut blocks = values.chunks_exact((w * h * d).max(1));
    let short = || TacError::Corrupt(format!("grid is short of a {dim}^3 level"));
    // The part of `[o, o + n)` inside `[lo, hi)`, relative to `o`.
    let span =
        |o: usize, n: usize, lo: usize, hi: usize| lo.clamp(o, o + n) - o..hi.clamp(o, o + n) - o;
    let mut stored = 0;
    for (i, &(x, y, z)) in origins.iter().enumerate() {
        let (x, y, z) = (x as usize, y as usize, z as usize);
        let slice = blocks.next().ok_or_else(|| {
            TacError::Corrupt(format!("group stream holds no data for sub-block {i}"))
        })?;
        // The in-box part of the block, in block coordinates: all of it
        // on a full decode.
        let (xs, ys, zs) = clip.map_or((0..w, 0..h, 0..d), |b| {
            (
                span(x, w, b.min.0, b.max.0),
                span(y, h, b.min.1, b.max.1),
                span(z, d, b.min.2, b.max.2),
            )
        });
        if xs.is_empty() {
            continue;
        }
        for dz in zs {
            let mut plane = grid.lock(z + dz)?;
            for dy in ys.clone() {
                let row = x + dim * (y + dy + dim * (z + dz));
                let src = (slice.get(w * (dy + h * dz)..)).and_then(|r| r.get(xs.clone()));
                let at = row.checked_sub(plane.base);
                let dst = at.and_then(|at| plane.cells.get_mut(at + xs.start..at + xs.end));
                let (Some(src), Some(dst)) = (src, dst) else {
                    return Err(short());
                };
                stored += mask.copy_present(row + xs.start, src, dst);
            }
        }
    }
    Ok(stored)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `dim^3` grid cut the way TAC decodes paste into it: one slab
    /// per plane.
    fn planes(cells: &mut [f64], dim: usize, clip: Option<Aabb>) -> SlabGrid<'_, f64> {
        SlabGrid::new(cells, dim, (0..dim).map(|z| z..z + 1), clip).unwrap()
    }

    /// Checks, decodes and pastes every group into a dense, fully
    /// present `dim^3` grid (cells outside every region stay zero).
    fn decode_all(groups: &[BlockGroup], dim: usize, codec: CodecId) -> Result<Vec<f64>, TacError> {
        let mut out = vec![0.0; dim * dim * dim];
        let mask = BitMask::ones(out.len());
        check_regions(0, dim, groups)?;
        let grid = planes(&mut out, dim, None);
        for g in groups {
            let values = decode_group(g, codec)?;
            paste_group(&grid, g.shape, &g.origins, &values, &mask)?;
        }
        drop(grid);
        Ok(out)
    }

    fn compress_all(
        data: &[f64],
        dim: usize,
        regions: &[Region],
        codec: CodecId,
        cfg: &CodecConfig,
        tile: Option<usize>,
    ) -> Vec<BlockGroup> {
        let all = BitMask::ones(data.len());
        plan_groups(regions, tile)
            .iter()
            .map(|p| compress_group(data, &all, dim, p, codec, cfg).unwrap())
            .collect()
    }

    #[test]
    fn regions_roundtrip_within_bound_for_every_codec() {
        let dim = 16;
        let data: Vec<f64> = (0..dim * dim * dim)
            .map(|i| (i as f64 * 0.01).sin() * 10.0)
            .collect();
        let regions = vec![
            Region {
                origin: (0, 0, 0),
                shape: (8, 8, 8),
            },
            Region {
                origin: (8, 8, 8),
                shape: (8, 8, 8),
            },
            Region {
                origin: (0, 8, 0),
                shape: (4, 4, 4),
            },
        ];
        for codec in CodecId::all() {
            let groups = compress_all(&data, dim, &regions, codec, &CodecConfig::abs(1e-3), None);
            assert_eq!(groups.len(), 2, "two shapes -> two groups");
            let out = decode_all(&groups, dim, codec).unwrap();
            for r in &regions {
                for z in 0..r.shape.2 {
                    for y in 0..r.shape.1 {
                        for x in 0..r.shape.0 {
                            let i = (r.origin.0 + x)
                                + dim * ((r.origin.1 + y) + dim * (r.origin.2 + z));
                            assert!((out[i] - data[i]).abs() <= 1e-3, "{codec}");
                        }
                    }
                }
            }
            // Uncovered cell (15, 0, 0) stays zero.
            assert_eq!(out[15], 0.0);
        }
    }

    /// The paste's contract on a sentinel grid: it stores the present
    /// cells of its regions that lie inside the box and writes no other
    /// cell — absent ones included, since the grid it is handed already
    /// holds `+0.0` there.
    #[test]
    fn paste_masks_the_pasted_rows_and_writes_nothing_else() {
        let dim = 8;
        let g = BlockGroup {
            shape: (5, 2, 2),
            origins: vec![(2, 3, 1), (3, 0, 6)],
            stream: Vec::new(),
        };
        // Decoded payload with sign and NaN-payload bits to preserve.
        let odd_nan = f64::from_bits(0x7FF8_0000_0000_BEEF);
        let values: Vec<f64> = (0..40)
            .map(|i| match i % 4 {
                0 => -0.0,
                1 => odd_nan,
                _ => i as f64,
            })
            .collect();
        let mut mask = BitMask::zeros(dim * dim * dim);
        for i in (0..mask.len()).filter(|i| i % 3 != 0) {
            mask.set(i, true);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // Unclipped, a box that cuts both sub-blocks, one that misses
        // them and one that misses them only along x: only the boxed
        // present cells are written.
        for clip in [
            None,
            Some(Aabb::new((3, 1, 1), (6, 4, 7))),
            Some(Aabb::new((0, 0, 3), (8, 8, 6))),
            Some(Aabb::new((0, 0, 0), (2, 8, 8))),
        ] {
            // A sentinel everywhere shows which cells the paste wrote.
            let mut out = vec![9.0f64; dim * dim * dim];
            let grid = planes(&mut out, dim, clip);
            let stored = paste_group(&grid, g.shape, &g.origins, &values, &mask).unwrap();
            drop(grid);
            let mut src = values.iter();
            let mut expect = vec![9.0f64; dim * dim * dim];
            for &(x, y, z) in &g.origins {
                for zz in z as usize..z as usize + 2 {
                    for yy in y as usize..y as usize + 2 {
                        for xx in x as usize..x as usize + 5 {
                            let i = xx + dim * (yy + dim * zz);
                            let v = *src.next().unwrap();
                            if mask.get(i) && clip.map_or(true, |b| b.contains(xx, yy, zz)) {
                                expect[i] = v;
                            }
                        }
                    }
                }
            }
            assert_eq!(bits(&out), bits(&expect), "{clip:?}");
            assert_eq!(stored, expect.iter().filter(|&&v| v != 9.0).count());
        }
    }

    /// A group's sub-block shape and origins.
    type Group<'a> = ((usize, usize, usize), &'a [(u32, u32, u32)]);

    /// `check_regions` over the groups of shapes and origins `groups` on
    /// an 8^3 level.
    fn check(groups: &[Group<'_>]) -> Result<(), TacError> {
        let groups: Vec<BlockGroup> = (groups.iter())
            .map(|&(shape, origins)| BlockGroup {
                shape,
                origins: origins.to_vec(),
                stream: Vec::new(),
            })
            .collect();
        check_regions(3, 8, &groups)
    }

    /// Regions that share a cell are refused whatever block the level's
    /// origins and extents have in common: a unit block, whole planes
    /// across for slabs, or one cell; regions that only touch are not.
    #[test]
    fn regions_sharing_a_cell_overlap_on_any_common_block() {
        let overlaps = |r: Result<(), TacError>| matches!(&r, Err(TacError::Corrupt(why)) if why == "level 3: a region overlaps another region");
        for (what, groups) in [
            (
                "one cell, off the unit grid",
                vec![((4, 4, 4), &[(0, 0, 0)][..]), ((1, 1, 1), &[(3, 3, 3)])],
            ),
            (
                "slabs sharing plane 3",
                vec![((8, 8, 4), &[(0, 0, 0), (0, 0, 3)][..])],
            ),
            (
                "unit blocks, within one group",
                vec![((2, 2, 2), &[(0, 0, 0), (2, 4, 6), (0, 0, 0)][..])],
            ),
            (
                "a cube over a smaller one",
                vec![((4, 4, 4), &[(4, 4, 4)][..]), ((2, 2, 2), &[(6, 4, 6)])],
            ),
            (
                "the last cell of a row",
                vec![((8, 1, 1), &[(0, 7, 7)][..]), ((1, 1, 1), &[(7, 7, 7)])],
            ),
        ] {
            assert!(overlaps(check(&groups)), "{what}: {:?}", check(&groups));
        }
        for (what, groups) in [
            (
                "adjacent unit blocks",
                vec![
                    ((4, 4, 4), &[(0, 0, 0), (4, 0, 0), (0, 4, 4)][..]),
                    ((2, 2, 2), &[(4, 4, 0)]),
                ],
            ),
            (
                "slabs, the last one short",
                vec![
                    ((8, 8, 3), &[(0, 0, 0), (0, 0, 3)][..]),
                    ((8, 8, 2), &[(0, 0, 6)]),
                ],
            ),
            (
                "one-cell regions side by side",
                vec![((1, 1, 1), &[(0, 0, 0), (1, 0, 0), (0, 1, 0)][..])],
            ),
            ("the whole level", vec![((8, 8, 8), &[(0, 0, 0)][..])]),
            ("a group of no sub-blocks", vec![((3, 5, 7), &[][..])]),
            ("no group", vec![]),
        ] {
            assert!(check(&groups).is_ok(), "{what}: {:?}", check(&groups));
        }
    }

    /// A sub-block leaving the grid, or a shape that cannot fit it, is
    /// refused as corrupt, not indexed.
    #[test]
    fn regions_outside_the_grid_are_corrupt() {
        let big = u32::MAX;
        for (what, groups) in [
            ("past x", vec![((4, 4, 4), &[(5, 0, 0)][..])]),
            (
                "past z, after a valid group",
                vec![((4, 4, 4), &[(0, 0, 0)][..]), ((2, 2, 2), &[(0, 0, 7)])],
            ),
            (
                "far past the grid",
                vec![((1, 1, 1), &[(big, big, big)][..])],
            ),
            ("a zero extent", vec![((0, 4, 4), &[(0, 0, 0)][..])]),
            ("an extent past the level", vec![((4, 9, 4), &[][..])]),
        ] {
            let err = check(&groups).unwrap_err();
            assert!(
                matches!(&err, TacError::Corrupt(why) if !why.contains("overlaps")),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn codec_mismatch_is_rejected_at_decode() {
        let dim = 8;
        let data = vec![1.0; dim * dim * dim];
        let regions = vec![Region {
            origin: (0, 0, 0),
            shape: (4, 4, 4),
        }];
        let groups = compress_all(
            &data,
            dim,
            &regions,
            CodecId::Sz,
            &CodecConfig::abs(1e-6),
            None,
        );
        // The stream is SZ but the caller claims PcoLite: magic check fails.
        let err = decode_group::<f64>(&groups[0], CodecId::PcoLite).unwrap_err();
        assert!(matches!(err, TacError::Codec(_)), "{err}");
    }

    #[test]
    fn same_shape_regions_share_one_stream() {
        let dim = 8;
        let data = vec![1.0; dim * dim * dim];
        let regions: Vec<Region> = (0..4)
            .map(|i| Region {
                origin: (0, 0, 2 * i),
                shape: (8, 8, 2),
            })
            .collect();
        let groups = compress_all(
            &data,
            dim,
            &regions,
            CodecId::Sz,
            &CodecConfig::abs(1e-6),
            None,
        );
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].origins.len(), 4);
    }

    #[test]
    fn tiling_splits_groups_spatially() {
        let dim = 8;
        let data = vec![1.0; dim * dim * dim];
        let regions: Vec<Region> = (0..4)
            .map(|i| Region {
                origin: (0, 0, 2 * i),
                shape: (8, 8, 2),
            })
            .collect();
        // A 4-cell tile buckets origins z=0,2 and z=4,6 separately.
        let plans = plan_groups(&regions, Some(4));
        assert_eq!(plans.len(), 2);
        let groups = compress_all(
            &data,
            dim,
            &regions,
            CodecId::Sz,
            &CodecConfig::abs(1e-6),
            Some(4),
        );
        assert_eq!(groups[0].aabb(), Aabb::new((0, 0, 0), (8, 8, 4)));
        assert_eq!(groups[1].aabb(), Aabb::new((0, 0, 4), (8, 8, 8)));
        // Roundtrip still exact.
        let out = decode_all(&groups, dim, CodecId::Sz).unwrap();
        assert!(out.iter().all(|&v| (v - 1.0).abs() <= 1e-6));
    }

    #[test]
    fn group_plan_reports_cost_and_bbox() {
        let regions = vec![
            Region {
                origin: (0, 0, 0),
                shape: (4, 4, 4),
            },
            Region {
                origin: (12, 8, 4),
                shape: (4, 4, 4),
            },
        ];
        let plans = plan_groups(&regions, None);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].num_cells(), 128);
        assert_eq!(regions[0].aabb(), Aabb::new((0, 0, 0), (4, 4, 4)));
    }

    #[test]
    fn corrupt_origin_rejected() {
        let dim = 8;
        let data = vec![1.0; dim * dim * dim];
        let regions = vec![Region {
            origin: (0, 0, 0),
            shape: (4, 4, 4),
        }];
        let mut groups = compress_all(
            &data,
            dim,
            &regions,
            CodecId::Sz,
            &CodecConfig::abs(1e-6),
            None,
        );
        groups[0].origins[0] = (6, 0, 0); // 6 + 4 > 8
        assert!(decode_all(&groups, dim, CodecId::Sz).is_err());
    }

    #[test]
    fn mismatched_stream_dims_rejected() {
        let dim = 8;
        let data = vec![1.0; dim * dim * dim];
        let regions = vec![Region {
            origin: (0, 0, 0),
            shape: (4, 4, 4),
        }];
        let mut groups = compress_all(
            &data,
            dim,
            &regions,
            CodecId::Sz,
            &CodecConfig::abs(1e-6),
            None,
        );
        groups[0].shape = (2, 2, 2);
        assert!(decode_all(&groups, dim, CodecId::Sz).is_err());
    }
}
