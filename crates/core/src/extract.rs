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
use tac_amr::{copy_region_into, Aabb, BitMask};
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

/// Runs one planned job: gathers the batched region data out of the
/// level's flat array (or GSP's padded grid) and compresses it as one
/// rank-4 stream through the given scalar codec. A lone region of whole
/// z-planes — a dense level's slab — is one contiguous range of `data`
/// and is encoded in place, not copied. Generic over the element type;
/// the width resolves once per stream through [`CodecElement`].
pub(crate) fn compress_group<T: CodecElement>(
    data: &[T],
    dim: usize,
    plan: &GroupPlan,
    codec: CodecId,
    cfg: &CodecConfig,
) -> Result<BlockGroup, TacError> {
    let (w, h, d) = plan.shape;
    let plane = dim * dim;
    let slab = match plan.origins.as_slice() {
        &[(0, 0, z)] if (w, h) == (dim, dim) => data.get(plane * z..plane * (z + d)),
        _ => None,
    };
    let gathered;
    let batch = match slab {
        Some(values) => values,
        None => {
            let mut batch = Vec::with_capacity(plan.num_cells());
            for &origin in &plan.origins {
                copy_region_into(&mut batch, data, dim, origin, plan.shape);
            }
            gathered = batch;
            gathered.as_slice()
        }
    };
    let stream = T::codec_compress(
        codec_for(codec),
        batch,
        Dims::D4(w, h, d, plan.origins.len()),
        cfg,
    )?;
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

/// Cells per sub-block (`w * h * d`) of a group whose declared extents
/// fit its level: each must lie in `1..=dim`. The extents are raw
/// 32-bit wire fields, so this is where a crafted shape is rejected —
/// before any product of them feeds a cost estimate or a slice length.
pub(crate) fn block_cells(shape: (usize, usize, usize), dim: usize) -> Result<usize, TacError> {
    let (w, h, d) = shape;
    [w, h, d]
        .into_iter()
        .try_fold(1usize, |cells, extent| {
            if (1..=dim).contains(&extent) {
                cells.checked_mul(extent)
            } else {
                None
            }
        })
        .ok_or_else(|| {
            TacError::Corrupt(format!(
                "group shape {shape:?} does not fit a {dim}^3 level"
            ))
        })
}

/// Sets the claim bits `[start, start + len)` and reports whether every
/// one of them was clear before (bits past the buffer count as taken).
fn claim(bits: &mut [u64], start: usize, len: usize) -> bool {
    let (mut at, end) = (start, start + len);
    let mut fresh = true;
    while at < end {
        // 1..=64 bits of one word, so neither shift leaves its range.
        let take = (64 - at % 64).min(end - at);
        let run = (u64::MAX >> (64 - take)) << (at % 64);
        let Some(word) = bits.get_mut(at / 64) else {
            return false;
        };
        fresh &= *word & run == 0;
        *word |= run;
        at += take;
    }
    fresh
}

/// Pastes the decoded sub-blocks of shape `shape` at `origins` — a
/// group's regions, or the one region of a whole-level stream — into
/// their level's grid, cut one slab per z-plane with claim bits, storing
/// only the cells the occupancy mask marks present. Row by row, under
/// the lock of the plane the row lies on, [`BitMask::copy_present`]
/// reads the row's mask bits once: a row with no present cell is not
/// written at all, an all-present word of it is one copy, and a mixed
/// word is copied byte by byte. The grid arrives holding `+0.0`
/// bits (see [`crate::pipeline::decompress_dataset_in`]), so absent
/// cells and the pages that hold only absent cells are never touched.
/// Every cell of every region row is claimed all the same. Under the
/// grid's clip — a region read's box — only the in-box part of each row
/// is stored, while the whole row is still claimed, so an overlap is
/// found wherever it lies, over present cells or absent ones. Each
/// sub-block's origin and shape are bounds-checked before its first row
/// is touched.
///
/// Returns whether every region cell was unclaimed — concurrent tasks
/// cannot agree on which region's value a cell claimed twice keeps, so
/// the caller rejects such a level — and how many cells were stored.
pub(crate) fn paste_group<T: Element>(
    grid: &SlabGrid<'_, T>,
    shape: (usize, usize, usize),
    origins: &[(u32, u32, u32)],
    values: &[T],
    mask: &BitMask,
) -> Result<(bool, usize), TacError> {
    let (dim, clip) = (grid.dim(), grid.clip());
    let (w, h, d) = shape;
    // `block_cells` guarantees a non-zero block, so the chunking below
    // cannot panic. `decode_group` validated the stream's declared dims,
    // but the values really come from a decoded payload: a sub-block
    // without data is an error, not an index.
    let mut blocks = values.chunks_exact(block_cells(shape, dim)?);
    let mut fresh = true;
    let mut stored = 0;
    for (i, &(x, y, z)) in origins.iter().enumerate() {
        let (x, y, z) = (x as usize, y as usize, z as usize);
        if x + w > dim || y + h > dim || z + d > dim {
            return Err(TacError::Corrupt(format!(
                "region at ({x},{y},{z}) shape {shape:?} exceeds grid {dim}"
            )));
        }
        let slice = blocks.next().ok_or_else(|| {
            TacError::Corrupt(format!("group stream holds no data for sub-block {i}"))
        })?;
        // The in-box part of every row of the block: `[from, to)` of the
        // row's `w` cells, on the rows the box holds.
        let (from, to) = clip.map_or((0, w), |b| {
            (b.min.0.clamp(x, x + w) - x, b.max.0.clamp(x, x + w) - x)
        });
        let inside = |yy: usize, zz: usize| {
            from < to
                && clip.map_or(true, |b| {
                    (b.min.1..b.max.1).contains(&yy) && (b.min.2..b.max.2).contains(&zz)
                })
        };
        let mut rows = slice.chunks_exact(w);
        for zz in z..z + d {
            let short = || TacError::Corrupt(format!("grid is short of a {dim}^3 level"));
            let mut plane = grid.lock(zz)?;
            let base = plane.base;
            let (cells, claims) = plane.cells_and_claims();
            for yy in y..y + h {
                let row = x + dim * (yy + dim * zz);
                let at = row.checked_sub(base).ok_or_else(short)?;
                let src = rows.next().ok_or_else(short)?;
                if inside(yy, zz) {
                    let (Some(dst), Some(src)) =
                        (cells.get_mut(at + from..at + to), src.get(from..to))
                    else {
                        return Err(short());
                    };
                    stored += mask.copy_present(row + from, src, dst);
                }
                fresh &= claim(claims, at, w);
            }
        }
    }
    Ok((fresh, stored))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `dim^3` grid cut the way TAC decodes paste into it: one claimed
    /// slab per plane.
    fn planes(cells: &mut [f64], dim: usize, clip: Option<Aabb>) -> SlabGrid<'_, f64> {
        SlabGrid::new(cells, dim, (0..dim).map(|z| z..z + 1), true, clip).unwrap()
    }

    /// Decodes and pastes every group into a dense, fully present
    /// `dim^3` grid (cells outside every region stay zero).
    fn decode_all(groups: &[BlockGroup], dim: usize, codec: CodecId) -> Result<Vec<f64>, TacError> {
        let mut out = vec![0.0; dim * dim * dim];
        let mask = BitMask::ones(out.len());
        let grid = planes(&mut out, dim, None);
        for g in groups {
            let values = decode_group(g, codec)?;
            assert!(paste_group(&grid, g.shape, &g.origins, &values, &mask)?.0);
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
        plan_groups(regions, tile)
            .iter()
            .map(|p| compress_group(data, dim, p, codec, cfg).unwrap())
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
    /// cells of its regions that lie inside the box, writes no other
    /// cell — absent ones included, since the grid it is handed already
    /// holds `+0.0` there — and claims every region cell, present or
    /// absent, inside the box or not.
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
        // Unclipped, a box that cuts both sub-blocks, and one that misses
        // them: only the boxed present cells are written, every region
        // cell is claimed all the same.
        for clip in [
            None,
            Some(Aabb::new((3, 1, 1), (6, 4, 7))),
            Some(Aabb::new((0, 0, 3), (8, 8, 6))),
        ] {
            // A sentinel everywhere shows which cells the paste wrote.
            let mut out = vec![9.0f64; dim * dim * dim];
            let grid = planes(&mut out, dim, clip);
            let (fresh, stored) = paste_group(&grid, g.shape, &g.origins, &values, &mask).unwrap();
            assert!(fresh);
            let claims: Vec<u64> = (0..dim)
                .flat_map(|z| grid.lock(z).unwrap().cells_and_claims().1.to_vec())
                .collect();
            drop(grid);
            let mut src = values.iter();
            let mut expect = vec![9.0f64; dim * dim * dim];
            let mut claimed = vec![false; dim * dim * dim];
            for &(x, y, z) in &g.origins {
                for zz in z as usize..z as usize + 2 {
                    for yy in y as usize..y as usize + 2 {
                        for xx in x as usize..x as usize + 5 {
                            let i = xx + dim * (yy + dim * zz);
                            let v = *src.next().unwrap();
                            claimed[i] = true;
                            if mask.get(i) && clip.map_or(true, |b| b.contains(xx, yy, zz)) {
                                expect[i] = v;
                            }
                        }
                    }
                }
            }
            assert_eq!(bits(&out), bits(&expect), "{clip:?}");
            assert_eq!(stored, expect.iter().filter(|&&v| v != 9.0).count());
            // The claim bits are exactly the region cells (an 8^3 plane
            // is one claim word), so a region sharing one cell overlaps.
            for (i, &c) in claimed.iter().enumerate() {
                assert_eq!(claims[i / 64] >> (i % 64) & 1 == 1, c, "cell {i}");
            }
            let grid = planes(&mut out, dim, Some(Aabb::new((0, 0, 0), (1, 1, 1))));
            assert!(
                paste_group(&grid, g.shape, &g.origins, &values, &mask)
                    .unwrap()
                    .0
            );
            // Outside the box, over a present cell and over an absent one
            // (cell 90 of the first sub-block): both are claimed twice.
            assert!(!mask.get(90));
            for corner in [(6, 4, 2), (2, 3, 1)] {
                let (fresh, stored) =
                    paste_group(&grid, (1, 1, 1), &[corner], &[1.0], &mask).unwrap();
                assert!(!fresh && stored == 0, "{corner:?}");
            }
        }
    }

    /// Claims over a plane whose rows straddle word boundaries (a 10^2
    /// plane is 100 bits in two words).
    #[test]
    fn claims_are_per_cell_across_word_boundaries() {
        let mut words = vec![0u64; 2];
        assert!(claim(&mut words, 60, 10)); // bits 60..70
        assert_eq!(words, [0xF << 60, 0x3F]);
        assert!(claim(&mut words, 0, 60));
        assert!(claim(&mut words, 70, 30));
        assert_eq!(words, [u64::MAX, (1 << 36) - 1]);
        assert!(!claim(&mut words, 69, 1));
        let mut words = vec![0u64; 2];
        assert!(claim(&mut words, 0, 128) && !claim(&mut words, 127, 1));
        // Past the buffer: refused, not indexed.
        assert!(!claim(&mut words, 120, 16));
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
