//! Region-of-interest decompression over a container of any version.
//!
//! In-situ AMR workflows (AMRIC, SC'23) rarely need a whole snapshot
//! back: a halo finder inspects a subvolume, a visualisation pans
//! through a slab. The chunk table records a bounding box per chunk,
//! so a decoder can seek to — and spend decode time on — only the
//! chunks whose boxes intersect the request, skipping the rest of the
//! payload entirely. A v1 body has no table; the parse walks it into the
//! same rows, so v1 files are read the same way.
//!
//! # The box contract
//!
//! A region read returns full-size levels in which every cell inside
//! the request — on level `l`, the box coarsened by `2^l` (floor on the
//! lower corner, ceiling on the upper) and clipped to the grid, see
//! [`level_boxes`] — equals a full decode bit for bit, and every other
//! cell holds `+0.0` bits. That holds for every method, element type
//! and codec, and does not depend on how the container was chunked:
//! the layout decides what a read costs, never what it returns.
//!
//! # What a read costs
//!
//! Selectivity comes from each method's own structure. A TAC level
//! chunk is one region group (OpST / AKDTree / NaST), one z-slab of a
//! dense level (ZeroFill / GSP under `roi_tile`) or, for a dense level
//! no larger than the tile, one whole-grid stream boxed by the mask's
//! bounding box. A zMesh or 1D chunk is one segment of the traversal —
//! a slab of whole z-planes, see [`crate::segment`]. A request decodes
//! the chunks it meets and skips the rest; only the 3D baseline is one
//! full-domain chunk and always decodes in full.
//!
//! The chunks it reads go through the full decode's own path
//! ([`crate::pipeline::decompress_dataset_in`]), whose level grids carry
//! each level's box as their clip ([`crate::grid::SlabGrid`]): every arm
//! writes only the present cells inside it — pasted, scattered, or
//! sampled — so the pages outside the box are never touched.
//!
//! The chunks a read meets decode as `tac-par` tasks on the default
//! parallelism ([`tac_par::Parallelism::default`]: the available cores,
//! capped at 16), like a full decode's. The executor caps the workers at
//! the task count and runs a one-task batch inline, so a read that meets
//! one chunk — the 3D baseline's, say — spawns no thread. What a read
//! returns does not depend on the worker count: the levels, the masks
//! and the [`RoiStats`] are bit-identical at any count, and a bad
//! container fails with the same error (an overlap, before any task
//! runs, at its lowest level; else the first in task order). What stays
//! serial is the parse — the LZSS unpack of the stored masks among it —
//! and zeroing the level grids the allocator hands back from its heap.

use crate::container::{parse_layout, ChunkEntry, MethodMeta};
use crate::error::TacError;
use crate::pipeline::{decompress_dataset_in, Body};
use crate::segment::{SegmentRef, StackSegments};
use crate::zmesh::{level_dim, refinement};
use std::ops::Range;
use tac_amr::{Aabb, AmrDataset};
use tac_codec::{CodecElement, CodecError};
use tac_par::Parallelism;

/// The box a region read of `roi` (finest-grid cells, half-open) keeps
/// on each of `levels` levels: coarsened by the level's refinement
/// `2^l` — floor on `min`, ceiling on `max`, so it covers every cell any
/// requested fine cell lies in — and clipped to the level's grid; empty
/// where the request misses the level.
pub(crate) fn level_boxes(roi: Aabb, finest_dim: usize, levels: usize) -> Vec<Aabb> {
    (0..levels)
        .map(|l| {
            let coarse = roi.coarsen(refinement(l).unwrap_or(usize::MAX));
            let grid = Aabb::whole(level_dim(finest_dim, l));
            coarse
                .intersection(&grid)
                .unwrap_or_else(|| Aabb::new((0, 0, 0), (0, 0, 0)))
        })
        .collect()
}

/// The rows of box `b` on a `dim`^3 grid (x fastest), as flat index
/// ranges in ascending order.
pub(crate) fn box_rows(b: Aabb, dim: usize) -> impl Iterator<Item = Range<usize>> {
    let width = b.max.0.saturating_sub(b.min.0);
    (b.min.2..b.max.2).flat_map(move |z| {
        (b.min.1..b.max.1).map(move |y| {
            let start = b.min.0 + dim * (y + dim * z);
            start..start + width
        })
    })
}

/// Byte accounting of one [`decompress_region_t`] call. "Read" counts the
/// payload chunks actually sliced and decoded; the header, masks, and
/// chunk table are always read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoiStats {
    /// Chunks listed in the container's table.
    pub chunks_total: usize,
    /// Chunks intersecting the region of interest (decoded).
    pub chunks_read: usize,
    /// Payload bytes across all chunks.
    pub payload_bytes_total: usize,
    /// Payload bytes of the decoded chunks only.
    pub payload_bytes_read: usize,
}

impl RoiStats {
    /// Fraction of payload bytes skipped, in `[0, 1]`.
    pub fn skipped_fraction(&self) -> f64 {
        if self.payload_bytes_total == 0 {
            0.0
        } else {
            1.0 - self.payload_bytes_read as f64 / self.payload_bytes_total as f64
        }
    }
}

/// Mirrors a finished [`RoiStats`] into the observability counters, so
/// profiled runs report chunk selectivity without touching the API.
fn record_roi_stats(stats: &RoiStats) {
    if !tac_obs::enabled() {
        return;
    }
    tac_obs::add(tac_obs::Counter::RoiChunksTotal, stats.chunks_total);
    tac_obs::add(tac_obs::Counter::RoiChunksRead, stats.chunks_read);
    tac_obs::add(tac_obs::Counter::RoiBytesRead, stats.payload_bytes_read);
    tac_obs::add(
        tac_obs::Counter::RoiBytesSkipped,
        stats
            .payload_bytes_total
            .saturating_sub(stats.payload_bytes_read),
    );
}

/// Decodes the box `roi` (finest-level cell coordinates, half-open) of a
/// container of any version (v1–v5).
///
/// Returns full-size levels under the box contract of the module docs:
/// on level `l`, every cell inside `roi` coarsened by `2^l` (floor on
/// `min`, ceiling on `max`) and clipped to the grid equals a full decode
/// bit for bit, and every other cell holds `+0.0` bits — on every
/// method, element type and codec, however the container was chunked.
/// A box that misses the domain returns all-zero levels; one covering it
/// returns the full decode.
///
/// The reported [`RoiStats`] show how much payload the request avoided.
/// A skipped chunk costs nothing beyond its chunk-table row (and, for a
/// region group, the origin list the table check reads), and a read one
/// writes only its present cells inside the box: the level grids are
/// zero-initialised and only the box is written — the present cells of
/// TAC regions stored row by row, zMesh / 1D segments scattered piece by piece,
/// whole-level streams and the 3D baseline's grid copied or sampled box
/// row by box row — so the pages of a level grid outside the box are
/// never touched, and the call costs what its chunks and its box cost,
/// not what the bounding grids cost. The 3D baseline alone is a single
/// chunk and always decodes in full.
///
/// A v1 container has no chunk table: its body is walked into the rows
/// the writer would record for the same streams, and read like any
/// other, through the parse and row checks
/// [`crate::CompressedDataset::from_bytes`] uses.
///
/// A container whose element type disagrees with `T` is rejected up
/// front, before any chunk is sliced or decoded.
///
/// The chunks the box meets decode on the default parallelism, the
/// available cores capped at 16, with output and errors identical at
/// any worker count. A read that meets several chunks spawns scoped
/// threads — at most one per chunk and per core — for the length of the
/// call: a caller already running reads on a thread pool of its own
/// gets those threads on top of the pool's.
pub fn decompress_region_t<T: CodecElement>(
    bytes: &[u8],
    roi: Aabb,
) -> Result<(AmrDataset<T>, RoiStats), TacError> {
    region_read(bytes, roi, Parallelism::default().workers())
}

/// [`decompress_region_t`] with its decode batch on `workers` threads.
pub(crate) fn region_read<T: CodecElement>(
    bytes: &[u8],
    roi: Aabb,
    workers: usize,
) -> Result<(AmrDataset<T>, RoiStats), TacError> {
    let _roi_span = tac_obs::span(tac_obs::Stage::RoiDecode).arg("workers", workers);
    // Parsing and checking the table is this call's planning.
    let layout = {
        let _plan = tac_obs::span(tac_obs::Stage::Plan);
        parse_layout(bytes)?
    };
    if layout.dtype != T::DTYPE {
        return Err(TacError::Codec(CodecError::WrongDtype {
            stream: layout.dtype.label(),
            requested: T::DTYPE.label(),
        }));
    }
    let mut stats = RoiStats {
        chunks_total: layout.entries.len(),
        chunks_read: 0,
        payload_bytes_total: layout.entries.iter().map(|e| e.len).sum(),
        payload_bytes_read: 0,
    };
    let boxes = level_boxes(roi, layout.finest_dim, layout.masks.len());
    // A chunk is read when its box meets the request on its own level's
    // grid.
    let mut wanted = |e: &ChunkEntry| {
        let read = (boxes.get(usize::from(e.level))).is_some_and(|b| e.bbox.intersects(b));
        if read {
            stats.chunks_read += 1;
            stats.payload_bytes_read += e.len;
        }
        read
    };
    // The rows of one zMesh / 1D traversal the request meets, as
    // segments whose streams are sliced straight out of the payload.
    let mut read = |rows: &mut dyn Iterator<Item = &ChunkEntry>, planes: Vec<Range<usize>>| {
        rows.zip(planes)
            .filter(|(e, _)| wanted(e))
            .map(|(e, planes)| SegmentRef {
                planes,
                stream: layout.chunk_bytes(e),
            })
            .collect::<Vec<_>>()
    };

    // The rows were validated against the method metadata and the masks
    // by `parse_layout` itself, and the TAC levels come from the builder the
    // full parse uses, so this decoder and the full parse agree on what
    // a valid container is by construction.
    let tac_levels;
    let body = match &layout.meta {
        MethodMeta::Tac(metas) => {
            tac_levels = layout.tac_levels(metas, &mut wanted)?;
            Body::Tac(&tac_levels)
        }
        MethodMeta::ZMesh(_, codec) => Body::Stacks(vec![StackSegments {
            levels: 0..layout.masks.len(),
            codec: *codec,
            segments: read(&mut layout.entries.iter(), layout.zmesh_planes()?),
        }]),
        MethodMeta::Baseline1D(ebs) => {
            let mut stacks = Vec::with_capacity(ebs.len());
            for (l, eb) in ebs.iter().enumerate() {
                if let Some((_, codec)) = eb {
                    stacks.push(StackSegments {
                        levels: l..l + 1,
                        codec: *codec,
                        segments: read(&mut layout.level_entries(l), layout.level_planes(l)?),
                    });
                }
            }
            Body::Stacks(stacks)
        }
        // The 3D baseline cannot decode partially: its one chunk is
        // read and the stats reflect it.
        MethodMeta::Baseline3D(_, codec) => {
            stats.chunks_read = stats.chunks_total;
            stats.payload_bytes_read = stats.payload_bytes_total;
            let chunk = (layout.entries.first())
                .ok_or_else(|| TacError::Corrupt("3D container has no chunk".into()))?;
            Body::Uniform(*codec, layout.chunk_bytes(chunk))
        }
    };
    record_roi_stats(&stats);
    // The layout is this call's own: its masks move into the levels.
    let levels =
        decompress_dataset_in(layout.finest_dim, layout.masks, body, workers, Some(&boxes))?;
    Ok((AmrDataset::new(layout.name, levels), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TacConfig;
    use crate::container::tests::{edit_table, frozen_v1};
    use crate::container::{CompressedDataset, Method, MethodBody};
    use crate::pipeline::{compress_dataset_t, decompress_dataset_par_t};
    use crate::stream::LevelPayload;
    use tac_amr::{AmrDataset, AmrLevel, BitMask};
    use tac_codec::ErrorBound;

    /// Two-level dataset whose fine cells sit in two far-apart corner
    /// blobs, so corner ROIs have real selectivity.
    fn corners_dataset(fine_dim: usize) -> AmrDataset {
        let coarse_dim = fine_dim / 2;
        let mut fine = AmrLevel::empty(fine_dim);
        let mut coarse = AmrLevel::empty(coarse_dim);
        let blob = fine_dim / 4;
        for z in 0..coarse_dim {
            for y in 0..coarse_dim {
                for x in 0..coarse_dim {
                    let (fx, fy, fz) = (2 * x, 2 * y, 2 * z);
                    let near_lo = fx < blob && fy < blob && fz < blob;
                    let near_hi =
                        fx >= fine_dim - blob && fy >= fine_dim - blob && fz >= fine_dim - blob;
                    if near_lo || near_hi {
                        for dz in 0..2 {
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let v = (fx + dx + fy + dy + fz + dz) as f64 * 0.1 + 1.0;
                                    fine.set_value(fx + dx, fy + dy, fz + dz, v);
                                }
                            }
                        }
                    } else {
                        coarse.set_value(x, y, z, (x + y + z) as f64 * 0.2 + 3.0);
                    }
                }
            }
        }
        let ds = AmrDataset::new("corners", vec![fine, coarse]);
        ds.validate().unwrap();
        ds
    }

    #[test]
    fn roi_decode_matches_full_decode_inside_roi() {
        let ds = corners_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            roi_tile: Some(8),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let bytes = cd.to_bytes();
        let full = decompress_dataset_par_t::<f64>(
            &CompressedDataset::from_bytes(&bytes).unwrap(),
            Parallelism::Serial,
        )
        .unwrap();

        let roi = Aabb::new((0, 0, 0), (8, 8, 8)); // 1/8 of the fine volume
        let (partial, stats) = decompress_region_t::<f64>(&bytes, roi).unwrap();
        assert_box_contract(&partial, &full, roi);
        // The far corner's chunks were skipped.
        assert!(stats.chunks_read < stats.chunks_total);
        assert!(stats.payload_bytes_read < stats.payload_bytes_total);
        assert!(stats.skipped_fraction() > 0.0);
    }

    /// The box contract: inside `roi` on each level's grid the region
    /// read equals the full decode bit for bit, everywhere else it holds
    /// `+0.0` bits.
    fn assert_box_contract<T: CodecElement>(
        partial: &AmrDataset<T>,
        full: &AmrDataset<T>,
        roi: Aabb,
    ) {
        assert_eq!(partial.num_levels(), full.num_levels());
        for (l, (p, f)) in partial.levels().iter().zip(full.levels()).enumerate() {
            let (inside, dim) = (roi.coarsen(1 << l), p.dim());
            for (i, (a, b)) in p.data().iter().zip(f.data()).enumerate() {
                let want = if inside.contains(i % dim, i / dim % dim, i / dim / dim) {
                    b.to_bits_u64()
                } else {
                    0
                };
                assert_eq!(a.to_bits_u64(), want, "{roi:?}: level {l} cell {i}");
            }
        }
    }

    #[test]
    fn level_boxes_coarsen_outward_and_clip_to_each_grid() {
        let boxes = level_boxes(Aabb::new((3, 0, 5), (9, 20, 6)), 16, 3);
        assert_eq!(
            boxes,
            [
                Aabb::new((3, 0, 5), (9, 16, 6)),
                Aabb::new((1, 0, 2), (5, 8, 3)),
                Aabb::new((0, 0, 1), (3, 4, 2)),
            ]
        );
        // Off the domain, or empty: an empty box on every level.
        for roi in [
            Aabb::new((2, 2, 16), (4, 4, 30)),
            Aabb::new((5, 5, 5), (5, 9, 9)),
        ] {
            assert!(
                level_boxes(roi, 16, 3).iter().all(Aabb::is_empty),
                "{roi:?}"
            );
        }
        let rows: Vec<Range<usize>> = box_rows(Aabb::new((1, 2, 3), (3, 4, 4)), 4).collect();
        assert_eq!(rows, [57..59, 61..63]);
        assert_eq!(box_rows(Aabb::new((0, 0, 0), (0, 0, 0)), 4).count(), 0);
    }

    /// Every method answers a region read with exactly the box: TAC with
    /// dense levels cut into slabs and whole, zMesh and 1D over several
    /// segments, the 3D baseline from its one stream.
    #[test]
    fn every_method_returns_exactly_the_box() {
        let ds = corners_dataset(64);
        for (method, roi_tile) in [
            (Method::Tac, Some(8)),
            (Method::Tac, None),
            (Method::ZMesh, None),
            (Method::Baseline1D, None),
            (Method::Baseline3D, None),
        ] {
            let cfg = TacConfig {
                unit: 4,
                error_bound: ErrorBound::Abs(1e-3),
                roi_tile,
                ..Default::default()
            };
            let bytes = compress_dataset_t(&ds, &cfg, method).unwrap().to_bytes();
            let full = decompress_dataset_par_t::<f64>(
                &CompressedDataset::from_bytes(&bytes).unwrap(),
                Parallelism::Serial,
            )
            .unwrap();
            for roi in [
                Aabb::new((3, 5, 7), (29, 19, 41)),
                Aabb::new((50, 60, 0), (70, 64, 3)),
                Aabb::whole(64),
            ] {
                let (partial, _) = decompress_region_t::<f64>(&bytes, roi).unwrap();
                assert_box_contract(&partial, &full, roi);
            }
        }
    }

    #[test]
    fn roi_missing_everything_reads_no_tac_payload() {
        let ds = corners_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            roi_tile: Some(8),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let bytes = cd.to_bytes();
        // An empty ROI intersects nothing.
        let (out, stats) =
            decompress_region_t::<f64>(&bytes, Aabb::new((5, 5, 5), (5, 5, 5))).unwrap();
        assert_eq!(stats.payload_bytes_read, 0);
        for level in out.levels() {
            assert!(level.data().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn baselines_fall_back_to_full_decode() {
        let ds = corners_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Baseline3D).unwrap();
        let bytes = cd.to_bytes();
        let (out, stats) =
            decompress_region_t::<f64>(&bytes, Aabb::new((0, 0, 0), (4, 4, 4))).unwrap();
        assert_eq!(stats.payload_bytes_read, stats.payload_bytes_total);
        assert_eq!(out.num_levels(), ds.num_levels());
    }

    #[test]
    fn segmented_baselines_read_only_the_slabs_a_request_meets() {
        // 128^3 over 64^3, ~320 K values: several segments per traversal.
        let ds = corners_dataset(128);
        let cfg = TacConfig {
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let roi = Aabb::new((0, 0, 0), (32, 32, 32)); // 1/64 of the volume
        for method in [Method::ZMesh, Method::Baseline1D] {
            let bytes = compress_dataset_t(&ds, &cfg, method).unwrap().to_bytes();
            let full = decompress_dataset_par_t::<f64>(
                &CompressedDataset::from_bytes(&bytes).unwrap(),
                Parallelism::Serial,
            )
            .unwrap();
            let (partial, stats) = decompress_region_t::<f64>(&bytes, roi).unwrap();
            // A count gate that needs no clock. (The 1D fine level is
            // one 64 Ki-value segment spanning both corners, read whole.)
            assert!(stats.chunks_total >= 4, "{method:?}: {stats:?}");
            assert!(
                stats.chunks_read < stats.chunks_total,
                "{method:?}: {stats:?}"
            );
            let floor = if method == Method::ZMesh { 0.5 } else { 0.25 };
            assert!(stats.skipped_fraction() > floor, "{method:?}: {stats:?}");
            for (l, (p, f)) in partial.levels().iter().zip(full.levels()).enumerate() {
                let inside = roi.coarsen(1 << l);
                let dim = p.dim();
                for (i, (a, b)) in p.data().iter().zip(f.data()).enumerate() {
                    if inside.contains(i % dim, i / dim % dim, i / dim / dim) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{method:?} cell {l}/{i}");
                    } else {
                        // Whatever else was read agrees too; the rest is
                        // untouched zero.
                        assert!(a.to_bits() == b.to_bits() || a.to_bits() == 0);
                    }
                }
                // The far half of a multi-segment level lies in skipped
                // slabs.
                if method == Method::ZMesh || l == 1 {
                    assert!(p.data()[dim * dim * dim / 2..]
                        .iter()
                        .all(|v| v.to_bits() == 0));
                }
            }
            // A request that meets nothing reads nothing.
            let (_, stats) =
                decompress_region_t::<f64>(&bytes, Aabb::new((5, 5, 200), (9, 9, 300))).unwrap();
            assert_eq!((stats.chunks_read, stats.payload_bytes_read), (0, 0));
        }
    }

    #[test]
    fn roi_rejects_structurally_corrupt_tables_like_the_full_parse() {
        let ds = corners_dataset(16);
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            ..Default::default()
        };
        let cd = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
        let bytes = cd.to_bytes();
        // Drop the last chunk-table entry, keeping the footer
        // consistent: the table now disagrees with the per-level
        // metadata, and both decoders must say so.
        let tampered = edit_table(&bytes, |rows| {
            assert!(rows.len() > 1);
            rows.pop();
        });
        let err = CompressedDataset::from_bytes(&tampered).unwrap_err();
        assert!(err.to_string().contains("chunks, table lists"), "{err}");
        let err = decompress_region_t::<f64>(&tampered, Aabb::whole(16)).unwrap_err();
        assert!(err.to_string().contains("chunks, table lists"), "{err}");
    }

    #[test]
    fn f32_roi_decode_matches_full_decode_and_f64_decode_refuses() {
        let ds32 = corners_dataset(16).cast::<f32>();
        let cfg = TacConfig {
            unit: 4,
            error_bound: ErrorBound::Abs(1e-3),
            roi_tile: Some(8),
            ..Default::default()
        };
        let cd = crate::pipeline::compress_dataset_t(&ds32, &cfg, Method::Tac).unwrap();
        let bytes = cd.to_bytes();
        let roi = Aabb::new((0, 0, 0), (8, 8, 8));
        let (partial, stats) = decompress_region_t::<f32>(&bytes, roi).unwrap();
        assert!(stats.chunks_read < stats.chunks_total);
        let full = crate::pipeline::decompress_dataset_par_t::<f32>(
            &CompressedDataset::from_bytes(&bytes).unwrap(),
            Parallelism::Serial,
        )
        .unwrap();
        assert_box_contract(&partial, &full, roi);
        // Decoding an f32 container at f64 width is refused up front.
        assert!(decompress_region_t::<f64>(&bytes, roi).is_err());
    }

    /// What a region read at `workers` workers returns, as comparable
    /// bits: each level's cells and mask plus the stats, or the error
    /// text.
    type ReadBits = Result<(Vec<(Vec<u64>, BitMask)>, RoiStats), String>;

    fn read_bits<T: CodecElement>(bytes: &[u8], roi: Aabb, workers: usize) -> ReadBits {
        let (ds, stats) = region_read::<T>(bytes, roi, workers).map_err(|e| e.to_string())?;
        let levels = ds.levels().iter().map(|l| {
            let cells = l.data().iter().map(|v| v.to_bits_u64()).collect();
            (cells, l.mask().clone())
        });
        Ok((levels.collect(), stats))
    }

    /// Reads `bytes` at 1, 2 and 4 workers over boxes that meet a
    /// corner, cross tiles and slabs, cover the domain and miss it, and
    /// asserts the same levels, masks and stats — or the same error — at
    /// every count. Returns the 1-worker reads.
    fn assert_worker_identity<T: CodecElement>(bytes: &[u8], what: &str) -> Vec<ReadBits> {
        let dim = CompressedDataset::from_bytes(bytes).map_or(32, |cd| cd.finest_dim);
        let mut serial_reads = Vec::new();
        for roi in [
            Aabb::new((0, 0, 0), (dim / 2, dim / 2, dim / 2)),
            Aabb::new((3, 5, 7), (dim - 3, dim / 2 + 5, dim - 1)),
            Aabb::whole(dim),
            Aabb::new((1, 1, dim), (2, 2, dim + 4)),
        ] {
            let serial = read_bits::<T>(bytes, roi, 1);
            for workers in [2, 4] {
                let parallel = read_bits::<T>(bytes, roi, workers);
                assert!(
                    parallel == serial,
                    "{what} {roi:?}: {workers} workers read something else than 1"
                );
            }
            serial_reads.push(serial);
        }
        serial_reads
    }

    /// Region reads decode their chunks on the workers: every method —
    /// TAC region groups and GSP slabs, zMesh and 1D segments, the 3D
    /// baseline — at both widths returns the same bits and stats at
    /// every worker count, and a hostile container the same error.
    #[test]
    fn region_reads_are_identical_at_every_worker_count() {
        fn methods<T: CodecElement>(ds: &AmrDataset<T>, width: &str) {
            let cfg = |roi_tile| TacConfig {
                unit: 4,
                error_bound: ErrorBound::Abs(1e-3),
                roi_tile,
                ..Default::default()
            };
            for (method, roi_tile) in [
                (Method::Tac, Some(8)),
                (Method::Tac, None),
                (Method::Baseline3D, None),
            ] {
                let cd = compress_dataset_t(ds, &cfg(roi_tile), method).unwrap();
                let what = format!("{width} {method:?} tile {roi_tile:?}");
                assert_worker_identity::<T>(&cd.to_bytes(), &what);
            }
            // A small budget cuts each traversal into several segments.
            for method in [Method::ZMesh, Method::Baseline1D] {
                let cd = crate::segment::tests::compress(ds, &cfg(None), method, 2048).unwrap();
                let reads =
                    assert_worker_identity::<T>(&cd.to_bytes(), &format!("{width} {method:?}"));
                let Ok((_, stats)) = &reads[0] else {
                    panic!("{width} {method:?}: the corner read failed");
                };
                assert!(
                    0 < stats.chunks_read && stats.chunks_read < stats.chunks_total,
                    "{width} {method:?}: {stats:?}"
                );
            }
        }
        let ds = corners_dataset(32);
        methods(&ds, "f64");
        methods(&ds.cast::<f32>(), "f32");

        // Hostile files: the same error at every worker count.
        for bytes in [
            include_bytes!("../../../tests/data/hostile_v1_level_count.bin").as_slice(),
            include_bytes!("../../../tests/data/hostile_v1_group_extents.bin").as_slice(),
        ] {
            for read in assert_worker_identity::<f64>(bytes, "hostile") {
                assert!(read.is_err(), "a hostile file read as {read:?}");
            }
        }
        // Two region groups of the fine level cover the same cells: only
        // the region check can tell, and it names the level at every count.
        let golden = include_bytes!("../../../tests/data/golden_tac_v5.tacd");
        let mut cd = CompressedDataset::from_bytes(golden).unwrap();
        let MethodBody::Tac(levels) = &mut cd.body else {
            panic!("golden_tac_v5 is a TAC container");
        };
        let group = (levels.iter_mut())
            .find_map(|l| match &mut l.payload {
                LevelPayload::Groups(groups) => groups.iter_mut().find(|g| g.origins.len() > 1),
                _ => None,
            })
            .expect("golden_tac_v5 holds a group of several sub-blocks");
        let last = group.origins.len() - 1;
        group.origins[last] = group.origins[0];
        let overlapping = cd.to_bytes();
        let full = read_bits::<f64>(&overlapping, Aabb::whole(cd.finest_dim), 1);
        assert!(
            matches!(&full, Err(e) if e.contains("overlaps another region")),
            "{full:?}"
        );
        assert_worker_identity::<f64>(&overlapping, "overlapping groups");
    }

    /// v1 bodies are walked into rows: a region read of one keeps the
    /// box contract and reads the chunks its upgrade to v5 would.
    #[test]
    fn v1_containers_serve_region_reads() {
        for v1 in [
            frozen_v1!("tac_sz"),
            frozen_v1!("b1d_seg"),
            frozen_v1!("zmesh_seg"),
            frozen_v1!("b3d_sz"),
        ] {
            let cd = CompressedDataset::from_bytes(v1).unwrap();
            let full = decompress_dataset_par_t::<f64>(&cd, Parallelism::Serial).unwrap();
            let dim = cd.finest_dim;
            for roi in [
                Aabb::new((0, 0, 0), (dim / 2, dim / 2, dim / 2)),
                Aabb::new((1, dim / 4, dim / 2), (dim, dim - 1, dim)),
            ] {
                let (partial, stats) = decompress_region_t::<f64>(v1, roi).unwrap();
                assert_box_contract(&partial, &full, roi);
                let (_, upgraded) = decompress_region_t::<f64>(&cd.to_bytes(), roi).unwrap();
                assert_eq!(stats, upgraded, "{:?} {roi:?}", cd.method());
            }
        }
    }
}
