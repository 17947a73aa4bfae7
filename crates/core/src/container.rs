//! Self-contained container for a compressed AMR dataset.
//!
//! The container records the compression *method* (TAC or one of the
//! paper's three baselines), the per-level occupancy masks (the AMR grid
//! structure — LZSS-packed unless implied, and accounted separately from
//! the payload because every method shares it, mirroring how AMReX
//! stores box lists outside the field data), and the method-specific
//! payload.
//!
//! # One writer, one reader
//!
//! [`CompressedDataset::to_bytes`] is the only serializer and **v5** the
//! only version it writes:
//!
//! ```text
//! "TACD" | 5 | method u8 | dtype u8 | name blob | finest_dim u64 | L u8
//! mask_mode u8 | [mask blob, level 0] | mask blob, level 1 | … | level L-1
//! method metadata | payload blob | chunk table | table offset u64
//! ```
//!
//! The method metadata carries one scalar-codec byte per level; the
//! payload is a flat run of independent chunks (one per whole-level
//! stream, region group — a dense level's `roi_tile` z-slab is one — or
//! traversal segment); the **chunk table** maps
//! each chunk to its level, byte range, codec, element type and
//! cell-coordinate bounding box, and the trailing table offset lets file
//! readers seek straight to it. See [`crate::roi::decompress_region_t`]
//! for the selective decoder.
//!
//! **The mask section** is one `mask_mode` byte, then one LZSS blob per
//! stored mask, fine to coarse. In tree-based AMR — the paper's setting —
//! the levels partition the domain, so the finest mask, always the
//! largest, is exactly the cells no coarser level covers. Mode **1**
//! omits its blob, and the reader rebuilds it before anything else sees
//! the prelude as `m_0 = !up2(m_1 | up2(m_2 | … up2(m_{L-1})))` (`up2` =
//! [`BitMask::upsample2`], the outer `!up2` one
//! [`BitMask::upsample2_complement`] pass; all ones when `L = 1`). Mode
//! **0** stores every mask, as v1–v4 do. The writer picks by exact
//! equality, not by trusting its input: mode 1 iff the mask derived from
//! `masks[1..]` equals `masks[0]` bit for bit and `finest_dim` halves
//! exactly `L - 1` times. Hierarchies that are no tree — overlapping
//! levels, an uncovered cell, two dense levels, an odd side — get mode
//! 0, so every in-memory container still round-trips. Parsed masks, the
//! chunk table, every payload byte and every decoder are the same in
//! both modes.
//!
//! [`CompressedDataset::from_bytes`] still reads every version that was
//! ever written, to the same in-memory container:
//!
//! * **v1** — the original monolithic layout: payload streams inline,
//!   found by walking the body front to back. The scalar codec and
//!   element type are recovered from level tags and stream magics.
//! * **v2** — the chunked layout without codec or dtype bytes: every
//!   stream is SZ over `f64`.
//! * **v3** — v2 plus a scalar-codec byte ([`CodecId`]) per level in
//!   the method metadata *and* per chunk-table row; `f64` implied.
//! * **v4** — v3 plus one element-type byte ([`TacDtype`]) in the
//!   header and per chunk-table row.
//! * **v5** — v4 plus the `mask_mode` byte; rows stay v4 rows.
//!
//! The version byte is read once into a [`Wire`] that says which of
//! these bytes follow; no parse step compares versions itself.
//!
//! Every version parses to one layout: method metadata, one chunk row
//! per stream, and the payload the rows point into. A v1 body has no
//! chunk table, so its walker emits the rows the writer would record for
//! the same streams. One validator then holds every row to the rules
//! below, for `from_bytes` and [`crate::roi::decompress_region_t`] alike.
//!
//! Nothing in the workspace writes v1–v4 any more. Their readers are
//! held by the frozen containers under `tests/data/` (`golden_*` and
//! `legacy_*`, written by the last revisions that had the writers; see
//! `tests/golden_compat.rs`), which must keep parsing to the same
//! [`CompressedDataset`] and decoding bit-exactly. Re-serializing a
//! parsed legacy container upgrades it to v5.
//!
//! # What a chunk-table row's box means
//!
//! Readers seek by the boxes, so the parser holds every row to the box
//! the writer derives from data the parser can see itself (the row's
//! level grid, the masks, the chunk's own header) and refuses any other:
//!
//! * **TAC, whole-level stream** — the tight bounding box of the level's
//!   mask, in level coordinates.
//! * **TAC, region group** — the union of the group's sub-blocks, read
//!   back from the origin list at the head of the chunk.
//! * **3D baseline** — its one row spans the finest grid.
//! * **zMesh and 1D** — a body is one *or more* [`Segment`]s, one row
//!   each, and the row's z-extent **is the segment's address**: the row
//!   spans the whole x-y extent of its grid and the z-planes its segment
//!   codes (see [`crate::segment`]). zMesh rows name level 0 and sit on
//!   the finest grid, cut on multiples of `2^(levels - 1)` (one plane of
//!   the coarsest level); 1D rows sit on their own level's grid. The rows
//!   of a traversal tile the z-axis in order from plane 0 to the end of
//!   the grid — a gap, an overlap, a cut off the plane grid or a missing
//!   row is [`TacError::Corrupt`]. A 1D level coded as a single segment
//!   keeps the mask's tight box instead, like a TAC whole-level stream.
//!
//! Segmented bodies need no version byte. A body of one segment records
//! exactly the row it always has (zMesh: one level-0 whole-domain row;
//! 1D: the level's tight box), so every earlier container parses as the
//! one-segment case; and a reader from before segments meets an N-row
//! body with a clean chunk-count error ("expected exactly one chunk"),
//! never a misdecode. Where the cuts fall is the writer's business (a
//! fixed value budget, `segment::SEGMENT_BUDGET`): readers take every
//! cut from the table and depend on no constant. (A v1 body records its
//! cuts inline; its walker turns them into these rows.)

use crate::config::Strategy;
use crate::error::TacError;
use crate::segment::{planes_of_rows, Segment};
use crate::stats::CompressionStats;
use crate::stream::{v1_level_tag, BlockGroup, CompressedLevel, LevelPayload, Reader, Writer};
use crate::zmesh::{level_dim, refinement};
use std::ops::Range;
use tac_amr::{Aabb, BitMask};
use tac_codec::{sniff_codec, CodecId};
use tac_dtype::TacDtype;

/// Container magic number.
const MAGIC: &[u8; 4] = b"TACD";
/// Original monolithic container format.
const VERSION_V1: u8 = 1;
/// Chunked random-access container format.
const VERSION_V2: u8 = 2;
/// Chunked format with per-level and per-chunk codec tags.
const VERSION_V3: u8 = 3;
/// Chunked format with a dataset dtype byte and per-chunk dtype tags.
const VERSION_V4: u8 = 4;
/// v4 plus a mask-mode byte: the finest mask may be implied by the
/// coarser ones instead of stored. The version the writer emits.
const VERSION_V5: u8 = 5;
/// Mask mode: every level's mask is stored.
const MASKS_STORED: u8 = 0;
/// Mask mode: level 0's mask is omitted; see [`implied_finest_mask`].
const MASKS_FINEST_IMPLIED: u8 = 1;
/// Most bytes an implied mask may take per byte of container left after
/// the mode byte: what a stored mask can reach through LZSS (258x) times
/// the 8x of one refinement step, so omitting the blob buys a crafted
/// header no allocation a stored blob could not already demand.
const IMPLIED_MASK_BYTES_PER_BYTE: usize = 1 << 11;
/// Serialized chunk-table row size in a v2 container: level `u8` +
/// offset `u64` + len `u64` + bbox `6 x u32`. Read-only: nothing writes
/// v2 rows any more.
const CHUNK_ROW_BYTES_V2: usize = 41;
/// Serialized chunk-table row size in a v3 container: the v2 row plus
/// one codec byte. Read-only, like v2.
const CHUNK_ROW_BYTES_V3: usize = 42;
/// Serialized chunk-table row size in a v4 or v5 container — the one
/// the writer emits: the v3 row plus one element-type ([`TacDtype`])
/// byte.
pub const CHUNK_ROW_BYTES_V4: usize = 43;
/// Size of the chunk table's `u32` row-count prefix.
pub const CHUNK_COUNT_PREFIX_BYTES: usize = 4;
/// Size of the trailing `u64` table-offset footer a chunked container
/// ends with; seekable readers locate the chunk table through it.
pub const TABLE_FOOTER_BYTES: usize = 8;
/// Largest finest-grid side a container may declare (2^13 = 8192, i.e.
/// a 4 TiB uniform field — 8x the paper's largest run per axis). The
/// bound exists so `dim^3` arithmetic on wire-supplied dimensions can
/// never overflow and crafted headers cannot demand absurd allocations.
pub(crate) const MAX_FINEST_DIM: usize = 1 << 13;

/// Which compressor produced a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Level-wise 3D compression with per-level pre-processing (the
    /// paper's contribution).
    Tac,
    /// Each level compressed separately as a 1D array of its present
    /// values (the paper's "1D baseline").
    Baseline1D,
    /// All levels interleaved geometrically into one 1D stream (zMesh).
    ZMesh,
    /// Coarse levels up-sampled, merged to uniform resolution, compressed
    /// as one 3D array (the paper's "3D baseline").
    Baseline3D,
    /// Adaptive per-level/per-region selection (TAC+-style): a selection
    /// pass picks the concrete method and per-level codecs from trial
    /// encodes or subsampled rate estimates, then compresses with the
    /// winner. **Encoder-side only**: the container always records the
    /// concrete winning method (the body is never `Auto`), so every
    /// existing reader decodes Auto output unchanged.
    Auto,
}

impl Method {
    fn tag(self) -> u8 {
        match self {
            Method::Tac => 0,
            Method::Baseline1D => 1,
            Method::ZMesh => 2,
            Method::Baseline3D => 3,
            // Never serialized: the wire tag is derived from the body's
            // concrete method ([`MethodBody::method`] cannot return
            // `Auto`), and `from_tag` rejects this value, so a crafted
            // container cannot claim it either.
            Method::Auto => 255,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, TacError> {
        Ok(match tag {
            0 => Method::Tac,
            1 => Method::Baseline1D,
            2 => Method::ZMesh,
            3 => Method::Baseline3D,
            _ => return Err(TacError::Corrupt(format!("unknown method tag {tag}"))),
        })
    }

    /// Human-readable name used by the benchmark harnesses.
    pub fn label(self) -> &'static str {
        match self {
            Method::Tac => "TAC",
            Method::Baseline1D => "1D",
            Method::ZMesh => "zMesh",
            Method::Baseline3D => "3D",
            Method::Auto => "Auto",
        }
    }

    /// The fixed (non-adaptive) methods, in wire-tag order — the
    /// candidate set `Method::Auto` selects among, and the sweep axis of
    /// the benchmark and conformance harnesses.
    pub fn fixed() -> [Method; 4] {
        [
            Method::Tac,
            Method::Baseline1D,
            Method::ZMesh,
            Method::Baseline3D,
        ]
    }
}

/// One non-empty level of the 1D baseline: resolved absolute bound, the
/// scalar codec of its streams, and the level's flat traversal as one
/// or more [`Segment`]s tiling its z-planes.
pub type Baseline1DLevel = (f64, CodecId, Vec<Segment>);

/// Method-specific compressed payload.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodBody {
    /// One [`CompressedLevel`] per AMR level, fine to coarse.
    Tac(Vec<CompressedLevel>),
    /// Per level: `None` for empty levels, else a [`Baseline1DLevel`].
    Baseline1D(Vec<Option<Baseline1DLevel>>),
    /// The zMesh-ordered concatenation of all levels, as one or more
    /// [`Segment`]s tiling the z-planes of the coarsest level.
    ZMesh {
        /// Resolved absolute error bound, shared by every segment.
        abs_eb: f64,
        /// Scalar codec of every segment's stream.
        codec: CodecId,
        /// The traversal's segments, in plane order.
        segments: Vec<Segment>,
    },
    /// One rank-3 stream over the merged uniform grid.
    Baseline3D {
        /// Resolved absolute error bound.
        abs_eb: f64,
        /// Scalar codec of the stream.
        codec: CodecId,
        /// Rank-3 stream.
        stream: Vec<u8>,
    },
}

impl MethodBody {
    fn method(&self) -> Method {
        match self {
            MethodBody::Tac(..) => Method::Tac,
            MethodBody::Baseline1D(..) => Method::Baseline1D,
            MethodBody::ZMesh { .. } => Method::ZMesh,
            MethodBody::Baseline3D { .. } => Method::Baseline3D,
        }
    }
}

/// Accounted size of a segment list: every stream behind a `u64`
/// length prefix, plus — past one segment — a `u32` count and one `u32`
/// plane cut per segment (the framing of a v1 body).
// tac-lint: allow(arith) -- size accounting over in-memory streams already held in RAM; the sums cannot exceed what was allocated.
fn segments_bytes(segments: &[Segment]) -> usize {
    let framing = match segments.len() {
        0 | 1 => 0,
        n => 4 + 4 * n,
    };
    framing + segments.iter().map(|s| 8 + s.stream.len()).sum::<usize>()
}

/// A compressed AMR dataset: structure metadata plus method payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedDataset {
    /// Dataset name.
    pub name: String,
    /// Side of the finest grid.
    pub finest_dim: usize,
    /// Element type of every payload stream (`f64` for every container
    /// written before the dtype layer existed).
    pub dtype: TacDtype,
    /// Per-level occupancy masks, fine to coarse.
    pub masks: Vec<BitMask>,
    /// Method payload.
    pub body: MethodBody,
}

impl CompressedDataset {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.masks.len()
    }

    /// The compression method.
    pub fn method(&self) -> Method {
        self.body.method()
    }

    /// Total present cells across levels.
    pub fn total_present(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones()).sum()
    }

    /// Per-level strategies (TAC payloads only).
    pub fn strategies(&self) -> Option<Vec<Strategy>> {
        match &self.body {
            MethodBody::Tac(levels) => Some(levels.iter().map(|l| l.strategy).collect()),
            _ => None,
        }
    }

    /// Bytes of the compressed field payload — the size the paper's
    /// compression ratios count. A size formula, independent of the wire
    /// version: per TAC level [`CompressedLevel::total_bytes`]; per 1D
    /// level a tag byte, then (when present) the `f64` bound, a codec
    /// byte unless it is one SZ segment, and the segments; for zMesh and
    /// 3D the `f64` bound and the stream(s) — every stream behind a `u64`
    /// length prefix, plane cuts included past one segment. Masks, names
    /// and the chunk table are not payload.
    // tac-lint: allow(arith) -- size accounting over in-memory streams already held in RAM; the sums cannot exceed what was allocated.
    pub fn payload_bytes(&self) -> usize {
        match &self.body {
            MethodBody::Tac(levels) => levels.iter().map(|l| l.total_bytes()).sum(),
            MethodBody::Baseline1D(levels) => levels
                .iter()
                .map(|l| {
                    l.as_ref().map_or(1, |(_, codec, segments)| {
                        let tagged = *codec != CodecId::Sz || segments.len() > 1;
                        9 + usize::from(tagged) + segments_bytes(segments)
                    })
                })
                .sum(),
            MethodBody::ZMesh { segments, .. } => 8 + segments_bytes(segments),
            MethodBody::Baseline3D { stream, .. } => 8 + 8 + stream.len(),
        }
    }

    /// Bytes of the grid-structure section as [`Self::to_bytes`] writes
    /// it: the mask-mode byte plus every stored mask, LZSS-packed behind
    /// its length prefix (shared by all methods; excluded from
    /// compression-ratio accounting, like AMReX box lists).
    pub fn structure_bytes(&self) -> usize {
        let mut w = Writer::new();
        self.write_masks(&mut w);
        w.len()
    }

    /// Writes the mask section: the mode byte, then the LZSS-packed mask
    /// of every level — but for the finest when the coarser ones imply
    /// it. The mode is decided by exact equality, whatever built the
    /// masks: a hierarchy that is not a refinement tree (overlapping
    /// levels, an uncovered cell, a side that does not halve) stores
    /// every mask.
    fn write_masks(&self, w: &mut Writer) {
        let implied = self.masks.split_first().is_some_and(|(finest, coarser)| {
            implied_finest_mask(coarser, self.finest_dim).as_ref() == Some(finest)
        });
        w.put_u8(if implied {
            MASKS_FINEST_IMPLIED
        } else {
            MASKS_STORED
        });
        // The span times the packs alone; the implied-mask check above
        // is serialization work.
        let _pack = tac_obs::span(tac_obs::Stage::Lossless);
        for m in self.masks.iter().skip(usize::from(implied)) {
            w.put_blob(&tac_codec::lossless::compress(&m.to_bytes()));
        }
    }

    /// Compression accounting over the AMR representation (present cells
    /// only — the true storage the dataset needs before compression).
    /// Original bytes are counted at the container's element width, so
    /// `f32` datasets are not credited with `f64`-sized input.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::new_for(self.total_present(), self.payload_bytes(), self.dtype)
    }

    /// Serializes the container as v5, the chunked codec- and
    /// dtype-tagged layout with a mask-mode byte — the only version
    /// written, whatever the body holds.
    // tac-lint: allow(arith) -- writer-side width reduction: level, mask, and group counts come from validated in-memory datasets (<= 16 levels, group counts bounded by the grid volume).
    pub fn to_bytes(&self) -> Vec<u8> {
        let _serialize = tac_obs::span(tac_obs::Stage::Serialize);
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u8(VERSION_V5);
        w.put_u8(self.method().tag());
        w.put_u8(self.dtype.tag());
        w.put_str(&self.name);
        w.put_u64(self.finest_dim as u64);
        w.put_u8(self.masks.len() as u8);
        let masks_at = w.len();
        self.write_masks(&mut w);
        tac_obs::add(tac_obs::Counter::StructureBytesOut, w.len() - masks_at);

        // Method metadata (everything except the streams themselves).
        match &self.body {
            MethodBody::Tac(levels) => {
                for l in levels {
                    w.put_u8(l.strategy.tag());
                    w.put_u64(l.dim as u64);
                    w.put_f64(l.abs_eb);
                    match &l.payload {
                        LevelPayload::Empty => w.put_u8(0),
                        LevelPayload::Whole(_) => w.put_u8(1),
                        LevelPayload::Groups(groups) => {
                            w.put_u8(2);
                            w.put_u32(groups.len() as u32);
                        }
                    }
                    w.put_u8(l.codec.tag());
                }
            }
            MethodBody::Baseline1D(levels) => {
                for l in levels {
                    match l {
                        None => w.put_u8(0),
                        Some((eb, codec, _)) => {
                            w.put_u8(1);
                            w.put_f64(*eb);
                            w.put_u8(codec.tag());
                        }
                    }
                }
            }
            MethodBody::ZMesh { abs_eb, codec, .. }
            | MethodBody::Baseline3D { abs_eb, codec, .. } => {
                w.put_f64(*abs_eb);
                w.put_u8(codec.tag());
            }
        }

        // Payload: a `u64` length (patched in below, once known), then
        // the chunks back to back, each noted as a table entry with its
        // offset relative to the payload start.
        let len_at = w.len();
        w.put_u64(0);
        let payload_at = w.len();
        let mut entries: Vec<ChunkEntry> = Vec::new();
        let mut chunk = |w: &mut Writer, level: usize, codec, bbox, put: &dyn Fn(&mut Writer)| {
            let at = w.len();
            put(w);
            entries.push(ChunkEntry {
                level: level as u8,
                offset: at - payload_at,
                len: w.len() - at,
                codec,
                dtype: self.dtype,
                bbox,
            });
        };
        match &self.body {
            MethodBody::Tac(levels) => {
                for (l, cl) in levels.iter().enumerate() {
                    match &cl.payload {
                        LevelPayload::Empty => {}
                        LevelPayload::Whole(stream) => {
                            let bbox = tight_box(self.masks.get(l), cl.dim);
                            chunk(&mut w, l, cl.codec, bbox, &|w| w.put_bytes(stream));
                        }
                        LevelPayload::Groups(groups) => {
                            for g in groups {
                                chunk(&mut w, l, cl.codec, g.aabb(), &|w| g.write(w));
                            }
                        }
                    }
                }
            }
            MethodBody::Baseline1D(levels) => {
                for (l, entry) in levels.iter().enumerate() {
                    let Some((_, codec, segments)) = entry else {
                        continue;
                    };
                    let dim = level_dim(self.finest_dim, l);
                    let slabs = slab_boxes(segments.iter().map(|s| s.plane_end), dim, 1);
                    for (s, slab) in segments.iter().zip(slabs) {
                        // A lone segment keeps the level's tight box;
                        // otherwise the row's z-extent is its address.
                        let bbox = match segments.len() {
                            1 => tight_box(self.masks.get(l), dim),
                            _ => slab,
                        };
                        chunk(&mut w, l, *codec, bbox, &|w| w.put_bytes(&s.stream));
                    }
                }
            }
            MethodBody::ZMesh {
                codec, segments, ..
            } => {
                // Rows sit on the finest grid, where a plane of the
                // coarsest level is `scale` planes thick.
                let scale = zmesh_row_scale(self.masks.len());
                let ends = segments.iter().map(|s| s.plane_end);
                let boxes = slab_boxes(ends, self.finest_dim, scale);
                for (s, bbox) in segments.iter().zip(boxes) {
                    chunk(&mut w, 0, *codec, bbox, &|w| w.put_bytes(&s.stream));
                }
            }
            MethodBody::Baseline3D { codec, stream, .. } => {
                let bbox = Aabb::whole(self.finest_dim);
                chunk(&mut w, 0, *codec, bbox, &|w| w.put_bytes(stream));
            }
        }

        // Chunk table, then its offset as the footer (a file reader can
        // seek to the last 8 bytes, then to the table, then to exactly
        // the chunks it needs).
        let table_pos = w.len();
        w.put_u32(entries.len() as u32);
        for e in &entries {
            e.write(&mut w);
        }
        w.put_u64(table_pos as u64);
        let mut bytes = w.into_bytes();
        let payload_len = (table_pos - payload_at) as u64;
        // The slot is the placeholder written above.
        if let Some(slot) = bytes.get_mut(len_at..payload_at) {
            slot.copy_from_slice(&payload_len.to_le_bytes());
        }
        bytes
    }

    /// Parses a container of any version (v1–v5): whatever
    /// [`CompressedDataset::to_bytes`] writes now or any earlier writer
    /// ever wrote.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TacError> {
        parse_layout(bytes)?.assemble()
    }
}

/// The finest mask a refinement tree implies: its levels partition the
/// domain, so level 0 holds exactly the cells no coarser level does —
/// `!up2(m_1 | up2(m_2 | … up2(m_{L-1})))` with `up2` the 2x upsample
/// of [`BitMask::upsample2`] (the outer `!up2` built in one pass by
/// [`BitMask::upsample2_complement`]), and all ones for a single level.
/// `coarser` holds the masks of levels `1..L`. `None` when `finest_dim`
/// does not halve exactly once per coarser level or a mask is not its
/// level's grid: no tree is implied there.
fn implied_finest_mask(coarser: &[BitMask], finest_dim: usize) -> Option<BitMask> {
    let scale = refinement(coarser.len())?;
    if finest_dim == 0 || finest_dim > MAX_FINEST_DIM || finest_dim % scale != 0 {
        return None;
    }
    // Coarsest first: the cells that a level or one coarser than it
    // holds, on that level's grid. `coarser[i]` is level `i + 1`.
    let mut covered: Option<BitMask> = None;
    for (i, mask) in coarser.iter().enumerate().rev() {
        let dim = level_dim(finest_dim, i.checked_add(1)?);
        if mask.len() != dim.checked_pow(3)? {
            return None;
        }
        covered = Some(match covered {
            None => mask.clone(),
            Some(below) => {
                let mut held = below.upsample2(dim / 2);
                held.union_with(mask);
                held
            }
        });
    }
    Some(match covered {
        None => BitMask::ones(finest_dim.checked_pow(3)?),
        Some(below) => below.upsample2_complement(finest_dim / 2),
    })
}

/// What one container version puts on the wire, decided once from its
/// version byte, so no parse step compares versions itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wire {
    /// v2+: a chunk table (a v1 body is walked into rows instead).
    table: bool,
    /// v3+: a codec byte in the method metadata and every table row.
    codec_bytes: bool,
    /// v4+: an element-type byte in the header and every table row.
    dtype_bytes: bool,
    /// v5: a mask-mode byte after the level count.
    mask_mode: bool,
    /// Bytes of one chunk-table row.
    row_bytes: usize,
}

impl Wire {
    /// The wire of container version `version`, if a reader knows it.
    fn of(version: u8) -> Result<Self, TacError> {
        let row_bytes = match version {
            VERSION_V2 => CHUNK_ROW_BYTES_V2,
            VERSION_V3 => CHUNK_ROW_BYTES_V3,
            VERSION_V1 | VERSION_V4 | VERSION_V5 => CHUNK_ROW_BYTES_V4,
            _ => {
                return Err(TacError::Corrupt(format!(
                    "unsupported container version {version}"
                )))
            }
        };
        Ok(Wire {
            table: version >= VERSION_V2,
            codec_bytes: version >= VERSION_V3,
            dtype_bytes: version >= VERSION_V4,
            mask_mode: version >= VERSION_V5,
            row_bytes,
        })
    }
}

/// A codec byte where the layout has one; untagged streams are SZ.
fn read_codec(r: &mut Reader<'_>, tagged: bool) -> Result<CodecId, TacError> {
    if !tagged {
        return Ok(CodecId::Sz);
    }
    CodecId::from_tag(r.get_u8()?).map_err(TacError::Codec)
}

/// An element-type byte where the layout has one; untagged data is `f64`.
fn read_dtype(r: &mut Reader<'_>, tagged: bool) -> Result<TacDtype, TacError> {
    if !tagged {
        return Ok(TacDtype::F64);
    }
    let tag = r.get_u8()?;
    TacDtype::from_tag(tag)
        .ok_or_else(|| TacError::Corrupt(format!("unknown element-type tag {tag}")))
}

/// Parsed shared front matter of every container version.
#[derive(Debug)]
pub(crate) struct Prelude {
    pub wire: Wire,
    pub method: Method,
    /// From the v4 header byte; `F64` for every earlier version (v1
    /// bodies may refine this from their self-describing payloads).
    pub dtype: TacDtype,
    pub name: String,
    pub finest_dim: usize,
    pub masks: Vec<BitMask>,
}

/// Shared front matter of every container version: magic, version byte,
/// method, dtype byte (v4+), name, finest dim, level count, mask mode
/// (v5) and the packed masks — with an implied finest mask rebuilt here,
/// so nothing behind the prelude can tell the two modes apart.
fn parse_prelude(r: &mut Reader<'_>) -> Result<Prelude, TacError> {
    let magic = r.get_bytes(4)?;
    if magic != MAGIC {
        return Err(TacError::Corrupt(format!("bad magic {magic:02x?}")));
    }
    let wire = Wire::of(r.get_u8()?)?;
    let method = Method::from_tag(r.get_u8()?)?;
    let dtype = read_dtype(r, wire.dtype_bytes)?;
    let name = r.get_str()?;
    let finest_dim = r.get_u64()? as usize;
    // A crafted dimension must fail cleanly before any `dim^3` products:
    // unchecked, the multiplication overflows (a panic under debug
    // assertions) and the implied allocations are absurd anyway.
    if finest_dim == 0 || finest_dim > MAX_FINEST_DIM {
        return Err(TacError::Corrupt(format!(
            "finest dim {finest_dim} outside the supported 1..={MAX_FINEST_DIM}"
        )));
    }
    let num_levels = r.get_u8()? as usize;
    if num_levels == 0 || num_levels > 16 {
        return Err(TacError::Corrupt(format!(
            "{num_levels} levels is implausible"
        )));
    }
    // Level l has side `finest_dim >> l`: more levels than the finest
    // grid can halve into would decode as zero-sized grids.
    if finest_dim >> (num_levels - 1) == 0 {
        return Err(TacError::Corrupt(format!(
            "{num_levels} levels do not fit a finest dim of {finest_dim}"
        )));
    }
    let implied = match wire.mask_mode.then(|| r.get_u8()).transpose()? {
        None | Some(MASKS_STORED) => false,
        Some(MASKS_FINEST_IMPLIED) => true,
        Some(mode) => return Err(TacError::Corrupt(format!("unknown mask mode {mode}"))),
    };
    if implied {
        // `finest_dim^3` cannot overflow below `MAX_FINEST_DIM`.
        let budget = r.remaining().saturating_mul(IMPLIED_MASK_BYTES_PER_BYTE);
        if finest_dim.pow(3) / 8 > budget {
            return Err(TacError::Corrupt(format!(
                "an implied {finest_dim}^3 mask is implausible over {} bytes",
                r.remaining()
            )));
        }
    }
    let _unpack = tac_obs::span(tac_obs::Stage::Lossless);
    let mut masks = Vec::with_capacity(num_levels);
    for l in usize::from(implied)..num_levels {
        let packed = r.get_blob()?;
        let raw = tac_codec::lossless::decompress(packed)
            .map_err(|e| TacError::Corrupt(format!("level {l} mask: {e}")))?;
        let mask = BitMask::from_bytes(&raw)
            .ok_or_else(|| TacError::Corrupt(format!("level {l} mask malformed")))?;
        let dim = finest_dim >> l;
        if mask.len() != dim * dim * dim {
            return Err(TacError::Corrupt(format!(
                "level {l} mask has {} bits, expected {}",
                mask.len(),
                dim * dim * dim
            )));
        }
        masks.push(mask);
    }
    if implied {
        let finest = implied_finest_mask(&masks, finest_dim).ok_or_else(|| {
            TacError::Corrupt(format!(
                "no finest mask is implied: dim {finest_dim} does not halve into {num_levels} levels"
            ))
        })?;
        masks.insert(0, finest);
    }
    Ok(Prelude {
        wire,
        method,
        dtype,
        name,
        finest_dim,
        masks,
    })
}

/// One chunk-table row: which level the chunk belongs to, where its
/// bytes live in the payload, which scalar codec wrote it (v3+; v2 rows
/// imply SZ), its element type (v4+; earlier rows imply `f64`), and the
/// cell-coordinate box it covers (level-local coordinates). A v1 body
/// has no table; its walker builds the same rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkEntry {
    pub level: u8,
    pub offset: usize,
    pub len: usize,
    pub codec: CodecId,
    pub dtype: TacDtype,
    pub bbox: Aabb,
}

impl ChunkEntry {
    /// Writes the row in its v4 form (`CHUNK_ROW_BYTES_V4` bytes).
    // tac-lint: allow(arith) -- writer-side width reduction: bbox coordinates are cell indices bounded by MAX_FINEST_DIM (2^13), far below u32::MAX.
    fn write(&self, w: &mut Writer) {
        w.put_u8(self.level);
        w.put_u64(self.offset as u64);
        w.put_u64(self.len as u64);
        w.put_u8(self.codec.tag());
        w.put_u8(self.dtype.tag());
        let (x0, y0, z0) = self.bbox.min;
        let (x1, y1, z1) = self.bbox.max;
        for v in [x0, y0, z0, x1, y1, z1] {
            w.put_u32(v as u32);
        }
    }

    fn read(r: &mut Reader<'_>, wire: Wire) -> Result<Self, TacError> {
        let level = r.get_u8()?;
        let offset = r.get_u64()? as usize;
        let len = r.get_u64()? as usize;
        let codec = read_codec(r, wire.codec_bytes)?;
        let dtype = read_dtype(r, wire.dtype_bytes)?;
        let x0 = r.get_u32()? as usize;
        let y0 = r.get_u32()? as usize;
        let z0 = r.get_u32()? as usize;
        let x1 = r.get_u32()? as usize;
        let y1 = r.get_u32()? as usize;
        let z1 = r.get_u32()? as usize;
        // `Aabb::new` clamps an inverted box to an empty one, which the
        // validator refuses like every other empty box.
        Ok(ChunkEntry {
            level,
            offset,
            len,
            codec,
            dtype,
            bbox: Aabb::new((x0, y0, z0), (x1, y1, z1)),
        })
    }
}

/// Per-level metadata of a TAC payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TacLevelMeta {
    pub strategy: Strategy,
    pub dim: usize,
    pub abs_eb: f64,
    /// Scalar codec of the level's streams (v2: always SZ).
    pub codec: CodecId,
    /// 0 = empty, 1 = whole-grid stream, 2 = region groups (for any
    /// strategy: a dense level cut into slabs is kind 2 too).
    pub kind: u8,
    /// Number of group chunks (kind 2 only).
    pub group_count: usize,
}

impl TacLevelMeta {
    /// Chunks the table must list for this level — the single source of
    /// the kind -> count mapping.
    pub fn expected_chunks(&self) -> usize {
        match self.kind {
            0 => 0,
            1 => 1,
            _ => self.group_count,
        }
    }
}

/// Method metadata of a parsed container.
#[derive(Debug, Clone)]
pub(crate) enum MethodMeta {
    Tac(Vec<TacLevelMeta>),
    /// Per level: the resolved bound and codec for present levels.
    Baseline1D(Vec<Option<(f64, CodecId)>>),
    ZMesh(f64, CodecId),
    Baseline3D(f64, CodecId),
}

/// A parsed container with the payload still in serialized form: its
/// rows — a v2–v5 chunk table, or what the walker of a v1 body emits —
/// decode on demand.
#[derive(Debug)]
pub(crate) struct Layout<'a> {
    pub name: String,
    pub finest_dim: usize,
    pub dtype: TacDtype,
    pub masks: Vec<BitMask>,
    pub meta: MethodMeta,
    pub payload: &'a [u8],
    pub entries: Vec<ChunkEntry>,
}

/// Parses a container of any version down to its validated layout,
/// without decoding any chunk.
pub(crate) fn parse_layout(bytes: &[u8]) -> Result<Layout<'_>, TacError> {
    let _parse = tac_obs::span(tac_obs::Stage::Parse);
    let mut r = Reader::new(bytes);
    let prelude = parse_prelude(&mut r)?;
    let layout = if prelude.wire.table {
        parse_chunked_tail(&mut r, prelude)?
    } else {
        walk_v1_body(r.rest(), prelude)?
    };
    // Enforce the table/metadata invariants once here, so every
    // consumer (full assemble, ROI decode) agrees on what a valid
    // container is by construction.
    layout.validate_chunk_table()?;
    Ok(layout)
}

/// The head of a TAC level's metadata in every version: strategy, side
/// (bounded, so every `dim^3` downstream stays overflow-free), bound.
fn read_level_head(r: &mut Reader<'_>) -> Result<(Strategy, usize, f64), TacError> {
    let strategy = Strategy::from_tag(r.get_u8()?)?;
    let dim = r.get_u64()? as usize;
    if dim == 0 || dim > MAX_FINEST_DIM {
        return Err(TacError::Corrupt(format!(
            "level dim {dim} outside the supported 1..={MAX_FINEST_DIM}"
        )));
    }
    Ok((strategy, dim, r.get_f64()?))
}

/// Parses everything after the shared prelude of a chunked container.
fn parse_chunked_tail<'a>(r: &mut Reader<'a>, prelude: Prelude) -> Result<Layout<'a>, TacError> {
    let Prelude {
        wire,
        method,
        dtype,
        name,
        finest_dim,
        masks,
    } = prelude;
    let num_levels = masks.len();
    let meta = match method {
        Method::Tac => {
            let mut metas = Vec::with_capacity(num_levels);
            for _ in 0..num_levels {
                let (strategy, dim, abs_eb) = read_level_head(r)?;
                let kind = r.get_u8()?;
                let group_count = match kind {
                    0 | 1 => 0,
                    2 => r.get_u32()? as usize,
                    k => return Err(TacError::Corrupt(format!("unknown payload kind {k}"))),
                };
                let codec = read_codec(r, wire.codec_bytes)?;
                metas.push(TacLevelMeta {
                    strategy,
                    dim,
                    abs_eb,
                    codec,
                    kind,
                    group_count,
                });
            }
            MethodMeta::Tac(metas)
        }
        Method::Baseline1D => {
            let mut ebs = Vec::with_capacity(num_levels);
            for _ in 0..num_levels {
                ebs.push(match r.get_u8()? {
                    0 => None,
                    1 => {
                        let eb = r.get_f64()?;
                        Some((eb, read_codec(r, wire.codec_bytes)?))
                    }
                    t => return Err(TacError::Corrupt(format!("unknown 1D level tag {t}"))),
                });
            }
            MethodMeta::Baseline1D(ebs)
        }
        Method::ZMesh => {
            let eb = r.get_f64()?;
            MethodMeta::ZMesh(eb, read_codec(r, wire.codec_bytes)?)
        }
        Method::Baseline3D => {
            let eb = r.get_f64()?;
            MethodMeta::Baseline3D(eb, read_codec(r, wire.codec_bytes)?)
        }
        Method::Auto => return Err(auto_on_the_wire()),
    };

    let payload = r.get_blob()?;
    let table_pos = r.position();
    let num_chunks = r.get_u32()? as usize;
    // Bound the allocation by what the buffer can hold: rows are fixed-size.
    if num_chunks > r.remaining() / wire.row_bytes {
        return Err(TacError::Corrupt(format!(
            "table declares {num_chunks} chunks but only {} bytes remain",
            r.remaining()
        )));
    }
    let mut entries = Vec::with_capacity(num_chunks);
    for _ in 0..num_chunks {
        let e = ChunkEntry::read(r, wire)?;
        // checked_add: a crafted offset near u64::MAX must fail cleanly,
        // not wrap past the bound and panic at slice time.
        let in_bounds = e
            .offset
            .checked_add(e.len)
            .is_some_and(|end| end <= payload.len());
        if !in_bounds {
            return Err(TacError::Corrupt(format!(
                "chunk at offset {} len {} exceeds payload of {} bytes",
                e.offset,
                e.len,
                payload.len()
            )));
        }
        if e.level as usize >= num_levels {
            return Err(TacError::Corrupt(format!(
                "chunk references level {} of {num_levels}",
                e.level
            )));
        }
        entries.push(e);
    }
    let stored_table_pos = r.get_u64()? as usize;
    if stored_table_pos != table_pos {
        return Err(TacError::Corrupt(format!(
            "table offset footer {stored_table_pos} does not match table at {table_pos}"
        )));
    }
    all_read(r, "")?;
    Ok(Layout {
        name,
        finest_dim,
        dtype,
        masks,
        meta,
        payload,
        entries,
    })
}

/// Walks a v1 (monolithic) `body` into the layout a chunk table gives:
/// the method metadata, and a row into `body` per stream where the writer
/// records one — a TAC whole-level stream or serialized region group,
/// each zMesh / 1D segment, the 3D stream. TAC level tags carry codec and
/// dtype; the baselines' streams carry them in their own headers.
fn walk_v1_body(body: &[u8], prelude: Prelude) -> Result<Layout<'_>, TacError> {
    let Prelude {
        method,
        name,
        finest_dim,
        masks,
        ..
    } = prelude;
    let r = &mut Reader::new(body);
    let num_levels = masks.len();
    // The element type of every row is set once the whole body is known.
    let row = |level: usize, at: Range<usize>, codec, bbox| ChunkEntry {
        level: u8::try_from(level).unwrap_or(u8::MAX),
        offset: at.start,
        len: at.len(),
        codec,
        dtype: TacDtype::F64,
        bbox,
    };
    // A single-stream baseline's codec is the one whose magic opens its
    // stream (every pre-codec stream sniffs as SZ).
    let sniff = |at: &Range<usize>| {
        sniff_codec(body.get(at.clone()).unwrap_or_default()).unwrap_or_default()
    };
    let mut entries = Vec::new();
    let mut tac_dtype = None;
    let meta = match method {
        Method::Tac => {
            let mut metas = Vec::with_capacity(num_levels);
            for l in 0..num_levels {
                let (strategy, dim, abs_eb) = read_level_head(r)?;
                let (kind, dtype, tagged) = v1_level_tag(r.get_u8()?)?;
                let codec = read_codec(r, tagged)?;
                if *tac_dtype.get_or_insert(dtype) != dtype {
                    return Err(TacError::Corrupt(
                        "levels disagree on the element type".into(),
                    ));
                }
                let mut group_count = 0;
                match kind {
                    0 => {}
                    1 => {
                        // The box of the grid the mask describes: the
                        // declared side is checked against it at decode.
                        let bbox = tight_box(masks.get(l), level_dim(finest_dim, l));
                        entries.push(row(l, blob_at(r)?, codec, bbox));
                    }
                    _ => {
                        group_count = r.get_u32()? as usize;
                        for _ in 0..group_count {
                            let start = r.position();
                            let bbox = BlockGroup::read_header(r)?.aabb();
                            r.get_blob()?;
                            entries.push(row(l, start..r.position(), codec, bbox));
                        }
                    }
                }
                metas.push(TacLevelMeta {
                    strategy,
                    dim,
                    abs_eb,
                    codec,
                    kind,
                    group_count,
                });
            }
            MethodMeta::Tac(metas)
        }
        Method::Baseline1D => {
            let mut levels = Vec::with_capacity(num_levels);
            for l in 0..num_levels {
                let tag = r.get_u8()?;
                let codec = match tag {
                    0 => {
                        levels.push(None);
                        continue;
                    }
                    // Tag 1 is legacy SZ, without a codec byte; tag 3 is
                    // the multi-segment form of tag 2.
                    1..=3 => read_codec(r, tag != 1)?,
                    t => return Err(TacError::Corrupt(format!("unknown 1D level tag {t}"))),
                };
                let abs_eb = r.get_f64()?;
                let dim = level_dim(finest_dim, l);
                let first = blob_at(r)?;
                let segments = v1_segments(r, first, dim, tag == 3)?;
                // A lone segment keeps the level's tight box, as written.
                let lone = (segments.len() == 1).then(|| tight_box(masks.get(l), dim));
                let slabs = slab_boxes(segments.iter().map(|s| s.1), dim, 1);
                for ((at, _), slab) in segments.iter().zip(slabs) {
                    entries.push(row(l, at.clone(), codec, lone.unwrap_or(slab)));
                }
                levels.push(Some((abs_eb, codec)));
            }
            MethodMeta::Baseline1D(levels)
        }
        Method::ZMesh => {
            let abs_eb = r.get_f64()?;
            let first = blob_at(r)?;
            let codec = sniff(&first);
            // Anything after the first stream is the multi-segment
            // framing (bodies written before it end right there).
            let multi = r.remaining() != 0;
            let planes = level_dim(finest_dim, num_levels.saturating_sub(1));
            let segments = v1_segments(r, first, planes, multi)?;
            let scale = zmesh_row_scale(num_levels);
            let slabs = slab_boxes(segments.iter().map(|s| s.1), finest_dim, scale);
            for ((at, _), slab) in segments.iter().zip(slabs) {
                entries.push(row(0, at.clone(), codec, slab));
            }
            MethodMeta::ZMesh(abs_eb, codec)
        }
        Method::Baseline3D => {
            let abs_eb = r.get_f64()?;
            let at = blob_at(r)?;
            let codec = sniff(&at);
            entries.push(row(0, at, codec, Aabb::whole(finest_dim)));
            MethodMeta::Baseline3D(abs_eb, codec)
        }
        Method::Auto => return Err(auto_on_the_wire()),
    };
    all_read(r, "")?;
    // The baselines' streams carry a dtype flag in their codec headers;
    // a body without streams (an all-empty dataset) is `f64`.
    let dtype = tac_dtype.unwrap_or_else(|| {
        (entries.iter())
            .find_map(|e| tac_codec::stream_dtype(body.get(e.offset..)?.get(..e.len)?))
            .unwrap_or_default()
    });
    for e in &mut entries {
        e.dtype = dtype;
    }
    Ok(Layout {
        name,
        finest_dim,
        dtype,
        masks,
        meta,
        payload: body,
        entries,
    })
}

/// A body parse meeting `Method::Auto`: unreachable by construction, as
/// `Method::from_tag` rejects the sentinel, but a corruption error rather
/// than a panic on the decode path.
fn auto_on_the_wire() -> TacError {
    TacError::Corrupt("Method::Auto is encoder-side only and never serializes".into())
}

/// Refuses the bytes `r` left unread, naming `what` they trail.
fn all_read(r: &Reader<'_>, what: &str) -> Result<(), TacError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(TacError::Corrupt(format!("{n} trailing bytes{what}"))),
    }
}

/// Reads a length-prefixed blob and returns where its bytes sit in the
/// reader's buffer.
fn blob_at(r: &mut Reader<'_>) -> Result<Range<usize>, TacError> {
    let blob = r.get_blob()?;
    let end = r.position();
    Ok(end - blob.len()..end)
}

/// Reads a v1 zMesh / 1D segment list after its first stream (`first`):
/// alone, it covers all `planes` planes of its stack; when `multi`, the
/// count, its cut and each further segment as cut + stream follow.
/// Returns each segment's stream bytes and plane cut.
fn v1_segments(
    r: &mut Reader<'_>,
    first: Range<usize>,
    planes: usize,
    multi: bool,
) -> Result<Vec<(Range<usize>, usize)>, TacError> {
    if !multi {
        return Ok(vec![(first, planes)]);
    }
    let count = r.get_u32()? as usize;
    // Every further segment is at least a cut and a length prefix.
    if count < 2 || count - 2 > r.remaining() / 12 {
        return Err(TacError::Corrupt(format!(
            "{count} segments is implausible"
        )));
    }
    let mut segments = Vec::with_capacity(count);
    segments.push((first, r.get_u32()? as usize));
    for _ in 1..count {
        let cut = r.get_u32()? as usize;
        segments.push((blob_at(r)?, cut));
    }
    // A row's box ends the last segment at the grid's edge, so the cut
    // recorded there has to be the stack's last plane.
    let last = segments.last().map_or(0, |s| s.1);
    if last != planes {
        return Err(TacError::Corrupt(format!(
            "the last segment ends at plane {last}, not at the stack's {planes}"
        )));
    }
    Ok(segments)
}

/// The box a whole-level row records: the tight bounding box of the
/// level's present cells (the whole grid when there are none).
fn tight_box(mask: Option<&BitMask>, dim: usize) -> Aabb {
    mask.and_then(|m| m.bounding_box(dim))
        .unwrap_or_else(|| Aabb::whole(dim))
}

/// The boxes a traversal's segments, ending at `plane_ends`, record on
/// the `dim`^3 grid their rows sit on, `scale` of its planes to a plane
/// of the traversal's coarsest level: each spans the whole x-y extent
/// and its segment's planes, and the last runs to the end of the grid.
fn slab_boxes(
    plane_ends: impl ExactSizeIterator<Item = usize>,
    dim: usize,
    scale: usize,
) -> impl Iterator<Item = Aabb> {
    let (count, mut from) = (plane_ends.len(), 0);
    plane_ends.enumerate().map(move |(i, end)| {
        let last = i + 1 == count;
        let to = if last { dim } else { end.saturating_mul(scale) };
        Aabb::new((0, 0, std::mem::replace(&mut from, to)), (dim, dim, to))
    })
}

/// Finest-grid planes per plane of the coarsest level: the unit a zMesh
/// row's z-extent is cut in.
fn zmesh_row_scale(num_levels: usize) -> usize {
    refinement(num_levels.saturating_sub(1)).unwrap_or(usize::MAX)
}

impl<'a> Layout<'a> {
    /// Checks the rows — a chunk table's, or a walked v1 body's —
    /// against the method metadata and the masks, the one body check of
    /// every version: each level lists exactly the chunks its metadata
    /// promises, tagged with its codec and the container's element type,
    /// a TAC level marked empty has no cells, and every row's box is the
    /// non-empty one the writer derives from data this check can see —
    /// inside its level's grid; the mask's tight box for a whole-level
    /// stream; the group header's own box for a region group (the stream
    /// behind the header is not read); the z-tiling rule for zMesh and
    /// 1D segments. Readers seek by these boxes, so a box that disagrees
    /// would make a region read silently skip live data; and a codec or
    /// dtype disagreement means the container was tampered with — better
    /// to refuse than to hand the chunk to the wrong backend.
    fn validate_chunk_table(&self) -> Result<(), TacError> {
        for e in &self.entries {
            // The writer only ever records non-empty boxes; accepting an
            // empty one would make a region read silently skip a live
            // chunk.
            if e.bbox.is_empty() {
                return Err(TacError::Corrupt(format!(
                    "chunk bbox [{:?}, {:?}) is empty",
                    e.bbox.min, e.bbox.max
                )));
            }
            // A mismatch would hand f32 bytes to an f64 monomorphization.
            if e.dtype != self.dtype {
                return Err(TacError::Corrupt(format!(
                    "chunk tagged {} but the container header says {}",
                    e.dtype, self.dtype
                )));
            }
            let dim = level_dim(self.finest_dim, usize::from(e.level));
            if e.bbox.max.0 > dim || e.bbox.max.1 > dim || e.bbox.max.2 > dim {
                return Err(TacError::Corrupt(format!(
                    "chunk box {:?} leaves the {dim}^3 grid of level {}",
                    e.bbox, e.level
                )));
            }
        }
        // The rows of `level`, which must all carry `codec`: how many.
        let rows = |level: usize, codec: CodecId| -> Result<usize, TacError> {
            let mut have = 0usize;
            for e in self.level_entries(level) {
                have += 1;
                if e.codec != codec {
                    return Err(TacError::Corrupt(format!(
                        "level {level}: chunk tagged {} but metadata says {}",
                        e.codec, codec
                    )));
                }
            }
            Ok(have)
        };
        let count = |level: usize, want: usize, have: usize| -> Result<(), TacError> {
            if have != want {
                return Err(TacError::Corrupt(format!(
                    "level {level}: expected {want} chunks, table lists {have}"
                )));
            }
            Ok(())
        };
        let same_box = |e: &ChunkEntry, want: Aabb| -> Result<(), TacError> {
            if e.bbox != want {
                return Err(TacError::Corrupt(format!(
                    "level {}: chunk box {:?} but its data spans {want:?}",
                    e.level, e.bbox
                )));
            }
            Ok(())
        };
        match &self.meta {
            MethodMeta::Tac(metas) => {
                for (l, meta) in metas.iter().enumerate() {
                    count(l, meta.expected_chunks(), rows(l, meta.codec)?)?;
                    // No payload means no cells (zMesh and 1D refuse the
                    // same in `segment::decompress_stacks`).
                    let mask = self.masks.get(l).filter(|_| meta.kind == 0);
                    let cells = mask.map_or(0, BitMask::count_ones);
                    if cells != 0 {
                        return Err(TacError::Corrupt(format!(
                            "level {l} marked empty but mask has {cells} cells"
                        )));
                    }
                    for e in self.level_entries(l) {
                        let want = match meta.kind {
                            1 => tight_box(self.masks.get(l), level_dim(self.finest_dim, l)),
                            _ => BlockGroup::read_header(&mut Reader::new(self.chunk_bytes(e)))?
                                .aabb(),
                        };
                        same_box(e, want)?;
                    }
                }
            }
            MethodMeta::Baseline1D(ebs) => {
                for (l, eb) in ebs.iter().enumerate() {
                    match eb {
                        None => count(l, 0, rows(l, CodecId::default())?)?,
                        Some((_, codec)) => {
                            rows(l, *codec)?;
                            self.level_planes(l)?;
                        }
                    }
                }
            }
            MethodMeta::ZMesh(_, codec) => {
                rows(0, *codec)?;
                self.zmesh_planes()?;
            }
            MethodMeta::Baseline3D(_, codec) => {
                count(0, 1, rows(0, *codec)?)?;
                count(0, 1, self.entries.len())?;
                for e in &self.entries {
                    same_box(e, Aabb::whole(self.finest_dim))?;
                }
            }
        }
        Ok(())
    }

    /// The plane ranges the rows of a zMesh table address, one per row:
    /// every row belongs to level 0 and the rows obey the tiling rule of
    /// [`planes_of_rows`] on the finest grid.
    pub fn zmesh_planes(&self) -> Result<Vec<Range<usize>>, TacError> {
        if self.entries.iter().any(|e| e.level != 0) {
            return Err(TacError::Corrupt(
                "a zMesh segment row names a level other than 0".into(),
            ));
        }
        let boxes: Vec<Aabb> = self.entries.iter().map(|e| e.bbox).collect();
        planes_of_rows(&boxes, self.finest_dim, zmesh_row_scale(self.masks.len()))
    }

    /// The plane ranges the rows of a present 1D level address, one per
    /// row. A lone row covers every plane and records the level's tight
    /// box (what one-stream levels have always recorded); several obey
    /// the tiling rule of [`planes_of_rows`] on the level's own grid.
    pub fn level_planes(&self, l: usize) -> Result<Vec<Range<usize>>, TacError> {
        let dim = level_dim(self.finest_dim, l);
        let boxes: Vec<Aabb> = self.level_entries(l).map(|e| e.bbox).collect();
        if let [lone] = boxes.as_slice() {
            let want = tight_box(self.masks.get(l), dim);
            if *lone != want {
                return Err(TacError::Corrupt(format!(
                    "level {l}: chunk box {lone:?} but its data spans {want:?}"
                )));
            }
            return Ok(std::iter::once(0..dim).collect());
        }
        planes_of_rows(&boxes, dim, 1)
    }

    /// Chunk-table rows belonging to `level`, in payload order.
    pub fn level_entries(&self, level: usize) -> impl Iterator<Item = &ChunkEntry> {
        self.entries
            .iter()
            .filter(move |e| e.level as usize == level)
    }

    /// The serialized bytes of one chunk. Every entry's byte range was
    /// bounds-checked against the payload at parse time; an entry that
    /// somehow escaped that check yields an empty slice, never a panic.
    pub fn chunk_bytes(&self, e: &ChunkEntry) -> &'a [u8] {
        e.offset
            .checked_add(e.len)
            .and_then(|end| self.payload.get(e.offset..end))
            .unwrap_or_default()
    }

    /// The in-memory segments of the given rows and the plane ranges
    /// they address.
    fn segments<'e>(
        &self,
        rows: impl Iterator<Item = &'e ChunkEntry>,
        planes: Vec<Range<usize>>,
    ) -> Vec<Segment> {
        rows.zip(planes)
            .map(|(e, planes)| Segment {
                plane_end: planes.end,
                stream: self.chunk_bytes(e).to_vec(),
            })
            .collect()
    }

    /// Builds the TAC levels from the rows `wanted` accepts — the one
    /// builder behind the full parse (which wants every row) and the
    /// region decoder (which wants the rows its request meets). A
    /// whole-level stream that is not wanted leaves its level `Empty`
    /// (zeros everywhere); an unwanted group is left out.
    pub fn tac_levels(
        &self,
        metas: &[TacLevelMeta],
        mut wanted: impl FnMut(&ChunkEntry) -> bool,
    ) -> Result<Vec<CompressedLevel>, TacError> {
        let mut levels = Vec::with_capacity(metas.len());
        for (l, meta) in metas.iter().enumerate() {
            let payload = match meta.kind {
                0 => LevelPayload::Empty,
                1 => {
                    let whole = self.level_entries(l).next().ok_or_else(|| {
                        TacError::Corrupt(format!("level {l}: whole chunk missing"))
                    })?;
                    if wanted(whole) {
                        LevelPayload::Whole(self.chunk_bytes(whole).to_vec())
                    } else {
                        LevelPayload::Empty
                    }
                }
                _ => {
                    let mut groups = Vec::new();
                    for entry in self.level_entries(l) {
                        if wanted(entry) {
                            groups.push(self.parse_group(entry)?);
                        }
                    }
                    LevelPayload::Groups(groups)
                }
            };
            levels.push(CompressedLevel {
                strategy: meta.strategy,
                dim: meta.dim,
                abs_eb: meta.abs_eb,
                codec: meta.codec,
                dtype: self.dtype,
                payload,
            });
        }
        Ok(levels)
    }

    /// Copies every chunk out of the payload, reassembling the full
    /// in-memory container. Chunk counts were already validated against
    /// the metadata at parse time. Consumes the layout so the name and
    /// masks move instead of cloning.
    pub fn assemble(self) -> Result<CompressedDataset, TacError> {
        let _parse = tac_obs::span(tac_obs::Stage::Parse);
        let body = match &self.meta {
            MethodMeta::Tac(metas) => MethodBody::Tac(self.tac_levels(metas, |_| true)?),
            MethodMeta::Baseline1D(ebs) => {
                let mut levels = Vec::with_capacity(ebs.len());
                for (l, eb) in ebs.iter().enumerate() {
                    levels.push(match eb {
                        None => None,
                        Some((eb, codec)) => {
                            let planes = self.level_planes(l)?;
                            Some((*eb, *codec, self.segments(self.level_entries(l), planes)))
                        }
                    });
                }
                MethodBody::Baseline1D(levels)
            }
            MethodMeta::ZMesh(abs_eb, codec) => MethodBody::ZMesh {
                abs_eb: *abs_eb,
                codec: *codec,
                segments: self.segments(self.entries.iter(), self.zmesh_planes()?),
            },
            MethodMeta::Baseline3D(abs_eb, codec) => MethodBody::Baseline3D {
                abs_eb: *abs_eb,
                codec: *codec,
                stream: self
                    .entries
                    .first()
                    .map(|e| self.chunk_bytes(e).to_vec())
                    .ok_or_else(|| TacError::Corrupt("3D container has no chunk".into()))?,
            },
        };
        Ok(CompressedDataset {
            name: self.name,
            finest_dim: self.finest_dim,
            dtype: self.dtype,
            masks: self.masks,
            body,
        })
    }

    /// Parses a group chunk body (must consume the chunk exactly).
    fn parse_group(&self, e: &ChunkEntry) -> Result<BlockGroup, TacError> {
        let mut r = Reader::new(self.chunk_bytes(e));
        let g = BlockGroup::read(&mut r)?;
        all_read(&r, " in group chunk")?;
        Ok(g)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Rewrites the chunk table of a chunked container: `edit` gets the
    /// rows as byte vectors (drop, reorder or patch them — see
    /// [`set_row_box`]); count prefix and footer are re-emitted to match.
    pub(crate) fn edit_table(bytes: &[u8], edit: impl FnOnce(&mut Vec<Vec<u8>>)) -> Vec<u8> {
        let row = Wire::of(bytes[4]).unwrap().row_bytes;
        let footer_at = bytes.len() - TABLE_FOOTER_BYTES;
        let table_pos = u64::from_le_bytes(bytes[footer_at..].try_into().unwrap()) as usize;
        let rows_at = table_pos + CHUNK_COUNT_PREFIX_BYTES;
        let mut rows: Vec<Vec<u8>> = bytes[rows_at..footer_at]
            .chunks_exact(row)
            .map(<[u8]>::to_vec)
            .collect();
        edit(&mut rows);
        let mut out = bytes[..table_pos].to_vec();
        out.extend((rows.len() as u32).to_le_bytes());
        out.extend(rows.concat());
        out.extend((table_pos as u64).to_le_bytes());
        out
    }

    /// Overwrites the box of one serialized chunk-table row (its last
    /// six `u32`s in every version).
    pub(crate) fn set_row_box(row: &mut [u8], bbox: Aabb) {
        let at = row.len() - 24;
        let (min, max) = (bbox.min, bbox.max);
        for (i, v) in [min.0, min.1, min.2, max.0, max.1, max.2]
            .into_iter()
            .enumerate()
        {
            row[at + 4 * i..at + 4 * i + 4].copy_from_slice(&(v as u32).to_le_bytes());
        }
    }

    /// The box of one serialized chunk-table row.
    pub(crate) fn row_box(row: &[u8]) -> Aabb {
        let at = row.len() - 24;
        let v: Vec<usize> = row[at..]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize)
            .collect();
        Aabb::new((v[0], v[1], v[2]), (v[3], v[4], v[5]))
    }

    fn sample_masks() -> Vec<BitMask> {
        let mut fine = BitMask::zeros(64); // 4^3
        for i in (0..64).step_by(2) {
            fine.set(i, true);
        }
        let mut coarse = BitMask::zeros(8); // 2^3
        coarse.set(0, true);
        vec![fine, coarse]
    }

    fn sample_tac_typed(codec: CodecId, dtype: TacDtype) -> CompressedDataset {
        CompressedDataset {
            name: "Run1_Z10".into(),
            finest_dim: 4,
            dtype,
            masks: sample_masks(),
            body: MethodBody::Tac(vec![
                CompressedLevel {
                    strategy: Strategy::OpST,
                    dim: 4,
                    abs_eb: 1e-3,
                    codec,
                    dtype,
                    payload: crate::stream::LevelPayload::Groups(vec![crate::stream::BlockGroup {
                        shape: (2, 2, 2),
                        origins: vec![(0, 0, 0), (2, 2, 2)],
                        stream: vec![4, 5, 6],
                    }]),
                },
                CompressedLevel {
                    strategy: Strategy::Gsp,
                    dim: 2,
                    abs_eb: 2e-3,
                    codec,
                    dtype,
                    payload: crate::stream::LevelPayload::Whole(vec![1, 2, 3]),
                },
            ]),
        }
    }

    fn sample_tac_with(codec: CodecId) -> CompressedDataset {
        sample_tac_typed(codec, TacDtype::F64)
    }

    fn sample_tac() -> CompressedDataset {
        sample_tac_with(CodecId::Sz)
    }

    /// A one-segment list over `planes` planes.
    fn lone(planes: usize, stream: Vec<u8>) -> Vec<Segment> {
        cut(&[planes], stream)
    }

    /// Segments ending at the given planes, each holding `stream`.
    fn cut(plane_ends: &[usize], stream: Vec<u8>) -> Vec<Segment> {
        plane_ends
            .iter()
            .map(|&plane_end| Segment {
                plane_end,
                stream: stream.clone(),
            })
            .collect()
    }

    /// A frozen v1 container under `tests/data/` (see
    /// `tests/golden_compat.rs`): nothing writes v1 any more, so the v1
    /// reader is exercised on what its last writer left behind.
    macro_rules! frozen_v1 {
        ($case:literal) => {
            include_bytes!(concat!("../../../tests/data/legacy_", $case, "_v1.tacd")).as_slice()
        };
    }
    pub(crate) use frozen_v1;

    #[test]
    fn auto_method_never_hits_the_wire() {
        // The sentinel tag is rejected on read, so no container —
        // written or crafted — can claim `Method::Auto`; only concrete
        // bodies serialize.
        assert!(Method::from_tag(Method::Auto.tag()).is_err());
        assert_eq!(Method::Auto.label(), "Auto");
        assert!(!Method::fixed().contains(&Method::Auto));
        for (i, m) in Method::fixed().into_iter().enumerate() {
            assert_eq!(m.tag() as usize, i, "fixed() must stay in tag order");
        }
    }

    #[test]
    fn container_roundtrip_tac_both_versions() {
        // Written today (v5), and a TAC container as the v1 writer left it.
        let cd = sample_tac();
        let v1 = CompressedDataset::from_bytes(frozen_v1!("tac_sz")).unwrap();
        for (back, want) in [
            (CompressedDataset::from_bytes(&cd.to_bytes()).unwrap(), &cd),
            (CompressedDataset::from_bytes(&v1.to_bytes()).unwrap(), &v1),
        ] {
            assert_eq!(&back, want);
            assert_eq!(back.method(), Method::Tac);
            assert_eq!(back.strategies().unwrap().len(), back.num_levels());
        }
        assert_eq!(
            cd.strategies().unwrap(),
            vec![Strategy::OpST, Strategy::Gsp]
        );
    }

    #[test]
    fn every_codec_and_dtype_serializes_as_v5_and_roundtrips() {
        for codec in CodecId::all() {
            for dtype in [TacDtype::F64, TacDtype::F32] {
                let cd = sample_tac_typed(codec, dtype);
                let bytes = cd.to_bytes();
                assert_eq!(bytes[4], VERSION_V5, "{codec}/{dtype}");
                // The dtype byte sits right after the method tag.
                assert_eq!(bytes[6], dtype.tag());
                assert_eq!(CompressedDataset::from_bytes(&bytes).unwrap(), cd);
            }
        }
        // Levels may mix codecs.
        let mut mixed = sample_tac();
        if let MethodBody::Tac(levels) = &mut mixed.body {
            levels[1].codec = CodecId::PcoLite;
        }
        assert_eq!(
            CompressedDataset::from_bytes(&mixed.to_bytes()).unwrap(),
            mixed
        );
    }

    #[test]
    fn container_roundtrip_baselines_both_versions() {
        for codec in CodecId::all() {
            for body in [
                MethodBody::Baseline1D(vec![Some((1e-3, codec, lone(4, vec![7, 8]))), None]),
                MethodBody::Baseline1D(vec![
                    Some((1e-3, codec, cut(&[1, 3, 4], vec![7, 8]))),
                    Some((2e-3, codec, cut(&[1, 2], vec![9]))),
                ]),
                MethodBody::ZMesh {
                    abs_eb: 0.5,
                    codec,
                    segments: lone(2, vec![1; 20]),
                },
                MethodBody::ZMesh {
                    abs_eb: 0.5,
                    codec,
                    segments: cut(&[1, 2], vec![1; 20]),
                },
                MethodBody::Baseline3D {
                    abs_eb: 0.25,
                    codec,
                    stream: vec![2; 10],
                },
            ] {
                let cd = CompressedDataset {
                    name: "x".into(),
                    finest_dim: 4,
                    dtype: TacDtype::F64,
                    masks: sample_masks(),
                    body,
                };
                let back = CompressedDataset::from_bytes(&cd.to_bytes()).unwrap();
                assert_eq!(back, cd);
                assert!(back.strategies().is_none());
            }
        }
        // And the baselines as the v1 writer left them, multi-segment
        // bodies included: they parse, and survive the upgrade to v5.
        for v1 in [
            frozen_v1!("b1d_sz"),
            frozen_v1!("b1d_ans"),
            frozen_v1!("b1d_seg"),
            frozen_v1!("zmesh_sz"),
            frozen_v1!("zmesh_seg"),
            frozen_v1!("b3d_sz"),
        ] {
            let cd = CompressedDataset::from_bytes(v1).unwrap();
            assert!(cd.strategies().is_none());
            assert_eq!(CompressedDataset::from_bytes(&cd.to_bytes()).unwrap(), cd);
        }
    }

    #[test]
    fn payload_bytes_count_what_the_v1_writer_emits() {
        // `payload_bytes()` is a size formula now, but not an arbitrary
        // one: it is the size of the container's v1 body. Held here to
        // the files the v1 writer left behind — each file less its
        // header and masks (what the prelude parse consumes), for every
        // level tag, 1D level tag and segment framing.
        for v1 in [
            frozen_v1!("tac_sz"),
            frozen_v1!("tac_ans"),
            frozen_v1!("tac_f32"),
            frozen_v1!("b1d_sz"),
            frozen_v1!("b1d_ans"),
            frozen_v1!("b1d_seg"),
            frozen_v1!("zmesh_sz"),
            frozen_v1!("zmesh_ans"),
            frozen_v1!("zmesh_seg"),
            frozen_v1!("b3d_sz"),
            frozen_v1!("b3d_ans"),
        ] {
            let mut r = Reader::new(v1);
            parse_prelude(&mut r).unwrap();
            let cd = CompressedDataset::from_bytes(v1).unwrap();
            assert_eq!(cd.payload_bytes(), r.remaining(), "{:?}", cd.method());
        }
        // The one-segment numbers are the ones the accounting always gave.
        let zmesh = CompressedDataset {
            name: "s".into(),
            finest_dim: 4,
            dtype: TacDtype::F64,
            masks: sample_masks(),
            body: MethodBody::ZMesh {
                abs_eb: 1.0,
                codec: CodecId::Sz,
                segments: lone(2, vec![0; 33]),
            },
        };
        assert_eq!(zmesh.payload_bytes(), 8 + 8 + 33);
    }

    #[test]
    fn v1_single_stream_baselines_sniff_their_codec() {
        // v1 zMesh and 3D bodies carry no codec byte: the codec is
        // recovered from the stream's own magic number.
        for (v1, want) in [
            (frozen_v1!("zmesh_sz"), CodecId::Sz),
            (frozen_v1!("zmesh_ans"), CodecId::PcoAns),
            (frozen_v1!("b3d_sz"), CodecId::Sz),
            (frozen_v1!("b3d_ans"), CodecId::PcoAns),
        ] {
            match CompressedDataset::from_bytes(v1).unwrap().body {
                MethodBody::ZMesh { codec, .. } | MethodBody::Baseline3D { codec, .. } => {
                    assert_eq!(codec, want)
                }
                body => panic!("not a single-stream baseline: {body:?}"),
            }
        }
    }

    #[test]
    fn v2_chunk_table_maps_payload() {
        let cd = sample_tac();
        let bytes = cd.to_bytes();
        let layout = parse_layout(&bytes).unwrap();
        // One group chunk on the fine level, one whole chunk on the
        // coarse level.
        assert_eq!(layout.entries.len(), 2);
        assert_eq!(layout.level_entries(0).count(), 1);
        assert_eq!(layout.level_entries(1).count(), 1);
        let fine = layout.level_entries(0).next().unwrap();
        assert_eq!(fine.bbox, Aabb::new((0, 0, 0), (4, 4, 4)));
        let coarse = layout.level_entries(1).next().unwrap();
        // Coarse mask has a single present cell at the origin.
        assert_eq!(coarse.bbox, Aabb::new((0, 0, 0), (1, 1, 1)));
        assert_eq!(layout.chunk_bytes(coarse), &[1, 2, 3]);
        // A v1 body has no table: its walker emits the rows the writer
        // records for the same streams.
        for v1 in [
            frozen_v1!("tac_sz"),
            frozen_v1!("tac_f32"),
            frozen_v1!("b1d_seg"),
            frozen_v1!("zmesh_seg"),
            frozen_v1!("b3d_ans"),
        ] {
            let upgraded = CompressedDataset::from_bytes(v1).unwrap().to_bytes();
            let walked = parse_layout(v1).unwrap();
            let written = parse_layout(&upgraded).unwrap();
            assert_eq!(walked.entries.len(), written.entries.len());
            for (a, b) in walked.entries.iter().zip(&written.entries) {
                let row = |e: &ChunkEntry| (e.level, e.codec, e.dtype, e.bbox);
                assert_eq!(row(a), row(b));
                assert_eq!(walked.chunk_bytes(a), written.chunk_bytes(b));
            }
        }
    }

    /// A v1 container: the prelude with every mask stored, then `body`.
    fn v1_container(
        method: Method,
        finest_dim: usize,
        masks: &[BitMask],
        body: impl FnOnce(&mut Writer),
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u8(VERSION_V1);
        w.put_u8(method.tag());
        w.put_str("v1");
        w.put_u64(finest_dim as u64);
        w.put_u8(masks.len() as u8);
        for m in masks {
            w.put_blob(&tac_codec::lossless::compress(&m.to_bytes()));
        }
        body(&mut w);
        w.into_bytes()
    }

    /// A one-level 2^3 v1 TAC container whose level carries payload
    /// `tag`, then `rest`.
    fn v1_tac_level(mask: BitMask, tag: u8, rest: &[u8]) -> Vec<u8> {
        v1_container(Method::Tac, 2, &[mask], |w| {
            w.put_u8(Strategy::Gsp.tag());
            w.put_u64(2);
            w.put_f64(1e-3);
            w.put_u8(tag);
            w.put_bytes(rest);
        })
    }

    #[test]
    fn v1_level_marked_empty_over_present_cells_is_rejected() {
        // v1 tag 0 (empty, f64) over eight present cells used to parse,
        // and decode to a silently all-zero level.
        let bytes = v1_tac_level(BitMask::ones(8), 0, &[]);
        both_refuse(&bytes, "level 0 marked empty but mask has 8 cells");
        // Over an empty mask it is what the v1 writer emitted.
        let cd = CompressedDataset::from_bytes(&v1_tac_level(BitMask::zeros(8), 0, &[])).unwrap();
        let MethodBody::Tac(levels) = &cd.body else {
            panic!("not a TAC body")
        };
        assert_eq!(levels[0].payload, LevelPayload::Empty);
    }

    #[test]
    fn v1_unknown_codec_byte_is_rejected() {
        // Tag 3: a whole-grid stream behind a codec byte, here naming no
        // backend.
        let mut rest = vec![200];
        rest.extend(3u64.to_le_bytes());
        rest.extend([1, 2, 3]);
        let err = CompressedDataset::from_bytes(&v1_tac_level(BitMask::ones(8), 3, &rest));
        assert!(matches!(err, Err(TacError::Codec(_))), "{err:?}");
    }

    #[test]
    fn v1_segments_must_end_at_the_last_plane() {
        // Two segments, cut after plane 1; the last one claims to end at
        // plane `last` of a stack of `planes`.
        let segments = |w: &mut Writer, last: u32| {
            w.put_blob(&[1, 2, 3]);
            w.put_u32(2);
            w.put_u32(1);
            w.put_u32(last);
            w.put_blob(&[4, 5]);
        };
        // A 1D level of 4 planes (tag 3: SZ, segmented) and a zMesh body
        // over a two-level stack of 2.
        let one_d = |last| {
            v1_container(Method::Baseline1D, 4, &[BitMask::ones(64)], |w| {
                w.put_u8(3);
                w.put_u8(CodecId::Sz.tag());
                w.put_f64(1e-3);
                segments(w, last);
            })
        };
        let zmesh = |last| {
            let masks = tree_masks(4, 2, 0);
            v1_container(Method::ZMesh, 4, &masks, |w| {
                w.put_f64(1e-3);
                segments(w, last);
            })
        };
        for (v1, planes) in [(&one_d as &dyn Fn(u32) -> Vec<u8>, 4), (&zmesh, 2)] {
            let cd = CompressedDataset::from_bytes(&v1(planes)).unwrap();
            let ends: Vec<usize> = match &cd.body {
                MethodBody::Baseline1D(levels) => levels[0].as_ref().unwrap().2.clone(),
                MethodBody::ZMesh { segments, .. } => segments.clone(),
                body => panic!("{body:?}"),
            }
            .iter()
            .map(|s| s.plane_end)
            .collect();
            assert_eq!(ends, [1, planes as usize]);
            for last in [planes - 1, planes + 1] {
                both_refuse(
                    &v1(last),
                    &format!("the last segment ends at plane {last}, not at the stack's {planes}"),
                );
            }
        }
    }

    #[test]
    fn stats_count_present_cells() {
        let cd = CompressedDataset {
            name: "s".into(),
            finest_dim: 4,
            dtype: TacDtype::F64,
            masks: sample_masks(),
            body: MethodBody::ZMesh {
                abs_eb: 1.0,
                codec: CodecId::Sz,
                segments: lone(2, vec![0; 33]),
            },
        };
        assert_eq!(cd.total_present(), 33);
        let stats = cd.stats();
        assert_eq!(stats.elements, 33);
        assert_eq!(stats.original_bytes, 33 * 8);
        assert!(cd.structure_bytes() > 0);
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        let cd = CompressedDataset {
            name: "c".into(),
            finest_dim: 4,
            dtype: TacDtype::F64,
            masks: sample_masks(),
            body: MethodBody::Baseline3D {
                abs_eb: 1.0,
                codec: CodecId::Sz,
                stream: vec![3; 5],
            },
        };
        for bytes in [frozen_v1!("b3d_sz").to_vec(), cd.to_bytes()] {
            assert!(CompressedDataset::from_bytes(&bytes[..bytes.len() - 1]).is_err());
            assert!(CompressedDataset::from_bytes(&bytes[1..]).is_err());
            let mut extra = bytes.clone();
            extra.push(0);
            assert!(CompressedDataset::from_bytes(&extra).is_err());
            let mut bad_version = bytes.clone();
            bad_version[4] = 77;
            assert!(CompressedDataset::from_bytes(&bad_version).is_err());
        }
    }

    #[test]
    fn corrupt_chunk_bbox_is_rejected_not_skipped() {
        // Write min.x > max.x into the first row: accepting this as an
        // "empty" box would make ROI decoding silently drop the chunk's
        // data.
        let bytes = edit_table(&sample_tac().to_bytes(), |rows| {
            let at = rows[0].len() - 24;
            rows[0][at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let err = CompressedDataset::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("is empty"), "{err}");
    }

    /// Wire kind 0 (no payload) over a mask with cells used to parse and
    /// decode to a silently all-zero level.
    #[test]
    fn a_level_marked_empty_over_present_cells_is_rejected() {
        // Over stored masks and over an implied finest one alike.
        for cd in [sample_tac(), tree_tac()] {
            marked_empty_over_present_cells_is_rejected(cd);
        }
    }

    fn marked_empty_over_present_cells_is_rejected(cd: CompressedDataset) {
        let honest = cd.to_bytes();
        // Level 1's metadata ends bound, kind, codec.
        let bound = 2e-3f64.to_le_bytes();
        let kind_at = honest.windows(8).position(|w| w == bound).unwrap() + 8;
        assert_eq!(honest[kind_at], 1);
        // Kind 0 lists no chunk, so the level's row goes too.
        let mut bytes = edit_table(&honest, |rows| rows.retain(|r| r[0] != 1));
        bytes[kind_at] = 0;
        both_refuse(&bytes, "level 1 marked empty but mask has 1 cells");
        // Over an empty mask the same level is what the writer emits.
        let mut empty = cd;
        empty.masks[1] = BitMask::zeros(8);
        if let MethodBody::Tac(levels) = &mut empty.body {
            levels[1].payload = LevelPayload::Empty;
        }
        assert_eq!(
            CompressedDataset::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    /// A container cut short is corrupt, wherever the cut falls.
    fn assert_corrupt(bytes: &[u8], cut: usize) {
        match CompressedDataset::from_bytes(bytes) {
            Err(TacError::Corrupt(_)) => {}
            other => panic!("cut {cut}: {:?}", other.err()),
        }
    }

    #[test]
    fn truncated_v2_is_rejected_at_every_cut() {
        let bytes = include_bytes!("../../../tests/data/legacy_tac_sz_v2.tacd");
        assert_eq!(bytes[4], VERSION_V2);
        for cut in 5..bytes.len() {
            assert_corrupt(&bytes[..cut], cut);
        }
    }

    #[test]
    fn f32_dataset_promotes_to_v5_and_roundtrips() {
        // The v1 writer's f32 container — element type recovered from
        // the self-describing level tags — upgrades to a v5 one with the
        // dtype in the header and in every row.
        let cd = CompressedDataset::from_bytes(frozen_v1!("tac_f32")).unwrap();
        assert_eq!(cd.dtype, TacDtype::F32);
        let bytes = cd.to_bytes();
        assert_eq!((bytes[4], bytes[6]), (VERSION_V5, TacDtype::F32.tag()));
        assert_eq!(CompressedDataset::from_bytes(&bytes).unwrap(), cd);
    }

    #[test]
    fn v4_chunk_rows_carry_the_dtype() {
        let cd = sample_tac_typed(CodecId::Sz, TacDtype::F32);
        let bytes = cd.to_bytes();
        let layout = parse_layout(&bytes).unwrap();
        assert_eq!(layout.dtype, TacDtype::F32);
        assert!(layout.entries.iter().all(|e| e.dtype == TacDtype::F32));
        // Table geometry: count prefix + fixed-size v4 rows, then footer.
        let footer = &bytes[bytes.len() - TABLE_FOOTER_BYTES..];
        let table_pos = u64::from_le_bytes(footer.try_into().unwrap()) as usize;
        let table_len = bytes.len() - TABLE_FOOTER_BYTES - table_pos;
        assert_eq!(
            table_len,
            CHUNK_COUNT_PREFIX_BYTES + layout.entries.len() * CHUNK_ROW_BYTES_V4
        );
    }

    #[test]
    fn v4_dtype_corruption_is_rejected() {
        let cd = sample_tac_typed(CodecId::Sz, TacDtype::F32);
        let bytes = cd.to_bytes();
        // Unknown header dtype tag.
        let mut bad = bytes.clone();
        bad[6] = 9;
        assert!(CompressedDataset::from_bytes(&bad).is_err());
        // A chunk row disagreeing with the header must be refused, not
        // silently reinterpreted: flip the first row's dtype byte (at
        // level + offset + len + codec = 18 bytes into the row) to f64.
        let footer = &bytes[bytes.len() - TABLE_FOOTER_BYTES..];
        let table_pos = u64::from_le_bytes(footer.try_into().unwrap()) as usize;
        let dtype_at = table_pos + CHUNK_COUNT_PREFIX_BYTES + 18;
        assert_eq!(bytes[dtype_at], TacDtype::F32.tag());
        let mut mismatched = bytes.clone();
        mismatched[dtype_at] = TacDtype::F64.tag();
        assert!(CompressedDataset::from_bytes(&mismatched).is_err());
    }

    #[test]
    fn v1_mixed_level_dtypes_are_rejected() {
        // The file ends on its empty coarsest level, whose tag is the
        // last byte: the f64 empty tag (0) among f32 levels is refused.
        let mut v1 = frozen_v1!("tac_f32").to_vec();
        assert_eq!(v1.pop(), Some(5), "not an f32 empty-level tag");
        v1.push(0);
        let err = CompressedDataset::from_bytes(&v1).unwrap_err();
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn truncated_v4_is_rejected_at_every_cut() {
        let bytes = include_bytes!("../../../tests/data/legacy_tac_f32_v4.tacd");
        assert_eq!(bytes[4], VERSION_V4);
        for cut in 5..bytes.len() {
            assert_corrupt(&bytes[..cut], cut);
        }
    }

    #[test]
    fn truncated_v5_is_rejected_at_every_cut() {
        // Every mask stored, and the finest implied.
        for cd in [
            sample_tac_typed(CodecId::PcoLite, TacDtype::F32),
            tree_tac(),
        ] {
            let bytes = cd.to_bytes();
            for cut in 5..bytes.len() {
                assert_corrupt(&bytes[..cut], cut);
            }
        }
    }

    /// Masks of a refinement tree over a `finest_dim`^3 domain: every
    /// finest cell is held by exactly one level, picked per ancestor
    /// cell by a seeded hash, so the levels partition the domain.
    fn tree_masks(finest_dim: usize, levels: usize, seed: u64) -> Vec<BitMask> {
        let leaf = |l: usize, i: usize| {
            let h = (seed ^ (l * 0x9E37 + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 61) < 3
        };
        let mut masks: Vec<BitMask> = (0..levels)
            .map(|l| BitMask::zeros((finest_dim >> l).pow(3)))
            .collect();
        for z in 0..finest_dim {
            for y in 0..finest_dim {
                for x in 0..finest_dim {
                    let at = |l: usize| {
                        let d = finest_dim >> l;
                        (x >> l) + d * ((y >> l) + d * (z >> l))
                    };
                    let l = (1..levels).rev().find(|&l| leaf(l, at(l))).unwrap_or(0);
                    masks[l].set(at(l), true);
                }
            }
        }
        masks
    }

    /// A zMesh container over the given masks: a body the parser holds
    /// to nothing but the level count.
    fn over_masks(finest_dim: usize, masks: Vec<BitMask>) -> CompressedDataset {
        CompressedDataset {
            name: "m".into(),
            finest_dim,
            dtype: TacDtype::F64,
            body: MethodBody::ZMesh {
                abs_eb: 0.5,
                codec: CodecId::Sz,
                segments: lone(finest_dim >> (masks.len() - 1), vec![1; 9]),
            },
            masks,
        }
    }

    /// [`sample_tac`] over a two-level tree: the coarse cell at the
    /// origin, and every fine cell outside it.
    fn tree_tac() -> CompressedDataset {
        let mut cd = sample_tac();
        cd.masks[0] = cd.masks[1].upsample2_complement(2);
        cd
    }

    /// Where the mask-mode byte of a v5 container sits: after magic,
    /// version, method, dtype, the name blob, the finest dim and the
    /// level count.
    fn mode_at(cd: &CompressedDataset) -> usize {
        7 + 8 + cd.name.len() + 8 + 1
    }

    /// Serializes `cd`, checks the mode the writer chose and that
    /// `structure_bytes()` is the mask section's size on the wire, and
    /// round-trips it through both parsers.
    fn roundtrip_in_mode(cd: &CompressedDataset, mode: u8) -> Vec<u8> {
        let bytes = cd.to_bytes();
        let at = mode_at(cd);
        assert_eq!((bytes[4], bytes[at]), (VERSION_V5, mode));
        // The section ends where the method metadata starts: skip the
        // blobs the mode announces.
        let mut r = Reader::new(&bytes[at + 1..]);
        for _ in usize::from(mode)..cd.masks.len() {
            r.get_blob().unwrap();
        }
        assert_eq!(cd.structure_bytes(), 1 + r.position());
        assert_eq!(&CompressedDataset::from_bytes(&bytes).unwrap(), cd);
        assert_eq!(parse_layout(&bytes).unwrap().masks, cd.masks);
        bytes
    }

    #[test]
    fn a_refinement_tree_implies_its_finest_mask() {
        for (finest_dim, levels) in [(4, 2), (8, 2), (16, 4), (24, 4), (12, 3)] {
            for seed in 0..4 {
                let cd = over_masks(finest_dim, tree_masks(finest_dim, levels, seed));
                // The levels partition the domain.
                let covered = |(l, m): (usize, &BitMask)| m.count_ones() << (3 * l);
                let cells: usize = cd.masks.iter().enumerate().map(covered).sum();
                assert_eq!(cells, finest_dim.pow(3));
                let implied = roundtrip_in_mode(&cd, MASKS_FINEST_IMPLIED);
                // One cell off the tree: every mask stored, a blob more.
                let mut stored = cd.clone();
                stored.masks[0].set(0, !cd.masks[0].get(0));
                assert!(implied.len() < roundtrip_in_mode(&stored, MASKS_STORED).len());
            }
        }
        roundtrip_in_mode(&tree_tac(), MASKS_FINEST_IMPLIED);
        // A dense single level is the one-level tree.
        roundtrip_in_mode(
            &over_masks(4, vec![BitMask::ones(64)]),
            MASKS_FINEST_IMPLIED,
        );
    }

    #[test]
    fn hierarchies_that_are_no_tree_store_every_mask() {
        let tree = tree_masks(8, 2, 1);
        let mut hole = tree.clone();
        let cell = hole[0].iter_ones().next().unwrap();
        hole[0].set(cell, false);
        let mut overlap = tree.clone();
        let cell = (0..512).find(|&i| !tree[0].get(i)).unwrap();
        overlap[0].set(cell, true);
        for (finest_dim, masks) in [
            // Two dense levels, an uncovered cell, a cell held twice.
            (8, vec![BitMask::ones(512), BitMask::ones(64)]),
            (8, hole),
            (8, overlap),
            // A side that does not halve: level 1 is 2^3 under 5^3.
            (5, vec![BitMask::ones(125), BitMask::zeros(8)]),
            // A sparse single level, and the hand-built sample.
            (4, vec![sample_masks().remove(0)]),
            (4, sample_masks()),
        ] {
            roundtrip_in_mode(&over_masks(finest_dim, masks), MASKS_STORED);
        }
        // Masks that are not their level's grid keep serializing (the
        // reader refuses them, as it always has).
        let odd = over_masks(4, vec![BitMask::ones(64), BitMask::zeros(7)]);
        assert_eq!(odd.to_bytes()[mode_at(&odd)], MASKS_STORED);
        assert!(CompressedDataset::from_bytes(&odd.to_bytes()).is_err());
    }

    /// `from_bytes` and the region read both refuse `bytes`, for a
    /// reason naming `needle`.
    fn both_refuse(bytes: &[u8], needle: &str) {
        let parse = CompressedDataset::from_bytes(bytes).unwrap_err();
        let region = crate::roi::decompress_region_t::<f64>(bytes, Aabb::whole(4)).unwrap_err();
        for err in [parse, region] {
            let why = err.to_string();
            assert!(why.contains(needle), "{why}");
        }
    }

    #[test]
    fn hostile_mask_modes_are_rejected() {
        let cd = tree_tac();
        let honest = cd.to_bytes();
        let at = mode_at(&cd);
        assert_eq!(honest[at], MASKS_FINEST_IMPLIED);
        for mode in [2u8, 255] {
            let mut bytes = honest.clone();
            bytes[at] = mode;
            both_refuse(&bytes, &format!("unknown mask mode {mode}"));
        }
        // Claiming every mask is stored shifts each blob by a level.
        let mut bytes = honest.clone();
        bytes[at] = MASKS_STORED;
        both_refuse(&bytes, "mask");
        // The coarser blob cut short, inside its bytes and its prefix.
        both_refuse(&honest[..at + 1 + 8 + 3], "");
        both_refuse(&honest[..at + 1 + 5], "");
        // A blob LZSS rejects: it declares 2^60 unpacked bytes.
        let mut bytes = honest.clone();
        bytes[at + 9..at + 17].copy_from_slice(&(1u64 << 60).to_le_bytes());
        both_refuse(&bytes, "corrupt container: level 1 mask: ");
        // A finest dim that does not halve: drop the finest blob of a
        // stored 5^3-over-2^3 container and claim it implied.
        let odd = over_masks(5, vec![BitMask::ones(125), BitMask::zeros(8)]);
        let mut bytes = odd.to_bytes();
        let at = mode_at(&odd);
        let blob = 8 + u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        bytes.drain(at + 1..at + 1 + blob);
        bytes[at] = MASKS_FINEST_IMPLIED;
        both_refuse(&bytes, "no finest mask is implied");
        // An implied mask far beyond what the bytes could describe.
        let dense = over_masks(4, vec![BitMask::ones(64)]);
        let mut huge = dense.to_bytes();
        let dim_at = mode_at(&dense) - 9;
        huge[dim_at..dim_at + 8].copy_from_slice(&(MAX_FINEST_DIM as u64).to_le_bytes());
        both_refuse(&huge, "implausible");
    }

    #[test]
    fn a_body_that_disagrees_with_the_implied_mask_is_rejected() {
        let honest = tree_tac().to_bytes();
        // A group origin outside the grid, header and row box agreeing.
        let origin: Vec<u8> = [2u32, 2, 2].iter().flat_map(|v| v.to_le_bytes()).collect();
        let origin_at = honest.windows(12).position(|w| w == origin).unwrap();
        let mut bytes = edit_table(&honest, |rows| {
            set_row_box(&mut rows[0], Aabb::new((0, 0, 0), (202, 4, 4)));
        });
        bytes[origin_at] = 200;
        both_refuse(&bytes, "leaves the 4^3 grid");
    }
}
