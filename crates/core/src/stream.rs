//! Wire-format primitives and the per-level compressed payload types
//! shared by all strategies.

use crate::config::Strategy;
use crate::error::TacError;
use tac_codec::CodecId;
use tac_dtype::TacDtype;

// The little-endian wire primitives are shared with the codec streams
// (one implementation, one set of bounds checks). A failed read converts
// into `TacError::Corrupt`, naming its offset, through `?`.
pub(crate) use tac_codec::wire::{ByteReader as Reader, ByteWriter as Writer};

/// A group of same-shape extracted sub-blocks compressed as one rank-4
/// scalar-codec stream (the paper's "merge sub-blocks with the same size
/// into the same array"). The codec is recorded on the owning
/// [`CompressedLevel`]; the stream's own magic number must agree.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockGroup {
    /// Sub-block extents in **cells** `(w, h, d)`.
    pub shape: (usize, usize, usize),
    /// Cell-coordinate origins of each sub-block, in batch order.
    pub origins: Vec<(u32, u32, u32)>,
    /// Scalar-codec stream of shape `D4(w, h, d, origins.len())`.
    pub stream: Vec<u8>,
}

impl BlockGroup {
    // tac-lint: allow(arith) -- writer-side width reduction: shapes and origin counts are cell quantities bounded by the validated grid dimension (<= 2^13).
    pub(crate) fn write(&self, w: &mut Writer) {
        w.put_u32(self.shape.0 as u32);
        w.put_u32(self.shape.1 as u32);
        w.put_u32(self.shape.2 as u32);
        w.put_u32(self.origins.len() as u32);
        for &(x, y, z) in &self.origins {
            w.put_u32(x);
            w.put_u32(y);
            w.put_u32(z);
        }
        w.put_blob(&self.stream);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, TacError> {
        let mut group = Self::read_header(r)?;
        group.stream = r.get_blob()?.to_vec();
        Ok(group)
    }

    /// Reads shape and origins — all [`BlockGroup::aabb`] needs — and
    /// leaves the stream behind them unread (the returned group's
    /// `stream` is empty).
    pub(crate) fn read_header(r: &mut Reader<'_>) -> Result<Self, TacError> {
        let shape = (
            r.get_u32()? as usize,
            r.get_u32()? as usize,
            r.get_u32()? as usize,
        );
        let count = r.get_u32()? as usize;
        // Origins are 12 bytes each; bound the allocation by what the
        // buffer can actually hold.
        if count.saturating_mul(12) > r.remaining() {
            return Err(TacError::Corrupt(format!(
                "group declares {count} origins but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut origins = Vec::with_capacity(count);
        for _ in 0..count {
            origins.push((r.get_u32()?, r.get_u32()?, r.get_u32()?));
        }
        Ok(BlockGroup {
            shape,
            origins,
            stream: Vec::new(),
        })
    }

    /// Serialized metadata size (everything except the SZ stream) — the
    /// "metadata overhead" the paper quantifies at ~0.1%.
    // tac-lint: allow(arith) -- size accounting over an in-memory group; the origin list already fits in RAM, so 12 bytes per entry cannot overflow usize.
    pub fn metadata_bytes(&self) -> usize {
        16 + self.origins.len() * 12 + 8
    }

    /// Cell-coordinate bounding box of the group: the union over its
    /// batched sub-blocks. Recorded in the chunk table so ROI
    /// decoding can skip the group wholesale.
    pub fn aabb(&self) -> tac_amr::Aabb {
        self.origins
            .iter()
            .map(|&(x, y, z)| {
                tac_amr::Aabb::of_region((x as usize, y as usize, z as usize), self.shape)
            })
            .fold(tac_amr::Aabb::new((0, 0, 0), (0, 0, 0)), |a, b| a.union(&b))
    }

    /// Total serialized size.
    // tac-lint: allow(arith) -- size accounting over buffers already held in RAM.
    pub fn total_bytes(&self) -> usize {
        self.metadata_bytes() + self.stream.len()
    }
}

/// Compressed payload of one AMR level.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelPayload {
    /// Level had no present cells.
    Empty,
    /// Whole-grid rank-3 SZ stream (ZeroFill and GSP).
    Whole(Vec<u8>),
    /// Extracted sub-block groups (NaST, OpST, AKDTree), or the z-slabs
    /// a dense level (ZeroFill, GSP) is cut into under
    /// [`crate::TacConfig::roi_tile`].
    Groups(Vec<BlockGroup>),
}

/// One compressed AMR level with its strategy, resolved error bound, and
/// the scalar codec its streams were produced with.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedLevel {
    /// Strategy that produced the payload.
    pub strategy: Strategy,
    /// Grid side length of the level.
    pub dim: usize,
    /// Resolved absolute error bound used for this level.
    pub abs_eb: f64,
    /// Scalar-codec backend of every stream in the payload.
    pub codec: CodecId,
    /// Element type of every stream in the payload (`f64` for every
    /// pre-dtype container).
    pub dtype: TacDtype,
    /// The compressed payload.
    pub payload: LevelPayload,
}

// Level payload tags of the v1 (monolithic) body — read-only, since
// nothing writes v1 any more. 0/1/2 are the pre-codec encodings and
// imply the SZ codec; 3/4 are followed by a codec byte. 5/6/7 are the
// f32 encodings, whose non-empty forms always carry the codec byte;
// every other tag means f64.
const TAG_EMPTY: u8 = 0;
const TAG_WHOLE_SZ: u8 = 1;
const TAG_GROUPS_SZ: u8 = 2;
const TAG_WHOLE_TAGGED: u8 = 3;
const TAG_GROUPS_TAGGED: u8 = 4;
const TAG_EMPTY_F32: u8 = 5;
const TAG_WHOLE_F32: u8 = 6;
const TAG_GROUPS_F32: u8 = 7;

/// What a v1 level tag says: the payload kind in the chunked metadata's
/// terms (0 empty, 1 whole-grid stream, 2 region groups), the element
/// type, and whether a codec byte follows (an untagged level is SZ).
pub(crate) fn v1_level_tag(tag: u8) -> Result<(u8, TacDtype, bool), TacError> {
    Ok(match tag {
        TAG_EMPTY => (0, TacDtype::F64, false),
        TAG_WHOLE_SZ => (1, TacDtype::F64, false),
        TAG_GROUPS_SZ => (2, TacDtype::F64, false),
        TAG_WHOLE_TAGGED => (1, TacDtype::F64, true),
        TAG_GROUPS_TAGGED => (2, TacDtype::F64, true),
        TAG_EMPTY_F32 => (0, TacDtype::F32, false),
        TAG_WHOLE_F32 => (1, TacDtype::F32, true),
        TAG_GROUPS_F32 => (2, TacDtype::F32, true),
        t => return Err(TacError::Corrupt(format!("unknown payload tag {t}"))),
    })
}

impl CompressedLevel {
    /// Accounted size in bytes — the level's share of
    /// [`crate::CompressedDataset::payload_bytes`]. A size formula,
    /// independent of the wire version: strategy, dim, bound and tag
    /// (18 bytes), a codec byte unless the level is empty or SZ over
    /// `f64`, then the stream behind a `u64` length or the group list
    /// behind a `u32` count.
    // tac-lint: allow(arith) -- size accounting over buffers already held in RAM.
    pub fn total_bytes(&self) -> usize {
        let codec_byte = match &self.payload {
            LevelPayload::Empty => 0,
            _ if self.dtype == TacDtype::F64 && self.codec == CodecId::Sz => 0,
            _ => 1,
        };
        let body = match &self.payload {
            LevelPayload::Empty => 0,
            LevelPayload::Whole(s) => 8 + s.len(),
            LevelPayload::Groups(gs) => 4 + gs.iter().map(|g| g.total_bytes()).sum::<usize>(),
        };
        1 + 8 + 8 + 1 + codec_byte + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_group_roundtrip() {
        let g = BlockGroup {
            shape: (16, 16, 8),
            origins: vec![(0, 0, 0), (16, 32, 48)],
            stream: vec![1, 2, 3, 4],
        };
        let mut w = Writer::new();
        g.write(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), g.total_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(BlockGroup::read(&mut r).unwrap(), g);
    }

    #[test]
    fn truncated_group_is_rejected() {
        let g = BlockGroup {
            shape: (4, 4, 4),
            origins: vec![(0, 0, 0)],
            stream: vec![1],
        };
        let mut w = Writer::new();
        g.write(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(BlockGroup::read(&mut r).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn absurd_origin_count_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.put_u32(4);
        w.put_u32(4);
        w.put_u32(4);
        w.put_u32(u32::MAX); // count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(BlockGroup::read(&mut r).is_err());
    }
}
