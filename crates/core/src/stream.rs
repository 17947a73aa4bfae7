//! Wire-format primitives and the per-level compressed payload types
//! shared by all strategies.

use crate::config::Strategy;
use crate::error::TacError;
use tac_codec::CodecId;
use tac_dtype::TacDtype;

// The little-endian wire primitives are shared with the SZ stream header
// (one implementation, one set of bounds checks). `SzError`s raised on
// truncated reads convert into `TacError::Sz` through `?`.
pub(crate) use tac_sz::wire::{ByteReader as Reader, ByteWriter as Writer};

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
    /// batched sub-blocks. Recorded in the v2 chunk table so ROI
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
    /// Extracted sub-block groups (NaST, OpST, AKDTree).
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

// Payload wire tags. 0/1/2 are the legacy (pre-codec) encodings and
// imply the SZ codec; 3/4 are followed by a codec byte. The writer emits
// legacy tags for SZ payloads, so default-codec containers stay
// bit-compatible with pre-codec readers (and the golden fixtures).
// 5/6/7 are the f32 encodings: nothing before the dtype layer ever
// wrote them, so an absent f32 tag always means f64 and every legacy
// container parses unchanged. f32 payloads are post-legacy by
// construction, so their non-empty tags always carry the codec byte
// (no untagged-SZ special case to preserve).
const TAG_EMPTY: u8 = 0;
const TAG_WHOLE_SZ: u8 = 1;
const TAG_GROUPS_SZ: u8 = 2;
const TAG_WHOLE_TAGGED: u8 = 3;
const TAG_GROUPS_TAGGED: u8 = 4;
const TAG_EMPTY_F32: u8 = 5;
const TAG_WHOLE_F32: u8 = 6;
const TAG_GROUPS_F32: u8 = 7;

impl CompressedLevel {
    // tac-lint: allow(arith) -- writer-side width reduction: group counts come from the in-memory plan and are bounded by the grid volume.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.put_u8(self.strategy.tag());
        w.put_u64(self.dim as u64);
        w.put_f64(self.abs_eb);
        if self.dtype == TacDtype::F32 {
            match &self.payload {
                LevelPayload::Empty => w.put_u8(TAG_EMPTY_F32),
                LevelPayload::Whole(stream) => {
                    w.put_u8(TAG_WHOLE_F32);
                    w.put_u8(self.codec.tag());
                    w.put_blob(stream);
                }
                LevelPayload::Groups(groups) => {
                    w.put_u8(TAG_GROUPS_F32);
                    w.put_u8(self.codec.tag());
                    w.put_u32(groups.len() as u32);
                    for g in groups {
                        g.write(w);
                    }
                }
            }
            return;
        }
        let legacy = self.codec == CodecId::Sz;
        match &self.payload {
            LevelPayload::Empty => w.put_u8(TAG_EMPTY),
            LevelPayload::Whole(stream) => {
                if legacy {
                    w.put_u8(TAG_WHOLE_SZ);
                } else {
                    w.put_u8(TAG_WHOLE_TAGGED);
                    w.put_u8(self.codec.tag());
                }
                w.put_blob(stream);
            }
            LevelPayload::Groups(groups) => {
                if legacy {
                    w.put_u8(TAG_GROUPS_SZ);
                } else {
                    w.put_u8(TAG_GROUPS_TAGGED);
                    w.put_u8(self.codec.tag());
                }
                w.put_u32(groups.len() as u32);
                for g in groups {
                    g.write(w);
                }
            }
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, TacError> {
        let strategy = Strategy::from_tag(r.get_u8()?)?;
        let dim = r.get_u64()? as usize;
        // Bound the dimension here so every downstream `dim^3` (mask
        // checks, reconstruction buffers) stays overflow-free.
        if dim == 0 || dim > crate::container::MAX_FINEST_DIM {
            return Err(TacError::Corrupt(format!(
                "level dim {dim} outside the supported 1..={}",
                crate::container::MAX_FINEST_DIM
            )));
        }
        let abs_eb = r.get_f64()?;
        let tag = r.get_u8()?;
        let dtype = match tag {
            TAG_EMPTY_F32 | TAG_WHOLE_F32 | TAG_GROUPS_F32 => TacDtype::F32,
            _ => TacDtype::F64,
        };
        let codec = match tag {
            TAG_EMPTY | TAG_WHOLE_SZ | TAG_GROUPS_SZ | TAG_EMPTY_F32 => CodecId::Sz,
            TAG_WHOLE_TAGGED | TAG_GROUPS_TAGGED | TAG_WHOLE_F32 | TAG_GROUPS_F32 => {
                CodecId::from_tag(r.get_u8()?).map_err(TacError::Codec)?
            }
            t => return Err(TacError::Corrupt(format!("unknown payload tag {t}"))),
        };
        let payload = match tag {
            TAG_EMPTY | TAG_EMPTY_F32 => LevelPayload::Empty,
            TAG_WHOLE_SZ | TAG_WHOLE_TAGGED | TAG_WHOLE_F32 => {
                LevelPayload::Whole(r.get_blob()?.to_vec())
            }
            _ => {
                let n = r.get_u32()? as usize;
                if n > r.remaining() {
                    return Err(TacError::Corrupt(format!("{n} groups is implausible")));
                }
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    groups.push(BlockGroup::read(r)?);
                }
                LevelPayload::Groups(groups)
            }
        };
        Ok(CompressedLevel {
            strategy,
            dim,
            abs_eb,
            codec,
            dtype,
            payload,
        })
    }

    /// Serialized size in bytes.
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
    fn level_roundtrip_all_payloads_and_codecs() {
        for codec in CodecId::all() {
            for payload in [
                // Empty payloads hold no streams: the engine pins their
                // codec to the default, and the wire does not tag them.
                LevelPayload::Whole(vec![9, 9, 9]),
                LevelPayload::Groups(vec![BlockGroup {
                    shape: (8, 8, 8),
                    origins: vec![(8, 0, 0)],
                    stream: vec![5; 10],
                }]),
            ] {
                let lvl = CompressedLevel {
                    strategy: Strategy::OpST,
                    dim: 64,
                    abs_eb: 1e-3,
                    codec,
                    dtype: TacDtype::F64,
                    payload,
                };
                let mut w = Writer::new();
                lvl.write(&mut w);
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), lvl.total_bytes());
                let mut r = Reader::new(&bytes);
                assert_eq!(CompressedLevel::read(&mut r).unwrap(), lvl);
            }
        }
        // Empty payloads roundtrip with the canonical default codec.
        let empty = CompressedLevel {
            strategy: Strategy::Empty,
            dim: 8,
            abs_eb: 0.0,
            codec: CodecId::default(),
            dtype: TacDtype::F64,
            payload: LevelPayload::Empty,
        };
        let mut w = Writer::new();
        empty.write(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), empty.total_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(CompressedLevel::read(&mut r).unwrap(), empty);
    }

    #[test]
    fn sz_levels_use_the_legacy_untagged_encoding() {
        // Byte 17 is the payload tag (strategy u8 + dim u64 + eb f64).
        let lvl = |codec| CompressedLevel {
            strategy: Strategy::Gsp,
            dim: 8,
            abs_eb: 1e-3,
            codec,
            dtype: TacDtype::F64,
            payload: LevelPayload::Whole(vec![1, 2, 3]),
        };
        let bytes_of = |l: &CompressedLevel| {
            let mut w = Writer::new();
            l.write(&mut w);
            w.into_bytes()
        };
        let sz = bytes_of(&lvl(CodecId::Sz));
        assert_eq!(sz[17], 1, "SZ payloads keep the pre-codec tag");
        let pco = bytes_of(&lvl(CodecId::PcoLite));
        assert_eq!(pco[17], 3, "tagged payloads use the extended tag");
        assert_eq!(pco[18], CodecId::PcoLite.tag());
        assert_eq!(pco.len(), sz.len() + 1);
    }

    #[test]
    fn f32_levels_use_their_own_tags_and_roundtrip() {
        for codec in CodecId::all() {
            for (payload, want_tag) in [
                (LevelPayload::Empty, TAG_EMPTY_F32),
                (LevelPayload::Whole(vec![9, 9]), TAG_WHOLE_F32),
                (
                    LevelPayload::Groups(vec![BlockGroup {
                        shape: (4, 4, 4),
                        origins: vec![(0, 0, 0)],
                        stream: vec![7; 6],
                    }]),
                    TAG_GROUPS_F32,
                ),
            ] {
                let lvl = CompressedLevel {
                    strategy: Strategy::OpST,
                    dim: 16,
                    abs_eb: 1e-2,
                    // Empty payloads pin the canonical default codec.
                    codec: if payload == LevelPayload::Empty {
                        CodecId::default()
                    } else {
                        codec
                    },
                    dtype: TacDtype::F32,
                    payload,
                };
                let mut w = Writer::new();
                lvl.write(&mut w);
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), lvl.total_bytes());
                // Byte 17 is the payload tag (strategy u8 + dim u64 + eb f64).
                assert_eq!(bytes[17], want_tag);
                if want_tag != TAG_EMPTY_F32 {
                    assert_eq!(bytes[18], lvl.codec.tag(), "f32 always tags its codec");
                }
                let mut r = Reader::new(&bytes);
                assert_eq!(CompressedLevel::read(&mut r).unwrap(), lvl);
            }
        }
    }

    #[test]
    fn unknown_codec_byte_is_rejected() {
        let lvl = CompressedLevel {
            strategy: Strategy::OpST,
            dim: 8,
            abs_eb: 1e-3,
            codec: CodecId::PcoLite,
            dtype: TacDtype::F64,
            payload: LevelPayload::Whole(vec![1, 2, 3]),
        };
        let mut w = Writer::new();
        lvl.write(&mut w);
        let mut bytes = w.into_bytes();
        bytes[18] = 200; // codec byte
        let mut r = Reader::new(&bytes);
        let err = CompressedLevel::read(&mut r).unwrap_err();
        assert!(matches!(err, TacError::Codec(_)), "{err}");
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
