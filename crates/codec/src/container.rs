//! The header every codec stream opens with. SZ (`TSZ1`), pco-lite
//! (`TPL1`) and pco-ans (`TPA1`) streams all start with it, and this
//! module is the only code that writes or reads it: each backend brings
//! its own magic, version and flag policy, sniffing reads the first six
//! bytes through [`Header::peek`].
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   [u8; 4]   the backend's: "TSZ1", "TPL1" or "TPA1"
//! version u8        the backend's format version
//! flags   u8        bit 0: body is LZSS-compressed (SZ, pco-lite)
//!                   bit 1: elements are f32 (absent: f64)
//! rank    u8        1..=4
//! dims    rank x u64
//! abs_eb  f64       resolved absolute error bound
//! ```
//!
//! An SZ stream follows it with `capacity u32` (quantizer bins), then
//! its payload (see `sz/compress.rs`).

use crate::config::Dims;
use crate::wire::{ByteReader, ByteWriter};
use std::fmt;
use tac_dtype::{Element, TacDtype};

/// Flag bit: payload passed through the LZSS stage.
pub const FLAG_LOSSLESS: u8 = 0b0000_0001;
/// Flag bit: elements are `f32` (unset: `f64`, the historical default, so
/// every pre-dtype stream decodes unchanged).
pub const FLAG_F32: u8 = 0b0000_0010;

/// A codec stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Header {
    /// The backend's magic number.
    pub magic: [u8; 4],
    /// The backend's format version.
    pub version: u8,
    /// Flag bits (see `FLAG_*`).
    pub flags: u8,
    /// Array shape.
    pub dims: Dims,
    /// Resolved absolute error bound used by the quantizer.
    pub abs_eb: f64,
}

/// Why a stream's header was refused. Every backend maps it onto a
/// [`CodecError`](crate::CodecError) through one function.
#[derive(Debug, Clone, PartialEq)]
pub enum HeaderError {
    /// The stream opens with another backend's magic.
    Magic([u8; 4]),
    /// The stream has another format version.
    Version {
        /// Version byte of the stream.
        found: u8,
        /// Version the backend reads.
        expected: u8,
    },
    /// The stream holds elements of another type.
    Dtype {
        /// Element type recorded in the flag bits.
        stream: TacDtype,
        /// Element type the caller asked to decode.
        requested: TacDtype,
    },
    /// The header is truncated or a field is out of range.
    Corrupt(String),
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Magic(found) => write!(f, "bad magic {found:02x?}"),
            HeaderError::Version { found, expected } => {
                write!(f, "version {found} (expected {expected})")
            }
            HeaderError::Dtype { stream, requested } => {
                write!(
                    f,
                    "stream holds {stream} elements, caller expected {requested}"
                )
            }
            HeaderError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

fn dtype_of(flags: u8) -> TacDtype {
    if flags & FLAG_F32 != 0 {
        TacDtype::F32
    } else {
        TacDtype::F64
    }
}

impl Header {
    /// The header of a stream of `T` elements: the dtype flag is set from
    /// `T`, every other flag is clear.
    pub fn new<T: Element>(magic: [u8; 4], version: u8, dims: Dims, abs_eb: f64) -> Self {
        let flags = if T::DTYPE == TacDtype::F32 {
            FLAG_F32
        } else {
            0
        };
        Header {
            magic,
            version,
            flags,
            dims,
            abs_eb,
        }
    }

    /// Serialized size in bytes.
    // tac-lint: allow(arith) -- writer-side size accounting: rank() <= 4, so the sum stays tiny.
    pub fn encoded_len(&self) -> usize {
        4 + 1 + 1 + 1 + self.dims.rank() as usize * 8 + 8
    }

    /// Appends the encoded header to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.put_bytes(&self.magic);
        w.put_u8(self.version);
        w.put_u8(self.flags);
        w.put_u8(self.dims.rank());
        let axes = match self.dims {
            Dims::D1(a) => [a, 0, 0, 0],
            Dims::D2(a, b) => [a, b, 0, 0],
            Dims::D3(a, b, c) => [a, b, c, 0],
            Dims::D4(a, b, c, d) => [a, b, c, d],
        };
        for &axis in axes.iter().take(usize::from(self.dims.rank())) {
            w.put_u64(axis as u64);
        }
        w.put_f64(self.abs_eb);
        out.extend_from_slice(&w.into_bytes());
    }

    /// The magic, version and element type a stream opens with, without
    /// reading further: what sniffing needs. `None` when the bytes stop
    /// before the flag byte.
    pub fn peek(bytes: &[u8]) -> Option<([u8; 4], u8, TacDtype)> {
        match *bytes {
            [a, b, c, d, version, flags, ..] => Some(([a, b, c, d], version, dtype_of(flags))),
            _ => None,
        }
    }

    /// Reads the header of a `T` stream from the backend `magic` /
    /// `version`, returning it and the bytes after it. Any flag bit
    /// outside `known_flags` is corrupt (a backend that ignores unknown
    /// bits passes `u8::MAX`). The checks run in wire order, with the
    /// element type checked right after the flags.
    pub fn read<T: Element>(
        bytes: &[u8],
        magic: [u8; 4],
        version: u8,
        known_flags: u8,
    ) -> Result<(Self, &[u8]), HeaderError> {
        let truncated = |_| HeaderError::Corrupt("header truncated".into());
        let corrupt = |msg: String| Err(HeaderError::Corrupt(msg));
        let mut r = ByteReader::new(bytes);
        let found = r.get_bytes(4).map_err(truncated)?;
        if found != magic {
            let mut m = [0; 4];
            m.copy_from_slice(found);
            return Err(HeaderError::Magic(m));
        }
        let found = r.get_u8().map_err(truncated)?;
        if found != version {
            return Err(HeaderError::Version {
                found,
                expected: version,
            });
        }
        let flags = r.get_u8().map_err(truncated)?;
        if flags & !known_flags != 0 {
            return corrupt(format!("unknown flag bits {flags:#04x}"));
        }
        if dtype_of(flags) != T::DTYPE {
            return Err(HeaderError::Dtype {
                stream: dtype_of(flags),
                requested: T::DTYPE,
            });
        }
        let rank = r.get_u8().map_err(truncated)?;
        if !(1..=4).contains(&rank) {
            return corrupt(format!("invalid rank {rank}"));
        }
        let mut dim = || r.get_u64().map(|v| v as usize).map_err(truncated);
        let dims = match rank {
            1 => Dims::D1(dim()?),
            2 => Dims::D2(dim()?, dim()?),
            3 => Dims::D3(dim()?, dim()?, dim()?),
            _ => Dims::D4(dim()?, dim()?, dim()?, dim()?),
        };
        if dims.is_empty() {
            return corrupt("zero-sized dimensions".into());
        }
        // Reject absurd sizes before a decoder allocates (declared dims
        // drive a vec![0.0; n] allocation).
        if dims.len() > (1usize << 40) {
            return corrupt(format!(
                "declared element count {} is implausible",
                dims.len()
            ));
        }
        let abs_eb = r.get_f64().map_err(truncated)?;
        if abs_eb <= 0.0 || !abs_eb.is_finite() {
            return corrupt(format!("invalid stored eb {abs_eb}"));
        }
        let header = Header {
            magic,
            version,
            flags,
            dims,
            abs_eb,
        };
        Ok((header, r.rest()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{MAGIC, VERSION};

    fn sz_header(dims: Dims) -> Header {
        Header {
            flags: FLAG_LOSSLESS,
            ..Header::new::<f64>(MAGIC, VERSION, dims, 1.5e-4)
        }
    }

    #[test]
    fn header_roundtrip_all_ranks() {
        for dims in [
            Dims::D1(100),
            Dims::D2(10, 20),
            Dims::D3(4, 5, 6),
            Dims::D4(2, 3, 4, 5),
        ] {
            let h = sz_header(dims);
            let mut buf = Vec::new();
            h.encode(&mut buf);
            assert_eq!(buf.len(), h.encoded_len());
            buf.push(7);
            let (h2, rest) = Header::read::<f64>(&buf, MAGIC, VERSION, u8::MAX).unwrap();
            assert_eq!(rest, [7]);
            assert_eq!(h2, h);
            assert_eq!(Header::peek(&buf), Some((MAGIC, VERSION, TacDtype::F64)));
        }
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        sz_header(Dims::D1(10)).encode(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            Header::read::<f64>(&bad, MAGIC, VERSION, u8::MAX),
            Err(HeaderError::Magic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            Header::read::<f64>(&bad, MAGIC, VERSION, u8::MAX),
            Err(HeaderError::Version { found: 99, .. })
        ));
    }

    #[test]
    fn decode_rejects_invalid_fields() {
        let h = sz_header(Dims::D1(10));
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let read = |b: &[u8]| Header::read::<f64>(b, MAGIC, VERSION, u8::MAX).map(|(h, _)| h);
        // rank byte
        let mut bad = buf.clone();
        bad[6] = 9;
        assert!(matches!(read(&bad), Err(HeaderError::Corrupt(_))));
        // truncation, before and after the magic
        assert!(matches!(read(&buf[..3]), Err(HeaderError::Corrupt(_))));
        assert!(matches!(read(&buf[..10]), Err(HeaderError::Corrupt(_))));
        // zero dims
        let mut buf0 = Vec::new();
        Header {
            dims: Dims::D1(0),
            ..h
        }
        .encode(&mut buf0);
        assert!(matches!(read(&buf0), Err(HeaderError::Corrupt(_))));
        // flags outside the backend's known set, and the other dtype
        assert!(matches!(
            Header::read::<f64>(&buf, MAGIC, VERSION, FLAG_F32),
            Err(HeaderError::Corrupt(_))
        ));
        assert!(matches!(
            Header::read::<f32>(&buf, MAGIC, VERSION, u8::MAX),
            Err(HeaderError::Dtype {
                stream: TacDtype::F64,
                requested: TacDtype::F32
            })
        ));
        // sniffing needs the flag byte
        assert_eq!(Header::peek(&buf[..5]), None);
    }
}
