#![forbid(unsafe_code)]

//! # tac-codec
//!
//! The pluggable **scalar-codec backend layer** of the TAC stack. TAC's
//! contribution (HPDC'22) is a per-level *pre-process* — the partitioned,
//! padded, batched arrays it produces can feed *any* error-bounded
//! compressor, and the follow-up TAC+ swaps prediction backends per level
//! to improve ratio further. This crate makes that pluggability concrete:
//!
//! * [`ScalarCodec`] — the trait every backend implements, generic over
//!   the [`Element`] type: error-bounded
//!   [`compress`](ScalarCodec::compress) /
//!   [`decompress`](ScalarCodec::decompress) of a flat array of known
//!   [`Dims`], plus [`compress_with_recon`](ScalarCodec::compress_with_recon)
//!   for distortion metrics without a decode pass;
//! * [`CodecId`] — a **stable one-byte wire tag** per backend, stored in
//!   `tac-core`'s level payloads and chunk tables so containers are
//!   self-describing;
//! * three decoders and two encoders: [`SzCodec`] (the SZ-style
//!   predict-quantize-encode compressor from `tac-sz`) and [`PcoAns`]
//!   (a pcodec-style quantize–delta front end with a tabled-ANS entropy
//!   stage and branch-free batch decode kernels) write and read;
//!   [`PcoLite`] (the same front end with per-page bit packing) only
//!   reads, so the containers it wrote keep decoding;
//! * [`codec_for`], [`sniff_codec`] and [`stream_dtype`], which
//!   `tac-core` dispatches and sniffs through.
//!
//! ```
//! use tac_codec::{codec_for, CodecConfig, CodecId, Dims};
//!
//! let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.02).sin()).collect();
//! for id in CodecId::all() {
//!     let codec = codec_for(id);
//!     let bytes = codec
//!         .compress(&data, Dims::D3(8, 8, 8), &CodecConfig::abs(1e-4))
//!         .unwrap();
//!     let (restored, dims) = codec.decompress(&bytes).unwrap();
//!     assert_eq!(dims, Dims::D3(8, 8, 8));
//!     for (a, b) in data.iter().zip(&restored) {
//!         assert!((a - b).abs() <= 1e-4);
//!     }
//! }
//! ```
//!
//! ## The three backends
//!
//! The set is closed: the wire tags of [`CodecId`] are frozen by
//! shipped containers, and [`codec_for`], [`sniff_codec`] and
//! [`stream_dtype`] match on exactly these three. [`CodecId::all`]
//! lists the two a writer may pick; compressing through [`PcoLite`] is
//! [`CodecError::InvalidConfig`]. Every stream opens
//! with one header — magic, version, flags, rank, dims, bound — which
//! [`tac_sz::Header`] (`tac-sz`'s `container.rs`) alone writes and
//! reads. A backend owns its 4-byte `MAGIC` and its `VERSION` (the
//! magics are pairwise distinct, which `tac-lint`'s wirecheck
//! enforces), its flag policy and the body after the header; sniffing
//! peeks at the header once and matches its magic and version.
//!
//! The error-bound contract every backend must uphold: for each finite
//! input value `v` and its reconstruction `v'`, `|v - v'| <= abs_eb`;
//! non-finite values round-trip bit-exactly.

#![warn(missing_docs)]

mod ans;
mod bins;
mod error;
mod pco;
mod pco_ans;
mod sz;
#[cfg(test)]
mod testdata;

pub use error::CodecError;
pub use pco::PcoLite;
pub use pco_ans::PcoAns;
pub use sz::SzCodec;
// The array-shape and bound vocabulary is shared with the SZ substrate;
// the element-type vocabulary with the dtype substrate.
pub use tac_dtype::{Element, TacDtype};
pub use tac_sz::{Dims, ErrorBound};

use serde::{Deserialize, Serialize};
use tac_sz::Header;

/// Stable one-byte identifier of a scalar-codec backend — the tag
/// `tac-core` writes into level payloads and v3 chunk tables. Wire tags
/// are append-only; renumbering breaks every shipped container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodecId {
    /// The SZ-style predict–quantize–encode compressor (`tac-sz`). Wire
    /// tag 0; the implicit codec of every pre-codec (v1/v2) container.
    Sz,
    /// The pcodec-inspired delta + per-page bit-packing codec (wire tag
    /// 1), decode-only: its streams still decode, but no writer produces
    /// them ([`PcoAns`] is smaller on every benchmark workload).
    PcoLite,
    /// The tabled-ANS codec: the pcodec-style quantize–delta–zigzag
    /// front end with per-page greedy binning, a tabled rANS entropy
    /// stage over bin tokens, and branch-free batch decode. Wire tag 2.
    PcoAns,
}

impl CodecId {
    /// The wire tag (stable across releases).
    pub fn tag(self) -> u8 {
        match self {
            CodecId::Sz => 0,
            CodecId::PcoLite => 1,
            CodecId::PcoAns => 2,
        }
    }

    /// Inverse of [`CodecId::tag`].
    pub fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => CodecId::Sz,
            1 => CodecId::PcoLite,
            2 => CodecId::PcoAns,
            _ => return Err(CodecError::UnknownCodec(tag)),
        })
    }

    /// Human-readable name used by benchmark tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            CodecId::Sz => "sz",
            CodecId::PcoLite => "pco-lite",
            CodecId::PcoAns => "pco-ans",
        }
    }

    /// Every codec a writer may pick, in wire-tag order (decode-only
    /// [`CodecId::PcoLite`] is not one).
    pub fn all() -> [CodecId; 2] {
        [CodecId::Sz, CodecId::PcoAns]
    }
}

impl Default for CodecId {
    /// [`CodecId::Sz`] — the codec of every container written before the
    /// backend layer existed.
    fn default() -> Self {
        CodecId::Sz
    }
}

impl std::fmt::Display for CodecId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Backend-agnostic per-stream compression parameters.
///
/// The error bound arrives here already **resolved to an absolute
/// epsilon** (TAC resolves relative bounds per level, against each
/// level's own value range).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecConfig {
    /// Absolute point-wise error bound (`|v - v'| <= abs_eb`).
    pub abs_eb: f64,
}

impl CodecConfig {
    /// Configuration with the given absolute bound.
    pub fn abs(abs_eb: f64) -> Self {
        CodecConfig { abs_eb }
    }

    /// Validates the resolved bound.
    pub fn validate(&self) -> Result<(), CodecError> {
        if self.abs_eb <= 0.0 || !self.abs_eb.is_finite() {
            return Err(CodecError::InvalidConfig(format!(
                "absolute error bound must be positive and finite, got {}",
                self.abs_eb
            )));
        }
        Ok(())
    }
}

/// An error-bounded lossy compressor for flat arrays of `T` of known
/// shape — the backend interface TAC's per-level pipeline dispatches
/// through. Every backend implements it once, for all `T: Element`.
///
/// Implementations must be deterministic (identical input and
/// configuration produce identical bytes — the parallel engine's
/// byte-identity guarantee depends on it) and must uphold the bound
/// contract: finite values reconstruct within `cfg.abs_eb`, non-finite
/// values bit-exactly.
pub trait ScalarCodec<T: Element>: Send + Sync {
    /// The backend's stable wire identity.
    fn id(&self) -> CodecId;

    /// Compresses `data` of shape `dims` under `cfg`. Verbatim/exception
    /// values are stored at `T`'s native width and the stream records
    /// the element type.
    fn compress(&self, data: &[T], dims: Dims, cfg: &CodecConfig) -> Result<Vec<u8>, CodecError>;

    /// Like [`ScalarCodec::compress`], additionally returning the exact
    /// reconstruction the decompressor will produce, so distortion
    /// metrics need no decode pass.
    fn compress_with_recon(
        &self,
        data: &[T],
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<(Vec<u8>, Vec<T>), CodecError>;

    /// Decompresses a stream produced by this backend, returning the
    /// values and their shape. Foreign or corrupt bytes must error, as
    /// must streams of another element type
    /// ([`CodecError::WrongDtype`]).
    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError>;
}

/// The element-first spelling of the [`ScalarCodec`] calls, implemented
/// for every [`Element`].
///
/// Generic pipeline code writes `fn f<T: CodecElement>(...)` and calls
/// `T::codec_compress(codec, ...)`; the element type is fixed **once per
/// stream** by the `dyn ScalarCodec<T>` it dispatches through, so decode
/// hot loops carry no per-value dtype branches.
pub trait CodecElement: Element {
    /// [`ScalarCodec::compress`] on `codec`.
    fn codec_compress(
        codec: &dyn ScalarCodec<Self>,
        data: &[Self],
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<Vec<u8>, CodecError> {
        codec.compress(data, dims, cfg)
    }

    /// [`ScalarCodec::compress_with_recon`] on `codec`.
    fn codec_compress_with_recon(
        codec: &dyn ScalarCodec<Self>,
        data: &[Self],
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<(Vec<u8>, Vec<Self>), CodecError> {
        codec.compress_with_recon(data, dims, cfg)
    }

    /// [`ScalarCodec::decompress`] on `codec`.
    fn codec_decompress(
        codec: &dyn ScalarCodec<Self>,
        bytes: &[u8],
    ) -> Result<(Vec<Self>, Dims), CodecError> {
        codec.decompress(bytes)
    }
}

impl<T: Element> CodecElement for T {}

/// The registered backend for a codec id.
pub fn codec_for<T: Element>(id: CodecId) -> &'static dyn ScalarCodec<T> {
    match id {
        CodecId::Sz => &SzCodec,
        CodecId::PcoLite => &PcoLite,
        CodecId::PcoAns => &PcoAns,
    }
}

/// The backend and element type a stream's header names: one peek at
/// the header, its magic and version matched against the three
/// backends.
fn stream_head(bytes: &[u8]) -> Result<(CodecId, TacDtype), CodecError> {
    let unknown = || CodecError::UnknownStream {
        prefix: bytes.iter().copied().take(4).collect(),
    };
    let (magic, version, dtype) = Header::peek(bytes).ok_or_else(unknown)?;
    let id = match (magic, version) {
        (tac_sz::MAGIC, tac_sz::VERSION) => CodecId::Sz,
        (pco::MAGIC, pco::VERSION) => CodecId::PcoLite,
        (pco_ans::MAGIC, pco_ans::VERSION) => CodecId::PcoAns,
        _ => return Err(unknown()),
    };
    Ok((id, dtype))
}

/// Identifies which backend produced `bytes`, by the magic number and
/// version its header opens with. An unrecognized stream is a typed
/// [`CodecError::UnknownStream`] carrying the offending prefix — not a
/// silent first-match fallback.
pub fn sniff_codec(bytes: &[u8]) -> Result<CodecId, CodecError> {
    stream_head(bytes).map(|(id, _)| id)
}

/// Sniffs the element type of a recognized stream without decoding it;
/// `None` when no backend recognizes the bytes.
pub fn stream_dtype(bytes: &[u8]) -> Option<TacDtype> {
    stream_head(bytes).ok().map(|(_, dtype)| dtype)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.013).sin() * 4.0 + (i as f64 * 0.002).cos())
            .collect()
    }

    #[test]
    fn codec_ids_roundtrip_and_stay_stable() {
        assert_eq!(CodecId::Sz.tag(), 0, "Sz wire tag is frozen at 0");
        assert_eq!(CodecId::PcoLite.tag(), 1, "PcoLite wire tag is frozen at 1");
        assert_eq!(CodecId::PcoAns.tag(), 2, "PcoAns wire tag is frozen at 2");
        for id in CodecId::all().into_iter().chain([CodecId::PcoLite]) {
            assert_eq!(CodecId::from_tag(id.tag()).unwrap(), id);
            assert_eq!(codec_for::<f64>(id).id(), id);
        }
        assert_eq!(CodecId::all(), [CodecId::Sz, CodecId::PcoAns]);
        assert!(CodecId::from_tag(99).is_err());
        assert_eq!(CodecId::default(), CodecId::Sz);
    }

    #[test]
    fn every_backend_roundtrips_within_bound() {
        let data = smooth(1000);
        for id in CodecId::all() {
            let codec = codec_for(id);
            for dims in [Dims::D1(1000), Dims::D2(50, 20), Dims::D3(10, 10, 10)] {
                let cfg = CodecConfig::abs(1e-3);
                let (bytes, recon) = codec.compress_with_recon(&data, dims, &cfg).unwrap();
                let (out, out_dims) = codec.decompress(&bytes).unwrap();
                assert_eq!(out_dims, dims, "{id}");
                for (i, (a, b)) in data.iter().zip(&out).enumerate() {
                    assert!((a - b).abs() <= 1e-3 * (1.0 + 1e-12), "{id} point {i}");
                }
                // compress_with_recon promises the decoder's exact output.
                for (a, b) in recon.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{id} recon mismatch");
                }
            }
        }
    }

    #[test]
    fn sniffing_tells_backends_apart() {
        let data = smooth(256);
        let cfg = CodecConfig::abs(1e-4);
        let lite = pco::reference::stream(&data, Dims::D1(256), 1e-4).0;
        let streams = CodecId::all().map(|id| {
            (
                id,
                codec_for(id).compress(&data, Dims::D1(256), &cfg).unwrap(),
            )
        });
        for (id, bytes) in streams.into_iter().chain([(CodecId::PcoLite, lite)]) {
            assert_eq!(sniff_codec(&bytes), Ok(id));
            // Every *other* backend must refuse the stream outright.
            for other in [CodecId::Sz, CodecId::PcoLite, CodecId::PcoAns] {
                if other != id {
                    assert!(
                        codec_for::<f64>(other).decompress(&bytes).is_err(),
                        "{other} decoded a {id} stream"
                    );
                }
            }
            // Sniffing needs the flag byte and the backend's version.
            assert!(sniff_codec(&bytes[..5]).is_err(), "{id}");
            assert!(sniff_codec(&bytes[..6]).is_ok(), "{id}");
            let mut other_version = bytes.clone();
            other_version[4] ^= 0x80;
            assert!(sniff_codec(&other_version).is_err(), "{id}");
            assert_eq!(stream_dtype(&other_version), None, "{id}");
        }
        assert!(matches!(
            sniff_codec(b"not a stream at all"),
            Err(CodecError::UnknownStream { ref prefix }) if prefix == b"not "
        ));
        assert!(matches!(
            sniff_codec(&[]),
            Err(CodecError::UnknownStream { ref prefix }) if prefix.is_empty()
        ));
        assert_eq!(stream_dtype(&[]), None);
    }

    #[test]
    fn magics_are_unique_and_prefix_free() {
        // Sniffing matches whole 4-byte magics, so pairwise distinct
        // magics are prefix-free too.
        let magics = [tac_sz::MAGIC, pco::MAGIC, pco_ans::MAGIC];
        for (i, a) in magics.iter().enumerate() {
            for b in &magics[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn every_backend_roundtrips_f32_within_bound() {
        let data: Vec<f32> = smooth(1000).iter().map(|&v| v as f32).collect();
        for id in CodecId::all() {
            let codec = codec_for(id);
            let cfg = CodecConfig::abs(1e-3);
            let (bytes, recon) = codec
                .compress_with_recon(&data, Dims::D2(50, 20), &cfg)
                .unwrap();
            assert_eq!(stream_dtype(&bytes), Some(TacDtype::F32), "{id}");
            let (out, dims) = codec.decompress(&bytes).unwrap();
            assert_eq!(dims, Dims::D2(50, 20), "{id}");
            for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
                assert!(
                    (a as f64 - b as f64).abs() <= 1e-3 * (1.0 + 1e-6),
                    "{id} point {i}: {a} vs {b}"
                );
            }
            for (a, b) in recon.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "{id} recon mismatch");
            }
        }
    }

    #[test]
    fn dtype_mismatch_errors_are_typed_for_all_backends() {
        let data64 = smooth(64);
        let data32: Vec<f32> = data64.iter().map(|&v| v as f32).collect();
        let cfg = CodecConfig::abs(1e-3);
        for id in CodecId::all() {
            let (codec64, codec32) = (codec_for::<f64>(id), codec_for::<f32>(id));
            let b64 = codec64.compress(&data64, Dims::D1(64), &cfg).unwrap();
            let b32 = codec32.compress(&data32, Dims::D1(64), &cfg).unwrap();
            assert_eq!(stream_dtype(&b64), Some(TacDtype::F64), "{id}");
            assert!(
                matches!(codec32.decompress(&b64), Err(CodecError::WrongDtype { .. })),
                "{id} decoded an f64 stream as f32"
            );
            assert!(
                matches!(codec64.decompress(&b32), Err(CodecError::WrongDtype { .. })),
                "{id} decoded an f32 stream as f64"
            );
        }
        assert_eq!(stream_dtype(b"not a stream"), None);
    }

    #[test]
    fn codec_element_dispatch_matches_direct_calls() {
        // The element-first CodecElement spelling must produce the same
        // bytes as the direct trait calls.
        let data64 = smooth(256);
        let data32: Vec<f32> = data64.iter().map(|&v| v as f32).collect();
        let cfg = CodecConfig::abs(1e-4);
        for id in CodecId::all() {
            let codec = codec_for(id);
            let via_t = f64::codec_compress(codec, &data64, Dims::D1(256), &cfg).unwrap();
            let direct = codec.compress(&data64, Dims::D1(256), &cfg).unwrap();
            assert_eq!(via_t, direct, "{id} f64");
            let (out, _) = f64::codec_decompress(codec, &via_t).unwrap();
            assert_eq!(out.len(), data64.len());

            let codec = codec_for(id);
            let via_t = f32::codec_compress(codec, &data32, Dims::D1(256), &cfg).unwrap();
            let direct = codec.compress(&data32, Dims::D1(256), &cfg).unwrap();
            assert_eq!(via_t, direct, "{id} f32");
            let (out, _) = f32::codec_decompress(codec, &via_t).unwrap();
            assert_eq!(out.len(), data32.len());
        }
    }

    #[test]
    fn invalid_config_is_rejected_by_all_backends() {
        let data = smooth(8);
        for id in CodecId::all() {
            let codec = codec_for(id);
            for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                let cfg = CodecConfig::abs(eb);
                assert!(
                    codec.compress(&data, Dims::D1(8), &cfg).is_err(),
                    "{id} accepted eb {eb}"
                );
            }
            // Shape mismatch.
            assert!(codec
                .compress(&data, Dims::D2(3, 3), &CodecConfig::abs(1.0))
                .is_err());
        }
    }
}
