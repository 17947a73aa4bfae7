//! The SZ backend: a thin [`ScalarCodec`] wrapper around `tac-sz`.

use crate::{CodecConfig, CodecError, CodecId, Element, ScalarCodec};
use tac_sz::{Dims, ErrorBound, SzConfig};

/// The SZ-style predict–quantize–encode compressor, wrapped as a
/// pluggable backend. This is the default codec and the implicit codec
/// of every container written before the backend layer existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCodec;

impl SzCodec {
    fn sz_config(cfg: &CodecConfig) -> Result<SzConfig, CodecError> {
        cfg.validate()?;
        Ok(SzConfig {
            error_bound: ErrorBound::Abs(cfg.abs_eb),
            capacity: cfg.capacity,
            lossless: cfg.lossless,
            regression: cfg.regression,
        })
    }

    /// Maps a width mismatch to the codec layer's typed error (the SZ
    /// substrate would report it as `UnsupportedFormat`, losing the
    /// machine-checkable distinction).
    fn check_dtype(bytes: &[u8], want: tac_dtype::TacDtype) -> Result<(), CodecError> {
        match tac_sz::stream_dtype(bytes) {
            Some(found) if found != want => Err(CodecError::WrongDtype {
                stream: found.label(),
                requested: want.label(),
            }),
            _ => Ok(()), // absent/corrupt headers fall through to decode errors
        }
    }
}

impl<T: Element> ScalarCodec<T> for SzCodec {
    fn id(&self) -> CodecId {
        CodecId::Sz
    }

    fn compress(&self, data: &[T], dims: Dims, cfg: &CodecConfig) -> Result<Vec<u8>, CodecError> {
        Ok(tac_sz::compress_t(data, dims, &Self::sz_config(cfg)?)?)
    }

    fn compress_with_recon(
        &self,
        data: &[T],
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<(Vec<u8>, Vec<T>), CodecError> {
        Ok(tac_sz::compress_with_recon_t(
            data,
            dims,
            &Self::sz_config(cfg)?,
        )?)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        Self::check_dtype(bytes, T::DTYPE)?;
        Ok(tac_sz::decompress_t(bytes)?)
    }

    fn magic(&self) -> &'static [u8] {
        tac_sz::stream_magic()
    }

    fn looks_like(&self, bytes: &[u8]) -> bool {
        tac_sz::looks_like_stream(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_tac_sz_bit_for_bit() {
        let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let via_trait = SzCodec.compress(&data, Dims::D3(8, 8, 8), &cfg).unwrap();
        let direct = tac_sz::compress(
            &data,
            Dims::D3(8, 8, 8),
            &SzConfig {
                error_bound: ErrorBound::Abs(1e-4),
                capacity: cfg.capacity,
                lossless: cfg.lossless,
                regression: cfg.regression,
            },
        )
        .unwrap();
        assert_eq!(via_trait, direct, "the wrapper must not change the bytes");
        assert!(ScalarCodec::<f64>::looks_like(&SzCodec, &via_trait));
        let (out, dims): (Vec<f64>, _) = SzCodec.decompress(&via_trait).unwrap();
        assert_eq!(dims, Dims::D3(8, 8, 8));
        assert_eq!(out.len(), data.len());
    }
}
