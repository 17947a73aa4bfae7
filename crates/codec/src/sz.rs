//! The SZ backend: a thin [`ScalarCodec`] wrapper around `tac-sz`.

use crate::{check_care, stream_head, CodecConfig, CodecError, CodecId, Element, ScalarCodec};
use tac_sz::{Dims, SzConfig};

/// The SZ-style predict–quantize–encode compressor, wrapped as a
/// pluggable backend. This is the default codec and the implicit codec
/// of every container written before the backend layer existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCodec;

impl<T: Element> ScalarCodec<T> for SzCodec {
    fn compress(
        &self,
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<Vec<u8>, CodecError> {
        cfg.validate()?;
        // tac-sz takes the care length as a precondition: the rule's
        // error lives here, as for every codec.
        check_care(care, data.len())?;
        Ok(tac_sz::compress(
            data,
            care,
            dims,
            &SzConfig::abs(cfg.abs_eb),
        )?)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        tac_sz::decompress(bytes).map_err(|e| match stream_head(bytes) {
            // The SZ substrate reports a width mismatch as
            // `UnsupportedFormat`; the codec layer's error is typed.
            Ok((CodecId::Sz, found)) if found != T::DTYPE => CodecError::WrongDtype {
                stream: found.label(),
                requested: T::DTYPE.label(),
            },
            _ => e.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_tac_sz_bit_for_bit() {
        let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let via_trait = SzCodec
            .compress(&data, None, Dims::D3(8, 8, 8), &cfg)
            .unwrap();
        let direct =
            tac_sz::compress(&data, None, Dims::D3(8, 8, 8), &SzConfig::abs(1e-4)).unwrap();
        assert_eq!(via_trait, direct, "the wrapper must not change the bytes");
        assert_eq!(crate::sniff_codec(&via_trait), Ok(CodecId::Sz));
        let (out, dims): (Vec<f64>, _) = SzCodec.decompress(&via_trait).unwrap();
        assert_eq!(dims, Dims::D3(8, 8, 8));
        assert_eq!(out.len(), data.len());
    }
}
