//! Per-stream parameters: error-bound modes, the resolved bound every
//! backend takes, and array dimensionality.

use crate::CodecError;
use tac_dtype::{Element, TacDtype};

/// How the user bounds the point-wise reconstruction error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Point-wise absolute error bound: `|v - v'| <= eb` for every point.
    Abs(f64),
    /// Value-range relative bound: the absolute bound is
    /// `eb * (max - min)` of the input block (SZ's `REL` mode).
    Rel(f64),
}

impl ErrorBound {
    /// Resolves the bound to an absolute epsilon for data of element type
    /// `dtype` spanning `min..=max`.
    ///
    /// A relative bound over a zero (or non-finite) range resolves to the
    /// smallest positive *normal* of `dtype`, so the quantizer step stays
    /// representable at that precision (`f64::MIN_POSITIVE` would flush
    /// to zero in an `f32` pipeline); every point then predicts exactly
    /// or is stored verbatim.
    pub fn resolve_for(self, min: f64, max: f64, dtype: TacDtype) -> Result<f64, CodecError> {
        let abs = match self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => {
                if rel <= 0.0 || !rel.is_finite() {
                    return Err(CodecError::InvalidConfig(format!(
                        "relative bound must be positive and finite, got {rel}"
                    )));
                }
                let range = max - min;
                if range > 0.0 && range.is_finite() {
                    rel * range
                } else {
                    match dtype {
                        TacDtype::F64 => <f64 as Element>::MIN_POSITIVE,
                        TacDtype::F32 => <f32 as Element>::MIN_POSITIVE,
                    }
                }
            }
        };
        CodecConfig::abs(abs).validate()?;
        Ok(abs)
    }
}

/// Array shape, rank 1 through 4.
///
/// Layout is always row-major with the **first** dimension fastest: for
/// `D3(nx, ny, nz)` the element `(x, y, z)` lives at `x + nx*(y + ny*z)`.
/// Rank 4 (`D4`) is a batch of independent 3D blocks (the layout TAC's
/// OpST strategy feeds to the compressor): prediction never crosses the
/// outermost (`w`) axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dims {
    /// 1D array of the given length.
    D1(usize),
    /// 2D array `(nx, ny)`.
    D2(usize, usize),
    /// 3D array `(nx, ny, nz)`.
    D3(usize, usize, usize),
    /// Batch of `w` independent 3D blocks, `(nx, ny, nz, w)`.
    D4(usize, usize, usize, usize),
}

impl Dims {
    /// Total number of elements. Saturates on overflow (only reachable via
    /// corrupt headers; validation then rejects the implausible size).
    pub fn len(&self) -> usize {
        let mul = |a: usize, b: usize| a.saturating_mul(b);
        match *self {
            Dims::D1(a) => a,
            Dims::D2(a, b) => mul(a, b),
            Dims::D3(a, b, c) => mul(mul(a, b), c),
            Dims::D4(a, b, c, d) => mul(mul(mul(a, b), c), d),
        }
    }

    /// Whether the shape holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of axes (1-4).
    pub fn rank(&self) -> u8 {
        match self {
            Dims::D1(..) => 1,
            Dims::D2(..) => 2,
            Dims::D3(..) => 3,
            Dims::D4(..) => 4,
        }
    }

    /// Validates that no axis is zero and that `data_len` matches.
    pub fn validate(&self, data_len: usize) -> Result<(), CodecError> {
        let any_zero = match *self {
            Dims::D1(a) => a == 0,
            Dims::D2(a, b) => a == 0 || b == 0,
            Dims::D3(a, b, c) => a == 0 || b == 0 || c == 0,
            Dims::D4(a, b, c, d) => a == 0 || b == 0 || c == 0 || d == 0,
        };
        if any_zero {
            return Err(CodecError::InvalidConfig(
                "dimensions must all be non-zero".into(),
            ));
        }
        if self.len() != data_len {
            return Err(CodecError::InvalidConfig(format!(
                "data length {data_len} does not match dimension product {}",
                self.len()
            )));
        }
        Ok(())
    }
}

/// Backend-agnostic per-stream compression parameters.
///
/// The error bound arrives here already **resolved to an absolute
/// epsilon** (TAC resolves relative bounds per level, against each
/// level's own value range, with [`ErrorBound::resolve_for`]).
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

    /// Validates the resolved bound: positive and finite.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScalarCodec;

    #[test]
    fn dims_len_and_rank() {
        assert_eq!(Dims::D1(7).len(), 7);
        assert_eq!(Dims::D2(3, 4).len(), 12);
        assert_eq!(Dims::D3(2, 3, 4).len(), 24);
        assert_eq!(Dims::D4(2, 3, 4, 5).len(), 120);
        assert_eq!(Dims::D1(7).rank(), 1);
        assert_eq!(Dims::D4(1, 1, 1, 1).rank(), 4);
    }

    #[test]
    fn validate_rejects_mismatch_and_zero() {
        assert!(Dims::D2(3, 4).validate(12).is_ok());
        assert!(matches!(
            Dims::D2(3, 4).validate(11),
            Err(CodecError::InvalidConfig(_))
        ));
        assert!(matches!(
            Dims::D3(0, 4, 4).validate(0),
            Err(CodecError::InvalidConfig(_))
        ));
    }

    #[test]
    fn abs_bound_resolution() {
        let resolve = |eb: ErrorBound| eb.resolve_for(0.0, 1.0, TacDtype::F64);
        assert_eq!(resolve(ErrorBound::Abs(0.5)).unwrap(), 0.5);
        assert!(resolve(ErrorBound::Abs(0.0)).is_err());
        assert!(resolve(ErrorBound::Abs(-1.0)).is_err());
        assert!(resolve(ErrorBound::Abs(f64::NAN)).is_err());
    }

    #[test]
    fn rel_bound_scales_with_range() {
        let eb = ErrorBound::Rel(1e-3)
            .resolve_for(-5.0, 5.0, TacDtype::F64)
            .unwrap();
        assert!((eb - 1e-2).abs() < 1e-15);
        // Constant data: falls back to the smallest normal of the element
        // type, which stays positive at that width.
        for dtype in [TacDtype::F64, TacDtype::F32] {
            let eb = ErrorBound::Rel(1e-3).resolve_for(2.0, 2.0, dtype).unwrap();
            assert!(eb > 0.0);
            let narrowed = match dtype {
                TacDtype::F64 => eb,
                TacDtype::F32 => eb as f32 as f64,
            };
            assert_eq!(narrowed, eb, "{dtype:?}");
        }
    }

    #[test]
    fn capacity_validation() {
        // The writer stores its quantizer capacity after the header; the
        // decoder refuses a stored value below 4 or odd, and reads any
        // other.
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        let sz = crate::SzCodec::FULL;
        let bytes = sz
            .compress(&data, None, Dims::D1(64), &CodecConfig::abs(1e-3))
            .unwrap();
        let (magic, version) = (crate::compress::MAGIC, crate::compress::VERSION);
        let at = bytes.len()
            - crate::container::Header::read::<f64>(&bytes, magic, version, u8::MAX)
                .unwrap()
                .1
                .len();
        assert_eq!(bytes[at..at + 4], 65536u32.to_le_bytes());
        let with_capacity = |capacity: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&capacity.to_le_bytes());
            ScalarCodec::<f64>::decompress(&sz, &b)
        };
        for bad in [0, 2, 3, 7, 65537] {
            assert!(
                matches!(with_capacity(bad), Err(CodecError::Corrupt(_))),
                "capacity {bad}"
            );
        }
        for good in [4, 8, 65536, 1 << 20] {
            assert!(with_capacity(good).is_ok(), "capacity {good}");
        }
        // The configuration itself only carries the bound.
        assert!(CodecConfig::abs(1.0).validate().is_ok());
        for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(CodecConfig::abs(eb).validate().is_err(), "eb {eb}");
        }
    }
}
