//! Error type for TAC compression pipelines.

use std::fmt;
use tac_codec::wire::WireError;
use tac_codec::CodecError;

/// Errors surfaced by dataset-level compression and decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum TacError {
    /// A scalar-codec backend failed.
    Codec(CodecError),
    /// The compressed container is malformed.
    Corrupt(String),
    /// Configuration is invalid (unit size, level scales, engine settings).
    InvalidConfig(String),
    /// The dataset violates AMR invariants needed by the method.
    InvalidDataset(String),
    /// A relative error bound cannot resolve because the data it must
    /// resolve against contains NaN or infinite values (the range is not
    /// finite, so no meaningful absolute bound exists). Absolute bounds
    /// accept non-finite values and store them verbatim instead.
    NonFinite(String),
    /// The resolved absolute error bound is positive in `f64` working
    /// precision but underflows to zero at the target element type, so
    /// the quantizer step would silently degenerate (every value
    /// unpredictable, or worse, a zero-width bin). Raised instead of
    /// propagating the meaningless bound — e.g. a relative bound over a
    /// tiny dynamic range on an `f32` field.
    DegenerateBound {
        /// The resolved absolute bound in `f64` working precision.
        abs_eb: f64,
        /// Label of the element type it underflows (`"f32"`).
        dtype: &'static str,
    },
}

impl fmt::Display for TacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TacError::Codec(e) => write!(f, "scalar codec: {e}"),
            TacError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            TacError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TacError::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            TacError::NonFinite(msg) => write!(f, "non-finite data: {msg}"),
            TacError::DegenerateBound { abs_eb, dtype } => write!(
                f,
                "error bound {abs_eb} underflows {dtype}: the quantizer \
                 step would be zero at that precision"
            ),
        }
    }
}

impl std::error::Error for TacError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TacError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for TacError {
    /// A container that ends early, or holds a malformed field, is
    /// corrupt.
    fn from(e: WireError) -> Self {
        TacError::Corrupt(e.to_string())
    }
}

impl From<CodecError> for TacError {
    fn from(e: CodecError) -> Self {
        TacError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TacError::from(WireError {
            offset: 9,
            reason: "need 8 bytes, 3 remain".into(),
        });
        assert_eq!(
            e.to_string(),
            "corrupt container: need 8 bytes, 3 remain at byte 9"
        );
        assert!(std::error::Error::source(&e).is_none());
        let c = TacError::Corrupt("bad".into());
        assert!(c.to_string().contains("bad"));
        assert!(std::error::Error::source(&c).is_none());
        let k = TacError::from(CodecError::UnknownCodec(9));
        assert!(k.to_string().contains("scalar codec"));
        assert!(std::error::Error::source(&k).is_some());
        let n = TacError::NonFinite("range is NaN".into());
        assert!(n.to_string().contains("non-finite"));
        assert!(std::error::Error::source(&n).is_none());
        let d = TacError::DegenerateBound {
            abs_eb: 1e-46,
            dtype: "f32",
        };
        assert!(d.to_string().contains("underflows f32"), "{d}");
        assert!(std::error::Error::source(&d).is_none());
    }
}
