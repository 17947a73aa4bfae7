//! Error type for compression and decompression failures.

use std::fmt;

/// Errors returned by the compressor / decompressor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzError {
    /// The input slice length does not match the product of the dimensions.
    DimensionMismatch {
        /// Length of the data slice.
        data_len: usize,
        /// Product of the declared dimensions.
        dims_len: usize,
    },
    /// The error bound is zero, negative, NaN, or infinite.
    InvalidErrorBound(String),
    /// A dimension is zero.
    ZeroDimension,
    /// The compressed stream is truncated or malformed.
    Corrupt(String),
    /// The compressed stream has an unsupported version or magic number.
    UnsupportedFormat(String),
}

impl fmt::Display for SzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SzError::DimensionMismatch { data_len, dims_len } => write!(
                f,
                "data length {data_len} does not match dimension product {dims_len}"
            ),
            SzError::InvalidErrorBound(msg) => write!(f, "invalid error bound: {msg}"),
            SzError::ZeroDimension => write!(f, "dimensions must all be non-zero"),
            SzError::Corrupt(msg) => write!(f, "corrupt compressed stream: {msg}"),
            SzError::UnsupportedFormat(msg) => write!(f, "unsupported format: {msg}"),
        }
    }
}

impl std::error::Error for SzError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SzError::DimensionMismatch {
            data_len: 10,
            dims_len: 12,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("12"));
        assert!(SzError::ZeroDimension.to_string().contains("non-zero"));
        assert!(SzError::InvalidErrorBound("eb -3".into())
            .to_string()
            .contains("-3"));
    }
}
