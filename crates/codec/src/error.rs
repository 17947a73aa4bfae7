//! Error type shared by every codec backend.

use crate::container::HeaderError;
use crate::wire::WireError;
use std::fmt;

/// Errors surfaced by scalar-codec compression and decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// A compressed stream is malformed or truncated.
    Corrupt(String),
    /// The configuration is invalid for the backend.
    InvalidConfig(String),
    /// A wire tag does not name any registered codec.
    UnknownCodec(u8),
    /// A byte stream matches no registered codec's magic number, so it
    /// cannot be sniffed.
    UnknownStream {
        /// Up to the first four bytes of the unrecognized stream.
        prefix: Vec<u8>,
    },
    /// The stream was produced by a different codec than the one asked
    /// to decode it (wire tag / magic number disagreement).
    WrongCodec {
        /// The codec that was asked to decode.
        expected: &'static str,
        /// What the stream's magic actually looks like.
        found: String,
    },
    /// The stream's element type does not match the caller's request
    /// (e.g. decoding an `f32` stream through the `f64` entry point).
    WrongDtype {
        /// Element type recorded in the stream's flag bits.
        stream: &'static str,
        /// Element type the caller asked to decode.
        requested: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Corrupt(msg) => write!(f, "corrupt codec stream: {msg}"),
            CodecError::InvalidConfig(msg) => write!(f, "invalid codec configuration: {msg}"),
            CodecError::UnknownCodec(tag) => write!(f, "unknown codec wire tag {tag}"),
            CodecError::UnknownStream { prefix } => {
                write!(f, "stream prefix {prefix:02x?} matches no registered codec")
            }
            CodecError::WrongCodec { expected, found } => {
                write!(f, "stream is not a {expected} stream (found {found})")
            }
            CodecError::WrongDtype { stream, requested } => {
                write!(
                    f,
                    "stream holds {stream} elements, caller expected {requested}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    /// A stream that ends early, or holds a malformed field, is corrupt.
    fn from(e: WireError) -> Self {
        CodecError::Corrupt(e.to_string())
    }
}

/// The one mapping of a refused stream header onto the codec error of
/// the backend `label` names: another magic is another codec's stream,
/// another element type is [`CodecError::WrongDtype`], and anything else
/// is corrupt.
pub(crate) fn header_error(label: &'static str, e: HeaderError) -> CodecError {
    match e {
        HeaderError::Magic(found) => CodecError::WrongCodec {
            expected: label,
            found: format!("magic {found:02x?}"),
        },
        HeaderError::Dtype { stream, requested } => CodecError::WrongDtype {
            stream: stream.label(),
            requested: requested.label(),
        },
        HeaderError::Version { .. } => CodecError::Corrupt(format!("{label} {e}")),
        HeaderError::Corrupt(msg) => CodecError::Corrupt(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CodecError::from(WireError {
            offset: 17,
            reason: "need 8 bytes, 3 remain".into(),
        });
        assert_eq!(
            e.to_string(),
            "corrupt codec stream: need 8 bytes, 3 remain at byte 17"
        );
        assert!(std::error::Error::source(&e).is_none());
        let w = CodecError::WrongCodec {
            expected: "pco-lite",
            found: "sz magic".into(),
        };
        assert!(w.to_string().contains("pco-lite"));
        assert!(std::error::Error::source(&w).is_none());
        let u = CodecError::UnknownStream {
            prefix: b"XXXX".to_vec(),
        };
        assert!(u.to_string().contains("no registered codec"));
    }

    #[test]
    fn display_messages_are_informative() {
        let e = crate::Dims::D2(3, 4).validate(10).unwrap_err();
        assert!(e.to_string().contains("10"), "{e}");
        assert!(e.to_string().contains("12"), "{e}");
        let e = crate::Dims::D1(0).validate(0).unwrap_err();
        assert!(e.to_string().contains("non-zero"), "{e}");
        let e = crate::CodecConfig::abs(-3.0).validate().unwrap_err();
        assert!(e.to_string().contains("-3"), "{e}");
    }
}
