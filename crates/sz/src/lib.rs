#![forbid(unsafe_code)]

//! # tac-sz
//!
//! A from-scratch, SZ-style **error-bounded lossy compressor** for
//! floating-point scientific data — the substrate the TAC paper (HPDC'22)
//! builds on. The pipeline mirrors the three SZ stages the paper describes:
//!
//! 1. **Prediction** — Lorenzo predictors (1D/2D/3D, plus batched-3D for
//!    rank-4 inputs) evaluated on *reconstructed* neighbours, or an
//!    SZ2-style per-block regression plane;
//! 2. **Error-controlled quantization** — linear-scaling bins of width
//!    `2*eb` with verbatim fallback for unpredictable points;
//! 3. **Entropy + dictionary coding** — canonical Huffman over the
//!    quantization codes followed by an LZSS lossless stage
//!    ([`mod@lossless`]).
//!
//! One entry per direction: [`compress`] takes an already-resolved
//! absolute bound ([`SzConfig::abs`]; a relative bound is resolved by the
//! caller, with [`ErrorBound::resolve_for`]) and returns the stream;
//! [`decompress`] returns the values and their shape. Both are generic
//! over the element type. The guarantee: for every finite input value
//! `v` and its reconstruction `v'`, `|v - v'| <= abs_eb`. Non-finite
//! values round-trip bit-exactly.
//!
//! ```
//! use tac_sz::{compress, decompress, Dims, SzConfig};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
//! let bytes = compress(&data, None, Dims::D3(16, 16, 16), &SzConfig::abs(1e-4)).unwrap();
//! let (restored, dims) = decompress::<f64>(&bytes).unwrap();
//! assert_eq!(dims, Dims::D3(16, 16, 16));
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-4);
//! }
//! ```

#![warn(missing_docs)]

mod bitstream;
mod compress;
mod config;
mod container;
mod error;
mod huffman;
pub mod lossless;
mod predictor;
mod quantizer;
mod regression;
mod stats;
pub mod wire;

pub use compress::{compress, decompress};
pub use config::{Dims, ErrorBound, SzConfig};
pub use container::{Header, HeaderError, FLAG_F32, FLAG_LOSSLESS, MAGIC, VERSION};
pub use error::SzError;
pub use stats::CompressionStats;
pub use tac_dtype::{Element, TacDtype};
