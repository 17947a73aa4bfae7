#![forbid(unsafe_code)]

//! # tac-core
//!
//! **TAC** — error-bounded lossy compression optimized for 3D AMR data
//! (Wang et al., HPDC 2022). TAC compresses each refinement level of a
//! tree-based AMR dataset *in 3D* after a density-adaptive pre-process:
//!
//! * sparse levels (< 50%): **OpST** — a dynamic-programming sparse-tensor
//!   extraction that carves maximal non-empty cubes ([`plan_opst`]);
//! * medium levels (50-60%): **AKDTree** — an adaptive k-d tree whose
//!   splits maximize child occupancy difference ([`plan_akdtree`]);
//! * dense levels (>= 60%): **GSP** — ghost-shell padding that fills the
//!   few empty blocks with neighbour boundary averages
//!   ([`pad_ghost_shell`]); the writer codes those cells as don't-care,
//!   so it writes a GSP level as it is, with no fill.
//!
//! Level-wise compression also unlocks **per-level error bounds**
//! ([`TacConfig::level_eb_scale`]), the paper's Sec. 4.5 tuning for
//! power-spectrum and halo-finder fidelity.
//!
//! Three baselines from the paper ship alongside for every comparison:
//! the naive 1D per-level compressor, zMesh-style geometric reordering,
//! and the up-sample-and-merge 3D baseline ([`Method`]).
//!
//! Every payload stream compresses through a pluggable scalar-codec
//! backend ([`tac_codec::ScalarCodec`]), selected per run with
//! [`TacConfig::codec`]: the default SZ substrate ([`CodecId::Sz`]) or
//! the pcodec-style quantize–delta front end with a tabled-ANS tail
//! ([`CodecId::PcoAns`], the codec most benchmark workloads run).
//! Containers carry the codec tag on the wire, and pre-codec containers
//! parse unchanged; streams of the decode-only [`CodecId::PcoLite`]
//! (the same front end with plain bit-packing) still decode.
//!
//! [`Method::Auto`] layers TAC+-style adaptive selection on top: a
//! deterministic selection pass ([`select_auto`]) scores every fixed
//! `(method, codec)` candidate — per level, for TAC — and compresses
//! with the winner, recorded in the method/codec tags the container
//! already carries. Decode needs no new wire format.
//!
//! The whole surface is generic over the element type ([`Element`]:
//! `f32` / `f64`). Six entry points: [`compress_dataset_t`],
//! [`decompress_dataset_par_t`], [`decompress_region_t`],
//! [`compress_level_t`], [`decompress_level_t`] and
//! [`resolve_level_eb_for`], the one place a relative bound becomes an
//! absolute one. Compression infers the type from its input; decodes
//! name it (`::<f64>`, or the [`CompressedDataset::dtype`] a container
//! declares).
//!
//! ```
//! use tac_amr::{AmrDataset, AmrLevel};
//! use tac_core::{
//!     compress_dataset_t, decompress_dataset_par_t, ErrorBound, Method, Parallelism, TacConfig,
//! };
//!
//! let fine = AmrLevel::dense(8, (0..512).map(|i| i as f64).collect());
//! let ds = AmrDataset::new("demo", vec![fine]);
//! let cfg = TacConfig::with_error_bound(ErrorBound::Abs(0.5));
//! let compressed = compress_dataset_t(&ds, &cfg, Method::Tac).unwrap();
//! let restored = decompress_dataset_par_t::<f64>(&compressed, Parallelism::Serial).unwrap();
//! for (a, b) in ds.finest().data().iter().zip(restored.finest().data()) {
//!     assert!((a - b).abs() <= 0.5);
//! }
//! ```

#![warn(missing_docs)]

mod akdtree;
mod config;
mod container;
mod density;
mod engine;
mod error;
mod extract;
mod grid;
mod gsp;
mod nast;
mod opst;
mod pipeline;
mod roi;
mod segment;
mod select;
mod stats;
mod stream;
mod zmesh;

pub use akdtree::{plan_akdtree, AkdPlan};
pub use config::{Strategy, TacConfig, T1, T2};
pub use container::{
    Baseline1DLevel, CompressedDataset, Method, MethodBody, CHUNK_COUNT_PREFIX_BYTES,
    CHUNK_ROW_BYTES_V4, TABLE_FOOTER_BYTES,
};
pub use density::choose_strategy;
pub use error::TacError;
pub use extract::Region;
pub use gsp::pad_ghost_shell;
pub use nast::plan_nast;
pub use opst::{plan_opst, plan_opst_from_occupancy, OpstPlan};
pub use pipeline::{
    compress_dataset_t, compress_level_t, decompress_dataset_par_t, decompress_level_t,
    resolve_level_eb_for, select_method,
};
pub use roi::{decompress_region_t, RoiStats};
pub use segment::Segment;
pub use select::{select_auto, AutoSelection, CandidateEstimate};
pub use stats::CompressionStats;
pub use stream::{BlockGroup, CompressedLevel, LevelPayload};
pub use zmesh::{gather, scatter, zmesh_order, ZmeshEntry};

// Re-exported so callers can set `TacConfig::parallelism` without a
// direct `tac-par` dependency.
pub use tac_par::Parallelism;

// Re-exported so callers can set `TacConfig::error_bound` and
// `TacConfig::codec` — and register or inspect scalar-codec backends —
// without a direct `tac-codec` dependency. Every payload stream tac-core
// reads or writes dispatches through this backend layer.
pub use tac_codec::{
    codec_for, sniff_codec, stream_dtype, CodecConfig, CodecElement, CodecError, CodecId,
    ErrorBound, ScalarCodec,
};

// Re-exported so dtype-generic callers (benchmarks, test harnesses) can
// name element types and dispatch over the wire tag without a direct
// `tac-dtype` dependency.
pub use tac_dtype::{dispatch_dtype, Element, TacDtype};
