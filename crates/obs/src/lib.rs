//! Structured observability for the TAC stack.
//!
//! The crate follows the `log`-crate model: every other crate calls the
//! free functions [`span`], [`add`] and [`hist`] unconditionally, and a
//! static `Recorder` (built with the `enabled` feature) decides what
//! happens to the data. Without the `enabled` cargo feature the whole
//! API compiles to zero-sized inline
//! no-ops — [`SpanGuard`] is a unit struct and every call body is empty,
//! so the default build carries no recorder branches in hot loops (see
//! the `disabled_guard_is_zero_sized` test). With `enabled`, spans keep
//! a thread-local stack with monotonic timestamps, and counters and
//! histograms land in per-thread shards that are merged only on collect,
//! so hot loops never touch shared atomics.
//!
//! Two exporters live in [`export`]: a chrome://tracing-compatible event
//! stream and a compact per-stage text/JSON report. [`meta`] captures
//! run metadata (git commit, seed, workers, cores, timestamp) so the
//! JSON artifacts written by the bench harness are self-describing.

#![forbid(unsafe_code)]

pub mod export;
pub mod meta;
mod snapshot;

pub use snapshot::{HistSnapshot, Snapshot, SpanEvent};

#[cfg(feature = "enabled")]
mod registry;
#[cfg(feature = "enabled")]
pub use registry::{install, session, set_recorder, ObsSession, Recorder, SpanGuard};

/// Whether the recording machinery is compiled in. `const`, so
/// `if tac_obs::enabled() { .. }` folds away entirely in default builds.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Pipeline stages a span can be attributed to. The names are wire- and
/// report-stable: they appear in `TRACE_*.json` and the `stages` object
/// of `BENCH_codec.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Whole-dataset compression entry point.
    Compress,
    /// Whole-dataset decompression entry point.
    Decompress,
    /// Planning: strategy choice, error-bound resolution (the value-range
    /// scan) and engine task construction.
    Plan,
    /// `Method::Auto` selection pass (candidate trial encodes and
    /// rate estimates).
    Select,
    /// Engine task execution (the parallel region).
    Execute,
    /// Engine result hand-over after the tasks: collecting compressed
    /// streams into per-level payloads, or checking the decode tasks'
    /// results and returning the level grids they filled.
    Assemble,
    /// Decode-side assembly of one task's values into its level grid:
    /// pasting a region group (or handing over a whole-level buffer) and
    /// masking what was written. Nested inside the task's
    /// [`Stage::Decode`] span, on the worker that decoded the values.
    Paste,
    /// Moving values between level buffers and a codec stream's order
    /// in the 1D, zMesh and 3D paths: the gather on compress (and of a
    /// `Method::Auto` sample window), buffer allocation plus scatter on
    /// decode.
    Reorder,
    /// One codec encode task (a level, group, or baseline stream).
    Encode,
    /// One codec decode task.
    Decode,
    /// Codec quantization (SZ prediction+quantization, the pcodec-style
    /// q+delta front end).
    Quantize,
    /// Page coding of the pcodec-style codecs: pco-ans bins, tokens and
    /// offsets, pco-lite bit unpacking.
    Pack,
    /// PcoAns per-page bin planning + rANS table build (both sides).
    AnsTable,
    /// SZ entropy stage (Huffman).
    Entropy,
    /// Final lossless stage (LZSS) of either codec.
    Lossless,
    /// ROI region decode.
    RoiDecode,
    /// Container serialization (`to_bytes`): header, mask section (its
    /// LZSS packs nested as [`Stage::Lossless`]), payload copy, chunk
    /// table.
    Serialize,
    /// Container parse (`from_bytes`, and the prelude-and-table parse a
    /// region read plans from): mask unpack nested as
    /// [`Stage::Lossless`], chunk-table validation.
    Parse,
    /// Lifetime of one executor worker thread.
    Worker,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: &'static [Stage] = &[
        Stage::Compress,
        Stage::Decompress,
        Stage::Plan,
        Stage::Select,
        Stage::Execute,
        Stage::Assemble,
        Stage::Paste,
        Stage::Reorder,
        Stage::Encode,
        Stage::Decode,
        Stage::Quantize,
        Stage::Pack,
        Stage::AnsTable,
        Stage::Entropy,
        Stage::Lossless,
        Stage::RoiDecode,
        Stage::Serialize,
        Stage::Parse,
        Stage::Worker,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compress => "compress",
            Stage::Decompress => "decompress",
            Stage::Plan => "plan",
            Stage::Select => "select",
            Stage::Execute => "execute",
            Stage::Assemble => "assemble",
            Stage::Paste => "paste",
            Stage::Reorder => "reorder",
            Stage::Encode => "encode",
            Stage::Decode => "decode",
            Stage::Quantize => "quantize",
            Stage::Pack => "pack",
            Stage::AnsTable => "ans_table",
            Stage::Entropy => "entropy",
            Stage::Lossless => "lossless",
            Stage::RoiDecode => "roi_decode",
            Stage::Serialize => "serialize",
            Stage::Parse => "parse",
            Stage::Worker => "worker",
        }
    }
}

/// Typed counters. Each lives in every per-thread shard; [`Snapshot`]
/// holds the merged totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Codec streams encoded (levels, groups, baseline streams).
    ChunksEncoded,
    /// Codec streams decoded.
    ChunksDecoded,
    /// Compressed payload bytes produced by codec encodes.
    PayloadBytesOut,
    /// Bytes of the mask section written by container serialization
    /// (mode byte plus every stored mask behind its length prefix).
    StructureBytesOut,
    /// Compressed payload bytes consumed by codec decodes.
    PayloadBytesIn,
    /// Chunks considered by an ROI decode.
    RoiChunksTotal,
    /// Chunks actually read by an ROI decode.
    RoiChunksRead,
    /// Payload bytes read by an ROI decode.
    RoiBytesRead,
    /// Payload bytes skipped by an ROI decode.
    RoiBytesSkipped,
    /// Tasks executed by the work-stealing executor.
    ExecTasks,
    /// Tasks obtained by stealing from another worker's deque.
    ExecSteals,
    /// Nanoseconds executor workers spent failing to find work.
    ExecIdleNs,
    /// SZ quantizer predictions within the error bound.
    SzQuantHits,
    /// SZ quantizer misses (stored raw).
    SzQuantMisses,
    /// SZ blocks predicted with the Lorenzo predictor.
    SzBlocksLorenzo,
    /// SZ blocks predicted with the regression predictor.
    SzBlocksRegression,
    /// Payload bytes SZ offered to its lossless (LZSS) stage.
    SzLosslessBytesIn,
    /// Payload bytes, of those offered, whose LZSS pack SZ kept because
    /// it was smaller; the rest of `sz_lossless_bytes_in` was packed
    /// and thrown away.
    SzLosslessBytesKept,
    /// Exception values (stored raw, outside the pages) the pcodec-style
    /// front end wrote.
    PcoExceptions,
    /// PcoAns pages emitted or decoded.
    AnsPages,
    /// PcoAns decoder state renormalizations (16-bit word refills).
    AnsRenorms,
    /// `(method, codec)` candidates evaluated by a `Method::Auto`
    /// selection pass.
    SelectCandidates,
    /// Values trial-encoded by a selection pass (exhaustive trials and
    /// subsampled estimates alike).
    SelectSampledValues,
    /// Estimated payload bytes of the winning selection candidate.
    SelectWinnerBytes,
    /// Level-grid cells stored by TAC decode-side assembly: the present
    /// cells of the pasted regions (inside the box, on a region read).
    /// Absent cells are never written, so it stays proportional to the
    /// present cells decoded, not to the region volume or to `dim^3`.
    AssembleCellsWritten,
    /// Values moved by [`Stage::Reorder`] spans: one per value gathered
    /// into, or scattered out of, a 1D / zMesh / 3D codec stream.
    ReorderValues,
    /// Traversal pieces the zMesh / 1D gather and scatter move those
    /// values in: one per mask run, sibling pair or row segment.
    ReorderPieces,
}

impl Counter {
    /// Number of counters (shard array size).
    pub const COUNT: usize = Counter::ALL.len();

    /// Every counter, in display order.
    pub const ALL: &'static [Counter] = &[
        Counter::ChunksEncoded,
        Counter::ChunksDecoded,
        Counter::PayloadBytesOut,
        Counter::StructureBytesOut,
        Counter::PayloadBytesIn,
        Counter::RoiChunksTotal,
        Counter::RoiChunksRead,
        Counter::RoiBytesRead,
        Counter::RoiBytesSkipped,
        Counter::ExecTasks,
        Counter::ExecSteals,
        Counter::ExecIdleNs,
        Counter::SzQuantHits,
        Counter::SzQuantMisses,
        Counter::SzBlocksLorenzo,
        Counter::SzBlocksRegression,
        Counter::SzLosslessBytesIn,
        Counter::SzLosslessBytesKept,
        Counter::PcoExceptions,
        Counter::AnsPages,
        Counter::AnsRenorms,
        Counter::SelectCandidates,
        Counter::SelectSampledValues,
        Counter::SelectWinnerBytes,
        Counter::AssembleCellsWritten,
        Counter::ReorderValues,
        Counter::ReorderPieces,
    ];

    /// Index into a shard's counter array.
    #[inline(always)]
    pub fn index(self) -> usize {
        Counter::ALL.iter().position(|&c| c == self).unwrap_or(0)
    }

    /// Stable snake_case name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ChunksEncoded => "chunks_encoded",
            Counter::ChunksDecoded => "chunks_decoded",
            Counter::PayloadBytesOut => "payload_bytes_out",
            Counter::StructureBytesOut => "structure_bytes_out",
            Counter::PayloadBytesIn => "payload_bytes_in",
            Counter::RoiChunksTotal => "roi_chunks_total",
            Counter::RoiChunksRead => "roi_chunks_read",
            Counter::RoiBytesRead => "roi_bytes_read",
            Counter::RoiBytesSkipped => "roi_bytes_skipped",
            Counter::ExecTasks => "exec_tasks",
            Counter::ExecSteals => "exec_steals",
            Counter::ExecIdleNs => "exec_idle_ns",
            Counter::SzQuantHits => "sz_quant_hits",
            Counter::SzQuantMisses => "sz_quant_misses",
            Counter::SzBlocksLorenzo => "sz_blocks_lorenzo",
            Counter::SzBlocksRegression => "sz_blocks_regression",
            Counter::SzLosslessBytesIn => "sz_lossless_bytes_in",
            Counter::SzLosslessBytesKept => "sz_lossless_bytes_kept",
            Counter::PcoExceptions => "pco_exceptions",
            Counter::AnsPages => "ans_pages",
            Counter::AnsRenorms => "ans_renorms",
            Counter::SelectCandidates => "select_candidates",
            Counter::SelectSampledValues => "select_sampled_values",
            Counter::SelectWinnerBytes => "select_winner_bytes",
            Counter::AssembleCellsWritten => "assemble_cells_written",
            Counter::ReorderValues => "reorder_values",
            Counter::ReorderPieces => "reorder_pieces",
        }
    }
}

/// Typed histograms. Buckets are direct small-integer values, clamped to
/// [`HIST_BUCKETS`]` - 1` — exactly right for bit widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistKind {
    /// Bin count chosen per PcoAns page (1..=65, clamped to the bucket
    /// range).
    AnsPageBins,
}

/// Bucket count per histogram: values 0..=64 — right for bit widths,
/// and PcoAns bin counts (1..=65) land in it with the top value
/// clamped.
pub const HIST_BUCKETS: usize = 65;

impl HistKind {
    /// Number of histogram kinds (shard array size).
    pub const COUNT: usize = HistKind::ALL.len();

    /// Every histogram kind.
    pub const ALL: &'static [HistKind] = &[HistKind::AnsPageBins];

    /// Index into a shard's histogram array.
    #[inline(always)]
    pub fn index(self) -> usize {
        HistKind::ALL.iter().position(|&h| h == self).unwrap_or(0)
    }

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::AnsPageBins => "ans_page_bins",
        }
    }
}

/// Values accepted by [`SpanGuard::arg`] — the small unsigned integers
/// instrumentation sites actually have on hand. Taking the conversion
/// here keeps `as` casts out of wire-audited call sites.
pub trait ObsValue {
    /// Widen into the u64 the span event stores.
    fn into_u64(self) -> u64;
}

macro_rules! obs_value {
    ($($t:ty),*) => {$(
        impl ObsValue for $t {
            #[inline(always)]
            fn into_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
obs_value!(u8, u16, u32, u64, usize);

impl ObsValue for bool {
    #[inline(always)]
    fn into_u64(self) -> u64 {
        u64::from(self)
    }
}

// ---------------------------------------------------------------------
// Disabled path: the entire API is zero-sized inline no-ops.
// ---------------------------------------------------------------------

/// RAII guard for an open span (no-op flavour). Zero-sized; dropping it
/// does nothing.
#[cfg(not(feature = "enabled"))]
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
pub struct SpanGuard {
    _priv: (),
}

#[cfg(not(feature = "enabled"))]
impl SpanGuard {
    /// Attach a key/value argument to the span (no-op flavour).
    #[inline(always)]
    pub fn arg(self, _key: &'static str, _value: impl ObsValue) -> Self {
        self
    }
}

/// Open a span for `stage`; it closes when the guard drops (no-op
/// flavour: nothing is recorded).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn span(_stage: Stage) -> SpanGuard {
    SpanGuard { _priv: () }
}

/// Add `delta` to a counter (no-op flavour).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn add(_counter: Counter, _delta: u64) {}

/// Add a `usize` quantity (typically a buffer length) to a counter
/// (no-op flavour).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn add_bytes(_counter: Counter, _n: usize) {}

/// Record one histogram observation (no-op flavour).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn hist(_kind: HistKind, _value: usize) {}

// ---------------------------------------------------------------------
// Enabled path: thin wrappers over the registry.
// ---------------------------------------------------------------------

/// Open a span for `stage`; it closes (and is recorded) when the guard
/// drops.
#[cfg(feature = "enabled")]
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    registry::begin(stage)
}

/// Add `delta` to a counter in the calling thread's shard.
#[cfg(feature = "enabled")]
#[inline]
pub fn add(counter: Counter, delta: u64) {
    registry::add(counter, delta)
}

/// Add a `usize` quantity (typically a buffer length) to a counter.
#[cfg(feature = "enabled")]
#[inline]
pub fn add_bytes(counter: Counter, n: usize) {
    registry::add(counter, n as u64)
}

/// Record one histogram observation in the calling thread's shard.
#[cfg(feature = "enabled")]
#[inline]
pub fn hist(kind: HistKind, value: usize) {
    registry::hist(kind, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_counter_names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn counter_indices_are_dense() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in HistKind::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }

    /// The acceptance criterion for the default build: the disabled API
    /// is zero-sized, so there is nothing for a hot loop to branch on.
    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_guard_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        let g = span(Stage::Encode).arg("level", 3usize).arg("ok", true);
        drop(g);
        add(Counter::ChunksEncoded, 1);
        add_bytes(Counter::PayloadBytesOut, 128);
        hist(HistKind::AnsPageBins, 12);
    }
}
