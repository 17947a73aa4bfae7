//! Compression accounting: ratio and bit-rate of a container, as
//! [`CompressedDataset::stats`](crate::CompressedDataset::stats) counts
//! them.

use tac_dtype::TacDtype;

/// Size accounting for one compression run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Bytes of the original array (`8 * element count` for `f64`).
    pub original_bytes: usize,
    /// Bytes of the compressed stream (including all metadata).
    pub compressed_bytes: usize,
    /// Number of scalar elements.
    pub elements: usize,
}

impl CompressionStats {
    /// Builds stats with the original size accounted at the element type's
    /// native width (4 bytes for f32, 8 for f64).
    pub fn new_for(elements: usize, compressed_bytes: usize, dtype: TacDtype) -> Self {
        CompressionStats {
            original_bytes: elements * dtype.wire_bytes(),
            compressed_bytes,
            elements,
        }
    }

    /// Compression ratio `original / compressed`.
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.compressed_bytes.max(1) as f64
    }

    /// Amortized storage cost in bits per value.
    pub fn bit_rate(&self) -> f64 {
        self.compressed_bytes as f64 * 8.0 / self.elements.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_bitrate() {
        let s = CompressionStats::new_for(1000, 1000, TacDtype::F64);
        assert!((s.ratio() - 8.0).abs() < 1e-12);
        assert!((s.bit_rate() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_times_bitrate_is_word_size() {
        let s = CompressionStats::new_for(12345, 6789, TacDtype::F64);
        assert!((s.ratio() * s.bit_rate() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_sizes_do_not_divide_by_zero() {
        let s = CompressionStats::new_for(0, 0, TacDtype::F64);
        assert!(s.ratio().is_finite());
        assert!(s.bit_rate().is_finite());
    }
}
