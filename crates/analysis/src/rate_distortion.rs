//! Rate-distortion sweeps: the (bit-rate, PSNR) curves of Figs. 11, 14,
//! and 15.

/// One point of a rate-distortion curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdPoint {
    /// Error bound that produced the point (relative or absolute,
    /// caller's convention).
    pub error_bound: f64,
    /// Bits per value of the compressed representation.
    pub bit_rate: f64,
    /// Compression ratio.
    pub ratio: f64,
    /// PSNR in dB.
    pub psnr: f64,
}

/// A labelled rate-distortion curve.
#[derive(Debug, Clone)]
pub struct RdCurve {
    /// Method label (e.g. "TAC", "3D", "zMesh").
    pub label: String,
    /// Sweep points, one per error bound.
    pub points: Vec<RdPoint>,
}

impl RdCurve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        RdCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Records one sweep point.
    pub fn push(&mut self, error_bound: f64, bit_rate: f64, ratio: f64, psnr: f64) {
        self.points.push(RdPoint {
            error_bound,
            bit_rate,
            ratio,
            psnr,
        });
    }
}
