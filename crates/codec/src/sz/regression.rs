//! SZ2-style per-block linear regression predictor.
//!
//! Pure Lorenzo prediction reads *reconstructed* neighbours, so every
//! point inherits its neighbours' quantization noise; on smooth data this
//! feedback sustains ~1.5 bits/value of code entropy forever and caps the
//! compression ratio around 40 regardless of the error bound. SZ 2
//! (Liang et al., 2018) fixed exactly this with a second predictor: fit
//! `v ~ b0 + b1*x + b2*y + b3*z` per small block, transmit the quantized
//! coefficients, and predict from them alone — no feedback, so smooth
//! blocks quantize to code 0 everywhere and the entropy stage erases
//! them.
//!
//! Per block the encoder picks whichever predictor has the smaller sum of
//! absolute residuals on the original data (the same selection idea as
//! SZ2's sampled test). Block flags and coefficient codes travel in a
//! side stream; coefficient quantization steps are chosen so the total
//! prediction drift stays below `eb/2`, leaving the point quantizer's
//! `2*eb` bins plenty of headroom.

use crate::CodecError;
use tac_dtype::Element;

/// Block edge length for regression (SZ2 uses 6).
pub const REGRESSION_BLOCK: usize = 6;

/// Quantized plane-fit coefficients for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCoeffs {
    /// Intercept at the block's local origin corner.
    pub b0: f64,
    /// Slope per cell along x/y/z.
    pub b: [f64; 3],
}

/// Per-array regression context: block modes and coefficients, in block
/// raster order (x fastest).
#[derive(Debug, Clone)]
pub struct RegressionContext {
    /// Blocks per axis.
    pub nb: (usize, usize, usize),
    /// `true` = regression block, `false` = Lorenzo block.
    pub modes: Vec<bool>,
    /// Coefficients for regression blocks (slot is unused — zeroed — for
    /// Lorenzo blocks, keeping indexing trivial).
    pub coeffs: Vec<BlockCoeffs>,
}

impl RegressionContext {
    /// Blocks per axis for given extents.
    fn grid(nx: usize, ny: usize, nz: usize) -> (usize, usize, usize) {
        (
            nx.div_ceil(REGRESSION_BLOCK),
            ny.div_ceil(REGRESSION_BLOCK),
            nz.div_ceil(REGRESSION_BLOCK),
        )
    }

    /// Index of the block containing cell `(x, y, z)`.
    #[inline]
    pub fn block_of(&self, x: usize, y: usize, z: usize) -> usize {
        let bx = x / REGRESSION_BLOCK;
        let by = y / REGRESSION_BLOCK;
        let bz = z / REGRESSION_BLOCK;
        bx + self.nb.0 * (by + self.nb.1 * bz)
    }

    /// Whether the cell's block uses regression, and if so the predicted
    /// value at that cell.
    #[inline]
    pub fn predict(&self, x: usize, y: usize, z: usize) -> Option<f64> {
        let b = self.block_of(x, y, z);
        if !self.modes[b] {
            return None;
        }
        let c = &self.coeffs[b];
        let lx = (x % REGRESSION_BLOCK) as f64;
        let ly = (y % REGRESSION_BLOCK) as f64;
        let lz = (z % REGRESSION_BLOCK) as f64;
        Some(c.b0 + c.b[0] * lx + c.b[1] * ly + c.b[2] * lz)
    }

    /// Builds the encoder-side context: fits every block, compares the
    /// plane fit's residuals against a Lorenzo estimate on the *original*
    /// data, and keeps regression where it wins. Coefficients are already
    /// quantized (encoder and decoder share exact values). Fitting widens
    /// elements to `f64`; the serialized coefficients are width-agnostic.
    ///
    /// Under a `care` mask only blocks whose cells and one-cell causal
    /// halo are all care are candidates — the fit and the Lorenzo
    /// estimate read exactly those cells — so the context never depends
    /// on a don't-care value; every other block keeps Lorenzo.
    pub fn build<T: Element>(
        data: &[T],
        care: Option<&[bool]>,
        nx: usize,
        ny: usize,
        nz: usize,
        eb: f64,
    ) -> Self {
        let nb = Self::grid(nx, ny, nz);
        let nblocks = nb.0 * nb.1 * nb.2;
        let mut modes = vec![false; nblocks];
        let mut coeffs = vec![
            BlockCoeffs {
                b0: 0.0,
                b: [0.0; 3]
            };
            nblocks
        ];
        let (q0, q1) = coeff_steps(eb);
        for bz in 0..nb.2 {
            for by in 0..nb.1 {
                for bx in 0..nb.0 {
                    let bi = bx + nb.0 * (by + nb.1 * bz);
                    let x0 = bx * REGRESSION_BLOCK;
                    let y0 = by * REGRESSION_BLOCK;
                    let z0 = bz * REGRESSION_BLOCK;
                    let w = REGRESSION_BLOCK.min(nx - x0);
                    let h = REGRESSION_BLOCK.min(ny - y0);
                    let d = REGRESSION_BLOCK.min(nz - z0);
                    if care.is_some_and(|care| !all_care(care, nx, ny, (x0, y0, z0), (w, h, d))) {
                        continue;
                    }
                    let fit = fit_block(data, nx, ny, (x0, y0, z0), (w, h, d));
                    // Quantize the coefficients to the shared grid.
                    let fit = BlockCoeffs {
                        b0: (fit.b0 / q0).round() * q0,
                        b: [
                            (fit.b[0] / q1).round() * q1,
                            (fit.b[1] / q1).round() * q1,
                            (fit.b[2] / q1).round() * q1,
                        ],
                    };
                    // The decoder rebuilds each coefficient from the `i64`
                    // code `serialize` writes. Where that does not give back
                    // the encoder's value (a code that is not finite, or
                    // saturates because the bound is tiny against the
                    // values), the two sides would predict from different
                    // planes, so the block keeps Lorenzo.
                    let on_wire = |v: f64, q: f64| ((v / q).round() as i64) as f64 * q == v;
                    if !on_wire(fit.b0, q0)
                        || fit.b.iter().any(|&v| !on_wire(v, q1))
                        || regression_loses(data, nx, ny, (x0, y0, z0), (w, h, d), &fit, eb)
                    {
                        continue;
                    }
                    modes[bi] = true;
                    coeffs[bi] = fit;
                }
            }
        }
        RegressionContext { nb, modes, coeffs }
    }

    /// Serializes flags + coefficient codes (coefficients are stored as
    /// zigzag varints of their quantization codes).
    pub fn serialize(&self, eb: f64, out: &mut Vec<u8>) {
        let (q0, q1) = coeff_steps(eb);
        // Flag bitset.
        let mut byte = 0u8;
        let mut used = 0;
        let mut flags = Vec::with_capacity(self.modes.len() / 8 + 1);
        for &m in &self.modes {
            byte |= (m as u8) << used;
            used += 1;
            if used == 8 {
                flags.push(byte);
                byte = 0;
                used = 0;
            }
        }
        if used > 0 {
            flags.push(byte);
        }
        out.extend_from_slice(&flags);
        for (bi, &m) in self.modes.iter().enumerate() {
            if !m {
                continue;
            }
            let c = &self.coeffs[bi];
            write_zigzag(out, (c.b0 / q0).round() as i64);
            for k in 0..3 {
                write_zigzag(out, (c.b[k] / q1).round() as i64);
            }
        }
    }

    /// Parses a context serialized by [`RegressionContext::serialize`].
    /// Returns the context and consumed byte count.
    pub fn deserialize(
        bytes: &[u8],
        nx: usize,
        ny: usize,
        nz: usize,
        eb: f64,
    ) -> Result<(Self, usize), CodecError> {
        let nb = Self::grid(nx, ny, nz);
        let nblocks = nb.0 * nb.1 * nb.2;
        let flag_bytes = nblocks.div_ceil(8);
        if bytes.len() < flag_bytes {
            return Err(CodecError::Corrupt("regression flags truncated".into()));
        }
        let mut modes = Vec::with_capacity(nblocks);
        for i in 0..nblocks {
            modes.push(bytes[i / 8] >> (i % 8) & 1 == 1);
        }
        let (q0, q1) = coeff_steps(eb);
        let mut pos = flag_bytes;
        let mut coeffs = vec![
            BlockCoeffs {
                b0: 0.0,
                b: [0.0; 3]
            };
            nblocks
        ];
        for (bi, &m) in modes.iter().enumerate() {
            if !m {
                continue;
            }
            let (v0, n0) = read_zigzag(&bytes[pos..])?;
            pos += n0;
            let mut b = [0.0; 3];
            let b0 = v0 as f64 * q0;
            for slot in b.iter_mut() {
                let (v, n) = read_zigzag(&bytes[pos..])?;
                pos += n;
                *slot = v as f64 * q1;
            }
            coeffs[bi] = BlockCoeffs { b0, b };
        }
        Ok((RegressionContext { nb, modes, coeffs }, pos))
    }
}

/// Whether every cell of the block at `(x0, y0, z0)` of extents
/// `(w, h, d)`, and of its causal halo — one cell back along each axis,
/// inside the slab — is care.
fn all_care(
    care: &[bool],
    nx: usize,
    ny: usize,
    (x0, y0, z0): (usize, usize, usize),
    (w, h, d): (usize, usize, usize),
) -> bool {
    let xs = x0.saturating_sub(1)..x0 + w;
    (z0.saturating_sub(1)..z0 + d).all(|z| {
        (y0.saturating_sub(1)..y0 + h).all(|y| {
            let row = nx * (y + ny * z);
            care[row + xs.start..row + xs.end].iter().all(|&c| c)
        })
    })
}

/// Coefficient quantization steps `(intercept, slope)`: total prediction
/// drift stays under `eb/2` for any cell of a block.
fn coeff_steps(eb: f64) -> (f64, f64) {
    (eb / 4.0, eb / (4.0 * REGRESSION_BLOCK as f64))
}

/// Least-squares plane fit over one block (local coordinates measured
/// from the block's low corner). Axis-wise orthogonality on the full
/// cuboid grid makes this a closed form.
fn fit_block<T: Element>(
    data: &[T],
    nx: usize,
    ny: usize,
    (x0, y0, z0): (usize, usize, usize),
    (w, h, d): (usize, usize, usize),
) -> BlockCoeffs {
    let count = (w * h * d) as f64;
    let mut mean = 0.0;
    for z in 0..d {
        for y in 0..h {
            let row = x0 + nx * (y0 + y + ny * (z0 + z));
            for x in 0..w {
                mean += data[row + x].to_f64();
            }
        }
    }
    mean /= count;
    // Centered coordinate moments: sum (x - cx)^2 over the block factors
    // per axis.
    let cx = (w as f64 - 1.0) / 2.0;
    let cy = (h as f64 - 1.0) / 2.0;
    let cz = (d as f64 - 1.0) / 2.0;
    let sq = |n: usize, c: f64| -> f64 { (0..n).map(|i| (i as f64 - c) * (i as f64 - c)).sum() };
    let (sxx, syy, szz) = (
        sq(w, cx) * (h * d) as f64,
        sq(h, cy) * (w * d) as f64,
        sq(d, cz) * (w * h) as f64,
    );
    let mut sxv = 0.0;
    let mut syv = 0.0;
    let mut szv = 0.0;
    for z in 0..d {
        for y in 0..h {
            let row = x0 + nx * (y0 + y + ny * (z0 + z));
            for x in 0..w {
                let v = data[row + x].to_f64();
                sxv += (x as f64 - cx) * v;
                syv += (y as f64 - cy) * v;
                szv += (z as f64 - cz) * v;
            }
        }
    }
    let b1 = if sxx > 0.0 { sxv / sxx } else { 0.0 };
    let b2 = if syy > 0.0 { syv / syy } else { 0.0 };
    let b3 = if szz > 0.0 { szv / szz } else { 0.0 };
    // Convert centered intercept to the low-corner origin convention.
    let b0 = mean - b1 * cx - b2 * cy - b3 * cz;
    BlockCoeffs {
        b0,
        b: [b1, b2, b3],
    }
}

/// Mode selection: regression loses when its sum of absolute residuals
/// exceeds the Lorenzo estimate. The Lorenzo estimate is computed on
/// *original* neighbours, which misses the quantization-noise feedback
/// the real decoder-side Lorenzo suffers (~`eb` of extra error per
/// point); that noise term is added explicitly, exactly the adjustment
/// SZ2's selector applies.
fn regression_loses<T: Element>(
    data: &[T],
    nx: usize,
    ny: usize,
    (x0, y0, z0): (usize, usize, usize),
    (w, h, d): (usize, usize, usize),
    fit: &BlockCoeffs,
    eb: f64,
) -> bool {
    let mut sae_reg = 0.0f64;
    let mut sae_lor = 0.0f64;
    let idx = |x: usize, y: usize, z: usize| x + nx * (y + ny * z);
    for z in 0..d {
        for y in 0..h {
            for x in 0..w {
                let (gx, gy, gz) = (x0 + x, y0 + y, z0 + z);
                let v = data[idx(gx, gy, gz)].to_f64();
                let pred_r =
                    fit.b0 + fit.b[0] * x as f64 + fit.b[1] * y as f64 + fit.b[2] * z as f64;
                sae_reg += (v - pred_r).abs();
                let pred_l = crate::predictor::lorenzo_3d(data, nx, ny, gx, gy, gz);
                sae_lor += (v - pred_l).abs();
            }
        }
    }
    let noise = eb * (w * h * d) as f64;
    sae_reg >= sae_lor + noise
}

fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    let mut u = ((v << 1) ^ (v >> 63)) as u64;
    loop {
        let byte = (u & 0x7f) as u8;
        u >>= 7;
        if u == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_zigzag(bytes: &[u8]) -> Result<(i64, usize), CodecError> {
    let mut u = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            break;
        }
        u |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            let v = ((u >> 1) as i64) ^ -((u & 1) as i64);
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(CodecError::Corrupt("varint truncated".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_field(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    v.push(3.0 + 0.5 * x as f64 - 0.25 * y as f64 + 0.125 * z as f64);
                }
            }
        }
        v
    }

    #[test]
    fn plane_fit_recovers_linear_fields() {
        let (nx, ny, nz) = (12, 12, 12);
        let data = linear_field(nx, ny, nz);
        let fit = fit_block(&data, nx, ny, (0, 0, 0), (6, 6, 6));
        assert!((fit.b0 - 3.0).abs() < 1e-9);
        assert!((fit.b[0] - 0.5).abs() < 1e-9);
        assert!((fit.b[1] + 0.25).abs() < 1e-9);
        assert!((fit.b[2] - 0.125).abs() < 1e-9);
        // Offset block: intercept shifts to the block corner value.
        let fit = fit_block(&data, nx, ny, (6, 6, 6), (6, 6, 6));
        let corner = data[6 + nx * (6 + ny * 6)];
        assert!((fit.b0 - corner).abs() < 1e-9);
    }

    #[test]
    fn context_predicts_linear_fields_within_drift() {
        let (nx, ny, nz) = (13, 9, 7); // ragged extents exercise edges
        let data = linear_field(nx, ny, nz);
        let eb = 1e-3;
        let ctx = RegressionContext::build(&data, None, nx, ny, nz, eb);
        assert!(ctx.modes.iter().all(|&m| m), "linear data: all regression");
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let p = ctx.predict(x, y, z).expect("regression mode");
                    let v = data[x + nx * (y + ny * z)];
                    assert!(
                        (p - v).abs() <= eb / 2.0,
                        "drift {} at ({x},{y},{z})",
                        p - v
                    );
                }
            }
        }
    }

    #[test]
    fn rough_blocks_fall_back_to_lorenzo() {
        let n = 12;
        // Alternating-sign noise: a plane fit is useless.
        let data: Vec<f64> = (0..n * n * n)
            .map(|i| if (i / 7) % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let ctx = RegressionContext::build(&data, None, n, n, n, 1e-3);
        assert!(
            ctx.modes.iter().filter(|&&m| m).count() < ctx.modes.len(),
            "noise should not be all-regression"
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let (nx, ny, nz) = (16, 10, 8);
        let data: Vec<f64> = (0..nx * ny * nz)
            .map(|i| (i as f64 * 0.01).sin() * 100.0 + i as f64 * 0.1)
            .collect();
        let eb = 1e-2;
        let ctx = RegressionContext::build(&data, None, nx, ny, nz, eb);
        let mut buf = Vec::new();
        ctx.serialize(eb, &mut buf);
        let (back, consumed) = RegressionContext::deserialize(&buf, nx, ny, nz, eb).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(back.modes, ctx.modes);
        for (a, b) in back.coeffs.iter().zip(&ctx.coeffs) {
            assert_eq!(a, b, "coefficients must roundtrip bit-exactly");
        }
    }

    #[test]
    fn deserialize_rejects_truncation() {
        let n = 12;
        let data = linear_field(n, n, n);
        let eb = 1e-3;
        let ctx = RegressionContext::build(&data, None, n, n, n, eb);
        let mut buf = Vec::new();
        ctx.serialize(eb, &mut buf);
        assert!(RegressionContext::deserialize(&buf[..buf.len() - 1], n, n, n, eb).is_err());
        assert!(RegressionContext::deserialize(&[], n, n, n, eb).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        let mut buf = Vec::new();
        for v in [0i64, 1, -1, 63, -64, 1 << 40, -(1 << 40), i64::MAX / 2] {
            buf.clear();
            write_zigzag(&mut buf, v);
            let (back, n) = read_zigzag(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }
}
