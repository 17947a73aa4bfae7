//! Error-controlled linear-scaling quantization (SZ step 2).
//!
//! Each point's prediction error `d = v - pred` is mapped to an integer
//! code `round(d / (2*eb))`; reconstruction `pred + 2*eb*code` is then
//! within `eb` of the true value. Codes outside the capacity window — or
//! non-finite arithmetic — mark the point *unpredictable*: its IEEE bits
//! are stored verbatim and it reconstructs exactly.

use tac_dtype::Element;

/// Symbol reserved for unpredictable points in the code stream.
pub const UNPREDICTABLE: u32 = 0;

/// Linear-scaling quantizer with a fixed absolute error bound.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    two_eb: f64,
    /// Half the capacity; codes live in `(-radius, radius)`.
    radius: i64,
}

/// Result of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantized {
    /// Point representable as `pred + 2*eb*(symbol - radius)`.
    Code(u32),
    /// Point stored verbatim (symbol [`UNPREDICTABLE`] in the stream).
    Unpredictable,
}

impl Quantizer {
    /// Creates a quantizer for absolute bound `eb` and `capacity` bins.
    ///
    /// # Panics
    /// Panics on non-positive/non-finite `eb` or an odd capacity < 4
    /// (callers validate the bound via [`crate::CodecConfig::validate`] and a
    /// stored capacity on decode).
    pub fn new(eb: f64, capacity: usize) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "invalid error bound {eb}");
        assert!(capacity >= 4 && capacity % 2 == 0, "invalid capacity");
        Quantizer {
            eb,
            two_eb: 2.0 * eb,
            radius: (capacity / 2) as i64,
        }
    }

    /// Quantizes `value` against `pred`, returning the symbol and the
    /// reconstructed value the decompressor will see. Arithmetic runs in
    /// `f64` working precision, the reconstruction is narrowed to `T`, and
    /// the bound check runs on that *narrowed* value — if `T`'s rounding
    /// breaks the bound, the point falls back to verbatim storage. Encoder
    /// and decoder therefore agree bit-exactly at every element width.
    #[inline]
    pub fn quantize<T: Element>(&self, value: T, pred: f64) -> (Quantized, T) {
        let v = value.to_f64();
        let diff = v - pred;
        if !diff.is_finite() {
            return (Quantized::Unpredictable, value);
        }
        let code_f = (diff / self.two_eb).round();
        // Strict interior: reserve the extremes so symbol 0 (unpredictable)
        // and the offset arithmetic never collide.
        if code_f.abs() >= (self.radius - 1) as f64 {
            return (Quantized::Unpredictable, value);
        }
        let code = code_f as i64;
        let recon = T::from_f64(pred + self.two_eb * code as f64);
        // Guard against floating-point edge cases: reconstruction may
        // violate the bound through catastrophic cancellation near huge
        // values or through narrowing to T; fall back to verbatim storage.
        if !(recon.to_f64() - v).abs().le(&self.eb) {
            return (Quantized::Unpredictable, value);
        }
        (Quantized::Code((code + self.radius) as u32), recon)
    }

    /// The symbol of a zero residual: the reconstruction is the
    /// prediction itself. A don't-care point codes it.
    #[inline]
    pub fn zero_symbol(&self) -> u32 {
        self.radius as u32
    }

    /// Reconstructs a value from a non-zero symbol and its prediction:
    /// the inverse of [`Quantizer::quantize_t`], the same `f64` bin
    /// arithmetic narrowed to `T` exactly as the encoder did.
    #[inline]
    pub fn recover<T: Element>(&self, symbol: u32, pred: f64) -> T {
        debug_assert_ne!(symbol, UNPREDICTABLE);
        let code = symbol as i64 - self.radius;
        T::from_f64(pred + self.two_eb * code as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_respects_error_bound() {
        let q = Quantizer::new(0.01, 65536);
        for i in 0..1000 {
            let v = (i as f64 * 0.737).sin() * 5.0;
            let pred = v + (i as f64 * 0.11).cos() * 0.3; // imperfect prediction
            let (qz, recon) = q.quantize::<f64>(v, pred);
            match qz {
                Quantized::Code(sym) => {
                    assert!((recon - v).abs() <= 0.01, "bound violated: {recon} vs {v}");
                    assert_eq!(q.recover::<f64>(sym, pred), recon);
                    assert_ne!(sym, UNPREDICTABLE);
                }
                Quantized::Unpredictable => assert_eq!(recon, v),
            }
        }
    }

    #[test]
    fn perfect_prediction_gives_mid_code() {
        let q = Quantizer::new(1e-3, 1024);
        let (qz, recon) = q.quantize::<f64>(42.0, 42.0);
        assert_eq!(qz, Quantized::Code(512));
        assert_eq!(recon, 42.0);
    }

    #[test]
    fn far_values_are_unpredictable() {
        let q = Quantizer::new(1e-6, 256);
        let (qz, recon) = q.quantize::<f64>(1000.0, 0.0);
        assert_eq!(qz, Quantized::Unpredictable);
        assert_eq!(recon, 1000.0);
    }

    #[test]
    fn nan_and_infinity_are_unpredictable() {
        let q = Quantizer::new(0.1, 1024);
        assert_eq!(q.quantize::<f64>(f64::NAN, 0.0).0, Quantized::Unpredictable);
        assert_eq!(
            q.quantize::<f64>(f64::INFINITY, 0.0).0,
            Quantized::Unpredictable
        );
        assert_eq!(q.quantize::<f64>(1.0, f64::NAN).0, Quantized::Unpredictable);
    }

    #[test]
    fn recover_is_inverse_of_quantize() {
        let q = Quantizer::new(0.5, 4096);
        for code in [-100i64, -1, 0, 1, 77, 2000] {
            let pred = 10.0;
            let v = pred + code as f64 * 1.0; // exactly on bin centers
            let (qz, recon) = q.quantize::<f64>(v, pred);
            if let Quantized::Code(sym) = qz {
                assert_eq!(q.recover::<f64>(sym, pred), recon);
                assert!((recon - v).abs() <= 0.5);
            }
        }
    }

    #[test]
    fn symbol_zero_never_produced_for_codes() {
        // Code at the negative capacity edge must become Unpredictable,
        // never symbol 0.
        let q = Quantizer::new(1.0, 8); // radius 4, codes in (-3, 3)
        for delta in -10i32..=10 {
            let (qz, _) = q.quantize::<f64>(delta as f64 * 2.0, 0.0);
            if let Quantized::Code(sym) = qz {
                assert_ne!(sym, UNPREDICTABLE);
            }
        }
    }

    #[test]
    fn f32_narrowing_that_breaks_the_bound_falls_back_to_verbatim() {
        // Near 1e8 the f32 grid spacing is 8: an f64 reconstruction that
        // satisfies the bound can land between representable f32 values and
        // round past it. The post-narrowing check must catch this.
        let q = Quantizer::new(6.0, 65536);
        let v: f32 = 99_999_992.0; // representable; next f32 up is 1e8
        let pred = v as f64 + 5.0; // code rounds to 0, recon_f64 = pred
        let (qz, recon) = q.quantize::<f32>(v, pred);
        // recon_f64 = 99_999_997.0 -> nearest f32 is 100_000_000.0, which is
        // 8.0 > 6.0 away from v: must store verbatim, not emit a code.
        assert_eq!(qz, Quantized::Unpredictable);
        assert_eq!(recon.to_bits(), v.to_bits());
    }

    #[test]
    fn f32_quantization_respects_bound_through_narrowing() {
        let q = Quantizer::new(1e-3, 65536);
        for i in 0..1000 {
            let v = ((i as f64 * 0.737).sin() * 5.0) as f32;
            let pred = v as f64 + (i as f64 * 0.11).cos() * 0.3;
            let (qz, recon) = q.quantize::<f32>(v, pred);
            match qz {
                Quantized::Code(sym) => {
                    assert!((recon as f64 - v as f64).abs() <= 1e-3);
                    let replay: f32 = q.recover(sym, pred);
                    assert_eq!(replay.to_bits(), recon.to_bits());
                }
                Quantized::Unpredictable => assert_eq!(recon.to_bits(), v.to_bits()),
            }
        }
    }

    #[test]
    fn huge_values_fall_back_to_verbatim() {
        // At 1e300 the bin arithmetic loses all precision; the guard must
        // catch it rather than emit an out-of-bound reconstruction.
        let q = Quantizer::new(1e-9, 65536);
        let (qz, recon) = q.quantize::<f64>(1e300, 0.99e300);
        assert_eq!(qz, Quantized::Unpredictable);
        assert_eq!(recon, 1e300);
    }
}
