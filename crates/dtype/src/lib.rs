#![forbid(unsafe_code)]

//! # tac-dtype
//!
//! The element-type abstraction the whole TAC stack is generic over.
//!
//! Real AMR pipelines ship both `f64` (simulation precision) and `f32`
//! (visualization / in-situ precision) fields. Following pcodec's
//! `dtype_dispatch` architecture, the stack supports both through **macro
//! monomorphization**: every kernel is generic over the sealed [`Element`]
//! trait, and the [`dispatch_dtype!`] macro expands a runtime
//! [`TacDtype`] tag into one fully monomorphized call per type — no trait
//! objects and no per-value dtype branches inside hot loops.
//!
//! ```
//! use tac_dtype::{dispatch_dtype, Element, TacDtype};
//!
//! fn sum_as_f64<T: Element>(data: &[T]) -> f64 {
//!     data.iter().map(|v| v.to_f64()).sum()
//! }
//!
//! let dtype = TacDtype::F32;
//! let total = dispatch_dtype!(dtype, T => {
//!     let data: Vec<T> = vec![T::from_f64(1.5); 4];
//!     sum_as_f64(&data)
//! });
//! assert_eq!(total, 6.0);
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Wire-stable element-type tag.
///
/// The tag byte is written into container headers and per-chunk rows
/// (wire v4); absent tags on older streams mean [`TacDtype::F64`], so
/// every pre-v4 container keeps decoding unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TacDtype {
    /// IEEE-754 binary64 (the historical default of the whole stack).
    #[default]
    F64,
    /// IEEE-754 binary32.
    F32,
}

impl TacDtype {
    /// Wire tag byte. `0` = f64, `1` = f32 — never renumber.
    pub const fn tag(self) -> u8 {
        match self {
            TacDtype::F64 => 0,
            TacDtype::F32 => 1,
        }
    }

    /// Parses a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(TacDtype::F64),
            1 => Some(TacDtype::F32),
            _ => None,
        }
    }

    /// Bytes one element occupies on the wire (little-endian IEEE bits).
    pub const fn wire_bytes(self) -> usize {
        match self {
            TacDtype::F64 => 8,
            TacDtype::F32 => 4,
        }
    }

    /// Human-readable name (`"f64"` / `"f32"`).
    pub const fn label(self) -> &'static str {
        match self {
            TacDtype::F64 => "f64",
            TacDtype::F32 => "f32",
        }
    }
}

impl fmt::Display for TacDtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

mod sealed {
    /// Sealing trait: [`super::Element`] is implemented for `f32` and
    /// `f64` only, by this crate only. Downstream code can rely on the
    /// set of element types being closed (which is what makes
    /// `dispatch_dtype!` exhaustive).
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A scalar element type the TAC stack can compress: `f32` or `f64`.
///
/// The trait is **sealed** — exactly two implementations exist, and
/// [`dispatch_dtype!`] covers both. Arithmetic inside the kernels runs in
/// `f64` (exact for every `f32` input); `Element` is the boundary where
/// values enter and leave that working precision, and where IEEE bits
/// cross the wire at the type's native width.
pub trait Element:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + fmt::Debug
    + fmt::Display
    + 'static
{
    /// Runtime tag for this element type.
    const DTYPE: TacDtype;
    /// Bytes per element on the wire.
    const WIRE_BYTES: usize;
    /// Additive identity.
    const ZERO: Self;
    /// Smallest positive *normal* value, widened to `f64`. Relative error
    /// bounds on constant data fall back to this so the quantizer step
    /// stays representable at this type's precision.
    const MIN_POSITIVE: f64;
    /// Machine epsilon, widened to `f64`.
    const EPSILON: f64;

    /// Widens to the `f64` working precision (exact for both types).
    fn to_f64(self) -> f64;
    /// Narrows from working precision with IEEE round-to-nearest. This is
    /// the *only* lossy step in the stack's arithmetic, and every
    /// quantizer bound check runs after it.
    fn from_f64(v: f64) -> Self;
    /// IEEE bits, zero-extended to 64.
    fn to_bits_u64(self) -> u64;
    /// Inverse of [`Element::to_bits_u64`] (upper bits ignored for f32).
    fn from_bits_u64(bits: u64) -> Self;
    /// Whether the value is neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// Whether the value is NaN.
    fn is_nan(self) -> bool;
    /// Appends the little-endian IEEE bits ([`Element::WIRE_BYTES`] bytes).
    fn append_le(self, out: &mut Vec<u8>);
    /// Reads one element from the head of `bytes`; `None` when fewer than
    /// [`Element::WIRE_BYTES`] bytes remain.
    fn read_le(bytes: &[u8]) -> Option<Self>;
}

impl Element for f64 {
    const DTYPE: TacDtype = TacDtype::F64;
    const WIRE_BYTES: usize = 8;
    const ZERO: Self = 0.0;
    const MIN_POSITIVE: f64 = f64::MIN_POSITIVE;
    const EPSILON: f64 = f64::EPSILON;

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits_u64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn append_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(arr)))
    }
}

impl Element for f32 {
    const DTYPE: TacDtype = TacDtype::F32;
    const WIRE_BYTES: usize = 4;
    const ZERO: Self = 0.0;
    const MIN_POSITIVE: f64 = f32::MIN_POSITIVE as f64;
    const EPSILON: f64 = f32::EPSILON as f64;

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits_u64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline]
    fn append_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        Some(f32::from_bits(u32::from_le_bytes(arr)))
    }
}

/// Expands a runtime [`TacDtype`] into one monomorphized block per
/// element type.
///
/// Inside the block, the given identifier is a local type alias bound to
/// the concrete type (`f32` or `f64`), so generic kernels called with it
/// compile to straight-line per-type code — the dispatch is a single
/// match at the call boundary, never inside a loop.
///
/// ```
/// use tac_dtype::{dispatch_dtype, Element, TacDtype};
///
/// let width = dispatch_dtype!(TacDtype::F32, T => { T::WIRE_BYTES });
/// assert_eq!(width, 4);
/// ```
#[macro_export]
macro_rules! dispatch_dtype {
    ($dtype:expr, $T:ident => $body:block) => {
        match $dtype {
            $crate::TacDtype::F64 => {
                type $T = f64;
                $body
            }
            $crate::TacDtype::F32 => {
                type $T = f32;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_wire_stable() {
        assert_eq!(TacDtype::F64.tag(), 0);
        assert_eq!(TacDtype::F32.tag(), 1);
        assert_eq!(TacDtype::from_tag(0), Some(TacDtype::F64));
        assert_eq!(TacDtype::from_tag(1), Some(TacDtype::F32));
        assert_eq!(TacDtype::from_tag(2), None);
        assert_eq!(TacDtype::from_tag(255), None);
    }

    #[test]
    fn widths_and_labels() {
        assert_eq!(TacDtype::F64.wire_bytes(), 8);
        assert_eq!(TacDtype::F32.wire_bytes(), 4);
        assert_eq!(f64::WIRE_BYTES, 8);
        assert_eq!(f32::WIRE_BYTES, 4);
        assert_eq!(TacDtype::F64.to_string(), "f64");
        assert_eq!(TacDtype::F32.to_string(), "f32");
        assert_eq!(TacDtype::default(), TacDtype::F64);
    }

    #[test]
    fn f64_conversions_are_identity() {
        for v in [0.0, -1.5, f64::MIN_POSITIVE, 1e300, f64::INFINITY] {
            assert_eq!(Element::to_f64(v), v);
            assert_eq!(<f64 as Element>::from_f64(v), v);
            assert_eq!(f64::from_bits_u64(v.to_bits_u64()), v);
        }
        assert!(Element::is_nan(f64::NAN));
        assert!(!Element::is_finite(f64::INFINITY));
    }

    #[test]
    fn f32_narrowing_rounds_to_nearest() {
        // 1.0 + 2^-30 is not representable in f32; rounds back to 1.0.
        let v = 1.0f64 + 2f64.powi(-30);
        assert_eq!(<f32 as Element>::from_f64(v), 1.0f32);
        // Values beyond f32 range saturate to infinity, staying non-finite
        // rather than wrapping.
        assert_eq!(<f32 as Element>::from_f64(1e300), f32::INFINITY);
        // Sub-subnormal magnitudes underflow to zero — the degenerate-step
        // case resolve_level_eb_for must reject.
        assert_eq!(<f32 as Element>::from_f64(1e-46), 0.0f32);
        // Negative zero survives the round trip bit-exactly.
        let nz = <f32 as Element>::from_f64(-0.0);
        assert_eq!(nz.to_bits_u64(), (-0.0f32).to_bits() as u64);
    }

    #[test]
    fn bits_roundtrip_f32() {
        for v in [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, f32::INFINITY] {
            assert_eq!(f32::from_bits_u64(v.to_bits_u64()).to_bits(), v.to_bits());
        }
        let nan = f32::from_bits_u64(f32::NAN.to_bits_u64());
        assert!(Element::is_nan(nan));
    }

    #[test]
    fn wire_helpers_roundtrip() {
        let mut buf = Vec::new();
        1.25f64.append_le(&mut buf);
        (-3.5f32).append_le(&mut buf);
        assert_eq!(buf.len(), 12);
        assert_eq!(f64::read_le(&buf), Some(1.25));
        assert_eq!(f32::read_le(&buf[8..]), Some(-3.5));
        assert_eq!(f32::read_le(&buf[10..]), None);
        assert_eq!(f64::read_le(&[]), None);
    }

    #[test]
    fn dispatch_macro_monomorphizes_both_arms() {
        fn width_of<T: Element>() -> usize {
            T::WIRE_BYTES
        }
        for (dtype, want) in [(TacDtype::F64, 8usize), (TacDtype::F32, 4usize)] {
            let got = dispatch_dtype!(dtype, T => { width_of::<T>() });
            assert_eq!(got, want);
        }
    }

    #[test]
    fn min_positive_matches_type_precision() {
        assert_eq!(f64::MIN_POSITIVE_CONST, f64::MIN_POSITIVE);
        assert_eq!(f32::MIN_POSITIVE_CONST, f32::MIN_POSITIVE as f64);
    }

    // Disambiguate the associated const from the inherent one in the test
    // above.
    trait MinPos {
        const MIN_POSITIVE_CONST: f64;
    }
    impl MinPos for f64 {
        const MIN_POSITIVE_CONST: f64 = <f64 as Element>::MIN_POSITIVE;
    }
    impl MinPos for f32 {
        const MIN_POSITIVE_CONST: f64 = <f32 as Element>::MIN_POSITIVE;
    }
}
