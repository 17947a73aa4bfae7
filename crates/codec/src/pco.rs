//! `PcoLite`: a pcodec-inspired error-bounded codec.
//!
//! [pcodec](https://github.com/mwlon/pcodec) compresses numerical
//! columns with delta encoding, adaptive binning, and bit packing.
//! `PcoLite` transplants that recipe onto TAC's error-bounded setting:
//!
//! 1. **Uniform quantization** — each finite value maps to the integer
//!    `q = round(v / (2*eb))`; the reconstruction `q * 2*eb` is within
//!    `eb` of `v` by construction. Values that cannot quantize
//!    (non-finite, |q| overflowing, or precision loss at extreme
//!    `v / eb` ratios) become raw **exceptions** stored bit-exactly.
//! 2. **Delta encoding** — consecutive quantized integers are close for
//!    the smooth per-level fields TAC extracts, so the stream of
//!    differences is small; zigzag mapping folds signs away.
//! 3. **Per-page adaptive binning** — the stream splits into fixed-size
//!    pages; each page independently picks the bit width minimizing
//!    `packed_bits + outlier_cost`, storing the few values wider than
//!    the chosen width as per-page outliers (patched bit packing).
//! 4. **Bit packing** + the shared LZSS lossless stage when it helps.
//!
//! Unlike SZ there is no neighbour prediction: decoding a value needs
//! only the running delta sum, which keeps the decoder a single linear
//! scan. The shape ([`Dims`]) is metadata only — rank does not change
//! the encoding.

use crate::{CodecConfig, CodecError, CodecId, ScalarCodec};
use tac_dtype::{Element, TacDtype};
use tac_sz::wire::{ByteReader, ByteWriter};
use tac_sz::{lossless, Dims};

/// Stream magic number ("TAC Pco-Lite v1").
const MAGIC: [u8; 4] = *b"TPL1";
/// Current format version.
const VERSION: u8 = 1;
/// Flag bit: body passed through the LZSS stage.
const FLAG_LOSSLESS: u8 = 0b0000_0001;
/// Flag bit: elements are `f32` (unset: `f64`, so every pre-dtype stream
/// decodes unchanged). Kept at the same bit as `tac-sz`'s dtype flag so
/// registry-level sniffing reads one byte for either backend.
const FLAG_F32: u8 = 0b0000_0010;
/// Values per page. Each page picks its own bit width, so the page size
/// trades adaptivity against per-page header overhead.
const PAGE: usize = 1024;
/// Serialized size of one exception entry for element type `T`
/// (index u64 + the element's native-width bits: 16 bytes at f64, 12 at
/// f32 — pages and exceptions both carry the element width). Shared
/// with `PcoAns`, whose exception table uses the identical layout.
pub(crate) fn exception_bytes<T: Element>() -> usize {
    8 + T::WIRE_BYTES
}
/// Serialized size of one page outlier (position u16 + zigzag u64).
const OUTLIER_BYTES: usize = 10;

/// The pcodec-inspired delta + per-page adaptive bit-packing backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcoLite;

/// Bits needed to represent `v` (0 for 0).
#[inline]
pub(crate) fn bit_len(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

#[inline]
pub(crate) fn zigzag(d: i64) -> u64 {
    ((d as u64) << 1) ^ ((d >> 63) as u64)
}

#[inline]
pub(crate) fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Quantizes one value, or `None` when it must be stored raw. Returns
/// the code and the `T`-narrowed reconstruction the decoder will
/// materialize; the bound check runs on that narrowed value, so `T`'s
/// rounding can never silently break the bound.
#[inline]
pub(crate) fn quantize<T: Element>(value: T, two_eb: f64, abs_eb: f64) -> Option<(i64, T)> {
    let v = value.to_f64();
    if !v.is_finite() {
        return None;
    }
    let t = v / two_eb;
    // Stay clear of the i64 edge (and of `as` saturation): beyond 2^62
    // the f64 lattice is coarser than 1 anyway, so round-tripping
    // through the integer grid could not stay within bound.
    if !t.is_finite() || t.abs() >= (1i64 << 62) as f64 {
        return None;
    }
    let q = t.round() as i64;
    let recon = T::from_f64(q as f64 * two_eb);
    if (v - recon.to_f64()).abs() <= abs_eb {
        Some((q, recon))
    } else {
        None
    }
}

/// LSB-first bit packer. Shared with `PcoAns`, whose offset streams use
/// the identical LSB-first layout.
pub(crate) struct BitPacker {
    buf: Vec<u8>,
    acc: u128,
    nbits: u32,
}

impl BitPacker {
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        BitPacker {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    // tac-lint: allow(arith) -- encoder-side bit packing: width <= 64 fits u32, and the `as u8` casts truncate the accumulator intentionally.
    pub(crate) fn push(&mut self, v: u64, width: usize) {
        if width == 0 {
            return;
        }
        self.acc |= (v as u128) << self.nbits;
        self.nbits += width as u32;
        while self.nbits >= 8 {
            self.buf.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    // tac-lint: allow(arith) -- the `as u8` cast truncates the accumulator intentionally.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push(self.acc as u8);
        }
        self.buf
    }
}

/// LSB-first bit unpacker over a byte slice.
struct BitUnpacker<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u128,
    nbits: u32,
}

impl<'a> BitUnpacker<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitUnpacker {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    // tac-lint: allow(arith) -- pos stays within bytes.len() + 1 via the guarded get, and width <= 64 (validated by the page-header check) fits u32.
    fn read(&mut self, width: usize) -> u64 {
        if width == 0 {
            return 0;
        }
        while (self.nbits as usize) < width {
            // Past-the-end reads yield zero bits; the caller sized the
            // slice from the declared page length, so this is unreachable
            // for well-formed streams.
            let b = self.bytes.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            self.acc |= (b as u128) << self.nbits;
            self.nbits += 8;
        }
        let mask = if width == 64 {
            u64::MAX as u128
        } else {
            (1u128 << width) - 1
        };
        let v = (self.acc & mask) as u64;
        self.acc >>= width;
        self.nbits -= width as u32;
        v
    }
}

/// Packed bytes a `len`-value page of `width`-bit values occupies.
#[inline]
fn packed_bytes(len: usize, width: usize) -> usize {
    len.saturating_mul(width).div_ceil(8)
}

/// Picks the page's bit width: minimize packed size plus outlier cost,
/// preferring the smaller width on ties. Returns `(width, n_outliers)`.
// tac-lint: allow(panic, arith) -- encoder-only: the arrays are fixed [_; 65] indexed by w <= 64, and n_over <= len <= PAGE keeps the cost sums tiny.
fn choose_width(counts: &[usize; 65], len: usize) -> (usize, usize) {
    // over[w] = number of values needing more than w bits.
    let mut over = [0usize; 65];
    for w in (0..64).rev() {
        over[w] = over[w + 1] + counts[w + 1];
    }
    let mut best = (64usize, 0usize);
    let mut best_cost = usize::MAX;
    for (w, &n_over) in over.iter().enumerate() {
        let cost = n_over * OUTLIER_BYTES + packed_bytes(len, w);
        if cost < best_cost {
            best_cost = cost;
            best = (w, n_over);
        }
    }
    best
}

/// Encodes one page of zigzag values into `out`.
// tac-lint: allow(panic, arith) -- encoder-only: bit_len(v) <= 64 indexes the fixed [_; 65] array, and width/outlier-count/position all fit their wire types by the PAGE = 1024 bound.
fn encode_page(z: &[u64], out: &mut Vec<u8>) {
    let mut counts = [0usize; 65];
    for &v in z {
        counts[bit_len(v)] += 1;
    }
    let (width, n_outliers) = choose_width(&counts, z.len());
    tac_obs::hist(tac_obs::HistKind::PcoPageBits, width);
    tac_obs::add(tac_obs::Counter::PcoPages, 1);
    tac_obs::add_bytes(tac_obs::Counter::PcoOutliers, n_outliers);
    out.push(width as u8);
    out.extend((n_outliers as u16).to_le_bytes());
    for (pos, &v) in z.iter().enumerate() {
        if bit_len(v) > width {
            out.extend((pos as u16).to_le_bytes());
            out.extend(v.to_le_bytes());
        }
    }
    let mut packer = BitPacker::with_capacity(packed_bytes(z.len(), width));
    for &v in z {
        packer.push(if bit_len(v) > width { 0 } else { v }, width);
    }
    out.extend(packer.finish());
}

fn corrupt(msg: impl Into<String>) -> CodecError {
    CodecError::Corrupt(msg.into())
}

/// Element-generic encoder body shared by the `f64` and `f32` trait
/// entry points. The `f64` instantiation is byte-identical to the
/// historical format (the dtype flag stays clear).
fn compress_impl<T: Element>(
    data: &[T],
    dims: Dims,
    cfg: &CodecConfig,
) -> Result<(Vec<u8>, Vec<T>), CodecError> {
    dims.validate(data.len())?;
    cfg.validate()?;
    let abs_eb = cfg.abs_eb;
    let two_eb = 2.0 * abs_eb;

    // Quantize; exceptions keep the running q (delta 0) so the delta
    // stream stays smooth across them.
    let n = data.len();
    let mut recon = Vec::with_capacity(n);
    let mut z = Vec::with_capacity(n);
    let mut exceptions: Vec<(u64, T)> = Vec::new();
    let mut prev = 0i64;
    {
        let _quantize = tac_obs::span(tac_obs::Stage::Quantize);
        for (i, &v) in data.iter().enumerate() {
            match quantize(v, two_eb, abs_eb) {
                Some((q, r)) => {
                    recon.push(r);
                    z.push(zigzag(q.wrapping_sub(prev)));
                    prev = q;
                }
                None => {
                    recon.push(v);
                    z.push(zigzag(0));
                    exceptions.push((i as u64, v));
                }
            }
        }
    }
    tac_obs::add_bytes(tac_obs::Counter::PcoExceptions, exceptions.len());

    // Body: exception table, then the pages back to back.
    // tac-lint: allow(arith) -- writer-side capacity estimate over in-memory lengths; a wrong guess only costs a reallocation.
    let mut body =
        Vec::with_capacity(8 + exceptions.len() * exception_bytes::<T>() + n * 2 / PAGE.max(1) + n);
    body.extend((exceptions.len() as u64).to_le_bytes());
    for &(idx, v) in &exceptions {
        body.extend(idx.to_le_bytes());
        v.append_le(&mut body);
    }
    {
        let _pack = tac_obs::span(tac_obs::Stage::Pack);
        for page in z.chunks(PAGE) {
            encode_page(page, &mut body);
        }
    }

    let mut flags = 0u8;
    if T::DTYPE == TacDtype::F32 {
        flags |= FLAG_F32;
    }
    let body = if cfg.lossless {
        let packed = {
            let _lossless = tac_obs::span(tac_obs::Stage::Lossless);
            lossless::compress(&body)
        };
        if packed.len() < body.len() {
            flags |= FLAG_LOSSLESS;
            packed
        } else {
            body
        }
    } else {
        body
    };

    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u8(VERSION);
    w.put_u8(flags);
    w.put_u8(dims.rank());
    match dims {
        Dims::D1(a) => w.put_u64(a as u64),
        Dims::D2(a, b) => {
            w.put_u64(a as u64);
            w.put_u64(b as u64);
        }
        Dims::D3(a, b, c) => {
            w.put_u64(a as u64);
            w.put_u64(b as u64);
            w.put_u64(c as u64);
        }
        Dims::D4(a, b, c, d) => {
            w.put_u64(a as u64);
            w.put_u64(b as u64);
            w.put_u64(c as u64);
            w.put_u64(d as u64);
        }
    }
    w.put_f64(abs_eb);
    let mut out = w.into_bytes();
    out.extend_from_slice(&body);
    Ok((out, recon))
}

/// Element-generic decoder body: the stream's dtype flag must match `T`.
fn decompress_impl<T: Element>(bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
    let mut r = ByteReader::new(bytes);
    let magic = r
        .get_bytes(4)
        .map_err(|_| corrupt("stream shorter than header"))?;
    if magic != MAGIC {
        return Err(CodecError::WrongCodec {
            expected: "pco-lite",
            found: format!("magic {magic:02x?}"),
        });
    }
    let version = r.get_u8().map_err(|_| corrupt("header truncated"))?;
    if version != VERSION {
        return Err(corrupt(format!(
            "pco-lite version {version} (expected {VERSION})"
        )));
    }
    let flags = r.get_u8().map_err(|_| corrupt("header truncated"))?;
    let stream_dtype = if flags & FLAG_F32 != 0 {
        TacDtype::F32
    } else {
        TacDtype::F64
    };
    if stream_dtype != T::DTYPE {
        return Err(CodecError::WrongDtype {
            stream: stream_dtype.label(),
            requested: T::DTYPE.label(),
        });
    }
    let rank = r.get_u8().map_err(|_| corrupt("header truncated"))?;
    if !(1..=4).contains(&rank) {
        return Err(corrupt(format!("invalid rank {rank}")));
    }
    let mut dim = || -> Result<usize, CodecError> {
        r.get_u64()
            .map(|v| v as usize)
            .map_err(|_| corrupt("header truncated"))
    };
    let dims = match rank {
        1 => Dims::D1(dim()?),
        2 => Dims::D2(dim()?, dim()?),
        3 => Dims::D3(dim()?, dim()?, dim()?),
        _ => Dims::D4(dim()?, dim()?, dim()?, dim()?),
    };
    if dims.is_empty() {
        return Err(corrupt("zero-sized dimensions"));
    }
    if dims.len() > (1usize << 40) {
        return Err(corrupt(format!(
            "declared element count {} is implausible",
            dims.len()
        )));
    }
    let abs_eb = r.get_f64().map_err(|_| corrupt("header truncated"))?;
    if abs_eb <= 0.0 || !abs_eb.is_finite() {
        return Err(corrupt(format!("invalid stored eb {abs_eb}")));
    }
    let two_eb = 2.0 * abs_eb;
    let n = dims.len();

    let raw_body = r.rest();
    let body_owned;
    let body: &[u8] = if flags & FLAG_LOSSLESS != 0 {
        body_owned = {
            let _lossless = tac_obs::span(tac_obs::Stage::Lossless);
            lossless::decompress(raw_body)?
        };
        &body_owned
    } else {
        raw_body
    };
    let mut b = ByteReader::new(body);

    // Bound the up-front `recon` allocation by what the body can
    // actually hold: even a stream of all-zero-width pages needs a
    // 3-byte header per page plus the 8-byte exception count, so a
    // crafted header cannot demand terabytes from a tiny body.
    let min_body = 8usize.saturating_add(n.div_ceil(PAGE).saturating_mul(3));
    if min_body > body.len() {
        return Err(corrupt(format!(
            "{n} declared points need at least {min_body} body bytes, found {}",
            body.len()
        )));
    }

    // Exception table.
    let n_exc = b.get_u64().map_err(|_| corrupt("body truncated"))? as usize;
    if n_exc > n || n_exc.saturating_mul(exception_bytes::<T>()) > b.remaining() {
        return Err(corrupt(format!("{n_exc} exceptions for {n} points")));
    }
    let mut exceptions = Vec::with_capacity(n_exc);
    let mut last_idx: Option<usize> = None;
    for _ in 0..n_exc {
        let idx = b.get_u64().map_err(|_| corrupt("exception truncated"))? as usize;
        let chunk = b
            .get_bytes(T::WIRE_BYTES)
            .map_err(|_| corrupt("exception truncated"))?;
        let v = T::read_le(chunk).ok_or_else(|| corrupt("exception truncated"))?;
        if idx >= n || last_idx.is_some_and(|p| idx <= p) {
            return Err(corrupt(format!("exception index {idx} out of order")));
        }
        last_idx = Some(idx);
        exceptions.push((idx, v));
    }

    // Pages.
    let pack_span = tac_obs::span(tac_obs::Stage::Pack);
    let mut recon = Vec::with_capacity(n);
    let mut prev = 0i64;
    let mut done = 0usize;
    while done < n {
        let page_len = PAGE.min(n - done);
        let width = b.get_u8().map_err(|_| corrupt("page header truncated"))? as usize;
        if width > 64 {
            return Err(corrupt(format!("page bit width {width}")));
        }
        let n_out = b.get_u16().map_err(|_| corrupt("page header truncated"))? as usize;
        if n_out > page_len {
            return Err(corrupt(format!(
                "{n_out} outliers in a {page_len}-value page"
            )));
        }
        let mut outliers = Vec::with_capacity(n_out);
        let mut last_pos: Option<usize> = None;
        for _ in 0..n_out {
            let truncated = |_| corrupt("page outlier truncated");
            let pos = b.get_u16().map_err(truncated)? as usize;
            let zv = b.get_u64().map_err(truncated)?;
            if pos >= page_len || last_pos.is_some_and(|p| pos <= p) {
                return Err(corrupt(format!("outlier position {pos} out of order")));
            }
            last_pos = Some(pos);
            outliers.push((pos, zv));
        }
        let packed = b
            .get_bytes(packed_bytes(page_len, width))
            .map_err(|_| corrupt("page payload truncated"))?;
        let mut unpacker = BitUnpacker::new(packed);
        let mut next_outlier = outliers.iter().peekable();
        for pos in 0..page_len {
            let mut zv = unpacker.read(width);
            if next_outlier.peek().is_some_and(|&&(p, _)| p == pos) {
                if let Some(&(_, ozv)) = next_outlier.next() {
                    zv = ozv;
                }
            }
            prev = prev.wrapping_add(unzigzag(zv));
            recon.push(T::from_f64(prev as f64 * two_eb));
        }
        done += page_len;
    }
    drop(pack_span);
    if b.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes", b.remaining())));
    }
    for (idx, v) in exceptions {
        let slot = recon
            .get_mut(idx)
            .ok_or_else(|| corrupt(format!("exception index {idx} out of range")))?;
        *slot = v;
    }
    Ok((recon, dims))
}

impl<T: Element> ScalarCodec<T> for PcoLite {
    fn id(&self) -> CodecId {
        CodecId::PcoLite
    }

    fn compress(&self, data: &[T], dims: Dims, cfg: &CodecConfig) -> Result<Vec<u8>, CodecError> {
        compress_impl(data, dims, cfg).map(|(bytes, _)| bytes)
    }

    fn compress_with_recon(
        &self,
        data: &[T],
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<(Vec<u8>, Vec<T>), CodecError> {
        compress_impl(data, dims, cfg)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        decompress_impl(bytes)
    }

    fn magic(&self) -> &'static [u8] {
        &MAGIC
    }

    fn looks_like(&self, bytes: &[u8]) -> bool {
        bytes.len() > 5
            && bytes.get(..4) == Some(MAGIC.as_slice())
            && bytes.get(4) == Some(&VERSION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecElement;

    fn roundtrip(data: &[f64], dims: Dims, eb: f64) -> Vec<f64> {
        let cfg = CodecConfig::abs(eb);
        let (bytes, recon) = PcoLite.compress_with_recon(data, dims, &cfg).unwrap();
        let (out, out_dims) = f64::codec_decompress(&PcoLite, &bytes).unwrap();
        assert_eq!(out_dims, dims);
        for (a, b) in recon.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits(), "recon promise broken");
        }
        out
    }

    fn check_bound(orig: &[f64], recon: &[f64], eb: f64) {
        for (i, (&a, &b)) in orig.iter().zip(recon).enumerate() {
            if a.is_finite() {
                assert!((a - b).abs() <= eb * (1.0 + 1e-12), "point {i}: {a} vs {b}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "non-finite point {i}");
            }
        }
    }

    #[test]
    fn smooth_3d_roundtrips_and_compresses() {
        let n = 16;
        let data: Vec<f64> = (0..n * n * n)
            .map(|i| (i as f64 * 0.003).sin() * 10.0 + (i as f64 * 0.0007).cos())
            .collect();
        let cfg = CodecConfig::abs(1e-3);
        let bytes = PcoLite.compress(&data, Dims::D3(n, n, n), &cfg).unwrap();
        let (out, _) = f64::codec_decompress(&PcoLite, &bytes).unwrap();
        check_bound(&data, &out, 1e-3);
        assert!(
            bytes.len() < data.len() * 8 / 4,
            "smooth data should compress 4x+, took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn constant_field_is_tiny() {
        let data = vec![42.5f64; 4096];
        let cfg = CodecConfig::abs(1e-6);
        let bytes = PcoLite.compress(&data, Dims::D1(4096), &cfg).unwrap();
        let (out, _) = f64::codec_decompress(&PcoLite, &bytes).unwrap();
        check_bound(&data, &out, 1e-6);
        assert!(
            bytes.len() < 200,
            "constant field took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn non_finite_values_roundtrip_bit_exactly() {
        let mut data: Vec<f64> = (0..512).map(|i| i as f64 * 0.1).collect();
        data[3] = f64::NAN;
        data[100] = f64::INFINITY;
        data[200] = f64::NEG_INFINITY;
        let out = roundtrip(&data, Dims::D1(512), 1e-2);
        check_bound(&data, &out, 1e-2);
        assert!(out[3].is_nan());
        assert_eq!(out[100], f64::INFINITY);
        assert_eq!(out[200], f64::NEG_INFINITY);
    }

    #[test]
    fn extreme_magnitudes_fall_back_to_raw() {
        // v/eb beyond the i64 lattice: must store raw, still bit-exact
        // (the bound cannot be met lossily, so lossless is the answer).
        let data = vec![1e300, -1e300, 5.0, 1e-300, 0.0, f64::MAX];
        let out = roundtrip(&data, Dims::D1(6), 1e-12);
        for (a, b) in data.iter().zip(&out) {
            if a.abs() > 1e15 {
                assert_eq!(a.to_bits(), b.to_bits());
            } else {
                assert!((a - b).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn white_noise_respects_bound() {
        let data: Vec<f64> = (0..4096u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect();
        let out = roundtrip(&data, Dims::D3(16, 16, 16), 0.5);
        check_bound(&data, &out, 0.5);
    }

    #[test]
    fn page_outliers_handle_isolated_jumps() {
        // Mostly-flat signal with rare huge spikes: the page width should
        // stay small and the spikes ride as outliers.
        let mut data = vec![1.0f64; 3000];
        for i in (0..3000).step_by(500) {
            data[i] = 1e6;
        }
        let cfg = CodecConfig::abs(1e-3);
        let bytes = PcoLite.compress(&data, Dims::D1(3000), &cfg).unwrap();
        let (out, _) = f64::codec_decompress(&PcoLite, &bytes).unwrap();
        check_bound(&data, &out, 1e-3);
        assert!(
            bytes.len() < 3000,
            "spiky-but-flat data took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn corrupt_streams_error_never_panic() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let bytes = PcoLite.compress(&data, Dims::D1(1000), &cfg).unwrap();
        // Bit flips anywhere must not panic.
        let mut mutated = bytes.clone();
        for i in (0..mutated.len()).step_by(3) {
            mutated[i] ^= 0xFF;
            let _ = f64::codec_decompress(&PcoLite, &mutated);
            mutated[i] ^= 0xFF;
        }
        // Truncations must error.
        for cut in 0..bytes.len().min(64) {
            assert!(
                f64::codec_decompress(&PcoLite, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        assert!(f64::codec_decompress(&PcoLite, &bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage must error.
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(f64::codec_decompress(&PcoLite, &extra).is_err());
    }

    #[test]
    fn huge_declared_dims_error_instead_of_allocating() {
        // A 35-byte crafted header declaring 2^40 elements must be
        // rejected by the body-size bound, not die in an 8 TiB
        // `Vec::with_capacity`.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0); // flags
        bytes.push(1); // rank
        bytes.extend((1u64 << 40).to_le_bytes()); // dim
        bytes.extend(1e-3f64.to_le_bytes()); // abs_eb
        bytes.extend(0u64.to_le_bytes()); // body: zero exceptions, no pages
        let err = f64::codec_decompress(&PcoLite, &bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn foreign_magic_is_wrong_codec() {
        let sz = tac_sz::compress(&[1.0; 8], Dims::D1(8), &tac_sz::SzConfig::abs(1.0)).unwrap();
        assert!(matches!(
            f64::codec_decompress(&PcoLite, &sz),
            Err(CodecError::WrongCodec { .. })
        ));
        assert!(!ScalarCodec::<f64>::looks_like(&PcoLite, &sz));
    }

    #[test]
    fn f32_exceptions_are_stored_at_native_width() {
        // All-exception input (NaN-heavy): the f32 stream's exception
        // table is 12 bytes/entry vs 16 at f64, so it must be smaller.
        let data64 = vec![f64::NAN; 600];
        let data32 = vec![f32::NAN; 600];
        let cfg = CodecConfig {
            lossless: false,
            ..CodecConfig::abs(1e-3)
        };
        let b64 = PcoLite.compress(&data64, Dims::D1(600), &cfg).unwrap();
        let b32 = PcoLite.compress(&data32, Dims::D1(600), &cfg).unwrap();
        assert!(
            b32.len() + 600 * 4 <= b64.len(),
            "f32 {} vs f64 {}",
            b32.len(),
            b64.len()
        );
        let (out, _) = f32::codec_decompress(&PcoLite, &b32).unwrap();
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn f32_narrowed_reconstruction_respects_bound() {
        // Quantized reconstructions are narrowed to f32 before the bound
        // check; large-magnitude values whose narrow breaks the bound must
        // ride as exceptions instead.
        let data: Vec<f32> = (0..2048)
            .map(|i| 99_999_992.0f32 + (i as f32 * 0.25).sin() * 40.0)
            .collect();
        let cfg = CodecConfig::abs(6.0);
        let (bytes, recon) = PcoLite
            .compress_with_recon(&data, Dims::D1(2048), &cfg)
            .unwrap();
        let (out, _) = f32::codec_decompress(&PcoLite, &bytes).unwrap();
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!((a as f64 - b as f64).abs() <= 6.0, "point {i}: {a} vs {b}");
            assert_eq!(recon[i].to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_corrupt_streams_error_never_panic() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let bytes = PcoLite.compress(&data, Dims::D1(1000), &cfg).unwrap();
        let mut mutated = bytes.clone();
        for i in (0..mutated.len()).step_by(3) {
            mutated[i] ^= 0xFF;
            let _ = f32::codec_decompress(&PcoLite, &mutated);
            let _ = f64::codec_decompress(&PcoLite, &mutated);
            mutated[i] ^= 0xFF;
        }
        for cut in 0..bytes.len().min(64) {
            assert!(
                f32::codec_decompress(&PcoLite, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn zigzag_is_a_bijection_at_the_edges() {
        for d in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -54321] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn width_choice_prefers_outliers_for_heavy_tails() {
        // 1000 tiny values + 3 huge ones: packing everything at 64 bits
        // would cost 8000 bytes; 4-bit packing plus 3 outliers costs ~530.
        let mut counts = [0usize; 65];
        counts[4] = 1000;
        counts[60] = 3;
        let (w, n_out) = choose_width(&counts, 1003);
        assert_eq!(n_out, 3);
        assert!((4..8).contains(&w), "chose width {w}");
    }
}
