//! `PcoLite`: the decoder of the pcodec-inspired delta + per-page
//! bit-packing codec, and the front end [`crate::PcoAns`] encodes with.
//!
//! [pcodec](https://github.com/mwlon/pcodec) compresses numerical
//! columns with delta encoding, adaptive binning, and bit packing.
//! Both pcodec-style wires share its first steps:
//!
//! 1. **Uniform quantization** — each finite value maps to the integer
//!    `q = round(v / (2*eb))`; the reconstruction `q * 2*eb` is within
//!    `eb` of `v` by construction. Values that cannot quantize
//!    (non-finite, |q| overflowing, or precision loss at extreme
//!    `v / eb` ratios) become raw **exceptions** stored bit-exactly.
//! 2. **Delta encoding** — consecutive quantized integers are close for
//!    the smooth per-level fields TAC extracts, so the stream of
//!    differences is small; zigzag mapping folds signs away.
//!
//! A `TPL1` (pco-lite) stream then splits the latents into pages of
//! [`PAGE`] values, each bit-packed at its own width with the few wider
//! values stored as per-page outliers, and offers the body to the
//! shared LZSS stage. pco-lite is **decode-only**: containers written
//! with it keep decoding bit-exactly, but no writer produces one any
//! more — pco-ans codes the same front end with a tabled-ANS tail and
//! is smaller on every benchmark workload. The encoder lives on as the
//! `#[cfg(test)]` `reference` module, which writes the streams the
//! decoder tests read.
//!
//! Decoding a value needs only the running delta sum, which keeps the
//! decoder a single linear scan. The shape ([`Dims`]) is metadata only
//! — rank does not change the encoding.

use crate::container::{Header, FLAG_LOSSLESS};
use crate::error::header_error;
use crate::wire::ByteReader;
use crate::{lossless, CodecConfig, CodecError, Dims, ScalarCodec};
use tac_dtype::Element;

/// Stream magic number ("TAC Pco-Lite v1").
pub(crate) const MAGIC: [u8; 4] = *b"TPL1";
/// Current format version.
pub(crate) const VERSION: u8 = 1;
/// Values per page. Each page has its own bit width, so the page size
/// trades adaptivity against per-page header overhead.
const PAGE: usize = 1024;
/// Serialized size of one exception entry for element type `T`
/// (index u64 + the element's native-width bits: 16 bytes at f64, 12 at
/// f32). Both pcodec-style wires use this exception table layout.
pub(crate) fn exception_bytes<T: Element>() -> usize {
    8 + T::WIRE_BYTES
}

/// The pcodec-inspired delta + per-page bit-packing backend: decodes
/// `TPL1` streams; compressing through it is
/// [`CodecError::InvalidConfig`].
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

/// The largest `f64` below one half.
const BELOW_HALF: f64 = 0.499_999_999_999_999_94;

/// `t.round() as i64` — round half away from zero — without the libm
/// call `f64::round` is on baseline x86-64. This is LLVM's own expansion
/// of `round` for targets without a rounding instruction: adding the
/// largest value below one half (with `t`'s sign) and truncating lands
/// on the same integer for every `t`, ties included — unlike adding one
/// half, which carries `0.49999999999999994` up to 1. NaN gives 0 and
/// out-of-range values saturate, like the cast they replace.
#[inline(always)]
pub(crate) fn round_half_away(t: f64) -> i64 {
    (t + BELOW_HALF.copysign(t)) as i64
}

/// One value's code `q = round(v / 2eb)`, and whether it fits: its
/// `T`-narrowed reconstruction `q * 2eb` lies within `eb` of `v` and `q`
/// is clear of the `i64` edge (beyond 2^62 the f64 lattice is coarser
/// than 1 anyway, so a round trip through the integer grid could not
/// stay within bound). The bound check runs on the narrowed value, so
/// `T`'s rounding can never silently break the bound; it is false for a
/// NaN or infinite quotient, which is what every non-finite value
/// yields (`2eb` is positive).
#[inline(always)]
fn quantize<T: Element>(value: T, two_eb: f64, abs_eb: f64) -> (i64, bool) {
    let limit = (1i64 << 62) as f64;
    let v = value.to_f64();
    let t = v / two_eb;
    let q = round_half_away(t);
    let narrowed = T::from_f64(q as f64 * two_eb);
    (
        q,
        (t.abs() < limit) & ((v - narrowed.to_f64()).abs() <= abs_eb),
    )
}

/// The quantize → delta → zigzag front end of the pcodec-style wires,
/// run by PcoAns's encoder (through [`encode_stream`]) one page at a
/// time so no whole-stream intermediate exists:
/// each finite value maps to the code `q = round(v / 2eb)`; the code's
/// difference to the previous quantized value is zigzag-folded into a
/// *latent*. A value whose `T`-narrowed reconstruction `q * 2eb` misses
/// the bound — non-finite, beyond the `i64` lattice, or lost to `T`'s
/// rounding — becomes a raw **exception**: latent 0, the delta chain
/// passes over it. A *don't-care* value (see [`crate::ScalarCodec`]'s
/// care mask) is a forced non-hit that pushes no exception: latent 0,
/// so it decodes as the previous code, and no care value's code moves.
struct Quantizer<T> {
    two_eb: f64,
    abs_eb: f64,
    /// The last quantized (non-exception) code.
    prev: i64,
    /// Values quantized so far: the stream index of the next page.
    seen: u64,
    /// `(stream index, raw value)` of every exception so far, in order.
    exceptions: Vec<(u64, T)>,
}

impl<T: Element> Quantizer<T> {
    fn new(abs_eb: f64) -> Self {
        Quantizer {
            two_eb: 2.0 * abs_eb,
            abs_eb,
            prev: 0,
            seen: 0,
            exceptions: Vec::new(),
        }
    }

    /// Quantizes the next page: `z` receives the latents and `classes`
    /// their bit lengths (all three exactly `data.len()` long, as is
    /// `care` when given). Without a mask every value is care.
    fn page(&mut self, data: &[T], care: Option<&[bool]>, z: &mut [u64], classes: &mut [u8]) {
        match care {
            None => self.page_with(data, std::iter::repeat(true), z, classes),
            Some(care) => self.page_with(data, care.iter().copied(), z, classes),
        }
    }

    /// [`Self::page`] over one care flag per value; a don't-care value
    /// is a forced non-hit. With the constant `true` of an unmasked
    /// page the mask folds away.
    ///
    /// The loop is select-based: an exception costs the same as a hit
    /// apart from its (rare) push, and the only loop-carried dependency
    /// is the one-cycle `prev` select. `v / 2eb` stays a division — a
    /// reciprocal multiply rounds differently and would change codes.
    /// The care flag masks the delta instead of steering a branch: care
    /// runs alternate at every present/absent boundary, where a branch
    /// on them would mispredict. Only a non-fit, which is rare, branches
    /// on it.
    #[inline(always)]
    // tac-lint: allow(arith) -- encoder-only: `bit_len` is at most 64, so the class fits its byte; `seen + i` counts in-memory values.
    fn page_with(
        &mut self,
        data: &[T],
        care: impl Iterator<Item = bool>,
        z: &mut [u64],
        classes: &mut [u8],
    ) {
        debug_assert!(z.len() == data.len() && classes.len() == data.len());
        let (two_eb, abs_eb) = (self.two_eb, self.abs_eb);
        let mut prev = self.prev;
        let values = data.iter().zip(care).zip(z).zip(classes).enumerate();
        for (i, (((&value, care), z), class)) in values {
            let (q, fits) = quantize(value, two_eb, abs_eb);
            let delta = q.wrapping_sub(prev) & i64::from(care).wrapping_neg();
            let latent = if fits { zigzag(delta) } else { 0 };
            prev = if fits { prev.wrapping_add(delta) } else { prev };
            *z = latent;
            *class = bit_len(latent) as u8;
            if !fits && care {
                self.exceptions.push((self.seen + i as u64, value));
            }
        }
        self.prev = prev;
        self.seen += data.len() as u64;
    }

    /// Ends the stream: writes the exception table where the decoder
    /// expects it, *ahead* of the pages. `body` holds an 8-byte
    /// placeholder for the exception count at `at`, then the pages
    /// coded so far; exceptions are rare, so the common case patches
    /// nothing and moves nothing.
    // tac-lint: allow(panic, arith) -- encoder-only: `at` is where this stream's own writer put the placeholder, so `at + 8` is inside `body`.
    fn finish(self, body: &mut Vec<u8>, at: usize) {
        tac_obs::add(tac_obs::Counter::PcoExceptions, self.exceptions.len());
        if self.exceptions.is_empty() {
            return;
        }
        let mut table = Vec::with_capacity(self.exceptions.len() * exception_bytes::<T>());
        for &(idx, v) in &self.exceptions {
            table.extend(idx.to_le_bytes());
            v.append_le(&mut table);
        }
        body[at..at + 8].copy_from_slice(&(self.exceptions.len() as u64).to_le_bytes());
        body.splice(at + 8..at + 8, table);
    }
}

/// Codes `data` onto `out` (which holds the stream header) a page of
/// `page` values at a time: the exception table's slot, then each page
/// quantized into latents and classes and handed to `encode_page`,
/// which codes the page's tail. The scratch holds one page, or the
/// whole stream when that is shorter: TAC feeds these codecs thousands
/// of streams of a few dozen values, which must not each pay for a full
/// page of it. `care`, when given, is one flag per value of `data`.
pub(crate) fn encode_stream<T: Element>(
    data: &[T],
    care: Option<&[bool]>,
    abs_eb: f64,
    page: usize,
    out: &mut Vec<u8>,
    mut encode_page: impl FnMut(&[u64], &[u8], &mut Vec<u8>),
) {
    let n = data.len();
    // The exception table goes here, ahead of the pages, once the last
    // page has told how many there are.
    let exceptions_at = out.len();
    out.extend(0u64.to_le_bytes());
    let mut quantizer = Quantizer::new(abs_eb);
    let mut z = vec![0u64; n.min(page)];
    let mut classes = vec![0u8; n.min(page)];
    let mut care_pages = care.map(|care| care.chunks(page));
    for values in data.chunks(page) {
        let (z, _) = z.split_at_mut(values.len());
        let (classes, _) = classes.split_at_mut(values.len());
        let care = care_pages.as_mut().and_then(Iterator::next);
        {
            let _quantize = tac_obs::span(tac_obs::Stage::Quantize);
            quantizer.page(values, care, z, classes);
        }
        let _pack = tac_obs::span(tac_obs::Stage::Pack);
        encode_page(z, classes, out);
    }
    quantizer.finish(out, exceptions_at);
}

/// LSB-first bit packer appending to a byte vector (PcoAns's offset
/// streams). Bits gather in a 64-bit accumulator that is flushed eight
/// bytes at a time.
pub(crate) struct BitSink<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    /// Bits held in `acc`, always below 64.
    nbits: u32,
}

impl<'a> BitSink<'a> {
    pub(crate) fn new(out: &'a mut Vec<u8>) -> Self {
        BitSink {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `width` (at most 64) bits of `v`, which must have
    /// no bit set above them.
    #[inline(always)]
    pub(crate) fn push(&mut self, v: u64, width: u32) {
        self.acc |= v << self.nbits;
        let filled = self.nbits + width;
        if filled >= 64 {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            // What did not fit: nothing when the accumulator was empty
            // (the value was a whole word; a shift by 64 is not one).
            self.acc = v.checked_shr(64 - self.nbits).unwrap_or(0);
            self.nbits = filled - 64;
        } else {
            self.nbits = filled;
        }
    }

    /// Flushes the last partial word, zero-padded to a whole byte.
    pub(crate) fn finish(self) {
        let bytes = self.acc.to_le_bytes();
        let tail = bytes.get(..self.nbits.div_ceil(8) as usize);
        self.out.extend_from_slice(tail.unwrap_or(&bytes));
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

fn corrupt(msg: impl Into<String>) -> CodecError {
    CodecError::Corrupt(msg.into())
}

/// Opens a body of `n` declared points. `min_body` is the least a body
/// of that many points can occupy on the backend's wire: checked first,
/// so a crafted header cannot demand terabytes of reconstruction from a
/// tiny body. Then reads the exception table both pcodec-style wires
/// start with — a `u64` count and `(index u64, value)` entries in
/// strictly increasing index order, all below `n`.
pub(crate) fn read_exceptions<T: Element>(
    b: &mut ByteReader<'_>,
    n: usize,
    min_body: usize,
) -> Result<Vec<(usize, T)>, CodecError> {
    if min_body > b.remaining() {
        return Err(corrupt(format!(
            "{n} declared points need at least {min_body} body bytes, found {}",
            b.remaining()
        )));
    }
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
    Ok(exceptions)
}

/// Closes a decode: the pages must have consumed the body exactly, and
/// each exception overwrites its slot of the reconstruction.
pub(crate) fn patch_exceptions<T: Element>(
    b: &ByteReader<'_>,
    recon: &mut [T],
    exceptions: Vec<(usize, T)>,
) -> Result<(), CodecError> {
    if b.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes", b.remaining())));
    }
    for (idx, v) in exceptions {
        let slot = recon
            .get_mut(idx)
            .ok_or_else(|| corrupt(format!("exception index {idx} out of range")))?;
        *slot = v;
    }
    Ok(())
}

/// Element-generic decoder body: the stream's dtype flag must match `T`.
fn decompress_impl<T: Element>(bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
    // Unknown flag bits have always been ignored on this wire.
    let (head, rest) = Header::read::<T>(bytes, MAGIC, VERSION, u8::MAX)
        .map_err(|e| header_error("pco-lite", e))?;
    let dims = head.dims;
    let two_eb = 2.0 * head.abs_eb;
    let n = dims.len();

    let body_owned;
    let body: &[u8] = if head.flags & FLAG_LOSSLESS != 0 {
        body_owned = {
            let _lossless = tac_obs::span(tac_obs::Stage::Lossless);
            lossless::decompress(rest)?
        };
        &body_owned
    } else {
        rest
    };
    let mut b = ByteReader::new(body);

    // Even a stream of all-zero-width pages needs a 3-byte header per
    // page plus the 8-byte exception count.
    let min_body = 8usize.saturating_add(n.div_ceil(PAGE).saturating_mul(3));
    let exceptions = read_exceptions::<T>(&mut b, n, min_body)?;

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
    patch_exceptions(&b, &mut recon, exceptions)?;
    Ok((recon, dims))
}

/// What compressing through [`PcoLite`] returns.
fn decode_only() -> CodecError {
    CodecError::InvalidConfig("pco-lite is decode-only: compress with pco-ans instead".into())
}

impl<T: Element> ScalarCodec<T> for PcoLite {
    fn compress(
        &self,
        _: &[T],
        _: Option<&[bool]>,
        _: Dims,
        _: &CodecConfig,
    ) -> Result<Vec<u8>, CodecError> {
        Err(decode_only())
    }

    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        decompress_impl(bytes)
    }
}

/// The reference encoders: the front end and bit packer both
/// pcodec-style backends shipped before the page kernel, which the
/// differential tests hold [`Quantizer`], [`encode_stream`] and
/// [`BitSink`] to, and the whole pco-lite writer as it last shipped,
/// which writes the streams the decoder tests read.
#[cfg(test)]
pub(crate) mod reference {
    use super::{bit_len, packed_bytes, zigzag, Element, MAGIC, PAGE, VERSION};
    use crate::container::{Header, FLAG_LOSSLESS};
    use crate::{lossless, Dims};

    /// Serialized size of one page outlier (position u16 + zigzag u64).
    const OUTLIER_BYTES: usize = 10;

    /// Quantizes one value, or `None` when it must be stored raw. Returns
    /// the code and the `T`-narrowed reconstruction the decoder will
    /// materialize.
    pub(crate) fn quantize<T: Element>(value: T, two_eb: f64, abs_eb: f64) -> Option<(i64, T)> {
        let v = value.to_f64();
        if !v.is_finite() {
            return None;
        }
        let t = v / two_eb;
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

    /// The whole-stream front end: latents, the promised reconstruction
    /// and the exceptions of `data`. A value `care` marks don't-care
    /// codes delta 0 and reconstructs as the previous code (`+0.0`
    /// before the first).
    #[allow(clippy::type_complexity)]
    pub(crate) fn front_end<T: Element>(
        data: &[T],
        care: Option<&[bool]>,
        abs_eb: f64,
    ) -> (Vec<u64>, Vec<T>, Vec<(u64, T)>) {
        let two_eb = 2.0 * abs_eb;
        let (mut z, mut recon, mut exceptions) = (Vec::new(), Vec::new(), Vec::new());
        let mut prev = 0i64;
        for (i, &v) in data.iter().enumerate() {
            if care.is_some_and(|care| !care[i]) {
                recon.push(T::from_f64(prev as f64 * two_eb));
                z.push(zigzag(0));
                continue;
            }
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
        (z, recon, exceptions)
    }

    /// LSB-first bit packer over a `u128` accumulator drained a byte at
    /// a time.
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

        pub(crate) fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.buf.push(self.acc as u8);
            }
            self.buf
        }
    }

    /// Picks a page's bit width: minimize packed size plus outlier cost,
    /// preferring the smaller width on ties. Returns `(width,
    /// n_outliers)`.
    pub(crate) fn choose_width(counts: &[usize; 65], len: usize) -> (usize, usize) {
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

    /// One page of latents as pco-lite codes it: width, outlier count,
    /// the outliers, then the packed values.
    pub(crate) fn encode_page(z: &[u64], out: &mut Vec<u8>) {
        let mut counts = [0usize; 65];
        for &v in z {
            counts[bit_len(v)] += 1;
        }
        let (width, n_outliers) = choose_width(&counts, z.len());
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

    /// A pco-lite body before the LZSS stage — the exception table, then
    /// the pages — with the reconstruction it decodes to.
    pub(crate) fn body<T: Element>(data: &[T], abs_eb: f64) -> (Vec<u8>, Vec<T>) {
        let (z, recon, exceptions) = front_end(data, None, abs_eb);
        let mut body = Vec::new();
        body.extend((exceptions.len() as u64).to_le_bytes());
        for &(idx, v) in &exceptions {
            body.extend(idx.to_le_bytes());
            v.append_le(&mut body);
        }
        for page in z.chunks(PAGE) {
            encode_page(page, &mut body);
        }
        (body, recon)
    }

    /// A whole `TPL1` stream as the pco-lite writer last shipped it: the
    /// header, then the body, LZSS-packed when that is smaller.
    pub(crate) fn stream<T: Element>(data: &[T], dims: Dims, abs_eb: f64) -> (Vec<u8>, Vec<T>) {
        assert_eq!(dims.len(), data.len());
        let (body, recon) = body(data, abs_eb);
        let mut header = Header::new::<T>(MAGIC, VERSION, dims, abs_eb);
        let packed = lossless::compress(&body);
        let body = if packed.len() < body.len() {
            header.flags |= FLAG_LOSSLESS;
            packed
        } else {
            body
        };
        let mut out = Vec::new();
        header.encode(&mut out);
        out.extend_from_slice(&body);
        (out, recon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{draw, splitmix64, Family};
    use crate::CodecElement;

    /// A pco-lite stream of `data` from the reference writer.
    fn lite<T: Element>(data: &[T], dims: Dims, eb: f64) -> Vec<u8> {
        reference::stream(data, dims, eb).0
    }

    /// A stream's header and its body with the LZSS stage undone.
    fn unpacked<T: Element>(bytes: &[u8]) -> (Header, Vec<u8>) {
        let (head, rest) = Header::read::<T>(bytes, MAGIC, VERSION, u8::MAX).unwrap();
        if head.flags & FLAG_LOSSLESS != 0 {
            (head, lossless::decompress(rest).unwrap())
        } else {
            (head, rest.to_vec())
        }
    }

    fn roundtrip(data: &[f64], dims: Dims, eb: f64) -> Vec<f64> {
        let (bytes, recon) = reference::stream(data, dims, eb);
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
        let bytes = lite(&data, Dims::D3(n, n, n), 1e-3);
        let (out, dims) = f64::codec_decompress(&PcoLite, &bytes).unwrap();
        assert_eq!(dims, Dims::D3(n, n, n));
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
        let bytes = lite(&data, Dims::D1(4096), 1e-6);
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
        // Mostly-flat signal with rare huge spikes: the page width stays
        // small and the spikes ride as outliers.
        let mut data = vec![1.0f64; 3000];
        for i in (0..3000).step_by(500) {
            data[i] = 1e6;
        }
        let bytes = lite(&data, Dims::D1(3000), 1e-3);
        let (_, body) = unpacked::<f64>(&bytes);
        assert!(body[8] < 8, "first page width {}", body[8]);
        assert!(u16::from_le_bytes([body[9], body[10]]) > 0, "no outliers");
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
        let bytes = lite(&data, Dims::D1(1000), 1e-4);
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
        let sz = crate::codec_for(crate::CodecId::Sz)
            .compress(&[1.0; 8], None, Dims::D1(8), &CodecConfig::abs(1.0))
            .unwrap();
        assert!(matches!(
            f64::codec_decompress(&PcoLite, &sz),
            Err(CodecError::WrongCodec { .. })
        ));
    }

    #[test]
    fn f32_exceptions_are_stored_at_native_width() {
        // All-exception input (NaN-heavy): the f32 stream's exception
        // table is 12 bytes/entry vs 16 at f64, so it must be smaller.
        let b64 = lite(&[f64::NAN; 600], Dims::D1(600), 1e-3);
        let b32 = lite(&[f32::NAN; 600], Dims::D1(600), 1e-3);
        let (body64, body32) = (unpacked::<f64>(&b64).1, unpacked::<f32>(&b32).1);
        assert!(
            body32.len() + 600 * 4 <= body64.len(),
            "f32 {} vs f64 {}",
            body32.len(),
            body64.len()
        );
        let (out, _) = f32::codec_decompress(&PcoLite, &b32).unwrap();
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn f32_narrowed_reconstruction_respects_bound() {
        // Quantized reconstructions are narrowed to f32 before the bound
        // check; large-magnitude values whose narrow breaks the bound
        // ride as exceptions instead.
        let data: Vec<f32> = (0..2048)
            .map(|i| 99_999_992.0f32 + (i as f32 * 0.25).sin() * 40.0)
            .collect();
        let (bytes, recon) = reference::stream(&data, Dims::D1(2048), 6.0);
        let (out, _) = f32::codec_decompress(&PcoLite, &bytes).unwrap();
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!((a as f64 - b as f64).abs() <= 6.0, "point {i}: {a} vs {b}");
            assert_eq!(recon[i].to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_corrupt_streams_error_never_panic() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let bytes = lite(&data, Dims::D1(1000), 1e-4);
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
        let (w, n_out) = reference::choose_width(&counts, 1003);
        assert_eq!(n_out, 3);
        assert!((4..8).contains(&w), "chose width {w}");
    }

    #[test]
    fn branch_free_round_matches_f64_round() {
        let two52 = (1u64 << 52) as f64;
        let mut cases = vec![
            0.0,
            0.5,
            0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            1.5,
            2.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 * 2.0,
            ((1u64 << 62) - 1024) as f64,
        ];
        // A seeded sweep: every binade the quantizer can see, with the
        // fraction forced onto and next to the tie.
        let mut state = 0x0A0Du64;
        for _ in 0..200_000 {
            let r = splitmix64(&mut state);
            let exp = (r % 64) as i32 - 2;
            let mantissa = 1.0 + (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let t = mantissa * 2f64.powi(exp);
            cases.push(t);
            let tie = t.trunc() + 0.5;
            cases.extend([
                tie,
                f64::from_bits(tie.to_bits() - 1),
                f64::from_bits(tie.to_bits() + 1),
            ]);
        }
        for t in cases {
            for t in [t, -t] {
                assert_eq!(
                    round_half_away(t),
                    t.round() as i64,
                    "t = {t:e} ({:#x})",
                    t.to_bits()
                );
            }
        }
        // What the range check masks out still matches the cast.
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
            assert_eq!(round_half_away(t), t.round() as i64, "t = {t}");
        }
    }

    /// The page front end ([`encode_stream`]) with pco-lite's reference
    /// page coder behind it writes the reference body, and the decoder
    /// produces the reconstruction the reference promises.
    fn assert_matches_reference<T: CodecElement>(data: &[T], eb: f64, what: &str) {
        let (want_body, want_recon) = reference::body(data, eb);
        let mut body = Vec::new();
        encode_stream::<T>(data, None, eb, PAGE, &mut body, |z, _, out| {
            reference::encode_page(z, out)
        });
        assert!(body == want_body, "{what}: body differs from the reference");

        let (stream, _) = reference::stream(data, Dims::D1(data.len()), eb);
        let (decoded, _) = T::codec_decompress(&PcoLite, &stream).unwrap();
        assert_eq!(decoded.len(), data.len(), "{what}");
        for (a, b) in want_recon.iter().zip(&decoded) {
            assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{what}: decode");
        }
    }

    #[test]
    fn page_front_end_emits_the_reference_encoders_bytes() {
        let mut state = 0x11E7u64;
        for family in Family::ALL {
            for n in [1, 7, PAGE - 1, PAGE, PAGE + 1, 4 * PAGE, 9 * PAGE + 333] {
                let what = format!("{family:?} x {n}");
                let (data, eb) = draw::<f64>(family, n, &mut state);
                assert_matches_reference(&data, eb, &format!("f64 {what}"));
                let (data, eb) = draw::<f32>(family, n, &mut state);
                assert_matches_reference(&data, eb, &format!("f32 {what}"));
            }
        }
    }
}
