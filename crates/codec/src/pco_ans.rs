//! `PcoAns`: a tabled-ANS, batch-decoding error-bounded codec — the
//! one pcodec-style encoder, successor to the decode-only
//! [`crate::PcoLite`].
//!
//! The front end is the one `TPL1` streams were written with (it lives
//! in `pco.rs`, beside the pco-lite decoder): uniform quantization to
//! `q = round(v / 2eb)`, delta encoding, zigzag folding, raw
//! exceptions for values that cannot quantize. The tail is pcodec's
//! recipe instead of LZSS + bit packing:
//!
//! 1. **Greedy bin optimization** ([`crate::bins`]) — each fixed-size
//!    page's latents split into a bin *token* and an *offset* within
//!    the bin, with the bins chosen per page from the latent histogram.
//! 2. **Tabled rANS** ([`crate::ans`]) — the token stream is entropy
//!    coded against the page's normalized bin weights; the table
//!    travels as (class run, weight) pairs and the geometry is
//!    recomputed on decode.
//! 3. **Branch-free batch decode** — pages decode in batches of
//!    [`BATCH`] values through SoA scratch buffers: one pass decodes
//!    tokens (four interleaved rANS lanes, packed single-load table
//!    slots, branch-free word refill), then one pass per batch gathers
//!    offsets with unaligned 64-bit reads and reconstructs values in
//!    place. No per-value branching; exceptions are patched after all
//!    pages.
//!
//! The encoder streams the same way, one page at a time through fixed
//! per-call scratch: the shared front end quantizes a page into latents
//! and their bit-length classes; the histogram, the bin plan and two
//! class-indexed tables come from the class bytes; the rANS pass runs
//! back to front over the class bytes (division-free, see
//! [`crate::ans`]); the offsets are packed straight into the output
//! behind the words. Nothing but the output is sized by the stream, so
//! the cost per value is flat in stream length.
//!
//! There is deliberately **no trailing LZSS stage** — on pco-lite the
//! `pack` + `lossless` stages dominated decode wall time, and the
//! entropy coding the LZSS pass recovered now happens in the rANS
//! stage at a fraction of the cost.

use crate::ans::{self, AnsDecoder, DecodeTable, EncSym, LANES, RANS_L, SYMBOL_SLOTS};
use crate::bins::{self, CLASSES};
use crate::container::{Header, FLAG_F32};
use crate::error::header_error;
use crate::pco::{encode_stream, patch_exceptions, read_exceptions, unzigzag, BitSink};
use crate::wire::ByteReader;
use crate::{check_care, CodecConfig, CodecError, Dims, ScalarCodec};
use tac_dtype::Element;

/// Stream magic number ("TAC Pco-ANS v1").
pub(crate) const MAGIC: [u8; 4] = *b"TPA1";
/// Current format version.
pub(crate) const VERSION: u8 = 1;
/// Values per page. Each page carries its own bin table, ANS payload
/// and offset stream; larger than pco-lite's page because the header is
/// bigger and the bins adapt within the page anyway.
const PAGE: usize = 4096;
/// Values per decode batch: tokens move through an SoA scratch buffer
/// of this size, which fits L1 alongside the decode table.
const BATCH: usize = 256;
/// Serialized bytes per bin-table entry (lo `u8` + hi `u8` + weight
/// `u16`).
const BIN_BYTES: usize = 4;
/// Fixed per-page bytes besides the bin table: bin count `u8`, the
/// four `u32` lane seed states, word byte count `u32`, offset byte
/// count `u32`.
const PAGE_FIXED_BYTES: usize = 25;

/// The tabled-ANS pcodec-style backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcoAns;

fn corrupt(msg: impl Into<String>) -> CodecError {
    CodecError::Corrupt(msg.into())
}

/// Where a class's latents go within their bin: the bin's lower bound
/// and offset width, one hop from the class byte.
#[derive(Clone, Copy, Default)]
struct OffsetSpec {
    lower: u64,
    width: u32,
}

/// Per-call encoder scratch, reused page after page: the rANS word
/// buffer and the two class-indexed tables ([`SYMBOL_SLOTS`] entries,
/// indexed by the masked class byte without a bounds check). A page
/// rewrites only the table entries of the classes it holds and reads no
/// others.
struct EncodeScratch {
    words: Vec<u8>,
    syms: [EncSym; SYMBOL_SLOTS],
    offsets: [OffsetSpec; SYMBOL_SLOTS],
}

impl EncodeScratch {
    /// Scratch for pages of up to `page` values ([`ans::encode`] wants
    /// two bytes of word buffer per symbol plus two).
    fn new(page: usize) -> EncodeScratch {
        EncodeScratch {
            words: vec![0; 2 * page + 2],
            syms: [EncSym::default(); SYMBOL_SLOTS],
            offsets: [OffsetSpec::default(); SYMBOL_SLOTS],
        }
    }
}

/// Class histogram of one page. Smooth pages repeat one class for long
/// stretches, and a single counter array would serialize on the
/// store-to-load round trip of that one counter; four interleaved
/// arrays keep consecutive increments independent.
// tac-lint: allow(panic, arith) -- encoder-only: the lanes are indexed by a class byte masked to their width; counts are bounded by PAGE.
fn class_histogram(classes: &[u8]) -> [u32; CLASSES] {
    let mut lanes = [[0u32; SYMBOL_SLOTS]; 4];
    let slot = |c: u8| usize::from(c) % SYMBOL_SLOTS;
    let mut quads = classes.chunks_exact(4);
    for quad in &mut quads {
        if let [a, b, c, d] = *quad {
            lanes[0][slot(a)] += 1;
            lanes[1][slot(b)] += 1;
            lanes[2][slot(c)] += 1;
            lanes[3][slot(d)] += 1;
        }
    }
    for &c in quads.remainder() {
        lanes[0][slot(c)] += 1;
    }
    let mut hist = [0u32; CLASSES];
    for (class, total) in hist.iter_mut().enumerate() {
        *total = lanes.iter().map(|lane| lane[class]).sum();
    }
    hist
}

/// Encodes one page of latents (`classes` holding their bit lengths)
/// into `out`: bin plan and tables from the class histogram, the rANS
/// pass over the class bytes, then the offsets packed straight behind
/// the words.
// tac-lint: allow(panic, arith) -- encoder-only: a page is at most PAGE = 4096 values, which the scratch was sized for; classes are at most 64 and index the SYMBOL_SLOTS-entry tables; every count and size fits its wire type by that page bound.
fn encode_page(scratch: &mut EncodeScratch, z: &[u64], classes: &[u8], out: &mut Vec<u8>) {
    let EncodeScratch {
        words,
        syms,
        offsets,
    } = scratch;

    let table_span = tac_obs::span(tac_obs::Stage::AnsTable);
    let plan = bins::plan_bins(&class_histogram(classes), z.len() as u32);
    let counts: Vec<u32> = plan.iter().map(|b| b.count).collect();
    let weights = ans::normalize_weights(&counts);
    let mut cum = 0u32;
    let mut offset_bits = 0usize;
    for (b, &weight) in plan.iter().zip(&weights) {
        let sym = EncSym::new(weight, cum);
        let spec = OffsetSpec {
            lower: bins::class_lower(b.lo),
            width: bins::run_offset_bits(b.lo, b.hi),
        };
        let run = usize::from(b.lo)..=usize::from(b.hi);
        syms[run.clone()].fill(sym);
        offsets[run].fill(spec);
        cum += u32::from(weight);
        offset_bits += b.count as usize * spec.width as usize;
    }
    drop(table_span);
    tac_obs::add(tac_obs::Counter::AnsBins, plan.len());
    tac_obs::add(tac_obs::Counter::AnsPages, 1u64);

    let (seeds, words_at) = ans::encode(syms, classes, words);
    let words = &words[words_at..];

    out.push(plan.len() as u8);
    for (b, &w) in plan.iter().zip(&weights) {
        out.push(b.lo);
        out.push(b.hi);
        out.extend(w.to_le_bytes());
    }
    for x in seeds {
        out.extend(x.to_le_bytes());
    }
    out.extend((words.len() as u32).to_le_bytes());
    out.extend_from_slice(words);
    // The plan's counts fix the offset stream's length before a bit of
    // it is packed, so it goes straight into the output.
    let offset_bytes = offset_bits.div_ceil(8);
    out.extend((offset_bytes as u32).to_le_bytes());
    out.reserve(offset_bytes + 8);
    let packed_from = out.len();
    let mut sink = BitSink::new(out);
    for (&v, &c) in z.iter().zip(classes) {
        let spec = offsets[usize::from(c) % SYMBOL_SLOTS];
        sink.push(v - spec.lower, spec.width);
    }
    sink.finish();
    debug_assert_eq!(out.len() - packed_from, offset_bytes);
}

/// Element-generic encoder body: one pass over `data`, a page at a
/// time through [`encode_stream`] (the shared pcodec-style front end),
/// so the cost per value does not depend on the stream's
/// length and nothing the size of the stream is held besides the
/// output. A don't-care value codes delta 0 — the cheapest token of
/// its page — and is never an exception.
fn compress_impl<T: Element>(
    data: &[T],
    care: Option<&[bool]>,
    dims: Dims,
    cfg: &CodecConfig,
) -> Result<Vec<u8>, CodecError> {
    dims.validate(data.len())?;
    cfg.validate()?;
    check_care(care, data.len())?;
    let n = data.len();

    let header = Header::new::<T>(MAGIC, VERSION, dims, cfg.abs_eb);
    // tac-lint: allow(arith) -- writer-side capacity estimate over in-memory lengths; a wrong guess only costs a reallocation.
    let mut out = Vec::with_capacity(header.encoded_len() + 8 + n);
    header.encode(&mut out);
    let mut scratch = EncodeScratch::new(n.min(PAGE));
    encode_stream(data, care, cfg.abs_eb, PAGE, &mut out, |z, classes, out| {
        encode_page(&mut scratch, z, classes, out)
    });
    Ok(out)
}

/// The value mask for a `width`-bit offset read (all-ones below
/// `width`, zero for an empty read), precomputed per bin so the batch
/// loop applies it with one AND.
fn offset_mask(width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        u64::MAX >> 64u32.saturating_sub(width).min(63)
    }
}

/// Reads `width` bits at absolute bit position `bitpos` from an
/// LSB-first stream: one unaligned 64-bit gather, with a spill byte
/// only on the rare reads that straddle past 64 loaded bits, so the
/// batch loop carries no per-bit refill state. Past-the-end reads see
/// zero bits; the page-level offset-byte check rejects streams that
/// actually ran short. `mask` must be `offset_mask(width)`.
#[inline(always)]
fn read_bits(bytes: &[u8], bitpos: usize, width: u32, mask: u64) -> u64 {
    let at = bitpos >> 3;
    let shift = bitpos & 7;
    let lo = match bytes.get(at..at.wrapping_add(8)) {
        Some(s) => u64::from_le_bytes(s.try_into().unwrap_or([0u8; 8])),
        None => {
            // Stream tail: gather what remains, zero-padded.
            let mut acc = 0u64;
            let mut sh = 0u32;
            for &b in bytes.iter().skip(at).take(8) {
                acc |= u64::from(b) << sh;
                sh = sh.wrapping_add(8);
            }
            acc
        }
    };
    let v = if shift.wrapping_add(width as usize) <= 64 {
        lo >> shift
    } else {
        let hi = u64::from(bytes.get(at.wrapping_add(8)).copied().unwrap_or(0));
        (lo >> shift) | ((hi << (63 - shift)) << 1)
    };
    v & mask
}

/// Reusable per-stream decode state: the slot-indexed rANS table, the
/// token batch, and the bin-geometry lookups. The lookup arrays are
/// sized for the full `u8` token range so the batch loop's indexed
/// loads compile without bounds checks, and everything is rebuilt in
/// place per page — the page loop allocates nothing.
struct DecodeScratch {
    table: DecodeTable,
    tokens: [u8; BATCH],
    lowers: [u64; 256],
    widths: [u32; 256],
    masks: [u64; 256],
}

impl DecodeScratch {
    fn new() -> DecodeScratch {
        DecodeScratch {
            table: DecodeTable::new(),
            tokens: [0; BATCH],
            lowers: [0; 256],
            widths: [0; 256],
            masks: [0; 256],
        }
    }
}

/// Parses and validates one page's bin table into `scratch` (lower
/// bound and offset width per bin, plus the rANS decode table built
/// from the serialized weights), returning the bin count.
fn read_bin_table(b: &mut ByteReader, scratch: &mut DecodeScratch) -> Result<usize, CodecError> {
    let n_bins = usize::from(b.get_u8().map_err(|_| corrupt("page header truncated"))?);
    if n_bins == 0 || n_bins > CLASSES {
        return Err(corrupt(format!("page with {n_bins} bins")));
    }
    scratch.lowers = [0; 256];
    scratch.widths = [0; 256];
    scratch.masks = [0; 256];
    let mut weights = [0u16; CLASSES];
    let mut prev_hi: Option<u8> = None;
    for (((lw, wd), mk), wt) in scratch
        .lowers
        .iter_mut()
        .zip(scratch.widths.iter_mut())
        .zip(scratch.masks.iter_mut())
        .zip(weights.iter_mut())
        .take(n_bins)
    {
        let truncated = |_| corrupt("page bin table truncated");
        let lo = b.get_u8().map_err(truncated)?;
        let hi = b.get_u8().map_err(truncated)?;
        let weight = b.get_u16().map_err(truncated)?;
        if lo > hi || usize::from(hi) >= CLASSES || prev_hi.is_some_and(|p| lo <= p) {
            return Err(corrupt(format!("bin classes {lo}..={hi} out of order")));
        }
        prev_hi = Some(hi);
        *lw = bins::class_lower(lo);
        *wd = bins::run_offset_bits(lo, hi);
        *mk = offset_mask(*wd);
        *wt = weight;
    }
    scratch
        .table
        .fill(weights.get(..n_bins).unwrap_or_default())?;
    Ok(n_bins)
}

/// Decodes one page into `out` (exactly the page's values): batched
/// ANS token decode into SoA scratch, offset gathers, then value
/// reconstruction. Exceptions are patched by the caller after all
/// pages.
fn decode_page<T: Element>(
    b: &mut ByteReader,
    scratch: &mut DecodeScratch,
    prev: &mut i64,
    two_eb: f64,
    out: &mut [T],
) -> Result<(), CodecError> {
    let table_span = tac_obs::span(tac_obs::Stage::AnsTable);
    let n_bins = read_bin_table(b, scratch)?;
    drop(table_span);
    let truncated = |_| corrupt("page header truncated");
    let mut seeds = [0u32; LANES];
    for x in seeds.iter_mut() {
        *x = b.get_u32().map_err(truncated)?;
        if *x < RANS_L {
            return Err(corrupt("ANS seed state below the normalized interval"));
        }
    }
    let word_bytes = b.get_u32().map_err(truncated)? as usize;
    if word_bytes % 2 != 0 {
        return Err(corrupt(format!("odd ANS word byte count {word_bytes}")));
    }
    let words = b
        .get_bytes(word_bytes)
        .map_err(|_| corrupt("ANS words truncated"))?;
    let offset_bytes = b.get_u32().map_err(truncated)? as usize;
    let offsets = b
        .get_bytes(offset_bytes)
        .map_err(|_| corrupt("offset stream truncated"))?;

    let DecodeScratch {
        table,
        tokens,
        lowers,
        widths,
        masks,
    } = scratch;
    let mut dec = AnsDecoder::new(words, seeds);
    let mut bitpos = 0usize;
    let mut q = *prev;
    // All chunks but the last are the full (even) BATCH, which keeps
    // the decoder's lane parity aligned across calls.
    for chunk in out.chunks_mut(BATCH) {
        let Some(batch) = tokens.get_mut(..chunk.len()) else {
            return Err(corrupt("batch bound outran its scratch buffer"));
        };
        dec.decode_into(table, batch);
        for (slot, &t) in chunk.iter_mut().zip(batch.iter()) {
            let ti = usize::from(t);
            let w = widths.get(ti).copied().unwrap_or(0);
            let lower = lowers.get(ti).copied().unwrap_or(0);
            let mask = masks.get(ti).copied().unwrap_or(0);
            let zv = lower.wrapping_add(read_bits(offsets, bitpos, w, mask));
            bitpos = bitpos.wrapping_add(w as usize);
            q = q.wrapping_add(unzigzag(zv));
            *slot = T::from_f64(q as f64 * two_eb);
        }
    }
    if !dec.finished() {
        return Err(corrupt("ANS stream does not drain to its seed states"));
    }
    if bitpos.div_ceil(8) != offset_bytes {
        return Err(corrupt(format!(
            "offset stream holds {offset_bytes} bytes but decode consumed {bitpos} bits"
        )));
    }
    tac_obs::add(tac_obs::Counter::AnsPages, 1u64);
    tac_obs::add(tac_obs::Counter::AnsRenorms, dec.renorms());
    tac_obs::add(tac_obs::Counter::AnsBins, n_bins);
    *prev = q;
    Ok(())
}

/// Element-generic decoder body: the stream's dtype flag must match
/// `T`.
fn decompress_impl<T: Element>(bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
    // The only flag this wire sets is the dtype; any other bit is corrupt.
    let (head, rest) = Header::read::<T>(bytes, MAGIC, VERSION, FLAG_F32)
        .map_err(|e| header_error("pco-ans", e))?;
    let dims = head.dims;
    let two_eb = 2.0 * head.abs_eb;
    let n = dims.len();
    let mut b = ByteReader::new(rest);

    // Every page needs its fixed header plus at least one bin entry,
    // after the 8-byte exception count.
    let min_body = 8usize.saturating_add(
        n.div_ceil(PAGE)
            .saturating_mul(PAGE_FIXED_BYTES.saturating_add(BIN_BYTES)),
    );
    let exceptions = read_exceptions::<T>(&mut b, n, min_body)?;

    // Pages, through the batch kernel: values land directly in their
    // final slots, so the hot loop carries no capacity bookkeeping.
    let pack_span = tac_obs::span(tac_obs::Stage::Pack);
    let mut recon = vec![T::ZERO; n];
    let mut prev = 0i64;
    let mut scratch = DecodeScratch::new();
    for chunk in recon.chunks_mut(PAGE) {
        decode_page(&mut b, &mut scratch, &mut prev, two_eb, chunk)?;
    }
    drop(pack_span);
    patch_exceptions(&b, &mut recon, exceptions)?;
    Ok((recon, dims))
}

impl<T: Element> ScalarCodec<T> for PcoAns {
    fn compress(
        &self,
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<Vec<u8>, CodecError> {
        compress_impl(data, care, dims, cfg)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        decompress_impl(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ans::reference::AnsTable;
    use crate::pco::bit_len;
    use crate::pco::reference::{front_end, BitPacker};
    use crate::testdata::{draw, splitmix64, Family};
    use crate::CodecElement;
    use tac_dtype::TacDtype;

    fn roundtrip(data: &[f64], dims: Dims, eb: f64) -> Vec<f64> {
        let bytes = PcoAns
            .compress(data, None, dims, &CodecConfig::abs(eb))
            .unwrap();
        let (out, out_dims) = f64::codec_decompress(&PcoAns, &bytes).unwrap();
        assert_eq!(out_dims, dims);
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
        let bytes = PcoAns
            .compress(&data, None, Dims::D3(n, n, n), &cfg)
            .unwrap();
        let (out, _) = f64::codec_decompress(&PcoAns, &bytes).unwrap();
        check_bound(&data, &out, 1e-3);
        assert!(
            bytes.len() < data.len() * 8 / 4,
            "smooth data should compress 4x+, took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn constant_field_is_tiny() {
        let data = vec![42.5f64; 8192];
        let cfg = CodecConfig::abs(1e-6);
        let bytes = PcoAns.compress(&data, None, Dims::D1(8192), &cfg).unwrap();
        let (out, _) = f64::codec_decompress(&PcoAns, &bytes).unwrap();
        check_bound(&data, &out, 1e-6);
        assert!(
            bytes.len() < 200,
            "constant field took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn multi_page_streams_roundtrip() {
        // Crosses several page boundaries, including a partial tail
        // page and an odd final batch.
        let data: Vec<f64> = (0..3 * 4096 + 777)
            .map(|i| (i as f64 * 0.001).sin() * 50.0 + i as f64 * 0.01)
            .collect();
        let out = roundtrip(&data, Dims::D1(data.len()), 1e-4);
        check_bound(&data, &out, 1e-4);
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
    fn spiky_but_flat_data_stays_small() {
        // Mostly-flat signal with rare huge jumps: the spikes should
        // land in their own rare bin, not widen everything.
        let mut data = vec![1.0f64; 6000];
        for i in (0..6000).step_by(500) {
            data[i] = 1e6;
        }
        let cfg = CodecConfig::abs(1e-3);
        let bytes = PcoAns.compress(&data, None, Dims::D1(6000), &cfg).unwrap();
        let (out, _) = f64::codec_decompress(&PcoAns, &bytes).unwrap();
        check_bound(&data, &out, 1e-3);
        assert!(
            bytes.len() < 6000,
            "spiky-but-flat data took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn corrupt_streams_error_never_panic() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let bytes = PcoAns.compress(&data, None, Dims::D1(5000), &cfg).unwrap();
        let mut mutated = bytes.clone();
        for i in 0..mutated.len() {
            mutated[i] ^= 0xFF;
            let _ = f64::codec_decompress(&PcoAns, &mutated);
            mutated[i] ^= 0xFF;
        }
        for cut in 0..bytes.len().min(64) {
            assert!(
                f64::codec_decompress(&PcoAns, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        assert!(f64::codec_decompress(&PcoAns, &bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(f64::codec_decompress(&PcoAns, &extra).is_err());
    }

    #[test]
    fn bit_flips_never_decode_to_the_wrong_length() {
        // Whatever a flipped stream decodes to (if anything), the shape
        // contract must hold: `dims.len()` values, exactly.
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.02).cos() * 3.0).collect();
        let bytes = PcoAns
            .compress(&data, None, Dims::D1(2000), &CodecConfig::abs(1e-3))
            .unwrap();
        let mut mutated = bytes.clone();
        for i in (0..mutated.len()).step_by(7) {
            mutated[i] ^= 0x10;
            if let Ok((out, dims)) = f64::codec_decompress(&PcoAns, &mutated) {
                assert_eq!(out.len(), dims.len());
            }
            mutated[i] ^= 0x10;
        }
    }

    #[test]
    fn huge_declared_dims_error_instead_of_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0); // flags
        bytes.push(1); // rank
        bytes.extend((1u64 << 40).to_le_bytes()); // dim
        bytes.extend(1e-3f64.to_le_bytes()); // abs_eb
        bytes.extend(0u64.to_le_bytes()); // body: zero exceptions
        let err = f64::codec_decompress(&PcoAns, &bytes).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)), "{err}");
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let data = vec![1.0f64; 64];
        let mut bytes = PcoAns
            .compress(&data, None, Dims::D1(64), &CodecConfig::abs(1e-3))
            .unwrap();
        bytes[5] |= 0b0000_0100;
        assert!(matches!(
            f64::codec_decompress(&PcoAns, &bytes),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn foreign_magic_is_wrong_codec() {
        let sz = crate::codec_for(crate::CodecId::Sz)
            .compress(&[1.0; 8], None, Dims::D1(8), &CodecConfig::abs(1.0))
            .unwrap();
        assert!(matches!(
            f64::codec_decompress(&PcoAns, &sz),
            Err(CodecError::WrongCodec { .. })
        ));
    }

    #[test]
    fn f32_streams_roundtrip_and_stay_native_width() {
        let data: Vec<f32> = (0..5000)
            .map(|i| (i as f32 * 0.01).sin() * 4.0 + (i as f32 * 0.002).cos())
            .collect();
        let cfg = CodecConfig::abs(1e-3);
        let bytes = PcoAns.compress(&data, None, Dims::D1(5000), &cfg).unwrap();
        let (out, dims) = f32::codec_decompress(&PcoAns, &bytes).unwrap();
        assert_eq!(dims, Dims::D1(5000));
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!(
                (a as f64 - b as f64).abs() <= 1e-3 * (1.0 + 1e-6),
                "point {i}"
            );
        }
        // Wrong-width entry points reject.
        assert!(matches!(
            f64::codec_decompress(&PcoAns, &bytes),
            Err(CodecError::WrongDtype { .. })
        ));
    }

    #[test]
    fn f32_corrupt_streams_error_never_panic() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let bytes = PcoAns.compress(&data, None, Dims::D1(1000), &cfg).unwrap();
        let mut mutated = bytes.clone();
        for i in (0..mutated.len()).step_by(3) {
            mutated[i] ^= 0xFF;
            let _ = f32::codec_decompress(&PcoAns, &mutated);
            let _ = f64::codec_decompress(&PcoAns, &mutated);
            mutated[i] ^= 0xFF;
        }
        for cut in 0..bytes.len().min(64) {
            assert!(
                f32::codec_decompress(&PcoAns, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn read_bits_matches_a_reference_reader() {
        // Pack a known pattern and gather it back at every width.
        let mut packer = BitPacker::with_capacity(64);
        let widths = [3usize, 0, 64, 7, 13, 1, 57, 64, 5];
        let values = [
            0b101u64,
            0,
            0xDEAD_BEEF_CAFE_F00D,
            0x55,
            0x1ABC,
            1,
            0x00FF_EE11_2233_4455,
            u64::MAX,
            0x1F,
        ];
        for (&v, &w) in values.iter().zip(&widths) {
            packer.push(v, w);
        }
        let bytes = packer.finish();
        let mut bitpos = 0usize;
        for (&v, &w) in values.iter().zip(&widths) {
            let got = read_bits(&bytes, bitpos, w as u32, offset_mask(w as u32));
            assert_eq!(got, v, "width {w} at bit {bitpos}");
            bitpos += w;
        }
    }

    #[test]
    fn bit_sink_matches_the_reference_packer_and_read_bits_decodes_it() {
        let mut state = 0xB175u64;
        for round in 0..200 {
            let items: Vec<(u64, u32)> = (0..1 + splitmix64(&mut state) % 300)
                .map(|_| {
                    // Every width, biased towards the ones that spill the
                    // 64-bit accumulator.
                    let width = match splitmix64(&mut state) % 4 {
                        0 => 57 + splitmix64(&mut state) % 8,
                        _ => splitmix64(&mut state) % 65,
                    } as u32;
                    (splitmix64(&mut state) & offset_mask(width), width)
                })
                .collect();
            let mut packer = BitPacker::with_capacity(0);
            let mut bytes = vec![0xA5u8; round % 3]; // the sink appends
            let mut sink = BitSink::new(&mut bytes);
            for &(v, w) in &items {
                packer.push(v, w as usize);
                sink.push(v, w);
            }
            sink.finish();
            let packed = &bytes[round % 3..];
            assert_eq!(packed, packer.finish(), "round {round}");
            let mut bitpos = 0usize;
            for &(v, w) in &items {
                assert_eq!(read_bits(packed, bitpos, w, offset_mask(w)), v);
                bitpos += w as usize;
            }
            assert_eq!(bitpos.div_ceil(8), packed.len());
        }
    }

    /// One page through the encoder as it shipped before the page
    /// kernel: bin indices as tokens, the dividing rANS coder, the
    /// byte-at-a-time packer.
    fn reference_encode_page(z: &[u64], out: &mut Vec<u8>) {
        let mut hist = [0u32; CLASSES];
        for &v in z {
            hist[bit_len(v)] += 1;
        }
        let plan = bins::plan_bins(&hist, z.len() as u32);
        let counts: Vec<u32> = plan.iter().map(|b| b.count).collect();
        let weights = ans::normalize_weights(&counts);
        let table = AnsTable::from_weights(&weights).unwrap();
        let map = bins::class_to_bin(&plan);
        let lowers: Vec<u64> = plan.iter().map(|b| bins::class_lower(b.lo)).collect();
        let widths: Vec<u32> = plan
            .iter()
            .map(|b| bins::run_offset_bits(b.lo, b.hi))
            .collect();
        let tokens: Vec<u8> = z.iter().map(|&v| map[bit_len(v)]).collect();
        let (words, seeds) = ans::reference::encode(&table, &tokens);
        let mut packer = BitPacker::with_capacity(0);
        for (&v, &t) in z.iter().zip(&tokens) {
            packer.push(v - lowers[t as usize], widths[t as usize] as usize);
        }
        let offsets = packer.finish();

        out.push(plan.len() as u8);
        for (b, &w) in plan.iter().zip(&weights) {
            out.push(b.lo);
            out.push(b.hi);
            out.extend(w.to_le_bytes());
        }
        for x in seeds {
            out.extend(x.to_le_bytes());
        }
        out.extend((words.len() as u32).to_le_bytes());
        out.extend_from_slice(&words);
        out.extend((offsets.len() as u32).to_le_bytes());
        out.extend_from_slice(&offsets);
    }

    /// The whole stream the previous encoder wrote, with the
    /// reconstruction it promised, under the care mask `care`.
    fn reference_compress<T: Element>(
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        abs_eb: f64,
    ) -> (Vec<u8>, Vec<T>) {
        let (z, recon, exceptions) = front_end(data, care, abs_eb);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(if T::DTYPE == TacDtype::F32 {
            FLAG_F32
        } else {
            0
        });
        out.push(dims.rank());
        let axes = match dims {
            Dims::D1(a) => vec![a],
            Dims::D2(a, b) => vec![a, b],
            Dims::D3(a, b, c) => vec![a, b, c],
            Dims::D4(a, b, c, d) => vec![a, b, c, d],
        };
        for a in axes {
            out.extend((a as u64).to_le_bytes());
        }
        out.extend(abs_eb.to_le_bytes());
        out.extend((exceptions.len() as u64).to_le_bytes());
        for &(idx, v) in &exceptions {
            out.extend(idx.to_le_bytes());
            v.append_le(&mut out);
        }
        for page in z.chunks(PAGE) {
            reference_encode_page(page, &mut out);
        }
        (out, recon)
    }

    /// Holds the page kernel to the reference encoder's bytes on one
    /// stream, and the decoder to the reconstruction it promised.
    fn assert_matches_reference<T: CodecElement>(
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        eb: f64,
        what: &str,
    ) {
        let (want, want_recon) = reference_compress(data, care, dims, eb);
        let got = PcoAns
            .compress(data, care, dims, &CodecConfig::abs(eb))
            .unwrap();
        assert!(got == want, "{what}: stream differs from the reference");
        let (decoded, _) = T::codec_decompress(&PcoAns, &got).unwrap();
        assert_eq!(decoded.len(), data.len(), "{what}");
        for (a, b) in want_recon.iter().zip(&decoded) {
            assert_eq!(
                a.to_bits_u64(),
                b.to_bits_u64(),
                "{what}: recon promise broken"
            );
        }
    }

    #[test]
    fn page_kernel_emits_the_reference_encoders_bytes() {
        let lengths: Vec<usize> = (1..=9)
            .chain([PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 777])
            .collect();
        let mut state = 0x7AC17u64;
        let mut streams = 0usize;
        let mut masked = 0usize;
        let mut ranks = [0usize; 4];
        for seed in 0..3 {
            for family in Family::ALL {
                for &n in &lengths {
                    // Rank is metadata only; rotate it through the cases.
                    let rank = streams / 2 % 4;
                    let dims = match rank {
                        0 => Dims::D1(n),
                        1 => Dims::D2(n, 1),
                        2 => Dims::D3(1, n, 1),
                        _ => Dims::D4(1, 1, n, 1),
                    };
                    ranks[rank] += 1;
                    let what = format!("{family:?} x {n} seed {seed}");
                    // Every other stream is masked: don't-care runs and
                    // single cells, seeded like the data.
                    let care: Option<Vec<bool>> = (streams % 4 == 2).then(|| {
                        let mut run = 0u64;
                        (0..n)
                            .map(|_| {
                                if run == 0 {
                                    run = 1 + splitmix64(&mut state) % 97;
                                }
                                run -= 1;
                                (run / 13) % 2 == 0
                            })
                            .collect()
                    });
                    let care = care.as_deref();
                    let (d64, eb) = draw::<f64>(family, n, &mut state);
                    assert_matches_reference(&d64, care, dims, eb, &format!("f64 {what}"));
                    let (d32, eb) = draw::<f32>(family, n, &mut state);
                    assert_matches_reference(&d32, care, dims, eb, &format!("f32 {what}"));
                    masked += usize::from(care.is_some_and(|c| c.contains(&false))) * 2;
                    streams += 2;
                }
            }
        }
        assert!(streams >= 500, "only {streams} streams");
        assert!(masked >= 100, "only {masked} masked streams");
        assert!(ranks.iter().all(|&r| r > 0), "ranks {ranks:?}");
    }

    #[test]
    fn differential_families_reach_the_regimes_they_name() {
        // The differential test is only as good as its inputs: check the
        // ones whose regime is not obvious from the generator.
        let mut state = 9u64;
        let n = 3 * PAGE + 777;
        let page_plans = |z: &[u64]| -> Vec<Vec<bins::BinPlan>> {
            z.chunks(PAGE)
                .map(|page| bins::plan_bins(&class_histogram_of(page), page.len() as u32))
                .collect()
        };
        fn class_histogram_of(z: &[u64]) -> [u32; CLASSES] {
            let classes: Vec<u8> = z.iter().map(|&v| bit_len(v) as u8).collect();
            class_histogram(&classes)
        }

        let (noise, eb) = draw::<f64>(Family::WideNoise, n, &mut state);
        let (z, _, exceptions) = front_end(&noise, None, eb);
        assert!(exceptions.is_empty());
        let widths: Vec<u32> = page_plans(&z)
            .iter()
            .flatten()
            .map(|b| bins::run_offset_bits(b.lo, b.hi))
            .collect();
        assert!(
            widths.iter().all(|&w| (57..=64).contains(&w)),
            "offset widths {widths:?}"
        );

        let (constant, eb) = draw::<f32>(Family::Constant, n, &mut state);
        let (z, _, _) = front_end(&constant, None, eb);
        let plans = page_plans(&z);
        assert_eq!(plans[1].len(), 1, "a constant page is one bin");
        assert_eq!(ans::normalize_weights(&[plans[1][0].count]), [2048]);

        let (ties, eb) = draw::<f64>(Family::Ties, n, &mut state);
        let tie_count = ties
            .iter()
            .filter(|&&v| (v / (2.0 * eb)).fract().abs() == 0.5)
            .count();
        assert!(tie_count > n / 2, "{tie_count} exact ties");
        assert!(ties.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));

        let (tight, eb) = draw::<f32>(Family::AllExceptions, n, &mut state);
        assert_eq!(front_end(&tight, None, eb).2.len(), n);

        for family in [Family::ExceptionsAtPageEdges, Family::ExceptionRuns] {
            let (data, eb) = draw::<f64>(family, n, &mut state);
            let hit: Vec<u64> = front_end(&data, None, eb)
                .2
                .iter()
                .map(|&(i, _)| i)
                .collect();
            assert!(hit.len() >= 8, "{family:?}: {} exceptions", hit.len());
            if matches!(family, Family::ExceptionsAtPageEdges) {
                for edge in [0, PAGE - 1, PAGE, 2 * PAGE - 1, n - 1] {
                    assert!(hit.contains(&(edge as u64)), "no exception at {edge}");
                }
            } else {
                assert!(hit.windows(2).any(|w| w[1] == w[0] + 1), "no run");
            }
        }
    }
}
