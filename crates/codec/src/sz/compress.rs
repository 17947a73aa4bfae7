//! The SZ backend: prediction -> quantization -> Huffman -> lossless
//! backend, and its exact inverse.
//!
//! Compressor and decompressor share one traversal (`traverse`) that walks
//! the array in row-major order, computes the Lorenzo prediction from the
//! reconstructed buffer, and hands each point to a [`PointCodec`]. The
//! encoder quantizes real values; the decoder replays symbols. Both write
//! the identical reconstruction, which is what guarantees the error bound.

use crate::bitstream::{BitReader, BitWriter};
use crate::container::{Header, FLAG_LOSSLESS};
use crate::error::header_error;
use crate::huffman::HuffmanCode;
use crate::lossless;
use crate::predictor::{lorenzo_1d, lorenzo_2d, lorenzo_3d};
use crate::quantizer::{Quantized, Quantizer, UNPREDICTABLE};
use crate::regression::RegressionContext;
use crate::wire::ByteReader;
use crate::{check_care, CodecConfig, CodecError, Dims, ScalarCodec};
use tac_dtype::Element;

/// Stream magic number ("TAC SZ v1").
pub(crate) const MAGIC: [u8; 4] = *b"TSZ1";
/// Current format version.
pub(crate) const VERSION: u8 = 1;

/// The SZ-style predict–quantize–encode compressor: the default codec
/// and the implicit codec of every container written before the backend
/// layer existed.
///
/// Its two fields switch the optional stages; [`SzCodec::FULL`], with
/// both on, is what [`codec_for`](crate::codec_for) hands out and what
/// every shipped stream was written with. The decoder reads the stream
/// whichever were on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SzCodec {
    /// Whether to offer the encoded payload to the LZSS lossless stage
    /// (the pack is kept only when smaller).
    pub lossless: bool,
    /// Whether rank-3/4 inputs may use the SZ2-style per-block
    /// regression predictor (Lorenzo remains the fallback per block).
    /// Off gives SZ-1.4-style pure-Lorenzo streams.
    pub regression: bool,
}

impl SzCodec {
    /// Every stage on.
    pub const FULL: SzCodec = SzCodec {
        lossless: true,
        regression: true,
    };
}

impl<T: Element> ScalarCodec<T> for SzCodec {
    /// Monomorphized per element width, with no per-value dtype
    /// branches: `f32` streams set the header's `f32` flag and store
    /// verbatim values at 4 bytes each. Never fails on data content
    /// (NaN/Inf values are stored verbatim).
    ///
    /// A don't-care point codes the zero residual (it reconstructs as
    /// its prediction) and is never stored verbatim, and a regression
    /// block is fitted only where the block and its one-cell causal halo
    /// (the cells at `x - 1`, `y - 1`, `z - 1` inside the slab) are all
    /// care, so the stream does not depend on any don't-care value.
    fn compress(
        &self,
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<Vec<u8>, CodecError> {
        compress_with::<T, Shipped>(self, data, care, dims, cfg, CAPACITY).map(|(bytes, _)| bytes)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        decompress_with::<T, Shipped>(bytes)
    }
}

/// The entropy and lossless stages of a stream, both ways. The
/// pipeline is generic over them so the differential tests can run the
/// stages every stream used to go through behind the same front end;
/// [`Shipped`] is the only back end outside tests.
trait BackEnd {
    /// Writes the Huffman table of `symbols` to `table` and returns
    /// their bits and bit length.
    fn encode_symbols(symbols: &[u32], table: &mut Vec<u8>) -> (Vec<u8>, u64);
    /// Decodes `n` symbols from `bits`, which holds `bit_len` valid bits.
    fn decode_symbols(
        code: &HuffmanCode,
        bits: &[u8],
        bit_len: u64,
        n: usize,
    ) -> Result<Vec<u32>, CodecError>;
    /// The LZSS pack of a payload.
    fn pack(payload: &[u8]) -> Vec<u8>;
    /// The payload of an LZSS-packed body.
    fn unpack(body: &[u8]) -> Result<Vec<u8>, CodecError>;
}

/// The back end every stream is written and read with.
struct Shipped;

impl BackEnd for Shipped {
    fn encode_symbols(symbols: &[u32], table: &mut Vec<u8>) -> (Vec<u8>, u64) {
        let huffman = HuffmanCode::from_symbols(symbols);
        huffman.serialize_table(table);
        let mut writer = BitWriter::with_capacity(symbols.len() / 4);
        huffman.encode(symbols, &mut writer);
        writer.finish()
    }

    fn decode_symbols(
        code: &HuffmanCode,
        bits: &[u8],
        bit_len: u64,
        n: usize,
    ) -> Result<Vec<u32>, CodecError> {
        code.decode(&mut BitReader::new(bits, bit_len)?, n)
    }

    fn pack(payload: &[u8]) -> Vec<u8> {
        lossless::compress(payload)
    }

    fn unpack(body: &[u8]) -> Result<Vec<u8>, CodecError> {
        lossless::decompress(body)
    }
}

/// Per-point behaviour plugged into the shared traversal.
///
/// Generic over the element type: predictions are always `f64` working
/// precision, but the stored reconstruction is the element's native width
/// so encoder and decoder narrow identically.
trait PointCodec<T: Element> {
    /// Processes the point at flat index `idx` with prediction `pred`,
    /// returning the reconstructed value to store.
    fn process(&mut self, idx: usize, pred: f64) -> Result<T, CodecError>;
}

/// Encoder-side codec: quantizes the original data. A point `care`
/// marks don't-care codes the zero residual and reconstructs as its
/// prediction — what the decoder computes from that symbol — without
/// reading its value.
struct Encoder<'a, T: Element> {
    data: &'a [T],
    care: Option<&'a [bool]>,
    quantizer: Quantizer,
    symbols: Vec<u32>,
    raws: Vec<T>,
}

impl<T: Element> PointCodec<T> for Encoder<'_, T> {
    #[inline]
    // tac-lint: allow(panic) -- encoder over in-memory data: the traversal only produces idx < dims.len() == data.len() == care.len(), validated before entry.
    fn process(&mut self, idx: usize, pred: f64) -> Result<T, CodecError> {
        if self.care.is_some_and(|care| !care[idx]) {
            let zero = self.quantizer.zero_symbol();
            self.symbols.push(zero);
            return Ok(self.quantizer.recover(zero, pred));
        }
        let v = self.data[idx];
        let (q, recon) = self.quantizer.quantize(v, pred);
        match q {
            Quantized::Code(sym) => self.symbols.push(sym),
            Quantized::Unpredictable => {
                self.symbols.push(UNPREDICTABLE);
                self.raws.push(v);
            }
        }
        Ok(recon)
    }
}

/// Decoder-side codec: replays the symbol stream.
struct Decoder<'a, T: Element> {
    quantizer: Quantizer,
    symbols: &'a [u32],
    raws: &'a [T],
    next_raw: usize,
}

impl<T: Element> PointCodec<T> for Decoder<'_, T> {
    #[inline]
    fn process(&mut self, idx: usize, pred: f64) -> Result<T, CodecError> {
        let sym = *self
            .symbols
            .get(idx)
            .ok_or_else(|| CodecError::Corrupt("symbol stream exhausted".into()))?;
        if sym == UNPREDICTABLE {
            let v = *self
                .raws
                .get(self.next_raw)
                .ok_or_else(|| CodecError::Corrupt("raw value stream exhausted".into()))?;
            self.next_raw += 1;
            Ok(v)
        } else {
            Ok(self.quantizer.recover(sym, pred))
        }
    }
}

/// Walks the array row-major (x fastest), predicting each point from the
/// reconstructed buffer — or from a block's regression plane when its
/// slab context says so — and delegating to the codec. `contexts` holds
/// one optional regression context per 3D slab (one for `D3`, `nw` for
/// `D4`, none for ranks 1-2).
// tac-lint: allow(panic) -- shared encode/decode walk: recon.len() == dims.len() is validated by both callers, and every index stays below it by the loop bounds.
fn traverse<T: Element, C: PointCodec<T>>(
    dims: Dims,
    recon: &mut [T],
    contexts: &[Option<RegressionContext>],
    codec: &mut C,
) -> Result<(), CodecError> {
    match dims {
        Dims::D1(n) => {
            for i in 0..n {
                let pred = lorenzo_1d(recon, i);
                recon[i] = codec.process(i, pred)?;
            }
        }
        Dims::D2(nx, ny) => {
            for y in 0..ny {
                for x in 0..nx {
                    let idx = x + nx * y;
                    let pred = lorenzo_2d(recon, nx, x, y);
                    recon[idx] = codec.process(idx, pred)?;
                }
            }
        }
        Dims::D3(nx, ny, nz) => {
            traverse_3d(
                nx,
                ny,
                nz,
                0,
                recon,
                contexts.first().and_then(|c| c.as_ref()),
                codec,
            )?;
        }
        Dims::D4(nx, ny, nz, nw) => {
            // Batched 3D: prediction never crosses the w axis.
            let block = nx * ny * nz;
            for w in 0..nw {
                let ctx = contexts.get(w).and_then(|c| c.as_ref());
                traverse_3d(nx, ny, nz, w * block, recon, ctx, codec)?;
            }
        }
    }
    Ok(())
}

// tac-lint: allow(panic, arith) -- shared encode/decode walk: base + nx*ny*nz <= recon.len() holds for every slab by the callers' dims validation, and x + nx*(y + ny*z) < nx*ny*nz by the loop bounds.
fn traverse_3d<T: Element, C: PointCodec<T>>(
    nx: usize,
    ny: usize,
    nz: usize,
    base: usize,
    recon: &mut [T],
    ctx: Option<&RegressionContext>,
    codec: &mut C,
) -> Result<(), CodecError> {
    let grid = &mut recon[base..base + nx * ny * nz];
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let idx = x + nx * (y + ny * z);
                let pred = match ctx.and_then(|c| c.predict(x, y, z)) {
                    Some(p) => p,
                    None => lorenzo_3d(grid, nx, ny, x, y, z),
                };
                grid[idx] = codec.process(base + idx, pred)?;
            }
        }
    }
    Ok(())
}

/// Builds encoder-side regression contexts (one per 3D slab) when the
/// configuration enables them and the rank is 3 or 4, each over its
/// slab's part of `care`.
// tac-lint: allow(panic) -- encoder-only: slab slices cover exactly data.len() == care.len() == nx*ny*nz*nw, validated before entry.
fn build_contexts<T: Element>(
    data: &[T],
    care: Option<&[bool]>,
    dims: Dims,
    abs_eb: f64,
    enabled: bool,
) -> Vec<Option<RegressionContext>> {
    if !enabled {
        return Vec::new();
    }
    let (nx, ny, nz, nw) = match dims {
        Dims::D3(nx, ny, nz) => (nx, ny, nz, 1),
        Dims::D4(nx, ny, nz, nw) => (nx, ny, nz, nw),
        _ => return Vec::new(),
    };
    let block = nx * ny * nz;
    (0..nw)
        .map(|w| {
            let slab = w * block..(w + 1) * block;
            let care = care.map(|care| &care[slab.clone()]);
            Some(RegressionContext::build(
                &data[slab],
                care,
                nx,
                ny,
                nz,
                abs_eb,
            ))
        })
        .collect()
}

/// Quantization bins every stream is written with: code 0 is reserved
/// for "unpredictable", codes `1..CAPACITY` map to
/// `[-radius+1, radius-1]` where `radius = CAPACITY / 2` (SZ's default).
/// The stream stores it, and the decoder reads whatever value it holds.
const CAPACITY: u32 = 65536;

/// The encoder over the back end `B`, writing `capacity` quantization
/// bins: the stream, and the reconstruction the predictor read, which
/// is what the decoder will produce.
fn compress_with<T: Element, B: BackEnd>(
    sz: &SzCodec,
    data: &[T],
    care: Option<&[bool]>,
    dims: Dims,
    cfg: &CodecConfig,
    capacity: u32,
) -> Result<(Vec<u8>, Vec<T>), CodecError> {
    cfg.validate()?;
    check_care(care, data.len())?;
    dims.validate(data.len())?;
    let abs_eb = cfg.abs_eb;
    let quantizer = Quantizer::new(abs_eb, capacity as usize);
    let contexts = build_contexts(data, care, dims, abs_eb, sz.regression);
    if tac_obs::enabled() {
        // Predictor mix: regression vs. Lorenzo blocks, per slab.
        for ctx in contexts.iter().flatten() {
            let regression_blocks = ctx.modes.iter().filter(|&&m| m).count();
            tac_obs::add(tac_obs::Counter::SzBlocksRegression, regression_blocks);
            tac_obs::add(
                tac_obs::Counter::SzBlocksLorenzo,
                ctx.modes.len().saturating_sub(regression_blocks),
            );
        }
    }

    let mut recon = vec![T::ZERO; data.len()];
    let mut enc = Encoder {
        data,
        care,
        quantizer,
        symbols: Vec::with_capacity(data.len()),
        raws: Vec::new(),
    };
    {
        let _quantize = tac_obs::span(tac_obs::Stage::Quantize);
        traverse(dims, &mut recon, &contexts, &mut enc)?;
    }
    let Encoder { symbols, raws, .. } = enc;
    if tac_obs::enabled() {
        // Don't-care points code a symbol but quantize nothing.
        let dont_care = care.map_or(0, |care| care.iter().filter(|&&c| !c).count());
        tac_obs::add(tac_obs::Counter::SzQuantMisses, raws.len());
        tac_obs::add(
            tac_obs::Counter::SzQuantHits,
            symbols
                .len()
                .saturating_sub(raws.len())
                .saturating_sub(dont_care),
        );
    }

    // Predictor side-section: tag + per-slab serialized contexts.
    let mut pred_section = Vec::new();
    if contexts.is_empty() {
        pred_section.push(0u8);
    } else {
        pred_section.push(1u8);
        for ctx in contexts.iter().flatten() {
            ctx.serialize(abs_eb, &mut pred_section);
        }
    }

    // Payload: raw count + raw values (element-native width) + predictor
    // section + Huffman table + bit length + bits.
    let mut table = Vec::new();
    let (bits, bit_len) = {
        let _entropy = tac_obs::span(tac_obs::Stage::Entropy);
        B::encode_symbols(&symbols, &mut table)
    };

    // tac-lint: allow(arith) -- writer-side capacity estimate over in-memory section lengths; a wrong guess only costs a reallocation.
    let mut payload = Vec::with_capacity(
        8 + raws.len() * T::WIRE_BYTES + pred_section.len() + 8 + table.len() + 8 + bits.len(),
    );
    payload.extend_from_slice(&(raws.len() as u64).to_le_bytes());
    for &r in &raws {
        r.append_le(&mut payload);
    }
    payload.extend_from_slice(&(pred_section.len() as u64).to_le_bytes());
    payload.extend_from_slice(&pred_section);
    payload.extend_from_slice(&table);
    payload.extend_from_slice(&bit_len.to_le_bytes());
    payload.extend_from_slice(&bits);

    let mut header = Header::new::<T>(MAGIC, VERSION, dims, abs_eb);
    let body = if sz.lossless {
        let packed = {
            let _lossless = tac_obs::span(tac_obs::Stage::Lossless);
            B::pack(&payload)
        };
        // The pack is kept only when it is smaller: the two counters
        // show how much of the stage's input was worth packing.
        tac_obs::add(tac_obs::Counter::SzLosslessBytesIn, payload.len());
        if packed.len() < payload.len() {
            tac_obs::add(tac_obs::Counter::SzLosslessBytesKept, payload.len());
            header.flags |= FLAG_LOSSLESS;
            packed
        } else {
            payload
        }
    } else {
        payload
    };

    // tac-lint: allow(arith) -- writer-side capacity estimate over in-memory lengths.
    let mut out = Vec::with_capacity(header.encoded_len() + 4 + body.len());
    header.encode(&mut out);
    out.extend_from_slice(&capacity.to_le_bytes());
    out.extend_from_slice(&body);
    Ok((out, recon))
}

/// The decoder over the back end `B`. The stream's dtype flag must match
/// `T`: another width is [`CodecError::WrongDtype`].
fn decompress_with<T: Element, B: BackEnd>(bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
    // Unknown flag bits have always been ignored on this wire.
    let (header, rest) =
        Header::read::<T>(bytes, MAGIC, VERSION, u8::MAX).map_err(|e| header_error("sz", e))?;
    let mut r = ByteReader::new(rest);
    let capacity = r
        .get_u32()
        .map_err(|_| CodecError::Corrupt("header truncated".into()))?;
    if capacity < 4 || capacity % 2 != 0 {
        return Err(CodecError::Corrupt(format!(
            "invalid stored capacity {capacity}"
        )));
    }
    let body = r.rest();
    let payload_owned;
    let payload: &[u8] = if header.flags & FLAG_LOSSLESS != 0 {
        payload_owned = {
            let _lossless = tac_obs::span(tac_obs::Stage::Lossless);
            B::unpack(body)?
        };
        &payload_owned
    } else {
        body
    };

    let n = header.dims.len();
    let mut r = ByteReader::new(payload);

    let n_raw = r.get_u64()? as usize;
    // Both bounds matter: `n` caps the semantic count, the payload length
    // caps the up-front allocation (a crafted count must not reserve
    // gigabytes before the reads start failing).
    if n_raw > n || n_raw.saturating_mul(T::WIRE_BYTES) > r.remaining() {
        return Err(CodecError::Corrupt(format!(
            "{n_raw} raw values for {n} points in a {}-byte payload",
            payload.len()
        )));
    }
    let mut raws = Vec::with_capacity(n_raw);
    for _ in 0..n_raw {
        let chunk = r.get_bytes(T::WIRE_BYTES)?;
        let v =
            T::read_le(chunk).ok_or_else(|| CodecError::Corrupt("raw value truncated".into()))?;
        raws.push(v);
    }

    // Predictor side-section.
    let pred_len = r.get_u64()? as usize;
    let pred_section = r.get_bytes(pred_len)?;
    let pred_tag = pred_section.first().copied();
    let contexts: Vec<Option<RegressionContext>> = match pred_tag {
        None => return Err(CodecError::Corrupt("missing predictor section".into())),
        Some(0) => Vec::new(),
        Some(1) => {
            let slab_dims = match header.dims {
                Dims::D3(nx, ny, nz) => Some((nx, ny, nz, 1usize)),
                Dims::D4(nx, ny, nz, nw) => Some((nx, ny, nz, nw)),
                _ => None,
            };
            let (nx, ny, nz, nw) = slab_dims
                .ok_or_else(|| CodecError::Corrupt("regression on rank < 3 stream".into()))?;
            // Every serialized context occupies at least one byte, so a
            // crafted D4 header whose batch axis dwarfs the predictor
            // section must fail here — not in a `with_capacity(nw)` that
            // tries to reserve hundreds of gigabytes.
            if nw > pred_section.len() {
                return Err(CodecError::Corrupt(format!(
                    "{nw} regression slabs cannot fit a {}-byte predictor section",
                    pred_section.len()
                )));
            }
            let mut off = 1usize;
            let mut ctxs = Vec::with_capacity(nw);
            for _ in 0..nw {
                let section = pred_section
                    .get(off..)
                    .ok_or_else(|| CodecError::Corrupt("predictor section truncated".into()))?;
                let (ctx, used) =
                    RegressionContext::deserialize(section, nx, ny, nz, header.abs_eb)?;
                off = off
                    .checked_add(used)
                    .ok_or_else(|| CodecError::Corrupt("predictor cursor overflow".into()))?;
                ctxs.push(Some(ctx));
            }
            if off != pred_section.len() {
                return Err(CodecError::Corrupt(
                    "predictor section has trailing bytes".into(),
                ));
            }
            ctxs
        }
        Some(tag) => {
            return Err(CodecError::Corrupt(format!("unknown predictor tag {tag}")));
        }
    };

    let entropy_span = tac_obs::span(tac_obs::Stage::Entropy);
    let (huffman, table_len) = HuffmanCode::deserialize_table(r.rest())?;
    r.skip(table_len)?;
    let bit_len = r.get_u64()?;
    // Every Huffman codeword is at least one bit, so `n` symbols need at
    // least `n` bits. Checking before decoding keeps a crafted header's
    // declared point count from driving a huge symbol-buffer allocation
    // backed by a tiny bit stream.
    if (n as u64) > bit_len {
        return Err(CodecError::Corrupt(format!(
            "{n} points cannot decode from a {bit_len}-bit stream"
        )));
    }
    let symbols = B::decode_symbols(&huffman, r.rest(), bit_len, n)?;
    drop(entropy_span);

    let quantizer = Quantizer::new(header.abs_eb, capacity as usize);
    let mut recon = vec![T::ZERO; n];
    let mut dec = Decoder {
        quantizer,
        symbols: &symbols,
        raws: &raws,
        next_raw: 0,
    };
    {
        let _quantize = tac_obs::span(tac_obs::Stage::Quantize);
        traverse(header.dims, &mut recon, &contexts, &mut dec)?;
    }
    if dec.next_raw != raws.len() {
        return Err(CodecError::Corrupt(format!(
            "{} raw values unused",
            raws.len() - dec.next_raw
        )));
    }
    Ok((recon, header.dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorBound;
    use tac_dtype::TacDtype;

    /// No LZSS stage.
    const NO_LZSS: SzCodec = SzCodec {
        lossless: false,
        ..SzCodec::FULL
    };

    /// No regression predictor.
    const NO_REGRESSION: SzCodec = SzCodec {
        regression: false,
        ..SzCodec::FULL
    };

    /// The stream every stage writes.
    fn compress<T: Element>(
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        cfg: &CodecConfig,
    ) -> Result<Vec<u8>, CodecError> {
        SzCodec::FULL.compress(data, care, dims, cfg)
    }

    fn decompress<T: Element>(bytes: &[u8]) -> Result<(Vec<T>, Dims), CodecError> {
        decompress_with::<T, Shipped>(bytes)
    }

    fn smooth_3d(n: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(n * n * n);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let (xf, yf, zf) = (x as f64, y as f64, z as f64);
                    v.push((xf * 0.2).sin() * (yf * 0.15).cos() + (zf * 0.1).sin() * 2.0);
                }
            }
        }
        v
    }

    /// A configuration whose bound is `rel` times the finite value range
    /// of `data`, resolved the way a caller resolves it.
    fn rel<T: Element>(data: &[T], rel: f64) -> CodecConfig {
        let (min, max) = data
            .iter()
            .filter(|v| v.is_finite())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v.to_f64()), hi.max(v.to_f64()))
            });
        let (min, max) = if min.is_finite() {
            (min, max)
        } else {
            (0.0, 0.0)
        };
        CodecConfig::abs(
            ErrorBound::Rel(rel)
                .resolve_for(min, max, T::DTYPE)
                .unwrap(),
        )
    }

    fn stream_dtype(bytes: &[u8]) -> Option<TacDtype> {
        Header::peek(bytes).map(|(_, _, dtype)| dtype)
    }

    fn check_bound(orig: &[f64], recon: &[f64], eb: f64) {
        for (i, (&a, &b)) in orig.iter().zip(recon).enumerate() {
            if a.is_finite() {
                assert!((a - b).abs() <= eb * (1.0 + 1e-12), "point {i}: {a} vs {b}");
            } else {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "non-finite point {i} must be exact"
                );
            }
        }
    }

    /// The back end every stream went through before the table kernels
    /// and the chain ring.
    struct Reference;

    impl BackEnd for Reference {
        fn encode_symbols(symbols: &[u32], table: &mut Vec<u8>) -> (Vec<u8>, u64) {
            let huffman = crate::huffman::reference::HuffmanCode::from_symbols(symbols);
            huffman.serialize_table(table);
            let mut writer = crate::bitstream::reference::BitWriter::with_capacity(0);
            huffman.encode(symbols, &mut writer);
            writer.finish()
        }

        fn decode_symbols(
            code: &HuffmanCode,
            bits: &[u8],
            bit_len: u64,
            n: usize,
        ) -> Result<Vec<u32>, CodecError> {
            let mut reader = crate::bitstream::reference::BitReader::new(bits, bit_len)?;
            crate::huffman::reference::HuffmanCode::from_table(code).decode(&mut reader, n)
        }

        fn pack(payload: &[u8]) -> Vec<u8> {
            lossless::reference::compress(payload)
        }

        fn unpack(body: &[u8]) -> Result<Vec<u8>, CodecError> {
            lossless::reference::decompress(body)
        }
    }

    /// One input per rank, smooth with a few spikes so the streams
    /// carry raw values and a range of code lengths.
    fn rank_inputs() -> Vec<(Vec<f64>, Dims)> {
        let spiky = |n: usize| -> Vec<f64> {
            let mut v = smooth_3d(16);
            v.truncate(n);
            for k in (0..n).step_by(97) {
                v[k] += 50.0 * ((k % 7) as f64 - 3.0);
            }
            v
        };
        vec![
            (spiky(3000), Dims::D1(3000)),
            (spiky(40 * 30), Dims::D2(40, 30)),
            (spiky(16 * 16 * 16), Dims::D3(16, 16, 16)),
            (spiky(6 * 7 * 8 * 3), Dims::D4(6, 7, 8, 3)),
        ]
    }

    /// The last bound puts the spikes' codes far outside the default
    /// window, so those streams carry raw values.
    fn configs() -> Vec<(SzCodec, CodecConfig)> {
        vec![
            (SzCodec::FULL, CodecConfig::abs(1e-3)),
            (NO_LZSS, CodecConfig::abs(1e-3)),
            (SzCodec::FULL, CodecConfig::abs(1e-5)),
            (NO_REGRESSION, CodecConfig::abs(1e-2)),
            (SzCodec::FULL, CodecConfig::abs(1e-6)),
        ]
    }

    fn same_streams<T: Element>(
        data: &[T],
        dims: Dims,
        (sz, cfg): (SzCodec, CodecConfig),
        capacity: u32,
    ) {
        same_masked_streams(data, None, dims, (sz, cfg), capacity);
    }

    /// [`same_streams`] under a care mask; the decode must also give
    /// back exactly the reconstruction the encoder predicted from, the
    /// don't-care points included.
    fn same_masked_streams<T: Element>(
        data: &[T],
        care: Option<&[bool]>,
        dims: Dims,
        (sz, cfg): (SzCodec, CodecConfig),
        capacity: u32,
    ) {
        let (a, ra) = compress_with::<T, Shipped>(&sz, data, care, dims, &cfg, capacity).unwrap();
        let (b, rb) = compress_with::<T, Reference>(&sz, data, care, dims, &cfg, capacity).unwrap();
        assert!(a == b, "{dims:?} {sz:?} {cfg:?}: stream differs");
        let (decoded, _) = decompress::<T>(&a).unwrap();
        assert!(decoded
            .iter()
            .zip(&ra)
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()));
        assert!(
            ra == rb
                || ra
                    .iter()
                    .zip(&rb)
                    .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
        );
        let (x, _) = decompress_with::<T, Shipped>(&a).unwrap();
        let (y, _) = decompress_with::<T, Reference>(&a).unwrap();
        assert!(x
            .iter()
            .zip(&y)
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()));
    }

    /// A care mask with don't-care runs of every length up to a few
    /// regression blocks, and isolated don't-care points.
    fn striped_care(n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| {
                let h = (i as u64 + 7).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
                (i / 50) % 3 != 1 && h != 0
            })
            .collect()
    }

    /// `data` with every don't-care point rewritten to junk that no
    /// care point could code: NaN, infinities, 1e300 and noise.
    fn junk_at<T: Element>(data: &[T], care: &[bool]) -> Vec<T> {
        let junk = [f64::NAN, f64::INFINITY, -1e300, 1e300, f64::NEG_INFINITY];
        (data.iter().zip(care).enumerate())
            .map(|(i, (&v, &c))| if c { v } else { T::from_f64(junk[i % 5]) })
            .collect()
    }

    /// The raw-value count of a stream written without its LZSS stage.
    fn raw_count(bytes: &[u8]) -> u64 {
        let (_, rest) = Header::read::<f64>(bytes, MAGIC, VERSION, u8::MAX).unwrap();
        u64::from_le_bytes(rest[4..12].try_into().unwrap())
    }

    #[test]
    fn masked_streams_match_reference_back_end() {
        for (data, dims) in rank_inputs() {
            let care = striped_care(data.len());
            let junk = junk_at(&data, &care);
            let data32: Vec<f32> = junk.iter().map(|&v| v as f32).collect();
            for setup in configs() {
                same_masked_streams::<f64>(&junk, Some(&care), dims, setup, CAPACITY);
                same_masked_streams::<f32>(&data32, Some(&care), dims, setup, CAPACITY);
            }
        }
    }

    #[test]
    fn an_all_true_mask_writes_the_unmasked_bytes() {
        for (data, dims) in rank_inputs() {
            let all = vec![true; data.len()];
            for (sz, cfg) in configs() {
                let plain = sz.compress(&data, None, dims, &cfg).unwrap();
                assert!(sz.compress(&data, Some(&all), dims, &cfg).unwrap() == plain);
            }
        }
    }

    #[test]
    fn a_mask_of_another_length_is_rejected() {
        let data = smooth_3d(4);
        for len in [0, 63, 65] {
            let short = compress(
                &data,
                Some(&vec![true; len]),
                Dims::D1(64),
                &CodecConfig::abs(1e-3),
            );
            assert!(
                matches!(short, Err(CodecError::InvalidConfig(_))),
                "a {len}-flag mask over 64 values"
            );
        }
    }

    #[test]
    fn dont_care_points_cost_no_raw_value_and_care_points_keep_the_bound() {
        for (data, dims) in rank_inputs() {
            let care = striped_care(data.len());
            let junk = junk_at(&data, &care);
            // At this bound the spikes code without a raw value, so
            // every raw value would be the junk's.
            let cfg = CodecConfig::abs(1e-2);
            let bytes = NO_LZSS.compress(&junk, Some(&care), dims, &cfg).unwrap();
            let clean = NO_LZSS.compress(&data, Some(&care), dims, &cfg).unwrap();
            assert!(
                bytes == clean,
                "{dims:?}: a don't-care value reached the stream"
            );
            assert_eq!(raw_count(&bytes), 0, "{dims:?}");
            let plain = NO_LZSS.compress(&junk, None, dims, &cfg).unwrap();
            assert!(
                raw_count(&plain) > 0 && bytes.len() < plain.len(),
                "{dims:?}"
            );
            let (out, _) = decompress::<f64>(&bytes).unwrap();
            for (i, ((&a, &b), &c)) in data.iter().zip(&out).zip(&care).enumerate() {
                assert!(
                    !c || (a - b).abs() <= 1e-2,
                    "{dims:?} point {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn regression_blocks_read_no_dont_care_value() {
        // One absent cell in the causal halo of a block, or inside it,
        // must not move the bytes whatever it holds: such blocks keep
        // Lorenzo. Cells at x, y or z = 5 are the halo of the blocks
        // starting at 6, so every probe sits next to a block boundary.
        let n = 18;
        let data = smooth_3d(n);
        let cfg = CodecConfig::abs(1e-4);
        for probe in [
            (5, 7, 7),
            (7, 5, 7),
            (7, 7, 5),
            (5, 5, 5),
            (8, 8, 8),
            (0, 0, 0),
        ] {
            let at = probe.0 + n * (probe.1 + n * probe.2);
            let mut care = vec![true; data.len()];
            care[at] = false;
            let streams: Vec<Vec<u8>> = [0.0, 1e6, -3.5]
                .iter()
                .map(|&v| {
                    let mut junk = data.clone();
                    junk[at] = v;
                    compress(&junk, Some(&care), Dims::D3(n, n, n), &cfg).unwrap()
                })
                .collect();
            assert!(streams.windows(2).all(|w| w[0] == w[1]), "probe {probe:?}");
        }
    }

    #[test]
    fn streams_match_reference_back_end() {
        for (data, dims) in rank_inputs() {
            let data32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            for setup in configs() {
                same_streams::<f64>(&data, dims, setup, CAPACITY);
                same_streams::<f32>(&data32, dims, setup, CAPACITY);
            }
            // A stored capacity other than the writer's decodes too.
            same_streams::<f64>(&data, dims, (SzCodec::FULL, CodecConfig::abs(1e-4)), 64);
        }
        // A constant field (one-symbol alphabet) and white noise (wide).
        let constant = [7.25; 4096];
        same_streams::<f64>(
            &constant,
            Dims::D3(16, 16, 16),
            (SzCodec::FULL, rel(&constant, 1e-4)),
            CAPACITY,
        );
        let noise: Vec<f64> = (0..4096u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        for cfg in [CodecConfig::abs(1e-9), CodecConfig::abs(1e-3)] {
            same_streams::<f64>(&noise, Dims::D1(4096), (SzCodec::FULL, cfg), CAPACITY);
        }
    }

    /// Streams past the chain ring's window and with long-tailed code
    /// lengths; a release build (CI's release step) runs them at 2^20
    /// values, a debug build at 2^14.
    #[test]
    fn large_streams_match_reference_back_end() {
        let n = if cfg!(debug_assertions) {
            1 << 14
        } else {
            1 << 20
        };
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64;
                (x * 1e-3).sin() * 40.0 + (x * 0.37).cos() + ((i * 7919) % 1009) as f64 * 1e-3
            })
            .collect();
        for r in [1e-5, 1e-3] {
            same_streams::<f64>(&data, Dims::D1(n), (SzCodec::FULL, rel(&data, r)), CAPACITY);
        }
        let side = if cfg!(debug_assertions) { 24 } else { 96 };
        let cube: Vec<f32> = data
            .iter()
            .take(side * side * side)
            .map(|&v| v as f32)
            .collect();
        same_streams::<f32>(
            &cube,
            Dims::D3(side, side, side),
            (SzCodec::FULL, rel(&cube, 1e-4)),
            CAPACITY,
        );
    }

    /// Every truncation and every single-byte mutation (four flips per
    /// byte) of a few packed streams decodes as the reference back end
    /// does: the same values or the same error kind. The one change: an
    /// LZSS body with bytes after its last token is `Corrupt`, where the
    /// reference read it.
    #[test]
    fn decode_errors_match_reference_back_end() {
        let d3 = smooth_3d(6);
        let mut streams = vec![
            compress(&d3, None, Dims::D3(6, 6, 6), &CodecConfig::abs(1e-3)).unwrap(),
            NO_LZSS
                .compress(&d3, None, Dims::D1(216), &CodecConfig::abs(1e-2))
                .unwrap(),
            compress(&d3, None, Dims::D4(3, 4, 6, 3), &CodecConfig::abs(1e-4)).unwrap(),
        ];
        let d32: Vec<f32> = d3.iter().map(|&v| v as f32).collect();
        streams.push(compress(&d32, None, Dims::D2(12, 18), &CodecConfig::abs(1e-3)).unwrap());
        assert!(streams.iter().any(|s| s[5] & FLAG_LOSSLESS != 0));
        fn check<T: Element>(s: &[u8]) {
            let a = decompress_with::<T, Shipped>(s);
            let b = decompress_with::<T, Reference>(s);
            match (&a, &b) {
                (Ok((x, dx)), Ok((y, dy))) => {
                    assert_eq!(dx, dy);
                    assert!(x
                        .iter()
                        .zip(y)
                        .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()));
                }
                (Err(x), Err(y)) => {
                    assert_eq!(
                        std::mem::discriminant(x),
                        std::mem::discriminant(y),
                        "{x} / {y}"
                    );
                }
                (Err(CodecError::Corrupt(_)), Ok(_)) => {
                    // Only the LZSS layer may tell them apart.
                    let (_, rest) = Header::read::<T>(s, MAGIC, VERSION, u8::MAX).unwrap();
                    let body = &rest[4..];
                    assert!(lossless::decompress(body).is_err());
                    let payload = lossless::reference::decompress(body).unwrap();
                    assert!((0..body.len())
                        .any(|p| lossless::decompress(&body[..p]).is_ok_and(|q| q == payload)));
                }
                _ => panic!("shipped {a:?} vs reference {b:?}"),
            }
        }
        for s in &streams {
            let f32_stream = stream_dtype(s) == Some(TacDtype::F32);
            let run = |m: &[u8]| {
                if f32_stream {
                    check::<f32>(m)
                } else {
                    check::<f64>(m)
                }
            };
            for cut in 0..s.len() {
                run(&s[..cut]);
            }
            for k in 0..s.len() {
                for flip in [0x01u8, 0x10, 0x80, 0xFF] {
                    let mut m = s.clone();
                    m[k] ^= flip;
                    run(&m);
                }
            }
        }
    }

    #[test]
    fn roundtrip_3d_abs_bound() {
        let n = 16;
        let data = smooth_3d(n);
        let cfg = CodecConfig::abs(1e-3);
        let bytes = compress(&data, None, Dims::D3(n, n, n), &cfg).unwrap();
        let (out, dims) = decompress(&bytes).unwrap();
        assert_eq!(dims, Dims::D3(n, n, n));
        check_bound(&data, &out, 1e-3);
        assert!(
            bytes.len() < data.len() * 8 / 4,
            "smooth data should compress 4x+"
        );
    }

    #[test]
    fn roundtrip_1d_and_2d() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.01).sin()).collect();
        let cfg = CodecConfig::abs(1e-4);
        let bytes = compress(&data, None, Dims::D1(500), &cfg).unwrap();
        let (out, _) = decompress(&bytes).unwrap();
        check_bound(&data, &out, 1e-4);

        let bytes = compress(&data, None, Dims::D2(25, 20), &cfg).unwrap();
        let (out, dims) = decompress(&bytes).unwrap();
        assert_eq!(dims, Dims::D2(25, 20));
        check_bound(&data, &out, 1e-4);
    }

    #[test]
    fn roundtrip_4d_batched() {
        let n = 8;
        let blocks = 5;
        let mut data = Vec::new();
        for w in 0..blocks {
            for i in 0..n * n * n {
                data.push((i as f64 * 0.01 + w as f64).cos());
            }
        }
        let cfg = CodecConfig::abs(1e-5);
        let bytes = compress(&data, None, Dims::D4(n, n, n, blocks), &cfg).unwrap();
        let (out, dims) = decompress(&bytes).unwrap();
        assert_eq!(dims, Dims::D4(n, n, n, blocks));
        check_bound(&data, &out, 1e-5);
    }

    #[test]
    fn relative_bound_resolves_against_range() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect(); // range 999
        let cfg = rel(&data, 1e-3);
        assert!((cfg.abs_eb - 0.999).abs() < 1e-12);
        let bytes = compress(&data, None, Dims::D1(1000), &cfg).unwrap();
        let (out, _) = decompress(&bytes).unwrap();
        check_bound(&data, &out, 0.999);
    }

    #[test]
    fn recon_matches_decompressed_exactly() {
        let n = 12;
        let data = smooth_3d(n);
        let cfg = CodecConfig::abs(1e-2);
        let (bytes, recon) = compress_with::<f64, Shipped>(
            &SzCodec::FULL,
            &data,
            None,
            Dims::D3(n, n, n),
            &cfg,
            CAPACITY,
        )
        .unwrap();
        let (out, _) = decompress::<f64>(&bytes).unwrap();
        for (a, b) in recon.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn regression_planes_the_wire_cannot_carry_fall_back_to_lorenzo() {
        // A bound tiny against the values gives plane-fit codes beyond
        // `i64`: a constant f32 field at f32's smallest normal (what a
        // relative bound over a zero range resolves to), and f64 values
        // near 1e10 at 1e-12. Such blocks must keep Lorenzo, or the
        // decoder predicts from another plane than the encoder did.
        let n = 16;
        let constant = vec![7.25f32; n * n * n];
        let cfg = CodecConfig::abs(f64::from(f32::MIN_POSITIVE));
        let bytes = compress(&constant, None, Dims::D3(n, n, n), &cfg).unwrap();
        assert_eq!(decompress::<f32>(&bytes).unwrap().0, constant);

        let data: Vec<f64> = (0..n * n * n)
            .map(|i| 1e10 + (i as f64 * 0.01).sin() * 1e-3)
            .collect();
        let dims = Dims::D4(n, n, 4, 4);
        let bytes = compress(&data, None, dims, &CodecConfig::abs(1e-12)).unwrap();
        let (out, _) = decompress::<f64>(&bytes).unwrap();
        check_bound(&data, &out, 1e-12);
    }

    #[test]
    fn handles_nan_and_infinity() {
        let mut data = smooth_3d(8);
        data[3] = f64::NAN;
        data[100] = f64::INFINITY;
        data[200] = f64::NEG_INFINITY;
        let cfg = CodecConfig::abs(1e-3);
        let bytes = compress(&data, None, Dims::D3(8, 8, 8), &cfg).unwrap();
        let (out, _) = decompress(&bytes).unwrap();
        check_bound(&data, &out, 1e-3);
        assert!(out[3].is_nan());
        assert_eq!(out[100], f64::INFINITY);
        assert_eq!(out[200], f64::NEG_INFINITY);
    }

    #[test]
    fn constant_field_compresses_tiny() {
        let data = vec![7.25f64; 32 * 32 * 32];
        let cfg = rel(&data, 1e-4);
        let bytes = compress(&data, None, Dims::D3(32, 32, 32), &cfg).unwrap();
        let (out, _) = decompress::<f64>(&bytes).unwrap();
        assert_eq!(out, data);
        assert!(
            bytes.len() < 600,
            "constant field took {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn random_data_still_respects_bound() {
        // Worst case for prediction: white noise.
        let data: Vec<f64> = (0..4096u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect();
        let cfg = CodecConfig::abs(0.5);
        let bytes = compress(&data, None, Dims::D3(16, 16, 16), &cfg).unwrap();
        let (out, _) = decompress(&bytes).unwrap();
        check_bound(&data, &out, 0.5);
    }

    #[test]
    fn lossless_flag_reduces_or_preserves_size() {
        let n = 16;
        let data = smooth_3d(n);
        let with = compress(&data, None, Dims::D3(n, n, n), &CodecConfig::abs(1e-3)).unwrap();
        let without = NO_LZSS
            .compress(&data, None, Dims::D3(n, n, n), &CodecConfig::abs(1e-3))
            .unwrap();
        assert!(with.len() <= without.len() + 16);
        let (a, _) = decompress::<f64>(&with).unwrap();
        let (b, _) = decompress::<f64>(&without).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let data = vec![0.0; 10];
        assert!(matches!(
            compress(&data, None, Dims::D2(3, 4), &CodecConfig::abs(1.0)),
            Err(CodecError::InvalidConfig(_))
        ));
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let data = smooth_3d(8);
        let mut bytes = compress(&data, None, Dims::D3(8, 8, 8), &CodecConfig::abs(1e-3)).unwrap();
        // Flip bytes throughout the stream; decompression must error or
        // produce output, never panic.
        for i in (0..bytes.len()).step_by(7) {
            bytes[i] ^= 0xFF;
            let _ = decompress::<f64>(&bytes);
            bytes[i] ^= 0xFF;
        }
        // Truncations likewise.
        for cut in [0, 1, 5, 17, bytes.len() / 2] {
            assert!(decompress::<f64>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn stream_sniffing() {
        let data = vec![1.0; 8];
        let bytes = compress(&data, None, Dims::D1(8), &CodecConfig::abs(1.0)).unwrap();
        assert_eq!(Header::peek(&bytes), Some((MAGIC, VERSION, TacDtype::F64)));
        assert_ne!(Header::peek(b"not a stream").map(|(m, ..)| m), Some(MAGIC));
        assert_eq!(Header::peek(&bytes[..5]), None);
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..=4usize {
            let data: Vec<f64> = (0..n).map(|i| i as f64 * 1.5).collect();
            let bytes = compress(&data, None, Dims::D1(n), &CodecConfig::abs(0.1)).unwrap();
            let (out, _) = decompress(&bytes).unwrap();
            check_bound(&data, &out, 0.1);
        }
    }

    #[test]
    fn generic_f64_path_is_byte_identical_to_legacy() {
        // The monomorphized f64 pipeline must produce the exact bytes the
        // pre-dtype compressor did: golden fixtures depend on it. The
        // length and FNV-1a digest pin the stream it wrote.
        let n = 12;
        let data = smooth_3d(n);
        let a = compress(&data, None, Dims::D3(n, n, n), &CodecConfig::abs(1e-3)).unwrap();
        let fnv = a.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((a.len(), fnv), (725, 0xfb48_2190_c05b_3751));
        let all = vec![true; data.len()];
        assert!(
            compress(
                &data,
                Some(&all),
                Dims::D3(n, n, n),
                &CodecConfig::abs(1e-3)
            )
            .unwrap()
                == a
        );
        assert_eq!(stream_dtype(&a), Some(TacDtype::F64));
        assert_eq!(a[5] & crate::container::FLAG_F32, 0);
    }

    #[test]
    fn roundtrip_f32_3d_abs_bound() {
        let n = 16;
        let data: Vec<f32> = smooth_3d(n).iter().map(|&v| v as f32).collect();
        let cfg = CodecConfig::abs(1e-3);
        let bytes = compress::<f32>(&data, None, Dims::D3(n, n, n), &cfg).unwrap();
        assert_eq!(stream_dtype(&bytes), Some(TacDtype::F32));
        let (out, dims) = decompress::<f32>(&bytes).unwrap();
        assert_eq!(dims, Dims::D3(n, n, n));
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!(
                (a as f64 - b as f64).abs() <= 1e-3 * (1.0 + 1e-6),
                "point {i}: {a} vs {b}"
            );
        }
        // f32 verbatim points cost 4 bytes, so the stream should beat the
        // equivalent f64 stream on raw-heavy inputs; here just sanity-size.
        assert!(bytes.len() < data.len() * 4);
    }

    #[test]
    fn f32_recon_matches_decompressed_exactly() {
        let n = 10;
        let data: Vec<f32> = smooth_3d(n).iter().map(|&v| v as f32).collect();
        let cfg = rel(&data, 1e-4);
        let (bytes, recon) = compress_with::<f32, Shipped>(
            &SzCodec::FULL,
            &data,
            None,
            Dims::D3(n, n, n),
            &cfg,
            CAPACITY,
        )
        .unwrap();
        let (out, _) = decompress::<f32>(&bytes).unwrap();
        for (a, b) in recon.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_nonfinite_values_roundtrip_bit_exactly() {
        let mut data: Vec<f32> = smooth_3d(8).iter().map(|&v| v as f32).collect();
        data[3] = f32::NAN;
        data[100] = f32::INFINITY;
        data[200] = f32::NEG_INFINITY;
        data[301] = -0.0;
        let bytes =
            compress::<f32>(&data, None, Dims::D3(8, 8, 8), &CodecConfig::abs(1e-3)).unwrap();
        let (out, _) = decompress::<f32>(&bytes).unwrap();
        assert!(out[3].is_nan());
        assert_eq!(out[100], f32::INFINITY);
        assert_eq!(out[200], f32::NEG_INFINITY);
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            if a.is_finite() {
                assert!(
                    (a as f64 - b as f64).abs() <= 1e-3 * (1.0 + 1e-6),
                    "point {i}"
                );
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "non-finite point {i}");
            }
        }
    }

    #[test]
    fn dtype_mismatch_is_a_typed_error() {
        let data64 = vec![1.0f64; 32];
        let data32 = vec![1.0f32; 32];
        let cfg = CodecConfig::abs(0.1);
        let b64 = compress::<f64>(&data64, None, Dims::D1(32), &cfg).unwrap();
        let b32 = compress::<f32>(&data32, None, Dims::D1(32), &cfg).unwrap();
        assert!(matches!(
            decompress::<f32>(&b64),
            Err(CodecError::WrongDtype {
                stream: "f64",
                requested: "f32"
            })
        ));
        assert!(matches!(
            decompress::<f64>(&b32),
            Err(CodecError::WrongDtype {
                stream: "f32",
                requested: "f64"
            })
        ));
    }

    #[test]
    fn f32_stream_is_smaller_than_f64_on_noisy_data() {
        // White noise stores mostly verbatim values, so element width
        // dominates: the f32 stream must be markedly smaller.
        let noise64: Vec<f64> = (0..4096u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect();
        let noise32: Vec<f32> = noise64.iter().map(|&v| v as f32).collect();
        let cfg = CodecConfig::abs(1e-9);
        let b64 = compress::<f64>(&noise64, None, Dims::D3(16, 16, 16), &cfg).unwrap();
        let b32 = compress::<f32>(&noise32, None, Dims::D3(16, 16, 16), &cfg).unwrap();
        assert!(
            (b32.len() as f64) < b64.len() as f64 * 0.75,
            "f32 {} vs f64 {}",
            b32.len(),
            b64.len()
        );
        let (out, _) = decompress::<f32>(&b32).unwrap();
        for (&a, &b) in noise32.iter().zip(&out) {
            assert!((a as f64 - b as f64).abs() <= 1e-9);
        }
    }
}
