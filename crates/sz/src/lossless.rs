//! LZSS-style byte-level lossless backend.
//!
//! SZ finishes with a dictionary coder (gzip/zstd) over the entropy-coded
//! payload; compression crates are outside this project's allowed
//! dependency set, so this module provides an in-repo LZ77 variant:
//!
//! * 64 KiB sliding window, hash-chain match finder over 4-byte prefixes;
//! * token stream of literals and `(offset, length)` matches with flag
//!   bits grouped eight to a control byte;
//! * match lengths 4..=258 encoded in one byte, offsets in two.
//!
//! `compress` is guaranteed lossless and never fails; `decompress`
//! validates every back-reference and rejects bytes after the last
//! token.
//!
//! # The chain ring
//!
//! The match finder keeps one chain link per position, but only for the
//! last `WINDOW` = 2^16 positions: position `p`'s link lives in slot
//! `p % WINDOW` of a 256 KiB ring rather than in a 4-byte-per-input-byte
//! array (an input shorter than the window gets a ring of its length
//! rounded up to a power of two, which never wraps). Its decisions are
//! those of the full array, so the token stream is byte-identical. The
//! walk at position `i` follows a candidate `c` only while
//! `i - c < WINDOW` (older candidates are out of reach of a 16-bit
//! offset and end the walk either way), and slot `c % WINDOW` is next
//! written by position `c + WINDOW`, which is past `i` and so not
//! inserted yet. Match lengths are measured eight bytes at a time: the
//! first differing byte of two little-endian words is their XOR's
//! trailing zero count over eight.
//!
//! The decoder copies a back-reference that overlaps its own output in
//! chunks that double as the copied run grows (period `off`, then
//! `2·off`, …), so a run of `len` bytes costs `O(log(len / off))` slice
//! copies instead of `len` pushes.

use crate::error::SzError;

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 1 << 16;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;
/// Bytes of the `u64` uncompressed-length header.
const HEADER_BYTES: usize = 8;

/// No chain entry: the ring and the heads start out filled with it.
const NIL: u32 = u32::MAX;

// tac-lint: allow(panic) -- encoder-side hash over in-memory input; every caller guarantees i + 3 < data.len() before probing.
#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The eight bytes at `i` as a little-endian word.
// tac-lint: allow(panic) -- encoder-side load: match_len only calls it with i + 8 <= data.len().
#[inline]
fn load8(data: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&data[i..i + 8]);
    u64::from_le_bytes(w)
}

/// Length of the common prefix of `data[c..]` and `data[i..]`, at most
/// `max`. `c < i` and `i + max <= data.len()`; the two runs may overlap.
// tac-lint: allow(panic, arith) -- encoder-side compare: c < i and i + max <= data.len(), so every probe stays in bounds.
#[inline]
fn match_len(data: &[u8], c: usize, i: usize, max: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max {
        let x = load8(data, c + l) ^ load8(data, i + l);
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Compresses `input`, returning the token stream. Output layout:
/// `u64 LE` uncompressed length, then control-byte-grouped tokens.
// tac-lint: allow(panic, arith) -- encoder over trusted in-memory data: indices stay below input.len() by construction, offsets fit the 64 KiB window (u16) and match lengths 4..=258 fit a byte after the MIN_MATCH bias.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return out;
    }

    let mut head = vec![NIL; 1 << HASH_BITS];
    // An input shorter than the window never wraps a ring of its own
    // (power-of-two) size, so small inputs skip most of the 256 KiB fill.
    let ring = input.len().next_power_of_two().min(WINDOW);
    let slot = ring - 1;
    let mut prev = vec![NIL; ring];

    // Tokens go out in groups of 8 behind one control byte, written as a
    // placeholder when the group opens; bit k set means token k is a
    // match.
    let mut ctrl_at = 0usize;
    let mut ctrl_bits = 8u8;

    let mut i = 0usize;
    while i < input.len() {
        if ctrl_bits == 8 {
            ctrl_at = out.len();
            out.push(0);
            ctrl_bits = 0;
        }
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(input, i);
            let chain_head = head[h];
            let max_len = MAX_MATCH.min(input.len() - i);
            let mut cand = chain_head;
            let mut steps = 0;
            while cand != NIL && steps < MAX_CHAIN {
                let c = cand as usize;
                if i - c >= WINDOW {
                    break;
                }
                // Cheap rejection: compare the byte just past the current
                // best match first.
                if best_len == 0 || input.get(c + best_len) == input.get(i + best_len) {
                    let l = match_len(input, c, i, max_len);
                    if l > best_len {
                        best_len = l;
                        best_off = i - c;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                }
                cand = prev[c & slot];
                steps += 1;
            }
            prev[i & slot] = chain_head;
            head[h] = i as u32;
        }

        if best_len >= MIN_MATCH {
            out[ctrl_at] |= 1 << ctrl_bits;
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Insert hash entries for the skipped positions so later
            // matches can reference inside this match.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= input.len() {
                let h = hash4(input, j);
                prev[j & slot] = head[h];
                head[h] = j as u32;
                j += 1;
            }
            i = end;
        } else {
            out.push(input[i]);
            i += 1;
        }
        ctrl_bits += 1;
    }
    out
}

/// Decompresses a stream produced by [`compress`].
///
/// # Errors
/// `Corrupt` on a short stream, a back-reference before the start of the
/// output, an output longer or shorter than declared, and bytes after
/// the last token.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SzError> {
    let header = input
        .get(..HEADER_BYTES)
        .and_then(|h| <[u8; HEADER_BYTES]>::try_from(h).ok())
        .ok_or_else(|| SzError::Corrupt("lzss stream shorter than header".into()))?;
    let n = u64::from_le_bytes(header) as usize;
    let tokens = input.get(HEADER_BYTES..).unwrap_or_default();
    // Bound the up-front allocation by what the token stream could ever
    // produce: each token needs at least 3 bytes (plus control bits) and
    // expands to at most MAX_MATCH bytes, so a tiny stream declaring a
    // terabyte output is corrupt, not a reservation request.
    let max_expansion = tokens.len().saturating_mul(MAX_MATCH);
    if n > max_expansion {
        return Err(SzError::Corrupt(format!(
            "lzss declares {n} output bytes from a {}-byte stream (max {max_expansion})",
            input.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    let mut r = tokens.iter();
    while out.len() < n {
        let ctrl = *r
            .next()
            .ok_or_else(|| SzError::Corrupt("lzss stream truncated (control)".into()))?;
        for bit in 0..8 {
            if out.len() >= n {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                let mut byte = || {
                    r.next()
                        .copied()
                        .ok_or_else(|| SzError::Corrupt("lzss stream truncated (match)".into()))
                };
                let off = usize::from(u16::from_le_bytes([byte()?, byte()?]));
                let len = MIN_MATCH.saturating_add(usize::from(byte()?));
                copy_match(&mut out, off, len)?;
            } else {
                let b = r
                    .next()
                    .ok_or_else(|| SzError::Corrupt("lzss stream truncated (literal)".into()))?;
                out.push(*b);
            }
        }
    }
    if out.len() != n {
        return Err(SzError::Corrupt(format!(
            "lzss produced {} bytes, expected {n}",
            out.len()
        )));
    }
    if r.len() != 0 {
        return Err(SzError::Corrupt(format!(
            "lzss stream has {} trailing bytes",
            r.len()
        )));
    }
    Ok(out)
}

/// Appends the `len` bytes that start `off` bytes back. An overlapping
/// reference (`len > off`) repeats the last `off` bytes; each pass copies
/// everything between its source start and the current end, so the
/// chunk doubles until the run is done.
#[inline]
fn copy_match(out: &mut Vec<u8>, off: usize, len: usize) -> Result<(), SzError> {
    if off == 0 || off > out.len() {
        return Err(SzError::Corrupt(format!(
            "lzss back-reference {off} beyond {} decoded bytes",
            out.len()
        )));
    }
    let start = out.len() - off;
    let mut left = len;
    while left > 0 {
        let take = left.min(out.len() - start);
        out.extend_from_within(start..start.saturating_add(take));
        left -= take;
    }
    Ok(())
}

/// The encoder and decoder as they were before the chain ring and the
/// word compare, kept as the reference the differential tests hold
/// [`compress`] and [`decompress`] to (the reference decoder still
/// ignores trailing bytes).
#[cfg(test)]
pub(crate) mod reference {
    use super::{HASH_BITS, MAX_CHAIN, MAX_MATCH, MIN_MATCH, WINDOW};
    use crate::error::SzError;
    use crate::wire::ByteReader;

    #[inline]
    fn hash4(data: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    /// Compresses `input`, returning the token stream. Output layout:
    /// `u64 LE` uncompressed length, then control-byte-grouped tokens.
    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.extend_from_slice(&(input.len() as u64).to_le_bytes());
        if input.is_empty() {
            return out;
        }

        let mut head = vec![u32::MAX; 1 << HASH_BITS];
        let mut prev = vec![u32::MAX; input.len()];

        // Tokens are buffered in groups of 8 under one control byte; bit i set
        // means token i is a match.
        let mut ctrl = 0u8;
        let mut ctrl_bits = 0u8;
        let mut group: Vec<u8> = Vec::with_capacity(8 * 3);
        let flush = |out: &mut Vec<u8>, ctrl: &mut u8, ctrl_bits: &mut u8, group: &mut Vec<u8>| {
            if *ctrl_bits > 0 {
                out.push(*ctrl);
                out.extend_from_slice(group);
                *ctrl = 0;
                *ctrl_bits = 0;
                group.clear();
            }
        };

        let mut i = 0usize;
        while i < input.len() {
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= input.len() {
                let h = hash4(input, i);
                let chain_head = head[h];
                let mut cand = chain_head;
                let mut steps = 0;
                while cand != u32::MAX && steps < MAX_CHAIN {
                    let c = cand as usize;
                    if i - c >= WINDOW {
                        break;
                    }
                    // Cheap rejection: compare the byte just past the current
                    // best match first.
                    if best_len == 0 || input.get(c + best_len) == input.get(i + best_len) {
                        let max_len = MAX_MATCH.min(input.len() - i);
                        let mut l = 0;
                        while l < max_len && input[c + l] == input[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_off = i - c;
                            if l >= MAX_MATCH {
                                break;
                            }
                        }
                    }
                    cand = prev[c];
                    steps += 1;
                }
                prev[i] = chain_head;
                head[h] = i as u32;
            }

            if best_len >= MIN_MATCH {
                ctrl |= 1 << ctrl_bits;
                group.extend_from_slice(&(best_off as u16).to_le_bytes());
                group.push((best_len - MIN_MATCH) as u8);
                // Insert hash entries for the skipped positions so later
                // matches can reference inside this match.
                let end = i + best_len;
                let mut j = i + 1;
                while j < end && j + MIN_MATCH <= input.len() {
                    let h = hash4(input, j);
                    prev[j] = head[h];
                    head[h] = j as u32;
                    j += 1;
                }
                i = end;
            } else {
                group.push(input[i]);
                i += 1;
            }
            ctrl_bits += 1;
            if ctrl_bits == 8 {
                flush(&mut out, &mut ctrl, &mut ctrl_bits, &mut group);
            }
        }
        flush(&mut out, &mut ctrl, &mut ctrl_bits, &mut group);
        out
    }

    /// Decompresses a stream produced by [`compress`].
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SzError> {
        let mut r = ByteReader::new(input);
        let n = r
            .get_u64()
            .map_err(|_| SzError::Corrupt("lzss stream shorter than header".into()))?
            as usize;
        // Bound the up-front allocation by what the token stream could ever
        // produce: each token needs at least 3 bytes (plus control bits) and
        // expands to at most MAX_MATCH bytes, so a tiny stream declaring a
        // terabyte output is corrupt, not a reservation request.
        let max_expansion = r.remaining().saturating_mul(MAX_MATCH);
        if n > max_expansion {
            return Err(SzError::Corrupt(format!(
                "lzss declares {n} output bytes from a {}-byte stream (max {max_expansion})",
                input.len()
            )));
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let ctrl = r
                .get_u8()
                .map_err(|_| SzError::Corrupt("lzss stream truncated (control)".into()))?;
            for bit in 0..8 {
                if out.len() >= n {
                    break;
                }
                if ctrl & (1 << bit) != 0 {
                    let truncated = |_| SzError::Corrupt("lzss stream truncated (match)".into());
                    let off = r.get_u16().map_err(truncated)? as usize;
                    let len = MIN_MATCH + r.get_u8().map_err(truncated)? as usize;
                    if off == 0 || off > out.len() {
                        return Err(SzError::Corrupt(format!(
                            "lzss back-reference {off} beyond {} decoded bytes",
                            out.len()
                        )));
                    }
                    let start = out.len() - off;
                    if len <= off {
                        // Source and destination cannot overlap: bulk copy.
                        // `start + len <= out.len()` follows from `len <= off`.
                        let end = start.saturating_add(len).min(out.len());
                        out.extend_from_within(start..end);
                    } else {
                        // Overlapping copies are valid (RLE-style): the
                        // source grows as the copy proceeds, so go byte-wise.
                        for k in 0..len {
                            let b = out.get(start.saturating_add(k)).copied().ok_or_else(|| {
                                SzError::Corrupt("lzss back-reference escaped the buffer".into())
                            })?;
                            out.push(b);
                        }
                    }
                } else {
                    let b = r
                        .get_u8()
                        .map_err(|_| SzError::Corrupt("lzss stream truncated (literal)".into()))?;
                    out.push(b);
                }
            }
        }
        if out.len() != n {
            return Err(SzError::Corrupt(format!(
                "lzss produced {} bytes, expected {n}",
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data);
    }

    /// xorshift64*: deterministic test input without a dependency.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// Byte-identical token streams, and a round trip.
    fn same_as_reference(data: &[u8], what: &str) {
        let c = compress(data);
        assert!(c == reference::compress(data), "{what}: stream differs");
        assert!(decompress(&c).unwrap() == data, "{what}: round trip");
    }

    /// Every input that pushes the window, the chain and the length
    /// limits: runs and periods around `MIN_MATCH`, `MAX_MATCH` and
    /// `WINDOW`, noise, and noise repeated at and past the window.
    fn edge_inputs() -> Vec<(String, Vec<u8>)> {
        let mut v = Vec::new();
        let lens = [
            0,
            1,
            MIN_MATCH - 1,
            MIN_MATCH,
            MIN_MATCH + 1,
            MAX_MATCH - 1,
            MAX_MATCH,
            MAX_MATCH + 1,
            MAX_MATCH + MIN_MATCH,
            2 * MAX_MATCH + 3,
            WINDOW - 1,
            WINDOW,
            WINDOW + 1,
            3 * WINDOW + 17,
        ];
        for &n in &lens {
            v.push((format!("zeros {n}"), vec![0u8; n]));
            v.push((format!("noise {n}"), noise(n, n as u64)));
        }
        for period in [1, 2, 3, 5, 8, 9, 255, 256, 257, MAX_MATCH + 1] {
            let unit = noise(period, 7 + period as u64);
            let data: Vec<u8> = unit.iter().copied().cycle().take(5000).collect();
            v.push((format!("period {period}"), data));
        }
        // A noise block repeated at distance WINDOW - 1, WINDOW and
        // WINDOW + 1: only the first is reachable by an offset.
        for gap in [WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut data = noise(gap, gap as u64);
            data.extend_from_within(..600);
            v.push((format!("repeat at {gap}"), data));
        }
        // Long runs broken by single bytes, like sparse masks.
        let mut sparse = vec![0u8; 3 * WINDOW];
        for k in (0..sparse.len()).step_by(4099) {
            sparse[k] = (k % 251) as u8 | 1;
        }
        v.push(("sparse".into(), sparse));
        v
    }

    #[test]
    fn matches_reference_on_edge_inputs() {
        for (what, data) in edge_inputs() {
            same_as_reference(&data, &what);
        }
    }

    #[test]
    fn matches_reference_on_nyx_masks() {
        for e in tac_nyx::CATALOG {
            let ds = e.generate(tac_nyx::FieldKind::BaryonDensity, 16, 42);
            for (l, level) in ds.levels().iter().enumerate() {
                same_as_reference(&level.mask().to_bytes(), &format!("{} level {l}", e.name));
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        for data in [Vec::new(), b"abcabcabcabc".repeat(9), noise(300, 3)] {
            let mut c = compress(&data);
            c.push(0);
            assert!(matches!(decompress(&c), Err(SzError::Corrupt(_))));
            assert_eq!(reference::decompress(&c).unwrap(), data);
        }
    }

    /// Every truncation and every single-byte mutation (four flips per
    /// byte) decodes as the reference does — the same bytes or an error —
    /// except that a stream the reference accepts with bytes after its
    /// last token is now `Corrupt`, while its prefix still decodes.
    #[test]
    fn decode_errors_match_reference() {
        let inputs = [
            b"hello world hello world hello world".to_vec(),
            b"ab".repeat(200),
            noise(120, 9),
            vec![0u8; 700],
        ];
        for data in inputs {
            let c = compress(&data);
            let check = |s: &[u8]| match (decompress(s), reference::decompress(s)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    assert_eq!(std::mem::discriminant(&a), std::mem::discriminant(&b))
                }
                (Err(SzError::Corrupt(_)), Ok(b)) => assert!(
                    (0..s.len()).any(|p| decompress(&s[..p]).is_ok_and(|a| a == b)),
                    "rejected a stream with no trailing bytes"
                ),
                (a, b) => panic!("new {a:?} vs reference {b:?}"),
            };
            for cut in 0..c.len() {
                check(&c[..cut]);
            }
            for k in 0..c.len() {
                for flip in [0x01u8, 0x10, 0x80, 0xFF] {
                    let mut m = c.clone();
                    m[k] ^= flip;
                    check(&m);
                }
            }
        }
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_short() {
        roundtrip(b"abc");
        roundtrip(b"a");
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabc".repeat(100);
        let c = compress(&data);
        assert!(c.len() < data.len() / 3, "repetitive data should shrink");
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_zeros_rle() {
        let data = vec![0u8; 100_000];
        let c = compress(&data);
        assert!(
            c.len() < 2000,
            "zero run should compress hard, got {}",
            c.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: output may expand slightly (1 control bit
        // per literal) but must round-trip.
        let data: Vec<u8> = (0..50_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaaa..." forces matches whose source overlaps the destination.
        let data = vec![b'a'; 1000];
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_long_window_reference() {
        let mut data = Vec::new();
        let phrase = b"the quick brown fox jumps over the lazy dog";
        data.extend_from_slice(phrase);
        data.extend(std::iter::repeat(7u8).take(40_000));
        data.extend_from_slice(phrase);
        roundtrip(&data);
    }

    #[test]
    fn rejects_truncation() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        for cut in [0usize, 4, 8, c.len() - 1] {
            if cut < c.len() {
                assert!(decompress(&c[..cut]).is_err() || cut == c.len());
            }
        }
    }

    #[test]
    fn rejects_bad_backreference() {
        // Hand-craft: n=4, control byte with match flag, offset 9 (> decoded).
        let mut s = 4u64.to_le_bytes().to_vec();
        s.push(0b0000_0001);
        s.extend_from_slice(&9u16.to_le_bytes());
        s.push(0);
        assert!(decompress(&s).is_err());
    }

    #[test]
    fn compresses_float_like_payloads() {
        // Quantization codes from smooth data: long runs of the same byte
        // pattern with occasional jitter.
        let mut data = Vec::new();
        for i in 0..20_000u32 {
            let code: u16 = 32768 + ((i / 100) % 3) as u16;
            data.extend_from_slice(&code.to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        roundtrip(&data);
    }
}
