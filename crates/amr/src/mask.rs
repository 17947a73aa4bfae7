//! Compact bit mask recording which cells of a level are present.
//!
//! Tree-based AMR stores each cell at exactly one refinement level; the
//! positions *not* stored at a level are "empty" there. A bit per cell is
//! 64x cheaper than a `Vec<bool>` for the 1024^3-scale grids the paper
//! works with.

use crate::aabb::Aabb;

/// A word with its low `n` bits set (`n <= 64`).
#[inline]
fn low_ones(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Each byte value's eight bits as flags, least significant first: the
/// table [`BitMask::flags_into`] expands a mixed word through.
const BYTE_FLAGS: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut bit = 0;
        while bit < 8 {
            // tac-lint: allow(panic) -- const evaluation: `byte < 256` and `bit < 8` by the loop bounds, checked at compile time.
            table[byte][bit] = (byte >> bit) & 1 == 1;
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The popcount of each byte of `w`, in that byte (SWAR: three
/// add-and-mask steps for all eight bytes at once).
#[inline]
fn byte_counts(w: u64) -> u64 {
    let x = w - ((w >> 1) & 0x5555_5555_5555_5555);
    let x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F
}

/// Every one of the low 32 bits of `x` doubled in place: bit `i` lands
/// on bits `2i` and `2i + 1`.
#[inline]
fn double_bits(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x | (x << 1)
}

/// A fixed-length bit mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// Creates an all-zero mask of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitMask {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one mask of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut m = BitMask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        m.clear_tail();
        m
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.piece(i, 1).1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let bit = 1u64 << (i % 64);
        if let Some(w) = self.words.get_mut(i / 64) {
            if value {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits in [0, 1].
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Iterator over indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Maximal runs of set bits as `(start, len)`, in increasing order:
    /// consecutive runs are separated by at least one clear bit, and the
    /// runs concatenated are exactly [`BitMask::iter_ones`]. Word-wise —
    /// an all-zero or all-one word costs one step, not 64 — so a caller
    /// moves one slice per run instead of one value per bit.
    pub fn runs(&self) -> Runs<'_> {
        self.runs_in(0, self.len)
    }

    /// [`BitMask::runs`] over the bit range `[start, start + len)`: runs
    /// are clipped to the range, and bits beyond the mask read as
    /// absent, so any range is accepted.
    pub fn runs_in(&self, start: usize, len: usize) -> Runs<'_> {
        Runs {
            mask: self,
            at: start,
            end: start.saturating_add(len).min(self.len),
        }
    }

    /// Tight bounding box of the set bits, interpreting the mask as a
    /// `dim^3` grid (x fastest), or `None` when no bit is set. This is
    /// the box the chunked container records for whole-level payloads so
    /// ROI decoding can skip levels entirely.
    ///
    /// Scans word-wise, one `(y, z)` row at a time (a row is `dim`
    /// consecutive bits), so the cost is ~`dim^3 / 64` word operations
    /// rather than per-bit div/mod — this runs on every container
    /// serialization.
    ///
    /// # Panics
    /// Panics if `len != dim^3`.
    pub fn bounding_box(&self, dim: usize) -> Option<Aabb> {
        assert_eq!(self.len, dim * dim * dim, "mask is not a {dim}^3 grid");
        let mut lo = (usize::MAX, usize::MAX, usize::MAX);
        let mut hi = (0usize, 0usize, 0usize);
        let mut any = false;
        for z in 0..dim {
            for y in 0..dim {
                if let Some((first_x, last_x)) = self.range_of_ones(dim * (y + dim * z), dim) {
                    any = true;
                    lo = (lo.0.min(first_x), lo.1.min(y), lo.2.min(z));
                    hi = (hi.0.max(last_x), hi.1.max(y), hi.2.max(z));
                }
            }
        }
        any.then(|| Aabb::new(lo, (hi.0 + 1, hi.1 + 1, hi.2 + 1)))
    }

    /// Up to `max` mask bits starting at bit `at`, cut at the next word
    /// boundary: how many bits were taken (`>= 1` when `max > 0`) and
    /// the bits themselves, right-aligned with everything above them
    /// zero. The ranged kernels below walk a range piece by piece
    /// through this one place, so the partial-word masking at both ends
    /// exists once. Bits beyond the mask read as absent.
    #[inline]
    fn piece(&self, at: usize, max: usize) -> (usize, u64) {
        let shift = at % 64;
        let taken = (64 - shift).min(max);
        let word = self.words.get(at / 64).copied().unwrap_or(0);
        (taken, (word >> shift) & low_ones(taken))
    }

    /// Whether `[start, start + len)` lies inside the mask.
    #[inline]
    fn contains_range(&self, start: usize, len: usize) -> bool {
        start.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// Number of set bits in the bit range `[start, start + len)`.
    /// Word-wise: one popcount per 64 cells, so a `dim`-cell grid row
    /// costs `dim / 64` word operations instead of `dim` bit reads.
    ///
    /// # Panics
    /// Panics if the range does not lie inside the mask.
    pub fn count_ones_in(&self, start: usize, len: usize) -> usize {
        assert!(
            self.contains_range(start, len),
            "bit range {start}+{len} out of range {}",
            self.len
        );
        let mut ones = 0usize;
        let mut done = 0usize;
        while done < len {
            let (taken, bits) = self.piece(start + done, len - done);
            ones += bits.count_ones() as usize;
            done += taken;
        }
        ones
    }

    /// Writes one flag per bit of the range `[start, start + out.len())`
    /// to `out` — `true` for a set bit — and returns how many are set.
    /// Word-wise, through the pieces the other ranged kernels walk: each
    /// byte of a piece becomes its eight flags through a 256-entry
    /// table, one fixed-size copy with no branch on the bits, so a short
    /// grid row costs a few stores.
    ///
    /// # Panics
    /// Panics if the range does not lie inside the mask.
    #[inline]
    pub fn flags_into(&self, start: usize, out: &mut [bool]) -> usize {
        assert!(
            self.contains_range(start, out.len()),
            "bit range {start}+{} out of range {}",
            out.len(),
            self.len
        );
        let flags_of = |byte: u8| BYTE_FLAGS.get(usize::from(byte)).unwrap_or(&[false; 8]);
        let mut ones = 0usize;
        let mut at = start;
        let mut rest = out;
        while !rest.is_empty() {
            let (taken, bits) = self.piece(at, rest.len());
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(taken);
            let bytes = bits.to_le_bytes();
            let mut whole = piece.chunks_exact_mut(8);
            for (flags, &byte) in (&mut whole).zip(&bytes) {
                flags.copy_from_slice(flags_of(byte));
            }
            let part = whole.into_remainder();
            let last = bytes.get(taken / 8).copied().unwrap_or(0);
            for (flag, &bit) in part.iter_mut().zip(flags_of(last)) {
                *flag = bit;
            }
            ones += bits.count_ones() as usize;
            at += taken;
            rest = tail;
        }
        ones
    }

    /// Adds the set bits of each `unit`-bit piece of the range
    /// `[start, start + counts.len() · unit)` to its slot: piece `k`
    /// (bits `start + k·unit ..`) to `counts[k]` — one grid row's
    /// per-block occupancy. With `unit == 8` on a word-aligned range a
    /// word yields its eight byte counts at once (SWAR) and an all-clear
    /// word costs one compare; any other unit or offset takes one ranged
    /// popcount per piece, after one for the whole range.
    ///
    /// # Panics
    /// Panics if `unit` is zero or the range does not lie inside the
    /// mask.
    pub fn add_unit_counts(&self, start: usize, unit: usize, counts: &mut [u32]) {
        assert!(unit > 0, "unit must be positive");
        let len = counts.len().saturating_mul(unit);
        assert!(
            self.contains_range(start, len),
            "bit range {start}+{len} out of range {}",
            self.len
        );
        if unit == 8 && start % 64 == 0 {
            let add = |slots: &mut [u32], word: u64| {
                if word != 0 {
                    for (slot, ones) in slots.iter_mut().zip(byte_counts(word).to_le_bytes()) {
                        *slot += u32::from(ones);
                    }
                }
            };
            let mut words = self.words.get(start / 64..).unwrap_or_default().iter();
            let mut whole = counts.chunks_exact_mut(8);
            for (slots, &word) in (&mut whole).zip(&mut words) {
                add(slots, word);
            }
            // The range's tail: its bits past the range are never added.
            let tail = whole.into_remainder();
            if let Some(&word) = words.next().filter(|_| !tail.is_empty()) {
                add(tail, word);
            }
            return;
        }
        if self.count_ones_in(start, len) == 0 {
            return;
        }
        for (k, slot) in counts.iter_mut().enumerate() {
            let ones = self.count_ones_in(start + k * unit, unit);
            *slot += u32::try_from(ones).unwrap_or(u32::MAX);
        }
    }

    /// Copies `src[i]` over `dst[i]` for every cell whose mask bit
    /// `start + i` is set, and returns how many cells it copied; a cell
    /// whose bit is clear is not written, so a destination that holds
    /// `+0.0` bits there ends up masked without its absent cells — or the
    /// pages they lie on — being touched. Word by word, through the
    /// pieces the other ranged kernels walk: an all-clear word is
    /// skipped, an all-set word is one slice copy, and a mixed word goes
    /// byte by byte — a full byte is a fixed 8-cell copy, any other a
    /// loop over its set bits.
    ///
    /// # Panics
    /// Panics if `src` and `dst` differ in length or
    /// `[start, start + dst.len())` does not lie inside the mask.
    pub fn copy_present<T: Copy>(&self, start: usize, src: &[T], dst: &mut [T]) -> usize {
        assert_eq!(
            src.len(),
            dst.len(),
            "source and destination differ in length"
        );
        assert!(
            self.contains_range(start, dst.len()),
            "bit range {start}+{} out of range {}",
            dst.len(),
            self.len
        );
        let (mut copied, mut done) = (0, 0);
        while done < dst.len() {
            let (taken, bits) = self.piece(start + done, dst.len() - done);
            let word = done..done + taken;
            done += taken;
            if bits == 0 {
                continue;
            }
            let (Some(to), Some(from)) = (dst.get_mut(word.clone()), src.get(word)) else {
                break;
            };
            copied += bits.count_ones() as usize;
            if bits == low_ones(taken) {
                to.copy_from_slice(from);
                continue;
            }
            for ((to, from), byte) in to.chunks_mut(8).zip(from.chunks(8)).zip(bits.to_le_bytes()) {
                match byte {
                    0 => {}
                    // A full byte lies wholly inside the piece: the bits
                    // above `taken` are clear.
                    u8::MAX => {
                        if let (Ok(to), Ok(from)) =
                            (<&mut [T; 8]>::try_from(to), <&[T; 8]>::try_from(from))
                        {
                            *to = *from;
                        }
                    }
                    mut rest => {
                        while rest != 0 {
                            let i = rest.trailing_zeros() as usize;
                            if let (Some(to), Some(from)) = (to.get_mut(i), from.get(i)) {
                                *to = *from;
                            }
                            rest &= rest - 1;
                        }
                    }
                }
            }
        }
        copied
    }

    /// ORs `bits` into the mask from bit `at` upwards, across the word
    /// boundary when they straddle one; bits landing beyond the last
    /// word are dropped.
    #[inline]
    fn or_bits(&mut self, at: usize, bits: u64) {
        let shift = at % 64;
        if let Some(w) = self.words.get_mut(at / 64) {
            *w |= bits << shift;
        }
        if shift != 0 {
            if let Some(w) = self.words.get_mut(at / 64 + 1) {
                *w |= bits >> (64 - shift);
            }
        }
    }

    /// The mask 2x-upsampled in 3D: reading `self` as a `dim^3` grid (x
    /// fastest), the `(2 dim)^3` grid whose cell `(x, y, z)` holds cell
    /// `(x/2, y/2, z/2)` of `self` — the cells one level finer that each
    /// cell of a refinement tree covers. Row-wise: each fine row is built
    /// once, 32 coarse bits doubled into each of its words (a clear piece
    /// costs no doubling). When fine rows are whole words (`dim` a
    /// multiple of 32) the row is built in place and copied to its
    /// y-twin, and each finished plane is copied to its z-twin, so every
    /// word is written once; otherwise the built row is ORed into its
    /// four fine rows.
    ///
    /// # Panics
    /// Panics if `len != dim^3`.
    pub fn upsample2(&self, dim: usize) -> BitMask {
        self.upsample2_flipped(dim, 0)
    }

    /// The complement of [`BitMask::upsample2`], built in the same one
    /// pass: the fine cells whose coarse cell is clear — in a refinement
    /// tree, the cells no coarser level covers.
    ///
    /// # Panics
    /// Panics if `len != dim^3`.
    pub fn upsample2_complement(&self, dim: usize) -> BitMask {
        self.upsample2_flipped(dim, u64::MAX)
    }

    /// [`BitMask::upsample2`] with every fine bit XORed with `flip`'s
    /// (`0` or all ones).
    fn upsample2_flipped(&self, dim: usize, flip: u64) -> BitMask {
        assert_eq!(self.len, dim * dim * dim, "mask is not a {dim}^3 grid");
        let (fine, plane) = (2 * dim, 4 * dim * dim);
        let mut out = BitMask::zeros(fine * plane);
        // The fine row of coarse row `(y, z)`, 64 bits a word.
        let build = |row: &mut [u64], y: usize, z: usize| {
            let coarse = dim * (y + dim * z);
            for (k, word) in row.iter_mut().enumerate() {
                let taken = (dim - 32 * k).min(32);
                let fill = if taken == 32 {
                    flip
                } else {
                    double_bits(flip & low_ones(taken))
                };
                let bits = self.bits_at(coarse + 32 * k, taken);
                *word = if bits == 0 {
                    fill
                } else {
                    double_bits(bits) ^ fill
                };
            }
        };
        if dim > 0 && fine % 64 == 0 {
            let (row_words, plane_words) = (fine / 64, plane / 64);
            for (z, planes) in out.words.chunks_exact_mut(2 * plane_words).enumerate() {
                let (even, odd) = planes.split_at_mut(plane_words);
                for (y, rows) in even.chunks_exact_mut(2 * row_words).enumerate() {
                    let (row, twin) = rows.split_at_mut(row_words);
                    build(row, y, z);
                    twin.copy_from_slice(row);
                }
                odd.copy_from_slice(even);
            }
        } else {
            let mut row = vec![0u64; fine.div_ceil(64)];
            for z in 0..dim {
                for y in 0..dim {
                    build(&mut row, y, z);
                    let at = fine * (2 * y + fine * 2 * z);
                    for twin in [0, fine, plane, plane + fine] {
                        for (k, &bits) in row.iter().enumerate() {
                            out.or_bits(at + twin + 64 * k, bits);
                        }
                    }
                }
            }
        }
        out
    }

    /// The `n <= 64` mask bits from bit `at`, across a word boundary when
    /// they straddle one, right-aligned with everything above them zero.
    /// Bits beyond the mask read as absent.
    #[inline]
    fn bits_at(&self, at: usize, n: usize) -> u64 {
        let shift = at % 64;
        let low = self.words.get(at / 64).map_or(0, |&w| w >> shift);
        // A straddling read has `shift > 0`, so the shift stays in range.
        let high = if n > 64 - shift {
            self.words
                .get(at / 64 + 1)
                .map_or(0, |&w| w << (64 - shift))
        } else {
            0
        };
        (low | high) & low_ones(n)
    }

    /// Sets every bit that is set in `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &BitMask) {
        assert_eq!(self.len, other.len, "masks differ in length");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// First and last set-bit offsets within the bit range
    /// `[start, start + len)`, relative to `start`; `None` when the
    /// range is all zero.
    fn range_of_ones(&self, start: usize, len: usize) -> Option<(usize, usize)> {
        debug_assert!(self.contains_range(start, len));
        let mut first: Option<usize> = None;
        let mut last: Option<usize> = None;
        let mut done = 0usize;
        while done < len {
            let (taken, bits) = self.piece(start + done, len - done);
            if bits != 0 {
                first.get_or_insert(done + bits.trailing_zeros() as usize);
                last = Some(done + 63 - bits.leading_zeros() as usize);
            }
            done += taken;
        }
        first.zip(last)
    }

    /// Zeroes any bits beyond `len` in the last word (keeps `count_ones`
    /// honest after `ones`).
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Serializes as `len: u64 LE` followed by the packed words.
    pub fn to_bytes(&self) -> Vec<u8> {
        // tac-lint: allow(arith) -- size accounting over a word buffer already held in RAM.
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parses a mask written by [`BitMask::to_bytes`]; `None` on malformed
    /// input (wrong length, or set bits beyond `len`).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let len = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?) as usize;
        let body = bytes.get(8..)?;
        if body.len() != len.div_ceil(64).checked_mul(8)? {
            return None;
        }
        let words = body
            .chunks_exact(8)
            .map(|w| w.try_into().map(u64::from_le_bytes))
            .collect::<Result<Vec<u64>, _>>()
            .ok()?;
        let mut mask = BitMask { words, len };
        // Reject streams with garbage beyond the tail rather than silently
        // miscounting.
        let tail = len % 64;
        if tail != 0 {
            if let Some(&last) = mask.words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return None;
                }
            }
        }
        mask.clear_tail();
        Some(mask)
    }
}

/// Iterator over maximal runs of set bits; see [`BitMask::runs`].
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    mask: &'a BitMask,
    at: usize,
    end: usize,
}

impl Iterator for Runs<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        while self.at < self.end {
            let (taken, bits) = self.mask.piece(self.at, self.end - self.at);
            if bits == 0 {
                // A piece of clear bits: skip it whole, and with it every
                // all-clear word that follows up to the range's end (one
                // compare each — what keeps a sparse mask as cheap here as
                // in `iter_ones`, and a short range as cheap as its words).
                self.at += taken;
                let clear = (self.mask.words)
                    .get(self.at / 64..self.end.div_ceil(64))
                    .map_or(0, |rest| rest.iter().take_while(|&&word| word == 0).count());
                self.at = self.at.saturating_add(clear.saturating_mul(64));
                continue;
            }
            let lo = bits.trailing_zeros() as usize;
            let start = self.at + lo;
            // `bits` is zero above `taken`, so the run stops inside the
            // piece or exactly at its end.
            let mut at = start + (bits >> lo).trailing_ones() as usize;
            if at == self.at + taken {
                // It reaches the end of the piece: extend it across word
                // boundaries while pieces stay all-ones.
                while at < self.end {
                    let (taken, bits) = self.mask.piece(at, self.end - at);
                    let ones = bits.trailing_ones() as usize;
                    at += ones;
                    if ones < taken {
                        break;
                    }
                }
            }
            self.at = at;
            return Some((start, at - start));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tac_dtype::Element;

    /// A mask whose words are a seeded mix of all-zero, all-one and
    /// random words, so the ranged kernels meet every word class.
    fn mixed_mask(len: usize, seed: u64) -> BitMask {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = BitMask::zeros(len);
        for w in m.words.iter_mut() {
            *w = match next() % 4 {
                0 => 0,
                1 => u64::MAX,
                2 => next() & next() & next(),
                _ => next(),
            };
        }
        m.clear_tail();
        m
    }

    /// Checks both ranged kernels on `[start, start + len)` against a
    /// bit-by-bit reference, for one element type. The source cells hold
    /// values whose bits differ from `+0.0` (including `-0.0` and NaN),
    /// the destination a sentinel no present cell carries.
    fn check_ranged_kernels<T: Element>(m: &BitMask, start: usize, len: usize, fill: [T; 3]) {
        let count = (start..start + len).filter(|&i| m.get(i)).count();
        assert_eq!(m.count_ones_in(start, len), count, "count {start}+{len}");
        let mut flags = vec![start % 2 == 0; len];
        assert_eq!(m.flags_into(start, &mut flags), count);
        let bits: Vec<bool> = (start..start + len).map(|i| m.get(i)).collect();
        assert_eq!(flags, bits, "flags {start}+{len}");
        let src: Vec<T> = (0..len).map(|i| fill[i % 3]).collect();
        let sentinel = T::from_f64(9.0);
        let mut cells = vec![sentinel; len];
        assert_eq!(m.copy_present(start, &src, &mut cells), count);
        for (i, (after, src)) in cells.iter().zip(&src).enumerate() {
            let expect = if m.get(start + i) { *src } else { sentinel };
            assert_eq!(
                after.to_bits_u64(),
                expect.to_bits_u64(),
                "cell {i} of {start}+{len}"
            );
        }
    }

    /// Checks `runs_in(start, len)` against a bit-by-bit reference: the
    /// runs concatenated are the set bits of the range in order, and
    /// every run is non-empty, inside the range and maximal there.
    fn check_runs(m: &BitMask, start: usize, len: usize) {
        let end = start.saturating_add(len).min(m.len());
        let runs: Vec<(usize, usize)> = m.runs_in(start, len).collect();
        let covered: Vec<usize> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
        let expect: Vec<usize> = m.iter_ones().filter(|&i| start <= i && i < end).collect();
        assert_eq!(covered, expect, "runs of {start}+{len}");
        for &(s, l) in &runs {
            assert!(l >= 1 && s >= start && s + l <= end, "run {s}+{l}");
            assert!(s == start || !m.get(s - 1), "run {s}+{l} extends left");
            assert!(s + l == end || !m.get(s + l), "run {s}+{l} extends right");
        }
    }

    /// Grid sides for the tree kernels: rows shorter than a word (1–32),
    /// rows straddling words at every offset (3, 12, 24), whole-word
    /// rows (64) and rows ending in a tail piece (96).
    const TREE_DIMS: [usize; 11] = [1, 2, 3, 4, 8, 12, 16, 24, 32, 64, 96];

    /// Checks `upsample2`, `upsample2_complement` and `union_with` on
    /// `dim^3` masks against a bit-by-bit reference, tail words included.
    fn check_tree_kernels(dim: usize, seed: u64) {
        let tail_is_clean = |m: &BitMask| {
            let ones: usize = m.words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(ones, m.iter_ones().filter(|&i| i < m.len()).count());
            assert_eq!(m.words.len(), m.len().div_ceil(64));
        };
        let coarse = mixed_mask(dim * dim * dim, seed);
        let fine = 2 * dim;
        let up = coarse.upsample2(dim);
        let flipped = coarse.upsample2_complement(dim);
        assert_eq!(up.len(), fine * fine * fine);
        assert_eq!(flipped.len(), up.len());
        tail_is_clean(&up);
        tail_is_clean(&flipped);
        for z in 0..fine {
            for y in 0..fine {
                for x in 0..fine {
                    let parent = coarse.get(x / 2 + dim * (y / 2 + dim * (z / 2)));
                    let i = x + fine * (y + fine * z);
                    assert_eq!(up.get(i), parent, "({x}, {y}, {z})");
                    assert_eq!(flipped.get(i), !parent, "complement ({x}, {y}, {z})");
                }
            }
        }
        let other = mixed_mask(coarse.len(), seed ^ 0xA5A5);
        let mut both = coarse.clone();
        both.union_with(&other);
        tail_is_clean(&both);
        for i in 0..coarse.len() {
            assert_eq!(both.get(i), coarse.get(i) || other.get(i), "union bit {i}");
        }
    }

    #[test]
    fn tree_kernels_match_a_per_bit_reference_at_every_dim() {
        for dim in TREE_DIMS {
            check_tree_kernels(dim, dim as u64);
        }
        // All-clear and all-set inputs, on the empty grid, a straddling
        // row and a tail row.
        for dim in [0, 3, 96] {
            let n = dim * dim * dim;
            assert_eq!(BitMask::zeros(n).upsample2(dim), BitMask::zeros(8 * n));
            assert_eq!(BitMask::ones(n).upsample2(dim), BitMask::ones(8 * n));
            assert_eq!(
                BitMask::ones(n).upsample2_complement(dim),
                BitMask::zeros(8 * n)
            );
            assert_eq!(
                BitMask::zeros(n).upsample2_complement(dim),
                BitMask::ones(8 * n)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn tree_kernels_match_a_per_bit_reference(
            seed in 0u64..u64::MAX,
            pick in 0usize..TREE_DIMS.len(),
        ) {
            check_tree_kernels(TREE_DIMS[pick], seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lengths are mostly not a multiple of 64, so the last run can
        /// end on the partial tail word; ranges may reach past the end.
        #[test]
        fn runs_match_a_per_bit_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..520,
            a in 0usize..560,
            b in 0usize..560,
        ) {
            let m = mixed_mask(n, seed);
            check_runs(&m, 0, n);
            check_runs(&m, a, b);
            let whole: Vec<(usize, usize)> = m.runs().collect();
            prop_assert_eq!(whole, m.runs_in(0, n).collect::<Vec<_>>());
        }

        /// Ranges drawn past the end are clipped, so they end exactly on
        /// the partial tail word; `a >= n` gives the empty range.
        #[test]
        fn ranged_kernels_match_a_per_bit_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..520,
            a in 0usize..520,
            b in 0usize..520,
        ) {
            let m = mixed_mask(n, seed);
            let start = a.min(n);
            let len = b.min(n - start);
            check_ranged_kernels(&m, start, len, [-0.0f64, f64::NAN, 7.5]);
            check_ranged_kernels(&m, start, len, [-0.0f32, f32::NAN, 7.5]);
        }
    }

    #[test]
    fn ranged_kernels_cover_every_range_class() {
        // 200 bits: three full words and an 8-bit tail word.
        let m = mixed_mask(200, 3);
        for (start, len) in [
            (0, 0),    // empty
            (200, 0),  // empty at the very end
            (5, 20),   // inside one word
            (60, 10),  // straddling two words
            (3, 190),  // straddling every word, ending in the tail word
            (64, 128), // whole words only
            (128, 72), // ending exactly on the partial tail
            (0, 200),  // everything
            (13, 6),   // inside one byte, both ends mid-byte
            (13, 43),  // mid-byte to mid-byte across bytes of one word
            (37, 99),  // mid-word to mid-word across a whole word
            (59, 70),  // mid-byte at both ends, straddling two boundaries
        ] {
            check_ranged_kernels(&m, start, len, [-0.0f64, f64::NAN, 7.5]);
        }
        // Words mixing every byte class — full, empty, partial — so the
        // mixed-word path meets full bytes cut by the range's ends.
        let mut m = BitMask::zeros(200);
        m.words = vec![
            0x00FF_F00F_FF00_FF81,
            0xFFFF_FFFF_0000_00FF,
            0x8001_FF00_FF7E_00FF,
            0xFF,
        ];
        for start in [0, 3, 8, 12, 61, 64, 70, 125] {
            for len in [0, 1, 5, 8, 11, 52, 67, 200 - start] {
                check_ranged_kernels(&m, start, len.min(200 - start), [-0.0f64, f64::NAN, 7.5]);
                check_ranged_kernels(&m, start, len.min(200 - start), [-0.0f32, f32::NAN, 7.5]);
            }
        }
    }

    #[test]
    fn runs_cover_every_range_class() {
        // 200 bits: three full words and an 8-bit tail word.
        let m = mixed_mask(200, 3);
        for (start, len) in [
            (0, 0),          // empty
            (200, 0),        // empty at the very end
            (5, 20),         // inside one word
            (60, 10),        // straddling two words
            (3, 190),        // straddling every word, ending in the tail word
            (64, 128),       // whole words only
            (128, 72),       // ending exactly on the partial tail
            (0, 200),        // everything
            (190, 64),       // reaching past the end: clipped
            (500, 3),        // wholly past the end: nothing
            (7, usize::MAX), // a length that would overflow `start + len`
        ] {
            check_runs(&m, start, len);
        }
        // One run across three word boundaries, ending at the tail.
        let ones = BitMask::ones(200);
        assert_eq!(ones.runs().collect::<Vec<_>>(), vec![(0, 200)]);
        assert_eq!(ones.runs_in(63, 66).collect::<Vec<_>>(), vec![(63, 66)]);
        assert_eq!(BitMask::zeros(200).runs().count(), 0);
        assert_eq!(BitMask::zeros(0).runs().count(), 0);
        // A clear bit splits runs; the word boundaries at 64 and 128 do not.
        let mut m = BitMask::zeros(192);
        for i in (0..64).chain(65..128).chain(128..192) {
            m.set(i, true);
        }
        assert_eq!(m.runs().collect::<Vec<_>>(), vec![(0, 64), (65, 127)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Per-unit counts against one ranged popcount per piece, at
        /// word-aligned and unaligned starts, for the SWAR unit and
        /// others, with ranges ending inside, on and past a word.
        #[test]
        fn unit_counts_match_ranged_popcounts(
            seed in 0u64..u64::MAX,
            start in 0usize..200,
            pieces in 0usize..24,
            unit in 1usize..10,
            aligned in any::<bool>(),
        ) {
            let start = if aligned { start / 64 * 64 } else { start };
            let m = mixed_mask(start + pieces * unit + 70, seed);
            let mut counts: Vec<u32> = (0..pieces as u32).collect();
            m.add_unit_counts(start, unit, &mut counts);
            for (k, &c) in counts.iter().enumerate() {
                prop_assert_eq!(c as usize, k + m.count_ones_in(start + k * unit, unit));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_counts_reject_a_range_past_the_end() {
        BitMask::zeros(70).add_unit_counts(64, 8, &mut [0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn copy_present_rejects_a_range_past_the_end() {
        BitMask::ones(70).copy_present(64, &[1.0; 7], &mut [0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn copy_present_rejects_slices_of_different_lengths() {
        BitMask::ones(70).copy_present(0, &[1.0; 7], &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ranged_count_rejects_a_range_past_the_end() {
        BitMask::zeros(70).count_ones_in(64, 7);
    }

    #[test]
    fn zeros_and_ones() {
        let z = BitMask::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 100);
        let o = BitMask::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!((o.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMask::zeros(130);
        for i in (0..130).step_by(3) {
            m.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(m.get(i), i % 3 == 0, "bit {i}");
        }
        m.set(63, false);
        m.set(64, false);
        assert!(!m.get(63) && !m.get(64));
    }

    #[test]
    fn count_matches_iteration() {
        let mut m = BitMask::zeros(777);
        let picks = [0usize, 1, 63, 64, 65, 100, 511, 776];
        for &i in &picks {
            m.set(i, true);
        }
        assert_eq!(m.count_ones(), picks.len());
        let collected: Vec<usize> = m.iter_ones().collect();
        assert_eq!(collected, picks);
    }

    #[test]
    fn ones_tail_is_clean() {
        // 70 bits: second word must only have 6 set bits.
        let m = BitMask::ones(70);
        assert_eq!(m.count_ones(), 70);
    }

    #[test]
    fn density_of_half() {
        let mut m = BitMask::zeros(1000);
        for i in 0..500 {
            m.set(i * 2, true);
        }
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitMask::zeros(8).get(8);
    }

    #[test]
    fn bounding_box_is_tight() {
        let dim = 4;
        let mut m = BitMask::zeros(dim * dim * dim);
        assert!(m.bounding_box(dim).is_none());
        // Set (1,2,0) and (3,0,2).
        m.set(1 + dim * 2, true);
        m.set(3 + dim * dim * 2, true);
        let b = m.bounding_box(dim).unwrap();
        assert_eq!(b, Aabb::new((1, 0, 0), (4, 3, 3)));
        let full = BitMask::ones(dim * dim * dim);
        assert_eq!(full.bounding_box(dim).unwrap(), Aabb::whole(dim));
    }

    #[test]
    fn bounding_box_matches_brute_force_on_random_masks() {
        // Exercises rows smaller than a word (dim 4), word-aligned rows
        // (dim 8 on word boundaries), and multi-word rows (dim 128 won't
        // fit here, dim 16 rows span word boundaries at odd offsets).
        for dim in [2usize, 4, 8, 16] {
            for seed in 0u64..8 {
                let n = dim * dim * dim;
                let mut m = BitMask::zeros(n);
                let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for i in 0..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 7 == 0 {
                        m.set(i, true);
                    }
                }
                // Brute force with per-bit coordinates.
                let mut lo = (usize::MAX, usize::MAX, usize::MAX);
                let mut hi = (0usize, 0usize, 0usize);
                let mut any = false;
                for i in m.iter_ones() {
                    let (x, y, z) = (i % dim, (i / dim) % dim, i / (dim * dim));
                    lo = (lo.0.min(x), lo.1.min(y), lo.2.min(z));
                    hi = (hi.0.max(x), hi.1.max(y), hi.2.max(z));
                    any = true;
                }
                let expect = any.then(|| Aabb::new(lo, (hi.0 + 1, hi.1 + 1, hi.2 + 1)));
                assert_eq!(m.bounding_box(dim), expect, "dim {dim} seed {seed}");
            }
        }
    }

    #[test]
    fn byte_serialization_roundtrip() {
        let mut m = BitMask::zeros(100);
        for i in [0usize, 5, 63, 64, 99] {
            m.set(i, true);
        }
        let bytes = m.to_bytes();
        let back = BitMask::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BitMask::from_bytes(&[]).is_none());
        assert!(BitMask::from_bytes(&[1, 2, 3]).is_none());
        // Declares 4 bits but ships 2 words.
        let mut bad = 4u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 16]);
        assert!(BitMask::from_bytes(&bad).is_none());
        // Tail bits set beyond len.
        let mut bad = 4u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitMask::from_bytes(&bad).is_none());
    }
}
