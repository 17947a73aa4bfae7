//! MSB-first bit-level writer and reader used by the Huffman coder.
//!
//! Both sides move whole 64-bit words. [`BitWriter`] gathers bits in a
//! `u64` accumulator and appends it as eight big-endian bytes once full,
//! so the stream is the same MSB-first byte sequence a bit-at-a-time
//! writer produces: the final partial byte is zero-padded. [`BitReader`]
//! loads the eight bytes under its cursor as one big-endian word and
//! shifts the cursor's bit offset out; [`BitReader::peek_bits`] reads up
//! to [`PEEK_MAX`] bits that way without moving, which is what the
//! Huffman decoder's lookup table indexes with. Bytes past the end of
//! the buffer read as zero; bits past the declared length may be peeked
//! but never consumed, so every over-read is still an error.

use crate::CodecError;

/// Most bits [`BitReader::peek_bits`] returns: one 8-byte load shifted
/// by the cursor's bit offset (at most 7) keeps 57 bits whole.
pub const PEEK_MAX: u8 = 57;

/// Accumulates bits MSB-first into a byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// The pending `used` bits, right-aligned; bits above them are zero.
    acc: u64,
    /// Pending bit count, in `[0, 64)`.
    used: u32,
    bits_written: u64,
}

impl BitWriter {
    /// Creates a writer with pre-reserved capacity (in bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            ..Default::default()
        }
    }

    /// Appends the low `nbits` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `nbits > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u8) {
        assert!(nbits <= 64, "cannot write more than 64 bits at once");
        let n = u32::from(nbits);
        self.bits_written += u64::from(n);
        if n == 0 {
            return;
        }
        let v = value & (u64::MAX >> (64 - n));
        let free = 64 - self.used;
        if n < free {
            self.acc = (self.acc << n) | v;
            self.used += n;
        } else {
            // Top off the accumulator, emit it whole, keep the rest.
            let rest = n - free;
            let word = if self.used == 0 {
                v
            } else {
                (self.acc << free) | (v >> rest)
            };
            self.buf.extend_from_slice(&word.to_be_bytes());
            self.acc = v & ((1u64 << rest) - 1);
            self.used = rest;
        }
    }

    /// Finishes the stream, padding the final byte with zero bits.
    /// Returns `(bytes, bit_len)`.
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        if self.used > 0 {
            let tail = (self.acc << (64 - self.used)).to_be_bytes();
            let bytes = self.used.div_ceil(8) as usize;
            self.buf.extend(tail.iter().take(bytes));
        }
        (self.buf, self.bits_written)
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit index.
    pos: u64,
    /// Total valid bits in the stream.
    bit_len: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf` containing `bit_len` valid bits.
    ///
    /// # Errors
    /// Fails if `buf` is too short to hold `bit_len` bits.
    pub fn new(buf: &'a [u8], bit_len: u64) -> Result<Self, CodecError> {
        if (buf.len() as u64) * 8 < bit_len {
            return Err(CodecError::Corrupt(format!(
                "bitstream declares {bit_len} bits but holds only {}",
                buf.len() as u64 * 8
            )));
        }
        Ok(BitReader {
            buf,
            pos: 0,
            bit_len,
        })
    }

    /// Remaining readable bits.
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// The eight bytes at byte `at` as one big-endian word, zero past
    /// the end of the buffer.
    #[inline]
    fn word_at(&self, at: usize) -> u64 {
        match self.buf.get(at..).and_then(|s| s.get(..8)) {
            Some(s) => {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(s);
                u64::from_be_bytes(bytes)
            }
            None => {
                let tail = self.buf.get(at..).unwrap_or(&[]);
                let mut bytes = [0u8; 8];
                for (d, &b) in bytes.iter_mut().zip(tail) {
                    *d = b;
                }
                u64::from_be_bytes(bytes)
            }
        }
    }

    /// The next `nbits` bits (`1..=`[`PEEK_MAX`]) MSB-first, without
    /// moving the cursor. Bits past the declared length are whatever the
    /// buffer holds there, zero past its end: a caller may look at them
    /// but must check [`BitReader::remaining`] before consuming.
    #[inline]
    pub fn peek_bits(&self, nbits: u8) -> u64 {
        debug_assert!((1..=PEEK_MAX).contains(&nbits));
        let word = self.word_at((self.pos / 8) as usize);
        (word << (self.pos % 8)) >> (64 - u32::from(nbits))
    }

    /// Advances the cursor by `nbits`.
    ///
    /// # Errors
    /// Fails on over-read, leaving the cursor where it was.
    #[inline]
    pub fn consume(&mut self, nbits: u64) -> Result<(), CodecError> {
        if self.remaining() < nbits {
            return Err(CodecError::Corrupt("bitstream over-read".into()));
        }
        self.pos += nbits;
        Ok(())
    }

    /// Reads `nbits` bits MSB-first.
    ///
    /// # Errors
    /// Fails on over-read.
    #[inline]
    pub fn read_bits(&mut self, nbits: u8) -> Result<u64, CodecError> {
        if self.remaining() < u64::from(nbits) {
            return Err(CodecError::Corrupt("bitstream over-read".into()));
        }
        if nbits == 0 {
            return Ok(0);
        }
        let head = nbits.min(PEEK_MAX);
        let mut out = self.peek_bits(head);
        self.pos += u64::from(head);
        let tail = nbits - head;
        if tail > 0 {
            out = (out << tail) | self.peek_bits(tail);
            self.pos += u64::from(tail);
        }
        Ok(out)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }
}

/// The bit-at-a-time writer and reader both sides used before the word
/// kernels, kept as the reference the differential tests hold
/// [`BitWriter`] and [`BitReader`] to.
#[cfg(test)]
pub(crate) mod reference {
    use crate::CodecError;

    /// Accumulates bits MSB-first into a byte buffer.
    #[derive(Debug, Default)]
    pub struct BitWriter {
        buf: Vec<u8>,
        /// Bits accumulated in `acc`, left-aligned count in [0, 8).
        acc: u8,
        used: u8,
        bits_written: u64,
    }

    impl BitWriter {
        /// Creates an empty writer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Creates a writer with pre-reserved capacity (in bytes).
        pub fn with_capacity(bytes: usize) -> Self {
            BitWriter {
                buf: Vec::with_capacity(bytes),
                ..Default::default()
            }
        }

        /// Appends the low `nbits` bits of `value`, most significant first.
        ///
        /// # Panics
        /// Panics if `nbits > 64`.
        #[inline]
        pub fn write_bits(&mut self, value: u64, nbits: u8) {
            assert!(nbits <= 64, "cannot write more than 64 bits at once");
            self.bits_written += nbits as u64;
            let mut remaining = nbits;
            while remaining > 0 {
                let space = 8 - self.used;
                let take = remaining.min(space);
                // Bits [remaining-take, remaining) of `value`, placed at the
                // top of the remaining space in `acc`.
                let chunk = ((value >> (remaining - take)) & ((1u64 << take) - 1)) as u8;
                self.acc |= chunk << (space - take);
                self.used += take;
                remaining -= take;
                if self.used == 8 {
                    self.buf.push(self.acc);
                    self.acc = 0;
                    self.used = 0;
                }
            }
        }

        /// Appends a single bit.
        #[inline]
        pub fn write_bit(&mut self, bit: bool) {
            self.write_bits(bit as u64, 1);
        }

        /// Finishes the stream, padding the final byte with zero bits.
        /// Returns `(bytes, bit_len)`.
        pub fn finish(mut self) -> (Vec<u8>, u64) {
            if self.used > 0 {
                self.buf.push(self.acc);
            }
            (self.buf, self.bits_written)
        }
    }

    /// Reads bits MSB-first from a byte slice.
    #[derive(Debug)]
    pub struct BitReader<'a> {
        buf: &'a [u8],
        /// Next bit index.
        pos: u64,
        /// Total valid bits in the stream.
        bit_len: u64,
    }

    impl<'a> BitReader<'a> {
        /// Creates a reader over `buf` containing `bit_len` valid bits.
        ///
        /// # Errors
        /// Fails if `buf` is too short to hold `bit_len` bits.
        pub fn new(buf: &'a [u8], bit_len: u64) -> Result<Self, CodecError> {
            if (buf.len() as u64) * 8 < bit_len {
                return Err(CodecError::Corrupt(format!(
                    "bitstream declares {bit_len} bits but holds only {}",
                    buf.len() as u64 * 8
                )));
            }
            Ok(BitReader {
                buf,
                pos: 0,
                bit_len,
            })
        }

        /// Remaining readable bits.
        pub fn remaining(&self) -> u64 {
            self.bit_len - self.pos
        }

        /// Reads `nbits` bits MSB-first.
        ///
        /// # Errors
        /// Fails on over-read.
        #[inline]
        pub fn read_bits(&mut self, nbits: u8) -> Result<u64, CodecError> {
            if self.remaining() < nbits as u64 {
                return Err(CodecError::Corrupt("bitstream over-read".into()));
            }
            let mut out = 0u64;
            let mut remaining = nbits;
            while remaining > 0 {
                let byte = self
                    .buf
                    .get((self.pos / 8) as usize)
                    .copied()
                    .ok_or_else(|| CodecError::Corrupt("bitstream over-read".into()))?;
                let offset = (self.pos % 8) as u8;
                let avail = 8 - offset;
                let take = remaining.min(avail);
                let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
                out = (out << take) | chunk as u64;
                self.pos += take as u64;
                remaining -= take;
            }
            Ok(out)
        }

        /// Reads one bit.
        #[inline]
        pub fn read_bit(&mut self) -> Result<bool, CodecError> {
            Ok(self.read_bits(1)? == 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*: deterministic test input without a dependency.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// A width in `0..=64`, mostly Huffman-sized.
    fn width(next: &mut impl FnMut() -> u64) -> u8 {
        let r = next();
        if r % 8 == 0 {
            (r >> 8) as u8 % 65
        } else {
            (r >> 8) as u8 % 24
        }
    }

    #[test]
    fn writer_matches_reference_bytes() {
        for seed in 0..64u64 {
            let mut next = rng(seed);
            let mut w = BitWriter::with_capacity(0);
            let mut r = reference::BitWriter::new();
            // Vary the write count so every tail length shows up.
            for _ in 0..(seed * 37 % 700) {
                let (v, n) = (next(), width(&mut next));
                if n == 1 {
                    w.write_bits(v & 1, 1);
                    r.write_bit(v & 1 == 1);
                } else {
                    w.write_bits(v, n);
                    r.write_bits(v, n);
                }
            }
            assert_eq!(w.finish(), r.finish(), "seed {seed}");
        }
    }

    #[test]
    fn reader_matches_reference_reads_and_errors() {
        for seed in 0..64u64 {
            let mut next = rng(seed);
            let buf: Vec<u8> = (0..seed % 40).map(|_| next() as u8).collect();
            let cap = buf.len() as u64 * 8;
            let bit_len = if cap == 0 {
                0
            } else {
                cap - next() % 8.min(cap)
            };
            let mut a = BitReader::new(&buf, bit_len).unwrap();
            let mut b = reference::BitReader::new(&buf, bit_len).unwrap();
            loop {
                let n = width(&mut next);
                let (x, y) = (a.read_bits(n), b.read_bits(n));
                assert_eq!(x.is_ok(), y.is_ok(), "seed {seed}: width {n}");
                assert_eq!(a.remaining(), b.remaining());
                match (x, y) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y, "seed {seed}: width {n}"),
                    _ => break,
                }
            }
        }
        assert_eq!(
            BitReader::new(&[0u8], 9).is_err(),
            reference::BitReader::new(&[0u8], 9).is_err()
        );
    }

    #[test]
    fn peek_reads_without_moving_and_zero_fills() {
        let bytes = [0b1011_0011u8, 0xFF, 0x01];
        let mut r = BitReader::new(&bytes, 20).unwrap();
        assert_eq!(r.peek_bits(4), 0b1011);
        assert_eq!(r.peek_bits(4), 0b1011);
        r.consume(6).unwrap();
        // Bits 6.. are 11 1111_1111 0000_0001 and then zeros.
        assert_eq!(
            r.peek_bits(PEEK_MAX),
            0b11_1111_1111_0000_0001 << (PEEK_MAX - 18)
        );
        assert!(r.consume(15).is_err());
        assert_eq!(r.remaining(), 14, "a failed consume leaves the cursor");
        r.consume(14).unwrap();
        assert_eq!(r.peek_bits(4), 0b0001, "bits past the length are peekable");
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::with_capacity(0);
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(1, 1);
        w.write_bits(0, 7);
        w.write_bits(u64::MAX, 64);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits).unwrap();
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(7).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn over_read_is_detected() {
        let mut w = BitWriter::with_capacity(0);
        w.write_bits(0b11, 2);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits).unwrap();
        assert!(r.read_bits(3).is_err());
    }

    #[test]
    fn truncated_buffer_is_detected() {
        assert!(BitReader::new(&[0u8], 9).is_err());
        assert!(BitReader::new(&[0u8], 8).is_ok());
    }

    #[test]
    fn bit_order_is_msb_first() {
        let mut w = BitWriter::with_capacity(0);
        w.write_bits(1, 1);
        w.write_bits(0, 7);
        let (bytes, _) = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn many_single_bits() {
        let pattern: Vec<bool> = (0..1000).map(|i| (i * 7) % 3 == 0).collect();
        let mut w = BitWriter::with_capacity(0);
        for &b in &pattern {
            w.write_bits(u64::from(b), 1);
        }
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 1000);
        let mut r = BitReader::new(&bytes, bits).unwrap();
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::with_capacity(0);
        w.write_bits(123, 0);
        let (bytes, bits) = w.finish();
        assert!(bytes.is_empty());
        assert_eq!(bits, 0);
    }
}
