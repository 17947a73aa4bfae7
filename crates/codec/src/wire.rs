//! Shared little-endian wire primitives.
//!
//! One checked byte-level writer/reader pair used by every hand-rolled
//! format in the workspace: the codec streams in this crate and the
//! dataset containers in `tac-core`. Keeping a single implementation
//! means one set of bounds checks and one place where endianness is
//! decided. A failed read is a [`WireError`] naming its byte offset;
//! each format turns it into its own corrupt-input error.

use std::fmt;

/// A read the buffer cannot satisfy: too few bytes left, or a string
/// that is not UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset of the failed read from the start of the buffer.
    pub offset: usize,
    /// What the read found wrong.
    pub reason: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte writer over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no framing.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64`-length-prefixed byte blob.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_blob(v.as_bytes());
    }

    /// Bytes written so far (offsets recorded by chunked formats).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Consumes `n` bytes — the single bounds-checked cursor advance
    /// every typed read goes through. Failed reads consume nothing.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let short = || self.error(format!("need {n} bytes, {} remain", self.remaining()));
        let end = self.pos.checked_add(n).ok_or_else(short)?;
        let out = self.buf.get(self.pos..end).ok_or_else(short)?;
        self.pos = end;
        Ok(out)
    }

    /// Consumes exactly `N` bytes as a fixed-size array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.take(N)?;
        <[u8; N]>::try_from(bytes).map_err(|_| self.error("short read".into()))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Reads `n` raw bytes (borrowed).
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed blob (borrowed).
    pub fn get_blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u64()? as usize;
        self.get_bytes(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let at = self.pos;
        let blob = self.get_blob()?;
        String::from_utf8(blob.to_vec()).map_err(|_| WireError {
            offset: at,
            reason: "invalid UTF-8 string".into(),
        })
    }

    /// Advances past `n` bytes without inspecting them (a seek over an
    /// uninteresting payload region).
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    /// The unread tail of the buffer, without consuming it.
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    /// A failure of the read at the current offset.
    fn error(&self, reason: String) -> WireError {
        WireError {
            offset: self.pos,
            reason,
        }
    }

    /// Current byte offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Unread bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD);
        w.put_u64(1 << 40);
        w.put_f64(-2.5);
        w.put_blob(b"hello");
        w.put_str("Run1_Z10");
        w.put_bytes(&[1, 2, 3]);
        assert_eq!(w.len(), 1 + 4 + 8 + 8 + (8 + 5) + (8 + 8) + 3);
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f64().unwrap(), -2.5);
        assert_eq!(r.get_blob().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "Run1_Z10");
        assert_eq!(r.get_bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn skip_and_position_track_offsets() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        w.put_bytes(&[9; 10]);
        w.put_u8(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.position(), 8);
        r.skip(10).unwrap();
        assert_eq!(r.position(), 18);
        assert_eq!(r.get_u8().unwrap(), 5);
        assert!(r.skip(1).is_err());
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u32().is_err());
        assert!(r.get_u64().is_err());
        assert!(r.get_f64().is_err());
        assert!(r.get_blob().is_err());
        // Failed reads consume nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u8().unwrap(), 1);
    }

    #[test]
    fn failed_reads_name_their_offset() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_blob(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        let mut probe = ByteReader::new(&bytes);
        probe.skip(4).unwrap();
        let short = probe.get_u64().unwrap_err();
        assert_eq!(short.offset, 4);
        assert_eq!(short.to_string(), "need 8 bytes, 7 remain at byte 4");
        let utf8 = r.get_str().unwrap_err();
        assert_eq!(utf8.offset, 1);
        assert_eq!(utf8.to_string(), "invalid UTF-8 string at byte 1");
    }

    #[test]
    fn blob_declaring_absurd_length_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_blob().is_err());
    }

    #[test]
    fn invalid_utf8_string_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_blob(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }
}
