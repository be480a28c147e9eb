//! The hand-rolled binary framing shared by every serialized artifact.
//!
//! The workspace has no serde; both persisted artifacts (Pareto sweep
//! checkpoints in `sna-opt`, fitted trace ranges in `sna trace`) are
//! encoded with these primitives so the on-disk format has exactly one
//! set of rules:
//!
//! * all integers are **little-endian**, fixed width (`u8`/`u32`/`u64`);
//! * lengths and counts are `u64` (bounded on read — see
//!   [`WireReader::read_len`] — so a corrupt length can never drive an
//!   allocation);
//! * `f64` travels as its IEEE-754 bit pattern ([`f64::to_bits`]), so a
//!   value round-trips **bit-exactly** — NaN payloads, signed zeros and
//!   all;
//! * strings are a `u64` byte length + UTF-8 bytes.
//!
//! Readers never panic on malformed input: every decode error surfaces
//! as [`WireError`], which store consumers treat exactly like a CRC
//! mismatch — the object is corrupt, drop it and recompute.

use std::fmt;

/// A malformed byte stream. The message names what failed; callers
/// treat any variant as "this object is corrupt".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    /// Builds an error with a short human-readable cause.
    #[must_use]
    pub fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds-checked
/// and returns [`WireError`] instead of panicking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage means
    /// the frame does not match the schema that is decoding it.
    ///
    /// # Errors
    ///
    /// [`WireError`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::new(format!(
                "{} trailing byte(s)",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "need {n} byte(s), have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length/count written by [`WireWriter::len`], bounded by
    /// the bytes actually remaining — a corrupt length can therefore
    /// never drive a huge allocation (`Vec::with_capacity` downstream
    /// is safe).
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer or an impossible length.
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        // Any legitimate count describes elements that occupy at least
        // one byte each in this frame.
        if v > self.remaining() as u64 {
            return Err(WireError::new(format!(
                "length {v} exceeds {} remaining byte(s)",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }

    /// Reads an element count where each element occupies at least
    /// `min_elem_bytes` in the frame — tighter than [`Self::read_len`]
    /// for counts of multi-byte records.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer or an impossible count.
    pub fn read_count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let v = self.u64()?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if v > cap as u64 {
            return Err(WireError::new(format!(
                "count {v} exceeds what {} remaining byte(s) can hold",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.read_len()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("invalid UTF-8 in string"))
    }

    /// Reads length-prefixed raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a short buffer.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.read_len()?;
        Ok(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive_bit_exactly() {
        let mut w = WireWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(f64::NAN);
        w.f64(-0.0);
        w.f64(0.1 + 0.2);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.len(7);
        let buf = w.finish();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64().unwrap(), 7);
        r.expect_end().unwrap();
    }

    #[test]
    fn short_buffers_and_bad_lengths_error_cleanly() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(r.u32().is_err());

        // A length claiming more bytes than remain must not allocate.
        let mut w = WireWriter::new();
        w.u64(u64::MAX);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(r.read_len().is_err());

        // Counts of multi-byte records are bounded tighter still.
        let mut w = WireWriter::new();
        w.u64(100);
        w.u64(0);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(r.read_count(8).is_err());

        // Invalid UTF-8 is an error, not a panic.
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(r.str().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        r.u8().unwrap();
        assert!(r.expect_end().is_err());
    }
}
