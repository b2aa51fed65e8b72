//! # cmp-snap — versioned binary snapshot primitives
//!
//! The crash-resume layer of the reproduction serialises full architectural
//! state — cache slabs, policy counters, RNG streams, trace cursors — into a
//! single self-describing byte stream. This crate owns the wire format
//! primitives so every layer (cmp-cache, the policies, cmp-sim) encodes
//! state the same way and every reader fails loudly instead of
//! misinterpreting bytes:
//!
//! * [`SnapWriter`] — append-only little-endian encoder with tagged,
//!   length-prefixed sections;
//! * [`SnapReader`] — bounds-checked decoder; every getter returns
//!   [`SnapError`] instead of panicking on truncated or corrupt input;
//! * [`atomic_write`] — temp-file-plus-rename publication, so a kill
//!   mid-write can never leave a torn artifact behind.
//!
//! ## Format conventions
//!
//! All integers are **little-endian**. Floating-point values are stored as
//! the raw IEEE-754 bit pattern (`f64::to_bits`) so restored clocks compare
//! bit-identical to never-snapshotted ones. Variable-length payloads
//! (byte strings, UTF-8 strings, `u64` slices) carry a `u64` length prefix.
//! A *section* is `tag: u8` + `len: u64` + `len` payload bytes; readers can
//! skip sections they do not understand, which is what keeps the format
//! extensible across snapshot versions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::fmt;
use std::io;
use std::path::Path;

/// Errors surfaced while decoding a snapshot stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the requested value.
    UnexpectedEof {
        /// What the reader was trying to decode.
        wanted: &'static str,
        /// Bytes needed to decode it.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The leading magic bytes did not identify a snapshot stream.
    BadMagic,
    /// The stream's format version is not one this build can decode.
    BadVersion {
        /// Version found in the stream.
        found: u16,
        /// Version this build writes and reads.
        supported: u16,
    },
    /// A section tag other than the expected one was found.
    BadSection {
        /// Tag the caller asked for.
        expected: u8,
        /// Tag actually present.
        found: u8,
    },
    /// The stream decoded, but its contents are not usable as-is
    /// (impossible lengths, invalid enum discriminants, …).
    Corrupt(String),
    /// The snapshot is well-formed but was taken from an incompatible
    /// configuration (different geometry, policy, core count, …).
    Mismatch(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof {
                wanted,
                needed,
                remaining,
            } => write!(
                f,
                "truncated snapshot: wanted {wanted} ({needed} bytes) but only {remaining} remain"
            ),
            SnapError::BadMagic => write!(f, "not a snapshot stream (bad magic)"),
            SnapError::BadVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapError::BadSection { expected, found } => write!(
                f,
                "unexpected snapshot section: wanted tag {expected}, found tag {found}"
            ),
            SnapError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapError::Mismatch(why) => write!(f, "snapshot/configuration mismatch: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed `u16` slice.
    pub fn put_u16_slice(&mut self, vs: &[u16]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u16(v);
        }
    }

    /// Writes a tagged, length-prefixed section whose payload is produced
    /// by `fill`. The length is patched in after `fill` returns, so callers
    /// never compute payload sizes by hand.
    pub fn section(&mut self, tag: u8, fill: impl FnOnce(&mut SnapWriter)) {
        self.put_u8(tag);
        self.blob(fill);
    }

    /// Writes an untagged length-prefixed block whose payload is produced
    /// by `fill` — readers can skip it wholesale via
    /// [`SnapReader::get_blob`] without decoding the contents.
    pub fn blob(&mut self, fill: impl FnOnce(&mut SnapWriter)) {
        let len_at = self.buf.len();
        self.put_u64(0); // placeholder, patched below
        fill(self);
        let payload = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&payload.to_le_bytes());
    }
}

/// Bounds-checked little-endian snapshot decoder over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once the whole slice has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, wanted: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                wanted,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`, rejecting bytes other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b:#x}"))),
        }
    }

    fn get_len(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let len = self.get_u64()?;
        // A length cannot exceed the bytes that remain (each element is at
        // least one byte); rejecting early turns bit flips in a length
        // prefix into a clean error instead of an allocation blow-up.
        if len > self.remaining() as u64 {
            return Err(SnapError::Corrupt(format!(
                "{what} length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_len("byte string")?;
        self.take(len, "byte string body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|e| SnapError::Corrupt(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64_slice(&mut self) -> Result<Vec<u64>, SnapError> {
        let len = self.get_u64()?;
        if len
            .checked_mul(8)
            .is_none_or(|b| b > self.remaining() as u64)
        {
            return Err(SnapError::Corrupt(format!(
                "u64 slice length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed `u16` slice.
    pub fn get_u16_slice(&mut self) -> Result<Vec<u16>, SnapError> {
        let len = self.get_u64()?;
        if len
            .checked_mul(2)
            .is_none_or(|b| b > self.remaining() as u64)
        {
            return Err(SnapError::Corrupt(format!(
                "u16 slice length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        (0..len).map(|_| self.get_u16()).collect()
    }

    /// Reads a length-prefixed block written by [`SnapWriter::blob`],
    /// returning a reader over its payload and advancing past it.
    pub fn get_blob(&mut self) -> Result<SnapReader<'a>, SnapError> {
        let len = self.get_len("blob")?;
        Ok(SnapReader::new(self.take(len, "blob body")?))
    }

    /// Reads the next section header and returns `(tag, payload reader)`,
    /// advancing past the whole section. Returns `Ok(None)` at end of
    /// stream.
    pub fn next_section(&mut self) -> Result<Option<(u8, SnapReader<'a>)>, SnapError> {
        if self.is_exhausted() {
            return Ok(None);
        }
        let tag = self.get_u8()?;
        let len = self.get_len("section")?;
        let body = self.take(len, "section body")?;
        Ok(Some((tag, SnapReader::new(body))))
    }

    /// Reads the next section, requiring it to carry `expected`'s tag.
    pub fn expect_section(&mut self, expected: u8) -> Result<SnapReader<'a>, SnapError> {
        match self.next_section()? {
            Some((tag, body)) if tag == expected => Ok(body),
            Some((found, _)) => Err(SnapError::BadSection { expected, found }),
            None => Err(SnapError::UnexpectedEof {
                wanted: "section",
                needed: 9,
                remaining: 0,
            }),
        }
    }

    /// Asserts the reader consumed everything — catches writer/reader
    /// drift where a decoder silently ignores trailing state.
    pub fn finish(self, what: &'static str) -> Result<(), SnapError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{what}: {} unread trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Writes `bytes` to `path` atomically: the data goes to a uniquely named
/// temporary file in the same directory, is flushed, and is then renamed
/// over the destination. Readers either see the complete old file or the
/// complete new one — never a torn mix — and a kill mid-write leaves the
/// destination untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;

    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write: path {} has no file name", path.display()),
        )
    })?;
    // Same-directory temp name so the final rename never crosses a
    // filesystem boundary (cross-device renames are not atomic).
    let tmp_name = format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp_path, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xCDEF);
        w.put_u32(0xDEADBEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("ASCC");
        w.put_u64_slice(&[1, 2, 3]);
        w.put_u16_slice(&[7, 8]);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xCDEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "ASCC");
        assert_eq!(r.get_u64_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u16_slice().unwrap(), vec![7, 8]);
        r.finish("scalar round trip").unwrap();
    }

    #[test]
    fn sections_patch_lengths_and_skip() {
        let mut w = SnapWriter::new();
        w.section(1, |w| w.put_u64(11));
        w.section(2, |w| {
            w.put_str("nested payload");
            w.section(3, |w| w.put_u8(9));
        });
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        let (tag, mut body) = r.next_section().unwrap().unwrap();
        assert_eq!(tag, 1);
        assert_eq!(body.get_u64().unwrap(), 11);
        body.finish("section 1").unwrap();

        let mut body = r.expect_section(2).unwrap();
        assert_eq!(body.get_str().unwrap(), "nested payload");
        let mut inner = body.expect_section(3).unwrap();
        assert_eq!(inner.get_u8().unwrap(), 9);
        assert!(r.next_section().unwrap().is_none());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.put_u64(5);
        let mut bytes = w.into_bytes();
        bytes.truncate(5);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.get_u64(),
            Err(SnapError::UnexpectedEof { needed: 8, .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd slice length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_u64_slice(), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn wrong_section_tag_reported() {
        let mut w = SnapWriter::new();
        w.section(4, |w| w.put_u8(0));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.expect_section(9).unwrap_err(),
            SnapError::BadSection {
                expected: 9,
                found: 4
            }
        );
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("snap-test-{}", std::process::id()));
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        // No temp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
