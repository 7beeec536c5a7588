//! Versioned, length-prefixed binary snapshot format for simulator
//! checkpoints, with an FNV-1a determinism fingerprint.
//!
//! # Blob layout
//!
//! A checkpoint blob is a fixed 24-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "MBCK"
//!      4     2  format version (little-endian u16)
//!      6     2  flags (bit 0: payload includes trace bytes)
//!      8     8  payload length (little-endian u64)
//!     16     8  FNV-1a 64 fingerprint of the payload bytes
//! ```
//!
//! The payload itself is a sequence of *sections*, each introduced by a
//! 4-byte tag and a little-endian u32 byte length, so readers can
//! validate section identity and bounds before touching content, and a
//! corrupted length can never read outside the blob. All multi-byte
//! integers are little-endian. Within sections, values are written with
//! the fixed-width primitives of [`Writer`] and read back symmetrically
//! with [`Reader`]; variable-size data is length-prefixed
//! ([`Writer::bytes`], [`Writer::str_`]).
//!
//! The fingerprint doubles as the determinism digest: two simulations
//! in identical states serialize to identical payloads, hence identical
//! fingerprints — and [`read_header`] rejects any blob whose bytes no
//! longer match their recorded fingerprint.
//!
//! Decoding is total: corrupted, truncated, or wrong-version input
//! yields a typed [`CkptError`], never a panic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// Magic bytes introducing every checkpoint blob.
pub const MAGIC: [u8; 4] = *b"MBCK";

/// Current format version. Bump on any incompatible payload change.
pub const VERSION: u16 = 2;

/// Header flag bit: the payload carries VCD trace-continuation bytes.
pub const FLAG_TRACE: u16 = 1 << 0;

/// Byte length of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 24;

/// FNV-1a 64-bit hash — the checkpoint fingerprint function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed decode failure. Every reader path returns one of these on bad
/// input; none panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob's format version is not [`VERSION`]; carries the version
    /// found.
    UnsupportedVersion(u16),
    /// The blob or a section ended before the expected data.
    Truncated,
    /// Structurally invalid content; carries a static description of the
    /// first inconsistency found.
    Corrupt(&'static str),
    /// The payload bytes no longer hash to the header's fingerprint.
    FingerprintMismatch,
    /// A section tag did not match the expected tag; carries the
    /// expected tag.
    SectionMismatch(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint blob (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v} (expected {VERSION})")
            }
            CkptError::Truncated => write!(f, "checkpoint blob truncated"),
            CkptError::Corrupt(what) => write!(f, "checkpoint blob corrupt: {what}"),
            CkptError::FingerprintMismatch => {
                write!(f, "checkpoint payload does not match its fingerprint")
            }
            CkptError::SectionMismatch(tag) => {
                write!(f, "checkpoint section mismatch (expected '{tag}')")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Decoded header of a checkpoint blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version of the blob.
    pub version: u16,
    /// Flag bits (see [`FLAG_TRACE`]).
    pub flags: u16,
    /// Payload byte length.
    pub payload_len: u64,
    /// FNV-1a fingerprint of the payload bytes.
    pub fingerprint: u64,
}

/// Validates a whole blob — magic, version, length, fingerprint — and
/// returns its header and payload slice.
pub fn read_header(blob: &[u8]) -> Result<(Header, &[u8]), CkptError> {
    if blob.len() < HEADER_LEN {
        return Err(if blob.len() >= 4 && blob[..4] != MAGIC && !blob.is_empty() {
            CkptError::BadMagic
        } else {
            CkptError::Truncated
        });
    }
    if blob[..4] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = u16::from_le_bytes([blob[4], blob[5]]);
    if version != VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let flags = u16::from_le_bytes([blob[6], blob[7]]);
    let payload_len = u64::from_le_bytes(blob[8..16].try_into().unwrap());
    let fingerprint = u64::from_le_bytes(blob[16..24].try_into().unwrap());
    let payload = &blob[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(CkptError::Truncated);
    }
    if fnv1a(payload) != fingerprint {
        return Err(CkptError::FingerprintMismatch);
    }
    Ok((Header { version, flags, payload_len, fingerprint }, payload))
}

/// Payload encoder: fixed-width primitives plus length-backpatched
/// sections. [`Writer::finish`] prepends the header.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Open sections: byte offset of each pending length field.
    open: Vec<usize>,
}

impl Writer {
    /// Creates an empty payload writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed (u32) byte run.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("byte run too large for checkpoint"));
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn str_(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Opens a section: writes the 4-byte `tag` and reserves the length
    /// field, to be backpatched by [`Writer::end_section`].
    pub fn begin_section(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
        self.open.push(self.buf.len());
        self.u32(0);
    }

    /// Closes the innermost open section, backpatching its byte length.
    pub fn end_section(&mut self) {
        let at = self.open.pop().expect("end_section without begin_section");
        let len = u32::try_from(self.buf.len() - at - 4).expect("section too large");
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Current payload length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes the blob: prepends the header (magic, version, `flags`,
    /// payload length, fingerprint) to the payload and returns the whole
    /// byte vector.
    pub fn finish(self, flags: u16) -> Vec<u8> {
        assert!(self.open.is_empty(), "finish with open sections");
        let fp = fnv1a(&self.buf);
        let mut out = Vec::with_capacity(HEADER_LEN + self.buf.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fp.to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Bounds-checked payload decoder, symmetric to [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// End offsets of open sections; reads may not cross them.
    limits: Vec<usize>,
}

impl<'a> Reader<'a> {
    /// Wraps a payload slice (the part after the header).
    pub fn new(payload: &'a [u8]) -> Self {
        Reader { buf: payload, pos: 0, limits: Vec::new() }
    }

    fn limit(&self) -> usize {
        self.limits.last().copied().unwrap_or(self.buf.len())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.pos + n > self.limit() {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool; any byte other than 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed byte run.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<&'a str, CkptError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CkptError::Corrupt("string not UTF-8"))
    }

    /// Enters a section, validating its 4-byte tag and that its recorded
    /// length fits in the enclosing scope. `name` is the static tag name
    /// reported on mismatch.
    pub fn begin_section(&mut self, tag: &[u8; 4], name: &'static str) -> Result<(), CkptError> {
        let found = self.take(4)?;
        if found != tag {
            return Err(CkptError::SectionMismatch(name));
        }
        let len = self.u32()? as usize;
        if self.pos + len > self.limit() {
            return Err(CkptError::Truncated);
        }
        self.limits.push(self.pos + len);
        Ok(())
    }

    /// Leaves the innermost section; the cursor must sit exactly at its
    /// end (anything else means the reader and writer disagree on the
    /// section's content).
    pub fn end_section(&mut self) -> Result<(), CkptError> {
        let end = self.limits.pop().ok_or(CkptError::Corrupt("end_section without section"))?;
        if self.pos != end {
            return Err(CkptError::Corrupt("section length mismatch"));
        }
        Ok(())
    }

    /// `true` when the cursor has consumed the current scope entirely.
    pub fn at_end(&self) -> bool {
        self.pos == self.limit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blob() -> Vec<u8> {
        let mut w = Writer::new();
        w.begin_section(b"KERN");
        w.u64(0xdead_beef_1234_5678);
        w.u8(7);
        w.bool(true);
        w.str_("clk.gen");
        w.end_section();
        w.begin_section(b"MEMS");
        w.bytes(&[1, 2, 3, 4]);
        w.end_section();
        w.finish(0)
    }

    #[test]
    fn round_trip() {
        let blob = sample_blob();
        let (h, payload) = read_header(&blob).unwrap();
        assert_eq!(h.version, VERSION);
        assert_eq!(h.flags, 0);
        assert_eq!(h.payload_len as usize, payload.len());
        let mut r = Reader::new(payload);
        r.begin_section(b"KERN", "KERN").unwrap();
        assert_eq!(r.u64().unwrap(), 0xdead_beef_1234_5678);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.str_().unwrap(), "clk.gen");
        r.end_section().unwrap();
        r.begin_section(b"MEMS", "MEMS").unwrap();
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3, 4]);
        r.end_section().unwrap();
        assert!(r.at_end());
    }

    #[test]
    fn identical_payloads_share_a_fingerprint() {
        let a = sample_blob();
        let b = sample_blob();
        assert_eq!(a, b);
        let (ha, _) = read_header(&a).unwrap();
        let (hb, _) = read_header(&b).unwrap();
        assert_eq!(ha.fingerprint, hb.fingerprint);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut blob = sample_blob();
        blob[0] = b'X';
        assert_eq!(read_header(&blob).unwrap_err(), CkptError::BadMagic);
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut blob = sample_blob();
        blob[4] = 0xEE;
        blob[5] = 0xEE;
        assert_eq!(read_header(&blob).unwrap_err(), CkptError::UnsupportedVersion(0xEEEE));
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let blob = sample_blob();
        for n in 0..blob.len() {
            let err = read_header(&blob[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CkptError::Truncated | CkptError::BadMagic | CkptError::FingerprintMismatch
                ),
                "unexpected error at {n}: {err:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_fingerprint() {
        let mut blob = sample_blob();
        let last = blob.len() - 1;
        blob[last] ^= 0xFF;
        assert_eq!(read_header(&blob).unwrap_err(), CkptError::FingerprintMismatch);
    }

    #[test]
    fn section_tag_mismatch_is_typed() {
        let blob = sample_blob();
        let (_, payload) = read_header(&blob).unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(
            r.begin_section(b"XXXX", "XXXX").unwrap_err(),
            CkptError::SectionMismatch("XXXX")
        );
    }

    #[test]
    fn section_bounds_are_enforced() {
        let mut w = Writer::new();
        w.begin_section(b"TINY");
        w.u8(1);
        w.end_section();
        let blob = w.finish(0);
        let (_, payload) = read_header(&blob).unwrap();
        let mut r = Reader::new(payload);
        r.begin_section(b"TINY", "TINY").unwrap();
        assert_eq!(r.u8().unwrap(), 1);
        // Reading past the section end is truncation, not a buffer read.
        assert_eq!(r.u8().unwrap_err(), CkptError::Truncated);
        r.end_section().unwrap();
    }

    #[test]
    fn end_section_rejects_unread_content() {
        let mut w = Writer::new();
        w.begin_section(b"SKIP");
        w.u32(5);
        w.end_section();
        let blob = w.finish(0);
        let (_, payload) = read_header(&blob).unwrap();
        let mut r = Reader::new(payload);
        r.begin_section(b"SKIP", "SKIP").unwrap();
        assert_eq!(r.end_section().unwrap_err(), CkptError::Corrupt("section length mismatch"));
    }

    #[test]
    fn flags_round_trip() {
        let mut w = Writer::new();
        w.u8(0);
        let blob = w.finish(FLAG_TRACE);
        let (h, _) = read_header(&blob).unwrap();
        assert_eq!(h.flags & FLAG_TRACE, FLAG_TRACE);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
