//! Compact binary codec for the durable on-disk formats.
//!
//! Everything the WAL and checkpoint files contain is encoded here, by hand,
//! against `std` only — the wire format must not depend on an external
//! serialization crate (a durable format needs byte-level stability that a
//! derive cannot promise).
//!
//! ## Encoding rules
//!
//! All integers are **little-endian fixed width**; all variable-length fields
//! are **length-prefixed**. There is no padding and no alignment: a record is
//! the concatenation of its fields.
//!
//! | type | encoding |
//! |---|---|
//! | `u8` / `u32` / `u64` / `i64` | fixed-width LE |
//! | `f64` | IEEE-754 bit pattern as `u64` LE (bit-exact round trip, incl. `-0.0` and NaN payloads) |
//! | string | `u32` byte length + UTF-8 bytes |
//! | [`Value`] | tag byte (`0` Long, `1` Double, `2` Str) + payload |
//! | [`Tuple`] / `Vec<Value>` | `u32` count + values |
//! | [`UpdateEvent`] | sign byte (`0` insert, `1` delete) + relation string + tuple |
//! | GMR map | schema (`u32` column count + strings) + `u64` entry count + (tuple, `f64`) pairs |
//!
//! Multiplicities travel as raw bit patterns, which is what makes recovery
//! *bit-exact*: a replayed engine's views compare equal to a never-crashed
//! engine's under `f64::to_bits`, not merely within an epsilon.
//!
//! The container formats (WAL records, checkpoint files) carry an explicit
//! [`FORMAT_VERSION`] byte and a per-record [`crc32`] so that a future format
//! change is detected as a version mismatch instead of a misparse, and disk
//! corruption is detected as a checksum failure instead of silent divergence.

use dbtoaster_agca::{UpdateEvent, UpdateSign};
use dbtoaster_gmr::{Gmr, Schema, Tuple, Value};
use std::fmt;

/// Version byte written into every WAL segment header and checkpoint header.
/// Bump on any change to the encodings in this module.
pub const FORMAT_VERSION: u8 = 1;

/// Errors raised while decoding durable bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced field length.
    UnexpectedEof {
        /// Bytes needed to finish the current field.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An unknown tag byte for a `Value` or an `UpdateSign`.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A declared length is beyond any plausible record size.
    LengthOverflow(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of record: need {needed} bytes, {remaining} left"
                )
            }
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::LengthOverflow(n) => write!(f, "declared length {n} overflows the record"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the polynomial used by zip/png/ethernet)
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the bytewise table, and `t[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups fold
/// eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 of a byte slice (slicing-by-8: eight bytes per step, then the
/// tail a byte at a time).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Append a `u32` (LE).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (LE).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` (LE).
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its bit pattern (LE).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append one [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Long(x) => {
            buf.push(0);
            put_i64(buf, *x);
        }
        Value::Double(x) => {
            buf.push(1);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
    }
}

/// Append a sequence of values with a `u32` count prefix.
pub fn put_values(buf: &mut Vec<u8>, vals: &[Value]) {
    put_u32(buf, vals.len() as u32);
    for v in vals {
        put_value(buf, v);
    }
}

/// Append one [`UpdateEvent`].
pub fn put_event(buf: &mut Vec<u8>, ev: &UpdateEvent) {
    buf.push(match ev.sign {
        UpdateSign::Insert => 0,
        UpdateSign::Delete => 1,
    });
    put_str(buf, &ev.relation);
    put_values(buf, &ev.tuple);
}

/// Append one named GMR map: name, key schema, entries.
pub fn put_map(buf: &mut Vec<u8>, name: &str, gmr: &Gmr) {
    put_str(buf, name);
    let columns = gmr.schema().columns();
    put_u32(buf, columns.len() as u32);
    for c in columns {
        put_str(buf, c);
    }
    put_u64(buf, gmr.len() as u64);
    for (t, m) in gmr.iter() {
        put_values(buf, t);
        put_f64(buf, m);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64` (LE).
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::LengthOverflow(len as u64));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Read one [`Value`].
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Long(self.i64()?)),
            1 => Ok(Value::Double(self.f64()?)),
            2 => Ok(Value::str(self.str()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Read a count-prefixed sequence of values.
    pub fn values(&mut self) -> Result<Vec<Value>, CodecError> {
        let n = self.u32()? as usize;
        // Each value is at least 2 bytes (tag + payload); bail on absurd counts
        // before attempting a huge allocation on corrupt input.
        if n > self.remaining() {
            return Err(CodecError::LengthOverflow(n as u64));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    /// Read a count-prefixed sequence of values as a [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::LengthOverflow(n as u64));
        }
        let mut t = Tuple::new();
        for _ in 0..n {
            t.push(self.value()?);
        }
        Ok(t)
    }

    /// Read one [`UpdateEvent`].
    pub fn event(&mut self) -> Result<UpdateEvent, CodecError> {
        let sign = match self.u8()? {
            0 => UpdateSign::Insert,
            1 => UpdateSign::Delete,
            t => return Err(CodecError::BadTag(t)),
        };
        let relation = self.str()?.to_string();
        let tuple = self.values()?;
        Ok(UpdateEvent {
            relation,
            sign,
            tuple,
        })
    }

    /// Read one named GMR map written by [`put_map`].
    pub fn map(&mut self) -> Result<(String, Gmr), CodecError> {
        let name = self.str()?.to_string();
        let ncols = self.u32()? as usize;
        if ncols > self.remaining() {
            return Err(CodecError::LengthOverflow(ncols as u64));
        }
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            columns.push(self.str()?.to_string());
        }
        let entries = self.u64()? as usize;
        let mut gmr = Gmr::with_capacity(Schema::new(columns), entries.min(self.remaining()));
        for _ in 0..entries {
            let t = self.tuple()?;
            let m = self.f64()?;
            gmr.add_tuple(t, m);
        }
        Ok((name, gmr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC the sliced one must equal bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_one_at_every_length_and_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1_108)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1_100 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn value_round_trip_preserves_bits() {
        let vals = [
            Value::long(i64::MIN),
            Value::long(0),
            Value::long(i64::MAX),
            Value::double(-0.0),
            Value::double(f64::NAN),
            Value::double(1.5e300),
            Value::str(""),
            Value::str("héllo wörld"),
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, &vals);
        let mut r = Reader::new(&buf);
        let back = r.values().unwrap();
        assert!(r.is_empty());
        for (a, b) in vals.iter().zip(back.iter()) {
            match (a, b) {
                (Value::Double(x), Value::Double(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn event_round_trip() {
        let ev = UpdateEvent::delete("Lineitem", vec![Value::long(7), Value::double(2.25)]);
        let mut buf = Vec::new();
        put_event(&mut buf, &ev);
        let mut r = Reader::new(&buf);
        let back = r.event().unwrap();
        assert_eq!(back.relation, "Lineitem");
        assert_eq!(back.sign, UpdateSign::Delete);
        assert_eq!(back.tuple, ev.tuple);
    }

    #[test]
    fn map_round_trip() {
        let mut g = Gmr::new(Schema::new(["a", "b"]));
        g.add_tuple(vec![Value::long(1), Value::str("x")], 2.5);
        g.add_tuple(vec![Value::long(2), Value::str("y")], -1.0);
        let mut buf = Vec::new();
        put_map(&mut buf, "M1", &g);
        let (name, back) = Reader::new(&buf).map().unwrap();
        assert_eq!(name, "M1");
        assert_eq!(back.schema().columns(), g.schema().columns());
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(&[Value::long(1), Value::str("x")]), 2.5);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_event(
            &mut buf,
            &UpdateEvent::insert("R", vec![Value::str("abcdef"), Value::long(1)]),
        );
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.event().is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut r = Reader::new(&[9u8]);
        assert_eq!(r.value(), Err(CodecError::BadTag(9)));
        let mut buf = vec![7u8]; // bad sign byte
        put_str(&mut buf, "R");
        put_values(&mut buf, &[]);
        assert_eq!(Reader::new(&buf).event(), Err(CodecError::BadTag(7)));
    }
}
