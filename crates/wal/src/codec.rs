//! The one byte codec: every byte the program writes or reads — the
//! WAL's frames, the ledger's records and snapshots, the wire's frames
//! and messages — is framed and coded here, so each rule below lives in
//! one place.
//!
//! # Frames
//!
//! ```text
//! ┌──────────┬────────────┬──────────────┬──────────────┐
//! │ magic u8 │ len u32 LE │ check u64 LE │ payload[len] │
//! └──────────┴────────────┴──────────────┴──────────────┘
//! ```
//!
//! with `check = fnv1a64(len_le ‖ payload)`. The magic names the
//! format: 0xD7 a WAL record ([`crate::log`]), 0xDA a wire message
//! (`dpack-net`). [`parse_frame`] checks the magic, then the length
//! bound, then that the payload is all there, then the checksum, and
//! answers [`Frame::Whole`], [`Frame::Short`] or [`Frame::Bad`]; the log
//! reads both failures as its torn tail, a socket waits on `Short` and
//! drops the connection on `Bad`. A WAL batch header (0xD8) is a frame
//! header with no payload, its `len` the number of record frames after
//! it ([`batch_header_into`]).
//!
//! # Fields
//!
//! A payload is a sequence of [`Codec`] fields: integers and `f64` bit
//! patterns little-endian (curves travel as raw `to_bits`, so a budget
//! round-trips bit for bit); a `bool` one byte, 0 or 1; an `Option` a
//! flag byte, 0 or 1, then the value; a list (`Vec`, slice, `String`)
//! a `u32` count, then its elements. [`Reader::list_len`] checks a count
//! against the bytes actually left, at [`Codec::MIN_BYTES`] per element,
//! before anything is allocated, so a hostile length prefix is an error,
//! never an allocation. Every decoder is a [`Reader`] walk that must end
//! exactly at the last byte ([`decode`]).

use std::fmt;

use dpack_obs::{Event, EventKind, HistogramSnapshot, Sample, Span, SpanKind, TraceContext, Value};

use crate::log::WalError;

/// Frame header bytes: magic + length + checksum.
pub const HEADER: usize = 1 + 4 + 8;

/// Why bytes did not decode. The WAL reports it as
/// [`WalError::Corrupt`]; `dpack-net` as its protocol error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl CodecError {
    /// An error reading `what`.
    pub fn new(what: impl Into<String>) -> Self {
        Self(what.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> Self {
        Self::Corrupt(e.0)
    }
}

/// FNV-1a 64 over `len_le ‖ payload`: a stable, dependency-free frame
/// checksum.
fn checksum(len: u32, payload: &[u8]) -> u64 {
    let fold = |hash: u64, bytes: &[u8]| {
        bytes.iter().fold(hash, |hash, b| {
            (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    };
    fold(fold(0xcbf2_9ce4_8422_2325, &len.to_le_bytes()), payload)
}

fn header_into(out: &mut Vec<u8>, magic: u8, len: u32, payload: &[u8]) {
    out.push(magic);
    len.put(out);
    checksum(len, payload).put(out);
}

/// Frames `payload` under `magic` into `out`.
///
/// # Panics
///
/// Panics if the payload exceeds `max` bytes (a local bug: every
/// format bounds its payloads far below its cap).
pub fn frame_into(out: &mut Vec<u8>, magic: u8, max: u32, payload: &[u8]) {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    assert!(len <= max, "frame exceeds the {max}-byte cap");
    out.reserve(HEADER + payload.len());
    header_into(out, magic, len, payload);
    out.extend_from_slice(payload);
}

/// Writes a batch header under `magic`: a frame header whose length
/// field is `count`, the number of frames that follow, and whose
/// checksum covers `count` alone.
pub fn batch_header_into(out: &mut Vec<u8>, magic: u8, count: u32) {
    header_into(out, magic, count, &[]);
}

/// What [`parse_frame`] found at the start of its bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole, valid frame: its payload (the frame is
    /// [`HEADER`]` + payload.len()` bytes).
    Whole(&'a [u8]),
    /// The bytes end before the frame does.
    Short,
    /// The frame is not valid: wrong magic, over the length bound, or
    /// failing its checksum.
    Bad(CodecError),
}

fn header(bytes: &[u8]) -> Option<(u8, u32, u64)> {
    let mut r = Reader::new(bytes.get(..HEADER)?);
    Some((r.u8().ok()?, r.u32().ok()?, r.u64().ok()?))
}

/// Parses the frame under `magic` at the start of `bytes`, whose
/// payload may be at most `max` bytes.
pub fn parse_frame(bytes: &[u8], magic: u8, max: u32) -> Frame<'_> {
    let Some((found, len, check)) = header(bytes) else {
        return Frame::Short;
    };
    if found != magic {
        return Frame::Bad(CodecError::new(format!("bad frame magic 0x{found:02X}")));
    }
    if len > max {
        return Frame::Bad(CodecError::new(format!(
            "frame length {len} exceeds the {max}-byte cap"
        )));
    }
    let Some(payload) = bytes.get(HEADER..HEADER + len as usize) else {
        return Frame::Short;
    };
    if checksum(len, payload) != check {
        return Frame::Bad(CodecError::new("frame checksum mismatch"));
    }
    Frame::Whole(payload)
}

/// The count of the batch header under `magic` at the start of
/// `bytes`, or `None` if it is short, under another magic, or fails its
/// checksum.
pub fn parse_batch_header(bytes: &[u8], magic: u8) -> Option<u32> {
    let (found, count, check) = header(bytes)?;
    (found == magic && checksum(count, &[]) == check).then_some(count)
}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// Fewer than `n` bytes are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() < n {
            return Err(CodecError::new("bytes end mid-field"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("sized slice"))
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a list's `u32` count, checked against the bytes left at
    /// `min_elem` bytes per element.
    ///
    /// # Errors
    ///
    /// The count cannot fit in the bytes left.
    #[inline]
    pub fn list_len(&mut self, min_elem: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_elem).is_none_or(|b| b > self.bytes.len()) {
            return Err(CodecError::new("list length exceeds the bytes left"));
        }
        Ok(n)
    }

    /// Reads one `T`.
    pub fn get<T: Codec>(&mut self) -> Result<T, CodecError> {
        T::get(self)
    }

    /// Checks that every byte was read.
    ///
    /// # Errors
    ///
    /// Bytes are left over.
    #[inline]
    pub fn done(&self) -> Result<(), CodecError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(CodecError::new("trailing bytes after the value"))
        }
    }
}

/// A value with one byte encoding, written by [`Codec::put`] and read
/// back by [`Codec::get`].
pub trait Codec {
    /// The fewest bytes any value encodes to: the per-element bound a
    /// list's count is checked against before one element is decoded.
    const MIN_BYTES: usize;

    /// Appends the value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// The bytes are short or do not hold a value of this type.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;

    /// Appends a list's elements (bytes override this with one copy).
    fn put_all(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.put(out);
        }
    }

    /// Reads a list's `n` elements (bytes override this with one copy).
    ///
    /// # Errors
    ///
    /// As [`Codec::get`].
    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, CodecError>
    where
        Self: Sized,
    {
        (0..n).map(|_| Self::get(r)).collect()
    }
}

/// Encodes one value.
#[inline]
pub fn encode<T: Codec + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes one value that must span exactly `bytes`.
///
/// # Errors
///
/// The bytes do not hold exactly one `T`.
#[inline]
pub fn decode<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::get(&mut r)?;
    r.done()?;
    Ok(value)
}

/// Runs a field's own decoder (the `= decoder` of a [`codec_struct!`]
/// field).
///
/// # Errors
///
/// Whatever `f` returns.
pub fn with<T>(
    r: &mut Reader<'_>,
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    f(r)
}

/// A list whose count `check` may refuse before any element is
/// decoded.
///
/// # Errors
///
/// As [`Reader::list_len`], `check`, or the elements.
pub fn list_where<T: Codec>(
    r: &mut Reader<'_>,
    check: impl FnOnce(usize) -> Result<(), CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.list_len(T::MIN_BYTES)?;
    check(n)?;
    T::get_all(r, n)
}

/// A list of at most `cap` elements, each a `what`; a longer one is
/// refused before any element is decoded.
///
/// # Errors
///
/// As [`list_where`].
pub fn capped<T: Codec>(r: &mut Reader<'_>, cap: u32, what: &str) -> Result<Vec<T>, CodecError> {
    list_where(r, |n| {
        if n > cap as usize {
            return Err(CodecError::new(format!(
                "list of {n} {what}s exceeds the {cap}-{what} cap"
            )));
        }
        Ok(())
    })
}

impl Codec for u8 {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u8()
    }
    #[inline]
    fn put_all(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    #[inline]
    fn get_all(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, CodecError> {
        Ok(r.take(n)?.to_vec())
    }
}

macro_rules! int_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$t()
            }
        }
    )*};
}
int_codec!(u16, u32, u64);

impl Codec for f64 {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.f64()
    }
}

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::new(format!("bad bool byte {t}"))),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get()? {
            true => Some(r.get()?),
            false => None,
        })
    }
}

impl<T: Codec> Codec for [T] {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len())
            .expect("list exceeds u32 length")
            .put(out);
        T::put_all(self, out);
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        list_where(r, |_| Ok(()))
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        self.as_bytes().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        String::from_utf8(r.get()?).map_err(|_| CodecError::new("string is not utf-8"))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((r.get()?, r.get()?))
    }
}

/// Describes a struct's fields once, in byte order, and implements
/// [`Codec`] from that list. Either the struct is defined in the call
/// (attributes and docs as usual), or `impl Path { field: Type, … }`
/// describes one defined elsewhere. A field may name its own decoder
/// after `=`: anything [`with`] takes, e.g. a closure over the fields
/// decoded before it.
#[macro_export]
macro_rules! codec_struct {
    (@get $r:ident $ft:ty) => { <$ft as $crate::codec::Codec>::get($r)? };
    (@get $r:ident $ft:ty, $dec:expr) => { $crate::codec::with($r, $dec)? };
    (impl $name:path { $( $f:ident : $ft:ty $(= $dec:expr)? ),* $(,)? }) => {
        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 0 $(+ <$ft as $crate::codec::Codec>::MIN_BYTES)*;
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Codec::put(&self.$f, out); )*
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::codec::CodecError> {
                $( let $f: $ft = $crate::codec_struct!(@get r $ft $(, $dec)?); )*
                Ok(Self { $($f),* })
            }
        }
    };
    (
        $(#[$m:meta])* $vis:vis struct $name:ident {
            $( $(#[$fm:meta])* $fvis:vis $f:ident : $ft:ty $(= $dec:expr)? ),* $(,)?
        }
    ) => {
        $(#[$m])* $vis struct $name { $( $(#[$fm])* $fvis $f: $ft ),* }
        $crate::codec_struct!(impl $name { $( $f: $ft $(= $dec)? ),* });
    };
}

// ---- the observability payloads the wire carries ---------------------

macro_rules! kind_codec {
    ($($t:ident $what:literal),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let raw = r.u8()?;
                $t::from_u8(raw).ok_or_else(|| CodecError::new(format!("unknown {} {raw}", $what)))
            }
        }
    )*};
}
kind_codec!(SpanKind "span kind", EventKind "event kind");

codec_struct!(impl TraceContext { trace: u64, span: u64 });
codec_struct!(impl Event { seq: u64, kind: EventKind, a: u64, b: u64 });
codec_struct!(impl Sample { name: String, labels: String, value: Value });
codec_struct!(impl Span {
    seq: u64, trace: u64, span: u64, parent: u64, kind: SpanKind,
    node: u64, start_nanos: u64, end_nanos: u64, a: u64,
});

/// A metric value is a kind byte, then its body; a histogram travels
/// sparse, as its count, sum and max, then only its non-empty buckets
/// as `(u16 index, u64 count)` pairs.
impl Codec for Value {
    const MIN_BYTES: usize = 1 + 8;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Value::Counter(n) => (0u8, *n).put(out),
            Value::Gauge(v) => (1u8, *v).put(out),
            Value::Histogram(h) => {
                (2u8, h.count).put(out);
                (h.sum, h.max).put(out);
                h.nonzero_buckets().put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Value::Counter(r.get()?),
            1 => Value::Gauge(r.get()?),
            2 => {
                let (count, sum, max) = (r.u64()?, r.u64()?, r.u64()?);
                let buckets: Vec<(u16, u64)> = r.get()?;
                Value::Histogram(Box::new(HistogramSnapshot::from_parts(
                    count, sum, max, &buckets,
                )))
            }
            t => return Err(CodecError::new(format!("unknown metric value kind {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_parse_whole_short_or_bad_in_the_documented_order() {
        let mut framed = Vec::new();
        frame_into(&mut framed, 0xAB, 8, b"payload");
        assert_eq!(framed.len(), HEADER + 7);
        assert_eq!(parse_frame(&framed, 0xAB, 8), Frame::Whole(b"payload"));
        // Short anywhere before the last byte, including inside the header.
        for cut in 0..framed.len() {
            assert_eq!(parse_frame(&framed[..cut], 0xAB, 8), Frame::Short, "{cut}");
        }
        // The magic is judged before the length bound, the bound before
        // the bytes are waited for, the checksum only on whole bytes.
        let bad = |f: Frame<'_>| matches!(f, Frame::Bad(_));
        assert!(bad(parse_frame(&framed[..HEADER], 0xAC, 8)));
        assert!(bad(parse_frame(&framed[..HEADER], 0xAB, 6)));
        let mut flipped = framed.clone();
        flipped[HEADER] ^= 1;
        assert_eq!(parse_frame(&flipped[..HEADER + 3], 0xAB, 8), Frame::Short);
        assert!(bad(parse_frame(&flipped, 0xAB, 8)));
    }

    #[test]
    fn a_batch_header_is_a_frame_header_without_a_payload() {
        let (mut none, mut empty) = (Vec::new(), Vec::new());
        batch_header_into(&mut none, 0xD8, 0);
        frame_into(&mut empty, 0xD8, 8, &[]);
        assert_eq!(none, empty);
        let mut header = Vec::new();
        batch_header_into(&mut header, 0xD8, 3);
        assert_eq!(header[1..5], 3u32.to_le_bytes());
        assert_eq!(parse_batch_header(&header, 0xD8), Some(3));
        assert_eq!(parse_batch_header(&header, 0xD7), None);
        assert_eq!(parse_batch_header(&header[..HEADER - 1], 0xD8), None);
        header[1] = 4;
        assert_eq!(parse_batch_header(&header, 0xD8), None, "checksum");
    }

    #[test]
    fn list_counts_are_bounded_by_min_bytes_before_any_allocation() {
        codec_struct!(
            #[derive(Debug, PartialEq)]
            struct Pair {
                a: u64,
                b: Option<u32>,
            }
        );
        assert_eq!(Pair::MIN_BYTES, 9);
        // Two elements need at least 18 bytes after the count.
        let mut bytes = encode(&2u32);
        bytes.extend([0u8; 17]);
        assert!(decode::<Vec<Pair>>(&bytes).is_err());
        let pairs = vec![Pair { a: 1, b: None }, Pair { a: 2, b: Some(3) }];
        assert_eq!(decode::<Vec<Pair>>(&encode(&pairs)), Ok(pairs));
        // A cap refuses the count before one element is read.
        let mut r = Reader::new(&[2, 0, 0, 0, 7, 8]);
        let err = capped::<u8>(&mut r, 1, "byte").unwrap_err();
        assert!(err.0.contains("1-byte cap"), "{err}");
    }

    #[test]
    fn flags_are_zero_or_one_and_values_end_at_the_last_byte() {
        assert_eq!(decode::<bool>(&[1]), Ok(true));
        assert!(decode::<bool>(&[2]).is_err());
        assert_eq!(decode::<Option<u8>>(&[0]), Ok(None));
        assert_eq!(decode::<Option<u8>>(&[1, 9]), Ok(Some(9)));
        assert!(decode::<Option<u8>>(&[2, 9]).is_err());
        assert!(decode::<u16>(&[1, 2, 3]).is_err(), "trailing byte");
        assert!(decode::<String>(&[1, 0, 0, 0, 0xFF]).is_err(), "not utf-8");
        let bits = f64::from_bits(0x7FF8_0000_0000_0BAD);
        assert_eq!(
            decode::<f64>(&encode(&bits)).map(f64::to_bits),
            Ok(bits.to_bits())
        );
    }
}
