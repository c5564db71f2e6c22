//! A compact binary codec (little-endian, length-prefixed) implemented as a
//! plain trait pair so the workspace needs no serialization framework.
//!
//! The format is *not* self-describing: decoding is driven by the target
//! type, exactly like the wire formats real SSE deployments use. Integers
//! are fixed-width little-endian; `String`/sequences/maps carry a `u64`
//! length prefix; options a one-byte tag; enum variants (encoded by hand in
//! each enum's impl) a `u32` index.
//!
//! Struct impls are one-liners via [`impl_codec!`](crate::impl_codec):
//!
//! ```
//! use slicer_crypto::codec::{from_bytes, to_bytes};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point {
//!     x: u64,
//!     y: u64,
//! }
//! slicer_crypto::impl_codec!(Point { x, y });
//!
//! let p = Point { x: 3, y: 9 };
//! let bytes = to_bytes(&p)?;
//! assert_eq!(from_bytes::<Point>(&bytes)?, p);
//! # Ok::<(), slicer_crypto::codec::CodecError>(())
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Serializes a value to bytes.
///
/// # Errors
///
/// Infallible for the provided impls; returns `Result` so call sites keep
/// the same shape as fallible codecs.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Deserializes a value from bytes produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`CodecError`] on truncated or malformed input, or when
/// trailing bytes remain.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    if !reader.is_empty() {
        return Err(CodecError::msg(format!(
            "{} trailing bytes after value",
            reader.remaining()
        )));
    }
    Ok(value)
}

/// Errors raised by the binary codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// Builds an error from any displayable message.
    pub fn msg(s: impl Into<String>) -> Self {
        CodecError(s.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl Error for CodecError {}

/// Types that can serialize themselves into the workspace wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Types that can reconstruct themselves from the workspace wire format.
pub trait Decode: Sized {
    /// Reads one value from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// A cursor over an input byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `input` in a fresh cursor.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input }
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::msg("truncated input"));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// Reads a `u64` little-endian length prefix.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation or a length that overflows
    /// `usize`.
    pub fn read_len(&mut self) -> Result<usize, CodecError> {
        let b = self.take(8)?;
        let len = u64::from_le_bytes(b.try_into().expect("len 8"));
        usize::try_from(len).map_err(|_| CodecError::msg("length overflow"))
    }

    /// Returns how many bytes are left unread.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// True once every input byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }
}

/// Appends a `u64` little-endian length prefix.
pub fn write_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u64).to_le_bytes());
}

macro_rules! codec_int {
    ($ty:ty, $n:expr) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $ty {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
                let b = reader.take($n)?;
                Ok(<$ty>::from_le_bytes(b.try_into().expect("sized")))
            }
        }
    };
}

codec_int!(u8, 1);
codec_int!(u16, 2);
codec_int!(u32, 4);
codec_int!(u64, 8);
codec_int!(u128, 16);
codec_int!(i8, 1);
codec_int!(i16, 2);
codec_int!(i32, 4);
codec_int!(i64, 8);
codec_int!(i128, 16);
codec_int!(f32, 4);
codec_int!(f64, 8);

// `usize` travels on the wire as u64 so encodings are identical across
// platforms regardless of pointer width.
impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(reader)?;
        usize::try_from(v).map_err(|_| CodecError::msg(format!("usize overflow: {v}")))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match reader.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::msg(format!("invalid bool byte {b}"))),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = reader.read_len()?;
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CodecError::msg(e.to_string()))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = reader.read_len()?;
        // Cap the pre-allocation so a corrupt length prefix cannot OOM.
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(T::decode(reader)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match reader.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            b => Err(CodecError::msg(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Box::new(T::decode(reader)?))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = reader.take(N)?;
        Ok(b.try_into().expect("sized"))
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
        }

        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(reader)?,)+))
            }
        }
    };
}

codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Key order is already canonical; no sorting pass needed.
        write_len(out, self.len());
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = reader.read_len()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(reader)?;
            let v = V::decode(reader)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_len(out, self.len());
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = reader.read_len()?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(T::decode(reader)?);
        }
        Ok(set)
    }
}

impl Encode for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs().encode(out);
        self.subsec_nanos().encode(out);
    }
}

impl Decode for Duration {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        let secs = u64::decode(reader)?;
        let nanos = u32::decode(reader)?;
        Ok(Duration::new(secs, nanos))
    }
}

/// Implements [`Encode`]/[`Decode`] for a struct by encoding its named
/// fields in declaration order, with no framing.
#[macro_export]
macro_rules! impl_codec {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)*
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                reader: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                Ok(Self {
                    $($field: $crate::codec::Decode::decode(reader)?,)*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).expect("encodes");
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(back, v);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: Option<String>,
        c: Vec<u16>,
        d: [u8; 4],
    }
    impl_codec!(Demo { a, b, c, d });

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(-12345i64);
        roundtrip(u128::MAX);
        roundtrip(3.5f64);
        roundtrip(String::from("hello, 世界"));
        roundtrip(Option::<u8>::None);
        roundtrip(Some(7u8));
        roundtrip((1u8, 2u64, String::from("x")));
        roundtrip(Duration::new(12, 345));
    }

    #[test]
    fn integers_are_little_endian_fixed_width() {
        assert_eq!(to_bytes(&1u32).unwrap(), vec![1, 0, 0, 0]);
        assert_eq!(to_bytes(&0x0102u16).unwrap(), vec![2, 1]);
    }

    #[test]
    fn sequences_carry_u64_length_prefix() {
        let bytes = to_bytes(&vec![7u8, 8]).unwrap();
        assert_eq!(bytes, vec![2, 0, 0, 0, 0, 0, 0, 0, 7, 8]);
    }

    #[test]
    fn struct_macro_roundtrips() {
        roundtrip(Demo {
            a: 42,
            b: Some("yes".into()),
            c: vec![1, 2, 3],
            d: [9, 8, 7, 6],
        });
    }

    #[test]
    fn btree_collections_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(String::from("a"), 1u64);
        m.insert(String::from("b"), 2u64);
        roundtrip(m);
        let s: BTreeSet<u32> = [9, 3, 7].into_iter().collect();
        roundtrip(s);
        roundtrip(BTreeMap::<u64, u64>::new());
    }

    #[test]
    fn btree_map_encodes_in_key_order() {
        let mut fwd = BTreeMap::new();
        let mut rev = BTreeMap::new();
        for i in 0..16u8 {
            fwd.insert(i, i);
        }
        for i in (0..16u8).rev() {
            rev.insert(i, i);
        }
        assert_eq!(to_bytes(&fwd).unwrap(), to_bytes(&rev).unwrap());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&12345u64).expect("encodes");
        let err = from_bytes::<u64>(&bytes[..4]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&1u8).expect("encodes");
        bytes.push(0);
        assert!(from_bytes::<u8>(&bytes).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(from_bytes::<bool>(&[2]).is_err());
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        write_len(&mut bytes, usize::MAX);
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
    }
}
