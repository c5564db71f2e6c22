//! Records: the `(R, v)` pairs of the numerical database.

use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use std::fmt;

/// Fixed size of `Enc(K_R, R)`: a 16-byte nonce plus the 16-byte record ID
/// body, so index values XOR cleanly with one PRF output.
pub const RECORD_CIPHERTEXT_LEN: usize = 32;

/// A unique record identifier (16 bytes).
///
/// The paper's `R`. Uniqueness is the application's responsibility; the
/// dual-instance extension additionally forbids re-inserting a deleted ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub [u8; 16]);

impl Encode for RecordId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for RecordId {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RecordId(<[u8; 16]>::decode(reader)?))
    }
}

impl RecordId {
    /// Builds an ID from a `u64` (zero-padded) — convenient for synthetic
    /// datasets.
    pub fn from_u64(v: u64) -> Self {
        RecordId(u128::from(v).to_be_bytes())
    }

    /// Recovers the `u64` if this ID was built by [`RecordId::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        u64::try_from(u128::from_be_bytes(self.0)).ok()
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl From<[u8; 16]> for RecordId {
    fn from(b: [u8; 16]) -> Self {
        RecordId(b)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.as_u64() {
            write!(f, "R{v}")
        } else {
            for b in self.0.iter().take(6) {
                write!(f, "{b:02x}")?;
            }
            write!(f, "…")
        }
    }
}

/// A record with one or more named numerical attributes — the Section V-F
/// multi-attribute data type `DB = {(R, {(a, v)})}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record identifier.
    pub id: RecordId,
    /// `(attribute name, value)` pairs.
    pub attrs: Vec<(String, u64)>,
}

slicer_crypto::impl_codec!(Record { id, attrs });

impl Record {
    /// A single-attribute record under the anonymous attribute `""`.
    pub fn single(id: RecordId, value: u64) -> Self {
        Record {
            id,
            attrs: vec![(String::new(), value)],
        }
    }

    /// A multi-attribute record.
    pub fn with_attrs(id: RecordId, attrs: Vec<(String, u64)>) -> Self {
        Record { id, attrs }
    }
}

impl From<(RecordId, u64)> for Record {
    fn from((id, value): (RecordId, u64)) -> Self {
        Record::single(id, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let id = RecordId::from_u64(123456789);
        assert_eq!(id.as_u64(), Some(123456789));
        assert_eq!(id.to_string(), "R123456789");
    }

    #[test]
    fn arbitrary_ids_display_hex() {
        let id = RecordId([0xAB; 16]);
        assert_eq!(id.as_u64(), None);
        assert!(id.to_string().starts_with("abab"));
    }

    #[test]
    fn single_uses_anonymous_attr() {
        let r = Record::single(RecordId::from_u64(1), 7);
        assert_eq!(r.attrs, vec![(String::new(), 7)]);
    }
}
