//! The bit-slice tuples `prefix ‖ bit ‖ op` underlying SORE.

use crate::order::Order;

/// One slice of a value: the tuple `(attr, i, v_{|i-1}, bit, op)`.
///
/// `i` is the 1-based bit index counted from the most significant bit of
/// the `b`-bit representation; `prefix` holds the `i-1` more-significant
/// bits. The canonical byte encoding ([`SliceTuple::encode`]) is what gets
/// fed to the PRF in the SORE scheme and used as the SSE keyword `w = ct_i`
/// in Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SliceTuple {
    /// Attribute name for multi-attribute records (empty for single-value
    /// databases) — the Section V-F extension `a‖v_{|i-1}‖v_i‖oc`.
    pub attr: Vec<u8>,
    /// 1-based bit index (determines the prefix length).
    pub index: u8,
    /// The `i-1` high bits of the value, right-aligned.
    pub prefix: u64,
    /// The slice bit (`v_i` in tokens, `v̄_i` in ciphertexts).
    pub bit: bool,
    /// The order symbol (`oc` in tokens, `cmp(v̄_i, v_i)` in ciphertexts).
    pub op: Order,
}

slicer_crypto::impl_codec!(SliceTuple {
    attr,
    index,
    prefix,
    bit,
    op,
});

impl SliceTuple {
    /// Canonical byte encoding: `attr_len ‖ attr ‖ i ‖ prefix ‖ bit ‖ op`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.attr.len() + 1 + 8 + 1 + 1);
        out.extend_from_slice(&(self.attr.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.attr);
        out.push(self.index);
        out.extend_from_slice(&self.prefix.to_be_bytes());
        out.push(self.bit as u8);
        out.push(self.op.to_byte());
        out
    }
}

/// Extracts bit `i` (1-based from the MSB of the `bits`-wide value).
pub(crate) fn bit_at(value: u64, bits: u8, i: u8) -> bool {
    debug_assert!(i >= 1 && i <= bits);
    (value >> (bits - i)) & 1 == 1
}

/// The `i-1`-bit prefix of the value (0 when `i == 1`).
pub(crate) fn prefix_at(value: u64, bits: u8, i: u8) -> u64 {
    debug_assert!(i >= 1 && i <= bits);
    if i == 1 {
        0
    } else {
        value >> (bits - i + 1)
    }
}

/// Builds the token tuples `tk_i = a‖v_{|i-1}‖v_i‖oc` for all `i ∈ [1, b]`.
pub fn token_tuples(attr: &[u8], value: u64, bits: u8, oc: Order) -> Vec<SliceTuple> {
    (1..=bits)
        .map(|i| SliceTuple {
            attr: attr.to_vec(),
            index: i,
            prefix: prefix_at(value, bits, i),
            bit: bit_at(value, bits, i),
            op: oc,
        })
        .collect()
}

/// Builds the ciphertext tuples `ct_i = a‖v_{|i-1}‖v̄_i‖cmp(v̄_i, v_i)`.
pub fn cipher_tuples(attr: &[u8], value: u64, bits: u8) -> Vec<SliceTuple> {
    (1..=bits)
        .map(|i| {
            let v_i = bit_at(value, bits, i);
            let flipped = !v_i;
            SliceTuple {
                attr: attr.to_vec(),
                index: i,
                prefix: prefix_at(value, bits, i),
                bit: flipped,
                op: Order::cmp_bits(flipped, v_i),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_indexing_is_msb_first() {
        // 5 = 0101 over 4 bits.
        assert!(!bit_at(5, 4, 1));
        assert!(bit_at(5, 4, 2));
        assert!(!bit_at(5, 4, 3));
        assert!(bit_at(5, 4, 4));
    }

    #[test]
    fn prefixes_accumulate() {
        // 5 = 0101: prefixes are ∅, 0, 01, 010.
        assert_eq!(prefix_at(5, 4, 1), 0);
        assert_eq!(prefix_at(5, 4, 2), 0b0);
        assert_eq!(prefix_at(5, 4, 3), 0b01);
        assert_eq!(prefix_at(5, 4, 4), 0b010);
    }

    #[test]
    fn paper_example_fig2_match() {
        // Fig. 2: token for x=6 (0110) with ">" matches ciphertext of
        // y=5 (0101) at exactly one index.
        let tks = token_tuples(b"", 6, 4, Order::Greater);
        let cts = cipher_tuples(b"", 5, 4);
        let tk_set: std::collections::HashSet<Vec<u8>> =
            tks.iter().map(SliceTuple::encode).collect();
        let common = cts.iter().filter(|c| tk_set.contains(&c.encode())).count();
        assert_eq!(common, 1);
    }

    #[test]
    fn paper_example_fig2_no_match() {
        // Token for x=4 (0100) with ">" must NOT match y=8 (1000): 4 > 8 is false.
        let tks = token_tuples(b"", 4, 4, Order::Greater);
        let cts = cipher_tuples(b"", 8, 4);
        let tk_set: std::collections::HashSet<Vec<u8>> =
            tks.iter().map(SliceTuple::encode).collect();
        assert_eq!(
            cts.iter().filter(|c| tk_set.contains(&c.encode())).count(),
            0
        );
    }

    #[test]
    fn attribute_separates_tuple_spaces() {
        let a = token_tuples(b"age", 6, 4, Order::Greater);
        let b = token_tuples(b"salary", 6, 4, Order::Greater);
        assert_ne!(a[0].encode(), b[0].encode());
    }

    #[test]
    fn encoding_is_injective_on_index() {
        // Same prefix value but different index must encode differently
        // (prefix length is part of tuple identity).
        let t1 = SliceTuple {
            attr: vec![],
            index: 2,
            prefix: 0,
            bit: true,
            op: Order::Greater,
        };
        let t2 = SliceTuple {
            index: 3,
            ..t1.clone()
        };
        assert_ne!(t1.encode(), t2.encode());
    }
}
