//! Wire types exchanged between the four parties.

use slicer_bignum::BigUint;
use slicer_chain::{TokenOnChain, VerifyEntry};
use slicer_crypto::codec::{CodecError, Decode, Encode, Reader};
use slicer_store::IndexLabel;
use slicer_trapdoor::Trapdoor;

/// Wall-clock split of a build/insert run: the paper reports index
/// building and ADS building separately (Fig. 3 / Fig. 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTiming {
    /// Time spent producing encrypted index entries (tuples, trapdoors,
    /// PRF labels, record encryption).
    pub index: std::time::Duration,
    /// Time spent on the ADS (multiset hashes, `H_prime`, accumulation).
    pub ads: std::time::Duration,
}

slicer_crypto::impl_codec!(BuildTiming { index, ads });

/// Output of `Build` / `Insert` shipped from the owner to the cloud:
/// the (new) index entries, (new) prime representatives and the updated
/// accumulation value.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// Encrypted index entries `(l, d)`.
    pub entries: Vec<(IndexLabel, Vec<u8>)>,
    /// Prime representatives added to `X`.
    pub primes: Vec<BigUint>,
    /// The accumulation value `Ac` over the *entire* prime list.
    pub accumulator: BigUint,
    /// Phase timing of this run (not part of the protocol; benchmarking
    /// metadata).
    pub timing: BuildTiming,
}

impl Encode for BuildOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        // Timing is benchmarking metadata, not protocol state: excluding it
        // keeps same-seed builds byte-identical on the wire.
        self.entries.encode(out);
        self.primes.encode(out);
        self.accumulator.encode(out);
    }
}

impl Decode for BuildOutput {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BuildOutput {
            entries: Decode::decode(reader)?,
            primes: Decode::decode(reader)?,
            accumulator: Decode::decode(reader)?,
            timing: BuildTiming::default(),
        })
    }
}

/// A search token `(t_j, j, G1, G2)` for one keyword (Algorithm 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchToken {
    /// Newest trapdoor for the keyword.
    pub trapdoor: Trapdoor,
    /// Update count `j`.
    pub updates: u32,
    /// `G1 = G(K, w‖1)`.
    pub g1: [u8; 32],
    /// `G2 = G(K, w‖2)`.
    pub g2: [u8; 32],
}

slicer_crypto::impl_codec!(SearchToken {
    trapdoor,
    updates,
    g1,
    g2,
});

impl SearchToken {
    /// Converts to the on-chain representation, serializing the trapdoor at
    /// the given fixed width.
    pub fn to_chain(&self, trapdoor_width: usize) -> TokenOnChain {
        TokenOnChain {
            trapdoor: self.trapdoor.to_bytes(trapdoor_width),
            j: self.updates,
            g1: self.g1,
            g2: self.g2,
        }
    }
}

/// The cloud's answer for one search token: the recovered encrypted
/// results (Algorithm 4's `er`).
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// The token answered.
    pub token: SearchToken,
    /// Encrypted matched records `Enc(K_R, R)`, one per hit.
    pub er: Vec<Vec<u8>>,
}

slicer_crypto::impl_codec!(SliceResult { token, er });

/// The cloud's full response to a search request: each token's results,
/// held once, and the proof of each. The contract verifies and the user
/// decrypts these same results.
#[derive(Debug, Clone)]
pub struct CloudResponse {
    /// The per-token results, in token order.
    pub results: Vec<SliceResult>,
    /// Each result's verification object and `H_prime` hint (same order
    /// as `results`).
    pub proofs: Vec<(Vec<u8>, u16)>,
}

impl CloudResponse {
    /// The contract entries: result `i` with proof `i`, answering token
    /// `i`. A result without a proof (or the reverse) yields no entry.
    pub fn entries(&self) -> Vec<VerifyEntry> {
        self.results
            .iter()
            .zip(&self.proofs)
            .enumerate()
            .map(|(i, (r, (vo, hint)))| VerifyEntry {
                token_idx: i as u16,
                hint: *hint,
                er: r.er.clone(),
                vo: vo.clone(),
            })
            .collect()
    }
}

/// The comparison operator of a user query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// Records whose value equals the query value.
    Equal,
    /// Records whose value is strictly less than the query value.
    LessThan,
    /// Records whose value is strictly greater than the query value.
    GreaterThan,
}

impl Encode for QueryOp {
    fn encode(&self, out: &mut Vec<u8>) {
        let variant: u32 = match self {
            QueryOp::Equal => 0,
            QueryOp::LessThan => 1,
            QueryOp::GreaterThan => 2,
        };
        variant.encode(out);
    }
}

impl Decode for QueryOp {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u32::decode(reader)? {
            0 => Ok(QueryOp::Equal),
            1 => Ok(QueryOp::LessThan),
            2 => Ok(QueryOp::GreaterThan),
            v => Err(CodecError::msg(format!("invalid QueryOp variant {v}"))),
        }
    }
}

/// A user query `(attribute, value, matching condition)`.
///
/// # Examples
///
/// ```
/// use slicer_core::Query;
/// let q = Query::less_than(30).on_attr("age");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Attribute name (empty for single-attribute databases).
    pub attr: Vec<u8>,
    /// The query value `v`.
    pub value: u64,
    /// The matching condition `mc`.
    pub op: QueryOp,
}

slicer_crypto::impl_codec!(Query { attr, value, op });

impl Query {
    /// Equality query on the anonymous attribute.
    pub fn equal(value: u64) -> Self {
        Query {
            attr: Vec::new(),
            value,
            op: QueryOp::Equal,
        }
    }

    /// `< value` query on the anonymous attribute.
    pub fn less_than(value: u64) -> Self {
        Query {
            attr: Vec::new(),
            value,
            op: QueryOp::LessThan,
        }
    }

    /// `> value` query on the anonymous attribute.
    pub fn greater_than(value: u64) -> Self {
        Query {
            attr: Vec::new(),
            value,
            op: QueryOp::GreaterThan,
        }
    }

    /// Rebinds the query to a named attribute.
    #[must_use]
    pub fn on_attr(mut self, attr: &str) -> Self {
        self.attr = attr.as_bytes().to_vec();
        self
    }

    /// Whether a plaintext value satisfies this query (test oracle).
    pub fn matches(&self, v: u64) -> bool {
        match self.op {
            QueryOp::Equal => v == self.value,
            QueryOp::LessThan => v < self.value,
            QueryOp::GreaterThan => v > self.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_oracle() {
        assert!(Query::equal(5).matches(5));
        assert!(!Query::equal(5).matches(6));
        assert!(Query::less_than(5).matches(4));
        assert!(!Query::less_than(5).matches(5));
        assert!(Query::greater_than(5).matches(6));
    }

    #[test]
    fn attr_binding() {
        let q = Query::equal(1).on_attr("age");
        assert_eq!(q.attr, b"age");
    }

    #[test]
    fn token_chain_conversion_pads_trapdoor() {
        let t = SearchToken {
            trapdoor: Trapdoor::from_value(BigUint::from(5u64)),
            updates: 2,
            g1: [1; 32],
            g2: [2; 32],
        };
        let oc = t.to_chain(64);
        assert_eq!(oc.trapdoor.len(), 64);
        assert_eq!(oc.j, 2);
    }
}
