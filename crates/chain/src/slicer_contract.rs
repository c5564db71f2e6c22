//! The Slicer verification smart contract (Algorithm 5 + fair payment).
//!
//! The contract stores the owner's accumulator digest `Ac` and, for each
//! search request, the parties, the escrowed payment and a SHA-256
//! commitment to the user's search tokens. When the cloud submits results
//! it re-sends the tokens, the contract checks them against the commitment
//! and recomputes, *on chain*:
//!
//! 1. `h ← H(er)` — the ordered SHA-256 digest of the returned
//!    ciphertexts ([`slicer_accumulator::result_digest`]),
//! 2. `x ← H_prime(t_j ‖ j ‖ G₁ ‖ G₂ ‖ h)` — the prime representative,
//!    as the one candidate of the `H_prime` walk that the cloud's hint
//!    names (no walk and no primality test on chain; DESIGN.md §3 has the
//!    soundness argument),
//! 3. `VerifyMem(x, vo)` — one modular exponentiation against `Ac`.
//!
//! If every slice of the request verifies, the escrow is paid to the cloud;
//! otherwise it is refunded to the data user (fairness in the mutually
//! distrusting setting of Section IV-B). Every step is charged against the
//! EVM-flavoured gas schedule, which is what regenerates Table II.

use crate::contract::{CallContext, Contract};
use crate::error::ContractError;
use crate::gas::GasCategory;
use crate::types::Address;
use slicer_accumulator::{
    candidate, result_digest_step, RsaParams, DEFAULT_PRIME_BITS, EMPTY_RESULT_DIGEST,
};
use slicer_bignum::BigUint;
use slicer_crypto::sha256;

/// Selector byte: owner updates the accumulator digest.
pub const SELECTOR_SET_AC: u8 = 0x01;
/// Selector byte: user registers a search request: token commitment + escrow.
pub const SELECTOR_REQUEST: u8 = 0x02;
/// Selector byte: cloud submits results + verification objects.
pub const SELECTOR_SUBMIT: u8 = 0x03;

/// A search token as published on chain: `(t_j, j, G₁, G₂)` of Algorithm 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenOnChain {
    /// Newest trapdoor `t_j` (fixed-width big-endian bytes).
    pub trapdoor: Vec<u8>,
    /// Update count `j`.
    pub j: u32,
    /// Index-label PRF key `G₁`.
    pub g1: [u8; 32],
    /// Mask PRF key `G₂`.
    pub g2: [u8; 32],
}

impl TokenOnChain {
    /// The byte string `t_j ‖ j ‖ G₁ ‖ G₂` fed to `H_prime` (together with
    /// the result digest).
    pub fn material(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.trapdoor.len() + 4 + 64);
        out.extend_from_slice(&self.trapdoor);
        out.extend_from_slice(&self.j.to_be_bytes());
        out.extend_from_slice(&self.g1);
        out.extend_from_slice(&self.g2);
        out
    }
}

/// One verifiable slice result submitted by the cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyEntry {
    /// Which registered token this entry answers.
    pub token_idx: u16,
    /// The `H_prime` walk index of the entry's prime: the contract checks
    /// candidate `hint` of the walk and nothing else.
    pub hint: u16,
    /// The encrypted matched results `er` for this token.
    pub er: Vec<Vec<u8>>,
    /// The membership witness `vo`.
    pub vo: Vec<u8>,
}

/// Calls understood by the Slicer contract, with a compact binary ABI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlicerCall {
    /// `SetAccumulator(Ac)` — owner only.
    SetAccumulator(Vec<u8>),
    /// `RequestSearch` — commits to the tokens, names the serving cloud
    /// and escrows the attached transaction value as the search fee.
    RequestSearch {
        /// Caller-chosen request identifier.
        request_id: [u8; 32],
        /// The cloud allowed to claim the fee.
        cloud: Address,
        /// The search tokens (Algorithm 3 output); only their SHA-256
        /// digest is stored.
        tokens: Vec<TokenOnChain>,
    },
    /// `SubmitResult` — cloud submits one entry per registered token.
    SubmitResult {
        /// The request being answered.
        request_id: [u8; 32],
        /// The request's tokens, re-sent as calldata; they must hash to the
        /// request's commitment.
        tokens: Vec<TokenOnChain>,
        /// Per-token results and witnesses.
        entries: Vec<VerifyEntry>,
    },
}

impl SlicerCall {
    /// Serializes the call to calldata bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            SlicerCall::SetAccumulator(ac) => {
                out.push(SELECTOR_SET_AC);
                put_bytes16(&mut out, ac);
            }
            SlicerCall::RequestSearch {
                request_id,
                cloud,
                tokens,
            } => {
                out.push(SELECTOR_REQUEST);
                out.extend_from_slice(request_id);
                out.extend_from_slice(&cloud.0);
                put_tokens(&mut out, tokens);
            }
            SlicerCall::SubmitResult {
                request_id,
                tokens,
                entries,
            } => {
                out.push(SELECTOR_SUBMIT);
                out.extend_from_slice(request_id);
                put_tokens(&mut out, tokens);
                out.extend_from_slice(&(entries.len() as u16).to_be_bytes());
                for e in entries {
                    out.extend_from_slice(&e.token_idx.to_be_bytes());
                    out.extend_from_slice(&e.hint.to_be_bytes());
                    out.extend_from_slice(&(e.er.len() as u32).to_be_bytes());
                    for r in &e.er {
                        put_bytes16(&mut out, r);
                    }
                    put_bytes16(&mut out, &e.vo);
                }
            }
        }
        out
    }

    /// Parses calldata.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::BadCalldata`] on truncated or malformed
    /// input.
    pub fn decode(data: &[u8]) -> Result<Self, ContractError> {
        let mut r = Reader::new(data);
        match r.u8()? {
            SELECTOR_SET_AC => {
                let ac = r.bytes16()?;
                r.finish()?;
                Ok(SlicerCall::SetAccumulator(ac))
            }
            SELECTOR_REQUEST => {
                let request_id = r.array32()?;
                let cloud = Address(r.array20()?);
                let tokens = r.tokens()?;
                r.finish()?;
                Ok(SlicerCall::RequestSearch {
                    request_id,
                    cloud,
                    tokens,
                })
            }
            SELECTOR_SUBMIT => {
                let request_id = r.array32()?;
                let tokens = r.tokens()?;
                // Counts come from the sender: vectors grow with the bytes
                // that are really there, never with a declared count.
                let n = r.u16()?;
                let mut entries = Vec::new();
                for _ in 0..n {
                    let token_idx = r.u16()?;
                    let hint = r.u16()?;
                    let n_er = r.u32()?;
                    let mut er = Vec::new();
                    for _ in 0..n_er {
                        er.push(r.bytes16()?);
                    }
                    let vo = r.bytes16()?;
                    entries.push(VerifyEntry {
                        token_idx,
                        hint,
                        er,
                        vo,
                    });
                }
                r.finish()?;
                Ok(SlicerCall::SubmitResult {
                    request_id,
                    tokens,
                    entries,
                })
            }
            s => Err(ContractError::BadCalldata(format!(
                "unknown selector {s:#x}"
            ))),
        }
    }
}

fn put_bytes16(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u16).to_be_bytes());
    out.extend_from_slice(data);
}

/// The token block: a `u16` count, then per token a length-prefixed `t_j`,
/// `j`, `G₁` and `G₂`. Both calls carry it, and the request commits to its
/// `sha256`.
fn put_tokens(out: &mut Vec<u8>, tokens: &[TokenOnChain]) {
    out.extend_from_slice(&(tokens.len() as u16).to_be_bytes());
    for t in tokens {
        put_bytes16(out, &t.trapdoor);
        out.extend_from_slice(&t.j.to_be_bytes());
        out.extend_from_slice(&t.g1);
        out.extend_from_slice(&t.g2);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ContractError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| ContractError::BadCalldata("truncated input".into()))?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| ContractError::BadCalldata("truncated input".into()))?;
        self.pos = end;
        Ok(s)
    }

    /// Takes exactly `N` bytes as a fixed array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ContractError> {
        self.take(N)?
            .try_into()
            .map_err(|_| ContractError::BadCalldata("truncated input".into()))
    }

    fn u8(&mut self) -> Result<u8, ContractError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, ContractError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ContractError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn array20(&mut self) -> Result<[u8; 20], ContractError> {
        self.array()
    }

    fn array32(&mut self) -> Result<[u8; 32], ContractError> {
        self.array()
    }

    fn bytes16(&mut self) -> Result<Vec<u8>, ContractError> {
        let n = self.u16()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a token block written by `put_tokens`.
    fn tokens(&mut self) -> Result<Vec<TokenOnChain>, ContractError> {
        // The count comes from the sender: the vector grows with the bytes
        // that are really there, never with a declared count.
        let n = self.u16()?;
        let mut tokens = Vec::new();
        for _ in 0..n {
            tokens.push(TokenOnChain {
                trapdoor: self.bytes16()?,
                j: self.u32()?,
                g1: self.array32()?,
                g2: self.array32()?,
            });
        }
        Ok(tokens)
    }

    fn finish(&self) -> Result<(), ContractError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ContractError::BadCalldata("trailing bytes".into()))
        }
    }
}

/// The deployed Slicer verification contract.
#[derive(Debug)]
pub struct SlicerContract {
    params: RsaParams,
    prime_bits: u32,
    owner: Address,
}

impl SlicerContract {
    /// Contract over the fixed 512-bit accumulator parameters, owned by the
    /// zero address (tests override with [`SlicerContract::new`]).
    pub fn fixed_512() -> Self {
        Self::new(RsaParams::fixed_512(), DEFAULT_PRIME_BITS, Address::ZERO)
    }

    /// Contract with explicit parameters and owner (only the owner may call
    /// `SetAccumulator`). Under a `prime_bits` that `H_prime` does not
    /// support, every entry fails verification and every request refunds.
    pub fn new(params: RsaParams, prime_bits: u32, owner: Address) -> Self {
        SlicerContract {
            params,
            prime_bits,
            owner,
        }
    }

    /// Storage key for a request record.
    fn req_key(id: &[u8; 32]) -> Vec<u8> {
        let mut k = b"req:".to_vec();
        k.extend_from_slice(id);
        k
    }

    /// `sha256` of the token block, charged as one hash over its bytes: the
    /// commitment a request stores and a submission must reproduce.
    fn token_digest(
        ctx: &mut CallContext<'_>,
        tokens: &[TokenOnChain],
    ) -> Result<[u8; 32], ContractError> {
        let mut block = Vec::new();
        put_tokens(&mut block, tokens);
        ctx.charge_as(GasCategory::Hash, ctx.schedule().hash_cost(block.len()))?;
        Ok(sha256(&block))
    }

    fn verify_entry(
        &self,
        ctx: &mut CallContext<'_>,
        token: &TokenOnChain,
        entry: &VerifyEntry,
        ac: &BigUint,
    ) -> Result<bool, ContractError> {
        // h ← H(er): the ordered digest, folded from the list's end, one
        // `SHA-256(r ‖ h)` per ciphertext.
        let mut h = EMPTY_RESULT_DIGEST;
        for r in entry.er.iter().rev() {
            ctx.charge_as(GasCategory::Hash, ctx.schedule().hash_cost(r.len() + 32))?;
            h = result_digest_step(r, &h);
        }
        // x ← H_prime(t_j ‖ j ‖ G1 ‖ G2 ‖ h), as the walk's candidate
        // number `hint`: odd and exactly `prime_bits` wide by construction.
        // A hint that names anything but an accumulated prime fails
        // VerifyMem below (DESIGN.md §3), so no primality test runs here.
        // A deployed width `H_prime` does not support fails the entry: a
        // revert would lock the escrow.
        let mut material = token.material();
        material.extend_from_slice(&h);
        ctx.charge_as(GasCategory::Hash, ctx.schedule().hash_cost(material.len()))?;
        ctx.charge_as(GasCategory::HPrime, ctx.schedule().hprime_candidate)?;
        let Ok(x) = candidate(&material, self.prime_bits, u64::from(entry.hint)) else {
            return Ok(false);
        };
        // VerifyMem(x, vo): one big modexp against the stored digest.
        let elem = self.params.element_bytes();
        ctx.charge_as(
            GasCategory::Modexp,
            ctx.schedule()
                .modexp_cost(elem, self.prime_bits as u64, elem),
        )?;
        let vo = BigUint::from_bytes_be(&entry.vo);
        Ok(&self.params.powmod(&vo, &x) == ac)
    }
}

impl Contract for SlicerContract {
    /// Pseudo-bytecode: a tagged header, the verification parameters
    /// (modulus + generator, as a compiled artifact would embed them) and a
    /// deterministic body standing in for the compiled verification logic.
    /// Sized so deployment lands at the paper's ≈ 745k gas (Table II).
    fn code(&self) -> Vec<u8> {
        let mut code = b"SLICER-VERIFIER-V1".to_vec();
        code.extend_from_slice(&self.params.modulus().to_bytes_be());
        code.extend_from_slice(&self.params.generator().to_bytes_be());
        // Deterministic nonzero filler emulating the compiled contract body.
        let mut seed = sha256(&code);
        while code.len() < 3_205 {
            for b in seed {
                code.push(if b == 0 { 0x5B } else { b });
            }
            seed = sha256(&seed);
        }
        code.truncate(3_205);
        code
    }

    fn execute(&self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, ContractError> {
        match SlicerCall::decode(input)? {
            SlicerCall::SetAccumulator(ac) => {
                if ctx.caller != self.owner {
                    return Err(ContractError::Unauthorized);
                }
                ctx.sstore(b"ac", ac)?;
                ctx.emit("AccumulatorUpdated", Vec::new())?;
                Ok(Vec::new())
            }
            SlicerCall::RequestSearch {
                request_id,
                cloud,
                tokens,
            } => {
                let key = Self::req_key(&request_id);
                if ctx.sload(&key)?.is_some() {
                    return Err(ContractError::Reverted("request id already used".into()));
                }
                // Persist user ‖ cloud ‖ amount ‖ sha256(tokens) for the
                // settlement: 88 bytes, three words, whatever the token
                // count. The tokens themselves come back as calldata.
                let digest = Self::token_digest(ctx, &tokens)?;
                let mut record = Vec::new();
                record.extend_from_slice(&ctx.caller.0);
                record.extend_from_slice(&cloud.0);
                record.extend_from_slice(&ctx.value.to_be_bytes());
                record.extend_from_slice(&digest);
                ctx.sstore(&key, record)?;
                ctx.emit("SearchRequested", request_id.to_vec())?;
                Ok(Vec::new())
            }
            SlicerCall::SubmitResult {
                request_id,
                tokens,
                entries,
            } => {
                let key = Self::req_key(&request_id);
                let record = ctx
                    .sload(&key)?
                    .ok_or_else(|| ContractError::Reverted("unknown request".into()))?;
                let mut r = Reader::new(&record);
                let user = Address(r.array20()?);
                let cloud = Address(r.array20()?);
                let amount = u128::from_be_bytes(r.array()?);
                let committed = r.array32()?;
                if ctx.caller != cloud {
                    return Err(ContractError::Unauthorized);
                }
                // Tokens that do not match the request's commitment fail
                // verification like a bad witness: nothing is verified and
                // the user is refunded. A revert would lock the escrow.
                let bound = Self::token_digest(ctx, &tokens)? == committed;

                let ac_bytes = ctx
                    .sload(b"ac")?
                    .ok_or_else(|| ContractError::Reverted("accumulator not set".into()))?;
                let ac = BigUint::from_bytes_be(&ac_bytes);

                // Every token must be answered exactly once.
                let mut seen = vec![false; tokens.len()];
                let mut all_ok = bound && entries.len() == tokens.len();
                let checked = if bound { entries.as_slice() } else { &[] };
                for e in checked {
                    let idx = e.token_idx as usize;
                    let (Some(token), Some(slot)) = (tokens.get(idx), seen.get_mut(idx)) else {
                        all_ok = false;
                        break;
                    };
                    if *slot {
                        all_ok = false;
                        break;
                    }
                    *slot = true;
                    if !self.verify_entry(ctx, token, e, &ac)? {
                        all_ok = false;
                        break;
                    }
                }
                all_ok = all_ok && seen.iter().all(|&s| s);

                // Settle: pay the cloud on success, refund the user on
                // failure (Algorithm 5's payment rule).
                let beneficiary = if all_ok { cloud } else { user };
                if amount > 0 {
                    ctx.transfer(beneficiary, amount)?;
                }
                // Mark settled by overwriting the request record.
                ctx.sstore(&key, b"settled".to_vec())?;
                // The settlement outcome is a public event: anyone can
                // audit who was paid for which request.
                let mut event = request_id.to_vec();
                event.push(u8::from(all_ok));
                ctx.emit("Settled", event)?;
                Ok(vec![u8::from(all_ok)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calldata_roundtrip_all_variants() {
        let calls = vec![
            SlicerCall::SetAccumulator(vec![1, 2, 3]),
            SlicerCall::RequestSearch {
                request_id: [9u8; 32],
                cloud: Address::from_byte(7),
                tokens: vec![TokenOnChain {
                    trapdoor: vec![4; 64],
                    j: 3,
                    g1: [1; 32],
                    g2: [2; 32],
                }],
            },
            SlicerCall::SubmitResult {
                request_id: [9u8; 32],
                tokens: vec![TokenOnChain {
                    trapdoor: vec![4; 64],
                    j: 3,
                    g1: [1; 32],
                    g2: [2; 32],
                }],
                entries: vec![VerifyEntry {
                    token_idx: 0,
                    hint: 0x1234,
                    er: vec![vec![5; 48], vec![6; 48]],
                    vo: vec![7; 64],
                }],
            },
        ];
        for c in calls {
            assert_eq!(SlicerCall::decode(&c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SlicerCall::decode(&[]).is_err());
        assert!(SlicerCall::decode(&[0xFF]).is_err());
        assert!(SlicerCall::decode(&[SELECTOR_SET_AC, 0, 5, 1]).is_err()); // truncated
        let mut trailing = SlicerCall::SetAccumulator(vec![1]).encode();
        trailing.push(0);
        assert!(SlicerCall::decode(&trailing).is_err());
    }

    #[test]
    fn code_image_is_stable_and_sized_for_table2() {
        let c = SlicerContract::fixed_512();
        let code = c.code();
        assert_eq!(code.len(), 3_205);
        assert_eq!(code, c.code(), "deterministic");
        assert!(code.iter().all(|&b| b != 0), "nonzero for calldata pricing");
    }
}
