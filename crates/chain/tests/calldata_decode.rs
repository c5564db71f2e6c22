//! `SlicerCall::decode` on corrupted calldata: every input returns
//! `ContractError::BadCalldata` or decodes to a valid call, never a panic
//! and never an allocation sized by a count the bytes do not back.
//!
//! CI runs this binary under `ulimit -v`, so an allocation sized from an
//! inflated count aborts the stage instead of passing by luck.

use slicer_chain::{Address, ContractError, SlicerCall, TokenOnChain, VerifyEntry};
use slicer_testkit::{prop_assert, prop_assert_eq, prop_check, Gen, PropResult};

fn token(g: &mut Gen) -> TokenOnChain {
    let mut t = TokenOnChain {
        trapdoor: g.bytes(0, 80),
        j: g.u32(),
        g1: [0; 32],
        g2: [0; 32],
    };
    t.g1[0] = g.u8();
    t.g2[31] = g.u8();
    t
}

fn call(g: &mut Gen) -> SlicerCall {
    let tokens = |g: &mut Gen| (0..g.usize_in(0, 3)).map(|_| token(g)).collect();
    match g.u64_in(0, 2) {
        0 => SlicerCall::SetAccumulator(g.bytes(0, 80)),
        1 => SlicerCall::RequestSearch {
            request_id: [g.u8(); 32],
            cloud: Address::from_byte(g.u8()),
            tokens: tokens(g),
        },
        _ => SlicerCall::SubmitResult {
            request_id: [g.u8(); 32],
            tokens: tokens(g),
            entries: (0..g.usize_in(0, 3))
                .map(|_| VerifyEntry {
                    token_idx: g.u16(),
                    hint: g.u16(),
                    er: (0..g.usize_in(0, 3)).map(|_| g.bytes(0, 48)).collect(),
                    vo: g.bytes(0, 64),
                })
                .collect(),
        },
    }
}

/// Offset and width of every length and count field of `call`'s encoding.
fn count_fields(call: &SlicerCall) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let token_block = |fields: &mut Vec<(usize, usize)>, at: usize, tokens: &[TokenOnChain]| {
        fields.push((at, 2));
        let mut pos = at + 2;
        for t in tokens {
            fields.push((pos, 2));
            pos += 2 + t.trapdoor.len() + 4 + 64;
        }
        pos
    };
    match call {
        SlicerCall::SetAccumulator(_) => fields.push((1, 2)),
        SlicerCall::RequestSearch { tokens, .. } => {
            token_block(&mut fields, 1 + 32 + 20, tokens);
        }
        SlicerCall::SubmitResult {
            tokens, entries, ..
        } => {
            let mut pos = token_block(&mut fields, 1 + 32, tokens);
            fields.push((pos, 2));
            pos += 2;
            for e in entries {
                // token_idx and hint, then the `er` count.
                pos += 4;
                fields.push((pos, 4));
                pos += 4;
                for r in &e.er {
                    fields.push((pos, 2));
                    pos += 2 + r.len();
                }
                fields.push((pos, 2));
                pos += 2 + e.vo.len();
            }
        }
    }
    fields
}

/// `data` is rejected as bad calldata, or it is the canonical encoding of a
/// call other than `original`.
fn rejected_or_other_call(data: &[u8], original: &SlicerCall, what: &str) -> PropResult {
    match SlicerCall::decode(data) {
        Err(ContractError::BadCalldata(_)) => Ok(()),
        Err(e) => Err(format!("{what}: {e:?} is not BadCalldata")),
        Ok(c) => {
            prop_assert!(&c != original, "{what}: corruption went unnoticed");
            prop_assert_eq!(c.encode(), data.to_vec(), "{what}: non-canonical decode");
            Ok(())
        }
    }
}

#[test]
fn corrupted_calldata_is_rejected_or_another_valid_call() {
    prop_check!(0xCA11, 64, |g| {
        let original = call(g);
        let data = original.encode();
        prop_assert_eq!(SlicerCall::decode(&data), Ok(original.clone()));

        // A strict prefix always runs out of bytes.
        for end in 0..data.len() {
            prop_assert!(
                matches!(
                    SlicerCall::decode(&data[..end]),
                    Err(ContractError::BadCalldata(_))
                ),
                "truncated at {end}"
            );
        }
        // So does any suffix: the decoder rejects trailing bytes.
        let mut longer = data.clone();
        longer.extend(g.bytes(1, 8));
        prop_assert!(
            matches!(
                SlicerCall::decode(&longer),
                Err(ContractError::BadCalldata(_))
            ),
            "trailing bytes"
        );
        // Inflated counts: the largest value and a random larger one.
        for (at, width) in count_fields(&original) {
            let field = &data[at..at + width];
            let value = field.iter().fold(0u64, |v, &b| v << 8 | u64::from(b));
            let max = (1u64 << (8 * width)) - 1;
            for inflated in [max, g.u64_in(value.min(max - 1) + 1, max)] {
                let mut bad = data.clone();
                bad[at..at + width].copy_from_slice(&inflated.to_be_bytes()[8 - width..]);
                rejected_or_other_call(&bad, &original, &format!("count at {at} = {inflated}"))?;
            }
        }
        // Random bit flips.
        for _ in 0..8 {
            let mut bad = data.clone();
            for _ in 0..g.usize_in(1, 3) {
                let bit = g.index(bad.len() * 8);
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            if bad == data {
                continue;
            }
            rejected_or_other_call(&bad, &original, "bit flips")?;
        }
        Ok(())
    });
}
