//! Membership-witness generation strategies.
//!
//! A witness for `x` in set `X` is `g^{∏_{y ∈ X, y ≠ x} y} mod n`. Three
//! strategies with different cost profiles:
//!
//! * [`membership_witness`] — direct per-query fold over `X \ {x}`, `O(|X|)`
//!   short exponentiations. This is what the paper's cloud does per search
//!   token (its VO-generation time in Fig. 5b/5d grows with the record
//!   count for exactly this reason).
//! * [`BatchProver`] — for an order query's `b` slices: raise `g` to the
//!   shared complement exponent `∏ X / ∏ targets` from a fixed-base table
//!   (no squarings), then split among the `b` targets with a root-factor
//!   tree. It keeps the running product `∏ X` and the table across calls,
//!   catching up with primes appended since. [`witness_batch`] is a fresh
//!   prover used once.
//! * [`root_factor`] — Sander–Ta-Shma–style divide and conquer producing
//!   witnesses for *every* member of a set in `O(|X| log |X|)`
//!   exponentiations; the batch prover runs it over the targets only.

use crate::error::AccumulatorError;
use crate::params::RsaParams;
use slicer_bignum::{BigUint, FixedBase};
use slicer_par::Pool;

/// Subtrees below this size are not worth fanning out to pool workers.
const POOL_MIN_SUBTREE: usize = 64;

/// Direct witness for `primes[target]`: folds every other prime into the
/// exponent one at a time.
///
/// # Errors
///
/// Returns [`AccumulatorError::TargetOutOfRange`] if
/// `target >= primes.len()`.
pub fn membership_witness(
    params: &RsaParams,
    primes: &[BigUint],
    target: usize,
) -> Result<BigUint, AccumulatorError> {
    if target >= primes.len() {
        return Err(AccumulatorError::TargetOutOfRange {
            index: target,
            len: primes.len(),
        });
    }
    slicer_telemetry::global::count("accumulator.witness.direct", 1);
    let mut w = params.generator().clone();
    for (i, p) in primes.iter().enumerate() {
        if i != target {
            w = params.powmod(&w, p);
        }
    }
    Ok(w)
}

/// Witnesses for a subset of members sharing one complement
/// exponentiation: a fresh [`BatchProver`] used once.
///
/// `targets` are indexes into `primes` (must be distinct). Returns one
/// witness per target, in target order.
///
/// # Errors
///
/// Returns [`AccumulatorError::TargetOutOfRange`] or
/// [`AccumulatorError::DuplicateTarget`] on a malformed target list.
pub fn witness_batch(
    params: &RsaParams,
    primes: &[BigUint],
    targets: &[usize],
) -> Result<Vec<BigUint>, AccumulatorError> {
    BatchProver::new(params)?.witnesses(primes, targets, &Pool::single())
}

/// Batched membership witnesses over an append-only prime list.
///
/// Every batched witness raises the fixed generator `g` to "the product of
/// the list, minus the targets". The prover keeps the running product
/// `P = ∏ primes[..folded]` and a [`FixedBase`] table for `g` that covers
/// `bits(P)`, so a call costs:
///
/// * catching up with primes appended since the last call (one multiply
///   of `P` by their product, eight squarings per new byte of `P`),
/// * one exact division `E = P / ∏ targets`,
/// * one table exponentiation `g^E` (`bits(E)/8 + 512` multiplies), and
/// * a root-factor split of `g^E` among the targets.
///
/// The table is the prover's memory cost: `bits(P) / 8 · element bytes`,
/// about 64 bytes per accumulated 8-bit slice of `P` at a 512-bit modulus.
#[derive(Debug, Clone)]
pub struct BatchProver {
    params: RsaParams,
    /// `∏ primes[..folded]`.
    product: BigUint,
    folded: usize,
    table: FixedBase,
}

impl BatchProver {
    /// A prover that has folded no primes yet.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::BadModulus`] if `params` carries no
    /// Montgomery context.
    pub fn new(params: &RsaParams) -> Result<Self, AccumulatorError> {
        let ctx = params.ctx().ok_or(AccumulatorError::BadModulus)?;
        Ok(BatchProver {
            params: params.clone(),
            product: BigUint::one(),
            folded: 0,
            table: FixedBase::new(ctx, params.generator()),
        })
    }

    /// How many primes of the list the running product covers.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Witnesses for `targets` (distinct indexes into `primes`), one per
    /// target in target order, after folding any primes appended to
    /// `primes` since the last call. `primes[..self.folded()]` must be the
    /// list this prover saw before: the list is append-only.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::TargetOutOfRange`] or
    /// [`AccumulatorError::DuplicateTarget`] on a malformed target list,
    /// and [`AccumulatorError::ProverAhead`] or
    /// [`AccumulatorError::TargetsNotInProduct`] when this prover was
    /// built over another list — never a wrong witness for those. The
    /// prover is then unusable for this list; build a fresh one.
    pub fn witnesses(
        &mut self,
        primes: &[BigUint],
        targets: &[usize],
        pool: &Pool,
    ) -> Result<Vec<BigUint>, AccumulatorError> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = slicer_telemetry::global::span("accumulator.witness");
        span.attr("targets", targets.len());
        slicer_telemetry::global::count("accumulator.witness.batched", targets.len() as u64);
        let mut in_targets = vec![false; primes.len()];
        let mut target_primes = Vec::with_capacity(targets.len());
        for &t in targets {
            let out_of_range = AccumulatorError::TargetOutOfRange {
                index: t,
                len: primes.len(),
            };
            let slot = in_targets.get_mut(t).ok_or(out_of_range.clone())?;
            if *slot {
                return Err(AccumulatorError::DuplicateTarget(t));
            }
            *slot = true;
            target_primes.push(primes.get(t).cloned().ok_or(out_of_range)?);
        }
        self.catch_up(primes)?;
        let divisor = product(&target_primes);
        if divisor.is_zero() {
            return Err(AccumulatorError::TargetsNotInProduct);
        }
        let (complement, rem) = self.product.div_rem(&divisor);
        if !rem.is_zero() {
            return Err(AccumulatorError::TargetsNotInProduct);
        }
        let base = self.table.pow(&complement);
        Ok(root_factor_pooled(
            &self.params,
            &base,
            &target_primes,
            pool,
        ))
    }

    /// Folds `primes[self.folded..]` into the running product and grows
    /// the table to cover it.
    fn catch_up(&mut self, primes: &[BigUint]) -> Result<(), AccumulatorError> {
        let fresh = primes
            .get(self.folded..)
            .ok_or(AccumulatorError::ProverAhead {
                folded: self.folded,
                len: primes.len(),
            })?;
        if !fresh.is_empty() {
            self.product = &self.product * &product(fresh);
            self.folded = primes.len();
            self.table.extend_to(self.product.bit_len());
        }
        Ok(())
    }
}

/// `∏ primes` by a balanced product tree, so the large multiplies happen
/// between operands of similar size (where Karatsuba applies).
fn product(primes: &[BigUint]) -> BigUint {
    match primes {
        [] => BigUint::one(),
        [p] => p.clone(),
        _ => {
            let (left, right) = primes.split_at(primes.len() / 2);
            &product(left) * &product(right)
        }
    }
}

/// Computes witnesses for every element of `primes` relative to the
/// accumulator `base^{∏ primes}`: returns `w_i = base^{∏_{j≠i} primes_j}`.
///
/// Divide and conquer: split the set in half, raise the base to the
/// product of each half for the opposite side, recurse. Total work is
/// `O(n log n)` short exponentiations instead of `O(n^2)`.
pub fn root_factor(params: &RsaParams, base: &BigUint, primes: &[BigUint]) -> Vec<BigUint> {
    match primes.len() {
        0 => Vec::new(),
        1 => vec![base.clone()],
        _ => {
            let mid = primes.len() / 2;
            let (left, right) = primes.split_at(mid);
            let base_right = params.powmod_product(base, left);
            let base_left = params.powmod_product(base, right);
            let mut out = root_factor(params, &base_left, left);
            out.extend(root_factor(params, &base_right, right));
            out
        }
    }
}

/// [`root_factor`] with the independent subtrees below the first few split
/// levels fanned out over a deterministic pool. The split arithmetic is
/// identical to the sequential tree and results are joined in submission
/// order, so the output is byte-equal at any worker count.
pub fn root_factor_pooled(
    params: &RsaParams,
    base: &BigUint,
    primes: &[BigUint],
    pool: &Pool,
) -> Vec<BigUint> {
    if pool.workers() <= 1 || primes.len() < 2 * POOL_MIN_SUBTREE {
        return root_factor(params, base, primes);
    }
    // Split sequentially (these top levels touch the whole prime set and
    // cannot parallelize) until there is a left-to-right frontier of
    // independent subtrees, then recurse into the subtrees concurrently.
    let want = pool.workers() * 4;
    let mut frontier: Vec<(BigUint, &[BigUint])> = vec![(base.clone(), primes)];
    while frontier.len() < want
        && frontier
            .iter()
            .any(|(_, s)| s.len() >= 2 * POOL_MIN_SUBTREE)
    {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for (b, s) in frontier {
            if s.len() < 2 * POOL_MIN_SUBTREE {
                next.push((b, s));
                continue;
            }
            let mid = s.len() / 2;
            let (left, right) = s.split_at(mid);
            let base_right = params.powmod_product(&b, left);
            let base_left = params.powmod_product(&b, right);
            next.push((base_left, left));
            next.push((base_right, right));
        }
        frontier = next;
    }
    pool.run(&frontier, |(b, s)| root_factor(params, b, s))
        .into_iter()
        .flatten()
        .collect()
}

/// Verifies `witness^x ≡ ac (mod n)` — the smart contract's `VerifyMem`.
pub fn verify_membership(
    params: &RsaParams,
    prime: &BigUint,
    witness: &BigUint,
    ac: &BigUint,
) -> bool {
    &params.powmod(witness, prime) == ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hash_to_prime, Accumulator, AccumulatorError};

    fn primes(n: u32) -> Vec<BigUint> {
        (0..n)
            .map(|i| hash_to_prime(&i.to_be_bytes(), 64).expect("width ok"))
            .collect()
    }

    #[test]
    fn direct_witness_verifies() {
        let params = RsaParams::fixed_512();
        let ps = primes(8);
        let acc = Accumulator::over(&params, &ps);
        for t in 0..ps.len() {
            let w = membership_witness(&params, &ps, t).expect("in range");
            assert!(acc.verify(&ps[t], &w), "witness {t}");
        }
    }

    #[test]
    fn witness_for_wrong_element_fails() {
        let params = RsaParams::fixed_512();
        let ps = primes(5);
        let acc = Accumulator::over(&params, &ps);
        let w = membership_witness(&params, &ps, 0).expect("in range");
        assert!(!acc.verify(&ps[1], &w));
    }

    #[test]
    fn non_member_cannot_be_proven() {
        let params = RsaParams::fixed_512();
        let ps = primes(5);
        let acc = Accumulator::over(&params, &ps);
        let outsider = hash_to_prime(b"not a member", 64).expect("width ok");
        for t in 0..ps.len() {
            let w = membership_witness(&params, &ps, t).expect("in range");
            assert!(!acc.verify(&outsider, &w));
        }
    }

    #[test]
    fn batch_matches_direct() {
        let params = RsaParams::fixed_512();
        let ps = primes(10);
        let targets = [1usize, 4, 7, 9];
        let batch = witness_batch(&params, &ps, &targets).expect("valid targets");
        for (w, &t) in batch.iter().zip(&targets) {
            assert_eq!(
                w,
                &membership_witness(&params, &ps, t).expect("in range"),
                "target {t}"
            );
        }
    }

    #[test]
    fn batch_empty_targets() {
        let params = RsaParams::fixed_512();
        assert!(witness_batch(&params, &primes(3), &[])
            .expect("empty")
            .is_empty());
    }

    #[test]
    fn malformed_targets_are_typed_errors() {
        let params = RsaParams::fixed_512();
        assert_eq!(
            witness_batch(&params, &primes(3), &[1, 1]).unwrap_err(),
            AccumulatorError::DuplicateTarget(1)
        );
        assert_eq!(
            witness_batch(&params, &primes(3), &[5]).unwrap_err(),
            AccumulatorError::TargetOutOfRange { index: 5, len: 3 }
        );
        assert_eq!(
            membership_witness(&params, &primes(3), 3).unwrap_err(),
            AccumulatorError::TargetOutOfRange { index: 3, len: 3 }
        );
    }

    #[test]
    fn root_factor_yields_all_witnesses() {
        let params = RsaParams::fixed_512();
        let ps = primes(9);
        let acc = Accumulator::over(&params, &ps);
        let all = root_factor(&params, params.generator(), &ps);
        assert_eq!(all.len(), ps.len());
        for (w, p) in all.iter().zip(&ps) {
            assert!(acc.verify(p, w));
        }
    }

    #[test]
    fn batch_witnesses_byte_equal_naive_fold() {
        // The product-tree path (chunked exponent products + root-factor
        // splits) must agree bit for bit with the one-prime-at-a-time fold
        // on random sets and random target subsets.
        use slicer_testkit::{prop_assert_eq, prop_check};
        prop_check!(0x2011, 64, |g| {
            let params = RsaParams::fixed_512();
            let n = g.u64_in(2, 18) as usize;
            let ps: Vec<BigUint> = (0..n)
                .map(|i| hash_to_prime(&[g.u8(), i as u8, 0x77], 64).expect("width ok"))
                .collect();
            let mut targets: Vec<usize> = (0..n).filter(|_| g.u8() & 1 == 1).collect();
            if targets.is_empty() {
                targets.push(g.u64_in(0, n as u64 - 1) as usize);
            }
            let batch = witness_batch(&params, &ps, &targets).expect("valid targets");
            for (w, &t) in batch.iter().zip(&targets) {
                prop_assert_eq!(
                    w.clone(),
                    membership_witness(&params, &ps, t).expect("in range")
                );
            }
            Ok(())
        });
    }

    #[test]
    fn stateful_prover_matches_direct_as_the_list_grows() {
        // One prover across calls, with primes appended between them (the
        // cloud's ingest-then-search cycle): every witness must be
        // byte-equal to the direct fold over the list as it stands.
        use slicer_testkit::{prop_assert_eq, prop_check};
        prop_check!(0x2012, 32, |g| {
            let params = RsaParams::fixed_512();
            let mut prover = BatchProver::new(&params).expect("fixed params");
            let mut ps: Vec<BigUint> = Vec::new();
            for round in 0..4u8 {
                let grow = g.usize_in(if ps.is_empty() { 1 } else { 0 }, 12);
                for i in 0..grow {
                    ps.push(hash_to_prime(&[g.u8(), round, i as u8, 0x78], 64).expect("width ok"));
                }
                let mut targets: Vec<usize> = (0..ps.len()).filter(|_| g.u8() & 3 == 0).collect();
                if targets.is_empty() {
                    targets.push(g.index(ps.len()));
                }
                let batch = prover
                    .witnesses(&ps, &targets, &Pool::single())
                    .expect("consistent prover");
                prop_assert_eq!(prover.folded(), ps.len());
                for (w, &t) in batch.iter().zip(&targets) {
                    prop_assert_eq!(
                        w.clone(),
                        membership_witness(&params, &ps, t).expect("in range"),
                        "round {round} target {t}"
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn prover_over_another_list_is_a_typed_error() {
        let params = RsaParams::fixed_512();
        let ps = primes(6);
        let pool = Pool::single();
        // Folded a longer list (a since-truncated one).
        let mut ahead = BatchProver::new(&params).expect("fixed params");
        ahead.witnesses(&ps, &[0], &pool).expect("consistent");
        assert_eq!(
            ahead.witnesses(&ps[..4], &[1], &pool).unwrap_err(),
            AccumulatorError::ProverAhead { folded: 6, len: 4 }
        );
        // Folded a same-length list whose target prime differs.
        let mut other = ps.clone();
        other[2] = hash_to_prime(b"phantom", 64).expect("width ok");
        let mut stale = BatchProver::new(&params).expect("fixed params");
        stale.witnesses(&other, &[0], &pool).expect("consistent");
        assert_eq!(
            stale.witnesses(&ps, &[2], &pool).unwrap_err(),
            AccumulatorError::TargetsNotInProduct
        );
    }

    #[test]
    fn pooled_tree_matches_sequential_at_every_pool_size() {
        let params = RsaParams::fixed_512();
        let ps = primes(300);
        let sequential = root_factor(&params, params.generator(), &ps);
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            assert_eq!(
                root_factor_pooled(&params, params.generator(), &ps, &pool),
                sequential,
                "pool size {workers}"
            );
        }
        let acc = Accumulator::over(&params, &ps);
        for (w, p) in sequential.iter().zip(&ps) {
            assert!(acc.verify(p, w));
        }
    }

    #[test]
    fn single_member_witness_is_generator() {
        let params = RsaParams::fixed_512();
        let ps = primes(1);
        let w = membership_witness(&params, &ps, 0).expect("in range");
        assert_eq!(&w, params.generator());
        let acc = Accumulator::over(&params, &ps);
        assert!(acc.verify(&ps[0], &w));
    }
}
