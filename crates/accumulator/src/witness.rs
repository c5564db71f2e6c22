//! Membership-witness generation strategies.
//!
//! A witness for `x` in set `X` is `g^{∏_{y ∈ X, y ≠ x} y} mod n`. Three
//! strategies with different cost profiles:
//!
//! * [`membership_witness`] — direct per-query fold over `X \ {x}`, `O(|X|)`
//!   short exponentiations. This is what the paper's cloud does per search
//!   token (its VO-generation time in Fig. 5b/5d grows with the record
//!   count for exactly this reason).
//! * [`BatchProver`] — for an order query's `b` slices: the list is cut
//!   into leaves of at most [`LEAF`] primes, and each leaf caches the
//!   witness of the whole leaf, `g^{∏ X / ∏ leaf}`. A query raises the
//!   cached base of each leaf it touches by the primes appended since and
//!   by the leaf's other primes, then splits it among the leaf's targets.
//! * [`root_factor`] — Sander–Ta-Shma–style divide and conquer producing
//!   witnesses for *every* group of a partitioned prime set in
//!   `O(|X| log |X|)` exponentiations; the batch prover runs it over its
//!   new leaves and over the targets inside a leaf.

use crate::error::AccumulatorError;
use crate::params::RsaParams;
use slicer_bignum::BigUint;
use slicer_par::Pool;
use std::collections::BTreeMap;
use std::ops::Range;

/// Subtrees covering fewer primes than this are not worth fanning out to
/// pool workers.
const POOL_MIN_SUBTREE: usize = 64;

/// Most primes in one leaf of a [`BatchProver`]: a query raises a leaf's
/// cached base by at most `LEAF - 1` primes to exclude the leaf's other
/// members.
pub const LEAF: usize = 16;

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
    let mut w = params.generator().clone();
    for (i, p) in primes.iter().enumerate() {
        if i != target {
            w = params.powmod(&w, p);
        }
    }
    Ok(w)
}

/// Batched membership witnesses over an append-only prime list.
///
/// The list is cut into *leaves* of at most [`LEAF`] consecutive primes.
/// Each leaf caches `base = g^{∏ primes[..as_of] / ∏ leaf}`, the witness
/// of the whole leaf as of list length `as_of`, and the prover keeps
/// `A = g^{∏ primes[..folded]}`. A call
///
/// * folds the primes appended since the last call into `⌈k / LEAF⌉`
///   balanced new leaves. A root-factor tree over the new leaves splits
///   their bases from `A`, then `A` advances by one new leaf's primes.
///   The first call is this step from `A = g`, about `log2(|X| / LEAF)`
///   folds of the list;
/// * for each leaf holding a target, raises the base by the primes
///   appended since `as_of` (so only leaves a query touches catch up),
///   then by the leaf's non-target primes, and splits the result among
///   the leaf's targets.
///
/// A warm query thus pays at most `LEAF - 1` prime exponents per target
/// plus the catch-up, whatever `|X|`. Ingest costs the prover nothing.
/// It holds one group element per leaf and the primes it folded, which
/// every call compares with the list it is handed.
#[derive(Debug, Clone)]
pub struct BatchProver {
    params: RsaParams,
    /// The primes folded so far: a prefix of every list a call accepts.
    folded: Vec<BigUint>,
    /// `A = g^{∏ folded}`.
    acc: BigUint,
    /// Consecutive leaves covering `folded`.
    leaves: Vec<Leaf>,
}

/// One leaf of a [`BatchProver`].
#[derive(Debug, Clone)]
struct Leaf {
    /// The leaf's primes, `primes[range]`.
    range: Range<usize>,
    /// `g^{∏ primes[..as_of] / ∏ primes[range]}`.
    base: BigUint,
    /// List length `base` is up to date with.
    as_of: usize,
}

impl BatchProver {
    /// A prover that has folded no primes yet.
    pub fn new(params: &RsaParams) -> Self {
        BatchProver {
            params: params.clone(),
            folded: Vec::new(),
            acc: params.generator().clone(),
            leaves: Vec::new(),
        }
    }

    /// How many primes of the list the prover has folded into leaves.
    pub fn folded(&self) -> usize {
        self.folded.len()
    }

    /// Witnesses for `targets` (distinct indexes into `primes`), one per
    /// target in target order, after folding any primes appended to
    /// `primes` since the last call. `primes[..self.folded()]` must be the
    /// list this prover saw before: the list is append-only. Records an
    /// `accumulator.witness` span, and one `accumulator.leaves` span per
    /// fold, through the pool's telemetry handle.
    ///
    /// # Errors
    ///
    /// Returns [`AccumulatorError::TargetOutOfRange`] or
    /// [`AccumulatorError::DuplicateTarget`] on a malformed target list,
    /// and [`AccumulatorError::ProverAhead`] or
    /// [`AccumulatorError::ProverDiverged`] when this prover was built
    /// over another list — never a wrong witness for those. The prover
    /// is then unusable for this list; build a fresh one.
    pub fn witnesses(
        &mut self,
        primes: &[BigUint],
        targets: &[usize],
        pool: &Pool,
    ) -> Result<Vec<BigUint>, AccumulatorError> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = pool.telemetry().span("accumulator.witness");
        span.attr("targets", targets.len());
        let len = primes.len();
        let mut seen = vec![false; len];
        for &t in targets {
            let slot = seen
                .get_mut(t)
                .ok_or(AccumulatorError::TargetOutOfRange { index: t, len })?;
            if *slot {
                return Err(AccumulatorError::DuplicateTarget(t));
            }
            *slot = true;
        }
        self.check_list(primes)?;
        self.grow(primes, pool);

        // The touched leaves in list order, each with the target slots
        // inside it.
        let mut by_leaf: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (slot, &t) in targets.iter().enumerate() {
            let leaf = self.leaves.partition_point(|l| l.range.end <= t);
            by_leaf.entry(leaf).or_default().push(slot);
        }
        let mut jobs = Vec::with_capacity(by_leaf.len());
        for (i, slots) in by_leaf {
            let leaf = self.leaves.get(i).ok_or(AccumulatorError::ProverAhead {
                folded: self.folded.len(),
                len,
            })?;
            let members: Vec<usize> = slots
                .iter()
                .filter_map(|&s| targets.get(s).copied())
                .collect();
            jobs.push((i, slots, leaf.clone(), members));
        }
        span.attr("leaves", jobs.len());
        span.attr(
            "catchup_primes",
            jobs.iter()
                .map(|(_, _, leaf, _)| len - leaf.as_of)
                .sum::<usize>(),
        );
        let params = &self.params;
        let done = pool.run(&jobs, |(_, _, leaf, members)| {
            prove_leaf(params, primes, leaf, members)
        });

        let mut out = vec![BigUint::zero(); targets.len()];
        for ((i, slots, ..), (base, ws)) in jobs.into_iter().zip(done) {
            if let Some(leaf) = self.leaves.get_mut(i) {
                leaf.base = base;
                leaf.as_of = len;
            }
            for (slot, w) in slots.into_iter().zip(ws) {
                if let Some(o) = out.get_mut(slot) {
                    *o = w;
                }
            }
        }
        Ok(out)
    }

    /// Checks that `primes` extends the list this prover folded.
    fn check_list(&self, primes: &[BigUint]) -> Result<(), AccumulatorError> {
        let folded = self.folded.len();
        let prefix = primes.get(..folded).ok_or(AccumulatorError::ProverAhead {
            folded,
            len: primes.len(),
        })?;
        match prefix.iter().zip(&self.folded).position(|(a, b)| a != b) {
            Some(index) => Err(AccumulatorError::ProverDiverged { index }),
            None => Ok(()),
        }
    }

    /// Folds `primes[self.folded()..]` into new leaves and advances `A`
    /// past them.
    fn grow(&mut self, primes: &[BigUint], pool: &Pool) {
        let start = self.folded.len();
        let fresh = primes.get(start..).unwrap_or_default();
        if fresh.is_empty() {
            return;
        }
        let k = fresh.len();
        let m = k.div_ceil(LEAF);
        let mut span = pool.telemetry().span("accumulator.leaves");
        span.attr("primes", k);
        span.attr("leaves", m);
        let ranges: Vec<Range<usize>> = (0..m)
            .map(|i| start + i * k / m..start + (i + 1) * k / m)
            .collect();
        let bases = root_factor_pooled(&self.params, &self.acc, primes, &ranges, pool);
        if let (Some(base), Some(first)) = (bases.first(), ranges.first()) {
            self.acc = self
                .params
                .powmod_product(base, primes_of(primes, std::slice::from_ref(first)));
        }
        self.leaves
            .extend(ranges.into_iter().zip(bases).map(|(range, base)| Leaf {
                range,
                base,
                as_of: primes.len(),
            }));
        self.folded.extend_from_slice(fresh);
    }
}

/// Brings `leaf` up to `primes` and splits it among `members` (indexes
/// of its targets): returns the caught-up base and one witness per
/// member.
fn prove_leaf(
    params: &RsaParams,
    primes: &[BigUint],
    leaf: &Leaf,
    members: &[usize],
) -> (BigUint, Vec<BigUint>) {
    let base = params.powmod_product(&leaf.base, primes.get(leaf.as_of..).unwrap_or_default());
    let others: Vec<BigUint> = leaf
        .range
        .clone()
        .filter(|i| !members.contains(i))
        .filter_map(|i| primes.get(i).cloned())
        .collect();
    let excluded = params.powmod_product(&base, &others);
    let targets: Vec<BigUint> = members
        .iter()
        .filter_map(|&t| primes.get(t).cloned())
        .collect();
    let ws = root_factor(params, &excluded, &targets, &singletons(targets.len()));
    (base, ws)
}

/// `n` groups of one prime each, for [`root_factor`] over single primes.
pub fn singletons(n: usize) -> Vec<Range<usize>> {
    (0..n).map(|i| i..i + 1).collect()
}

/// The primes `groups` cover, from the first group's start to the last
/// group's end.
fn primes_of<'a>(primes: &'a [BigUint], groups: &[Range<usize>]) -> &'a [BigUint] {
    match (groups.first(), groups.last()) {
        (Some(first), Some(last)) => primes.get(first.start..last.end).unwrap_or_default(),
        _ => &[],
    }
}

/// Computes the witness of every group of `primes` relative to the
/// accumulator `base^{∏ primes[groups]}`: returns
/// `w_i = base^{∏_{j≠i} ∏ primes[groups[j]]}`, one per group. `groups`
/// are consecutive ranges, each starting where the previous one ends; a
/// prime is a group of one ([`singletons`]).
///
/// Divide and conquer: split the groups in half, raise the base to the
/// product of each half for the opposite side, recurse. Total work is
/// `O(n log m)` prime exponentiations for `n` primes in `m` groups
/// instead of `O(n m)`.
pub fn root_factor(
    params: &RsaParams,
    base: &BigUint,
    primes: &[BigUint],
    groups: &[Range<usize>],
) -> Vec<BigUint> {
    if groups.len() < 2 {
        return groups.iter().map(|_| base.clone()).collect();
    }
    let (left, right) = groups.split_at(groups.len() / 2);
    let base_left = params.powmod_product(base, primes_of(primes, right));
    let base_right = params.powmod_product(base, primes_of(primes, left));
    let mut out = root_factor(params, &base_left, primes, left);
    out.extend(root_factor(params, &base_right, primes, right));
    out
}

/// [`root_factor`] over a deterministic pool: the split levels above a
/// frontier of a few independent subtrees per worker raise their bases
/// concurrently, then the subtrees recurse concurrently. The split
/// arithmetic is identical to the sequential tree and results are joined
/// in submission order, so the output is byte-equal at any worker count.
fn root_factor_pooled(
    params: &RsaParams,
    base: &BigUint,
    primes: &[BigUint],
    groups: &[Range<usize>],
    pool: &Pool,
) -> Vec<BigUint> {
    let splittable =
        |g: &[Range<usize>]| g.len() >= 2 && primes_of(primes, g).len() >= 2 * POOL_MIN_SUBTREE;
    if pool.workers() <= 1 || !splittable(groups) {
        return root_factor(params, base, primes, groups);
    }
    let want = pool.workers() * 4;
    let mut frontier: Vec<(BigUint, &[Range<usize>])> = vec![(base.clone(), groups)];
    while frontier.len() < want && frontier.iter().any(|(_, g)| splittable(g)) {
        // Every node of the next level as (parent base, exponent groups,
        // its own groups); a node too small to split passes through.
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for &(ref b, g) in &frontier {
            if splittable(g) {
                let (left, right) = g.split_at(g.len() / 2);
                next.push((b, right, left));
                next.push((b, left, right));
            } else {
                next.push((b, Default::default(), g));
            }
        }
        let bases = pool.run(&next, |(b, exp, _)| {
            params.powmod_product(b, primes_of(primes, exp))
        });
        frontier = bases
            .into_iter()
            .zip(next)
            .map(|(b, (_, _, g))| (b, g))
            .collect();
    }
    pool.run(&frontier, |(b, g)| root_factor(params, b, primes, g))
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

    /// Witnesses for a subset of members from a fresh prover used once.
    fn witness_batch(
        params: &RsaParams,
        primes: &[BigUint],
        targets: &[usize],
    ) -> Result<Vec<BigUint>, AccumulatorError> {
        BatchProver::new(params).witnesses(primes, targets, &Pool::single())
    }

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
        let all = root_factor(&params, params.generator(), &ps, &singletons(ps.len()));
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
        // byte-equal to the direct fold over the list as it stands. The
        // first round spans several leaves, later batches of up to
        // 3·LEAF + 1 primes cross leaf boundaries, and targets often
        // share a leaf; leaves untouched for rounds must catch up.
        use slicer_testkit::{prop_assert_eq, prop_check};
        prop_check!(0x2012, 32, |g| {
            let params = RsaParams::fixed_512();
            let mut prover = BatchProver::new(&params);
            let mut ps: Vec<BigUint> = Vec::new();
            for round in 0..5u8 {
                let grow = if round == 0 {
                    g.usize_in(2 * LEAF + 1, 4 * LEAF)
                } else {
                    g.usize_in(0, 3 * LEAF + 1)
                };
                for i in 0..grow {
                    ps.push(hash_to_prime(&[g.u8(), round, i as u8, 0x78], 64).expect("width ok"));
                }
                // A handful of targets clustered in one stretch of the
                // list (so several share a leaf), plus a few anywhere.
                let from = g.index(ps.len());
                let mut targets: Vec<usize> = (from..ps.len().min(from + LEAF + 2))
                    .filter(|_| g.u8() & 1 == 0)
                    .collect();
                for _ in 0..g.usize_in(0, 3) {
                    let t = g.index(ps.len());
                    if !targets.contains(&t) {
                        targets.push(t);
                    }
                }
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
        let mut ahead = BatchProver::new(&params);
        ahead.witnesses(&ps, &[0], &pool).expect("consistent");
        assert_eq!(
            ahead.witnesses(&ps[..4], &[1], &pool).unwrap_err(),
            AccumulatorError::ProverAhead { folded: 6, len: 4 }
        );
        // Folded a same-length list with one prime swapped, whether a
        // target or a bystander.
        let mut other = ps.clone();
        other[2] = hash_to_prime(b"phantom", 64).expect("width ok");
        for target in [2, 4] {
            let mut stale = BatchProver::new(&params);
            stale.witnesses(&other, &[0], &pool).expect("consistent");
            assert_eq!(
                stale.witnesses(&ps, &[target], &pool).unwrap_err(),
                AccumulatorError::ProverDiverged { index: 2 }
            );
            // A longer list with the swapped prime in its prefix, too.
            let mut longer = ps.clone();
            longer.push(hash_to_prime(b"appended", 64).expect("width ok"));
            assert_eq!(
                stale.witnesses(&longer, &[target], &pool).unwrap_err(),
                AccumulatorError::ProverDiverged { index: 2 }
            );
        }
    }

    #[test]
    fn pooled_tree_matches_sequential_at_every_pool_size() {
        let params = RsaParams::fixed_512();
        let ps = primes(300);
        let sequential = root_factor(&params, params.generator(), &ps, &singletons(ps.len()));
        // Uneven groups, as the prover's leaves are.
        let groups: Vec<Range<usize>> = [0, 5, 21, 22, 140, 150, 299, 300]
            .windows(2)
            .map(|w| w[0]..w[1])
            .collect();
        let grouped = root_factor(&params, params.generator(), &ps, &groups);
        // The prover's witnesses at one pool size are the reference for
        // the others: its first call builds every leaf through the pool,
        // the second catches leaves up and splits them through it.
        let targets = [0usize, 1, 2, 17, 18, 33, 150, 298, 299];
        let grown = primes(340);
        let mut reference: Option<(Vec<BigUint>, Vec<BigUint>)> = None;
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            assert_eq!(
                root_factor_pooled(
                    &params,
                    params.generator(),
                    &ps,
                    &singletons(ps.len()),
                    &pool
                ),
                sequential,
                "pool size {workers}"
            );
            assert_eq!(
                root_factor_pooled(&params, params.generator(), &ps, &groups, &pool),
                grouped,
                "pool size {workers}, groups"
            );
            let mut prover = BatchProver::new(&params);
            let first = prover
                .witnesses(&ps, &targets, &pool)
                .expect("valid targets");
            let second = prover
                .witnesses(&grown, &targets, &pool)
                .expect("valid targets");
            match &reference {
                None => reference = Some((first, second)),
                Some((f, s)) => {
                    assert_eq!(&first, f, "pool size {workers}, first call");
                    assert_eq!(&second, s, "pool size {workers}, after growth");
                }
            }
        }
        let (first, second) = reference.expect("ran at least once");
        for (w, &t) in first.iter().zip(&targets) {
            assert_eq!(w, &membership_witness(&params, &ps, t).expect("in range"));
        }
        for (w, &t) in second.iter().zip(&targets) {
            assert_eq!(
                w,
                &membership_witness(&params, &grown, t).expect("in range")
            );
        }
        let acc = Accumulator::over(&params, &ps);
        for (w, g) in grouped.iter().zip(&groups) {
            let others: Vec<BigUint> = (0..ps.len())
                .filter(|i| !g.contains(i))
                .map(|i| ps[i].clone())
                .collect();
            assert_eq!(w, &params.powmod_product(params.generator(), &others));
            assert_eq!(&params.powmod_product(w, &ps[g.clone()]), acc.value());
        }
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
