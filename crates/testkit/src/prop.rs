//! A minimal shrinking property-test harness.
//!
//! Properties draw their inputs from a [`Gen`], which records every raw
//! 64-bit choice it hands out. When a property fails, the harness replays
//! mutated copies of that choice stream — deleting blocks, zeroing entries,
//! shrinking values — and keeps any mutation that still fails, greedily
//! minimizing the counterexample before reporting it. Replaying past the
//! end of a stream yields zeros, so shortened streams always decode.
//!
//! All runs are deterministic: the per-case RNG is an HMAC-DRBG keyed by
//! `(seed, case index)`, so a failure reported for a given seed reproduces
//! by re-running the same test unchanged.
//!
//! ```should_panic
//! slicer_testkit::prop_check!(0xD5, 64, |g| {
//!     let x = g.u64_in(0, 1000);
//!     slicer_testkit::prop_assert!(x < 500, "x = {x}");
//!     Ok(())
//! });
//! ```

use slicer_crypto::{HmacDrbg, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases for workspace property tests.
pub const DEFAULT_CASES: u64 = 64;

#[derive(Debug)]
enum Source {
    Fresh(HmacDrbg),
    Replay { choices: Vec<u64>, pos: usize },
}

/// A deterministic, recordable source of test inputs.
#[derive(Debug)]
pub struct Gen {
    source: Source,
    record: Vec<u64>,
}

impl Gen {
    fn fresh(seed: u64, case: u64) -> Self {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&seed.to_be_bytes());
        material[8..].copy_from_slice(&case.to_be_bytes());
        Gen {
            source: Source::Fresh(HmacDrbg::new(&material)),
            record: Vec::new(),
        }
    }

    fn replay(choices: Vec<u64>) -> Self {
        Gen {
            source: Source::Replay { choices, pos: 0 },
            record: Vec::new(),
        }
    }

    fn choice(&mut self) -> u64 {
        let raw = match &mut self.source {
            Source::Fresh(drbg) => drbg.next_u64(),
            Source::Replay { choices, pos } => {
                let v = choices.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                v
            }
        };
        self.record.push(raw);
        raw
    }

    /// An arbitrary `u64`.
    pub fn u64(&mut self) -> u64 {
        self.choice()
    }

    /// A `u64` in the inclusive range `[lo, hi]`. Shrinks toward `lo`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.choice();
        }
        lo + self.choice() % (span + 1)
    }

    /// An arbitrary `u128` (two choices).
    pub fn u128(&mut self) -> u128 {
        (u128::from(self.choice()) << 64) | u128::from(self.choice())
    }

    /// An arbitrary `u32`.
    pub fn u32(&mut self) -> u32 {
        self.choice() as u32
    }

    /// An arbitrary `u16`.
    pub fn u16(&mut self) -> u16 {
        self.choice() as u16
    }

    /// An arbitrary `u8`.
    pub fn u8(&mut self) -> u8 {
        self.choice() as u8
    }

    /// A `usize` in the inclusive range `[lo, hi]`. Shrinks toward `lo`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A coin flip.
    pub fn bool(&mut self) -> bool {
        self.choice() & 1 == 1
    }

    /// A random index into a collection of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index: empty collection");
        self.usize_in(0, len - 1)
    }

    /// A `Vec<u64>` with length in `[min_len, max_len]` and every element
    /// below `bound` (or arbitrary when `bound` is 0).
    pub fn vec_u64(&mut self, min_len: usize, max_len: usize, bound: u64) -> Vec<u64> {
        let len = self.usize_in(min_len, max_len);
        (0..len)
            .map(|_| {
                if bound == 0 {
                    self.u64()
                } else {
                    self.u64_in(0, bound - 1)
                }
            })
            .collect()
    }

    /// A byte vector with length in `[min_len, max_len]`.
    pub fn bytes(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| self.u8()).collect()
    }

    /// An ASCII-lowercase string with length in `[min_len, max_len]`.
    pub fn lower_string(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.usize_in(min_len, max_len);
        (0..len)
            .map(|_| (b'a' + (self.u64_in(0, 25) as u8)) as char)
            .collect()
    }
}

// `Gen` can drive any workspace sampling helper directly.
impl Rng for Gen {
    fn next_u64(&mut self) -> u64 {
        self.choice()
    }
}

/// Outcome type for property closures; build it with the `prop_assert!`
/// family or return `Err` directly.
pub type PropResult = Result<(), String>;

fn run_one<F>(prop: &mut F, gen: &mut Gen) -> PropResult
where
    F: FnMut(&mut Gen) -> PropResult,
{
    match catch_unwind(AssertUnwindSafe(|| prop(gen))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Every mutation of `choices` the shrinker will try, most aggressive
/// first: aligned block deletions, then zeroing, then value halving and
/// decrementing.
fn candidates(choices: &[u64]) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let len = choices.len();
    let mut block = len / 2;
    while block >= 1 {
        let mut start = 0;
        while start + block <= len {
            let mut c = Vec::with_capacity(len - block);
            c.extend_from_slice(&choices[..start]);
            c.extend_from_slice(&choices[start + block..]);
            out.push(c);
            start += block;
        }
        block /= 2;
    }
    for (i, &v) in choices.iter().enumerate() {
        if v != 0 {
            let mut c = choices.to_vec();
            c[i] = 0;
            out.push(c);
        }
    }
    for (i, &v) in choices.iter().enumerate() {
        // Subtract descending powers of two: greedy adoption of the largest
        // still-failing subtraction binary-searches each value down to the
        // smallest one that keeps the property failing.
        let mut sub = 1u64 << 63;
        while sub > 0 {
            if sub <= v {
                let mut c = choices.to_vec();
                c[i] = v - sub;
                out.push(c);
            }
            sub >>= 1;
        }
    }
    out
}

fn shrink<F>(
    prop: &mut F,
    mut choices: Vec<u64>,
    mut msg: String,
    mut budget: usize,
) -> (Vec<u64>, String)
where
    F: FnMut(&mut Gen) -> PropResult,
{
    loop {
        let mut improved = false;
        for cand in candidates(&choices) {
            if budget == 0 {
                return (choices, msg);
            }
            budget -= 1;
            let mut gen = Gen::replay(cand);
            if let Err(m) = run_one(prop, &mut gen) {
                // Keep the *consumed* stream (normalizes length when the
                // property read past the end of the mutated stream).
                if gen.record.len() < choices.len()
                    || (gen.record.len() == choices.len() && gen.record < choices)
                {
                    choices = gen.record;
                    msg = m;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return (choices, msg);
        }
    }
}

/// Runs `prop` against `cases` deterministic inputs derived from `seed`.
///
/// # Panics
///
/// Panics on the first failing case, after shrinking, with a message that
/// includes the seed, the case index, the shrunk raw choice stream and the
/// final failure text — everything needed to reproduce.
pub fn run<F>(seed: u64, cases: u64, mut prop: F)
where
    F: FnMut(&mut Gen) -> PropResult,
{
    for case in 0..cases {
        let mut gen = Gen::fresh(seed, case);
        if let Err(msg) = run_one(&mut prop, &mut gen) {
            let (shrunk, final_msg) = shrink(&mut prop, gen.record, msg, 10_000);
            panic!(
                "property failed: seed = {seed:#x}, case = {case}/{cases} \
                 (deterministic: re-running this test reproduces it)\n\
                 shrunk choice stream ({} draws): {shrunk:?}\n\
                 failure: {final_msg}",
                shrunk.len()
            );
        }
    }
}

/// Runs a property over `cases` deterministic inputs:
/// `prop_check!(seed, cases, |g| { ...; Ok(()) })`.
///
/// The closure receives a [`Gen`] and returns a [`PropResult`].
#[macro_export]
macro_rules! prop_check {
    ($seed:expr, $cases:expr, $prop:expr) => {
        $crate::prop::run($seed, $cases, $prop)
    };
}

/// Fails the enclosing property when the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} at {}:{}",
                ::std::stringify!($cond),
                ::std::file!(),
                ::std::line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} == {:?}` ({} == {}) at {}:{}",
                l,
                r,
                ::std::stringify!($left),
                ::std::stringify!($right),
                ::std::file!(),
                ::std::line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} == {:?}`: {} at {}:{}",
                l,
                r,
                ::std::format!($($fmt)+),
                ::std::file!(),
                ::std::line!()
            ));
        }
    }};
}

/// Fails the enclosing property when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?} != {:?}` ({} != {}) at {}:{}",
                l,
                r,
                ::std::stringify!($left),
                ::std::stringify!($right),
                ::std::file!(),
                ::std::line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u64;
        run(1, 64, |g| {
            let _ = g.u64();
            count += 1;
            Ok(())
        });
        assert_eq!(count, 64);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let collect = |seed: u64| {
            let mut vals = Vec::new();
            run(seed, 8, |g| {
                vals.push((g.u64(), g.u64_in(3, 9), g.bytes(0, 5)));
                Ok(())
            });
            vals
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn u64_in_is_in_range() {
        run(2, 128, |g| {
            let v = g.u64_in(10, 20);
            prop_assert!((10..=20).contains(&v), "v = {v}");
            Ok(())
        });
    }

    #[test]
    fn shrinker_minimizes_threshold_counterexample() {
        // The minimal failing input for `x < 1000` under shrinking should
        // land exactly on the boundary 1000.
        let mut prop = |g: &mut Gen| {
            let x = g.u64_in(0, 100_000);
            if x >= 1000 {
                Err(format!("x = {x}"))
            } else {
                Ok(())
            }
        };
        // Find a failing case first (some case must fail: range is huge).
        let failing = (0..64)
            .find_map(|case| {
                let mut g = Gen::fresh(3, case);
                run_one(&mut prop, &mut g).is_err().then_some(g.record)
            })
            .expect("some case fails");
        let (shrunk, msg) = shrink(&mut prop, failing, "seed".into(), 10_000);
        let mut g = Gen::replay(shrunk);
        assert_eq!(g.u64_in(0, 100_000), 1000, "shrunk to boundary; msg: {msg}");
    }

    #[test]
    fn shrinker_deletes_irrelevant_elements() {
        // Fails whenever the vector contains an element >= 100; minimal
        // counterexample is a single element equal to 100.
        let mut prop = |g: &mut Gen| {
            let v = g.vec_u64(0, 20, 10_000);
            if v.iter().any(|&x| x >= 100) {
                Err(format!("v = {v:?}"))
            } else {
                Ok(())
            }
        };
        let failing = (0..64)
            .find_map(|case| {
                let mut g = Gen::fresh(4, case);
                run_one(&mut prop, &mut g).is_err().then_some(g.record)
            })
            .expect("some case fails");
        let (shrunk, _) = shrink(&mut prop, failing, "seed".into(), 10_000);
        let mut g = Gen::replay(shrunk);
        let v = g.vec_u64(0, 20, 10_000);
        assert_eq!(v, vec![100], "fully shrunk counterexample");
    }

    #[test]
    fn replay_past_end_yields_zeros() {
        let mut g = Gen::replay(vec![5]);
        assert_eq!(g.u64(), 5);
        assert_eq!(g.u64(), 0);
        assert_eq!(g.u64_in(3, 9), 3);
    }

    #[test]
    #[should_panic(expected = "shrunk choice stream")]
    fn failing_property_reports_seed_and_counterexample() {
        run(5, 64, |g| {
            let x = g.u64();
            prop_assert!(x % 2 == 0 || x % 2 == 1 && x == u64::MAX, "odd x = {x}");
            Ok(())
        });
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let mut prop = |g: &mut Gen| {
            let v = g.vec_u64(0, 10, 100);
            let _ = v[5]; // may panic: index out of bounds
            Ok(())
        };
        let failing = (0..64)
            .find_map(|case| {
                let mut g = Gen::fresh(6, case);
                run_one(&mut prop, &mut g).is_err().then_some(g.record)
            })
            .expect("some case panics");
        let (shrunk, msg) = shrink(&mut prop, failing, "seed".into(), 2000);
        assert!(msg.starts_with("panic:"), "msg = {msg}");
        // Minimal vector that still panics at index 5 has length <= 5.
        let mut g = Gen::replay(shrunk);
        let v = g.vec_u64(0, 10, 100);
        assert!(v.len() <= 5, "v = {v:?}");
    }
}
