//! Montgomery-form modular arithmetic for odd moduli.
//!
//! The RSA accumulator and trapdoor permutation perform millions of modular
//! multiplications against a fixed modulus; [`MontgomeryCtx`] amortizes the
//! per-multiplication reduction cost. Multiplication is CIOS (coarsely
//! integrated operand scanning) and squaring is SOS (separated operand
//! scanning), after Koç, Acar and Kaliski, "Analyzing and Comparing
//! Montgomery Multiplication Algorithms" (IEEE Micro, 1996).
//!
//! One body per kernel: [`cios`] and [`sos_sqr`], both ending in
//! [`reduce_once`]. They are `#[inline(always)]`, and the dispatchers
//! specialize the hot widths (8 limbs for the 512-bit accumulator, 16 for
//! 1024-bit parameters) by passing constant-length reborrows
//! such as `&n[..8]`, so the compiler unrolls the limb loops and drops the
//! index checks. A width is specialized at the dispatch site, never by a
//! second copy of a kernel. Only two-limb moduli (the 128-bit
//! representative primes of `H_prime`) take a separate, fully unrolled
//! tuple path ([`Mont2`]).
//!
//! The kernels write into caller-provided scratch buffers so the
//! exponentiation loops allocate a fixed handful of vectors up front
//! instead of one per multiply.
//! [`MontgomeryCtx::modpow`] uses a sliding window over odd powers;
//! [`MontgomeryCtx::modpow_product`] folds a whole list of exponents in
//! multi-thousand-bit chunks, sharing one window table across each chunk.

// CIOS walks parallel limb arrays by index on purpose (carry dataflow), and
// `from_mont` converts a representation rather than constructing from one.
#![allow(clippy::needless_range_loop, clippy::wrong_self_convention)]

use crate::uint::BigUint;
use crate::{DoubleLimb, Limb};

/// Precomputed context for modular arithmetic modulo a fixed odd modulus.
///
/// # Examples
///
/// ```
/// use slicer_bignum::{BigUint, MontgomeryCtx};
///
/// let n = BigUint::from(1000003u64); // odd modulus
/// let ctx = MontgomeryCtx::new(&n).unwrap();
/// let r = ctx.modpow(&BigUint::from(2u64), &BigUint::from(100u64));
/// assert_eq!(r, BigUint::from(2u64).modpow(&BigUint::from(100u64), &n));
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    n: Vec<Limb>,
    /// `-n^{-1} mod 2^64`.
    n0_inv: Limb,
    /// `R^2 mod n` where `R = 2^(64 * len)`.
    rr: Vec<Limb>,
    /// `R mod n` (Montgomery form of one).
    r1: Vec<Limb>,
    modulus: BigUint,
}

impl MontgomeryCtx {
    /// Builds a context for `modulus`. Returns `None` when the modulus is
    /// even or < 2 (Montgomery reduction requires an odd modulus).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let n = modulus.limbs.clone();
        let len = n.len();

        // Newton iteration for the inverse of n[0] modulo 2^64.
        let mut inv: Limb = n[0];
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        let mut ctx = MontgomeryCtx {
            n,
            n0_inv,
            rr: Vec::new(),
            r1: Vec::new(),
            modulus: modulus.clone(),
        };
        if len == 2 && ctx.n[1] >> 63 != 0 {
            // Division-free path for full-width two-limb moduli — the shape
            // of every `hash_to_prime` candidate, where context setup is a
            // measurable slice of the prime walk. With the top bit set,
            // `R mod n = 2^128 - n` (two's complement), and `R^2` follows
            // from one modular doubling plus seven Montgomery squarings:
            // `mont(2^k R, 2^k R) = 2^(2k) R`, so doubling the exponent
            // seven times from `2 R` lands on `2^128 R = R^2`.
            let (r0, borrow) = 0u64.overflowing_sub(ctx.n[0]);
            let r1 = 0u64.wrapping_sub(ctx.n[1]).wrapping_sub(borrow as u64);
            ctx.r1 = vec![r0, r1];
            let rr = {
                let m2 = Mont2 { ctx: &ctx };
                let mut d = m2.add_mod((r0, r1), (r0, r1));
                for _ in 0..7 {
                    d = m2.sqr(d);
                }
                d
            };
            ctx.rr = vec![rr.0, rr.1];
        } else {
            // R mod n and R^2 mod n via shifting.
            let r = &(&BigUint::one() << (64 * len as u32)) % modulus;
            let rr = &(&r * &r) % modulus;
            ctx.r1 = pad(&r.limbs, len);
            ctx.rr = pad(&rr.limbs, len);
        }
        Some(ctx)
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Limb width of values in this context.
    pub(crate) fn limb_len(&self) -> usize {
        self.n.len()
    }

    /// Montgomery form of one (a fresh `len`-limb vector).
    pub(crate) fn one_mont(&self) -> Vec<Limb> {
        self.r1.clone()
    }

    /// Unrolled CIOS for two-limb moduli: the 128-bit representative primes
    /// of `H_prime` dominate the build phase, and at this width the generic
    /// loop spends more time on bookkeeping than on multiplying.
    #[inline]
    fn mont_mul_2(&self, a0: Limb, a1: Limb, b0: Limb, b1: Limb) -> (Limb, Limb) {
        let n0 = self.n[0] as DoubleLimb;
        let n1 = self.n[1] as DoubleLimb;

        // Full four-limb product first: the four limb products carry no
        // dependencies on each other, so issuing them up front lets the
        // multiplier pipeline them before the serial reduction chain.
        let d00 = a0 as DoubleLimb * b0 as DoubleLimb;
        let d01 = a0 as DoubleLimb * b1 as DoubleLimb;
        let d10 = a1 as DoubleLimb * b0 as DoubleLimb;
        let d11 = a1 as DoubleLimb * b1 as DoubleLimb;
        let t0 = d00 as Limb;
        let s = (d00 >> 64) + (d01 as Limb as DoubleLimb) + (d10 as Limb as DoubleLimb);
        let t1 = s as Limb;
        let s = (s >> 64) + (d01 >> 64) + (d10 >> 64) + (d11 as Limb as DoubleLimb);
        let t2 = s as Limb;
        let t3 = ((s >> 64) + (d11 >> 64)) as Limb;

        // First reduction: add m*n, drop the low limb.
        let m = t0.wrapping_mul(self.n0_inv) as DoubleLimb;
        let s = m * n0 + t0 as DoubleLimb;
        let s = m * n1 + t1 as DoubleLimb + (s >> 64);
        let u0 = s as Limb;
        let s = t2 as DoubleLimb + (s >> 64);
        let u1 = s as Limb;
        let s = t3 as DoubleLimb + (s >> 64);
        let u2 = s as Limb;
        let u3 = (s >> 64) as Limb;

        // Second reduction.
        let m = u0.wrapping_mul(self.n0_inv) as DoubleLimb;
        let s = m * n0 + u0 as DoubleLimb;
        let s = m * n1 + u1 as DoubleLimb + (s >> 64);
        let r0 = s as Limb;
        let s = u2 as DoubleLimb + (s >> 64);
        let r1 = s as Limb;
        let overflow = u3 + (s >> 64) as Limb;

        // Conditional final subtraction from [0, 2n).
        if overflow != 0 || (r1, r0) >= (self.n[1], self.n[0]) {
            let (d0, borrow) = r0.overflowing_sub(self.n[0]);
            let d1 = r1.wrapping_sub(self.n[1]).wrapping_sub(borrow as Limb);
            (d0, d1)
        } else {
            (r0, r1)
        }
    }

    /// Two-limb Montgomery squaring: the cross product is computed once
    /// (seven limb multiplies instead of eight) and the full four-limb
    /// square is formed before the two reduction steps, shortening the
    /// dependency chain. The BPSW ladders are squaring-heavy, so this is
    /// the hottest primitive in the prime walk.
    #[inline]
    fn mont_sqr_2(&self, a0: Limb, a1: Limb) -> (Limb, Limb) {
        let n0 = self.n[0] as DoubleLimb;
        let n1 = self.n[1] as DoubleLimb;

        // t = a^2 = a0^2 + 2 a0 a1 2^64 + a1^2 2^128 (four limbs).
        let d0 = a0 as DoubleLimb * a0 as DoubleLimb;
        let c = a0 as DoubleLimb * a1 as DoubleLimb;
        let d1 = a1 as DoubleLimb * a1 as DoubleLimb;
        let t0 = d0 as Limb;
        let s = (d0 >> 64) + ((c as Limb as DoubleLimb) << 1);
        let t1 = s as Limb;
        let s = (s >> 64) + (((c >> 64) as DoubleLimb) << 1) + (d1 as Limb as DoubleLimb);
        let t2 = s as Limb;
        let t3 = ((s >> 64) + (d1 >> 64)) as Limb;

        // First reduction: add m*n, drop the low limb.
        let m = t0.wrapping_mul(self.n0_inv) as DoubleLimb;
        let s = m * n0 + t0 as DoubleLimb;
        let s = m * n1 + t1 as DoubleLimb + (s >> 64);
        let u0 = s as Limb;
        let s = t2 as DoubleLimb + (s >> 64);
        let u1 = s as Limb;
        let s = t3 as DoubleLimb + (s >> 64);
        let u2 = s as Limb;
        let u3 = (s >> 64) as Limb;

        // Second reduction.
        let m = u0.wrapping_mul(self.n0_inv) as DoubleLimb;
        let s = m * n0 + u0 as DoubleLimb;
        let s = m * n1 + u1 as DoubleLimb + (s >> 64);
        let r0 = s as Limb;
        let s = u2 as DoubleLimb + (s >> 64);
        let r1 = s as Limb;
        let overflow = u3 + (s >> 64) as Limb;

        if overflow != 0 || (r1, r0) >= (self.n[1], self.n[0]) {
            let (d0, borrow) = r0.overflowing_sub(self.n[0]);
            let d1 = r1.wrapping_sub(self.n[1]).wrapping_sub(borrow as Limb);
            (d0, d1)
        } else {
            (r0, r1)
        }
    }

    /// CIOS Montgomery multiplication into caller buffers: computes
    /// `a * b * R^-1 mod n` where `a`, `b` and `out` are `len`-limb vectors
    /// and `t` is a `len + 2`-limb scratch. `out` must not alias `a`, `b`
    /// or `t`.
    pub(crate) fn mont_mul_into(&self, a: &[Limb], b: &[Limb], t: &mut [Limb], out: &mut [Limb]) {
        let (n, k) = (&self.n[..], self.n0_inv);
        let len = n.len();
        debug_assert_eq!(a.len(), len);
        debug_assert_eq!(b.len(), len);
        debug_assert_eq!(out.len(), len);
        debug_assert_eq!(t.len(), len + 2);
        match len {
            2 => {
                let (r0, r1) = self.mont_mul_2(a[0], a[1], b[0], b[1]);
                out[0] = r0;
                out[1] = r1;
            }
            8 => cios(&n[..8], k, &a[..8], &b[..8], &mut t[..10], &mut out[..8]),
            16 => cios(
                &n[..16],
                k,
                &a[..16],
                &b[..16],
                &mut t[..18],
                &mut out[..16],
            ),
            _ => cios(n, k, &a[..len], b, t, out),
        }
    }

    /// Montgomery squaring into caller buffers: `a * a * R^-1 mod n` by
    /// [`sos_sqr`]. `wide` is a `2*len + 1`-limb scratch. `out` must not
    /// alias `a` or `wide`.
    pub(crate) fn mont_sqr_into(&self, a: &[Limb], wide: &mut [Limb], out: &mut [Limb]) {
        let (n, k) = (&self.n[..], self.n0_inv);
        let len = n.len();
        debug_assert_eq!(a.len(), len);
        debug_assert_eq!(out.len(), len);
        debug_assert_eq!(wide.len(), 2 * len + 1);
        match len {
            2 => {
                let (r0, r1) = self.mont_mul_2(a[0], a[1], a[0], a[1]);
                out[0] = r0;
                out[1] = r1;
            }
            8 => sos_sqr(&n[..8], k, &a[..8], &mut wide[..17], &mut out[..8]),
            16 => sos_sqr(&n[..16], k, &a[..16], &mut wide[..33], &mut out[..16]),
            _ => sos_sqr(n, k, a, wide, out),
        }
    }

    /// Two-limb tuple view when the modulus occupies exactly two limbs,
    /// else `None`. See [`Mont2`].
    pub(crate) fn as_two_limb(&self) -> Option<Mont2<'_>> {
        (self.n.len() == 2).then_some(Mont2 { ctx: self })
    }

    /// Allocating wrapper over [`MontgomeryCtx::mont_mul_into`] for cold
    /// call sites (conversions, one-off products).
    fn mont_mul(&self, a: &[Limb], b: &[Limb]) -> Vec<Limb> {
        let len = self.n.len();
        let mut t = vec![0 as Limb; len + 2];
        let mut out = vec![0 as Limb; len];
        self.mont_mul_into(a, b, &mut t, &mut out);
        out
    }

    /// Converts into Montgomery form.
    pub(crate) fn to_mont(&self, v: &BigUint) -> Vec<Limb> {
        let reduced = v % &self.modulus;
        self.mont_mul(&pad(&reduced.limbs, self.n.len()), &self.rr)
    }

    /// Converts out of Montgomery form.
    pub(crate) fn from_mont(&self, v: &[Limb]) -> BigUint {
        let one = pad(&[1], self.n.len());
        BigUint::from_limbs(self.mont_mul(v, &one))
    }

    /// `out = (a + b) mod n` for `a, b < n`. `out` must not alias.
    pub(crate) fn add_mod_into(&self, a: &[Limb], b: &[Limb], out: &mut [Limb]) {
        let len = self.n.len();
        let mut carry: DoubleLimb = 0;
        for j in 0..len {
            let s = a[j] as DoubleLimb + b[j] as DoubleLimb + carry;
            out[j] = s as Limb;
            carry = s >> 64;
        }
        reduce_once(&self.n, carry as Limb, &mut out[..len]);
    }

    /// `out = (a - b) mod n` for `a, b < n`. `out` must not alias.
    pub(crate) fn sub_mod_into(&self, a: &[Limb], b: &[Limb], out: &mut [Limb]) {
        let len = self.n.len();
        let mut borrow: DoubleLimb = 0;
        for j in 0..len {
            let rhs = b[j] as DoubleLimb + borrow;
            let lhs = a[j] as DoubleLimb;
            if lhs >= rhs {
                out[j] = (lhs - rhs) as Limb;
                borrow = 0;
            } else {
                out[j] = (lhs + (1u128 << 64) - rhs) as Limb;
                borrow = 1;
            }
        }
        if borrow != 0 {
            let mut carry: DoubleLimb = 0;
            for j in 0..len {
                let s = out[j] as DoubleLimb + self.n[j] as DoubleLimb + carry;
                out[j] = s as Limb;
                carry = s >> 64;
            }
        }
    }

    /// `out = a / 2 mod n` for `a < n` and odd `n`. `out` must not alias.
    pub(crate) fn halve_mod_into(&self, a: &[Limb], out: &mut [Limb]) {
        let len = self.n.len();
        if a[0] & 1 == 0 {
            for j in 0..len {
                let hi = if j + 1 < len { a[j + 1] } else { 0 };
                out[j] = (a[j] >> 1) | ((hi & 1) << 63);
            }
        } else {
            // (a + n) is even and < 2n; halving lands back in [0, n).
            let mut carry: DoubleLimb = 0;
            for j in 0..len {
                let s = a[j] as DoubleLimb + self.n[j] as DoubleLimb + carry;
                out[j] = s as Limb;
                carry = s >> 64;
            }
            let top = carry as Limb;
            for j in 0..len {
                let hi = if j + 1 < len { out[j + 1] } else { top };
                out[j] = (out[j] >> 1) | ((hi & 1) << 63);
            }
        }
    }

    /// Modular multiplication `a * b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exp mod n` using a sliding window over
    /// odd powers, sized to the exponent.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return if self.modulus.is_one() {
                BigUint::zero()
            } else {
                BigUint::one()
            };
        }
        let base_m = self.to_mont(base);
        let mut pow = Powmod::new(self);
        let out = pow.raise(&base_m, exp);
        self.from_mont(&out)
    }

    /// `base^(e_1 * e_2 * ... * e_k) mod n` without materializing the full
    /// exponent product: the factors are folded in chunks of at most
    /// `Powmod::MAX_CHUNK_BITS` bits, each chunk exponentiated with one
    /// shared window table. For the accumulator this turns "one `modpow`
    /// per prime" into "one window pass per ~32 primes", trading
    /// per-exponent multiplies for a handful of integer products.
    ///
    /// An empty list yields `base mod n` (the empty product is one).
    pub fn modpow_product(&self, base: &BigUint, exps: &[BigUint]) -> BigUint {
        let mut acc = base % &self.modulus;
        if exps.is_empty() {
            return acc;
        }
        let mut pow = Powmod::new(self);
        let mut chunk = BigUint::one();
        for e in exps {
            // A chunk of exactly one is an identity fold — safe to skip,
            // which also keeps a leading 1-exponent from flushing early.
            if !chunk.is_one() && chunk.bit_len() + e.bit_len() > Powmod::MAX_CHUNK_BITS {
                let am = self.to_mont(&acc);
                acc = self.from_mont(&pow.raise(&am, &chunk));
                chunk = BigUint::one();
            }
            chunk = &chunk * e;
        }
        let am = self.to_mont(&acc);
        self.from_mont(&pow.raise(&am, &chunk))
    }
}

/// Borrowed two-limb view of a [`MontgomeryCtx`]: Montgomery values as
/// `(lo, hi)` limb tuples, every operation allocation-free and branch-lean.
///
/// The BPSW inner loops in `prime.rs` run at the 128-bit `H_prime`
/// candidate width, where the generic slice-based helpers spend as much
/// time on bookkeeping as on arithmetic; this view keeps the whole ladder
/// state in registers.
pub(crate) struct Mont2<'a> {
    ctx: &'a MontgomeryCtx,
}

impl Mont2<'_> {
    /// `a * b * R^-1 mod n`.
    #[inline]
    pub(crate) fn mul(&self, a: (Limb, Limb), b: (Limb, Limb)) -> (Limb, Limb) {
        self.ctx.mont_mul_2(a.0, a.1, b.0, b.1)
    }

    /// `a^2 * R^-1 mod n` (cheaper than `mul(a, a)`).
    #[inline]
    pub(crate) fn sqr(&self, a: (Limb, Limb)) -> (Limb, Limb) {
        self.ctx.mont_sqr_2(a.0, a.1)
    }

    /// Montgomery form of one.
    #[inline]
    pub(crate) fn one(&self) -> (Limb, Limb) {
        (self.ctx.r1[0], self.ctx.r1[1])
    }

    /// `(a + b) mod n` for `a, b < n`.
    #[inline]
    pub(crate) fn add_mod(&self, a: (Limb, Limb), b: (Limb, Limb)) -> (Limb, Limb) {
        let (lo, c0) = a.0.overflowing_add(b.0);
        let (hi, c1) = a.1.overflowing_add(b.1);
        let (hi, c2) = hi.overflowing_add(c0 as Limb);
        if c1 || c2 || (hi, lo) >= (self.ctx.n[1], self.ctx.n[0]) {
            let (d0, borrow) = lo.overflowing_sub(self.ctx.n[0]);
            let d1 = hi.wrapping_sub(self.ctx.n[1]).wrapping_sub(borrow as Limb);
            (d0, d1)
        } else {
            (lo, hi)
        }
    }

    /// `(a - b) mod n` for `a, b < n`.
    #[inline]
    pub(crate) fn sub_mod(&self, a: (Limb, Limb), b: (Limb, Limb)) -> (Limb, Limb) {
        let (d0, b0) = a.0.overflowing_sub(b.0);
        let (d1, b1) = a.1.overflowing_sub(b.1);
        let (d1, b2) = d1.overflowing_sub(b0 as Limb);
        if b1 || b2 {
            let (r0, carry) = d0.overflowing_add(self.ctx.n[0]);
            let r1 = d1.wrapping_add(self.ctx.n[1]).wrapping_add(carry as Limb);
            (r0, r1)
        } else {
            (d0, d1)
        }
    }

    /// `a / 2 mod n` for `a < n` (n odd).
    #[inline]
    pub(crate) fn halve_mod(&self, a: (Limb, Limb)) -> (Limb, Limb) {
        if a.0 & 1 == 0 {
            ((a.0 >> 1) | (a.1 << 63), a.1 >> 1)
        } else {
            // (a + n) is even and < 2n; halving lands back in [0, n).
            let (s0, c0) = a.0.overflowing_add(self.ctx.n[0]);
            let (s1, c1) = a.1.overflowing_add(self.ctx.n[1]);
            let (s1, c2) = s1.overflowing_add(c0 as Limb);
            let top = (c1 || c2) as Limb;
            ((s0 >> 1) | (s1 << 63), (s1 >> 1) | (top << 63))
        }
    }

    /// Converts an already-reduced value (`v < n`) into Montgomery form
    /// without touching `BigUint`.
    #[inline]
    pub(crate) fn to_mont_reduced(&self, v: (Limb, Limb)) -> (Limb, Limb) {
        debug_assert!((v.1, v.0) < (self.ctx.n[1], self.ctx.n[0]));
        self.mul(v, (self.ctx.rr[0], self.ctx.rr[1]))
    }

    /// The modulus as a `u128`.
    #[inline]
    pub(crate) fn modulus_u128(&self) -> u128 {
        self.ctx.n[0] as u128 | (self.ctx.n[1] as u128) << 64
    }
}

/// Reusable sliding-window exponentiation state: one scratch pair and one
/// odd-power table, re-filled per call but never re-allocated beyond the
/// high-water mark.
struct Powmod<'a> {
    ctx: &'a MontgomeryCtx,
    t: Vec<Limb>,
    wide: Vec<Limb>,
    tmp: Vec<Limb>,
    sq: Vec<Limb>,
    table: Vec<Vec<Limb>>,
}

impl<'a> Powmod<'a> {
    /// Chunk ceiling for [`MontgomeryCtx::modpow_product`]: past a few
    /// thousand bits the schoolbook integer products forming the chunk
    /// start to rival the modular work they save.
    const MAX_CHUNK_BITS: u64 = 4096;

    fn new(ctx: &'a MontgomeryCtx) -> Self {
        let len = ctx.n.len();
        Powmod {
            ctx,
            t: vec![0; len + 2],
            wide: vec![0; 2 * len + 1],
            tmp: vec![0; len],
            sq: vec![0; len],
            table: Vec::new(),
        }
    }

    /// Window width for an exponent of `bits` bits (optimal table size
    /// grows with the exponent).
    fn window_bits(bits: u64) -> usize {
        match bits {
            0..=63 => 3,
            64..=511 => 4,
            512..=2047 => 5,
            _ => 6,
        }
    }

    /// `base_m^exp` in Montgomery form (`base_m` is Montgomery form).
    fn raise(&mut self, base_m: &[Limb], exp: &BigUint) -> Vec<Limb> {
        let ctx = self.ctx;
        let len = ctx.n.len();
        if exp.is_zero() {
            return ctx.one_mont();
        }
        let bits = exp.bit_len();
        let w = Self::window_bits(bits);

        // Odd powers base^1, base^3, ..., base^(2^w - 1).
        let tsize = 1usize << (w - 1);
        ctx.mont_sqr_into(base_m, &mut self.wide, &mut self.sq);
        self.table.clear();
        self.table.push(base_m.to_vec());
        for k in 1..tsize {
            let mut next = vec![0; len];
            ctx.mont_mul_into(&self.table[k - 1], &self.sq, &mut self.t, &mut next);
            self.table.push(next);
        }

        let mut acc = ctx.one_mont();
        let mut started = false;
        let mut i = bits as i64 - 1;
        while i >= 0 {
            if !exp.bit(i as u64) {
                if started {
                    ctx.mont_sqr_into(&acc, &mut self.wide, &mut self.tmp);
                    std::mem::swap(&mut acc, &mut self.tmp);
                }
                i -= 1;
                continue;
            }
            // Greedy window [j..=i] ending on a set bit.
            let mut j = (i - w as i64 + 1).max(0);
            while !exp.bit(j as u64) {
                j += 1;
            }
            let mut digit: usize = 0;
            for k in (j..=i).rev() {
                digit = (digit << 1) | exp.bit(k as u64) as usize;
            }
            if started {
                for _ in 0..(i - j + 1) {
                    ctx.mont_sqr_into(&acc, &mut self.wide, &mut self.tmp);
                    std::mem::swap(&mut acc, &mut self.tmp);
                }
                ctx.mont_mul_into(&acc, &self.table[digit >> 1], &mut self.t, &mut self.tmp);
                std::mem::swap(&mut acc, &mut self.tmp);
            } else {
                acc.copy_from_slice(&self.table[digit >> 1]);
                started = true;
            }
            i = j - 1;
        }
        acc
    }
}

fn pad(limbs: &[Limb], len: usize) -> Vec<Limb> {
    let mut v = limbs.to_vec();
    v.resize(len.max(limbs.len()), 0);
    v
}

fn ge(a: &[Limb], b: &[Limb]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// CIOS Montgomery multiplication: `x * b * R^-1 mod n` into `out`, for
/// `x, b < n` of `len = n.len()` limbs. `t` is a `len + 2`-limb scratch;
/// `out` must not alias it.
///
/// Always inlined, so a caller passing constant-length slices gets a copy
/// with fully unrolled limb loops and no index checks.
#[inline(always)]
fn cios(n: &[Limb], n0_inv: Limb, x: &[Limb], b: &[Limb], t: &mut [Limb], out: &mut [Limb]) {
    let len = n.len();
    let b = &b[..len];
    let t = &mut t[..len + 2];
    t.fill(0);
    for &xi in x {
        // t += x[i] * b
        let ai = xi as DoubleLimb;
        let mut carry: DoubleLimb = 0;
        for j in 0..len {
            let s = t[j] as DoubleLimb + ai * b[j] as DoubleLimb + carry;
            t[j] = s as Limb;
            carry = s >> 64;
        }
        let s = t[len] as DoubleLimb + carry;
        t[len] = s as Limb;
        t[len + 1] = t[len + 1].wrapping_add((s >> 64) as Limb);

        // m = t[0] * n' mod 2^64; t = (t + m*n) / 2^64
        let m = t[0].wrapping_mul(n0_inv) as DoubleLimb;
        let mut carry: DoubleLimb = (t[0] as DoubleLimb + m * n[0] as DoubleLimb) >> 64;
        for j in 1..len {
            let s = t[j] as DoubleLimb + m * n[j] as DoubleLimb + carry;
            t[j - 1] = s as Limb;
            carry = s >> 64;
        }
        let s = t[len] as DoubleLimb + carry;
        t[len - 1] = s as Limb;
        let s2 = t[len + 1] as DoubleLimb + (s >> 64);
        t[len] = s2 as Limb;
        t[len + 1] = (s2 >> 64) as Limb;
    }
    out.copy_from_slice(&t[..len]);
    reduce_once(n, t[len], out);
}

/// SOS Montgomery squaring: `a * a * R^-1 mod n` into `out`. The cross
/// products are computed once and doubled, so roughly a quarter of the
/// limb multiplies of a CIOS multiply disappear. `wide` is a
/// `2*len + 1`-limb scratch; `out` must not alias it. Inlined like
/// [`cios`].
#[inline(always)]
fn sos_sqr(n: &[Limb], n0_inv: Limb, a: &[Limb], wide: &mut [Limb], out: &mut [Limb]) {
    let len = n.len();
    let a = &a[..len];
    let wide = &mut wide[..2 * len + 1];
    wide.fill(0);

    // Cross products a[i] * a[j] for i < j.
    for i in 0..len {
        let ai = a[i] as DoubleLimb;
        let mut carry: DoubleLimb = 0;
        for j in (i + 1)..len {
            let s = wide[i + j] as DoubleLimb + ai * a[j] as DoubleLimb + carry;
            wide[i + j] = s as Limb;
            carry = s >> 64;
        }
        wide[i + len] = carry as Limb;
    }
    // Double them (the square is symmetric), ...
    let mut prev: Limb = 0;
    for w in wide[..2 * len].iter_mut() {
        let cur = *w;
        *w = (cur << 1) | (prev >> 63);
        prev = cur;
    }
    // ... then add the diagonal a[i]^2 terms.
    let mut carry: DoubleLimb = 0;
    for i in 0..len {
        let d = a[i] as DoubleLimb * a[i] as DoubleLimb;
        let s = wide[2 * i] as DoubleLimb + (d as Limb) as DoubleLimb + carry;
        wide[2 * i] = s as Limb;
        let s1 = wide[2 * i + 1] as DoubleLimb + (d >> 64) + (s >> 64);
        wide[2 * i + 1] = s1 as Limb;
        carry = s1 >> 64;
    }
    wide[2 * len] = wide[2 * len].wrapping_add(carry as Limb);

    // Montgomery reduction of the double-width square. The carry out of
    // position `i + len` is deferred one iteration — the next pass adds
    // its own top carry at exactly that position — so no data-dependent
    // propagation loop is needed.
    let mut top: DoubleLimb = 0;
    for i in 0..len {
        let m = wide[i].wrapping_mul(n0_inv) as DoubleLimb;
        let mut carry: DoubleLimb = 0;
        for j in 0..len {
            let s = wide[i + j] as DoubleLimb + m * n[j] as DoubleLimb + carry;
            wide[i + j] = s as Limb;
            carry = s >> 64;
        }
        let s = wide[i + len] as DoubleLimb + carry + top;
        wide[i + len] = s as Limb;
        top = s >> 64;
    }
    wide[2 * len] = wide[2 * len].wrapping_add(top as Limb);
    out.copy_from_slice(&wide[len..2 * len]);
    reduce_once(n, wide[2 * len], out);
}

/// Final conditional subtraction: brings `v + top * 2^(64 len)`, a value
/// in `[0, 2n)`, back to `[0, n)` in place.
#[inline(always)]
fn reduce_once(n: &[Limb], top: Limb, v: &mut [Limb]) {
    if top != 0 || ge(v, n) {
        let mut borrow = false;
        for (vj, &nj) in v.iter_mut().zip(n) {
            let (d, b1) = vj.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(borrow as Limb);
            *vj = d;
            borrow = b1 | b2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_testkit::{prop_assert_eq, prop_check, Gen};

    #[test]
    fn rejects_even_modulus() {
        assert!(MontgomeryCtx::new(&BigUint::from(10u64)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_none());
    }

    #[test]
    fn mul_matches_naive() {
        let n: BigUint = "170141183460469231731687303715884105727".parse().unwrap(); // 2^127-1
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let a: BigUint = "123456789012345678901234567890".parse().unwrap();
        let b: BigUint = "987654321098765432109876543210".parse().unwrap();
        assert_eq!(ctx.mul(&a, &b), &(&a * &b) % &n);
    }

    #[test]
    fn modpow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p.
        let p: BigUint = "170141183460469231731687303715884105727".parse().unwrap();
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let a = BigUint::from(123456789u64);
        let exp = &p - &BigUint::one();
        assert_eq!(ctx.modpow(&a, &exp), BigUint::one());
    }

    #[test]
    fn modpow_zero_exponent() {
        let ctx = MontgomeryCtx::new(&BigUint::from(97u64)).unwrap();
        assert_eq!(
            ctx.modpow(&BigUint::from(5u64), &BigUint::zero()),
            BigUint::one()
        );
    }

    #[test]
    fn modpow_base_larger_than_modulus() {
        let n = BigUint::from(97u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::from(1000u64);
        let exp = BigUint::from(13u64);
        let expected = naive_modpow(1000, 13, 97);
        assert_eq!(ctx.modpow(&base, &exp), BigUint::from(expected));
    }

    fn naive_modpow(mut b: u128, mut e: u128, m: u128) -> u64 {
        let mut acc: u128 = 1;
        b %= m;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % m;
            }
            b = b * b % m;
            e >>= 1;
        }
        acc as u64
    }

    /// Square-and-multiply on BigUint: the slow reference the optimized
    /// window must agree with bit for bit.
    fn reference_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = &BigUint::one() % m;
        let mut b = base % m;
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = &(&acc * &b) % m;
            }
            b = &(&b * &b) % m;
        }
        acc
    }

    #[test]
    fn modpow_matches_naive_u64() {
        prop_check!(0x1011, 64, |g| {
            let base = g.u32();
            let exp = g.u16();
            let m_half = g.u64_in(1, u32::MAX as u64);
            let m = m_half * 2 + 1; // odd, > 1
            let ctx = MontgomeryCtx::new(&BigUint::from(m)).unwrap();
            let got = ctx.modpow(&BigUint::from(base as u64), &BigUint::from(exp as u64));
            let want = naive_modpow(base as u128, exp as u128, m as u128);
            prop_assert_eq!(got, BigUint::from(want));
            Ok(())
        });
    }

    #[test]
    fn mul_matches_naive_random() {
        prop_check!(0x1012, 64, |g| {
            let (a, b) = (g.u128(), g.u128());
            let m_half = g.u64_in(1, u64::MAX);
            let m = BigUint::from((m_half as u128) * 2 + 1);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let ab = &BigUint::from(a) * &BigUint::from(b);
            prop_assert_eq!(ctx.mul(&BigUint::from(a), &BigUint::from(b)), &ab % &m);
            Ok(())
        });
    }

    #[test]
    fn two_limb_fast_path_matches_reference_modpow() {
        // Exercises the unrolled mont_mul_2 against square-and-multiply on
        // full 2-limb (65..128 bit) moduli — the H_prime working width.
        prop_check!(0x1013, 64, |g| {
            let m = BigUint::from(g.u128() | (1u128 << 127) | 1); // odd, bit 127 set
            let base = BigUint::from(g.u128());
            let exp = BigUint::from(g.u128());
            let ctx = MontgomeryCtx::new(&m).unwrap();
            prop_assert_eq!(ctx.modpow(&base, &exp), reference_modpow(&base, &exp, &m));
            Ok(())
        });
    }

    fn limbs(g: &mut Gen, len: usize) -> BigUint {
        BigUint::from_limbs((0..len).map(|_| g.u64()).collect())
    }

    /// An odd `len`-limb modulus with the top bit set or, when `all_ones`,
    /// `2^(64 len) - 1`: every limb all-ones, so every carry chain in the
    /// kernels overflows if mishandled.
    fn kernel_modulus(g: &mut Gen, len: usize, all_ones: bool) -> BigUint {
        if all_ones {
            return BigUint::from_limbs(vec![Limb::MAX; len]);
        }
        let mut m: Vec<Limb> = (0..len).map(|_| g.u64()).collect();
        m[0] |= 1;
        m[len - 1] |= 1 << 63;
        BigUint::from_limbs(m)
    }

    #[test]
    fn wide_modulus_sliding_window_matches_reference() {
        // Every kernel arm (runtime length, then the 8- and 16-limb
        // specializations) with 256-bit exponents: window width 4 with
        // multi-window exponents, squarings and multiplies interleaved.
        prop_check!(0x1014, 8, |g| {
            for len in [4, 8, 16] {
                for all_ones in [false, true] {
                    let m = kernel_modulus(g, len, all_ones);
                    let base = limbs(g, len);
                    let exp = limbs(g, 4);
                    let ctx = MontgomeryCtx::new(&m).unwrap();
                    prop_assert_eq!(ctx.modpow(&base, &exp), reference_modpow(&base, &exp, &m));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn two_limb_modulus_near_word_boundary() {
        // n = 2^128 - 159 is a maximal two-limb modulus: both limbs all-ones,
        // so every carry chain in the unrolled path overflows if mishandled.
        let p = &(&BigUint::one() << 128) - &BigUint::from(159u64);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let a = BigUint::from(987_654_321u64);
        let e = &p - &BigUint::one();
        assert_eq!(ctx.modpow(&a, &e), BigUint::one(), "Fermat at 2^128-159");
    }

    #[test]
    fn modpow_product_equals_iterated_modpow() {
        prop_check!(0x1015, 32, |g| {
            let m = BigUint::from(g.u128() | (1u128 << 127) | 1);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let base = BigUint::from(g.u128());
            let count = (g.u16() % 40) as usize;
            let exps: Vec<BigUint> = (0..count).map(|_| BigUint::from(g.u128() | 1)).collect();
            let mut want = &base % &m;
            for e in &exps {
                want = ctx.modpow(&want, e);
            }
            prop_assert_eq!(ctx.modpow_product(&base, &exps), want);
            Ok(())
        });
    }

    #[test]
    fn modpow_product_edge_cases() {
        let m = BigUint::from(1000003u64);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = BigUint::from(2u64);
        // Empty product: base^1.
        assert_eq!(ctx.modpow_product(&base, &[]), base);
        // A zero factor collapses the whole exponent to zero: base^0 = 1.
        let exps = [BigUint::from(5u64), BigUint::zero(), BigUint::from(9u64)];
        assert_eq!(ctx.modpow_product(&base, &exps), BigUint::one());
        // Chunking: enough 128-bit factors to force several chunks.
        let many: Vec<BigUint> = (0..90u32)
            .map(|i| BigUint::from((i as u128) << 100 | 0xDEAD_BEEF | 1))
            .collect();
        let mut want = base.clone();
        for e in &many {
            want = ctx.modpow(&want, e);
        }
        assert_eq!(ctx.modpow_product(&base, &many), want);
    }

    #[test]
    fn mod_helpers_roundtrip() {
        // add/sub/halve agree with BigUint arithmetic at a 3-limb modulus
        // (generic path) and a 2-limb one (fast path width).
        prop_check!(0x1016, 32, |g| {
            for width in [2usize, 3] {
                let mut limbs: Vec<Limb> = (0..width).map(|_| g.u64()).collect();
                limbs[0] |= 1;
                limbs[width - 1] |= 1 << 63;
                let m = BigUint::from_limbs(limbs);
                let ctx = MontgomeryCtx::new(&m).unwrap();
                let a = &BigUint::from_limbs((0..width).map(|_| g.u64()).collect()) % &m;
                let b = &BigUint::from_limbs((0..width).map(|_| g.u64()).collect()) % &m;
                let ap = pad(&a.limbs, width);
                let bp = pad(&b.limbs, width);
                let mut out = vec![0; width];

                ctx.add_mod_into(&ap, &bp, &mut out);
                prop_assert_eq!(BigUint::from_limbs(out.clone()), &(&a + &b) % &m);

                ctx.sub_mod_into(&ap, &bp, &mut out);
                let want = if a >= b { &a - &b } else { &m - &(&b - &a) };
                prop_assert_eq!(BigUint::from_limbs(out.clone()), &want % &m);

                ctx.halve_mod_into(&ap, &mut out);
                let half = BigUint::from_limbs(out.clone());
                prop_assert_eq!(&(&half + &half) % &m, a.clone());
            }
            Ok(())
        });
    }
}
