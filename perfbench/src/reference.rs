//! The machine-speed reference: a fixed integer workload of the
//! benchmark's own, timed between the program's operations.
//!
//! The shared 2-vCPU VM this benchmark was built on drifts between fast
//! and slow states for seconds to minutes at a time. Across five
//! back-to-back runs of `search_uniform`, the daemon's CPU time per search
//! moved from 87 to 114 ms and the mean search round trip from 88 to
//! 119 ms while the program did the same work; this loop's time moved
//! with them, from 1.47 to 2.02 ms. Dividing a measured time by the run's
//! reference time, in units of [`NOMINAL_MS`], gives the time on a
//! machine where the loop takes exactly that long; across those runs the
//! mean search round trip so scaled stayed between 57.5 and 60.1 ms.
//!
//! The loop is schoolbook multiplication of two 32-limb integers, the same
//! kind of work as the program's big-integer arithmetic. It lives here,
//! not in the program, so no change to the program can change it.

use std::hint::black_box;
use std::time::Instant;

/// Reference time the normalised metrics are scaled to, milliseconds.
pub const NOMINAL_MS: f64 = 1.0;

/// Limbs of each factor.
const LIMBS: usize = 32;

/// Multiplications in one sample, about 1.5 ms on the VM above.
const REPS: usize = 1_000;

/// `reps` schoolbook products of two fixed `LIMBS`-limb integers.
fn multiply(reps: usize) -> [u64; 2 * LIMBS] {
    let a: [u64; LIMBS] =
        std::array::from_fn(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
    let mut product = [0u64; 2 * LIMBS];
    for _ in 0..reps {
        product = [0; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let t = u128::from(a[i]) * u128::from(black_box(a[j]))
                    + u128::from(product[i + j])
                    + carry;
                product[i + j] = t as u64;
                carry = t >> 64;
            }
            product[i + LIMBS] = carry as u64;
        }
    }
    product
}

/// Times one sample of the reference workload, in milliseconds.
pub fn sample() -> f64 {
    let start = Instant::now();
    black_box(multiply(REPS));
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_product_is_exact() {
        // The lowest limb is the low half of a[0] squared; the top limb
        // holds the last carry.
        let p = multiply(1);
        let a0 = 0x9E37_79B9_7F4A_7C15u128;
        let sq = a0 * a0;
        assert_eq!(p[0], sq as u64);
        assert_ne!(p[2 * LIMBS - 1], 0, "the top limb is reached");
    }

    #[test]
    fn time_grows_with_the_work() {
        let time = |reps| {
            let start = Instant::now();
            black_box(multiply(reps));
            start.elapsed()
        };
        assert!(time(20 * REPS) > time(REPS));
        assert!(sample() > 0.0);
    }
}
