//! Exhaustive and statistical validation of SORE (Theorem 1 at scale).

use slicer_crypto::HmacDrbg;
use slicer_sore::{Order, SoreScheme};
use slicer_testkit::{prop_assert, prop_assert_eq, prop_check};

#[test]
fn theorem1_exhaustive_6bit_both_orders() {
    let sore = SoreScheme::new(b"exhaustive", 6);
    let mut rng = HmacDrbg::from_u64(2);
    // Precompute all ciphertexts once.
    let cts: Vec<_> = (0u64..64).map(|y| sore.encrypt(y, &mut rng)).collect();
    for x in 0u64..64 {
        for oc in [Order::Greater, Order::Less] {
            let tk = sore.token(x, oc, &mut rng);
            for (y, ct) in cts.iter().enumerate() {
                assert_eq!(
                    SoreScheme::compare(ct, &tk),
                    oc.holds(x, y as u64),
                    "x={x} oc={oc} y={y}"
                );
            }
        }
    }
}

#[test]
fn shuffle_spreads_match_position() {
    // The matched tuple's position in the token must be (roughly) uniform
    // across repeated tokenizations — otherwise the position would leak
    // the first differing bit index despite the shuffle.
    let sore = SoreScheme::new(b"stat", 8);
    let mut rng = HmacDrbg::from_u64(3);
    let ct = sore.encrypt(5, &mut rng);
    let mut position_counts = [0usize; 8];
    for _ in 0..400 {
        let tk = sore.token(6, Order::Greater, &mut rng);
        let hit = tk
            .iter()
            .position(|t| ct.contains(t))
            .expect("6 > 5 matches");
        position_counts[hit] += 1;
    }
    // Expected 50 per bucket; require every bucket populated and none
    // hoarding more than 30%.
    for (i, &c) in position_counts.iter().enumerate() {
        assert!(c > 10, "position {i} starved: {position_counts:?}");
        assert!(c < 120, "position {i} overloaded: {position_counts:?}");
    }
}

#[test]
fn sore_matches_integer_order_on_12bit_edges() {
    // The 12-bit edge pairs (domain ends, equality, the top-bit boundary,
    // adjacent values) in both argument orders and both order conditions,
    // checked against the integer oracle `Order::holds`.
    let sore = SoreScheme::new(b"a", 12);
    let mut rng = HmacDrbg::from_u64(4);
    for (a, b) in [(0u64, 4095u64), (100, 100), (2048, 2047), (7, 8)] {
        for (x, y) in [(a, b), (b, a)] {
            let ct = sore.encrypt(y, &mut rng);
            for oc in [Order::Greater, Order::Less] {
                let tk = sore.token(x, oc, &mut rng);
                assert_eq!(
                    SoreScheme::compare(&ct, &tk),
                    oc.holds(x, y),
                    "{x} {oc} {y}"
                );
            }
        }
    }
}

#[test]
fn theorem1_full_64bit_domain() {
    prop_check!(0x50E1, 128, |g| {
        let (x, y) = (g.u64(), g.u64());
        let sore = SoreScheme::new(b"wide", 64);
        let mut rng = HmacDrbg::from_u64(5);
        let ct = sore.encrypt(y, &mut rng);
        for oc in [Order::Greater, Order::Less] {
            let tk = sore.token(x, oc, &mut rng);
            prop_assert_eq!(SoreScheme::compare(&ct, &tk), oc.holds(x, y));
        }
        Ok(())
    });
}

#[test]
fn multi_attribute_never_cross_matches() {
    prop_check!(0x50E2, 128, |g| {
        let (x, y) = (g.u16(), g.u16());
        let attr_a = g.lower_string(1, 8);
        let attr_b = g.lower_string(1, 8);
        if attr_a == attr_b {
            return Ok(());
        }
        let sore = SoreScheme::new(b"attrs", 16);
        let mut rng = HmacDrbg::from_u64(6);
        let ct = sore.encrypt_with_attr(attr_a.as_bytes(), y as u64, &mut rng);
        let tk = sore.token_with_attr(attr_b.as_bytes(), x as u64, Order::Greater, &mut rng);
        prop_assert!(!SoreScheme::compare(&ct, &tk));
        Ok(())
    });
}

#[test]
fn tokens_of_same_value_same_oc_are_equal_as_sets() {
    prop_check!(0x50E3, 128, |g| {
        let v = g.u32();
        let sore = SoreScheme::new(b"sets", 32);
        let mut rng = HmacDrbg::from_u64(7);
        let t1 = sore.token(v as u64, Order::Less, &mut rng);
        let t2 = sore.token(v as u64, Order::Less, &mut rng);
        let s1: std::collections::HashSet<_> = t1.into_iter().collect();
        let s2: std::collections::HashSet<_> = t2.into_iter().collect();
        prop_assert_eq!(s1, s2);
        Ok(())
    });
}

#[test]
fn theorem1_exactly_one_common_element() {
    // Theorem 1 sharpened: when `x oc y` holds, ciphertext and token share
    // EXACTLY one PRF image; when it fails (including x == y) they share
    // none. Checked across the 8-, 16- and 32-bit domains the paper
    // evaluates.
    prop_check!(0x50E4, 128, |g| {
        for bits in [8u8, 16, 32] {
            let sore = SoreScheme::new(b"exactly-one", bits);
            let mut rng = HmacDrbg::from_u64(8);
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let x = g.u64() & mask;
            let y = g.u64() & mask;
            let ct = sore.encrypt(y, &mut rng);
            for oc in [Order::Greater, Order::Less] {
                let tk = sore.token(x, oc, &mut rng);
                let expected = if oc.holds(x, y) { 1 } else { 0 };
                prop_assert_eq!(SoreScheme::common_count(&ct, &tk), expected);
            }
        }
        Ok(())
    });
}
