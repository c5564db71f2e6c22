//! Official test vectors for the from-scratch primitives.
//!
//! Sources: FIPS 197 Appendix C (AES-128 ECB), NIST SP 800-38A F.1.1/F.5.1
//! (ECB/CTR), FIPS 180-4 (SHA-256), RFC 4231 §4 (HMAC-SHA256 cases 1–4).

use slicer_crypto::aes::Aes128;
use slicer_crypto::{hmac_sha256, sha256};

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16 bytes")
}

#[test]
fn aes128_fips197_appendix_c() {
    let cipher = Aes128::new(&hex16("000102030405060708090a0b0c0d0e0f"));
    let ct = cipher.encrypt_block(&hex16("00112233445566778899aabbccddeeff"));
    assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

#[test]
fn aes128_ecb_sp800_38a_f11() {
    let cipher = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let cases = [
        (
            "6bc1bee22e409f96e93d7e117393172a",
            "3ad77bb40d7a3660a89ecaf32466ef97",
        ),
        (
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "f5d3d58503b9699de785895a96fdbaaf",
        ),
        (
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "43b1cd7f598ece23881b00e3ed030688",
        ),
        (
            "f69f2445df4f9b17ad2b417be66c3710",
            "7b0c785e27e8ad3f8223207104725dd4",
        ),
    ];
    for (pt, ct) in cases {
        assert_eq!(cipher.encrypt_block(&hex16(pt)), hex16(ct), "block {pt}");
    }
}

/// SP 800-38A F.5.1 (AES-128-CTR). Our CTR variant XORs a 64-bit counter
/// into the low half of the nonce instead of 128-bit add-with-carry, so the
/// two conventions agree exactly when the counter is zero: keystream block
/// `i` of the NIST vector is our first block under NIST's `i`-th counter
/// block. That still exercises every keystream byte of the official vector
/// through the CTR path.
#[test]
fn aes128_ctr_sp800_38a_f51() {
    let cipher = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let counter_blocks = [
        "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
        "f0f1f2f3f4f5f6f7f8f9fafbfcfdff00",
        "f0f1f2f3f4f5f6f7f8f9fafbfcfdff01",
        "f0f1f2f3f4f5f6f7f8f9fafbfcfdff02",
    ];
    let plaintext = [
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ];
    let ciphertext = [
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    ];
    for i in 0..4 {
        let mut data = hex(plaintext[i]);
        cipher.ctr_xor(&hex16(counter_blocks[i]), &mut data);
        assert_eq!(data, hex(ciphertext[i]), "CTR block {i}");
    }
}

#[test]
fn ctr_xor_is_an_involution() {
    let cipher = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let nonce = hex16("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    let original: Vec<u8> = (0u8..100).collect();
    let mut data = original.clone();
    cipher.ctr_xor(&nonce, &mut data);
    assert_ne!(data, original);
    cipher.ctr_xor(&nonce, &mut data);
    assert_eq!(data, original);
}

#[test]
fn sha256_fips180_4() {
    assert_eq!(
        sha256(b"").to_vec(),
        hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    );
    assert_eq!(
        sha256(b"abc").to_vec(),
        hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    );
    assert_eq!(
        sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_vec(),
        hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
    );
}

#[test]
fn sha256_million_a() {
    let msg = vec![b'a'; 1_000_000];
    assert_eq!(
        sha256(&msg).to_vec(),
        hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

#[test]
fn hmac_sha256_rfc4231_case_1() {
    let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
    assert_eq!(
        mac.to_vec(),
        hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    );
}

#[test]
fn hmac_sha256_rfc4231_case_2() {
    let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    assert_eq!(
        mac.to_vec(),
        hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    );
}

#[test]
fn hmac_sha256_rfc4231_case_3() {
    let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
    assert_eq!(
        mac.to_vec(),
        hex("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe")
    );
}

#[test]
fn hmac_sha256_rfc4231_case_4() {
    let key: Vec<u8> = (0x01..=0x19).collect();
    let mac = hmac_sha256(&key, &[0xcd; 50]);
    assert_eq!(
        mac.to_vec(),
        hex("82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b")
    );
}
