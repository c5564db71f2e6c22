//! AES-128 block cipher (FIPS 197) and CTR-mode keystream.
//!
//! Table-free implementation: the S-box is a constant array, rounds use the
//! textbook SubBytes / ShiftRows / MixColumns / AddRoundKey pipeline. This
//! is a reproduction-oriented implementation (not constant-time hardened);
//! the paper's evaluation uses AES-128 purely as the CPA-secure symmetric
//! scheme `Enc(K_R, ·)`.

/// The AES S-box.
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const ROUND_CONSTANTS: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key (11 round keys).
///
/// # Examples
///
/// ```
/// use slicer_crypto::aes::Aes128;
/// let cipher = Aes128::new(&[0u8; 16]);
/// let ct = cipher.encrypt_block(&[0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes128(<expanded key>)")
    }
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

impl Aes128 {
    /// Expands a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= ROUND_CONSTANTS[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts a single 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut s = *block;
        add_round_key(&mut s, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[round]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[10]);
        s
    }

    /// Produces `len` bytes of CTR keystream for a 16-byte nonce: blocks
    /// `AES(nonce ⊕ counter)` with the counter in the low 64 bits.
    fn ctr_keystream(&self, nonce: &[u8; 16], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut counter: u64 = 0;
        while out.len() < len {
            let mut block = *nonce;
            let ctr_bytes = counter.to_be_bytes();
            for i in 0..8 {
                block[8 + i] ^= ctr_bytes[i];
            }
            out.extend_from_slice(&self.encrypt_block(&block));
            counter += 1;
        }
        out.truncate(len);
        out
    }

    /// XORs CTR keystream into `data` in place (encrypt == decrypt).
    pub fn ctr_xor(&self, nonce: &[u8; 16], data: &mut [u8]) {
        let ks = self.ctr_keystream(nonce, data.len());
        for (d, k) in data.iter_mut().zip(ks) {
            *d ^= k;
        }
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State layout is column-major: byte `r + 4c` is row `r`, column `c`.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        state[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
        state[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
        state[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
        state[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    // FIPS 197 Appendix B.
    #[test]
    fn fips197_appendix_b() {
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let cipher = Aes128::new(&key);
        assert_eq!(
            cipher.encrypt_block(&pt),
            hex16("3925841d02dc09fbdc118597196a0b32")
        );
    }

    // FIPS 197 Appendix C.1.
    #[test]
    fn fips197_appendix_c1() {
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let pt = hex16("00112233445566778899aabbccddeeff");
        let cipher = Aes128::new(&key);
        assert_eq!(
            cipher.encrypt_block(&pt),
            hex16("69c4e0d86a7b0430d8cdb78070b4c55a")
        );
    }

    // NIST SP 800-38A F.5.1 (AES-128 CTR).
    #[test]
    fn sp800_38a_ctr_first_block() {
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        // The SP 800-38A counter block is used directly as the block input;
        // our ctr_keystream XORs a counter into the low half, which for
        // counter 0 equals the nonce itself.
        let counter_block = hex16("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let ks = cipher.ctr_keystream(&counter_block, 16);
        let pt = hex16("6bc1bee22e409f96e93d7e117393172a");
        let expect = hex16("874d6191b620e3261bef6864990db6ce");
        let ct: Vec<u8> = pt.iter().zip(&ks).map(|(p, k)| p ^ k).collect();
        assert_eq!(ct, expect);
    }

    #[test]
    fn ctr_roundtrip_arbitrary_len() {
        let cipher = Aes128::new(&[9u8; 16]);
        let nonce = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 100] {
            let mut data: Vec<u8> = (0..len as u8).collect();
            let original = data.clone();
            cipher.ctr_xor(&nonce, &mut data);
            if len > 0 {
                assert_ne!(data, original, "ciphertext differs (len {len})");
            }
            cipher.ctr_xor(&nonce, &mut data);
            assert_eq!(data, original, "decrypt roundtrip (len {len})");
        }
    }

    #[test]
    fn different_nonces_differ() {
        let cipher = Aes128::new(&[1u8; 16]);
        assert_ne!(
            cipher.ctr_keystream(&[0u8; 16], 32),
            cipher.ctr_keystream(&[1u8; 16], 32)
        );
    }
}
