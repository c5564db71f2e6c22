//! The CPA-secure symmetric scheme `{KGen, Enc, Dec}` of Section III-B.

use crate::aes::Aes128;
use crate::error::CryptoError;
use crate::rng::Rng;

/// Length of the random nonce prepended to each ciphertext.
pub const NONCE_LEN: usize = 16;

/// An AES-128-CTR symmetric encryption key.
///
/// Ciphertext layout: `nonce (16 bytes) ‖ body (plaintext length)`.
/// Encryption with an explicit nonce keeps the scheme deterministic for a
/// fixed `(key, nonce, plaintext)` triple — the Build protocol stores the
/// same ciphertext bytes in the index and in the multiset hash, so both
/// sides must observe identical bytes.
///
/// # Examples
///
/// ```
/// use slicer_crypto::SymmetricKey;
/// let key = SymmetricKey::from_bytes([1u8; 16]);
/// let ct = key.encrypt(b"age=41", &[9u8; 16]);
/// assert_eq!(key.decrypt(&ct)?, b"age=41");
/// # Ok::<(), slicer_crypto::CryptoError>(())
/// ```
#[derive(Clone)]
pub struct SymmetricKey {
    cipher: Aes128,
    // slicer-lint: secret — raw AES key bytes
    key_bytes: [u8; 16],
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymmetricKey(<16 bytes>)")
    }
}

impl SymmetricKey {
    /// Generates a fresh random key (`KGen`).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        Self::from_bytes(key)
    }

    /// Wraps an existing 16-byte key.
    pub fn from_bytes(key: [u8; 16]) -> Self {
        SymmetricKey {
            cipher: Aes128::new(&key),
            key_bytes: key,
        }
    }

    /// Raw key bytes (for handing `K_R` to authorized data users).
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.key_bytes
    }

    /// Encrypts with an explicit nonce. Callers must never reuse a nonce
    /// with different plaintexts under the same key; the Slicer owner draws
    /// nonces from its session RNG.
    pub fn encrypt(&self, plaintext: &[u8], nonce: &[u8; NONCE_LEN]) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        self.cipher.ctr_xor(nonce, &mut out[NONCE_LEN..]);
        out
    }

    /// Decrypts a ciphertext produced by [`SymmetricKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CiphertextTooShort`] if the input does not
    /// contain a full nonce.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < NONCE_LEN {
            return Err(CryptoError::CiphertextTooShort {
                len: ciphertext.len(),
            });
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&ciphertext[..NONCE_LEN]);
        let mut body = ciphertext[NONCE_LEN..].to_vec();
        self.cipher.ctr_xor(&nonce, &mut body);
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HmacDrbg;

    #[test]
    fn roundtrip() {
        let key = SymmetricKey::from_bytes([5u8; 16]);
        let ct = key.encrypt(b"hello world", &[1u8; 16]);
        assert_eq!(key.decrypt(&ct).unwrap(), b"hello world");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let key = SymmetricKey::from_bytes([5u8; 16]);
        let ct = key.encrypt(b"hello world", &[1u8; 16]);
        assert_ne!(&ct[16..], b"hello world");
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let key = SymmetricKey::from_bytes([5u8; 16]);
        assert_ne!(
            key.encrypt(b"same", &[1u8; 16]),
            key.encrypt(b"same", &[2u8; 16])
        );
    }

    #[test]
    fn deterministic_for_fixed_nonce() {
        let key = SymmetricKey::from_bytes([5u8; 16]);
        assert_eq!(
            key.encrypt(b"same", &[1u8; 16]),
            key.encrypt(b"same", &[1u8; 16])
        );
    }

    #[test]
    fn wrong_key_garbles() {
        let k1 = SymmetricKey::from_bytes([5u8; 16]);
        let k2 = SymmetricKey::from_bytes([6u8; 16]);
        let ct = k1.encrypt(b"payload", &[0u8; 16]);
        assert_ne!(k2.decrypt(&ct).unwrap(), b"payload");
    }

    #[test]
    fn short_ciphertext_rejected() {
        let key = SymmetricKey::from_bytes([5u8; 16]);
        assert!(matches!(
            key.decrypt(&[0u8; 15]),
            Err(CryptoError::CiphertextTooShort { len: 15 })
        ));
    }

    #[test]
    fn empty_plaintext() {
        let key = SymmetricKey::generate(&mut HmacDrbg::from_u64(1));
        let ct = key.encrypt(b"", &[3u8; 16]);
        assert_eq!(ct.len(), NONCE_LEN);
        assert_eq!(key.decrypt(&ct).unwrap(), b"");
    }
}
