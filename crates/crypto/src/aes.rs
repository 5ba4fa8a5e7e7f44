//! AES-128 (FIPS 197), implemented from the specification.
//!
//! The S-box is *derived* (multiplicative inverse in GF(2⁸) followed by the
//! affine transform) rather than transcribed, which removes a whole class
//! of table-typo bugs; the FIPS 197 Appendix C vector in the tests pins the
//! result to the standard. The derivation is a `const fn` evaluated once,
//! at compile time, so building a cipher only expands its key.

use crate::block::BlockCipher;

const NB: usize = 4; // columns per state
const NR: usize = 10; // rounds for AES-128

/// Multiplies two elements of GF(2⁸) modulo x⁸+x⁴+x³+x+1.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut bit = 0;
    while bit < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
        bit += 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); 0 maps to 0.
const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^(2^8 - 2) = a^254 by square-and-multiply.
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// Builds the forward and inverse S-boxes from first principles.
const fn build_sboxes() -> ([u8; 256], [u8; 256]) {
    let mut sbox = [0u8; 256];
    let mut inv = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        let b = gf_inv(x as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let s = b
            ^ b.rotate_left(1)
            ^ b.rotate_left(2)
            ^ b.rotate_left(3)
            ^ b.rotate_left(4)
            ^ 0x63;
        sbox[x] = s;
        inv[s as usize] = x as u8;
        x += 1;
    }
    (sbox, inv)
}

/// The forward and inverse S-boxes, derived once at compile time.
const SBOXES: ([u8; 256], [u8; 256]) = build_sboxes();
static SBOX: [u8; 256] = SBOXES.0;
static INV_SBOX: [u8; 256] = SBOXES.1;

/// AES with a 128-bit key.
///
/// # Examples
///
/// ```
/// use padlock_crypto::{Aes128, BlockCipher};
///
/// let key: [u8; 16] = core::array::from_fn(|i| i as u8);
/// let aes = Aes128::new(&key);
/// let mut block: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
/// aes.encrypt_block(&mut block);
/// // FIPS 197 Appendix C.1 vector.
/// assert_eq!(block[..4], [0x69, 0xC4, 0xE0, 0xD8]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; NR + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Creates an AES-128 instance and expands the key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut words = [[0u8; 4]; 4 * (NR + 1)];
        for (i, w) in words.iter_mut().take(4).enumerate() {
            w.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..4 * (NR + 1) {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&words[4 * r + c]);
            }
        }
        Self { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// State layout: column-major, `state[4*c + r]` = row r, column c
    /// (the natural byte order of the FIPS input block).
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[4 * ((c + r) % NB) + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[(c + r) % NB] = state[4 * c + r];
            }
            for c in 0..4 {
                state[4 * c + r] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
            state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[4 * c..4 * c + 4].try_into().expect("column");
            state[4 * c] =
                gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
            state[4 * c + 1] =
                gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
            state[4 * c + 2] =
                gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
            state[4 * c + 3] =
                gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
        }
    }
}

impl BlockCipher for Aes128 {
    fn block_size(&self) -> usize {
        16
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        let state: &mut [u8; 16] = block.try_into().expect("16-byte AES block");
        Self::add_round_key(state, &self.round_keys[0]);
        for round in 1..NR {
            Self::sub_bytes(state);
            Self::shift_rows(state);
            Self::mix_columns(state);
            Self::add_round_key(state, &self.round_keys[round]);
        }
        Self::sub_bytes(state);
        Self::shift_rows(state);
        Self::add_round_key(state, &self.round_keys[NR]);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        let state: &mut [u8; 16] = block.try_into().expect("16-byte AES block");
        Self::add_round_key(state, &self.round_keys[NR]);
        for round in (1..NR).rev() {
            Self::inv_shift_rows(state);
            Self::inv_sub_bytes(state);
            Self::add_round_key(state, &self.round_keys[round]);
            Self::inv_mix_columns(state);
        }
        Self::inv_shift_rows(state);
        Self::inv_sub_bytes(state);
        Self::add_round_key(state, &self.round_keys[0]);
    }

    fn name(&self) -> &'static str {
        "AES-128"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_has_known_anchor_values() {
        let (sbox, inv) = build_sboxes();
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7C);
        assert_eq!(sbox[0x53], 0xED);
        assert_eq!(sbox[0xFF], 0x16);
        assert_eq!(inv[0x63], 0x00);
        for x in 0..256 {
            assert_eq!(inv[sbox[x] as usize] as usize, x);
        }
    }

    #[test]
    fn gf_mul_matches_fips_examples() {
        // {57} • {83} = {c1} from the FIPS 197 spec text.
        assert_eq!(gf_mul(0x57, 0x83), 0xC1);
        assert_eq!(gf_mul(0x57, 0x13), 0xFE);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for x in 1..=255u8 {
            assert_eq!(gf_mul(x, gf_inv(x)), 1, "x = {x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    /// FIPS 197 Appendix C.1.
    #[test]
    fn fips_appendix_c1_vector() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let aes = Aes128::new(&key);
        let mut block: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30, 0xD8, 0xCD, 0xB7, 0x80, 0x70,
                0xB4, 0xC5, 0x5A
            ]
        );
    }

    /// NIST SP 800-38A ECB-AES128 first block.
    #[test]
    fn sp800_38a_ecb_vector() {
        let key = [
            0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF,
            0x4F, 0x3C,
        ];
        let aes = Aes128::new(&key);
        let mut block = [
            0x6B, 0xC1, 0xBE, 0xE2, 0x2E, 0x40, 0x9F, 0x96, 0xE9, 0x3D, 0x7E, 0x11, 0x73, 0x93,
            0x17, 0x2A,
        ];
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x3A, 0xD7, 0x7B, 0xB4, 0x0D, 0x7A, 0x36, 0x60, 0xA8, 0x9E, 0xCA, 0xF3, 0x24,
                0x66, 0xEF, 0x97
            ]
        );
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let aes = Aes128::new(&[0x5Au8; 16]);
        let mut block: [u8; 16] = core::array::from_fn(|i| (i * 13) as u8);
        let original = block;
        aes.encrypt_block(&mut block);
        assert_ne!(block, original);
        aes.decrypt_block(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn mix_columns_roundtrip() {
        let mut state: [u8; 16] = core::array::from_fn(|i| (i * 7 + 3) as u8);
        let original = state;
        Aes128::mix_columns(&mut state);
        Aes128::inv_mix_columns(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn shift_rows_roundtrip() {
        let mut state: [u8; 16] = core::array::from_fn(|i| i as u8);
        let original = state;
        Aes128::shift_rows(&mut state);
        assert_ne!(state, original);
        Aes128::inv_shift_rows(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('9'));
    }
}
