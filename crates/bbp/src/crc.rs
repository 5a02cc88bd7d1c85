//! CRC-32 (IEEE 802.3 polynomial) over descriptor fields and payload
//! words — the checksum the reliability extension stores as the fourth
//! descriptor word. Nibble-table implementation: 64 bytes of table, no
//! dependencies.

use scramnet::Word;

const POLY: u32 = 0xEDB8_8320;

const TABLE: [u32; 16] = {
    let mut t = [0u32; 16];
    let mut i = 0;
    while i < 16 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 4 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            k += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
};

/// Streaming CRC-32 over a word sequence (little-endian byte order, the
/// same order the words replicate in).
pub(crate) struct Crc(u32);

impl Crc {
    fn new() -> Self {
        Crc(!0)
    }

    fn word(&mut self, w: Word) {
        for b in w.to_le_bytes() {
            let mut c = self.0 ^ u32::from(b);
            c = (c >> 4) ^ TABLE[(c & 0xF) as usize];
            self.0 = (c >> 4) ^ TABLE[(c & 0xF) as usize];
        }
    }

    fn finish(self) -> Word {
        !self.0
    }
}

/// The reliable descriptor's checksum: CRC-32 over `[data offset,
/// length, sequence]` followed by the payload words. Covering the
/// descriptor fields means a flipped length or offset is caught even
/// when every payload word survives.
pub(crate) fn descriptor_crc(data_off: Word, len_bytes: Word, seq: Word, payload: &[Word]) -> Word {
    let mut crc = Crc::new();
    crc.word(data_off);
    crc.word(len_bytes);
    crc.word(seq);
    for &w in payload {
        crc.word(w);
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc_words(words: &[Word]) -> Word {
        let mut c = Crc::new();
        for &w in words {
            c.word(w);
        }
        c.finish()
    }

    #[test]
    fn matches_the_reference_vector() {
        // CRC-32("123456789") = 0xCBF43926; "1234" and "5678" pack into
        // little-endian words, '9' padded — so check the raw byte stream
        // through the word API with an exact 8-byte prefix instead.
        let w1 = Word::from_le_bytes(*b"1234");
        let w2 = Word::from_le_bytes(*b"5678");
        // Independently computed CRC-32 of the 8 bytes "12345678".
        assert_eq!(crc_words(&[w1, w2]), 0x9AE0_DAAF);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = [0x1234_5678, 0x9ABC_DEF0, 0x0000_0042];
        let reference = crc_words(&base);
        for word in 0..base.len() {
            for bit in 0..32 {
                let mut flipped = base;
                flipped[word] ^= 1 << bit;
                assert_ne!(
                    crc_words(&flipped),
                    reference,
                    "flip of word {word} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn descriptor_crc_covers_fields_and_payload() {
        let payload = [7u32, 8, 9];
        let c = descriptor_crc(10, 12, 3, &payload);
        assert_ne!(c, descriptor_crc(11, 12, 3, &payload), "offset covered");
        assert_ne!(c, descriptor_crc(10, 13, 3, &payload), "length covered");
        assert_ne!(c, descriptor_crc(10, 12, 4, &payload), "sequence covered");
        assert_ne!(c, descriptor_crc(10, 12, 3, &[7, 8, 10]), "payload covered");
        assert_eq!(c, descriptor_crc(10, 12, 3, &payload), "deterministic");
    }

    #[test]
    fn zero_descriptor_does_not_checksum_to_zero() {
        // An untouched (all-zero) descriptor slot must fail verification:
        // its stored CRC word is 0 but the CRC of its fields is not.
        assert_ne!(descriptor_crc(0, 0, 0, &[]), 0);
    }
}
