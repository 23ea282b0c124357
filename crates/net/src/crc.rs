//! CRC-32 (IEEE 802.3 polynomial, reflected) over frame bytes.
//!
//! Hand-rolled so the wire layer stays dependency-free: eight 256-entry
//! lookup tables built at compile time from the reversed polynomial
//! `0xEDB88320`, processed eight bytes at a time (slicing-by-8) with a
//! byte-at-a-time tail. Matches the ubiquitous zlib/Ethernet CRC-32, so
//! captures of the protocol check out against standard tooling.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes, so one lookup per table
/// advances the state over eight bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC over the classic table: the reference the
    /// sliced loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop_at_every_length_and_offset() {
        // xorshift bytes: every table entry gets exercised.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = crc32(b"tcast frame payload");
        let mut bytes = b"tcast frame payload".to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(crc32(&bytes), base, "flip at byte {i} bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }
}
