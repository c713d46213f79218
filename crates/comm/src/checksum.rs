//! The workspace's one checksum: CRC-32 with the IEEE 802.3 (PKZIP)
//! polynomial, reflected, initial value and final XOR `0xFFFF_FFFF`.
//!
//! It checks the bytes this system reads back from outside the
//! process: socket frames (`parallax-net`), PLXCKPT3 checkpoints and
//! the PLXSNAP1 snapshot index (`parallax-core`). Frames are checksummed on
//! every message, twice per frame (sender and reader), so this sits on
//! the socket data plane's hot path.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time by a
//! `const fn`, fold eight input bytes per step with eight independent
//! lookups instead of the bitwise loop's 64 dependent shift/XOR rounds.
//! The values are those of the bitwise definition (pinned against it
//! in the tests), so stored checksums stay valid. CRC-32C would be
//! faster with its hardware instruction, but it is a different
//! polynomial and would invalidate every stored checksum.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of byte `b` alone; `TABLES[k][b]` is that
/// CRC advanced through `k` further zero bytes, which is what lets one
/// step fold byte `i` of an 8-byte block with table `7 - i`.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The definition: one shift/conditional-XOR round per input bit.
    /// The oracle every table-driven result is checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_bitwise_oracle_at_every_short_length() {
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random buffers up to 64 KiB, read from an unaligned start so
        /// the 8-byte blocks straddle every alignment.
        #[test]
        fn matches_bitwise_oracle_on_random_unaligned_buffers(
            buf in vec(any::<u8>(), 0..64 * 1024 + 8),
            offset in 0usize..8,
        ) {
            let data = &buf[offset.min(buf.len())..];
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }
    }
}
