//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) checksums.
//!
//! Every wire frame carries the checksum of its header and payload in
//! a CRC tail; an injected bit-flip in flight makes the decoder's
//! recomputation disagree, so the frame is dropped and resent instead
//! of silently averaging garbage into the gradients. The table is
//! built at compile time — no lazy init on the message path.

/// The 256-entry lookup table, computed in a `const` context.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 of raw bytes.
pub fn crc32_bytes(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value for "123456789".
        assert_eq!(crc32_bytes(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytes(b""), 0);
    }
}
