//! The workspace's one byte hasher.
//!
//! [`Fnv`] is FNV-1a's offset basis and xor-then-multiply step with the
//! multiplier `0x1000_0000_01b3` (2^44 + 0x1b3), not the published 64-bit
//! FNV prime (2^40 + 0x1b3). RNG stream seeds, telemetry digests and store
//! content ids are all computed with it, so both constants are pinned:
//! changing either moves every seed, digest and content id.

/// A streaming FNV-1a-style 64-bit hasher with the multiplier
/// `0x1000_0000_01b3` (2^44 + 0x1b3). Stable across platforms and Rust
/// versions, unlike `DefaultHasher`.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// FNV-1a's 64-bit offset basis: the state before any input.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// The per-byte multiplier, 2^44 + 0x1b3.
    const MULTIPLIER: u64 = 0x1000_0000_01b3;

    /// A fresh hasher.
    pub const fn new() -> Fnv {
        Fnv(Fnv::OFFSET)
    }

    /// The digest of `bytes` alone.
    #[inline]
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }

    /// Fold in one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Fnv::MULTIPLIER);
    }

    /// Fold in raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Fold in a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}
