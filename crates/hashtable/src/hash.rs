//! Key hashing for the cuckoo index.
//!
//! Mega-KV-style systems store a short, fixed-length *signature* of each
//! key in the index instead of the key itself (paper §II-B), which keeps
//! a bucket at 32 B, two to a cache line; a separate key-comparison step
//! (`KC`) resolves signature collisions against the full key. We derive
//! both the bucket hash and the signature from one 64-bit hash.

/// A key's hash material: the 64-bit hash and the 16-bit signature
/// stored in index slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHash {
    /// Full 64-bit hash of the key.
    pub hash: u64,
    /// Non-zero 16-bit signature (zero is reserved so an all-zero slot
    /// word can never alias a live entry).
    pub sig: u16,
}

/// FNV-1a over the key bytes, finished with a splitmix64 avalanche so
/// the low bits (bucket index) and high bits (signature) are both well
/// mixed even for short or sequential keys.
#[must_use]
pub fn hash64(key: &[u8]) -> u64 {
    hash64_bytes(key.iter().copied())
}

/// [`hash64`] over a byte sequence that is not a slice — the object
/// store hashes a key where it lies in its atomic-byte arena.
#[must_use]
pub fn hash64_bytes(key: impl IntoIterator<Item = u8>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // splitmix64 finalizer.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

impl KeyHash {
    /// Reconstruct the full hash material from a bare 64-bit hash (the
    /// signature is a pure function of it). This is the expired-entry
    /// purge hook: segment reclamation records only the 64-bit hash per
    /// member, and rebuilds the exact `(signature, location)` pair to
    /// delete from the index — no key bytes are re-read.
    #[must_use]
    pub fn from_hash(hash: u64) -> KeyHash {
        let mut sig = (hash >> 48) as u16;
        if sig == 0 {
            sig = 1;
        }
        KeyHash { hash, sig }
    }
}

/// Hash a key into its [`KeyHash`].
#[must_use]
pub fn key_hash(key: &[u8]) -> KeyHash {
    KeyHash::from_hash(hash64(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash64(b"hello"), hash64(b"hello"));
        assert_eq!(key_hash(b"hello"), key_hash(b"hello"));
    }

    #[test]
    fn from_hash_matches_key_hash() {
        for i in 0..10_000u64 {
            let key = i.to_le_bytes();
            assert_eq!(key_hash(&key), KeyHash::from_hash(hash64(&key)));
        }
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hash64(b"hello"), hash64(b"hellp"));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }

    #[test]
    fn signature_never_zero() {
        // Probe a large key space; the sig==0 remap must hold whenever
        // it occurs and the constructor must never emit 0.
        for i in 0..100_000u64 {
            let kh = key_hash(&i.to_le_bytes());
            assert_ne!(kh.sig, 0);
        }
    }

    #[test]
    fn low_bits_are_spread() {
        // Sequential keys should not land in sequential buckets only;
        // check a crude uniformity bound over 256 low-bit bins.
        let mut bins = [0u32; 256];
        let n = 64 * 256;
        for i in 0..n {
            let h = hash64(&(i as u64).to_le_bytes());
            bins[(h & 0xff) as usize] += 1;
        }
        let expected = (n / 256) as f64;
        for (i, &c) in bins.iter().enumerate() {
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.75,
                "bin {i} has {c}, expected ~{expected}"
            );
        }
    }
}
