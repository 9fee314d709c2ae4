//! Key hashing.
//!
//! FNV-1a over the key bytes. The table needs a fast, decent-dispersion
//! hash for variable-length byte keys; FNV-1a is what GPU hash-table
//! implementations of the paper's era commonly used, is trivially portable
//! to a kernel, and is deterministic across runs — a requirement for the
//! reproducible postponement behaviour the harness reports. The host-side
//! indexes, which nothing simulates, map keys through a `KeyMap` instead.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `key`.
#[inline]
pub fn fnv1a(key: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Finalizing mixer (splitmix64 finalizer). FNV-1a concentrates its
/// avalanche in the low bits; the multiply-shift bucket reduction below
/// consumes the *high* bits, so run the hash through a full-avalanche
/// finalizer first.
#[inline]
pub fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Bucket index for a precomputed [`fnv1a`] hash in a table of `n_buckets`.
/// Hash-once entry point: emitters hash a key a single time and thread the
/// `u64` through every insert/find/re-issue instead of re-running FNV-1a
/// over the key bytes at each call site.
#[inline]
pub fn bucket_for(hash: u64, n_buckets: usize) -> usize {
    bucket_of_mixed(mix(hash), n_buckets)
}

/// Bucket index for an already [`mix`]ed hash. The reduction consumes the
/// word's high bits; its low bits are the key's chain tag
/// ([`tagged_lens`](crate::entry::tagged_lens)), so a caller that needs
/// both mixes once.
#[inline]
pub fn bucket_of_mixed(mixed: u64, n_buckets: usize) -> usize {
    debug_assert!(n_buckets > 0);
    // Multiply-shift reduction avoids the modulo bias and division cost.
    ((mixed as u128 * n_buckets as u128) >> 64) as usize
}

/// Bucket index for `key` in a table of `n_buckets`.
#[inline]
pub fn bucket_of(key: &[u8], n_buckets: usize) -> usize {
    bucket_for(fnv1a(key), n_buckets)
}

/// Byte keys mapped to values, in first-insertion order — the host-side
/// key indexes (host compaction's fold, the serving host store). Keys live
/// back to back in one arena, so inserting allocates nothing per key. A
/// lookup hashes the key once, with the standard library's randomly keyed
/// hasher (input keys cannot be crafted to collide), and probes one
/// open-addressed array of `(hash tag, id)` words.
pub(crate) struct KeyMap<V> {
    state: RandomState,
    arena: Vec<u8>,
    /// Per id: where its key sits in `arena`, and its value.
    entries: Vec<(usize, u32, V)>,
    /// Linear-probing slots, a power of two, at most half full: the low 32
    /// bits of a key's hash in the high word, its id + 1 in the low word;
    /// 0 is empty.
    slots: Vec<u64>,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap {
            state: RandomState::new(),
            arena: Vec::new(),
            entries: Vec::new(),
            slots: vec![0; 16],
        }
    }
}

impl<V> KeyMap<V> {
    /// Keys held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The key with id `id` (ids count keys in first-insertion order).
    pub(crate) fn key(&self, id: usize) -> &[u8] {
        let (start, len, _) = self.entries[id];
        &self.arena[start..start + len as usize]
    }

    /// Every key and its value, in first-insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        (0..self.len()).map(|id| (self.key(id), &self.entries[id].2))
    }

    fn tag(&self, key: &[u8]) -> u32 {
        self.state.hash_one(key) as u32
    }

    /// The id of `key`, or the empty slot where it would go.
    fn probe(&self, key: &[u8], tag: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            let id = (slot as u32 - 1) as usize;
            if (slot >> 32) as u32 == tag && self.key(id) == key {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// `key`'s value, if present.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&V> {
        let id = self.probe(key, self.tag(key)).ok()?;
        Some(&self.entries[id].2)
    }

    /// Apply `update` to `key`'s value, or insert `new()` for a new key;
    /// returns the key's id.
    pub(crate) fn upsert(
        &mut self,
        key: &[u8],
        new: impl FnOnce() -> V,
        update: impl FnOnce(&mut V),
    ) -> usize {
        self.upsert_tagged(key, self.tag(key), new, update)
    }

    fn upsert_tagged(
        &mut self,
        key: &[u8],
        tag: u32,
        new: impl FnOnce() -> V,
        update: impl FnOnce(&mut V),
    ) -> usize {
        match self.probe(key, tag) {
            Ok(id) => {
                update(&mut self.entries[id].2);
                id
            }
            Err(slot) => {
                self.entries
                    .push((self.arena.len(), key.len() as u32, new()));
                self.arena.extend_from_slice(key);
                self.slots[slot] = (u64::from(tag) << 32) | self.entries.len() as u64;
                if 2 * self.entries.len() > self.slots.len() {
                    self.grow();
                }
                self.entries.len() - 1
            }
        }
    }

    /// Double the slot array; a slot's tag alone places it again.
    fn grow(&mut self) {
        let grown = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut i = (slot >> 32) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_map_keeps_first_insertion_order_through_growth_and_collisions() {
        let mut map: KeyMap<u64> = KeyMap::default();
        for i in 0..5000u64 {
            let key = format!("key-{}", i % 1000);
            map.upsert(key.as_bytes(), || i, |v| *v += i);
        }
        assert_eq!(map.len(), 1000);
        for (id, (key, &v)) in map.iter().enumerate() {
            assert_eq!(key, format!("key-{id}").as_bytes());
            assert_eq!(v, 5 * id as u64 + 1000 * (1 + 2 + 3 + 4));
        }
        assert_eq!(map.get(b"key-999"), Some(&(5 * 999 + 10_000)));
        assert_eq!(map.get(b"key-1000"), None);
        assert_eq!(map.get(b""), None);
        // Keys that share a tag share a probe run; bytes tell them apart.
        let mut tagged: KeyMap<u32> = KeyMap::default();
        for (n, k) in ["a", "b", "c", "b", "a"].iter().enumerate() {
            tagged.upsert_tagged(k.as_bytes(), 7, || n as u32, |v| *v += 10);
        }
        let got: Vec<(&[u8], u32)> = tagged.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(&b"a"[..], 10), (b"b", 11), (b"c", 2)]);
        assert_eq!(tagged.probe(b"d", 7), Err(10));
    }

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(fnv1a(b"http://example.com"), fnv1a(b"http://example.com"));
        assert_ne!(fnv1a(b"http://example.com"), fnv1a(b"http://example.org"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn bucket_of_stays_in_range() {
        for n in [1usize, 2, 3, 7, 1024, 1_000_003] {
            for k in 0..200u32 {
                let b = bucket_of(&k.to_le_bytes(), n);
                assert!(b < n, "bucket {b} out of range for n={n}");
            }
        }
    }

    #[test]
    fn bucket_for_matches_bucket_of() {
        for n in [1usize, 2, 7, 1024, 1_000_003] {
            for i in 0..200u32 {
                let key = format!("key-{i}");
                assert_eq!(
                    bucket_for(fnv1a(key.as_bytes()), n),
                    bucket_of(key.as_bytes(), n)
                );
            }
        }
    }

    #[test]
    fn buckets_disperse_reasonably() {
        // 10k distinct keys over 64 buckets: no bucket should exceed 4x the
        // expected share — a loose sanity bound on dispersion.
        let n = 64usize;
        let mut counts = vec![0u32; n];
        for i in 0..10_000u32 {
            counts[bucket_of(format!("key-{i}").as_bytes(), n)] += 1;
        }
        let expected = 10_000 / n as u32;
        assert!(counts.iter().all(|&c| c < expected * 4));
        assert!(counts.iter().all(|&c| c > expected / 4));
    }
}
