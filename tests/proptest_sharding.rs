//! Property-based tests for the hash-prefix shard partition and the
//! host-side routing: every key has exactly one owner shard under every
//! partition width, a split key batch is a permutation of its input —
//! nothing dropped, nothing duplicated, nothing misrouted — and a record
//! reaches exactly the shards owning its keys.

use proptest::collection::vec;
use proptest::prelude::*;
use sepo_apps::sharded::ShardRouter;
use sepo_core::hash::fnv1a;
use sepo_core::{shard_of, shard_of_key, split_keys, ShardSpec};
use sepo_datagen::{App, Dataset};

/// Arbitrary key bytes (length 0..24, any byte values).
fn keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..24), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly one `ShardSpec` claims any key, at every partition width,
    /// and it is the one `shard_of_key` names.
    #[test]
    fn every_key_routes_to_exactly_one_shard(key in vec(any::<u8>(), 0..24), bits in 0u32..5) {
        let count = 1u32 << bits;
        let owner = shard_of_key(&key, bits);
        prop_assert!(owner < count, "owner {owner} out of {count}");
        prop_assert_eq!(owner, shard_of(fnv1a(&key), bits));
        let owners: Vec<u32> = (0..count)
            .filter(|&s| ShardSpec::new(s, count).owns_key(&key))
            .collect();
        prop_assert_eq!(owners, vec![owner], "ownership must be a partition");
    }

    /// The split of a key batch (the one query serving routes by) is a
    /// permutation of the input indices, and every index lands on its
    /// key's owner shard.
    #[test]
    fn split_keys_is_a_permutation_of_the_batch(batch in keys(), bits in 0u32..4) {
        let count = 1u32 << bits;
        let refs: Vec<&[u8]> = batch.iter().map(|k| k.as_slice()).collect();
        let slots = split_keys(&refs, bits);
        prop_assert_eq!(slots.len(), count as usize);
        let mut all: Vec<usize> = slots.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..batch.len()).collect::<Vec<_>>(),
            "split must be a permutation of 0..{}", batch.len());
        for (s, slot) in slots.iter().enumerate() {
            for &i in slot {
                prop_assert_eq!(shard_of_key(&batch[i], bits), s as u32,
                    "index {i} misrouted to shard {s}");
            }
        }
    }

    /// Record routing replicates to exactly the owner set: the shards
    /// `split_dataset` hands a one-record dataset to each own at least one
    /// of the record's keys, and every key's owner receives it.
    #[test]
    fn record_owners_cover_exactly_the_key_owners(words in vec(vec(97u8..123, 1..8), 1..12), bits in 1u32..4) {
        let count = 1u32 << bits;
        let mut dataset = Dataset::new();
        dataset.push_record(&words.join(&b' '));
        let subsets = ShardRouter::new(App::WordCount, count).split_dataset(&dataset);
        let owners: Vec<u32> = (0..count).filter(|&s| !subsets[s as usize].is_empty()).collect();
        let mut want: Vec<u32> = words.iter().map(|w| shard_of_key(w, bits)).collect();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(owners, want);
    }
}
