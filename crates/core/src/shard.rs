//! Hash-prefix sharding across N simulated devices.
//!
//! Each shard owns the keys whose [`fnv1a`] hash falls in its prefix
//! slice: `shard = hash >> (64 - log2(N))`. The prefix bits are the *raw*
//! hash's top bits, while in-shard bucket selection uses
//! [`bucket_for`](crate::hash::bucket_for)'s splitmix-mixed word — the two
//! selections are statistically independent, so a shard's bucket
//! distribution is unchanged from the unsharded table's.
//!
//! A sharded run gives every shard its own [`SepoTable`] configured with a
//! [`ShardSpec`]; the table's insert paths silently accept (and drop)
//! keys the shard does not own, so a multi-key task replicated to several
//! shards stores each key on exactly its owner while per-task pair
//! numbering — and therefore SEPO postponement resume — stays consistent
//! on every shard. Cross-shard identity is checked on the *canonical
//! merged image* ([`canonical_image`]): the physical per-shard table
//! images cannot match across shard counts, but the merged, sorted
//! collector output is invariant.

use crate::config::Organization;
use crate::hash::fnv1a;
use crate::results::GroupedPair;
use crate::serve::{EpochSnapshot, QueryError};
use crate::table::SepoTable;
use gpu_sim::Executor;
use std::sync::Arc;

/// Which slice of the hash-prefix key space one table owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: u32,
    bits: u32,
}

impl ShardSpec {
    /// Spec for shard `index` of `count` total shards. `count` must be a
    /// power of two (the prefix is a whole number of bits) and `index`
    /// must be in range.
    pub fn new(index: u32, count: u32) -> ShardSpec {
        let bits = shard_bits(count);
        assert!(index < count, "shard index {index} out of {count}");
        ShardSpec { index, bits }
    }

    /// This shard's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total shards in the partition.
    pub fn count(&self) -> u32 {
        1 << self.bits
    }

    /// Does this shard own hash `hash`?
    #[inline]
    pub fn owns_hash(&self, hash: u64) -> bool {
        shard_of(hash, self.bits) == self.index
    }

    /// Does this shard own `key`?
    #[inline]
    pub fn owns_key(&self, key: &[u8]) -> bool {
        self.owns_hash(fnv1a(key))
    }
}

/// Number of prefix bits for a `count`-way partition. Panics unless
/// `count` is a nonzero power of two.
pub fn shard_bits(count: u32) -> u32 {
    assert!(
        count.is_power_of_two(),
        "shard count must be a power of two, got {count}"
    );
    count.trailing_zeros()
}

/// Owner shard of `hash` under a `bits`-bit prefix partition. With
/// `bits == 0` (one shard) everyone maps to shard 0.
#[inline]
pub fn shard_of(hash: u64, bits: u32) -> u32 {
    if bits == 0 {
        0
    } else {
        (hash >> (64 - bits)) as u32
    }
}

/// Owner shard of `key` under a `bits`-bit prefix partition.
#[inline]
pub fn shard_of_key(key: &[u8], bits: u32) -> u32 {
    shard_of(fnv1a(key), bits)
}

/// Split a batch of keys into per-shard index lists under a `bits`-bit
/// prefix partition. The concatenation of the lists is a permutation of
/// `0..keys.len()`: every key routes to exactly one shard.
pub fn split_keys(keys: &[&[u8]], bits: u32) -> Vec<Vec<usize>> {
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); 1 << bits];
    for (i, key) in keys.iter().enumerate() {
        slots[shard_of_key(key, bits) as usize].push(i);
    }
    slots
}

/// Deterministic serialization of the merged results of finalized shard
/// tables — the identity artifact of a sharded run.
///
/// A key is stored once, on its owner shard, and a finalized combining or
/// multi-valued table holds it once ([`crate::compact`]), so pairs and
/// groups are concatenated and sorted by key (a key stored twice would
/// show twice), a group's values sorted too; basic pairs are sorted
/// whole. The image depends only on the logical table contents, not on
/// shard count, eviction timing, or per-shard page order. An unsharded run is the
/// 1-element case, which is what anchors `--shards N` correctness to
/// `--shards 1`.
pub fn canonical_image(tables: &[&SepoTable]) -> Vec<u8> {
    assert!(!tables.is_empty(), "canonical image of zero shards");
    let org = tables[0].config().organization;
    let mut out = Vec::new();
    match org {
        Organization::Combining(_) => {
            let mut pairs: Vec<(Vec<u8>, u64)> =
                tables.iter().flat_map(|t| t.collect_combining()).collect();
            pairs.sort();
            write_len(&mut out, pairs.len());
            for (k, v) in pairs {
                write_bytes(&mut out, &k);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Organization::MultiValued => {
            let mut groups: Vec<GroupedPair> = tables
                .iter()
                .flat_map(|t| t.collect_multivalued())
                .collect();
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            write_len(&mut out, groups.len());
            for (k, mut vs) in groups {
                vs.sort();
                write_bytes(&mut out, &k);
                write_len(&mut out, vs.len());
                for v in vs {
                    write_bytes(&mut out, &v);
                }
            }
        }
        Organization::Basic => {
            let mut pairs = Vec::new();
            for t in tables {
                pairs.extend(t.collect_basic());
            }
            pairs.sort();
            write_len(&mut out, pairs.len());
            for (k, v) in pairs {
                write_bytes(&mut out, &k);
                write_bytes(&mut out, &v);
            }
        }
    }
    out
}

fn write_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_len(out, b.len());
    out.extend_from_slice(b);
}

/// Cross-shard ownership audit over finalized shard tables: every key a
/// shard's collectors surface must hash into that shard's prefix slice.
/// This is the global half of the per-shard [`crate::TableAudit`] — a key
/// on the wrong shard means the router or the table's ownership filter
/// leaked.
pub fn audit_ownership(tables: &[&SepoTable]) -> Result<(), String> {
    for t in tables {
        let Some(spec) = t.config().shard else {
            continue;
        };
        audit_keys(spec, &collected_keys(t))?;
    }
    Ok(())
}

/// One shard's half of [`audit_ownership`]: every key must hash into
/// `spec`'s prefix slice.
fn audit_keys(spec: ShardSpec, keys: &[Vec<u8>]) -> Result<(), String> {
    for key in keys {
        if !spec.owns_key(key) {
            return Err(format!(
                "shard {} of {} holds foreign key {:?} (owner shard {})",
                spec.index(),
                spec.count(),
                String::from_utf8_lossy(key),
                shard_of_key(key, shard_bits(spec.count())),
            ));
        }
    }
    Ok(())
}

fn collected_keys(t: &SepoTable) -> Vec<Vec<u8>> {
    match t.config().organization {
        Organization::Combining(_) => t.collect_combining().into_iter().map(|(k, _)| k).collect(),
        Organization::MultiValued => t
            .collect_multivalued()
            .into_iter()
            .map(|(k, _)| k)
            .collect(),
        Organization::Basic => t.collect_basic().into_iter().map(|(k, _)| k).collect(),
    }
}

/// A consistent global read view over one epoch snapshot per shard:
/// queries route to their key's owner shard and the per-shard answers
/// scatter back in request order, so callers see one logical table.
///
/// The per-shard snapshots stay private to this module, so no caller can
/// bypass the hash-prefix ownership routing:
///
/// ```
/// fn owner(snapshot: &sepo_core::ShardedSnapshot) -> usize {
///     snapshot.shard_for(b"key")
/// }
/// ```
///
/// ```compile_fail
/// fn first(snapshot: &sepo_core::ShardedSnapshot) {
///     let _ = &snapshot.shards[0];
/// }
/// ```
pub struct ShardedSnapshot {
    shards: Vec<Arc<EpochSnapshot>>,
    bits: u32,
}

impl ShardedSnapshot {
    /// Wrap one snapshot per shard, in shard order. The count must be a
    /// power of two (it names the prefix partition).
    pub fn new(shards: Vec<Arc<EpochSnapshot>>) -> ShardedSnapshot {
        let bits = shard_bits(shards.len() as u32);
        ShardedSnapshot { shards, bits }
    }

    /// Shards in the view.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Owner shard of `key` under this view's partition.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        shard_of_key(key, self.bits) as usize
    }

    /// True when every shard's snapshot is the finalized epoch.
    pub fn finalized(&self) -> bool {
        self.shards.iter().all(|s| s.finalized())
    }

    /// Point lookups over a combining view: each query runs on its owner
    /// shard's snapshot through that shard's executor; answers return in
    /// request order.
    pub fn batch_get(
        &self,
        executors: &[Executor],
        queries: &[&[u8]],
    ) -> Result<Vec<Option<u64>>, QueryError> {
        self.route(queries, |shard, sub| {
            self.shards[shard].batch_get(&executors[shard], sub)
        })
    }

    /// Grouped scans over a multi-valued view, routed like
    /// [`ShardedSnapshot::batch_get`].
    pub fn batch_get_grouped(
        &self,
        executors: &[Executor],
        queries: &[&[u8]],
    ) -> Result<Vec<Option<Vec<Vec<u8>>>>, QueryError> {
        self.route(queries, |shard, sub| {
            self.shards[shard].batch_get_grouped(&executors[shard], sub)
        })
    }

    /// Split `queries` by owner shard, run `f` per non-empty sub-batch,
    /// and scatter the answers back into request order. Every query has
    /// exactly one owner, so every slot is filled.
    fn route<T>(
        &self,
        queries: &[&[u8]],
        f: impl Fn(usize, &[&[u8]]) -> Result<Vec<T>, QueryError>,
    ) -> Result<Vec<T>, QueryError> {
        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(queries.len(), || None);
        for (s, slots) in split_keys(queries, self.bits).iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let sub: Vec<&[u8]> = slots.iter().map(|&i| queries[i]).collect();
            for (&slot, answer) in slots.iter().zip(f(s, &sub)?) {
                out[slot] = Some(answer);
            }
        }
        Ok(out
            .into_iter()
            .map(|a| a.expect("every query routes to exactly one shard"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Combiner, TableConfig};
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;

    fn sharded_table(index: u32, count: u32) -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024)
            .with_shard(Some(ShardSpec::new(index, count)));
        SepoTable::new(cfg, 16 * 1024, Arc::new(Metrics::new()))
    }

    #[test]
    fn every_hash_routes_to_exactly_one_shard() {
        for bits in 0..=4u32 {
            let count = 1u32 << bits;
            for i in 0..1000u64 {
                let h = fnv1a(format!("key-{i}").as_bytes());
                let owner = shard_of(h, bits);
                assert!(owner < count);
                let owners: Vec<u32> = (0..count)
                    .filter(|&s| ShardSpec::new(s, count).owns_hash(h))
                    .collect();
                assert_eq!(owners, vec![owner]);
            }
        }
    }

    #[test]
    fn split_keys_is_a_permutation_of_the_batch() {
        let keys: Vec<Vec<u8>> = (0..500).map(|i| format!("key-{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let slots = split_keys(&refs, 3);
        assert_eq!(slots.len(), 8);
        let mut all: Vec<usize> = slots.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..keys.len()).collect::<Vec<_>>());
        for (s, slot) in slots.iter().enumerate() {
            for &i in slot {
                assert_eq!(shard_of_key(&keys[i], 3), s as u32);
            }
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let s = ShardSpec::new(0, 1);
        for i in 0..100u64 {
            assert!(s.owns_hash(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_counts_are_rejected() {
        let _ = ShardSpec::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_index_is_rejected() {
        let _ = ShardSpec::new(4, 4);
    }

    #[test]
    fn shard_prefix_is_independent_of_bucket_selection() {
        // Keys of one shard must still spread over the in-shard buckets:
        // the prefix uses raw top bits, buckets use the mixed hash.
        let n_buckets = 64usize;
        let mut touched = std::collections::HashSet::new();
        for i in 0..4000u64 {
            let h = fnv1a(format!("key-{i}").as_bytes());
            if shard_of(h, 2) == 0 {
                touched.insert(crate::hash::bucket_for(h, n_buckets));
            }
        }
        assert!(
            touched.len() > n_buckets / 2,
            "shard 0's keys hit only {} of {n_buckets} buckets",
            touched.len()
        );
    }

    #[test]
    fn non_owned_inserts_succeed_without_storing() {
        let t = sharded_table(0, 4);
        let mut c = NoCharge;
        let mut owned = 0usize;
        for i in 0..200u64 {
            let key = format!("key-{i}");
            let status = t.insert_combining(key.as_bytes(), 1, &mut c);
            assert!(status.is_success(), "filtered inserts never postpone");
            if ShardSpec::new(0, 4).owns_key(key.as_bytes()) {
                owned += 1;
            }
        }
        t.finalize();
        let got = t.collect_combining();
        assert_eq!(got.len(), owned, "exactly the owned keys are stored");
        assert!(audit_ownership(&[&t]).is_ok());
    }

    #[test]
    fn canonical_image_is_invariant_across_shard_counts() {
        let keys: Vec<String> = (0..300).map(|i| format!("url-{i}")).collect();
        // Unsharded reference.
        let t1 = {
            let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
                .with_buckets(64)
                .with_buckets_per_group(16)
                .with_page_size(1024);
            SepoTable::new(cfg, 16 * 1024, Arc::new(Metrics::new()))
        };
        let mut c = NoCharge;
        for k in &keys {
            assert!(t1.insert_combining(k.as_bytes(), 2, &mut c).is_success());
        }
        t1.finalize();
        let reference = canonical_image(&[&t1]);

        for count in [2u32, 4] {
            let shards: Vec<SepoTable> = (0..count).map(|i| sharded_table(i, count)).collect();
            for k in &keys {
                // Replicate every key to every shard; the ownership filter
                // keeps exactly one copy.
                for s in &shards {
                    assert!(s.insert_combining(k.as_bytes(), 2, &mut c).is_success());
                }
            }
            let refs: Vec<&SepoTable> = shards.iter().collect();
            for s in &shards {
                s.finalize();
            }
            assert!(audit_ownership(&refs).is_ok());
            assert_eq!(
                canonical_image(&refs),
                reference,
                "{count}-shard canonical image diverged"
            );
        }
    }

    #[test]
    fn ownership_audit_catches_a_foreign_key() {
        // Through the public API the insert filter makes a foreign key
        // unreachable (previous test); exercise the detection half on the
        // key-level helper directly.
        let spec = ShardSpec::new(1, 4);
        let owned = (0..10_000u64)
            .map(|i| format!("key-{i}").into_bytes())
            .find(|k| spec.owns_key(k))
            .expect("some key lands on shard 1");
        let foreign = (0..10_000u64)
            .map(|i| format!("key-{i}").into_bytes())
            .find(|k| !spec.owns_key(k))
            .expect("some key lands elsewhere");
        assert!(audit_keys(spec, &[owned]).is_ok());
        let err = audit_keys(spec, &[foreign]).unwrap_err();
        assert!(err.contains("foreign key"), "{err}");
        assert!(err.contains("shard 1 of 4"), "{err}");
    }
}
