//! Table diagnostics: occupancy and chain statistics.
//!
//! The paper's design choices (many buckets, load factor around 1,
//! chaining that "degrades gracefully" past 1, §IV) are observable
//! properties; this module computes them from the finalized host store so
//! users and the CLI can see what a run actually built.

use crate::hash::bucket_of;
use crate::results::primary_entries;
use crate::table::SepoTable;
use std::collections::{HashMap, HashSet};

/// Occupancy and chain-shape statistics of a finalized table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Total entries stored (pre-merge: one per host entry).
    pub entries: u64,
    /// Distinct keys.
    pub distinct_keys: u64,
    /// Buckets in the table.
    pub buckets: u64,
    /// Buckets with at least one key.
    pub occupied_buckets: u64,
    /// Load factor: distinct keys / buckets.
    pub load_factor: f64,
    /// Longest per-bucket key chain.
    pub max_chain: u64,
    /// Mean chain length over occupied buckets.
    pub mean_chain: f64,
}

impl SepoTable {
    /// Compute occupancy statistics from the host store (finalized tables
    /// only — panics otherwise, or on a host page that fails verification,
    /// like the collectors).
    pub fn table_stats(&self) -> TableStats {
        let pages = self
            .finalized_host_pages()
            .unwrap_or_else(|e| panic!("table_stats: {e}"));
        let mut entries = 0u64;
        let mut per_bucket: HashMap<usize, u64> = HashMap::new();
        let mut distinct: HashSet<&[u8]> = HashSet::new();
        for page in &pages {
            for (_, e) in primary_entries(self.config().organization, page) {
                let Some(key) = e.key() else { continue };
                entries += 1;
                if distinct.insert(key) {
                    *per_bucket
                        .entry(bucket_of(key, self.config().n_buckets))
                        .or_insert(0) += 1;
                }
            }
        }
        let occupied = per_bucket.len() as u64;
        let max_chain = per_bucket.values().copied().max().unwrap_or(0);
        let chain_sum: u64 = per_bucket.values().sum();
        TableStats {
            entries,
            distinct_keys: distinct.len() as u64,
            buckets: self.config().n_buckets as u64,
            occupied_buckets: occupied,
            load_factor: distinct.len() as f64 / self.config().n_buckets as f64,
            max_chain,
            mean_chain: if occupied == 0 {
                0.0
            } else {
                chain_sum as f64 / occupied as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Combiner, Organization, TableConfig};
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use std::sync::Arc;

    #[test]
    fn stats_reflect_contents() {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 64 * 1024, Arc::new(Metrics::new()));
        let mut ch = NoCharge;
        for i in 0..200 {
            // Each key twice: combining keeps entries == distinct here.
            for _ in 0..2 {
                assert!(t
                    .insert_combining(format!("key-{i:04}").as_bytes(), 1, &mut ch)
                    .is_success());
            }
        }
        t.finalize();
        let s = t.table_stats();
        assert_eq!(s.distinct_keys, 200);
        assert_eq!(s.entries, 200);
        assert_eq!(s.buckets, 64);
        assert!(s.occupied_buckets > 0 && s.occupied_buckets <= 64);
        assert!((s.load_factor - 200.0 / 64.0).abs() < 1e-9);
        assert!(s.max_chain >= (200 / 64) as u64);
        assert!(s.mean_chain >= 1.0);
    }

    #[test]
    fn load_factor_past_one_is_fine() {
        // The §IV claim: separate chaining "allows the hash table to
        // approach and surpass a load factor of 1".
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(16)
            .with_buckets_per_group(4)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 64 * 1024, Arc::new(Metrics::new()));
        let mut ch = NoCharge;
        for i in 0..100 {
            assert!(t
                .insert_combining(format!("k{i:03}").as_bytes(), 1, &mut ch)
                .is_success());
        }
        t.finalize();
        let s = t.table_stats();
        assert!(s.load_factor > 5.0, "load factor {}", s.load_factor);
        assert_eq!(t.collect_combining().len(), 100, "correct past LF 1");
    }

    #[test]
    fn empty_table_stats_are_zero() {
        let cfg = TableConfig::new(Organization::Basic)
            .with_buckets(8)
            .with_buckets_per_group(2)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 8 * 1024, Arc::new(Metrics::new()));
        t.finalize();
        let s = t.table_stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.mean_chain, 0.0);
        assert_eq!(s.load_factor, 0.0);
    }
}
