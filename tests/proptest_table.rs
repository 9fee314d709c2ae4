//! Property-based tests: the SEPO table against a `HashMap` model, across
//! all three organizations, with evictions injected at arbitrary points.

use gpu_sim::NoCharge;
use proptest::collection::vec;
use proptest::prelude::*;
use sepo_core::hash::fnv1a;
use sepo_core::{
    Combiner, CombinerConfig, InsertStatus, Organization, SepoTable, TableConfig, WarpCombiner,
};
use std::collections::HashMap;
use std::sync::Arc;

fn tiny_table(org: Organization, pages: usize) -> SepoTable {
    let cfg = TableConfig::new(org)
        .with_buckets(32)
        .with_buckets_per_group(8)
        .with_page_size(1024);
    SepoTable::new(
        cfg,
        (pages * 1024) as u64,
        Arc::new(gpu_sim::Metrics::new()),
    )
}

/// A scripted operation: insert a (key, value) or evict everything.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: u8, value: u8 },
    EndIteration,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            8 => (0u8..40, any::<u8>()).prop_map(|(key, value)| Op::Insert { key, value }),
            1 => Just(Op::EndIteration),
        ],
        1..300,
    )
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Combining: whatever interleaving of inserts and evictions happens,
    /// the final per-key sums equal a HashMap fold over the *successful*
    /// inserts (retrying postponed ones next "iteration" like SEPO does).
    #[test]
    fn combining_matches_model(script in ops()) {
        let t = tiny_table(Organization::Combining(Combiner::Add), 2);
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut pending: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut ch = NoCharge;
        for op in &script {
            match op {
                Op::Insert { key, value } => {
                    let k = key_bytes(*key);
                    let v = *value as u64;
                    match t.insert_combining(&k, v, &mut ch) {
                        InsertStatus::Success => *model.entry(k).or_insert(0) += v,
                        InsertStatus::Postponed => pending.push((k, v)),
                    }
                }
                Op::EndIteration => {
                    t.end_iteration();
                    // Re-issue postponed inserts (the SEPO contract).
                    let retry = std::mem::take(&mut pending);
                    for (k, v) in retry {
                        match t.insert_combining(&k, v, &mut ch) {
                            InsertStatus::Success => *model.entry(k).or_insert(0) += v,
                            InsertStatus::Postponed => pending.push((k, v)),
                        }
                    }
                }
            }
        }
        // Drain any leftovers across extra iterations.
        let mut guard = 0;
        while !pending.is_empty() {
            t.end_iteration();
            let retry = std::mem::take(&mut pending);
            for (k, v) in retry {
                match t.insert_combining(&k, v, &mut ch) {
                    InsertStatus::Success => *model.entry(k).or_insert(0) += v,
                    InsertStatus::Postponed => pending.push((k, v)),
                }
            }
            guard += 1;
            prop_assert!(guard < 50, "no progress draining pending inserts");
        }
        t.finalize();
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        prop_assert_eq!(got, model);
    }

    /// Multi-valued: grouped values equal the model's multiset per key.
    #[test]
    fn multivalued_matches_model(script in ops()) {
        let t = tiny_table(Organization::MultiValued, 3);
        let mut model: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        let mut pending: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut ch = NoCharge;
        let mut apply = |t: &SepoTable, k: Vec<u8>, v: Vec<u8>,
                         model: &mut HashMap<Vec<u8>, Vec<Vec<u8>>>,
                         pending: &mut Vec<(Vec<u8>, Vec<u8>)>| {
            match t.insert_multivalued(&k, &v, &mut ch) {
                InsertStatus::Success => model.entry(k).or_default().push(v),
                InsertStatus::Postponed => pending.push((k, v)),
            }
        };
        for op in &script {
            match op {
                Op::Insert { key, value } => {
                    apply(&t, key_bytes(*key), vec![*value; 3], &mut model, &mut pending);
                }
                Op::EndIteration => {
                    t.end_iteration();
                    let retry = std::mem::take(&mut pending);
                    for (k, v) in retry {
                        apply(&t, k, v, &mut model, &mut pending);
                    }
                }
            }
        }
        let mut guard = 0;
        while !pending.is_empty() {
            t.end_iteration();
            let retry = std::mem::take(&mut pending);
            for (k, v) in retry {
                apply(&t, k, v, &mut model, &mut pending);
            }
            guard += 1;
            prop_assert!(guard < 50, "no progress draining pending inserts");
        }
        t.finalize();
        let mut got: HashMap<Vec<u8>, Vec<Vec<u8>>> =
            t.collect_multivalued().into_iter().collect();
        for v in got.values_mut() {
            v.sort();
        }
        let mut want = model;
        for v in want.values_mut() {
            v.sort();
        }
        prop_assert_eq!(got, want);
    }

    /// Basic: every successful insert appears exactly once (duplicates and
    /// all), none invented.
    #[test]
    fn basic_preserves_multiset(script in ops()) {
        let t = tiny_table(Organization::Basic, 2);
        let mut model: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut ch = NoCharge;
        for op in &script {
            match op {
                Op::Insert { key, value } => {
                    let k = key_bytes(*key);
                    let v = vec![*value; 2];
                    if t.insert_basic(&k, &v, &mut ch) == InsertStatus::Success {
                        model.push((k, v));
                    }
                }
                Op::EndIteration => {
                    t.end_iteration();
                }
            }
        }
        t.finalize();
        let mut got = t.collect_basic();
        got.sort();
        model.sort();
        prop_assert_eq!(got, model);
    }

    /// Block combiner: a `(key, value)` stream through a tile of any
    /// capacity — single slot, one partial set, one full set, several sets
    /// — leaves the table exactly as direct inserts do, with every emit
    /// reporting the same status (so postponement surfaces identically on a
    /// heap too small for the keys). `EndIteration` is a launch boundary:
    /// the tile drains, then both tables evict. Every fifth key is longer
    /// than the tile's key arena and bypasses it.
    #[test]
    fn block_combiner_equals_direct_inserts(script in ops()) {
        let key_of = |k: u8| match k % 5 {
            0 => format!("a-key-too-long-for-the-arena-{k:03}").into_bytes(),
            _ => key_bytes(k),
        };
        for comb in [Combiner::Add, Combiner::Or, Combiner::Min, Combiner::Max] {
            for capacity in [1, 7, 8, 64, 256] {
                for pages in [1, 8] {
                    let direct = tiny_table(Organization::Combining(comb), pages);
                    let tiled = tiny_table(Organization::Combining(comb), pages);
                    let mut tile = WarpCombiner::new(comb, CombinerConfig { capacity });
                    let mut ch = NoCharge;
                    for op in &script {
                        match op {
                            Op::Insert { key, value } => {
                                let (k, v) = (key_of(*key), *value as u64);
                                prop_assert_eq!(
                                    tile.emit(&tiled, &k, fnv1a(&k), v, &mut ch),
                                    direct.insert_combining(&k, v, &mut ch)
                                );
                            }
                            Op::EndIteration => {
                                tile.flush(&tiled, &mut ch);
                                tiled.end_iteration();
                                direct.end_iteration();
                            }
                        }
                    }
                    tile.flush(&tiled, &mut ch);
                    prop_assert_eq!(tile.pending(), 0);
                    tiled.finalize();
                    direct.finalize();
                    let mut got = tiled.collect_combining();
                    let mut want = direct.collect_combining();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// Resident lookups always reflect the sums of this iteration's
    /// successful inserts.
    #[test]
    fn resident_lookup_is_consistent(
        keys in vec(0u8..10, 1..60),
    ) {
        let t = tiny_table(Organization::Combining(Combiner::Add), 8);
        let mut ch = NoCharge;
        let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
        for k in keys {
            let kb = key_bytes(k);
            if t.insert_combining(&kb, 2, &mut ch) == InsertStatus::Success {
                *model.entry(kb).or_insert(0) += 2;
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(t.lookup_combining(k, &mut ch), Some(*v));
        }
        prop_assert_eq!(t.lookup_combining(b"never-inserted", &mut ch), None);
    }
}
