//! Property-based tests: the SEPO table against a `HashMap` model, across
//! all three organizations, with evictions injected at arbitrary points.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::NoCharge;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sepo_alloc::{HostLink, PageKind};
use sepo_core::entry::{parse_at, EntryKind, PageWalker, ParsedEntry};
use sepo_core::hash::fnv1a;
use sepo_core::{
    Combiner, CombinerConfig, DriverConfig, InsertStatus, Organization, SepoDriver, SepoTable,
    TableAudit, TableConfig, WarpCombiner,
};
use sepo_mapreduce::Emitter;
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

/// Run `script` against combining table `t` the SEPO way — a postponed
/// insert is re-issued after the next eviction — until nothing is pending;
/// returns the `Add` model of the successful inserts.
fn replay_combining(t: &SepoTable, script: &[Op]) -> Result<HashMap<Vec<u8>, u64>, TestCaseError> {
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut pending: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut ch = NoCharge;
    let mut insert = |k: Vec<u8>, v: u64, pending: &mut Vec<(Vec<u8>, u64)>| match t
        .insert_combining(&k, v, &mut ch)
    {
        InsertStatus::Success => *model.entry(k).or_insert(0) += v,
        InsertStatus::Postponed => pending.push((k, v)),
    };
    for op in script {
        match op {
            Op::Insert { key, value } => insert(key_bytes(*key), *value as u64, &mut pending),
            Op::EndIteration => {
                t.end_iteration();
                // Re-issue postponed inserts (the SEPO contract).
                for (k, v) in std::mem::take(&mut pending) {
                    insert(k, v, &mut pending);
                }
            }
        }
    }
    // Drain any leftovers across extra iterations.
    let mut guard = 0;
    while !pending.is_empty() {
        t.end_iteration();
        for (k, v) in std::mem::take(&mut pending) {
            insert(k, v, &mut pending);
        }
        guard += 1;
        prop_assert!(guard < 50, "no progress draining pending inserts");
    }
    Ok(model)
}

/// The merge the collectors performed before host compaction existed:
/// walk the host pages in host-id order; a key's first appearance fixes
/// its place, later partials combine into it.
fn collector_fold(t: &SepoTable, comb: Combiner) -> Vec<(Vec<u8>, u64)> {
    let mut at: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
    for page in t.host_heap().pages() {
        let page = page.verify().expect("clean pages");
        for (_, e) in PageWalker::new(page.bytes(), EntryKind::Combining) {
            let ParsedEntry::Combining { key, value } = e else {
                continue;
            };
            match at.get(key) {
                Some(&i) => out[i].1 = comb.apply(out[i].1, value),
                None => {
                    at.insert(key.to_vec(), out.len());
                    out.push((key.to_vec(), value));
                }
            }
        }
    }
    out
}

/// The script's inserts as multi-pair tasks: runs of up to three pairs,
/// cut at every `EndIteration`. Multi-pair tasks are what leave a key's
/// partial aggregates in several iterations.
fn tasks_of(script: &[Op]) -> Vec<Vec<(Vec<u8>, u64)>> {
    let mut tasks: Vec<Vec<(Vec<u8>, u64)>> = vec![Vec::new()];
    for op in script {
        let open = tasks.last_mut().expect("never empty");
        match op {
            Op::Insert { key, value } if open.len() < 3 => {
                open.push((key_bytes(*key), *value as u64))
            }
            Op::Insert { key, value } => tasks.push(vec![(key_bytes(*key), *value as u64)]),
            Op::EndIteration => tasks.push(Vec::new()),
        }
    }
    tasks
}

/// One audited driver run of `tasks` (a single thread block per launch, so
/// `Parallel` schedules it deterministically too); returns the saved image
/// and the collected pairs.
fn drive(
    comb: Combiner,
    pages: usize,
    combiner: bool,
    mode: ExecMode,
    tasks: &[Vec<(Vec<u8>, u64)>],
) -> (Vec<u8>, Vec<(Vec<u8>, u64)>) {
    let t = tiny_table(Organization::Combining(comb), pages);
    let exec = Executor::new(mode, Arc::clone(t.metrics()));
    let config = DriverConfig {
        chunk_tasks: 256,
        audit: true,
        combiner: combiner.then(CombinerConfig::default),
        ..DriverConfig::default()
    };
    SepoDriver::new(&t, &exec).with_config(config).run(
        tasks.len(),
        |_| 16,
        |task, start, lane| {
            let mut e = Emitter::new(&t, lane, start);
            for (k, v) in &tasks[task] {
                e.emit_combining(k, *v);
            }
            e.finish()
        },
    );
    let mut image = Vec::new();
    t.save(&mut image).expect("save to memory");
    (image, t.collect_combining())
}

/// Run `script` against multi-valued table `t` the SEPO way — a postponed
/// insert is re-issued after the next eviction — with `value_len`-byte
/// values, until nothing is pending; returns each key's stored values.
fn replay_multivalued(
    t: &SepoTable,
    script: &[Op],
    value_len: usize,
) -> Result<HashMap<Vec<u8>, Vec<Vec<u8>>>, TestCaseError> {
    let mut model: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    let mut pending: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut ch = NoCharge;
    let mut insert = |k: Vec<u8>, v: Vec<u8>, pending: &mut Vec<(Vec<u8>, Vec<u8>)>| match t
        .insert_multivalued(&k, &v, &mut ch)
    {
        InsertStatus::Success => model.entry(k).or_default().push(v),
        InsertStatus::Postponed => pending.push((k, v)),
    };
    for op in script {
        match op {
            Op::Insert { key, value } => {
                insert(key_bytes(*key), vec![*value; value_len], &mut pending)
            }
            Op::EndIteration => {
                t.end_iteration();
                for (k, v) in std::mem::take(&mut pending) {
                    insert(k, v, &mut pending);
                }
            }
        }
    }
    let mut guard = 0;
    while !pending.is_empty() {
        t.end_iteration();
        for (k, v) in std::mem::take(&mut pending) {
            insert(k, v, &mut pending);
        }
        guard += 1;
        prop_assert!(guard < 50, "no progress draining pending inserts");
    }
    Ok(model)
}

/// The merge `collect_multivalued` performed before host compaction joined
/// a key's entries: walk the key pages in host-id order; a key's first
/// entry fixes its place, and the chains of its later entries are
/// concatenated onto its group.
fn concatenating_collector(t: &SepoTable) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    let pages: Vec<_> = t
        .host_heap()
        .pages()
        .iter()
        .map(|p| p.verify().expect("clean pages"))
        .collect();
    let page_of = |id: u64| {
        let at = pages.binary_search_by_key(&id, |p| p.host_id());
        &pages[at.expect("chains stay in the host image")]
    };
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut out: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
    for page in pages.iter().filter(|p| p.kind() == PageKind::Key) {
        for (_, e) in PageWalker::new(page.bytes(), EntryKind::Key) {
            let ParsedEntry::Key {
                key,
                value_host_cont,
            } = e
            else {
                continue;
            };
            let i = *index.entry(key.to_vec()).or_insert_with(|| {
                out.push((key.to_vec(), Vec::new()));
                out.len() - 1
            });
            let mut link = HostLink::from_raw(value_host_cont);
            while !link.is_null() {
                let page = page_of(link.host_page());
                let Some((Some(ParsedEntry::Value { value, next_host }), _)) =
                    parse_at(page.bytes(), link.offset() as usize, EntryKind::Value)
                else {
                    break;
                };
                out[i].1.push(value.to_vec());
                link = HostLink::from_raw(next_host);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Combining: whatever interleaving of inserts and evictions happens,
    /// the final per-key sums equal a HashMap fold over the *successful*
    /// inserts (retrying postponed ones next "iteration" like SEPO does).
    #[test]
    fn combining_matches_model(script in ops()) {
        let t = tiny_table(Organization::Combining(Combiner::Add), 2);
        let model = replay_combining(&t, &script)?;
        t.finalize();
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        prop_assert_eq!(got, model);
    }

    /// Multi-valued: grouped values equal the model's multiset per key.
    #[test]
    fn multivalued_matches_model(script in ops()) {
        let t = tiny_table(Organization::MultiValued, 3);
        let model = replay_multivalued(&t, &script, 3)?;
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
        for comb in [Combiner::Add, Combiner::Or] {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Host compaction folds exactly what the collectors used to merge:
    /// over a table evicted at arbitrary points, the compacted image
    /// collects to the collector fold of the uncompacted pages — same keys,
    /// values and first-eviction order — with one entry per key and no
    /// byte beyond the entries. Through the driver, multi-pair tasks give
    /// the model's values, and the compacted image is the same under
    /// `ParallelDeterministic` and `Parallel { workers: 2 }`, block combiner off
    /// and on.
    #[test]
    fn compaction_equals_the_collector_fold(script in ops()) {
        let tasks = tasks_of(&script);
        for comb in [Combiner::Add, Combiner::Or] {
            let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
            for (k, v) in tasks.iter().flatten() {
                model
                    .entry(k.clone())
                    .and_modify(|cur| *cur = comb.apply(*cur, *v))
                    .or_insert(*v);
            }
            for pages in [1, 2, 8] {
                let t = tiny_table(Organization::Combining(comb), pages);
                replay_combining(&t, &script)?;
                t.evict_boundary(&mut NoCharge, true, None, &[]);
                let want = collector_fold(&t, comb);
                t.compact_host().expect("clean pages");
                let got = t.collect_combining();
                prop_assert_eq!(&got, &want);
                let packed: usize = got
                    .iter()
                    .map(|(k, _)| sepo_core::entry::combining::size(k.len()))
                    .sum();
                prop_assert_eq!(t.host_footprint().1, packed as u64);

                let mut images = Vec::new();
                for combiner in [false, true] {
                    for mode in [ExecMode::ParallelDeterministic, ExecMode::Parallel { workers: 2 }] {
                        let (image, pairs) = drive(comb, pages, combiner, mode, &tasks);
                        prop_assert_eq!(pairs.len(), model.len(), "one entry per key");
                        let pairs: HashMap<Vec<u8>, u64> = pairs.into_iter().collect();
                        prop_assert_eq!(&pairs, &model);
                        images.push(image);
                    }
                }
                prop_assert!(
                    images.windows(2).all(|w| w[0] == w[1]),
                    "exec mode or block combiner changed the compacted image"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multi-valued host compaction joins exactly what the collectors used
    /// to concatenate: over heaps of three to six 1 KiB pages — small enough
    /// that pending key pages overflow the kept-page cap and keys re-enter
    /// under new entries — the compacted image collects to the
    /// concatenating collector's groups, keys and value order alike, and
    /// passes the audit's check of a compacted image.
    #[test]
    fn multivalued_compaction_equals_the_concatenating_collector(script in ops()) {
        for pages in [3, 4, 6] {
            let t = tiny_table(Organization::MultiValued, pages);
            replay_multivalued(&t, &script, 24)?;
            t.evict_boundary(&mut NoCharge, true, None, &[]);
            let want = concatenating_collector(&t);
            let entries = t.collect_multivalued().len();
            let report = t.compact_host().expect("clean pages");
            prop_assert!(entries == want.len() || report.is_some(), "duplicates left in place");
            let got = t.collect_multivalued();
            prop_assert_eq!(&got, &want);
            TableAudit::begin(&t).check_compacted(&t).expect("a compacted image");
        }
    }
}
