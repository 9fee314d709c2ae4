//! One damaged host page — an evicted page re-stored with a flipped byte
//! under its old stamp — must be refused, with the page's host id, by every
//! host-side reader of a finalized table: typed where the signature allows,
//! in the panic text otherwise. None may answer from the damaged bytes.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::{Metrics, NoCharge};
use sepo_alloc::StampedPage;
use sepo_core::{canonical_image, Combiner, HostStore, Organization, SepoTable, TableConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const ADD: Organization = Organization::Combining(Combiner::Add);

/// A finalized table of `org` built through several forced evictions.
fn pressured(org: Organization) -> SepoTable {
    let cfg = TableConfig::new(org)
        .with_buckets(64)
        .with_buckets_per_group(16)
        .with_page_size(1024);
    let t = SepoTable::new(cfg, 3 * 1024, Arc::new(Metrics::new()));
    let mut ch = NoCharge;
    let mut pending: Vec<usize> = (0..120).collect();
    let mut iterations = 0;
    while !pending.is_empty() {
        pending.retain(|&i| {
            let (k, v) = (format!("key-{:03}", i % 60), format!("value-{i:04}"));
            let status = match org {
                Organization::Basic => t.insert_basic(k.as_bytes(), v.as_bytes(), &mut ch),
                Organization::MultiValued => {
                    t.insert_multivalued(k.as_bytes(), v.as_bytes(), &mut ch)
                }
                Organization::Combining(_) => t.insert_combining(k.as_bytes(), 1, &mut ch),
            };
            !status.is_success()
        });
        t.end_iteration();
        iterations += 1;
        assert!(iterations < 100, "no progress");
    }
    assert!(iterations > 1, "the fixture needs memory pressure");
    t.finalize();
    t
}

/// Flip one byte of the first evicted page in place, keeping its stamp.
/// Returns the page's host id.
fn damage_first_page(t: &SepoTable) -> u64 {
    let page = t.host_heap().pages().remove(0);
    let mut bytes = page.verify().expect("clean so far").bytes().to_vec();
    bytes[0] ^= 0x40;
    t.host_heap().store(StampedPage::from_parts(
        page.host_id(),
        page.kind(),
        bytes,
        page.crc(),
    ));
    page.host_id()
}

/// How a reader refuses: `Err(text)` when its signature is fallible,
/// a panic otherwise.
type Reader = fn(&SepoTable) -> Result<(), String>;

#[test]
fn every_host_side_reader_refuses_a_damaged_page_by_host_id() {
    let readers: [(&str, Organization, bool, Reader); 8] = [
        ("collect_combining", ADD, false, |t| {
            t.collect_combining();
            Ok(())
        }),
        ("collect_basic", Organization::Basic, false, |t| {
            t.collect_basic();
            Ok(())
        }),
        (
            "collect_multivalued",
            Organization::MultiValued,
            false,
            |t| {
                t.collect_multivalued();
                Ok(())
            },
        ),
        ("table_stats", ADD, false, |t| {
            t.table_stats();
            Ok(())
        }),
        ("canonical_image", ADD, false, |t| {
            canonical_image(&[t]);
            Ok(())
        }),
        ("try_lookup_phase", ADD, true, |t| {
            let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
            let out = t.try_lookup_phase(&exec, &[b"key-007"]);
            out.map(drop).map_err(|e| e.to_string())
        }),
        ("SepoTable::save", ADD, true, |t| {
            t.save(&mut Vec::new()).map_err(|e| e.to_string())
        }),
        ("HostStore::of_finalized", ADD, true, |t| {
            HostStore::of_finalized(t)
                .map(drop)
                .map_err(|e| e.to_string())
        }),
    ];
    for (name, org, typed, read) in readers {
        let t = pressured(org);
        assert_eq!(read(&t), Ok(()), "{name} must accept the clean table");
        let host_id = damage_first_page(&t);
        let refusal = match catch_unwind(AssertUnwindSafe(|| read(&t))) {
            Ok(Ok(())) => panic!("{name} answered from damaged host page {host_id}"),
            Ok(Err(text)) => {
                assert!(
                    typed,
                    "{name} has no fallible signature, yet returned {text:?}"
                );
                text
            }
            Err(payload) => {
                assert!(!typed, "{name} must return its error, not panic");
                let text = payload.downcast_ref::<String>().cloned();
                text.unwrap_or_else(|| panic!("{name} panicked without a message"))
            }
        };
        let want = format!("host page {host_id} failed checksum verification");
        assert!(
            refusal.contains(&want),
            "{name}: {refusal:?} lacks {want:?}"
        );
    }
}
