//! Saving and restoring finalized tables.
//!
//! The host heap — the CPU-side image of the whole table — is
//! self-describing, so a finalized table can be written to disk and
//! restored later for host-side queries ([`crate::serve::HostStore`]),
//! device-side lookup phases ([`crate::lookup`]), or even further insert
//! iterations (restored heaps continue the host-id sequence so dual
//! pointers never collide).
//!
//! Format (`SEPOHST3`, little-endian; the field list `Image` is its code
//! form):
//!
//! ```text
//! magic       8 bytes  "SEPOHST3"
//! org         1 byte   0 basic | 1 multi-valued | 2..=3 combining Add/Or
//! page count  u32
//! per page:   host_id u64, kind u8 (1 mixed | 2 key | 3 value), crc u32,
//!             len u32, bytes
//! trailer     u32      CRC32C of every preceding byte (magic included)
//! ```
//!
//! The trailer is verified *before* any structural parsing, so a flipped
//! bit anywhere in the file — header, payload, even the trailer itself —
//! is rejected as a checksum error, never parsed into a silently wrong
//! table. The per-page `crc` words carry each page's eviction-time stamp
//! ([`crate::integrity`]) across the round trip, keeping the detection
//! chain end-to-end: a restored page re-verifies against the checksum
//! computed when it originally left the device.
//!
//! The pages are the finalized table's host heap verbatim, so the format
//! also fixes what they hold: every combining and multi-valued key entry
//! carries its key tag ([`tagged_lens`](crate::entry::tagged_lens)), and
//! [`SepoTable::save`] compacts the image to one entry per key before it
//! writes it.
//! A `SEPOHST2` image may hold untagged entries (saved before the tags)
//! or a key twice (saved before compaction); it is refused as not a
//! `SEPOHST3` image rather than repaired on load.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::config::{Combiner, Organization, TableConfig};
use crate::table::SepoTable;
use gpu_sim::metrics::Metrics;
use sepo_alloc::codec::{append_trailer, Codec, List, Sink, Source, U8};
use sepo_alloc::{record, PageRecord, StampedPage};
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SEPOHST3";

/// A saved table: its organization and its host pages.
struct HostImage {
    org: Organization,
    pages: Vec<StampedPage>,
}

record! {
    /// The `SEPOHST3` image after its magic: the code form of the layout
    /// in the module docs.
    Image: HostImage {
        org: U8("organization tag"),
        pages: List("page count", PageRecord),
    }
}

fn org_tag(org: Organization) -> u8 {
    match org {
        Organization::Basic => 0,
        Organization::MultiValued => 1,
        Organization::Combining(Combiner::Add) => 2,
        Organization::Combining(Combiner::Or) => 3,
    }
}

fn org_from_tag(tag: u8) -> io::Result<Organization> {
    Ok(match tag {
        0 => Organization::Basic,
        1 => Organization::MultiValued,
        2 => Organization::Combining(Combiner::Add),
        3 => Organization::Combining(Combiner::Or),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown organization tag {other}"),
            ))
        }
    })
}

impl Codec<Organization> for U8 {
    fn put(&self, org: &Organization, out: &mut impl Sink) {
        self.put(&org_tag(*org), out);
    }

    fn take(&self, src: &mut Source<'_>) -> io::Result<Organization> {
        org_from_tag(self.take(src)?)
    }
}

impl SepoTable {
    /// Write this table's host image to `w`, first compacting it to one
    /// entry per key ([`SepoTable::compact_host`]; an image already
    /// compacted is left as it is). Every page must be on the host, as
    /// after [`SepoTable::finalize`] or a driver run: a table with resident
    /// pages is refused with [`io::ErrorKind::InvalidInput`], since their
    /// entries would be lost.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if self.heap().free_pages() != self.heap().total_pages() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "save requires finalize(): resident pages would be lost",
            ));
        }
        self.compact_host()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let image = HostImage {
            org: self.config().organization,
            pages: self.host_heap().pages(),
        };
        for page in &image.pages {
            // A page that no longer matches its stamp must not be laundered
            // into an image whose trailer vouches for it.
            page.verify()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        }
        let mut buf = MAGIC.to_vec();
        Image.put(&image, &mut buf);
        append_trailer(&mut buf);
        w.write_all(&buf)
    }

    /// Restore a table from a saved image. The returned table has an empty
    /// device heap of `heap_bytes` (shaped by a tuned config for the saved
    /// organization) and the full host image; its host-id sequence resumes
    /// past every stored id, so further SEPO insert iterations are safe.
    ///
    /// The image's trailing checksum is verified before anything is
    /// parsed, and every page's persisted stamp is re-verified against its
    /// payload — a damaged file is rejected with a typed checksum error,
    /// never restored into a silently wrong table. An image of an earlier
    /// format (`SEPOHST2`) is refused the same way, naming its magic.
    pub fn load<R: Read>(r: &mut R, heap_bytes: u64, metrics: Arc<Metrics>) -> io::Result<Self> {
        let mut image = Vec::new();
        r.read_to_end(&mut image)?;
        // An image too short for its magic is truncated, whatever its last
        // four bytes say.
        Source::new(&image, MAGIC).take(MAGIC.len(), "magic")?;
        let mut src = Source::open(&image, MAGIC)?;
        src.magic()?;
        let HostImage { org, pages } = Image.take(&mut src)?;

        let table = SepoTable::new(TableConfig::tuned(org, heap_bytes), heap_bytes, metrics);
        // The host-id sequence resumes past every restored page.
        let max_id = pages.iter().map(StampedPage::host_id).max().unwrap_or(0);
        table.heap.advance_host_ids(max_id + 1);
        table.host.restore(&pages);
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::HostStore;
    use gpu_sim::charge::NoCharge;
    use gpu_sim::executor::{ExecMode, Executor};
    use std::collections::HashMap;

    fn build(n: usize) -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()));
        let mut ch = NoCharge;
        let mut pending: Vec<usize> = (0..n).collect();
        let mut guard = 0;
        while !pending.is_empty() {
            pending.retain(|&i| {
                !t.insert_combining(format!("key-{i:04}").as_bytes(), i as u64, &mut ch)
                    .is_success()
            });
            t.end_iteration();
            guard += 1;
            assert!(guard < 100);
        }
        t.finalize();
        t
    }

    #[test]
    fn save_load_round_trips_results() {
        let t = build(300);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let restored =
            SepoTable::load(&mut buf.as_slice(), 4 * 1024, Arc::new(Metrics::new())).unwrap();
        let a: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        let b: HashMap<Vec<u8>, u64> = restored.collect_combining().into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trip_preserves_page_checksum_stamps() {
        let t = build(100);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let restored =
            SepoTable::load(&mut buf.as_slice(), 4 * 1024, Arc::new(Metrics::new())).unwrap();
        let before = t.host_heap().pages();
        let after = restored.host_heap().pages();
        assert!(!before.is_empty());
        assert_eq!(before, after, "ids, kinds, stamps and bytes all survive");
        for page in &after {
            assert!(page.verify().is_ok(), "stamp must match payload");
        }
    }

    #[test]
    fn restored_tables_serve_host_queries_and_lookups() {
        let t = build(200);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let restored =
            SepoTable::load(&mut buf.as_slice(), 8 * 1024, Arc::new(Metrics::new())).unwrap();
        let idx = HostStore::of_finalized(&restored).unwrap();
        assert_eq!(idx.get_combined(b"key-0007"), Ok(Some(7)));
        let exec = Executor::new(
            ExecMode::ParallelDeterministic,
            Arc::clone(restored.metrics()),
        );
        let out = restored.lookup_phase(&exec, &[b"key-0003", b"missing"]);
        assert_eq!(out.results, vec![Some(3), None]);
    }

    #[test]
    fn restored_tables_accept_further_inserts_without_id_collisions() {
        let t = build(150);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let restored =
            SepoTable::load(&mut buf.as_slice(), 4 * 1024, Arc::new(Metrics::new())).unwrap();
        // Insert a second wave under memory pressure; eviction must not
        // overwrite any stored page (ids resume past the saved maximum).
        let mut ch = NoCharge;
        let mut pending: Vec<usize> = (1000..1200).collect();
        let mut guard = 0;
        while !pending.is_empty() {
            pending.retain(|&i| {
                !restored
                    .insert_combining(format!("key-{i:04}").as_bytes(), 1, &mut ch)
                    .is_success()
            });
            restored.end_iteration();
            guard += 1;
            assert!(guard < 100);
        }
        restored.finalize();
        let got: HashMap<Vec<u8>, u64> = restored.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 350, "old and new keys must coexist");
        assert_eq!(got[&b"key-0005".to_vec()], 5);
        assert_eq!(got[&b"key-1005".to_vec()], 1);
    }

    #[test]
    fn combining_tags_are_two_and_three_and_retired_tags_are_refused() {
        for (comb, tag) in [(Combiner::Add, 2), (Combiner::Or, 3)] {
            let org = Organization::Combining(comb);
            assert_eq!(org_tag(org), tag);
            assert_eq!(org_from_tag(tag).unwrap(), org);
        }
        for tag in [4, 5] {
            let err = org_from_tag(tag).unwrap_err();
            assert_eq!(err.to_string(), format!("unknown organization tag {tag}"));
        }
    }

    #[test]
    fn garbage_input_is_rejected_cleanly() {
        let err = SepoTable::load(
            &mut &b"not a table image"[..],
            4 * 1024,
            Arc::new(Metrics::new()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("SEPOHST3"), "{err}");
        // Truncation at *every* byte offset must be rejected with a
        // descriptive SEPOHST3 error — the truncation message for cuts
        // inside the fixed header, the checksum error once enough bytes
        // remain to carry a (now wrong) trailer — never a bare EOF and
        // never a partial table.
        let t = build(20);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        for len in 0..buf.len() {
            let err =
                SepoTable::load(&mut &buf[..len], 4 * 1024, Arc::new(Metrics::new())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix of {len}");
            let msg = err.to_string();
            assert!(
                msg.contains("truncated SEPOHST3 image")
                    || msg.contains("SEPOHST3 image failed checksum verification"),
                "prefix of {len}: unexpected message {msg:?}"
            );
        }
    }

    /// ISSUE satellite: a single flipped bit at *every* byte offset —
    /// header, page records, payload bytes, even the checksum trailer
    /// itself — must surface as a checksum error naming the section, never
    /// a panic and never a silently wrong image.
    #[test]
    fn single_bit_flip_at_every_byte_is_rejected_with_checksum_error() {
        let t = build(20);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 1 << (at % 8);
            let err = SepoTable::load(&mut bad.as_slice(), 4 * 1024, Arc::new(Metrics::new()))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {at}");
            let msg = err.to_string();
            assert!(
                msg.contains("SEPOHST3 image failed checksum verification"),
                "flip at byte {at}: unexpected message {msg:?}"
            );
        }
    }

    /// A multi-valued table, never finalized, whose two boundaries evicted
    /// every key page: each of its 20 keys owns two host entries.
    fn evicted_twice() -> SepoTable {
        let cfg = TableConfig::new(Organization::MultiValued)
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 16 * 1024, Arc::new(Metrics::new()));
        for round in 0..2 {
            for i in 0..20 {
                let (key, value) = (format!("key-{i:02}"), format!("v{round}-{i}"));
                assert!(t
                    .insert_multivalued(key.as_bytes(), value.as_bytes(), &mut NoCharge)
                    .is_success());
            }
            assert_eq!(t.end_iteration().kept_pages, 0);
        }
        assert_eq!(t.collect_multivalued().len(), 40, "every key twice");
        t
    }

    /// Saving compacts: the image of a table whose boundaries evicted
    /// everything, but which was never finalized, loads with each key once
    /// and every value. A table with resident pages is refused typed.
    #[test]
    fn an_unfinalized_table_saves_compacted_and_a_resident_one_is_refused() {
        let t = evicted_twice();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let restored =
            SepoTable::load(&mut buf.as_slice(), 16 * 1024, Arc::new(Metrics::new())).unwrap();
        let groups = restored.collect_multivalued();
        assert_eq!(groups.len(), 20);
        for (key, mut values) in groups {
            let i: u32 = std::str::from_utf8(&key[4..]).unwrap().parse().unwrap();
            let want = [format!("v0-{i}"), format!("v1-{i}")].map(String::into_bytes);
            values.sort();
            assert_eq!(values, want);
        }

        assert!(t
            .insert_multivalued(b"key-00", b"resident", &mut NoCharge)
            .is_success());
        let err = t.save(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A `SEPOHST2` image, which an earlier build could save uncompacted,
    /// is refused typed by its magic alone, naming both magics.
    #[test]
    fn a_sepohst2_image_is_refused() {
        let t = evicted_twice();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        buf[..8].copy_from_slice(b"SEPOHST2");
        append_trailer(&mut buf);

        let err =
            SepoTable::load(&mut buf.as_slice(), 16 * 1024, Arc::new(Metrics::new())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "not a SEPOHST3 image (magic SEPOHST2)");
    }
}
