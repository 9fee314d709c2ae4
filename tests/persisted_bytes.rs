//! The bytes of every persisted layout, pinned: the `SEPOHST4` table image,
//! a mid-run `SEPOCKP6` checkpoint section and a two-shard `SEPOCKS3`
//! checkpoint file, each encoded from the same deterministic small
//! multi-valued table, must keep their length and CRC32C.
//!
//! Round trips cannot catch a format change made to the writer and the
//! reader alike; these constants do. A deliberate format change bumps the
//! magic and re-records them, saying so.

use gpu_sim::charge::NoCharge;
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::sync::Relaxed;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan};
use sepo_core::{
    crc32c, Bitmap, Checkpoint, CheckpointFile, EvictReport, IterationStats, Organization,
    SepoTable, TableConfig,
};
use std::sync::Arc;

/// `SEPOCKS3` header before the first section: magic, shard count, length.
const FILE_HEADER: usize = 8 + 4 + 4;

fn table() -> SepoTable {
    let cfg = TableConfig::new(Organization::MultiValued)
        .with_buckets(64)
        .with_buckets_per_group(16)
        .with_page_size(1024);
    SepoTable::new(cfg, 8 * 1024, Arc::new(Metrics::new()))
}

/// Insert `keys x rounds` pairs, evicting at every boundary until each
/// round is in, so host pages of both kinds exist.
fn fill(t: &SepoTable, keys: u32, rounds: u32) {
    for round in 0..rounds {
        let mut pending: Vec<u32> = (0..keys).collect();
        let mut boundaries = 0;
        while !pending.is_empty() {
            pending.retain(|&i| {
                let (key, value) = (format!("key-{i:03}"), format!("r{round}-v{i}"));
                !t.insert_multivalued(key.as_bytes(), value.as_bytes(), &mut NoCharge)
                    .is_success()
            });
            t.end_iteration();
            boundaries += 1;
            assert!(boundaries < 100);
        }
    }
}

fn iteration(i: u32) -> IterationStats {
    IterationStats {
        iteration: i,
        tasks_attempted: 100 + u64::from(i),
        tasks_completed: 90,
        input_bytes: 1600,
        chunks: 2,
        kernel: Snapshot::from_words(std::array::from_fn(|w| (100 * i as usize + w) as u64)),
        evict: EvictReport {
            evicted_pages: 3,
            evicted_bytes: 3000,
            kept_pages: 1,
            kept_bytes: 64,
        },
        halted_early: i == 2,
    }
}

/// A boundary of a run over `t` after `iterations` iterations, with the
/// lane-abort stream's counters when `plan` is given.
fn capture(t: &SepoTable, iterations: u32, plan: Option<&FaultPlan>) -> Checkpoint {
    let done = Bitmap::new(300);
    for i in (0..300).step_by(3) {
        done.set(i);
    }
    let progress: Vec<Relaxed<u32>> = (0..300).map(|i| Relaxed::new(i % 5)).collect();
    let iters: Vec<IterationStats> = (1..=iterations).map(iteration).collect();
    Checkpoint::capture(t, &done, &progress, &iters, 1, plan)
}

/// `(length, CRC32C of everything before the trailer)` of a sealed image.
/// The CRC32C of a whole image, trailer included, is the same constant for
/// every image (the CRC residue), so it would pin nothing.
fn pin(image: &[u8]) -> (usize, u32) {
    (image.len(), crc32c(&image[..image.len() - 4]))
}

fn file_bytes(shards: &[&Checkpoint], tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("sepo-pinned-{tag}-{}.ckp", std::process::id()));
    let file = CheckpointFile::new(path.clone(), shards.len() as u32);
    for (shard, ckp) in shards.iter().enumerate() {
        assert_eq!(file.update(shard as u32, ckp, None).unwrap(), 0);
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

#[test]
fn every_persisted_layout_keeps_its_bytes() {
    let t = table();
    fill(&t, 40, 2);
    // A few pairs past the last boundary: the section carries resident
    // key and value pages beside the evicted host pages.
    for i in 0..5 {
        let value = format!("tail-{i}");
        assert!(t
            .insert_multivalued(b"key-007", value.as_bytes(), &mut NoCharge)
            .is_success());
    }
    let plan = FaultPlan::new(FaultConfig::quiet(5).rate(FaultKind::LaneAbort, 0.5));
    for _ in 0..10 {
        let _ = plan.should_abort_lane();
    }
    let mid_run = capture(&t, 2, Some(&plan));
    let later = capture(&t, 3, None);

    let one = file_bytes(&[&mid_run], "one");
    let section = &one[FILE_HEADER..one.len() - 4];
    assert_eq!(section.len() as u64, mid_run.encoded_size());
    assert_eq!(&section[..8], b"SEPOCKP6");
    assert_eq!(pin(section), (8_321, 0x16DB_F52C), "SEPOCKP6 section");

    let two = file_bytes(&[&mid_run, &later], "two");
    assert_eq!(&two[..8], b"SEPOCKS3");
    assert_eq!(pin(&two), (16_851, 0xD431_4724), "two-shard SEPOCKS3 file");

    t.finalize();
    let mut image = Vec::new();
    t.save(&mut image).unwrap();
    assert_eq!(&image[..8], b"SEPOHST4");
    assert_eq!(pin(&image), (3_742, 0xCF7B_CC6A), "SEPOHST4 image");
}
