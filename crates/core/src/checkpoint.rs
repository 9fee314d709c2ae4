//! Iteration-boundary checkpoints for hard-fault recovery.
//!
//! An iteration boundary is the driver's quiescent frontier: every kernel
//! of the iteration has retired, eviction has run, and no device work is in
//! flight. Everything that distinguishes one boundary from another fits in
//! a [`Checkpoint`] — the bucket heads (raw dual-pointer words), a
//! bit-exact physical snapshot of the device heap ([`HeapSnapshot`]),
//! shared references to the evicted host pages, the done bitmap and
//! per-task pair progress, the per-iteration accounting gathered so far,
//! and the statistics counters (metrics, touches, per-group allocation
//! counts, the lane-abort stream's draw counters) that a resumed run must
//! report identically to an unkilled one.
//!
//! Restoring a checkpoint into the *same* table shape reproduces the
//! boundary exactly: pool order, raw page heads, host-id sequence, even
//! the stale bytes a partially-executed killed iteration wrote past the
//! checkpointed heads (replayed iterations rewrite them deterministically,
//! so they are invisible). Hard-fault draw counters are deliberately *not*
//! part of a checkpoint — restoring them would make a seeded
//! `DeviceLost` re-fire at the same draw and kill the run forever.
//!
//! On disk a checkpoint is one `SEPOCKS3` file ([`CheckpointFile`])
//! holding one `SEPOCKP5` section per shard; a one-device run writes a
//! one-section file. Each shard's driver replaces its own section at every
//! boundary, and resume reads every section back with
//! [`CheckpointFile::read`]. A section of length 0 belongs to a shard that
//! has not checkpointed yet.
//!
//! File layout (`SEPOCKS3`, little-endian; the field list `SHARDS` is its
//! code form):
//!
//! ```text
//! magic        8 bytes  "SEPOCKS3"
//! shard count  u32
//! sections     per shard: len u32, len bytes of SEPOCKP5 section
//! trailer      u32      CRC32C of every preceding byte
//! ```
//!
//! Section layout (`SEPOCKP5`, little-endian; the field list `Section` is
//! its code form, which writes, reads and sizes a section):
//!
//! ```text
//! magic        8 bytes  "SEPOCKP5"
//! iteration    u32      completed iterations at capture
//! fault_stalls u32      consecutive fault-stalled iterations
//! n_tasks      u64
//! done words   u32 count, count x u64
//! progress     u32 count, count x u32
//! heads        u32 count, count x u64   raw bucket words
//! touches      u32 count, count x u32
//! group allocs u32 count, count x u64
//! metrics      17 x u64                 absolute counter snapshot
//! transient    u8 flag; if 1: lane draws u64, lane aborts u64
//! iterations   u32 count, per entry:
//!              iteration u32, chunks u32, halted u8,
//!              attempted/completed/input_bytes u64, kernel 17 x u64,
//!              evict 4 x u64
//! device heap  page_size/next_host_id/wasted/acquired u64,
//!              total_pages u32, pool u32 count + u32 x n,
//!              resident u32 count, per page:
//!              index/pending/head u32, host_id u64, kind u8,
//!              len u32, bytes
//! host pages   u32 count, per page the `SEPOHST3` page record: id u64,
//!              kind u8, crc u32, len u32, bytes — crc is the CRC32C stamp
//!              the page carried at eviction, re-verified against the
//!              bytes at load
//! trailer      u32      CRC32C of every preceding byte
//! ```
//!
//! The resident page bytes are the device heap verbatim, so the section
//! also fixes the entry layout: combining and key entries carry a key tag
//! in their length words ([`tagged_lens`](crate::entry::tagged_lens)).
//! A `SEPOCKP3` section predates the tags; its resident entries would
//! match no chain walk, and a run resumed from it would insert every
//! resident key a second time. A `SEPOCKP4` section carries a per-page
//! kept byte that nothing read. Both are refused as not a `SEPOCKP5`
//! image. The file layout around the sections did not change.
//!
//! Both trailers are verified against their whole image *before* any
//! structural parsing, so any single flipped bit anywhere in a checkpoint
//! file is rejected with a checksum error naming the format, never a
//! panic or a silently different boundary. Every write goes through a
//! write/read-back/verify loop ([`CheckpointFile::update`]) that rewrites
//! the file when a seeded disk byte flip damaged it in flight, giving up
//! with a checksum error after [`MAX_CHECKPOINT_REWRITES`] rewrites.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bitmap::Bitmap;
use crate::evict::EvictReport;
use crate::integrity;
use crate::sepo::IterationStats;
use crate::table::SepoTable;
use gpu_sim::metrics::{Counter, Snapshot};
use gpu_sim::sync::Relaxed;
use gpu_sim::{FaultKind, FaultPlan, TransientDrawState};
use sepo_alloc::codec::{append_trailer, Bytes, Codec, List, Opt, Sink, Source, U32, U64, U8};
use sepo_alloc::{record, HeapSnapshot, PageRecord, ResidentPage, StampedPage};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SEPOCKP5";
const FILE_MAGIC: &[u8; 8] = b"SEPOCKS3";
// Each image stores `Snapshot::words()` verbatim, so the counter table is
// part of the format: adding, removing or reordering a counter must bump
// both magics.
const _: () = assert!(Counter::N == 17, "counter table changed: bump the magic");

/// The `SEPOCKS3` file after its magic: a section per shard, empty if none.
const SHARDS: List<Bytes> = List(
    "shard count",
    Bytes("shard section length", "shard section"),
);

record! {
    /// The `SEPOCKP5` section after its magic: the code form of the layout
    /// in the module docs.
    Section: Checkpoint {
        iteration: U32("iteration"),
        fault_stalls: U32("fault stalls"),
        n_tasks: U64("task count"),
        done_words: List("done bitmap", U64("done bitmap")),
        progress: List("task progress", U32("task progress")),
        heads: List("bucket heads", U64("bucket heads")),
        touches: List("bucket touches", U32("bucket touches")),
        group_allocs: List("group alloc counts", U64("group alloc counts")),
        metrics: Counters("metrics"),
        transient: Opt("transient flag", Draws),
        iterations: List("iteration count", Iteration),
        heap: Heap,
        host_pages: List("host page count", PageRecord),
    }
}

record! {
    Draws: TransientDrawState {
        draws: U64("transient draws"),
        injected: U64("transient injections"),
    }
}

record! {
    Iteration: IterationStats {
        iteration: U32("iteration number"),
        chunks: U32("iteration chunks"),
        halted_early: U8("iteration halt flag"),
        tasks_attempted: U64("iteration attempts"),
        tasks_completed: U64("iteration completions"),
        input_bytes: U64("iteration input bytes"),
        kernel: Counters("iteration kernel delta"),
        evict: Evict,
    }
}

record! {
    Evict: EvictReport {
        evicted_pages: U64("evict pages"),
        evicted_bytes: U64("evict bytes"),
        kept_pages: U64("kept pages"),
        kept_bytes: U64("kept bytes"),
    }
}

record! {
    Heap: HeapSnapshot {
        page_size: U64("heap page size"),
        next_host_id: U64("heap next host id"),
        wasted: U64("heap wasted bytes"),
        acquired_total: U64("heap acquired total"),
        total_pages: U32("heap page count"),
        pool: List("heap free pool", U32("heap free pool")),
        resident: List("resident page count", Resident),
    }
}

record! {
    Resident: ResidentPage {
        index: U32("resident page index"),
        pending_keys: U32("resident pending keys"),
        head: U32("resident page head"),
        host_id: U64("resident host id"),
        kind: U8("resident page kind"),
        data: Bytes("resident page length", "resident page payload"),
    }
}

/// A counter snapshot: one `u64` per [`Counter`], in declaration order,
/// each named `.0`.
struct Counters(&'static str);

impl Codec<Snapshot> for Counters {
    fn put(&self, s: &Snapshot, out: &mut impl Sink) {
        s.words().iter().for_each(|w| U64(self.0).put(w, out));
    }

    fn take(&self, src: &mut Source<'_>) -> io::Result<Snapshot> {
        let mut words = [0u64; Counter::N];
        for w in &mut words {
            *w = U64(self.0).take(src)?;
        }
        Ok(Snapshot::from_words(words))
    }
}

/// How many times a checkpoint write is retried when read-back
/// verification finds the on-disk image damaged (seeded disk byte
/// flips), before the write surfaces a checksum error.
pub const MAX_CHECKPOINT_REWRITES: u32 = 8;

/// Write `image` to `path`, read it back, and verify its checksum
/// trailer, rewriting (bounded by [`MAX_CHECKPOINT_REWRITES`]) when a
/// seeded disk byte flip from `plan` damaged the bytes in flight.
/// Returns the number of rewrites a caller can fold into its recovery
/// accounting.
fn write_image_verified(path: &Path, image: &[u8], plan: Option<&FaultPlan>) -> io::Result<u32> {
    let mut rewrites = 0u32;
    loop {
        match plan.and_then(|p| p.draw(FaultKind::DiskByteFlip)) {
            Some(hit) => {
                // The write is damaged in flight: flip one byte of what
                // actually lands on disk.
                let mut damaged = image.to_vec();
                integrity::flip_byte_in_place(&mut damaged, hit.entropy);
                std::fs::write(path, &damaged)?;
            }
            None => std::fs::write(path, image)?,
        }
        match Source::open(&std::fs::read(path)?, FILE_MAGIC) {
            Ok(_) => return Ok(rewrites),
            Err(err) if rewrites >= MAX_CHECKPOINT_REWRITES => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "SEPOCKS3 write failed verification after \
                         {MAX_CHECKPOINT_REWRITES} rewrites: {err}"
                    ),
                ))
            }
            Err(_) => rewrites += 1,
        }
    }
}

/// Where (and whether) the driver checkpoints at iteration boundaries.
#[derive(Debug, Clone, Default)]
pub enum CheckpointPolicy {
    /// No checkpointing: a hard fault is fatal.
    #[default]
    Off,
    /// Keep the latest checkpoint in memory (host pages are shared `Arc`s,
    /// so the marginal cost is the resident device bytes).
    Memory,
    /// Keep the latest checkpoint in memory *and* write it through to
    /// this shard's section of a [`CheckpointFile`] after every boundary,
    /// so a separate process can resume after the original one dies.
    Disk(Arc<CheckpointFile>, u32),
}

impl CheckpointPolicy {
    /// Is checkpointing enabled at all?
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CheckpointPolicy::Off)
    }
}

/// The writer behind [`CheckpointPolicy::Disk`]: one `SEPOCKS3` file
/// holding every shard's latest boundary checkpoint as a `SEPOCKP5`
/// section (one section for a one-device run).
///
/// Shard drivers run concurrently, so updates serialize behind a mutex;
/// each update replaces one shard's section and rewrites the file whole.
pub struct CheckpointFile {
    path: PathBuf,
    sections: parking_lot::Mutex<Vec<Vec<u8>>>,
}

impl std::fmt::Debug for CheckpointFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointFile")
            .field("path", &self.path)
            .field("shards", &self.sections.lock().len())
            .finish()
    }
}

impl CheckpointFile {
    /// A file for `shard_count` shards at `path`. Sections start empty
    /// ("not yet checkpointed"); the file is not written until the first
    /// [`CheckpointFile::update`].
    pub fn new(path: PathBuf, shard_count: u32) -> CheckpointFile {
        assert!(shard_count >= 1, "a checkpoint file needs shards");
        CheckpointFile {
            path,
            sections: parking_lot::Mutex::new(vec![Vec::new(); shard_count as usize]),
        }
    }

    /// Replace `shard`'s section with `ckp` and rewrite the file. The
    /// rewritten file is read back and its checksum trailer verified,
    /// rewriting when `plan` flipped a byte in flight. Returns the number
    /// of rewrites.
    pub fn update(
        &self,
        shard: u32,
        ckp: &Checkpoint,
        plan: Option<&FaultPlan>,
    ) -> io::Result<u32> {
        let buf = ckp.image()?;
        // Hold the sections lock across the file write *and* its read-back
        // verification: concurrent shards updating the same file must not
        // interleave, or a shard reads back its neighbor's in-flight write
        // (torn, or damaged by the neighbor's injected flip) and the
        // rewrite accounting no longer matches the injections one-to-one.
        let mut sections = self.sections.lock();
        let n = sections.len();
        let slot = sections.get_mut(shard as usize).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {shard} out of {n}"),
            )
        })?;
        *slot = buf;
        let mut image = FILE_MAGIC.to_vec();
        SHARDS.put(&sections, &mut image);
        append_trailer(&mut image);
        write_image_verified(&self.path, &image, plan)
    }

    /// Load a `SEPOCKS3` file: one entry per shard, `None` for a shard
    /// that had not checkpointed when the file was last written. The
    /// file's checksum trailer is verified against the whole file before
    /// any section is parsed.
    pub fn read(path: &Path) -> io::Result<Vec<Option<Checkpoint>>> {
        let image = std::fs::read(path)?;
        let mut src = Source::open(&image, FILE_MAGIC)?;
        if src.take(FILE_MAGIC.len(), "magic")? != FILE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a SEPOCKS3 file",
            ));
        }
        let sections: Vec<Vec<u8>> = SHARDS.take(&mut src)?;
        let section = |s: &Vec<u8>| (!s.is_empty()).then(|| Checkpoint::from_section(s));
        sections.iter().map(|s| section(s).transpose()).collect()
    }
}

/// Everything needed to resume a SEPO run from an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    iteration: u32,
    fault_stalls: u32,
    n_tasks: u64,
    done_words: Vec<u64>,
    progress: Vec<u32>,
    heads: Vec<u64>,
    touches: Vec<u32>,
    group_allocs: Vec<u64>,
    metrics: Snapshot,
    transient: Option<TransientDrawState>,
    iterations: Vec<IterationStats>,
    heap: HeapSnapshot,
    host_pages: Vec<StampedPage>,
}

impl Checkpoint {
    /// Capture the boundary state of a run over `table`. Quiescent callers
    /// only — the driver calls this right after eviction, before launching
    /// the next iteration.
    pub fn capture(
        table: &SepoTable,
        done: &Bitmap,
        progress: &[Relaxed<u32>],
        iterations: &[IterationStats],
        fault_stalls: u32,
        faults: Option<&FaultPlan>,
    ) -> Checkpoint {
        Checkpoint {
            iteration: iterations.len() as u32,
            fault_stalls,
            n_tasks: done.len() as u64,
            done_words: done.snapshot_words(),
            progress: progress.iter().map(Relaxed::get).collect(),
            heads: table.snapshot_heads(),
            touches: table.touch_counts(),
            group_allocs: table.groups.alloc_counts(),
            metrics: table.metrics().snapshot(),
            transient: faults.map(|p| p.transient_snapshot()),
            iterations: iterations.to_vec(),
            heap: table.heap.snapshot(),
            host_pages: table.host.pages(),
        }
    }

    /// Rebuild the captured boundary on `table` and the driver's run state.
    ///
    /// The table must have the shape the checkpoint was captured from
    /// (bucket count, heap geometry, group count) — recovery reuses the
    /// same table, and cross-process resume builds one from the same
    /// configuration. Panics on a shape mismatch.
    ///
    /// The lane-abort stream's counters are rolled back (so replayed
    /// iterations re-draw the same lane aborts); hard-fault draw
    /// counters are left alone (so the fault that killed the run is not
    /// deterministically re-drawn at the same point forever).
    pub fn restore(
        &self,
        table: &SepoTable,
        done: &Bitmap,
        progress: &[Relaxed<u32>],
        iterations: &mut Vec<IterationStats>,
        fault_stalls: &mut u32,
        faults: Option<&FaultPlan>,
    ) {
        assert_eq!(
            self.progress.len(),
            progress.len(),
            "checkpoint task count mismatch"
        );
        table.restore_heads(&self.heads);
        table.groups.reset_iteration();
        table.groups.restore_alloc_counts(&self.group_allocs);
        table.heap.restore(&self.heap);
        table.host.restore(&self.host_pages);
        table.restore_touches(&self.touches);
        table.metrics().restore(&self.metrics);
        if let (Some(plan), Some(t)) = (faults, self.transient.as_ref()) {
            plan.restore_transient(t);
        }
        done.restore_words(&self.done_words);
        for (p, &v) in progress.iter().zip(&self.progress) {
            p.set(v);
        }
        *iterations = self.iterations.clone();
        *fault_stalls = self.fault_stalls;
    }

    /// Number of completed iterations at capture time.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Total tasks of the run this checkpoint belongs to.
    pub fn n_tasks(&self) -> u64 {
        self.n_tasks
    }

    /// Exact size in bytes of this checkpoint's `SEPOCKP5` section — the
    /// footprint [`crate::RecoveryStats::checkpoint_bytes`] reports. Sized
    /// by the field list that writes the image, into a sink that only
    /// counts (no page byte is read).
    pub fn encoded_size(&self) -> u64 {
        // The magic and the checksum trailer frame the fields.
        let mut size = MAGIC.len() as u64 + 4;
        Section.put(self, &mut size);
        size
    }

    /// The `SEPOCKP5` image: the magic, the fields, and a CRC32C trailer
    /// over every preceding byte.
    fn image(&self) -> io::Result<Vec<u8>> {
        let mut image = MAGIC.to_vec();
        Section.put(self, &mut image);
        append_trailer(&mut image);
        Ok(image)
    }

    /// Decode a `SEPOCKP5` section. The whole-image checksum trailer
    /// is verified first, so any flipped bit anywhere is rejected with a
    /// checksum error before structural parsing begins; truncated input
    /// is rejected with an error naming the field that ended early.
    fn from_section(image: &[u8]) -> io::Result<Checkpoint> {
        let mut src = Source::open(image, MAGIC)?;
        src.magic()?;
        Section.take(&mut src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Combiner, Organization, TableConfig};
    use crate::evict::EvictReport;
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use std::collections::HashMap;

    fn small_table() -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()))
    }

    /// Insert `range` keys to completion, evicting at boundaries so host
    /// pages exist.
    fn fill(t: &SepoTable, range: std::ops::Range<usize>) {
        let mut ch = NoCharge;
        let mut pending: Vec<usize> = range.collect();
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
    }

    fn fake_iteration(i: u32) -> IterationStats {
        IterationStats {
            iteration: i,
            tasks_attempted: 100 + i as u64,
            tasks_completed: 90,
            input_bytes: 1600,
            chunks: 2,
            // Every word distinct, so a round trip pins all 17 positions.
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

    fn mid_run_checkpoint(t: &SepoTable) -> (Checkpoint, Bitmap, Vec<Relaxed<u32>>) {
        fill(t, 0..150);
        // A few more inserts *without* a boundary, so the snapshot carries
        // resident device pages alongside the evicted host pages.
        let mut ch = NoCharge;
        for i in 150..155 {
            assert!(t
                .insert_combining(format!("key-{i:04}").as_bytes(), i as u64, &mut ch)
                .is_success());
        }
        let done = Bitmap::new(200);
        for i in 0..150 {
            done.set(i);
        }
        let progress: Vec<Relaxed<u32>> = (0..200).map(|i| Relaxed::new(i % 3)).collect();
        let iters = vec![fake_iteration(1), fake_iteration(2)];
        let ckp = Checkpoint::capture(t, &done, &progress, &iters, 1, None);
        (ckp, done, progress)
    }

    /// Section `image` under another `magic`, with a valid trailer.
    fn with_section_magic(image: &[u8], magic: &[u8; 8]) -> Vec<u8> {
        let mut other = image[..image.len() - 4].to_vec();
        other[..8].copy_from_slice(magic);
        append_trailer(&mut other);
        other
    }

    /// A checkpoint file written by an earlier build holds a `SEPOCKP3`
    /// section (before entries carried key tags: resuming would walk
    /// resident chains whose length words match no tagged key) or a
    /// `SEPOCKP4` one (a kept byte per resident page). Reading either fails
    /// typed, naming both magics, before any state is restored.
    #[test]
    fn a_pre_tag_checkpoint_file_is_refused() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        for magic in [b"SEPOCKP3", b"SEPOCKP4"] {
            let section = with_section_magic(&ckp.image().unwrap(), magic);
            let mut file = FILE_MAGIC.to_vec();
            file.extend_from_slice(&1u32.to_le_bytes());
            file.extend_from_slice(&(section.len() as u32).to_le_bytes());
            file.extend_from_slice(&section);
            append_trailer(&mut file);
            let path =
                std::env::temp_dir().join(format!("sepo-cks-old-{}.bin", std::process::id()));
            std::fs::write(&path, &file).unwrap();
            let err = CheckpointFile::read(&path).unwrap_err();
            let _ = std::fs::remove_file(&path);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let want = format!(
                "not a SEPOCKP5 image (magic {})",
                std::str::from_utf8(magic).unwrap()
            );
            assert!(err.to_string().contains(&want), "{err}");
        }
    }

    #[test]
    fn capture_restore_recaptures_identically() {
        let t = small_table();
        let (ckp, done, progress) = mid_run_checkpoint(&t);
        assert_eq!(ckp.iteration(), 2);
        assert_eq!(ckp.n_tasks(), 200);

        // Mutate everything a killed half-iteration could touch, and more.
        fill(&t, 150..190);
        for i in 150..190 {
            done.set(i);
        }
        progress[199].set(9);

        let mut iters = Vec::new();
        let mut stalls = 7;
        ckp.restore(&t, &done, &progress, &mut iters, &mut stalls, None);
        assert_eq!(iters.len(), 2);
        assert_eq!(stalls, 1);
        let again = Checkpoint::capture(&t, &done, &progress, &iters, stalls, None);
        assert_eq!(again, ckp, "restore must reproduce the boundary exactly");

        // The restored table serves the checkpointed contents — the 150
        // evicted keys plus the 5 still on resident device pages.
        t.finalize();
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 155);
        assert_eq!(got[&b"key-0007".to_vec()], 7);
        assert_eq!(got[&b"key-0152".to_vec()], 152);
    }

    #[test]
    fn restore_into_a_fresh_same_shape_table_works() {
        let t = small_table();
        let (ckp, done, progress) = mid_run_checkpoint(&t);
        let fresh = small_table();
        let mut iters = Vec::new();
        let mut stalls = 0;
        ckp.restore(&fresh, &done, &progress, &mut iters, &mut stalls, None);
        let again = Checkpoint::capture(&fresh, &done, &progress, &iters, stalls, None);
        assert_eq!(again, ckp);
        fresh.finalize();
        let got: HashMap<Vec<u8>, u64> = fresh.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 155);
    }

    #[test]
    #[should_panic(expected = "bucket count mismatch")]
    fn restore_rejects_a_differently_shaped_table() {
        let t = small_table();
        let (ckp, done, progress) = mid_run_checkpoint(&t);
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(32)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        let other = SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()));
        let mut iters = Vec::new();
        let mut stalls = 0;
        ckp.restore(&other, &done, &progress, &mut iters, &mut stalls, None);
    }

    #[test]
    fn sepockp5_round_trips_and_sizes_exactly() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let buf = ckp.image().unwrap();
        assert_eq!(buf.len() as u64, ckp.encoded_size());
        let back = Checkpoint::from_section(&buf).unwrap();
        assert_eq!(back, ckp);
    }

    #[test]
    fn transient_draw_state_survives_serialization() {
        let t = small_table();
        fill(&t, 0..20);
        let plan = FaultPlan::new(gpu_sim::FaultConfig::quiet(5).rate(FaultKind::LaneAbort, 0.5));
        for _ in 0..10 {
            let _ = plan.should_abort_lane();
        }
        let done = Bitmap::new(4);
        let progress: Vec<Relaxed<u32>> = (0..4).map(|_| Relaxed::new(0)).collect();
        let ckp = Checkpoint::capture(&t, &done, &progress, &[], 0, Some(&plan));
        assert!(plan.total_injected() > 0, "the section must carry hits");
        let buf = ckp.image().unwrap();
        assert_eq!(buf.len() as u64, ckp.encoded_size());
        // The transient section is the flag byte plus the lane stream's two
        // counters; without a plan it is the flag byte alone.
        let planless = Checkpoint::capture(&t, &done, &progress, &[], 0, None);
        assert_eq!(ckp.encoded_size() - planless.encoded_size(), 16);
        let back = Checkpoint::from_section(&buf).unwrap();
        assert_eq!(back, ckp);
        // Restoring rolls the plan's transient counters back.
        for _ in 0..5 {
            let _ = plan.should_abort_lane();
        }
        let mut iters = Vec::new();
        let mut stalls = 0;
        back.restore(&t, &done, &progress, &mut iters, &mut stalls, Some(&plan));
        assert_eq!(plan.transient_snapshot(), ckp.transient.unwrap());
        assert_eq!(plan.draws(FaultKind::LaneAbort), 10);
    }

    #[test]
    fn disk_round_trip() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-ckp-test-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 1);
        assert_eq!(file.update(0, &ckp, None).unwrap(), 0);
        let back = CheckpointFile::read(&path).unwrap();
        // A one-device file is the section wrapped in the file header
        // (magic, count 1, length) and the file trailer.
        let section = ckp.image().unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap().len(),
            8 + 4 + 4 + section.len() + 4
        );
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, vec![Some(ckp)]);
    }

    #[test]
    fn file_round_trips_with_empty_sections() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-cks-test-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 4);
        // Shards 1 and 3 checkpoint; 0 and 2 have not yet.
        file.update(1, &ckp, None).unwrap();
        file.update(3, &ckp, None).unwrap();
        let back = CheckpointFile::read(&path).unwrap();
        assert_eq!(back.len(), 4);
        assert!(back[0].is_none() && back[2].is_none());
        assert_eq!(back[1].as_ref().unwrap(), &ckp);
        assert_eq!(back[3].as_ref().unwrap(), &ckp);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn update_replaces_only_its_own_section() {
        let t = small_table();
        let (ckp, done, progress) = mid_run_checkpoint(&t);
        let later = Checkpoint::capture(
            &t,
            &done,
            &progress,
            &[fake_iteration(1), fake_iteration(2), fake_iteration(3)],
            0,
            None,
        );
        assert_ne!(later, ckp);
        let path = std::env::temp_dir().join(format!("sepo-cks-upd-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 2);
        file.update(0, &ckp, None).unwrap();
        file.update(1, &ckp, None).unwrap();
        file.update(0, &later, None).unwrap();
        let back = CheckpointFile::read(&path).unwrap();
        assert_eq!(back[0].as_ref().unwrap(), &later, "shard 0 advanced");
        assert_eq!(back[1].as_ref().unwrap(), &ckp, "shard 1 untouched");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn update_rejects_an_out_of_range_shard() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-cks-oob-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 2);
        let err = file.update(2, &ckp, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_rejects_garbage_and_truncation() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-cks-bad-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 2);
        file.update(0, &ckp, None).unwrap();
        let full = std::fs::read(&path).unwrap();
        // A bare SEPOCKP5 section is not a checkpoint file (its own trailer
        // is valid, so this exercises the magic check, not the checksum).
        std::fs::write(&path, ckp.image().unwrap()).unwrap();
        let err = CheckpointFile::read(&path).unwrap_err();
        assert!(err.to_string().contains("not a SEPOCKS3 file"));
        // Truncating the file anywhere is a clean InvalidData error.
        for len in [0, 4, 11, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..len]).unwrap();
            let err = CheckpointFile::read(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix of {len}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_at_every_byte_is_rejected_with_the_field_name() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let buf = ckp.image().unwrap();
        for len in 0..buf.len() {
            let err = Checkpoint::from_section(&buf[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix of {len}");
            let msg = err.to_string();
            assert!(
                msg.contains("truncated SEPOCKP5 image")
                    || msg.contains("SEPOCKP5 image failed checksum verification"),
                "prefix of {len}: unexpected message {msg:?}"
            );
        }
        // Garbage magic under a *valid* trailer is a distinct, equally
        // clean rejection (garbage without a trailer fails the checksum) —
        // and so are images of earlier formats: a `SEPOCKP2` transient
        // section this build would misread, a `SEPOCKP3` heap without key
        // tags, a `SEPOCKP4` heap with a kept byte per page.
        let mut garbage = b"GARBAGE!________".to_vec();
        append_trailer(&mut garbage);
        let mut images = vec![garbage];
        for magic in [b"SEPOCKP2", b"SEPOCKP3", b"SEPOCKP4"] {
            images.push(with_section_magic(&buf, magic));
        }
        for image in images {
            let err = Checkpoint::from_section(&image).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("not a SEPOCKP5 image"));
        }
    }

    #[test]
    fn single_bit_flip_at_every_byte_is_rejected_with_checksum_error() {
        let t = small_table();
        fill(&t, 0..40);
        let done = Bitmap::new(40);
        let progress: Vec<Relaxed<u32>> = (0..40).map(|_| Relaxed::new(0)).collect();
        let ckp = Checkpoint::capture(&t, &done, &progress, &[fake_iteration(1)], 0, None);
        let buf = ckp.image().unwrap();
        for at in 0..buf.len() {
            let mut damaged = buf.clone();
            damaged[at] ^= 1 << (at % 8);
            let err = Checkpoint::from_section(&damaged).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {at}");
            assert!(
                err.to_string()
                    .contains("SEPOCKP5 image failed checksum verification"),
                "flip at byte {at}: unexpected message {:?}",
                err.to_string()
            );
        }
    }

    #[test]
    fn file_bit_flips_are_rejected_with_checksum_error() {
        let t = small_table();
        fill(&t, 0..40);
        let done = Bitmap::new(40);
        let progress: Vec<Relaxed<u32>> = (0..40).map(|_| Relaxed::new(0)).collect();
        let ckp = Checkpoint::capture(&t, &done, &progress, &[fake_iteration(1)], 0, None);
        let path = std::env::temp_dir().join(format!("sepo-cks-flip-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 2);
        file.update(0, &ckp, None).unwrap();
        file.update(1, &ckp, None).unwrap();
        let full = std::fs::read(&path).unwrap();
        for at in 0..full.len() {
            let mut damaged = full.clone();
            damaged[at] ^= 1 << (at % 8);
            std::fs::write(&path, &damaged).unwrap();
            let err = CheckpointFile::read(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {at}");
            assert!(
                err.to_string()
                    .contains("SEPOCKS3 image failed checksum verification"),
                "flip at byte {at}: unexpected message {:?}",
                err.to_string()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_byte_flips_force_rewrites_until_the_image_verifies() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let plan =
            FaultPlan::new(gpu_sim::FaultConfig::quiet(9).rate(FaultKind::DiskByteFlip, 0.6));
        let path = std::env::temp_dir().join(format!("sepo-ckp-flip-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 1);
        let mut total_rewrites = 0u64;
        for _ in 0..8 {
            total_rewrites += u64::from(file.update(0, &ckp, Some(&plan)).unwrap());
            // Whatever the corruption did in flight, what is on disk now
            // verifies and restores the identical boundary.
            assert_eq!(
                CheckpointFile::read(&path).unwrap(),
                vec![Some(ckp.clone())]
            );
        }
        assert!(
            total_rewrites > 0,
            "a 0.6 flip rate over 8 writes must hit at least once"
        );
        assert_eq!(
            total_rewrites,
            plan.injected(FaultKind::DiskByteFlip),
            "every injected disk flip must be caught by read-back verification"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_rewrites_surface_a_checksum_error() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let plan =
            FaultPlan::new(gpu_sim::FaultConfig::quiet(3).rate(FaultKind::DiskByteFlip, 1.0));
        let path = std::env::temp_dir().join(format!("sepo-ckp-exh-{}.bin", std::process::id()));
        let file = CheckpointFile::new(path.clone(), 1);
        let err = file.update(0, &ckp, Some(&plan)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("failed verification after"),
            "unexpected message {:?}",
            err.to_string()
        );
        let _ = std::fs::remove_file(&path);
    }
}
