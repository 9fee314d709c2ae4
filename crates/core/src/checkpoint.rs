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
//! On-disk format (`SEPOCKP3`, little-endian):
//!
//! ```text
//! magic        8 bytes  "SEPOCKP3"
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
//!              index/pending/head u32, host_id u64, kind u8, kept u8,
//!              len u32, bytes
//! host pages   u32 count, per page the `SEPOHST2` page record: id u64,
//!              kind u8, crc u32, len u32, bytes — crc is the CRC32C stamp
//!              the page carried at eviction, re-verified against the
//!              bytes at load
//! trailer      u32      CRC32C of every preceding byte
//! ```
//!
//! The trailer is verified against the whole image *before* any
//! structural parsing, so any single flipped bit anywhere in a checkpoint
//! file is rejected with a checksum error naming the section, never a
//! panic or a silently different boundary. Disk writes go through a
//! write/read-back/verify loop ([`Checkpoint::write_to_path_with`]) that
//! rewrites the file when a seeded disk byte flip damaged it in flight,
//! giving up with a checksum error after a bounded number of rewrites.
//!
//! Sharded runs write one file for all shards (`SEPOCKS3`): a global
//! header naming the shard count, then one length-prefixed standard
//! `SEPOCKP3` section per shard (length 0 = that shard has not
//! checkpointed yet), then a whole-container CRC32C trailer. Each
//! shard's driver updates its own section through a shared
//! [`ShardedCheckpointFile`]; resume reads every section back with
//! [`read_sharded_from_path`] and restores every shard. Every section is
//! a complete `SEPOCKP3` image, so shard payloads are covered by their
//! own trailers *and* the container trailer.
//!
//! ```text
//! magic        8 bytes  "SEPOCKS3"
//! shard count  u32
//! sections     per shard: len u32, len bytes of SEPOCKP3 image
//! trailer      u32      CRC32C of every preceding byte
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bitmap::Bitmap;
use crate::integrity;
use crate::persist::{append_trailer, verify_trailer};
use crate::sepo::IterationStats;
use crate::table::SepoTable;
use gpu_sim::faults::CorruptionKind;
use gpu_sim::metrics::{Counter, Snapshot};
use gpu_sim::sync::Relaxed;
use gpu_sim::{FaultPlan, TransientDrawState};
use sepo_alloc::hostheap::{read_array, read_exact_field};
use sepo_alloc::{HeapSnapshot, PageKind, ResidentPage, StampedPage};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SEPOCKP3";
const MAGIC_NAME: &str = "SEPOCKP3";
const SHARDED_MAGIC: &[u8; 8] = b"SEPOCKS3";
const SHARDED_MAGIC_NAME: &str = "SEPOCKS3";
// Each image stores `Snapshot::words()` verbatim, so the counter table is
// part of the format: adding, removing or reordering a counter must bump
// both magics.
const _: () = assert!(Counter::N == 17, "counter table changed: bump the magic");

/// How many times a checkpoint write is retried when read-back
/// verification finds the on-disk image damaged (seeded disk byte
/// flips), before the write surfaces a checksum error.
pub const MAX_CHECKPOINT_REWRITES: u32 = 8;

/// Write `image` to `path`, read it back, and verify its checksum
/// trailer, rewriting (bounded by [`MAX_CHECKPOINT_REWRITES`]) when a
/// seeded disk byte flip from `plan` damaged the bytes in flight.
/// Returns the number of rewrites a caller can fold into its recovery
/// accounting.
fn write_image_verified(
    path: &Path,
    image: &[u8],
    plan: Option<&FaultPlan>,
    section: &str,
) -> io::Result<u32> {
    let mut rewrites = 0u32;
    loop {
        match plan.and_then(|p| p.draw_corruption(CorruptionKind::DiskByteFlip)) {
            Some(hit) => {
                // The write is damaged in flight: flip one byte of what
                // actually lands on disk.
                let mut damaged = image.to_vec();
                integrity::flip_byte_in_place(&mut damaged, hit.entropy);
                std::fs::write(path, &damaged)?;
            }
            None => std::fs::write(path, image)?,
        }
        let back = std::fs::read(path)?;
        match verify_trailer(&back, section) {
            Ok(_) => return Ok(rewrites),
            Err(err) => {
                if rewrites >= MAX_CHECKPOINT_REWRITES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{section} write failed verification after \
                             {MAX_CHECKPOINT_REWRITES} rewrites: {err}"
                        ),
                    ));
                }
                rewrites += 1;
            }
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
    /// Keep the latest checkpoint in memory *and* persist it to this path
    /// as a `SEPOCKP3` image after every boundary, so a separate process
    /// can resume after the original one dies.
    Disk(PathBuf),
    /// Sharded-run variant of `Disk`: keep the latest checkpoint in memory
    /// and write it through to this shard's section of a shared
    /// `SEPOCKS3` container, so one file resumes every shard.
    SharedDisk(Arc<ShardedCheckpointFile>, u32),
}

impl PartialEq for CheckpointPolicy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CheckpointPolicy::Off, CheckpointPolicy::Off) => true,
            (CheckpointPolicy::Memory, CheckpointPolicy::Memory) => true,
            (CheckpointPolicy::Disk(a), CheckpointPolicy::Disk(b)) => a == b,
            (CheckpointPolicy::SharedDisk(fa, sa), CheckpointPolicy::SharedDisk(fb, sb)) => {
                Arc::ptr_eq(fa, fb) && sa == sb
            }
            _ => false,
        }
    }
}

impl Eq for CheckpointPolicy {}

impl CheckpointPolicy {
    /// Is checkpointing enabled at all?
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CheckpointPolicy::Off)
    }
}

/// The shared writer behind [`CheckpointPolicy::SharedDisk`]: one
/// `SEPOCKS3` file holding every shard's latest boundary checkpoint.
///
/// Shard drivers run concurrently, so updates serialize behind a mutex;
/// each update replaces one shard's section and rewrites the file whole
/// (checkpoints already rewrite their file whole in the unsharded `Disk`
/// policy — this only batches N of them into one artifact).
pub struct ShardedCheckpointFile {
    path: PathBuf,
    sections: parking_lot::Mutex<Vec<Vec<u8>>>,
}

impl std::fmt::Debug for ShardedCheckpointFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCheckpointFile")
            .field("path", &self.path)
            .field("shards", &self.sections.lock().len())
            .finish()
    }
}

impl ShardedCheckpointFile {
    /// A container for `shard_count` shards at `path`. Sections start
    /// empty ("not yet checkpointed"); the file is not written until the
    /// first [`ShardedCheckpointFile::update`].
    pub fn new(path: PathBuf, shard_count: u32) -> ShardedCheckpointFile {
        assert!(shard_count >= 1, "a sharded checkpoint needs shards");
        ShardedCheckpointFile {
            path,
            sections: parking_lot::Mutex::new(vec![Vec::new(); shard_count as usize]),
        }
    }

    /// The file this container persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of shard sections.
    pub fn shard_count(&self) -> usize {
        self.sections.lock().len()
    }

    /// Replace `shard`'s section with `ckp` and rewrite the file.
    pub fn update(&self, shard: u32, ckp: &Checkpoint) -> io::Result<()> {
        self.update_with(shard, ckp, None).map(|_| ())
    }

    /// [`ShardedCheckpointFile::update`] with seeded disk-corruption
    /// injection: the rewritten container is read back and its checksum
    /// trailer verified, rewriting when `plan` flipped a byte in flight.
    /// Returns the number of rewrites.
    pub fn update_with(
        &self,
        shard: u32,
        ckp: &Checkpoint,
        plan: Option<&FaultPlan>,
    ) -> io::Result<u32> {
        let buf = ckp.image()?;
        // Hold the sections lock across the file write *and* its read-back
        // verification: concurrent shards updating the same container must
        // not interleave, or a shard reads back its neighbor's in-flight
        // write (torn, or damaged by the neighbor's injected flip) and the
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
        let mut image = Vec::new();
        image.extend_from_slice(SHARDED_MAGIC);
        image.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for s in sections.iter() {
            image.extend_from_slice(&(s.len() as u32).to_le_bytes());
            image.extend_from_slice(s);
        }
        append_trailer(&mut image);
        write_image_verified(&self.path, &image, plan, SHARDED_MAGIC_NAME)
    }
}

/// Load a `SEPOCKS3` container: one entry per shard, `None` for a shard
/// that had not checkpointed when the file was last written. The
/// container's checksum trailer is verified against the whole file
/// before any section is parsed.
pub fn read_sharded_from_path(path: &Path) -> io::Result<Vec<Option<Checkpoint>>> {
    let image = std::fs::read(path)?;
    let body = verify_trailer(&image, SHARDED_MAGIC_NAME)?;
    let mut body_reader = body;
    let r = &mut body_reader;
    let magic: [u8; 8] = read_array(r, "magic", SHARDED_MAGIC_NAME)?;
    if &magic != SHARDED_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a SEPOCKS3 container",
        ));
    }
    let n_shards = read_u32(r, "shard count")? as usize;
    let mut out = Vec::with_capacity(n_shards.min(1 << 16));
    for _ in 0..n_shards {
        let len = read_u32(r, "shard section length")? as usize;
        if len == 0 {
            out.push(None);
            continue;
        }
        let mut section = vec![0u8; len];
        read_exact_field(r, &mut section, "shard section", SHARDED_MAGIC_NAME)?;
        out.push(Some(Checkpoint::from_reader(&mut section.as_slice())?));
    }
    Ok(out)
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
            self.heads.len(),
            table.heads.len(),
            "checkpoint bucket count mismatch"
        );
        assert_eq!(
            self.progress.len(),
            progress.len(),
            "checkpoint task count mismatch"
        );
        for (h, &v) in table.heads.iter().zip(&self.heads) {
            h.set(v);
        }
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

    /// Exact size in bytes of the `SEPOCKP3` image [`Checkpoint::to_writer`]
    /// produces — the checkpoint footprint the chaos benchmark reports.
    /// Sized by the code that writes the image, into a sink that only
    /// counts (no page byte is read).
    pub fn encoded_size(&self) -> u64 {
        let mut count = ByteCount(0);
        // Counting cannot fail.
        let _ = self.write_body(&mut count);
        count.0 + 4 // whole-image checksum trailer
    }

    /// The `SEPOCKP3` image: the body followed by a CRC32C trailer over
    /// every preceding byte.
    fn image(&self) -> io::Result<Vec<u8>> {
        let mut image = Vec::new();
        self.write_body(&mut image)?;
        append_trailer(&mut image);
        Ok(image)
    }

    /// Serialize as a `SEPOCKP3` image.
    pub fn to_writer<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.image()?)
    }

    fn write_body<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&self.iteration.to_le_bytes())?;
        w.write_all(&self.fault_stalls.to_le_bytes())?;
        w.write_all(&self.n_tasks.to_le_bytes())?;
        write_u64s(w, &self.done_words)?;
        write_u32s(w, &self.progress)?;
        write_u64s(w, &self.heads)?;
        write_u32s(w, &self.touches)?;
        write_u64s(w, &self.group_allocs)?;
        for v in self.metrics.words() {
            w.write_all(&v.to_le_bytes())?;
        }
        match &self.transient {
            None => w.write_all(&[0u8])?,
            Some(t) => {
                w.write_all(&[1u8])?;
                w.write_all(&t.draws.to_le_bytes())?;
                w.write_all(&t.injected.to_le_bytes())?;
            }
        }
        w.write_all(&(self.iterations.len() as u32).to_le_bytes())?;
        for it in &self.iterations {
            w.write_all(&it.iteration.to_le_bytes())?;
            w.write_all(&it.chunks.to_le_bytes())?;
            w.write_all(&[it.halted_early as u8])?;
            w.write_all(&it.tasks_attempted.to_le_bytes())?;
            w.write_all(&it.tasks_completed.to_le_bytes())?;
            w.write_all(&it.input_bytes.to_le_bytes())?;
            for v in it.kernel.words() {
                w.write_all(&v.to_le_bytes())?;
            }
            w.write_all(&(it.evict.evicted_pages as u64).to_le_bytes())?;
            w.write_all(&it.evict.evicted_bytes.to_le_bytes())?;
            w.write_all(&(it.evict.kept_pages as u64).to_le_bytes())?;
            w.write_all(&it.evict.kept_bytes.to_le_bytes())?;
        }
        w.write_all(&(self.heap.page_size as u64).to_le_bytes())?;
        w.write_all(&self.heap.next_host_id.to_le_bytes())?;
        w.write_all(&self.heap.wasted.to_le_bytes())?;
        w.write_all(&self.heap.acquired_total.to_le_bytes())?;
        w.write_all(&(self.heap.total_pages as u32).to_le_bytes())?;
        write_u32s(w, &self.heap.pool)?;
        w.write_all(&(self.heap.resident.len() as u32).to_le_bytes())?;
        for p in &self.heap.resident {
            w.write_all(&p.index.to_le_bytes())?;
            w.write_all(&p.pending_keys.to_le_bytes())?;
            w.write_all(&p.head.to_le_bytes())?;
            w.write_all(&p.host_id.to_le_bytes())?;
            w.write_all(&[p.kind.tag(), p.kept as u8])?;
            w.write_all(&(p.data.len() as u32).to_le_bytes())?;
            w.write_all(&p.data)?;
        }
        w.write_all(&(self.host_pages.len() as u32).to_le_bytes())?;
        for page in &self.host_pages {
            page.write_record(w)?;
        }
        Ok(())
    }

    /// Deserialize a `SEPOCKP3` image. The whole-image checksum trailer
    /// is verified first, so any flipped bit anywhere is rejected with a
    /// checksum error before structural parsing begins; truncated input
    /// is rejected with an error naming the field that ended early.
    pub fn from_reader<R: Read>(r: &mut R) -> io::Result<Checkpoint> {
        let mut image = Vec::new();
        r.read_to_end(&mut image)?;
        let body = verify_trailer(&image, MAGIC_NAME)?;
        Checkpoint::parse_body(&mut &*body)
    }

    fn parse_body<R: Read>(r: &mut R) -> io::Result<Checkpoint> {
        let magic: [u8; 8] = read_array(r, "magic", MAGIC_NAME)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a SEPOCKP3 image",
            ));
        }
        let iteration = read_u32(r, "iteration")?;
        let fault_stalls = read_u32(r, "fault stalls")?;
        let n_tasks = read_u64(r, "task count")?;
        let done_words = read_u64s(r, "done bitmap")?;
        let progress = read_u32s(r, "task progress")?;
        let heads = read_u64s(r, "bucket heads")?;
        let touches = read_u32s(r, "bucket touches")?;
        let group_allocs = read_u64s(r, "group alloc counts")?;
        let metrics = read_snapshot(r, "metrics")?;
        let transient = match read_u8(r, "transient flag")? {
            0 => None,
            1 => Some(TransientDrawState {
                draws: read_u64(r, "transient draws")?,
                injected: read_u64(r, "transient injections")?,
            }),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad transient flag {other}"),
                ))
            }
        };
        let n_iters = read_u32(r, "iteration count")? as usize;
        let mut iterations = Vec::with_capacity(n_iters.min(1 << 16));
        for _ in 0..n_iters {
            let iteration = read_u32(r, "iteration number")?;
            let chunks = read_u32(r, "iteration chunks")?;
            let halted_early = read_u8(r, "iteration halt flag")? != 0;
            let tasks_attempted = read_u64(r, "iteration attempts")?;
            let tasks_completed = read_u64(r, "iteration completions")?;
            let input_bytes = read_u64(r, "iteration input bytes")?;
            let kernel = read_snapshot(r, "iteration kernel delta")?;
            let evict = crate::evict::EvictReport {
                evicted_pages: read_u64(r, "evict pages")? as usize,
                evicted_bytes: read_u64(r, "evict bytes")?,
                kept_pages: read_u64(r, "kept pages")? as usize,
                kept_bytes: read_u64(r, "kept bytes")?,
            };
            iterations.push(IterationStats {
                iteration,
                tasks_attempted,
                tasks_completed,
                input_bytes,
                chunks,
                kernel,
                evict,
                halted_early,
            });
        }
        let page_size = read_u64(r, "heap page size")? as usize;
        let next_host_id = read_u64(r, "heap next host id")?;
        let wasted = read_u64(r, "heap wasted bytes")?;
        let acquired_total = read_u64(r, "heap acquired total")?;
        let total_pages = read_u32(r, "heap page count")? as usize;
        let pool = read_u32s(r, "heap free pool")?;
        let n_resident = read_u32(r, "resident page count")? as usize;
        let mut resident = Vec::with_capacity(n_resident.min(1 << 16));
        for _ in 0..n_resident {
            let index = read_u32(r, "resident page index")?;
            let pending_keys = read_u32(r, "resident pending keys")?;
            let head = read_u32(r, "resident page head")?;
            let host_id = read_u64(r, "resident host id")?;
            let kind = PageKind::from_tag(read_u8(r, "resident page kind")?)?;
            let kept = read_u8(r, "resident kept flag")? != 0;
            let len = read_u32(r, "resident page length")? as usize;
            let mut data = vec![0u8; len];
            read_exact_field(r, &mut data, "resident page payload", MAGIC_NAME)?;
            resident.push(ResidentPage {
                index,
                host_id,
                kind,
                kept,
                pending_keys,
                head,
                data,
            });
        }
        let n_host = read_u32(r, "host page count")? as usize;
        let mut host_pages = Vec::with_capacity(n_host.min(1 << 16));
        for _ in 0..n_host {
            host_pages.push(StampedPage::read_record(r, MAGIC_NAME)?);
        }
        Ok(Checkpoint {
            iteration,
            fault_stalls,
            n_tasks,
            done_words,
            progress,
            heads,
            touches,
            group_allocs,
            metrics,
            transient,
            iterations,
            heap: HeapSnapshot {
                page_size,
                total_pages,
                pool,
                next_host_id,
                wasted,
                acquired_total,
                resident,
            },
            host_pages,
        })
    }

    /// Persist as a `SEPOCKP3` file (the `--checkpoint <path>` flag).
    pub fn write_to_path(&self, path: &Path) -> io::Result<()> {
        self.write_to_path_with(path, None).map(|_| ())
    }

    /// [`Checkpoint::write_to_path`] with seeded disk-corruption
    /// injection: the written file is read back and its checksum trailer
    /// verified, rewriting (bounded) when `plan` flipped a byte of it in
    /// flight. Returns the number of rewrites.
    pub fn write_to_path_with(&self, path: &Path, plan: Option<&FaultPlan>) -> io::Result<u32> {
        write_image_verified(path, &self.image()?, plan, MAGIC_NAME)
    }

    /// Load a `SEPOCKP3` file.
    pub fn read_from_path(path: &Path) -> io::Result<Checkpoint> {
        let image = std::fs::read(path)?;
        Checkpoint::from_reader(&mut image.as_slice())
    }
}

/// A sink that only counts what is written to it.
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn write_u32s<W: Write>(w: &mut W, vs: &[u32]) -> io::Result<()> {
    w.write_all(&(vs.len() as u32).to_le_bytes())?;
    for v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u64s<W: Write>(w: &mut W, vs: &[u64]) -> io::Result<()> {
    w.write_all(&(vs.len() as u32).to_le_bytes())?;
    for v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_u8<R: Read>(r: &mut R, what: &str) -> io::Result<u8> {
    let [b] = read_array(r, what, MAGIC_NAME)?;
    Ok(b)
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> io::Result<u32> {
    Ok(u32::from_le_bytes(read_array(r, what, MAGIC_NAME)?))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_array(r, what, MAGIC_NAME)?))
}

fn read_u32s<R: Read>(r: &mut R, what: &str) -> io::Result<Vec<u32>> {
    let n = read_u32(r, what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(read_u32(r, what)?);
    }
    Ok(out)
}

fn read_u64s<R: Read>(r: &mut R, what: &str) -> io::Result<Vec<u64>> {
    let n = read_u32(r, what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(read_u64(r, what)?);
    }
    Ok(out)
}

fn read_snapshot<R: Read>(r: &mut R, what: &str) -> io::Result<Snapshot> {
    let mut w = [0u64; Counter::N];
    for v in w.iter_mut() {
        *v = read_u64(r, what)?;
    }
    Ok(Snapshot::from_words(w))
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
    fn sepockp3_round_trips_and_sizes_exactly() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let mut buf = Vec::new();
        ckp.to_writer(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, ckp.encoded_size());
        let back = Checkpoint::from_reader(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ckp);
    }

    #[test]
    fn transient_draw_state_survives_serialization() {
        let t = small_table();
        fill(&t, 0..20);
        let plan = FaultPlan::new(gpu_sim::FaultConfig {
            seed: 5,
            lane_abort_rate: 0.5,
        });
        for _ in 0..10 {
            let _ = plan.should_abort_lane();
        }
        let done = Bitmap::new(4);
        let progress: Vec<Relaxed<u32>> = (0..4).map(|_| Relaxed::new(0)).collect();
        let ckp = Checkpoint::capture(&t, &done, &progress, &[], 0, Some(&plan));
        assert!(plan.total_injected() > 0, "the section must carry hits");
        let mut buf = Vec::new();
        ckp.to_writer(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, ckp.encoded_size());
        // The transient section is the flag byte plus the lane stream's two
        // counters; without a plan it is the flag byte alone.
        let planless = Checkpoint::capture(&t, &done, &progress, &[], 0, None);
        assert_eq!(ckp.encoded_size() - planless.encoded_size(), 16);
        let back = Checkpoint::from_reader(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ckp);
        // Restoring rolls the plan's transient counters back.
        for _ in 0..5 {
            let _ = plan.should_abort_lane();
        }
        let mut iters = Vec::new();
        let mut stalls = 0;
        back.restore(&t, &done, &progress, &mut iters, &mut stalls, Some(&plan));
        assert_eq!(plan.transient_snapshot(), ckp.transient.unwrap());
        assert_eq!(plan.draws(), 10);
    }

    #[test]
    fn disk_round_trip() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-ckp-test-{}.bin", std::process::id()));
        ckp.write_to_path(&path).unwrap();
        let back = Checkpoint::read_from_path(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, ckp);
    }

    #[test]
    fn sharded_container_round_trips_with_empty_sections() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-cks-test-{}.bin", std::process::id()));
        let file = ShardedCheckpointFile::new(path.clone(), 4);
        assert_eq!(file.shard_count(), 4);
        // Shards 1 and 3 checkpoint; 0 and 2 have not yet.
        file.update(1, &ckp).unwrap();
        file.update(3, &ckp).unwrap();
        let back = read_sharded_from_path(&path).unwrap();
        assert_eq!(back.len(), 4);
        assert!(back[0].is_none() && back[2].is_none());
        assert_eq!(back[1].as_ref().unwrap(), &ckp);
        assert_eq!(back[3].as_ref().unwrap(), &ckp);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_update_replaces_only_its_own_section() {
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
        let file = ShardedCheckpointFile::new(path.clone(), 2);
        file.update(0, &ckp).unwrap();
        file.update(1, &ckp).unwrap();
        file.update(0, &later).unwrap();
        let back = read_sharded_from_path(&path).unwrap();
        assert_eq!(back[0].as_ref().unwrap(), &later, "shard 0 advanced");
        assert_eq!(back[1].as_ref().unwrap(), &ckp, "shard 1 untouched");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_update_rejects_an_out_of_range_shard() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-cks-oob-{}.bin", std::process::id()));
        let file = ShardedCheckpointFile::new(path.clone(), 2);
        let err = file.update(2, &ckp).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_container_rejects_garbage_and_truncation() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let path = std::env::temp_dir().join(format!("sepo-cks-bad-{}.bin", std::process::id()));
        let file = ShardedCheckpointFile::new(path.clone(), 2);
        file.update(0, &ckp).unwrap();
        let full = std::fs::read(&path).unwrap();
        // A plain SEPOCKP3 image is not a container (its own trailer is
        // valid, so this exercises the magic check, not the checksum).
        let mut plain = Vec::new();
        ckp.to_writer(&mut plain).unwrap();
        std::fs::write(&path, &plain).unwrap();
        let err = read_sharded_from_path(&path).unwrap_err();
        assert!(err.to_string().contains("not a SEPOCKS3 container"));
        // Truncating the container anywhere is a clean InvalidData error.
        for len in [0, 4, 11, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..len]).unwrap();
            let err = read_sharded_from_path(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix of {len}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_disk_policy_equality_is_by_file_identity() {
        let path = std::env::temp_dir().join(format!("sepo-cks-eq-{}.bin", std::process::id()));
        let a = Arc::new(ShardedCheckpointFile::new(path.clone(), 2));
        let b = Arc::new(ShardedCheckpointFile::new(path, 2));
        let pa0 = CheckpointPolicy::SharedDisk(Arc::clone(&a), 0);
        assert_eq!(pa0, CheckpointPolicy::SharedDisk(Arc::clone(&a), 0));
        assert_ne!(pa0, CheckpointPolicy::SharedDisk(Arc::clone(&a), 1));
        assert_ne!(pa0, CheckpointPolicy::SharedDisk(b, 0));
        assert_ne!(pa0, CheckpointPolicy::Off);
        assert!(pa0.is_enabled());
    }

    #[test]
    fn truncation_at_every_byte_is_rejected_with_the_field_name() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let mut buf = Vec::new();
        ckp.to_writer(&mut buf).unwrap();
        for len in 0..buf.len() {
            let err = Checkpoint::from_reader(&mut &buf[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "prefix of {len}");
            let msg = err.to_string();
            assert!(
                msg.contains("truncated SEPOCKP3 image")
                    || msg.contains("SEPOCKP3 image failed checksum verification"),
                "prefix of {len}: unexpected message {msg:?}"
            );
        }
        // Garbage magic under a *valid* trailer is a distinct, equally
        // clean rejection (garbage without a trailer fails the checksum) —
        // and so is an image of the previous format, whose transient
        // section this build would misread.
        let mut garbage = b"GARBAGE!________".to_vec();
        append_trailer(&mut garbage);
        let mut previous = buf[..buf.len() - 4].to_vec();
        previous[..8].copy_from_slice(b"SEPOCKP2");
        append_trailer(&mut previous);
        for image in [garbage, previous] {
            let err = Checkpoint::from_reader(&mut image.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("not a SEPOCKP3 image"));
        }
    }

    #[test]
    fn single_bit_flip_at_every_byte_is_rejected_with_checksum_error() {
        let t = small_table();
        fill(&t, 0..40);
        let done = Bitmap::new(40);
        let progress: Vec<Relaxed<u32>> = (0..40).map(|_| Relaxed::new(0)).collect();
        let ckp = Checkpoint::capture(&t, &done, &progress, &[fake_iteration(1)], 0, None);
        let mut buf = Vec::new();
        ckp.to_writer(&mut buf).unwrap();
        for at in 0..buf.len() {
            let mut damaged = buf.clone();
            damaged[at] ^= 1 << (at % 8);
            let err = Checkpoint::from_reader(&mut damaged.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {at}");
            assert!(
                err.to_string()
                    .contains("SEPOCKP3 image failed checksum verification"),
                "flip at byte {at}: unexpected message {:?}",
                err.to_string()
            );
        }
    }

    #[test]
    fn container_bit_flips_are_rejected_with_checksum_error() {
        let t = small_table();
        fill(&t, 0..40);
        let done = Bitmap::new(40);
        let progress: Vec<Relaxed<u32>> = (0..40).map(|_| Relaxed::new(0)).collect();
        let ckp = Checkpoint::capture(&t, &done, &progress, &[fake_iteration(1)], 0, None);
        let path = std::env::temp_dir().join(format!("sepo-cks-flip-{}.bin", std::process::id()));
        let file = ShardedCheckpointFile::new(path.clone(), 2);
        file.update(0, &ckp).unwrap();
        file.update(1, &ckp).unwrap();
        let full = std::fs::read(&path).unwrap();
        for at in 0..full.len() {
            let mut damaged = full.clone();
            damaged[at] ^= 1 << (at % 8);
            std::fs::write(&path, &damaged).unwrap();
            let err = read_sharded_from_path(&path).unwrap_err();
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
        let plan = FaultPlan::new(gpu_sim::FaultConfig::quiet(9)).with_corruption(
            gpu_sim::CorruptionConfig {
                seed: 9,
                pcie_bit_flip_rate: 0.0,
                resting_page_flip_rate: 0.0,
                disk_byte_flip_rate: 0.6,
            },
        );
        let path = std::env::temp_dir().join(format!("sepo-ckp-flip-{}.bin", std::process::id()));
        let mut total_rewrites = 0u64;
        for _ in 0..8 {
            total_rewrites += u64::from(ckp.write_to_path_with(&path, Some(&plan)).unwrap());
            // Whatever the corruption did in flight, what is on disk now
            // verifies and restores the identical boundary.
            assert_eq!(Checkpoint::read_from_path(&path).unwrap(), ckp);
        }
        assert!(
            total_rewrites > 0,
            "a 0.6 flip rate over 8 writes must hit at least once"
        );
        assert_eq!(
            total_rewrites,
            plan.corruption_injected(CorruptionKind::DiskByteFlip),
            "every injected disk flip must be caught by read-back verification"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_rewrites_surface_a_checksum_error() {
        let t = small_table();
        let (ckp, _done, _progress) = mid_run_checkpoint(&t);
        let plan = FaultPlan::new(gpu_sim::FaultConfig::quiet(3)).with_corruption(
            gpu_sim::CorruptionConfig {
                seed: 3,
                pcie_bit_flip_rate: 0.0,
                resting_page_flip_rate: 0.0,
                disk_byte_flip_rate: 1.0,
            },
        );
        let path = std::env::temp_dir().join(format!("sepo-ckp-exh-{}.bin", std::process::id()));
        let err = ckp.write_to_path_with(&path, Some(&plan)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("failed verification after"),
            "unexpected message {:?}",
            err.to_string()
        );
        let _ = std::fs::remove_file(&path);
    }
}
