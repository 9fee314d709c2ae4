//! Thread-block software combiner (shared-memory pre-aggregation).
//!
//! Under skewed key distributions the lanes of a thread block keep emitting
//! the same few hot keys, and each emit costs a full global-table insert: a
//! bucket touch, a chain walk, and a device atomic on the entry — all
//! serialized on the hot bucket. WarpCore-style cooperative work sharing
//! and the NUMA hash table's local combining both answer this the same
//! way: aggregate within the cooperating group *first*, then touch the
//! shared structure once per distinct key.
//!
//! [`WarpCombiner`] is that layer for the simulated GPU, shaped like the
//! `__shared__` tile a CUDA kernel would declare: one per **thread block**
//! ([`gpu_sim::BLOCK_WARPS`] warps = 256 threads ≈ 3 K emits of Word
//! Count), keyed by the emit's precomputed FNV-1a hash. (The type keeps
//! its historical name; its scope is the block, not the warp.)
//!
//! ## Layout and probe
//!
//! The tile is flat: hash / entry-handle / delta / fold-count / key-length
//! arrays indexed by slot, plus a key arena of [`KEY_BYTES`] per slot — no
//! per-slot heap object, nothing allocated per emit, and nothing allocated
//! at all until a block's first emit (a kernel that never combines pays
//! nothing for the hook). A key longer than [`KEY_BYTES`] bypasses the
//! tile and goes straight to the table.
//!
//! Slots are grouped into sets of [`WAYS`]. An emit probes only its home
//! set (`mix(hash) % sets`): at most `WAYS` tag reads, however full the
//! tile is. Ways fill lowest-first and a victim is replaced in place, so a
//! set's occupied ways are always a prefix and one count per set finds the
//! free way.
//!
//! ## Victim rule
//!
//! On a miss in a full set the victim is the way with the fewest folds
//! since admission (ties to the lowest way) — and only if that way has
//! folded *nothing*: a newcomer has itself been seen once, so it may
//! displace another key seen once but never a key that is absorbing
//! traffic. When every way is warmer the newcomer is simply not cached
//! (its insert already happened; see below). Frequency without recency is
//! enough here because a tile lives for one block: over ~3 K emits a key's
//! popularity does not drift, so a way that has folded once is, with Zipf
//! odds, a better tenant than the next once-seen word.
//!
//! ## Exactness (why results stay byte-identical)
//!
//! The combiner is a *write-back delta cache over resident entries*, not a
//! deferred-insert queue:
//!
//! * The **first** emit of a key in a tile's lifetime goes through the real
//!   table insert inline ([`SepoTable::insert_combining_entry`]) — the
//!   allocation sequence, postponement outcome, and fault draws are exactly
//!   those of a combiner-off run. Only on success is the resident entry's
//!   handle cached — and not even then when the victim rule declines it.
//! * **Subsequent** emits of a cached key accumulate a local delta against
//!   the handle: no bucket touch, no chain walk, no device atomic.
//! * **Flush** (block retirement) applies each pending delta with one
//!   device atomic ([`SepoTable::combine_delta`]). The cached handle is
//!   valid by construction: eviction only runs at iteration boundaries,
//!   after every block of the launch has retired — so a flush can never
//!   miss. Because the executor drains `finish` hooks before a launch
//!   returns, every delta lands **before** the driver's postponement
//!   bookkeeping, keeping `TableAudit` invariants and resume points exact.
//!
//! Since every table-state transition (allocate, publish, postpone,
//! combine) happens in the same order with the same outcomes as the
//! uncombined run — only *when* duplicate deltas are applied changes, and
//! combiners are commutative/associative — final results are
//! byte-identical with the combiner on or off.

use crate::config::Combiner;
use crate::hash::mix;
use crate::table::{InsertStatus, SepoTable};
use gpu_sim::charge::Charge;
use sepo_alloc::DevHandle;

/// Ways per set: the most tags one emit ever probes.
pub const WAYS: usize = 8;
/// Key-arena bytes per slot; longer keys are not cached.
pub const KEY_BYTES: usize = 16;
/// Shared-memory bytes per slot: hash, entry handle and delta words, the
/// fold count, the key length, and the slot's share of the key arena.
const SLOT_BYTES: usize = 8 + 8 + 8 + 4 + 1 + KEY_BYTES;

/// Configuration of the block combiner layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinerConfig {
    /// Slots per block tile, grouped into sets of `min(WAYS, capacity)`
    /// ways (a capacity that is not a multiple of the way count rounds
    /// down to whole sets). The default 256 slots keep four resident
    /// blocks within an SMX's 48 KiB of shared memory
    /// ([`CombinerConfig::tile_bytes`]); capacity 1 degenerates to a
    /// single-entry cache and exercises the overflow path constantly.
    pub capacity: usize,
}

impl Default for CombinerConfig {
    fn default() -> Self {
        CombinerConfig { capacity: 256 }
    }
}

impl CombinerConfig {
    /// `(sets, ways)` of the tile this configuration describes.
    fn geometry(&self) -> (usize, usize) {
        let ways = self.capacity.clamp(1, WAYS);
        ((self.capacity / ways).max(1), ways)
    }

    /// Shared-memory footprint of one block's tile: slot arrays, key arena,
    /// and the per-set fill counts.
    pub fn tile_bytes(&self) -> usize {
        let (sets, ways) = self.geometry();
        sets * ways * SLOT_BYTES + sets
    }
}

/// The tile's storage, indexed by slot (`set * ways + way`) except
/// `filled`, which is per set. A slot's delta is meaningful only while its
/// fold count is non-zero: right after admission the first value went into
/// the table inline, so a combiner needs no identity element.
#[derive(Debug)]
struct Tile {
    /// Occupied ways per set (always the lowest ones).
    filled: Box<[u8]>,
    hash: Box<[u64]>,
    entry: Box<[DevHandle]>,
    delta: Box<[u64]>,
    /// Emits folded into the slot since its key was admitted.
    folds: Box<[u32]>,
    key_len: Box<[u8]>,
    /// `KEY_BYTES` per slot.
    keys: Box<[u8]>,
}

impl Tile {
    fn empty(sets: usize, ways: usize) -> Self {
        let slots = sets * ways;
        Tile {
            filled: vec![0; sets].into(),
            hash: vec![0; slots].into(),
            entry: vec![DevHandle::NULL; slots].into(),
            delta: vec![0; slots].into(),
            folds: vec![0; slots].into(),
            key_len: vec![0; slots].into(),
            keys: vec![0; slots * KEY_BYTES].into(),
        }
    }

    fn key(&self, slot: usize) -> &[u8] {
        &self.keys[slot * KEY_BYTES..][..self.key_len[slot] as usize]
    }

    /// Occupied slots, in slot order.
    fn occupied(&self, ways: usize) -> impl Iterator<Item = usize> + '_ {
        let sets = self.filled.iter().enumerate();
        sets.flat_map(move |(set, &filled)| set * ways..set * ways + filled as usize)
    }
}

/// A thread block's combining tile. One per block, created by the driver's
/// block-scratch `init` hook and drained by its `finish` hook.
#[derive(Debug)]
pub struct WarpCombiner {
    comb: Combiner,
    sets: usize,
    ways: usize,
    /// Allocated by the first emit.
    tile: Option<Tile>,
}

/// Simulated bytes moved per way inspected (the 8-byte hash word).
const PROBE_BYTES: u64 = 8;
/// Simulated bytes for a slot delta read-modify-write.
const UPDATE_BYTES: u64 = 16;

impl WarpCombiner {
    /// Tile for one thread block, aggregating with `comb` over
    /// `cfg.capacity` slots. Allocates nothing.
    pub fn new(comb: Combiner, cfg: CombinerConfig) -> Self {
        let (sets, ways) = cfg.geometry();
        WarpCombiner {
            comb,
            sets,
            ways,
            tile: None,
        }
    }

    /// Emit `<key, value>` through the combiner. Exactly one of three
    /// things happens:
    ///
    /// * the key is cached → the value folds into the local delta
    ///   (shared-memory traffic only);
    /// * the key is not cached → the pair is inserted into the table inline
    ///   (the combiner-off path, bit for bit) and, on success, cached if
    ///   its set has a free or never-folded way;
    /// * the table postpones → `Postponed` propagates untouched, nothing is
    ///   cached.
    pub fn emit<C: Charge>(
        &mut self,
        table: &SepoTable,
        key: &[u8],
        hash: u64,
        value: u64,
        charge: &mut C,
    ) -> InsertStatus {
        let insert = |charge: &mut C| table.insert_combining_entry(key, hash, value, charge);
        if key.len() > KEY_BYTES {
            // No arena room for this key: it bypasses the tile.
            return match insert(charge) {
                Ok(_) => InsertStatus::Success,
                Err(()) => InsertStatus::Postponed,
            };
        }
        let (sets, ways, comb) = (self.sets, self.ways, self.comb);
        let tile = self.tile.get_or_insert_with(|| Tile::empty(sets, ways));
        let set = (mix(hash) % sets as u64) as usize;
        let base = set * ways;
        let filled = tile.filled[set] as usize;
        for slot in base..base + filled {
            charge.smem_bytes(PROBE_BYTES);
            if tile.hash[slot] == hash && tile.key(slot) == key {
                tile.delta[slot] = match tile.folds[slot] {
                    0 => value,
                    _ => comb.apply(tile.delta[slot], value),
                };
                tile.folds[slot] = tile.folds[slot].saturating_add(1);
                charge.smem_bytes(UPDATE_BYTES);
                charge.combiner_hits(1);
                return InsertStatus::Success;
            }
        }
        if filled < ways {
            charge.smem_bytes(PROBE_BYTES); // the free way that ends the probe
        }
        // Miss: run the real insert first. A postponement must surface now,
        // exactly as it would without the combiner, and leaves no slot.
        let entry = match insert(charge) {
            Ok(e) => e,
            Err(()) => return InsertStatus::Postponed,
        };
        let slot = if filled < ways {
            tile.filled[set] += 1;
            base + filled
        } else {
            // Set full: the coldest way (first of equals) makes room, but
            // only if it never folded — so it has no delta to write back.
            let victim = (base..base + ways)
                .min_by_key(|&slot| tile.folds[slot])
                .expect("a set has at least one way");
            if tile.folds[victim] > 0 {
                return InsertStatus::Success;
            }
            charge.smem_bytes(UPDATE_BYTES);
            charge.combiner_overflows(1);
            victim
        };
        tile.hash[slot] = hash;
        tile.entry[slot] = entry;
        tile.folds[slot] = 0;
        tile.key_len[slot] = key.len() as u8;
        tile.keys[slot * KEY_BYTES..][..key.len()].copy_from_slice(key);
        charge.smem_bytes(UPDATE_BYTES + key.len() as u64);
        InsertStatus::Success
    }

    /// Drain every pending delta into the table — one device atomic per
    /// slot that actually accumulated one — and empty the tile. Called at
    /// block retirement; always completes before the launch returns. A
    /// tile no emit ever reached charges nothing.
    pub fn flush<C: Charge>(&mut self, table: &SepoTable, charge: &mut C) {
        let Some(tile) = self.tile.as_mut() else {
            return;
        };
        for slot in tile.occupied(self.ways) {
            charge.smem_bytes(UPDATE_BYTES);
            if tile.folds[slot] > 0 {
                table.combine_delta(tile.entry[slot], tile.delta[slot], self.comb, charge);
                charge.combiner_flushes(1);
            }
        }
        tile.filled.fill(0);
    }

    /// Pending deltas currently buffered (tests / instrumentation).
    pub fn pending(&self) -> usize {
        self.tile.as_ref().map_or(0, |tile| {
            let pending = |&slot: &usize| tile.folds[slot] > 0;
            tile.occupied(self.ways).filter(pending).count()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Organization, TableConfig};
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use std::sync::Arc;

    fn table(comb: Combiner, heap_kb: usize) -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(comb))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (heap_kb * 1024) as u64, Arc::new(Metrics::new()))
    }

    #[test]
    fn combined_emits_match_direct_inserts() {
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
        let mut c = NoCharge;
        for i in 0..100u32 {
            let key = format!("key-{}", i % 7);
            let h = crate::hash::fnv1a(key.as_bytes());
            assert!(wc.emit(&t, key.as_bytes(), h, 1, &mut c).is_success());
        }
        // Before the flush, later duplicates are only buffered locally.
        assert!(wc.pending() > 0);
        wc.flush(&t, &mut c);
        assert_eq!(wc.pending(), 0);
        for i in 0..7u32 {
            let key = format!("key-{i}");
            let expect = (100 / 7) + u64::from(i < 100 % 7);
            assert_eq!(t.lookup_combining(key.as_bytes(), &mut c), Some(expect));
        }
    }

    #[test]
    fn capacity_one_overflows_but_stays_exact() {
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig { capacity: 1 });
        let m = Metrics::new();
        let mut c = gpu_sim::charge::MetricsCharge(&m);
        // Alternating keys evict each other from the single slot on every
        // other emit; totals must still be exact.
        for i in 0..50u32 {
            let key = if i % 2 == 0 { &b"a"[..] } else { &b"b"[..] };
            let h = crate::hash::fnv1a(key);
            assert!(wc.emit(&t, key, h, 1, &mut c).is_success());
        }
        wc.flush(&t, &mut c);
        let mut nc = NoCharge;
        assert_eq!(t.lookup_combining(b"a", &mut nc), Some(25));
        assert_eq!(t.lookup_combining(b"b", &mut nc), Some(25));
        assert!(m.snapshot().combiner_overflows > 0, "capacity 1 must spill");
    }

    #[test]
    fn postponement_surfaces_and_caches_nothing() {
        // 1 KiB heap fills after a few distinct keys.
        let t = table(Combiner::Add, 1);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
        let mut c = NoCharge;
        let mut postponed_key = None;
        for i in 0..100u32 {
            let key = format!("key-{i:04}");
            let h = crate::hash::fnv1a(key.as_bytes());
            if !wc.emit(&t, key.as_bytes(), h, 1, &mut c).is_success() {
                postponed_key = Some(key);
                break;
            }
        }
        let postponed_key = postponed_key.expect("1 KiB heap must fill");
        // A postponed key was not cached: a duplicate emit re-attempts the
        // table (and is absorbed there only if the key is resident — it is
        // not, so it postpones again rather than silently combining).
        let h = crate::hash::fnv1a(postponed_key.as_bytes());
        assert_eq!(
            wc.emit(&t, postponed_key.as_bytes(), h, 1, &mut c),
            InsertStatus::Postponed
        );
        // Resident keys keep combining even with the heap full.
        let h = crate::hash::fnv1a(b"key-0000");
        assert!(wc.emit(&t, b"key-0000", h, 1, &mut c).is_success());
        wc.flush(&t, &mut c);
        assert_eq!(t.lookup_combining(b"key-0000", &mut c), Some(2));
    }

    #[test]
    fn duplicate_hits_skip_the_table_entirely() {
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
        let m = Metrics::new();
        let mut c = gpu_sim::charge::MetricsCharge(&m);
        let h = crate::hash::fnv1a(b"hot");
        wc.emit(&t, b"hot", h, 1, &mut c);
        let after_first = t.contention_histogram().total_updates();
        for _ in 0..99 {
            wc.emit(&t, b"hot", h, 1, &mut c);
        }
        // 99 duplicate emits: zero additional bucket touches.
        assert_eq!(t.contention_histogram().total_updates(), after_first);
        assert_eq!(m.snapshot().combiner_hits, 99);
        wc.flush(&t, &mut c);
        assert_eq!(m.snapshot().combiner_flushes, 1);
        let mut nc = NoCharge;
        assert_eq!(t.lookup_combining(b"hot", &mut nc), Some(100));
    }

    #[test]
    fn hot_key_survives_a_stream_of_cold_keys_in_its_set() {
        // One 8-way set, so every key competes with the hot one. The hot
        // key is emitted every other emit amid 100 distinct cold keys:
        // evict-the-home-slot would displace it over and over; the
        // fewest-folds victim rule admits it once and never evicts it.
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig { capacity: WAYS });
        let m = Metrics::new();
        let mut c = gpu_sim::charge::MetricsCharge(&m);
        let hot = crate::hash::fnv1a(b"hot");
        let cold_keys = 100u64;
        for i in 0..cold_keys {
            assert!(wc.emit(&t, b"hot", hot, 1, &mut c).is_success());
            let key = format!("cold-{i:03}");
            let h = crate::hash::fnv1a(key.as_bytes());
            assert!(wc.emit(&t, key.as_bytes(), h, 1, &mut c).is_success());
        }
        // The table saw the hot key once, and each cold key once.
        assert_eq!(t.contention_histogram().total_updates(), 1 + cold_keys);
        wc.flush(&t, &mut c);
        let s = m.snapshot();
        assert_eq!(s.combiner_hits, cold_keys - 1);
        // Only cold keys were displaced: all but the seven still cached.
        assert_eq!(s.combiner_overflows, cold_keys - (WAYS as u64 - 1));
        // The hot key's single pending delta is the only flush.
        assert_eq!(s.combiner_flushes, 1);
        let mut nc = NoCharge;
        assert_eq!(t.lookup_combining(b"hot", &mut nc), Some(cold_keys));
        assert_eq!(t.lookup_combining(b"cold-042", &mut nc), Some(1));
    }

    #[test]
    fn a_set_of_warm_keys_declines_newcomers() {
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig { capacity: 2 });
        let m = Metrics::new();
        let mut c = gpu_sim::charge::MetricsCharge(&m);
        let emit = |wc: &mut WarpCombiner, key: &[u8], c: &mut gpu_sim::charge::MetricsCharge| {
            assert!(wc.emit(&t, key, crate::hash::fnv1a(key), 1, c).is_success());
        };
        for key in [&b"a"[..], b"b", b"a", b"b"] {
            emit(&mut wc, key, &mut c);
        }
        // Both ways have folded: "c" goes to the table and is not cached,
        // so its repeat goes to the table again and nothing is displaced.
        emit(&mut wc, b"c", &mut c);
        emit(&mut wc, b"c", &mut c);
        emit(&mut wc, b"a", &mut c);
        wc.flush(&t, &mut c);
        let s = m.snapshot();
        assert_eq!((s.combiner_hits, s.combiner_overflows), (3, 0));
        assert_eq!(s.combiner_flushes, 2);
        let mut nc = NoCharge;
        for (key, expect) in [(&b"a"[..], 3), (b"b", 2), (b"c", 2)] {
            assert_eq!(t.lookup_combining(key, &mut nc), Some(expect));
        }
    }

    #[test]
    fn keys_beyond_the_arena_bypass_the_tile() {
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
        let m = Metrics::new();
        let mut c = gpu_sim::charge::MetricsCharge(&m);
        let key = [b'k'; KEY_BYTES + 1];
        let h = crate::hash::fnv1a(&key);
        for _ in 0..5 {
            assert!(wc.emit(&t, &key, h, 1, &mut c).is_success());
        }
        // Every emit reached the table; the tile was never even allocated.
        assert_eq!(t.contention_histogram().total_updates(), 5);
        assert!(wc.tile.is_none());
        wc.flush(&t, &mut c);
        assert_eq!(m.snapshot().smem_bytes, 0);
        let mut nc = NoCharge;
        assert_eq!(t.lookup_combining(&key, &mut nc), Some(5));
    }

    #[test]
    fn an_untouched_tile_allocates_and_charges_nothing() {
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
        let m = Metrics::new();
        wc.flush(&t, &mut gpu_sim::charge::MetricsCharge(&m));
        assert!(wc.tile.is_none());
        assert_eq!(m.snapshot(), gpu_sim::metrics::Snapshot::default());
    }

    #[test]
    fn default_tile_fits_four_resident_blocks_per_smx() {
        // 48 KiB of shared memory per SMX, four resident 256-thread blocks
        // (`DeviceSpec::resident_threads`): 12 KiB per block.
        let bytes = CombinerConfig::default().tile_bytes();
        assert!(bytes <= 12 * 1024, "default tile is {bytes} B");
        assert!(4 * bytes <= 48 * 1024);
        // Geometry: whole sets of min(WAYS, capacity) ways.
        for (capacity, sets, ways) in [
            (0, 1, 1),
            (1, 1, 1),
            (7, 1, 7),
            (8, 1, 8),
            (12, 1, 8),
            (64, 8, 8),
            (256, 32, 8),
        ] {
            assert_eq!(CombinerConfig { capacity }.geometry(), (sets, ways));
        }
    }

    #[test]
    fn hash_collisions_keep_keys_separate() {
        // Force both keys into the same slot by lying about the hash: full
        // key comparison must still keep them distinct.
        let t = table(Combiner::Add, 64);
        let mut wc = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
        let mut c = NoCharge;
        let h = 0xDEAD_BEEF;
        assert!(wc.emit(&t, b"first", h, 10, &mut c).is_success());
        assert!(wc.emit(&t, b"second", h, 20, &mut c).is_success());
        assert!(wc.emit(&t, b"first", h, 1, &mut c).is_success());
        wc.flush(&t, &mut c);
        // The table was keyed by the same (wrong) hash, so both live in one
        // bucket — but remain separate entries with separate totals.
        t.finalize();
        let mut got = t.collect_combining();
        got.sort();
        assert_eq!(got, [(b"first".to_vec(), 11), (b"second".to_vec(), 20)]);
    }
}
