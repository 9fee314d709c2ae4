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
//! The tile is flat: hash / entry-handle / delta / key-length arrays
//! indexed by slot, a fill count and a fold mask per set, plus a key arena
//! of [`KEY_BYTES`] per slot — no per-slot heap object, nothing allocated
//! per emit, and nothing allocated at all until a block's first emit (a
//! kernel that never combines pays nothing for the hook). A key longer
//! than [`KEY_BYTES`] bypasses the tile and goes straight to the table.
//!
//! Slots are grouped into a power-of-two number of sets of [`WAYS`]. An
//! emit probes only its home set (`mix(hash) & (sets - 1)`): at most `WAYS` tag reads, however full the
//! tile is, charged in one `smem_bytes` call. Ways fill lowest-first
//! and a victim is replaced in place, so a set's occupied ways are always
//! a prefix and one count per set finds the free way.
//!
//! ## Victim rule
//!
//! On a miss in a full set the victim is the lowest way that has folded
//! *nothing* since admission: bit `way` of the set's `folded` mask is set
//! by a way's first fold and cleared when a key is admitted, so the victim
//! is `(!folded & full).trailing_zeros()` — one instruction, not a scan of
//! per-way counts. A newcomer has itself been seen once, so it may
//! displace another key seen once but never a key that is absorbing
//! traffic. When every way has folded the newcomer is simply not cached
//! (its insert already happened; see below). This is the rule "fewest
//! folds, ties to the lowest way, and only if that is zero", because only
//! zero versus non-zero ever decides it. Frequency without recency is
//! enough here because a tile lives for one block: over ~3 K emits a key's
//! popularity does not drift, so a way that has folded once is, with Zipf
//! odds, a better tenant than the next once-seen word.
//!
//! ## Which apps reach the tile
//!
//! Every emit of a MAP_REDUCE mapper goes through
//! `Emitter::emit_combining`, which routes to the tile whenever the driver
//! installed one: Word Count's words and Netflix's 16-byte user-pair keys.
//! DNA Assembly and Page View Count insert directly and never reach it.
//! DNA's k-mers are nearly all distinct within a block, so the tile only
//! adds probe traffic; PVC's URLs are longer than [`KEY_BYTES`] and would
//! bypass it anyway (DESIGN.md §8 has the measurements).
//!
//! ## Exactness (why results stay byte-identical)
//!
//! The combiner is a *write-back delta cache over resident entries*, not a
//! deferred-insert queue:
//!
//! * The **first** emit of a key in a tile's lifetime goes through the real
//!   table insert inline (`SepoTable::insert_combining_entry`) — the
//!   allocation sequence, postponement outcome, and fault draws are exactly
//!   those of a combiner-off run. Only on success is the resident entry's
//!   handle cached — and not even then when the victim rule declines it.
//! * **Subsequent** emits of a cached key accumulate a local delta against
//!   the handle: no bucket touch, no chain walk, no device atomic.
//! * **Flush** (block retirement) applies each pending delta with one
//!   device atomic (`SepoTable::combine_delta`). The cached handle is
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
/// key length, and the slot's share of the key arena.
const SLOT_BYTES: usize = 8 + 8 + 8 + 1 + KEY_BYTES;

/// Configuration of the block combiner layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinerConfig {
    /// Slots per block tile, grouped into sets of `min(WAYS, capacity)`
    /// ways (a capacity rounds down to a power-of-two number of whole
    /// sets). The default 256 slots keep four resident
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
    /// `(sets, ways)` of the tile this configuration describes; `sets` is
    /// a power of two.
    fn geometry(&self) -> (usize, usize) {
        let ways = self.capacity.clamp(1, WAYS);
        let whole_sets = (self.capacity / ways).max(1);
        (1 << whole_sets.ilog2(), ways)
    }

    /// Shared-memory footprint of one block's tile: slot arrays, key arena,
    /// and the per-set fill counts and fold masks.
    pub fn tile_bytes(&self) -> usize {
        let (sets, ways) = self.geometry();
        sets * ways * SLOT_BYTES + 2 * sets
    }
}

/// The tile's storage, indexed by slot (`set * ways + way`) except
/// `filled` and `folded`, which are per set. A slot's delta is meaningful
/// only while its fold bit is set: right after admission the first value
/// went into the table inline, so a combiner needs no identity element.
#[derive(Debug)]
struct Tile {
    /// Occupied ways per set (always the lowest ones).
    filled: Box<[u8]>,
    /// Per set, bit `way` set once an emit folded into that way since its
    /// key was admitted.
    folded: Box<[u8]>,
    hash: Box<[u64]>,
    entry: Box<[DevHandle]>,
    delta: Box<[u64]>,
    key_len: Box<[u8]>,
    /// `KEY_BYTES` per slot.
    keys: Box<[u8]>,
}

impl Tile {
    fn empty(sets: usize, ways: usize) -> Self {
        let slots = sets * ways;
        Tile {
            filled: vec![0; sets].into(),
            folded: vec![0; sets].into(),
            hash: vec![0; slots].into(),
            entry: vec![DevHandle::NULL; slots].into(),
            delta: vec![0; slots].into(),
            key_len: vec![0; slots].into(),
            keys: vec![0; slots * KEY_BYTES].into(),
        }
    }

    fn key(&self, slot: usize) -> &[u8] {
        &self.keys[slot * KEY_BYTES..][..self.key_len[slot] as usize]
    }

    /// Occupied slots in slot order, each with whether it holds a delta.
    fn occupied(&self, ways: usize) -> impl Iterator<Item = (usize, bool)> + '_ {
        let sets = self.filled.iter().zip(self.folded.iter()).enumerate();
        sets.flat_map(move |(set, (&filled, &folded))| {
            (0..filled as usize).map(move |way| (set * ways + way, folded >> way & 1 == 1))
        })
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

/// The set `hash` probes. `sets` is a power of two
/// ([`CombinerConfig::geometry`]), so a mask picks it: on the host a 64-bit
/// division would cost more than the rest of the probe.
fn home_set(hash: u64, sets: usize) -> usize {
    (mix(hash) & (sets as u64 - 1)) as usize
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
        let set = home_set(hash, sets);
        let base = set * ways;
        let filled = tile.filled[set] as usize;
        let hit =
            (base..base + filled).position(|slot| tile.hash[slot] == hash && tile.key(slot) == key);
        if let Some(way) = hit {
            let (slot, bit) = (base + way, 1u8 << way);
            tile.delta[slot] = match tile.folded[set] & bit {
                0 => value,
                _ => comb.apply(tile.delta[slot], value),
            };
            tile.folded[set] |= bit;
            charge.smem_bytes(PROBE_BYTES * (way as u64 + 1) + UPDATE_BYTES);
            charge.combiner_hits(1);
            return InsertStatus::Success;
        }
        // Every occupied way, plus the free way that ends the probe.
        charge.smem_bytes(PROBE_BYTES * (filled + 1).min(ways) as u64);
        // Miss: run the real insert first. A postponement must surface now,
        // exactly as it would without the combiner, and leaves no slot.
        let entry = match insert(charge) {
            Ok(e) => e,
            Err(()) => return InsertStatus::Postponed,
        };
        let way = if filled < ways {
            tile.filled[set] += 1;
            filled
        } else {
            // Set full: the lowest way that never folded makes room — it
            // has no delta to write back. Every way warmer: decline.
            let cold = !tile.folded[set] & (u8::MAX >> (WAYS - ways));
            if cold == 0 {
                return InsertStatus::Success;
            }
            charge.smem_bytes(UPDATE_BYTES);
            charge.combiner_overflows(1);
            cold.trailing_zeros() as usize
        };
        let slot = base + way;
        tile.folded[set] &= !(1 << way);
        tile.hash[slot] = hash;
        tile.entry[slot] = entry;
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
        for (slot, pending) in tile.occupied(self.ways) {
            charge.smem_bytes(UPDATE_BYTES);
            if pending {
                table.combine_delta(tile.entry[slot], tile.delta[slot], self.comb, charge);
                charge.combiner_flushes(1);
            }
        }
        tile.filled.fill(0);
        tile.folded.fill(0);
    }

    /// Pending deltas currently buffered (tests / instrumentation).
    pub fn pending(&self) -> usize {
        self.tile.as_ref().map_or(0, |tile| {
            tile.occupied(self.ways)
                .filter(|&(_, pending)| pending)
                .count()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Organization, TableConfig};
    use gpu_sim::charge::{MetricsCharge, NoCharge};
    use gpu_sim::metrics::Metrics;
    use proptest::collection::vec;
    use proptest::prelude::*;
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
        // Geometry: a power-of-two number of whole sets of
        // min(WAYS, capacity) ways.
        for (capacity, sets, ways) in [
            (0, 1, 1),
            (1, 1, 1),
            (7, 1, 7),
            (8, 1, 8),
            (12, 1, 8),
            (24, 2, 8),
            (64, 8, 8),
            (200, 16, 8),
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

    /// The victim rule before the fold mask, kept as the model: a fold
    /// count per slot, the victim found by a scan for the fewest folds
    /// (ties to the lowest way), displaced only when it folded nothing.
    /// Probes charge per way inspected.
    struct FewestFolds {
        comb: Combiner,
        sets: usize,
        ways: usize,
        filled: Vec<u8>,
        hash: Vec<u64>,
        entry: Vec<DevHandle>,
        delta: Vec<u64>,
        folds: Vec<u32>,
        keys: Vec<Vec<u8>>,
    }

    impl FewestFolds {
        fn new(comb: Combiner, cfg: CombinerConfig) -> Self {
            let (sets, ways) = cfg.geometry();
            let slots = sets * ways;
            FewestFolds {
                comb,
                sets,
                ways,
                filled: vec![0; sets],
                hash: vec![0; slots],
                entry: vec![DevHandle::NULL; slots],
                delta: vec![0; slots],
                folds: vec![0; slots],
                keys: vec![Vec::new(); slots],
            }
        }

        fn emit<C: Charge>(
            &mut self,
            table: &SepoTable,
            key: &[u8],
            hash: u64,
            value: u64,
            charge: &mut C,
        ) -> InsertStatus {
            let insert = |charge: &mut C| table.insert_combining_entry(key, hash, value, charge);
            if key.len() > KEY_BYTES {
                return match insert(charge) {
                    Ok(_) => InsertStatus::Success,
                    Err(()) => InsertStatus::Postponed,
                };
            }
            let set = (mix(hash) % self.sets as u64) as usize;
            let base = set * self.ways;
            let filled = self.filled[set] as usize;
            for slot in base..base + filled {
                charge.smem_bytes(PROBE_BYTES);
                if self.hash[slot] == hash && self.keys[slot] == key {
                    self.delta[slot] = match self.folds[slot] {
                        0 => value,
                        _ => self.comb.apply(self.delta[slot], value),
                    };
                    self.folds[slot] = self.folds[slot].saturating_add(1);
                    charge.smem_bytes(UPDATE_BYTES);
                    charge.combiner_hits(1);
                    return InsertStatus::Success;
                }
            }
            if filled < self.ways {
                charge.smem_bytes(PROBE_BYTES);
            }
            let entry = match insert(charge) {
                Ok(e) => e,
                Err(()) => return InsertStatus::Postponed,
            };
            let slot = if filled < self.ways {
                self.filled[set] += 1;
                base + filled
            } else {
                let victim = (base..base + self.ways)
                    .min_by_key(|&slot| self.folds[slot])
                    .expect("a set has at least one way");
                if self.folds[victim] > 0 {
                    return InsertStatus::Success;
                }
                charge.smem_bytes(UPDATE_BYTES);
                charge.combiner_overflows(1);
                victim
            };
            self.hash[slot] = hash;
            self.entry[slot] = entry;
            self.folds[slot] = 0;
            self.keys[slot] = key.to_vec();
            charge.smem_bytes(UPDATE_BYTES + key.len() as u64);
            InsertStatus::Success
        }

        fn flush<C: Charge>(&mut self, table: &SepoTable, charge: &mut C) {
            for slot in self.occupied() {
                charge.smem_bytes(UPDATE_BYTES);
                if self.folds[slot] > 0 {
                    table.combine_delta(self.entry[slot], self.delta[slot], self.comb, charge);
                    charge.combiner_flushes(1);
                }
            }
            self.filled.fill(0);
        }

        fn occupied(&self) -> Vec<usize> {
            let ways = self.ways;
            let sets = self.filled.iter().enumerate();
            sets.flat_map(|(set, &filled)| set * ways..set * ways + filled as usize)
                .collect()
        }

        /// Cached keys in slot order, each with its pending delta.
        fn cached(&self) -> Vec<(Vec<u8>, Option<u64>)> {
            let pending = |slot: usize| (self.folds[slot] > 0).then_some(self.delta[slot]);
            let slots = self.occupied().into_iter();
            slots
                .map(|slot| (self.keys[slot].clone(), pending(slot)))
                .collect()
        }
    }

    /// [`FewestFolds::cached`] for the tile under test.
    fn cached(wc: &WarpCombiner) -> Vec<(Vec<u8>, Option<u64>)> {
        let Some(tile) = wc.tile.as_ref() else {
            return Vec::new();
        };
        let slots = tile.occupied(wc.ways);
        let pending = |slot: usize, folded: bool| folded.then_some(tile.delta[slot]);
        slots
            .map(|(slot, folded)| (tile.key(slot).to_vec(), pending(slot, folded)))
            .collect()
    }

    fn traffic(m: &Metrics) -> [u64; 4] {
        let s = m.snapshot();
        [
            s.smem_bytes,
            s.combiner_hits,
            s.combiner_overflows,
            s.combiner_flushes,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fold-mask victim rule is the fewest-folds rule: over skewed
        /// key streams, at capacities 1, 8 and 256, on an ample heap and on
        /// one that postpones, the tile and the model cache the same keys
        /// with the same deltas and charge the same traffic after every
        /// emit and every flush.
        #[test]
        fn fold_mask_victims_match_the_fewest_folds_rule(
            capacity in prop_oneof![Just(1usize), Just(8usize), Just(256usize)],
            pool in 1u64..200,
            heap_kb in prop_oneof![Just(2usize), Just(64usize)],
            stream in vec(
                (0u64..1 << 20, 0u64..1 << 20, 1u64..5, 0usize..400),
                0..600,
            ),
        ) {
            let cfg = CombinerConfig { capacity };
            let (t_tile, t_model) = (table(Combiner::Add, heap_kb), table(Combiner::Add, heap_kb));
            let (m_tile, m_model) = (Metrics::new(), Metrics::new());
            let mut tile = WarpCombiner::new(Combiner::Add, cfg);
            let mut model = FewestFolds::new(Combiner::Add, cfg);
            for (a, b, value, flush_at) in stream {
                // The smaller of two draws: low key ids dominate.
                let id = (a % pool).min(b % pool);
                let key = match id % 17 {
                    0 => format!("a-key-longer-than-the-arena-{id}"),
                    _ => format!("k{id}"),
                };
                let h = crate::hash::fnv1a(key.as_bytes());
                let got = tile.emit(&t_tile, key.as_bytes(), h, value, &mut MetricsCharge(&m_tile));
                let want =
                    model.emit(&t_model, key.as_bytes(), h, value, &mut MetricsCharge(&m_model));
                prop_assert_eq!(got, want);
                if flush_at == 0 {
                    tile.flush(&t_tile, &mut MetricsCharge(&m_tile));
                    model.flush(&t_model, &mut MetricsCharge(&m_model));
                }
                prop_assert_eq!(cached(&tile), model.cached());
                prop_assert_eq!(traffic(&m_tile), traffic(&m_model));
            }
            tile.flush(&t_tile, &mut MetricsCharge(&m_tile));
            model.flush(&t_model, &mut MetricsCharge(&m_model));
            prop_assert_eq!(traffic(&m_tile), traffic(&m_model));
        }
    }
}
