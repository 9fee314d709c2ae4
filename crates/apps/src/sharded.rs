//! Multi-device sharded execution: hash-prefix sharding with a host router.
//!
//! The paper targets one GPU; real deployments shard a larger-than-memory
//! table across several devices. This module generalizes the seven §VI
//! applications to N simulated devices, each owning the hash-prefix slice
//! `shard = hash >> (64 - log2(N))` of the key space (see
//! [`sepo_core::shard`]). The pieces:
//!
//! * [`record_key_hashes`] — per-application key enumeration: the host-side
//!   mirror of each kernel's emit loop, producing the FNV-1a hash of every
//!   key a record will emit (the same hash the device insert path uses, so
//!   routing and storage agree bit for bit).
//! * [`ShardRouter`] — the host-side batching router: splits a [`Dataset`]
//!   into per-shard sub-datasets. A record is replicated to every shard
//!   owning at least one of its keys; each shard's replica re-runs the full
//!   task but the table's ownership filter drops foreign keys, so pair
//!   numbering (and therefore postponement resume points) stays identical
//!   to the unsharded run while each key is stored exactly once.
//! * [`run_app_sharded`] — drives one application over N shards, each with
//!   its own executor (device memory, warp pool, fault streams) and its own
//!   SEPO table slice, concurrently on the shared worker pool. The merged
//!   result is the [`sepo_core::canonical_image`], which is invariant
//!   across shard counts — N=1 anchors correctness.

use crate::common::{AppConfig, AppRun};
use crate::runner::run_app;
use gpu_sim::executor::Executor;
use parking_lot::Mutex;
use sepo_core::config::{Combiner, Organization};
use sepo_core::hash::fnv1a;
use sepo_core::shard::{audit_ownership, shard_bits};
use sepo_core::table::SepoTable;
use sepo_core::{canonical_image, shard_of, ShardSpec};
use sepo_datagen::geo::parse_article;
use sepo_datagen::html::parse_page;
use sepo_datagen::patents::parse_citation;
use sepo_datagen::ratings::{pair_key, parse_movie};
use sepo_datagen::weblog::parse_url;
use sepo_datagen::{App, Dataset};

/// Table organization each application uses (the Table I "mode" column).
pub fn organization_of(app: App) -> Organization {
    match app {
        App::PageViewCount | App::Netflix | App::WordCount => {
            Organization::Combining(Combiner::Add)
        }
        App::DnaAssembly => Organization::Combining(Combiner::Or),
        App::InvertedIndex | App::PatentCitation | App::GeoLocation => Organization::MultiValued,
    }
}

/// Append the FNV-1a hash of every key `record` emits in `app`'s kernel.
///
/// Mirrors each kernel's emit loop exactly (same parse, same key bytes) so
/// a record is routed to precisely the shards that will store one of its
/// keys. Malformed records emit no keys and leave `out` untouched.
pub fn record_key_hashes(app: App, record: &[u8], out: &mut Vec<u64>) {
    match app {
        App::PageViewCount => {
            if let Some(url) = parse_url(record) {
                out.push(fnv1a(url));
            }
        }
        App::InvertedIndex => {
            let (_path, links) = parse_page(record);
            out.extend(links.iter().map(|link| fnv1a(link)));
        }
        App::DnaAssembly => {
            let read = record.strip_suffix(b"\n").unwrap_or(record);
            if read.len() >= crate::dna::K {
                out.extend(
                    (0..=read.len() - crate::dna::K).map(|i| fnv1a(&read[i..i + crate::dna::K])),
                );
            }
        }
        App::Netflix => {
            if let Some((_movie, raters)) = parse_movie(record) {
                for i in 0..raters.len() {
                    for j in i + 1..raters.len() {
                        out.push(fnv1a(&pair_key(raters[i].0, raters[j].0)));
                    }
                }
            }
        }
        App::WordCount => {
            out.extend(crate::wordcount::words(record).map(fnv1a));
        }
        App::PatentCitation => {
            if let Some((_citing, cited)) = parse_citation(record) {
                out.push(fnv1a(cited));
            }
        }
        App::GeoLocation => {
            if let Some((_article, location)) = parse_article(record) {
                out.push(fnv1a(location));
            }
        }
    }
}

/// Host-side batching router: assigns keys and records to owner shards.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    app: App,
    bits: u32,
}

impl ShardRouter {
    /// A router over `shard_count` devices (must be a power of two).
    pub fn new(app: App, shard_count: u32) -> Self {
        ShardRouter {
            app,
            bits: shard_bits(shard_count),
        }
    }

    pub fn shard_count(&self) -> u32 {
        1 << self.bits
    }

    /// Owner shard of a key hash.
    pub fn shard_of_hash(&self, hash: u64) -> u32 {
        shard_of(hash, self.bits)
    }

    /// Split `dataset` into one sub-dataset per shard, preserving record
    /// order. A record is replicated to every shard owning at least one of
    /// its keys; keyless (malformed) records go to shard 0 so every task
    /// still runs exactly once somewhere.
    pub fn split_dataset(&self, dataset: &Dataset) -> Vec<Dataset> {
        let n = self.shard_count() as usize;
        let mut subsets: Vec<Dataset> = vec![Dataset::new(); n];
        let mut hashes = Vec::new();
        let mut owners: Vec<u32> = Vec::new();
        for record in dataset.records() {
            hashes.clear();
            record_key_hashes(self.app, record, &mut hashes);
            owners.clear();
            owners.extend(hashes.iter().map(|&h| self.shard_of_hash(h)));
            owners.sort_unstable();
            owners.dedup();
            if owners.is_empty() {
                subsets[0].push_record(record);
            } else {
                for &s in &owners {
                    subsets[s as usize].push_record(record);
                }
            }
        }
        subsets
    }
}

/// One application run over N shards: the per-shard runs plus the merged
/// canonical result image.
pub struct ShardedAppRun {
    /// Per-shard runs, shard order. Each table holds only its owned slice.
    pub shards: Vec<AppRun>,
    /// Records the router sent to each shard (replicas count per owner).
    pub routed_records: Vec<usize>,
    /// Canonical merged result image ([`sepo_core::canonical_image`]);
    /// byte-identical across shard counts for a given input.
    pub image: Vec<u8>,
}

impl ShardedAppRun {
    /// The slowest shard's iteration count (the sharded run's makespan is
    /// bounded by its slowest device).
    pub fn max_iterations(&self) -> u32 {
        self.shards
            .iter()
            .map(|r| r.iterations())
            .max()
            .unwrap_or(0)
    }
}

/// Canonical result image of a single unsharded run (the N=1 anchor that
/// sharded images are compared against).
pub fn unsharded_image(run: &AppRun) -> Vec<u8> {
    canonical_image(&[&run.table])
}

/// Run `app` over `dataset` sharded across `executors.len()` simulated
/// devices (one config + one executor per shard; the count must be a power
/// of two).
///
/// Each shard gets the router's sub-dataset and a table pinned to its
/// [`ShardSpec`] slice; shards execute concurrently on the shared worker
/// pool, so their simulated kernels overlap in wall-clock time while each
/// shard stays internally deterministic. After the runs complete the
/// cross-shard ownership audit must pass (a stored foreign key is a router
/// or filter bug and panics), and the merged canonical image is computed.
pub fn run_app_sharded(
    app: App,
    dataset: &Dataset,
    cfgs: &[AppConfig],
    executors: &[Executor],
) -> ShardedAppRun {
    assert_eq!(
        cfgs.len(),
        executors.len(),
        "one AppConfig per shard executor"
    );
    assert!(!executors.is_empty(), "at least one shard required");
    let n = executors.len() as u32;
    let router = ShardRouter::new(app, n);
    let subsets = router.split_dataset(dataset);
    // Pin each shard's table to its slice of the key space. Resolving the
    // table config here (instead of inside each app) keeps the seven app
    // drivers shard-oblivious: they see an explicit table override.
    let shard_cfgs: Vec<AppConfig> = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let spec = ShardSpec::new(i as u32, n);
            let table = cfg
                .table_config(organization_of(app))
                .with_shard(Some(spec));
            let mut cfg = cfg.clone();
            cfg.table = Some(table);
            cfg
        })
        .collect();
    let cells: Vec<Mutex<Option<AppRun>>> = (0..n as usize).map(|_| Mutex::new(None)).collect();
    gpu_sim::pool::scope(|s| {
        for (i, cell) in cells.iter().enumerate() {
            let subset = &subsets[i];
            let cfg = &shard_cfgs[i];
            let exec = &executors[i];
            s.spawn(move || {
                *cell.lock() = Some(run_app(app, subset, cfg, exec));
            });
        }
    });
    let shards: Vec<AppRun> = cells
        .into_iter()
        .map(|c| c.into_inner().expect("shard run completed"))
        .collect();
    let tables: Vec<&SepoTable> = shards.iter().map(|r| &r.table).collect();
    if let Err(e) = audit_ownership(&tables) {
        panic!("cross-shard ownership audit failed: {e}");
    }
    let image = canonical_image(&tables);
    ShardedAppRun {
        routed_records: subsets.iter().map(|d| d.len()).collect(),
        shards,
        image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;

    fn sharded_image(app: App, ds: &Dataset, heap: u64, shards: u32) -> Vec<u8> {
        let cfgs: Vec<AppConfig> = (0..shards).map(|_| AppConfig::new(heap)).collect();
        let execs: Vec<Executor> = (0..shards).map(|_| test_executor().0).collect();
        let run = run_app_sharded(app, ds, &cfgs, &execs);
        assert_eq!(run.shards.len(), shards as usize);
        run.image
    }

    #[test]
    fn sharded_matches_unsharded_for_every_app() {
        for app in App::ALL {
            let ds = app.generate(0, 32_768);
            let (exec, _) = test_executor();
            let reference = run_app(app, &ds, &AppConfig::new(8 << 20), &exec);
            let want = unsharded_image(&reference);
            for shards in [1, 2, 4] {
                let got = sharded_image(app, &ds, 8 << 20, shards);
                assert_eq!(got, want, "{} diverged at {} shards", app.name(), shards);
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_under_memory_pressure() {
        // Tiny heaps force multi-iteration SEPO runs on every shard; the
        // merged image must still be byte-identical, and sharding must cut
        // the per-shard iteration count (the weak-scaling effect).
        for (app, scale, heap) in [
            (App::PageViewCount, 8_192u64, 16 * 1024u64),
            (App::InvertedIndex, 16_384, 24 * 1024),
        ] {
            let ds = app.generate(0, scale);
            let (exec, _) = test_executor();
            let reference = run_app(app, &ds, &AppConfig::new(heap), &exec);
            assert!(
                reference.iterations() > 1,
                "{} must iterate at {heap}B",
                app.name()
            );
            let want = unsharded_image(&reference);
            let cfgs: Vec<AppConfig> = (0..4).map(|_| AppConfig::new(heap)).collect();
            let execs: Vec<Executor> = (0..4).map(|_| test_executor().0).collect();
            let sharded = run_app_sharded(app, &ds, &cfgs, &execs);
            assert_eq!(sharded.image, want, "{} diverged", app.name());
            assert!(
                sharded.max_iterations() <= reference.iterations(),
                "{}: sharding must not add iterations ({} > {})",
                app.name(),
                sharded.max_iterations(),
                reference.iterations()
            );
        }
    }

    #[test]
    fn router_replicates_multi_key_records_to_every_owner() {
        let ds = App::WordCount.generate(0, 32_768);
        let router = ShardRouter::new(App::WordCount, 4);
        let subsets = router.split_dataset(&ds);
        let routed: usize = subsets.iter().map(|d| d.len()).sum();
        assert!(routed >= ds.len(), "every record routes somewhere");
        // Each replica must carry at least one key its shard owns, and
        // every shard owning a key of a record must hold a replica.
        let mut hashes = Vec::new();
        for record in ds.records() {
            hashes.clear();
            record_key_hashes(App::WordCount, record, &mut hashes);
            for (s, subset) in subsets.iter().enumerate() {
                let held = subset.records().any(|r| r == record);
                let owns = hashes.iter().any(|&h| router.shard_of_hash(h) == s as u32);
                // A record identical to another may appear in shards owned
                // by either copy; only check the "must hold" direction.
                if owns {
                    assert!(held, "owner shard {s} missing a replica");
                }
            }
        }
    }

    #[test]
    fn keyless_records_route_to_shard_zero() {
        let mut ds = Dataset::new();
        ds.push_record(b"not a weblog line\n");
        let mut hashes = Vec::new();
        record_key_hashes(App::PageViewCount, ds.record(0), &mut hashes);
        assert!(hashes.is_empty(), "the record must be keyless");
        let subsets = ShardRouter::new(App::PageViewCount, 4).split_dataset(&ds);
        assert_eq!(subsets[0].len(), 1);
        assert!(subsets[1..].iter().all(|d| d.is_empty()));
    }

    #[test]
    fn dna_enumerator_mirrors_the_kernel_kmers() {
        let read = b"ACGTACGTACGTACGTACGT\n"; // 20 bases, 5 k-mers at K=16
        let mut hashes = Vec::new();
        record_key_hashes(App::DnaAssembly, read, &mut hashes);
        assert_eq!(hashes.len(), 5);
        let stripped = &read[..read.len() - 1];
        assert_eq!(hashes[0], fnv1a(&stripped[0..16]));
        assert_eq!(hashes[4], fnv1a(&stripped[4..20]));
        // Short reads emit nothing, matching the kernel's early return.
        hashes.clear();
        record_key_hashes(App::DnaAssembly, b"ACGT\n", &mut hashes);
        assert!(hashes.is_empty());
    }
}
