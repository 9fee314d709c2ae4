//! # sepo — larger-than-memory hash tables for GPU-accelerated Big Data analytics
//!
//! A complete Rust reproduction of *"The SEPO Model of Computation to
//! Enable Larger-Than-Memory Hash Tables for GPU-Accelerated Big Data
//! Analytics"* (Mokhtari & Stumm, IPPS 2017), built on a simulated GPU
//! substrate (no CUDA required — see `DESIGN.md` for the substitution
//! rationale).
//!
//! The SEPO (SElective POstponement) model lets a service — here, a GPU
//! hash table — *decline* requests that would be inefficient to serve
//! right now (device memory exhausted), asking the application to re-issue
//! them in a later iteration after the table has shipped its resident
//! pages to CPU memory. The result is a KV store that grows several times
//! past device memory with graceful, not catastrophic, slowdown.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`gpu_sim`] | SIMT executor, device memory, PCIe + cost models, LRU paging sim |
//! | [`sepo_alloc`] | page heap, free pool, bucket-group allocator, dual pointers |
//! | [`sepo_core`] | the SEPO hash table: 3 organizations, driver, eviction, results |
//! | [`sepo_mapreduce`] | map-side MapReduce API: `Emitter` and MAP_REDUCE / MAP_GROUP `Mode` |
//! | [`sepo_datagen`] | seeded synthetic datasets for the 7 evaluation apps |
//! | [`sepo_apps`] | the 7 applications, the MapReduce runtime (`run_mapper`), reference oracles |
//! | [`sepo_baselines`] | CPU, Phoenix++-like, MapCG-like, pinned, paging baselines |
//!
//! ## Quickstart
//!
//! ```
//! use sepo::prelude::*;
//! use std::sync::Arc;
//!
//! // A combining (reduce-on-insert) table with a tiny 64 KiB device heap.
//! let metrics = Arc::new(Metrics::new());
//! let table = SepoTable::new(
//!     TableConfig::tuned(Organization::Combining(Combiner::Add), 64 * 1024),
//!     64 * 1024,
//!     Arc::clone(&metrics),
//! );
//! let executor = Executor::new(ExecMode::ParallelDeterministic, metrics);
//!
//! // Count 10,000 keys through the SEPO driver: the heap overflows, the
//! // driver evicts and iterates, and every count still comes out exact.
//! let keys: Vec<String> = (0..10_000).map(|i| format!("key-{}", i % 2_500)).collect();
//! let outcome = SepoDriver::new(&table, &executor).run(
//!     keys.len(),
//!     |_| 16,
//!     |task, _start, lane| match table.insert_combining(keys[task].as_bytes(), 1, lane) {
//!         InsertStatus::Success => TaskResult::Done,
//!         InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
//!     },
//! );
//! assert!(outcome.n_iterations() > 1, "table outgrew the heap");
//! let results = table.collect_combining();
//! assert_eq!(results.len(), 2_500);
//! assert!(results.iter().all(|&(_, count)| count == 4));
//! ```

pub use gpu_sim;
pub use sepo_alloc;
pub use sepo_apps;
pub use sepo_baselines;
pub use sepo_core;
pub use sepo_datagen;
pub use sepo_mapreduce;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use gpu_sim::{
        Charge, ExecMode, Executor, Metrics, MetricsCharge, NoCharge, PcieBus, SimTime, SystemSpec,
    };
    pub use sepo_apps::{run_mapper, AppConfig, AppRun};
    pub use sepo_core::{
        Combiner, InsertStatus, Organization, SepoDriver, SepoOutcome, SepoTable, TableConfig,
        TaskResult,
    };
    pub use sepo_datagen::{App, Dataset};
    pub use sepo_mapreduce::{Emitter, Mode};
}
