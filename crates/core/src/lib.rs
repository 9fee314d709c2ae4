//! # sepo-core — the SEPO hash table
//!
//! The paper's primary contribution: a GPU hash table that can grow beyond
//! the size of device memory with graceful performance degradation, built
//! on the **SEPO** (SElective POstponement) model of computation — the
//! table may decline an insert with POSTPONE, and the application re-issues
//! the request in a later iteration after the table has rearranged data
//! between device and host memory.
//!
//! Structure:
//!
//! * [`table::SepoTable`] — closed-addressing chained hash table with three
//!   bucket organizations ([`config::Organization`]): *basic* (duplicates
//!   coexist), *multi-valued* (per-key value lists, Fig. 3), and
//!   *combining* (in-place aggregation through a [`config::Combiner`]).
//!   Variable-length keys and values throughout.
//! * [`sepo::SepoDriver`] — the iteration loop of Fig. 5: pending-record
//!   bitmap (plus per-task pair progress), chunked kernel launches, the
//!   basic method's 50% halt threshold, and per-iteration eviction.
//! * [`evict`] — iteration-boundary policies: wholesale heap eviction
//!   (basic/combining) or selective value-page / non-pending-key-page
//!   eviction with chain rebuild (multi-valued).
//! * [`compact`] — host compaction at the end of a run: a combining key's
//!   partial aggregates from several iterations fold into one host entry,
//!   and a multi-valued key's key entries join into one with one value
//!   chain.
//! * [`results`] — final result enumeration from the CPU-side store by
//!   page walking and host-linked chain traversal, over pages that passed
//!   their checksum stamp.
//! * [`lookup`] — the paper's "mental exercise": SEPO lookups against a
//!   larger-than-memory table, paging table segments back to the device
//!   and postponing queries whose keys are not yet resident.
//! * [`serve`] — online serving: epoch snapshots published at iteration
//!   boundaries answer point lookups and grouped scans while the SEPO
//!   loop runs, with an incremental host index for evicted keys.
//!
//! The table allocates from [`sepo_alloc`]'s page heap, executes inside
//! [`gpu_sim`] kernels, and reports event counts for the cost model.
//!
//! ```
//! use sepo_core::{Combiner, Organization, SepoTable, TableConfig};
//! use gpu_sim::{Metrics, NoCharge};
//! use std::sync::Arc;
//!
//! let cfg = TableConfig::new(Organization::Combining(Combiner::Add));
//! let table = SepoTable::new(cfg, 1 << 20, Arc::new(Metrics::new()));
//! let mut charge = NoCharge;
//! table.insert_combining(b"http://example.com", 1, &mut charge);
//! table.insert_combining(b"http://example.com", 1, &mut charge);
//! table.finalize();
//! assert_eq!(table.collect_combining(), vec![(b"http://example.com".to_vec(), 2)]);
//! ```

pub mod audit;
pub mod bitmap;
pub(crate) mod chain;
pub mod checkpoint;
pub mod combiner;
pub mod compact;
pub mod config;
pub mod entry;
pub mod evict;
pub mod hash;
pub mod integrity;
pub mod lookup;
pub mod persist;
pub mod results;
pub mod sepo;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod table;

pub use audit::{AuditViolation, TableAudit};
pub use bitmap::Bitmap;
pub use checkpoint::{Checkpoint, CheckpointFile, CheckpointPolicy};
pub use combiner::{CombinerConfig, WarpCombiner};
pub use compact::CompactReport;
pub use config::{Combiner, Organization, TableConfig};
pub use evict::EvictReport;
pub use integrity::{IntegrityState, TransferFailure, MAX_TRANSFER_RETRANSMITS};
pub use lookup::{LookupOutcome, LookupRound};
pub use results::GroupedPair;
pub use sepo::{
    DriverConfig, IterationStats, RecoveryStats, SepoDriver, SepoError, SepoOutcome, TaskResult,
};
pub use sepo_alloc::crc32c;
pub use serve::{EpochPublisher, EpochSnapshot, HostStore, QueryError};
pub use shard::{canonical_image, shard_of, shard_of_key, split_keys, ShardSpec, ShardedSnapshot};
pub use stats::TableStats;
pub use table::{InsertStatus, SepoTable};
