//! # sepo-mapreduce — the map-side API of a GPU MapReduce runtime
//!
//! Reproduction of §V of the SEPO paper: "a MapReduce runtime that uses
//! BigKernel as the input memory manager, our hash table as the KV store,
//! and a few more lines of code to schedule map and reduce phases".
//! Because the KV store can exceed device memory, this is "the first
//! GPU-based MapReduce runtime capable of processing data larger than what
//! GPU memory can hold".
//!
//! This crate holds what a map function sees; the schedule is the SEPO
//! driver's, run by `sepo_apps::run_mapper` with one map task per record
//! of the application's input (its record boundaries are the *input data
//! partitioner*'s output).
//!
//! * [`Mode`] — `MAP_REDUCE` (embedded reduce via a combining callback) or
//!   `MAP_GROUP` (multi-valued grouping without reduction).
//! * [`Emitter`] — makes re-execution after SEPO postponement idempotent by
//!   numbering pairs and resuming at the saved progress.

pub mod emitter;

pub use emitter::Emitter;

use sepo_core::config::{Combiner, Organization};

/// Runtime mode (§V): with or without a reduce phase.
///
/// In **MAP_REDUCE** mode the table uses the *combining* organization with
/// the application's reduce/combine callback, embedding the reduce phase in
/// the map phase ("this saves memory and improves performance" \[12\]); in
/// **MAP_GROUP** mode it uses the *multi-valued* organization to group
/// (without reducing) all values per key. No mode maps to the basic
/// organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `<key, value>` output via an embedded reduce/combine callback.
    MapReduce(Combiner),
    /// `<key, values>` output: group without reducing.
    MapGroup,
}

impl Mode {
    /// The table organization that stores this mode's map output.
    pub fn organization(self) -> Organization {
        match self {
            Mode::MapReduce(c) => Organization::Combining(c),
            Mode::MapGroup => Organization::MultiValued,
        }
    }
}
