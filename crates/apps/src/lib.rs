//! # sepo-apps — the seven Big Data analytics applications of §VI
//!
//! GPU/SEPO implementations of the paper's evaluation applications, each
//! paired with a sequential reference oracle used by the test suite to
//! verify exact results under forced multi-iteration (larger-than-memory)
//! execution:
//!
//! | module | app | organization / mode |
//! |---|---|---|
//! | [`pvc`] | Page View Count | combining (Add) |
//! | [`inverted_index`] | Inverted Index | multi-valued |
//! | [`dna`] | DNA Assembly | combining (Or) |
//! | [`netflix`] | Netflix | combining (Add), as a MAP_REDUCE mapper |
//! | [`wordcount`] | Word Count | MAP_REDUCE (Add) |
//! | [`patent`] | Patent Citation | MAP_GROUP |
//! | [`geoloc`] | Geo Location | MAP_GROUP |
//!
//! The three MapReduce apps are map functions run by [`run_mapper`], the
//! §V runtime. So is Netflix, so that its user-pair emits reach the block
//! combiner; it keeps the paper's CPU baseline. Every app's run goes
//! through one driver body.
//! [`runner`] dispatches by [`sepo_datagen::App`] so the benchmark harness
//! can sweep Table I uniformly.

pub mod common;
pub mod dna;
pub mod geoloc;
pub mod inverted_index;
pub mod netflix;
pub mod patent;
pub mod pvc;
pub mod runner;
pub mod sharded;
pub mod wordcount;

pub use common::{run_mapper, AppConfig, AppRun};
pub use runner::run_app;
pub use sharded::{run_app_sharded, ShardRouter, ShardedAppRun};
