//! # sepo-baselines — every comparator of the paper's evaluation (§VI)
//!
//! | module | paper role | used by |
//! |---|---|---|
//! | [`cpu`] | CPU multi-threaded hash-table implementations of the four stand-alone apps ("a hash table design similar to our GPU-based design … without SEPO") | Fig. 6 baseline |
//! | [`phoenix`] | Phoenix++-like CPU MapReduce runtime (thread-local combining containers + merge) | Fig. 6 baseline for the MapReduce apps |
//! | [`mapcg`] | MapCG-like GPU MapReduce runtime (in-memory only, centralized allocation) | Table II |
//! | [`pinned`] | Hash table with its heap pinned in CPU memory, accessed remotely per entry | Fig. 7 |
//! | [`paging`] | LRU demand-paging replay of PVC's recorded access trace | Table III |
//! | [`stadium`] | Stadium-hashing-like table: device fingerprint board over a pinned-CPU slot store (no duplicate handling, fixed slots) | §VII related-work comparison |
//!
//! Each baseline *executes* its computation for real and returns the event
//! counts ([`gpu_sim::Snapshot`] + [`gpu_sim::ContentionHistogram`]) that
//! the benchmark harness prices with the appropriate cost model.

pub mod cpu;
pub mod mapcg;
pub mod paging;
pub mod phoenix;
pub mod pinned;
pub mod stadium;

pub use cpu::{ample_heap, run_cpu_app, BaselineRun};
pub use mapcg::{run_mapcg, MapCgRun, OutOfMemory};
pub use paging::{paging_lower_bounds, record_pvc_trace, PagingRow};
pub use phoenix::{run_phoenix, PhoenixRun};
pub use pinned::{run_pinned, PinnedRun};
pub use stadium::{StadiumError, StadiumTable};
