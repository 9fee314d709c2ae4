//! # gpu-sim — simulated GPU substrate for the SEPO reproduction
//!
//! The SEPO paper's hash table runs as CUDA kernels on an Nvidia GTX 780ti.
//! This crate substitutes that hardware with a *simulated* device that the
//! rest of the workspace programs against:
//!
//! * [`executor::Executor`] — a SIMT-style kernel launcher. Kernels are Rust
//!   closures run once per task, grouped into warps of 32; in parallel mode
//!   warps execute concurrently on host threads, so shared structures see
//!   real atomics and real races. Warp divergence is tracked per warp.
//! * [`memory::DeviceMemory`] — capacity accounting for the 3 GB device,
//!   including the "query free space, then grab all of it for the heap"
//!   idiom the paper's allocator uses.
//! * [`pcie::PcieBus`] — transfer cost model distinguishing bulk DMA from
//!   small remote transactions (the economics behind Figures 7 and
//!   Table III).
//! * [`cost`] — converts counted events ([`metrics::Metrics`]) into
//!   simulated time for either engine; [`clock::SimTime`] keeps simulated
//!   durations apart from wall-clock ones.
//! * [`pipeline`] — BigKernel-style double-buffered transfer/compute
//!   overlap as an analytic makespan recurrence: input uploads behind
//!   kernels, and (when a run is priced as overlapped) boundary-eviction
//!   DMA behind the next iteration's kernels.
//! * [`paging`] — the LRU demand-paging replay used for Table III.
//! * [`faults`] — seeded, deterministic fault injection (transient lane
//!   aborts, hard launch-killing faults, silent corruption) used to prove
//!   degradation stays graceful under resource trouble.
//! * [`shadow`] — epoch-based shadow-memory sanitizer: data structures
//!   declare logical accesses through [`charge::Charge::access`] and the
//!   sanitizer flags plain/atomic mixing, unpublished cross-warp sharing,
//!   and use-after-evict, at zero simulated cost.
//! * [`sync`] — the two typed atomic cells shared device words live in:
//!   [`sync::Published`] (Release/Acquire) and [`sync::Relaxed`].
//!
//! Everything that *matters to the paper's claims* — which inserts get
//! postponed, how many SEPO iterations a dataset needs, how many bytes move
//! across the bus — is produced by real execution; only durations are
//! modelled, using rates calibrated to the paper's testbed ([`spec`]).

pub mod charge;
pub mod clock;
pub mod cost;
pub mod executor;
pub mod faults;
pub mod memory;
pub mod metrics;
pub mod paging;
pub mod pcie;
pub mod pipeline;
pub mod pool;
pub mod shadow;
pub mod spec;
pub mod sync;

pub use charge::{Charge, MetricsCharge, NoCharge};
pub use clock::SimTime;
pub use cost::{CpuCostModel, GpuCostModel};
pub use executor::{
    BlockScratch, ExecMode, Executor, LaneCtx, LaunchError, LaunchStats, WarpCharge,
};
pub use faults::{
    CorruptionConfig, CorruptionDraw, CorruptionError, CorruptionKind, FaultConfig, FaultPlan,
    HardFaultConfig, HardFaultError, HardFaultKind, TransientDrawState,
};
pub use memory::{DeviceMemory, OutOfDeviceMemory, Reservation};
pub use metrics::{ContentionHistogram, Counter, Metrics, Snapshot};
pub use paging::{AccessTrace, LruSimulator, PagingOutcome};
pub use pcie::PcieBus;
pub use pipeline::{pipelined_total, serial_total};
pub use pool::WorkerPool;
pub use shadow::{
    AccessKind, Finding, FindingKind, SanitizerReport, ShadowAddr, ShadowEvent, ShadowSanitizer,
};
pub use spec::{DeviceSpec, HostSpec, PcieSpec, SystemSpec, BLOCK_WARPS, WARP_SIZE};
