//! # sepo-alloc — the SEPO hash table's dynamic memory allocator
//!
//! Faithful implementation of the allocator of §IV-A of the SEPO paper:
//!
//! * a [`Heap`] pre-allocated in (simulated) device memory and
//!   partitioned into pages, each bump-allocated with one atomic operation;
//! * a free-page pool that pages return to when the SEPO driver evicts them
//!   to CPU memory;
//! * a [`GroupAllocator`] that spreads allocation
//!   load over per-bucket-group current pages ("instead of accessing one
//!   free-list pointer, the accesses are distributed over multiple free-list
//!   pointers"), declining with POSTPONE when the pool runs dry;
//! * dual device/host addressing ([`layout`]) so evicted chains stay
//!   traversable from the CPU, and a [`HostHeap`]
//!   holding the evicted pages as [`StampedPage`]s, whose bytes are only
//!   reachable through a checksum verification;
//! * the [`codec`] every persisted layout is written, read and sized with.
//!
//! The allocator reports successes, postponements and metadata traffic into
//! the shared [`gpu_sim::Metrics`] sink so the cost model can price them.

pub mod codec;
pub mod group;
pub mod heap;
pub mod hostheap;
pub mod layout;

pub use group::{DeadEntry, GroupAllocator, PageClass, Postpone};
pub use heap::{Heap, HeapSnapshot, HeapStats, PageKind, ResidentPage};
pub use hostheap::{crc32c, CorruptPage, HostHeap, PageRecord, StampedPage, VerifiedPage};
pub use layout::{align_up, DevHandle, HostLink, Link, ALIGN, MAX_PAGE_SIZE, OFFSET_BITS};
