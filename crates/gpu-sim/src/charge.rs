//! Cost-charging abstraction.
//!
//! The hash table and allocator run identically inside simulated-GPU
//! kernels and inside CPU baselines; what differs is where their event
//! charges go. [`Charge`] abstracts the sink: a kernel lane batches charges
//! warp-locally ([`crate::executor::LaneCtx`] implements it), while
//! [`MetricsCharge`] forwards straight to a [`Metrics`] sink for host-side
//! (baseline) execution. A sink inside a thread block with
//! [`crate::executor::BlockHooks`] also carries the block's page leases,
//! which the allocator carves from ([`Charge::leases`]).

use crate::lease::BlockLeases;
use crate::metrics::{Counter, Metrics};
use crate::shadow::{AccessKind, ShadowAddr};

/// Bytes of one hash-chain link, the word a chain hop reads: an entry's
/// packed device/host pointer (`sepo_alloc::layout::Link`).
pub const LINK_BYTES: u64 = 8;

/// Sink for simulated-cost events emitted by shared data structures. A sink
/// implements the three required methods; the named shorthands are what
/// the data structures call.
pub trait Charge {
    /// Add `n` events to `counter`.
    fn add(&mut self, counter: Counter, n: u64);
    /// Declare one access to the simulated device's logical address space
    /// for the shadow-memory sanitizer ([`crate::shadow`]). Charges no
    /// simulated cost.
    fn access(&mut self, addr: ShadowAddr, kind: AccessKind);
    /// The page leases of the thread block this sink charges for, or
    /// `None` outside a block with hooks: the allocator then makes one
    /// cursor update per allocation. Required, so that a forwarding sink
    /// cannot drop a block's leases by omission.
    fn leases(&mut self) -> Option<&mut BlockLeases>;

    /// Charge `units` of scalar compute work.
    #[inline]
    fn compute(&mut self, units: u64) {
        self.add(Counter::ComputeUnits, units);
    }
    /// Charge `bytes` of irregular memory traffic.
    #[inline]
    fn device_bytes(&mut self, bytes: u64) {
        self.add(Counter::DeviceBytes, bytes);
    }
    /// Record `hops` hash-chain link traversals; each hop reads one link
    /// of [`LINK_BYTES`].
    #[inline]
    fn chain_hops(&mut self, hops: u64) {
        self.add(Counter::ChainHops, hops);
        self.add(Counter::DeviceBytes, hops * LINK_BYTES);
    }
    /// Charge `bytes` of on-chip shared-memory traffic (block-combiner
    /// probes and slot updates). Orders of magnitude cheaper than
    /// `device_bytes`.
    #[inline]
    fn smem_bytes(&mut self, bytes: u64) {
        self.add(Counter::SmemBytes, bytes);
    }
    /// Record emits absorbed by a block combiner (no table touch).
    #[inline]
    fn combiner_hits(&mut self, n: u64) {
        self.add(Counter::CombinerHits, n);
    }
    /// Record combiner slots flushed into the table (one device atomic
    /// per cached key with a pending delta).
    #[inline]
    fn combiner_flushes(&mut self, n: u64) {
        self.add(Counter::CombinerFlushes, n);
    }
    /// Record combiner slots displaced because their set was full.
    #[inline]
    fn combiner_overflows(&mut self, n: u64) {
        self.add(Counter::CombinerOverflows, n);
    }
    /// Record lost bucket-head CAS races (publish retries).
    #[inline]
    fn head_cas_retries(&mut self, n: u64) {
        self.add(Counter::HeadCasRetries, n);
    }
}

/// Forwarding impl so `&mut dyn Charge` (e.g. the sink a block's `finish`
/// hook receives) satisfies `C: Charge` bounds on generic methods.
impl<C: Charge + ?Sized> Charge for &mut C {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        (**self).add(counter, n);
    }

    #[inline]
    fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
        (**self).access(addr, kind);
    }

    #[inline]
    fn leases(&mut self) -> Option<&mut BlockLeases> {
        (**self).leases()
    }
}

/// Direct-to-metrics sink used outside kernels (CPU baselines, tests).
#[derive(Debug)]
pub struct MetricsCharge<'a>(pub &'a Metrics);

impl Charge for MetricsCharge<'_> {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.0.add(counter, n);
    }

    #[inline]
    fn access(&mut self, _: ShadowAddr, _: AccessKind) {}

    #[inline]
    fn leases(&mut self) -> Option<&mut BlockLeases> {
        None
    }
}

/// Sink that discards all charges (pure-correctness tests).
#[derive(Debug, Default)]
pub struct NoCharge;

impl Charge for NoCharge {
    #[inline]
    fn add(&mut self, _: Counter, _: u64) {}

    #[inline]
    fn access(&mut self, _: ShadowAddr, _: AccessKind) {}

    #[inline]
    fn leases(&mut self) -> Option<&mut BlockLeases> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive every shorthand once, with a distinct amount, plus `access`.
    fn drive_all<C: Charge>(c: &mut C) {
        c.compute(10);
        c.device_bytes(64);
        c.chain_hops(3);
        c.smem_bytes(32);
        c.combiner_hits(5);
        c.combiner_flushes(2);
        c.combiner_overflows(1);
        c.head_cas_retries(4);
        c.access(ShadowAddr::BitmapWord(0), AccessKind::PlainRead);
        if let Some(leases) = c.leases() {
            leases.put(5, crate::lease::Lease::without_run(5));
        }
    }

    #[test]
    fn metrics_charge_forwards() {
        let m = Metrics::new();
        drive_all(&mut MetricsCharge(&m));
        let s = m.snapshot();
        assert_eq!(s.compute_units, 10);
        assert_eq!(s.chain_hops, 3);
        assert_eq!(s.device_bytes, 64 + 3 * LINK_BYTES);
        assert_eq!(s.smem_bytes, 32);
        assert_eq!(s.combiner_hits, 5);
        assert_eq!(s.combiner_flushes, 2);
        assert_eq!(s.combiner_overflows, 1);
        assert_eq!(s.head_cas_retries, 4);
    }

    #[test]
    fn no_charge_discards() {
        let mut c = NoCharge;
        c.add(Counter::Tasks, u64::MAX);
        c.chain_hops(u64::MAX / LINK_BYTES);
        c.access(ShadowAddr::BucketHead(0), AccessKind::Atomic);
        assert!(c.leases().is_none());
    }

    /// Sink recording what reaches the required methods, with a lease
    /// table of its own.
    #[derive(Default)]
    struct Recorder {
        adds: Vec<(Counter, u64)>,
        accesses: Vec<(ShadowAddr, AccessKind)>,
        leases: BlockLeases,
    }

    impl Charge for Recorder {
        fn add(&mut self, counter: Counter, n: u64) {
            self.adds.push((counter, n));
        }
        fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
            self.accesses.push((addr, kind));
        }
        fn leases(&mut self) -> Option<&mut BlockLeases> {
            Some(&mut self.leases)
        }
    }

    /// Every shorthand, driven through the blanket `&mut C` impl and through
    /// `&mut dyn Charge` (how a block's finish hook charges), lands on its
    /// own counter, `chain_hops` adds its link bytes per hop exactly once,
    /// and `access` and the sink's leases arrive.
    #[test]
    fn blanket_mut_ref_impl_forwards_every_method() {
        const EXPECT: [(Counter, u64); 9] = [
            (Counter::ComputeUnits, 10),
            (Counter::DeviceBytes, 64),
            (Counter::ChainHops, 3),
            (Counter::DeviceBytes, 3 * LINK_BYTES),
            (Counter::SmemBytes, 32),
            (Counter::CombinerHits, 5),
            (Counter::CombinerFlushes, 2),
            (Counter::CombinerOverflows, 1),
            (Counter::HeadCasRetries, 4),
        ];
        let check = |sink: Recorder| {
            assert_eq!(sink.adds, EXPECT);
            assert_eq!(
                sink.accesses,
                [(ShadowAddr::BitmapWord(0), AccessKind::PlainRead)]
            );
            assert!(!sink.leases.is_empty(), "the lease write reached the sink");
        };
        // One level of &mut: the concrete-sink reference generic code takes.
        let mut sink = Recorder::default();
        drive_all(&mut &mut sink);
        check(sink);

        // Through &mut dyn Charge — type-erased, then re-borrowed, the
        // scratch-hook path.
        let mut sink = Recorder::default();
        {
            let mut dyn_sink: &mut dyn Charge = &mut sink;
            drive_all(&mut dyn_sink);
        }
        check(sink);
    }
}
