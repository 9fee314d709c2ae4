//! Cost-charging abstraction.
//!
//! The hash table and allocator run identically inside simulated-GPU
//! kernels and inside CPU baselines; what differs is where their event
//! charges go. [`Charge`] abstracts the sink: a kernel lane batches charges
//! warp-locally ([`crate::executor::LaneCtx`] implements it), while
//! [`MetricsCharge`] forwards straight to a [`Metrics`] sink for host-side
//! (baseline) execution.

use crate::metrics::Metrics;
use crate::shadow::{AccessKind, ShadowAddr};

/// Sink for simulated-cost events emitted by shared data structures.
pub trait Charge {
    /// Charge `units` of scalar compute work.
    fn compute(&mut self, units: u64);
    /// Charge `bytes` of irregular memory traffic.
    fn device_bytes(&mut self, bytes: u64);
    /// Record `hops` hash-chain link traversals.
    fn chain_hops(&mut self, hops: u64);
    /// Charge `bytes` of on-chip shared-memory traffic (block-combiner
    /// probes and slot updates). Orders of magnitude cheaper than
    /// `device_bytes`; default no-op so plain sinks ignore it.
    fn smem_bytes(&mut self, _bytes: u64) {}
    /// Record emits absorbed by a block combiner (no table touch).
    fn combiner_hits(&mut self, _n: u64) {}
    /// Record combiner slots flushed into the table (one device atomic
    /// per cached key with a pending delta).
    fn combiner_flushes(&mut self, _n: u64) {}
    /// Record combiner slots displaced because their set was full.
    fn combiner_overflows(&mut self, _n: u64) {}
    /// Record lost bucket-head CAS races (publish retries).
    fn head_cas_retries(&mut self, _n: u64) {}
    /// Declare one access to the simulated device's logical address space
    /// for the shadow-memory sanitizer ([`crate::shadow`]). Charges no
    /// simulated cost; default no-op so plain sinks — and therefore all
    /// baseline runs — pay nothing.
    fn access(&mut self, _addr: ShadowAddr, _kind: AccessKind) {}
}

/// Forwarding impl so `&mut dyn Charge` (e.g. the sink a block-scratch
/// `finish` hook receives) satisfies `C: Charge` bounds on generic methods.
impl<C: Charge + ?Sized> Charge for &mut C {
    #[inline]
    fn compute(&mut self, units: u64) {
        (**self).compute(units);
    }

    #[inline]
    fn device_bytes(&mut self, bytes: u64) {
        (**self).device_bytes(bytes);
    }

    #[inline]
    fn chain_hops(&mut self, hops: u64) {
        (**self).chain_hops(hops);
    }

    #[inline]
    fn smem_bytes(&mut self, bytes: u64) {
        (**self).smem_bytes(bytes);
    }

    #[inline]
    fn combiner_hits(&mut self, n: u64) {
        (**self).combiner_hits(n);
    }

    #[inline]
    fn combiner_flushes(&mut self, n: u64) {
        (**self).combiner_flushes(n);
    }

    #[inline]
    fn combiner_overflows(&mut self, n: u64) {
        (**self).combiner_overflows(n);
    }

    #[inline]
    fn head_cas_retries(&mut self, n: u64) {
        (**self).head_cas_retries(n);
    }

    #[inline]
    fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
        (**self).access(addr, kind);
    }
}

/// Direct-to-metrics sink used outside kernels (CPU baselines, tests).
#[derive(Debug)]
pub struct MetricsCharge<'a>(pub &'a Metrics);

impl Charge for MetricsCharge<'_> {
    #[inline]
    fn compute(&mut self, units: u64) {
        self.0.add_compute_units(units);
    }

    #[inline]
    fn device_bytes(&mut self, bytes: u64) {
        self.0.add_device_bytes(bytes);
    }

    #[inline]
    fn chain_hops(&mut self, hops: u64) {
        self.0.add_chain_hops(hops);
        self.0.add_device_bytes(hops * 16); // a hop reads one dual link
    }

    #[inline]
    fn smem_bytes(&mut self, bytes: u64) {
        self.0.add_smem_bytes(bytes);
    }

    #[inline]
    fn combiner_hits(&mut self, n: u64) {
        self.0.add_combiner_hits(n);
    }

    #[inline]
    fn combiner_flushes(&mut self, n: u64) {
        self.0.add_combiner_flushes(n);
    }

    #[inline]
    fn combiner_overflows(&mut self, n: u64) {
        self.0.add_combiner_overflows(n);
    }

    #[inline]
    fn head_cas_retries(&mut self, n: u64) {
        self.0.add_head_cas_retries(n);
    }
}

/// Sink that discards all charges (pure-correctness tests).
#[derive(Debug, Default)]
pub struct NoCharge;

impl Charge for NoCharge {
    #[inline]
    fn compute(&mut self, _: u64) {}
    #[inline]
    fn device_bytes(&mut self, _: u64) {}
    #[inline]
    fn chain_hops(&mut self, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_charge_forwards() {
        let m = Metrics::new();
        let mut c = MetricsCharge(&m);
        c.compute(10);
        c.device_bytes(64);
        c.chain_hops(3);
        c.smem_bytes(32);
        c.combiner_hits(5);
        c.combiner_flushes(2);
        c.combiner_overflows(1);
        c.head_cas_retries(4);
        let s = m.snapshot();
        assert_eq!(s.compute_units, 10);
        assert_eq!(s.chain_hops, 3);
        assert_eq!(s.device_bytes, 64 + 48);
        assert_eq!(s.smem_bytes, 32);
        assert_eq!(s.combiner_hits, 5);
        assert_eq!(s.combiner_flushes, 2);
        assert_eq!(s.combiner_overflows, 1);
        assert_eq!(s.head_cas_retries, 4);
    }

    #[test]
    fn no_charge_discards() {
        let mut c = NoCharge;
        c.compute(u64::MAX);
        c.device_bytes(u64::MAX);
        c.chain_hops(u64::MAX);
        c.smem_bytes(u64::MAX);
        c.combiner_hits(u64::MAX);
        c.combiner_flushes(u64::MAX);
        c.combiner_overflows(u64::MAX);
        c.head_cas_retries(u64::MAX);
        c.access(ShadowAddr::BucketHead(0), AccessKind::Atomic);
    }

    /// Counting sink recording which trait methods were invoked on it.
    #[derive(Default)]
    struct CountingSink {
        calls: Vec<&'static str>,
    }

    impl Charge for CountingSink {
        fn compute(&mut self, _: u64) {
            self.calls.push("compute");
        }
        fn device_bytes(&mut self, _: u64) {
            self.calls.push("device_bytes");
        }
        fn chain_hops(&mut self, _: u64) {
            self.calls.push("chain_hops");
        }
        fn smem_bytes(&mut self, _: u64) {
            self.calls.push("smem_bytes");
        }
        fn combiner_hits(&mut self, _: u64) {
            self.calls.push("combiner_hits");
        }
        fn combiner_flushes(&mut self, _: u64) {
            self.calls.push("combiner_flushes");
        }
        fn combiner_overflows(&mut self, _: u64) {
            self.calls.push("combiner_overflows");
        }
        fn head_cas_retries(&mut self, _: u64) {
            self.calls.push("head_cas_retries");
        }
        fn access(&mut self, _: ShadowAddr, _: AccessKind) {
            self.calls.push("access");
        }
    }

    /// Drive every trait method through a `C: Charge` bound — the shape
    /// generic table code uses.
    fn drive_all<C: Charge>(c: &mut C) {
        c.compute(1);
        c.device_bytes(1);
        c.chain_hops(1);
        c.smem_bytes(1);
        c.combiner_hits(1);
        c.combiner_flushes(1);
        c.combiner_overflows(1);
        c.head_cas_retries(1);
        c.access(ShadowAddr::BitmapWord(0), AccessKind::PlainRead);
    }

    /// Pins that the blanket `impl<C: Charge + ?Sized> Charge for &mut C`
    /// forwards *every* trait method — including the default-noop ones and
    /// `access`. A method missing from the blanket impl would fall back to
    /// its trait default and silently discard the call behind
    /// `&mut dyn Charge` (exactly how warp-scratch finish hooks charge), so
    /// a counting sink must observe all nine calls.
    #[test]
    fn blanket_mut_ref_impl_forwards_every_method() {
        const ALL: [&str; 9] = [
            "compute",
            "device_bytes",
            "chain_hops",
            "smem_bytes",
            "combiner_hits",
            "combiner_flushes",
            "combiner_overflows",
            "head_cas_retries",
            "access",
        ];
        // One level of &mut: the concrete-sink reference generic code takes.
        let mut sink = CountingSink::default();
        drive_all(&mut &mut sink);
        assert_eq!(sink.calls, ALL);

        // Through &mut dyn Charge — type-erased, then re-borrowed, the
        // scratch-hook path.
        let mut sink = CountingSink::default();
        {
            let dyn_sink: &mut dyn Charge = &mut sink;
            let mut reborrow = dyn_sink;
            drive_all(&mut reborrow);
        }
        assert_eq!(sink.calls, ALL);
    }
}
