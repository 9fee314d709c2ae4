//! PCIe interconnect cost model.
//!
//! The bus distinguishes **bulk** transfers (large pipelined DMA copies —
//! input chunks streamed to the device, the heap evicted back to the host)
//! from **small** transactions (individual remote loads/stores issued by GPU
//! threads against pinned host memory). The order-of-magnitude efficiency
//! gap between the two is the economic fact underlying both Fig. 7 (the
//! pinned-memory alternative loses) and Table III (demand paging with small
//! pages loses): "the data is transferred over many small PCIe transactions,
//! which is much costlier than a few bulky PCIe transactions" (§VI-D).

use crate::clock::SimTime;
use crate::metrics::Metrics;
use crate::spec::PcieSpec;
use std::sync::Arc;

/// The simulated PCIe bus. Its methods price transfers and record
/// nothing: the volumes are charged by the callers' `Charge` sinks.
#[derive(Debug, Clone)]
pub struct PcieBus {
    spec: PcieSpec,
}

impl PcieBus {
    /// A bus of `spec`. The metrics sink is not kept: the bus records
    /// nothing, and the argument stays for the callers that pass one.
    pub fn new(spec: PcieSpec, _metrics: Arc<Metrics>) -> Self {
        PcieBus { spec }
    }

    /// The bus specification in force.
    pub fn spec(&self) -> &PcieSpec {
        &self.spec
    }

    /// Cost of one bulk DMA transfer of `bytes` bytes: fixed initiation
    /// latency + bytes at bulk bandwidth (no metrics recorded).
    pub fn bulk_transfer_time(&self, bytes: u64) -> SimTime {
        let latency = SimTime::from_nanos(self.spec.transaction_latency_ns);
        let wire = SimTime::from_secs_f64(bytes as f64 / self.spec.bulk_bandwidth as f64);
        latency + wire
    }

    /// Cost of `transactions` small remote transactions moving `bytes`
    /// total. Each transaction pays the initiation latency, but concurrent
    /// GPU threads overlap their round trips, so the *throughput-visible*
    /// cost is the larger of the latency-limited and bandwidth-limited
    /// rates, not their sum per transaction. `overlap` is the number of
    /// outstanding transactions the DMA/driver path can keep in flight
    /// (memory-level parallelism across PCIe, typically a few tens).
    pub fn small_transactions_time(&self, transactions: u64, bytes: u64, overlap: u32) -> SimTime {
        let overlap = overlap.max(1) as f64;
        let latency_limited =
            transactions as f64 * self.spec.transaction_latency_ns as f64 / overlap / 1e9;
        let bandwidth_limited = bytes as f64 / self.spec.small_bandwidth as f64;
        SimTime::from_secs_f64(latency_limited.max(bandwidth_limited))
    }

    /// Cost of transferring `pages` pages of `page_size` bytes each as
    /// individual transfers — the demand-paging model of Table III. Each
    /// page movement is one PCIe transaction; large pages amortize the
    /// latency, tiny (4 KB) pages do not.
    ///
    /// The paper's Table III reports a *lower bound* that counts only wire
    /// time ("this data transfer time is only one of the overheads
    /// associated with demand paging"); `lower_bound = true` reproduces
    /// that, while `false` adds the per-transaction initiation latency.
    pub fn paged_transfer_time(&self, pages: u64, page_size: u64, lower_bound: bool) -> SimTime {
        // Page-granular DMA achieves bulk bandwidth only for large pages;
        // small pages see degraded effective bandwidth. Model: effective
        // bandwidth interpolates between small- and bulk-transfer rates with
        // the fraction of the transfer window occupied by protocol overhead
        // (per-transaction setup time vs. wire time at the bulk rate). A
        // 4 KB page's window is mostly setup, so it transfers near the
        // small-transaction rate — the §VI-D penalty of Table III; a 1 MB
        // page amortizes the setup away and approaches the bulk rate.
        let latency_s = self.spec.transaction_latency_ns as f64 / 1e9;
        let bulk_wire = page_size as f64 / self.spec.bulk_bandwidth as f64;
        let overhead_fraction = latency_s / (latency_s + bulk_wire);
        let bulk_bw = self.spec.bulk_bandwidth as f64;
        let small_bw = self.spec.small_bandwidth as f64;
        let effective_bw = bulk_bw + overhead_fraction * (small_bw - bulk_bw);
        let per_page_wire = page_size as f64 / effective_bw;
        let per_page_overhead = if lower_bound { 0.0 } else { latency_s };
        SimTime::from_secs_f64(pages as f64 * (per_page_wire + per_page_overhead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> PcieBus {
        PcieBus::new(PcieSpec::default(), Arc::new(Metrics::new()))
    }

    #[test]
    fn bulk_transfer_is_latency_plus_wire() {
        let b = bus();
        let spec = PcieSpec::default();
        let t = b.bulk_transfer_time(12_000_000_000); // 12 GB at 12 GB/s = 1 s
        let expected = 1.0 + spec.transaction_latency_ns as f64 / 1e9;
        assert!((t.as_secs_f64() - expected).abs() < 1e-6, "{t}");
    }

    #[test]
    fn small_transactions_latency_limited_for_tiny_payloads() {
        let b = bus();
        // 1M transactions of 8 bytes each, overlap 32:
        // latency-limited: 1e6 * 1.2us / 32 = 37.5ms
        // bandwidth-limited: 8MB / 1.2GB/s = 6.7ms
        let t = b.small_transactions_time(1_000_000, 8_000_000, 32);
        assert!((t.as_secs_f64() - 0.0375).abs() < 1e-4, "{t}");
    }

    #[test]
    fn small_transactions_bandwidth_limited_for_fat_payloads() {
        let b = bus();
        // 1000 transactions of 2.4MB each: bandwidth term 2.4GB/2.4GB/s = 1s
        let t = b.small_transactions_time(1_000, 2_400_000_000, 32);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-3, "{t}");
    }

    #[test]
    fn small_is_much_slower_than_bulk_for_same_volume() {
        let b = bus();
        let bytes = 100_000_000u64;
        let bulk = b.bulk_transfer_time(bytes);
        let small = b.small_transactions_time(bytes / 64, bytes, 32);
        assert!(
            small.as_secs_f64() > 5.0 * bulk.as_secs_f64(),
            "small={small} bulk={bulk}"
        );
    }

    #[test]
    fn paged_transfer_scales_with_page_count_and_size() {
        let b = bus();
        // Table III structure: same page count, bigger pages => more time.
        let small_pages = b.paged_transfer_time(1_000, 4 * 1024, true);
        let big_pages = b.paged_transfer_time(1_000, 1024 * 1024, true);
        assert!(big_pages > small_pages);
        // Lower bound excludes per-transaction latency.
        let lb = b.paged_transfer_time(1_000, 4 * 1024, true);
        let full = b.paged_transfer_time(1_000, 4 * 1024, false);
        assert!(full > lb);
    }

    #[test]
    fn zero_overlap_clamps() {
        let b = bus();
        let t = b.small_transactions_time(100, 800, 0);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn tiny_pages_pay_the_small_transaction_penalty() {
        let b = bus();
        let spec = PcieSpec::default();
        let bytes = 4 * 1024u64;
        // Wire time a 4 KB page would take at pure bulk bandwidth.
        let pure_bulk = bytes as f64 / spec.bulk_bandwidth as f64;
        let t = b.paged_transfer_time(1, bytes, true).as_secs_f64();
        // The §VI-D regime: a 4 KB page is dominated by per-transaction
        // setup, so its effective rate sits well below bulk (Table III)...
        assert!(
            t > 2.0 * pure_bulk,
            "4 KB page too cheap: {t} vs {pure_bulk}"
        );
        // ...but never below the small-transaction floor.
        let floor = bytes as f64 / spec.small_bandwidth as f64;
        assert!(t <= floor * 1.001, "4 KB page below small-rate floor: {t}");
    }

    #[test]
    fn large_pages_approach_bulk_bandwidth() {
        let b = bus();
        let spec = PcieSpec::default();
        let bytes = 16 * 1024 * 1024u64; // 16 MB pages amortize setup away
        let pure_bulk = bytes as f64 / spec.bulk_bandwidth as f64;
        let t = b.paged_transfer_time(1, bytes, true).as_secs_f64();
        assert!(t < 1.01 * pure_bulk, "16 MB page should be near bulk: {t}");
        assert!(t >= pure_bulk, "cannot beat bulk bandwidth");
    }

    #[test]
    fn effective_bandwidth_is_monotone_in_page_size() {
        let b = bus();
        let mut last_rate = 0.0;
        for page_size in [4u64 * 1024, 64 * 1024, 1024 * 1024, 16 * 1024 * 1024] {
            let t = b.paged_transfer_time(1, page_size, true).as_secs_f64();
            let rate = page_size as f64 / t;
            assert!(rate > last_rate, "rate must grow with page size");
            last_rate = rate;
        }
    }
}
