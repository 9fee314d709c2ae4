//! Device memory capacity accounting.
//!
//! The SEPO allocator sizes its heap by "wait\[ing\] until all other data
//! structures have been allocated, then query\[ing\] GPU memory for its
//! remaining free space, and then allocat\[ing\] the heap with that size"
//! (§IV-A). `DeviceMemory` models exactly that: named reservations against a
//! fixed capacity, plus a query for the remaining free bytes. The actual
//! backing storage lives in host RAM (we are simulating the device), so a
//! reservation hands back nothing but an accounting token.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Error returned when a reservation does not fit in the remaining device
/// memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes that were still free.
    pub free: u64,
    /// Label of the failed reservation.
    pub label: String,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory reserving {} bytes for '{}' ({} free)",
            self.requested, self.label, self.free
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

#[derive(Debug, Default)]
struct Ledger {
    reservations: Vec<(String, u64)>,
    used: u64,
}

/// A fixed-capacity device memory with named reservations.
///
/// Cloning shares the underlying ledger (a device has one memory).
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    ledger: Arc<Mutex<Ledger>>,
}

/// Accounting token for a reservation. Dropping it does *not* release the
/// memory — device-side structures in this system live for the whole run;
/// explicit [`DeviceMemory::release`] exists for the heap's page pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    /// Index into the ledger, used by `release`.
    index: usize,
    /// Size of this reservation in bytes.
    pub bytes: u64,
}

impl DeviceMemory {
    /// A device memory of `capacity` bytes, all free.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            ledger: Arc::new(Mutex::new(Ledger::default())),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.ledger.lock().used
    }

    /// Bytes currently free — the paper's "query GPU memory for its
    /// remaining free space".
    pub fn free(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Reserve `bytes` under `label`, failing if it does not fit.
    pub fn reserve(&self, label: &str, bytes: u64) -> Result<Reservation, OutOfDeviceMemory> {
        let mut ledger = self.ledger.lock();
        let free = self.capacity - ledger.used;
        if bytes > free {
            return Err(OutOfDeviceMemory {
                requested: bytes,
                free,
                label: label.to_string(),
            });
        }
        ledger.used += bytes;
        ledger.reservations.push((label.to_string(), bytes));
        Ok(Reservation {
            index: ledger.reservations.len() - 1,
            bytes,
        })
    }

    /// Reserve all remaining free space under `label` (how the SEPO heap is
    /// sized). Returns a zero-byte reservation if nothing is free.
    pub fn reserve_remaining(&self, label: &str) -> Reservation {
        let mut ledger = self.ledger.lock();
        let free = self.capacity - ledger.used;
        ledger.used = self.capacity;
        ledger.reservations.push((label.to_string(), free));
        Reservation {
            index: ledger.reservations.len() - 1,
            bytes: free,
        }
    }

    /// Release a reservation, returning its bytes to the free pool.
    pub fn release(&self, r: Reservation) {
        let mut ledger = self.ledger.lock();
        let entry = &mut ledger.reservations[r.index];
        debug_assert_eq!(entry.1, r.bytes, "double release or stale token");
        let bytes = entry.1;
        entry.1 = 0;
        ledger.used -= bytes;
    }

    /// Labels and sizes of all live reservations (for reporting).
    pub fn reservations(&self) -> Vec<(String, u64)> {
        self.ledger
            .lock()
            .reservations
            .iter()
            .filter(|(_, b)| *b > 0)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_query_free() {
        let mem = DeviceMemory::new(1_000);
        assert_eq!(mem.free(), 1_000);
        let r = mem.reserve("bucket array", 300).unwrap();
        assert_eq!(r.bytes, 300);
        assert_eq!(mem.free(), 700);
        assert_eq!(mem.used(), 300);
    }

    #[test]
    fn over_reservation_fails_with_context() {
        let mem = DeviceMemory::new(100);
        mem.reserve("a", 80).unwrap();
        let err = mem.reserve("heap", 50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.free, 20);
        assert_eq!(err.label, "heap");
        assert!(err.to_string().contains("heap"));
    }

    #[test]
    fn reserve_remaining_takes_everything() {
        let mem = DeviceMemory::new(1_000);
        mem.reserve("locks", 250).unwrap();
        let heap = mem.reserve_remaining("heap");
        assert_eq!(heap.bytes, 750);
        assert_eq!(mem.free(), 0);
    }

    #[test]
    fn release_returns_bytes() {
        let mem = DeviceMemory::new(1_000);
        let r = mem.reserve("staging", 400).unwrap();
        mem.release(r);
        assert_eq!(mem.free(), 1_000);
        // Can re-reserve the full capacity afterwards.
        assert!(mem.reserve("heap", 1_000).is_ok());
    }

    #[test]
    fn reservations_lists_live_entries() {
        let mem = DeviceMemory::new(1_000);
        let a = mem.reserve("a", 100).unwrap();
        mem.reserve("b", 200).unwrap();
        mem.release(a);
        let live = mem.reservations();
        assert_eq!(live, vec![("b".to_string(), 200)]);
    }

    #[test]
    fn clones_share_the_ledger() {
        let mem = DeviceMemory::new(500);
        let alias = mem.clone();
        mem.reserve("x", 200).unwrap();
        assert_eq!(alias.free(), 300);
    }
}
