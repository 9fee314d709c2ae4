//! A thread block's page leases: the block-local half of block-leased bump
//! allocation.
//!
//! Every lane allocating from a heap page serializes on that page's bump
//! cursor, one device atomic per allocation. A block that allocates from
//! the same page again instead claims a run of it with one cursor atomic,
//! carves its later allocations from the run with a block-local bump
//! (shared memory on a real device), and hands the unused tail back when it
//! is done: the cooperative-group aggregation that *WarpCore* applies to
//! table operations, applied to the allocator. The allocator
//! (`sepo_alloc::group`) owns the protocol; this table is only its storage,
//! one [`Lease`] per slot in a fixed number of slots, so a block allocates
//! nothing for it.
//!
//! A launch gives its blocks a table only when it has
//! [`crate::executor::BlockHooks`], whose `finish` closes every lease; the
//! executor checks that the table is empty after it.

/// Slots in a block's lease table. A key lives in slot `key % LEASE_SLOTS`
/// and displaces whatever other key held that slot.
pub const LEASE_SLOTS: usize = 32;

/// What a block holds of one allocation key: none, an allocation made
/// without a run, or an open run `[next, end)` of `page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The allocation key this record serves, or [`Lease::VACANT`].
    pub key: u32,
    /// The page the open run lies on, or [`Lease::NO_RUN`].
    pub page: u32,
    /// The run's next free byte.
    pub next: u32,
    /// The run's end.
    pub end: u32,
}

impl Lease {
    /// The key of a record that serves no key.
    pub const VACANT: u32 = u32::MAX;
    /// The page of a record that holds no run.
    pub const NO_RUN: u32 = u32::MAX;
    /// An empty slot.
    pub const EMPTY: Lease = Lease {
        key: Lease::VACANT,
        page: Lease::NO_RUN,
        next: 0,
        end: 0,
    };

    /// A record of `key` holding no run.
    pub const fn without_run(key: u32) -> Lease {
        Lease {
            key,
            ..Lease::EMPTY
        }
    }

    /// Does the record hold a run (possibly a used-up one)?
    pub fn is_open(&self) -> bool {
        self.page != Lease::NO_RUN
    }
}

/// One block's lease table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLeases {
    slots: [Lease; LEASE_SLOTS],
    /// Bit `i` set when slot `i` holds a record, so that draining and
    /// checking the table touch only the slots in use.
    used: u32,
}

impl Default for BlockLeases {
    fn default() -> Self {
        BlockLeases {
            slots: [Lease::EMPTY; LEASE_SLOTS],
            used: 0,
        }
    }
}

impl BlockLeases {
    /// Empty the slot `key` maps to and return what it held: the record of
    /// `key`, of another key that shares the slot, or [`Lease::EMPTY`].
    #[inline]
    pub fn take(&mut self, key: u32) -> Lease {
        let slot = key as usize % LEASE_SLOTS;
        self.used &= !(1 << slot);
        std::mem::replace(&mut self.slots[slot], Lease::EMPTY)
    }

    /// Store `lease` in the slot of `key`, which [`BlockLeases::take`]
    /// emptied.
    #[inline]
    pub fn put(&mut self, key: u32, lease: Lease) {
        let slot = key as usize % LEASE_SLOTS;
        if lease != Lease::EMPTY {
            self.used |= 1 << slot;
        }
        self.slots[slot] = lease;
    }

    /// Empty one slot that holds a record and return the record; `None`
    /// once the table is empty.
    pub fn pop(&mut self) -> Option<Lease> {
        if self.used == 0 {
            return None;
        }
        let slot = self.used.trailing_zeros() as usize;
        self.used &= !(1 << slot);
        Some(std::mem::replace(&mut self.slots[slot], Lease::EMPTY))
    }

    /// Does no slot hold a record?
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sharing_a_slot_displace_each_other() {
        let mut t = BlockLeases::default();
        let a = 3;
        let b = a + LEASE_SLOTS as u32;
        assert_eq!(t.take(a), Lease::EMPTY);
        let run = Lease {
            key: a,
            page: 7,
            next: 64,
            end: 512,
        };
        t.put(a, run);
        assert!(!t.is_empty());
        // `b` maps to `a`'s slot: taking it hands back `a`'s record.
        assert_eq!(t.take(b), run);
        t.put(b, Lease::without_run(b));
        assert_eq!(t.pop(), Some(Lease::without_run(b)));
        assert_eq!(t.pop(), None);
        assert!(t.is_empty());
    }
}
