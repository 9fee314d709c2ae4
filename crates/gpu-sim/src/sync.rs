//! Typed atomic cells for the words the simulated device shares.
//!
//! Every shared word follows one of two protocols, and its cell type fixes
//! the memory ordering once so that no call site names one:
//!
//! * [`Published`] — a word whose value hands other data to its readers. A
//!   bucket head names an entry whose bytes were written before the head
//!   moved; a page's host id vouches for metadata reset before the page
//!   was handed out; an in-heap combine value or value-chain head is read
//!   by lanes that act on it. Writers publish with `Release`, readers
//!   observe with `Acquire`, and read-modify-writes are `AcqRel`.
//! * [`Relaxed`] — a word that carries no payload: a statistics counter,
//!   an idempotent flag bit, a result slot read only after its launch
//!   joined. Nothing is read *through* it, so `Relaxed` suffices.
//!
//! Both cells are `#[repr(transparent)]` over the std atomic and their
//! accessors are `#[inline]`: they compile to the same instructions as the
//! raw atomics they replace.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A `u64` that publishes data to its readers (see the module docs).
///
/// Concurrent accesses are `Acquire` loads, `Release` stores and `AcqRel`
/// read-modify-writes; no method takes an [`Ordering`], so a relaxed
/// access to a published word does not compile:
///
/// ```compile_fail
/// use gpu_sim::sync::Published;
/// use std::sync::atomic::Ordering;
/// let head = Published::new(0);
/// head.store(1, Ordering::Relaxed);
/// ```
///
/// ```
/// use gpu_sim::sync::Published;
/// let head = Published::new(0);
/// head.publish(1);
/// assert_eq!(head.observe(), 1);
/// ```
#[derive(Debug)]
#[repr(transparent)]
pub struct Published(AtomicU64);

impl Published {
    pub const fn new(v: u64) -> Self {
        Published(AtomicU64::new(v))
    }

    /// `Acquire` load: everything written before the `publish` (or
    /// successful `cas_publish`) of the value read is visible.
    #[inline]
    pub fn observe(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// `Release` store: everything written before it is visible to an
    /// `observe` that reads `v`.
    #[inline]
    pub fn publish(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// Publish `new` if the word is still `expect` (`Release` on success);
    /// on failure, the word observed instead (`Acquire`).
    #[inline]
    pub fn cas_publish(&self, expect: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange(expect, new, Ordering::Release, Ordering::Acquire)
    }

    /// Replace the word by `f(word)` atomically (`AcqRel`) and return the
    /// previous word. `f` may run more than once under contention.
    #[inline]
    pub fn update(&self, mut f: impl FnMut(u64) -> u64) -> u64 {
        match self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(f(v)))
        {
            Ok(prev) | Err(prev) => prev,
        }
    }

    /// Quiescent read. Precondition: no kernel is in flight (an iteration
    /// boundary, checkpoint capture, recovery), so no writer can race it.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Quiescent write. Precondition: no kernel is in flight, or the word
    /// is not yet reachable by any other thread; the next launch (or
    /// publication) orders it before every reader.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// The integers a [`Relaxed`] cell holds: each names its std atomic and
/// forwards the cell's accesses to it with `Ordering::Relaxed`.
pub trait Word: Copy {
    type Atomic: Debug;
    fn atomic(v: Self) -> Self::Atomic;
    fn load(a: &Self::Atomic) -> Self;
    fn store(a: &Self::Atomic, v: Self);
    fn fetch_add(a: &Self::Atomic, n: Self) -> Self;
    fn fetch_or(a: &Self::Atomic, bits: Self) -> Self;
}

macro_rules! words {
    ($($word:ty => $atomic:ty),*) => {$(
        impl Word for $word {
            type Atomic = $atomic;
            fn atomic(v: Self) -> $atomic {
                <$atomic>::new(v)
            }
            #[inline]
            fn load(a: &$atomic) -> Self {
                a.load(Ordering::Relaxed)
            }
            #[inline]
            fn store(a: &$atomic, v: Self) {
                a.store(v, Ordering::Relaxed)
            }
            #[inline]
            fn fetch_add(a: &$atomic, n: Self) -> Self {
                a.fetch_add(n, Ordering::Relaxed)
            }
            #[inline]
            fn fetch_or(a: &$atomic, bits: Self) -> Self {
                a.fetch_or(bits, Ordering::Relaxed)
            }
        }
    )*};
}

words!(u32 => AtomicU32, u64 => AtomicU64);

/// A word that carries no payload (see the module docs): every access is
/// `Relaxed`, because no other data is read through it. A reader that
/// needs the final value reads it after the launch joined, which orders
/// every lane's write before it.
#[derive(Debug)]
#[repr(transparent)]
pub struct Relaxed<W: Word>(W::Atomic);

impl<W: Word> Relaxed<W> {
    pub fn new(v: W) -> Self {
        Relaxed(W::atomic(v))
    }

    #[inline]
    pub fn get(&self) -> W {
        W::load(&self.0)
    }

    #[inline]
    pub fn set(&self, v: W) {
        W::store(&self.0, v);
    }

    #[inline]
    pub fn fetch_add(&self, n: W) -> W {
        W::fetch_add(&self.0, n)
    }

    #[inline]
    pub fn fetch_or(&self, bits: W) -> W {
        W::fetch_or(&self.0, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_cas_reports_the_observed_word() {
        let head = Published::new(7);
        assert_eq!(head.cas_publish(7, 9), Ok(7));
        assert_eq!(head.cas_publish(7, 11), Err(9));
        assert_eq!(head.update(|v| v * 2), 9);
        assert_eq!(head.observe(), 18);
        head.set(1);
        assert_eq!(head.get(), 1);
    }

    #[test]
    fn relaxed_words_count_and_flag() {
        let touches = Relaxed::<u32>::new(0);
        touches.fetch_add(3);
        assert_eq!(touches.get(), 3);
        let word = Relaxed::<u64>::new(0);
        word.fetch_or(1 << 63);
        word.fetch_or(1);
        assert_eq!(word.get(), (1 << 63) | 1);
    }

    #[test]
    fn cells_are_as_large_as_their_atomics() {
        use std::mem::size_of;
        assert_eq!(size_of::<Published>(), size_of::<AtomicU64>());
        assert_eq!(size_of::<Relaxed<u32>>(), size_of::<AtomicU32>());
        assert_eq!(size_of::<Relaxed<u64>>(), size_of::<AtomicU64>());
    }
}
